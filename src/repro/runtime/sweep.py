"""Scenario sweeps — the engine behind the paper's 169-run grid.

The paper's evaluation (Section 6.2) rests on a grid of 169 long-run
scenarios plus mixed-kind and robustness sweeps.  :class:`SweepRunner` runs
a list of :class:`~repro.runtime.scenarios.ScenarioSpec` as a one-machine
cluster sweep (see :mod:`repro.cluster`) and returns the per-scenario
:class:`~repro.analysis.metrics.MetricsSummary` objects as a serialisable
:class:`SweepResult`.

Design points:

* **Determinism** — every scenario gets its own seed derived from the master
  seed with ``numpy.random.SeedSequence.spawn``; the derivation depends only
  on (master seed, scenario index), never on worker count or completion
  order, so a 4-worker sweep is bit-identical to a serial one and a grid can
  be extended without disturbing the seeds of existing entries.
* **Plain-data payloads** — workers ship back :class:`ScenarioOutcome`
  records holding only summaries and strings; the live network / collector
  handles never cross the process boundary.
* **One pipeline** — the local sweep plans, runs and merges through
  :class:`~repro.cluster.coordinator.ClusterCoordinator` and
  :class:`~repro.cluster.worker.ClusterWorker`, so the resume cache
  (:class:`~repro.runtime.cache.ResumeCache`), the retry budget, the
  quarantine and the sweep metrics each have one definition, the
  cluster's.
* **Fault isolation** — a scenario that raises is reported as a failed
  outcome (:func:`execute_scenario` never raises); the rest of the sweep
  completes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import tempfile
import time
import traceback
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.analysis.metrics import MetricsSummary
from repro.runtime.cache import CACHE_VERSION, CacheReport
from repro.runtime.guard import (
    QUARANTINED,
    EngineInterrupt,
    GuardPolicy,
    perform_injected_fault,
    validate_backend_states,
    validate_outcome,
)
from repro.runtime.scenarios import (
    ScenarioSpec,
    chain_grid,
    paper_grid,
    star_grid,
)
from repro.sim.queues import ENGINE
from repro.topology.spec import dataclass_to_dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends import BackendSet
    from repro.obs import ObsConfig

__all__ = [
    "CACHE_VERSION",
    "CacheReport",
    "ScenarioOutcome",
    "SweepResult",
    "SweepRunner",
    "chain_grid",
    "derive_keyed_seed",
    "derive_scenario_seeds",
    "execute_scenario",
    "paper_grid",
    "run_sweep",
    "star_grid",
]


def derive_scenario_seeds(master_seed: Optional[int],
                          count: int) -> list[int]:
    """Per-scenario seeds spawned deterministically from ``master_seed``.

    Child ``i`` of ``SeedSequence(master_seed)`` depends only on the master
    seed and ``i``, so extending a grid keeps the seeds of existing entries
    stable (which the resume cache relies on).  The spawned entropy is
    folded to a non-negative int64 because the runner derives the workload
    seed as ``seed + 1``.
    """
    children = np.random.SeedSequence(master_seed).spawn(count)
    return [int(child.generate_state(1, dtype=np.uint64)[0] >> 1)
            for child in children]


def derive_keyed_seed(master_seed: Optional[int], key: object) -> int:
    """Seed derived from ``master_seed`` and a stable grouping key.

    Unlike index-based derivation this depends only on the key's ``repr``,
    so scenarios sharing a key (e.g. the same workload under different
    schedulers) see identical arrival randomness — the paired comparisons
    behind the paper's scheduler tables need exactly that.  ``None`` draws
    fresh OS entropy (matching :func:`derive_scenario_seeds`).
    """
    if master_seed is None:
        master_seed = _fresh_master_seed()
    digest = hashlib.sha256(repr(key).encode()).digest()
    words = [int.from_bytes(digest[i:i + 4], "little")
             for i in range(0, 16, 4)]
    sequence = np.random.SeedSequence([master_seed, *words])
    return int(sequence.generate_state(1, dtype=np.uint64)[0] >> 1)


def _fresh_master_seed() -> int:
    """A random master seed drawn from OS entropy."""
    return int(np.random.SeedSequence().generate_state(
        1, dtype=np.uint64)[0] >> 1)


@dataclass
class ScenarioOutcome:
    """Result of one scenario inside a sweep (plain data, JSON-safe)."""

    scenario_name: str
    scheduler_name: str
    seed: int
    duration: float
    status: str = "ok"
    summary: Optional[MetricsSummary] = None
    requests_issued: int = 0
    error: Optional[str] = None
    #: Resolved physics backend the scenario ran under.
    backend: str = "density"
    #: Simulation events processed — deterministic for a given (scenario,
    #: seed, backend), so it participates in equality and pins the
    #: serial-vs-sharded equivalence tests down to the event count.
    events_processed: int = 0
    #: Events never scheduled thanks to outcome-preserving timer elision
    #: (PR 5/7) — makes the elision wins visible in sweep output.
    #: Deterministic for a given (scenario, seed, backend), but provenance
    #: rather than result identity, so it is excluded from comparison (old
    #: cache entries lack it).
    events_elided: int = field(default=0, compare=False)
    #: Event queue the scenario ran on (always ``"heap"``): provenance,
    #: excluded from comparison.
    engine: str = field(default=ENGINE, compare=False)
    wall_time: float = field(default=0.0, compare=False)
    from_cache: bool = field(default=False, compare=False)
    #: Always ``None``; kept so every cached and JSONL record keeps its
    #: bytes (dropping it is a format change).  Provenance, excluded from
    #: comparison.
    cohort: Optional[int] = field(default=None, compare=False)
    #: Per-link hop digests of a topology run (see
    #: :attr:`repro.runtime.runner.RunResult.hops`); ``None`` for
    #: single-link scenarios.  Plain data — participates in equality like
    #: the summary.
    hops: Optional[list] = None
    #: End-to-end statistics of a topology run; ``None`` for single-link
    #: scenarios.
    end_to_end: Optional[dict] = None
    #: Topology name, or ``None`` for the classic single link.
    topology: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the scenario completed without an error."""
        return self.status == "ok"

    def to_dict(self) -> dict:
        """JSON-serialisable representation (the summary is converted in
        the same walk)."""
        return dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioOutcome":
        """Rebuild an outcome from :meth:`to_dict` output."""
        summary = data.get("summary")
        return cls(
            scenario_name=data["scenario_name"],
            scheduler_name=data["scheduler_name"],
            seed=data["seed"],
            duration=data["duration"],
            status=data.get("status", "ok"),
            summary=None if summary is None else MetricsSummary.from_dict(summary),
            requests_issued=data.get("requests_issued", 0),
            error=data.get("error"),
            backend=data.get("backend", "density"),
            events_processed=data.get("events_processed", 0),
            events_elided=data.get("events_elided", 0),
            engine=data.get("engine", ENGINE),
            wall_time=data.get("wall_time", 0.0),
            from_cache=data.get("from_cache", False),
            cohort=data.get("cohort"),
            hops=data.get("hops"),
            end_to_end=data.get("end_to_end"),
            topology=data.get("topology"),
        )

    @classmethod
    def check_record(cls, data: object) -> dict:
        """``data`` as a plain outcome record, the :meth:`to_dict` form.

        Refuses what :meth:`from_dict` refuses — a non-object, a missing
        ``scenario_name`` / ``scheduler_name`` / ``seed`` / ``duration``, a
        summary that is not an object or lacks a field — with a
        ``TypeError`` or ``KeyError``.  A record already in the
        :meth:`to_dict` form (every field, in field order, and the same for
        its summary) is returned as it is, so a stored or received record
        is passed on without being rebuilt; any other is normalised
        through :meth:`from_dict`, exactly as rebuilding it would.
        """
        if not isinstance(data, dict):
            raise TypeError(f"outcome record must be an object, got "
                            f"{type(data).__name__}")
        summary = data.get("summary")
        if summary is not None and not isinstance(summary, dict):
            raise TypeError(f"outcome summary must be an object, got "
                            f"{type(summary).__name__}")
        if tuple(data) == _RECORD_FIELDS and (
                summary is None or tuple(summary) == _SUMMARY_FIELDS):
            return data
        return cls.from_dict(data).to_dict()


#: :meth:`ScenarioOutcome.to_dict`'s keys, and its summary's, in order.
_RECORD_FIELDS = tuple(f.name for f in fields(ScenarioOutcome))
_SUMMARY_FIELDS = tuple(f.name for f in fields(MetricsSummary))


@dataclass
class SweepResult:
    """Collected outcomes of one sweep, in scenario order."""

    master_seed: Optional[int]
    duration: float
    outcomes: list[ScenarioOutcome]
    #: Merged observability metrics of the sweep (a
    #: ``repro.obs.MetricsRegistry`` ``to_dict`` payload) when its workers
    #: ran with an ``ObsConfig`` that enables metrics — the merged
    #: per-worker registries.  ``None``
    #: (and omitted from JSON) when observability is off, keeping the
    #: serialized form bit-identical to pre-observability output.
    telemetry: Optional[dict] = field(default=None, compare=False)

    @property
    def completed(self) -> list[ScenarioOutcome]:
        """Outcomes that finished successfully."""
        return [outcome for outcome in self.outcomes if outcome.ok]

    @property
    def failed(self) -> list[ScenarioOutcome]:
        """Outcomes whose scenario raised inside the worker."""
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def quarantined(self) -> list[ScenarioOutcome]:
        """Outcomes retired by the supervision layer's retry budget."""
        return [outcome for outcome in self.outcomes
                if outcome.status == QUARANTINED]

    @property
    def quarantined_indices(self) -> list[int]:
        """Scenario indices (sweep order) of the quarantined outcomes."""
        return [index for index, outcome in enumerate(self.outcomes)
                if outcome.status == QUARANTINED]

    def summaries(self) -> dict[str, MetricsSummary]:
        """Scenario name -> summary for the successful outcomes."""
        return {outcome.scenario_name: outcome.summary
                for outcome in self.completed if outcome.summary is not None}

    def to_dict(self) -> dict:
        """JSON-serialisable representation of the whole sweep."""
        data = {
            "version": CACHE_VERSION,
            "master_seed": self.master_seed,
            "duration": self.duration,
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }
        if self.telemetry is not None:
            data["telemetry"] = self.telemetry
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SweepResult":
        """Rebuild a sweep result from :meth:`to_dict` output."""
        return cls(master_seed=data["master_seed"],
                   duration=data["duration"],
                   outcomes=[ScenarioOutcome.from_dict(entry)
                             for entry in data["outcomes"]],
                   telemetry=data.get("telemetry"))

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialise to a JSON string (exact float round-trip)."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        """Parse a sweep result serialised with :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        """Write the sweep result to ``path`` as JSON."""
        Path(path).write_text(self.to_json(indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "SweepResult":
        """Read a sweep result previously written with :meth:`save`."""
        return cls.from_json(Path(path).read_text())


def _failure_outcome(spec: ScenarioSpec, seed: int, duration: float,
                     status: str, error: str, started: float,
                     events_processed: int = 0) -> ScenarioOutcome:
    """A failed outcome carrying the spec's identity and any provenance."""
    return ScenarioOutcome(
        scenario_name=spec.name,
        scheduler_name=spec.scheduler_name(),
        seed=seed,
        duration=duration,
        status=status,
        error=error,
        backend=spec.backend_name(),
        events_processed=events_processed,
        wall_time=time.perf_counter() - started,
    )


def execute_scenario(spec: ScenarioSpec, seed: int, duration: float,
                     guard: Optional[GuardPolicy] = None,
                     backends: Optional[BackendSet] = None,
                     obs: Optional[ObsConfig] = None,
                     ) -> ScenarioOutcome:
    """Run one scenario and fold the result into a plain-data outcome.

    This is the single execution primitive: every
    :class:`~repro.cluster.worker.ClusterWorker` — and so every sweep —
    runs its scenarios through it.  Always returns an outcome — any
    exception becomes a failed record so a bad scenario cannot take its
    worker down.  With a ``guard``, the
    engine's event budget / wall deadline bound the run (``timeout``
    outcomes carry partial provenance: events processed, sim-time reached),
    the faults ``guard.faults`` schedules for this scenario are injected,
    ``MemoryError`` is folded to ``oom``, and a validation pass demotes
    silently-corrupt results to ``invalid-result``.  Without one, behavior
    is byte-identical to the unguarded primitive.  ``backends`` is the
    caller's :class:`~repro.backends.BackendSet` when it runs many
    scenarios; ``None`` lets the run build and own its backend.  ``obs``
    is passed to :meth:`ScenarioSpec.run`: the run records (and writes)
    its own observability artifacts, and the outcome is unchanged.
    """
    started = time.perf_counter()
    try:
        fault = None if guard is None else guard.faults.fault_for(spec.name)
        if fault is not None:
            perform_injected_fault(fault, spec.name, guard)
        result = spec.run(duration, seed=seed, guard=guard, obs=obs,
                          backend=(None if backends is None
                                   else backends.get(spec.backend)))
        outcome = ScenarioOutcome(
            scenario_name=spec.name,
            scheduler_name=result.scheduler_name,
            seed=seed,
            duration=duration,
            status="ok",
            summary=result.summary,
            requests_issued=result.requests_issued,
            backend=result.backend,
            events_processed=result.events_processed,
            events_elided=result.events_elided,
            engine=result.engine,
            wall_time=time.perf_counter() - started,
            hops=result.hops,
            end_to_end=result.end_to_end,
            topology=result.topology,
        )
        if guard is not None and guard.validate:
            problems = validate_outcome(outcome)
            if not problems and result.network is not None:
                problems = validate_backend_states(result.network.backend,
                                                   spec.scenario)
            if problems:
                return _failure_outcome(
                    spec, seed, duration, "invalid-result",
                    "result validation failed: " + "; ".join(problems),
                    started, events_processed=outcome.events_processed)
        return outcome
    except EngineInterrupt as exc:
        return _failure_outcome(spec, seed, duration, "timeout", str(exc),
                                started,
                                events_processed=exc.events_processed)
    except MemoryError as exc:
        return _failure_outcome(spec, seed, duration, "oom",
                                f"MemoryError: {exc}", started)
    except Exception:
        return _failure_outcome(spec, seed, duration, "error",
                                traceback.format_exc(), started)


class SweepRunner:
    """Run many scenarios on this machine, with deterministic seeds.

    A local sweep is a cluster sweep with the coordinator in process:
    :meth:`run` plans the scenarios with a
    :class:`~repro.cluster.coordinator.ClusterCoordinator`, runs them with
    cluster workers (:class:`~repro.cluster.worker.ClusterWorker`) and
    merges their sink parts.  Caching, retries, quarantine and metrics are
    the cluster's, so a local sweep and a sharded one follow the same rules
    and return the same outcomes.

    Parameters
    ----------
    scenarios:
        The :class:`ScenarioSpec` list to run.  Names must be unique — the
        resume cache and :meth:`SweepResult.summaries` key on them; a
        duplicate makes :meth:`run` raise ``ValueError``.
    duration:
        Simulated seconds per scenario.
    master_seed:
        Root of the per-scenario seed derivation (see
        :func:`derive_scenario_seeds`).
    workers:
        ``1`` runs one worker in process, over a
        :class:`~repro.cluster.transport.LocalTransport`; more runs
        :meth:`ClusterCoordinator.run_local
        <repro.cluster.coordinator.ClusterCoordinator.run_local>` with that
        many worker processes.  Results are identical either way.
    cache_dir:
        Resume-cache directory (see :class:`ResumeCache`); ``None`` disables
        caching.  Only successful outcomes are cached, so failures are
        retried on the next run.  It is also the run's coordinator
        directory (plan, sink parts, quarantine records, merged metrics),
        whose protocol state every :meth:`run` resets: run one sweep at a
        time per directory.  Without it, the coordinator directory is a
        temporary one, removed after the merge.
    start_method:
        ``multiprocessing`` start method of the worker processes when
        ``workers > 1`` (see :meth:`ClusterCoordinator.run_local`).
    on_outcome:
        Optional callback invoked with each :class:`ScenarioOutcome`: as it
        completes with one worker (failed attempts of a guarded sweep
        included, then the quarantined outcome once a scenario's retry
        budget is spent), from the merged result after the run with more.
        Either way the last call for a scenario is its outcome in the
        returned result.
    seed_key:
        Optional grouping function ``spec -> key``.  Scenarios with equal
        keys get the *same* derived seed (see :func:`derive_keyed_seed`),
        which makes e.g. scheduler comparisons paired.  Default: every
        scenario gets its own index-derived seed.
    batch_size:
        Vestigial: accepted and ignored, like
        :class:`~repro.cluster.worker.ClusterWorker`'s.  Claim batches are
        sized from the count of pending scenarios.
    guard:
        Optional :class:`~repro.runtime.guard.GuardPolicy` supervising
        every execution: engine-level deadlines/budgets, result
        validation, and a retry budget — a scenario still failing after
        ``guard.max_attempts`` executions is **quarantined** by the
        coordinator (a record under the coordinator directory, a
        ``status="quarantined"`` outcome) and the sweep completes without
        it.  The budget and the quarantine last one :meth:`run`.  ``None``
        (the default) preserves the unguarded behavior bit-for-bit.
        Faults the policy schedules (``guard.faults``) ride in the plan.
    obs:
        Optional :class:`~repro.obs.ObsConfig` of every worker (see
        :class:`~repro.cluster.worker.ClusterWorker`); their metrics come
        back as :attr:`SweepResult.telemetry`.
    """

    def __init__(self, scenarios: Sequence[ScenarioSpec], duration: float,
                 master_seed: Optional[int] = 12345, workers: int = 1,
                 cache_dir: Optional[str | Path] = None,
                 start_method: Optional[str] = None,
                 on_outcome: Optional[Callable[[ScenarioOutcome], None]] = None,
                 seed_key: Optional[Callable[[ScenarioSpec], object]] = None,
                 batch_size: int = 1,
                 guard: Optional[GuardPolicy] = None,
                 obs: Optional[ObsConfig] = None,
                 ) -> None:
        self.scenarios = list(scenarios)
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.duration = duration
        # Resolve an unseeded sweep to a concrete seed once, so all seed
        # derivations within this runner agree and the SweepResult records
        # the seed that can reproduce the run.
        self.master_seed = (master_seed if master_seed is not None
                            else _fresh_master_seed())
        self.workers = max(1, int(workers))
        self.cache_dir = None if cache_dir is None else Path(cache_dir)
        self._cache_report = CacheReport()
        self.on_outcome = on_outcome
        self.seed_key = seed_key
        self.guard = guard
        self.obs = obs
        self.start_method = start_method

    def scenario_seeds(self) -> list[int]:
        """The derived per-scenario seeds, in scenario order."""
        if self.seed_key is not None:
            return [derive_keyed_seed(self.master_seed, self.seed_key(spec))
                    for spec in self.scenarios]
        return derive_scenario_seeds(self.master_seed, len(self.scenarios))

    def cache_report(self) -> CacheReport:
        """What the resume cache did for the most recent :meth:`run`.

        Distinguishes plain misses from entries that were *found* but
        skipped — e.g. written by a different ``CACHE_VERSION`` or physics
        backend — with the reason per scenario.  With ``workers > 1`` it is
        read from the merged outcomes (hits are the ``from_cache`` ones,
        every other scenario a miss), so skips are not reported.
        """
        return self._cache_report

    def run(self) -> SweepResult:
        """Plan, run and merge the sweep; returns outcomes in scenario
        order."""
        from repro.cluster.coordinator import ClusterCoordinator

        # Never more processes than scenarios: a spare one only idles.
        workers = min(self.workers, max(1, len(self.scenarios)))
        with (tempfile.TemporaryDirectory(prefix="repro-sweep-")
              if self.cache_dir is None
              else contextlib.nullcontext(self.cache_dir)) as directory:
            coordinator = ClusterCoordinator(
                self.scenarios, self.duration, directory,
                master_seed=self.master_seed, num_shards=workers,
                cache_dir=self.cache_dir, guard=self.guard,
                seeds=self.scenario_seeds())
            # The resume cache is the only memory a local sweep keeps
            # across runs: the done records of the last one must not
            # short-circuit it.
            coordinator.reset_state()
            try:
                if workers == 1:
                    return self._run_in_process(coordinator)
                result = coordinator.run_local(workers, self.start_method,
                                               obs=self.obs)
            finally:
                coordinator.state.close()
        self._cache_report = CacheReport()
        for outcome in result.outcomes:
            if self.cache_dir is not None:
                (self._cache_report.hits if outcome.from_cache
                 else self._cache_report.misses).append(outcome.scenario_name)
            if self.on_outcome is not None:
                self.on_outcome(outcome)
        return result

    def _run_in_process(self, coordinator) -> SweepResult:
        """One :class:`~repro.cluster.worker.ClusterWorker` over a
        :class:`~repro.cluster.transport.LocalTransport` to the
        coordinator's state, then the merge."""
        from repro.cluster.transport import LocalTransport
        from repro.cluster.worker import ClusterWorker

        coordinator.write_plan()
        worker = ClusterWorker(LocalTransport(coordinator.state), "local-0",
                               shard=0, on_outcome=self.on_outcome,
                               obs=self.obs)
        worker.run()
        self._cache_report = worker.cache_report
        return coordinator.merge()


def run_sweep(scenarios: Sequence[ScenarioSpec], duration: float,
              master_seed: Optional[int] = 12345, workers: int = 1,
              **kwargs) -> SweepResult:
    """Convenience one-shot sweep (see :class:`SweepRunner`)."""
    runner = SweepRunner(scenarios, duration, master_seed=master_seed,
                         workers=workers, **kwargs)
    return runner.run()
