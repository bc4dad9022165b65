"""Parallel scenario sweeps — the engine behind the paper's 169-run grid.

The paper's evaluation (Section 6.2) rests on a grid of 169 long-run
scenarios plus mixed-kind and robustness sweeps.  :class:`SweepRunner` fans a
list of :class:`~repro.runtime.scenarios.ScenarioSpec` out over a
``multiprocessing`` pool and collects the per-scenario
:class:`~repro.analysis.metrics.MetricsSummary` objects into a serialisable
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
* **Resume** — with a ``cache_dir``, each completed scenario is written to
  disk keyed by a hash of everything that determines its result (workload,
  scheduler, seed, duration, batch size).  Re-running an interrupted sweep
  skips the finished scenarios.
* **Fault isolation** — a scenario that raises inside a worker is reported
  as a failed outcome instead of poisoning the pool; the rest of the sweep
  completes.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from repro.analysis.metrics import MetricsSummary
from repro.runtime.cache import CACHE_VERSION, CacheReport, CacheSkip, ResumeCache
from repro.runtime.guard import (
    QUARANTINED,
    EngineInterrupt,
    GuardPolicy,
    QuarantineRecord,
    QuarantineStore,
    injected_scenario_fault,
    perform_injected_fault,
    quarantined_outcome,
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

__all__ = [
    "CACHE_VERSION",
    "CacheReport",
    "CacheSkip",
    "GuardPolicy",
    "ResumeCache",
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
    #: Cohort size when the scenario ran inside a vectorized cohort
    #: (``None`` for the solo path).  Provenance like ``engine`` — the
    #: results are bit-identical either way, so it is excluded from
    #: comparison; recorded so cost models can learn batched throughput
    #: separately from solo throughput.
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


@dataclass
class SweepResult:
    """Collected outcomes of one sweep, in scenario order."""

    master_seed: Optional[int]
    duration: float
    outcomes: list[ScenarioOutcome]
    #: Merged observability metrics of the sweep (a
    #: ``repro.obs.MetricsRegistry`` ``to_dict`` payload) when the sweep
    #: ran with ``REPRO_OBS=...,metrics`` — per-run rollups locally, the
    #: merged per-shard worker registries for a cluster sweep.  ``None``
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
                     guard: Optional[GuardPolicy] = None) -> ScenarioOutcome:
    """Run one scenario and fold the result into a plain-data outcome.

    This is the single execution primitive shared by the in-process sweep,
    the multiprocessing pool workers and the ``repro.cluster`` workers.
    Always returns an outcome — any exception becomes a failed record so a
    bad scenario cannot poison a pool or a shard.  With a ``guard``, the
    engine's event budget / wall deadline bound the run (``timeout``
    outcomes carry partial provenance: events processed, sim-time reached),
    ``MemoryError`` is folded to ``oom``, and a validation pass demotes
    silently-corrupt results to ``invalid-result``.  Without one, behavior
    is byte-identical to the unguarded primitive.
    """
    started = time.perf_counter()
    try:
        fault = injected_scenario_fault(spec.name)
        if fault is not None:
            perform_injected_fault(fault, spec.name, guard)
        result = spec.run(duration, seed=seed, guard=guard)
        if result.obs is not None:
            # Observability artifacts (trace/metrics/profile) go to
            # REPRO_OBS_DIR/<scenario>-seed<seed>/ — the outcome payload
            # itself stays identical to an uninstrumented run.
            result.obs.write_artifacts(f"{spec.name}-seed{seed}")
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


def _execute_scenario(payload: tuple[int, ScenarioSpec, int, float],
                      ) -> tuple[int, ScenarioOutcome]:
    """Pool-worker wrapper around :func:`execute_scenario`."""
    index, spec, seed, duration = payload
    return index, execute_scenario(spec, seed, duration)


def _execute_task(task: tuple) -> list[tuple[int, ScenarioOutcome]]:
    """Pool-worker dispatcher for solo scenarios and whole cohorts.

    ``("solo", payload)`` runs one scenario; ``("cohort", payloads)`` runs
    a list of payloads as one vectorized cohort in this process.  Tasks
    optionally carry a third :class:`GuardPolicy` element (two-tuples stay
    valid so queued pre-guard payloads keep working).  Either way the
    result is a list of ``(index, outcome)`` pairs.
    """
    kind, payload = task[0], task[1]
    guard = task[2] if len(task) > 2 else None
    if kind == "solo":
        index, spec, seed, duration = payload
        return [(index, execute_scenario(spec, seed, duration, guard=guard))]
    from repro.runtime.batch import execute_cohort

    return execute_cohort(payload, guard=guard)


class SweepRunner:
    """Run many scenarios, optionally in parallel, with deterministic seeds.

    Parameters
    ----------
    scenarios:
        The :class:`ScenarioSpec` list to run.  Names must be unique — the
        resume cache and :meth:`SweepResult.summaries` key on them.
    duration:
        Simulated seconds per scenario.
    master_seed:
        Root of the per-scenario seed derivation (see
        :func:`derive_scenario_seeds`).
    workers:
        Worker processes; ``<= 1`` runs serially in-process.  Results are
        identical either way.
    cache_dir:
        Directory for per-scenario resume files; ``None`` disables caching.
        Only successful outcomes are cached, so failures are retried on the
        next attempt.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (cheap on Linux) and ``spawn`` otherwise.
    on_outcome:
        Optional callback invoked with each :class:`ScenarioOutcome` as it
        completes (progress reporting).
    seed_key:
        Optional grouping function ``spec -> key``.  Scenarios with equal
        keys get the *same* derived seed (see :func:`derive_keyed_seed`),
        which makes e.g. scheduler comparisons paired.  Default: every
        scenario gets its own index-derived seed.
    batch_size:
        Cohort size for vectorized execution (``repro.runtime.batch``).
        With ``batch_size > 1``, pending scenarios that resolve to the
        ``analytic`` backend are grouped (in scenario order) into cohorts
        of up to this many members, each advanced as one vectorized unit;
        everything else runs on the solo path.  Results, seeds, resume
        caching and failure isolation are identical to ``batch_size=1`` —
        a cohort sweep is field-for-field equal to a serial sweep.
    guard:
        Optional :class:`~repro.runtime.guard.GuardPolicy` supervising
        every execution: engine-level deadlines/budgets, result
        validation, and a retry budget — a scenario still failing after
        ``guard.max_attempts`` executions is **quarantined** (durable
        record under ``cache_dir``, ``status="quarantined"`` outcome) and
        the sweep completes without it.  ``None`` (the default) preserves
        the unguarded behavior bit-for-bit.
    """

    def __init__(self, scenarios: Sequence[ScenarioSpec], duration: float,
                 master_seed: Optional[int] = 12345, workers: int = 1,
                 cache_dir: Optional[str | Path] = None,
                 start_method: Optional[str] = None,
                 on_outcome: Optional[Callable[[ScenarioOutcome], None]] = None,
                 seed_key: Optional[Callable[[ScenarioSpec], object]] = None,
                 batch_size: int = 1,
                 guard: Optional[GuardPolicy] = None,
                 ) -> None:
        self.scenarios = list(scenarios)
        if duration <= 0:
            raise ValueError("duration must be positive")
        names = [spec.name for spec in self.scenarios]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ValueError(f"duplicate scenario names: {sorted(duplicates)}")
        self.duration = duration
        # Resolve an unseeded sweep to a concrete seed once, so all seed
        # derivations within this runner agree and the SweepResult records
        # the seed that can reproduce the run.
        self.master_seed = (master_seed if master_seed is not None
                            else _fresh_master_seed())
        self.workers = max(1, int(workers))
        self.cache_dir = None if cache_dir is None else Path(cache_dir)
        self._cache = None if cache_dir is None else ResumeCache(cache_dir)
        self._cache_report = CacheReport()
        self.on_outcome = on_outcome
        self.seed_key = seed_key
        self.batch_size = max(1, int(batch_size))
        self.guard = guard
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else "spawn"
        self.start_method = start_method
        #: Sweep-level ``repro.obs.MetricsRegistry`` of the most recent
        #: :meth:`run`, when ``REPRO_OBS`` enabled metrics (else ``None``).
        self.metrics_registry = None

    # ------------------------------------------------------------------ #
    # Seeds and cache keys
    # ------------------------------------------------------------------ #
    def scenario_seeds(self) -> list[int]:
        """The derived per-scenario seeds, in scenario order."""
        if self.seed_key is not None:
            return [derive_keyed_seed(self.master_seed, self.seed_key(spec))
                    for spec in self.scenarios]
        return derive_scenario_seeds(self.master_seed, len(self.scenarios))

    @staticmethod
    def cache_key(spec: ScenarioSpec, seed: int, duration: float) -> str:
        """Hash of the scenario identity + run parameters (see
        :meth:`ResumeCache.key`; the backend lives in the filename)."""
        return ResumeCache.key(spec, seed, duration)

    def cache_report(self) -> CacheReport:
        """What the resume cache did for the most recent :meth:`run`.

        Distinguishes plain misses from entries that were *found* but
        skipped — e.g. written by a different ``CACHE_VERSION`` or physics
        backend — with the reason per scenario.
        """
        return self._cache_report

    def _load_cached(self, spec: ScenarioSpec,
                     seed: int) -> Optional[ScenarioOutcome]:
        if self._cache is None:
            return None
        max_attempts = None if self.guard is None else self.guard.max_attempts
        outcome, reason = self._cache.load(spec, seed, self.duration,
                                           max_attempts=max_attempts)
        if outcome is not None:
            self._cache_report.hits.append(spec.name)
        elif reason is not None:
            self._cache_report.skips.append(CacheSkip(spec.name, reason))
        else:
            self._cache_report.misses.append(spec.name)
        return outcome

    def _store_cached(self, spec: ScenarioSpec, outcome: ScenarioOutcome,
                      attempts: Optional[int] = None) -> None:
        if self._cache is not None:
            self._cache.store(spec, outcome, self.duration,
                              attempts=attempts)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self) -> SweepResult:
        """Run the sweep and return outcomes in scenario order."""
        self._cache_report = CacheReport()
        # Sweep-level metrics when REPRO_OBS enables them (None otherwise:
        # the loop below then only pays one ``is not None`` per outcome).
        from repro.obs import config_from_env

        obs_config = config_from_env()
        registry = None
        if obs_config is not None and obs_config.metrics:
            from repro.obs import MetricsRegistry

            registry = MetricsRegistry()
        self.metrics_registry = registry

        def observe(outcome: ScenarioOutcome) -> None:
            registry.counter("repro_sweep_scenarios_total",
                             status=outcome.status)
            if outcome.status == "timeout":
                registry.counter("repro_sweep_timeouts_total")
            if outcome.from_cache:
                registry.counter("repro_sweep_cache_hits_total")
            else:
                # Cached outcomes report the original run's wall time;
                # only fresh executions feed the wall-clock histogram.
                registry.observe("repro_sweep_scenario_wall_seconds",
                                 outcome.wall_time)
            registry.counter("repro_sweep_events_processed_total",
                             outcome.events_processed)
            registry.counter("repro_sweep_events_elided_total",
                             outcome.events_elided)
            if outcome.cohort:
                registry.observe("repro_sweep_cohort_occupancy",
                                 outcome.cohort)

        seeds = self.scenario_seeds()
        outcomes: list[Optional[ScenarioOutcome]] = [None] * len(self.scenarios)
        pending: list[tuple[int, ScenarioSpec, int, float]] = []
        # Executions charged against each scenario's retry budget (guarded
        # sweeps only), seeded from the resume cache so attempts spent in a
        # previous interrupted run still count.
        attempts: dict[int, int] = {}
        for index, (spec, seed) in enumerate(zip(self.scenarios, seeds)):
            cached = self._load_cached(spec, seed)
            if cached is not None:
                outcomes[index] = cached
                if registry is not None:
                    observe(cached)
                if self.on_outcome is not None:
                    self.on_outcome(cached)
            else:
                pending.append((index, spec, seed, self.duration))
                if self.guard is not None and self._cache is not None:
                    prior = self._cache.recorded_attempts(
                        spec, seed, self.duration)
                    if prior:
                        attempts[index] = prior

        def record(index: int, outcome: ScenarioOutcome) -> None:
            outcomes[index] = outcome
            self._store_cached(self.scenarios[index], outcome,
                               attempts=attempts.get(index))
            if registry is not None:
                observe(outcome)
            if self.on_outcome is not None:
                self.on_outcome(outcome)

        # In-process cohorts share one backend for the whole run, as a
        # ClusterWorker's do: each hardware config's FEU table is built
        # once per sweep.
        cohorts = None
        if self.batch_size > 1:
            from repro.runtime.batch import CohortExecutor

            cohorts = CohortExecutor()

        def execute(payloads: list[tuple[int, ScenarioSpec, int, float]],
                    ) -> None:
            tasks = self._build_tasks(payloads)
            if self.guard is not None:
                for payload in payloads:
                    attempts[payload[0]] = attempts.get(payload[0], 0) + 1
            if self.workers == 1 or len(tasks) == 1:
                for task in tasks:
                    pairs = (cohorts.execute(task[1], guard=task[2])
                             if task[0] == "cohort" else _execute_task(task))
                    for index, outcome in pairs:
                        record(index, outcome)
            else:
                context = multiprocessing.get_context(self.start_method)
                processes = min(self.workers, len(tasks))
                with context.Pool(processes=processes) as pool:
                    for pairs in pool.imap_unordered(_execute_task, tasks):
                        for index, outcome in pairs:
                            record(index, outcome)

        if pending:
            execute(pending)

        # A cached failure is only ever *returned* (rather than retried)
        # when its budget is spent — if the previous run died before
        # formally quarantining it, finish the job now.
        if self.guard is not None and self._cache is not None:
            for index, outcome in enumerate(outcomes):
                if (outcome is not None and outcome.from_cache
                        and not outcome.ok
                        and outcome.status != QUARANTINED):
                    attempts[index] = self._cache.recorded_attempts(
                        self.scenarios[index], seeds[index], self.duration)
                    self._quarantine(index, outcome, attempts[index],
                                     record, registry)

        # Retry/quarantine rounds — guarded sweeps only.  Each failed
        # scenario is re-executed until it succeeds or its budget runs out,
        # at which point it is durably quarantined and the sweep moves on.
        if pending and self.guard is not None:
            scheduled = {payload[0] for payload in pending}
            while True:
                retry: list[tuple[int, ScenarioSpec, int, float]] = []
                for index in sorted(scheduled):
                    outcome = outcomes[index]
                    if outcome is None or outcome.ok:
                        continue
                    if outcome.status == QUARANTINED:
                        continue
                    if attempts.get(index, 0) >= self.guard.max_attempts:
                        self._quarantine(index, outcome,
                                         attempts.get(index, 0), record,
                                         registry)
                    else:
                        if registry is not None:
                            registry.counter("repro_sweep_retries_total",
                                             status=outcome.status)
                        retry.append((index, self.scenarios[index],
                                      seeds[index], self.duration))
                if not retry:
                    break
                execute(retry)

        assert all(outcome is not None for outcome in outcomes)
        telemetry = None
        if registry is not None:
            telemetry = registry.to_dict()
            if obs_config.out_dir is not None:
                out_dir = Path(obs_config.out_dir)
                out_dir.mkdir(parents=True, exist_ok=True)
                (out_dir / "sweep_metrics.json").write_text(
                    registry.to_json(indent=2) + "\n", encoding="utf-8")
                (out_dir / "sweep_metrics.prom").write_text(
                    registry.to_prometheus(), encoding="utf-8")
        return SweepResult(master_seed=self.master_seed,
                           duration=self.duration,
                           outcomes=list(outcomes),
                           telemetry=telemetry)

    def _quarantine(self, index: int, last: ScenarioOutcome, attempts: int,
                    record: Callable[[int, ScenarioOutcome], None],
                    registry) -> None:
        """Retire scenario ``index``: durable record + placeholder outcome.

        The quarantine record lands under ``cache_dir`` (when caching is
        on) so resumed sweeps — and operators via ``repro.obs.report`` —
        see the decision; the recorded outcome keeps the last failure's
        diagnosis with ``status="quarantined"``.
        """
        final = quarantined_outcome(last, attempts)
        if self.cache_dir is not None:
            QuarantineStore(self.cache_dir).record(QuarantineRecord(
                index=index,
                scenario_name=last.scenario_name,
                seed=last.seed,
                attempts=attempts,
                status=last.status,
                error=last.error,
                source="sweep",
            ))
        if registry is not None:
            registry.counter("repro_sweep_quarantined_total",
                             status=last.status)
        record(index, final)

    def _build_tasks(self, pending: list[tuple[int, ScenarioSpec, int, float]],
                     ) -> list[tuple]:
        """Partition pending payloads into solo and cohort tasks.

        Cohorts are formed over the analytic scenarios in scenario order;
        a chunk of one falls back to the solo path (nothing to share).
        Each task carries the runner's guard (``None`` when unguarded).
        """
        if self.batch_size <= 1:
            return [("solo", payload, self.guard) for payload in pending]
        from repro.runtime.batch import cohortable

        tasks: list[tuple] = []
        eligible: list[tuple[int, ScenarioSpec, int, float]] = []
        for payload in pending:
            if cohortable(payload[1]):
                eligible.append(payload)
            else:
                tasks.append(("solo", payload, self.guard))
        for start in range(0, len(eligible), self.batch_size):
            chunk = eligible[start:start + self.batch_size]
            if len(chunk) == 1:
                tasks.append(("solo", chunk[0], self.guard))
            else:
                tasks.append(("cohort", chunk, self.guard))
        return tasks


def run_sweep(scenarios: Sequence[ScenarioSpec], duration: float,
              master_seed: Optional[int] = 12345, workers: int = 1,
              **kwargs) -> SweepResult:
    """Convenience one-shot sweep (see :class:`SweepRunner`)."""
    runner = SweepRunner(scenarios, duration, master_seed=master_seed,
                         workers=workers, **kwargs)
    return runner.run()
