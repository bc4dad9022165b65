"""Coordinator side of the cluster protocol: plan, progress, merge.

A :class:`ClusterCoordinator` plans a sharded sweep into a cluster
directory that only the coordinator needs to reach:

``plan.json``
    Written once by the coordinator, as compact JSON in the
    ``cluster-plan/v3`` format: the table of distinct hardware configs
    (``configs``, each once, in first-use order), the serialised scenario
    list (each entry's ``scenario`` an index into ``configs``), derived
    per-scenario seeds, the shard count, sink format, lease timeout and
    optional resume-cache directory.  Shard ``s`` of ``n`` is the indices
    ``s, s + n, s + 2n, ...`` (:meth:`ClusterPlan.shard`), so the count is
    the whole layout.  Workers are stateless — everything they need to
    execute any scenario is in the plan, which they fetch from the
    coordinator.  A plan in another format (``cluster-plan/v1`` embedded a
    full config in every spec entry, ``cluster-plan/v2`` stored estimated
    costs and an explicit shard list) is refused; re-plan with
    ``reset=True``.

``tasks/``, ``results/``, ``quarantine/``, ``telemetry/``
    The durable effects of the coordinator's
    :class:`~repro.cluster.state.CoordinatorState` (see
    :mod:`repro.cluster.state`): done records, fail and death markers, one
    JSONL sink part per worker, quarantine records and worker metrics.
    Leases and registrations are the state's memory only.

Workers reach the state through a
:class:`~repro.cluster.serve.ClusterCoordinatorServer` over TCP
(:meth:`ClusterCoordinator.run_local` binds one for its local worker
processes) or in process through a
:class:`~repro.cluster.transport.LocalTransport` (a one-worker
``SweepRunner`` sweep).

Correctness under reordering: per-scenario seeds depend only on
``(master_seed, global index)`` — the ``SeedSequence.spawn`` derivation —
or are given as ``seeds`` (a ``SweepRunner`` under a ``seed_key``), and
execution is deterministic given (spec, seed, backend), so the merged
result is field-for-field identical to a serial ``SweepRunner`` run no
matter how many shards, which worker ran what, how work was stolen, or how
many times a crashed scenario was re-executed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from repro.cluster.sinks import check_sink_kind, merge_results
from repro.hardware.parameters import ScenarioConfig
from repro.runtime.cache import CACHE_VERSION, atomic_write_text
from repro.runtime.scenarios import ScenarioSpec
from repro.runtime.sweep import (
    ScenarioOutcome,
    SweepResult,
    _fresh_master_seed,
    derive_scenario_seeds,
)
from repro.topology.spec import build_dataclass

if TYPE_CHECKING:
    from repro.cluster.state import CoordinatorState

PLAN_NAME = "plan.json"
#: The one plan document format written and read.
PLAN_FORMAT = "cluster-plan/v3"
TASKS_DIR = "tasks"
RESULTS_DIR = "results"
#: Per-worker observability metrics snapshots (``telemetry/<worker>.json``),
#: uploaded through the transport's ``telemetry`` op when a worker's
#: ``obs`` enables metrics.  Side data: never read by the protocol itself.
TELEMETRY_DIR = "telemetry"
#: The merged worker metrics :meth:`ClusterCoordinator.merge` writes.
METRICS_JSON = "metrics.json"
METRICS_PROM = "metrics.prom"


def atomic_write_json(path: Path, payload: dict,
                      durable: bool = False) -> None:
    """Write compact JSON via the shared atomic tmp-and-rename idiom.

    ``durable`` fsyncs before the rename, for records whose existence is
    proof (failure and death markers count against a retry budget).
    """
    atomic_write_text(path, json.dumps(payload), durable=durable)


def check_plan_format(name: object) -> None:
    """Reject a plan document in any format but :data:`PLAN_FORMAT` (e.g.
    a ``cluster-plan/v1`` or ``v2`` file an older version wrote)."""
    if name != PLAN_FORMAT:
        raise ValueError(f"unsupported cluster plan format {name!r}: only "
                         f"{PLAN_FORMAT!r} plans are read; re-plan with "
                         f"reset=True to replace it")


@dataclass
class ClusterPlan:
    """The parsed contents of a ``plan.json`` (format :data:`PLAN_FORMAT`).
    """

    master_seed: int
    duration: float
    sink: str
    lease_timeout: float
    cache_dir: Optional[str]
    seeds: list[int]
    specs: list[ScenarioSpec]
    #: Shard count; the layout itself is computed (:meth:`shard`).
    num_shards: int
    #: Serialised :class:`repro.runtime.guard.GuardPolicy` every worker
    #: executes under (``None`` disables supervision — workers then behave
    #: exactly like the pre-guard protocol).
    guard: Optional[dict] = None

    def __post_init__(self) -> None:
        check_sink_kind(self.sink)
        if type(self.num_shards) is not int or self.num_shards < 1:
            raise ValueError(f"num_shards must be an integer >= 1, got "
                             f"{self.num_shards!r}")
        self.guard_policy()  # a malformed guard raises ValueError here

    def shard(self, shard_id: int) -> range:
        """The global indices of shard ``shard_id``: ``shard_id, shard_id +
        num_shards, ...`` in index order (empty when there are more shards
        than scenarios)."""
        return range(shard_id, len(self.specs), self.num_shards)

    def shard_of(self, index: int) -> int:
        """The shard that holds scenario ``index``."""
        return index % self.num_shards

    def guard_policy(self):
        """The parsed :class:`~repro.runtime.guard.GuardPolicy`, or ``None``."""
        if self.guard is None:
            return None
        from repro.runtime.guard import GuardPolicy

        return GuardPolicy.from_dict(self.guard)

    def quarantined_outcome(self, index: int, status: str) -> ScenarioOutcome:
        """The outcome a guarded plan merges for ``index`` once its retry
        budget is spent, the last failure having status ``status``.

        Canonical — built only from the plan and that status, never from
        per-run diagnostics — so it is the same whichever delivery decides
        the quarantine, and a worker can report it to its progress callback
        exactly as the coordinator writes it to the sink.
        """
        from repro.runtime.guard import QUARANTINED

        spec = self.specs[index]
        return ScenarioOutcome(
            scenario_name=spec.name,
            scheduler_name=spec.scheduler_name(),
            seed=self.seeds[index],
            duration=self.duration,
            status=QUARANTINED,
            error=(f"quarantined after spending the retry budget "
                   f"({self.guard_policy().max_attempts} attempt(s)); last "
                   f"failure [{status}]"),
            backend=spec.backend_name(),
        )

    def to_dict(self) -> dict:
        """JSON-serialisable plan document.

        Each distinct hardware config is converted once into the
        ``configs`` table, in first-use order, and each spec entry's
        ``scenario`` is its index there (the paper grid has 4 configs
        across 169 specs).
        """
        converted: dict = {}
        #: id of a converted config dict -> its index in the table.
        index_of: dict[int, int] = {}
        specs = []
        for spec in self.specs:
            entry = spec.to_dict(configs=converted)
            entry["scenario"] = index_of.setdefault(id(entry["scenario"]),
                                                    len(index_of))
            specs.append(entry)
        document = {
            "format": PLAN_FORMAT,
            "cache_version": CACHE_VERSION,
            "master_seed": self.master_seed,
            "duration": self.duration,
            "sink": self.sink,
            "lease_timeout": self.lease_timeout,
            "cache_dir": self.cache_dir,
            "seeds": list(self.seeds),
            "configs": list(converted.values()),
            "specs": specs,
            "num_shards": self.num_shards,
        }
        if self.guard is not None:
            # Emitted only when set: an unguarded plan document stays
            # byte-identical to the pre-guard format.
            document["guard"] = dict(self.guard)
        return document

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterPlan":
        """Parse a plan document.

        Each entry of the ``configs`` table is built once and its frozen
        instance shared by every spec that uses it.  A document in any
        format but :data:`PLAN_FORMAT` raises ``ValueError``.
        """
        check_plan_format(data.get("format"))
        configs = [build_dataclass(ScenarioConfig, entry)
                   for entry in data["configs"]]
        return cls(
            master_seed=data["master_seed"],
            duration=data["duration"],
            sink=data["sink"],
            lease_timeout=data["lease_timeout"],
            cache_dir=data.get("cache_dir"),
            seeds=list(data["seeds"]),
            specs=[ScenarioSpec.from_dict(entry, configs=configs)
                   for entry in data["specs"]],
            num_shards=data["num_shards"],
            guard=data.get("guard"),
        )

    @classmethod
    def load(cls, cluster_dir: str | Path) -> "ClusterPlan":
        """Read and parse ``plan.json`` from a cluster directory."""
        return cls.from_dict(
            json.loads((Path(cluster_dir) / PLAN_NAME).read_text()))


class ClusterCoordinator:
    """Plans a sharded sweep, tracks progress and merges the result.

    Parameters
    ----------
    specs:
        Scenario list; names must be unique and backend names known (a
        duplicate or an unknown backend raises ``ValueError`` here, not in
        every worker).
    duration:
        Simulated seconds per scenario.
    cluster_dir:
        The coordinator's directory for the plan, done records and sink
        parts (workers never read it).
    master_seed:
        Root of the per-scenario seed derivation; ``None`` draws fresh OS
        entropy once and records it in the plan.
    num_shards:
        Shard count — usually the number of machines/workers.
    sink:
        Result-sink format recorded in the plan; ``jsonl`` is the only
        one.
    lease_timeout:
        Seconds without a heartbeat before a claimed scenario is considered
        abandoned and may be stolen.  Must comfortably exceed the heartbeat
        interval (it does by construction: workers heartbeat at a third of
        this) — it does *not* need to exceed scenario runtime.  Leases are
        timed on the coordinator's clock alone.
    cache_dir:
        Optional resume-cache directory advertised in the plan (see
        :class:`~repro.runtime.cache.ResumeCache`).
    guard:
        Optional :class:`~repro.runtime.guard.GuardPolicy` (or its
        ``to_dict`` form) recorded in the plan: workers bound every
        execution with it, report failures through the transport's
        ``fail`` op, and the coordinator's state quarantines a
        scenario once its failures plus lease deaths spend the retry
        budget.  ``None`` keeps the pre-guard protocol bit-for-bit.
    seeds:
        Per-scenario seeds, one per spec (e.g.
        :meth:`SweepRunner.scenario_seeds
        <repro.runtime.sweep.SweepRunner.scenario_seeds>` under a
        ``seed_key``).  ``None`` derives them from ``master_seed`` and the
        scenario index.
    """

    def __init__(self, specs: Sequence[ScenarioSpec], duration: float,
                 cluster_dir: str | Path,
                 master_seed: Optional[int] = 12345,
                 num_shards: int = 3,
                 sink: str = "jsonl",
                 lease_timeout: float = 60.0,
                 cache_dir: Optional[str | Path] = None,
                 guard=None,
                 seeds: Optional[Sequence[int]] = None) -> None:
        self.specs = list(specs)
        if duration <= 0:
            raise ValueError("duration must be positive")
        names = [spec.name for spec in self.specs]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ValueError(f"duplicate scenario names: {sorted(duplicates)}")
        for spec in self.specs:
            spec.backend_name()
        check_sink_kind(sink)
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if seeds is not None and len(seeds) != len(self.specs):
            raise ValueError(f"{len(seeds)} seeds for {len(self.specs)} "
                             f"scenarios")
        self.duration = duration
        self.cluster_dir = Path(cluster_dir)
        self.master_seed = (master_seed if master_seed is not None
                            else _fresh_master_seed())
        self.num_shards = max(1, int(num_shards))
        self.sink = sink
        self.lease_timeout = lease_timeout
        self.cache_dir = None if cache_dir is None else str(cache_dir)
        self.guard = (guard.to_dict() if hasattr(guard, "to_dict")
                      else guard)
        self.seeds = (derive_scenario_seeds(self.master_seed, len(self.specs))
                      if seeds is None else [int(seed) for seed in seeds])
        self._cluster_plan: Optional[ClusterPlan] = None
        #: The plan document :meth:`write_plan` last wrote — the parsed
        #: contents of ``plan.json`` (``None`` until written).  Its parsed
        #: form is :meth:`cluster_plan`.
        self.written_plan: Optional[dict] = None
        #: The text of ``plan.json`` as written: ``json.dumps`` of
        #: :attr:`written_plan`, encoded once.
        self.written_plan_text: Optional[str] = None
        self._state: Optional["CoordinatorState"] = None

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #
    def cluster_plan(self) -> ClusterPlan:
        """The full plan workers execute from (built once, then cached).

        Equal field for field to :meth:`ClusterPlan.load` of the written
        ``plan.json``, so the coordinator's state and the TCP coordinator
        use it instead of re-reading the file.
        """
        if self._cluster_plan is None:
            self._cluster_plan = ClusterPlan(
                master_seed=self.master_seed,
                duration=self.duration,
                sink=self.sink,
                lease_timeout=self.lease_timeout,
                cache_dir=self.cache_dir,
                seeds=self.seeds,
                specs=self.specs,
                num_shards=self.num_shards,
                guard=self.guard,
            )
        return self._cluster_plan

    @staticmethod
    def _sweep_identity(document: dict) -> dict:
        """The part of a plan document that determines result validity.

        Existing done records and sink parts stay valid exactly when the
        (spec, seed, duration) triple of every global index and the part
        format are unchanged — shard layout, lease timeout and cache
        directory are operational knobs a restart may legitimately change.
        A spec entry names its hardware config by index, so the config
        table belongs to the identity too: two sweeps differing only in a
        hardware parameter have the same spec entries.
        """
        return {key: document.get(key)
                for key in ("master_seed", "duration", "seeds", "configs",
                            "specs", "sink")}

    def write_plan(self, reset: bool = False) -> Path:
        """Write ``plan.json`` and create the protocol directories.

        Idempotent for the *same* sweep: re-planning a grid with the same
        scenarios, seeds and duration into the directory resumes it
        (existing done records and sink parts stay valid because execution
        is deterministic; the plan file is refreshed so operational
        changes — shard count, lease timeout — take effect).
        If the directory holds a **different** sweep — other scenarios,
        hardware configs, duration, seeds, or parts of another format — or
        a plan in another format, its done records and parts
        describe the *old* sweep, and silently reusing them would hand back
        the old results; that is refused unless ``reset=True``, which wipes
        the protocol state first.  Note an unseeded coordinator
        (``master_seed=None``) draws fresh entropy per instance, so it
        never matches a prior plan.
        """
        path = self.cluster_dir / PLAN_NAME
        document = self.cluster_plan().to_dict()
        if path.exists():
            try:
                existing = json.loads(path.read_text())
            except json.JSONDecodeError:
                existing = None
            if not isinstance(existing, dict):
                existing = {}
            found = existing.get("format")
            if (found != PLAN_FORMAT or self._sweep_identity(existing)
                    != self._sweep_identity(document)):
                if not reset:
                    raise RuntimeError(
                        f"{self.cluster_dir} already holds state for a "
                        f"different sweep plan"
                        + ("" if found == PLAN_FORMAT
                           else f" (plan format {found!r})")
                        + "; pass reset=True (or use a fresh directory) to "
                          "discard it")
                self.reset_state()
        for sub in (TASKS_DIR, RESULTS_DIR):
            (self.cluster_dir / sub).mkdir(parents=True, exist_ok=True)
        text = json.dumps(document)
        atomic_write_text(path, text)
        self.written_plan = document
        self.written_plan_text = text
        return path

    def reset_state(self) -> None:
        """Discard all protocol state (plan, done records, parts, merged
        metrics, and the in-memory state with its leases)."""
        import shutil

        from repro.runtime.guard import QuarantineStore

        if self._state is not None:
            self._state.close()
            self._state = None
        for sub in (TASKS_DIR, RESULTS_DIR, TELEMETRY_DIR,
                    QuarantineStore.DIRNAME):
            shutil.rmtree(self.cluster_dir / sub, ignore_errors=True)
        for name in (PLAN_NAME, METRICS_JSON, METRICS_PROM):
            (self.cluster_dir / name).unlink(missing_ok=True)

    # ------------------------------------------------------------------ #
    # Progress
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> "CoordinatorState":
        """The coordinator's in-memory state, built on first use from the
        done records and markers in the cluster directory (so a new
        coordinator over a used directory resumes it, with every lease of
        the old run expired)."""
        if self._state is None:
            from repro.cluster.state import CoordinatorState

            self._state = CoordinatorState(self.cluster_dir,
                                           self.cluster_plan())
        return self._state

    def status(self, now: Optional[float] = None) -> dict:
        """Done / leased / stale / pending counts, per shard and overall,
        from the state; lease ages are taken at ``now`` (default: the
        wall clock)."""
        state = self.state
        with state.lock:
            return state.status(time.time() if now is None else now)

    def is_complete(self) -> bool:
        """Whether a done record names every scenario."""
        state = self.state
        with state.lock:
            return state.is_complete()

    def quarantine_records(self) -> list:
        """Durable quarantine records of this sweep (guarded runs only).

        Each is a :class:`repro.runtime.guard.QuarantineRecord`; empty when
        nothing was quarantined (or the plan ran unguarded).
        """
        from repro.runtime.guard import QuarantineStore

        return QuarantineStore(self.cluster_dir).load_all()

    # ------------------------------------------------------------------ #
    # Merge
    # ------------------------------------------------------------------ #
    def result_parts(self) -> list[Path]:
        """All sink parts workers have produced so far."""
        results = self.cluster_dir / RESULTS_DIR
        if not results.exists():
            return []
        return sorted(path for path in results.iterdir()
                      if path.name.startswith("part-")
                      and not path.name.endswith(".tmp"))

    def merge(self, require_complete: bool = True) -> SweepResult:
        """Merge all sink parts into the canonical :class:`SweepResult`.

        With ``require_complete`` (default) the merge fails loudly if any
        scenario index is missing; pass ``False`` to collect a partial
        result from a still-running or abandoned grid.

        When workers uploaded observability telemetry (their ``obs``
        enabled metrics), the per-worker registries are merged and attached
        as ``SweepResult.telemetry`` — and written next to the parts as
        ``metrics.json`` / ``metrics.prom``.  Without telemetry the field
        stays ``None``, so the merged result is field-for-field identical
        to an uninstrumented run.
        """
        result = merge_results(
            self.result_parts(),
            expected_count=len(self.specs) if require_complete else None,
            master_seed=self.master_seed,
            duration=self.duration,
        )
        telemetry = self.merged_telemetry()
        if telemetry is not None:
            result.telemetry = telemetry.to_dict()
            atomic_write_text(self.cluster_dir / METRICS_JSON,
                              telemetry.to_json(indent=2) + "\n")
            atomic_write_text(self.cluster_dir / METRICS_PROM,
                              telemetry.to_prometheus())
        return result

    def merged_telemetry(self):
        """Merge every ``telemetry/<worker>.json`` into one registry.

        Returns a :class:`repro.obs.metrics.MetricsRegistry`, or ``None``
        when no worker uploaded telemetry (the observability-off default).
        Unreadable snapshots are skipped — telemetry is best-effort side
        data and must never fail a merge.
        """
        from repro.obs.metrics import MetricsRegistry

        directory = self.cluster_dir / TELEMETRY_DIR
        if not directory.exists():
            return None
        merged: Optional[MetricsRegistry] = None
        for path in sorted(directory.glob("*.json")):
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if merged is None:
                merged = MetricsRegistry()
            merged.merge(payload)
        return merged

    # ------------------------------------------------------------------ #
    # Local execution convenience
    # ------------------------------------------------------------------ #
    def run_local(self, workers: Optional[int] = None,
                  start_method: Optional[str] = None,
                  reset: bool = False, obs=None) -> SweepResult:
        """Run the whole grid with local worker *processes* and merge.

        Binds a :class:`~repro.cluster.serve.ClusterCoordinatorServer` on
        ``127.0.0.1`` (an ephemeral port) and starts one worker process
        per shard by default, each connecting with a
        :class:`~repro.cluster.transport.SocketTransport` — the protocol
        a multi-machine deployment runs with ``python -m
        repro.cluster.serve`` and ``python -m repro.cluster.worker``.
        ``obs`` (a :class:`repro.obs.ObsConfig` or ``None``) is passed to
        every worker.
        """
        import multiprocessing

        from repro.cluster.serve import ClusterCoordinatorServer

        if workers is None:
            workers = self.num_shards
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else "spawn"
        context = multiprocessing.get_context(start_method)
        server = ClusterCoordinatorServer(self, ("127.0.0.1", 0),
                                          reset=reset)
        try:
            processes = [
                context.Process(target=_run_worker_process,
                                args=(server.address, f"local-{index}",
                                      index % self.num_shards, obs))
                for index in range(max(1, workers))]
            for process in processes:
                process.start()
            # Serve only once every worker is forked, so no server thread
            # is copied into a worker; their connections wait in the
            # listen backlog until then.
            server.start_background()
            for process in processes:
                process.join()
        finally:
            server.stop()
        failed = [p.exitcode for p in processes if p.exitcode != 0]
        if failed:
            raise RuntimeError(f"{len(failed)} local worker process(es) "
                               f"exited with codes {failed}")
        return self.merge()


def _run_worker_process(address: str, worker_id: str, shard: int,
                        obs) -> None:
    """Module-level worker entry point (picklable for spawn contexts)."""
    from repro.cluster.transport import SocketTransport
    from repro.cluster.worker import ClusterWorker

    ClusterWorker(SocketTransport(address), worker_id, shard=shard,
                  obs=obs).run()
