"""Coordinator side of the filesystem cluster protocol.

The protocol needs nothing but a directory every participant can reach (a
shared filesystem across machines, or a local path for multi-process runs):

``plan.json``
    Written once by the coordinator: the serialised scenario list, derived
    per-scenario seeds, the deterministic :class:`ShardPlan`, sink kind,
    lease timeout and optional resume-cache directory.  Workers are stateless
    — everything they need to execute any scenario is in the plan.

``tasks/<index>.lease``
    Claim + heartbeat for one scenario.  Created atomically
    (``O_CREAT | O_EXCL``) by the claiming worker; its mtime is refreshed by
    a heartbeat thread while the scenario runs.  A lease whose heartbeat is
    older than the lease timeout belongs to a dead worker and may be taken
    over (atomic rename), so a crash mid-scenario delays that scenario by at
    most one timeout.

``tasks/<index>.done``
    Completion marker, written (atomically, tmp + rename) only *after* the
    outcome is durable in the worker's sink part.

``results/part-<worker>.*``
    One sink part per worker (see :mod:`repro.cluster.sinks`).

Correctness under reordering: per-scenario seeds depend only on
``(master_seed, global index)`` — the same ``SeedSequence.spawn`` derivation
the serial sweep uses — and execution is deterministic given (spec, seed,
backend), so the merged result is field-for-field identical to a serial
``SweepRunner`` run no matter how many shards, which worker ran what, how
work was stolen, or how many times a crashed scenario was re-executed.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro.cluster.planner import (
    CostModel,
    RecordedCostModel,
    ShardPlan,
    plan_shards,
)
from repro.cluster.sinks import SINK_KINDS, merge_results
from repro.runtime.cache import CACHE_VERSION, atomic_write_text, cost_model_path
from repro.runtime.scenarios import ScenarioSpec
from repro.runtime.sweep import (
    SweepResult,
    _fresh_master_seed,
    derive_scenario_seeds,
)

PLAN_NAME = "plan.json"
TASKS_DIR = "tasks"
RESULTS_DIR = "results"
WORKERS_DIR = "workers"
#: Per-worker observability metrics snapshots (``telemetry/<worker>.json``),
#: uploaded through the transport's ``telemetry`` op when ``REPRO_OBS``
#: enables metrics.  Side data: never read by the protocol itself.
TELEMETRY_DIR = "telemetry"


def lease_path(cluster_dir: Path, index: int) -> Path:
    """Lease file for global scenario ``index``."""
    return cluster_dir / TASKS_DIR / f"{index}.lease"


def done_path(cluster_dir: Path, index: int) -> Path:
    """Done marker for global scenario ``index``."""
    return cluster_dir / TASKS_DIR / f"{index}.done"


def atomic_write_json(path: Path, payload: dict,
                      durable: bool = False) -> None:
    """Write compact JSON via the shared atomic tmp-and-rename idiom.

    ``durable`` fsyncs before the rename — done markers must never become
    visible while the sink record they vouch for could still be lost.
    """
    atomic_write_text(path, json.dumps(payload), durable=durable)


@dataclass
class ClusterPlan:
    """The parsed contents of a ``plan.json``."""

    master_seed: int
    duration: float
    sink: str
    lease_timeout: float
    cache_dir: Optional[str]
    seeds: list[int]
    specs: list[ScenarioSpec]
    shard_plan: ShardPlan
    #: Seconds of cross-machine clock disagreement the lease protocol
    #: absorbs before declaring a lease stale (filesystem transport: lease
    #: mtimes are written by one machine's clock and read by another's).
    clock_skew_tolerance: float = 5.0
    #: Serialised :class:`repro.runtime.guard.GuardPolicy` every worker
    #: executes under (``None`` disables supervision — workers then behave
    #: exactly like the pre-guard protocol).
    guard: Optional[dict] = None

    def guard_policy(self):
        """The parsed :class:`~repro.runtime.guard.GuardPolicy`, or ``None``."""
        if self.guard is None:
            return None
        from repro.runtime.guard import GuardPolicy

        return GuardPolicy.from_dict(self.guard)

    def to_dict(self) -> dict:
        """JSON-serialisable plan document.

        Each distinct hardware config is converted once and its dict shared
        by every spec entry that uses it (the paper grid has 4 across 169
        specs); the document is written, never mutated.
        """
        configs: dict = {}
        document = {
            "format": "cluster-plan/v1",
            "cache_version": CACHE_VERSION,
            "master_seed": self.master_seed,
            "duration": self.duration,
            "sink": self.sink,
            "lease_timeout": self.lease_timeout,
            "clock_skew_tolerance": self.clock_skew_tolerance,
            "cache_dir": self.cache_dir,
            "seeds": list(self.seeds),
            "specs": [spec.to_dict(configs=configs) for spec in self.specs],
            "shard_plan": self.shard_plan.to_dict(),
        }
        if self.guard is not None:
            # Emitted only when set: an unguarded plan document stays
            # byte-identical to the pre-guard format.
            document["guard"] = dict(self.guard)
        return document

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterPlan":
        """Parse a plan document.

        Each distinct hardware config is built once and its frozen
        instance shared by every spec that uses it (the paper grid has 4
        across 169 specs).
        """
        if data.get("format") != "cluster-plan/v1":
            raise ValueError(f"not a cluster plan: format "
                             f"{data.get('format')!r}")
        configs: list = []
        return cls(
            master_seed=data["master_seed"],
            duration=data["duration"],
            sink=data["sink"],
            lease_timeout=data["lease_timeout"],
            clock_skew_tolerance=data.get("clock_skew_tolerance", 5.0),
            cache_dir=data.get("cache_dir"),
            seeds=list(data["seeds"]),
            specs=[ScenarioSpec.from_dict(entry, configs=configs)
                   for entry in data["specs"]],
            shard_plan=ShardPlan.from_dict(data["shard_plan"]),
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
        Scenario list; names must be unique (same contract as
        :class:`~repro.runtime.sweep.SweepRunner`).
    duration:
        Simulated seconds per scenario.
    cluster_dir:
        Shared directory for the plan, leases and sink parts.
    master_seed:
        Root of the per-scenario seed derivation; ``None`` draws fresh OS
        entropy once and records it in the plan.
    num_shards:
        Shard count — usually the number of machines/workers.
    cost_model:
        Scenario cost model for the planner.  ``None`` auto-loads the
        persisted ``cost_model.json`` from the cache directory (falling
        back to the cluster directory, then to the static heuristic) — see
        :meth:`record_costs`, which writes observed wall-clocks back after
        every merge so each sweep calibrates the next plan.
    sink:
        Result-sink kind workers write through: ``jsonl`` (default),
        ``json`` or ``columnar``.
    lease_timeout:
        Seconds without a heartbeat before a claimed scenario is considered
        abandoned and may be stolen.  Must comfortably exceed the heartbeat
        interval (it does by construction: workers heartbeat at a third of
        this) — it does *not* need to exceed scenario runtime.
    clock_skew_tolerance:
        Extra seconds of observed lease age forgiven before a lease counts
        as stale.  On the filesystem transport, lease mtimes are written by
        the owning worker's machine and read by every other machine; a
        reader whose clock runs ahead of the writer's inflates every
        observed age by the skew, and without this slack a *healthy*
        worker's lease would be falsely taken over.  The socket transport
        computes all ages on the coordinator's single clock, where this
        merely adds caution.
    cache_dir:
        Optional shared resume-cache directory (see
        :class:`~repro.runtime.cache.ResumeCache`).
    guard:
        Optional :class:`~repro.runtime.guard.GuardPolicy` (or its
        ``to_dict`` form) recorded in the plan: workers bound every
        execution with it, report failures through the transport's
        ``fail`` op, and the coordinator-side transport quarantines a
        scenario once its failures plus lease deaths spend the retry
        budget.  ``None`` keeps the pre-guard protocol bit-for-bit.
    """

    def __init__(self, specs: Sequence[ScenarioSpec], duration: float,
                 cluster_dir: str | Path,
                 master_seed: Optional[int] = 12345,
                 num_shards: int = 3,
                 cost_model: Optional[CostModel] = None,
                 sink: str = "jsonl",
                 lease_timeout: float = 60.0,
                 clock_skew_tolerance: float = 5.0,
                 cache_dir: Optional[str | Path] = None,
                 guard=None) -> None:
        self.specs = list(specs)
        if duration <= 0:
            raise ValueError("duration must be positive")
        names = [spec.name for spec in self.specs]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ValueError(f"duplicate scenario names: {sorted(duplicates)}")
        if sink not in SINK_KINDS:
            raise ValueError(f"unknown sink kind {sink!r}; "
                             f"expected one of {sorted(SINK_KINDS)}")
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if clock_skew_tolerance < 0:
            raise ValueError("clock_skew_tolerance must be non-negative")
        self.duration = duration
        self.cluster_dir = Path(cluster_dir)
        self.master_seed = (master_seed if master_seed is not None
                            else _fresh_master_seed())
        self.num_shards = max(1, int(num_shards))
        self.cost_model = cost_model
        self.sink = sink
        self.lease_timeout = lease_timeout
        self.clock_skew_tolerance = clock_skew_tolerance
        self.cache_dir = None if cache_dir is None else str(cache_dir)
        self.guard = (guard.to_dict() if hasattr(guard, "to_dict")
                      else guard)
        self._shard_plan: Optional[ShardPlan] = None
        self._cluster_plan: Optional[ClusterPlan] = None
        #: The plan document :meth:`write_plan` last wrote — the parsed
        #: contents of ``plan.json`` (``None`` until written).  Its parsed
        #: form is :meth:`cluster_plan`.
        self.written_plan: Optional[dict] = None

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #
    def cost_model_path(self) -> Path:
        """Where the persistent cost model lives for this coordinator.

        The shared resume-cache directory when one is configured (so every
        sweep using that cache calibrates every other), the cluster
        directory otherwise.  Note the file survives :meth:`reset_state` —
        calibration data is cross-sweep knowledge, not sweep state.
        """
        base = self.cache_dir if self.cache_dir is not None else self.cluster_dir
        return cost_model_path(base)

    def effective_cost_model(self) -> Optional[CostModel]:
        """The cost model planning actually uses: the explicit one, else a
        persisted calibrated model if present, else ``None`` (the planner's
        static heuristic)."""
        if self.cost_model is not None:
            return self.cost_model
        return RecordedCostModel.load_if_present(self.cost_model_path())

    def plan(self) -> ShardPlan:
        """The deterministic shard plan (computed once, then cached)."""
        if self._shard_plan is None:
            self._shard_plan = plan_shards(self.specs, self.num_shards,
                                           self.duration,
                                           cost_model=self.effective_cost_model())
        return self._shard_plan

    def cluster_plan(self) -> ClusterPlan:
        """The full plan workers execute from (built once, then cached).

        Equal field for field to :meth:`ClusterPlan.load` of the written
        ``plan.json``, so the TCP coordinator serves from it instead of
        re-reading the file.
        """
        if self._cluster_plan is None:
            self._cluster_plan = ClusterPlan(
                master_seed=self.master_seed,
                duration=self.duration,
                sink=self.sink,
                lease_timeout=self.lease_timeout,
                clock_skew_tolerance=self.clock_skew_tolerance,
                cache_dir=self.cache_dir,
                seeds=derive_scenario_seeds(self.master_seed,
                                            len(self.specs)),
                specs=self.specs,
                shard_plan=self.plan(),
                guard=self.guard,
            )
        return self._cluster_plan

    @staticmethod
    def _sweep_identity(document: dict) -> dict:
        """The part of a plan document that determines result validity.

        Existing done markers and sink parts stay valid exactly when the
        (spec, seed, duration) triple of every global index is unchanged —
        shard layout, estimated costs (which drift as ``cost_model.json``
        learns), sink kind (the merge reads any mixture of part formats),
        lease timeout and cache directory are operational knobs a restart
        may legitimately change.
        """
        return {key: document.get(key)
                for key in ("master_seed", "duration", "seeds", "specs")}

    def write_plan(self, reset: bool = False) -> Path:
        """Write ``plan.json`` and create the protocol directories.

        Idempotent for the *same* sweep: re-planning a grid with the same
        scenarios, seeds and duration into the directory resumes it
        (existing done markers and sink parts stay valid because execution
        is deterministic; the plan file is refreshed so operational
        changes — recalibrated shard costs, lease timeout — take effect).
        If the directory holds a **different** sweep — other scenarios,
        duration, seeds — its leases, done markers and parts describe the
        *old* sweep, and silently reusing them would hand back the old
        results; that is refused unless ``reset=True``, which wipes the
        protocol state first.  Note an unseeded coordinator
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
            if (existing is None or self._sweep_identity(existing)
                    != self._sweep_identity(document)):
                if not reset:
                    raise RuntimeError(
                        f"{self.cluster_dir} already holds state for a "
                        f"different sweep plan; pass reset=True (or use a "
                        f"fresh directory) to discard it")
                self.reset_state()
        for sub in (TASKS_DIR, RESULTS_DIR, WORKERS_DIR):
            (self.cluster_dir / sub).mkdir(parents=True, exist_ok=True)
        atomic_write_json(path, document)
        self.written_plan = document
        return path

    def reset_state(self) -> None:
        """Discard all protocol state (plan, leases, done markers, parts)."""
        import shutil

        from repro.runtime.guard import QuarantineStore

        for sub in (TASKS_DIR, RESULTS_DIR, WORKERS_DIR, TELEMETRY_DIR,
                    QuarantineStore.DIRNAME):
            shutil.rmtree(self.cluster_dir / sub, ignore_errors=True)
        (self.cluster_dir / PLAN_NAME).unlink(missing_ok=True)

    # ------------------------------------------------------------------ #
    # Progress
    # ------------------------------------------------------------------ #
    def status(self, include_owners: bool = False) -> dict:
        """Done / leased / pending counts, per shard and overall.

        With ``include_owners`` the (single) directory scan also collects
        ``busy_workers`` — the ids behind the live leases — reading each
        live lease file once.
        """
        plan = self.plan()
        now = time.time()
        per_shard = []
        totals = {"done": 0, "leased": 0, "stale": 0, "pending": 0}
        owners: set = set()
        # Same staleness rule the transports apply: forgive up to the skew
        # tolerance of observed age before declaring a lease abandoned.
        stale_after = self.lease_timeout + self.clock_skew_tolerance
        for shard in plan.shards:
            counts = {"done": 0, "leased": 0, "stale": 0, "pending": 0}
            for index in shard:
                if done_path(self.cluster_dir, index).exists():
                    counts["done"] += 1
                    continue
                lease = lease_path(self.cluster_dir, index)
                try:
                    age = now - lease.stat().st_mtime
                except OSError:
                    counts["pending"] += 1
                    continue
                if age >= stale_after:
                    counts["stale"] += 1
                    continue
                counts["leased"] += 1
                if include_owners:
                    try:
                        owner = json.loads(lease.read_text()).get("worker_id")
                    except (OSError, json.JSONDecodeError):
                        owner = None
                    if owner:
                        owners.add(owner)
            per_shard.append(counts)
            for key, value in counts.items():
                totals[key] += value
        status = {"shards": per_shard, "total": totals,
                  "scenarios": len(self.specs)}
        if include_owners:
            status["busy_workers"] = sorted(owners)
        return status

    def is_complete(self) -> bool:
        """Whether every scenario has a done marker."""
        return all(done_path(self.cluster_dir, index).exists()
                   for index in range(len(self.specs)))

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

        When workers uploaded observability telemetry (``REPRO_OBS``
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
            atomic_write_text(self.cluster_dir / "metrics.json",
                              telemetry.to_json(indent=2) + "\n")
            atomic_write_text(self.cluster_dir / "metrics.prom",
                              telemetry.to_prometheus())
        return result

    def merged_telemetry(self):
        """Merge every ``telemetry/<worker>.json`` into one registry.

        Returns a :class:`repro.obs.metrics.MetricsRegistry`, or ``None``
        when no worker uploaded telemetry (the ``REPRO_OBS``-off default).
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
    # Cost-model persistence
    # ------------------------------------------------------------------ #
    def record_costs(self, result: SweepResult) -> Optional[Path]:
        """Fold ``result``'s per-scenario wall-clock into the persistent
        cost model, so the *next* sweep plans from calibrated costs.

        Loads (or creates) ``cost_model.json`` at :meth:`cost_model_path`,
        absorbs every fresh successful outcome and saves atomically.
        Returns the path, or ``None`` when the result held no usable
        observation (e.g. everything came from cache).
        """
        path = self.cost_model_path()
        model = RecordedCostModel.load_if_present(path)
        if model is None:
            model = RecordedCostModel()
        if model.calibrate(result) == 0:
            return None
        return model.save(path)

    # ------------------------------------------------------------------ #
    # Local execution convenience
    # ------------------------------------------------------------------ #
    def run_local(self, workers: Optional[int] = None,
                  start_method: Optional[str] = None,
                  reset: bool = False) -> SweepResult:
        """Run the whole grid with local worker *processes* and merge.

        One worker per shard by default.  Real multi-machine deployments
        run ``python -m repro.cluster.worker`` against the shared directory
        instead; this helper exists so examples, tests and CI exercise the
        identical protocol on one box.
        """
        import multiprocessing

        self.write_plan(reset=reset)
        if workers is None:
            workers = self.num_shards
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else "spawn"
        context = multiprocessing.get_context(start_method)
        processes = []
        for worker_index in range(max(1, workers)):
            shard = worker_index % self.num_shards
            process = context.Process(
                target=_run_worker_process,
                args=(str(self.cluster_dir), f"local-{worker_index}", shard),
            )
            process.start()
            processes.append(process)
        for process in processes:
            process.join()
        failed = [p.exitcode for p in processes if p.exitcode != 0]
        if failed:
            raise RuntimeError(f"{len(failed)} local worker process(es) "
                               f"exited with codes {failed}")
        result = self.merge()
        self.record_costs(result)
        return result


def _run_worker_process(cluster_dir: str, worker_id: str, shard: int) -> None:
    """Module-level worker entry point (picklable for spawn contexts)."""
    from repro.cluster.worker import ClusterWorker

    ClusterWorker(cluster_dir, worker_id, shard=shard).run()
