"""The ladder's six workloads.

Each workload is a small object with four steps:

``setup(seed, workdir)``
    Everything a user pays before the measured call: spec/grid build,
    server bind and plan write, and for ``grid-resume`` the cache fill.
``call()``
    The timed call — one public entry point of the layer under test.
``observe(raw)``
    Folds the call's results into plain data (:class:`Observed`) and runs
    the workload's own correctness checks.  Runs after the timer stops.
``close()``
    Stops servers; files live under ``workdir``, which the caller removes.

Backend and engine are always set in the spec, never read from the
environment.  Durations are constructor arguments, so tests can run every
workload at a tiny size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

#: Cohort size of the local sweeps (one cohort holds up to 64 scenarios).
GRID_BATCH = 64
#: MHP attempt batch size used by every workload.
ATTEMPT_BATCH = 100
#: TCP passes replayed against the filled cache in ``grid-resume``.
RESUME_PASSES = 5
#: Simulation seed of ``chain5``.  The chain's cost swings about 4x with the
#: seed (148k to 609k events at 1 simulated second over eight seeds), far
#: beyond any useful regression bound, so its physics is pinned and
#: ``--seed`` does not reach it.
CHAIN_SEED = 7
#: Master seed of the three grids, pinned for the same reason.  A lost frame
#: in one of the grid's three robustness scenarios starts a recovery storm
#: whose length depends on when the loss happens (one of them ran 49k events
#: at one seed and 282k at another, at 0.5 simulated seconds), so with a
#: free seed two scenarios would decide the grid's time.
GRID_SEED = 12345


@dataclass
class Observed:
    """Plain-data view of one timed call."""

    #: One dict per scenario, in scenario order (see :func:`scenario_record`).
    scenarios: list[dict]
    #: Simulated seconds the call covered (summed over scenarios and passes).
    sim_seconds: float
    #: Scenarios the call completed (summed over passes).
    scenario_count: int
    #: Exact counts taken from the results (cache hits, e2e pairs, ...).
    counts: dict = field(default_factory=dict)
    #: What actually ran, read from the results.
    provenance: dict = field(default_factory=dict)
    #: Failed correctness checks, as human-readable lines.
    problems: list[str] = field(default_factory=list)


def scenario_record(outcome) -> dict:
    """The fields of a ``RunResult``/``ScenarioOutcome`` the digest covers,
    plus the provenance fields the record reports."""
    summary = outcome.summary
    return {
        "status": getattr(outcome, "status", "ok"),
        "summary": None if summary is None else summary.to_dict(),
        "events_processed": outcome.events_processed,
        "events_elided": outcome.events_elided,
        "hops": outcome.hops,
        "end_to_end": outcome.end_to_end,
        # Provenance: excluded from the digest.
        "backend": outcome.backend,
        "engine": outcome.engine,
        "topology": outcome.topology,
        "cohort": getattr(outcome, "cohort", None),
        "from_cache": getattr(outcome, "from_cache", False),
    }


def _provenance(scenarios: list[dict]) -> dict:
    executed = [s for s in scenarios if not s["from_cache"]]
    return {
        "backends": sorted({s["backend"] for s in scenarios}),
        "engines": sorted({s["engine"] for s in scenarios}),
        "topologies": sorted({s["topology"] or "single-link"
                              for s in scenarios}),
        "cohort_sizes": sorted({s["cohort"] for s in executed
                                if s["cohort"]}),
        "from_cache": len(scenarios) - len(executed),
    }


def _status_problems(scenarios: list[dict]) -> list[str]:
    bad = [s for s in scenarios if s["status"] != "ok"]
    return [f"{len(bad)} scenario(s) not ok"] if bad else []


# --------------------------------------------------------------------------- #
# Single runs
# --------------------------------------------------------------------------- #
class _SingleRun:
    """A workload whose timed call is one ``ScenarioSpec.run``."""

    name = ""
    duration = 0.0

    def __init__(self, duration: Optional[float] = None) -> None:
        if duration is not None:
            self.duration = float(duration)
        self.spec = None
        self.seed: Optional[int] = None

    def build_spec(self, seed: int):
        raise NotImplementedError

    def setup(self, seed: int, workdir: Path) -> None:
        self.spec, self.seed = self.build_spec(seed)

    def call(self):
        return self.spec.run(self.duration, seed=self.seed)

    def observe(self, result) -> Observed:
        record = scenario_record(result)
        counts = {}
        if result.end_to_end is not None:
            counts = {"e2e_pairs": result.end_to_end["pairs"],
                      "swaps": result.end_to_end["swaps"]}
        problems = _status_problems([record])
        if result.events_processed <= 0:
            problems.append("no events were processed")
        return Observed(scenarios=[record], sim_seconds=self.duration,
                        scenario_count=1, counts=counts,
                        provenance=_provenance([record]),
                        problems=problems)

    def close(self) -> None:
        pass


class LinkAnalytic(_SingleRun):
    name = "link-analytic"
    duration = 300.0
    why = ("QL2020 link, CK+MD traffic on the analytic backend: the protocol "
           "stack (MHP, EGP, queue, scheduler) does most of the work")
    params = {"hardware": "QL2020", "backend": "analytic", "engine": "heap",
              "scheduler": "FCFS", "attempt_batch": ATTEMPT_BATCH,
              "traffic": "CK f=0.99 k=1 F>=0.6 + MD f=0.6 k=3 F>=0.55",
              "duration_s": duration, "seed": "--seed"}

    def build_spec(self, seed: int):
        from repro.core.messages import Priority
        from repro.hardware.parameters import ql2020_scenario
        from repro.runtime import ScenarioSpec, WorkloadSpec

        spec = ScenarioSpec(
            name=self.name, scenario=ql2020_scenario(),
            workload=(WorkloadSpec(priority=Priority.CK, load_fraction=0.99,
                                   max_pairs=1, min_fidelity=0.6),
                      WorkloadSpec(priority=Priority.MD, load_fraction=0.6,
                                   max_pairs=3, min_fidelity=0.55)),
            scheduler="FCFS", seed=seed, attempt_batch_size=ATTEMPT_BATCH,
            backend="analytic", engine="heap")
        return spec, seed


class LinkDensity(_SingleRun):
    name = "link-density"
    duration = 60.0
    why = ("Lab link, uniform NL/CK/MD traffic on the density-matrix "
           "backend: the only workload where quantum and hardware physics show")
    params = {"hardware": "Lab", "backend": "density", "engine": "heap",
              "scheduler": "FCFS", "attempt_batch": ATTEMPT_BATCH,
              "traffic": "usage pattern Uniform", "duration_s": duration,
              "seed": "--seed"}

    def build_spec(self, seed: int):
        from repro.hardware.parameters import lab_scenario
        from repro.runtime import USAGE_PATTERNS, ScenarioSpec

        spec = ScenarioSpec(
            name=self.name, scenario=lab_scenario(),
            workload=USAGE_PATTERNS["Uniform"].specs, scheduler="FCFS",
            seed=seed, attempt_batch_size=ATTEMPT_BATCH, backend="density",
            engine="heap")
        return spec, seed


class Chain5(_SingleRun):
    name = "chain5"
    duration = 1.0
    why = ("5-node swap-ASAP chain, Ultra load: the MHP poll storm and the "
           "topology layer")
    params = {"topology": "chain(5)", "hardware": "Lab", "load": "Ultra",
              "backend": "analytic", "engine": "heap",
              "attempt_batch": ATTEMPT_BATCH, "duration_s": duration,
              "seed": CHAIN_SEED}

    def build_spec(self, seed: int):
        from repro.runtime import chain_grid

        spec, = chain_grid(lengths=(5,), loads=("Ultra",),
                           attempt_batch_size=ATTEMPT_BATCH,
                           backend="analytic", engine="heap")
        return spec, CHAIN_SEED


# --------------------------------------------------------------------------- #
# Grids
# --------------------------------------------------------------------------- #
def paper_specs():
    """The 169-scenario paper grid, analytic backend and heap engine set
    explicitly."""
    from repro.runtime import paper_grid

    return paper_grid(attempt_batch_size=ATTEMPT_BATCH, backend="analytic",
                      engine="heap")


def _sweep_observed(result, passes: int = 1) -> Observed:
    scenarios = [scenario_record(outcome) for outcome in result.outcomes]
    return Observed(
        scenarios=scenarios,
        sim_seconds=passes * result.duration * len(scenarios),
        scenario_count=passes * len(scenarios),
        provenance=_provenance(scenarios),
        problems=_status_problems(scenarios))


class GridLocal:
    name = "grid-local"
    duration = 0.5
    why = ("169-scenario paper grid through SweepRunner cohorts of 64: FEU "
           "tables are shared, engine and protocol dominate, cache writes")
    params = {"grid": "paper_grid (169 scenarios)", "backend": "analytic",
              "engine": "heap",
              "attempt_batch": ATTEMPT_BATCH, "duration_s": duration,
              "runner": f"SweepRunner(workers=1, batch_size={GRID_BATCH})",
              "cache": "fresh", "master_seed": GRID_SEED}

    def __init__(self, duration: Optional[float] = None) -> None:
        if duration is not None:
            self.duration = float(duration)
        self.runner = None

    def setup(self, seed: int, workdir: Path) -> None:
        from repro.runtime import SweepRunner

        self.runner = SweepRunner(paper_specs(), self.duration,
                                  master_seed=GRID_SEED, workers=1,
                                  batch_size=GRID_BATCH,
                                  cache_dir=workdir / "cache")

    def call(self):
        return self.runner.run()

    def observe(self, result) -> Observed:
        observed = _sweep_observed(result)
        report = self.runner.cache_report()
        observed.counts = {"cache_hits": len(report.hits),
                           "cache_misses": len(report.misses)}
        return observed

    def close(self) -> None:
        pass


class _TcpPass:
    """One coordinator + server over its own cluster directory."""

    def __init__(self, specs, duration: float, seed: int,
                 cluster_dir: Path) -> None:
        from repro.cluster.coordinator import ClusterCoordinator
        from repro.cluster.serve import ClusterCoordinatorServer

        self.coordinator = ClusterCoordinator(
            specs, duration, cluster_dir, master_seed=seed, num_shards=1,
            sink="jsonl")
        self.server = ClusterCoordinatorServer(self.coordinator,
                                               ("127.0.0.1", 0))
        self.server.start_background()

    def run(self, cache_dir: Path):
        """One worker over one connection, then the merge."""
        from repro.cluster.transport import SocketTransport
        from repro.cluster.worker import ClusterWorker

        worker = ClusterWorker(SocketTransport(self.server.address),
                               worker_id="ladder", cache_dir=cache_dir,
                               batch_size=1)
        worker.run()
        return worker.cache_report, self.coordinator.merge()

    def close(self) -> None:
        self.server.stop()


def _tcp_counts(reports) -> dict:
    return {"cache_hits": sum(len(report.hits) for report in reports),
            "cache_misses": sum(len(report.misses) for report in reports)}


class GridTcp:
    name = "grid-tcp"
    duration = 0.2
    why = ("the paper grid one scenario at a time through a TCP coordinator: "
           "FEU tables are rebuilt per scenario, full claim/snapshot/submit "
           "protocol")
    params = {"grid": "paper_grid (169 scenarios)", "backend": "analytic",
              "engine": "heap",
              "attempt_batch": ATTEMPT_BATCH, "duration_s": duration,
              "coordinator": "ClusterCoordinatorServer 127.0.0.1, 1 shard, "
                             "jsonl sink",
              "worker": "one ClusterWorker, one SocketTransport, "
                        "batch_size=1, fresh cache",
              "master_seed": GRID_SEED}

    def __init__(self, duration: Optional[float] = None) -> None:
        if duration is not None:
            self.duration = float(duration)
        self.tcp: Optional[_TcpPass] = None
        self.cache_dir: Optional[Path] = None

    def setup(self, seed: int, workdir: Path) -> None:
        self.cache_dir = workdir / "cache"
        self.tcp = _TcpPass(paper_specs(), self.duration, GRID_SEED,
                            workdir / "cluster")

    def call(self):
        return self.tcp.run(self.cache_dir)

    def observe(self, raw) -> Observed:
        report, result = raw
        observed = _sweep_observed(result)
        observed.counts = _tcp_counts([report])
        return observed

    def close(self) -> None:
        if self.tcp is not None:
            self.tcp.close()


class GridResume:
    name = "grid-resume"
    duration = 0.2
    why = ("grid-tcp replayed against a filled cache: no simulation, so it "
           "isolates the cluster protocol, cache reads and the merge")
    params = {"grid": "paper_grid (169 scenarios)", "backend": "analytic",
              "engine": "heap",
              "attempt_batch": ATTEMPT_BATCH, "duration_s": duration,
              "fill": f"SweepRunner(workers=1, batch_size={GRID_BATCH}) "
                      f"during setup",
              "passes": RESUME_PASSES,
              "master_seed": GRID_SEED}

    def __init__(self, duration: Optional[float] = None,
                 passes: int = RESUME_PASSES) -> None:
        if duration is not None:
            self.duration = float(duration)
        self.passes = passes
        self.fill = None
        self.cache_dir: Optional[Path] = None
        self.tcp: list[_TcpPass] = []

    def setup(self, seed: int, workdir: Path) -> None:
        from repro.runtime import SweepRunner

        specs = paper_specs()
        self.cache_dir = workdir / "cache"
        self.fill = SweepRunner(specs, self.duration, master_seed=GRID_SEED,
                                workers=1, batch_size=GRID_BATCH,
                                cache_dir=self.cache_dir).run()
        self.tcp = [_TcpPass(specs, self.duration, GRID_SEED,
                             workdir / f"cluster-{index}")
                    for index in range(self.passes)]

    def call(self):
        return [tcp.run(self.cache_dir) for tcp in self.tcp]

    def observe(self, raw) -> Observed:
        reports = [report for report, _ in raw]
        results = [result for _, result in raw]
        observed = _sweep_observed(results[0], passes=len(results))
        observed.counts = _tcp_counts(reports)
        fill = _sweep_observed(self.fill)
        observed.provenance["fill"] = fill.provenance
        observed.problems += [f"fill: {line}" for line in fill.problems]
        for index, result in enumerate(results):
            if result.outcomes != self.fill.outcomes:
                observed.problems.append(
                    f"pass {index}: merged TCP outcomes differ from the "
                    f"SweepRunner outcomes that filled the cache")
        return observed

    def close(self) -> None:
        # Each stop waits up to the server's half-second poll interval;
        # stopping them side by side keeps teardown to one interval.
        import threading

        stoppers = [threading.Thread(target=tcp.close) for tcp in self.tcp]
        for stopper in stoppers:
            stopper.start()
        for stopper in stoppers:
            stopper.join()


#: The ladder, in round-robin order.
WORKLOADS = {workload.name: workload for workload in (
    LinkAnalytic, LinkDensity, Chain5, GridLocal, GridTcp, GridResume)}
