"""High-level simulation runner combining network, workload and metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.metrics import MetricsCollector, MetricsSummary
from repro.core.scheduler import SchedulingStrategy
from repro.hardware.parameters import ScenarioConfig
from repro.network.network import LinkLayerNetwork
from repro.runtime.workload import RequestGenerator, WorkloadSpec
from repro.sim.queues import ENGINE


@dataclass
class RunResult:
    """Outcome of one simulation run.

    The summary fields are plain data so the result can cross process
    boundaries (sweep workers) and be serialised.  The live ``metrics`` /
    ``network`` handles are in-process conveniences only: they are excluded
    from comparison and dropped when the result is pickled.
    """

    scenario_name: str
    scheduler_name: str
    simulated_time: float
    summary: MetricsSummary
    requests_issued: int
    seed: Optional[int] = None
    #: Resolved name of the physics backend that produced this result.
    backend: str = "density"
    #: Name of the event queue the run was simulated on (always
    #: ``"heap"``): provenance, not part of the result identity — excluded
    #: from comparison like the live handles below.
    engine: str = field(default=ENGINE, compare=False)
    #: Simulation events processed during the run — deterministic for a
    #: given (scenario, seed, backend), and the raw signal benchmarks use
    #: to compare runs across machines.
    events_processed: int = 0
    #: Events never scheduled thanks to outcome-preserving timer elision
    #: (PR 5/7): skipped watchdogs, no-op busy polls, collapsed reply
    #: hand-overs.  Provenance alongside ``events_processed`` — makes the
    #: elision wins visible in sweep output without being part of the
    #: result identity.
    events_elided: int = field(default=0, compare=False)
    #: Per-link (hop) delivery digests for multi-link topology runs
    #: (``repro.topology``): one plain-data dict per link — pairs,
    #: throughput, fidelity, latency, errors.  ``None`` for single-link runs.
    hops: Optional[list] = None
    #: End-to-end statistics of a topology run: chain swap-ASAP delivery
    #: (pairs, fidelity, latency, swaps) or switched-star aggregate
    #: (pairs, fairness).  ``None`` for single-link runs.
    end_to_end: Optional[dict] = None
    #: Name of the topology the run was simulated on; ``None`` = the
    #: classic single link.
    topology: Optional[str] = None
    metrics: Optional[MetricsCollector] = field(default=None, repr=False,
                                                compare=False)
    network: Optional[LinkLayerNetwork] = field(default=None, repr=False,
                                                compare=False)

    def __getstate__(self) -> dict:
        # Never ship the live network/collector across processes: they hold
        # the full event queue and qubit states and are not picklable.
        state = self.__dict__.copy()
        state["metrics"] = None
        state["network"] = None
        return state


class Run:
    """One simulation run, of a single link or of a topology.

    A run owns its network — and through it the physics backend, the event
    engine and the CREATE id counter — plus one workload generator and one
    metrics collector per link; each link's workload uses its link seed
    ``+ 1``.  Subclasses build the network and assemble the summary.

    ``obs`` is a ``repro.obs.ObsConfig`` or ``None`` (record nothing).
    The run keeps its ``ObsSession`` as :attr:`obs`; attaching it only sets
    tracer attributes, and when the config has an ``out_dir``,
    :meth:`finalize` writes the artifacts to
    ``<out_dir>/<name>-seed<seed>/``.  ``guard`` (a
    :class:`repro.runtime.guard.GuardPolicy`) arms the engine before the
    first event executes.
    """

    def __init__(self, name: str, network, links: Sequence[LinkLayerNetwork],
                 link_seeds: Sequence[Optional[int]],
                 workload: Sequence[WorkloadSpec],
                 scheduler: str | SchedulingStrategy,
                 seed: Optional[int], obs=None, guard=None,
                 release_memory: bool = True) -> None:
        self.name = name
        self.seed = seed
        self.network = network
        workload = list(workload)
        self.collectors = [MetricsCollector(link,
                                            release_memory=release_memory)
                           for link in links]
        self.generators = [
            RequestGenerator(link, workload, metrics=collector,
                             seed=None if link_seed is None
                             else link_seed + 1)
            for link, link_seed, collector in zip(links, link_seeds,
                                                  self.collectors)]
        self.scheduler_name = (scheduler if isinstance(scheduler, str)
                               else scheduler.name)
        self.obs = None
        if obs is not None:
            from repro.obs import ObsSession

            self.obs = ObsSession(obs)
            self.obs.attach(network)
            self.obs.start_profiler()
        if guard is not None:
            guard.install(network.engine)

    def run(self, duration: float) -> RunResult:
        """Run the simulation for ``duration`` simulated seconds."""
        self.start()
        self.network.run(duration)
        return self.finalize(duration)

    # The start / advance_to / finalize split lets a caller advance a run
    # in steps (the topology tests do): slicing the advancement composes
    # to exactly the same run as one run(duration) call.
    def start(self) -> None:
        """Begin the workload; the run can then be advanced incrementally."""
        for generator in self.generators:
            generator.start()

    def advance_to(self, time: float) -> None:
        """Advance the simulation to absolute simulated ``time``."""
        self.network.run_until(time)

    def finalize(self, duration: float) -> RunResult:
        """Collect the result after the run has reached ``duration``."""
        result = RunResult(
            scenario_name=self.name,
            scheduler_name=self.scheduler_name,
            simulated_time=duration,
            requests_issued=sum(generator.requests_issued
                                for generator in self.generators),
            seed=self.seed,
            backend=self.network.backend.name,
            events_processed=self.network.engine.processed_events,
            events_elided=self.network.engine.elided_events,
            network=self.network,
            **self._assemble(duration),
        )
        if self.obs is not None:
            self.obs.finish_run(result)
            self.obs.write_artifacts(f"{self.name}-seed{self.seed}")
        return result

    def _assemble(self, duration: float) -> dict:
        """The run-kind-specific :class:`RunResult` fields: ``summary`` and
        whatever else the kind reports."""
        raise NotImplementedError


class SimulationRun(Run):
    """One complete link-layer simulation.

    Parameters
    ----------
    scenario:
        Hardware scenario (Lab or QL2020).
    workload:
        The workload specs describing the CREATE arrival process.
    scheduler:
        Scheduling strategy name ("FCFS", "HigherWFQ", "LowerWFQ") or instance.
    seed:
        Master seed; the workload uses ``seed + 1``.
    emission_multiplexing:
        Forwarded to the EGP.
    backend:
        Physics backend for the whole run; a name, an instance, or ``None``
        for the environment default (``REPRO_BACKEND``).
    elide_watchdog:
        Forwarded to the EGPs; ``None`` skips reply watchdogs exactly when
        the scenario cannot lose classical frames.
    name:
        The run's name (results, artifact directory); defaults to the
        scenario's.
    obs, guard:
        See :class:`Run`.
    """

    def __init__(self, scenario: ScenarioConfig,
                 workload: Sequence[WorkloadSpec],
                 scheduler: str | SchedulingStrategy = "FCFS",
                 seed: Optional[int] = 12345,
                 emission_multiplexing: bool = True,
                 attempt_batch_size: int = 1,
                 backend=None,
                 elide_watchdog: Optional[bool] = None,
                 timer_elision: bool = True,
                 name: Optional[str] = None,
                 obs=None, guard=None) -> None:
        self.scenario = scenario
        network = LinkLayerNetwork(scenario, scheduler=scheduler, seed=seed,
                                   emission_multiplexing=emission_multiplexing,
                                   attempt_batch_size=attempt_batch_size,
                                   backend=backend,
                                   elide_watchdog=elide_watchdog,
                                   timer_elision=timer_elision)
        super().__init__(name or scenario.name, network, [network], [seed],
                         workload, scheduler, seed, obs=obs, guard=guard)
        self.metrics = self.collectors[0]

    def _assemble(self, duration: float) -> dict:
        return {"summary": self.metrics.summary(), "metrics": self.metrics}


def run_scenario(scenario: ScenarioConfig, workload: Sequence[WorkloadSpec],
                 duration: float, **kwargs) -> RunResult:
    """Convenience one-shot runner used by benchmarks and examples."""
    return SimulationRun(scenario, workload, **kwargs).run(duration)
