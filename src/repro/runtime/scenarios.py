"""Catalogue of the paper's evaluation scenarios.

Two families are provided:

* *single-kind* scenarios (Section 6.2): only one request kind (NL, CK or MD)
  with load *Low* (f=0.7), *High* (f=0.99) or *Ultra* (f=1.5), different
  ``k_max`` values and different request origins — the grid behind the 169
  long-run scenarios;

* *mixed-kind* scenarios (Section 6.3 and Appendix C.2): the usage patterns
  Uniform / MoreNL / MoreCK / MoreMD / NoNLMoreCK / NoNLMoreMD combined with
  the FCFS, LowerWFQ and HigherWFQ schedulers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Union

from repro.core.messages import Priority
from repro.hardware.parameters import ScenarioConfig, lab_scenario, ql2020_scenario
from repro.runtime.runner import RunResult, SimulationRun
from repro.runtime.workload import UsagePattern, WorkloadSpec
from repro.sim.queues import ENGINE
from repro.topology.spec import (
    Topology,
    build_dataclass as _build_dataclass,
    dataclass_to_dict,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.base import PhysicsBackend
    from repro.obs import ObsConfig

#: Load levels of the long runs (Section 6): name -> f_P.
LONG_RUN_LOADS: Mapping[str, float] = MappingProxyType(
    {"Low": 0.7, "High": 0.99, "Ultra": 1.5})

#: Default fixed target fidelity of the long runs.
DEFAULT_MIN_FIDELITY = 0.64


def _pattern(name: str, nl: float, ck: float, md: float,
             nl_pairs: int = 3, ck_pairs: int = 3, md_pairs: int = 256,
             min_fidelity: float = DEFAULT_MIN_FIDELITY) -> UsagePattern:
    specs = []
    if nl > 0:
        specs.append(WorkloadSpec(priority=Priority.NL, load_fraction=nl,
                                  max_pairs=nl_pairs,
                                  min_fidelity=min_fidelity))
    if ck > 0:
        specs.append(WorkloadSpec(priority=Priority.CK, load_fraction=ck,
                                  max_pairs=ck_pairs,
                                  min_fidelity=min_fidelity))
    if md > 0:
        specs.append(WorkloadSpec(priority=Priority.MD, load_fraction=md,
                                  max_pairs=md_pairs,
                                  min_fidelity=min_fidelity))
    return UsagePattern(name=name, specs=tuple(specs))


#: The usage patterns of Appendix C.2, Table 2.
USAGE_PATTERNS: Mapping[str, UsagePattern] = MappingProxyType({
    "Uniform": _pattern("Uniform", 0.99 / 3, 0.99 / 3, 0.99 / 3,
                        nl_pairs=1, ck_pairs=1, md_pairs=1),
    "MoreNL": _pattern("MoreNL", 0.99 * 4 / 6, 0.99 / 6, 0.99 / 6),
    "MoreCK": _pattern("MoreCK", 0.99 / 6, 0.99 * 4 / 6, 0.99 / 6),
    "MoreMD": _pattern("MoreMD", 0.99 / 6, 0.99 / 6, 0.99 * 4 / 6),
    "NoNLMoreCK": _pattern("NoNLMoreCK", 0.0, 0.99 * 4 / 5, 0.99 / 5),
    "NoNLMoreMD": _pattern("NoNLMoreMD", 0.0, 0.99 / 5, 0.99 * 4 / 5),
})


@dataclass
class ScenarioSpec:
    """A fully specified simulation scenario ready to run."""

    name: str
    scenario: ScenarioConfig
    workload: tuple[WorkloadSpec, ...]
    scheduler: str = "FCFS"
    seed: int = 12345
    attempt_batch_size: int = 1
    #: Physics backend name; ``None`` resolves through ``REPRO_BACKEND``.
    #: Kept as a string (not an instance) so specs stay picklable for sweep
    #: workers and hashable for the sweep cache.
    backend: Optional[str] = None
    #: Event-queue name, recorded as provenance.  ``"heap"`` is the only
    #: engine; any other value raises ``ValueError``.
    engine: str = ENGINE
    #: Multi-link network topology (:class:`repro.topology.Topology`);
    #: ``None`` keeps the classic single-link run.  When set, ``scenario``
    #: still names the per-link hardware used for display/cost features, but
    #: the per-link parameters come from the topology's link specs and the
    #: run dispatches to :class:`repro.topology.run.TopologyRun`.
    topology: Optional[Topology] = None

    def __post_init__(self) -> None:
        if self.engine != ENGINE:
            raise ValueError(f"unknown event engine {self.engine!r}; "
                             f"the only engine is {ENGINE!r}")

    def backend_name(self) -> str:
        """The concrete backend name this spec resolves to right now."""
        from repro.backends import resolve_backend_name

        return resolve_backend_name(self.backend)

    # ------------------------------------------------------------------ #
    # Serialisation and identity (cluster plans, resume cache)
    # ------------------------------------------------------------------ #
    def scheduler_name(self) -> str:
        """Scheduler name whether ``scheduler`` is a string or an instance."""
        return (self.scheduler if isinstance(self.scheduler, str)
                else self.scheduler.name)

    def to_dict(self, configs: Optional[dict[ScenarioConfig, dict]] = None,
                ) -> dict:
        """JSON-serialisable representation (cluster plan files).

        Scheduler instances are flattened to their name — a spec rebuilt
        from this dict resolves the scheduler through
        :func:`repro.core.scheduler.make_scheduler`, so custom instances must
        be registered there to survive a plan round-trip.

        ``configs`` shares converted hardware configs across calls: pass
        the same (initially empty) dict for every spec of one document, and
        each distinct hardware config is converted once — its ``scenario``
        dict is then shared, so the caller must not mutate it.  Without it
        every call returns fresh containers.
        """
        if configs is None:
            scenario = dataclass_to_dict(self.scenario)
        else:
            scenario = configs.get(self.scenario)
            if scenario is None:
                scenario = configs[self.scenario] = dataclass_to_dict(
                    self.scenario)
        return {
            "name": self.name,
            "scenario": scenario,
            "workload": [{**dataclass_to_dict(w), "priority": w.priority.name}
                         for w in self.workload],
            "scheduler": self.scheduler_name(),
            "seed": self.seed,
            "attempt_batch_size": self.attempt_batch_size,
            "backend": self.backend,
            "engine": self.engine,
            "topology": (None if self.topology is None
                         else self.topology.to_dict()),
        }

    @classmethod
    def from_dict(cls, data: dict,
                  configs: Optional[Sequence[ScenarioConfig]] = None,
                  ) -> "ScenarioSpec":
        """Rebuild a spec serialised with :meth:`to_dict`.

        With ``configs`` (a plan document's config table, built once), the
        entry's ``scenario`` is an index into it and the frozen
        :class:`ScenarioConfig` instance is shared; without it,
        ``scenario`` is the config's dict.
        """
        workload = tuple(
            _build_dataclass(WorkloadSpec,
                             {**entry, "priority": Priority[entry["priority"]]})
            for entry in data["workload"])
        if configs is None:
            scenario = _build_dataclass(ScenarioConfig, data["scenario"])
        else:
            index = data["scenario"]
            if type(index) is not int or not 0 <= index < len(configs):
                raise ValueError(f"spec {data['name']!r}: config index "
                                 f"{index!r} is not one of the "
                                 f"{len(configs)} configs")
            scenario = configs[index]
        return cls(
            name=data["name"],
            scenario=scenario,
            workload=workload,
            scheduler=data.get("scheduler", "FCFS"),
            seed=data.get("seed", 12345),
            attempt_batch_size=data.get("attempt_batch_size", 1),
            backend=data.get("backend"),
            # Plans written while the engine was selectable store ``None``
            # for "the default", which was always the heap.
            engine=data.get("engine") or ENGINE,
            topology=(Topology.from_dict(data["topology"])
                      if data.get("topology") else None),
        )

    def identity_payload(self, configs: Optional[dict[ScenarioConfig, dict]]
                         = None) -> dict:
        """Everything that defines the scenario *itself*.

        Excludes the backend and the event engine (the same scenario
        simulated under a different physics backend shares an identity; the
        resume cache keys on ``(identity, backend)`` — with
        the engine recorded alongside — so those dimensions stay
        detectable), the legacy ``seed`` field
        (sweeps derive per-scenario seeds from the master seed), and the
        topology — which the resume cache records in the entry payload
        (name + content hash) so a topology redefinition under an unchanged
        scenario name is *found and reported* rather than silently missed.

        ``configs`` is passed to :meth:`to_dict`: callers that key many
        specs share one dict, so each hardware config is converted once.
        """
        payload = self.to_dict(configs)
        payload.pop("backend")
        payload.pop("engine")
        payload.pop("seed")
        payload.pop("topology")
        return payload

    def identity_key(self) -> str:
        """Stable short hash of :meth:`identity_payload`.

        Depends only on the scenario definition — never on grid position,
        backend or master seed — so cache entries survive grid reordering
        and extension.
        """
        canonical = json.dumps(self.identity_payload(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:20]

    def run(self, duration: float, seed: Optional[int] = None,
            attempt_batch_size: Optional[int] = None,
            backend: Union[None, str, PhysicsBackend] = None,
            guard=None, obs: Optional[ObsConfig] = None) -> RunResult:
        """Build and run the scenario for ``duration`` simulated seconds.

        ``backend`` overrides the spec's: a name (the run builds and owns a
        fresh backend) or an instance owned by the caller — code that runs
        many scenarios passes its own, so they share FEU tables and
        attempt models.  ``guard`` (a
        :class:`repro.runtime.guard.GuardPolicy`) arms the run's event
        engine with an event budget / wall deadline before the first event
        executes; exceeding either raises
        :class:`repro.sim.engine.EngineInterrupt` out of this method with
        partial provenance.  ``None`` leaves the engine untouched.  ``obs``
        (a :class:`repro.obs.ObsConfig`) makes the run record a trace,
        metrics or a profile, written to ``<out_dir>/<name>-seed<seed>/``
        when the config has an ``out_dir``; ``None`` records nothing.
        """
        if self.topology is None:
            run_class, network_spec = SimulationRun, self.scenario
        else:
            from repro.topology.run import TopologyRun

            run_class, network_spec = TopologyRun, self.topology
        return run_class(
            network_spec, self.workload, scheduler=self.scheduler,
            seed=self.seed if seed is None else seed,
            attempt_batch_size=(self.attempt_batch_size
                                if attempt_batch_size is None
                                else attempt_batch_size),
            backend=self.backend if backend is None else backend,
            name=self.name, obs=obs, guard=guard).run(duration)


def _hardware(name: str) -> ScenarioConfig:
    if name.lower() == "lab":
        return lab_scenario()
    if name.lower() == "ql2020":
        return ql2020_scenario()
    raise ValueError(f"unknown hardware scenario {name!r}")


def single_kind_scenarios(hardware: str = "Lab",
                          kinds: tuple[str, ...] = ("NL", "CK", "MD"),
                          loads: tuple[str, ...] = ("Low", "High", "Ultra"),
                          max_pairs_options: tuple[int, ...] = (1, 3),
                          origins: tuple[str, ...] = ("A", "B", "random"),
                          min_fidelity: float = DEFAULT_MIN_FIDELITY,
                          include_md_k255: bool = True,
                          attempt_batch_size: int = 1,
                          backend: Optional[str] = None,
                          engine: str = ENGINE,
                          ) -> list[ScenarioSpec]:
    """The single-kind scenario grid of the long runs (Section 6.2).

    MD requests additionally get the paper's ``k_max = 255`` variant (the
    measure-directly service is the only one that asks for hundreds of pairs
    per CREATE); disable with ``include_md_k255=False`` to generate an exact
    product sub-grid.  The default grid over both hardware setups is the bulk
    of the paper's 169 long-run scenarios (see :func:`paper_grid`).
    """
    config = _hardware(hardware)
    specs = []
    for kind in kinds:
        priority = Priority[kind]
        for load_name in loads:
            load = LONG_RUN_LOADS[load_name]
            pair_options = max_pairs_options
            if kind == "MD" and include_md_k255 and 255 not in pair_options:
                pair_options = tuple(max_pairs_options) + (255,)
            for max_pairs in pair_options:
                for origin in origins:
                    workload = WorkloadSpec(priority=priority,
                                            load_fraction=load,
                                            max_pairs=max_pairs,
                                            origin=origin,
                                            min_fidelity=min_fidelity)
                    name = (f"{hardware}_{kind}_{load_name}_k{max_pairs}_"
                            f"origin{origin.upper()[0]}")
                    specs.append(ScenarioSpec(
                        name=name, scenario=config, workload=(workload,),
                        attempt_batch_size=attempt_batch_size,
                        backend=backend, engine=engine))
    return specs


def mixed_kind_scenarios(hardware: str = "QL2020",
                         patterns: tuple[str, ...] = tuple(USAGE_PATTERNS),
                         schedulers: tuple[str, ...] = ("FCFS", "HigherWFQ"),
                         attempt_batch_size: int = 1,
                         backend: Optional[str] = None,
                         engine: str = ENGINE,
                         ) -> list[ScenarioSpec]:
    """Mixed-priority scenarios of Section 6.3 / Appendix C.2."""
    config = _hardware(hardware)
    specs = []
    for pattern_name in patterns:
        pattern = USAGE_PATTERNS[pattern_name]
        for scheduler in schedulers:
            name = f"{hardware}_{pattern.name}_{scheduler}"
            specs.append(ScenarioSpec(name=name, scenario=config,
                                      workload=pattern.specs,
                                      scheduler=scheduler,
                                      attempt_batch_size=attempt_batch_size,
                                      backend=backend, engine=engine))
    return specs


def table1_scenarios(hardware: str = "QL2020",
                     backend: Optional[str] = None,
                     engine: str = ENGINE) -> list[ScenarioSpec]:
    """The two request patterns of Table 1 (uniform, and no-NL-more-MD).

    Pairs per request are fixed: 2 (NL), 2 (CK) and 10 (MD).
    """
    config = _hardware(hardware)
    uniform = (
        WorkloadSpec(priority=Priority.NL, load_fraction=0.99 / 3, num_pairs=2),
        WorkloadSpec(priority=Priority.CK, load_fraction=0.99 / 3, num_pairs=2),
        WorkloadSpec(priority=Priority.MD, load_fraction=0.99 / 3, num_pairs=10),
    )
    no_nl_more_md = (
        WorkloadSpec(priority=Priority.CK, load_fraction=0.99 / 5, num_pairs=2),
        WorkloadSpec(priority=Priority.MD, load_fraction=0.99 * 4 / 5, num_pairs=10),
    )
    specs = []
    for pattern_name, workload in (("uniform", uniform),
                                   ("noNLmoreMD", no_nl_more_md)):
        for scheduler in ("FCFS", "HigherWFQ"):
            specs.append(ScenarioSpec(name=f"table1_{pattern_name}_{scheduler}",
                                      scenario=config, workload=workload,
                                      scheduler=scheduler, backend=backend,
                                      engine=engine))
    return specs


#: Frame-loss probabilities of the robustness study (Section 6.1 / Table 5).
ROBUSTNESS_LOSS_PROBABILITIES: tuple[float, ...] = (0.0, 1e-6, 1e-4)


def robustness_scenarios(hardware: str = "Lab",
                         loss_probabilities: tuple[float, ...] =
                         ROBUSTNESS_LOSS_PROBABILITIES,
                         attempt_batch_size: int = 1,
                         backend: Optional[str] = None,
                         engine: str = ENGINE) -> list[ScenarioSpec]:
    """The classical frame-loss robustness scenarios of Section 6.1.

    Per-attempt messaging (no batching by default) so that every classical
    frame is individually exposed to loss, matching the paper's setup.
    """
    base = _hardware(hardware)
    specs = []
    for loss in loss_probabilities:
        config = base.with_frame_loss(loss)
        workload = WorkloadSpec(priority=Priority.MD, load_fraction=0.99,
                                max_pairs=3,
                                min_fidelity=DEFAULT_MIN_FIDELITY)
        label = f"{loss:.0e}" if loss else "0"
        specs.append(ScenarioSpec(name=f"{hardware}_robust_loss{label}",
                                  scenario=config, workload=(workload,),
                                  attempt_batch_size=attempt_batch_size,
                                  backend=backend, engine=engine))
    return specs


def paper_grid(hardwares: tuple[str, ...] = ("Lab", "QL2020"),
               include_mixed: bool = True,
               include_table1: bool = True,
               include_robustness: bool = True,
               attempt_batch_size: int = 1,
               backend: Optional[str] = None,
               engine: str = ENGINE) -> list[ScenarioSpec]:
    """The full evaluation grid of the paper's long runs — 169 scenarios.

    Composition (Section 6):

    * single-kind grid (Section 6.2): 3 kinds x 3 loads x k_max in {1, 3}
      (plus k_max = 255 for MD) x 3 origins, on both hardware setups
      — 2 x 63 = 126 scenarios;
    * mixed-kind grid (Section 6.3 / Appendix C.2): 6 usage patterns x
      3 schedulers x 2 hardware setups — 36 scenarios;
    * Table 1 scheduling comparison: 2 patterns x 2 schedulers — 4 scenarios;
    * robustness to classical frame loss (Section 6.1): 3 loss levels — 3.

    Scenario names are unique across the grid, which the sweep cache relies
    on for resume.
    """
    specs: list[ScenarioSpec] = []
    for hardware in hardwares:
        specs.extend(single_kind_scenarios(
            hardware, attempt_batch_size=attempt_batch_size, backend=backend,
            engine=engine))
    if include_mixed:
        for hardware in hardwares:
            specs.extend(mixed_kind_scenarios(
                hardware, schedulers=("FCFS", "LowerWFQ", "HigherWFQ"),
                attempt_batch_size=attempt_batch_size, backend=backend,
                engine=engine))
    if include_table1:
        specs.extend(
            dataclasses.replace(spec, attempt_batch_size=attempt_batch_size)
            for spec in table1_scenarios(backend=backend, engine=engine))
    if include_robustness:
        specs.extend(robustness_scenarios(backend=backend, engine=engine))
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise RuntimeError("paper grid produced duplicate scenario names")
    return specs


def chain_grid(lengths: tuple[int, ...] = (3, 4, 5),
               hardwares: tuple[str, ...] = ("Lab",),
               loads: tuple[str, ...] = ("High",),
               max_pairs: int = 1,
               min_fidelity: float = DEFAULT_MIN_FIDELITY,
               attempt_batch_size: int = 1,
               backend: Optional[str] = None,
               engine: str = ENGINE) -> list[ScenarioSpec]:
    """Repeater-chain scenarios: swap-ASAP over ``lengths``-node chains.

    Every link of a chain runs its own create-and-keep workload (chains
    buffer delivered pairs for swapping, so measure-directly requests are
    rejected by the topology runner); the end-to-end delivery statistics
    appear in the result's ``end_to_end`` / ``hops`` fields.  Names encode
    length, hardware and load — unique across the grid, as the resume cache
    requires.
    """
    specs = []
    for hardware in hardwares:
        config = _hardware(hardware)
        for num_nodes in lengths:
            topology = Topology.chain(num_nodes, hardware=config)
            for load_name in loads:
                workload = WorkloadSpec(
                    priority=Priority.CK,
                    load_fraction=LONG_RUN_LOADS[load_name],
                    max_pairs=max_pairs, min_fidelity=min_fidelity)
                specs.append(ScenarioSpec(
                    name=f"chain{num_nodes}_{hardware}_{load_name}",
                    scenario=config, workload=(workload,),
                    attempt_batch_size=attempt_batch_size,
                    backend=backend, engine=engine, topology=topology))
    return specs


def star_grid(sizes: tuple[int, ...] = (2, 3),
              hardwares: tuple[str, ...] = ("Lab",),
              loads: tuple[str, ...] = ("High",),
              kind: str = "MD",
              max_pairs: int = 3,
              slot_duration: float = 0.005,
              insertion_loss_db: float = 1.5,
              min_fidelity: float = DEFAULT_MIN_FIDELITY,
              attempt_batch_size: int = 1,
              backend: Optional[str] = None,
              engine: str = ENGINE) -> list[ScenarioSpec]:
    """Switched-star scenarios: ``sizes`` node pairs time-sharing a midpoint.

    Star links behave like independent single-link runs behind a lossy
    round-robin switch, so any request kind works (default measure-directly,
    the paper's high-rate service).  The aggregate ``end_to_end`` digest
    includes Jain's fairness index over per-link deliveries.
    """
    specs = []
    for hardware in hardwares:
        config = _hardware(hardware)
        for num_pairs in sizes:
            topology = Topology.switched_star(
                num_pairs, hardware=config, slot_duration=slot_duration,
                insertion_loss_db=insertion_loss_db)
            for load_name in loads:
                workload = WorkloadSpec(
                    priority=Priority[kind],
                    load_fraction=LONG_RUN_LOADS[load_name],
                    max_pairs=max_pairs, min_fidelity=min_fidelity)
                specs.append(ScenarioSpec(
                    name=f"star{num_pairs}_{hardware}_{kind}_{load_name}",
                    scenario=config, workload=(workload,),
                    attempt_batch_size=attempt_batch_size,
                    backend=backend, engine=engine, topology=topology))
    return specs
