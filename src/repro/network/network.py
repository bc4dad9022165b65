"""Factory that wires up a complete two-node link-layer network.

The topology matches the paper's evaluation setup::

    Node A ----fibre----> Heralding station H <----fibre---- Node B
       \\_________________ classical control ________________/

Every classical channel applies the scenario's frame-loss probability so the
robustness study (Section 6.1) can stress the protocol by raising it.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

import numpy as np

from repro.core.distributed_queue import DistributedQueue
from repro.core.egp import EGP
from repro.core.feu import FidelityEstimationUnit
from repro.core.mhp import MidpointHeraldingService, NodeMHP
from repro.core.scheduler import SchedulingStrategy, make_scheduler
from repro.hardware.nv_device import NVQuantumProcessor
from repro.hardware.parameters import ScenarioConfig
from repro.network.node import LinkLayerNode
from repro.sim.channel import ClassicalChannel
from repro.sim.engine import SimulationEngine


class LinkLayerNetwork:
    """A fully wired two-node network running the MHP and EGP.

    Parameters
    ----------
    scenario:
        Hardware scenario configuration (Lab or QL2020).
    scheduler:
        Scheduling strategy name or instances.  A single name/instance is
        cloned for both nodes; both nodes must use the same strategy for the
        queues to stay consistent.
    seed:
        Master seed for all randomness in the network.
    emission_multiplexing:
        Whether measure-directly attempts may overlap with outstanding REPLYs.
    test_round_fraction:
        Fraction of attempts the FEU turns into test rounds (Appendix B).
    engine:
        The :class:`~repro.sim.engine.SimulationEngine` to run on (a
        topology shares one across its links); ``None`` builds a fresh one.
    backend:
        Physics backend shared by the midpoint, devices, FEUs and EGPs; a
        name, an instance, or ``None`` for the environment default
        (``REPRO_BACKEND``, falling back to ``"density"``).
    elide_watchdog:
        Forwarded to both EGPs (skip reply watchdogs that provably cannot
        fire); ``None`` elides exactly when the scenario's frame-loss
        probability is zero.
    create_ids:
        The run's CREATE id counter (a topology shares one across its
        links); ``None`` starts a fresh ``itertools.count(1)``.
    """

    def __init__(self, scenario: ScenarioConfig,
                 scheduler: str | SchedulingStrategy = "FCFS",
                 seed: Optional[int] = None,
                 emission_multiplexing: bool = True,
                 test_round_fraction: float = 0.0,
                 attempt_batch_size: int = 1,
                 engine: Optional[SimulationEngine] = None,
                 backend=None,
                 elide_watchdog: Optional[bool] = None,
                 timer_elision: bool = True,
                 create_ids: Optional[Iterator[int]] = None) -> None:
        from repro.backends import get_backend

        self.scenario = scenario
        self.backend = get_backend(backend)
        self.engine = engine if engine is not None else SimulationEngine()
        self.create_ids = (create_ids if create_ids is not None
                           else itertools.count(1))
        master_rng = np.random.default_rng(seed)
        self._rngs = {name: np.random.default_rng(master_rng.integers(2 ** 63))
                      for name in ("midpoint", "device_a", "device_b",
                                   "channels")}

        loss = scenario.classical.frame_loss_probability
        timing = scenario.timing
        channel_rng = self._rngs["channels"]

        # --- Midpoint and node MHPs -------------------------------------- #
        self.midpoint = MidpointHeraldingService(self.engine, scenario,
                                                 rng=self._rngs["midpoint"],
                                                 backend=self.backend,
                                                 timer_elision=timer_elision)
        self.nodes: dict[str, LinkLayerNode] = {}
        mhp_channels = {}
        for name, delay in (("A", timing.midpoint_delay_a),
                            ("B", timing.midpoint_delay_b)):
            to_midpoint = ClassicalChannel(self.engine, delay, loss,
                                           rng=channel_rng,
                                           name=f"{name}->H")
            from_midpoint = ClassicalChannel(self.engine, delay, loss,
                                             rng=channel_rng,
                                             name=f"H->{name}")
            to_midpoint.connect(self.midpoint.receive)
            self.midpoint.attach_channel(name, from_midpoint)
            mhp_channels[name] = (to_midpoint, from_midpoint)

        # --- Node-to-node classical channels ------------------------------ #
        node_delay = scenario.classical.node_to_node_delay
        dqp_ab = ClassicalChannel(self.engine, node_delay, loss,
                                  rng=channel_rng, name="DQP A->B")
        dqp_ba = ClassicalChannel(self.engine, node_delay, loss,
                                  rng=channel_rng, name="DQP B->A")
        egp_ab = ClassicalChannel(self.engine, node_delay, loss,
                                  rng=channel_rng, name="EGP A->B")
        egp_ba = ClassicalChannel(self.engine, node_delay, loss,
                                  rng=channel_rng, name="EGP B->A")

        # --- Per-node stacks ---------------------------------------------- #
        schedulers = self._resolve_schedulers(scheduler)
        for name, peer, is_master, sched in (("A", "B", True, schedulers[0]),
                                             ("B", "A", False, schedulers[1])):
            device = NVQuantumProcessor(
                name, scenario.gates,
                num_communication=scenario.num_communication_qubits,
                num_memory=scenario.num_memory_qubits,
                rng=self._rngs[f"device_{name.lower()}"],
                backend=self.backend)
            mhp = NodeMHP(self.engine, name, scenario)
            to_midpoint, from_midpoint = mhp_channels[name]
            mhp.attach_channel(to_midpoint)
            from_midpoint.connect(mhp.receive)
            dqp = DistributedQueue(self.engine, name, is_master=is_master,
                                   max_queue_size=scenario.max_queue_size)
            feu = FidelityEstimationUnit(scenario,
                                         test_round_fraction=test_round_fraction,
                                         backend=self.backend)
            egp = EGP(self.engine, name, peer, scenario, device, mhp, dqp, feu,
                      sched, emission_multiplexing=emission_multiplexing,
                      attempt_batch_size=attempt_batch_size,
                      backend=self.backend,
                      elide_watchdog=elide_watchdog,
                      timer_elision=timer_elision,
                      create_ids=self.create_ids)
            self.nodes[name] = LinkLayerNode(name=name, device=device, mhp=mhp,
                                             dqp=dqp, feu=feu, egp=egp)

        # DQP wiring (A is master).
        dqp_ab.connect(self.nodes["B"].dqp.receive)
        dqp_ba.connect(self.nodes["A"].dqp.receive)
        self.nodes["A"].dqp.attach_channel(dqp_ab)
        self.nodes["B"].dqp.attach_channel(dqp_ba)
        # EGP peer wiring (EXPIRE notices).
        egp_ab.connect(self.nodes["B"].egp.receive_peer)
        egp_ba.connect(self.nodes["A"].egp.receive_peer)
        self.nodes["A"].egp.attach_peer_channel(egp_ab)
        self.nodes["B"].egp.attach_peer_channel(egp_ba)

        self.classical_channels = {
            "A->H": mhp_channels["A"][0], "H->A": mhp_channels["A"][1],
            "B->H": mhp_channels["B"][0], "H->B": mhp_channels["B"][1],
            "DQP A->B": dqp_ab, "DQP B->A": dqp_ba,
            "EGP A->B": egp_ab, "EGP B->A": egp_ba,
        }

    @staticmethod
    def _resolve_schedulers(scheduler: str | SchedulingStrategy,
                            ) -> tuple[SchedulingStrategy, SchedulingStrategy]:
        if isinstance(scheduler, SchedulingStrategy):
            # Both nodes need *separate* instances with identical
            # configuration: they each observe the same delivery events, so
            # their WFQ virtual clocks evolve in lock-step, but sharing one
            # object would double-count every event.
            import copy

            return scheduler, copy.deepcopy(scheduler)
        return make_scheduler(scheduler), make_scheduler(scheduler)

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #
    @property
    def node_a(self) -> LinkLayerNode:
        """Node A (master of the distributed queue)."""
        return self.nodes["A"]

    @property
    def node_b(self) -> LinkLayerNode:
        """Node B."""
        return self.nodes["B"]

    def run(self, duration: float) -> float:
        """Advance the simulation by ``duration`` seconds."""
        return self.engine.run(until=self.engine.now + duration)

    def run_until(self, time: float) -> float:
        """Advance the simulation until absolute time ``time``."""
        return self.engine.run(until=time)
