"""Instantiate a :class:`~repro.topology.spec.Topology` as live link stacks.

Every link of the topology becomes one full, independent
:class:`~repro.network.network.LinkLayerNetwork` (midpoint heralding, MHP,
distributed queue, FEU, EGP on both nodes) — all sharing a single
:class:`~repro.sim.engine.SimulationEngine`, so the whole multi-link network
advances on one event clock.  Per-link RNG streams are derived from the
topology seed with ``SeedSequence.spawn``, keeping multi-link runs exactly
reproducible.

On top of the links:

* chains get a :class:`~repro.topology.swap.SwapAsapEGP` controller that
  swaps segments at interior nodes into end-to-end entanglement;
* stars get a :class:`SwitchSchedule` — a round-robin time-division schedule
  installed as the ``attempt_gate`` of every link's midpoint, plus the
  switch's insertion loss folded into each link's optical parameters.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.network.network import LinkLayerNetwork
from repro.sim.engine import SimulationEngine
from repro.topology.spec import LinkSpec, Topology
from repro.topology.swap import SwapAsapEGP


@dataclass
class LinkInstance:
    """One instantiated link: its spec and its live link-layer network."""

    index: int
    spec: LinkSpec
    network: LinkLayerNetwork

    @property
    def name(self) -> str:
        return self.spec.name


class SwitchSchedule:
    """Round-robin time-division schedule of a switched midpoint.

    Link ``i`` owns every ``num_links``-th slot of ``slot_duration``
    simulated seconds.  :meth:`gate` produces the per-link ``attempt_gate``
    callable installed on the midpoint: it returns how many attempts of a
    window starting *now* fall inside the link's active slot (0 when the
    switch is currently serving another link).
    """

    def __init__(self, num_links: int, slot_duration: float) -> None:
        if num_links < 1:
            raise ValueError("schedule needs at least one link")
        if slot_duration <= 0:
            raise ValueError("slot_duration must be positive")
        self.num_links = num_links
        self.slot_duration = float(slot_duration)

    def active_link(self, time: float) -> int:
        """Index of the link the switch serves at ``time``."""
        return int(math.floor(time / self.slot_duration)) % self.num_links

    def next_active(self, link_index: int, time: float) -> float:
        """When link ``link_index``'s slot next opens at or after ``time``."""
        period = self.num_links * self.slot_duration
        period_start = math.floor(time / period) * period
        slot_start = period_start + link_index * self.slot_duration
        if time >= slot_start + self.slot_duration - 1e-12:
            slot_start += period
        return max(slot_start, time)

    def gate(self, link_index: int):
        """The ``attempt_gate`` callable for link ``link_index``.

        Active slot: a positive count of attempts that fit before the slot
        closes.  Inactive: a non-positive count whose magnitude is the
        number of attempts until the slot next opens, so the midpoint burns
        exactly up to the slot boundary and the link's next GEN window
        starts active — never phase-locked into a peer's slot (fixed-size
        analytic fast-forward windows would otherwise starve whenever the
        window length is a multiple of the schedule period).
        """

        def attempt_gate(now: float, batch: int, stride: int,
                         cycle_time: float) -> int:
            step = max(stride * cycle_time, 1e-12)
            if self.active_link(now) != link_index:
                reopen = self.next_active(link_index, now)
                burn = int(math.ceil((reopen - now) / step - 1e-9))
                return -max(1, burn)
            slot_end = ((math.floor(now / self.slot_duration) + 1)
                        * self.slot_duration)
            allowed = int(math.ceil((slot_end - now) / step - 1e-9))
            return max(1, min(batch, allowed))

        return attempt_gate


def _with_insertion_loss(scenario, loss_db: float):
    """Fold an optical switch's insertion loss into a link scenario.

    The loss multiplies the frequency-conversion/outcoupling efficiency of
    both arms — photons from either node traverse the switch on the way to
    the heralding detectors.
    """
    if loss_db <= 0:
        return scenario
    factor = 10.0 ** (-loss_db / 10.0)
    return scenario.with_optics(
        optics_a=replace(scenario.optics_a,
                         p_frequency_conversion=(
                             scenario.optics_a.p_frequency_conversion
                             * factor)),
        optics_b=replace(scenario.optics_b,
                         p_frequency_conversion=(
                             scenario.optics_b.p_frequency_conversion
                             * factor)))


def derive_link_seeds(seed: Optional[int],
                      count: int) -> list[Optional[int]]:
    """Independent per-link seeds (plus one extra for the swap RNG)."""
    if seed is None:
        return [None] * (count + 1)
    children = np.random.SeedSequence(seed).spawn(count + 1)
    return [int(child.generate_state(1, dtype=np.uint64)[0])
            for child in children]


class TopologyNetwork:
    """All links of a topology, live, on one shared event engine.

    Accepts the same knobs as a single-link
    :class:`~repro.runtime.runner.SimulationRun` (scheduler, seed, attempt
    batching, backend, timer elision) and applies them to
    every link; ``swap_gate_fidelity`` parameterises the repeater BSM noise
    for chains.
    """

    def __init__(self, topology: Topology,
                 scheduler: str = "FCFS",
                 seed: Optional[int] = 12345,
                 emission_multiplexing: bool = True,
                 attempt_batch_size: int = 1,
                 backend=None,
                 elide_watchdog: Optional[bool] = None,
                 timer_elision: bool = True,
                 swap_gate_fidelity: float = 1.0) -> None:
        from repro.backends import get_backend

        topology.validate()
        self.topology = topology
        self.engine = SimulationEngine()
        self.backend = get_backend(backend)
        #: One CREATE id counter for the whole run, shared by every link.
        self.create_ids = itertools.count(1)
        seeds = derive_link_seeds(seed, len(topology.links))
        #: Per-link seeds (last entry feeds the swap RNG) — exposed so the
        #: runner can derive per-link workload seeds the same way a
        #: single-link run derives its workload seed from the network seed.
        self.seeds = seeds
        self.links: list[LinkInstance] = []
        for index, link_spec in enumerate(topology.links):
            scenario = link_spec.arm_scenario()
            if topology.switch is not None:
                scenario = _with_insertion_loss(
                    scenario, topology.switch.insertion_loss_db)
            network = LinkLayerNetwork(
                scenario, scheduler=scheduler, seed=seeds[index],
                emission_multiplexing=emission_multiplexing,
                attempt_batch_size=attempt_batch_size,
                engine=self.engine, backend=self.backend,
                elide_watchdog=elide_watchdog, timer_elision=timer_elision,
                create_ids=self.create_ids)
            self.links.append(LinkInstance(index=index, spec=link_spec,
                                           network=network))
        self.schedule: Optional[SwitchSchedule] = None
        self.swap: Optional[SwapAsapEGP] = None
        if topology.kind == "star":
            self.schedule = SwitchSchedule(len(self.links),
                                           topology.switch.slot_duration)
            for link in self.links:
                link.network.midpoint.attempt_gate = self.schedule.gate(
                    link.index)
        elif topology.kind == "chain":
            swap_rng = np.random.default_rng(seeds[-1])
            self.swap = SwapAsapEGP(topology, self.links, swap_rng,
                                    swap_gate_fidelity=swap_gate_fidelity)

    def run(self, duration: float) -> int:
        """Advance the shared engine by ``duration`` simulated seconds."""
        return self.engine.run(until=self.engine.now + duration)

    def run_until(self, time: float) -> int:
        """Advance the shared engine to absolute simulated ``time``."""
        return self.engine.run(until=time)
