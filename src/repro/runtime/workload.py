"""Workload generation — the paper's request arrival model (Section 6).

"In each MHP cycle, we randomly issue a new CREATE request for a random
number of pairs k (max k_max), and random kind P in {NL, CK, MD} with
probability ``f_P * p_succ / (E * k)``", where ``p_succ`` is the single
attempt success probability, ``E`` the expected number of MHP cycles per
attempt and ``f_P`` the load fraction of kind P.

Instead of flipping a coin every cycle (hundreds of thousands of events per
simulated second), the generator draws geometric inter-arrival times with the
same per-cycle probability, which is statistically identical and much cheaper.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.analysis.metrics import MetricsCollector
from repro.core.messages import EntanglementRequest, Priority, RequestType
from repro.network.network import LinkLayerNetwork
from repro.quantum.measurement import choice_cdf
from repro.sim.entity import Entity


def pair_draw_table(choices: np.ndarray,
                    weights: np.ndarray) -> tuple[list[int], list[float]]:
    """``(choices, cdf)`` such that ``choices[bisect_right(cdf,
    rng.random())]`` draws exactly what ``rng.choice(choices, p=weights)``
    draws (see :func:`~repro.quantum.measurement.choice_cdf`).
    """
    return [int(choice) for choice in choices], choice_cdf(weights)


@dataclass(frozen=True)
class WorkloadSpec:
    """Arrival specification for one request kind.

    Parameters
    ----------
    priority:
        NL, CK or MD — selects both the queue priority and the request type
        (NL/CK are create-and-keep, MD is measure-directly).
    load_fraction:
        The paper's ``f_P``: 0.7 (*Low*), 0.99 (*High*) or 1.5 (*Ultra*).
    max_pairs:
        ``k_max``; the number of pairs per request is uniform on
        ``1..max_pairs`` reweighted by the arrival model.
    origin:
        "A", "B" or "random" — where CREATE requests are submitted.
    min_fidelity:
        F_min carried by every request of this kind.
    num_pairs:
        Optional fixed number of pairs per request (overrides ``max_pairs``),
        used for the Table-1 scenarios (2 NL / 2 CK / 10 MD pairs).
    max_time:
        Request timeout passed to the EGP (0 = none).
    """

    priority: Priority
    load_fraction: float = 0.99
    max_pairs: int = 1
    origin: str = "random"
    min_fidelity: float = 0.64
    num_pairs: Optional[int] = None
    max_time: float = 0.0

    @property
    def request_type(self) -> RequestType:
        """Request type implied by the priority class."""
        if self.priority is Priority.MD:
            return RequestType.MEASURE
        return RequestType.KEEP

    @property
    def consecutive(self) -> bool:
        """All the paper's evaluation workloads use per-pair OKs."""
        return True


@dataclass(frozen=True)
class UsagePattern:
    """A named mix of workload kinds (paper Table 2)."""

    name: str
    specs: tuple[WorkloadSpec, ...]


class RequestGenerator(Entity):
    """Issues CREATE requests into a network according to workload specs.

    Parameters
    ----------
    network:
        The wired link-layer network.
    specs:
        One :class:`WorkloadSpec` per request kind.
    metrics:
        Optional metrics collector; submitted requests are registered with it.
    seed:
        Seed for the arrival process randomness.
    queue_length_sample_interval:
        How often to sample the distributed queue length (seconds); 0 disables
        sampling.
    """

    def __init__(self, network: LinkLayerNetwork,
                 specs: list[WorkloadSpec] | tuple[WorkloadSpec, ...],
                 metrics: Optional[MetricsCollector] = None,
                 seed: Optional[int] = None,
                 queue_length_sample_interval: float = 0.1) -> None:
        super().__init__(network.engine, name="RequestGenerator")
        self.network = network
        self.specs = [spec for spec in specs if spec.load_fraction > 0]
        self.metrics = metrics
        self.rng = np.random.default_rng(seed)
        self.queue_length_sample_interval = queue_length_sample_interval
        self.requests_issued = 0
        self._started = False
        #: Per spec: arrival probability per cycle, and the
        #: :func:`pair_draw_table` of the number of pairs per request.
        self._arrival_rates: dict[int, tuple[float, tuple[list, list]]] = {}
        self._compute_arrival_rates()

    # ------------------------------------------------------------------ #
    # Arrival model
    # ------------------------------------------------------------------ #
    def _compute_arrival_rates(self) -> None:
        scenario = self.network.scenario
        timing = scenario.timing
        for index, spec in enumerate(self.specs):
            feu = self.network.node_a.feu
            estimate = feu.estimate_for_fidelity(spec.min_fidelity,
                                                 spec.request_type)
            if estimate is not None:
                p_succ = estimate.success_probability
            else:
                model = self.network.backend.attempt_model(scenario, 0.3)
                p_succ = model.success_probability
            expected_cycles = timing.expected_cycles(
                spec.request_type is RequestType.MEASURE)
            if spec.num_pairs is not None:
                pair_choices = np.array([spec.num_pairs])
            else:
                pair_choices = np.arange(1, spec.max_pairs + 1)
            # Per-cycle probability of an arrival of this kind, marginalised
            # over k (each k drawn uniformly, arrival prob f*p/(E*k)).
            per_k = spec.load_fraction * p_succ / (expected_cycles * pair_choices)
            per_cycle_probability = float(per_k.mean())
            # Conditional distribution of k given an arrival: proportional 1/k.
            weights = 1.0 / pair_choices
            weights = weights / weights.sum()
            self._arrival_rates[index] = (per_cycle_probability,
                                          pair_draw_table(pair_choices,
                                                          weights))

    def expected_request_rate(self, spec_index: int) -> float:
        """Expected CREATE requests per second for one workload spec."""
        per_cycle, _ = self._arrival_rates[spec_index]
        return per_cycle / self.network.scenario.timing.mhp_cycle

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start issuing requests (idempotent)."""
        if self._started:
            return
        self._started = True
        for index in range(len(self.specs)):
            self._schedule_next_arrival(index)
        if self.metrics is not None and self.queue_length_sample_interval > 0:
            self._schedule_sample()

    def _schedule_sample(self) -> None:
        self.engine.schedule_after(self.queue_length_sample_interval,
                                   self._sample_queue, "queue_sample")

    def _sample_queue(self) -> None:
        """Sample the queue length, then schedule the next sample."""
        self.metrics.sample_queue_length()
        self._schedule_sample()

    def _schedule_next_arrival(self, spec_index: int) -> None:
        per_cycle, _ = self._arrival_rates[spec_index]
        if per_cycle <= 0:
            return
        cycle_time = self.network.scenario.timing.mhp_cycle
        # Geometric number of cycles until the next arrival (support >= 1).
        cycles = int(self.rng.geometric(min(per_cycle, 1.0)))
        delay = cycles * cycle_time
        self.call_after(delay, self._issue, args=(spec_index,),
                        name="request_arrival")

    def _issue(self, spec_index: int) -> None:
        spec = self.specs[spec_index]
        _, (numbers, cdf) = self._arrival_rates[spec_index]
        number = numbers[bisect_right(cdf, self.rng.random())]
        origin = spec.origin
        if origin == "random":
            origin = "A" if self.rng.random() < 0.5 else "B"
        request = EntanglementRequest(
            remote_node_id="B" if origin == "A" else "A",
            request_type=spec.request_type,
            number=number,
            consecutive=spec.consecutive,
            max_time=spec.max_time,
            purpose_id=int(spec.priority),
            priority=spec.priority,
            min_fidelity=spec.min_fidelity,
            origin=origin,
            # Stamped here, not by the EGP: a synchronous reject inside
            # ``create`` reports the id before ``create`` returns, so the
            # collector must already know it.
            create_id=next(self.network.create_ids),
        )
        node = self.network.nodes[origin]
        if self.metrics is not None:
            request.create_time = self.now
            self.metrics.register_request(request)
        node.create(request)
        self.requests_issued += 1
        self._schedule_next_arrival(spec_index)
