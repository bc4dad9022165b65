"""Physics-backend interface of the link-layer simulation.

A :class:`PhysicsBackend` answers every *physics* question the protocol stack
asks, so the MHP/EGP/FEU never touch a concrete quantum model directly:

* **Heralding** — per-``alpha`` attempt resolution at the midpoint station:
  outcome probabilities, conditional post-herald states and geometric
  fast-forward over runs of failed cycles (:class:`AttemptModel`).
* **Delivery** — fidelity of a pair as seen by the higher layer after the
  device noise the hardware model will apply
  (:meth:`AttemptModel.delivered_fidelity`).
* **Memory decay and local operations** — T1/T2 idling, gate depolarising,
  attempt dephasing, the Psi-/Psi+ correction and noisy readout applied to
  one side of a stored :class:`~repro.hardware.pair.EntangledPair`.
* **FEU tables** — per-``alpha`` fidelities, memoized per backend instance.
* **Batching policy** — how many MHP cycles one GEN/REPLY exchange may cover
  (:meth:`PhysicsBackend.granted_batch`), which is where an approximate
  backend may trade event-level granularity for wall-clock speed.

Two implementations ship with the repo: the exact
:class:`~repro.backends.density.DensityMatrixBackend` and the closed-form
:class:`~repro.backends.analytic.AnalyticBackend`.  Any future backend
(tensor-network, GPU, remote service) only implements this interface.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, TYPE_CHECKING

import numpy as np

from repro.quantum.density import DensityMatrix
from repro.quantum.states import BellIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.messages import RequestType
    from repro.hardware.pair import EntangledPair
    from repro.hardware.parameters import (
        CoherenceTimes,
        ScenarioConfig,
        TimingParameters,
    )


@dataclass(frozen=True)
class HeraldSample:
    """Resolved outcome of one entanglement generation attempt.

    ``outcome_code`` follows the REPLY encoding: 0 failure, 1 |Psi+>,
    2 |Psi->.  ``state`` is a fresh, caller-owned conditional state of the
    two communication qubits, or ``None`` for failures (and for pathological
    success branches with no conditional state, which the MHP treats as
    failures).
    """

    outcome_code: int
    state: Optional[DensityMatrix]

    @property
    def success(self) -> bool:
        """Whether the attempt heralds usable entanglement."""
        return self.outcome_code in (1, 2) and self.state is not None

    @property
    def bell_index(self) -> Optional[BellIndex]:
        """The heralded Bell state, or ``None`` on failure."""
        if self.outcome_code == 1:
            return BellIndex.PSI_PLUS
        if self.outcome_code == 2:
            return BellIndex.PSI_MINUS
        return None


@dataclass(frozen=True)
class BatchGrant:
    """How the physical layer may batch attempts for one request.

    ``batch``
        Number of consecutive attempts one GEN/REPLY exchange covers.
    ``stride``
        MHP cycles between consecutive attempts of the batch (1 when the
        request attempts every cycle; ``ceil(attempt_spacing / t_cycle)``
        for create-and-keep requests whose spacing spans several cycles).
    """

    batch: int = 1
    stride: int = 1

    @property
    def cycles(self) -> int:
        """Total MHP cycles spanned by the batch."""
        return (self.batch - 1) * self.stride + 1


class AttemptModel(abc.ABC):
    """Per-(scenario, alpha) model of one entanglement generation attempt.

    One model fully characterises the physical entanglement generation for a
    bright-state population: success probability, heralded states and
    fidelities.  The midpoint samples from it once per attempt (or once per
    fast-forwarded batch of attempts).
    """

    @property
    @abc.abstractmethod
    def success_probability(self) -> float:
        """Probability that one attempt heralds entanglement."""

    @abc.abstractmethod
    def average_success_fidelity(self,
                                 target: Optional[BellIndex] = None) -> float:
        """Success-probability-weighted fidelity of the heralded state."""

    @abc.abstractmethod
    def delivered_fidelity(self, request_type: "RequestType") -> float:
        """Average fidelity of a pair as delivered to the higher layer.

        Starts from the heralded state and applies the same degradation the
        device model will apply: electron decay while the REPLY travels
        back, and (for K requests) the move-to-memory gate noise.
        """

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator) -> HeraldSample:
        """Draw the outcome of one entanglement generation attempt."""

    @abc.abstractmethod
    def resolve(self, rng: np.random.Generator,
                max_attempts: int) -> tuple[int, HeraldSample]:
        """Resolve up to ``max_attempts`` consecutive attempts at once.

        Returns ``(attempts_used, sample)``.  On success ``attempts_used``
        is the 1-based index of the first successful attempt; when every
        attempt fails it equals ``max_attempts`` and the sample is a
        failure.  Statistically identical to calling :meth:`sample` once per
        attempt, but O(1) in simulation events.
        """


class PhysicsBackend(abc.ABC):
    """Pluggable physics model behind the MHP/EGP hot loop."""

    #: Registry / cache-key name of the backend (e.g. ``"density"``).
    name: str = "abstract"
    #: Bound of the FEU table memo (overflow clears it).
    FEU_TABLE_CACHE_SIZE = 256

    def __init__(self) -> None:
        self._feu_tables: dict[tuple, Mapping] = {}

    # ------------------------------------------------------------------ #
    # Heralding
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def attempt_model(self, scenario: "ScenarioConfig",
                      alpha: float) -> AttemptModel:
        """The (cached) attempt model for symmetric population ``alpha``."""

    def feu_table(self, scenario: "ScenarioConfig",
                  alphas: tuple[float, ...]) -> Mapping:
        """The immutable FEU table of ``(scenario, alphas)``, built once.

        Maps each request type to one ``(alpha, heralded fidelity, delivered
        fidelity, success probability)`` row per ``alpha``; the FEU reads it.
        """
        from repro.core.messages import RequestType

        key = (scenario, alphas)
        table = self._feu_tables.get(key)
        if table is None:
            if len(self._feu_tables) >= self.FEU_TABLE_CACHE_SIZE:
                self._feu_tables.clear()
            models = [self.attempt_model(scenario, alpha) for alpha in alphas]
            table = self._feu_tables[key] = MappingProxyType({
                request_type: tuple(
                    (alpha, model.average_success_fidelity(),
                     model.delivered_fidelity(request_type),
                     model.success_probability)
                    for alpha, model in zip(alphas, models))
                for request_type in RequestType})
        return table

    # ------------------------------------------------------------------ #
    # Batching policy
    # ------------------------------------------------------------------ #
    def granted_batch(self, request_type: "RequestType", configured: int,
                      emission_multiplexing: bool,
                      timing: "TimingParameters",
                      frame_loss_probability: float = 0.0) -> BatchGrant:
        """How many attempts one GEN/REPLY exchange may cover.

        The default policy is the conservative one of the exact model:
        batched operation (Section 5.1) is only allowed when nothing between
        attempts depends on the previous REPLY.  Measure-directly requests
        with emission multiplexing always qualify; create-and-keep requests
        qualify only when the round trip to the midpoint fits within one MHP
        cycle — otherwise an attempt must wait for the previous REPLY and
        batching would misrepresent the attempt rate.
        """
        from repro.core.messages import RequestType

        if configured <= 1:
            return BatchGrant(1, 1)
        round_trip = 2 * max(timing.midpoint_delay_a, timing.midpoint_delay_b)
        if request_type is RequestType.MEASURE:
            if emission_multiplexing:
                return BatchGrant(configured, 1)
            return BatchGrant(1, 1)
        if round_trip <= timing.mhp_cycle:
            return BatchGrant(configured, 1)
        return BatchGrant(1, 1)

    # ------------------------------------------------------------------ #
    # Local device physics (one side of a stored pair)
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def apply_t1t2(self, pair: "EntangledPair", side: str,
                   coherence: "CoherenceTimes", duration: float) -> None:
        """T1/T2 decay of one side of ``pair`` over ``duration`` seconds."""

    @abc.abstractmethod
    def apply_depolarizing(self, pair: "EntangledPair", side: str,
                           fidelity: float) -> None:
        """Depolarising gate noise with no-error probability ``fidelity``."""

    @abc.abstractmethod
    def apply_dephasing(self, pair: "EntangledPair", side: str,
                        probability: float) -> None:
        """Dephasing channel with Z-flip probability ``probability``."""

    @abc.abstractmethod
    def apply_correction(self, pair: "EntangledPair", side: str,
                         gate_fidelity: float) -> None:
        """Local Z gate converting |Psi-> into |Psi+> (Eq. 13), with
        depolarising gate noise when ``gate_fidelity < 1``."""

    @abc.abstractmethod
    def measure_pair(self, pair: "EntangledPair", side: str, basis: str,
                     readout_fidelity_0: float, readout_fidelity_1: float,
                     rng: np.random.Generator) -> int:
        """Noisy electron readout of one side of ``pair`` in ``basis``.

        Collapses the pair state so that the peer's subsequent measurement
        sees the correct conditional state.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"<{self.__class__.__name__} {self.name!r}>"
