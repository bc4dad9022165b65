"""Heralding midpoint station model (paper Appendix D.5).

The station interferes the two incoming photonic qubits on a 50:50
beam-splitter and watches two detectors.  Success is declared when exactly
one detector clicks, which projects the two remote communication qubits onto
(approximately) a |Psi+> or |Psi-> Bell state.

Imperfections modelled:

* partial photon indistinguishability (visibility |mu|^2 < 1) via the
  effective Kraus operators of Appendix D.5.3,
* non-unit detector efficiency,
* dark counts,
* all the per-arm emission/collection/transmission noise applied by
  :mod:`repro.hardware.emission` before the photons arrive.

Because every entanglement attempt with the same bright-state population
``alpha`` is statistically identical, the full density-matrix calculation is
done once per ``alpha`` by :class:`HeraldedStateSampler` and then sampled
cheaply per MHP cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from repro.hardware.emission import spin_photon_state
from repro.hardware.parameters import OpticalParameters, ScenarioConfig
from repro.quantum.density import DensityMatrix
from repro.quantum.states import BellIndex, bell_state


class HeraldingOutcome(Enum):
    """Observable outcome of one heralding attempt."""

    FAILURE = "failure"          # no detector clicked, or both clicked
    PSI_PLUS = "psi_plus"        # left detector clicked
    PSI_MINUS = "psi_minus"      # right detector clicked

    @property
    def is_success(self) -> bool:
        """True when the midpoint declares entanglement."""
        return self is not HeraldingOutcome.FAILURE

    @property
    def bell_index(self) -> Optional[BellIndex]:
        """The heralded Bell state, or ``None`` on failure."""
        if self is HeraldingOutcome.PSI_PLUS:
            return BellIndex.PSI_PLUS
        if self is HeraldingOutcome.PSI_MINUS:
            return BellIndex.PSI_MINUS
        return None


def beam_splitter_kraus(mu: float) -> dict[str, np.ndarray]:
    """Effective Kraus operators of the beam-splitter measurement.

    ``mu`` is the (real) photon overlap; the Hong-Ou-Mandel visibility is
    ``mu**2``.  Operators act on the two photon presence/absence qubits in
    standard ordering (photon from A, photon from B) and correspond to
    non-photon-number-resolving detectors (paper Eqs. 94-97).

    Returns a dict with keys ``"none"`` (no click), ``"left"`` (detector c),
    ``"right"`` (detector d) and ``"both"`` (coincidence).
    """
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"photon overlap mu={mu} must be in [0, 1]")
    s_plus = (math.sqrt(1.0 + mu) + math.sqrt(1.0 - mu)) / math.sqrt(2.0)
    s_minus = (math.sqrt(1.0 + mu) - math.sqrt(1.0 - mu)) / math.sqrt(2.0)
    both_amp = math.sqrt(1.0 + mu ** 2)

    # Standard basis ordering |00>, |01>, |10>, |11> where the first qubit is
    # the photon from node A (paper arm "a"/"l") and the second from node B.
    e_none = np.zeros((4, 4), dtype=complex)
    e_none[0, 0] = 1.0

    e_left = np.zeros((4, 4), dtype=complex)
    e_left[1, 1] = s_plus / 2.0
    e_left[2, 2] = s_plus / 2.0
    e_left[1, 2] = s_minus / 2.0
    e_left[2, 1] = s_minus / 2.0
    e_left[3, 3] = both_amp / 2.0

    e_right = np.zeros((4, 4), dtype=complex)
    e_right[1, 1] = s_plus / 2.0
    e_right[2, 2] = s_plus / 2.0
    e_right[1, 2] = -s_minus / 2.0
    e_right[2, 1] = -s_minus / 2.0
    e_right[3, 3] = both_amp / 2.0

    e_both = np.zeros((4, 4), dtype=complex)
    e_both[3, 3] = math.sqrt(1.0 - mu ** 2) / math.sqrt(2.0)

    return {"none": e_none, "left": e_left, "right": e_right, "both": e_both}


@dataclass(frozen=True)
class AttemptOutcome:
    """One possible result of an entanglement generation attempt."""

    outcome: HeraldingOutcome
    probability: float
    #: Conditional two-qubit state of (electron A, electron B) given this
    #: outcome, or ``None`` for failures.
    state: Optional[DensityMatrix]

    @property
    def is_success(self) -> bool:
        """Whether the outcome heralds entanglement."""
        return self.outcome.is_success

    def fidelity(self, target: Optional[BellIndex] = None) -> float:
        """Fidelity of the conditional state to the heralded (or given) Bell state."""
        if self.state is None:
            return 0.0
        bell = target if target is not None else self.outcome.bell_index
        if bell is None:
            return 0.0
        return self.state.fidelity_to_pure(bell_state(bell))


class MidpointStationModel:
    """Beam-splitter + detectors at the heralding station.

    Parameters
    ----------
    visibility:
        Photon indistinguishability |mu|^2.
    p_detection:
        Detector efficiency.
    p_dark:
        Dark-count probability per detector per detection window.
    """

    def __init__(self, visibility: float = 0.9, p_detection: float = 0.8,
                 p_dark: float = 0.0) -> None:
        if not 0.0 <= visibility <= 1.0:
            raise ValueError(f"visibility {visibility} not in [0, 1]")
        for name, value in (("p_detection", p_detection), ("p_dark", p_dark)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} not in [0, 1]")
        self.visibility = visibility
        self.mu = math.sqrt(visibility)
        self.p_detection = p_detection
        self.p_dark = p_dark
        self._kraus = beam_splitter_kraus(self.mu)

    def _observed_click_distribution(self, ideal: str) -> dict[tuple[bool, bool], float]:
        """Distribution over observed (left, right) click patterns given the
        ideal beam-splitter outcome."""
        ideal_left = ideal in ("left", "both")
        ideal_right = ideal in ("right", "both")
        p_left = (self.p_detection if ideal_left else 0.0)
        p_left = p_left + (1.0 - p_left) * self.p_dark
        p_right = (self.p_detection if ideal_right else 0.0)
        p_right = p_right + (1.0 - p_right) * self.p_dark
        distribution = {}
        for left in (False, True):
            for right in (False, True):
                probability = ((p_left if left else 1.0 - p_left)
                               * (p_right if right else 1.0 - p_right))
                distribution[(left, right)] = probability
        return distribution

    def outcome_distribution(self, joint_state: DensityMatrix,
                             electron_qubits: Sequence[int] = (0, 2),
                             photon_qubits: Sequence[int] = (1, 3),
                             ) -> list[AttemptOutcome]:
        """Full outcome distribution for a joint (eA, pA, eB, pB) state.

        Returns one :class:`AttemptOutcome` per observable outcome.  The
        conditional electron-electron states are mixtures over the ideal
        beam-splitter branches consistent with the observed click pattern,
        so dark counts correctly degrade the heralded state.
        """
        branch_probability: dict[str, float] = {}
        branch_state: dict[str, Optional[np.ndarray]] = {}
        for label, kraus in self._kraus.items():
            conditional = joint_state.copy()
            conditional.apply_kraus([kraus], qubits=list(photon_qubits))
            probability = conditional.trace()
            branch_probability[label] = max(probability, 0.0)
            if probability > 1e-15:
                normalised = DensityMatrix(conditional.matrix / probability,
                                           validate=False)
                reduced = normalised.partial_trace(list(electron_qubits))
                branch_state[label] = reduced.matrix
            else:
                branch_state[label] = None

        # Accumulate observed click patterns over ideal branches.
        pattern_probability: dict[tuple[bool, bool], float] = {}
        pattern_state: dict[tuple[bool, bool], np.ndarray] = {}
        for label, p_branch in branch_probability.items():
            if p_branch <= 0:
                continue
            for pattern, p_pattern in self._observed_click_distribution(label).items():
                weight = p_branch * p_pattern
                if weight <= 0:
                    continue
                pattern_probability[pattern] = (
                    pattern_probability.get(pattern, 0.0) + weight)
                if branch_state[label] is not None:
                    accumulated = pattern_state.get(
                        pattern, np.zeros((4, 4), dtype=complex))
                    pattern_state[pattern] = accumulated + weight * branch_state[label]

        outcomes = []
        failure_probability = 0.0
        for pattern, probability in pattern_probability.items():
            left, right = pattern
            if left == right:
                failure_probability += probability
                continue
            outcome = (HeraldingOutcome.PSI_PLUS if left
                       else HeraldingOutcome.PSI_MINUS)
            state_matrix = pattern_state.get(pattern)
            state = None
            if state_matrix is not None and probability > 0:
                state = DensityMatrix(state_matrix / probability, validate=False)
            outcomes.append(AttemptOutcome(outcome=outcome,
                                           probability=probability,
                                           state=state))
        outcomes.append(AttemptOutcome(outcome=HeraldingOutcome.FAILURE,
                                       probability=failure_probability,
                                       state=None))
        return outcomes


class HeraldedStateSampler:
    """Per-``alpha`` cache of the attempt outcome distribution.

    One sampler fully characterises the physical entanglement generation for
    a scenario and bright-state population: success probability, heralded
    states and fidelities.  The MHP samples from it once per attempt.
    """

    def __init__(self, alpha_a: float, alpha_b: float,
                 optics_a: OpticalParameters, optics_b: OpticalParameters) -> None:
        self.alpha_a = alpha_a
        self.alpha_b = alpha_b
        self.optics_a = optics_a
        self.optics_b = optics_b
        station = MidpointStationModel(
            visibility=optics_a.visibility,
            p_detection=optics_a.p_detection,
            p_dark=optics_a.dark_count_probability(),
        )
        state_a = spin_photon_state(alpha_a, optics_a)
        state_b = spin_photon_state(alpha_b, optics_b)
        joint = state_a.tensor(state_b)
        self._outcomes = station.outcome_distribution(joint)
        self._probabilities = np.array([o.probability for o in self._outcomes])
        total = self._probabilities.sum()
        if not math.isclose(total, 1.0, rel_tol=1e-6):
            # Renormalise tiny numerical drift; anything larger is a bug.
            if abs(total - 1.0) > 1e-3:
                raise RuntimeError(f"outcome probabilities sum to {total}")
            self._probabilities = self._probabilities / total
        self._cumulative = np.cumsum(self._probabilities)
        successes = [o for o in self._outcomes if o.is_success]
        self._success_outcomes = successes
        # Read on every attempt resolution: summed once, in outcome order.
        self._success_probability = float(
            sum(o.probability for o in self._outcomes if o.is_success))
        success_probabilities = np.array([o.probability for o in successes])
        success_total = success_probabilities.sum()
        if success_total > 0:
            self._success_cumulative = np.cumsum(success_probabilities
                                                 / success_total)
        else:
            self._success_cumulative = np.array([])

    @classmethod
    def for_scenario(cls, scenario: ScenarioConfig,
                     alpha: float) -> "HeraldedStateSampler":
        """Sampler for symmetric bright-state population ``alpha``."""
        return _cached_sampler(scenario, float(alpha))

    @property
    def outcomes(self) -> list[AttemptOutcome]:
        """All observable outcomes with probabilities and conditional states."""
        return list(self._outcomes)

    @property
    def success_probability(self) -> float:
        """Probability that one attempt heralds entanglement."""
        return self._success_probability

    def average_success_fidelity(self, target: Optional[BellIndex] = None) -> float:
        """Success-probability-weighted fidelity of the heralded state."""
        successes = [o for o in self._outcomes if o.is_success]
        total = sum(o.probability for o in successes)
        if total <= 0:
            return 0.0
        return float(sum(o.probability * o.fidelity(target) for o in successes)
                     / total)

    def sample(self, rng: np.random.Generator) -> AttemptOutcome:
        """Draw the outcome of one entanglement generation attempt."""
        index = int(np.searchsorted(self._cumulative, rng.random()))
        index = min(index, len(self._outcomes) - 1)
        return self._outcomes[index]

    def sample_success(self, rng: np.random.Generator) -> AttemptOutcome:
        """Draw an outcome conditioned on the attempt having succeeded."""
        if len(self._success_outcomes) == 0:
            raise RuntimeError("scenario has zero success probability")
        index = int(np.searchsorted(self._success_cumulative, rng.random()))
        index = min(index, len(self._success_outcomes) - 1)
        return self._success_outcomes[index]

    def sample_attempts_until_success(self, rng: np.random.Generator,
                                      max_attempts: int) -> Optional[int]:
        """Number of the first successful attempt within a batch.

        Returns a 1-based attempt index, or ``None`` if all ``max_attempts``
        attempts fail.  Statistically identical to sampling each attempt
        independently with the sampler's success probability.
        """
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        p_succ = self.success_probability
        if p_succ <= 0:
            return None
        attempt = int(rng.geometric(p_succ))
        return attempt if attempt <= max_attempts else None


@lru_cache(maxsize=256)
def _cached_sampler(scenario: ScenarioConfig, alpha: float) -> HeraldedStateSampler:
    return HeraldedStateSampler(alpha, alpha, scenario.optics_a, scenario.optics_b)
