"""Fidelity Estimation Unit (FEU) — paper Section 5.2.3 and Appendix B.

The FEU answers two questions for the EGP:

1. *Forward*: given a requested minimum fidelity ``F_min``, which bright-state
   population ``alpha`` should the physical layer use, and how long will one
   pair take to produce?  A larger ``alpha`` gives a higher success
   probability but a lower fidelity, so the FEU picks the largest ``alpha``
   whose *delivered* fidelity estimate still meets ``F_min``.

2. *Backward*: what is the "goodness" (fidelity estimate) of a pair that was
   just delivered?  The baseline estimate comes from the hardware model; it is
   refined by interspersed test rounds whose measured QBER feeds a moving
   window estimate (Appendix B).

The hardware model is read through the backend's
:class:`~repro.backends.base.FeuTable` for the scenario's physics key, whose
rows are computed on first use.  The forward rule scans the alpha grid from
high to low and stops at the first feasible row, so a query computes the
delivered fidelities of the rows it reaches and no others.  The FEU's answers
(estimates, goodness baselines, success probabilities) are kept on the table
too, so every FEU of one backend and physics key shares them.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.messages import RequestType
from repro.hardware.parameters import ScenarioConfig
from repro.quantum.fidelity import fidelity_from_qber
from repro.quantum.states import BellIndex


def _validated_alpha_grid(alphas: Sequence[float]) -> tuple[float, ...]:
    """``alphas`` as a tuple of floats, checked to increase strictly within
    (0, 1] (``np.interp``, which the FEU interpolates with, needs an
    increasing grid)."""
    grid = tuple(map(float, alphas))
    if not all(0.0 < alpha <= 1.0 for alpha in grid):
        raise ValueError("alpha grid values must lie in (0, 1]")
    if any(later <= earlier for earlier, later in zip(grid, grid[1:])):
        raise ValueError("alpha grid values must increase strictly")
    return grid


#: The bright-state populations an FEU tabulates unless given its own grid.
DEFAULT_ALPHA_GRID = _validated_alpha_grid(np.linspace(0.02, 0.60, 30))


@dataclass(frozen=True)
class FidelityEstimate:
    """FEU answer to a minimum-fidelity query."""

    alpha: float
    expected_fidelity: float
    success_probability: float
    expected_time_per_pair: float

    def minimum_completion_time(self, number_of_pairs: int) -> float:
        """Expected time to deliver ``number_of_pairs`` pairs."""
        return self.expected_time_per_pair * number_of_pairs


@dataclass
class TestRoundRecord:
    """Outcome of one interspersed test round."""

    basis: str
    outcome_a: int
    outcome_b: int
    target: BellIndex

    @property
    def is_error(self) -> bool:
        """Whether the pair of outcomes violates the expected correlation."""
        from repro.quantum.fidelity import BELL_CORRELATIONS

        correlation = BELL_CORRELATIONS[self.target][self.basis.upper()]
        equal = self.outcome_a == self.outcome_b
        return equal if correlation < 0 else not equal


class FidelityEstimationUnit:
    """Maps fidelity targets to generation parameters and back.

    Parameters
    ----------
    scenario:
        Hardware scenario (Lab or QL2020) whose heralded-state model is used.
    alpha_grid:
        Bright-state populations to tabulate, strictly increasing within
        (0, 1]; :data:`DEFAULT_ALPHA_GRID` when omitted.
    test_window:
        Number of recent test rounds used for the measured QBER estimate.
    test_round_fraction:
        Probability ``q`` that an attempt is turned into a test round.
    """

    #: Safety margin between the requested F_min and the heralded fidelity at
    #: the chosen operating point.  A platform-wide constant, so that the same
    #: F_min maps to the same alpha on every scenario (the paper fixes the
    #: generation parameters per F_min and observes different delivered
    #: fidelities on Lab and QL2020).
    HERALDED_FIDELITY_MARGIN = 0.08
    #: How far below F_min the *delivered* fidelity estimate may fall before
    #: the request is declared unsupported.
    DELIVERED_FIDELITY_TOLERANCE = 0.03
    #: Bound of each answer memo (overflow clears it).
    ANSWER_CACHE_SIZE = 256

    def __init__(self, scenario: ScenarioConfig,
                 alpha_grid: Optional[Sequence[float]] = None,
                 test_window: int = 256,
                 test_round_fraction: float = 0.0,
                 backend=None) -> None:
        from repro.backends import get_backend

        self.scenario = scenario
        self.backend = get_backend(backend)
        self.alpha_grid = (DEFAULT_ALPHA_GRID if alpha_grid is None
                           else _validated_alpha_grid(alpha_grid))
        self.test_window = test_window
        self.test_round_fraction = test_round_fraction
        self._test_rounds: deque[TestRoundRecord] = deque(maxlen=test_window)
        self._build_tables()

    # ------------------------------------------------------------------ #
    # Hardware-model based estimates
    # ------------------------------------------------------------------ #
    def _build_tables(self) -> None:
        self._table = self.backend.feu_table(self.scenario, self.alpha_grid)

    def _remember(self, memo: dict, key: tuple, answer):
        if len(memo) >= self.ANSWER_CACHE_SIZE:
            memo.clear()
        memo[key] = answer
        return answer

    def estimate_for_fidelity(self, min_fidelity: float,
                              request_type: RequestType) -> Optional[FidelityEstimate]:
        """Largest-``alpha`` operating point meeting ``min_fidelity``.

        The operating point must satisfy both conditions:

        * heralded fidelity >= ``min_fidelity`` + :attr:`HERALDED_FIDELITY_MARGIN`
          (the platform-wide parameter selection rule), and
        * delivered fidelity >= ``min_fidelity`` -
          :attr:`DELIVERED_FIDELITY_TOLERANCE` (so that storage-heavy request
          types stop being supported at lower F_min than measure-directly
          ones, as in Figure 6(b)).

        Returns ``None`` when the requested fidelity is unattainable on this
        hardware (the EGP then rejects the request with UNSUPP).
        """
        table = self._table
        key = (min_fidelity, request_type)
        try:
            return table.estimates[key]
        except KeyError:
            pass
        if not 0.0 <= min_fidelity <= 1.0:
            raise ValueError(f"min_fidelity {min_fidelity} not in [0, 1]")
        heralded_floor = min_fidelity + self.HERALDED_FIDELITY_MARGIN
        delivered_floor = min_fidelity - self.DELIVERED_FIDELITY_TOLERANCE
        # Highest alpha (fastest generation) that still meets the target.
        # A delivered fidelity is computed only where the heralded bound holds.
        for index in reversed(range(len(table.alphas))):
            if table.heralded_fidelity(index) >= heralded_floor:
                delivered = table.delivered_fidelity(index, request_type)
                if delivered >= delivered_floor:
                    p_succ = table.success_probability(index)
                    estimate = FidelityEstimate(
                        alpha=table.alphas[index],
                        expected_fidelity=delivered,
                        success_probability=p_succ,
                        expected_time_per_pair=self._time_per_pair(
                            p_succ, request_type))
                    return self._remember(table.estimates, key, estimate)
        return self._remember(table.estimates, key, None)

    def goodness(self, alpha: float, request_type: RequestType) -> float:
        """Baseline fidelity estimate for pairs generated at ``alpha``.

        Uses linear interpolation of the hardware-model table, blended with
        the measured test-round estimate when test data is available.
        """
        table = self._table
        key = (alpha, request_type)
        baseline = table.baselines.get(key)
        if baseline is None:
            baseline = self._remember(table.baselines, key, self._interpolate(
                alpha, lambda index: table.delivered_fidelity(index,
                                                              request_type)))
        measured = self.measured_fidelity()
        if measured is None:
            return baseline
        # Blend: trust the measurement in proportion to how full the window is.
        weight = min(len(self._test_rounds) / self.test_window, 1.0)
        return float((1.0 - weight) * baseline + weight * measured)

    def success_probability(self, alpha: float,
                            request_type: RequestType) -> float:
        """Interpolated heralding success probability at ``alpha``."""
        table = self._table
        key = (alpha, request_type)
        probability = table.success_probabilities.get(key)
        if probability is None:
            probability = self._remember(
                table.success_probabilities, key,
                self._interpolate(alpha, table.success_probability))
        return probability

    def _interpolate(self, alpha: float,
                     value: Callable[[int], float]) -> float:
        """``value(row index)`` linearly interpolated over the grid at
        ``alpha``.  On a grid alpha that is the row's own value, which is
        what ``np.interp`` returns there, so only off-grid alphas compute
        the whole column."""
        table = self._table
        index = table.index_of(alpha)
        if index is not None:
            return float(value(index))
        return float(np.interp(alpha, table.alphas,
                               [value(index)
                                for index in range(len(table.alphas))]))

    def _time_per_pair(self, success_probability: float,
                       request_type: RequestType) -> float:
        timing = self.scenario.timing
        if request_type is RequestType.MEASURE:
            spacing = timing.attempt_spacing_m
            expected_cycles = timing.expected_cycles_per_attempt_m
        else:
            spacing = timing.attempt_spacing_k
            expected_cycles = timing.expected_cycles_per_attempt_k
        per_attempt = max(spacing, expected_cycles * timing.mhp_cycle)
        if success_probability <= 0:
            return math.inf
        return per_attempt / success_probability

    # ------------------------------------------------------------------ #
    # Test rounds (Appendix B)
    # ------------------------------------------------------------------ #
    def record_test_round(self, basis: str, outcome_a: int, outcome_b: int,
                          target: BellIndex = BellIndex.PSI_PLUS) -> None:
        """Record the outcomes of one interspersed test round."""
        self._test_rounds.append(TestRoundRecord(basis=basis.upper(),
                                                 outcome_a=outcome_a,
                                                 outcome_b=outcome_b,
                                                 target=target))

    def measured_qber(self) -> Optional[dict[str, float]]:
        """QBER per basis over the test-round window, or ``None`` if no data."""
        if not self._test_rounds:
            return None
        qber = {}
        for basis in ("X", "Y", "Z"):
            rounds = [r for r in self._test_rounds if r.basis == basis]
            if not rounds:
                return None
            qber[basis] = sum(r.is_error for r in rounds) / len(rounds)
        return qber

    def measured_fidelity(self) -> Optional[float]:
        """Fidelity estimate from the test-round QBERs (Eq. 16)."""
        qber = self.measured_qber()
        if qber is None:
            return None
        return fidelity_from_qber(qber)
