"""Closed-form analytic physics backend — the MHP/EGP fast path.

The exact model resolves every entanglement attempt through a full
density-matrix computation (emission Kraus chains, a 16-dimensional joint
state, beam-splitter Kraus operators).  Because every attempt with the same
bright-state population ``alpha`` is statistically identical, all of that
collapses into closed form:

* **Outcome probabilities.**  Photon-arrival probabilities per arm are
  ``q_x = alpha * S_x`` with ``S_x`` the photon survival probability; the
  single-click/two-click/dark-count click distribution of the station then
  follows from elementary probability (paper Appendix D.5).
* **Conditional states.**  The post-herald electron-electron state is a rank-4
  mixture whose entries are closed-form expressions in ``q_x``, the arm
  coherences ``kappa_x`` and the photon overlap ``mu`` — the |01>/|10>
  coherence is ``mu * kappa_A * kappa_B / 2`` with the sign set by which
  detector clicked.  The resulting 4x4 matrices agree with the exact model to
  machine precision (covered by the cross-backend equivalence tests).
* **Fast-forward.**  Failed attempts carry no quantum state, so runs of
  failed cycles are resolved by sampling a geometric "cycles-until-herald"
  count: one GEN/REPLY exchange covers a whole window of attempts in O(1)
  simulation events instead of one event per cycle
  (:meth:`AnalyticBackend.granted_batch`).

Device-side noise (T1/T2, depolarising, dephasing, readout) acts on the same
4x4 pair states through direct tensor contractions instead of the generic
operator-expansion machinery, so the per-pair cost stays small.
"""

from __future__ import annotations

import math
from typing import Optional, TYPE_CHECKING

import numpy as np

from repro.backends.base import (
    AttemptModel,
    BatchGrant,
    HeraldSample,
    PhysicsBackend,
)
from repro.quantum.density import DensityMatrix
from repro.quantum.states import BellIndex, bell_state

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.messages import RequestType
    from repro.hardware.pair import EntangledPair
    from repro.hardware.parameters import (
        CoherenceTimes,
        OpticalParameters,
        ScenarioConfig,
        TimingParameters,
    )

_FAILURE = HeraldSample(outcome_code=0, state=None)

#: Boolean masks selecting the matrix elements whose row/column bit of one
#: side differ — exactly the coherences a one-sided Z or dephasing touches.
_SIDE_BITS = (np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))
_DIFFER_MASK = tuple(bits[:, None] != bits[None, :] for bits in _SIDE_BITS)


def _side_index(side: str) -> int:
    return 0 if side.upper() == "A" else 1


def apply_one_sided_channel(state: DensityMatrix, side_index: int,
                            kraus_operators: list[np.ndarray]) -> None:
    """Apply 2x2 Kraus operators to one qubit of a two-qubit state in place.

    Direct tensor contraction — no operator expansion, no validation.
    """
    rho = state.matrix.reshape(2, 2, 2, 2)
    total = None
    for op in kraus_operators:
        if side_index == 0:
            term = np.einsum("ai,ibjc,dj->abdc", op, rho, op.conj())
        else:
            term = np.einsum("bi,aicj,dj->abcd", op, rho, op.conj())
        total = term if total is None else total + term
    state.update_matrix(total.reshape(4, 4))


def _scale_one_sided_coherences(state: DensityMatrix, side_index: int,
                                factor: float) -> None:
    """Multiply the coherences of one side by ``factor`` (dephasing / Z)."""
    matrix = state.matrix
    matrix[_DIFFER_MASK[side_index]] *= factor
    state.chain_key = None


def _amplitude_damping_ops(probability: float) -> list[np.ndarray]:
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - probability)]],
                  dtype=complex)
    k1 = np.array([[0.0, math.sqrt(probability)], [0.0, 0.0]], dtype=complex)
    return [k0, k1]


def _t1t2_parameters(duration: float, t1: float, t2: float,
                     ) -> tuple[float, float]:
    """(relaxation probability, extra dephasing probability) of T1/T2 decay.

    Mirrors :func:`repro.quantum.noise.t1_t2_kraus`: amplitude damping with
    ``1 - exp(-t/T1)`` plus the dephasing that brings the total coherence
    decay to ``exp(-t/T2)``.
    """
    p_relax = 0.0
    if t1 and math.isfinite(t1) and t1 > 0:
        p_relax = 1.0 - math.exp(-duration / t1)
    extra = 0.0
    if t2 and math.isfinite(t2) and t2 > 0:
        exponent = -duration / t2
        if t1 and math.isfinite(t1) and t1 > 0:
            exponent += duration / (2.0 * t1)
        extra = (1.0 - math.exp(min(exponent, 0.0))) / 2.0
    return p_relax, extra


class AnalyticAttemptModel(AttemptModel):
    """Closed-form per-``alpha`` attempt model.

    Precomputes the observable outcome probabilities and the conditional
    post-herald states once; sampling an attempt afterwards costs two random
    numbers at most and never touches the density-matrix machinery.
    """

    def __init__(self, scenario: "ScenarioConfig", alpha: float) -> None:
        self.scenario = scenario
        self.alpha = float(alpha)
        optics_a, optics_b = scenario.optics_a, scenario.optics_b
        qa, kappa_a = self._arm(self.alpha, optics_a)
        qb, kappa_b = self._arm(self.alpha, optics_b)
        mu = math.sqrt(optics_a.visibility)

        # Unnormalised electron-electron matrices of the four ideal
        # beam-splitter branches, basis |eA eB> (|0> = bright).
        lost_a = self.alpha * (1.0 - optics_a.survival_probability())
        lost_b = self.alpha * (1.0 - optics_b.survival_probability())
        dark_a, dark_b = 1.0 - self.alpha, 1.0 - self.alpha
        p00_click = (qa * lost_b + qb * lost_a) / 2.0 \
            + qa * qb * (1.0 + mu * mu) / 4.0
        coherence = mu * kappa_a * kappa_b / 2.0
        branch = {
            "none": self._matrix(lost_a * lost_b, lost_a * dark_b,
                                 dark_a * lost_b, dark_a * dark_b, 0.0),
            "left": self._matrix(p00_click, qa * dark_b / 2.0,
                                 qb * dark_a / 2.0, 0.0, coherence),
            "right": self._matrix(p00_click, qa * dark_b / 2.0,
                                  qb * dark_a / 2.0, 0.0, -coherence),
            "both": self._matrix(qa * qb * (1.0 - mu * mu) / 2.0,
                                 0.0, 0.0, 0.0, 0.0),
        }

        # Mix the ideal branches into observed (left, right) click patterns
        # through detector efficiency and dark counts — the classical part of
        # the station model, identical to the exact backend's.
        p_detection = optics_a.p_detection
        p_dark = optics_a.dark_count_probability()
        pattern: dict[tuple[bool, bool], np.ndarray] = {}
        for label, matrix in branch.items():
            ideal_left = label in ("left", "both")
            ideal_right = label in ("right", "both")
            p_l = p_detection if ideal_left else 0.0
            p_l = p_l + (1.0 - p_l) * p_dark
            p_r = p_detection if ideal_right else 0.0
            p_r = p_r + (1.0 - p_r) * p_dark
            for left in (False, True):
                for right in (False, True):
                    weight = ((p_l if left else 1.0 - p_l)
                              * (p_r if right else 1.0 - p_r))
                    if weight <= 0:
                        continue
                    accumulated = pattern.setdefault(
                        (left, right), np.zeros((4, 4), dtype=complex))
                    accumulated += weight * matrix

        def _conditional(key: tuple[bool, bool],
                         ) -> tuple[float, Optional[np.ndarray]]:
            matrix = pattern.get(key)
            if matrix is None:
                return 0.0, None
            probability = float(np.real(np.trace(matrix)))
            if probability <= 1e-15:
                return max(probability, 0.0), None
            return probability, matrix / probability

        # (left, right) = (False, True) is detector d: |Psi->;
        # (True, False) is detector c: |Psi+> — ordering matches the exact
        # sampler's outcome list [PSI_MINUS, PSI_PLUS, FAILURE].
        self._p_minus, self._state_minus = _conditional((False, True))
        self._p_plus, self._state_plus = _conditional((True, False))
        self._p_success = self._p_minus + self._p_plus

    @staticmethod
    def _arm(alpha: float, optics: "OpticalParameters",
             ) -> tuple[float, float]:
        """(photon-arrival probability, |01>/|10> coherence) of one arm."""
        from repro.quantum.noise import dephasing_probability_from_phase_std

        survival = optics.survival_probability()
        q = alpha * survival
        dephasing = ((1.0 - optics.p_double_emission)
                     * (1.0 - 2.0 * dephasing_probability_from_phase_std(
                         optics.phase_std)))
        kappa = math.sqrt(alpha * (1.0 - alpha) * survival) * dephasing
        return q, kappa

    @staticmethod
    def _matrix(p00: float, p01: float, p10: float, p11: float,
                coherence: float) -> np.ndarray:
        matrix = np.zeros((4, 4), dtype=complex)
        matrix[0, 0], matrix[1, 1] = p00, p01
        matrix[2, 2], matrix[3, 3] = p10, p11
        matrix[1, 2] = matrix[2, 1] = coherence
        return matrix

    # ------------------------------------------------------------------ #
    # Static properties
    # ------------------------------------------------------------------ #
    @property
    def success_probability(self) -> float:
        return self._p_success

    def average_success_fidelity(self,
                                 target: Optional[BellIndex] = None) -> float:
        if self._p_success <= 0:
            return 0.0
        weighted = 0.0
        for probability, state, bell in (
                (self._p_minus, self._state_minus, BellIndex.PSI_MINUS),
                (self._p_plus, self._state_plus, BellIndex.PSI_PLUS)):
            if state is None or probability <= 0:
                continue
            ket = bell_state(target if target is not None else bell)
            weighted += probability * float(
                np.real(ket.conj() @ state @ ket))
        return weighted / self._p_success

    def delivered_fidelity(self, request_type: "RequestType") -> float:
        from repro.core.messages import RequestType
        from repro.quantum.noise import depolarizing_kraus

        if self._p_success <= 0:
            return 0.0
        gates = self.scenario.gates
        timing = self.scenario.timing
        weighted = 0.0
        for probability, matrix, bell in (
                (self._p_minus, self._state_minus, BellIndex.PSI_MINUS),
                (self._p_plus, self._state_plus, BellIndex.PSI_PLUS)):
            if matrix is None or probability <= 0:
                continue
            state = DensityMatrix(matrix.copy(), validate=False)
            for qubit, delay in ((0, timing.midpoint_delay_a),
                                 (1, timing.midpoint_delay_b)):
                if delay > 0:
                    coherence = gates.electron_coherence
                    p_relax, extra = _t1t2_parameters(
                        delay, coherence.t1, coherence.t2)
                    apply_one_sided_channel(
                        state, qubit, _amplitude_damping_ops(p_relax))
                    _scale_one_sided_coherences(state, qubit,
                                                1.0 - 2.0 * extra)
            if request_type is RequestType.KEEP:
                swap = depolarizing_kraus(gates.ec_gate_fidelity)
                for qubit in (0, 1):
                    apply_one_sided_channel(state, qubit, swap)
                    apply_one_sided_channel(state, qubit, swap)
            weighted += probability * state.fidelity_to_pure(bell_state(bell))
        return weighted / self._p_success

    # ------------------------------------------------------------------ #
    # Sampling — same random-number consumption as the exact sampler
    # ------------------------------------------------------------------ #
    def _herald(self, code: int,
                matrix: Optional[np.ndarray]) -> HeraldSample:
        """A fresh heralded state of outcome ``code``, keyed by its root."""
        if matrix is None:
            return _FAILURE
        state = DensityMatrix(matrix.copy(), validate=False)
        state.chain_key = self.root_keys.get(code)
        return HeraldSample(outcome_code=code, state=state)

    def _success_sample(self, rng: np.random.Generator) -> HeraldSample:
        """Draw an outcome conditioned on success (one uniform draw)."""
        if self._p_success <= 0:
            raise RuntimeError("scenario has zero success probability")
        if rng.random() < self._p_minus / self._p_success:
            return self._herald(2, self._state_minus)
        return self._herald(1, self._state_plus)

    def sample(self, rng: np.random.Generator) -> HeraldSample:
        draw = rng.random()
        if draw < self._p_minus:
            return self._herald(2, self._state_minus)
        if draw < self._p_success:
            return self._herald(1, self._state_plus)
        return _FAILURE

    def resolve(self, rng: np.random.Generator,
                max_attempts: int) -> tuple[int, HeraldSample]:
        if max_attempts <= 1:
            return 1, self.sample(rng)
        if self._p_success <= 0:
            return max_attempts, _FAILURE
        attempt = int(rng.geometric(self._p_success))
        if attempt > max_attempts:
            return max_attempts, _FAILURE
        return attempt, self._success_sample(rng)


class AnalyticBackend(PhysicsBackend):
    """Closed-form backend with geometric fast-forward of failed cycles.

    Parameters
    ----------
    fast_forward:
        When ``True`` (default) the batching policy widens every GEN/REPLY
        exchange to cover up to ``max_window_seconds`` of attempt cycles, so
        long runs of failed attempts cost O(1) events.  ``False`` keeps the
        conservative exact-model batching — useful for trajectory-level
        comparisons against the density backend (results record it as
        ``"analytic-exact"``, which is not a registered backend name).
    max_window_seconds:
        Upper bound on the simulated time one fast-forwarded exchange may
        span.  This bounds the scheduling granularity: a newly arriving
        higher-priority request waits at most this long before the attempt
        stream can switch to it.
    """

    name = "analytic"
    attempt_model_class = AnalyticAttemptModel

    def __init__(self, fast_forward: bool = True,
                 max_window_seconds: float = 10e-3) -> None:
        if max_window_seconds <= 0:
            raise ValueError(
                f"max_window_seconds must be positive, got {max_window_seconds}")
        super().__init__()
        self.fast_forward = fast_forward
        self.max_window_seconds = float(max_window_seconds)
        if not fast_forward:
            self.name = "analytic-exact"
        self._povm_cache: dict[tuple, tuple] = {}

    # ------------------------------------------------------------------ #
    # Batching policy — the O(1) fast-forward
    # ------------------------------------------------------------------ #
    def granted_batch(self, request_type: "RequestType", configured: int,
                      emission_multiplexing: bool,
                      timing: "TimingParameters",
                      frame_loss_probability: float = 0.0) -> BatchGrant:
        from repro.core.messages import RequestType

        base = super().granted_batch(request_type, configured,
                                     emission_multiplexing, timing,
                                     frame_loss_probability)
        if not self.fast_forward:
            return base
        if frame_loss_probability > 0:
            # The robustness study (Section 6.1) exposes every classical
            # frame to loss individually; collapsing a window of attempts
            # into one GEN/REPLY exchange would shrink the number of frames
            # at risk by orders of magnitude and change the very physics
            # being measured.  Fall back to the conservative policy.
            return base
        cycle = timing.mhp_cycle
        if request_type is RequestType.MEASURE:
            if not emission_multiplexing:
                # Every attempt must wait for its REPLY; nothing to skip.
                return base
            stride = 1
        else:
            # K attempts are spaced by the attempt spacing (which already
            # accounts for the midpoint round trip) aligned to the MHP cycle
            # grid — identical to the cycle the unbatched protocol would
            # trigger on.
            round_trip = 2 * max(timing.midpoint_delay_a,
                                 timing.midpoint_delay_b)
            spacing = max(timing.attempt_spacing_k, round_trip)
            stride = max(1, math.ceil(spacing / cycle - 1e-9))
        # The window is a hard cap (it bounds the scheduling granularity a
        # higher-priority arrival may have to wait out), so a configured
        # batch larger than the window is clipped to it.
        window_attempts = int(self.max_window_seconds / (stride * cycle))
        return BatchGrant(batch=max(1, window_attempts), stride=stride)

    # ------------------------------------------------------------------ #
    # Local device physics — direct contractions on the 4x4 pair state
    # ------------------------------------------------------------------ #
    def _apply_t1t2(self, pair: "EntangledPair", side: str,
                    coherence: "CoherenceTimes", duration: float) -> None:
        p_relax, extra = _t1t2_parameters(duration, coherence.t1,
                                          coherence.t2)
        index = _side_index(side)
        if p_relax > 0:
            apply_one_sided_channel(pair.state, index,
                                    _amplitude_damping_ops(p_relax))
        if extra > 0:
            _scale_one_sided_coherences(pair.state, index, 1.0 - 2.0 * extra)

    def _apply_depolarizing(self, pair: "EntangledPair", side: str,
                            fidelity: float) -> None:
        from repro.quantum.noise import depolarizing_kraus

        apply_one_sided_channel(pair.state, _side_index(side),
                                depolarizing_kraus(fidelity))

    def _apply_dephasing(self, pair: "EntangledPair", side: str,
                         probability: float) -> None:
        _scale_one_sided_coherences(pair.state, _side_index(side),
                                    1.0 - 2.0 * probability)

    def _apply_correction(self, pair: "EntangledPair", side: str,
                          gate_fidelity: float) -> None:
        _scale_one_sided_coherences(pair.state, _side_index(side), -1.0)
        if gate_fidelity < 1.0:
            self._apply_depolarizing(pair, side, gate_fidelity)

    def _povm_distribution(self, pair: "EntangledPair", side: str,
                           basis: str, readout_fidelity_0: float,
                           readout_fidelity_1: float) -> np.ndarray:
        operators = self._measurement_operators(
            _side_index(side), basis, readout_fidelity_0, readout_fidelity_1)
        rho = pair.state.matrix
        probabilities = np.array([
            max(float(np.real(np.einsum("ij,ji->", element, rho))), 0.0)
            for _, element in operators])
        total = probabilities.sum()
        if total <= 0:
            raise RuntimeError("POVM probabilities sum to zero")
        return probabilities / total

    def _povm_branch(self, pair: "EntangledPair", side: str, basis: str,
                     readout_fidelity_0: float, readout_fidelity_1: float,
                     outcome: int) -> np.ndarray:
        kraus, _ = self._measurement_operators(
            _side_index(side), basis, readout_fidelity_0,
            readout_fidelity_1)[outcome]
        rho = pair.state.matrix
        post = kraus @ rho @ kraus.conj().T
        norm = float(np.real(np.trace(post)))
        if norm <= 0:
            raise RuntimeError("POVM produced zero-probability branch")
        return post / norm

    def _measurement_operators(self, side_index: int, basis: str,
                               readout_fidelity_0: float,
                               readout_fidelity_1: float) -> tuple:
        """Cached expanded (Kraus, POVM-element) pairs: rotation + readout."""
        key = (side_index, basis, readout_fidelity_0, readout_fidelity_1)
        cached = self._povm_cache.get(key)
        if cached is not None:
            return cached
        from repro.quantum import gates
        from repro.quantum.measurement import readout_kraus

        if basis == "Z":
            rotation = gates.I
        elif basis == "X":
            rotation = gates.H
        elif basis == "Y":
            rotation = gates.H @ gates.S.conj().T
        else:
            raise ValueError(f"unknown basis {basis!r}")
        identity = np.eye(2, dtype=complex)
        operators = []
        for readout in readout_kraus(readout_fidelity_0, readout_fidelity_1):
            small = readout @ rotation
            expanded = (np.kron(small, identity) if side_index == 0
                        else np.kron(identity, small))
            operators.append((expanded, expanded.conj().T @ expanded))
        cached = tuple(operators)
        self._povm_cache[key] = cached
        return cached
