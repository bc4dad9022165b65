"""Exact density-matrix physics backend.

This backend is the reference model: it delegates heralding to the full
density-matrix computation of :mod:`repro.hardware.heralding` (emission,
beam-splitter Kraus operators, detector imperfections) and applies device
noise through the Kraus machinery of :mod:`repro.quantum`.  It reproduces,
operation for operation (including random-number consumption), the behaviour
the simulation had before the backend layer existed.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

import numpy as np

from repro.backends.base import AttemptModel, HeraldSample, PhysicsBackend
from repro.quantum import noise
from repro.quantum.density import DensityMatrix
from repro.quantum.measurement import readout_kraus
from repro.quantum.states import BellIndex, bell_state

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.messages import RequestType
    from repro.hardware.pair import EntangledPair
    from repro.hardware.parameters import CoherenceTimes, ScenarioConfig


_FAILURE = HeraldSample(outcome_code=0, state=None)


class DensityAttemptModel(AttemptModel):
    """Attempt model backed by the exact :class:`HeraldedStateSampler`."""

    def __init__(self, scenario: "ScenarioConfig", alpha: float) -> None:
        from repro.hardware.heralding import HeraldedStateSampler

        self.scenario = scenario
        self.alpha = float(alpha)
        self.sampler = HeraldedStateSampler(self.alpha, self.alpha,
                                            scenario.optics_a,
                                            scenario.optics_b)

    # ------------------------------------------------------------------ #
    # Static properties
    # ------------------------------------------------------------------ #
    @property
    def success_probability(self) -> float:
        return self.sampler.success_probability

    def average_success_fidelity(self,
                                 target: Optional[BellIndex] = None) -> float:
        return self.sampler.average_success_fidelity(target)

    def delivered_fidelity(self, request_type: "RequestType") -> float:
        from repro.core.messages import RequestType

        successes = [o for o in self.sampler.outcomes
                     if o.is_success and o.state]
        total = sum(o.probability for o in successes)
        if total <= 0:
            return 0.0
        gates = self.scenario.gates
        timing = self.scenario.timing
        weighted = 0.0
        for outcome in successes:
            state = outcome.state.copy()
            target = outcome.outcome.bell_index
            # Electron decay while waiting for the midpoint REPLY.
            for qubit, delay in ((0, timing.midpoint_delay_a),
                                 (1, timing.midpoint_delay_b)):
                if delay > 0:
                    state.apply_kraus(
                        noise.t1_t2_kraus(delay, gates.electron_coherence.t1,
                                          gates.electron_coherence.t2),
                        qubits=[qubit])
            if request_type is RequestType.KEEP:
                # Move-to-memory gate noise (two E-C gates per side); the
                # swap pulse sequence dynamically decouples the electron, so
                # no extra free-evolution decay is added here, matching the
                # device model.
                swap_kraus = noise.depolarizing_kraus(gates.ec_gate_fidelity)
                for qubit in (0, 1):
                    state.apply_kraus(swap_kraus, qubits=[qubit])
                    state.apply_kraus(swap_kraus, qubits=[qubit])
            weighted += outcome.probability * state.fidelity_to_pure(
                bell_state(target))
        return weighted / total

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def _herald(self, outcome) -> HeraldSample:
        """Convert a heralding :class:`AttemptOutcome` into a HeraldSample
        whose state is a fresh copy keyed by its root."""
        from repro.hardware.heralding import HeraldingOutcome

        if outcome.outcome is HeraldingOutcome.PSI_PLUS:
            code = 1
        elif outcome.outcome is HeraldingOutcome.PSI_MINUS:
            code = 2
        else:
            code = 0
        state = None
        if code and outcome.state is not None:
            state = outcome.state.copy()
            state.chain_key = self.root_keys.get(code)
        return HeraldSample(outcome_code=code, state=state)

    def sample(self, rng: np.random.Generator) -> HeraldSample:
        return self._herald(self.sampler.sample(rng))

    def resolve(self, rng: np.random.Generator,
                max_attempts: int) -> tuple[int, HeraldSample]:
        if max_attempts <= 1:
            return 1, self.sample(rng)
        success_attempt = self.sampler.sample_attempts_until_success(
            rng, max_attempts)
        if success_attempt is None:
            return max_attempts, _FAILURE
        return success_attempt, self._herald(
            self.sampler.sample_success(rng))


class DensityMatrixBackend(PhysicsBackend):
    """Exact backend: full density-matrix heralding and Kraus device noise.

    The conservative default batching policy of :class:`PhysicsBackend` is
    inherited unchanged — this backend never fast-forwards beyond the batch
    size the caller configured.
    """

    name = "density"
    attempt_model_class = DensityAttemptModel

    # ------------------------------------------------------------------ #
    # Local device physics
    # ------------------------------------------------------------------ #
    def _apply_t1t2(self, pair: "EntangledPair", side: str,
                    coherence: "CoherenceTimes", duration: float) -> None:
        kraus = noise.t1_t2_kraus(duration, coherence.t1, coherence.t2)
        pair.apply_one_sided_kraus(kraus, side)

    def _apply_depolarizing(self, pair: "EntangledPair", side: str,
                            fidelity: float) -> None:
        pair.apply_one_sided_kraus(noise.depolarizing_kraus(fidelity), side)

    def _apply_dephasing(self, pair: "EntangledPair", side: str,
                         probability: float) -> None:
        pair.apply_one_sided_kraus(noise.dephasing_kraus(probability), side)

    def _apply_correction(self, pair: "EntangledPair", side: str,
                          gate_fidelity: float) -> None:
        from repro.quantum import gates

        pair.apply_one_sided_unitary(gates.Z, side)
        if gate_fidelity < 1.0:
            pair.apply_one_sided_kraus(
                noise.depolarizing_kraus(gate_fidelity), side)

    @staticmethod
    def _rotated(pair: "EntangledPair", side: str,
                 basis: str) -> DensityMatrix:
        """The pair state with ``basis`` rotated onto Z on ``side`` (the
        pair's own state is unchanged)."""
        from repro.quantum import gates

        rotated = DensityMatrix(pair.state.matrix, validate=False)
        if basis == "X":
            rotated.apply_unitary(gates.H, qubits=[pair._side_index(side)])
        elif basis == "Y":
            # Rotate Y eigenstates onto Z: apply H S^dagger.
            rotated.apply_unitary(gates.H @ gates.S.conj().T,
                                  qubits=[pair._side_index(side)])
        elif basis != "Z":
            raise ValueError(f"unknown basis {basis!r}")
        return rotated

    def _povm_distribution(self, pair: "EntangledPair", side: str,
                           basis: str, readout_fidelity_0: float,
                           readout_fidelity_1: float) -> np.ndarray:
        return self._rotated(pair, side, basis).povm_distribution(
            readout_kraus(readout_fidelity_0, readout_fidelity_1),
            qubits=[0 if side.upper() == "A" else 1])

    def _povm_branch(self, pair: "EntangledPair", side: str, basis: str,
                     readout_fidelity_0: float, readout_fidelity_1: float,
                     outcome: int) -> np.ndarray:
        return self._rotated(pair, side, basis).povm_branch(
            readout_kraus(readout_fidelity_0, readout_fidelity_1)[outcome],
            qubits=[0 if side.upper() == "A" else 1])
