"""Entanglement-swapping mathematics for repeater chains.

Two independent implementations of the same Bell-state measurement (BSM) are
provided on purpose:

* :func:`swap_states` — the *circuit* path used by the live
  :class:`~repro.topology.swap.SwapAsapEGP` protocol: CNOT + Hadamard on the
  repeater's two qubits, two projective Z measurements, Pauli-frame
  correction of the far endpoint;
* :func:`project_swap` — the *projector* path used by tests: a Bell-basis
  projector applied directly to the joint state, with the same correction.

Both map a pair of |Psi+>-target link states onto one |Psi+>-target
end-to-end state; the equivalence of the two paths (for every measurement
outcome) is what the "analytic composition" acceptance test pins down.

For Werner inputs the composition has the well-known closed form
``F = 1/4 + 3/4 * prod((4 F_i - 1) / 3)`` (:func:`werner_chain_fidelity`).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping, Optional

import numpy as np

from repro.quantum import gates
from repro.quantum.density import DensityMatrix
from repro.quantum.states import BellIndex, bell_state

#: Measurement outcome (m1, m2) -> Bell state of the measured qubit pair.
#: After CNOT(control=first, target=second) + H(first), the Bell basis maps
#: onto the computational basis as Phi+ -> |00>, Psi+ -> |01>,
#: Phi- -> |10>, Psi- -> |11>.
OUTCOME_TO_BELL: Mapping[tuple[int, int], BellIndex] = MappingProxyType({
    (0, 0): BellIndex.PHI_PLUS,
    (0, 1): BellIndex.PSI_PLUS,
    (1, 0): BellIndex.PHI_MINUS,
    (1, 1): BellIndex.PSI_MINUS,
})


def correction_unitary(outcome: tuple[int, int]) -> np.ndarray:
    """Pauli correction on the *right* endpoint for a BSM outcome.

    Both input links target |Psi+>; measuring the two repeater qubits in the
    Bell basis leaves the endpoints in ``X^(1-m2) Z^(m1) |Psi+>`` (up to a
    global phase), so applying that same Pauli restores |Psi+>.  The
    ``(0, 1)`` outcome (Psi+ measured) needs no correction.
    """
    m1, m2 = outcome
    unitary = np.eye(2, dtype=complex)
    if m2 == 0:
        unitary = gates.X @ unitary
    if m1 == 1:
        unitary = gates.Z @ unitary
    return unitary


def swap_states(left: DensityMatrix, right: DensityMatrix,
                rng: np.random.Generator,
                gate_fidelity: float = 1.0,
                ) -> tuple[tuple[int, int], DensityMatrix]:
    """Entanglement swap via the BSM circuit (the live protocol path).

    ``left`` and ``right`` are two-qubit states ordered (endpoint, repeater)
    and (repeater, endpoint) respectively.  The joint register is
    ``[end_left, rep_left, rep_right, end_right]``; the BSM measures qubits
    1 and 2.  ``gate_fidelity < 1`` applies depolarising noise to both
    repeater qubits before the measurement (the two-qubit BSM gate error);
    the Pauli correction itself is tracked in the classical Pauli frame, not
    applied as a physical gate.

    Returns the measurement outcome ``(m1, m2)`` and the corrected two-qubit
    end-to-end state.
    """
    joint = left.tensor(right)
    if gate_fidelity < 1.0:
        from repro.quantum.noise import depolarizing_kraus

        kraus = depolarizing_kraus(gate_fidelity)
        joint.apply_kraus(kraus, qubits=[1])
        joint.apply_kraus(kraus, qubits=[2])
    joint.apply_unitary(gates.CNOT, qubits=[1, 2])
    joint.apply_unitary(gates.H, qubits=[1])
    m1 = joint.measure(1, rng=rng)
    m2 = joint.measure(2, rng=rng)
    joint.apply_unitary(correction_unitary((m1, m2)), qubits=[3])
    return (m1, m2), joint.partial_trace([0, 3])


def project_swap(left: DensityMatrix, right: DensityMatrix,
                 outcome: tuple[int, int],
                 ) -> tuple[float, DensityMatrix]:
    """Entanglement swap via direct Bell projection (the verification path).

    Projects the two repeater qubits of ``left (x) right`` onto the Bell
    state announced by ``outcome``, applies the matching Pauli correction to
    the right endpoint and traces out the measured qubits.  Returns the
    outcome probability and the corrected end-to-end state (the maximally
    mixed state for zero-probability outcomes).
    """
    joint = left.tensor(right)
    ket = bell_state(OUTCOME_TO_BELL[outcome])
    projector = np.outer(ket, ket.conj())
    probability = joint.outcome_probability(projector, qubits=[1, 2])
    probability = min(max(probability, 0.0), 1.0)
    if probability <= 0:
        return 0.0, DensityMatrix.maximally_mixed(2)
    joint.apply_kraus([projector], qubits=[1, 2])
    matrix = joint.matrix / probability
    projected = DensityMatrix(matrix, validate=False)
    projected.apply_unitary(correction_unitary(outcome), qubits=[3])
    return probability, projected.partial_trace([0, 3])


def outcome_average_swap(left: DensityMatrix,
                         right: DensityMatrix) -> DensityMatrix:
    """Outcome-averaged (deterministic CPTP) composition of two link states.

    Averaging the corrected post-measurement states over all four BSM
    outcomes, weighted by their probabilities, gives the end-to-end state a
    heralded-and-corrected swap delivers *on average*.  The map is
    associative, which is what makes swap order irrelevant for chain
    statistics.
    """
    total = np.zeros((4, 4), dtype=complex)
    for outcome in OUTCOME_TO_BELL:
        probability, state = project_swap(left, right, outcome)
        total += probability * state.matrix
    return DensityMatrix(total, validate=False)


def compose_chain(states: Iterable[DensityMatrix],
                  outcomes: Optional[Iterable[tuple[int, int]]] = None,
                  ) -> DensityMatrix:
    """Fold a sequence of per-link states into one end-to-end state.

    With ``outcomes`` given (one BSM outcome per interior node, left to
    right) the composition follows those specific heralded branches via
    :func:`project_swap`; without it the outcome-averaged map is used.
    """
    states = list(states)
    if not states:
        raise ValueError("no link states to compose")
    if outcomes is None:
        result = states[0]
        for state in states[1:]:
            result = outcome_average_swap(result, state)
        return result
    outcomes = list(outcomes)
    if len(outcomes) != len(states) - 1:
        raise ValueError(f"{len(states)} links need {len(states) - 1} swap "
                         f"outcomes, got {len(outcomes)}")
    result = states[0]
    for state, outcome in zip(states[1:], outcomes):
        _, result = project_swap(result, state, outcome)
    return result


def werner_state(fidelity: float,
                 target: BellIndex = BellIndex.PSI_PLUS) -> DensityMatrix:
    """Werner state with the given fidelity to ``target``."""
    ket = bell_state(target)
    pure = np.outer(ket, ket.conj())
    mixed = (np.eye(4, dtype=complex) - pure) / 3.0
    return DensityMatrix(fidelity * pure + (1.0 - fidelity) * mixed,
                         validate=False)


def werner_chain_fidelity(fidelities: Iterable[float]) -> float:
    """Closed-form end-to-end fidelity of a chain of Werner links.

    ``F = 1/4 + 3/4 * prod((4 F_i - 1) / 3)`` — swapping Werner states
    yields a Werner state whose "Werner parameter" is the product of the
    per-link parameters.
    """
    product = 1.0
    for fidelity in fidelities:
        product *= (4.0 * fidelity - 1.0) / 3.0
    return 0.25 + 0.75 * product
