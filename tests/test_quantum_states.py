"""Unit tests for quantum states, gates and the density-matrix substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.quantum import gates
from repro.quantum.density import DensityMatrix
from repro.quantum.states import (
    BellIndex,
    basis_states,
    bell_state,
    ket0,
    ket1,
    ket_minus,
    ket_plus,
    ket_to_dm,
)


class TestStates:
    def test_basis_states_are_normalised(self):
        for ket in (ket0(), ket1(), ket_plus(), ket_minus()):
            assert np.isclose(np.linalg.norm(ket), 1.0)

    def test_plus_minus_orthogonal(self):
        assert np.isclose(np.vdot(ket_plus(), ket_minus()), 0.0)

    def test_bell_states_are_orthonormal(self):
        kets = [bell_state(i) for i in BellIndex]
        for i, ket_i in enumerate(kets):
            for j, ket_j in enumerate(kets):
                expected = 1.0 if i == j else 0.0
                assert np.isclose(abs(np.vdot(ket_i, ket_j)), expected)

    def test_bell_transformations(self):
        # Eq. (13): |Psi+> = X_A |Phi+>, |Psi-> = Z_A X_A |Phi+>.
        phi_plus = bell_state(BellIndex.PHI_PLUS)
        x_a = np.kron(gates.X, gates.I)
        z_a = np.kron(gates.Z, gates.I)
        assert np.allclose(x_a @ phi_plus, bell_state(BellIndex.PSI_PLUS))
        assert np.allclose(z_a @ x_a @ phi_plus, bell_state(BellIndex.PSI_MINUS))

    def test_unknown_basis_raises(self):
        with pytest.raises(ValueError):
            basis_states("W")

    def test_ket_to_dm_is_projector(self):
        dm = ket_to_dm(ket_plus())
        assert np.allclose(dm, dm @ dm)
        assert np.isclose(np.trace(dm).real, 1.0)


class TestGates:
    @pytest.mark.parametrize("gate", [gates.X, gates.Y, gates.Z, gates.H,
                                      gates.S, gates.CNOT, gates.CZ,
                                      gates.SWAP, gates.EC_CONTROLLED_SQRT_X])
    def test_gates_are_unitary(self, gate):
        assert gates.is_unitary(gate)

    def test_rotations_are_unitary(self):
        for theta in (0.1, np.pi / 2, np.pi, 2.2):
            assert gates.is_unitary(gates.rx(theta))
            assert gates.is_unitary(gates.ry(theta))
            assert gates.is_unitary(gates.rz(theta))

    def test_pauli_algebra(self):
        assert np.allclose(gates.X @ gates.X, gates.I)
        assert np.allclose(gates.X @ gates.Y, 1j * gates.Z)

    def test_hadamard_maps_z_to_x(self):
        assert np.allclose(gates.H @ ket0(), ket_plus())
        assert np.allclose(gates.H @ ket1(), ket_minus())

    def test_controlled_rx_blocks(self):
        gate = gates.controlled_rx(np.pi / 3)
        assert np.allclose(gate[:2, :2], gates.rx(np.pi / 3))
        assert np.allclose(gate[2:, 2:], gates.rx(-np.pi / 3))

    def test_expand_single_qubit(self):
        expanded = gates.expand_single_qubit(gates.X, target=1, num_qubits=2)
        assert np.allclose(expanded, np.kron(gates.I, gates.X))

    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    def test_expand_single_qubit_is_byte_identical_to_kron_chain(
            self, num_qubits):
        # The embedding must produce exactly the bytes of the np.kron chain
        # it replaced: same products, same signs of zero.
        rng = np.random.default_rng(20261018 + num_qubits)
        zeros = []
        for _ in range(20):
            # Set the parts directly: complex arithmetic would fold -0.0.
            gate = np.empty((2, 2), dtype=complex)
            gate.real = rng.normal(size=(2, 2))
            gate.imag = rng.normal(size=(2, 2))
            # Zero out some entries with either sign, in both parts.
            for part in (gate.real, gate.imag):
                zeroed = rng.random((2, 2)) < 0.4
                part[zeroed] = np.where(rng.random((2, 2)) < 0.5,
                                        0.0, -0.0)[zeroed]
                zeros.extend(part[zeroed])
            for target in range(num_qubits):
                ops = [gates.I] * num_qubits
                ops[target] = gate
                expected = ops[0]
                for op in ops[1:]:
                    expected = np.kron(expected, op)
                got = gates.expand_single_qubit(gate, target, num_qubits)
                assert got.shape == expected.shape
                assert got.dtype == expected.dtype
                assert got.tobytes() == expected.tobytes()
        # The operators did contain zeros of both signs.
        assert 0 < np.signbit(zeros).sum() < len(zeros)

    def test_expand_two_qubit_adjacent_matches_kron(self):
        expanded = gates.expand_two_qubit(gates.CNOT, control=0, target=1,
                                          num_qubits=2)
        assert np.allclose(expanded, gates.CNOT)

    def test_expand_two_qubit_reversed_control(self):
        # CNOT with control=1, target=0 flips qubit 0 when qubit 1 is set.
        expanded = gates.expand_two_qubit(gates.CNOT, control=1, target=0,
                                          num_qubits=2)
        state = np.zeros(4, dtype=complex)
        state[0b01] = 1.0  # qubit1 = 1
        result = expanded @ state
        expected = np.zeros(4, dtype=complex)
        expected[0b11] = 1.0
        assert np.allclose(result, expected)

    def test_expand_two_qubit_is_unitary_in_larger_register(self):
        expanded = gates.expand_two_qubit(gates.CNOT, control=2, target=0,
                                          num_qubits=3)
        assert gates.is_unitary(expanded)

    def test_expand_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            gates.expand_single_qubit(gates.X, target=3, num_qubits=2)
        with pytest.raises(ValueError):
            gates.expand_two_qubit(gates.CNOT, control=0, target=0,
                                   num_qubits=2)


class TestDensityMatrix:
    def test_from_ket_is_pure(self):
        dm = DensityMatrix.from_ket(bell_state(BellIndex.PSI_PLUS))
        assert dm.num_qubits == 2
        assert dm.purity() == pytest.approx(1.0)

    def test_computational_basis_constructor(self):
        dm = DensityMatrix.computational_basis([1, 0])
        assert dm.matrix[0b10, 0b10] == pytest.approx(1.0)

    def test_maximally_mixed(self):
        dm = DensityMatrix.maximally_mixed(2)
        assert dm.purity() == pytest.approx(0.25)

    def test_validation_rejects_non_hermitian(self):
        bad = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            DensityMatrix(bad)

    def test_validation_rejects_wrong_trace(self):
        bad = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            DensityMatrix(bad)

    def test_tensor_dimensions(self):
        one = DensityMatrix.from_ket(ket0())
        two = one.tensor(one)
        assert two.num_qubits == 2
        assert two.matrix[0, 0] == pytest.approx(1.0)

    def test_partial_trace_of_bell_state_is_mixed(self):
        dm = DensityMatrix.from_ket(bell_state(BellIndex.PSI_MINUS))
        reduced = dm.partial_trace([0])
        assert reduced.num_qubits == 1
        assert reduced.purity() == pytest.approx(0.5)

    def test_partial_trace_of_product_state(self):
        dm = DensityMatrix.from_ket(ket0()).tensor(
            DensityMatrix.from_ket(ket_plus()))
        reduced = dm.partial_trace([1])
        assert reduced.fidelity_to_pure(ket_plus()) == pytest.approx(1.0)

    def test_apply_unitary_on_subsystem(self):
        dm = DensityMatrix.from_ket(ket0()).tensor(DensityMatrix.from_ket(ket0()))
        dm.apply_unitary(gates.X, qubits=[1])
        assert dm.matrix[0b01, 0b01] == pytest.approx(1.0)

    def test_apply_unitary_wrong_shape_raises(self):
        dm = DensityMatrix.from_ket(ket0())
        with pytest.raises(ValueError):
            dm.apply_unitary(gates.CNOT)

    def test_measure_z_definite_state(self, rng):
        dm = DensityMatrix.from_ket(ket1())
        assert dm.measure(0, basis="Z", rng=rng) == 1

    def test_measure_x_plus_state(self, rng):
        dm = DensityMatrix.from_ket(ket_plus())
        assert dm.measure(0, basis="X", rng=rng) == 0

    def test_measurement_collapses_state(self, rng):
        dm = DensityMatrix.from_ket(bell_state(BellIndex.PHI_PLUS))
        outcome = dm.measure(0, basis="Z", rng=rng)
        # After measuring qubit 0, qubit 1 must give the same Z outcome.
        assert dm.measure(1, basis="Z", rng=rng) == outcome

    def test_bell_state_correlations_psi_minus(self, rng):
        # |Psi-> is anti-correlated in every basis.
        for basis in ("X", "Y", "Z"):
            dm = DensityMatrix.from_ket(bell_state(BellIndex.PSI_MINUS))
            a = dm.measure(0, basis=basis, rng=rng)
            b = dm.measure(1, basis=basis, rng=rng)
            assert a != b

    def test_fidelity_to_pure(self):
        dm = DensityMatrix.from_ket(bell_state(BellIndex.PSI_PLUS))
        assert dm.fidelity_to_pure(bell_state(BellIndex.PSI_PLUS)) == pytest.approx(1.0)
        assert dm.fidelity_to_pure(bell_state(BellIndex.PSI_MINUS)) == pytest.approx(0.0)

    def test_equality(self):
        one = DensityMatrix.from_ket(ket0())
        other = DensityMatrix.from_ket(ket0())
        assert one == other
