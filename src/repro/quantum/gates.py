"""Quantum gates used by the NV hardware model and the protocols.

All gates are plain numpy unitary matrices.  Multi-qubit gates follow the
convention that the first (most significant) qubit is the control unless
stated otherwise.
"""

from __future__ import annotations

import numpy as np

#: Identity
I = np.eye(2, dtype=complex)

#: Pauli X (bit flip)
X = np.array([[0, 1], [1, 0]], dtype=complex)

#: Pauli Y
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)

#: Pauli Z (phase flip)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: Hadamard
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)

#: Phase gate S = diag(1, i)
S = np.array([[1, 0], [0, 1j]], dtype=complex)


def rx(theta: float) -> np.ndarray:
    """Rotation around the X axis by angle ``theta`` (radians)."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry(theta: float) -> np.ndarray:
    """Rotation around the Y axis by angle ``theta`` (radians)."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    """Rotation around the Z axis by angle ``theta`` (radians)."""
    phase = np.exp(-1j * theta / 2.0)
    return np.array([[phase, 0], [0, phase.conjugate()]], dtype=complex)


#: CNOT with the first qubit as control.
CNOT = np.array([
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
    [0, 0, 1, 0],
], dtype=complex)

#: Controlled-Z.
CZ = np.diag([1, 1, 1, -1]).astype(complex)

#: SWAP gate.
SWAP = np.array([
    [1, 0, 0, 0],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
], dtype=complex)


def controlled_rx(theta: float) -> np.ndarray:
    """Electron-controlled carbon rotation, Eq. (22) of the paper.

    If the control (electron) is |0> the target rotates by ``+theta`` around
    X; if the control is |1> it rotates by ``-theta``.  The NV two-qubit
    E-C controlled-sqrt(X) gate is ``controlled_rx(pi/2)``.
    """
    upper = rx(theta)
    lower = rx(-theta)
    gate = np.zeros((4, 4), dtype=complex)
    gate[:2, :2] = upper
    gate[2:, 2:] = lower
    return gate


#: The NV native two-qubit gate: electron-controlled sqrt(X) on the carbon.
EC_CONTROLLED_SQRT_X = controlled_rx(np.pi / 2.0)


def is_unitary(matrix: np.ndarray, atol: float = 1e-10) -> bool:
    """Check whether ``matrix`` is unitary within tolerance ``atol``."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    product = matrix @ matrix.conj().T
    return bool(np.allclose(product, np.eye(matrix.shape[0]), atol=atol))


def expand_single_qubit(gate: np.ndarray, target: int, num_qubits: int) -> np.ndarray:
    """Embed a single-qubit ``gate`` acting on ``target`` into an
    ``num_qubits``-qubit unitary (qubit 0 is most significant)."""
    if not 0 <= target < num_qubits:
        raise ValueError(f"target {target} out of range for {num_qubits} qubits")
    ops = [I] * num_qubits
    ops[target] = np.asarray(gate, dtype=complex)
    result = ops[0]
    for op in ops[1:]:
        result = _kron(result, op)
    return result


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a, b)`` for two 2-D operands.

    The same broadcast outer product ``np.kron`` computes internally,
    without its generic shape handling, which costs several times the
    product on the 2x2 and 4x4 operands the density-matrix path embeds at
    every noise step.  The entries are the very same products, signed zeros
    included; a block-by-block placement would not be (it leaves +0.0
    where a product gives -0.0).
    """
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def expand_two_qubit(gate: np.ndarray, control: int, target: int,
                     num_qubits: int) -> np.ndarray:
    """Embed a two-qubit ``gate`` (acting on adjacent-ordered control/target)
    into an ``num_qubits``-qubit unitary.

    The embedding permutes qubits so that the supplied gate acts on
    ``(control, target)`` in that order.
    """
    if control == target:
        raise ValueError("control and target must differ")
    for qubit in (control, target):
        if not 0 <= qubit < num_qubits:
            raise ValueError(f"qubit {qubit} out of range for {num_qubits} qubits")
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (4, 4):
        raise ValueError(f"expected a 4x4 gate, got shape {gate.shape}")

    dim = 2 ** num_qubits
    full = np.zeros((dim, dim), dtype=complex)
    for row in range(dim):
        row_bits = [(row >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
        for sub_row in range(4):
            for sub_col in range(4):
                amplitude = gate[sub_row, sub_col]
                if amplitude == 0:
                    continue
                # The gate maps |sub_col> -> amplitude |sub_row> on (control, target).
                if (row_bits[control], row_bits[target]) != (sub_row >> 1, sub_row & 1):
                    continue
                col_bits = list(row_bits)
                col_bits[control] = sub_col >> 1
                col_bits[target] = sub_col & 1
                col = 0
                for bit in col_bits:
                    col = (col << 1) | bit
                full[row, col] += amplitude
    return full
