"""Density-matrix representation of small multi-qubit systems.

The :class:`DensityMatrix` wraps a numpy array and provides the operations the
hardware and protocol models need: tensor products, applying unitaries and
Kraus channels to subsets of qubits, partial trace, projective and POVM
measurements, and fidelity helpers.

Qubit ordering: qubit 0 is the most-significant index of the computational
basis (i.e. ``|q0 q1 ... qn-1>``).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.quantum import gates
from repro.quantum.measurement import choice_cdf
from repro.quantum.states import ket_to_dm


class DensityMatrix:
    """An exact density matrix over ``num_qubits`` qubits.

    Parameters
    ----------
    matrix:
        Square complex matrix of dimension ``2**n``.  A state vector of
        length ``2**n`` is also accepted and converted to its outer product.
    validate:
        When ``True`` (default) check hermiticity, trace and positivity.

    ``chain_key`` is the physics backend's memo key of the matrix (equal
    keys mean bitwise-equal matrices; see :mod:`repro.backends.base`).  A
    new state has none, a copy keeps it, and every method that changes the
    matrix drops it.
    """

    def __init__(self, matrix: np.ndarray, validate: bool = True) -> None:
        array = np.asarray(matrix, dtype=complex)
        if array.ndim == 1:
            array = ket_to_dm(array)
        if array.ndim != 2 or array.shape[0] != array.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {array.shape}")
        dim = array.shape[0]
        num_qubits = int(np.log2(dim))
        if 2 ** num_qubits != dim:
            raise ValueError(f"dimension {dim} is not a power of two")
        self._matrix = array
        self._num_qubits = num_qubits
        self.chain_key: Optional[int] = None
        if validate:
            self._validate()

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_ket(cls, ket: np.ndarray, validate: bool = True) -> "DensityMatrix":
        """Build a pure-state density matrix from a state vector.

        Internal hot paths pass ``validate=False`` when the ket is known to
        be normalised (the outer product of a normalised vector is always a
        valid state).
        """
        return cls(ket_to_dm(np.asarray(ket, dtype=complex)),
                   validate=validate)

    @classmethod
    def computational_basis(cls, bits: Sequence[int]) -> "DensityMatrix":
        """|b0 b1 ... bn-1><...| for the given classical bit string."""
        dim = 2 ** len(bits)
        index = 0
        for bit in bits:
            if bit not in (0, 1):
                raise ValueError(f"bits must be 0/1, got {bit}")
            index = (index << 1) | bit
        matrix = np.zeros((dim, dim), dtype=complex)
        matrix[index, index] = 1.0
        return cls(matrix, validate=False)

    @classmethod
    def maximally_mixed(cls, num_qubits: int) -> "DensityMatrix":
        """The maximally mixed state I / 2**n."""
        dim = 2 ** num_qubits
        return cls(np.eye(dim, dtype=complex) / dim, validate=False)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def matrix(self) -> np.ndarray:
        """The underlying numpy matrix (not copied)."""
        return self._matrix

    @property
    def num_qubits(self) -> int:
        """Number of qubits this state describes."""
        return self._num_qubits

    @property
    def dim(self) -> int:
        """Hilbert-space dimension 2**n."""
        return self._matrix.shape[0]

    def trace(self) -> float:
        """Trace of the matrix (should be 1 for a normalised state)."""
        return float(np.real(np.trace(self._matrix)))

    def purity(self) -> float:
        """Tr(rho^2); 1 for pure states, 1/2**n for maximally mixed."""
        return float(np.real(np.trace(self._matrix @ self._matrix)))

    def copy(self) -> "DensityMatrix":
        """An independent copy of this state."""
        copy = DensityMatrix(self._matrix.copy(), validate=False)
        copy.chain_key = self.chain_key
        return copy

    def update_matrix(self, matrix: np.ndarray) -> None:
        """Replace the underlying matrix without validation.

        For physics backends whose operations preserve validity by
        construction (Kraus application, measurement collapse); the matrix
        must have the same dimension.
        """
        if matrix.shape != self._matrix.shape:
            raise ValueError(f"replacement shape {matrix.shape} does not "
                             f"match state shape {self._matrix.shape}")
        self._matrix = matrix
        self.chain_key = None

    def _validate(self, atol: float = 1e-8) -> None:
        if not np.allclose(self._matrix, self._matrix.conj().T, atol=atol):
            raise ValueError("density matrix is not Hermitian")
        if not np.isclose(self.trace(), 1.0, atol=atol):
            raise ValueError(f"density matrix trace {self.trace()} != 1")
        eigenvalues = np.linalg.eigvalsh(self._matrix)
        if eigenvalues.min() < -atol:
            raise ValueError(f"density matrix has negative eigenvalue "
                             f"{eigenvalues.min()}")

    # ------------------------------------------------------------------ #
    # Composition and reduction
    # ------------------------------------------------------------------ #
    def tensor(self, other: "DensityMatrix") -> "DensityMatrix":
        """Tensor product ``self (x) other``; ``other``'s qubits come after."""
        return DensityMatrix(np.kron(self._matrix, other._matrix), validate=False)

    def partial_trace(self, keep: Iterable[int]) -> "DensityMatrix":
        """Trace out all qubits not listed in ``keep``.

        The kept qubits retain their relative ordering.
        """
        keep = list(keep)
        if any(q < 0 or q >= self._num_qubits for q in keep):
            raise ValueError(f"keep={keep} out of range for {self._num_qubits} qubits")
        if len(set(keep)) != len(keep):
            raise ValueError(f"duplicate qubits in keep={keep}")
        n = self._num_qubits
        traced = [q for q in range(n) if q not in keep]
        reshaped = self._matrix.reshape([2] * (2 * n))
        # Axes: row indices 0..n-1, column indices n..2n-1.
        for offset, qubit in enumerate(sorted(traced)):
            axis_row = qubit - offset
            current_n = n - offset
            reshaped = np.trace(reshaped, axis1=axis_row,
                                axis2=axis_row + current_n)
        dim = 2 ** len(keep)
        new_matrix = reshaped.reshape(dim, dim)
        # Reorder kept qubits to match the order given in ``keep``.
        order = np.argsort(np.argsort(keep))
        if not np.array_equal(order, np.arange(len(keep))):
            new_matrix = _permute_qubits(new_matrix, list(order))
        return DensityMatrix(new_matrix, validate=False)

    # ------------------------------------------------------------------ #
    # Evolution
    # ------------------------------------------------------------------ #
    def apply_unitary(self, unitary: np.ndarray,
                      qubits: Optional[Sequence[int]] = None) -> None:
        """Apply ``unitary`` in place.

        If ``qubits`` is given, the unitary acts on those qubits only (it must
        have dimension ``2**len(qubits)``); otherwise it must act on the whole
        register.
        """
        unitary = np.asarray(unitary, dtype=complex)
        if qubits is not None:
            unitary = self._expand_operator(unitary, list(qubits))
        if unitary.shape != self._matrix.shape:
            raise ValueError(
                f"unitary shape {unitary.shape} does not match state "
                f"dimension {self._matrix.shape}")
        self._matrix = unitary @ self._matrix @ unitary.conj().T
        self.chain_key = None

    def apply_kraus(self, kraus_operators: Sequence[np.ndarray],
                    qubits: Optional[Sequence[int]] = None) -> None:
        """Apply a completely-positive map given by Kraus operators in place."""
        expanded = []
        for op in kraus_operators:
            op = np.asarray(op, dtype=complex)
            if qubits is not None:
                op = self._expand_operator(op, list(qubits))
            expanded.append(op)
        total = np.zeros_like(self._matrix)
        for op in expanded:
            total += op @ self._matrix @ op.conj().T
        self._matrix = total
        self.chain_key = None

    def _expand_operator(self, operator: np.ndarray,
                         qubits: list[int]) -> np.ndarray:
        expected_dim = 2 ** len(qubits)
        if operator.shape != (expected_dim, expected_dim):
            raise ValueError(
                f"operator shape {operator.shape} does not match "
                f"{len(qubits)} target qubits")
        if len(qubits) == 1:
            return gates.expand_single_qubit(operator, qubits[0],
                                             self._num_qubits)
        if len(qubits) == 2:
            return gates.expand_two_qubit(operator, qubits[0], qubits[1],
                                          self._num_qubits)
        raise NotImplementedError(
            "operators on more than two qubits are not needed by this model")

    # ------------------------------------------------------------------ #
    # Measurement
    # ------------------------------------------------------------------ #
    def outcome_probability(self, operator: np.ndarray,
                            qubits: Optional[Sequence[int]] = None) -> float:
        """Probability Tr(M rho) of POVM element ``operator``."""
        operator = np.asarray(operator, dtype=complex)
        if qubits is not None:
            operator = self._expand_operator(operator, list(qubits))
        return float(np.real(np.trace(operator @ self._matrix)))

    def measure(self, qubit: int, basis: str = "Z",
                rng: Optional[np.random.Generator] = None,
                collapse: bool = True) -> int:
        """Projectively measure ``qubit`` in the X, Y or Z basis.

        Returns the classical outcome (0 or 1).  When ``collapse`` is true the
        state is updated (and renormalised) according to the outcome.
        """
        from repro.quantum.measurement import basis_operators

        rng = rng if rng is not None else np.random.default_rng()
        projector0, projector1 = basis_operators(basis)
        p0 = self.outcome_probability(projector0, qubits=[qubit])
        p0 = min(max(p0, 0.0), 1.0)
        outcome = 0 if rng.random() < p0 else 1
        if collapse:
            projector = projector0 if outcome == 0 else projector1
            expanded = self._expand_operator(projector, [qubit])
            post = expanded @ self._matrix @ expanded.conj().T
            norm = np.real(np.trace(post))
            if norm <= 0:
                raise RuntimeError("measurement produced zero-probability branch")
            self._matrix = post / norm
            self.chain_key = None
        return outcome

    def measure_povm(self, kraus_operators: Sequence[np.ndarray],
                     qubits: Optional[Sequence[int]] = None,
                     rng: Optional[np.random.Generator] = None,
                     collapse: bool = True) -> int:
        """Measure a POVM specified by Kraus operators.

        Returns the index of the observed outcome, drawn exactly as
        ``rng.choice(n, p=self.povm_distribution(...))`` would; when
        ``collapse`` is true the state is updated with the corresponding
        Kraus operator.
        """
        rng = rng if rng is not None else np.random.default_rng()
        cdf = choice_cdf(self.povm_distribution(kraus_operators, qubits))
        outcome = bisect_right(cdf, rng.random())
        if collapse:
            self.update_matrix(
                self.povm_branch(kraus_operators[outcome], qubits))
        return outcome

    def povm_distribution(self, kraus_operators: Sequence[np.ndarray],
                          qubits: Optional[Sequence[int]] = None,
                          ) -> np.ndarray:
        """Normalised outcome probabilities of the POVM ``kraus_operators``
        (negative rounding clipped to zero)."""
        probabilities = []
        for op in kraus_operators:
            op = self._expand_kraus(op, qubits)
            element = op.conj().T @ op
            probabilities.append(
                float(np.real(np.trace(element @ self._matrix))))
        probabilities = np.clip(np.array(probabilities), 0.0, None)
        total = probabilities.sum()
        if total <= 0:
            raise RuntimeError("POVM probabilities sum to zero")
        return probabilities / total

    def povm_branch(self, kraus_operator: np.ndarray,
                    qubits: Optional[Sequence[int]] = None) -> np.ndarray:
        """The normalised post-measurement matrix of one Kraus operator's
        outcome; the state is unchanged."""
        op = self._expand_kraus(kraus_operator, qubits)
        post = op @ self._matrix @ op.conj().T
        norm = np.real(np.trace(post))
        if norm <= 0:
            raise RuntimeError("POVM produced zero-probability branch")
        return post / norm

    def _expand_kraus(self, op: np.ndarray,
                      qubits: Optional[Sequence[int]]) -> np.ndarray:
        op = np.asarray(op, dtype=complex)
        if qubits is not None:
            op = self._expand_operator(op, list(qubits))
        return op

    # ------------------------------------------------------------------ #
    # Comparison helpers
    # ------------------------------------------------------------------ #
    def fidelity_to_pure(self, ket: np.ndarray) -> float:
        """Fidelity <psi| rho |psi> with the pure state ``ket``."""
        ket = np.asarray(ket, dtype=complex).reshape(-1)
        if ket.shape[0] != self.dim:
            raise ValueError(
                f"state vector dimension {ket.shape[0]} does not match {self.dim}")
        return float(np.real(ket.conj() @ self._matrix @ ket))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return (self._num_qubits == other._num_qubits
                and np.allclose(self._matrix, other._matrix))

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (f"DensityMatrix(num_qubits={self._num_qubits}, "
                f"purity={self.purity():.4f})")


def _permute_qubits(matrix: np.ndarray, order: list[int]) -> np.ndarray:
    """Permute qubit order of a density matrix; ``order[i]`` gives the new
    position of current qubit ``i``."""
    n = len(order)
    dim = 2 ** n
    permutation = np.zeros(dim, dtype=int)
    for index in range(dim):
        bits = [(index >> (n - 1 - q)) & 1 for q in range(n)]
        new_bits = [0] * n
        for current, new in enumerate(order):
            new_bits[new] = bits[current]
        new_index = 0
        for bit in new_bits:
            new_index = (new_index << 1) | bit
        permutation[index] = new_index
    result = np.zeros_like(matrix)
    for row in range(dim):
        for col in range(dim):
            result[permutation[row], permutation[col]] = matrix[row, col]
    return result
