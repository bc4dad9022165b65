"""Fidelity and QBER utilities (paper Appendix A.3).

The link layer's quantum quality metric is the fidelity ``F`` of the
delivered pair to the target Bell state.  For measure-directly (MD) requests
the observable quantity is the quantum bit error rate (QBER) in the X, Y and
Z bases; the two are related by ``F = 1 - (QBER_X + QBER_Y + QBER_Z) / 2``
for the |Psi-> target (Eq. 16), with basis-dependent correlation signs for the
other Bell states.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

import numpy as np

from repro.quantum.states import BellIndex, bell_state

#: For each Bell state, whether ideal X/Y/Z measurement outcomes at the two
#: nodes are correlated (+1, equal outcomes) or anti-correlated (-1).
BELL_CORRELATIONS: Mapping[BellIndex, Mapping[str, int]] = MappingProxyType({
    BellIndex.PHI_PLUS: {"X": +1, "Y": -1, "Z": +1},
    BellIndex.PHI_MINUS: {"X": -1, "Y": +1, "Z": +1},
    BellIndex.PSI_PLUS: {"X": +1, "Y": +1, "Z": -1},
    BellIndex.PSI_MINUS: {"X": -1, "Y": -1, "Z": -1},
})


def fidelity_to_pure(rho: np.ndarray, ket: np.ndarray) -> float:
    """Fidelity <psi|rho|psi> of a density matrix with a pure target state."""
    rho = np.asarray(rho, dtype=complex)
    ket = np.asarray(ket, dtype=complex).reshape(-1)
    return float(np.real(ket.conj() @ rho @ ket))


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity F(rho, sigma) = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Both square roots are taken in the eigenbasis of a Hermitian PSD
    matrix, so rank-deficient (e.g. pure) states need no ill-conditioned
    general matrix square root.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    weights, vectors = np.linalg.eigh(rho)
    sqrt_rho = (vectors * np.sqrt(_drop_round_off(weights))) @ vectors.conj().T
    inner = _drop_round_off(np.linalg.eigvalsh(sqrt_rho @ sigma @ sqrt_rho))
    value = float(np.sum(np.sqrt(inner))) ** 2
    return min(max(value, 0.0), 1.0)


def _drop_round_off(eigenvalues: np.ndarray) -> np.ndarray:
    """Zero the eigenvalues of a PSD matrix that ``eigh`` cannot tell from 0.

    ``eigenvalues`` are in ascending order, as ``eigh`` returns them.
    ``eigh``'s absolute error is about ``dim * eps`` times the largest
    eigenvalue; a square root would lift such ~1e-17 values to ~1e-9 and
    bias F.
    """
    floor = eigenvalues.size * np.finfo(float).eps * max(eigenvalues[-1], 0.0)
    return np.where(eigenvalues > floor, eigenvalues, 0.0)


def qber_from_state(rho: np.ndarray, basis: str,
                    target: BellIndex = BellIndex.PSI_PLUS) -> float:
    """QBER in ``basis`` of the two-qubit state ``rho`` relative to ``target``.

    The QBER is the probability that the two nodes' measurement outcomes have
    the *wrong* correlation for the target Bell state: e.g. for |Psi+> the Z
    outcomes should be anti-correlated, so QBER_Z is the probability of equal
    outcomes.
    """
    from repro.quantum.measurement import basis_operators

    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a two-qubit state, got shape {rho.shape}")
    projector0, projector1 = basis_operators(basis)
    p_equal = 0.0
    for proj in (projector0, projector1):
        operator = np.kron(proj, proj)
        p_equal += float(np.real(np.trace(operator @ rho)))
    correlation = BELL_CORRELATIONS[BellIndex(target)][basis.upper()]
    if correlation > 0:
        # Outcomes should be equal; errors are unequal outcomes.
        return float(min(max(1.0 - p_equal, 0.0), 1.0))
    return float(min(max(p_equal, 0.0), 1.0))


def qber_all_bases(rho: np.ndarray,
                   target: BellIndex = BellIndex.PSI_PLUS) -> dict[str, float]:
    """QBER in each of X, Y, Z for the two-qubit state ``rho``."""
    return {basis: qber_from_state(rho, basis, target=target)
            for basis in ("X", "Y", "Z")}


def fidelity_from_qber(qbers: Mapping[str, float]) -> float:
    """Fidelity estimate from measured QBERs (Eq. 16).

    ``F = 1 - (QBER_X + QBER_Y + QBER_Z) / 2``.  Valid for any target Bell
    state as long as the QBERs were computed relative to that same target.
    """
    missing = {"X", "Y", "Z"} - {k.upper() for k in qbers}
    if missing:
        raise ValueError(f"missing QBER for bases {sorted(missing)}")
    total = sum(float(qbers[k]) for k in qbers if k.upper() in ("X", "Y", "Z"))
    return float(1.0 - total / 2.0)


def qber_from_fidelity_werner(f: float) -> float:
    """QBER of a Werner state with fidelity ``f`` (same in every basis).

    A Werner state mixes the target Bell state with white noise; each basis
    then sees ``QBER = 2(1-F)/3``.  Used for quick analytic estimates in the
    FEU and in tests.
    """
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity {f} not in [0, 1]")
    return float(2.0 * (1.0 - f) / 3.0)


def werner_state(f: float, target: BellIndex = BellIndex.PSI_PLUS) -> np.ndarray:
    """Two-qubit Werner state with fidelity ``f`` to ``target``."""
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity {f} not in [0, 1]")
    ket = bell_state(target)
    pure = np.outer(ket, ket.conj())
    mixed = np.eye(4, dtype=complex) / 4.0
    # F = f_target applied to pure part plus 1/4 from the identity component.
    weight = (4.0 * f - 1.0) / 3.0
    weight = min(max(weight, 0.0), 1.0)
    return weight * pure + (1.0 - weight) * mixed
