"""Measurement helpers: projectors for the X/Y/Z bases and POVM utilities."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.quantum.states import basis_states, ket_to_dm


def basis_operators(basis: str) -> tuple[np.ndarray, np.ndarray]:
    """Projectors (outcome 0, outcome 1) for the X, Y or Z basis."""
    state0, state1 = basis_states(basis)
    return ket_to_dm(state0), ket_to_dm(state1)


def measure_qubit(state, qubit: int, basis: str = "Z",
                  rng: Optional[np.random.Generator] = None) -> int:
    """Projectively measure ``qubit`` of a DensityMatrix in the given basis.

    A thin functional wrapper around :meth:`DensityMatrix.measure`.
    """
    return state.measure(qubit, basis=basis, rng=rng)


def povm_outcome_probabilities(state, povm_elements: Sequence[np.ndarray],
                               qubits: Optional[Sequence[int]] = None) -> np.ndarray:
    """Outcome probabilities Tr(M_k rho) for a list of POVM elements."""
    probabilities = np.array([
        state.outcome_probability(element, qubits=qubits)
        for element in povm_elements
    ])
    return np.clip(probabilities, 0.0, None)


def readout_kraus(f0: float, f1: float) -> tuple[np.ndarray, np.ndarray]:
    """Noisy single-qubit readout Kraus operators (paper Eq. 23).

    ``f0`` (``f1``) is the probability of correctly reading out |0> (|1>).
    Returns the Kraus operators ``(M0, M1)`` for outcomes 0 and 1.
    """
    for name, value in (("f0", f0), ("f1", f1)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name}={value} is not a probability")
    m0 = np.array([[np.sqrt(f0), 0.0],
                   [0.0, np.sqrt(1.0 - f1)]], dtype=complex)
    m1 = np.array([[np.sqrt(1.0 - f0), 0.0],
                   [0.0, np.sqrt(f1)]], dtype=complex)
    return m0, m1


def choice_cdf(probabilities: np.ndarray) -> list[float]:
    """The CDF ``rng.choice(n, p=probabilities)`` searches.

    numpy normalises the cumulative sum by its last entry and searches it
    ``side="right"`` with one ``random()`` draw, so ``bisect_right(cdf,
    rng.random())`` draws exactly the outcome that call would, generator
    state included.  Every POVM outcome and the workload's pair counts are
    drawn this way.
    """
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()
