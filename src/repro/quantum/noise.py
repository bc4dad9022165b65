"""Noise channels used by the NV hardware model (paper Appendix D).

All functions return lists of Kraus operators acting on a single qubit unless
stated otherwise.  They are applied to :class:`~repro.quantum.density.DensityMatrix`
instances via :meth:`apply_kraus`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.quantum import gates


def _check_probability(p: float, name: str) -> float:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name}={p} is not a probability")
    return float(p)


def dephasing_kraus(p: float) -> list[np.ndarray]:
    """Dephasing channel: rho -> (1-p) rho + p Z rho Z (Eq. 24)."""
    p = _check_probability(p, "dephasing probability")
    return [np.sqrt(1.0 - p) * gates.I, np.sqrt(p) * gates.Z]


def depolarizing_kraus(f: float) -> list[np.ndarray]:
    """Depolarising channel: rho -> f rho + (1-f)/3 (X rho X + Y rho Y + Z rho Z).

    ``f`` is the probability of no error (the paper's gate fidelity
    parameterisation, Appendix D.3.1).
    """
    f = _check_probability(f, "depolarizing fidelity")
    p_err = (1.0 - f) / 3.0
    return [
        np.sqrt(f) * gates.I,
        np.sqrt(p_err) * gates.X,
        np.sqrt(p_err) * gates.Y,
        np.sqrt(p_err) * gates.Z,
    ]


def amplitude_damping_kraus(p: float) -> list[np.ndarray]:
    """Amplitude damping with damping probability ``p``.

    Used for photon loss on the presence/absence encoding: |1> (photon
    present) decays to |0> (photon lost) with probability ``p``.
    """
    p = _check_probability(p, "amplitude damping probability")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    return [k0, k1]


def t1_t2_kraus(duration: float, t1: float, t2: float) -> list[np.ndarray]:
    """Combined relaxation (T1) and dephasing (T2) over ``duration`` seconds.

    ``t1`` and/or ``t2`` may be ``inf`` (or ``<= 0`` meaning "no decay") to
    disable the corresponding process.  The implementation composes amplitude
    damping with probability ``1 - exp(-t/T1)`` and pure dephasing chosen such
    that the total coherence decay matches ``exp(-t/T2)``.
    """
    if duration < 0:
        raise ValueError(f"negative duration {duration}")
    p_relax = 0.0
    if t1 and np.isfinite(t1) and t1 > 0:
        p_relax = 1.0 - np.exp(-duration / t1)
    # Coherence decays as exp(-t/T2); amplitude damping alone contributes
    # exp(-t/(2*T1)).  The extra dephasing factor is exp(-t/T2 + t/(2*T1)).
    extra = 0.0
    if t2 and np.isfinite(t2) and t2 > 0:
        exponent = -duration / t2
        if t1 and np.isfinite(t1) and t1 > 0:
            exponent += duration / (2.0 * t1)
        coherence_factor = np.exp(min(exponent, 0.0))
        extra = (1.0 - coherence_factor) / 2.0
    damping = amplitude_damping_kraus(p_relax)
    dephasing = dephasing_kraus(extra)
    return compose_kraus(damping, dephasing)


def compose_kraus(first: list[np.ndarray],
                  second: list[np.ndarray]) -> list[np.ndarray]:
    """Kraus operators of the channel that applies ``first`` then ``second``."""
    return [b @ a for a in first for b in second]


def is_trace_preserving(kraus_operators: list[np.ndarray],
                        atol: float = 1e-9) -> bool:
    """Check sum_k K_k^dagger K_k == identity."""
    if not kraus_operators:
        return False
    dim = kraus_operators[0].shape[1]
    total = np.zeros((dim, dim), dtype=complex)
    for op in kraus_operators:
        total += op.conj().T @ op
    return bool(np.allclose(total, np.eye(dim), atol=atol))


def dephasing_probability_from_phase_std(sigma_radians: float) -> float:
    """Dephasing parameter for optical-phase uncertainty (Eq. 28).

    ``p_d = (1 - I1(sigma^-2) / I0(sigma^-2)) / 2`` where I0, I1 are modified
    Bessel functions of the first kind.  For large sigma the ratio tends to
    zero and p_d -> 1/2 (complete dephasing); for sigma -> 0 it tends to 0.
    """
    if sigma_radians < 0:
        raise ValueError(f"negative phase std {sigma_radians}")
    if sigma_radians == 0:
        return 0.0
    argument = 1.0 / (sigma_radians ** 2)
    ratio = bessel_ratio_i1_i0(argument)
    return float((1.0 - ratio) / 2.0)


#: Arguments from here on take the asymptotic series.  At this point both
#: branches return the same float, so the ratio has no step at the switch.
_BESSEL_ASYMPTOTIC_FROM = 600.0


def bessel_ratio_i1_i0(x: float) -> float:
    """Ratio ``I1(x) / I0(x)`` of modified Bessel functions for ``x >= 0``.

    Below ``_BESSEL_ASYMPTOTIC_FROM`` the ratio comes from the Gauss
    continued fraction ``r_v = 1 / (2 (v + 1) / x + r_{v+1})`` for
    ``r_v = I_{v+1}(x) / I_v(x)``, evaluated by backward recurrence from
    ``r_{N+1} = 0`` at ``N = floor(x + 60 + 6 sqrt(x))`` down to ``r_0``.
    The start lies far enough above ``x`` that its error has died out by
    ``v = 0``.  For larger ``x`` the asymptotic series
    ``1 - 1/(2x) - 1/(8x^2) - 1/(8x^3) - 25/(128x^4) - 13/(32x^5)`` is
    exact to a few ulp.  So the cost stays bounded (at most ~800 steps) for
    any finite ``x``.  Both branches stay within a few tens of ulp of
    ``scipy.special.ive(1, x) / ive(0, x)`` and return its exact float at
    the shipped optical phase noise, on which every outcome digest depends
    (both pinned in ``tests/test_quantum_noise.py``, where scipy is the
    oracle).
    """
    if not x >= 0:
        raise ValueError(f"argument {x} is not >= 0")
    x = float(x)
    if x == 0.0:
        return 0.0
    if x >= _BESSEL_ASYMPTOTIC_FROM:
        y = 1.0 / x
        return 1.0 - y * (0.5 + y * (0.125 + y * (0.125 + y * (
            0.1953125 + y * 0.40625))))
    ratio = 0.0
    for v in range(int(x + 60.0 + 6.0 * math.sqrt(x)), -1, -1):
        ratio = 1.0 / (2.0 * (v + 1) / x + ratio)
    return ratio


def nuclear_dephasing_per_attempt(alpha: float, delta_omega: float,
                                  tau_decay: float) -> float:
    """Dephasing probability on the carbon memory per entanglement attempt.

    Implements Eq. (25): ``p_d = alpha/2 (1 - exp(-(delta_omega^2 tau^2)/2))``
    where ``alpha`` is the bright-state population, ``delta_omega`` the
    electron-carbon coupling strength (rad/s) and ``tau_decay`` the electron
    reset decay constant (s).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha={alpha} is not a probability")
    exponent = -(delta_omega ** 2) * (tau_decay ** 2) / 2.0
    return float(alpha / 2.0 * (1.0 - np.exp(exponent)))
