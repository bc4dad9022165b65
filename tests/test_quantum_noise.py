"""Unit tests for noise channels, fidelity and QBER relations."""

from __future__ import annotations

import math
import timeit
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import sqrtm
from scipy.special import ive

from repro.hardware.parameters import OpticalParameters
from repro.quantum import gates, noise
from repro.quantum.density import DensityMatrix
from repro.quantum.fidelity import (
    BELL_CORRELATIONS,
    fidelity,
    fidelity_from_qber,
    fidelity_to_pure,
    qber_all_bases,
    qber_from_fidelity_werner,
    qber_from_state,
    werner_state,
)
from repro.quantum.measurement import readout_kraus
from repro.quantum.states import BellIndex, bell_state, ket0, ket_plus


class TestNoiseChannels:
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
    def test_dephasing_is_trace_preserving(self, p):
        assert noise.is_trace_preserving(noise.dephasing_kraus(p))

    @pytest.mark.parametrize("f", [0.0, 0.5, 0.9, 1.0])
    def test_depolarizing_is_trace_preserving(self, f):
        assert noise.is_trace_preserving(noise.depolarizing_kraus(f))

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_amplitude_damping_is_trace_preserving(self, p):
        assert noise.is_trace_preserving(noise.amplitude_damping_kraus(p))

    def test_t1_t2_is_trace_preserving(self):
        kraus = noise.t1_t2_kraus(1e-3, t1=2.86e-3, t2=1.0e-3)
        assert noise.is_trace_preserving(kraus)

    def test_t1_t2_with_infinite_times_is_identity(self):
        dm = DensityMatrix.from_ket(ket_plus())
        dm.apply_kraus(noise.t1_t2_kraus(1.0, t1=math.inf, t2=math.inf))
        assert dm.fidelity_to_pure(ket_plus()) == pytest.approx(1.0)

    def test_dephasing_destroys_coherence(self):
        dm = DensityMatrix.from_ket(ket_plus())
        dm.apply_kraus(noise.dephasing_kraus(0.5))
        # Complete dephasing: |+> becomes maximally mixed.
        assert dm.purity() == pytest.approx(0.5)

    def test_amplitude_damping_decays_excited_state(self):
        dm = DensityMatrix.from_ket(np.array([0.0, 1.0], dtype=complex))
        dm.apply_kraus(noise.amplitude_damping_kraus(1.0))
        assert dm.fidelity_to_pure(ket0()) == pytest.approx(1.0)

    def test_t2_decay_reduces_bell_fidelity(self):
        dm = DensityMatrix.from_ket(bell_state(BellIndex.PSI_PLUS))
        dm.apply_kraus(noise.t1_t2_kraus(0.5e-3, t1=math.inf, t2=1e-3),
                       qubits=[0])
        f = dm.fidelity_to_pure(bell_state(BellIndex.PSI_PLUS))
        assert 0.5 < f < 1.0

    def test_longer_storage_gives_lower_fidelity(self):
        fidelities = []
        for duration in (1e-4, 5e-4, 2e-3):
            dm = DensityMatrix.from_ket(bell_state(BellIndex.PSI_PLUS))
            kraus = noise.t1_t2_kraus(duration, t1=2.86e-3, t2=1e-3)
            dm.apply_kraus(kraus, qubits=[0])
            fidelities.append(dm.fidelity_to_pure(bell_state(BellIndex.PSI_PLUS)))
        assert fidelities[0] > fidelities[1] > fidelities[2]

    def test_compose_kraus_is_trace_preserving(self):
        combined = noise.compose_kraus(noise.dephasing_kraus(0.2),
                                       noise.amplitude_damping_kraus(0.1))
        assert noise.is_trace_preserving(combined)

    def test_invalid_probability_raises(self):
        with pytest.raises(ValueError):
            noise.dephasing_kraus(1.5)
        with pytest.raises(ValueError):
            noise.amplitude_damping_kraus(-0.1)

    def test_phase_std_dephasing_limits(self):
        assert noise.dephasing_probability_from_phase_std(0.0) == 0.0
        small = noise.dephasing_probability_from_phase_std(0.05)
        large = noise.dephasing_probability_from_phase_std(3.0)
        assert small < large <= 0.5
        # Eq. 28 at x = sigma^-2: I1/I0 = 1 - 1/(2x) + O(x^-2) for small
        # sigma and x/2 + O(x^3) for large sigma, so p_d -> sigma^2 / 4 and
        # p_d -> 1/2 - 1/(4 sigma^2).
        sigma = 0.01
        assert noise.dephasing_probability_from_phase_std(sigma) == (
            pytest.approx(sigma ** 2 / 4, rel=1e-3))
        sigma = 10.0
        assert 0.5 - noise.dephasing_probability_from_phase_std(sigma) == (
            pytest.approx(1 / (4 * sigma ** 2), rel=1e-3))

    def test_nuclear_dephasing_per_attempt_scales_with_alpha(self):
        delta_omega = 2 * math.pi * 377e3
        tau = 82e-9
        low = noise.nuclear_dephasing_per_attempt(0.1, delta_omega, tau)
        high = noise.nuclear_dephasing_per_attempt(0.5, delta_omega, tau)
        assert 0 < low < high < 0.5


class TestBesselRatio:
    """``bessel_ratio_i1_i0`` against the oracle ``scipy.special.ive``."""

    def test_shipped_phase_std_gives_the_recorded_float(self):
        # Every outcome digest depends on this one float: scipy's
        # ive(1, x) / ive(0, x).  The correctly rounded ratio is 2 ulp
        # lower, so a "more accurate" evaluator would change every digest.
        x = 1.0 / OpticalParameters().phase_std ** 2
        assert x == 32.10725561163621
        assert noise.bessel_ratio_i1_i0(x) == float.fromhex(
            "0x1.f7f66d66f75a4p-1")

    def test_agrees_with_scipy_within_32_ulp(self):
        compared = 0
        for x in np.logspace(-6, 12, 2001):
            expected = float(ive(1, x) / ive(0, x))
            got = noise.bessel_ratio_i1_i0(float(x))
            if math.isnan(expected):
                # scipy's ive returns nan above ~1e9.  There the exact
                # rational value of the asymptotic series, whose first
                # dropped term is below 1e-50, stands in for it.
                y = Fraction(1) / Fraction(float(x))
                expected = float(1 - y / 2 - y ** 2 / 8 - y ** 3 / 8
                                 - 25 * y ** 4 / 128 - 13 * y ** 5 / 32)
                assert x > 1e9
            else:
                compared += 1
            assert abs(got - expected) <= 32 * math.ulp(expected), x
        assert compared > 1500

    def test_zero_and_negative_arguments(self):
        assert noise.bessel_ratio_i1_i0(0.0) == 0.0
        with pytest.raises(ValueError):
            noise.bessel_ratio_i1_i0(-1e-3)
        with pytest.raises(ValueError):
            noise.bessel_ratio_i1_i0(math.nan)

    def test_monotone_increasing(self):
        grid = np.logspace(-6, 12, 4001)
        values = [noise.bessel_ratio_i1_i0(float(x)) for x in grid]
        assert all(a <= b for a, b in zip(values, values[1:]))
        switch = noise._BESSEL_ASYMPTOTIC_FROM
        assert (noise.bessel_ratio_i1_i0(math.nextafter(switch, 0.0))
                <= noise.bessel_ratio_i1_i0(switch))
        assert noise.bessel_ratio_i1_i0(1e300) == 1.0

    def test_cost_is_bounded(self):
        def seconds(x):
            return min(timeit.repeat(lambda: noise.bessel_ratio_i1_i0(x),
                                     number=1, repeat=5))

        assert seconds(1e12) < 1e-3
        # The longest recurrence, just below the switch to the series.
        assert seconds(math.nextafter(noise._BESSEL_ASYMPTOTIC_FROM, 0.0)) < 5e-3


class TestReadout:
    def test_readout_kraus_complete(self):
        m0, m1 = readout_kraus(0.95, 0.995)
        total = m0.conj().T @ m0 + m1.conj().T @ m1
        assert np.allclose(total, np.eye(2))

    def test_readout_asymmetry(self, rng):
        # A |1> state should rarely be misread (f1 = 0.995), while a |0> state
        # is misread more often (f0 = 0.95).
        m0, m1 = readout_kraus(0.95, 0.995)
        dm = DensityMatrix.from_ket(ket0())
        p_wrong_for_zero = dm.outcome_probability(m1.conj().T @ m1, qubits=[0])
        assert p_wrong_for_zero == pytest.approx(0.05)

    def test_invalid_fidelity_raises(self):
        with pytest.raises(ValueError):
            readout_kraus(1.2, 0.9)


class TestFidelityAndQber:
    def test_perfect_state_has_unit_fidelity(self):
        ket = bell_state(BellIndex.PSI_PLUS)
        assert fidelity_to_pure(np.outer(ket, ket.conj()), ket) == pytest.approx(1.0)

    def test_uhlmann_fidelity_matches_pure_case(self):
        rho = werner_state(0.85)
        ket = bell_state(BellIndex.PSI_PLUS)
        sigma = np.outer(ket, ket.conj())
        assert fidelity(rho, sigma) == pytest.approx(
            fidelity_to_pure(rho, ket), abs=1e-6)

    @staticmethod
    def _sqrtm_fidelity(rho, sigma):
        sqrt_rho = sqrtm(rho)
        value = np.real(np.trace(sqrtm(sqrt_rho @ sigma @ sqrt_rho))) ** 2
        return min(max(float(value), 0.0), 1.0)

    @staticmethod
    def _random_mixed_state(rng, dim):
        ginibre = (rng.standard_normal((dim, dim))
                   + 1j * rng.standard_normal((dim, dim)))
        rho = ginibre @ ginibre.conj().T
        return rho / np.trace(rho)

    def test_uhlmann_fidelity_matches_sqrtm_on_mixed_states(self):
        rng = np.random.default_rng(20261017)
        for case in range(200):
            dim = 2 if case % 2 else 4
            rho = self._random_mixed_state(rng, dim)
            sigma = self._random_mixed_state(rng, dim)
            assert fidelity(rho, sigma) == pytest.approx(
                self._sqrtm_fidelity(rho, sigma), abs=1e-10), case

    def test_uhlmann_fidelity_of_pure_states(self):
        # Rank-1 states, where sqrtm is ill-conditioned: F = |<a|b>|^2.
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = (rng.standard_normal((2, 4))
                    + 1j * rng.standard_normal((2, 4)))
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            expected = abs(np.vdot(a, b)) ** 2
            value = fidelity(np.outer(a, a.conj()), np.outer(b, b.conj()))
            assert value == pytest.approx(expected, abs=1e-10)
        ket = bell_state(BellIndex.PSI_PLUS)
        pure = np.outer(ket, ket.conj())
        assert fidelity(pure, pure) == pytest.approx(1.0, abs=1e-10)
        other = bell_state(BellIndex.PSI_MINUS)
        assert fidelity(pure, np.outer(other, other.conj())) == (
            pytest.approx(0.0, abs=1e-10))

    @pytest.mark.parametrize("f1,f2", [(0.25, 1.0), (0.5, 0.9), (0.7, 0.7),
                                       (0.85, 1.0), (0.99, 0.6)])
    def test_uhlmann_fidelity_of_werner_states(self, f1, f2):
        # Werner states to one target commute: both are diagonal in the
        # Bell basis with spectrum (f, (1-f)/3 x 3), so
        # F = (sqrt(f1 f2) + 3 sqrt((1-f1)(1-f2)/9))^2.
        expected = (math.sqrt(f1 * f2)
                    + math.sqrt((1 - f1) * (1 - f2))) ** 2
        assert fidelity(werner_state(f1), werner_state(f2)) == (
            pytest.approx(expected, abs=1e-10))

    @pytest.mark.parametrize("target", list(BellIndex))
    def test_qber_zero_for_ideal_bell_states(self, target):
        ket = bell_state(target)
        rho = np.outer(ket, ket.conj())
        for basis in ("X", "Y", "Z"):
            assert qber_from_state(rho, basis, target=target) == pytest.approx(
                0.0, abs=1e-10)

    def test_qber_fidelity_relation_for_werner_states(self):
        for f in (0.6, 0.75, 0.9):
            rho = werner_state(f, BellIndex.PSI_PLUS)
            qbers = qber_all_bases(rho, BellIndex.PSI_PLUS)
            assert fidelity_from_qber(qbers) == pytest.approx(f, abs=1e-9)
            for value in qbers.values():
                assert value == pytest.approx(qber_from_fidelity_werner(f),
                                              abs=1e-9)

    def test_bell_correlation_table_is_consistent(self):
        # Directly verify the correlation signs against measurement statistics.
        for target, signs in BELL_CORRELATIONS.items():
            ket = bell_state(target)
            rho = np.outer(ket, ket.conj())
            for basis, sign in signs.items():
                qber = qber_from_state(rho, basis, target=target)
                assert qber == pytest.approx(0.0, abs=1e-10), (target, basis, sign)

    def test_fidelity_from_qber_requires_all_bases(self):
        with pytest.raises(ValueError):
            fidelity_from_qber({"X": 0.1, "Z": 0.1})

    def test_werner_state_bounds(self):
        with pytest.raises(ValueError):
            werner_state(1.5)


class TestPropertyBased:
    @given(f=st.floats(min_value=0.25, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_werner_fidelity_roundtrip(self, f):
        rho = werner_state(f)
        measured = fidelity_to_pure(rho, bell_state(BellIndex.PSI_PLUS))
        assert measured == pytest.approx(f, abs=1e-9)

    @given(p=st.floats(min_value=0.0, max_value=1.0),
           q=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_composed_channels_stay_trace_preserving(self, p, q):
        combined = noise.compose_kraus(noise.dephasing_kraus(p),
                                       noise.amplitude_damping_kraus(q))
        assert noise.is_trace_preserving(combined)

    @given(duration=st.floats(min_value=0.0, max_value=1.0),
           t1=st.floats(min_value=1e-4, max_value=10.0),
           t2=st.floats(min_value=1e-4, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_t1_t2_always_physical(self, duration, t1, t2):
        kraus = noise.t1_t2_kraus(duration, t1, t2)
        assert noise.is_trace_preserving(kraus)
        dm = DensityMatrix.from_ket(bell_state(BellIndex.PSI_PLUS))
        dm.apply_kraus(kraus, qubits=[0])
        assert dm.trace() == pytest.approx(1.0, abs=1e-9)
        eigenvalues = np.linalg.eigvalsh(dm.matrix)
        assert eigenvalues.min() > -1e-9
