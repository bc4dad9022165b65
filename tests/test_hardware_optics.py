"""Tests for the photonic hardware models: emission, heralding, fibre, link."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.classical_link import (
    frame_error_probability,
    link_budget_db,
    power_margin_db,
    undetected_crc_error_probability,
)
from repro.hardware.emission import (
    analytic_success_probability,
    spin_photon_ket,
    spin_photon_state,
)
from repro.hardware.fiber import (
    fiber_attenuation_db,
    fiber_transmissivity,
    propagation_delay,
)
from repro.hardware.heralding import (
    HeraldedStateSampler,
    HeraldingOutcome,
    MidpointStationModel,
    beam_splitter_kraus,
)
from repro.hardware.parameters import OpticalParameters, lab_scenario, ql2020_scenario
from repro.quantum.states import BellIndex, bell_state


class TestFiber:
    def test_attenuation_is_linear_in_length(self):
        assert fiber_attenuation_db(10.0, 0.5) == pytest.approx(5.0)

    def test_transmissivity_matches_db(self):
        assert fiber_transmissivity(10.0, 0.5) == pytest.approx(10 ** -0.5)

    def test_zero_length_is_lossless(self):
        assert fiber_transmissivity(0.0, 5.0) == pytest.approx(1.0)

    def test_propagation_delay_ql2020(self):
        # ~48.4 us for the 10 km arm quoted in the paper.
        assert propagation_delay(10.0) == pytest.approx(48.4e-6, rel=0.05)

    def test_negative_length_raises(self):
        with pytest.raises(ValueError):
            fiber_transmissivity(-1.0, 0.5)


class TestClassicalLinkModel:
    def test_realistic_distances_are_error_free(self):
        # Paper: 15 km and 20 km links see no frame errors.
        assert frame_error_probability(15.0) < 1e-20
        assert frame_error_probability(20.0) < 1e-15

    def test_exaggerated_splicing_matches_paper_value(self):
        # 30 splices at 0.3 dB on 15 km -> ~4e-8 (Appendix D.6.1).
        probability = frame_error_probability(15.0, splices=30,
                                              splice_loss_db=0.3)
        assert 1e-9 < probability < 1e-6

    def test_long_links_fail(self):
        assert frame_error_probability(45.0) == 1.0

    def test_error_increases_with_distance(self):
        values = [frame_error_probability(d) for d in (10, 20, 30, 38, 41)]
        assert values == sorted(values)

    def test_link_budget_components(self):
        budget = link_budget_db(10.0, 0.5, splices=2, connectors=2)
        assert budget == pytest.approx(10 * 0.5 + 2 * 0.7 + 2 * 0.1 + 3.0)

    def test_power_margin_positive_at_short_distance(self):
        assert power_margin_db(15.0) > 0

    def test_crc_miss_probability_is_negligible(self):
        assert undetected_crc_error_probability(4e-8) < 1e-16

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            frame_error_probability(-1.0)
        with pytest.raises(ValueError):
            undetected_crc_error_probability(2.0)


class TestEmission:
    def test_ideal_ket_amplitudes(self):
        ket = spin_photon_ket(0.25)
        assert abs(ket[0b01]) ** 2 == pytest.approx(0.25)
        assert abs(ket[0b10]) ** 2 == pytest.approx(0.75)

    def test_invalid_alpha_raises(self):
        with pytest.raises(ValueError):
            spin_photon_ket(1.5)

    def test_state_is_valid_density_matrix(self, lab):
        state = spin_photon_state(0.3, lab.optics_a)
        assert state.trace() == pytest.approx(1.0)
        assert state.num_qubits == 2

    def test_photon_loss_reduces_photon_population(self, lab):
        state = spin_photon_state(0.3, lab.optics_a)
        # Probability of the photon being present at the station is heavily
        # reduced by the collection losses (survival ~4e-4).
        photon = state.partial_trace([1])
        p_present = float(np.real(photon.matrix[1, 1]))
        assert p_present < 0.3 * 1e-2

    def test_survival_probability_matches_paper_order(self, lab, ql2020):
        # Lab: total detection efficiency ~4e-4 (excluding the 0.8 detector).
        assert 1e-4 < lab.optics_a.survival_probability() < 1e-3
        # QL2020 arms include fibre loss but cavity enhancement.
        assert 1e-4 < ql2020.optics_a.survival_probability() < 2e-3

    def test_analytic_success_probability_close_to_paper(self, lab):
        # p_succ ~= alpha * 1e-3 (Section 4.4); allow a factor-2 band.
        for alpha in (0.1, 0.3, 0.5):
            p = analytic_success_probability(alpha, lab.optics_a, lab.optics_b)
            assert alpha * 3e-4 < p < alpha * 2e-3


class TestBeamSplitter:
    @pytest.mark.parametrize("visibility", [1.0, 0.9, 0.5, 0.0])
    def test_kraus_operators_form_a_povm(self, visibility):
        kraus = beam_splitter_kraus(math.sqrt(visibility))
        total = sum(op.conj().T @ op for op in kraus.values())
        assert np.allclose(total, np.eye(4), atol=1e-12)

    def test_perfect_visibility_has_no_coincidences_for_indistinguishable(self):
        # Hong-Ou-Mandel: with mu=1, two photons never split between arms.
        kraus = beam_splitter_kraus(1.0)
        both = kraus["both"]
        assert np.allclose(both, np.zeros((4, 4)))

    def test_invalid_overlap_raises(self):
        with pytest.raises(ValueError):
            beam_splitter_kraus(1.5)


class TestMidpointStation:
    def test_outcome_distribution_is_normalised(self, lab):
        from repro.hardware.emission import spin_photon_state

        station = MidpointStationModel(visibility=0.9, p_detection=0.8,
                                       p_dark=1e-6)
        joint = spin_photon_state(0.2, lab.optics_a).tensor(
            spin_photon_state(0.2, lab.optics_b))
        outcomes = station.outcome_distribution(joint)
        assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-9)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MidpointStationModel(visibility=1.2)
        with pytest.raises(ValueError):
            MidpointStationModel(p_detection=-0.1)


class TestHeraldedStateSampler:
    def test_success_probability_scales_with_alpha(self, lab):
        p_low = HeraldedStateSampler.for_scenario(lab, 0.1).success_probability
        p_high = HeraldedStateSampler.for_scenario(lab, 0.4).success_probability
        assert p_high > 2.5 * p_low

    def test_success_probability_matches_paper_magnitude(self, lab):
        # Figure 8(b): p_succ ~ 3e-4 at alpha = 0.5.
        sampler = HeraldedStateSampler.for_scenario(lab, 0.5)
        assert 1e-4 < sampler.success_probability < 1e-3

    @pytest.mark.parametrize("scenario", [lab_scenario(), ql2020_scenario()],
                             ids=["Lab", "QL2020"])
    @pytest.mark.parametrize("alpha", [0.02, 0.1, 0.25, 0.3, 0.5])
    def test_success_probability_is_the_outcome_sum_exactly(self, scenario,
                                                            alpha):
        # Summed once at construction: the float must be the one the
        # per-call generator sum over the outcomes gives, bit for bit.
        sampler = HeraldedStateSampler(alpha, alpha, scenario.optics_a,
                                       scenario.optics_b)
        expected = float(sum(o.probability for o in sampler.outcomes
                             if o.is_success))
        assert sampler.success_probability == expected

    def test_fidelity_decreases_with_alpha(self, lab):
        f_low = HeraldedStateSampler.for_scenario(lab, 0.05).average_success_fidelity()
        f_high = HeraldedStateSampler.for_scenario(lab, 0.5).average_success_fidelity()
        assert f_low > 0.75
        assert f_high < 0.6
        assert f_low > f_high

    def test_heralded_state_close_to_reported_bell_state(self, lab):
        sampler = HeraldedStateSampler.for_scenario(lab, 0.1)
        for outcome in sampler.outcomes:
            if not outcome.is_success:
                continue
            target = outcome.outcome.bell_index
            assert outcome.state.fidelity_to_pure(bell_state(target)) > 0.7

    def test_sampling_statistics_match_probabilities(self, lab, rng):
        sampler = HeraldedStateSampler.for_scenario(lab, 0.4)
        trials = 20000
        successes = sum(sampler.sample(rng).is_success for _ in range(trials))
        expected = sampler.success_probability * trials
        assert abs(successes - expected) < 5 * math.sqrt(expected + 1)

    def test_sample_success_always_succeeds(self, lab, rng):
        sampler = HeraldedStateSampler.for_scenario(lab, 0.2)
        for _ in range(50):
            outcome = sampler.sample_success(rng)
            assert outcome.is_success
            assert outcome.outcome in (HeraldingOutcome.PSI_PLUS,
                                       HeraldingOutcome.PSI_MINUS)

    def test_batched_attempt_sampling_is_consistent(self, lab, rng):
        sampler = HeraldedStateSampler.for_scenario(lab, 0.3)
        batch = 100
        trials = 3000
        hits = sum(
            sampler.sample_attempts_until_success(rng, batch) is not None
            for _ in range(trials))
        expected = (1 - (1 - sampler.success_probability) ** batch) * trials
        assert abs(hits - expected) < 6 * math.sqrt(expected + 1)

    def test_for_scenario_is_cached(self, lab):
        first = HeraldedStateSampler.for_scenario(lab, 0.25)
        second = HeraldedStateSampler.for_scenario(lab, 0.25)
        assert first is second

    @given(alpha=st.floats(min_value=0.02, max_value=0.6))
    @settings(max_examples=10, deadline=None)
    def test_outcome_probabilities_always_normalised(self, alpha):
        scenario = lab_scenario()
        sampler = HeraldedStateSampler(alpha, alpha, scenario.optics_a,
                                       scenario.optics_b)
        total = sum(o.probability for o in sampler.outcomes)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestScenarioConfigs:
    def test_lab_and_ql2020_names(self, lab, ql2020):
        assert lab.name == "Lab"
        assert ql2020.name == "QL2020"

    def test_ql2020_delays_match_paper(self, ql2020):
        assert ql2020.timing.midpoint_delay_a == pytest.approx(48.4e-6)
        assert ql2020.timing.midpoint_delay_b == pytest.approx(72.6e-6)

    def test_expected_cycles(self, lab, ql2020):
        assert lab.timing.expected_cycles(measure_directly=True) == pytest.approx(1.0)
        assert lab.timing.expected_cycles(measure_directly=False) == pytest.approx(1.1)
        assert ql2020.timing.expected_cycles(measure_directly=False) == pytest.approx(16.0)

    def test_with_frame_loss_returns_new_config(self, lab):
        lossy = lab.with_frame_loss(1e-4)
        assert lossy.classical.frame_loss_probability == pytest.approx(1e-4)
        assert lab.classical.frame_loss_probability == 0.0

    def test_dark_count_probability(self, lab):
        p_dark = lab.optics_a.dark_count_probability()
        assert 0 < p_dark < 1e-5

    def test_invalid_coherence_times(self):
        from repro.hardware.parameters import CoherenceTimes

        with pytest.raises(ValueError):
            CoherenceTimes(t1=-1.0, t2=1.0)
