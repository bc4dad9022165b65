"""Cross-backend equivalence: the analytic fast path against the exact model.

Two independent implementations answering the same questions is the
strongest correctness check the physics layer has:

* the closed-form attempt model must reproduce the exact density-matrix
  heralding distribution (probabilities *and* conditional states) to
  numerical precision,
* the analytic device-noise operations must act identically on pair states,
* a full simulation run under ``analytic-exact`` (same event granularity and
  random-number consumption as ``density``) must produce identical metrics,
* the fast-forward ``analytic`` backend must stay statistically equivalent
  on the paper's Table-1 slice, and
* backend selection must round-trip through the sweep cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (
    AnalyticBackend,
    DensityMatrixBackend,
    available_backends,
    get_backend,
    resolve_backend_name,
)
from repro.backends.base import BatchGrant
from repro.core.messages import RequestType
from repro.hardware.pair import EntangledPair
from repro.hardware.parameters import lab_scenario, ql2020_scenario
from repro.quantum.density import DensityMatrix
from repro.quantum.states import BellIndex, bell_state
from repro.runtime.scenarios import single_kind_scenarios, table1_scenarios
from repro.runtime.sweep import SweepRunner

DENSITY = DensityMatrixBackend()
ANALYTIC = AnalyticBackend()

SCENARIOS = {"Lab": lab_scenario(), "QL2020": ql2020_scenario()}
ALPHAS = (0.05, 0.18, 0.35, 0.5)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_available_backends(self):
        assert {"density", "analytic", "analytic-exact"} <= \
            set(available_backends())

    def test_named_backends_are_shared(self):
        assert get_backend("density") is get_backend("density")
        assert get_backend("analytic") is get_backend("analytic")

    def test_instances_pass_through(self):
        backend = AnalyticBackend(fast_forward=False)
        assert get_backend(backend) is backend

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "analytic")
        assert resolve_backend_name(None) == "analytic"
        monkeypatch.delenv("REPRO_BACKEND")
        assert resolve_backend_name(None) == "density"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend_name("tensor-network")


# --------------------------------------------------------------------------- #
# Attempt-model equivalence (closed form vs exact density matrices)
# --------------------------------------------------------------------------- #
class TestAttemptModelEquivalence:
    @pytest.mark.parametrize("hardware", sorted(SCENARIOS))
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_success_probability_matches(self, hardware, alpha):
        scenario = SCENARIOS[hardware]
        exact = DENSITY.attempt_model(scenario, alpha)
        fast = ANALYTIC.attempt_model(scenario, alpha)
        assert fast.success_probability == \
            pytest.approx(exact.success_probability, rel=1e-9)

    @pytest.mark.parametrize("hardware", sorted(SCENARIOS))
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_heralded_fidelity_matches(self, hardware, alpha):
        scenario = SCENARIOS[hardware]
        exact = DENSITY.attempt_model(scenario, alpha)
        fast = ANALYTIC.attempt_model(scenario, alpha)
        assert fast.average_success_fidelity() == \
            pytest.approx(exact.average_success_fidelity(), abs=1e-9)
        for target in (BellIndex.PSI_PLUS, BellIndex.PSI_MINUS):
            assert fast.average_success_fidelity(target) == \
                pytest.approx(exact.average_success_fidelity(target),
                              abs=1e-9)

    @pytest.mark.parametrize("hardware", sorted(SCENARIOS))
    @pytest.mark.parametrize("request_type",
                             [RequestType.KEEP, RequestType.MEASURE])
    def test_delivered_fidelity_matches(self, hardware, request_type):
        scenario = SCENARIOS[hardware]
        for alpha in ALPHAS:
            exact = DENSITY.attempt_model(scenario, alpha)
            fast = ANALYTIC.attempt_model(scenario, alpha)
            assert fast.delivered_fidelity(request_type) == \
                pytest.approx(exact.delivered_fidelity(request_type),
                              abs=1e-9)

    @pytest.mark.parametrize("hardware", sorted(SCENARIOS))
    def test_conditional_states_match(self, hardware):
        scenario = SCENARIOS[hardware]
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        exact = DENSITY.attempt_model(scenario, 0.3)
        fast = ANALYTIC.attempt_model(scenario, 0.3)
        # Drive both models until each success outcome was observed.
        seen = set()
        for _ in range(20000):
            sample_exact = exact.sample(rng_a)
            sample_fast = fast.sample(rng_b)
            assert sample_exact.outcome_code == sample_fast.outcome_code
            if sample_exact.success:
                seen.add(sample_exact.outcome_code)
                np.testing.assert_allclose(sample_fast.state.matrix,
                                           sample_exact.state.matrix,
                                           atol=1e-10)
            if seen == {1, 2}:
                break
        assert seen == {1, 2}, "did not observe both Bell outcomes"

    def test_resolve_consumes_identical_randomness(self):
        scenario = SCENARIOS["Lab"]
        rng_a = np.random.default_rng(99)
        rng_b = np.random.default_rng(99)
        exact = DENSITY.attempt_model(scenario, 0.4)
        fast = ANALYTIC.attempt_model(scenario, 0.4)
        for _ in range(200):
            attempts_exact, sample_exact = exact.resolve(rng_a, 500)
            attempts_fast, sample_fast = fast.resolve(rng_b, 500)
            assert attempts_exact == attempts_fast
            assert sample_exact.outcome_code == sample_fast.outcome_code


# --------------------------------------------------------------------------- #
# Device-operation equivalence
# --------------------------------------------------------------------------- #
def _random_pair(seed: int) -> tuple[EntangledPair, EntangledPair]:
    """Two identical pairs in a random (valid) two-qubit mixed state."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = raw @ raw.conj().T
    rho = rho / np.trace(rho)
    pairs = []
    for _ in range(2):
        pairs.append(EntangledPair(
            state=DensityMatrix(rho.copy(), validate=False),
            heralded_bell=BellIndex.PSI_PLUS, created_at=0.0))
    return pairs[0], pairs[1]


class TestDeviceOperationEquivalence:
    @pytest.mark.parametrize("side", ["A", "B"])
    def test_t1t2_matches(self, side):
        from repro.hardware.parameters import CoherenceTimes

        coherence = CoherenceTimes(t1=2.86e-3, t2=1.0e-3)
        pair_exact, pair_fast = _random_pair(1)
        DENSITY.apply_t1t2(pair_exact, side, coherence, 3e-4)
        ANALYTIC.apply_t1t2(pair_fast, side, coherence, 3e-4)
        np.testing.assert_allclose(pair_fast.state.matrix,
                                   pair_exact.state.matrix, atol=1e-12)

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_depolarizing_and_dephasing_match(self, side):
        pair_exact, pair_fast = _random_pair(2)
        DENSITY.apply_depolarizing(pair_exact, side, 0.97)
        ANALYTIC.apply_depolarizing(pair_fast, side, 0.97)
        DENSITY.apply_dephasing(pair_exact, side, 0.12)
        ANALYTIC.apply_dephasing(pair_fast, side, 0.12)
        np.testing.assert_allclose(pair_fast.state.matrix,
                                   pair_exact.state.matrix, atol=1e-12)

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_correction_matches(self, side):
        pair_exact, pair_fast = _random_pair(3)
        DENSITY.apply_correction(pair_exact, side, 0.995)
        ANALYTIC.apply_correction(pair_fast, side, 0.995)
        np.testing.assert_allclose(pair_fast.state.matrix,
                                   pair_exact.state.matrix, atol=1e-12)

    @pytest.mark.parametrize("basis", ["X", "Y", "Z"])
    @pytest.mark.parametrize("side", ["A", "B"])
    def test_measurement_matches(self, basis, side):
        pair_exact, pair_fast = _random_pair(4)
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        outcome_exact = DENSITY.measure_pair(pair_exact, side, basis,
                                             0.95, 0.995, rng_a)
        outcome_fast = ANALYTIC.measure_pair(pair_fast, side, basis,
                                             0.95, 0.995, rng_b)
        assert outcome_exact == outcome_fast
        np.testing.assert_allclose(pair_fast.state.matrix,
                                   pair_exact.state.matrix, atol=1e-12)

    def test_correction_flips_psi_minus_to_psi_plus(self):
        state = DensityMatrix.from_ket(bell_state(BellIndex.PSI_MINUS))
        pair = EntangledPair(state=state, heralded_bell=BellIndex.PSI_MINUS,
                             created_at=0.0)
        ANALYTIC.apply_correction(pair, "A", 1.0)
        assert pair.state.fidelity_to_pure(
            bell_state(BellIndex.PSI_PLUS)) == pytest.approx(1.0)


# --------------------------------------------------------------------------- #
# Batching policy
# --------------------------------------------------------------------------- #
class TestBatchPolicy:
    def test_density_never_exceeds_configured_batch(self):
        timing = SCENARIOS["QL2020"].timing
        grant = DENSITY.granted_batch(RequestType.MEASURE, 100, True, timing)
        assert grant == BatchGrant(100, 1)
        # K on QL2020: round trip exceeds the cycle -> no batching.
        grant = DENSITY.granted_batch(RequestType.KEEP, 100, True, timing)
        assert grant == BatchGrant(1, 1)

    def test_analytic_fast_forwards_measure(self):
        timing = SCENARIOS["QL2020"].timing
        grant = ANALYTIC.granted_batch(RequestType.MEASURE, 1, True, timing)
        assert grant.stride == 1
        assert grant.batch * timing.mhp_cycle == pytest.approx(
            ANALYTIC.max_window_seconds, rel=0.01)

    def test_analytic_keep_stride_matches_attempt_spacing(self):
        timing = SCENARIOS["QL2020"].timing
        grant = ANALYTIC.granted_batch(RequestType.KEEP, 1, True, timing)
        expected_stride = int(np.ceil(timing.attempt_spacing_k /
                                      timing.mhp_cycle - 1e-9))
        assert grant.stride == expected_stride
        assert grant.batch > 1
        window = grant.cycles * timing.mhp_cycle
        assert window <= ANALYTIC.max_window_seconds + \
            grant.stride * timing.mhp_cycle

    def test_analytic_exact_matches_density_policy(self):
        exact = AnalyticBackend(fast_forward=False)
        timing = SCENARIOS["QL2020"].timing
        for request_type in (RequestType.KEEP, RequestType.MEASURE):
            for configured in (1, 50):
                assert exact.granted_batch(request_type, configured, True,
                                           timing) == \
                    DENSITY.granted_batch(request_type, configured, True,
                                          timing)

    def test_non_multiplexed_measure_is_never_batched(self):
        timing = SCENARIOS["QL2020"].timing
        grant = ANALYTIC.granted_batch(RequestType.MEASURE, 100, False,
                                       timing)
        assert grant.batch == 1

    def test_configured_batch_clipped_to_window(self):
        for hardware in SCENARIOS:
            timing = SCENARIOS[hardware].timing
            for request_type in (RequestType.KEEP, RequestType.MEASURE):
                grant = ANALYTIC.granted_batch(request_type, 100000, True,
                                               timing)
                window = grant.cycles * timing.mhp_cycle
                assert window <= ANALYTIC.max_window_seconds + \
                    grant.stride * timing.mhp_cycle

    def test_frame_loss_disables_fast_forward(self):
        timing = SCENARIOS["Lab"].timing
        grant = ANALYTIC.granted_batch(RequestType.MEASURE, 1, True, timing,
                                       frame_loss_probability=1e-4)
        assert grant == BatchGrant(1, 1)
        # Explicitly configured batching still follows the conservative
        # exact-model policy under loss.
        grant = ANALYTIC.granted_batch(RequestType.MEASURE, 50, True, timing,
                                       frame_loss_probability=1e-4)
        assert grant == BatchGrant(50, 1)


# --------------------------------------------------------------------------- #
# Full-run equivalence
# --------------------------------------------------------------------------- #
class TestRunEquivalence:
    @pytest.mark.parametrize("batch", [1, 50])
    def test_analytic_exact_run_is_identical(self, batch):
        spec = single_kind_scenarios(
            "Lab", kinds=("MD",), loads=("High",), max_pairs_options=(3,),
            origins=("A",), include_md_k255=False)[0]
        exact = spec.run(1.5, seed=17, attempt_batch_size=batch,
                         backend="density")
        fast = spec.run(1.5, seed=17, attempt_batch_size=batch,
                        backend="analytic-exact")
        assert fast.summary.to_dict() == exact.summary.to_dict()
        assert exact.backend == "density"
        assert fast.backend == "analytic-exact"

    def test_fast_forward_statistical_equivalence_md(self):
        """MD throughput/fidelity agree between backends on a Lab slice.

        Measure-directly runs deliver many pairs, so a handful of seeds
        already gives tight statistics.
        """
        spec = single_kind_scenarios(
            "Lab", kinds=("MD",), loads=("High",), max_pairs_options=(3,),
            origins=("A",), include_md_k255=False)[0]
        throughput = {"density": [], "analytic": []}
        fidelity = {"density": [], "analytic": []}
        for backend in ("density", "analytic"):
            for seed in (21, 22, 23):
                summary = spec.run(4.0, seed=seed, attempt_batch_size=100,
                                   backend=backend).summary
                throughput[backend].append(sum(summary.throughput.values()))
                if summary.average_fidelity:
                    fidelity[backend].append(
                        np.mean(list(summary.average_fidelity.values())))
        mean_density = np.mean(throughput["density"])
        mean_analytic = np.mean(throughput["analytic"])
        assert mean_analytic == pytest.approx(mean_density, rel=0.30)
        assert np.mean(fidelity["analytic"]) == \
            pytest.approx(np.mean(fidelity["density"]), abs=0.03)

    def test_robustness_scenarios_are_not_fast_forwarded(self):
        """Frame-loss runs expose every frame individually on all backends.

        With fast-forward disabled by the loss probability, the analytic
        backend consumes the random stream exactly like the exact one, so a
        robustness run is field-for-field identical.
        """
        from repro.runtime.scenarios import robustness_scenarios

        spec = robustness_scenarios("Lab", loss_probabilities=(1e-4,))[0]
        exact = spec.run(1.0, seed=5, backend="density")
        fast = spec.run(1.0, seed=5, backend="analytic")
        assert fast.summary.to_dict() == exact.summary.to_dict()

    def test_fast_forward_statistical_equivalence_table1(self):
        """Table-1 slice: MD throughput and scaled latency agree."""
        spec = [s for s in table1_scenarios("QL2020")
                if s.name == "table1_noNLmoreMD_FCFS"][0]
        metrics = {}
        for backend in ("density", "analytic"):
            throughput, latency = [], []
            for seed in (101, 103, 104, 105):
                summary = spec.run(8.0, seed=seed, attempt_batch_size=100,
                                   backend=backend).summary
                throughput.append(summary.throughput.get("MD", 0.0))
                if "MD" in summary.average_scaled_latency:
                    latency.append(summary.average_scaled_latency["MD"])
            metrics[backend] = (np.mean(throughput), np.mean(latency))
        assert metrics["analytic"][0] == \
            pytest.approx(metrics["density"][0], rel=0.35)
        assert metrics["analytic"][1] == \
            pytest.approx(metrics["density"][1], rel=0.5)


# --------------------------------------------------------------------------- #
# Sweep integration: cache key, resume, serialisation
# --------------------------------------------------------------------------- #
class TestSweepIntegration:
    def _specs(self, backend):
        return single_kind_scenarios(
            "Lab", kinds=("MD",), loads=("High",), max_pairs_options=(1,),
            origins=("A",), include_md_k255=False, attempt_batch_size=50,
            backend=backend)

    def test_backend_recorded_and_cached(self, tmp_path):
        runner = SweepRunner(self._specs("analytic"), duration=0.4,
                             master_seed=7, cache_dir=tmp_path)
        result = runner.run()
        outcome = result.outcomes[0]
        assert outcome.ok and outcome.backend == "analytic"
        assert not outcome.from_cache

        # Same sweep again: resumed entirely from cache.
        rerun = SweepRunner(self._specs("analytic"), duration=0.4,
                            master_seed=7, cache_dir=tmp_path).run()
        assert rerun.outcomes[0].from_cache
        assert rerun.outcomes[0].backend == "analytic"
        assert rerun.outcomes[0].summary == result.outcomes[0].summary

        # A different backend must miss the cache.
        other = SweepRunner(self._specs("density"), duration=0.4,
                            master_seed=7, cache_dir=tmp_path).run()
        assert not other.outcomes[0].from_cache
        assert other.outcomes[0].backend == "density"

    def test_backend_distinguishes_cache_entries(self):
        # Since PR 3 the backend lives in the cache *filename* rather than
        # the key hash (so a foreign-backend entry is found and reported
        # instead of silently missed), but entries from different backends
        # must still never satisfy each other's lookups.
        from repro.runtime.cache import ResumeCache

        spec_density = self._specs("density")[0]
        spec_analytic = self._specs("analytic")[0]
        cache = ResumeCache("unused-dir")
        assert SweepRunner.cache_key(spec_density, 1, 1.0) == \
            SweepRunner.cache_key(spec_analytic, 1, 1.0)
        assert cache.path(spec_density, 1, 1.0) != \
            cache.path(spec_analytic, 1, 1.0)

    def test_json_round_trip_preserves_backend(self, tmp_path):
        runner = SweepRunner(self._specs("analytic"), duration=0.3,
                             master_seed=3)
        result = runner.run()
        from repro.runtime.sweep import SweepResult

        restored = SweepResult.from_json(result.to_json())
        assert restored.outcomes[0].backend == "analytic"
        assert restored.outcomes == result.outcomes


# --------------------------------------------------------------------------- #
# FEU table memo: one table per (scenario, alpha grid) and backend instance
# --------------------------------------------------------------------------- #
class TestFeuTableMemo:
    @staticmethod
    def _spec(hardware):
        return single_kind_scenarios(
            hardware, kinds=("MD",), loads=("High",), max_pairs_options=(1,),
            origins=("A",), include_md_k255=False, attempt_batch_size=50)[0]

    @pytest.mark.parametrize("name", ["analytic", "density"])
    def test_second_feu_reuses_the_table(self, name, monkeypatch):
        from repro.core.feu import FidelityEstimationUnit

        first = FidelityEstimationUnit(SCENARIOS["Lab"], backend=name)

        def no_build(*args, **kwargs):
            raise AssertionError("the second FEU built a table")

        monkeypatch.setattr(get_backend(name), "attempt_model", no_build)
        second = FidelityEstimationUnit(SCENARIOS["Lab"], backend=name)
        assert second._table is first._table

    @pytest.mark.parametrize("name", ["analytic", "density"])
    def test_run_is_independent_of_memo_history(self, name):
        lab, ql2020 = self._spec("Lab"), self._spec("QL2020")
        assert lab.scenario != ql2020.scenario

        def run(spec):
            result = spec.run(0.3, seed=11, backend=name)
            return result.summary.to_dict(), result.events_processed

        get_backend(name)._feu_tables.clear()
        cold = run(lab)
        run(ql2020)
        after_other = run(lab)
        after_itself = run(lab)
        assert after_other == cold
        assert after_itself == cold

    def test_table_is_immutable(self):
        table = AnalyticBackend().feu_table(SCENARIOS["Lab"], ALPHAS)
        assert set(table) == set(RequestType)
        rows = table[RequestType.KEEP]
        assert [row[0] for row in rows] == list(ALPHAS)
        with pytest.raises(TypeError):
            table[RequestType.KEEP] = ()
        with pytest.raises(TypeError):
            rows[0] = rows[1]
        with pytest.raises(TypeError):
            rows[0][1] = 1.0

    def test_memo_stays_within_its_bound(self):
        backend = AnalyticBackend()
        bound = backend.FEU_TABLE_CACHE_SIZE
        grids = [(0.01 + 1e-3 * index,) for index in range(bound + 2)]
        tables = [backend.feu_table(SCENARIOS["Lab"], grid) for grid in grids]
        assert len(backend._feu_tables) <= bound
        # The newest table is still served; evicted ones are rebuilt equal.
        assert backend.feu_table(SCENARIOS["Lab"], grids[-1]) is tables[-1]
        rebuilt = backend.feu_table(SCENARIOS["Lab"], grids[0])
        assert rebuilt is not tables[0] and rebuilt == tables[0]
        assert len(backend._feu_tables) <= bound
