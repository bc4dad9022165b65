"""Vectorized cohort execution: solo equivalence, sweeps, cost model.

The contract under test (``repro.runtime.batch`` + ``repro.backends
.vectorized``): a cohort run of scenarios ``[s_0 .. s_{B-1}]`` produces, for
every member ``i``, a result field-for-field equal to a solo analytic run of
``s_i`` — same summary statistics, same event count, same request count —
while the cohort shares FEU tables and memoized pair physics for throughput.
"""

from __future__ import annotations

import pytest

from repro.backends.vectorized import VectorizedAnalyticBackend
from repro.cluster.planner import RecordedCostModel, StaticCostModel, plan_shards
from repro.core.messages import Priority
from repro.hardware.parameters import lab_scenario
from repro.runtime import ScenarioSpec, SweepRunner, WorkloadSpec
from repro.runtime.batch import CohortRunner, cohortable, execute_cohort
from repro.runtime.scenarios import paper_grid, single_kind_scenarios
from repro.runtime.sweep import ScenarioOutcome

DURATION = 0.2


def analytic_grid(count: int) -> list:
    """First ``count`` scenarios of the analytic long-run grid (both
    hardware setups, so counts beyond one setup's 63 are available)."""
    specs = (single_kind_scenarios("Lab", backend="analytic")
             + single_kind_scenarios("QL2020", backend="analytic"))
    assert len(specs) >= count
    return specs[:count]


def solo_results(specs, seeds, durations):
    return [spec.run(duration, seed=seed)
            for spec, seed, duration in zip(specs, seeds, durations)]


def assert_member_equals_solo(result, reference):
    assert result is not None
    assert result.summary == reference.summary
    assert result.events_processed == reference.events_processed
    assert result.requests_issued == reference.requests_issued


class TestCohortSoloEquivalence:
    @pytest.mark.parametrize("size", [1, 7, 64])
    def test_cohort_members_equal_solo_runs(self, size):
        specs = analytic_grid(size)
        seeds = [9000 + index for index in range(size)]
        runner = CohortRunner(specs, DURATION, seeds=seeds)
        results = runner.run()
        assert runner.errors == [None] * size
        references = solo_results(specs, seeds, [DURATION] * size)
        for result, reference in zip(results, references):
            assert_member_equals_solo(result, reference)

    def test_member_streams_are_independent(self):
        # Two members with the same (spec, seed) produce identical results;
        # a different seed produces a different one — the per-member RNG
        # streams are exactly the solo streams, not shared cohort draws.
        spec = analytic_grid(1)[0]
        runner = CohortRunner([spec, spec, spec], DURATION,
                              seeds=[42, 42, 43])
        twin_a, twin_b, other = runner.run()
        assert runner.errors == [None, None, None]
        assert twin_a.summary == twin_b.summary
        assert twin_a.events_processed == twin_b.events_processed
        assert (other.summary != twin_a.summary
                or other.events_processed != twin_a.events_processed)

    def test_ragged_retirement(self):
        # Members finishing at different simulated durations retire early
        # without disturbing the survivors' results.
        specs = analytic_grid(3)
        seeds = [1, 2, 3]
        durations = [0.07, 0.31, 0.2]
        runner = CohortRunner(specs, durations, seeds=seeds)
        results = runner.run()
        assert runner.errors == [None] * 3
        for result, reference in zip(
                results, solo_results(specs, seeds, durations)):
            assert_member_equals_solo(result, reference)

    def test_shared_backend_reuse_is_exact(self):
        # Consecutive cohorts on one warmed backend (the cluster worker's
        # usage) still reproduce solo results bit-for-bit.
        specs = analytic_grid(2)
        backend = VectorizedAnalyticBackend()
        first = CohortRunner(specs, DURATION, seeds=[5, 6], backend=backend)
        first.run()
        second = CohortRunner(specs, DURATION, seeds=[5, 6], backend=backend)
        for result, reference in zip(
                second.run(), solo_results(specs, [5, 6], [DURATION] * 2)):
            assert_member_equals_solo(result, reference)

    def test_non_analytic_specs_are_rejected(self):
        spec = analytic_grid(1)[0]
        density = ScenarioSpec(name="density", scenario=spec.scenario,
                               workload=spec.workload, backend="density")
        assert not cohortable(density)
        with pytest.raises(ValueError, match="cohorts require 'analytic'"):
            CohortRunner([density], DURATION)


class TestCohortFailureIsolation:
    def test_failing_member_does_not_poison_the_cohort(self):
        good = analytic_grid(2)
        broken = ScenarioSpec(
            name="broken", scenario=lab_scenario(),
            workload=(WorkloadSpec(priority=Priority.MD, load_fraction=0.9),),
            scheduler="NoSuchScheduler", backend="analytic")
        payloads = [(0, good[0], 11, DURATION), (1, broken, 12, DURATION),
                    (2, good[1], 13, DURATION)]
        outcomes = dict(execute_cohort(payloads))
        assert outcomes[1].status == "error"
        assert "NoSuchScheduler" in outcomes[1].error
        references = solo_results(good, [11, 13], [DURATION] * 2)
        for index, reference in zip((0, 2), references):
            outcome = outcomes[index]
            assert outcome.ok
            assert outcome.summary == reference.summary
            assert outcome.events_processed == reference.events_processed
            assert outcome.cohort == 3


class TestCohortSweep:
    def grid(self):
        specs = analytic_grid(6)
        # One non-analytic straggler: it must ride the solo path unchanged.
        density = ScenarioSpec(name="density_straggler",
                               scenario=specs[0].scenario,
                               workload=specs[0].workload, backend="density")
        return specs + [density]

    def test_cohort_sweep_equals_serial_sweep(self):
        specs = self.grid()
        serial = SweepRunner(specs, DURATION, master_seed=77).run()
        cohort = SweepRunner(specs, DURATION, master_seed=77,
                             batch_size=4).run()
        # Field-for-field: ScenarioOutcome equality covers the summary,
        # seed, backend and events_processed (cohort/wall_time are
        # provenance, excluded from comparison).
        assert cohort.outcomes == serial.outcomes
        for outcome in cohort.outcomes[:6]:
            assert outcome.cohort in (4, 2)  # chunks of 4 over 6 scenarios
        assert cohort.outcomes[6].cohort is None
        assert all(outcome.cohort is None for outcome in serial.outcomes)

    def test_cohort_sweep_resumes_from_cache(self, tmp_path):
        specs = analytic_grid(4)
        first = SweepRunner(specs, DURATION, master_seed=3, batch_size=4,
                            cache_dir=tmp_path).run()
        rerun = SweepRunner(specs, DURATION, master_seed=3, batch_size=4,
                            cache_dir=tmp_path)
        second = rerun.run()
        assert all(outcome.from_cache for outcome in second.outcomes)
        assert second.outcomes == first.outcomes
        assert rerun.cache_report().counts()["hits"] == 4

    def test_in_process_cohorts_share_one_backend(self, monkeypatch):
        """Every in-process cohort of a sweep runs through one backend, so
        each hardware config's FEU table is built once per sweep."""
        import repro.runtime.batch as batch

        built = []

        class Recording(VectorizedAnalyticBackend):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(batch, "VectorizedAnalyticBackend", Recording)
        specs = paper_grid(attempt_batch_size=100, backend="analytic")
        cohort = SweepRunner(specs, 0.05, master_seed=12345,
                             batch_size=64).run()
        assert sorted({outcome.cohort for outcome in cohort.outcomes}) \
            == [41, 64]  # three cohorts over the 169 scenarios
        (backend,) = built
        assert len(backend._feu_tables) == len({spec.scenario
                                                for spec in specs})
        serial = SweepRunner(specs, 0.05, master_seed=12345).run()
        assert cohort.outcomes == serial.outcomes

    def test_cohort_memory_error_drops_the_shared_backend(self,
                                                          monkeypatch):
        import repro.runtime.batch as batch

        backends = []
        real = batch.execute_cohort

        def flaky(payloads, backend=None, guard=None):
            backends.append(backend)
            if len(backends) == 1:
                raise MemoryError("cohort allocation")
            return real(payloads, backend=backend, guard=guard)

        monkeypatch.setattr(batch, "execute_cohort", flaky)
        specs = analytic_grid(8)
        result = SweepRunner(specs, DURATION, master_seed=3,
                             batch_size=4).run()
        assert [outcome.status for outcome in result.outcomes] \
            == ["oom"] * 4 + ["ok"] * 4
        assert "4-member cohort" in result.outcomes[0].error
        first, second = backends
        assert first is not None and second is not None
        assert first is not second

    def test_single_member_chunks_fall_back_to_solo(self):
        specs = analytic_grid(1)
        result = SweepRunner(specs, DURATION, master_seed=3,
                             batch_size=8).run()
        assert result.outcomes[0].ok
        assert result.outcomes[0].cohort is None


class TestCohortCluster:
    def test_cohort_workers_match_serial_sweep(self, tmp_path):
        from repro.cluster import ClusterCoordinator, ClusterWorker

        specs = analytic_grid(12)
        serial = SweepRunner(specs, DURATION, master_seed=77).run()
        coordinator = ClusterCoordinator(
            specs, DURATION, tmp_path / "cluster", master_seed=77,
            num_shards=2, lease_timeout=120.0)
        coordinator.write_plan()
        workers = [
            ClusterWorker(coordinator.cluster_dir, "w0", shard=0,
                          batch_size=4),
            ClusterWorker(coordinator.cluster_dir, "w1", shard=1,
                          batch_size=4),
        ]
        for _ in range(100):
            if all(worker.step() is None for worker in workers):
                break
        for worker in workers:
            worker.close()
        assert coordinator.is_complete()
        merged = coordinator.merge()
        assert merged.outcomes == serial.outcomes
        # The workers really ran cohorts, not twelve solo scenarios.
        assert any(outcome.cohort and outcome.cohort > 1
                   for outcome in merged.outcomes)


class TestCohortCostModel:
    def outcome(self, spec, wall_time, cohort=None):
        return ScenarioOutcome(
            scenario_name=spec.name, scheduler_name=spec.scheduler_name(),
            seed=1, duration=1.0, status="ok", backend=spec.backend_name(),
            wall_time=wall_time, cohort=cohort)

    def test_cohort_observations_use_a_distinct_key(self):
        spec = analytic_grid(1)[0]
        model = RecordedCostModel()
        assert model.observe(self.outcome(spec, wall_time=0.8))
        assert model.observe(self.outcome(spec, wall_time=0.1, cohort=8))
        assert model.recorded_rate(spec) == pytest.approx(0.8)
        assert model.recorded_rate(spec, cohort=True) == pytest.approx(0.1)
        # Mixed history stays unmixed: solo estimates ignore cohort data.
        assert model.estimate(spec, 2.0) == pytest.approx(1.6)
        assert model.cohort_estimate(spec, 2.0, 8) == pytest.approx(0.2)

    def test_cohort_rates_round_trip_through_json(self, tmp_path):
        spec = analytic_grid(1)[0]
        model = RecordedCostModel()
        model.observe(self.outcome(spec, wall_time=0.6))
        model.observe(self.outcome(spec, wall_time=0.15, cohort=16))
        path = model.save(tmp_path / "cost_model.json")
        loaded = RecordedCostModel.load(path)
        assert loaded.recorded_rate(spec) == pytest.approx(0.6)
        assert loaded.recorded_rate(spec, cohort=True) == pytest.approx(0.15)
        assert loaded.to_dict() == model.to_dict()

    def test_static_model_discounts_analytic_cohorts_only(self):
        spec = analytic_grid(1)[0]
        density = ScenarioSpec(name="density", scenario=spec.scenario,
                               workload=spec.workload, backend="density")
        model = StaticCostModel()
        solo = model.estimate(spec, 1.0)
        assert model.cohort_estimate(spec, 1.0, 1) == pytest.approx(solo)
        capped = model.cohort_estimate(spec, 1.0, 64)
        assert capped < solo
        assert capped == pytest.approx(
            solo / StaticCostModel.ANALYTIC_COHORT_SPEEDUP)
        assert model.cohort_estimate(density, 1.0, 64) == pytest.approx(
            model.estimate(density, 1.0))

    def test_plan_shards_accounts_for_cohort_throughput(self):
        specs = analytic_grid(8)
        plan_solo = plan_shards(specs, 2, DURATION)
        plan_cohort = plan_shards(specs, 2, DURATION, cohort_size=4)
        assert sorted(i for shard in plan_cohort.shards for i in shard) == \
            list(range(8))
        discount = min(4, StaticCostModel.ANALYTIC_COHORT_SPEEDUP)
        for index in range(8):
            assert plan_cohort.scenario_costs[index] == pytest.approx(
                plan_solo.scenario_costs[index] / discount)
