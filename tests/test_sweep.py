"""Tests for the parallel sweep subsystem (seeds, JSON, cache, failures)."""

from __future__ import annotations

import json

import pytest

from repro.core.messages import Priority
from repro.hardware.parameters import lab_scenario
from repro.runtime import (
    ResumeCache,
    ScenarioSpec,
    SweepResult,
    SweepRunner,
    WorkloadSpec,
    paper_grid,
    run_sweep,
    single_kind_scenarios,
)

DURATION = 0.2


def small_grid(count: int = 2) -> list[ScenarioSpec]:
    specs = single_kind_scenarios(
        "Lab", kinds=("MD", "CK"), loads=("High",), max_pairs_options=(1,),
        origins=("A",), include_md_k255=False, attempt_batch_size=40)
    return specs[:count]


def failing_spec(name: str = "broken") -> ScenarioSpec:
    workload = WorkloadSpec(priority=Priority.MD, load_fraction=0.99)
    return ScenarioSpec(name=name, scenario=lab_scenario(),
                        workload=(workload,), scheduler="NoSuchScheduler")


class TestSeedSpawning:
    def test_seeds_depend_only_on_master_seed_and_index(self):
        runner_a = SweepRunner(small_grid(2), DURATION, master_seed=5)
        runner_b = SweepRunner(small_grid(2), DURATION, master_seed=5,
                               workers=4)
        assert runner_a.scenario_seeds() == runner_b.scenario_seeds()

    def test_seeds_are_distinct_per_scenario(self):
        runner = SweepRunner(paper_grid(), DURATION, master_seed=5)
        seeds = runner.scenario_seeds()
        assert len(set(seeds)) == len(seeds) == 169

    def test_outcomes_record_their_derived_seed(self):
        runner = SweepRunner(small_grid(2), DURATION, master_seed=5)
        result = runner.run()
        assert [o.seed for o in result.outcomes] == runner.scenario_seeds()

    def test_unseeded_sweep_resolves_a_reproducible_master_seed(self):
        specs = small_grid(1)
        first = SweepRunner(specs, DURATION, master_seed=None)
        second = SweepRunner(specs, DURATION, master_seed=None)
        # Fresh entropy per runner (also with seed_key), but recorded so the
        # run can be reproduced.
        assert isinstance(first.master_seed, int)
        assert first.master_seed != second.master_seed
        keyed = SweepRunner(specs, DURATION, master_seed=None,
                            seed_key=lambda spec: spec.name)
        assert keyed.scenario_seeds() == keyed.scenario_seeds()
        assert keyed.scenario_seeds() != \
            SweepRunner(specs, DURATION, master_seed=None,
                        seed_key=lambda spec: spec.name).scenario_seeds()

    def test_duplicate_scenario_names_rejected(self, tmp_path):
        # The coordinator refuses them when the run plans the sweep.
        specs = small_grid(1) * 2
        with pytest.raises(ValueError, match="duplicate"):
            SweepRunner(specs, DURATION, cache_dir=tmp_path).run()
        assert list(tmp_path.iterdir()) == []

    def test_seed_key_groups_share_a_seed(self):
        # Pair scenarios by their workload kind: same kind -> same arrival
        # randomness (the paper's scheduler comparisons rely on this).
        specs = small_grid(2)
        runner = SweepRunner(specs * 1, DURATION, master_seed=5,
                             seed_key=lambda spec: "shared")
        seeds = runner.scenario_seeds()
        assert len(set(seeds)) == 1
        per_name = SweepRunner(specs, DURATION, master_seed=5,
                               seed_key=lambda spec: spec.name)
        assert len(set(per_name.scenario_seeds())) == 2
        # Keyed seeds are stable across runner instances and list order.
        reordered = SweepRunner(list(reversed(specs)), DURATION, master_seed=5,
                                seed_key=lambda spec: spec.name)
        assert dict(zip([s.name for s in reordered.scenarios],
                        reordered.scenario_seeds())) == \
            dict(zip([s.name for s in per_name.scenarios],
                     per_name.scenario_seeds()))


    @pytest.mark.parametrize("workers", [1, 2])
    def test_keyed_seeds_reach_every_worker(self, workers):
        specs = small_grid(2)
        runner = SweepRunner(specs, DURATION, master_seed=5, workers=workers,
                             seed_key=lambda spec: "shared")
        result = runner.run()
        assert [o.seed for o in result.outcomes] == runner.scenario_seeds()
        assert len({o.seed for o in result.outcomes}) == 1

    def test_coordinator_refuses_a_seed_list_of_another_length(self,
                                                               tmp_path):
        from repro.cluster import ClusterCoordinator

        with pytest.raises(ValueError, match="1 seeds for 2 scenarios"):
            ClusterCoordinator(small_grid(2), DURATION, tmp_path, seeds=[7])


class TestSerialization:
    @pytest.fixture(scope="class")
    def result(self) -> SweepResult:
        return run_sweep(small_grid(2), DURATION, master_seed=11)

    def test_json_round_trip_is_lossless(self, result):
        restored = SweepResult.from_json(result.to_json())
        assert restored.master_seed == result.master_seed
        assert restored.duration == result.duration
        assert restored.outcomes == result.outcomes
        assert restored.summaries() == result.summaries()

    def test_json_is_plain_data(self, result):
        data = json.loads(result.to_json())
        assert {o["scenario_name"] for o in data["outcomes"]} == \
            set(result.summaries())

    def test_save_and_load(self, result, tmp_path):
        path = tmp_path / "sweep.json"
        result.save(path)
        assert SweepResult.load(path).outcomes == result.outcomes


class TestResumeFromCache:
    @pytest.mark.parametrize("workers,batch_size", [(1, 1), (2, 1), (2, 2)])
    def test_rerun_hits_cache_for_every_scenario(self, tmp_path, workers,
                                                 batch_size):
        specs = small_grid(2)
        first = run_sweep(specs, DURATION, master_seed=3, cache_dir=tmp_path,
                          workers=workers, batch_size=batch_size)
        assert not any(o.from_cache for o in first.outcomes)
        executed = []
        second = SweepRunner(specs, DURATION, master_seed=3,
                             cache_dir=tmp_path, workers=workers,
                             batch_size=batch_size,
                             on_outcome=executed.append).run()
        assert all(o.from_cache for o in second.outcomes)
        assert len(executed) == 2
        assert second.summaries() == first.summaries()

    def test_a_rerun_reads_the_cache_not_the_last_run(self, tmp_path):
        # Every run resets the coordinator state in cache_dir: the done
        # records of the last run never stand in for a cache entry.
        specs = small_grid(2)
        first = run_sweep(specs, DURATION, master_seed=3, cache_dir=tmp_path)
        cache = ResumeCache(tmp_path)
        cache.path(specs[1], first.outcomes[1].seed, DURATION).unlink()
        second = run_sweep(specs, DURATION, master_seed=3,
                           cache_dir=tmp_path)
        assert [o.from_cache for o in second.outcomes] == [True, False]
        assert second.outcomes == first.outcomes

    def test_interrupted_sweep_resumes_where_it_left_off(self, tmp_path):
        specs = small_grid(2)
        # "Interrupted" sweep: only the first scenario completed.
        run_sweep(specs[:1], DURATION, master_seed=3, cache_dir=tmp_path)
        result = run_sweep(specs, DURATION, master_seed=3,
                           cache_dir=tmp_path)
        assert [o.from_cache for o in result.outcomes] == [True, False]
        assert all(o.ok for o in result.outcomes)

    def test_changed_parameters_miss_the_cache(self, tmp_path):
        specs = small_grid(1)
        run_sweep(specs, DURATION, master_seed=3, cache_dir=tmp_path)
        result = run_sweep(specs, DURATION, master_seed=4,
                           cache_dir=tmp_path)
        assert not result.outcomes[0].from_cache

    def test_changed_hardware_parameters_miss_the_cache(self, tmp_path):
        import dataclasses

        specs = small_grid(1)
        run_sweep(specs, DURATION, master_seed=3, cache_dir=tmp_path)
        # Same scenario name, different physics: must be resimulated.
        stressed = dataclasses.replace(
            specs[0], scenario=specs[0].scenario.with_frame_loss(0.01))
        result = run_sweep([stressed], DURATION, master_seed=3,
                           cache_dir=tmp_path)
        assert not result.outcomes[0].from_cache

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path):
        specs = small_grid(1)
        run_sweep(specs, DURATION, master_seed=3, cache_dir=tmp_path)
        for entry in tmp_path.glob("*.json"):
            entry.write_text("{not json")
        result = run_sweep(specs, DURATION, master_seed=3,
                           cache_dir=tmp_path)
        assert result.outcomes[0].ok
        assert not result.outcomes[0].from_cache


class TestFailureIsolation:
    @pytest.mark.parametrize("batch_size", [1, 2, 3])
    def test_failing_scenario_reports_instead_of_hanging(self, batch_size):
        # The failing scenario shares a worker process with good ones: it
        # must not take them down, whatever the (vestigial) batch_size.
        specs = small_grid(2) + [failing_spec()]
        result = run_sweep(specs, DURATION, master_seed=9, workers=2,
                           batch_size=batch_size)
        assert len(result.outcomes) == 3
        assert len(result.completed) == 2
        (failed,) = result.failed
        assert failed.scenario_name == "broken"
        assert failed.summary is None
        assert "NoSuchScheduler" in failed.error
        clean = run_sweep(specs[:2], DURATION, master_seed=9)
        assert result.outcomes[:2] == clean.outcomes

    def test_failures_are_not_cached(self, tmp_path):
        specs = [failing_spec()]
        run_sweep(specs, DURATION, master_seed=9, cache_dir=tmp_path)
        result = run_sweep(specs, DURATION, master_seed=9,
                           cache_dir=tmp_path)
        assert not result.outcomes[0].from_cache  # retried, not replayed

    def test_failed_outcome_survives_json_round_trip(self):
        result = run_sweep([failing_spec()], DURATION, master_seed=9)
        restored = SweepResult.from_json(result.to_json())
        assert restored.outcomes[0].status == "error"
        assert "NoSuchScheduler" in restored.outcomes[0].error


class TestPaperGrid:
    def test_paper_grid_has_169_unique_scenarios(self):
        grid = paper_grid()
        assert len(grid) == 169
        assert len({spec.name for spec in grid}) == 169

    def test_paper_grid_includes_md_k255(self):
        names = {spec.name for spec in paper_grid()}
        assert "Lab_MD_High_k255_originA" in names
        assert "QL2020_MD_Ultra_k255_originR" in names

    def test_paper_grid_composition(self):
        grid = paper_grid(include_mixed=False, include_table1=False,
                          include_robustness=False)
        assert len(grid) == 126  # single-kind grid over both hardware setups


class TestCacheReport:
    """Entries from a different cache version or backend are skipped with a
    reason, not silently recomputed (PR 3 satellite)."""

    def run_with_report(self, specs, tmp_path, **kwargs):
        runner = SweepRunner(specs, DURATION, master_seed=3,
                             cache_dir=tmp_path, **kwargs)
        result = runner.run()
        return result, runner.cache_report()

    def test_hits_and_misses_are_reported(self, tmp_path):
        specs = small_grid(2)
        _, first = self.run_with_report(specs, tmp_path)
        assert first.counts() == {"hits": 0, "misses": 2, "skips": 0}
        _, second = self.run_with_report(specs, tmp_path)
        assert second.counts() == {"hits": 2, "misses": 0, "skips": 0}
        assert "2 hit(s)" in second.describe()

    def test_version_mismatch_is_skipped_with_reason(self, tmp_path):
        import json as json_module

        specs = small_grid(1)
        self.run_with_report(specs, tmp_path)
        # ``<key>.<backend>.<engine>.json``: the directory also holds the
        # run's plan.json.
        (entry,) = tmp_path.glob("*.*.*.json")
        data = json_module.loads(entry.read_text())
        data["cache_version"] = 1
        entry.write_text(json_module.dumps(data))
        result, report = self.run_with_report(specs, tmp_path)
        assert report.counts() == {"hits": 0, "misses": 0, "skips": 1}
        assert "cache version 1" in report.skips[0].reason
        assert not result.outcomes[0].from_cache
        assert result.outcomes[0].ok  # recomputed (and re-cached)

    def test_backend_mismatch_is_skipped_with_reason(self, tmp_path):
        import dataclasses

        # Pin both backends explicitly so the test is immune to the
        # REPRO_BACKEND the suite happens to run under.
        specs = [dataclasses.replace(small_grid(1)[0], backend="density")]
        self.run_with_report(specs, tmp_path)  # cached under density
        analytic = [dataclasses.replace(specs[0], backend="analytic")]
        result, report = self.run_with_report(analytic, tmp_path)
        assert report.counts()["skips"] == 1
        assert "'density'" in report.skips[0].reason
        assert "'analytic'" in report.skips[0].reason
        assert not result.outcomes[0].from_cache
        # Both backends now coexist in the cache: each hits its own entry.
        _, density_again = self.run_with_report(specs, tmp_path)
        _, analytic_again = self.run_with_report(analytic, tmp_path)
        assert density_again.counts()["hits"] == 1
        assert analytic_again.counts()["hits"] == 1

    def test_corrupt_entry_is_skipped_with_reason(self, tmp_path):
        specs = small_grid(1)
        self.run_with_report(specs, tmp_path)
        for entry in tmp_path.glob("*.json"):
            entry.write_text("{not json")
        result, report = self.run_with_report(specs, tmp_path)
        assert report.counts()["skips"] == 1
        assert "corrupt" in report.skips[0].reason
        assert result.outcomes[0].ok

    def test_foreign_variants_found_among_many_entries(self, tmp_path):
        """A miss lists the scenario's entries under other backends/engines
        — the legacy engine-less layout too — in filename order, and only
        those: other scenarios' entries, a name that merely shares the key
        prefix and a bare ``{key}.json`` never match."""
        import dataclasses
        import hashlib

        from repro.runtime.cache import ResumeCache

        spec = dataclasses.replace(small_grid(1)[0], backend="analytic")
        cache = ResumeCache(tmp_path)
        stem = cache.key(spec, 3, DURATION)
        for index in range(500):
            unrelated = hashlib.sha256(str(index).encode()).hexdigest()[:20]
            (tmp_path / f"{unrelated}.analytic.heap.json").write_text("{}")
        (tmp_path / f"{stem}.density.heap.json").write_text("{}")
        (tmp_path / f"{stem}.density.json").write_text("{}")
        (tmp_path / f"{stem}x.json").write_text("{}")
        (tmp_path / f"{stem}.json").write_text("{}")
        outcome, reason = cache.load(spec, 3, DURATION)
        assert outcome is None
        assert reason == ("cache entry exists only under 'density' + "
                          "'heap', 'density', this run resolves to "
                          "'analytic' + 'heap'")

    def test_misses_list_the_directory_once(self, tmp_path, monkeypatch):
        """A run of misses scans the cache directory once, and still
        reports entries under other backends or engines: ones on disk
        before the scan (the legacy engine-less layout too) and ones this
        cache stored after it."""
        import dataclasses
        import os

        from repro.runtime.cache import ResumeCache

        scans = []
        real_scandir = os.scandir

        def counting_scandir(path="."):
            if str(path) == str(tmp_path):
                scans.append(path)
            return real_scandir(path)

        monkeypatch.setattr(os, "scandir", counting_scandir)
        specs = [dataclasses.replace(spec, backend="analytic")
                 for spec in single_kind_scenarios(
                     "Lab", loads=("Low", "High"), max_pairs_options=(1,),
                     origins=("A",), include_md_k255=False)]
        assert len(specs) >= 6
        cache = ResumeCache(tmp_path)
        stems = [cache.key(spec, 3, DURATION) for spec in specs]
        (tmp_path / f"{stems[0]}.density.heap.json").write_text("{}")
        (tmp_path / f"{stems[1]}.density.json").write_text("{}")
        reasons = [cache.load(spec, 3, DURATION)[1] for spec in specs]
        assert len(scans) == 1
        assert reasons[0] == ("cache entry exists only under 'density' + "
                              "'heap', this run resolves to 'analytic' + "
                              "'heap'")
        assert reasons[1] == ("cache entry exists only under 'density', "
                              "this run resolves to 'analytic' + 'heap'")
        assert reasons[2:] == [None] * (len(specs) - 2)

        outcome = SweepRunner(specs[2:3], DURATION).run().outcomes[0]
        cache.store(specs[2], outcome, DURATION)
        density = dataclasses.replace(specs[2], backend="density")
        assert cache.load(density, outcome.seed, DURATION) == (None, (
            "cache entry exists only under 'analytic' + 'heap', this run "
            "resolves to 'density' + 'heap'"))
        assert len(scans) == 1

    def test_miss_is_keyed_once(self, tmp_path, monkeypatch):
        """A miss and the store after it hash the scenario identity once."""
        from repro.runtime.cache import ResumeCache

        calls = []
        real_key = ResumeCache.key

        def counting_key(spec, seed, duration, configs=None):
            calls.append(spec.name)
            return real_key(spec, seed, duration, configs)

        monkeypatch.setattr(ResumeCache, "key", staticmethod(counting_key))
        specs = small_grid(2)
        self.run_with_report(specs, tmp_path)
        assert sorted(calls) == sorted(spec.name for spec in specs)
        calls.clear()
        _, report = self.run_with_report(specs, tmp_path)
        assert report.counts()["hits"] == 2
        assert sorted(calls) == sorted(spec.name for spec in specs)

    def test_report_resets_between_runs(self, tmp_path):
        specs = small_grid(1)
        runner = SweepRunner(specs, DURATION, master_seed=3,
                             cache_dir=tmp_path)
        runner.run()
        assert runner.cache_report().counts()["misses"] == 1
        runner.run()
        assert runner.cache_report().counts() == \
            {"hits": 1, "misses": 0, "skips": 0}


class TestSharedBackends:
    """A sweep runs every scenario on backends it owns: the FEU table of
    each distinct hardware physics key is built once per process, whatever
    the ``batch_size`` (scenarios differing only in classical frame loss
    share one), and results equal a serial sweep."""

    @staticmethod
    def record_table_builds(monkeypatch, log):
        from repro.backends import PhysicsBackend

        real = PhysicsBackend.feu_table

        def recording(backend, scenario, alphas):
            log((id(backend), scenario.physics_key,
                 (scenario.physics_key, alphas) not in backend._feu_tables))
            return real(backend, scenario, alphas)

        monkeypatch.setattr(PhysicsBackend, "feu_table", recording)

    def test_in_process_sweep_builds_one_table_per_physics(self,
                                                           monkeypatch):
        from repro.backends.analytic import AnalyticAttemptModel
        from repro.core.messages import RequestType

        specs = paper_grid(attempt_batch_size=100, backend="analytic")
        physics = {spec.scenario.physics_key for spec in specs}
        assert len(physics) == 2 < len({spec.scenario for spec in specs})
        calls = []
        self.record_table_builds(monkeypatch, calls.append)
        delivered = []
        real_delivered = AnalyticAttemptModel.delivered_fidelity

        def counting_delivered(model, request_type):
            delivered.append(request_type)
            return real_delivered(model, request_type)

        monkeypatch.setattr(AnalyticAttemptModel, "delivered_fidelity",
                            counting_delivered)
        batched = SweepRunner(specs, 0.05, master_seed=12345,
                              batch_size=64).run()
        built = [key for _, key, fresh in calls if fresh]
        assert len({call[0] for call in calls}) == 1
        assert len(built) == len(set(built)) == len(physics)
        # Every scenario asks for F_min 0.64, and the highest alpha that
        # meets the heralded bound also meets the delivered one: one
        # delivered fidelity per physics key and request type.
        assert len(delivered) == len(physics) * len(RequestType)
        monkeypatch.undo()
        serial = SweepRunner(specs, 0.05, master_seed=12345).run()
        assert batched.outcomes == serial.outcomes

    def test_pool_workers_build_each_table_once_per_process(
            self, monkeypatch, tmp_path):
        import os

        specs = paper_grid(attempt_batch_size=100, backend="analytic")
        keys = list(dict.fromkeys(spec.scenario.physics_key
                                  for spec in specs))

        def log(call):
            _, key, fresh = call
            with open(tmp_path / f"{os.getpid()}.log", "a") as out:
                out.write(f"{keys.index(key)} {int(fresh)}\n")

        # Worker processes fork after the patch, so they record too.
        self.record_table_builds(monkeypatch, log)
        pooled = SweepRunner(specs, 0.05, master_seed=12345, workers=2,
                             batch_size=64, start_method="fork").run()
        logs = list(tmp_path.glob("*.log"))
        assert logs and str(os.getpid()) not in {log.stem for log in logs}
        for path in logs:
            calls = [tuple(map(int, line.split()))
                     for line in path.read_text().splitlines()]
            ran = {key for key, _ in calls}
            built = [key for key, fresh in calls if fresh]
            assert sorted(built) == sorted(ran), path.name
        monkeypatch.undo()
        serial = SweepRunner(specs, 0.05, master_seed=12345).run()
        assert pooled.outcomes == serial.outcomes


def analytic_grid(count: int) -> list[ScenarioSpec]:
    """First ``count`` analytic long-run scenarios (both hardware setups,
    so counts beyond one setup's 63 are available)."""
    specs = (single_kind_scenarios("Lab", backend="analytic")
             + single_kind_scenarios("QL2020", backend="analytic"))
    assert len(specs) >= count
    return specs[:count]


class TestBatchSize:
    """``batch_size`` is vestigial: results are the same for every value
    (resume and failure isolation are parametrized over it above)."""

    @pytest.fixture(scope="class")
    def grid(self):
        specs = analytic_grid(6)
        # A density straggler among the analytic scenarios.
        density = ScenarioSpec(name="density_straggler",
                               scenario=specs[0].scenario,
                               workload=specs[0].workload, backend="density")
        return specs + [density]

    @pytest.fixture(scope="class")
    def serial(self, grid):
        return SweepRunner(grid, DURATION, master_seed=77).run()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("batch_size", [1, 3, 64])
    def test_results_do_not_depend_on_batch_size(self, grid, serial,
                                                 workers, batch_size):
        result = SweepRunner(grid, DURATION, master_seed=77, workers=workers,
                             batch_size=batch_size).run()
        assert result.outcomes == serial.outcomes
        assert all(outcome.ok for outcome in result.outcomes)
        assert all(outcome.cohort is None for outcome in result.outcomes)


class TestSoloEquivalence:
    """A scenario's sweep outcome is its standalone run: sharing backends
    across a sweep changes no result."""

    @pytest.mark.parametrize("size", [1, 7, 64])
    def test_sweep_outcomes_equal_standalone_runs(self, size):
        specs = analytic_grid(size)
        runner = SweepRunner(specs, DURATION, master_seed=9000,
                             batch_size=64)
        result = runner.run()
        for spec, seed, outcome in zip(specs, runner.scenario_seeds(),
                                       result.outcomes):
            reference = spec.run(DURATION, seed=seed)
            assert outcome.ok
            assert outcome.summary == reference.summary
            assert outcome.events_processed == reference.events_processed
            assert outcome.requests_issued == reference.requests_issued

    @pytest.mark.parametrize("steps", [2, 3, 8])
    def test_stepped_advance_equals_one_run(self, steps):
        from repro.runtime.runner import SimulationRun

        for spec, duration in zip(analytic_grid(3), (0.07, 0.31, 0.2)):
            reference = spec.run(duration, seed=5)
            run = SimulationRun(spec.scenario, spec.workload,
                                scheduler=spec.scheduler, seed=5,
                                attempt_batch_size=spec.attempt_batch_size,
                                backend=spec.backend)
            run.start()
            for step in range(1, steps):
                run.advance_to(duration * step / steps)
            run.advance_to(duration)
            result = run.finalize(duration)
            assert result.summary == reference.summary
            assert result.events_processed == reference.events_processed
            assert result.requests_issued == reference.requests_issued

    @pytest.mark.parametrize("backend", ["analytic", "density"])
    def test_warm_backend_reproduces_a_fresh_one(self, backend):
        from repro.backends import get_backend

        specs = [ScenarioSpec(name=spec.name, scenario=spec.scenario,
                              workload=spec.workload,
                              attempt_batch_size=spec.attempt_batch_size,
                              backend=backend)
                 for spec in analytic_grid(2)]
        shared = get_backend(backend)
        for spec in specs + specs:
            warm = spec.run(DURATION, seed=6, backend=shared)
            fresh = spec.run(DURATION, seed=6)
            assert warm.summary == fresh.summary
            assert warm.events_processed == fresh.events_processed
