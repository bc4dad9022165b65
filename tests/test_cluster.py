"""Tests for the distributed sweep subsystem (``repro.cluster``).

Covers the shard planner (determinism, coverage, cost calibration), the
three result sinks (round-trips and cross-format merge equality, crash
tolerance), the coordinator/worker lease protocol (work stealing, stale
lease reclaim after a simulated worker death) and — the acceptance bar —
field-for-field equivalence between a serial ``SweepRunner`` run and a
sharded run with 3 shards, stealing and a mid-grid crash, under both the
``density`` and ``analytic`` backends.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.cluster import (
    ClusterCoordinator,
    ClusterPlan,
    RecordedCostModel,
    ShardPlan,
    StaticCostModel,
    load_results,
    merge_results,
    open_sink,
    plan_shards,
    run_sharded_sweep,
)
from repro.cluster.coordinator import done_path, lease_path
from repro.cluster.sinks import SinkError, part_name
from repro.cluster.worker import ClusterWorker
from repro.runtime import (
    ScenarioSpec,
    SweepResult,
    SweepRunner,
    run_sweep,
    single_kind_scenarios,
)

DURATION = 0.05


def grid(count=None, backend=None, loads=("Low", "High"),
         max_pairs_options=(1, 3)) -> list[ScenarioSpec]:
    specs = single_kind_scenarios(
        "Lab", kinds=("NL", "CK", "MD"), loads=loads,
        max_pairs_options=max_pairs_options, origins=("A", "B"),
        include_md_k255=False, attempt_batch_size=40, backend=backend)
    return specs if count is None else specs[:count]


def backdate_stale_leases(cluster_dir, seconds=3600.0) -> int:
    """Age every lease of an unfinished scenario past any timeout."""
    past = time.time() - seconds
    aged = 0
    for lease in (cluster_dir / "tasks").glob("*.lease"):
        index = int(lease.stem)
        if not done_path(cluster_dir, index).exists():
            os.utime(lease, (past, past))
            aged += 1
    return aged


def drive_workers(coordinator, workers, max_rounds=500) -> None:
    """Round-robin workers' step() until the grid completes.

    When nobody can make progress (all remaining work is behind the crashed
    worker's live lease), age the stale leases so the timeout "passes"
    without wall-clock sleeping.
    """
    for _ in range(max_rounds):
        progressed = False
        for worker in workers:
            if worker.step() is not None:
                progressed = True
        if coordinator.is_complete():
            return
        if not progressed:
            assert backdate_stale_leases(coordinator.cluster_dir) > 0, \
                "no progress and no stale lease to reclaim: deadlock"
    raise AssertionError("grid did not complete")


# --------------------------------------------------------------------------- #
# Shard planner
# --------------------------------------------------------------------------- #
class TestShardPlanner:
    def test_plan_covers_every_scenario_exactly_once(self):
        specs = grid()
        plan = plan_shards(specs, 3, DURATION)
        seen = sorted(index for shard in plan.shards for index in shard)
        assert seen == list(range(len(specs)))
        assert plan.num_shards == 3
        assert len(plan.scenario_costs) == len(specs)

    def test_plan_is_deterministic(self):
        specs = grid()
        first = plan_shards(specs, 4, DURATION)
        second = plan_shards(specs, 4, DURATION)
        assert first.shards == second.shards
        assert first.shard_costs == second.shard_costs

    def test_plan_balances_heterogeneous_costs(self):
        # The MD k3 scenarios are much costlier than NL k1 under the static
        # model; LPT must keep the shard cost spread narrow.
        specs = grid()
        plan = plan_shards(specs, 3, DURATION)
        assert max(plan.shard_costs) <= 1.5 * min(plan.shard_costs)

    def test_more_shards_than_scenarios_leaves_empty_shards(self):
        specs = grid(count=2)
        plan = plan_shards(specs, 5, DURATION)
        assert plan.num_scenarios == 2
        assert sum(1 for shard in plan.shards if not shard) == 3

    def test_shards_are_ordered_costliest_first(self):
        specs = grid()
        plan = plan_shards(specs, 3, DURATION)
        for shard in plan.shards:
            costs = [plan.scenario_costs[index] for index in shard]
            assert costs == sorted(costs, reverse=True)

    def test_plan_round_trips_through_json(self):
        plan = plan_shards(grid(), 3, DURATION)
        again = ShardPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert again == plan

    def test_static_model_ranks_k255_and_density_costlier(self):
        model = StaticCostModel()
        k255 = single_kind_scenarios(
            "Lab", kinds=("MD",), loads=("High",), max_pairs_options=(255,),
            origins=("A",), include_md_k255=False, backend="analytic")[0]
        k1 = single_kind_scenarios(
            "Lab", kinds=("MD",), loads=("High",), max_pairs_options=(1,),
            origins=("A",), include_md_k255=False, backend="analytic")[0]
        assert model.estimate(k255, 1.0) > 10 * model.estimate(k1, 1.0)
        dense = single_kind_scenarios(
            "Lab", kinds=("MD",), loads=("High",), max_pairs_options=(1,),
            origins=("A",), include_md_k255=False, backend="density")[0]
        assert model.estimate(dense, 1.0) > model.estimate(k1, 1.0)

    def test_recorded_model_persists_and_reloads(self, tmp_path):
        specs = grid(count=4, backend="analytic")
        result = run_sweep(specs, DURATION, master_seed=3)
        model = RecordedCostModel.from_results([result])
        path = model.save(tmp_path / "cost_model.json")
        again = RecordedCostModel.load(path)
        assert again.observations() == model.observations()
        for spec in specs:
            assert again.estimate(spec, 2.0) == model.estimate(spec, 2.0)
        # Best-effort loading: absent -> None, corrupt -> None (planning
        # must survive a torn cost model).
        assert RecordedCostModel.load_if_present(tmp_path / "nope.json") is None
        path.write_text("{torn")
        assert RecordedCostModel.load_if_present(path) is None

    def test_recorded_model_bounds_its_history(self):
        model = RecordedCostModel()
        specs = grid(count=1, backend="analytic")
        result = run_sweep(specs, DURATION, master_seed=3)
        for _ in range(3 * RecordedCostModel.MAX_OBSERVATIONS_PER_KEY):
            model.observe(result.outcomes[0])
        assert model.observations() == RecordedCostModel.MAX_OBSERVATIONS_PER_KEY

    def test_coordinator_autoloads_and_records_cost_model(self, tmp_path):
        specs = grid(count=4, backend="analytic")
        first = ClusterCoordinator(specs, DURATION, tmp_path / "a",
                                   master_seed=77, num_shards=2)
        assert first.effective_cost_model() is None  # nothing persisted yet
        result = first.run_local()
        path = first.record_costs(result)  # idempotent wrt run_local's own
        assert path == first.cost_model_path() and path.exists()

        # A later coordinator on the same directory plans from the
        # calibrated model automatically.
        second = ClusterCoordinator(specs, DURATION, tmp_path / "a",
                                    master_seed=77, num_shards=2)
        model = second.effective_cost_model()
        assert isinstance(model, RecordedCostModel)
        assert model.observations() >= 4
        for spec, outcome in zip(specs, result.outcomes):
            assert model.recorded_rate(spec) is not None
        # With a shared cache dir, the model lives there instead — shared
        # across every sweep using that cache.
        cached = ClusterCoordinator(specs, DURATION, tmp_path / "b",
                                    master_seed=77, num_shards=2,
                                    cache_dir=tmp_path / "cache")
        assert cached.cost_model_path().parent == tmp_path / "cache"
        # An all-from-cache merge yields no usable observation.
        assert RecordedCostModel().calibrate(result) >= 4
        for outcome in result.outcomes:
            outcome.from_cache = True
        assert first.record_costs(result) is None

    def test_recorded_model_calibrates_from_prior_sweeps(self):
        specs = grid(count=4, backend="analytic")
        result = run_sweep(specs, DURATION, master_seed=3)
        model = RecordedCostModel.from_results([result])
        assert model.observations() == 4
        for spec, outcome in zip(specs, result.outcomes):
            # Recorded rate scales linearly with the planned duration.
            assert model.estimate(spec, 2.0) == pytest.approx(
                2.0 * outcome.wall_time / DURATION)
        # Unseen scenario: falls back to the (rescaled) static heuristic.
        unseen = grid(backend="analytic")[-1]
        assert unseen.name not in {spec.name for spec in specs}
        assert model.estimate(unseen, 2.0) > 0
        # Cached outcomes carry disk-read wall-clock, not simulation cost.
        cached = result.outcomes[0]
        cached.from_cache = True
        assert not model.observe(cached)


# --------------------------------------------------------------------------- #
# Sinks
# --------------------------------------------------------------------------- #
class TestSinks:
    @pytest.fixture(scope="class")
    def outcomes(self):
        specs = grid(count=3, backend="analytic")
        result = run_sweep(specs, DURATION, master_seed=11)
        return result

    def sink_path(self, tmp_path, kind):
        return tmp_path / part_name(kind, "w0")

    @pytest.mark.parametrize("kind", ["json", "jsonl", "columnar"])
    def test_round_trip(self, outcomes, tmp_path, kind):
        path = self.sink_path(tmp_path, kind)
        sink = open_sink(kind, path, master_seed=outcomes.master_seed,
                         duration=outcomes.duration)
        for index, outcome in enumerate(outcomes.outcomes):
            sink.write(index, outcome)
        sink.close()
        assert [o for _, o in load_results(path)] == outcomes.outcomes
        merged = merge_results([path],
                               expected_count=len(outcomes.outcomes))
        assert merged.outcomes == outcomes.outcomes
        assert merged.master_seed == outcomes.master_seed
        assert merged.duration == outcomes.duration

    def test_all_formats_merge_identically(self, outcomes, tmp_path):
        merged = {}
        for kind in ("json", "jsonl", "columnar"):
            path = self.sink_path(tmp_path / kind, kind)
            path.parent.mkdir()
            sink = open_sink(kind, path, master_seed=outcomes.master_seed,
                             duration=outcomes.duration)
            for index, outcome in enumerate(outcomes.outcomes):
                sink.write(index, outcome)
            sink.close()
            merged[kind] = merge_results([path])
        assert merged["json"] == merged["jsonl"] == merged["columnar"]

    def test_mixed_format_parts_merge(self, outcomes, tmp_path):
        # Scenario 0+1 through JSONL, scenario 2 through columnar — the
        # merge does not care which worker used which sink.
        jsonl = self.sink_path(tmp_path, "jsonl")
        sink = open_sink("jsonl", jsonl, master_seed=outcomes.master_seed,
                         duration=outcomes.duration)
        sink.write(0, outcomes.outcomes[0])
        sink.write(1, outcomes.outcomes[1])
        sink.close()
        columnar = tmp_path / part_name("columnar", "w1")
        sink = open_sink("columnar", columnar,
                         master_seed=outcomes.master_seed,
                         duration=outcomes.duration)
        sink.write(2, outcomes.outcomes[2])
        sink.close()
        merged = merge_results([jsonl, columnar], expected_count=3)
        assert merged.outcomes == outcomes.outcomes

    def test_canonical_sweep_result_file_is_mergeable(self, outcomes,
                                                      tmp_path):
        # The pre-cluster `SweepResult.save` format loads as a part with
        # indices implied by position.
        path = tmp_path / "serial.json"
        outcomes.save(path)
        merged = merge_results([path], expected_count=len(outcomes.outcomes))
        assert merged.outcomes == outcomes.outcomes

    def test_jsonl_tolerates_truncated_tail(self, outcomes, tmp_path):
        path = self.sink_path(tmp_path, "jsonl")
        sink = open_sink("jsonl", path, master_seed=1, duration=DURATION)
        sink.write(0, outcomes.outcomes[0])
        sink.write(1, outcomes.outcomes[1])
        sink.close()
        text = path.read_text()
        path.write_text(text[:-40])  # crash mid-write of the last record
        loaded = load_results(path)
        assert [index for index, _ in loaded] == [0]

    def test_jsonl_resume_repairs_torn_tail(self, outcomes, tmp_path):
        # A worker restarting onto its own crashed part must not append to
        # the torn trailing line (that would fuse two records into one
        # corrupt line and lose the re-executed scenario).
        path = self.sink_path(tmp_path, "jsonl")
        sink = open_sink("jsonl", path, master_seed=outcomes.master_seed,
                         duration=outcomes.duration)
        sink.write(0, outcomes.outcomes[0])
        sink.write(1, outcomes.outcomes[1])
        sink.close()
        path.write_text(path.read_text()[:-40])  # crash tore record 1
        resumed = open_sink("jsonl", path, master_seed=outcomes.master_seed,
                            duration=outcomes.duration)
        resumed.write(1, outcomes.outcomes[1])
        resumed.close()
        loaded = load_results(path)
        assert [index for index, _ in loaded] == [0, 1]
        assert [o for _, o in loaded] == outcomes.outcomes[:2]

    def test_failed_outcome_survives_every_format(self, tmp_path):
        from repro.core.messages import Priority
        from repro.hardware.parameters import lab_scenario
        from repro.runtime import WorkloadSpec

        broken = ScenarioSpec(
            name="broken", scenario=lab_scenario(),
            workload=(WorkloadSpec(priority=Priority.MD, load_fraction=0.9),),
            scheduler="NoSuchScheduler")
        result = run_sweep([broken], DURATION, master_seed=2)
        assert not result.outcomes[0].ok
        for kind in ("json", "jsonl", "columnar"):
            path = self.sink_path(tmp_path / kind, kind)
            path.parent.mkdir()
            sink = open_sink(kind, path, master_seed=2, duration=DURATION)
            sink.write(0, result.outcomes[0])
            sink.close()
            (loaded,) = [o for _, o in load_results(path)]
            assert loaded == result.outcomes[0]
            assert "NoSuchScheduler" in loaded.error

    def test_columnar_flushes_append_only_segments(self, outcomes, tmp_path):
        # Each flush seals a new segment; earlier segments are never
        # rewritten (the v1 format rewrote every column on every flush).
        path = tmp_path / part_name("columnar", "w0")
        sink = open_sink("columnar", path, master_seed=outcomes.master_seed,
                         duration=outcomes.duration)
        sink.write(0, outcomes.outcomes[0])  # flush_every=1: seals seg 0
        first_segment = path / "seg-000000" / "index.json"
        before = first_segment.read_bytes()
        before_mtime = first_segment.stat().st_mtime_ns
        sink.write(1, outcomes.outcomes[1])
        sink.write(2, outcomes.outcomes[2])
        sink.close()
        assert first_segment.read_bytes() == before
        assert first_segment.stat().st_mtime_ns == before_mtime
        segments = sorted(p.name for p in path.iterdir() if p.is_dir())
        assert segments == ["seg-000000", "seg-000001", "seg-000002"]
        manifest = json.loads((path / "manifest.json").read_text())
        assert [s["rows"] for s in manifest["segments"]] == [1, 1, 1]
        assert [o for _, o in load_results(path)] == outcomes.outcomes

    def test_columnar_resume_appends_new_segments(self, outcomes, tmp_path):
        path = tmp_path / part_name("columnar", "w0")
        sink = open_sink("columnar", path, master_seed=outcomes.master_seed,
                         duration=outcomes.duration)
        sink.write(0, outcomes.outcomes[0])
        sink.close()
        # A restarted worker resumes the same part: sealed segments are
        # adopted, new rows land in fresh segments.
        resumed = open_sink("columnar", path,
                            master_seed=outcomes.master_seed,
                            duration=outcomes.duration)
        resumed.write(1, outcomes.outcomes[1])
        resumed.write(2, outcomes.outcomes[2])
        resumed.close()
        assert [o for _, o in load_results(path)] == outcomes.outcomes
        merged = merge_results([path], expected_count=3)
        assert merged.outcomes == outcomes.outcomes

    def test_columnar_orphaned_segment_is_ignored(self, outcomes, tmp_path):
        # A crash between sealing a segment's columns and updating the
        # manifest leaves an unlisted directory: merge-on-read skips it.
        path = tmp_path / part_name("columnar", "w0")
        sink = open_sink("columnar", path, master_seed=outcomes.master_seed,
                         duration=outcomes.duration)
        sink.write(0, outcomes.outcomes[0])
        sink.close()
        orphan = path / "seg-000001"
        orphan.mkdir()
        (orphan / "index.json").write_text("[99]")
        loaded = load_results(path)
        assert [index for index, _ in loaded] == [0]

    @pytest.mark.parametrize("manifest", [
        # A v1 part: one implicit ``columns/`` dir, no segment list.
        {"format": "sweep-columnar/v1", "rows": 1, "columns": ["index"]},
        # A v2 format tag without the segment list.
        {"format": "sweep-columnar/v2", "rows": 1, "columns": ["index"]},
    ])
    def test_columnar_part_without_v2_manifest_rejected(
            self, outcomes, tmp_path, manifest):
        from repro.runtime.cache import atomic_write_text

        path = tmp_path / part_name("columnar", "w0")
        (path / "columns").mkdir(parents=True)
        atomic_write_text(path / "columns" / "index.json", "[0]")
        atomic_write_text(path / "manifest.json", json.dumps({
            **manifest, "master_seed": outcomes.master_seed,
            "duration": outcomes.duration}))
        with pytest.raises(SinkError, match="sweep-columnar/v2"):
            load_results(path)
        with pytest.raises(SinkError, match="sweep-columnar/v2"):
            merge_results([path], expected_count=1)
        with pytest.raises(SinkError, match="sweep-columnar/v2"):
            open_sink("columnar", path, master_seed=outcomes.master_seed,
                      duration=outcomes.duration)

    def test_merge_detects_missing_scenarios(self, outcomes, tmp_path):
        path = self.sink_path(tmp_path, "jsonl")
        sink = open_sink("jsonl", path, master_seed=outcomes.master_seed,
                         duration=outcomes.duration)
        sink.write(0, outcomes.outcomes[0])
        sink.close()
        with pytest.raises(SinkError, match="missing"):
            merge_results([path], expected_count=3)

    def test_merge_rejects_diverging_duplicates(self, outcomes, tmp_path):
        first = self.sink_path(tmp_path, "jsonl")
        sink = open_sink("jsonl", first, master_seed=outcomes.master_seed,
                         duration=outcomes.duration)
        sink.write(0, outcomes.outcomes[0])
        sink.close()
        second = tmp_path / part_name("jsonl", "w1")
        sink = open_sink("jsonl", second, master_seed=outcomes.master_seed,
                         duration=outcomes.duration)
        sink.write(0, outcomes.outcomes[1])  # different result, same index
        sink.close()
        with pytest.raises(SinkError, match="determinism"):
            merge_results([first, second])

    def test_merge_rejects_mismatched_sweeps(self, outcomes, tmp_path):
        path = self.sink_path(tmp_path, "jsonl")
        sink = open_sink("jsonl", path, master_seed=outcomes.master_seed,
                         duration=outcomes.duration)
        sink.write(0, outcomes.outcomes[0])
        sink.close()
        with pytest.raises(SinkError, match="master_seed"):
            merge_results([path], master_seed=outcomes.master_seed + 1)


# --------------------------------------------------------------------------- #
# Cluster execution
# --------------------------------------------------------------------------- #
class TestClusterProtocol:
    def make_cluster(self, tmp_path, specs, num_shards=3, sink="jsonl",
                     **kwargs):
        coordinator = ClusterCoordinator(
            specs, DURATION, tmp_path / "cluster", master_seed=77,
            num_shards=num_shards, sink=sink, lease_timeout=120.0, **kwargs)
        coordinator.write_plan()
        return coordinator

    def test_plan_file_round_trips(self, tmp_path):
        specs = grid(count=4, backend="analytic")
        coordinator = self.make_cluster(tmp_path, specs)
        plan = ClusterPlan.load(coordinator.cluster_dir)
        assert plan.specs == specs
        assert plan.shard_plan == coordinator.plan()
        assert plan.seeds == SweepRunner(specs, DURATION,
                                         master_seed=77).scenario_seeds()

    def test_write_plan_refuses_a_different_sweeps_state(self, tmp_path):
        specs = grid(count=4, backend="analytic")
        coordinator = self.make_cluster(tmp_path, specs)
        ClusterWorker(coordinator.cluster_dir, "w", shard=0).run()
        assert coordinator.is_complete()
        # Re-planning the identical sweep resumes (done markers stay valid).
        again = ClusterCoordinator(
            specs, DURATION, tmp_path / "cluster", master_seed=77,
            num_shards=3, sink="jsonl", lease_timeout=120.0)
        again.write_plan()
        assert again.is_complete()
        # A *different* sweep into the same directory must not silently
        # inherit the old done markers and hand back the old results.
        other = ClusterCoordinator(
            specs, 2 * DURATION, tmp_path / "cluster", master_seed=77,
            num_shards=3, sink="jsonl", lease_timeout=120.0)
        with pytest.raises(RuntimeError, match="different sweep plan"):
            other.write_plan()
        other.write_plan(reset=True)
        assert not other.is_complete()
        assert other.result_parts() == []

    def test_replan_resumes_despite_cost_model_drift(self, tmp_path):
        # A recorded cost model changes shard costs between runs; that must
        # not be mistaken for a "different sweep" (it would force --reset
        # and discard completed work).
        specs = grid(count=4, backend="analytic")
        coordinator = self.make_cluster(tmp_path, specs)
        ClusterWorker(coordinator.cluster_dir, "w", shard=0).run()
        result = coordinator.merge()
        assert coordinator.record_costs(result) is not None

        resumed = ClusterCoordinator(
            specs, DURATION, tmp_path / "cluster", master_seed=77,
            num_shards=3, sink="jsonl", lease_timeout=120.0)
        model = resumed.effective_cost_model()
        assert model is not None and model.observations() >= 4
        assert resumed.plan().scenario_costs != coordinator.plan().scenario_costs
        resumed.write_plan()  # same sweep identity: resumes, no reset needed
        assert resumed.is_complete()
        assert resumed.merge().outcomes == result.outcomes

    def test_single_worker_drains_all_shards(self, tmp_path):
        specs = grid(count=6, backend="analytic")
        coordinator = self.make_cluster(tmp_path, specs)
        worker = ClusterWorker(coordinator.cluster_dir, "solo", shard=0)
        executed = worker.run()
        assert executed == 6  # stole shards 1 and 2 after finishing shard 0
        assert coordinator.is_complete()
        merged = coordinator.merge()
        serial = SweepRunner(specs, DURATION, master_seed=77).run()
        assert merged.outcomes == serial.outcomes

    def test_no_steal_worker_stays_in_its_shard(self, tmp_path):
        specs = grid(count=6, backend="analytic")
        coordinator = self.make_cluster(tmp_path, specs)
        worker = ClusterWorker(coordinator.cluster_dir, "homebody",
                               shard=1, steal=False)
        worker.run(wait_for_stragglers=False)
        own = set(coordinator.plan().shards[1])
        assert set(worker.executed) == own
        assert not coordinator.is_complete()

    def test_thieves_rob_the_slowest_shard_first(self, tmp_path):
        specs = grid(backend="analytic")
        coordinator = self.make_cluster(tmp_path, specs, num_shards=3)
        plan = coordinator.plan()
        # Finish shards 1 and 2 entirely, leaving shard 0 untouched; a
        # fresh thief must then steal from shard 0 (the only, hence
        # slowest, victim) starting at the cheap tail.
        for shard in (1, 2):
            ClusterWorker(coordinator.cluster_dir, f"w{shard}", shard=shard,
                          steal=False).run(wait_for_stragglers=False)
        thief = ClusterWorker(coordinator.cluster_dir, "thief", shard=1)
        stolen = thief.step()
        assert stolen == plan.shards[0][-1]  # cheapest remaining of shard 0

    def test_crashed_lease_is_reclaimed(self, tmp_path):
        specs = grid(count=6, backend="analytic")
        coordinator = self.make_cluster(tmp_path, specs)
        victim = ClusterWorker(coordinator.cluster_dir, "victim", shard=0,
                               crash_after_claims=1)
        assert victim.step() is None and victim.crashed
        crashed_index = coordinator.plan().shards[0][0]
        assert lease_path(coordinator.cluster_dir, crashed_index).exists()
        rescuer = ClusterWorker(coordinator.cluster_dir, "rescuer", shard=0)
        drive_workers(coordinator, [rescuer])
        assert crashed_index in rescuer.executed
        merged = coordinator.merge()
        serial = SweepRunner(specs, DURATION, master_seed=77).run()
        assert merged.outcomes == serial.outcomes

    def test_live_lease_is_not_stolen(self, tmp_path):
        specs = grid(count=6, backend="analytic")
        coordinator = self.make_cluster(tmp_path, specs)
        holder = ClusterWorker(coordinator.cluster_dir, "holder", shard=0,
                               crash_after_claims=1)
        holder.step()  # holds a live (fresh) lease on shard 0's head
        held = coordinator.plan().shards[0][0]
        other = ClusterWorker(coordinator.cluster_dir, "other", shard=0)
        executed = other.run(wait_for_stragglers=False)
        assert held not in other.executed
        assert executed == len(specs) - 1

    def test_status_reports_progress(self, tmp_path):
        specs = grid(count=6, backend="analytic")
        coordinator = self.make_cluster(tmp_path, specs)
        assert coordinator.status()["total"]["pending"] == 6
        ClusterWorker(coordinator.cluster_dir, "w", shard=0).run()
        status = coordinator.status()
        assert status["total"]["done"] == 6
        assert coordinator.is_complete()

    def test_workers_share_the_resume_cache(self, tmp_path):
        specs = grid(count=4, backend="analytic")
        cache_dir = tmp_path / "cache"
        serial = run_sweep(specs, DURATION, master_seed=77,
                           cache_dir=cache_dir)
        coordinator = self.make_cluster(tmp_path, specs,
                                        cache_dir=cache_dir)
        worker = ClusterWorker(coordinator.cluster_dir, "w", shard=0)
        worker.run()
        assert worker.cache_report.counts()["hits"] == 4
        merged = coordinator.merge()
        assert merged.outcomes == serial.outcomes


class TestSerialShardedEquivalence:
    """Acceptance criterion: ≥24 scenarios, ≥3 shards, stealing enabled,
    one simulated worker crash mid-grid — merged result field-for-field
    identical to the serial ``SweepRunner``, under both backends."""

    @pytest.mark.parametrize("backend,sink", [("density", "jsonl"),
                                              ("analytic", "columnar")])
    def test_sharded_crashy_sweep_equals_serial(self, tmp_path, backend,
                                                sink):
        specs = grid(backend=backend)
        assert len(specs) >= 24
        serial = SweepRunner(specs, DURATION, master_seed=77).run()

        coordinator = ClusterCoordinator(
            specs, DURATION, tmp_path / "cluster", master_seed=77,
            num_shards=3, sink=sink, lease_timeout=120.0)
        coordinator.write_plan()
        workers = [
            ClusterWorker(coordinator.cluster_dir, "w0", shard=0,
                          crash_after_claims=3),
            ClusterWorker(coordinator.cluster_dir, "w1", shard=1),
            ClusterWorker(coordinator.cluster_dir, "w2", shard=2),
        ]
        drive_workers(coordinator, workers)
        for worker in workers:
            worker.close()

        assert workers[0].crashed  # the simulated death actually happened
        merged = coordinator.merge()
        # Field-for-field: dataclass equality covers every compared field
        # of every outcome (summaries, seeds, event counts, errors, ...).
        assert merged.master_seed == serial.master_seed
        assert merged.duration == serial.duration
        assert merged.outcomes == serial.outcomes
        assert merged == serial
        # The survivors stole from the crashed worker's shard.
        shard0 = set(coordinator.plan().shards[0])
        stolen = shard0 & set(workers[1].executed + workers[2].executed)
        assert stolen

    def test_run_local_processes_match_serial(self, tmp_path):
        # The multiprocess convenience path (real worker processes through
        # the same protocol) on a smaller analytic grid.
        specs = grid(count=8, backend="analytic")
        serial = SweepRunner(specs, DURATION, master_seed=77).run()
        merged = run_sharded_sweep(specs, DURATION, tmp_path / "cluster",
                                   master_seed=77, num_shards=2)
        assert merged.outcomes == serial.outcomes
