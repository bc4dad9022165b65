"""Tests for the distributed sweep subsystem (``repro.cluster``).

Covers the round-robin shard layout and the plan document, the JSONL
result sink (round-trips, merge checks, crash tolerance, rejection of other
formats), the coordinator/worker lease protocol (work stealing, stale
lease reclaim after a simulated worker death) and — the acceptance bar —
field-for-field equivalence between a serial ``SweepRunner`` run and a
sharded run with 3 shards, stealing and a mid-grid crash, under both the
``density`` and ``analytic`` backends.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.cluster import (
    ClusterCoordinator,
    ClusterPlan,
    JsonlResultSink,
    LocalTransport,
    load_results,
    merge_results,
    run_sharded_sweep,
)
from repro.cluster.sinks import SinkError, part_name
from repro.cluster.worker import ClusterWorker
from repro.runtime import (
    ScenarioSpec,
    SweepRunner,
    run_sweep,
    single_kind_scenarios,
)
from repro.runtime.cache import CACHE_VERSION

from cluster_support import ManualClock, expire_leases

DURATION = 0.05


def grid(count=None, backend=None, loads=("Low", "High"),
         max_pairs_options=(1, 3)) -> list[ScenarioSpec]:
    specs = single_kind_scenarios(
        "Lab", kinds=("NL", "CK", "MD"), loads=loads,
        max_pairs_options=max_pairs_options, origins=("A", "B"),
        include_md_k255=False, attempt_batch_size=40, backend=backend)
    return specs if count is None else specs[:count]


def local(coordinator, clock=time.time) -> LocalTransport:
    """An in-process transport onto ``coordinator``'s state."""
    return LocalTransport(coordinator.state, clock)


def drive_workers(coordinator, workers, clock, max_rounds=500) -> None:
    """Round-robin workers' step() until the grid completes.

    When nobody can make progress (all remaining work is behind the crashed
    worker's live lease), step the coordinator's ``clock`` past the lease
    timeout instead of sleeping.
    """
    for _ in range(max_rounds):
        progressed = False
        for worker in workers:
            if worker.step() is not None:
                progressed = True
        if coordinator.is_complete():
            return
        if not progressed:
            assert expire_leases(coordinator, clock) > 0, \
                "no progress and no stale lease to reclaim: deadlock"
    raise AssertionError("grid did not complete")


# --------------------------------------------------------------------------- #
# Shard layout
# --------------------------------------------------------------------------- #
def plan_of(specs, num_shards, tmp_path) -> ClusterPlan:
    return ClusterCoordinator(specs, DURATION, tmp_path,
                              num_shards=num_shards).cluster_plan()


class TestShardLayout:
    @pytest.mark.parametrize("num_shards", [1, 3, 5])
    def test_round_robin_covers_every_scenario_once(self, num_shards,
                                                   tmp_path):
        specs = grid()
        plan = plan_of(specs, num_shards, tmp_path)
        shards = [list(plan.shard(shard_id))
                  for shard_id in range(num_shards)]
        assert sorted(index for shard in shards for index in shard) == \
            list(range(len(specs)))
        for shard_id, shard in enumerate(shards):
            # Shard s of n: s, s + n, s + 2n, ... in index order.
            assert shard == list(range(shard_id, len(specs), num_shards))
            assert all(plan.shard_of(index) == shard_id for index in shard)

    def test_more_shards_than_scenarios_leaves_empty_shards(self, tmp_path):
        plan = plan_of(grid(count=2), 5, tmp_path)
        assert [list(plan.shard(shard_id)) for shard_id in range(5)] == \
            [[0], [1], [], [], []]

    def test_plan_round_trips_through_json(self, tmp_path):
        plan = plan_of(grid(), 3, tmp_path)
        document = json.loads(json.dumps(plan.to_dict()))
        assert document["format"] == "cluster-plan/v3"
        assert document["num_shards"] == 3
        assert not {"shard_plan", "shard_costs",
                    "scenario_costs"} & set(document)
        assert ClusterPlan.from_dict(document) == plan

    def test_a_v2_plan_is_refused_until_replanned_with_reset(self, tmp_path):
        coordinator = ClusterCoordinator(grid(count=4), DURATION, tmp_path,
                                         num_shards=2)
        path = coordinator.write_plan()
        # The v2 layout: a stored shard list with estimated costs.
        v2 = {key: value for key, value in coordinator.written_plan.items()
              if key != "num_shards"}
        v2["format"] = "cluster-plan/v2"
        v2["shard_plan"] = {"num_shards": 2, "shards": [[0, 2], [1, 3]],
                            "shard_costs": [2.0, 2.0],
                            "scenario_costs": [1.0] * 4}
        path.write_text(json.dumps(v2))
        with pytest.raises(ValueError, match="'cluster-plan/v2'"):
            ClusterPlan.load(tmp_path)
        again = ClusterCoordinator(grid(count=4), DURATION, tmp_path,
                                   num_shards=2)
        with pytest.raises(RuntimeError, match="'cluster-plan/v2'"):
            again.write_plan()
        again.write_plan(reset=True)
        assert ClusterPlan.load(tmp_path).num_shards == 2

    @pytest.mark.parametrize("num_shards", [0, -1, 1.0, True])
    def test_plan_rejects_anything_but_a_positive_shard_count(
            self, num_shards, tmp_path):
        document = plan_of(grid(count=2), 1, tmp_path).to_dict()
        document["num_shards"] = num_shards
        with pytest.raises(ValueError, match="num_shards"):
            ClusterPlan.from_dict(document)


# --------------------------------------------------------------------------- #
# Sinks
# --------------------------------------------------------------------------- #
class TestSinks:
    @pytest.fixture(scope="class")
    def outcomes(self):
        specs = grid(count=3, backend="analytic")
        result = run_sweep(specs, DURATION, master_seed=11)
        return result

    def sink_path(self, tmp_path, worker_id="w0"):
        return tmp_path / part_name(worker_id)

    def write_part(self, path, entries, master_seed=11, duration=DURATION):
        sink = JsonlResultSink(path, master_seed=master_seed,
                               duration=duration)
        for index, outcome in entries:
            sink.write(index, outcome)
        sink.close()
        return path

    def test_header_line_names_the_sweep(self, outcomes, tmp_path):
        path = self.write_part(self.sink_path(tmp_path),
                               [(0, outcomes.outcomes[0])],
                               master_seed=outcomes.master_seed)
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"format": "sweep-jsonl/v1",
                          "cache_version": CACHE_VERSION,
                          "master_seed": outcomes.master_seed,
                          "duration": DURATION}

    def test_resuming_an_intact_part_keeps_one_header(self, outcomes,
                                                      tmp_path):
        path = self.sink_path(tmp_path)
        self.write_part(path, [(0, outcomes.outcomes[0])])
        self.write_part(path, [(1, outcomes.outcomes[1])])
        lines = path.read_text().splitlines()
        assert sum(1 for line in lines if "format" in json.loads(line)) == 1
        assert [index for index, _ in load_results(path)] == [0, 1]

    def test_resume_after_a_torn_header_writes_a_fresh_one(self, outcomes,
                                                           tmp_path):
        # A crash during the very first write leaves only part of the
        # header; the resumed sink truncates it and starts the part over.
        path = self.sink_path(tmp_path)
        self.write_part(path, [])
        path.write_text(path.read_text()[:10])
        self.write_part(path, [(0, outcomes.outcomes[0])])
        merged = merge_results([path], expected_count=1)
        assert merged.master_seed == 11
        assert merged.outcomes == outcomes.outcomes[:1]

    def test_corrupt_record_before_the_tail_is_an_error(self, outcomes,
                                                        tmp_path):
        # Only the trailing line can be torn by a crash; damage anywhere
        # else must fail loudly instead of dropping a scenario.
        path = self.write_part(self.sink_path(tmp_path),
                               [(0, outcomes.outcomes[0]),
                                (1, outcomes.outcomes[1])])
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-40]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SinkError, match="corrupt"):
            load_results(path)

    def test_blank_lines_are_skipped(self, outcomes, tmp_path):
        path = self.write_part(self.sink_path(tmp_path),
                               [(0, outcomes.outcomes[0]),
                                (1, outcomes.outcomes[1])])
        lines = path.read_text().splitlines()
        path.write_text("\n\n".join(lines) + "\n")
        assert [o for _, o in load_results(path)] == outcomes.outcomes[:2]

    @pytest.mark.parametrize("layout", [
        [[0, 1, 2]],
        [[0], [1], [2]],
        [[2, 0], [1]],
        [[1], [], [2, 0]],
    ], ids=["one-part", "part-per-index", "out-of-order", "empty-part"])
    def test_merge_does_not_depend_on_the_part_layout(self, outcomes,
                                                      tmp_path, layout):
        # Per-index records commute: any split of the grid over parts, in
        # any write order, merges to the serial result.
        paths = [self.write_part(self.sink_path(tmp_path, f"w{n}"),
                                 [(i, outcomes.outcomes[i]) for i in part],
                                 master_seed=outcomes.master_seed)
                 for n, part in enumerate(layout)]
        merged = merge_results(paths, expected_count=3)
        assert merged == outcomes

    def test_merge_accepts_agreeing_duplicates(self, outcomes, tmp_path):
        # A scenario double-executed around a stale lease takeover is
        # recorded twice with the same (deterministic) outcome.
        first = self.write_part(self.sink_path(tmp_path),
                                [(0, outcomes.outcomes[0]),
                                 (1, outcomes.outcomes[1])])
        second = self.write_part(self.sink_path(tmp_path, "w1"),
                                 [(1, outcomes.outcomes[1]),
                                  (2, outcomes.outcomes[2])])
        merged = merge_results([first, second], expected_count=3)
        assert merged.outcomes == outcomes.outcomes

    def test_merge_rejects_out_of_range_indices(self, outcomes, tmp_path):
        path = self.write_part(self.sink_path(tmp_path),
                               [(0, outcomes.outcomes[0]),
                                (5, outcomes.outcomes[1])])
        with pytest.raises(SinkError, match="out-of-range"):
            merge_results([path], expected_count=1)

    def test_merge_rejects_parts_of_different_durations(self, outcomes,
                                                        tmp_path):
        first = self.write_part(self.sink_path(tmp_path),
                                [(0, outcomes.outcomes[0])])
        second = self.write_part(self.sink_path(tmp_path, "w1"),
                                 [(1, outcomes.outcomes[1])],
                                 duration=2 * DURATION)
        with pytest.raises(SinkError, match="duration"):
            merge_results([first, second])

    def test_merge_of_no_parts_is_empty(self):
        assert merge_results([]).outcomes == []
        with pytest.raises(SinkError, match="missing 2"):
            merge_results([], expected_count=2)

    def test_a_saved_sweep_result_is_not_a_part(self, outcomes, tmp_path):
        # Only JSONL parts merge: a canonical SweepResult file passed by
        # mistake fails loudly instead of merging as an empty part.
        path = tmp_path / "result.json"
        outcomes.save(path)
        with pytest.raises(SinkError, match="corrupt"):
            merge_results([path])

    def test_round_trip(self, outcomes, tmp_path):
        path = self.sink_path(tmp_path)
        sink = JsonlResultSink(path, master_seed=outcomes.master_seed,
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

    def test_jsonl_tolerates_truncated_tail(self, outcomes, tmp_path):
        path = self.sink_path(tmp_path)
        sink = JsonlResultSink(path, master_seed=1, duration=DURATION)
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
        path = self.sink_path(tmp_path)
        sink = JsonlResultSink(path, master_seed=outcomes.master_seed,
                               duration=outcomes.duration)
        sink.write(0, outcomes.outcomes[0])
        sink.write(1, outcomes.outcomes[1])
        sink.close()
        path.write_text(path.read_text()[:-40])  # crash tore record 1
        resumed = JsonlResultSink(path, master_seed=outcomes.master_seed,
                                  duration=outcomes.duration)
        resumed.write(1, outcomes.outcomes[1])
        resumed.close()
        loaded = load_results(path)
        assert [index for index, _ in loaded] == [0, 1]
        assert [o for _, o in loaded] == outcomes.outcomes[:2]

    def test_failed_outcome_survives_the_sink(self, tmp_path):
        from repro.core.messages import Priority
        from repro.hardware.parameters import lab_scenario
        from repro.runtime import WorkloadSpec

        broken = ScenarioSpec(
            name="broken", scenario=lab_scenario(),
            workload=(WorkloadSpec(priority=Priority.MD, load_fraction=0.9),),
            scheduler="NoSuchScheduler")
        result = run_sweep([broken], DURATION, master_seed=2)
        assert not result.outcomes[0].ok
        path = self.sink_path(tmp_path)
        sink = JsonlResultSink(path, master_seed=2, duration=DURATION)
        sink.write(0, result.outcomes[0])
        sink.close()
        (loaded,) = [o for _, o in load_results(path)]
        assert loaded == result.outcomes[0]
        assert "NoSuchScheduler" in loaded.error

    def test_merge_detects_missing_scenarios(self, outcomes, tmp_path):
        path = self.sink_path(tmp_path)
        sink = JsonlResultSink(path, master_seed=outcomes.master_seed,
                               duration=outcomes.duration)
        sink.write(0, outcomes.outcomes[0])
        sink.close()
        with pytest.raises(SinkError, match="missing"):
            merge_results([path], expected_count=3)

    def test_merge_rejects_diverging_duplicates(self, outcomes, tmp_path):
        first = self.sink_path(tmp_path)
        sink = JsonlResultSink(first, master_seed=outcomes.master_seed,
                               duration=outcomes.duration)
        sink.write(0, outcomes.outcomes[0])
        sink.close()
        second = self.sink_path(tmp_path, "w1")
        sink = JsonlResultSink(second, master_seed=outcomes.master_seed,
                               duration=outcomes.duration)
        sink.write(0, outcomes.outcomes[1])  # different result, same index
        sink.close()
        with pytest.raises(SinkError, match="determinism"):
            merge_results([first, second])

    def test_merge_rejects_mismatched_sweeps(self, outcomes, tmp_path):
        path = self.sink_path(tmp_path)
        sink = JsonlResultSink(path, master_seed=outcomes.master_seed,
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
        assert plan.num_shards == coordinator.num_shards == 3
        assert plan.seeds == SweepRunner(specs, DURATION,
                                         master_seed=77).scenario_seeds()

    def test_write_plan_refuses_a_different_sweeps_state(self, tmp_path):
        specs = grid(count=4, backend="analytic")
        coordinator = self.make_cluster(tmp_path, specs)
        ClusterWorker(local(coordinator), "w", shard=0).run()
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

    def test_replan_resumes_despite_a_new_shard_layout(self, tmp_path):
        # The shard count is operational: re-planning the same sweep with
        # another layout must not be mistaken for a
        # "different sweep" (it would force --reset and discard completed
        # work).
        specs = grid(count=4, backend="analytic")
        coordinator = self.make_cluster(tmp_path, specs)
        ClusterWorker(local(coordinator), "w", shard=0).run()
        result = coordinator.merge()

        resumed = ClusterCoordinator(
            specs, DURATION, tmp_path / "cluster", master_seed=77,
            num_shards=2, sink="jsonl", lease_timeout=120.0)
        assert (resumed.cluster_plan().shard(0)
                != coordinator.cluster_plan().shard(0))
        resumed.write_plan()  # same sweep identity: resumes, no reset needed
        assert resumed.is_complete()
        assert resumed.merge().outcomes == result.outcomes

    def test_only_the_jsonl_sink_is_accepted(self, tmp_path):
        specs = grid(count=2, backend="analytic")
        for kind in ("json", "columnar"):
            with pytest.raises(ValueError, match="jsonl"):
                ClusterCoordinator(specs, DURATION, tmp_path / "cluster",
                                   sink=kind)

    def test_plan_file_with_another_sink_is_rejected(self, tmp_path):
        # A cluster directory written by an older version may name a sink
        # format this one cannot write or merge: refuse it on load.
        coordinator = self.make_cluster(tmp_path, grid(count=2))
        path = coordinator.cluster_dir / "plan.json"
        document = json.loads(path.read_text())
        document["sink"] = "columnar"
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="jsonl"):
            ClusterPlan.load(coordinator.cluster_dir)

    def test_single_worker_drains_all_shards(self, tmp_path):
        specs = grid(count=6, backend="analytic")
        coordinator = self.make_cluster(tmp_path, specs)
        worker = ClusterWorker(local(coordinator), "solo", shard=0)
        executed = worker.run()
        assert executed == 6  # stole shards 1 and 2 after finishing shard 0
        assert coordinator.is_complete()
        merged = coordinator.merge()
        serial = SweepRunner(specs, DURATION, master_seed=77).run()
        assert merged.outcomes == serial.outcomes

    def test_no_steal_worker_stays_in_its_shard(self, tmp_path):
        specs = grid(count=6, backend="analytic")
        coordinator = self.make_cluster(tmp_path, specs)
        worker = ClusterWorker(local(coordinator), "homebody",
                               shard=1, steal=False)
        worker.run(wait_for_stragglers=False)
        own = set(coordinator.cluster_plan().shard(1))
        assert set(worker.executed) == own
        assert not coordinator.is_complete()

    def test_thieves_rob_the_only_victim_from_the_back(self, tmp_path):
        specs = grid(backend="analytic")
        coordinator = self.make_cluster(tmp_path, specs, num_shards=3)
        plan = coordinator.cluster_plan()
        # Finish shards 1 and 2 entirely, leaving shard 0 untouched; a
        # fresh thief must then steal from shard 0 (the only victim)
        # starting at its back.
        for shard in (1, 2):
            ClusterWorker(local(coordinator), f"w{shard}", shard=shard,
                          steal=False).run(wait_for_stragglers=False)
        thief = ClusterWorker(local(coordinator), "thief", shard=1)
        stolen = thief.step()
        assert stolen == plan.shard(0)[-1]

    def test_crashed_lease_is_reclaimed(self, tmp_path):
        specs = grid(count=6, backend="analytic")
        coordinator = self.make_cluster(tmp_path, specs)
        clock = ManualClock()
        victim = ClusterWorker(local(coordinator, clock), "victim", shard=0,
                               crash_after_claims=1)
        assert victim.step() is None and victim.crashed
        crashed_index = list(coordinator.cluster_plan().shard(0))[0]
        assert crashed_index in coordinator.state.snapshot(clock()).lease_ages
        rescuer = ClusterWorker(local(coordinator, clock), "rescuer",
                                shard=0)
        drive_workers(coordinator, [rescuer], clock)
        assert crashed_index in rescuer.executed
        merged = coordinator.merge()
        serial = SweepRunner(specs, DURATION, master_seed=77).run()
        assert merged.outcomes == serial.outcomes

    def test_live_lease_is_not_stolen(self, tmp_path):
        specs = grid(count=6, backend="analytic")
        coordinator = self.make_cluster(tmp_path, specs)
        holder = ClusterWorker(local(coordinator), "holder", shard=0,
                               crash_after_claims=1)
        holder.step()  # holds a live (fresh) lease on shard 0's head
        held = list(coordinator.cluster_plan().shard(0))[0]
        other = ClusterWorker(local(coordinator), "other", shard=0)
        executed = other.run(wait_for_stragglers=False)
        assert held not in other.executed
        assert executed == len(specs) - 1

    def test_status_reports_progress(self, tmp_path):
        specs = grid(count=6, backend="analytic")
        coordinator = self.make_cluster(tmp_path, specs)
        assert coordinator.status()["total"]["pending"] == 6
        ClusterWorker(local(coordinator), "w", shard=0).run()
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
        worker = ClusterWorker(local(coordinator), "w", shard=0)
        worker.run()
        assert worker.cache_report.counts()["hits"] == 4
        merged = coordinator.merge()
        assert merged.outcomes == serial.outcomes

    def test_worker_runs_one_scenario_per_step_by_default(self, tmp_path,
                                                          monkeypatch):
        specs = grid(count=3, backend="analytic")
        coordinator = self.make_cluster(tmp_path, specs, num_shards=1)
        worker = ClusterWorker(local(coordinator), "w", shard=0)
        ran = []
        execute = worker._execute
        monkeypatch.setattr(worker, "_execute", lambda index: (
            ran.append(index), execute(index))[1])
        order = list(coordinator.cluster_plan().shard(0))
        for count, index in enumerate(order, start=1):
            assert worker.step() == index
            assert ran == order[:count]
        # The shard was one claim batch; its results went out together.
        assert worker.executed == order

    @pytest.mark.parametrize("batch_size", [0, 2, 64])
    def test_worker_rejects_batch_sizes_other_than_one(self, tmp_path,
                                                       batch_size):
        specs = grid(count=3, backend="analytic")
        coordinator = self.make_cluster(tmp_path, specs, num_shards=1)
        with pytest.raises(ValueError, match="must be 1"):
            ClusterWorker(local(coordinator), "w", shard=0,
                          batch_size=batch_size)
        worker = ClusterWorker(local(coordinator), "w", shard=0,
                               batch_size=1)
        assert worker.step() == list(coordinator.cluster_plan().shard(0))[0]

    def test_a_sharded_sweep_adds_only_results_to_the_cache(self, tmp_path):
        # The cache holds scenario results and nothing else: no calibration
        # or cost file is written beside them.
        specs = grid(count=4, backend="analytic")
        cache_dir = tmp_path / "cache"
        run_sharded_sweep(specs, DURATION, tmp_path / "cluster",
                          master_seed=77, num_shards=2, cache_dir=cache_dir)
        serial_dir = tmp_path / "serial-cache"
        run_sweep(specs, DURATION, master_seed=77, cache_dir=serial_dir)
        # A local sweep's cache_dir is also its coordinator directory.
        coordinator_files = {"plan.json", "tasks", "results"}
        assert (sorted(p.relative_to(cache_dir).as_posix()
                       for p in cache_dir.rglob("*"))
                == sorted(p.relative_to(serial_dir).as_posix()
                          for p in serial_dir.rglob("*")
                          if p.relative_to(serial_dir).parts[0]
                          not in coordinator_files))


class TestSerialShardedEquivalence:
    """Acceptance criterion: ≥24 scenarios, ≥3 shards, stealing enabled,
    one simulated worker crash mid-grid — merged result field-for-field
    identical to the serial ``SweepRunner``, under both backends."""

    @pytest.mark.parametrize("backend", ["density", "analytic"])
    def test_sharded_crashy_sweep_equals_serial(self, tmp_path, backend):
        specs = grid(backend=backend)
        assert len(specs) >= 24
        serial = SweepRunner(specs, DURATION, master_seed=77).run()

        coordinator = ClusterCoordinator(
            specs, DURATION, tmp_path / "cluster", master_seed=77,
            num_shards=3, lease_timeout=120.0)
        coordinator.write_plan()
        clock = ManualClock()
        workers = [
            ClusterWorker(local(coordinator, clock), "w0", shard=0,
                          crash_after_claims=3),
            ClusterWorker(local(coordinator, clock), "w1", shard=1),
            ClusterWorker(local(coordinator, clock), "w2", shard=2),
        ]
        drive_workers(coordinator, workers, clock)
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
        shard0 = set(coordinator.cluster_plan().shard(0))
        stolen = shard0 & set(workers[1].executed + workers[2].executed)
        assert stolen

    def test_run_local_processes_match_serial(self, tmp_path):
        # The multiprocess convenience path (real worker processes over a
        # TCP coordinator on localhost) on a smaller analytic grid.
        specs = grid(count=8, backend="analytic")
        serial = SweepRunner(specs, DURATION, master_seed=77).run()
        merged = run_sharded_sweep(specs, DURATION, tmp_path / "cluster",
                                   master_seed=77, num_shards=2)
        assert merged.outcomes == serial.outcomes
