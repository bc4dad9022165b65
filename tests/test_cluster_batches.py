"""Tests for batched claims and submits in the cluster protocol.

* A ``claim``, ``heartbeat`` or ``submit`` carries a list and equals its
  elements applied in order: a JSONL batch is one append and one fsync
  with the same lines as single writes, and a worker drains a plan in one
  claim and one submit per batch, merging equal to a serial sweep.
* Claim batches are guided self-scheduled: ``max(1, pending //
  num_shards)`` of the scenarios the shard still has pending, shrinking to
  single scenarios as it drains.  A thief robs the shard with the most
  pending scenarios, from the back.
* Cache hits of the worker's own shard skip the lease: a warm cache drains
  a plan with no claim at all, in submit frames of at most
  ``SUBMIT_FRAME`` outcomes; other shards' hits are loaded only once
  stolen.
* A stale lease is re-leased one index at a time, and only the death of a
  lease claimed alone is charged against the retry budget, so a worker
  that dies holding a batch quarantines no innocent neighbour.
* Fault injection reaches the list-carrying frames: duplicated batched
  submits and reset batched claims.
* Every lease of a held batch is heartbeated from claim time, all of them
  in one frame per interval, and held results are submitted once the
  oldest is an interval old.
"""

from __future__ import annotations

import json
import os
import time

import pytest

import repro.cluster.sinks as sinks_module
import repro.cluster.worker as worker_module
from repro.cluster import (
    ClusterCoordinator,
    ClusterWorker,
    FaultSchedule,
    FaultyTransport,
    JsonlResultSink,
    LocalTransport,
    SocketTransport,
)
from repro.cluster.serve import ClusterCoordinatorServer
from repro.runtime import (
    GuardPolicy,
    SweepRunner,
    run_sweep,
    single_kind_scenarios,
)
from repro.runtime.sweep import ScenarioOutcome, execute_scenario

from cluster_support import FrameRecorder, ManualClock, expire_leases

DURATION = 0.05
SEED = 77


def grid(count):
    specs = single_kind_scenarios(
        "Lab", kinds=("NL", "CK", "MD"), loads=("Low", "High"),
        max_pairs_options=(1, 3), origins=("A", "B"),
        include_md_k255=False, attempt_batch_size=40, backend="analytic")
    return specs[:count]


def plan_cluster(tmp_path, specs, **kwargs) -> ClusterCoordinator:
    kwargs.setdefault("num_shards", 1)
    coordinator = ClusterCoordinator(specs, DURATION, tmp_path / "cluster",
                                     master_seed=SEED, **kwargs)
    coordinator.write_plan()
    return coordinator


def serial_outcomes(specs):
    return SweepRunner(specs, DURATION, master_seed=SEED).run().outcomes


def done_indices(coordinator) -> set[int]:
    return set(coordinator.state.snapshot(time.time()).done)


def lease_of(coordinator, index):
    """The coordinator's lease of ``index`` (owner, batch, times)."""
    return coordinator.state._leases[index]


def part_records(cluster_dir, worker_id) -> list[int]:
    part = cluster_dir / "results" / f"part-{worker_id}.jsonl"
    return [json.loads(line)["index"]
            for line in part.read_text().splitlines()[1:] if line.strip()]


def canned(spec, seed, duration) -> ScenarioOutcome:
    """A cheap stand-in outcome for tests that replace execution."""
    return ScenarioOutcome(scenario_name=spec.name,
                           scheduler_name=spec.scheduler_name(), seed=seed,
                           duration=duration, backend=spec.backend_name())


@pytest.fixture(params=("local", "socket"))
def connect(request):
    """``connect(coordinator)`` -> a transport of the param kind."""
    servers = {}
    transports = []

    def factory(coordinator):
        if request.param == "socket":
            server = servers.get(id(coordinator))
            if server is None:
                server = servers[id(coordinator)] = \
                    ClusterCoordinatorServer(coordinator)
                server.start_background()
            transport = SocketTransport(server.address)
        else:
            transport = LocalTransport(coordinator.state)
        transports.append(transport)
        return transport

    factory.kind = request.param
    yield factory
    for transport in transports:
        transport.close()
    for server in servers.values():
        server.stop()


# --------------------------------------------------------------------------- #
# A batch equals its elements
# --------------------------------------------------------------------------- #
class TestBatchEqualsElements:
    def test_jsonl_batch_is_one_fsync_with_the_single_write_lines(
            self, tmp_path, monkeypatch):
        specs = grid(3)
        outcomes = [execute_scenario(spec, 11 + n, DURATION)
                    for n, spec in enumerate(specs)]
        single = JsonlResultSink(tmp_path / "single.jsonl", 5, DURATION)
        for index, outcome in enumerate(outcomes):
            single.write(index, outcome)
        single.close()
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(sinks_module.os, "fsync",
                            lambda fd: (fsyncs.append(fd), real_fsync(fd)))
        batch = JsonlResultSink(tmp_path / "batch.jsonl", 5, DURATION)
        fsyncs.clear()  # the header's own append
        batch.write_many([(index, outcome.to_dict())
                          for index, outcome in enumerate(outcomes)])
        batch.close()
        assert len(fsyncs) == 1
        assert ((tmp_path / "batch.jsonl").read_bytes()
                == (tmp_path / "single.jsonl").read_bytes())

    def test_cold_plan_is_claimed_and_submitted_per_batch(
            self, tmp_path, connect):
        specs = grid(24)
        coordinator = plan_cluster(tmp_path, specs)
        transport = FrameRecorder(connect(coordinator))
        worker = ClusterWorker(transport, "w", cache_dir=None)
        worker.run(poll_interval=0.01)
        # One shard, one worker: the whole shard is one batch, claimed and
        # submitted in one frame each.
        assert transport.indices("claim") == [list(coordinator.cluster_plan().shard(0))]
        assert transport.indices("submit") == transport.indices("claim")
        assert sorted(worker.executed) == list(range(len(specs)))
        assert coordinator.merge().outcomes == serial_outcomes(specs)

    def test_batches_shrink_to_one_scenario_as_a_shard_drains(
            self, tmp_path, connect):
        """Guided self-scheduling over three shards: each batch holds at
        most a third of the scenarios its shard had pending, so the tail of
        every shard is claimed (and stealable) one scenario at a time."""
        specs = grid(24)
        coordinator = plan_cluster(tmp_path, specs, num_shards=3)
        transport = FrameRecorder(connect(coordinator))
        worker = ClusterWorker(transport, "w", shard=0, cache_dir=None)
        worker.run(poll_interval=0.01)
        pending = {shard_id: set(coordinator.cluster_plan().shard(shard_id))
                   for shard_id in range(3)}
        claims = transport.indices("claim")
        for batch in claims:
            shard_id = batch[0] % 3
            assert set(batch) <= pending[shard_id]
            assert len(batch) <= max(1, len(pending[shard_id]) // 3)
            pending[shard_id] -= set(batch)
        assert not any(pending.values())
        assert any(len(batch) > 1 for batch in claims)
        assert len(claims) < len(specs)
        # Each shard's last batch holds one index.
        for shard_id in range(3):
            last = [batch for batch in claims if batch[0] % 3 == shard_id]
            assert len(last[-1]) == 1
        assert transport.indices("submit") == claims
        assert coordinator.merge().outcomes == serial_outcomes(specs)

    @pytest.mark.parametrize("held_shard,victim", [(0, 2), (2, 0)])
    def test_a_thief_robs_the_fullest_shard_from_the_back(
            self, tmp_path, held_shard, victim):
        """With its own shard done, a worker steals from the shard with the
        most pending scenarios (whichever shard id that is), starting at
        that shard's last index, in a batch sized from its count."""
        specs = grid(24)
        coordinator = plan_cluster(tmp_path, specs, num_shards=3)
        plan = coordinator.cluster_plan()
        ClusterWorker(LocalTransport(coordinator.state), "w1", shard=1,
                      steal=False,
                      cache_dir=None).run(wait_for_stragglers=False)
        # A live peer holds three scenarios of one shard, leaving it fewer
        # pending than the other.
        held = list(plan.shard(held_shard)[:3])
        assert LocalTransport(coordinator.state).claim_many(
            held, "peer") == held
        transport = FrameRecorder(LocalTransport(coordinator.state))
        thief = ClusterWorker(transport, "thief", shard=1, cache_dir=None)
        thief.step()
        # Eight pending in the victim, three shards: a batch of two.
        robbed = plan.shard(victim)
        assert transport.indices("claim") == [[robbed[-1], robbed[-2]]]

    def test_warm_cache_submits_hits_without_a_lease(
            self, tmp_path, connect, monkeypatch):
        monkeypatch.setattr(worker_module, "SUBMIT_FRAME", 4)
        specs = grid(10)
        cache_dir = tmp_path / "cache"
        serial = run_sweep(specs, DURATION, master_seed=SEED,
                           cache_dir=cache_dir)
        coordinator = plan_cluster(tmp_path, specs)
        transport = FrameRecorder(connect(coordinator))
        worker = ClusterWorker(transport, "w", cache_dir=cache_dir)
        worker.run(poll_interval=0.01)
        assert transport.indices("claim") == []
        assert [len(frame) for frame in transport.indices("submit")] == [4, 4, 2]
        assert worker.cache_report.counts()["hits"] == len(specs)
        assert coordinator.merge().outcomes == serial.outcomes

    def test_other_shards_hits_are_loaded_only_once_stolen(
            self, tmp_path, connect, monkeypatch):
        """A worker submits its own shard's hits without a lease and
        leaves the other shards' hits to their owners: it loads one of
        those only after stealing it, so a fleet sharing a cache loads each
        record once, not once per worker."""
        specs = grid(12)
        cache_dir = tmp_path / "cache"
        serial = run_sweep(specs, DURATION, master_seed=SEED,
                           cache_dir=cache_dir)
        coordinator = plan_cluster(tmp_path, specs, num_shards=2)
        own, other = (coordinator.cluster_plan().shard(shard_id)
                      for shard_id in range(2))
        transport = FrameRecorder(connect(coordinator))
        worker = ClusterWorker(transport, "w", shard=0, cache_dir=cache_dir)
        loads = []
        real_load = worker._cache.load
        monkeypatch.setattr(worker._cache, "load", lambda spec, *args: (
            loads.append(spec.name), real_load(spec, *args))[1])
        worker.run(poll_interval=0.01)
        # The own shard's hits went out first, in one frame, before any
        # record of the other shard was loaded.
        assert transport.indices("submit")[0] == list(own)
        assert loads[:len(own)] == [specs[index].name for index in own]
        # The other shard was stolen under leases, each hit loaded once.
        assert sorted(index for batch in transport.indices("claim")
                      for index in batch) == sorted(other)
        assert sorted(loads) == sorted(spec.name for spec in specs)
        assert coordinator.merge().outcomes == serial.outcomes

    def test_frames_must_carry_lists(self, tmp_path):
        coordinator = plan_cluster(tmp_path, grid(2))
        server = ClusterCoordinatorServer(coordinator)
        server.start_background()
        try:
            for frame in ({"op": "claim", "worker_id": "w", "indices": "1"},
                          {"op": "claim", "worker_id": "w", "index": 1},
                          {"op": "heartbeat", "worker_id": "w", "index": 1},
                          {"op": "heartbeat", "worker_id": "w",
                           "indices": 1},
                          {"op": "submit", "worker_id": "w",
                           "results": {"index": 1}}):
                response = server.dispatch(frame)
                assert not response["ok"], frame
            assert server.dispatch({"op": "claim", "worker_id": "w",
                                    "indices": [1]}) == {"ok": True,
                                                         "granted": [1]}
            assert server.dispatch({"op": "heartbeat", "worker_id": "w",
                                    "indices": [0, 1]}) == {"ok": True,
                                                            "alive": [1]}
        finally:
            server.stop()

    def test_submit_needs_no_lease_and_wins_over_a_live_one(
            self, tmp_path, connect):
        """A hit is submitted without a lease, possibly while a peer that
        claimed after the worker's snapshot holds one: the done record
        wins, and the peer's later, identical record is not written."""
        specs = grid(2)
        coordinator = plan_cluster(tmp_path, specs)
        peer = LocalTransport(coordinator.state)
        assert peer.try_claim(0, "peer")
        outcome = execute_scenario(specs[0], peer.plan.seeds[0], DURATION)
        transport = connect(coordinator)
        transport.submit_many("w", [(0, outcome.to_dict(), 1)])
        assert done_indices(coordinator) == {0}
        peer.submit_result("peer", 0, outcome, attempt=1)
        peer.close()
        transport.close()
        assert part_records(coordinator.cluster_dir, "w") == [0]
        assert not (coordinator.cluster_dir / "results"
                    / "part-peer.jsonl").exists()
        assert coordinator.merge(require_complete=False).outcomes == [outcome]


# --------------------------------------------------------------------------- #
# Re-leasing after a death, one index at a time
# --------------------------------------------------------------------------- #
class TestPoisonIsolation:
    def test_batch_death_alone_quarantines_nothing(self, tmp_path):
        specs = grid(6)
        coordinator = plan_cluster(
            tmp_path, specs,
            guard=GuardPolicy(max_events=10**9, max_attempts=1))
        clock = ManualClock()
        holder = ClusterWorker(LocalTransport(coordinator.state, clock),
                               "holder", crash_after_claims=1,
                               cache_dir=None)
        assert holder.step() is None and holder.crashed
        assert all(lease_of(coordinator, index).batch == 6
                   for index in range(len(specs)))
        assert expire_leases(coordinator, clock) == 6
        transport = FrameRecorder(LocalTransport(coordinator.state, clock))
        rescuer = ClusterWorker(transport, "rescuer", cache_dir=None)
        rescuer.run(poll_interval=0.01)
        assert transport.indices("claim") == [
            [index] for index in list(coordinator.cluster_plan().shard(0))]
        assert coordinator.quarantine_records() == []
        assert coordinator.merge().outcomes == serial_outcomes(specs)

    def test_only_the_scenario_that_kills_workers_is_quarantined(
            self, tmp_path):
        """``max_attempts=1``: the holder dies holding a batch of six
        leases.  The batch's indices are re-leased one at a time; the
        second worker dies running the first of them, and that death —
        of a lease claimed alone — quarantines it.  Its unstarted batch
        neighbours complete and merge equal to a serial sweep."""
        specs = grid(6)
        coordinator = plan_cluster(
            tmp_path, specs,
            guard=GuardPolicy(max_events=10**9, max_attempts=1))
        order = list(coordinator.cluster_plan().shard(0))
        poison = order[0]
        clock = ManualClock()

        def local():
            return LocalTransport(coordinator.state, clock)

        holder = ClusterWorker(local(), "holder", crash_after_claims=1,
                               cache_dir=None)
        assert holder.step() is None and holder.crashed
        expire_leases(coordinator, clock)
        second = ClusterWorker(local(), "second", crash_after_claims=1,
                               cache_dir=None)
        assert second.step() is None and second.crashed
        lease = lease_of(coordinator, poison)
        assert (lease.owner, lease.batch) == ("second", 1)
        assert all(lease_of(coordinator, index).owner == "holder"
                   for index in order[1:])
        expire_leases(coordinator, clock)
        rescuer = ClusterWorker(local(), "rescuer", cache_dir=None)
        rescuer.run(poll_interval=0.01)
        assert sorted(rescuer.executed) == sorted(order[1:])
        records = coordinator.quarantine_records()
        assert [(record.index, record.status) for record in records] == [
            (poison, "crash")]
        merged = coordinator.merge()
        serial = serial_outcomes(specs)
        for index, outcome in enumerate(merged.outcomes):
            if index == poison:
                assert outcome.status == "quarantined"
            else:
                assert outcome == serial[index]


# --------------------------------------------------------------------------- #
# Faults on list-carrying frames
# --------------------------------------------------------------------------- #
def _first_seed(predicate, **rates) -> FaultSchedule:
    """The first schedule seed whose decisions satisfy ``predicate``."""
    for seed in range(1000):
        if predicate(FaultSchedule(seed=seed, **rates)):
            return FaultSchedule(seed=seed, **rates)
    raise AssertionError("no seed found")


class TestBatchedFrameFaults:
    def test_duplicated_batched_submit_writes_each_record_once(
            self, tmp_path, connect):
        specs = grid(3)
        coordinator = plan_cluster(tmp_path, specs)
        inner = connect(coordinator)
        schedule = FaultSchedule(seed=5, duplicate=1.0)
        faulty = FaultyTransport(inner, schedule, retry_delay=0.0)
        assert faulty.claim_many([0, 1, 2], "w") == [0, 1, 2]
        results = [(index, execute_scenario(
            spec, inner.plan.seeds[index], DURATION).to_dict(), index + 1)
            for index, spec in enumerate(specs)]
        faulty.submit_many("w", results)
        faulty.submit_many("w", results)  # and a retry of the whole frame
        faulty.close()
        assert sorted(part_records(coordinator.cluster_dir, "w")) == [0, 1, 2]
        assert done_indices(coordinator) == {0, 1, 2}
        assert [entry["indices"] for entry in schedule.to_dict()["injected"]
                if entry["op"] == "submit"] == [[0, 1, 2]] * 2
        assert coordinator.merge().outcomes == serial_outcomes(specs)

    def test_reset_batched_claim_is_retried_and_regranted(
            self, tmp_path, connect):
        coordinator = plan_cluster(tmp_path, grid(4))
        schedule = _first_seed(
            lambda s: s.decide("claim").reset
            and not s.decide("claim").reset, reset=0.5)
        faulty = FaultyTransport(connect(coordinator), schedule,
                                 retry_delay=0.0)
        # The first delivery leased all three and lost its answer; the
        # retry finds the owner's live leases and re-grants every one.
        assert faulty.claim_many([0, 1, 3], "w") == [0, 1, 3]
        assert [(entry["faults"], entry["indices"])
                for entry in schedule.to_dict()["injected"]] == [
            (["reset"], [0, 1, 3])]
        peer = LocalTransport(coordinator.state)
        assert peer.claim_many([0, 1, 2, 3], "peer") == [2]
        peer.close()
        faulty.close()


# --------------------------------------------------------------------------- #
# Heartbeat of a held batch
# --------------------------------------------------------------------------- #
class TestBatchHeartbeat:
    def test_a_held_batch_beats_in_one_frame_per_interval(
            self, tmp_path, monkeypatch):
        """Every beat of a held batch refreshes all its leases in one
        heartbeat frame, so a batch costs one heartbeat RPC per interval
        however many leases it holds."""
        specs = grid(4)
        coordinator = plan_cluster(tmp_path, specs, lease_timeout=0.3)
        order = list(coordinator.cluster_plan().shard(0))

        def execute(spec, seed, duration, **kwargs):
            time.sleep(0.25)  # over two heartbeat intervals
            return canned(spec, seed, duration)

        monkeypatch.setattr(worker_module, "execute_scenario", execute)
        transport = FrameRecorder(LocalTransport(coordinator.state))
        worker = ClusterWorker(transport, "w", cache_dir=None)
        assert worker.step() == order[0]
        worker.close()
        assert transport.indices("claim") == [order]
        assert len(transport.indices("heartbeat")) >= 2
        assert transport.indices("heartbeat")[0] == order

    def test_held_results_are_submitted_once_an_interval_old(
            self, tmp_path, monkeypatch):
        """Scenarios longer than a heartbeat interval: the batch's held
        results go out every other scenario instead of only after the
        last, so a death loses about one interval of finished work."""
        specs = grid(4)
        coordinator = plan_cluster(tmp_path, specs, lease_timeout=0.3)
        order = list(coordinator.cluster_plan().shard(0))

        def execute(spec, seed, duration, **kwargs):
            time.sleep(0.15)  # longer than one heartbeat interval (0.1 s)
            return canned(spec, seed, duration)

        monkeypatch.setattr(worker_module, "execute_scenario", execute)
        transport = FrameRecorder(LocalTransport(coordinator.state))
        worker = ClusterWorker(transport, "w", cache_dir=None)
        worker.run(wait_for_stragglers=False)
        assert transport.indices("claim") == [order]
        assert transport.indices("submit") == [order[:2], order[2:]]
        assert worker.executed == order
        assert coordinator.merge().outcomes == [
            canned(spec, seed, DURATION)
            for spec, seed in zip(specs, coordinator.cluster_plan().seeds)]

    def test_lease_lost_before_its_turn_is_never_run(
            self, tmp_path, monkeypatch):
        """A peer takes over an unstarted lease of the batch (as if it
        had gone stale) and submits it: the worker skips that scenario,
        runs and submits the rest."""
        specs = grid(4)
        coordinator = plan_cluster(tmp_path, specs, lease_timeout=0.15)
        order = list(coordinator.cluster_plan().shard(0))
        doomed = order[2]

        class TakenOverOnFirstBeat(LocalTransport):
            def heartbeat_many(self, indices, worker_id):
                if doomed in indices and not self.taken:
                    self.taken = True
                    self.clock.advance(3600.0)
                    assert self.try_claim(doomed, "rescuer")
                    self.submit_result("rescuer", doomed, canned(
                        self.plan.specs[doomed], self.plan.seeds[doomed],
                        self.plan.duration), attempt=1)
                return super().heartbeat_many(indices, worker_id)

        transport = TakenOverOnFirstBeat(coordinator.state, ManualClock())
        transport.taken = False
        ran = []

        def execute(spec, seed, duration, **kwargs):
            ran.append(spec.name)
            time.sleep(0.2)  # several heartbeat intervals
            return canned(spec, seed, duration)

        monkeypatch.setattr(worker_module, "execute_scenario", execute)
        worker = ClusterWorker(transport, "w", steal=False, cache_dir=None)
        assert worker.step() == order[0]
        while worker.step() is not None:
            pass
        worker.close()
        assert transport.taken
        assert worker.aborted == [doomed]
        assert ran == [specs[index].name for index in order
                       if index != doomed]
        assert worker.executed == [index for index in order
                                   if index != doomed]
