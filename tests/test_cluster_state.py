"""Clock-stepped tests of :class:`repro.cluster.state.CoordinatorState`.

The state takes the coordinator's time as an argument on every operation,
so these tests drive leases through expiry, takeover, death charges,
quarantine and coordinator restarts by passing ``now`` — no threads, no
sleeps, and no file is read or written for a lease.

* A lease is stale once ``lease_timeout`` passed since its last claim or
  beat; only a claim of that index alone takes it over, and the displaced
  owner's heartbeat then reports it lost.
* On a guarded plan, only the death of a lease claimed alone is charged;
  deaths plus reported failures that spend the budget quarantine the
  scenario.
* A restarted coordinator reads the done records and markers back and
  knows no lease; one that died between a submit's sink fsync and its done
  record re-executes those scenarios, and the merge dedupes them.
* The boundary: every op that takes a worker id refuses an unsafe one
  before writing anything, and a malformed ``fail`` frame is answered
  ``ok: false`` on a connection that keeps serving.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time

import pytest

import repro.cluster.state as state_module
from repro.cluster import (
    ClusterCoordinator,
    ClusterWorker,
    CoordinatorState,
    LocalTransport,
    SocketTransport,
    TaskSnapshot,
    TransportError,
)
from repro.cluster.serve import ClusterCoordinatorServer
from repro.cluster.transport import recv_frame, send_frame
from repro.runtime import GuardPolicy, SweepRunner, single_kind_scenarios
from repro.runtime.sweep import ScenarioOutcome

DURATION = 0.05
SEED = 77
TIMEOUT = 60.0


def grid(count):
    specs = single_kind_scenarios(
        "Lab", kinds=("NL", "CK", "MD"), loads=("Low", "High"),
        max_pairs_options=(1, 3), origins=("A", "B"),
        include_md_k255=False, attempt_batch_size=40, backend="analytic")
    return specs[:count]


def coordinator_for(tmp_path, count=4, **kwargs) -> ClusterCoordinator:
    kwargs.setdefault("num_shards", 1)
    coordinator = ClusterCoordinator(grid(count), DURATION,
                                     tmp_path / "cluster", master_seed=SEED,
                                     lease_timeout=TIMEOUT, **kwargs)
    coordinator.write_plan()
    return coordinator


def guarded(tmp_path, max_attempts=2, count=4) -> ClusterCoordinator:
    return coordinator_for(tmp_path, count, guard=GuardPolicy(
        max_events=10**9, max_attempts=max_attempts))


def record(state: CoordinatorState, index: int, status="ok") -> dict:
    """A cheap outcome record of ``index`` (no simulation)."""
    spec = state.plan.specs[index]
    return ScenarioOutcome(
        scenario_name=spec.name, scheduler_name=spec.scheduler_name(),
        seed=state.plan.seeds[index], duration=state.plan.duration,
        status=status, error=None if status == "ok" else "injected",
        backend=spec.backend_name()).to_dict()


def markers(coordinator, kind: str) -> list[str]:
    return sorted(path.name for path in
                  (coordinator.cluster_dir / "tasks").glob(f"*.{kind}.*"))


# --------------------------------------------------------------------------- #
# Leases on the coordinator's clock
# --------------------------------------------------------------------------- #
class TestLeaseClock:
    def test_claim_expiry_and_takeover(self, tmp_path):
        state = coordinator_for(tmp_path).state
        assert state.claim([0], "a", now=0.0) == [0]
        assert state.snapshot(now=10.0).lease_ages == {0: 10.0}
        # Live until the full timeout has passed since the claim.
        assert state.claim([0], "b", now=TIMEOUT - 0.001) == []
        assert not state.snapshot(TIMEOUT - 0.001).is_available(0, TIMEOUT)
        assert state.snapshot(TIMEOUT).is_available(0, TIMEOUT)
        assert state.claim([0], "b", now=TIMEOUT) == [0]
        assert state.snapshot(TIMEOUT).lease_ages == {0: 0.0}

    def test_heartbeat_keeps_a_lease_live_past_the_timeout(self, tmp_path):
        state = coordinator_for(tmp_path).state
        assert state.claim([0, 1], "a", now=0.0) == [0, 1]
        assert state.heartbeat([0, 1], "a", now=TIMEOUT / 2) == [0, 1]
        assert state.claim([0], "b", now=TIMEOUT) == []
        assert state.status(now=TIMEOUT)["total"] == {
            "done": 0, "leased": 2, "stale": 0, "pending": 2}
        assert state.status(now=1.5 * TIMEOUT)["total"]["stale"] == 2

    def test_heartbeat_after_a_takeover_reports_the_lease_lost(
            self, tmp_path):
        state = coordinator_for(tmp_path).state
        assert state.claim([0], "original", now=0.0) == [0]
        assert state.claim([0], "rescuer", now=TIMEOUT) == [0]
        assert state.heartbeat([0], "original", now=TIMEOUT + 1) == []
        assert state.heartbeat([0], "rescuer", now=TIMEOUT + 1) == [0]

    def test_a_stale_lease_is_taken_over_only_by_a_claim_of_one(
            self, tmp_path):
        state = coordinator_for(tmp_path).state
        assert state.claim([0, 1, 2], "dead", now=0.0) == [0, 1, 2]
        assert state.claim([0, 1, 3], "peer", now=TIMEOUT) == [3]
        assert state.claim([1], "peer", now=TIMEOUT) == [1]

    def test_a_claim_is_regranted_to_its_owner_and_refused_when_done(
            self, tmp_path):
        state = coordinator_for(tmp_path).state
        assert state.claim([0, 1], "w", now=0.0) == [0, 1]
        assert state.claim([0, 1], "w", now=1.0) == [0, 1]  # a retry
        state.submit("peer", [(1, record(state, 1), 1)])
        # Done wins over any lease, stale or live, and frees it.
        assert state.claim([1], "w", now=2.0) == []
        assert state.claim([1], "other", now=10 * TIMEOUT) == []
        assert state.heartbeat([0, 1], "w", now=3.0) == [0]
        assert state.snapshot(now=5.0) == TaskSnapshot(
            done=frozenset({1}), lease_ages={0: 2.0})


# --------------------------------------------------------------------------- #
# Deaths, failures and quarantine
# --------------------------------------------------------------------------- #
class TestAttemptLedger:
    def test_only_a_lease_claimed_alone_is_charged_a_death(self, tmp_path):
        coordinator = guarded(tmp_path, max_attempts=3)
        state = coordinator.state
        assert state.claim([0, 1, 2], "dead", now=0.0) == [0, 1, 2]
        # The dead lease held a batch: re-leased alone, uncharged.
        assert state.claim([0], "peer", now=TIMEOUT) == [0]
        assert markers(coordinator, "death") == []
        # The death of that lease, claimed alone, is the scenario's own.
        assert state.claim([0], "third", now=2 * TIMEOUT) == [0]
        (marker,) = markers(coordinator, "death")
        assert marker.startswith("0.death.")
        recorded = json.loads(
            (coordinator.cluster_dir / "tasks" / marker).read_text())
        assert (recorded["worker_id"], recorded["observed_by"],
                recorded["claimed_at"], recorded["observed_at"]) == (
            "peer", "third", TIMEOUT, 2 * TIMEOUT)

    def test_an_unguarded_plan_charges_no_death(self, tmp_path):
        coordinator = coordinator_for(tmp_path)
        state = coordinator.state
        for round_number in range(4):
            assert state.claim([0], f"w{round_number}",
                               now=round_number * TIMEOUT) == [0]
        assert markers(coordinator, "death") == []

    def test_deaths_that_spend_the_budget_quarantine(self, tmp_path):
        coordinator = guarded(tmp_path, max_attempts=2)
        state = coordinator.state
        assert state.claim([1], "w1", now=0.0) == [1]
        assert state.claim([1], "w2", now=TIMEOUT) == [1]      # death 1
        assert state.claim([1], "w3", now=2 * TIMEOUT) == []   # death 2
        (quarantined,) = coordinator.quarantine_records()
        assert (quarantined.index, quarantined.status, quarantined.attempts,
                quarantined.source, quarantined.recorded_at) == (
            1, "crash", 2, "coordinator", 2 * TIMEOUT)
        assert state.snapshot(now=2 * TIMEOUT).done == {1}
        merged = coordinator.merge(require_complete=False)
        assert [outcome.status for outcome in merged.outcomes] == [
            "quarantined"]

    def test_failures_spend_the_budget_and_release_the_lease(self, tmp_path):
        coordinator = guarded(tmp_path, max_attempts=2)
        state = coordinator.state
        assert state.claim([0], "w1", now=0.0) == [0]
        failed = record(state, 0, status="error")
        assert state.fail("w1", 0, failed, 1, now=1.0) == {
            "attempts": 1, "quarantined": False}
        # Released: the retry is granted at once, long before a timeout.
        assert state.claim([0], "w2", now=2.0) == [0]
        assert state.fail("w1", 0, failed, 1, now=3.0) == {
            "attempts": 1, "quarantined": False}  # a duplicate delivery
        assert state.heartbeat([0], "w2", now=3.0) == [0]
        assert state.fail("w2", 0, failed, 1, now=4.0) == {
            "attempts": 2, "quarantined": True}
        assert markers(coordinator, "fail") == [
            "0.fail.w1.1.json", "0.fail.w2.1.json"]
        assert [record.status for record in
                coordinator.quarantine_records()] == ["error"]
        assert state.claim([0], "w3", now=5.0) == []


# --------------------------------------------------------------------------- #
# Restarts
# --------------------------------------------------------------------------- #
class TestRestart:
    def test_a_restart_keeps_the_done_set_and_expires_every_lease(
            self, tmp_path):
        coordinator = guarded(tmp_path, max_attempts=3)
        before = coordinator.state
        assert before.claim([0, 1, 2], "w", now=0.0) == [0, 1, 2]
        before.submit("w", [(0, record(before, 0), 1)])
        assert before.fail("w", 1, record(before, 1, "error"), 2,
                           now=1.0)["attempts"] == 1
        assert before.claim([3], "other", now=1.0) == [3]
        before.close()

        after = CoordinatorState(coordinator.cluster_dir,
                                 coordinator.cluster_plan())
        assert after.snapshot(now=1.0) == TaskSnapshot(
            done=frozenset({0}), lease_ages={})
        # Every old lease reads as expired: claimable at once, by anyone,
        # and the old owner's heartbeat finds nothing to refresh.
        assert after.heartbeat([2, 3], "w", now=1.0) == []
        assert after.claim([2, 3], "newcomer", now=1.0) == [2, 3]
        assert after.claim([0], "newcomer", now=1.0) == []
        # The attempt ledger survives: one more failure is the second.
        assert after.fail("newcomer", 1, record(after, 1, "error"), 1,
                          now=2.0)["attempts"] == 2

    def test_a_restart_ignores_tmp_files_and_foreign_names(self, tmp_path):
        coordinator = coordinator_for(tmp_path)
        tasks = coordinator.cluster_dir / "tasks"
        state_module.write_done_record(coordinator.cluster_dir, [1, 0])
        state_module.write_done_record(coordinator.cluster_dir, [9])
        body = '{"indices": [2, 3]}'
        for name in ("2.done.0a1b.json.123.456.7.tmp", "2.done.xyz.json",
                     "2.done", "03.done.0a1b.json", "3.lease"):
            (tasks / name).write_text(body)
        state = CoordinatorState(coordinator.cluster_dir,
                                 coordinator.cluster_plan())
        assert state.snapshot(now=0.0).done == {0, 1}

    def test_a_missing_tasks_directory_reads_as_nothing_done(self, tmp_path):
        coordinator = coordinator_for(tmp_path)
        (coordinator.cluster_dir / "tasks").rmdir()
        state = CoordinatorState(coordinator.cluster_dir,
                                 coordinator.cluster_plan())
        assert state.snapshot(now=0.0) == TaskSnapshot(done=frozenset(),
                                                       lease_ages={})

    def test_death_between_sink_fsync_and_done_record_reexecutes(
            self, tmp_path, monkeypatch):
        """The coordinator dies after a submit's sink records are durable
        and before its done record: the restarted coordinator does not
        count them done, a worker runs them again, and the merge dedupes
        the two identical records of each."""
        specs = grid(3)
        coordinator = coordinator_for(tmp_path, count=len(specs))
        doomed = coordinator.state
        serial = SweepRunner(specs, DURATION, master_seed=SEED).run()

        class CoordinatorDied(Exception):
            pass

        def die(*args):
            raise CoordinatorDied

        monkeypatch.setattr(state_module, "write_done_record", die)
        results = [(index, serial.outcomes[index].to_dict(), 1)
                   for index in (0, 2)]
        with pytest.raises(CoordinatorDied):
            doomed.submit("first", results)
        doomed.close()
        monkeypatch.undo()

        restarted = ClusterCoordinator(specs, DURATION,
                                       coordinator.cluster_dir,
                                       master_seed=SEED, num_shards=1,
                                       lease_timeout=TIMEOUT)
        assert not restarted.is_complete()
        assert restarted.state.snapshot(now=0.0).done == set()
        worker = ClusterWorker(LocalTransport(restarted.state),
                               "second", cache_dir=None)
        worker.run(wait_for_stragglers=False)
        assert sorted(worker.executed) == [0, 1, 2]
        parts = sorted(path.name for path in
                       (coordinator.cluster_dir / "results").iterdir())
        assert parts == ["part-first.jsonl", "part-second.jsonl"]
        assert restarted.merge() == serial


# --------------------------------------------------------------------------- #
# The boundary
# --------------------------------------------------------------------------- #
UNSAFE_IDS = ("../../escaped", "../tele", "a/b", ".hidden", "", "w\x00",
              "x" * 200)


class TestWorkerIds:
    def test_the_default_id_is_accepted(self):
        default = f"{os.uname().nodename}-{os.getpid()}"
        assert CoordinatorState.check_worker(default) == default
        for fine in ("w1", "local-0", "chaos-w12", "node.example.org-4242",
                     "_x"):
            assert CoordinatorState.check_worker(fine) == fine

    @pytest.mark.parametrize("worker_id", UNSAFE_IDS)
    def test_every_op_refuses_an_unsafe_id_and_writes_nothing(
            self, tmp_path, worker_id):
        root = tmp_path / "outer" / "inner"
        coordinator = ClusterCoordinator(grid(2), DURATION, root / "cluster",
                                         master_seed=SEED, num_shards=1)
        server = ClusterCoordinatorServer(coordinator)
        before = sorted(str(path) for path in tmp_path.rglob("*"))
        plan = coordinator.cluster_plan()
        spec = plan.specs[0]
        outcome = ScenarioOutcome(
            scenario_name=spec.name, scheduler_name=spec.scheduler_name(),
            seed=plan.seeds[0], duration=DURATION, status="error",
            error="x", backend=spec.backend_name()).to_dict()
        frames = [
            {"op": "register", "worker_id": worker_id, "shard": None},
            {"op": "claim", "worker_id": worker_id, "indices": [0]},
            {"op": "heartbeat", "worker_id": worker_id, "indices": [0]},
            {"op": "submit", "worker_id": worker_id,
             "results": [{"index": 0, "outcome": outcome, "attempt": 1}]},
            {"op": "fail", "worker_id": worker_id, "index": 0,
             "outcome": outcome, "attempt": 1},
            {"op": "telemetry", "worker_id": worker_id, "metrics": {}},
        ]
        try:
            for frame in frames:
                response = server.dispatch(frame)
                assert response["ok"] is False, frame
                assert "unsafe worker id" in response["error"]
        finally:
            server.stop()
        assert sorted(str(path) for path in tmp_path.rglob("*")) == before
        state = coordinator.state
        assert state.snapshot(now=0.0) == TaskSnapshot(
            done=frozenset(), lease_ages={}, workers=0)

    def test_the_local_transport_refuses_an_unsafe_id(self, tmp_path):
        transport = LocalTransport(coordinator_for(tmp_path).state)
        with pytest.raises(TransportError, match="unsafe worker id"):
            transport.register_worker("../../escaped", None)
        with pytest.raises(TransportError, match="unsafe worker id"):
            transport.send_telemetry("../tele", {})


def test_a_malformed_fail_frame_is_refused_and_the_connection_serves_on(
        tmp_path):
    coordinator = guarded(tmp_path)
    server = ClusterCoordinatorServer(coordinator)
    server.start_background()
    sock = socket.create_connection(server.server_address[:2], timeout=30)
    try:
        for outcome in ([1, 2], "record", None, {"status": "error"}):
            send_frame(sock, {"op": "fail", "worker_id": "w", "index": 0,
                              "outcome": outcome, "attempt": 1})
            response = recv_frame(sock)
            assert response["ok"] is False, outcome
            assert response["error"].startswith("fail: ")
        send_frame(sock, {"op": "status"})
        response = recv_frame(sock)
        assert response["ok"] is True
        assert response["status"]["total"]["pending"] == 4
    finally:
        sock.close()
        server.stop()
    assert markers(coordinator, "fail") == []


@pytest.fixture(params=("local", "socket"))
def front_end(request, tmp_path):
    """``(coordinator, transport)``: a transport of the param kind over a
    fresh 4-scenario plan."""
    coordinator = coordinator_for(tmp_path)
    server = None
    if request.param == "socket":
        server = ClusterCoordinatorServer(coordinator)
        server.start_background()
        transport = SocketTransport(server.address)
    else:
        transport = LocalTransport(coordinator.state)
    yield coordinator, transport
    transport.close()
    if server is not None:
        server.stop()


def written(coordinator) -> list[str]:
    """Every file under the cluster directory's results/ and tasks/."""
    return [path.name for name in ("results", "tasks")
            for path in (coordinator.cluster_dir / name).glob("*")]


def test_mistyped_ids_and_integers_are_refused(front_end):
    coordinator, transport = front_end
    ok = record(coordinator.state, 0)
    frames = [
        ("register", {"worker_id": None, "shard": None}),
        ("register", {"worker_id": 123, "shard": None}),
        ("register", {"worker_id": "w", "shard": 0.9}),
        ("register", {"worker_id": "w", "shard": True}),
        ("claim", {"worker_id": "w", "indices": [1.7]}),
        ("claim", {"worker_id": "w", "indices": ["2"]}),
        ("claim", {"worker_id": "w", "indices": [True]}),
        ("claim", {"worker_id": None, "indices": [0]}),
        ("heartbeat", {"worker_id": "w", "indices": [0.0]}),
        ("submit", {"worker_id": "w", "results": [
            {"index": 0, "outcome": ok, "attempt": 1.0}]}),
        ("submit", {"worker_id": "w", "results": [
            {"index": False, "outcome": ok, "attempt": 1}]}),
        ("fail", {"worker_id": "w", "index": 0, "outcome": ok,
                  "attempt": True}),
    ]
    for op, payload in frames:
        with pytest.raises(TransportError, match=f"^{op}: ValueError"):
            transport.request(op, **payload)
    assert coordinator.state.snapshot(now=0.0) == TaskSnapshot(
        done=frozenset(), lease_ages={}, workers=0)
    assert written(coordinator) == []


@pytest.mark.parametrize("outcome", ["not a record", [1, 2], None])
def test_a_non_object_outcome_is_refused_and_writes_nothing(front_end,
                                                            outcome):
    coordinator, transport = front_end
    with pytest.raises(TransportError, match="must be an object"):
        transport.submit_many("w", [(0, outcome, 1)])
    with pytest.raises(TransportError, match="must be an object"):
        transport.request("fail", worker_id="w", index=0, outcome=outcome,
                          attempt=1)
    assert written(coordinator) == []
    assert coordinator.state.snapshot(now=0.0).done == frozenset()


def test_the_state_reads_no_clock_and_starts_no_thread(tmp_path,
                                                       monkeypatch):
    coordinator = guarded(tmp_path, max_attempts=1)
    state = coordinator.state

    def forbidden(*args, **kwargs):
        raise AssertionError("the state read a clock or started a thread")

    for name in ("time", "monotonic", "perf_counter", "time_ns"):
        monkeypatch.setattr(time, name, forbidden)
    monkeypatch.setattr(threading.Thread, "start", forbidden)
    assert state.register("w", None) == 0
    assert state.claim([0, 1], "w", now=0.0) == [0, 1]
    assert state.heartbeat([0, 1], "w", now=1.0) == [0, 1]
    state.submit("w", [(0, record(state, 0), 1)])
    assert state.fail("w", 1, record(state, 1, "error"), 2,
                      now=2.0)["quarantined"]
    assert state.claim([2], "w", now=3.0) == [2]
    assert state.claim([2], "v", now=3.0 + TIMEOUT) == []  # a death
    state.telemetry("w", {"format": "repro-metrics/v1"})
    assert state.status(now=4.0)["total"]["done"] == 3
    assert state.apply({"op": "claim", "worker_id": "w", "indices": [3]},
                       now=5.0) == {"ok": True, "granted": [3]}
    monkeypatch.undo()
