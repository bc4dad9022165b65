"""Tests for the cluster transport layer (``repro.cluster.transport``).

Covers the wire codec, the :class:`Transport` contract's lease edge cases —
double-claim races, stale-lease takeover while the original worker
resurrects, resume-cache skip reporting — **parametrized over both
front-ends** of the coordinator's state (in process and TCP), and the
acceptance bar: a sweep
sharded over ``SocketTransport`` with three workers, work stealing and a
mid-grid worker crash, where workers share *no* filesystem (distinct temp
dirs), merging field-for-field identical to a serial ``SweepRunner`` run
under both backends.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import replace

import pytest

from repro.cluster import (
    ClusterCoordinator,
    ClusterWorker,
    FaultSchedule,
    FaultyTransport,
    LocalTransport,
    SocketTransport,
    TaskSnapshot,
    TransportError,
)
from repro.cluster import transport as transport_module
from repro.cluster.serve import ClusterCoordinatorServer
from repro.cluster.state import OPS
from repro.cluster.transport import parse_address, recv_frame, send_frame
from repro.runtime import ScenarioSpec, SweepRunner, run_sweep, single_kind_scenarios
from repro.runtime.sweep import ScenarioOutcome, execute_scenario

from cluster_support import ManualClock, expire_leases

DURATION = 0.05

TRANSPORTS = ("local", "socket")


def grid(count=None, backend=None, loads=("Low", "High"),
         max_pairs_options=(1, 3)) -> list[ScenarioSpec]:
    specs = single_kind_scenarios(
        "Lab", kinds=("NL", "CK", "MD"), loads=loads,
        max_pairs_options=max_pairs_options, origins=("A", "B"),
        include_md_k255=False, attempt_batch_size=40, backend=backend)
    return specs if count is None else specs[:count]


def fault_schedule(seed: int) -> FaultSchedule:
    """The drop/duplicate/reset mix the hardening tests re-run under."""
    return FaultSchedule(seed=seed, drop=0.15, duplicate=0.15, reset=0.15)


class TransportCluster:
    """One planned cluster reachable over a configurable transport kind.

    ``transport()`` hands out either a :class:`LocalTransport` onto the
    coordinator's state or a :class:`SocketTransport` to a
    :class:`ClusterCoordinatorServer` fronting it; both time leases on one
    :class:`ManualClock`.
    """

    def __init__(self, tmp_path, kind, specs, lease_timeout=120.0, cache_dir=None, master_seed=77,
                 num_shards=3):
        self.kind = kind
        self.coordinator = ClusterCoordinator(
            specs, DURATION, tmp_path / "server", master_seed=master_seed,
            num_shards=num_shards, lease_timeout=lease_timeout,
            cache_dir=cache_dir)
        self.coordinator.write_plan()
        self.clock = ManualClock()
        self.server = None
        self._transports = []
        if kind == "socket":
            self.server = ClusterCoordinatorServer(self.coordinator,
                                                   clock=self.clock)
            self.server.start_background()

    def transport(self, schedule=None):
        """A transport onto the cluster; pass a :class:`FaultSchedule` to
        wrap it in a :class:`FaultyTransport` (seeded drops, duplicates,
        resets, ... injected around every operation)."""
        if self.kind == "socket":
            transport = SocketTransport(self.server.address)
        else:
            transport = LocalTransport(self.coordinator.state, self.clock)
        if schedule is not None:
            transport = FaultyTransport(transport, schedule, retry_delay=0.0)
        self._transports.append(transport)
        return transport

    def expire_leases(self, seconds=3600.0) -> int:
        """Step the coordinator's clock past every lease; returns how many
        leases of unfinished scenarios there were."""
        return expire_leases(self.coordinator, self.clock, seconds)

    def close(self):
        for transport in self._transports:
            transport.close()
        if self.server is not None:
            self.server.stop()


@pytest.fixture(params=TRANSPORTS)
def make_cluster(request, tmp_path):
    clusters = []

    def factory(specs, **kwargs):
        cluster = TransportCluster(tmp_path, request.param, specs, **kwargs)
        clusters.append(cluster)
        return cluster

    factory.kind = request.param
    yield factory
    for cluster in clusters:
        cluster.close()


# --------------------------------------------------------------------------- #
# Wire codec
# --------------------------------------------------------------------------- #
class TestFraming:
    def test_frame_round_trip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            payload = {"op": "claim", "index": 3,
                       "nested": {"values": [1.5, None, "x"]}}
            send_frame(left, payload)
            assert recv_frame(right) == payload
        finally:
            left.close()
            right.close()

    def test_clean_eof_returns_none_and_torn_frame_raises(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert recv_frame(right) is None
        finally:
            right.close()
        left, right = socket.socketpair()
        try:
            body = json.dumps({"op": "x"}).encode()
            # Announce more bytes than we send, then close mid-frame.
            left.sendall(len(body).to_bytes(4, "big") + body[:-2])
            left.close()
            with pytest.raises(TransportError, match="mid-frame"):
                recv_frame(right)
        finally:
            right.close()

    def test_parse_address(self):
        assert parse_address("example.org:7766") == ("example.org", 7766)
        assert parse_address(("10.0.0.1", 80)) == ("10.0.0.1", 80)
        with pytest.raises(ValueError):
            parse_address("no-port")

    def test_snapshot_round_trips_through_json(self):
        snapshot = TaskSnapshot(done=frozenset({0, 4}),
                                lease_ages={2: 1.5, 7: 900.0})
        again = TaskSnapshot.from_dict(
            json.loads(json.dumps(snapshot.to_dict())))
        assert again == snapshot
        assert again.is_done(4) and not again.is_done(2)
        assert again.is_available(1, lease_timeout=60.0)
        assert not again.is_available(2, lease_timeout=60.0)  # live lease
        assert again.is_available(7, lease_timeout=60.0)  # stale lease


# --------------------------------------------------------------------------- #
# Transport contract (parametrized over the local and socket front-ends)
# --------------------------------------------------------------------------- #
class TestTransportContract:
    def test_plan_and_registration_match_the_coordinator(self, make_cluster):
        specs = grid(count=4, backend="analytic")
        cluster = make_cluster(specs)
        transport = cluster.transport()
        assert transport.plan.specs == specs
        assert transport.plan.num_shards == cluster.coordinator.num_shards
        # Auto shard assignment is round-robin over registrations.
        assert transport.register_worker("a", None) == 0
        assert transport.register_worker("b", None) == 1
        assert transport.register_worker("c", 2) == 2
        with pytest.raises(TransportError):
            transport.register_worker("d", 99)

    @pytest.mark.parametrize("faulted", [False, True],
                             ids=["clean", "faulty"])
    def test_double_claim_race_grants_exactly_one(self, make_cluster,
                                                  faulted):
        specs = grid(count=4, backend="analytic")
        cluster = make_cluster(specs)
        # Under faults, contenders' claims are additionally dropped,
        # duplicated and reset mid-race — the injected retries re-deliver
        # claims whose first delivery may have been applied, and exactly-one
        # must still hold because claims idempotently re-grant to the owner.
        contenders = [
            cluster.transport(fault_schedule(300 + i) if faulted else None)
            for i in range(6)]
        grants = []
        barrier = threading.Barrier(len(contenders))

        def contend(transport, worker_id):
            barrier.wait()
            if transport.try_claim(0, worker_id):
                grants.append(worker_id)

        threads = [threading.Thread(target=contend, args=(t, f"w{i}"))
                   for i, t in enumerate(contenders)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(grants) == 1
        # The grant is visible to everyone: index 0 now carries a live lease.
        snapshot = contenders[0].snapshot()
        assert not snapshot.is_available(
            0, cluster.coordinator.lease_timeout)
        # And a later claim against the live lease is refused.
        assert not contenders[0].try_claim(0, "latecomer")

    def test_stale_takeover_while_original_worker_resurrects(
            self, make_cluster):
        specs = grid(count=4, backend="analytic")
        cluster = make_cluster(specs)
        original = cluster.transport()
        rescuer = cluster.transport()
        assert original.try_claim(0, "original")
        assert original.heartbeat(0, "original")

        # The original goes silent; its lease ages past the timeout and a
        # rescuer takes it over atomically.
        assert cluster.expire_leases() == 1
        assert rescuer.try_claim(0, "rescuer")

        # The resurrected original discovers the takeover through its
        # heartbeat and stops beating.
        assert not original.heartbeat(0, "original")
        assert rescuer.heartbeat(0, "rescuer")

        # Both execute (determinism makes the records identical) and both
        # submissions land; the merge dedupes to the single serial outcome.
        outcome = execute_scenario(specs[0], original.plan.seeds[0], DURATION)
        rescuer.submit_result("rescuer", 0, outcome)
        original.submit_result("original", 0, outcome)
        for transport in (original, rescuer):
            assert transport.snapshot().is_done(0)
        # A claim on a done scenario is refused, stale lease or not.
        cluster.expire_leases()
        assert not rescuer.try_claim(0, "third")
        cluster.close()
        merged = cluster.coordinator.merge(require_complete=False)
        assert merged.outcomes == [outcome]

    def test_cache_report_skip_reasons_reach_the_worker(self, make_cluster,
                                                        tmp_path):
        specs = grid(count=4, backend="analytic")
        cache_dir = tmp_path / "worker-local-cache"
        serial = run_sweep(specs, DURATION, master_seed=77,
                           cache_dir=cache_dir)
        # Corrupt one entry; leave another readable only under a foreign
        # backend by rewriting its filename suffix (v4 layout:
        # ``<key>.<backend>.<engine>.json``).
        entries = sorted(cache_dir.glob("*.analytic.*.json"))
        assert len(entries) == 4
        entries[0].write_text("{torn")
        entries[1].rename(entries[1].with_name(
            entries[1].name.replace(".analytic.", ".density.")))

        cluster = make_cluster(specs)
        worker = ClusterWorker(cluster.transport(), "w", shard=0,
                               cache_dir=cache_dir)
        worker.run(wait_for_stragglers=False)
        report = worker.cache_report
        assert report.counts() == {"hits": 2, "misses": 0, "skips": 2}
        reasons = sorted(skip.reason for skip in report.skips)
        assert "corrupt cache entry" in reasons[1]
        assert "exists only under 'density'" in reasons[0]
        merged = cluster.coordinator.merge()
        assert merged.outcomes == serial.outcomes

    def test_worker_equivalence_over_either_front_end(self, make_cluster):
        specs = grid(count=8, backend="analytic")
        serial = SweepRunner(specs, DURATION, master_seed=77).run()
        cluster = make_cluster(specs)
        workers = [ClusterWorker(cluster.transport(), f"w{i}", shard=i,
                                 cache_dir=None)
                   for i in range(3)]
        for worker in workers:
            worker.run(wait_for_stragglers=False)
        cluster.close()
        merged = cluster.coordinator.merge()
        assert merged.outcomes == serial.outcomes
        assert merged == serial


# --------------------------------------------------------------------------- #
# Socket specifics
# --------------------------------------------------------------------------- #
def op_payload(op: str, plan) -> dict:
    """A frame body the coordinator answers ``ok: true`` for ``op``."""
    outcome = ScenarioOutcome(
        scenario_name=plan.specs[0].name,
        scheduler_name=plan.specs[0].scheduler_name(), seed=plan.seeds[0],
        duration=plan.duration, backend=plan.specs[0].backend_name())
    return {
        "plan": {}, "snapshot": {}, "status": {},
        "register": {"worker_id": "w"},
        "claim": {"worker_id": "w", "indices": [0]},
        "heartbeat": {"worker_id": "w", "indices": [0]},
        "submit": {"worker_id": "w", "results": [
            {"index": 0, "outcome": outcome.to_dict(), "attempt": 0}]},
        "fail": {"worker_id": "w", "index": 0, "attempt": 1,
                 "outcome": replace(outcome, status="failed",
                                    error="injected").to_dict()},
        "telemetry": {"worker_id": "w",
                      "metrics": {"format": "repro-metrics/v1",
                                  "counters": []}},
    }[op]


class TestSocketTransport:
    @pytest.mark.parametrize("op", OPS + ("plan",))
    def test_request_dropped_before_send_is_retried_and_answered_once(
            self, tmp_path, monkeypatch, op):
        """Every operation is idempotent, so every one is retried: a
        connection lost before the frame went out costs one retry, and the
        coordinator answers the frame exactly once."""
        specs = grid(count=2, backend="analytic")
        cluster = TransportCluster(tmp_path, "socket", specs)
        server = cluster.server
        answered = []

        def counting_dispatch(frame, dispatch=server.dispatch):
            answered.append(frame["op"])
            return dispatch(frame)

        server.dispatch = counting_dispatch
        sends = []

        def dropping_send(sock, payload):
            sends.append(payload["op"])
            if len(sends) == 1:
                raise ConnectionResetError("dropped before send")
            send_frame(sock, payload)

        try:
            transport = SocketTransport(server.address, retry_backoff=0.0)
            payload = op_payload(op, transport.plan)
            answered.clear()
            monkeypatch.setattr(transport_module, "send_frame", dropping_send)
            response = transport.request(op, **payload)
            assert response["ok"] is True
            assert sends == [op, op]
            assert answered == [op]
            assert transport.retries == 1
            transport.close()
        finally:
            cluster.close()

    def test_unknown_op_and_bad_index_are_rejected(self, tmp_path):
        specs = grid(count=2, backend="analytic")
        cluster = TransportCluster(tmp_path, "socket", specs)
        try:
            transport = cluster.transport()
            with pytest.raises(TransportError, match="unknown operation"):
                transport.request("frobnicate")
            with pytest.raises(TransportError, match="out of range"):
                transport.request("claim", indices=[99], worker_id="w")
        finally:
            cluster.close()

    def test_heartbeat_against_a_stopped_server_raises(self, tmp_path):
        """Unknown is not lost, but that is the worker's rule
        (``_Heartbeat``): the transport reports the failed delivery."""
        specs = grid(count=2, backend="analytic")
        cluster = TransportCluster(tmp_path, "socket", specs)
        transport = SocketTransport(cluster.server.address, max_attempts=1)
        try:
            assert transport.try_claim(0, "w")
            cluster.server.stop()
            with pytest.raises(TransportError):
                transport.heartbeat(0, "w")
        finally:
            transport.close()
            cluster.close()

    def test_connect_failure_raises_transport_error(self):
        with pytest.raises(TransportError, match="cannot connect"):
            SocketTransport("127.0.0.1:1", connect_retry=0.0)

    def test_status_over_the_wire(self, tmp_path):
        specs = grid(count=4, backend="analytic")
        cluster = TransportCluster(tmp_path, "socket", specs)
        try:
            transport = cluster.transport()
            status = transport.status()
            assert status["scenarios"] == 4
            assert status["total"]["pending"] == 4
            assert status["complete"] is False
            ClusterWorker(transport, "w", shard=0).run(
                wait_for_stragglers=False)
            assert cluster.transport().status()["complete"] is True
        finally:
            cluster.close()

    def test_request_reconnects_after_a_dropped_connection(self, tmp_path):
        specs = grid(count=2, backend="analytic")
        cluster = TransportCluster(tmp_path, "socket", specs)
        try:
            transport = cluster.transport()
            assert transport.status()["scenarios"] == 2
            # Kill the underlying socket mid-session (what a timed-out or
            # failed request does): the next request must open a fresh,
            # in-sync connection instead of reading a stale response.
            transport._sock.close()
            transport._sock = None
            assert transport.status()["scenarios"] == 2
            # close() is terminal — no silent reconnects afterwards.
            transport.close()
            with pytest.raises(TransportError, match="closed"):
                transport.status()
        finally:
            cluster.close()

    def test_worker_run_survives_coordinator_shutdown(self, tmp_path):
        specs = grid(count=4, backend="analytic")
        cluster = TransportCluster(tmp_path, "socket", specs)
        worker = ClusterWorker(cluster.transport(), "w", shard=0)
        # The coordinator vanishes before the worker ever steps (merged and
        # exited, say): run() must return cleanly, not raise.
        cluster.close()
        assert worker.run(poll_interval=0.01, reconnect_grace=0.0) == 0

    def test_worker_rides_out_a_coordinator_restart(self, tmp_path):
        specs = grid(count=4, backend="analytic")
        cluster = TransportCluster(tmp_path, "socket", specs)
        worker = ClusterWorker(cluster.transport(), "w", shard=0)
        # The coordinator goes down mid-sweep and comes back on the same
        # port (serve resumes on its durable directory); a restart thread
        # brings it up shortly.
        address = cluster.server.server_address[:2]
        cluster.server.stop()
        replacement = {}

        def restart():
            time.sleep(0.5)
            server = ClusterCoordinatorServer(cluster.coordinator, address)
            server.start_background()
            replacement["server"] = server

        thread = threading.Thread(target=restart)
        thread.start()
        try:
            executed = worker.run(poll_interval=0.05, reconnect_grace=30.0)
        finally:
            thread.join()
            replacement["server"].stop()
        assert executed == len(specs)
        merged = cluster.coordinator.merge()
        serial = SweepRunner(specs, DURATION, master_seed=77).run()
        assert merged.outcomes == serial.outcomes

    @pytest.mark.parametrize("faulted", [False, True],
                             ids=["clean", "faulty"])
    def test_server_restart_resumes_durable_state(self, tmp_path, faulted):
        specs = grid(count=6, backend="analytic")
        cluster = TransportCluster(tmp_path, "socket", specs)
        worker = ClusterWorker(
            cluster.transport(fault_schedule(400) if faulted else None),
            "w0", shard=0, steal=False)
        worker.run(wait_for_stragglers=False)
        done_before = len(worker.executed)
        assert 0 < done_before < len(specs)
        cluster.close()

        # A restarted coordinator over the same directory reads the done
        # records back; a new worker finishes only the remainder — under
        # faults, its duplicated/reset submits must not double-count any
        # scenario across the restart boundary.
        restarted = ClusterCoordinator(
            specs, DURATION, cluster.coordinator.cluster_dir, master_seed=77,
            num_shards=3, lease_timeout=120.0)
        server = ClusterCoordinatorServer(restarted)
        server.start_background()
        try:
            transport = SocketTransport(server.address)
            if faulted:
                transport = FaultyTransport(transport, fault_schedule(401),
                                            retry_delay=0.0)
            finisher = ClusterWorker(transport, "w1", shard=1)
            finisher.run(wait_for_stragglers=False)
            assert len(finisher.executed) == len(specs) - done_before
            merged = restarted.merge()
            serial = SweepRunner(specs, DURATION, master_seed=77).run()
            assert merged.outcomes == serial.outcomes
        finally:
            server.stop()


# --------------------------------------------------------------------------- #
# Acceptance: socket-sharded crashy sweep == serial, no shared filesystem
# --------------------------------------------------------------------------- #
class TestSocketShardedEquivalence:
    """Acceptance criterion: ≥24 scenarios over ``SocketTransport`` with 3
    workers, stealing, one mid-grid crash, every worker in its own temp dir
    with no shared filesystem — merged result field-for-field identical to
    the serial ``SweepRunner``, under both backends."""

    @pytest.mark.parametrize(
        "backend,faulted",
        [("density", False), ("analytic", False),
         ("density", True), ("analytic", True)],
        ids=["density-clean", "analytic-clean",
             "density-faulty", "analytic-faulty"])
    def test_socket_sharded_crashy_sweep_equals_serial(self, tmp_path,
                                                       backend, faulted):
        specs = grid(backend=backend)
        assert len(specs) >= 24
        serial = SweepRunner(specs, DURATION, master_seed=77).run()

        cluster = TransportCluster(tmp_path, "socket", specs)
        # Each worker's only local state is its own private directory —
        # nothing is shared between workers except the TCP connection.
        worker_dirs = [tmp_path / f"machine-{i}" for i in range(3)]
        for worker_dir in worker_dirs:
            worker_dir.mkdir()

        def faults(seed):
            return fault_schedule(seed) if faulted else None

        workers = [
            ClusterWorker(cluster.transport(faults(500)), "w0", shard=0,
                          cache_dir=worker_dirs[0] / "cache",
                          crash_after_claims=3),
            ClusterWorker(cluster.transport(faults(501)), "w1", shard=1,
                          cache_dir=worker_dirs[1] / "cache"),
            ClusterWorker(cluster.transport(faults(502)), "w2", shard=2,
                          cache_dir=worker_dirs[2] / "cache"),
        ]
        for _ in range(500):
            progressed = False
            for worker in workers:
                try:
                    if worker.step() is not None:
                        progressed = True
                except TransportError:
                    # An injected fault burst outlasting the wrapper's retry
                    # budget — a coordinator outage, as far as the worker is
                    # concerned.  Step again next round.
                    progressed = True
            if cluster.coordinator.is_complete():
                break
            if not progressed:
                assert cluster.expire_leases() > 0, \
                    "no progress and no stale lease to reclaim: deadlock"
        else:
            raise AssertionError("grid did not complete")

        assert workers[0].crashed  # the simulated death actually happened
        cluster.close()
        merged = cluster.coordinator.merge()
        assert merged.master_seed == serial.master_seed
        assert merged.duration == serial.duration
        assert merged.outcomes == serial.outcomes
        assert merged == serial
        # The survivors stole from the crashed worker's shard.
        shard0 = set(cluster.coordinator.cluster_plan().shard(0))
        stolen = shard0 & set(workers[1].executed + workers[2].executed)
        assert stolen
