"""Tests for the worker's claim path: one snapshot per pass, not per claim.

* A worker claims through the candidate list of its last snapshot and
  refreshes only when that view is stale, so draining a plan costs at most
  two snapshots on either transport — while contending workers, whose
  views do go stale, still merge equal to a serial run, and a failed
  scenario is still retried before any other pending one.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.cluster import (
    ClusterCoordinator,
    ClusterWorker,
    LocalTransport,
    SocketTransport,
)
from repro.cluster.serve import ClusterCoordinatorServer
from repro.runtime import GuardPolicy, SweepRunner, single_kind_scenarios
from repro.runtime.sweep import _failure_outcome

from cluster_support import FrameRecorder, ManualClock

DURATION = 0.05
SEED = 77


def grid(count, backend=None):
    specs = single_kind_scenarios(
        "Lab", kinds=("NL", "CK", "MD"), loads=("Low", "High"),
        max_pairs_options=(1, 3), origins=("A", "B"),
        include_md_k255=False, attempt_batch_size=40, backend=backend)
    return specs[:count]


class CountingTransport(FrameRecorder):
    """Records every frame, counting snapshots and claims."""

    @property
    def snapshots(self) -> int:
        return len(self.sent("snapshot"))

    @property
    def claims(self) -> list[tuple[int, bool]]:
        """``(index, granted)`` per claimed index, in call order."""
        return [(index, index in response["granted"])
                for payload, response in self.sent("claim")
                for index in payload["indices"]]

    def granted(self) -> list[int]:
        return [index for index, granted in self.claims if granted]


def plan_cluster(tmp_path, specs, num_shards=1, **kwargs):
    coordinator = ClusterCoordinator(specs, DURATION, tmp_path / "cluster",
                                     master_seed=SEED, num_shards=num_shards,
                                     **kwargs)
    coordinator.write_plan()
    return coordinator


@pytest.fixture(params=("local", "socket"))
def connect(request):
    """``connect(coordinator)`` -> a counting transport of the param kind;
    socket transports of one coordinator share one server, and every
    front-end times leases on ``connect.clock``."""
    servers = {}
    transports = []
    clock = ManualClock()

    def factory(coordinator):
        if request.param == "socket":
            server = servers.get(id(coordinator))
            if server is None:
                server = servers[id(coordinator)] = \
                    ClusterCoordinatorServer(coordinator, clock=clock)
                server.start_background()
            inner = SocketTransport(server.address)
        else:
            inner = LocalTransport(coordinator.state, clock)
        transport = CountingTransport(inner)
        transports.append(transport)
        return transport

    factory.clock = clock
    yield factory
    for transport in transports:
        transport.close()
    for server in servers.values():
        server.stop()


# --------------------------------------------------------------------------- #
# The claim path
# --------------------------------------------------------------------------- #
class TestClaimPath:
    def test_draining_a_plan_takes_at_most_two_snapshots(
            self, tmp_path, connect):
        specs = grid(7, backend="analytic")
        coordinator = plan_cluster(tmp_path, specs, num_shards=3)
        transport = connect(coordinator)
        worker = ClusterWorker(transport, worker_id="solo", shard=0,
                               batch_size=1)
        assert worker.run(poll_interval=0.01) == len(specs)
        assert transport.snapshots <= 2
        assert sorted(transport.granted()) == list(range(len(specs)))
        assert all(granted for _, granted in transport.claims)
        serial = SweepRunner(specs, DURATION, master_seed=SEED).run()
        assert coordinator.merge().outcomes == serial.outcomes

    def test_contending_workers_refresh_and_merge_serially(
            self, tmp_path, connect):
        specs = grid(8)
        coordinator = plan_cluster(tmp_path, specs)
        transports = [connect(coordinator), connect(coordinator)]
        workers = [ClusterWorker(transport, worker_id=f"w{n}", shard=0,
                                 batch_size=1)
                   for n, transport in enumerate(transports)]
        # Alternate steps: each worker's cached list goes stale as its peer
        # claims, so claims are refused and views refreshed.
        active = list(workers)
        while active:
            active = [worker for worker in active
                      if worker.step() is not None]
        refused = [index for transport in transports
                   for index, granted in transport.claims if not granted]
        assert refused, "the peers' views never went stale"
        executed = [index for worker in workers for index in worker.executed]
        assert sorted(executed) == list(range(len(specs)))
        assert coordinator.is_complete()
        serial = SweepRunner(specs, DURATION, master_seed=SEED).run()
        assert coordinator.merge().outcomes == serial.outcomes

    def test_refused_claim_on_a_stale_view_refreshes_it(
            self, tmp_path, connect, monkeypatch):
        import repro.cluster.worker as worker_module

        # Claims of one scenario each, so every claim below is one index.
        monkeypatch.setattr(worker_module, "SUBMIT_FRAME", 1)
        specs = grid(5)
        coordinator = plan_cluster(tmp_path, specs)
        order = list(coordinator.cluster_plan().shard(0))
        peer = LocalTransport(coordinator.state, connect.clock)
        assert peer.try_claim(order[0], "peer")
        transport = connect(coordinator)
        worker = ClusterWorker(transport, worker_id="w", shard=0,
                               batch_size=1)
        assert worker.step() == order[1]
        # Behind the worker's cached view, the peer's lease goes stale and
        # the peer takes the worker's next candidate: the refusal must
        # refresh the view, which puts the stale scenario first again.
        connect.clock.advance(3600.0)
        assert peer.try_claim(order[2], "peer")
        assert worker.step() == order[0]
        assert transport.claims == [(order[1], True), (order[2], False),
                                    (order[0], True)]
        assert transport.snapshots == 2
        peer.close()

    def test_threaded_workers_execute_each_scenario_once(
            self, tmp_path, connect):
        specs = grid(8)
        coordinator = plan_cluster(tmp_path, specs)
        workers = [ClusterWorker(connect(coordinator), worker_id=f"w{n}",
                                 shard=0, batch_size=1)
                   for n in range(4)]
        threads = [threading.Thread(target=worker.run,
                                    kwargs={"poll_interval": 0.01})
                   for worker in workers]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        executed = [index for worker in workers for index in worker.executed]
        assert sorted(executed) == list(range(len(specs)))
        serial = SweepRunner(specs, DURATION, master_seed=SEED).run()
        assert coordinator.merge().outcomes == serial.outcomes

    def test_reported_failure_is_retried_before_other_pending(
            self, tmp_path, connect, monkeypatch):
        import repro.cluster.worker as worker_module

        # One scenario per claim, so the others are still pending (not
        # leased in the flaky scenario's batch) when the failure is reported.
        monkeypatch.setattr(worker_module, "SUBMIT_FRAME", 1)
        specs = grid(5)
        coordinator = plan_cluster(
            tmp_path, specs,
            guard=GuardPolicy(max_events=10**9, max_attempts=2))
        order = list(coordinator.cluster_plan().shard(0))
        flaky = order[1]
        execute = worker_module.execute_scenario
        failed_once = []

        def flaky_execute(spec, seed, duration, **kwargs):
            if spec.name == specs[flaky].name and not failed_once:
                failed_once.append(spec.name)
                return _failure_outcome(spec, seed, duration, "error",
                                        "injected failure",
                                        time.perf_counter())
            return execute(spec, seed, duration, **kwargs)

        monkeypatch.setattr(worker_module, "execute_scenario", flaky_execute)
        transport = connect(coordinator)
        worker = ClusterWorker(transport, worker_id="solo", shard=0,
                               batch_size=1)
        worker.run(poll_interval=0.01)
        assert worker.failed == [flaky]
        assert transport.granted() == [order[0], flaky, *order[1:]]
        merged = coordinator.merge()
        assert [outcome.ok for outcome in merged.outcomes] == \
            [True] * len(specs)
