"""Tests for done records: one ``tasks/<first-index>.done.<unique>.json``
per submit frame.

* A submit writes one record naming the frame's indices that were not done
  yet, after the sink fsync; a duplicated frame writes no second record,
  and threads submitting through one state record each index once.
* A done record that fails to be written leaves the frame's indices not
  done, and their redelivery writes the record without a second sink
  record.
* The paper grid through one TCP worker leaves one record per submit RPC,
  no per-index marker and no lease file.
"""

from __future__ import annotations

import json
import re
import sys
import threading
from pathlib import Path

import pytest

import repro.cluster.state as state_module
import repro.cluster.worker as worker_module
from repro.cluster import (
    ClusterCoordinator,
    ClusterWorker,
    FaultSchedule,
    FaultyTransport,
    LocalTransport,
    SocketTransport,
)
from repro.cluster.serve import ClusterCoordinatorServer
from repro.runtime import paper_grid, single_kind_scenarios
from repro.runtime.sweep import ScenarioOutcome

from cluster_support import FrameRecorder

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


def canned(spec, seed, duration) -> ScenarioOutcome:
    """A cheap stand-in outcome for tests that replace execution."""
    return ScenarioOutcome(scenario_name=spec.name,
                           scheduler_name=spec.scheduler_name(), seed=seed,
                           duration=duration, backend=spec.backend_name())


def results_of(coordinator, indices, attempt=1):
    """A submit frame's ``(index, outcome record, attempt)`` entries."""
    plan = coordinator.cluster_plan()
    return [(index, canned(plan.specs[index], plan.seeds[index],
                           DURATION).to_dict(), attempt)
            for index in indices]


def done_records(cluster_dir: Path) -> dict[str, list[int]]:
    """Every done record in ``tasks/``, by name, parsed directly."""
    return {path.name: json.loads(path.read_text())["indices"]
            for path in (cluster_dir / "tasks").glob("*.done.*.json")}


def part_records(cluster_dir, worker_id) -> list[int]:
    part = cluster_dir / "results" / f"part-{worker_id}.jsonl"
    return [json.loads(line)["index"]
            for line in part.read_text().splitlines()[1:] if line.strip()]


@pytest.fixture(params=("local", "socket"))
def connect(request):
    """``connect(coordinator)`` -> a transport of the param kind."""
    servers = []
    transports = []

    def factory(coordinator):
        if request.param == "socket":
            server = ClusterCoordinatorServer(coordinator)
            server.start_background()
            servers.append(server)
            transport = SocketTransport(server.address)
        else:
            transport = LocalTransport(coordinator.state)
        transports.append(transport)
        return transport

    yield factory
    for transport in transports:
        transport.close()
    for server in servers:
        server.stop()


class TestOneRecordPerFrame:
    def test_a_frame_writes_one_record_of_its_sorted_indices(
            self, tmp_path, connect):
        coordinator = plan_cluster(tmp_path, grid(6))
        transport = connect(coordinator)
        transport.submit_many("w", results_of(coordinator, [4, 1, 3]))
        records = done_records(coordinator.cluster_dir)
        assert list(records.values()) == [[1, 3, 4]]
        (name,) = records
        assert re.fullmatch(r"1\.done\.[0-9a-f]+\.json", name)
        assert state_module.read_tasks(coordinator.cluster_dir)[0] == {
            1, 3, 4}

    def test_a_duplicated_frame_writes_no_second_record(
            self, tmp_path, connect):
        coordinator = plan_cluster(tmp_path, grid(4))
        faulty = FaultyTransport(connect(coordinator),
                                 FaultSchedule(seed=3, duplicate=1.0),
                                 retry_delay=0.0)
        results = results_of(coordinator, [0, 1, 2])
        faulty.submit_many("w", results)  # delivered twice
        faulty.submit_many("w", results)  # and retried whole
        assert list(done_records(coordinator.cluster_dir).values()) == \
            [[0, 1, 2]]
        # A frame overlapping a recorded one records only its new index.
        faulty.submit_many("w", results_of(coordinator, [2, 3]))
        assert sorted(done_records(coordinator.cluster_dir).values()) == \
            [[0, 1, 2], [3]]
        faulty.close()
        assert sorted(part_records(coordinator.cluster_dir, "w")) == \
            [0, 1, 2, 3]


def test_concurrent_submits_record_each_index_once(tmp_path):
    """Threads share one state: overlapping frames submitted side by side,
    with snapshots racing them, leave every index in exactly one done
    record and one sink record."""
    specs = grid(12)
    coordinator = plan_cluster(tmp_path, specs)
    transport = LocalTransport(coordinator.state)
    frames = [results_of(coordinator, range(start, start + 6))
              for start in range(0, 7)]
    errors = []

    def submit(worker, frame):
        try:
            transport.submit_many(worker, frame)
        except Exception as error:  # reported below
            errors.append(error)

    def snapshots():
        for _ in range(20):
            assert transport.snapshot().done <= set(range(len(specs)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=submit, args=(f"w{n}", frame))
                   for n, frame in enumerate(frames)]
        threads.append(threading.Thread(target=snapshots))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    transport.close()
    assert errors == []
    recorded = [index for indices in
                done_records(coordinator.cluster_dir).values()
                for index in indices]
    assert sorted(recorded) == list(range(len(specs)))
    written = [index for part in
               (coordinator.cluster_dir / "results").glob("part-*.jsonl")
               for index in part_records(coordinator.cluster_dir,
                                         part.stem[len("part-"):])]
    assert sorted(written) == list(range(len(specs)))


class TestDoneRecordWriteFails:
    def test_indices_stay_pending_and_their_redelivery_is_deduped(
            self, tmp_path, monkeypatch):
        coordinator = plan_cluster(tmp_path, grid(4))
        transport = LocalTransport(coordinator.state)
        real_write = state_module.write_done_record

        def refuse(*args):
            raise OSError("no space left on device")

        monkeypatch.setattr(state_module, "write_done_record", refuse)
        results = results_of(coordinator, [0, 2])
        with pytest.raises(OSError):
            transport.submit_many("w", results)
        assert part_records(coordinator.cluster_dir, "w") == [0, 2]
        assert done_records(coordinator.cluster_dir) == {}
        assert transport.snapshot().done == set()
        assert not coordinator.is_complete()
        # The same delivery again: its sink records are already durable,
        # so only the done record is written.
        monkeypatch.setattr(state_module, "write_done_record", real_write)
        transport.submit_many("w", results)
        assert part_records(coordinator.cluster_dir, "w") == [0, 2]
        assert list(done_records(coordinator.cluster_dir).values()) == \
            [[0, 2]]


def test_paper_grid_over_tcp_leaves_one_record_per_submit(
        tmp_path, monkeypatch):
    monkeypatch.setattr(
        worker_module, "execute_scenario",
        lambda spec, seed, duration, **kwargs: canned(spec, seed, duration))
    specs = paper_grid(attempt_batch_size=40, backend="analytic")
    coordinator = plan_cluster(tmp_path, specs, num_shards=3)
    server = ClusterCoordinatorServer(coordinator)
    server.start_background()
    try:
        transport = FrameRecorder(SocketTransport(server.address))
        worker = ClusterWorker(transport, "w", cache_dir=None)
        worker.run(poll_interval=0.01)
        worker.close()
    finally:
        server.stop()
    tasks = coordinator.cluster_dir / "tasks"
    records = done_records(coordinator.cluster_dir)
    submits = len(transport.sent("submit"))
    assert 1 < submits < len(specs)
    assert len(records) == submits
    assert sorted(index for indices in records.values()
                  for index in indices) == list(range(len(specs)))
    assert not [path.name for path in tasks.iterdir()
                if re.fullmatch(r"[0-9]+\.done", path.name)]
    assert not list(tasks.glob("*.lease"))
    assert coordinator.is_complete()
