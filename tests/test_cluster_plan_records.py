"""Tests for the cluster data that moves in its stored form.

* The plan document (``cluster-plan/v3``) holds each distinct hardware
  config once, in a ``configs`` table its spec entries index into.  A
  ``cluster-plan/v1`` document is refused by every reader; re-planning with
  ``reset=True`` replaces it.  The config table belongs to the sweep
  identity, so a changed hardware parameter is a different sweep.
* The TCP coordinator answers every ``plan`` request with one body encoded
  once, byte for byte ``json.dumps({"ok": True, "plan": written_plan})``.
* Outcomes travel as plain records: a cache hit's stored record goes into
  the submit frame marked ``from_cache``, and the coordinator checks each
  record and writes it to the sink as received.  The sink line equals the
  one a rebuilt ``ScenarioOutcome`` would write, and a record
  ``ScenarioOutcome.from_dict`` would refuse is refused.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import struct

import pytest

import repro.cluster.worker as worker_module
from repro.cluster import (
    ClusterCoordinator,
    ClusterPlan,
    ClusterWorker,
    LocalTransport,
    SocketTransport,
)
from repro.cluster.coordinator import PLAN_FORMAT
from repro.cluster.serve import ClusterCoordinatorServer
from repro.cluster.transport import recv_frame, send_frame
from repro.runtime import GuardPolicy, paper_grid, single_kind_scenarios
from repro.runtime.cache import CACHE_VERSION, ResumeCache
from repro.runtime.sweep import ScenarioOutcome, execute_scenario

DURATION = 0.05
SEED = 77


def grid(count, hardware="Lab"):
    specs = single_kind_scenarios(
        hardware, kinds=("NL", "CK", "MD"), loads=("Low", "High"),
        max_pairs_options=(1, 3), origins=("A", "B"),
        include_md_k255=False, attempt_batch_size=40, backend="analytic")
    return specs[:count]


def coordinator_for(tmp_path, specs, **kwargs) -> ClusterCoordinator:
    kwargs.setdefault("num_shards", 1)
    return ClusterCoordinator(specs, DURATION, tmp_path / "cluster",
                              master_seed=SEED, **kwargs)


def v1_document(document: dict) -> dict:
    """``document`` in the ``cluster-plan/v1`` layout: every spec entry
    embeds its full hardware config, and there is no config table."""
    v1 = {key: value for key, value in document.items() if key != "configs"}
    v1["format"] = "cluster-plan/v1"
    configs = document["configs"]
    v1["specs"] = [{**entry, "scenario": configs[entry["scenario"]]}
                   for entry in document["specs"]]
    return v1


def part_lines(cluster_dir, worker_id="w") -> dict[int, str]:
    """The record lines of one JSONL part, by index, as written."""
    part = cluster_dir / "results" / f"part-{worker_id}.jsonl"
    lines = part.read_text().splitlines()[1:]
    return {json.loads(line)["index"]: line
            for line in lines if line.strip()}


def cached_line(index: int, entry_outcome: dict) -> str:
    """The sink line a cache hit of ``entry_outcome`` was written as before
    records were passed through: rebuilt, marked, converted back."""
    outcome = ScenarioOutcome.from_dict(entry_outcome)
    outcome.from_cache = True
    return json.dumps({"index": index, "outcome": outcome.to_dict()})


@pytest.fixture(params=("local", "socket"))
def connect(request):
    """``connect(coordinator)`` -> a transport of the param kind."""
    servers, transports = [], []

    def factory(coordinator):
        if request.param == "socket":
            server = ClusterCoordinatorServer(coordinator)
            server.start_background()
            servers.append(server)
            transport = SocketTransport(server.address)
        else:
            coordinator.write_plan()
            transport = LocalTransport(coordinator.state)
        transports.append(transport)
        return transport

    yield factory
    for transport in transports:
        transport.close()
    for server in servers:
        server.stop()


# --------------------------------------------------------------------------- #
# Plan format
# --------------------------------------------------------------------------- #
class TestPlanFormat:
    def test_a_v1_plan_is_refused_until_replanned_with_reset(self, tmp_path):
        coordinator = coordinator_for(tmp_path, grid(4))
        path = coordinator.write_plan()
        path.write_text(json.dumps(v1_document(coordinator.written_plan)))
        with pytest.raises(ValueError, match="'cluster-plan/v1'"):
            ClusterPlan.load(coordinator.cluster_dir)
        again = coordinator_for(tmp_path, grid(4))
        with pytest.raises(RuntimeError, match="'cluster-plan/v1'"):
            again.write_plan()
        again.write_plan(reset=True)
        assert json.loads(path.read_text())["format"] == PLAN_FORMAT
        assert ClusterPlan.load(coordinator.cluster_dir).specs == grid(4)

    def test_a_plan_with_the_retired_skew_field_still_loads(self, tmp_path):
        """Plans written while leases had a clock-skew allowance carry a
        ``clock_skew_tolerance`` field; it is ignored, and re-planning the
        same sweep over such a plan resumes it."""
        coordinator = coordinator_for(tmp_path, grid(4))
        path = coordinator.write_plan()
        path.write_text(json.dumps({**coordinator.written_plan,
                                    "clock_skew_tolerance": 5.0}))
        assert ClusterPlan.load(coordinator.cluster_dir) == \
            coordinator.cluster_plan()
        coordinator_for(tmp_path, grid(4)).write_plan()
        assert "clock_skew_tolerance" not in json.loads(path.read_text())

    def test_a_changed_hardware_parameter_is_a_different_sweep(
            self, tmp_path):
        specs = grid(4)
        coordinator = coordinator_for(tmp_path, specs)
        coordinator.write_plan()
        lossy = [dataclasses.replace(
            spec, scenario=spec.scenario.with_frame_loss(0.1))
            for spec in specs]
        changed = coordinator_for(tmp_path, lossy)
        # The spec entries alone cannot tell the two sweeps apart: they
        # name their config by index.
        assert (changed.cluster_plan().to_dict()["specs"]
                == coordinator.written_plan["specs"])
        with pytest.raises(RuntimeError, match="different sweep plan"):
            changed.write_plan()
        changed.write_plan(reset=True)
        assert ClusterPlan.load(coordinator.cluster_dir).specs == lossy

    def test_the_paper_grid_plan_holds_each_config_once(self, tmp_path):
        specs = paper_grid(attempt_batch_size=100, backend="analytic")
        coordinator = coordinator_for(tmp_path, specs, num_shards=3)
        document = json.loads(coordinator.write_plan().read_text())
        configs = document["configs"]
        assert len(configs) == 4
        assert len({json.dumps(config, sort_keys=True)
                    for config in configs}) == 4
        indices = [entry["scenario"] for entry in document["specs"]]
        first_use = sorted(set(indices), key=indices.index)
        assert first_use == [0, 1, 2, 3]
        plan = ClusterPlan.from_dict(document)
        assert plan.specs == specs
        for spec, rebuilt in zip(specs, plan.specs):
            assert rebuilt == spec
        # Each config is built once and shared by the specs using it.
        assert len({id(spec.scenario) for spec in plan.specs}) == 4

    @pytest.mark.parametrize("index", [-1, 1, "0", None])
    def test_a_config_index_outside_the_table_is_refused(self, tmp_path,
                                                        index):
        document = coordinator_for(
            tmp_path, grid(2)).cluster_plan().to_dict()
        assert len(document["configs"]) == 1
        document["specs"][1]["scenario"] = index
        with pytest.raises(ValueError, match="config index"):
            ClusterPlan.from_dict(document)

    def test_plan_frames_are_encoded_once(self, tmp_path, monkeypatch):
        coordinator = coordinator_for(tmp_path, grid(6), num_shards=2)
        server = ClusterCoordinatorServer(coordinator)
        server.start_background()
        written = coordinator.written_plan
        encodes = []
        real_encode = json.JSONEncoder.encode

        def counting_encode(self, value):
            if value is written or (isinstance(value, dict)
                                    and value.get("plan") is written):
                encodes.append(value)
            return real_encode(self, value)

        monkeypatch.setattr(json.JSONEncoder, "encode", counting_encode)
        bodies = []
        try:
            for _ in range(2):
                with socket.create_connection(server.server_address[:2],
                                              timeout=10) as sock:
                    send_frame(sock, {"op": "plan"})
                    (length,) = struct.unpack(">I", recv_exact(sock, 4))
                    bodies.append(recv_exact(sock, length))
        finally:
            server.stop()
        assert encodes == []
        monkeypatch.undo()
        assert bodies[0] == bodies[1]
        assert bodies[0] == json.dumps({"ok": True,
                                        "plan": written}).encode()


def recv_exact(sock, count) -> bytes:
    data = b""
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        assert chunk, "connection closed"
        data += chunk
    return data


# --------------------------------------------------------------------------- #
# Record path
# --------------------------------------------------------------------------- #
def _non_object(record):
    return ["not", "an", "outcome"]


def _without_seed(record):
    return {key: value for key, value in record.items() if key != "seed"}


def _summary_without_oks(record):
    summary = {key: value for key, value in record["summary"].items()
               if key != "oks"}
    return {**record, "summary": summary}


class TestRecordPath:
    @pytest.mark.parametrize("malform", [
        _non_object, _without_seed, _summary_without_oks],
        ids=["non-object", "no-seed", "summary-without-oks"])
    def test_a_record_from_dict_refuses_is_refused(self, tmp_path, malform):
        specs = grid(2)
        coordinator = coordinator_for(tmp_path, specs)
        server = ClusterCoordinatorServer(coordinator)
        server.start_background()
        plan = coordinator.cluster_plan()
        record = execute_scenario(specs[0], plan.seeds[0],
                                  DURATION).to_dict()
        assert record["summary"] is not None
        try:
            with socket.create_connection(server.server_address[:2],
                                          timeout=10) as sock:
                send_frame(sock, {"op": "submit", "worker_id": "w",
                                  "results": [{"index": 0,
                                               "outcome": malform(record),
                                               "attempt": 1}]})
                response = recv_frame(sock)
                assert response["ok"] is False
                assert not coordinator.is_complete()
                part = coordinator.cluster_dir / "results" / "part-w.jsonl"
                assert not part.exists() or part_lines(
                    coordinator.cluster_dir) == {}
                # The connection keeps serving, and a good record lands.
                send_frame(sock, {"op": "submit", "worker_id": "w",
                                  "results": [{"index": 0, "outcome": record,
                                               "attempt": 2}]})
                assert recv_frame(sock) == {"ok": True}
        finally:
            server.stop()
        assert part_lines(coordinator.cluster_dir) == {
            0: json.dumps({"index": 0, "outcome": record})}

    @pytest.mark.parametrize("entry", ["stored", "hand-written"])
    def test_a_hit_is_written_as_the_rebuilt_outcome_would_be(
            self, tmp_path, connect, monkeypatch, entry):
        specs = grid(3)
        coordinator = coordinator_for(tmp_path, specs)
        plan = coordinator.cluster_plan()
        cache = ResumeCache(tmp_path / "cache")
        stored = {}
        for index, spec in enumerate(specs):
            outcome = execute_scenario(spec, plan.seeds[index], DURATION)
            if entry == "stored":
                cache.store(spec, outcome, DURATION)
                stored[index] = outcome.to_dict()
                continue
            # An entry an older version wrote: no events_elided or engine
            # in the outcome, keys in another order.
            record = {key: value for key, value in outcome.to_dict().items()
                      if key not in ("events_elided", "engine")}
            record = dict(reversed(record.items()))
            path = cache.path(spec, plan.seeds[index], DURATION)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({
                "cache_version": CACHE_VERSION, "backend": outcome.backend,
                "engine": spec.engine, "topology": None, "outcome": record}))
            stored[index] = record
        monkeypatch.setattr(worker_module, "execute_scenario", _no_execution)
        worker = ClusterWorker(connect(coordinator), "w", shard=0,
                               cache_dir=tmp_path / "cache")
        worker.run(poll_interval=0.01)
        assert worker.cache_report.counts()["hits"] == len(specs)
        assert part_lines(coordinator.cluster_dir) == {
            index: cached_line(index, record)
            for index, record in stored.items()}

    def test_a_stolen_hit_is_written_from_its_record(
            self, tmp_path, connect, monkeypatch):
        specs = grid(6)
        coordinator = coordinator_for(tmp_path, specs, num_shards=2)
        plan = coordinator.cluster_plan()
        cache = ResumeCache(tmp_path / "cache")
        stored = {}
        for index, spec in enumerate(specs):
            outcome = execute_scenario(spec, plan.seeds[index], DURATION)
            cache.store(spec, outcome, DURATION)
            stored[index] = outcome.to_dict()
        stolen = list(coordinator.cluster_plan().shard(1))
        monkeypatch.setattr(worker_module, "execute_scenario", _no_execution)
        transport = connect(coordinator)
        worker = ClusterWorker(transport, "w", shard=0,
                               cache_dir=tmp_path / "cache")
        claims = []
        real_claim = transport.claim_many
        monkeypatch.setattr(transport, "claim_many", lambda indices, wid: (
            claims.extend(indices), real_claim(indices, wid))[1])
        worker.run(poll_interval=0.01)
        # The other shard's hits went through claims (stolen), not the
        # lease-free own-shard path.
        assert sorted(claims) == sorted(stolen)
        assert part_lines(coordinator.cluster_dir) == {
            index: cached_line(index, record)
            for index, record in stored.items()}

    def test_a_cached_quarantine_under_a_guard_is_executed_again(
            self, tmp_path, connect, monkeypatch):
        """The cache keeps no failure ledger: a quarantined entry an older
        guarded sweep wrote (with its ``attempts``) is skipped, and the
        scenario runs under the coordinator's own retry budget."""
        specs = grid(3)
        coordinator = coordinator_for(
            tmp_path, specs, guard=GuardPolicy(max_attempts=2))
        plan = coordinator.cluster_plan()
        cache = ResumeCache(tmp_path / "cache")
        quarantined = ScenarioOutcome(
            scenario_name=specs[1].name,
            scheduler_name=specs[1].scheduler_name(), seed=plan.seeds[1],
            duration=DURATION, status="quarantined",
            error="quarantined after spending the retry budget",
            backend=specs[1].backend_name())
        path = cache.path(specs[1], plan.seeds[1], DURATION)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "cache_version": CACHE_VERSION, "backend": quarantined.backend,
            "engine": specs[1].engine, "topology": None,
            "outcome": quarantined.to_dict(), "attempts": 2}))
        executed = []
        real_execute = worker_module.execute_scenario

        def execute(spec, *args, **kwargs):
            executed.append(spec.name)
            return real_execute(spec, *args, **kwargs)

        monkeypatch.setattr(worker_module, "execute_scenario", execute)
        worker = ClusterWorker(connect(coordinator), "w", shard=0,
                               cache_dir=tmp_path / "cache")
        worker.run(poll_interval=0.01)
        assert worker.failed == []
        assert sorted(executed) == sorted(spec.name for spec in specs)
        (skip,) = worker.cache_report.skips
        assert skip.scenario_name == specs[1].name
        assert "failed run" in skip.reason
        merged = coordinator.merge()
        assert merged.quarantined_indices == []
        assert merged.outcomes[1].ok and not merged.outcomes[1].from_cache


def _no_execution(*args, **kwargs):
    raise AssertionError("a cache hit was executed")
