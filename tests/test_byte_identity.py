"""Byte-identity pins for everything the cluster and the resume cache write.

Plan documents, resume-cache keys and entries, outcome dicts and sink lines
are durable formats: a resumed sweep finds its cache entries by key, and a
merge reads parts written by older workers.  The recorded values in
``tests/data/byte_identity.json`` pin them byte for byte, so a faster
serialiser can never change what lands on disk or on the wire.

Regenerate only for a deliberate format change, and re-record only the
pins of the format that changed: ``CACHE_VERSION`` versions cache entries
(and the outcome records in them and in sink parts), and the plan's
``format`` field versions plan documents::

    PYTHONPATH=src python tests/test_byte_identity.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.analysis.metrics import MetricsSummary
from repro.cluster.coordinator import PLAN_NAME, ClusterCoordinator, ClusterPlan
from repro.cluster.serve import ClusterCoordinatorServer
from repro.cluster.sinks import JsonlResultSink
from repro.cluster.transport import SocketTransport
from repro.runtime.cache import ResumeCache
from repro.runtime.guard import GuardPolicy
from repro.runtime.scenarios import chain_grid, paper_grid
from repro.runtime.sweep import ScenarioOutcome

FIXTURE = Path(__file__).parent / "data" / "byte_identity.json"

#: ``(seed, duration)`` pairs the cache keys are pinned at.
KEY_POINTS = ((12345, 0.2), (987654321, 1.5))


def key_specs():
    """The paper grid plus 3- and 5-node chains."""
    return paper_grid() + chain_grid(lengths=(3, 5))


def grid_tcp_coordinator(cluster_dir: Path, **kwargs) -> ClusterCoordinator:
    """The coordinator of the ladder's ``grid-tcp`` workload."""
    specs = paper_grid(attempt_batch_size=100, backend="analytic",
                       engine="heap")
    return ClusterCoordinator(specs, 0.2, cluster_dir, master_seed=12345,
                              num_shards=1, sink="jsonl", **kwargs)


def grid_tcp_plan_document(cluster_dir: Path) -> dict:
    """The plan document of the ladder's ``grid-tcp`` workload."""
    return grid_tcp_coordinator(cluster_dir).cluster_plan().to_dict()


def single_link_outcome() -> ScenarioOutcome:
    return ScenarioOutcome(
        scenario_name="Lab_MD_High_k3_originA",
        scheduler_name="FCFS",
        seed=4611686018427387903,
        duration=0.2,
        summary=MetricsSummary(
            duration=0.2,
            throughput={"MD": 125.00000000000001, "CK": 0.1 + 0.2},
            average_fidelity={"MD": 0.8123456789012345, "CK": 1 / 3},
            average_request_latency={"MD": 0.012300000000000002},
            average_scaled_latency={"MD": 0.0041},
            average_pair_latency={"MD": 1e-300},
            pairs_delivered={"MD": 25, "CK": 1},
            requests_submitted={"MD": 9, "CK": 2},
            requests_completed={"MD": 8, "CK": 1},
            errors={},
            expires=0,
            oks=52,
            average_queue_length=1.25,
        ),
        requests_issued=11,
        backend="analytic",
        events_processed=12345,
        events_elided=678,
        engine="heap",
        wall_time=0.03215,
        cohort=64,
    )


def topology_outcome() -> ScenarioOutcome:
    hops = [{"link": f"n{i}-n{i + 1}", "pairs": 3 + i,
             "throughput": 15.000000000000002 + i,
             "fidelity": 0.7 + i / 7, "latency": None if i else 0.05,
             "errors": i} for i in range(2)]
    return ScenarioOutcome(
        scenario_name="chain3_Lab_High",
        scheduler_name="FCFS",
        seed=17,
        duration=1.5,
        summary=MetricsSummary(
            duration=1.5,
            throughput={"E2E": 2 / 3},
            average_fidelity={"E2E": 0.6123},
            average_request_latency={"E2E": 0.25},
            average_scaled_latency={},
            average_pair_latency={"E2E": 0.25},
            pairs_delivered={"E2E": 1},
            requests_submitted={"CK": 6},
            requests_completed={"CK": 5},
            errors={"EXPIRE": 2, "ERR_NOTIME": 1},
            expires=2,
            oks=14,
            average_queue_length=0.5,
        ),
        requests_issued=6,
        backend="analytic",
        events_processed=4321,
        wall_time=1.0,
        from_cache=True,
        hops=hops,
        end_to_end={"pairs": 1, "throughput": 2 / 3, "fidelity": 0.6123,
                    "min_fidelity": 0.6123, "latency": 0.25, "swaps": 4,
                    "links": 2},
        topology="chain3_Lab",
    )


def failed_outcome() -> ScenarioOutcome:
    return ScenarioOutcome(
        scenario_name="Lab_robust_loss1e-04",
        scheduler_name="HigherWFQ",
        seed=3,
        duration=0.2,
        status="error",
        error="Traceback (most recent call last):\n  ...\nValueError: é",
        backend="density",
        events_processed=17,
        wall_time=0.5,
    )


OUTCOMES = {"single_link": single_link_outcome,
            "topology": topology_outcome,
            "failed": failed_outcome}


def jsonl_lines(tmp_path: Path) -> list[str]:
    """Header and record lines of a JSONL part holding one outcome."""
    sink = JsonlResultSink(tmp_path / "part.jsonl", master_seed=12345,
                           duration=1.5)
    sink.write(7, topology_outcome())
    sink.close()
    return (tmp_path / "part.jsonl").read_text().splitlines()


def cache_entry(tmp_path: Path) -> dict:
    """Filename and text of one stored resume-cache entry."""
    cache = ResumeCache(tmp_path / "cache")
    spec = paper_grid(backend="analytic")[0]
    outcome = single_link_outcome()
    cache.store(spec, outcome, 0.2)
    [path] = (tmp_path / "cache").iterdir()
    return {"name": path.name, "text": path.read_text()}


def record(tmp_path: Path) -> dict:
    """Everything the fixture pins, computed by the code under test."""
    specs = key_specs()
    return {
        "cache_keys": {
            f"{seed}|{duration!r}": {
                spec.name: ResumeCache.key(spec, seed, duration)
                for spec in specs}
            for seed, duration in KEY_POINTS},
        "grid_tcp_plan_sha256": hashlib.sha256(json.dumps(
            grid_tcp_plan_document(tmp_path / "cluster")).encode()
        ).hexdigest(),
        "outcomes": {name: json.dumps(build().to_dict())
                     for name, build in OUTCOMES.items()},
        "jsonl_lines": jsonl_lines(tmp_path),
        "cache_entry": cache_entry(tmp_path),
    }


def expected() -> dict:
    return json.loads(FIXTURE.read_text())


def test_cache_keys_unchanged():
    pinned = expected()["cache_keys"]
    specs = key_specs()
    for seed, duration in KEY_POINTS:
        keys = {spec.name: ResumeCache.key(spec, seed, duration)
                for spec in specs}
        assert keys == pinned[f"{seed}|{duration!r}"]


def test_cache_keys_through_the_config_memo_unchanged(tmp_path):
    # One cache keys every point, so later keys splice the config texts
    # its memo encoded for earlier ones.
    pinned = expected()["cache_keys"]
    cache = ResumeCache(tmp_path)
    specs = key_specs()
    for seed, duration in KEY_POINTS:
        keys = {spec.name: cache._key(spec, seed, duration)
                for spec in specs}
        assert keys == pinned[f"{seed}|{duration!r}"]


def test_grid_tcp_plan_document_unchanged(tmp_path):
    text = json.dumps(grid_tcp_plan_document(tmp_path))
    assert (hashlib.sha256(text.encode()).hexdigest()
            == expected()["grid_tcp_plan_sha256"])


def test_outcome_dicts_unchanged():
    pinned = expected()["outcomes"]
    for name, build in OUTCOMES.items():
        assert json.dumps(build().to_dict()) == pinned[name], name


def test_jsonl_sink_lines_unchanged(tmp_path):
    assert jsonl_lines(tmp_path) == expected()["jsonl_lines"]


def test_cache_entry_unchanged(tmp_path):
    assert cache_entry(tmp_path) == expected()["cache_entry"]


def test_to_dict_returns_fresh_containers():
    """Callers mutate the dicts they get (``identity_payload`` pops keys),
    so no call may hand out a container another call also returns."""
    spec = chain_grid(lengths=(3,))[0]
    first, second = spec.to_dict(), spec.to_dict()
    first["scenario"]["gates"]["electron_coherence"]["t1"] = -1.0
    first["topology"]["links"][0]["scenario"]["name"] = "mutated"
    first["workload"][0]["origin"] = "mutated"
    assert second == spec.to_dict()
    spec.identity_payload()
    assert "topology" in spec.to_dict()
    outcome = topology_outcome()
    data = outcome.to_dict()
    data["summary"]["throughput"]["E2E"] = -1.0
    data["hops"][0]["pairs"] = -1
    data["end_to_end"]["pairs"] = -1
    assert outcome.summary.throughput["E2E"] == 2 / 3
    assert outcome.hops[0]["pairs"] == 3
    assert outcome.end_to_end["pairs"] == 1


def test_served_plan_equals_written_plan(tmp_path):
    specs = paper_grid(attempt_batch_size=100, backend="analytic")[:12]
    coordinator = ClusterCoordinator(specs, 0.2, tmp_path / "cluster",
                                     master_seed=12345, num_shards=2)
    server = ClusterCoordinatorServer(coordinator)
    server.start_background()
    try:
        transport = SocketTransport(server.address)
        try:
            served = transport.request("plan")["plan"]
        finally:
            transport.close()
    finally:
        server.stop()
    written = json.loads((tmp_path / "cluster" / PLAN_NAME).read_text())
    assert served == written
    assert json.dumps(served, indent=2) == json.dumps(written, indent=2)


def test_plan_file_is_compact_json_of_the_written_plan(tmp_path):
    coordinator = grid_tcp_coordinator(tmp_path)
    text = coordinator.write_plan().read_text()
    assert json.loads(text) == coordinator.written_plan
    assert text == json.dumps(coordinator.written_plan)


@pytest.mark.parametrize("guard", [
    None, GuardPolicy(max_events=10**6, wall_deadline=30.0, max_attempts=3,
                      validate=True)], ids=["unguarded", "guarded"])
def test_server_plan_equals_the_plan_file(tmp_path, guard):
    """The server's state holds the coordinator's plan in memory; it must
    be the plan parsed back from ``plan.json``."""
    coordinator = grid_tcp_coordinator(tmp_path, guard=guard)
    server = ClusterCoordinatorServer(coordinator)
    server.start_background()
    try:
        local = server.state.plan
        loaded = ClusterPlan.load(tmp_path)
        assert local.specs == loaded.specs
        assert local.seeds == loaded.seeds
        assert local.num_shards == loaded.num_shards
        assert local.guard == loaded.guard
        assert local == loaded
        assert server.state.guard == loaded.guard_policy()
        assert (guard is None) == (local.guard is None)
    finally:
        server.stop()


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_byte_identity.py --write")
    with tempfile.TemporaryDirectory() as scratch:
        FIXTURE.write_text(json.dumps(record(Path(scratch)), indent=1,
                                      sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
