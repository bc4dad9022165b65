"""A run depends only on itself, and no module keeps run state.

Each run owns its physics backend and its CREATE id counter, so what ran
earlier in the same process can change neither its outcome, its trace nor
its request ids.  The module-state guard keeps it that way: it fails on any
module-level mutable container, counter or memo — and on any function that
rebinds a module global — that is not on the allowlist below, each entry
with its reason.
"""

from __future__ import annotations

import ast
import collections
import functools
import importlib
import io
import itertools
import pkgutil
from pathlib import Path

import pytest

import repro
from repro.backends import BackendSet, PhysicsBackend, get_backend
from repro.backends.analytic import AnalyticAttemptModel
from repro.backends.density import DensityAttemptModel
from repro.cluster import ClusterCoordinator, ClusterWorker, LocalTransport
from repro.core.messages import EntanglementRequest, RequestType
from repro.hardware.parameters import lab_scenario
from repro.network.network import LinkLayerNetwork
from repro.obs import ObsConfig
from repro.runtime import (
    ScenarioSpec,
    SweepRunner,
    chain_grid,
    single_kind_scenarios,
)
from repro.runtime.runner import SimulationRun
from repro.topology.network import TopologyNetwork
from repro.topology.run import TopologyRun

DURATION = 0.2


def _link_spec(hardware: str, kind: str):
    return single_kind_scenarios(
        hardware, kinds=(kind,), loads=("High",), max_pairs_options=(3,),
        origins=("A",), include_md_k255=False, attempt_batch_size=40,
        backend="density")[0]


def _observe(run) -> tuple:
    """Everything a run must reproduce: trace bytes, summary, event count
    and the create ids its collectors registered."""
    result = run.run(DURATION)
    trace = io.StringIO()
    run.obs.tracer.write_jsonl(trace)
    create_ids = sorted(key for collector in run.collectors
                        for key in collector.request_records)
    return (trace.getvalue(), result.summary.to_dict(),
            result.events_processed, create_ids)


def _run_link(spec):
    return _observe(SimulationRun(
        spec.scenario, spec.workload, scheduler=spec.scheduler, seed=21,
        attempt_batch_size=spec.attempt_batch_size, backend=spec.backend,
        obs=ObsConfig(trace=True)))


def _run_chain():
    spec, = chain_grid(lengths=(3,), attempt_batch_size=40,
                       backend="analytic")
    return _observe(TopologyRun(
        spec.topology, spec.workload, seed=22,
        attempt_batch_size=spec.attempt_batch_size, backend=spec.backend,
        obs=ObsConfig(trace=True)))


def test_earlier_runs_change_nothing():
    # X (a Lab CK link and a 3-node chain) run first, then Y (a QL2020 MD
    # link), then X again — all in this process.
    first = [_run_link(_link_spec("Lab", "CK")), _run_chain()]
    _run_link(_link_spec("QL2020", "MD"))
    again = [_run_link(_link_spec("Lab", "CK")), _run_chain()]
    for before, after in zip(first, again):
        trace, summary, events, create_ids = after
        assert create_ids and create_ids[0] == 1
        assert create_ids == list(range(1, len(create_ids) + 1))
        assert '"create_id": 1' in trace
        assert after == before


@pytest.mark.parametrize("backend,model_class", [
    ("analytic", AnalyticAttemptModel), ("density", DensityAttemptModel)])
def test_a_later_run_builds_its_own_attempt_models(monkeypatch, backend,
                                                   model_class):
    # Attempt models are memoized per backend, so the second run (with its
    # own fresh backend) builds every model the first one built.
    built = []
    real_init = model_class.__init__

    def init(model, scenario, alpha):
        built.append((scenario.name, alpha))
        real_init(model, scenario, alpha)

    monkeypatch.setattr(model_class, "__init__", init)
    spec = single_kind_scenarios(
        "QL2020", kinds=("CK",), loads=("High",), max_pairs_options=(1,),
        origins=("A",), include_md_k255=False, attempt_batch_size=40,
        backend=backend)[0]
    spec.run(DURATION, seed=4)
    first = list(built)
    built.clear()
    spec.run(DURATION, seed=4)
    assert first and built == first


# --------------------------------------------------------------------------- #
# Owners: the network owns the ids, the caller owns the backends
# --------------------------------------------------------------------------- #
def _request(remote: str, create_id=None) -> EntanglementRequest:
    return EntanglementRequest(remote_node_id=remote, number=1,
                               request_type=RequestType.KEEP,
                               consecutive=True, min_fidelity=0.6,
                               create_id=create_id)


def test_each_network_counts_its_own_create_ids():
    for _ in range(2):
        network = LinkLayerNetwork(lab_scenario(), seed=7,
                                   attempt_batch_size=50, backend="analytic")
        # Both nodes of a link draw from the link's one counter; a request
        # that arrives already stamped keeps its id and draws none.
        assert network.node_a.create(_request("B")) == 1
        assert network.node_b.create(_request("A")) == 2
        assert network.node_a.create(_request("B", create_id=50)) == 50
        assert network.node_a.create(_request("B")) == 3


def test_chain_links_share_the_topology_counter():
    spec, = chain_grid(lengths=(3,), attempt_batch_size=40,
                       backend="analytic")
    topology = TopologyNetwork(spec.topology, seed=5, backend="analytic")
    assert len(topology.links) == 2
    for link in topology.links:
        assert link.network.create_ids is topology.create_ids
        assert link.network.backend is topology.backend
    assert next(topology.create_ids) == 1
    assert TopologyNetwork(spec.topology, seed=5,
                           backend="analytic").backend is not topology.backend


def test_spec_run_uses_the_backend_instance_it_is_given():
    spec = _link_spec("Lab", "CK")
    backend = get_backend("density")
    owned = spec.run(DURATION, seed=3, backend=backend)
    fresh = spec.run(DURATION, seed=3)
    assert owned.network.backend is backend
    assert fresh.network.backend is not backend
    assert owned.summary.to_dict() == fresh.summary.to_dict()
    assert owned.events_processed == fresh.events_processed


def _record_run_backends(monkeypatch) -> list:
    """Wrap ``ScenarioSpec.run`` to record the backend each run gets."""
    seen = []
    real_run = ScenarioSpec.run

    def run(spec, duration, **kwargs):
        seen.append(kwargs.get("backend"))
        return real_run(spec, duration, **kwargs)

    monkeypatch.setattr(ScenarioSpec, "run", run)
    return seen


def test_sweep_solo_runs_share_one_backend_per_run_call(monkeypatch):
    seen = _record_run_backends(monkeypatch)
    specs = [_link_spec("Lab", kind) for kind in ("NL", "CK", "MD")]
    runner = SweepRunner(specs, DURATION, workers=1)
    assert all(outcome.ok for outcome in runner.run().outcomes)
    assert len(seen) == 3 and isinstance(seen[0], PhysicsBackend)
    assert all(backend is seen[0] for backend in seen)
    runner.run()
    assert len(seen) == 6 and seen[3] is not seen[0]
    assert all(backend is seen[3] for backend in seen[3:])


def test_cluster_worker_solo_runs_share_its_backends(tmp_path, monkeypatch):
    import repro.cluster.worker as worker_module

    specs = [_link_spec("Lab", kind) for kind in ("NL", "CK", "MD")]
    coordinator = ClusterCoordinator(specs, DURATION, tmp_path / "cluster",
                                     num_shards=1)
    coordinator.write_plan()
    received = []
    real_execute = worker_module.execute_scenario

    def execute(spec, seed, duration, **kwargs):
        received.append(kwargs.get("backends"))
        return real_execute(spec, seed, duration, **kwargs)

    monkeypatch.setattr(worker_module, "execute_scenario", execute)
    worker = ClusterWorker(LocalTransport(coordinator.state),
                           "solo", cache_dir=None, batch_size=1)
    assert worker.run(wait_for_stragglers=False) == 3
    assert len(received) == 3 and isinstance(received[0], BackendSet)
    assert all(backends is received[0] for backends in received)
    assert all(outcome.ok for outcome in coordinator.merge().outcomes)


# --------------------------------------------------------------------------- #
# Module-state guard
# --------------------------------------------------------------------------- #
_PURE_MEMO = "lru_cache memo of a pure function over frozen keys"

#: ``(module, name) -> reason`` for every module-level piece of state the
#: package may keep.  Anything else a run could leave behind for the next.
ALLOWED_STATE = {
    ("repro.topology.spec", "_field_names"): _PURE_MEMO,
    ("repro.topology.spec", "_nested_field_types"): _PURE_MEMO,
    ("repro.runtime.cache", "_tmp_counter"):
        "only makes temp file names unique",
    ("repro.core.mhp", "_GATED_SAMPLE"):
        "an immutable constant, built lazily to break an import cycle",
}

_MUTABLE = (list, dict, set, bytearray, collections.deque, itertools.count,
            functools._lru_cache_wrapper)


def _modules():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        yield importlib.import_module(info.name)


def _top_level_names(tree: ast.Module) -> set[str]:
    """Names bound by module-level statements (not inside functions or
    classes)."""
    names: set[str] = set()
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(target.id for target in targets
                         if isinstance(target, ast.Name))
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(ast.iter_child_nodes(node))
    return names


def _module_state() -> set[tuple[str, str]]:
    found = set()
    for module in _modules():
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        for name in _top_level_names(tree):
            if name.startswith("__"):
                continue
            if isinstance(getattr(module, name, None), _MUTABLE):
                found.add((module.__name__, name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                found.update((module.__name__, name) for name in node.names)
    return found


def test_no_unlisted_module_state():
    found = _module_state()
    unlisted = sorted(found - set(ALLOWED_STATE))
    assert not unlisted, (
        f"module-level mutable state {unlisted}: make it read-only, give "
        f"it an owner (a run, a sweep, a worker), or allowlist it with a "
        f"reason")
    stale = sorted(set(ALLOWED_STATE) - found)
    assert not stale, f"allowlist entries with no state behind them: {stale}"
