"""Integration tests: the full MHP + EGP stack on a wired two-node network."""

from __future__ import annotations

import pytest

from repro.core.messages import (
    EntanglementRequest,
    ErrorCode,
    Priority,
    RequestType,
)
from repro.hardware.parameters import lab_scenario
from repro.network.network import LinkLayerNetwork
from repro.quantum.states import BellIndex


def collect(network):
    """Attach OK / error collectors to both nodes.

    Delivered create-and-keep pairs are released immediately, modelling a
    higher layer that consumes entanglement as soon as it is handed over
    (the single carbon memory would otherwise block further generation).
    """
    oks = {"A": [], "B": []}
    errors = {"A": [], "B": []}

    def on_ok(node_name, ok):
        oks[node_name].append(ok)
        if ok.logical_qubit_id is not None:
            network.nodes[node_name].egp.release_delivered_pair(
                ok.logical_qubit_id)

    for name, node in network.nodes.items():
        node.egp.add_ok_listener(lambda ok, n=name: on_ok(n, ok))
        node.egp.add_error_listener(lambda err, n=name: errors[n].append(err))
    return oks, errors


def make_network(scenario=None, **kwargs):
    scenario = scenario or lab_scenario()
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("attempt_batch_size", 50)
    return LinkLayerNetwork(scenario, **kwargs)


class TestKeepRequests:
    def test_single_pair_is_delivered_at_both_nodes(self):
        network = make_network()
        oks, errors = collect(network)
        request = EntanglementRequest(remote_node_id="B",
                                      request_type=RequestType.KEEP,
                                      number=1, consecutive=True,
                                      priority=Priority.CK, min_fidelity=0.6)
        network.node_a.create(request)
        network.run(2.0)
        assert len(oks["A"]) == 1
        assert len(oks["B"]) == 1
        assert not errors["A"] and not errors["B"]
        ok_a, ok_b = oks["A"][0], oks["B"][0]
        assert ok_a.entanglement_id == ok_b.entanglement_id
        assert ok_a.logical_qubit_id is not None
        assert ok_a.create_id == request.create_id

    def test_delivered_pair_meets_fidelity_target(self):
        network = make_network()
        oks, _ = collect(network)
        request = EntanglementRequest(remote_node_id="B", number=1,
                                      request_type=RequestType.KEEP,
                                      consecutive=True, min_fidelity=0.6)
        network.node_a.create(request)
        network.run(2.0)
        pair = oks["A"][0].pair
        assert pair.fidelity(BellIndex.PSI_PLUS) >= 0.6
        assert oks["A"][0].goodness >= 0.6

    def test_multi_pair_request_delivers_all_pairs(self):
        network = make_network()
        oks, errors = collect(network)
        request = EntanglementRequest(remote_node_id="B", number=3,
                                      request_type=RequestType.KEEP,
                                      consecutive=True, min_fidelity=0.6)
        network.node_a.create(request)
        network.run(4.0)
        assert len(oks["A"]) == 3
        indices = sorted(ok.pair_index for ok in oks["A"])
        assert indices == [1, 2, 3]
        assert oks["A"][-1].is_final

    def test_request_from_slave_node_b(self):
        network = make_network()
        oks, errors = collect(network)
        request = EntanglementRequest(remote_node_id="A", number=1,
                                      request_type=RequestType.KEEP,
                                      consecutive=True, min_fidelity=0.6)
        network.node_b.create(request)
        network.run(2.0)
        assert len(oks["B"]) == 1
        assert not errors["B"]

    def test_non_consecutive_request_buffers_oks_until_completion(self):
        # Measure-directly so that buffering OKs does not tie up the single
        # carbon memory (the paper's workloads always use per-pair OKs for K).
        network = make_network()
        oks, _ = collect(network)
        request = EntanglementRequest(remote_node_id="B", number=2,
                                      request_type=RequestType.MEASURE,
                                      priority=Priority.MD,
                                      consecutive=False, min_fidelity=0.6)
        network.node_a.create(request)
        network.run(4.0)
        # Both OKs arrive, and only once the whole request completed (the
        # goodness_time of each OK records when its pair was produced, which
        # is earlier than the emission time for all but the last pair).
        assert len(oks["A"]) == 2
        assert {ok.pair_index for ok in oks["A"]} == {1, 2}

    def test_expected_sequence_advances(self):
        network = make_network()
        collect(network)
        request = EntanglementRequest(remote_node_id="B", number=2,
                                      request_type=RequestType.KEEP,
                                      consecutive=True, min_fidelity=0.6)
        network.node_a.create(request)
        network.run(4.0)
        assert network.node_a.egp.expected_sequence == 3
        assert network.node_b.egp.expected_sequence == 3


class TestMeasureRequests:
    def test_md_request_returns_outcomes_and_bases(self):
        network = make_network()
        oks, errors = collect(network)
        request = EntanglementRequest(remote_node_id="B", number=5,
                                      request_type=RequestType.MEASURE,
                                      consecutive=True, priority=Priority.MD,
                                      min_fidelity=0.6)
        network.node_a.create(request)
        network.run(3.0)
        assert len(oks["A"]) == 5
        for ok in oks["A"]:
            assert ok.measurement_outcome in (0, 1)
            assert ok.measurement_basis in ("X", "Y", "Z")
            assert ok.logical_qubit_id is None

    def test_md_bases_agree_between_nodes(self):
        network = make_network()
        oks, _ = collect(network)
        request = EntanglementRequest(remote_node_id="B", number=8,
                                      request_type=RequestType.MEASURE,
                                      consecutive=True, priority=Priority.MD,
                                      min_fidelity=0.6)
        network.node_a.create(request)
        network.run(4.0)
        by_id_a = {tuple(ok.entanglement_id): ok for ok in oks["A"]}
        by_id_b = {tuple(ok.entanglement_id): ok for ok in oks["B"]}
        assert set(by_id_a) == set(by_id_b)
        for key in by_id_a:
            assert by_id_a[key].measurement_basis == by_id_b[key].measurement_basis

    def test_md_z_outcomes_mostly_anticorrelated(self):
        network = make_network()
        oks, _ = collect(network)
        request = EntanglementRequest(remote_node_id="B", number=30,
                                      request_type=RequestType.MEASURE,
                                      consecutive=True, priority=Priority.MD,
                                      min_fidelity=0.6, measure_basis="Z")
        network.node_a.create(request)
        network.run(8.0)
        by_id_a = {tuple(ok.entanglement_id): ok for ok in oks["A"]}
        by_id_b = {tuple(ok.entanglement_id): ok for ok in oks["B"]}
        keys = set(by_id_a) & set(by_id_b)
        assert len(keys) >= 20
        errors = sum(by_id_a[k].measurement_outcome == by_id_b[k].measurement_outcome
                     for k in keys)
        # QBER must stay clearly below the 50% of uncorrelated outcomes
        # (typically ~20-35% at this alpha with noisy readout).
        assert errors / len(keys) < 0.45


class TestRejections:
    def test_unattainable_fidelity_rejected_with_unsupp(self):
        network = make_network()
        _, errors = collect(network)
        request = EntanglementRequest(remote_node_id="B", number=1,
                                      min_fidelity=0.97)
        network.node_a.create(request)
        network.run(0.1)
        assert errors["A"][0].error is ErrorCode.UNSUPP

    def test_impossible_deadline_rejected_with_unsupp(self):
        network = make_network()
        _, errors = collect(network)
        request = EntanglementRequest(remote_node_id="B", number=100,
                                      min_fidelity=0.6, max_time=1e-3)
        network.node_a.create(request)
        network.run(0.1)
        assert errors["A"][0].error is ErrorCode.UNSUPP

    def test_atomic_request_larger_than_memory_rejected(self):
        network = make_network()
        _, errors = collect(network)
        request = EntanglementRequest(remote_node_id="B", number=4,
                                      atomic=True, min_fidelity=0.6)
        network.node_a.create(request)
        network.run(0.1)
        assert errors["A"][0].error is ErrorCode.MEMEXCEEDED

    def test_peer_policy_denial(self):
        network = make_network()
        network.node_b.dqp.accept_policy = lambda request: request.purpose_id != 99
        _, errors = collect(network)
        request = EntanglementRequest(remote_node_id="B", number=1,
                                      purpose_id=99, min_fidelity=0.6)
        network.node_a.create(request)
        network.run(0.5)
        assert errors["A"][0].error is ErrorCode.DENIED

    def test_timeout_reported_when_deadline_passes(self):
        network = make_network()
        _, errors = collect(network)
        # Feasible per the FEU estimate but throttled by a tiny deadline that
        # expires before the first pair can realistically be produced.
        request = EntanglementRequest(remote_node_id="B", number=1,
                                      min_fidelity=0.6, max_time=0.012)
        network.node_a.create(request)
        network.run(1.0)
        codes = {err.error for err in errors["A"]}
        assert codes & {ErrorCode.TIMEOUT, ErrorCode.UNSUPP}


class TestRobustnessToClassicalLoss:
    def test_protocol_survives_inflated_frame_loss(self):
        scenario = lab_scenario().with_frame_loss(1e-3)
        network = make_network(scenario, attempt_batch_size=1)
        oks, errors = collect(network)
        request = EntanglementRequest(remote_node_id="B", number=10,
                                      request_type=RequestType.MEASURE,
                                      priority=Priority.MD,
                                      consecutive=True, min_fidelity=0.6)
        network.node_a.create(request)
        network.run(5.0)
        # Entanglement generation keeps making progress despite lost frames.
        assert len(oks["A"]) + len(oks["B"]) > 0

    def test_sequence_recovery_issues_expire_not_deadlock(self):
        scenario = lab_scenario().with_frame_loss(5e-3)
        network = make_network(scenario, attempt_batch_size=1, seed=3)
        oks, errors = collect(network)
        request = EntanglementRequest(remote_node_id="B", number=20,
                                      request_type=RequestType.MEASURE,
                                      priority=Priority.MD,
                                      consecutive=True, min_fidelity=0.6)
        network.node_a.create(request)
        network.run(6.0)
        total_progress = len(oks["A"]) + len(oks["B"])
        assert total_progress > 0
        # EXPIRE-based recovery may or may not trigger, but must never deadlock
        # the protocol: the midpoint keeps processing attempts throughout.
        assert network.midpoint.statistics["attempts"] > 1000


class _CountingGrants:
    """One EGP's view of its backend that records every batch grant."""

    def __init__(self, backend):
        self._backend = backend
        self.grants: dict = {}
        self.calls: list = []

    def granted_batch(self, request_type, *args, **kwargs):
        grant = self._backend.granted_batch(request_type, *args, **kwargs)
        self.calls.append(request_type)
        self.grants[request_type] = grant
        return grant

    def __getattr__(self, name):
        return getattr(self._backend, name)


class TestBatchGrant:
    def test_grant_is_asked_once_per_type_and_used_as_given(self):
        from repro.hardware.parameters import ql2020_scenario
        from repro.runtime.workload import RequestGenerator, WorkloadSpec

        network = make_network(ql2020_scenario(), seed=12345,
                               attempt_batch_size=100, backend="analytic")
        seen = {}
        for name, node in network.nodes.items():
            egp = node.egp
            egp.backend = _CountingGrants(egp.backend)
            responses = seen[name] = []

            def poll(handle=egp.handle_poll, responses=responses):
                response = handle()
                if response.attempt:
                    responses.append(response)
                return response

            node.mhp.poll_callback = poll
        generator = RequestGenerator(network, [
            WorkloadSpec(priority=Priority.CK, load_fraction=0.99,
                         max_pairs=1, min_fidelity=0.6),
            WorkloadSpec(priority=Priority.MD, load_fraction=0.6,
                         max_pairs=3, min_fidelity=0.55)], seed=12346)
        generator.start()
        network.run(2.0)

        for name, node in network.nodes.items():
            counting = node.egp.backend
            assert sorted(counting.calls, key=lambda t: t.value) == [
                RequestType.KEEP, RequestType.MEASURE]
            types = {response.request_type for response in seen[name]}
            assert types == {RequestType.KEEP, RequestType.MEASURE}
            for response in seen[name]:
                grant = counting.grants[response.request_type]
                assert (response.max_attempts, response.attempt_stride) == (
                    grant.batch, grant.stride)
