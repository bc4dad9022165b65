"""Tests for the distributed queue protocol, QMM, FEU and scheduling strategies."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.distributed_queue import DistributedQueue, LocalQueue, QueueItem
from repro.core.feu import FidelityEstimationUnit
from repro.core.messages import (
    AbsoluteQueueId,
    EntanglementRequest,
    ErrorCode,
    Priority,
    RequestType,
)
from repro.core.qmm import QuantumMemoryManager
from repro.core.scheduler import (
    FCFSScheduler,
    WeightedFairScheduler,
    make_scheduler,
)
from repro.hardware.nv_device import NVQuantumProcessor
from repro.hardware.parameters import NVGateParameters
from repro.quantum.states import BellIndex
from repro.sim.channel import ClassicalChannel
from repro.sim.engine import SimulationEngine


def make_request(priority=Priority.CK, number=1, **kwargs) -> EntanglementRequest:
    request_type = kwargs.pop("request_type",
                              RequestType.MEASURE if priority is Priority.MD
                              else RequestType.KEEP)
    return EntanglementRequest(remote_node_id="B", request_type=request_type,
                               number=number, priority=priority, origin="A",
                               **kwargs)


def make_item(priority=Priority.CK, seq=0, added_at=0.0, number=1) -> QueueItem:
    request = make_request(priority, number=number)
    item = QueueItem(request=request,
                     queue_id=AbsoluteQueueId(int(priority), seq),
                     schedule_cycle=0, timeout_cycle=None, added_at=added_at,
                     pairs_remaining=number, acknowledged=True)
    return item


def wire_queues(engine, loss=0.0, **kwargs):
    """Build a connected master/slave DQP pair."""
    dqp_a = DistributedQueue(engine, "A", is_master=True, **kwargs)
    dqp_b = DistributedQueue(engine, "B", is_master=False, **kwargs)
    ab = ClassicalChannel(engine, delay=1e-6, loss_probability=loss)
    ba = ClassicalChannel(engine, delay=1e-6, loss_probability=loss)
    ab.connect(dqp_b.receive)
    ba.connect(dqp_a.receive)
    dqp_a.attach_channel(ab)
    dqp_b.attach_channel(ba)
    return dqp_a, dqp_b


class TestLocalQueue:
    def test_add_and_retrieve(self):
        queue = LocalQueue(queue_id=1)
        item = make_item(seq=0)
        queue.add(item)
        assert queue.get(0) is item
        assert len(queue) == 1

    def test_duplicate_sequence_rejected(self):
        queue = LocalQueue(queue_id=1)
        queue.add(make_item(seq=0))
        with pytest.raises(ValueError):
            queue.add(make_item(seq=0))

    def test_capacity_limit(self):
        queue = LocalQueue(queue_id=1, max_size=2)
        queue.add(make_item(seq=0))
        queue.add(make_item(seq=1))
        assert queue.is_full
        with pytest.raises(OverflowError):
            queue.add(make_item(seq=2))

    def test_items_in_arrival_order(self):
        queue = LocalQueue(queue_id=1)
        for seq in (0, 1, 2):
            queue.add(make_item(seq=seq, added_at=float(seq)))
        assert [i.queue_id.queue_seq for i in queue.items_in_order()] == [0, 1, 2]

    def test_ready_items_respect_schedule_cycle(self):
        queue = LocalQueue(queue_id=1)
        item = make_item(seq=0)
        item.schedule_cycle = 10
        queue.add(item)
        assert queue.ready_items(cycle=5) == []
        assert queue.ready_items(cycle=10) == [item]

    def test_remove(self):
        queue = LocalQueue(queue_id=1)
        item = make_item(seq=0)
        queue.add(item)
        assert queue.remove(0) is item
        assert queue.remove(0) is None


class TestDistributedQueue:
    def test_master_add_propagates_to_slave(self, engine):
        dqp_a, dqp_b = wire_queues(engine)
        results = []
        dqp_a.add(make_request(), schedule_cycle=0, timeout_cycle=None,
                  callback=lambda item, err: results.append((item, err)))
        engine.run()
        assert len(results) == 1
        item, error = results[0]
        assert error is None
        assert item.acknowledged
        # The same absolute queue id exists on both sides.
        assert dqp_b.get(item.queue_id) is not None

    def test_slave_add_gets_sequence_from_master(self, engine):
        dqp_a, dqp_b = wire_queues(engine)
        results = []
        request = make_request()
        request.origin = "B"
        dqp_b.add(request, schedule_cycle=0, timeout_cycle=None,
                  callback=lambda item, err: results.append((item, err)))
        engine.run()
        item, error = results[0]
        assert error is None
        assert dqp_a.get(item.queue_id) is not None

    def test_sequence_numbers_are_unique_and_ordered(self, engine):
        dqp_a, _ = wire_queues(engine)
        items = []
        for _ in range(5):
            dqp_a.add(make_request(), 0, None,
                      callback=lambda item, err: items.append(item))
        engine.run()
        seqs = [item.queue_id.queue_seq for item in items]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 5

    def test_priorities_map_to_distinct_queues(self, engine):
        dqp_a, _ = wire_queues(engine)
        collected = []
        for priority in (Priority.NL, Priority.CK, Priority.MD):
            dqp_a.add(make_request(priority), 0, None,
                      callback=lambda item, err: collected.append(item))
        engine.run()
        queue_ids = {item.queue_id.queue_id for item in collected}
        assert queue_ids == {int(Priority.NL), int(Priority.CK), int(Priority.MD)}

    def test_rejection_when_policy_refuses(self, engine):
        dqp_a, dqp_b = wire_queues(engine)
        dqp_b.accept_policy = lambda request: False
        results = []
        dqp_a.add(make_request(), 0, None,
                  callback=lambda item, err: results.append((item, err)))
        engine.run()
        assert results[0][0] is None
        assert results[0][1] is ErrorCode.DENIED

    def test_queue_full_rejected_locally(self, engine):
        dqp_a, _ = wire_queues(engine, max_queue_size=1)
        results = []
        dqp_a.add(make_request(), 0, None,
                  callback=lambda item, err: results.append((item, err)))
        dqp_a.add(make_request(), 0, None,
                  callback=lambda item, err: results.append((item, err)))
        engine.run()
        errors = [err for _, err in results]
        assert ErrorCode.REJECTED in errors

    def test_add_survives_lossy_channel_through_retransmission(self, engine):
        import numpy as np

        dqp_a, dqp_b = wire_queues(engine, loss=0.4, ack_timeout=1e-4)
        results = []
        for _ in range(10):
            dqp_a.add(make_request(), 0, None,
                      callback=lambda item, err: results.append((item, err)))
        engine.run(until=1.0)
        successes = [item for item, err in results if err is None]
        assert len(successes) >= 8
        for item in successes:
            assert dqp_b.get(item.queue_id) is not None

    def test_ready_items_across_priorities(self, engine):
        dqp_a, _ = wire_queues(engine)
        for priority in (Priority.MD, Priority.NL):
            dqp_a.add(make_request(priority), 0, None, callback=lambda i, e: None)
        engine.run()
        ready = dqp_a.ready_items(cycle=100)
        assert len(ready) == 2


class TestQuantumMemoryManager:
    @pytest.fixture
    def qmm(self, rng):
        device = NVQuantumProcessor("A", NVGateParameters(), rng=rng)
        return QuantumMemoryManager(device)

    def test_allocate_keep_reserves_both_qubits(self, qmm):
        allocation = qmm.allocate(RequestType.KEEP)
        assert allocation is not None
        assert allocation.storage is not None
        assert qmm.free_communication_qubits() == 0
        assert qmm.free_storage_qubits() == 0

    def test_allocate_measure_only_needs_communication(self, qmm):
        allocation = qmm.allocate(RequestType.MEASURE)
        assert allocation is not None
        assert allocation.storage is None
        assert qmm.free_storage_qubits() == 1

    def test_release_returns_qubits(self, qmm):
        allocation = qmm.allocate(RequestType.KEEP)
        qmm.release(allocation)
        assert qmm.free_communication_qubits() == 1
        assert qmm.free_storage_qubits() == 1

    def test_release_keep_storage(self, qmm):
        allocation = qmm.allocate(RequestType.KEEP)
        qmm.release(allocation, keep_storage=True)
        assert qmm.free_storage_qubits() == 0
        qmm.release_storage(allocation.storage.qubit_id)
        assert qmm.free_storage_qubits() == 1

    def test_allocation_failure_counted(self, qmm):
        first = qmm.allocate(RequestType.KEEP)
        assert first is not None
        assert qmm.allocate(RequestType.KEEP) is None
        assert qmm.allocation_failures == 1

    def test_can_satisfy_memexceeded_for_large_atomic(self, qmm):
        assert qmm.can_satisfy(RequestType.KEEP, pairs_simultaneously=5) \
            is ErrorCode.MEMEXCEEDED

    def test_can_satisfy_outofmem_when_storage_busy(self, qmm):
        qmm.allocate(RequestType.KEEP)
        assert qmm.can_satisfy(RequestType.KEEP, 1) is ErrorCode.OUTOFMEM

    def test_measure_requests_never_memory_limited(self, qmm):
        assert qmm.can_satisfy(RequestType.MEASURE, 100) is None


class TestFidelityEstimationUnit:
    def test_estimate_returns_feasible_point(self, lab):
        feu = FidelityEstimationUnit(lab)
        estimate = feu.estimate_for_fidelity(0.64, RequestType.KEEP)
        assert estimate is not None
        assert 0 < estimate.alpha < 1
        assert estimate.success_probability > 0
        assert estimate.expected_time_per_pair > 0

    def test_higher_fidelity_means_lower_alpha_and_rate(self, lab):
        feu = FidelityEstimationUnit(lab)
        low = feu.estimate_for_fidelity(0.55, RequestType.MEASURE)
        high = feu.estimate_for_fidelity(0.72, RequestType.MEASURE)
        assert low is not None and high is not None
        assert high.alpha < low.alpha
        assert high.success_probability < low.success_probability

    def test_unattainable_fidelity_returns_none(self, lab):
        feu = FidelityEstimationUnit(lab)
        assert feu.estimate_for_fidelity(0.95, RequestType.KEEP) is None

    def test_keep_unsupported_before_measure(self, ql2020):
        # Storage degradations mean K stops being supported at a lower F_min
        # than M (Figure 6(b): "Higher Fmin not satisfiable for NL").
        feu = FidelityEstimationUnit(ql2020)
        keep_max = max((f for f in [0.5 + 0.02 * i for i in range(20)]
                        if feu.estimate_for_fidelity(f, RequestType.KEEP)),
                       default=None)
        measure_max = max((f for f in [0.5 + 0.02 * i for i in range(20)]
                           if feu.estimate_for_fidelity(f, RequestType.MEASURE)),
                          default=None)
        assert keep_max is not None and measure_max is not None
        assert measure_max >= keep_max

    def test_minimum_completion_time_scales_with_pairs(self, lab):
        feu = FidelityEstimationUnit(lab)
        estimate = feu.estimate_for_fidelity(0.6, RequestType.KEEP)
        assert estimate.minimum_completion_time(3) == pytest.approx(
            3 * estimate.expected_time_per_pair)

    def test_goodness_interpolates(self, lab):
        feu = FidelityEstimationUnit(lab)
        goodness = feu.goodness(0.2, RequestType.KEEP)
        assert 0.5 < goodness < 0.9

    def test_test_rounds_update_measured_fidelity(self, lab):
        feu = FidelityEstimationUnit(lab, test_window=32)
        assert feu.measured_fidelity() is None
        # Perfect anti-correlations in Z, correlations in X/Y -> F = 1.
        for basis, outcomes in (("Z", (0, 1)), ("X", (0, 0)), ("Y", (1, 1))):
            for _ in range(10):
                feu.record_test_round(basis, *outcomes,
                                      target=BellIndex.PSI_PLUS)
        assert feu.measured_fidelity() == pytest.approx(1.0)

    def test_default_alpha_grid_is_built_once(self, lab, monkeypatch):
        from repro.core import feu as feu_module

        def no_linspace(*args, **kwargs):
            raise AssertionError("the FEU rebuilt its default alpha grid")

        monkeypatch.setattr(feu_module.np, "linspace", no_linspace)
        feu = FidelityEstimationUnit(lab)
        monkeypatch.undo()
        assert feu.alpha_grid is feu_module.DEFAULT_ALPHA_GRID
        assert feu.alpha_grid == tuple(
            float(alpha) for alpha in np.linspace(0.02, 0.60, 30))

    def test_alpha_grid_is_validated(self, lab):
        for grid in ([0.0, 0.5], [0.2, 1.2], [0.3, 0.2], [0.2, 0.2]):
            with pytest.raises(ValueError):
                FidelityEstimationUnit(lab, alpha_grid=grid)
        feu = FidelityEstimationUnit(lab, alpha_grid=np.array([0.1, 0.4]))
        assert feu.alpha_grid == (0.1, 0.4)

    def test_invalid_fidelity_argument(self, lab):
        feu = FidelityEstimationUnit(lab)
        with pytest.raises(ValueError):
            feu.estimate_for_fidelity(1.5, RequestType.KEEP)


class TestSchedulers:
    def test_fcfs_serves_in_arrival_order(self):
        scheduler = FCFSScheduler()
        first = make_item(Priority.MD, seq=0, added_at=1.0)
        second = make_item(Priority.NL, seq=0, added_at=2.0)
        assert scheduler.select([second, first], cycle=0) is first

    def test_fcfs_returns_none_for_empty(self):
        assert FCFSScheduler().select([], cycle=0) is None

    def test_wfq_strict_priority_for_nl(self):
        scheduler = WeightedFairScheduler.higher_wfq()
        nl = make_item(Priority.NL, seq=0, added_at=5.0)
        md = make_item(Priority.MD, seq=0, added_at=1.0)
        for item in (md, nl):
            scheduler.on_enqueue(item, cycle=0)
        assert scheduler.select([md, nl], cycle=0) is nl

    def test_wfq_weights_favour_ck_over_md(self):
        scheduler = WeightedFairScheduler.higher_wfq()
        ck = make_item(Priority.CK, seq=0, added_at=1.0, number=1)
        md = make_item(Priority.MD, seq=1, added_at=1.0, number=1)
        scheduler.on_enqueue(ck, cycle=0)
        scheduler.on_enqueue(md, cycle=0)
        # CK has weight 10 vs MD weight 1: its virtual finish time is earlier.
        assert ck.virtual_finish < md.virtual_finish
        assert scheduler.select([md, ck], cycle=0) is ck

    def test_lower_wfq_weights(self):
        scheduler = WeightedFairScheduler.lower_wfq()
        assert scheduler.weights[Priority.CK] == pytest.approx(2.0)

    def test_wfq_virtual_time_advances_on_delivery(self):
        scheduler = WeightedFairScheduler.higher_wfq()
        md = make_item(Priority.MD, seq=0, added_at=0.0)
        scheduler.on_enqueue(md, cycle=0)
        before = scheduler._virtual_time
        scheduler.on_pair_delivered(md, cycle=1)
        assert scheduler._virtual_time > before

    def test_wfq_identical_instances_stay_deterministic(self):
        # Two independent instances observing the same events must make the
        # same decisions (needed for node A / node B consistency).
        a = WeightedFairScheduler.higher_wfq()
        b = WeightedFairScheduler.higher_wfq()
        items = [make_item(Priority.CK, seq=0, added_at=0.0),
                 make_item(Priority.MD, seq=0, added_at=0.1),
                 make_item(Priority.MD, seq=1, added_at=0.2)]
        for item in items:
            a.on_enqueue(item, 0)
            b.on_enqueue(item, 0)
        for _ in range(3):
            choice_a = a.select(items, 0)
            choice_b = b.select(items, 0)
            assert choice_a is choice_b
            a.on_pair_delivered(choice_a, 0)
            b.on_pair_delivered(choice_b, 0)
            items.remove(choice_a)
            if not items:
                break

    def test_make_scheduler_factory(self):
        assert make_scheduler("FCFS").name == "FCFS"
        assert make_scheduler("HigherWFQ").name == "HigherWFQ"
        assert make_scheduler("LowerWFQ").name == "LowerWFQ"
        assert make_scheduler("WFQ").name == "HigherWFQ"
        with pytest.raises(ValueError):
            make_scheduler("unknown")

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            WeightedFairScheduler(weights={Priority.CK: 0.0})


class TestReadyListCache:
    """The per-lane ready set must be invisible except for speed."""

    def make_queue(self) -> LocalQueue:
        return LocalQueue(queue_id=int(Priority.CK))

    def test_cache_hit_returns_same_answer(self):
        queue = self.make_queue()
        queue.add(make_item(seq=0))
        queue.add(make_item(seq=1))
        first = queue.ready_items(5)
        again = queue.ready_items(5)
        assert again == first
        assert [i.queue_id.queue_seq for i in again] == [0, 1]

    def test_add_invalidates(self):
        queue = self.make_queue()
        queue.add(make_item(seq=0))
        assert len(queue.ready_items(0)) == 1
        queue.add(make_item(seq=1))
        assert len(queue.ready_items(0)) == 2

    def test_remove_invalidates(self):
        queue = self.make_queue()
        queue.add(make_item(seq=0))
        queue.add(make_item(seq=1))
        assert len(queue.ready_items(0)) == 2
        queue.remove(0)
        assert [i.queue_id.queue_seq for i in queue.ready_items(0)] == [1]

    def test_schedule_cycle_crossing_expires_cache(self):
        # A waiting item must appear exactly when its schedule cycle passes,
        # with no mutation in between.
        queue = self.make_queue()
        item = make_item(seq=0)
        item.schedule_cycle = 10
        queue.add(item)
        assert queue.ready_items(3) == []
        assert queue.ready_items(9) == []
        assert queue.ready_items(10) == [item]
        assert queue.ready_items(11) == [item]

    def test_suspension_crossing_expires_cache(self):
        queue = self.make_queue()
        item = make_item(seq=0)
        item.suspended_until_cycle = 7
        queue.add(item)
        assert queue.ready_items(2) == []
        assert queue.ready_items(7) == [item]

    def test_acknowledgement_flip_via_dqp_invalidates(self):
        # Master-origin items sit unacknowledged in the master's queue until
        # the slave's ACK arrives; the flip must expire the cached (empty)
        # ready list.
        engine = SimulationEngine()
        dqp_a, dqp_b = wire_queues(engine)
        results = []
        dqp_a.add(make_request(Priority.CK), schedule_cycle=0,
                  timeout_cycle=None,
                  callback=lambda item, error: results.append((item, error)))
        assert dqp_a.ready_items(0) == ()  # ADD still in flight
        engine.run(until=1.0)
        (item, error), = results
        assert error is None
        assert dqp_a.ready_items(0) == (item,)

    def test_cached_list_consistent_with_rebuild(self):
        queue = self.make_queue()
        for seq in range(6):
            item = make_item(seq=seq)
            item.schedule_cycle = seq * 2
            queue.add(item)
        for cycle in range(0, 14):
            cached = list(queue.ready_items(cycle))
            queue.invalidate_ready_cache()
            rebuilt = list(queue.ready_items(cycle))
            assert cached == rebuilt

    def test_removals_behind_the_head_keep_heaps_compact(self):
        # Removal is lazy; removals that never reach a heap's top must
        # still not let dead entries pile up.
        queue = LocalQueue(queue_id=int(Priority.CK), max_size=1000)
        for seq in range(400):
            queue.add(make_item(seq=seq, added_at=float(seq)))
        assert queue.head(0).queue_id.queue_seq == 0
        for seq in range(399, 0, -1):  # newest first: never the head
            queue.remove(seq)
            assert queue.head(0).queue_id.queue_seq == 0
        assert queue.ready_items(0) == [queue.get(0)]
        assert len(queue._ready) + len(queue._waiting) <= 2 * len(queue) + 32
