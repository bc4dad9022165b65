"""Property-style invariants of the schedulers and the distributed queue.

These tests sweep parameter grids (weights, backlog sizes, loss rates)
rather than single examples, pinning the invariants the sweep engine's
determinism ultimately rests on:

* WFQ never starves a low-weight class under a flood of high-weight work;
* service order within one priority class is FIFO for every scheduler;
* both nodes' ``DistributedQueue`` replicas agree on absolute queue ids,
  even over a lossy control channel;
* choosing among one ready head per lane equals the ``min`` over the whole
  ready list, for every scheduler and every kind of queue mutation.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from repro.core.distributed_queue import DistributedQueue, QueueItem
from repro.core.messages import (
    AbsoluteQueueId,
    EntanglementRequest,
    Priority,
    RequestType,
)
from repro.core.scheduler import (
    FCFSScheduler,
    WeightedFairScheduler,
    make_scheduler,
)
from repro.sim.channel import ClassicalChannel
from repro.sim.engine import SimulationEngine


def make_request(priority: Priority, number: int = 1,
                 origin: str = "A") -> EntanglementRequest:
    request_type = (RequestType.MEASURE if priority is Priority.MD
                    else RequestType.KEEP)
    return EntanglementRequest(remote_node_id="B", request_type=request_type,
                               number=number, priority=priority,
                               origin=origin)


def make_item(priority: Priority, seq: int, added_at: float,
              number: int = 1) -> QueueItem:
    return QueueItem(request=make_request(priority, number=number),
                     queue_id=AbsoluteQueueId(int(priority), seq),
                     schedule_cycle=0, timeout_cycle=None, added_at=added_at,
                     pairs_remaining=number, acknowledged=True)


def wire_queues(engine: SimulationEngine, loss: float = 0.0, **kwargs):
    dqp_a = DistributedQueue(engine, "A", is_master=True, **kwargs)
    dqp_b = DistributedQueue(engine, "B", is_master=False, **kwargs)
    ab = ClassicalChannel(engine, delay=1e-6, loss_probability=loss)
    ba = ClassicalChannel(engine, delay=1e-6, loss_probability=loss)
    ab.connect(dqp_b.receive)
    ba.connect(dqp_a.receive)
    dqp_a.attach_channel(ab)
    dqp_b.attach_channel(ba)
    return dqp_a, dqp_b


class TestWFQNoStarvation:
    """A lone MD request must be served despite an endless CK flood."""

    @pytest.mark.parametrize("ck_weight", [2.0, 10.0, 50.0])
    @pytest.mark.parametrize("md_pairs", [1, 3])
    def test_md_served_within_weight_bound(self, ck_weight, md_pairs):
        scheduler = WeightedFairScheduler(
            weights={Priority.CK: ck_weight, Priority.MD: 1.0}, name="test")
        md = make_item(Priority.MD, seq=0, added_at=0.0, number=md_pairs)
        scheduler.on_enqueue(md, cycle=0)
        backlog = [md]
        served_md_at = None
        # CK service advances virtual time by 1/w per delivery, so MD's
        # virtual finish (md_pairs / 1) is overtaken after at most about
        # w * md_pairs CK deliveries.  Allow generous slack.
        bound = int(3 * ck_weight * md_pairs) + 10
        for cycle in range(bound):
            ck = make_item(Priority.CK, seq=cycle + 1, added_at=float(cycle))
            scheduler.on_enqueue(ck, cycle)
            backlog.append(ck)
            choice = scheduler.select(backlog, cycle)
            assert choice is not None
            scheduler.on_pair_delivered(choice, cycle)
            backlog.remove(choice)
            if choice is md:
                served_md_at = cycle
                break
        assert served_md_at is not None, (
            f"MD starved for {bound} cycles at CK weight {ck_weight}")

    @pytest.mark.parametrize("weights", [
        {Priority.CK: 10.0, Priority.MD: 1.0},
        {Priority.CK: 2.0, Priority.MD: 1.0},
    ])
    def test_every_backlogged_request_eventually_completes(self, weights):
        scheduler = WeightedFairScheduler(weights=weights, name="test")
        backlog = []
        for seq, priority in enumerate([Priority.CK] * 6 + [Priority.MD] * 3):
            item = make_item(priority, seq=seq, added_at=float(seq))
            scheduler.on_enqueue(item, cycle=0)
            backlog.append(item)
        served = []
        for cycle in itertools.count():
            choice = scheduler.select(backlog, cycle)
            if choice is None:
                break
            scheduler.on_pair_delivered(choice, cycle)
            backlog.remove(choice)
            served.append(choice)
        assert not backlog  # closed backlog fully drained: nothing starves
        assert {item.priority for item in served} == {Priority.CK, Priority.MD}


class TestFIFOWithinPriority:
    @pytest.mark.parametrize("scheduler_name",
                             ["FCFS", "HigherWFQ", "LowerWFQ"])
    @pytest.mark.parametrize("priority", [Priority.CK, Priority.MD])
    @pytest.mark.parametrize("count", [3, 7])
    def test_service_order_matches_arrival_order(self, scheduler_name,
                                                 priority, count):
        scheduler = make_scheduler(scheduler_name)
        items = [make_item(priority, seq=seq, added_at=float(seq))
                 for seq in range(count)]
        for item in items:
            scheduler.on_enqueue(item, cycle=0)
        # Present the backlog in scrambled order: the scheduler must still
        # serve by arrival time.
        backlog = items[1::2] + items[0::2]
        served = []
        for cycle in range(count):
            choice = scheduler.select(backlog, cycle)
            scheduler.on_pair_delivered(choice, cycle)
            backlog.remove(choice)
            served.append(choice)
        assert served == items

    @pytest.mark.parametrize("scheduler_name", ["FCFS", "HigherWFQ"])
    def test_queue_id_breaks_added_at_ties(self, scheduler_name):
        scheduler = make_scheduler(scheduler_name)
        items = [make_item(Priority.CK, seq=seq, added_at=1.0)
                 for seq in range(4)]
        for item in items:
            scheduler.on_enqueue(item, cycle=0)
        first = scheduler.select(list(reversed(items)), cycle=0)
        assert first is items[0]


class TestDistributedQueueAgreement:
    @pytest.mark.parametrize("origins", [
        ("A",) * 4, ("B",) * 4, ("A", "B", "A", "B"),
    ])
    @pytest.mark.parametrize("priorities", [
        (Priority.CK,) * 4, (Priority.NL, Priority.CK, Priority.MD,
                             Priority.CK),
    ])
    def test_both_replicas_hold_identical_queue_ids(self, engine, origins,
                                                    priorities):
        dqp_a, dqp_b = wire_queues(engine)
        acknowledged: list[QueueItem] = []
        for origin, priority in zip(origins, priorities):
            dqp = dqp_a if origin == "A" else dqp_b
            dqp.add(make_request(priority, origin=origin), schedule_cycle=0,
                    timeout_cycle=None,
                    callback=lambda item, err: acknowledged.append(item))
        engine.run()
        assert len(acknowledged) == len(origins)
        assert all(item is not None for item in acknowledged)

        def snapshot(dqp: DistributedQueue):
            return {
                queue_id: [(item.queue_id.queue_seq,
                            item.request.priority,
                            item.request.origin)
                           for item in queue.items_in_order()]
                for queue_id, queue in dqp.queues.items()
            }

        # Field-for-field agreement: same lanes, same sequence numbers, same
        # order, same owning requests.
        assert snapshot(dqp_a) == snapshot(dqp_b)
        # Absolute ids are unique across the whole distributed queue.
        all_ids = [item.queue_id for queue in dqp_a.queues.values()
                   for item in queue.items_in_order()]
        assert len(set(all_ids)) == len(all_ids)

    @pytest.mark.parametrize("loss", [0.2, 0.4])
    def test_acknowledged_items_agree_over_lossy_channel(self, engine, loss):
        dqp_a, dqp_b = wire_queues(engine, loss=loss, ack_timeout=1e-4,
                                   max_retries=50)
        results = []
        for index in range(8):
            origin = "A" if index % 2 == 0 else "B"
            dqp = dqp_a if origin == "A" else dqp_b
            dqp.add(make_request(Priority.CK, origin=origin), 0, None,
                    callback=lambda item, err: results.append((item, err)))
        engine.run(until=2.0)
        successes = [item for item, err in results if err is None]
        assert successes, "no add survived the lossy channel"
        for item in successes:
            # Every acknowledged id exists on *both* replicas and names the
            # same request.
            mine = dqp_a.get(item.queue_id) or dqp_b.get(item.queue_id)
            peer_a = dqp_a.get(item.queue_id)
            peer_b = dqp_b.get(item.queue_id)
            assert peer_a is not None and peer_b is not None
            assert peer_a.request is peer_b.request is mine.request


def reference_choice(scheduler_name: str, ready: list[QueueItem]):
    """The oracle: the scheduler's rule as a ``min`` over the flat ready
    list, written out independently of the lane heads."""
    if not ready:
        return None
    if scheduler_name == "FCFS":
        return min(ready, key=lambda item: (item.added_at, item.queue_id))
    strict = [item for item in ready if item.priority is Priority.NL]
    if strict:
        return min(strict, key=lambda item: (item.added_at, item.queue_id))
    return min(ready, key=lambda item: (item.virtual_finish, item.added_at,
                                        item.queue_id))


def flat_ready(dqp: DistributedQueue, cycle: int) -> list[QueueItem]:
    """Every ready item, lane by lane in arrival order."""
    return [item for queue in dqp.queues.values()
            for item in queue.items_in_order() if item.is_ready(cycle)]


class TestLaneHeadSelection:
    """Choosing among one head per lane must equal the ``min`` over the
    whole ready list, through every kind of queue mutation."""

    @staticmethod
    def run_history(scheduler_name: str, seed: int, steps: int = 400):
        rng = random.Random(seed)
        scheduler = make_scheduler(scheduler_name)
        dqp = DistributedQueue(SimulationEngine(), "A", is_master=True,
                               max_queue_size=24)
        dqp.order_lanes(scheduler.lane_key)
        sequences = {queue_id: itertools.count() for queue_id in dqp.queues}
        unacknowledged: list[QueueItem] = []
        cycle = 0
        clock = 0.0
        stats = {"polls": 0, "ties": 0, "vf_head_not_first": 0,
                 "backward": 0}

        def resident():
            return [item for queue in dqp.queues.values()
                    for item in queue.items_in_order()]

        for _ in range(steps):
            op = rng.random()
            if op < 0.3:
                # Add; coarse arrival times make equal ``added_at`` common.
                if rng.random() < 0.5:
                    clock += rng.choice((0.0, 1.0))
                priority = rng.choice((Priority.NL, Priority.CK, Priority.MD,
                                       Priority.MD))
                queue = dqp.queues[int(priority)]
                if queue.is_full:
                    continue
                number = rng.choice((1, 1, 2, 3, 5))
                item = QueueItem(
                    request=make_request(priority, number=number),
                    queue_id=AbsoluteQueueId(int(priority),
                                             next(sequences[int(priority)])),
                    schedule_cycle=cycle + rng.choice((-2, 0, 1, 3, 8)),
                    timeout_cycle=None, added_at=clock,
                    pairs_remaining=number,
                    acknowledged=rng.random() < 0.6)
                # Production order: the lane learns of the item first, the
                # scheduler stamps it afterwards (``on_item_added``).
                queue.add(item)
                if item.acknowledged:
                    scheduler.on_enqueue(item, cycle)
                else:
                    unacknowledged.append(item)
            elif op < 0.4 and unacknowledged:
                item = unacknowledged.pop(rng.randrange(len(unacknowledged)))
                queue = dqp.queues[item.queue_id.queue_id]
                if queue.get(item.queue_id.queue_seq) is item:
                    item.acknowledged = True
                    queue.mark_acknowledged(item)
                    scheduler.on_enqueue(item, cycle)
            elif op < 0.45:
                items = resident()
                if items:
                    item = rng.choice(items)
                    item.suspended_until_cycle = cycle + rng.randint(1, 6)
                    dqp.queues[item.queue_id.queue_id].invalidate_ready_cache()
            elif op < 0.55:
                # Timeout / expiry / rejection: remove any resident item.
                items = resident()
                if items:
                    dqp.remove(rng.choice(items).queue_id)
            else:
                # Poll, mostly forward in time, sometimes a preview ahead
                # followed by an earlier poll.
                if rng.random() < 0.1:
                    preview = cycle + rng.randint(1, 5)
                    dqp.ready_heads(preview)
                    stats["backward"] += 1
                cycle += rng.choice((0, 1, 1, 2))
                heads = dqp.ready_heads(cycle)
                assert len(heads) <= len(dqp.queues)
                choice = scheduler.select(heads, cycle)
                ready = flat_ready(dqp, cycle)
                expected = reference_choice(scheduler_name, ready)
                assert choice is expected
                waiting = [max(item.schedule_cycle,
                               item.suspended_until_cycle)
                           for item in resident()
                           if item.acknowledged and item.pairs_remaining > 0
                           and not item.is_ready(cycle)]
                assert dqp.next_ready_change() == min(waiting,
                                                      default=math.inf)
                assert list(dqp.ready_items(cycle)) == ready
                stats["polls"] += 1
                times = [item.added_at for item in ready]
                stats["ties"] += len(times) != len(set(times))
                md = [item for item in ready if item.priority is Priority.MD]
                if md and min(md, key=lambda item: item.virtual_finish) \
                        is not md[0]:
                    stats["vf_head_not_first"] += 1
                if choice is not None and rng.random() < 0.7:
                    # Deliver a pair of the chosen item.
                    choice.pairs_remaining -= 1
                    choice.pairs_delivered += 1
                    scheduler.on_pair_delivered(choice, cycle)
                    if choice.pairs_remaining <= 0:
                        dqp.remove(choice.queue_id)
        return stats

    @pytest.mark.parametrize("scheduler_name",
                             ["FCFS", "HigherWFQ", "LowerWFQ"])
    @pytest.mark.parametrize("seed", range(6))
    def test_heads_select_like_the_flat_min(self, scheduler_name, seed):
        stats = self.run_history(scheduler_name, seed)
        assert stats["polls"] > 100
        assert stats["ties"] > 0
        assert stats["backward"] > 0
        if scheduler_name != "FCFS":
            # The case an arrival-order head would get wrong.
            assert stats["vf_head_not_first"] > 0

    def test_wfq_lane_orders_by_virtual_finish_not_arrival(self):
        scheduler = WeightedFairScheduler.higher_wfq()
        dqp = DistributedQueue(SimulationEngine(), "A", is_master=True)
        dqp.order_lanes(scheduler.lane_key)
        lane = dqp.queues[int(Priority.MD)]
        big = make_item(Priority.MD, seq=0, added_at=0.0, number=5)
        small = make_item(Priority.MD, seq=1, added_at=1.0, number=1)
        for item in (big, small):
            lane.add(item)
            scheduler.on_enqueue(item, cycle=0)
        assert small.virtual_finish < big.virtual_finish
        assert dqp.ready_items(0) == (big, small)  # arrival order
        assert dqp.ready_heads(0) == [small]
        assert scheduler.select(dqp.ready_heads(0), 0) is small

    def test_key_reads_the_stamp_made_after_insertion(self):
        # WFQ stamps ``virtual_finish`` after the lane learned of the item,
        # even when the lane has already been queried past its schedule
        # cycle: the item enters the ready set only at the next query.
        scheduler = WeightedFairScheduler.higher_wfq()
        dqp = DistributedQueue(SimulationEngine(), "A", is_master=True)
        dqp.order_lanes(scheduler.lane_key)
        lane = dqp.queues[int(Priority.MD)]
        first = make_item(Priority.MD, seq=0, added_at=0.0, number=1)
        lane.add(first)
        scheduler.on_enqueue(first, cycle=0)
        assert dqp.ready_heads(10) == [first]
        late = make_item(Priority.MD, seq=1, added_at=1.0, number=5)
        lane.add(late)
        assert late.virtual_finish == 0.0  # not stamped yet: would lead
        scheduler.on_enqueue(late, cycle=10)
        assert late.virtual_finish > first.virtual_finish
        assert dqp.ready_heads(10) == [first]
