"""Distributed Queue Protocol (DQP) — paper Appendix E.1.

Both controllable nodes must trigger entanglement attempts for the *same*
request in the *same* MHP cycle.  The DQP achieves this agreement by keeping
synchronised local queues at both nodes: one node (A) is the *master* of the
queue and assigns sequence numbers, the other (B) is the *slave*.

Properties implemented (Appendix E.1.2):

* total order and arrival-time ordering within each priority queue,
* equal queue number / uniqueness / consistency of absolute queue ids,
* windowed fairness between the two origins,
* ``min_time`` (schedule cycle) so that neither node starts generating before
  the other has the item,
* retransmission of ADD frames when ACK/REJ is lost,
* rejection when the queue is full or the peer's policy refuses the purpose id.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Optional

from repro.core.messages import (
    AbsoluteQueueId,
    EntanglementRequest,
    ErrorCode,
    Priority,
    QueueAck,
    QueueAdd,
    QueueReject,
)
from repro.sim.channel import ClassicalChannel
from repro.sim.engine import SimulationEngine
from repro.sim.entity import Entity

#: The first-come-first-serve order of ready items: arrival time, with the
#: absolute queue id breaking ties.  Unique within a lane, and the default
#: order of a lane's ready set.
arrival_key = attrgetter("added_at", "queue_id")


@dataclass
class QueueItem:
    """One entry of the distributed queue."""

    request: EntanglementRequest
    queue_id: AbsoluteQueueId
    schedule_cycle: int
    timeout_cycle: Optional[int]
    added_at: float
    pairs_remaining: int
    acknowledged: bool = False
    #: Virtual finish time used by weighted-fair-queueing schedulers.
    virtual_finish: float = 0.0
    #: Cycle until which generation for this item is suspended (used while the
    #: peer applies the |Psi-> correction).
    suspended_until_cycle: int = 0
    #: Number of pairs successfully delivered so far.
    pairs_delivered: int = 0
    metadata: dict = field(default_factory=dict)

    @property
    def priority(self) -> Priority:
        """Priority of the underlying request."""
        return self.request.priority

    def is_ready(self, cycle: int) -> bool:
        """Whether this item may be served in MHP cycle ``cycle``.

        The owning :class:`LocalQueue` keeps its ready set in step with this
        predicate without re-evaluating it per query.  It learns of an item
        when the item becomes ``acknowledged`` (:meth:`LocalQueue.add` of an
        acknowledged item, or :meth:`LocalQueue.mark_acknowledged`) and reads
        ``schedule_cycle`` and ``suspended_until_cycle`` then; whoever
        changes those two fields of a resident item afterwards must call
        :meth:`LocalQueue.invalidate_ready_cache`.  ``pairs_remaining`` may
        drop to zero at any time: the lane checks it whenever it hands out a
        head.
        """
        return (self.acknowledged
                and cycle >= self.schedule_cycle
                and cycle >= self.suspended_until_cycle
                and self.pairs_remaining > 0)


class LocalQueue:
    """A single priority lane of the distributed queue.

    Resident items live in ``_items``, keyed by queue sequence number in
    arrival order.  Readiness is kept in two heaps, so the EGP's poll asks
    each lane for one head instead of scanning the backlog:

    * the *waiting frontier* holds the acknowledged items not yet in the
      ready set, keyed by the cycle from which each is ready
      (``max(schedule_cycle, suspended_until_cycle)``);
    * the *ready set* holds the items whose cycle has come, ordered by
      :attr:`key` — the scheduler's order for this lane (see
      :meth:`~repro.core.scheduler.SchedulingStrategy.lane_key`), so its
      head is the one item of the lane the scheduler may pick.

    Every item enters the ready set through the waiting frontier: ``add``
    and ``mark_acknowledged`` only push onto the frontier, and an item's key
    is computed when a query (:meth:`head`) promotes it.  So a key may read
    fields stamped right after the item entered the queue, such as the
    virtual finish time WFQ sets in its ``on_enqueue`` hook.

    Removal is lazy: :meth:`remove` drops the item from ``_items`` only, and
    heap entries whose item is no longer resident (or has no pairs left) are
    discarded when they reach the top.  A query at a cycle below the latest
    promoted threshold rebuilds both heaps from ``_items``.
    """

    def __init__(self, queue_id: int, max_size: int = 256) -> None:
        self.queue_id = queue_id
        self.max_size = max_size
        #: Order of the ready set, set by
        #: :meth:`DistributedQueue.order_lanes`; unique within the lane.
        self.key: Callable[[QueueItem], tuple] = arrival_key
        self._items: dict[int, QueueItem] = {}
        #: Heap of ``(key(item), item)``.
        self._ready: list[tuple] = []
        #: Heap of ``(ready-from cycle, admission number, item)``.
        self._waiting: list[tuple] = []
        self._admissions = itertools.count()
        #: Highest ready-from cycle among ready entries: the ready set is
        #: right for any cycle at or above it (``inf`` forces a rebuild).
        self._horizon: float = -math.inf

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, queue_seq: int) -> bool:
        return queue_seq in self._items

    @property
    def is_full(self) -> bool:
        """Whether the queue has reached its maximum size."""
        return len(self._items) >= self.max_size

    def invalidate_ready_cache(self) -> None:
        """Rebuild the ready set from the resident items at the next query
        (after a readiness field changed behind the lane's back, or the
        lane's :attr:`key` changed)."""
        self._horizon = math.inf

    def add(self, item: QueueItem) -> None:
        """Insert ``item`` keyed by its queue sequence number."""
        seq = item.queue_id.queue_seq
        if seq in self._items:
            raise ValueError(f"queue {self.queue_id} already holds seq {seq}")
        if self.is_full:
            raise OverflowError(f"queue {self.queue_id} is full")
        self._items[seq] = item
        # An unacknowledged item is invisible to readiness until its ACK
        # arrives (see :meth:`mark_acknowledged`).
        if item.acknowledged:
            self._admit(item)

    def mark_acknowledged(self, item: QueueItem) -> None:
        """Readiness update for a resident item whose ACK just arrived
        (``acknowledged`` already flipped by the caller)."""
        self._admit(item)

    def _admit(self, item: QueueItem) -> None:
        if item.pairs_remaining > 0:
            heapq.heappush(self._waiting, (
                max(item.schedule_cycle, item.suspended_until_cycle),
                next(self._admissions), item))

    def _live(self, item: QueueItem) -> bool:
        return (item.pairs_remaining > 0
                and self._items.get(item.queue_id.queue_seq) is item)

    def get(self, queue_seq: int) -> Optional[QueueItem]:
        """Item with the given sequence number, or ``None``."""
        return self._items.get(queue_seq)

    def remove(self, queue_seq: int) -> Optional[QueueItem]:
        """Remove and return the item with the given sequence number."""
        item = self._items.pop(queue_seq, None)
        if (item is not None and len(self._ready) + len(self._waiting)
                > 2 * len(self._items) + 32):
            # Mostly dead heap entries (removals far from the heads): let
            # the next query rebuild compact heaps.
            self.invalidate_ready_cache()
        return item

    def items_in_order(self) -> list[QueueItem]:
        """All items in arrival order."""
        return list(self._items.values())

    def head(self, cycle: int) -> Optional[QueueItem]:
        """The first ready item of the lane in :attr:`key` order at
        ``cycle``, or ``None`` when no item is ready."""
        if cycle < self._horizon:
            self._rebuild(cycle)
        elif self._waiting and self._waiting[0][0] <= cycle:
            self._promote(cycle)
        ready, items = self._ready, self._items
        while ready:
            item = ready[0][1]
            # ``_live`` inlined: this runs for every lane on every poll.
            if (item.pairs_remaining > 0
                    and items.get(item.queue_id.queue_seq) is item):
                return item
            heapq.heappop(ready)
        return None

    def next_ready_change(self) -> float:
        """Earliest cycle at which a waiting item becomes ready, valid after
        a :meth:`head` query (``math.inf`` when nothing waits)."""
        waiting = self._waiting
        while waiting and not self._live(waiting[0][2]):
            heapq.heappop(waiting)
        return waiting[0][0] if waiting else math.inf

    def ready_items(self, cycle: int) -> list[QueueItem]:
        """Items that may be served in ``cycle``, in arrival order.

        A view derived from the ready set, built afresh on every call; the
        poll path asks for :meth:`head` instead.
        """
        self.head(cycle)
        ready = {id(entry[1]) for entry in self._ready}
        return [item for item in self._items.values()
                if id(item) in ready and item.pairs_remaining > 0]

    def _promote(self, cycle: int) -> None:
        """Move the waiting items whose cycle has come into the ready set."""
        waiting, ready, key = self._waiting, self._ready, self.key
        horizon = self._horizon
        while waiting and waiting[0][0] <= cycle:
            threshold, _, item = heapq.heappop(waiting)
            if self._live(item):
                heapq.heappush(ready, (key(item), item))
                if threshold > horizon:
                    horizon = threshold
        self._horizon = horizon

    def _rebuild(self, cycle: int) -> None:
        """Both heaps afresh from the resident items, as of ``cycle``."""
        ready, waiting = [], []
        horizon = -math.inf
        for item in self._items.values():
            if not item.acknowledged or item.pairs_remaining <= 0:
                continue
            threshold = max(item.schedule_cycle, item.suspended_until_cycle)
            if threshold <= cycle:
                ready.append((self.key(item), item))
                horizon = max(horizon, threshold)
            else:
                waiting.append((threshold, next(self._admissions), item))
        heapq.heapify(ready)
        heapq.heapify(waiting)
        self._ready, self._waiting, self._horizon = ready, waiting, horizon


@dataclass
class _PendingAdd:
    """Book-keeping for an ADD awaiting acknowledgement."""

    comm_seq: int
    frame: QueueAdd
    callback: Callable[[Optional[QueueItem], Optional[ErrorCode]], None]
    item: Optional[QueueItem]
    retries: int = 0


class DistributedQueue(Entity):
    """One node's end of the distributed queue.

    Parameters
    ----------
    engine:
        Simulation engine.
    node_name:
        Local node name ("A" or "B").
    is_master:
        Whether this node holds the master copy (assigns sequence numbers).
    priorities:
        The priority lanes to create (one :class:`LocalQueue` per priority).
    max_queue_size:
        Maximum items per lane (the paper uses 256).
    window_size:
        Maximum outstanding un-acknowledged ADDs per origin (fairness window).
    ack_timeout:
        Time to wait for an ACK/REJ before retransmitting the ADD.
    max_retries:
        Retransmissions before the add is abandoned with a NOTIME error.
    accept_policy:
        Predicate deciding whether a peer's request (by purpose id) is
        accepted; returning ``False`` triggers a REJ / DENIED.
    """

    def __init__(self, engine: SimulationEngine, node_name: str,
                 is_master: bool,
                 priorities: tuple[Priority, ...] = (Priority.NL, Priority.CK,
                                                     Priority.MD),
                 max_queue_size: int = 256,
                 window_size: int = 16,
                 ack_timeout: float = 1e-3,
                 max_retries: int = 10,
                 accept_policy: Optional[Callable[[EntanglementRequest], bool]] = None,
                 ) -> None:
        super().__init__(engine, name=f"DQP-{node_name}")
        self.node_name = node_name
        self.is_master = is_master
        self.queues: dict[int, LocalQueue] = {
            int(priority): LocalQueue(int(priority), max_size=max_queue_size)
            for priority in priorities
        }
        self._lanes = tuple(self.queues.values())
        self.window_size = window_size
        self.ack_timeout = ack_timeout
        self._ack_timeout_name = f"{self.name}.ack_timeout"
        self.max_retries = max_retries
        self.accept_policy = accept_policy or (lambda request: True)
        self._channel: Optional[ClassicalChannel] = None
        self._comm_seq = itertools.count()
        self._master_seq: dict[int, itertools.count] = {
            queue_id: itertools.count() for queue_id in self.queues
        }
        self._pending: dict[int, _PendingAdd] = {}
        #: Called whenever an item is added locally (either origin).
        self.on_item_added: Optional[Callable[[QueueItem], None]] = None
        self.statistics = {"adds_sent": 0, "adds_received": 0,
                           "acks_sent": 0, "rejects_sent": 0,
                           "retransmissions": 0, "abandoned": 0}

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def attach_channel(self, channel: ClassicalChannel) -> None:
        """Set the classical channel used to reach the peer DQP."""
        self._channel = channel

    def receive(self, frame: object) -> None:
        """Entry point for frames arriving from the peer DQP."""
        if isinstance(frame, QueueAdd):
            self._handle_add(frame)
        elif isinstance(frame, QueueAck):
            self._handle_ack(frame)
        elif isinstance(frame, QueueReject):
            self._handle_reject(frame)
        else:
            raise TypeError(f"unexpected DQP frame {type(frame).__name__}")

    # ------------------------------------------------------------------ #
    # Local API used by the EGP
    # ------------------------------------------------------------------ #
    def queue_for_priority(self, priority: Priority) -> int:
        """Queue id used for requests of the given priority."""
        return int(priority)

    def total_length(self) -> int:
        """Total number of items across all priority lanes."""
        return sum(len(queue) for queue in self.queues.values())

    def add(self, request: EntanglementRequest, schedule_cycle: int,
            timeout_cycle: Optional[int],
            callback: Callable[[Optional[QueueItem], Optional[ErrorCode]], None],
            ) -> None:
        """Add ``request`` to the distributed queue.

        ``callback(item, error)`` fires once the add is resolved: on success
        ``item`` is the local :class:`QueueItem` and ``error`` is ``None``;
        on failure ``item`` is ``None`` and ``error`` describes the reason.
        """
        if self._channel is None:
            raise RuntimeError("DQP channel not attached")
        queue_id = self.queue_for_priority(request.priority)
        queue = self.queues[queue_id]
        if queue.is_full:
            callback(None, ErrorCode.REJECTED)
            return
        if len(self._pending) >= self.window_size:
            callback(None, ErrorCode.NOTIME)
            return
        comm_seq = next(self._comm_seq)
        if self.is_master:
            queue_seq = next(self._master_seq[queue_id])
            item = self._make_item(request, queue_id, queue_seq,
                                   schedule_cycle, timeout_cycle)
            queue.add(item)
            frame = QueueAdd(origin=self.node_name, comm_seq=comm_seq,
                             queue_id=queue_id, queue_seq=queue_seq,
                             request=request, schedule_cycle=schedule_cycle,
                             timeout_cycle=timeout_cycle)
        else:
            item = None
            frame = QueueAdd(origin=self.node_name, comm_seq=comm_seq,
                             queue_id=queue_id, queue_seq=None,
                             request=request, schedule_cycle=schedule_cycle,
                             timeout_cycle=timeout_cycle)
        pending = _PendingAdd(comm_seq=comm_seq, frame=frame,
                              callback=callback, item=item)
        self._pending[comm_seq] = pending
        self._transmit_add(pending)

    def remove(self, queue_id: AbsoluteQueueId) -> Optional[QueueItem]:
        """Remove an item once its request completed, timed out or expired."""
        queue = self.queues.get(queue_id.queue_id)
        if queue is None:
            return None
        return queue.remove(queue_id.queue_seq)

    def get(self, queue_id: AbsoluteQueueId) -> Optional[QueueItem]:
        """Look up an item by absolute queue id."""
        queue = self.queues.get(queue_id.queue_id)
        if queue is None:
            return None
        return queue.get(queue_id.queue_seq)

    def order_lanes(self, lane_key: Callable[[int], Callable]) -> None:
        """Order each lane's ready set by ``lane_key(queue_id)`` — the
        scheduler's :meth:`~repro.core.scheduler.SchedulingStrategy.lane_key`
        (lanes default to :data:`arrival_key`)."""
        for queue_id, queue in self.queues.items():
            queue.key = lane_key(queue_id)
            queue.invalidate_ready_cache()

    def ready_heads(self, cycle: int) -> list[QueueItem]:
        """The head of every lane with a ready item at ``cycle`` — at most
        one item per lane, which is all a scheduler whose lane order
        :meth:`order_lanes` installed needs to choose from."""
        heads = []
        for lane in self._lanes:
            if lane._items:
                head = lane.head(cycle)
                if head is not None:
                    heads.append(head)
        return heads

    def ready_items(self, cycle: int) -> tuple[QueueItem, ...]:
        """All ready items across lanes, each lane in arrival order.

        A derived read-only view (tests, diagnostics); the poll path uses
        :meth:`ready_heads`.
        """
        return tuple(item for queue in self._lanes
                     for item in queue.ready_items(cycle))

    def next_ready_change(self) -> float:
        """Earliest cycle at which a currently waiting item becomes ready
        without any further mutation (``math.inf`` when none is pending).

        Valid for the cycle passed to the latest :meth:`ready_heads` call —
        the EGP consults it right after an empty answer to decide when a
        poll could next be useful (busy-poll elision).
        """
        return min((lane.next_ready_change() for lane in self._lanes),
                   default=math.inf)

    # ------------------------------------------------------------------ #
    # Frame handling
    # ------------------------------------------------------------------ #
    def _transmit_add(self, pending: _PendingAdd) -> None:
        assert self._channel is not None
        self.statistics["adds_sent"] += 1
        self._channel.send(pending.frame)
        self.call_after(self.ack_timeout, self._check_ack,
                        args=(pending.comm_seq,),
                        name=self._ack_timeout_name)

    def _check_ack(self, comm_seq: int) -> None:
        pending = self._pending.get(comm_seq)
        if pending is None:
            return
        pending.retries += 1
        if pending.retries > self.max_retries:
            # Abandon: roll back any local insertion (master origin).
            self.statistics["abandoned"] += 1
            del self._pending[comm_seq]
            if pending.item is not None:
                self.remove(pending.item.queue_id)
            pending.callback(None, ErrorCode.NOTIME)
            return
        self.statistics["retransmissions"] += 1
        self._transmit_add(pending)

    def _handle_add(self, frame: QueueAdd) -> None:
        assert self._channel is not None
        self.statistics["adds_received"] += 1
        queue = self.queues.get(frame.queue_id)
        if queue is None or not self.accept_policy(frame.request):
            self.statistics["rejects_sent"] += 1
            self._channel.send(QueueReject(origin=self.node_name,
                                           comm_seq=frame.comm_seq,
                                           queue_id=frame.queue_id,
                                           reason=ErrorCode.DENIED))
            return
        if self.is_master:
            # Peer (slave) origin: assign the sequence number here.
            queue_seq = next(self._master_seq[frame.queue_id])
        else:
            # Master origin: sequence number was assigned by the master.
            if frame.queue_seq is None:
                raise ValueError("ADD from master is missing a queue sequence")
            queue_seq = frame.queue_seq
        if queue.is_full:
            self.statistics["rejects_sent"] += 1
            self._channel.send(QueueReject(origin=self.node_name,
                                           comm_seq=frame.comm_seq,
                                           queue_id=frame.queue_id,
                                           reason=ErrorCode.REJECTED))
            return
        existing = queue.get(queue_seq)
        if existing is None:
            item = self._make_item(frame.request, frame.queue_id, queue_seq,
                                   frame.schedule_cycle, frame.timeout_cycle)
            item.acknowledged = True
            queue.add(item)
            if self.on_item_added is not None:
                self.on_item_added(item)
        self.statistics["acks_sent"] += 1
        self._channel.send(QueueAck(origin=self.node_name,
                                    comm_seq=frame.comm_seq,
                                    queue_id=frame.queue_id,
                                    queue_seq=queue_seq))

    def _handle_ack(self, frame: QueueAck) -> None:
        pending = self._pending.pop(frame.comm_seq, None)
        if pending is None:
            return  # duplicate ACK after retransmission
        queue = self.queues[frame.queue_id]
        resident: Optional[QueueItem]
        if pending.item is not None:
            # Master origin: the item has been resident (unacknowledged,
            # hence invisible to readiness) since the local add.
            item = resident = pending.item
        else:
            # Slave origin: we only now learn the queue sequence number.
            item = self._make_item(pending.frame.request, frame.queue_id,
                                   frame.queue_seq,
                                   pending.frame.schedule_cycle,
                                   pending.frame.timeout_cycle)
            if queue.get(frame.queue_seq) is None:
                queue.add(item)
                resident = item
            else:
                resident = None  # defensive: never feed a non-resident
                # item to the ready set (the resident copy rules)
        item.acknowledged = True
        # Flipping ``acknowledged`` changes readiness: delta-insert the
        # resident item.
        if resident is not None:
            queue.mark_acknowledged(resident)
        if self.on_item_added is not None:
            self.on_item_added(item)
        pending.callback(item, None)

    def _handle_reject(self, frame: QueueReject) -> None:
        pending = self._pending.pop(frame.comm_seq, None)
        if pending is None:
            return
        if pending.item is not None:
            self.remove(pending.item.queue_id)
        pending.callback(None, frame.reason)

    def _make_item(self, request: EntanglementRequest, queue_id: int,
                   queue_seq: int, schedule_cycle: int,
                   timeout_cycle: Optional[int]) -> QueueItem:
        return QueueItem(
            request=request,
            queue_id=AbsoluteQueueId(queue_id, queue_seq),
            schedule_cycle=schedule_cycle,
            timeout_cycle=timeout_cycle,
            added_at=self.now,
            pairs_remaining=request.number,
            acknowledged=False,
        )
