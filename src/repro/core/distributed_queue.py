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

import itertools
import math
from dataclasses import dataclass, field
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
from repro.sim.entity import Protocol

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
    #: Position in the owning lane's arrival sequence (assigned by
    #: :meth:`LocalQueue.add`); delta-maintained ready lists merge on it to
    #: keep arrival order without consulting the lane's ``_order`` list.
    arrival_order: int = 0
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

        Readiness caching invariant (see :meth:`LocalQueue.ready_items`):
        the fields this predicate reads — ``acknowledged``,
        ``schedule_cycle``, ``suspended_until_cycle``, ``pairs_remaining``
        — may only change through paths that invalidate the owning queue's
        ready cache (``LocalQueue.add/remove``, ``DistributedQueue`` frame
        handling), with one audited exception: the EGP decrements
        ``pairs_remaining`` on delivery and, when it reaches zero, removes
        the item before the next readiness query.

        NOTE: :meth:`LocalQueue.ready_items` inlines this predicate in its
        rebuild loop (the per-item method call is measurable on deep
        backlogs) — keep the two in sync when changing readiness rules.
        """
        return (self.acknowledged
                and cycle >= self.schedule_cycle
                and cycle >= self.suspended_until_cycle
                and self.pairs_remaining > 0)


class LocalQueue:
    """A single priority lane of the distributed queue."""

    def __init__(self, queue_id: int, max_size: int = 256,
                 version_cell: Optional[list] = None) -> None:
        self.queue_id = queue_id
        self.max_size = max_size
        self._items: dict[int, QueueItem] = {}
        self._order: list[int] = []
        # Ready-list cache: the EGP asks for ready items every GEN cycle,
        # but the answer only changes when the queue mutates or a waiting
        # item crosses its schedule/suspension cycle.  ``_ready_next_change``
        # is the earliest such crossing; until then a cache hit skips the
        # per-item scan entirely.
        self._ready_cache: Optional[list[QueueItem]] = None
        self._ready_cycle: int = -1
        self._ready_next_change: float = math.inf
        #: Acknowledged items with a schedule/suspension threshold beyond
        #: ``_ready_cycle``, in arrival order — the promotion frontier the
        #: incremental path draws from when the cycle advances (valid only
        #: while ``_ready_cache`` is not ``None``).
        self._waiting: list[QueueItem] = []
        #: Arrival-sequence source for :attr:`QueueItem.arrival_order`.
        self._arrivals = itertools.count()
        #: Mutation counter, optionally shared with the owning
        #: :class:`DistributedQueue` so its flattened ready tuple can verify
        #: all lanes at once (one int compare instead of per-lane calls).
        self._version_cell = version_cell if version_cell is not None else [0]

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, queue_seq: int) -> bool:
        return queue_seq in self._items

    @property
    def is_full(self) -> bool:
        """Whether the queue has reached its maximum size."""
        return len(self._items) >= self.max_size

    def invalidate_ready_cache(self) -> None:
        """Drop the cached ready list (full-rescan fallback for any
        readiness-affecting mutation the delta paths don't cover)."""
        self._ready_cache = None
        self._version_cell[0] += 1

    def add(self, item: QueueItem) -> None:
        """Insert ``item`` keyed by its queue sequence number."""
        seq = item.queue_id.queue_seq
        if seq in self._items:
            raise ValueError(f"queue {self.queue_id} already holds seq {seq}")
        if self.is_full:
            raise OverflowError(f"queue {self.queue_id} is full")
        item.arrival_order = next(self._arrivals)
        self._items[seq] = item
        self._order.append(seq)
        if self._ready_cache is None:
            self.invalidate_ready_cache()
            return
        # Delta: an unacknowledged item is invisible to readiness until its
        # ACK arrives (see :meth:`mark_acknowledged`), so the cached list —
        # and its identity, which the schedulers memoise on — stays valid.
        if item.acknowledged:
            self._insert_visible(item)

    def mark_acknowledged(self, item: QueueItem) -> None:
        """Readiness delta for a resident item whose ACK just arrived
        (``acknowledged`` already flipped by the caller)."""
        if self._ready_cache is None:
            self.invalidate_ready_cache()
            return
        self._insert_visible(item)

    def _insert_visible(self, item: QueueItem) -> None:
        """Slot an acknowledged item into the cached ready list or the
        waiting frontier, keeping both arrival-ordered."""
        if item.pairs_remaining <= 0:
            return
        threshold = max(item.schedule_cycle, item.suspended_until_cycle)
        if threshold <= self._ready_cycle:
            # Ready at the cached cycle: publish a NEW list object (the
            # identity change is what invalidates scheduler memoisation).
            ready = list(self._ready_cache)
            position = len(ready)
            while (position > 0
                   and ready[position - 1].arrival_order > item.arrival_order):
                position -= 1
            ready.insert(position, item)
            self._ready_cache = ready
            self._version_cell[0] += 1
        else:
            waiting = self._waiting
            position = len(waiting)
            while (position > 0
                   and waiting[position - 1].arrival_order
                   > item.arrival_order):
                position -= 1
            waiting.insert(position, item)
            if threshold < self._ready_next_change:
                # Tightening the crossing must bump the version so the
                # owning DistributedQueue re-aggregates its flat horizon.
                self._ready_next_change = threshold
                self._version_cell[0] += 1

    def get(self, queue_seq: int) -> Optional[QueueItem]:
        """Item with the given sequence number, or ``None``."""
        return self._items.get(queue_seq)

    def remove(self, queue_seq: int) -> Optional[QueueItem]:
        """Remove and return the item with the given sequence number."""
        item = self._items.pop(queue_seq, None)
        if item is None:
            return None
        self._order.remove(queue_seq)
        if self._ready_cache is None:
            self.invalidate_ready_cache()
            return item
        # Delta removal.  Identity scans throughout: QueueItem's dataclass
        # equality compares fields, and two distinct items may compare
        # equal — only ``is`` names the right one.
        for position, ready_item in enumerate(self._ready_cache):
            if ready_item is item:
                ready = list(self._ready_cache)
                del ready[position]
                self._ready_cache = ready
                self._version_cell[0] += 1
                return item
        for position, waiting_item in enumerate(self._waiting):
            if waiting_item is item:
                # ``_ready_next_change`` may now be earlier than any real
                # crossing; that is conservative — the promotion pass at
                # that cycle finds nothing and recomputes the horizon.
                del self._waiting[position]
                return item
        return item  # unacknowledged (or pairs exhausted): was invisible

    def items_in_order(self) -> list[QueueItem]:
        """All items in arrival order."""
        return [self._items[seq] for seq in self._order]

    def ready_items(self, cycle: int) -> list[QueueItem]:
        """Items that may be served in ``cycle``, in arrival order.

        Cached between calls: the list is rebuilt only after a mutation
        (add / remove / acknowledgement — see :meth:`invalidate_ready_cache`)
        or once ``cycle`` reaches the earliest schedule/suspension crossing
        of a waiting item.  Callers must treat the returned list as
        read-only (the EGP and schedulers already do).
        """
        if self._ready_cache is not None and self._ready_cycle <= cycle:
            if cycle < self._ready_next_change:
                return self._ready_cache
            return self._promote(cycle)
        ready = []
        waiting = []
        next_change = math.inf
        items = self._items
        for seq in self._order:
            item = items[seq]
            # Inlined ``item.is_ready(cycle)``: the rebuild scans every
            # resident item and deep MD backlogs make the per-item method
            # call measurable on the poll hot path.
            if not item.acknowledged or item.pairs_remaining <= 0:
                continue
            if (cycle >= item.schedule_cycle
                    and cycle >= item.suspended_until_cycle):
                ready.append(item)
            else:
                # Not ready yet, but will become ready without any further
                # mutation once its schedule/suspension cycle passes.
                threshold = max(item.schedule_cycle,
                                item.suspended_until_cycle)
                if threshold > cycle:
                    waiting.append(item)
                    next_change = min(next_change, threshold)
        self._ready_cache = ready
        self._waiting = waiting
        self._ready_cycle = cycle
        self._ready_next_change = next_change
        return ready

    def _promote(self, cycle: int) -> list[QueueItem]:
        """Cycle-advance delta: move waiting items whose threshold passed
        into the ready list instead of rescanning the whole lane."""
        promoted = []
        waiting = []
        next_change = math.inf
        for item in self._waiting:
            if item.pairs_remaining <= 0:
                continue  # delivered out from under us; removal is pending
            threshold = max(item.schedule_cycle, item.suspended_until_cycle)
            if threshold <= cycle:
                promoted.append(item)
            else:
                waiting.append(item)
                next_change = min(next_change, threshold)
        self._waiting = waiting
        self._ready_cycle = cycle
        self._ready_next_change = next_change
        if promoted:
            # Arrival-order merge of two arrival-ordered runs, into a NEW
            # list object (identity change = memoisation invalidation).
            ready = self._ready_cache
            merged = []
            i = j = 0
            while i < len(ready) and j < len(promoted):
                if ready[i].arrival_order <= promoted[j].arrival_order:
                    merged.append(ready[i])
                    i += 1
                else:
                    merged.append(promoted[j])
                    j += 1
            merged.extend(ready[i:])
            merged.extend(promoted[j:])
            self._ready_cache = merged
            self._version_cell[0] += 1
        return self._ready_cache


@dataclass
class _PendingAdd:
    """Book-keeping for an ADD awaiting acknowledgement."""

    comm_seq: int
    frame: QueueAdd
    callback: Callable[[Optional[QueueItem], Optional[ErrorCode]], None]
    item: Optional[QueueItem]
    retries: int = 0


class DistributedQueue(Protocol):
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
        #: Shared mutation counter: any lane's readiness-affecting change
        #: bumps it, which is the flat ready cache's invalidation signal.
        self._version = [0]
        self.queues: dict[int, LocalQueue] = {
            int(priority): LocalQueue(int(priority), max_size=max_queue_size,
                                      version_cell=self._version)
            for priority in priorities
        }
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
        # Flat ready-list cache: valid while every lane's (cached) ready
        # list is the identical object it was on the previous call.
        self._flat_ready: Optional[tuple[QueueItem, ...]] = None
        self._flat_sources: tuple[list[QueueItem], ...] = ()
        # Fast-path validity window for the flat cache: no lane mutated
        # (version) and ``cycle`` below the earliest readiness crossing.
        self._flat_version = -1
        self._flat_cycle = -1
        self._flat_next_change = -math.inf
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

    def outstanding_adds(self) -> int:
        """Number of local ADDs still awaiting acknowledgement."""
        return len(self._pending)

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

    def ready_items(self, cycle: int) -> tuple[QueueItem, ...]:
        """All ready items across lanes (the scheduler picks among these).

        Returned as an immutable *tuple*, cached on the identity of the
        per-lane cached lists: while no lane rebuilt its ready list, the
        same tuple object comes back.  That saves the per-cycle copy on
        deep queues — and because the object is immutable and stable
        between mutations, the schedulers memoise their selection on it
        (see :meth:`~repro.core.scheduler.FCFSScheduler.select`).
        """
        # Fast path: no lane mutated since the last call and ``cycle`` is
        # still below every lane's next readiness crossing — one int
        # compare instead of per-lane cache checks.
        if (self._flat_version == self._version[0]
                and self._flat_cycle <= cycle < self._flat_next_change
                and self._flat_ready is not None):
            return self._flat_ready
        sources = tuple(queue.ready_items(cycle)
                        for queue in self.queues.values())
        self._flat_version = self._version[0]
        self._flat_cycle = cycle
        self._flat_next_change = min(
            (queue._ready_next_change for queue in self.queues.values()),
            default=math.inf)
        previous = self._flat_sources
        if (self._flat_ready is not None and len(sources) == len(previous)
                and all(a is b for a, b in zip(sources, previous))):
            return self._flat_ready
        flat = tuple(item for source in sources for item in source)
        self._flat_sources = sources
        self._flat_ready = flat
        return flat

    def next_ready_change(self) -> float:
        """Earliest cycle at which a currently waiting item becomes ready
        without any further mutation (``math.inf`` when none is pending).

        Valid for the cycle passed to the latest :meth:`ready_items` call —
        the EGP consults it right after an empty ready answer to decide
        when a poll could next be useful (busy-poll elision).  It may be
        conservative (earlier than any real crossing) after a waiting item
        was removed, which only costs one extra promotion pass.
        """
        return self._flat_next_change

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
                # item to the ready list (the resident copy rules)
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
