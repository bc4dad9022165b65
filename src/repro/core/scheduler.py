"""EGP scheduling strategies (paper Sections 5.2.4 and 6.3, Appendix C.2).

The scheduler decides which ready queue item is served next.  Any strategy is
admissible as long as it is *deterministic* given the (synchronised) queue
state, so that both nodes independently pick the same request.

Implemented strategies:

``FCFSScheduler``
    First-come-first-serve over all priority lanes, ordered by absolute
    arrival (queue id is only a tie-breaker).

``WeightedFairScheduler``
    The paper's WFQ strategy: requests of the highest priority class
    (NL, priority 1) are always served first (strict priority); the remaining
    classes share capacity through weighted fair queueing using virtual
    finish times.  ``HigherWFQ`` (CK weight 10, MD weight 1) and ``LowerWFQ``
    (CK weight 2, MD weight 1) from Appendix C.2 are provided as factories.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from operator import attrgetter
from typing import Callable, Optional, Sequence

from repro.core.distributed_queue import QueueItem, arrival_key
from repro.core.messages import Priority

#: WFQ order of the weighted classes: virtual finish time first.
virtual_finish_key = attrgetter("virtual_finish", "added_at", "queue_id")


class SchedulingStrategy(ABC):
    """Picks the next queue item to serve among the ready ones."""

    #: Human-readable name used in benchmark output.
    name: str = "base"

    @abstractmethod
    def select(self, ready_items: Sequence[QueueItem],
               cycle: int) -> Optional[QueueItem]:
        """Return the item to serve in this MHP cycle, or ``None``.

        ``ready_items`` holds at least the first ready item of every lane
        in :meth:`lane_key` order; the choice must be the same for every
        such collection.  The EGP passes one head per lane
        (:meth:`DistributedQueue.ready_heads`); passing the whole ready list
        gives the same answer.
        """

    def lane_key(self, queue_id: int) -> Callable[[QueueItem], tuple]:
        """Order of lane ``queue_id``'s ready set: :meth:`select` must never
        prefer an item of the lane over one that comes first in this order.
        Keys must be unique within a lane."""
        return arrival_key

    def on_enqueue(self, item: QueueItem, cycle: int) -> None:
        """Hook invoked when an item enters the queue (used by WFQ)."""

    def on_pair_delivered(self, item: QueueItem, cycle: int) -> None:
        """Hook invoked when a pair for ``item`` is delivered."""


class FCFSScheduler(SchedulingStrategy):
    """First-come-first-serve across all priority lanes."""

    name = "FCFS"

    def select(self, ready_items: Sequence[QueueItem],
               cycle: int) -> Optional[QueueItem]:
        if len(ready_items) == 1:
            # A lone head (one busy lane) is the choice: skip min()'s key
            # calls.
            return ready_items[0]
        if not ready_items:
            return None
        return min(ready_items, key=arrival_key)


class WeightedFairScheduler(SchedulingStrategy):
    """Strict priority for NL plus weighted fair queueing for the rest.

    Parameters
    ----------
    weights:
        Mapping of priority to WFQ weight for the non-strict classes.  The
        paper's *HigherWFQ* uses ``{CK: 10, MD: 1}`` and *LowerWFQ*
        ``{CK: 2, MD: 1}``.
    strict_priorities:
        Priorities served ahead of everything else, in order.
    """

    def __init__(self, weights: Optional[dict[Priority, float]] = None,
                 strict_priorities: Sequence[Priority] = (Priority.NL,),
                 name: str = "WFQ") -> None:
        self.weights = weights or {Priority.CK: 10.0, Priority.MD: 1.0}
        for priority, weight in self.weights.items():
            if weight <= 0:
                raise ValueError(f"weight for {priority} must be positive")
        self.strict_priorities = tuple(strict_priorities)
        self.name = name
        #: WFQ virtual time, advanced as pairs complete.  Only consulted at
        #: enqueue time (it stamps ``virtual_finish``), so an item's place
        #: in its lane never moves once stamped.
        self._virtual_time = 0.0

    @classmethod
    def higher_wfq(cls) -> "WeightedFairScheduler":
        """The paper's HigherWFQ: CK weight 10, MD weight 1."""
        return cls(weights={Priority.CK: 10.0, Priority.MD: 1.0},
                   name="HigherWFQ")

    @classmethod
    def lower_wfq(cls) -> "WeightedFairScheduler":
        """The paper's LowerWFQ: CK weight 2, MD weight 1."""
        return cls(weights={Priority.CK: 2.0, Priority.MD: 1.0},
                   name="LowerWFQ")

    # ------------------------------------------------------------------ #
    # Strategy interface
    # ------------------------------------------------------------------ #
    def lane_key(self, queue_id: int) -> Callable[[QueueItem], tuple]:
        # Lane ``queue_id`` holds the requests of priority ``queue_id``.
        if queue_id in self.strict_priorities:
            return arrival_key
        return virtual_finish_key

    def on_enqueue(self, item: QueueItem, cycle: int) -> None:
        if item.priority in self.strict_priorities:
            return
        weight = self.weights.get(item.priority, 1.0)
        # Virtual finish time: start at max(virtual time, 0) and add the
        # request's normalised service demand.
        service = item.request.number / weight
        item.virtual_finish = max(self._virtual_time, item.virtual_finish) + service

    def on_pair_delivered(self, item: QueueItem, cycle: int) -> None:
        if item.priority in self.strict_priorities:
            return
        weight = self.weights.get(item.priority, 1.0)
        self._virtual_time += 1.0 / weight

    def select(self, ready_items: Sequence[QueueItem],
               cycle: int) -> Optional[QueueItem]:
        for priority in self.strict_priorities:
            strict = [item for item in ready_items if item.priority == priority]
            if strict:
                return min(strict, key=arrival_key)
        weighted = [item for item in ready_items
                    if item.priority not in self.strict_priorities]
        if not weighted:
            return None
        return min(weighted, key=virtual_finish_key)


def make_scheduler(name: str) -> SchedulingStrategy:
    """Factory used by the scenario catalogue and benchmarks.

    Accepted names: ``"FCFS"``, ``"HigherWFQ"``, ``"LowerWFQ"`` and ``"WFQ"``
    (alias for HigherWFQ, the variant used in the paper's Table 1).
    """
    normalized = name.strip().lower()
    if normalized == "fcfs":
        return FCFSScheduler()
    if normalized in ("higherwfq", "wfq"):
        return WeightedFairScheduler.higher_wfq()
    if normalized == "lowerwfq":
        return WeightedFairScheduler.lower_wfq()
    raise ValueError(f"unknown scheduler {name!r}")
