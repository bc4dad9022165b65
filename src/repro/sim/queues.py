"""The simulation engine's event queue.

The engine pops timestamped events in ``(time, sequence)`` order from one
binary heap (``heapq``).  The heap holds ``(time, sequence, event)``
tuples, so ``heapq`` compares plain floats and ints in C and never calls
back into Python; the event itself is never compared, because the
sequence number is unique per engine.  Cancellation is lazy: a cancelled
event stays in the heap until it surfaces, and once cancelled residents
outnumber live events the heap is rebuilt without them.  The ordering is
total, so compaction never changes the firing order.

The heap is the only event queue: on the profiled single link and the
5-node repeater chain it was faster than a calendar queue and a ladder
queue.  Specs, results and resume-cache filenames record its name,
:data:`ENGINE`, as provenance.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Optional

#: Name of the event queue, recorded as provenance on specs, results and
#: resume-cache entries.
ENGINE = "heap"


class Event:
    """A single scheduled callback (slim ``__slots__`` record).

    Events fire in ``(time, sequence)`` order — the sequence is unique per
    engine, so the order is total and simultaneous events run in the order
    they were scheduled.  The queue keys its heap entries on those two
    fields; the event defines no ordering of its own.  The event object
    doubles as the cancellation handle returned by the ``schedule_*``
    methods: it stays valid after the event fired (cancel becomes a no-op)
    and after ``engine.reset()`` (handles from before a reset are inert, see
    :meth:`SimulationEngine.reset`).
    """

    __slots__ = ("time", "sequence", "callback", "args", "name",
                 "cancelled", "popped", "engine")

    def __init__(self, time: float, sequence: int,
                 callback: Callable[..., None], args: tuple = (),
                 name: str = "", engine=None) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.name = name
        #: Set by :meth:`cancel`; a cancelled event is skipped by the engine.
        self.cancelled = False
        #: True once the event has left the queue (executed, skipped or
        #: discarded); cancelling it afterwards must not touch the queue
        #: accounting.  Every event is built to be queued at once, so it
        #: starts out False.
        self.popped = False
        self.engine = engine

    @property
    def is_pending(self) -> bool:
        """Whether the event is still queued and will fire."""
        return not self.popped and not self.cancelled

    def cancel(self) -> None:
        """Cancel the event.  A cancelled event is skipped by the engine.

        Cancelling an event that already fired, was discarded, or belongs to
        a previous engine epoch (before a ``reset()``) is a harmless no-op
        for the queue accounting.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if not self.popped and self.engine is not None:
            self.engine._note_cancelled(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        state = ("cancelled" if self.cancelled
                 else "popped" if self.popped else "pending")
        return (f"<Event t={self.time!r} seq={self.sequence} "
                f"{self.name!r} {state}>")


#: Backwards-compatible alias: the slim event *is* its own handle.
EventHandle = Event


class HeapEventQueue:
    """Pending events of one engine, in a binary heap.

    The heap holds ``(time, sequence, event)`` entries, keyed when the
    event is pushed (an event's time and sequence never change while it is
    queued).  ``push`` clears the event's ``popped`` flag (a re-armed
    event was popped before); ``pop`` returns the next **live** event in
    ``(time, sequence)`` order, discarding cancelled residents as they
    surface (marking them ``popped``).
    Cancelled events stay in the heap until popped; once they outnumber
    the live events the heap is rebuilt without them (amortised O(1) per
    cancellation).

    :meth:`SimulationEngine.run <repro.sim.engine.SimulationEngine.run>`
    pops from :attr:`heap` directly, without a method call per event, so
    the list object must never be replaced: compaction and :meth:`clear`
    rebuild it in place.

    ``len(queue)`` counts *resident* events (live plus not-yet-discarded
    cancelled ones); :attr:`live_count` counts only live events and is what
    the engine reports as ``pending_events``.
    """

    #: Minimum number of cancelled events in the heap before a compaction is
    #: even considered (avoids churn on tiny queues).
    COMPACTION_MIN_CANCELLED = 64

    def __init__(self) -> None:
        #: The heap of ``(time, sequence, event)`` entries.  Callers that
        #: pop from it directly must mark the event ``popped`` and, for a
        #: cancelled one, call :meth:`discarded`.
        self.heap: list[tuple[float, int, Event]] = []
        self._cancelled = 0

    def push(self, event: Event) -> None:
        event.popped = False
        heappush(self.heap, (event.time, event.sequence, event))

    def pop(self) -> Optional[Event]:
        heap = self.heap
        while heap:
            event = heappop(heap)[2]
            event.popped = True
            if event.cancelled:
                self._cancelled -= 1
                continue
            return event
        return None

    def discarded(self) -> None:
        """Record that a cancelled resident was popped and dropped."""
        self._cancelled -= 1

    def note_cancelled(self) -> None:
        """Record that a resident event was cancelled."""
        self._cancelled += 1
        if (self._cancelled >= self.COMPACTION_MIN_CANCELLED
                and 2 * self._cancelled > len(self.heap)):
            self._compact()

    def _compact(self) -> None:
        # Event ordering is total — (time, sequence) with a unique sequence
        # — so rebuilding the heap cannot change the firing order.  In
        # place: the engine's run loop holds a reference to the list.
        heap = self.heap
        live = []
        for entry in heap:
            event = entry[2]
            if event.cancelled:
                event.popped = True
            else:
                live.append(entry)
        heap[:] = live
        heapify(heap)
        self._cancelled = 0

    def clear(self) -> None:
        """Discard every resident event, marking them ``popped``."""
        for entry in self.heap:
            entry[2].popped = True
        self.heap.clear()
        self._cancelled = 0

    def __len__(self) -> int:
        return len(self.heap)

    @property
    def live_count(self) -> int:
        return len(self.heap) - self._cancelled


__all__ = [
    "ENGINE",
    "Event",
    "EventHandle",
    "HeapEventQueue",
]
