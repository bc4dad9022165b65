"""The simulation engine's event record and the name of its event queue.

:class:`~repro.sim.engine.SimulationEngine` keeps its pending events in one
binary heap (``heapq``) of ``(time, sequence, event)`` tuples, so
``heapq`` compares plain floats and ints in C and never calls back into
Python; the event itself is never compared, because the sequence number is
unique per engine.

The heap is the only event queue: on the profiled single link and the
5-node repeater chain it was faster than a calendar queue and a ladder
queue.  Specs, results and resume-cache filenames record its name,
:data:`ENGINE`, as provenance.
"""

from __future__ import annotations

from typing import Callable

#: Name of the event queue, recorded as provenance on specs, results and
#: resume-cache entries.
ENGINE = "heap"


class Event:
    """A single scheduled callback (slim ``__slots__`` record).

    Events fire in ``(time, sequence)`` order — the sequence is unique per
    engine, so the order is total and simultaneous events run in the order
    they were scheduled.  The engine keys its heap entries on those two
    fields; the event defines no ordering of its own.  The event object
    doubles as the cancellation handle returned by the ``schedule_*``
    methods: it stays valid after the event fired (cancel becomes a no-op)
    and after ``engine.reset()`` (the reset marks every resident event
    popped, so a handle from before it is inert).
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
        #: True once the event has left the heap (executed, discarded or
        #: dropped by a reset); cancelling it afterwards must not touch the
        #: engine's accounting.  Every event is built to be queued at once,
        #: so it starts out False.
        self.popped = False
        self.engine = engine

    def cancel(self) -> None:
        """Cancel the event.  A cancelled event is skipped by the engine.

        Cancelling an event that already fired, was discarded, or was
        dropped by ``reset()`` is a harmless no-op for the engine's
        accounting.
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


__all__ = [
    "ENGINE",
    "Event",
]
