"""Event-driven simulation engine.

The engine executes timestamped events in ``(time, sequence)`` order.  Time
is a float in seconds.  Events scheduled at the same timestamp are executed
in insertion order, which gives deterministic behaviour for protocols that
schedule several actions "now".

Pending events live in one binary heap that the engine owns.  A heap
entry is the event itself: a plain list ``[time, sequence, callback, args,
name]``.  ``heapq`` orders entries in C on the float time and the unique
int sequence, so it never reaches the callback or calls back into Python.
The ``schedule_*`` methods return the entry as the event's handle, and
:meth:`SimulationEngine.cancel` takes it back.

Cancellation is lazy: it empties the entry's callback slot, and the entry
stays in the heap until it surfaces.  Once cancelled residents outnumber
live events the heap is rebuilt without them.  The ordering is total, so
compaction never changes the firing order.  The run loop empties the slot
of an entry it fires and :meth:`SimulationEngine.reset` empties it on
every resident entry, so cancelling such a handle later is a no-op.

The engine is deliberately minimal: the sophistication of the reproduction
lives in the protocol and hardware models, not in the scheduler.  Callback
arguments ride in the entry instead of a per-schedule lambda, and a
fixed-cadence timer is a callback that schedules its own next occurrence
after its body.
"""

from __future__ import annotations

import itertools
import math
import sys
from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import Callable, Optional

__all__ = [
    "DeadlineExceeded",
    "EngineInterrupt",
    "EventBudgetExceeded",
    "SimulationEngine",
    "SimulationError",
]

#: Stands for an absent bound in :meth:`SimulationEngine.run`: an int, so
#: the per-event bound check compares two ints.
_NEVER = sys.maxsize


class SimulationError(RuntimeError):
    """Raised when the engine is used incorrectly (e.g. scheduling in the past)."""


class EngineInterrupt(RuntimeError):
    """A supervision bound stopped the run before it finished.

    Carries partial provenance — events processed and the simulated time
    reached — so the supervisor (``repro.runtime.guard``) can report *where*
    the run was cut short, not just that it was.
    """

    def __init__(self, message: str, events_processed: int,
                 sim_time: float) -> None:
        super().__init__(message)
        self.events_processed = events_processed
        self.sim_time = sim_time


class EventBudgetExceeded(EngineInterrupt):
    """The engine's deterministic event budget was exhausted mid-run."""


class DeadlineExceeded(EngineInterrupt):
    """The engine's wall-clock deadline passed mid-run."""


class SimulationEngine:
    """Discrete-event simulation engine.

    Parameters
    ----------
    start_time:
        Initial simulation time in seconds (default ``0.0``).

    Examples
    --------
    >>> engine = SimulationEngine()
    >>> fired = []
    >>> _ = engine.schedule_at(1.0, lambda: fired.append(engine.now))
    >>> engine.run()
    >>> fired
    [1.0]
    """

    #: Minimum number of cancelled events in the heap before a compaction is
    #: even considered (avoids churn on tiny queues).
    COMPACTION_MIN_CANCELLED = 64

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        #: The heap of ``[time, sequence, callback, args, name]``
        #: entries.  Rebuilt in place, never replaced: :meth:`run` holds a
        #: reference to it.
        self._heap: list[list] = []
        #: Cancelled events still resident in :attr:`_heap`.
        self._cancelled = 0
        self._counter = itertools.count()
        self._processed = 0
        #: Events whose scheduling was skipped outright by an
        #: outcome-preserving elision (PR 5/7): watchdogs that provably
        #: cannot fire, no-op busy polls, collapsed reply hand-overs.  A
        #: bare int so the accounting is always on; per-kind detail goes
        #: to the tracer when one is attached.
        self._elided = 0
        #: Optional event-trace sink: when set to a list, every executed
        #: event appends ``(time, sequence, name)``.  The elision tests
        #: compare these traces with and without elided timers.
        self.trace: Optional[list] = None
        #: Optional :class:`repro.obs.Tracer`.  ``None`` (the default)
        #: keeps every instrumentation site a single ``is not None``
        #: check — the same zero-cost pattern as :attr:`trace`.
        self.tracer = None
        #: Supervision bounds (``repro.runtime.guard`` installs them).
        #: ``event_budget`` caps total :attr:`processed_events`
        #: (deterministic: the same run hits it at the same event);
        #: ``deadline_at`` is an absolute :func:`time.perf_counter` value
        #: checked every 1024 events.  Both default to ``None``.  Set or
        #: not, the run loop folds them and ``max_events`` into one int
        #: comparison per event, and the trace is bit-identical to an
        #: unguarded engine.
        self.event_budget: Optional[int] = None
        self.deadline_at: Optional[float] = None

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still in the queue."""
        return len(self._heap) - self._cancelled

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def elided_events(self) -> int:
        """Number of events never scheduled thanks to timer elision."""
        return self._elided

    def note_elided(self, name: str = "") -> None:
        """Record that an event was elided (skipped outcome-preservingly)."""
        self._elided += 1
        if self.tracer is not None:
            self.tracer.on_elided(name)

    def schedule_at(self, time: float, callback: Callable[..., None],
                    name: str = "", args: tuple = ()) -> list:
        """Schedule ``callback(*args)`` to run at absolute time ``time``.

        Passing ``args`` instead of binding a lambda avoids a closure
        allocation per schedule on hot paths.  Returns the heap entry
        ``[time, sequence, callback, args, name]``, the handle that
        :meth:`cancel` takes.
        """
        # ``not >=`` rather than ``<``: NaN compares false both ways, and a
        # NaN time would fire out of order and leave the clock at NaN.
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule event at {time} (now is {self._now})")
        entry = [float(time), next(self._counter), callback, args, name]
        heappush(self._heap, entry)
        if self.tracer is not None:
            self.tracer.on_scheduled(name)
        return entry

    def schedule_after(self, delay: float, callback: Callable[..., None],
                       name: str = "", args: tuple = ()) -> list:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:
            raise SimulationError(f"invalid delay {delay}")
        return self.schedule_at(self._now + delay, callback, name, args)

    def cancel(self, handle: list) -> None:
        """Cancel a scheduled event; the engine skips it when it surfaces.

        ``handle`` is the entry a ``schedule_*`` call returned.  Cancelling
        twice, or an event that already fired or was dropped by
        :meth:`reset`, is a no-op: each of those leaves the callback slot
        empty.  Once cancelled residents outnumber live events, the heap
        is rebuilt without them (amortised O(1) per cancellation).
        """
        if handle[2] is None:
            return
        handle[2] = None
        self._cancelled += 1
        if self.tracer is not None:
            self.tracer.on_cancelled(handle[4])
        if (self._cancelled >= self.COMPACTION_MIN_CANCELLED
                and 2 * self._cancelled > len(self._heap)):
            # The ordering is total, so the rebuild cannot change the
            # firing order.  In place: the run loop holds the list.
            heap = self._heap
            heap[:] = [entry for entry in heap if entry[2] is not None]
            heapify(heap)
            self._cancelled = 0

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once simulation time reaches this value (events scheduled
            at exactly ``until`` are executed).  ``None`` runs until the
            queue is empty.  When the queue drains before ``until`` — or
            holds only cancelled events — the clock still advances to
            ``until``.
        max_events:
            Optional safety limit on the number of events executed in this
            call (the clock is left at the last executed event).

        Returns
        -------
        float
            The simulation time at which the run stopped.
        """
        processed = self._processed
        stop = _NEVER if max_events is None else processed + max_events
        if processed >= stop:
            return self._now
        budget = (_NEVER if self.event_budget is None
                  else self.event_budget)
        deadline = self.deadline_at
        # The deadline is polled whenever the processed count reaches a
        # multiple of 1024.
        poll = _NEVER if deadline is None else (processed | 1023) + 1
        # The nearest of the three bounds: the loop pays one comparison
        # per event and sorts out which bound it reached only there.
        threshold = min(stop, poll, budget)
        # Compaction rebuilds the list in place, so this reference stays
        # valid.
        heap = self._heap
        limit = math.inf if until is None else until
        trace = self.trace
        tracer = self.tracer
        try:
            while heap:
                entry = heappop(heap)
                time, sequence, callback, args, name = entry
                if callback is None:
                    self._cancelled -= 1
                    continue
                if time > limit:
                    heappush(heap, entry)
                    break
                # Fired: a later cancel of this handle is a no-op.
                entry[2] = None
                self._now = time
                if trace is not None:
                    trace.append((time, sequence, name))
                if tracer is not None:
                    tracer.on_executed(name)
                callback(*args)
                processed += 1
                if processed >= threshold:
                    if processed >= budget:
                        raise EventBudgetExceeded(
                            f"event budget of {budget} exhausted at "
                            f"simulated time {time:.6f}s", processed, time)
                    if processed == poll:
                        poll += 1024
                        if perf_counter() >= deadline:
                            raise DeadlineExceeded(
                                f"wall-clock deadline passed after "
                                f"{processed} events at simulated time "
                                f"{time:.6f}s", processed, time)
                    if processed == stop:
                        # The clock stays at the last executed event.
                        return self._now
                    threshold = min(stop, poll, budget)
        finally:
            self._processed = processed
        # Queue empty, or the next event lies beyond ``until``: either
        # way the clock advances to the bound.
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def reset(self, start_time: float = 0.0) -> None:
        """Clear the queue and reset the clock.  Mostly useful in tests.

        Every resident entry's callback slot is cleared, so a handle
        obtained **before** the reset is inert: cancelling it leaves the
        fresh queue's accounting untouched.
        """
        for entry in self._heap:
            entry[2] = None
        self._heap.clear()
        self._cancelled = 0
        self._now = float(start_time)
        self._counter = itertools.count()
        self._processed = 0
        self._elided = 0
