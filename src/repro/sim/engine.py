"""Event-driven simulation engine.

The engine executes timestamped events in ``(time, sequence)`` order.  Time
is a float in seconds.  Events scheduled at the same timestamp are executed
in insertion order, which gives deterministic behaviour for protocols that
schedule several actions "now".

Pending events live in one binary heap that the engine owns.  Its entries
are ``(time, sequence, event)`` tuples, so ``heapq`` orders them in C
without a Python-level comparison.  Cancellation is lazy: a cancelled
event stays in the heap until it surfaces, and once cancelled residents
outnumber live events the heap is rebuilt without them.  The ordering is
total, so compaction never changes the firing order.

The engine is deliberately minimal: the sophistication of the reproduction
lives in the protocol and hardware models, not in the scheduler.  There is
one event kind, :class:`~repro.sim.queues.Event`: a slim ``__slots__``
record that doubles as its own cancellation handle, built once per
schedule with positional callback arguments instead of a per-schedule
lambda.  A fixed-cadence timer is a callback that schedules its own next
occurrence after its body.
"""

from __future__ import annotations

import itertools
import math
from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import Callable, Optional

from repro.sim.queues import Event

__all__ = [
    "DeadlineExceeded",
    "EngineInterrupt",
    "Event",
    "EventBudgetExceeded",
    "SimulationEngine",
    "SimulationError",
]


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
        #: The heap of ``(time, sequence, event)`` entries.  Rebuilt in
        #: place, never replaced: :meth:`run` holds a reference to it.
        self._heap: list[tuple[float, int, Event]] = []
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
        #: checked every 1024 events.  Both default to ``None`` — the run
        #: loop then pays one ``is not None`` per event and the trace is
        #: bit-identical to an unguarded engine.
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
                    name: str = "", args: tuple = ()) -> Event:
        """Schedule ``callback(*args)`` to run at absolute time ``time``.

        Passing ``args`` instead of binding a lambda avoids a closure
        allocation per schedule on hot paths.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} (now is {self._now})")
        time = float(time)
        sequence = next(self._counter)
        event = Event(time, sequence, callback, args, name, self)
        heappush(self._heap, (time, sequence, event))
        if self.tracer is not None:
            self.tracer.on_scheduled(name)
        return event

    def schedule_after(self, delay: float, callback: Callable[..., None],
                       name: str = "", args: tuple = ()) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, callback, name=name,
                                args=args)

    def step(self) -> bool:
        """Run the next (non-cancelled) event.

        Returns ``True`` if an event was executed, ``False`` if the queue is
        empty.
        """
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            event.popped = True
            if not event.cancelled:
                break
            self._cancelled -= 1
        else:
            return False
        self._now = event.time
        if self.trace is not None:
            self.trace.append((event.time, event.sequence, event.name))
        if self.tracer is not None:
            self.tracer.on_executed(event.name)
        event.callback(*event.args)
        self._processed += 1
        return True

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
        # Compaction rebuilds the list in place, so this reference stays
        # valid.
        heap = self._heap
        limit = math.inf if until is None else until
        trace = self.trace
        tracer = self.tracer
        budget = self.event_budget
        deadline = self.deadline_at
        executed = 0
        while max_events is None or executed < max_events:
            if not heap:
                break
            time, sequence, event = heap[0]
            if event.cancelled:
                heappop(heap)
                event.popped = True
                self._cancelled -= 1
                continue
            if time > limit:
                break
            heappop(heap)
            event.popped = True
            self._now = time
            if trace is not None:
                trace.append((time, sequence, event.name))
            if tracer is not None:
                tracer.on_executed(event.name)
            event.callback(*event.args)
            self._processed += 1
            executed += 1
            if budget is not None and self._processed >= budget:
                raise EventBudgetExceeded(
                    f"event budget of {budget} exhausted at simulated "
                    f"time {self._now:.6f}s", self._processed, self._now)
            if (deadline is not None and not (self._processed & 1023)
                    and perf_counter() >= deadline):
                raise DeadlineExceeded(
                    f"wall-clock deadline passed after "
                    f"{self._processed} events at simulated time "
                    f"{self._now:.6f}s", self._processed, self._now)
        else:
            # ``max_events`` reached: the clock stays at the last
            # executed event.
            return self._now
        # Queue empty, or the next event lies beyond ``until``: either
        # way the clock advances to the bound.
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def _note_cancelled(self, event: Event) -> None:
        """Count a resident event's cancellation; once cancelled residents
        outnumber live events, rebuild the heap without them (amortised
        O(1) per cancellation)."""
        self._cancelled += 1
        if self.tracer is not None:
            self.tracer.on_cancelled(event.name)
        if (self._cancelled >= self.COMPACTION_MIN_CANCELLED
                and 2 * self._cancelled > len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        # Event ordering is total — (time, sequence) with a unique sequence
        # — so rebuilding the heap cannot change the firing order.  In
        # place: the run loop holds a reference to the list.
        heap = self._heap
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

    def reset(self, start_time: float = 0.0) -> None:
        """Clear the queue and reset the clock.  Mostly useful in tests.

        Every resident event is marked popped, so a handle obtained
        **before** the reset is inert: cancelling it leaves the fresh
        queue's accounting untouched.
        """
        for entry in self._heap:
            entry[2].popped = True
        self._heap.clear()
        self._cancelled = 0
        self._now = float(start_time)
        self._counter = itertools.count()
        self._processed = 0
        self._elided = 0
