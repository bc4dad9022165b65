"""Event-driven simulation engine.

The engine executes timestamped events in ``(time, sequence)`` order.  Time
is a float in seconds.  Events scheduled at the same timestamp are executed
in insertion order, which gives deterministic behaviour for protocols that
schedule several actions "now".

Pending events live in one binary heap with lazy cancellation
(:class:`~repro.sim.queues.HeapEventQueue`).  Its entries are
``(time, sequence, event)`` tuples, so ``heapq`` orders them in C without
a Python-level comparison, and :meth:`SimulationEngine.run` pops the heap
list directly instead of calling into the queue once per event (as
:meth:`SimulationEngine.schedule_at` and :meth:`ReusableTimer.arm_at` push
onto it directly).

The engine is deliberately minimal: the sophistication of the reproduction
lives in the protocol and hardware models, not in the scheduler.  What *is*
here is tuned for the GEN/REPLY hot path: slim ``__slots__`` events that
double as their own cancellation handles, positional callback arguments
instead of per-schedule lambdas, reusable timers
(:class:`ReusableTimer`) and periodic timers (:meth:`SimulationEngine.
schedule_periodic`) that re-arm one event object instead of allocating a
fresh one per cycle.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from time import perf_counter
from typing import Callable, Optional

from repro.sim.queues import Event, EventHandle, HeapEventQueue

__all__ = [
    "DeadlineExceeded",
    "EngineInterrupt",
    "Event",
    "EventBudgetExceeded",
    "EventHandle",
    "PeriodicHandle",
    "ReusableTimer",
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


class PeriodicHandle:
    """Handle for a fixed-cadence timer created by
    :meth:`SimulationEngine.schedule_periodic`.

    The series reuses **one** event object: after each firing the event's
    time advances by the interval and it is pushed back, so a cycle timer
    costs no allocation per cycle.  :meth:`cancel` stops the series; a
    handle from before ``engine.reset()`` is inert and never re-arms.
    """

    __slots__ = ("_engine", "_event", "interval", "_stopped", "_epoch",
                 "_user_callback")

    def __init__(self, engine: "SimulationEngine", interval: float,
                 callback: Callable[[], None], start: float,
                 name: str) -> None:
        if interval <= 0:
            raise SimulationError(f"periodic interval must be > 0, "
                                  f"got {interval}")
        self._engine = engine
        self.interval = interval
        self._stopped = False
        self._epoch = engine._epoch
        self._user_callback = callback
        self._event = Event(start, next(engine._counter), self._fire, (),
                            name, engine)
        engine._queue.push(self._event)
        if engine.tracer is not None:
            engine.tracer.on_scheduled(name)

    def _fire(self) -> None:
        self._user_callback()
        engine = self._engine
        if self._stopped or self._epoch != engine._epoch:
            return
        event = self._event
        event.time += self.interval
        event.sequence = next(engine._counter)
        engine._queue.push(event)
        if engine.tracer is not None:
            engine.tracer.on_scheduled(event.name)

    @property
    def active(self) -> bool:
        """Whether the series will keep firing."""
        return (not self._stopped and self._epoch == self._engine._epoch)

    @property
    def next_time(self) -> float:
        """Timestamp of the next firing (meaningless once cancelled)."""
        return self._event.time

    def cancel(self) -> None:
        """Stop the series; the queued occurrence (if any) is cancelled."""
        if self._stopped:
            return
        self._stopped = True
        if self._epoch == self._engine._epoch:
            self._event.cancel()


class ReusableTimer:
    """A re-armable one-shot timer that recycles its event object.

    Protocol timers with at most one outstanding occurrence (the MHP poll,
    the EGP reply watchdog) previously allocated a fresh event + handle +
    closure per arm; a :class:`ReusableTimer` re-arms the same
    :class:`Event` once it has fired.  If the previous occurrence is still
    pending (or cancelled but still resident in the queue), :meth:`arm_at`
    schedules an independent fresh event instead, so arming is always safe
    and the event trace is identical to per-arm scheduling.
    """

    __slots__ = ("_engine", "_callback", "_name", "_event", "_epoch")

    def __init__(self, engine: "SimulationEngine",
                 callback: Callable[..., None], name: str = "") -> None:
        self._engine = engine
        self._callback = callback
        self._name = name
        self._event: Optional[Event] = None
        self._epoch = engine._epoch

    def arm_at(self, time: float, args: tuple = ()) -> EventHandle:
        """Schedule the callback at absolute ``time``; returns the handle."""
        engine = self._engine
        if time < engine._now:
            raise SimulationError(
                f"cannot schedule event at {time} (now is {engine._now})")
        time = float(time)
        sequence = next(engine._counter)
        event = self._event
        if (event is not None and event.popped
                and self._epoch == engine._epoch):
            event.time = time
            event.sequence = sequence
            event.args = args
            event.cancelled = False
            event.popped = False
            heappush(engine._heap, (time, sequence, event))
            if engine.tracer is not None:
                engine.tracer.on_scheduled(event.name)
            return event
        event = Event(time, sequence, self._callback, args, self._name,
                      engine)
        heappush(engine._heap, (time, sequence, event))
        self._event = event
        self._epoch = engine._epoch
        if engine.tracer is not None:
            engine.tracer.on_scheduled(self._name)
        return event

    def arm_after(self, delay: float, args: tuple = ()) -> EventHandle:
        """Schedule the callback ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.arm_at(self._engine._now + delay, args=args)

    def cancel(self) -> None:
        """Cancel the pending occurrence, if any."""
        event = self._event
        if (event is not None and self._epoch == self._engine._epoch
                and not event.popped):
            event.cancel()

    @property
    def active(self) -> bool:
        """Whether an occurrence is currently pending."""
        event = self._event
        return (event is not None and self._epoch == self._engine._epoch
                and event.is_pending)


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

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue = HeapEventQueue()
        #: The queue's heap list (rebuilt in place, never replaced):
        #: :meth:`schedule_at` and :meth:`ReusableTimer.arm_at` push
        #: ``(time, sequence, event)`` entries onto it directly, exactly as
        #: :meth:`HeapEventQueue.push` would, saving a call per schedule.
        self._heap = self._queue.heap
        self._counter = itertools.count()
        self._running = False
        self._processed = 0
        #: Events whose scheduling was skipped outright by an
        #: outcome-preserving elision (PR 5/7): watchdogs that provably
        #: cannot fire, no-op busy polls, collapsed reply hand-overs.  A
        #: bare int so the accounting is always on; per-kind detail goes
        #: to the tracer when one is attached.
        self._elided = 0
        #: Bumped by :meth:`reset`; reusable/periodic timers from an older
        #: epoch refuse to re-arm their stale event objects.
        self._epoch = 0
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
        return self._queue.live_count

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
                    name: str = "", args: tuple = ()) -> EventHandle:
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
                       name: str = "", args: tuple = ()) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, callback, name=name,
                                args=args)

    def schedule_now(self, callback: Callable[..., None],
                     name: str = "", args: tuple = ()) -> EventHandle:
        """Schedule ``callback`` to run at the current time, after pending
        events with the same timestamp."""
        return self.schedule_at(self._now, callback, name=name, args=args)

    def schedule_periodic(self, interval: float,
                          callback: Callable[[], None],
                          start: Optional[float] = None,
                          name: str = "") -> PeriodicHandle:
        """Schedule ``callback`` every ``interval`` seconds.

        The first firing is at ``start`` (default ``now + interval``); the
        series re-arms **after** the callback returns, exactly as a
        callback that re-schedules itself would, but reusing one event
        object instead of allocating one per cycle.  Returns a
        :class:`PeriodicHandle` whose ``cancel()`` stops the series.
        """
        first = self._now + interval if start is None else float(start)
        if first < self._now:
            raise SimulationError(
                f"cannot schedule event at {first} (now is {self._now})")
        return PeriodicHandle(self, float(interval), callback, first, name)

    def timer(self, callback: Callable[..., None],
              name: str = "") -> ReusableTimer:
        """A :class:`ReusableTimer` bound to this engine."""
        return ReusableTimer(self, callback, name=name)

    def step(self) -> bool:
        """Run the next (non-cancelled) event.

        Returns ``True`` if an event was executed, ``False`` if the queue is
        empty.
        """
        event = self._queue.pop()
        if event is None:
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
        self._running = True
        queue = self._queue
        # The run loop pops the heap list itself, saving a method call per
        # event; the queue rebuilds the list in place on compaction, so
        # this reference stays valid.
        heap = queue.heap
        limit = math.inf if until is None else until
        trace = self.trace
        tracer = self.tracer
        budget = self.event_budget
        deadline = self.deadline_at
        executed = 0
        try:
            while max_events is None or executed < max_events:
                if not heap:
                    break
                time, sequence, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    event.popped = True
                    queue.discarded()
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
        finally:
            self._running = False
        return self._now

    def _note_cancelled(self, event: Event) -> None:
        """Forward a cancellation to the queue's accounting (compaction is
        the queue's business)."""
        self._queue.note_cancelled()
        if self.tracer is not None:
            self.tracer.on_cancelled(event.name)

    def reset(self, start_time: float = 0.0) -> None:
        """Clear the queue and reset the clock.  Mostly useful in tests.

        Handles, reusable timers and periodic handles obtained **before**
        the reset become inert: cancelling them is a no-op for the new
        epoch's accounting, and they can never re-arm or resurrect events
        into the fresh queue.
        """
        self._queue.clear()
        self._now = float(start_time)
        self._counter = itertools.count()
        self._processed = 0
        self._elided = 0
        self._epoch += 1
