"""Behaviour of the simulation engine's event queue.

Ordering, cancellation, ``run(until=...)`` bounds, self-rescheduling
series and re-scheduled callbacks (the patterns of the MHP poll, the reply
watchdog and the queue sampler) and reset inertness, plus a randomized
check of the heap against an independent sorted-list model of
``(time, sequence)`` order.  The heap's
compaction internals are pinned in ``test_sim_engine.py``.

Every test runs under each engine setup in :data:`ENGINE_SETUPS`: the run
loop's optional instrumentation and supervision branches, and a queue that
compacts on every cancellation, must all leave the firing order unchanged.
"""

from __future__ import annotations

import bisect
import random
from time import perf_counter

import pytest

from repro.obs import Tracer
from repro.sim.engine import SimulationEngine, SimulationError


def _instrument(engine):
    engine.trace = []
    engine.tracer = Tracer()


def _supervise(engine):
    # Bounds far beyond anything a test here reaches.
    engine.event_budget = 10 ** 9
    engine.deadline_at = perf_counter() + 3600.0


def _compact_eagerly(engine):
    engine.COMPACTION_MIN_CANCELLED = 1


#: Engine setups each test runs under, by test id.
ENGINE_SETUPS = {
    "plain": lambda engine: None,
    "instrumented": _instrument,
    "supervised": _supervise,
    "eager-compaction": _compact_eagerly,
}


@pytest.fixture(params=list(ENGINE_SETUPS))
def engine(request):
    """A fresh engine in one of the :data:`ENGINE_SETUPS`."""
    engine = SimulationEngine()
    ENGINE_SETUPS[request.param](engine)
    yield engine
    if engine.tracer is not None:
        # The tracer saw exactly the events the trace list recorded.
        assert sum(engine.tracer.executed.values()) == len(engine.trace)


class TestCoreBehaviour:
    """The engine-facing contract."""

    def test_time_order(self, engine):
        fired = []
        for t in (3.0, 1.0, 2.0):
            engine.schedule_at(t, lambda t=t: fired.append(t))
        engine.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_same_timestamp_fifo(self, engine):
        fired = []
        for label in "abcdef":
            engine.schedule_at(1.0, lambda l=label: fired.append(l))
        engine.run()
        assert fired == list("abcdef")

    def test_same_timestamp_fifo_interleaved_with_pops(self, engine):
        fired = []

        def first():
            fired.append("first")
            # Scheduled *at the current time* mid-execution: runs after the
            # other already-queued same-timestamp events.
            engine.schedule_at(1.0, lambda: fired.append("late"))

        engine.schedule_at(1.0, first)
        engine.schedule_at(1.0, lambda: fired.append("second"))
        engine.run()
        assert fired == ["first", "second", "late"]

    def test_cancellation_and_pending_counts(self, engine):
        handles = [engine.schedule_at(float(i), lambda: None)
                   for i in range(10)]
        assert engine.pending_events == 10
        for handle in handles[:4]:
            engine.cancel(handle)
            engine.cancel(handle)  # double cancel counts once
        assert engine.pending_events == 6
        engine.run()
        assert engine.pending_events == 0
        assert engine.processed_events == 6

    def test_run_until_semantics(self, engine):
        fired = []
        engine.schedule_at(1.0, lambda: fired.append(1))
        engine.schedule_at(2.0, lambda: fired.append(2))
        engine.schedule_at(5.0, lambda: fired.append(5))
        engine.run(until=2.0)  # events at the bound are executed
        assert fired == [1, 2]
        assert engine.now == 2.0
        engine.run(until=10.0)
        assert fired == [1, 2, 5]
        assert engine.now == 10.0  # clock advances past the last event

    def test_run_until_with_empty_queue_advances_clock(self, engine):
        assert engine.run(until=7.5) == 7.5
        assert engine.now == 7.5

    def test_run_until_with_only_cancelled_events_advances_clock(
            self, engine):
        engine.cancel(engine.schedule_at(1.0, lambda: None))
        engine.cancel(engine.schedule_at(3.0, lambda: None))
        assert engine.run(until=5.0) == 5.0
        assert engine.now == 5.0
        assert engine.processed_events == 0

    def test_run_until_landing_in_empty_bucket_region(self, engine):
        # A long empty stretch between event clusters: the bound lands in
        # the middle of it, and later events stay intact.
        fired = []
        for i in range(20):
            engine.schedule_at(0.001 * i, lambda i=i: fired.append(i))
        engine.schedule_at(1000.0, lambda: fired.append("far"))
        engine.run(until=500.0)
        assert fired == list(range(20))
        assert engine.now == 500.0
        engine.run()
        assert fired[-1] == "far"
        assert engine.now == 1000.0

    def test_max_events_leaves_clock_on_last_event(self, engine):
        for i in range(10):
            engine.schedule_at(float(i), lambda: None)
        engine.run(max_events=3)
        assert engine.processed_events == 3
        assert engine.now == 2.0

    def test_schedule_in_past_raises(self, engine):
        engine.schedule_at(4.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, lambda: None)

    def test_callback_args(self, engine):
        seen = []
        engine.schedule_at(1.0, lambda a, b: seen.append((a, b)),
                           args=("x", 2))
        engine.run()
        assert seen == [("x", 2)]


class TestFarFutureOverflow:
    """Far-future timers behind a dense near-future cluster keep their
    order."""

    def test_overflow_promotion_fires_in_order(self, engine):
        fired = []
        # A dense near-future cluster, then timers far beyond it.
        for i in range(64):
            engine.schedule_at(1e-5 * i, lambda i=i: fired.append(i))
        engine.schedule_at(50.0, lambda: fired.append("far-a"))
        engine.schedule_at(75.0, lambda: fired.append("far-b"))
        engine.schedule_at(50.0 + 1e-9, lambda: fired.append("far-a2"))
        engine.run()
        assert fired[:64] == list(range(64))
        assert fired[64:] == ["far-a", "far-a2", "far-b"]

    def test_push_after_overflow_promotion_keeps_order(self, engine):
        # A run bounded before the only pending event must not make later
        # pushes at much earlier times sequence after it.
        fired = []
        engine.schedule_at(1000.0, lambda: fired.append("far"))
        engine.run(until=1.0)
        cancelled = engine.schedule_at(2.0, lambda: fired.append("a"))
        engine.cancel(cancelled)  # invalidates any cached head
        engine.schedule_at(3.0, lambda: fired.append("b"))
        engine.run()
        assert fired == ["b", "far"]
        assert engine.now == 1000.0

    def test_cancelled_far_future_timer_never_fires(self, engine):
        fired = []
        for i in range(32):
            engine.schedule_at(1e-5 * i, lambda: fired.append("near"))
        handle = engine.schedule_at(1e5, lambda: fired.append("far"))
        engine.cancel(handle)
        engine.run()
        assert "far" not in fired
        assert engine.pending_events == 0


class TestCancelCompactInterleavings:
    """Mass-cancellation patterns must stay bounded and order-preserving."""

    def test_watchdog_pattern_stays_bounded(self, engine):
        fired = 0

        def tick(step=[0]):
            nonlocal fired
            fired += 1
            step[0] += 1
            if step[0] < 2000:
                engine.cancel(engine.schedule_at(engine.now + 10.0,
                                                 lambda: None))
                engine.schedule_at(engine.now + 0.001, tick)

        engine.schedule_at(0.0, tick)
        engine.run()
        assert fired == 2000
        # Cancelled watchdogs must not accumulate without bound.
        assert len(engine._heap) <= 256

    def test_cancel_then_compact_preserves_order(self, engine):
        fired = []
        for i in range(100):
            engine.schedule_at(float(i), lambda i=i: fired.append(i))
        doomed = [engine.schedule_at(i * 0.5 + 0.25,
                                     lambda: fired.append("doomed"))
                  for i in range(300)]
        # Cancel in an interleaved pattern (front, back, middle).
        for handle in doomed[::2] + doomed[-1::-3]:
            engine.cancel(handle)
        # The rest, plus repeat cancels of the handles above: no-ops.
        for handle in doomed:
            engine.cancel(handle)
        assert engine.pending_events == 100
        engine.run()
        assert fired == list(range(100))
        assert engine.processed_events == 100

    def test_cancel_same_timestamp_subset(self, engine):
        fired = []
        handles = [engine.schedule_at(1.0, lambda i=i: fired.append(i))
                   for i in range(20)]
        for handle in handles[3:17:2]:
            engine.cancel(handle)
        engine.run()
        expected = [i for i in range(20) if not (3 <= i < 17 and (i - 3) % 2 == 0)]
        assert fired == expected


class SortedListModel:
    """Reference for the fuzz: pending events in a plain list kept sorted
    by ``(time, sequence)``, with cancellation as removal from the list."""

    def __init__(self) -> None:
        self.now = 0.0
        self.pending: list[tuple] = []
        self.sequence = 0
        self.trace: list[tuple] = []

    def schedule(self, time: float, name: str, offsets=()) -> tuple:
        entry = (time, self.sequence, name, tuple(offsets))
        self.sequence += 1
        bisect.insort(self.pending, entry)
        return entry

    def cancel(self, entry: tuple) -> None:
        if entry in self.pending:  # a fired event is no longer pending
            self.pending.remove(entry)

    def run(self, until=None) -> None:
        while self.pending and (until is None
                                or self.pending[0][0] <= until):
            time, sequence, name, offsets = self.pending.pop(0)
            self.now = time
            self.trace.append((time, sequence, name))
            for offset in offsets:
                self.schedule(self.now + offset, "nested")
        if until is not None and until > self.now:
            self.now = until


class TestRandomizedEquivalence:
    """Fuzz: random schedule/cancel/run interleavings must execute the
    same trace on the engine as on :class:`SortedListModel`."""

    @staticmethod
    def _script(seed):
        rnd = random.Random(seed)
        script = []
        t = 0.0
        for _ in range(400):
            roll = rnd.random()
            if roll < 0.55:
                # Mix of cycle-aligned, tied, near and far-future times.
                kind = rnd.random()
                if kind < 0.4:
                    when = t + rnd.randrange(1, 50) * 1e-5
                elif kind < 0.6:
                    when = t + 1e-4  # deliberate ties
                elif kind < 0.9:
                    when = t + rnd.random() * 0.01
                else:
                    when = t + 10 ** rnd.randrange(1, 6)
                script.append(("schedule", when))
            elif roll < 0.7:
                script.append(("cancel", rnd.randrange(0, 1 << 16)))
            elif roll < 0.85:
                offsets = [rnd.random() * 1e-3 for _ in range(rnd.randrange(1, 4))]
                script.append(("nested", offsets, t + rnd.random() * 0.01))
            else:
                t += rnd.random() * 0.05
                script.append(("run_until", t))
        return script

    @staticmethod
    def _run_engine(engine, script):
        engine.trace = []
        handles = []
        for op in script:
            if op[0] == "run_until":
                engine.run(until=op[1])
            elif op[0] == "schedule":
                handles.append(engine.schedule_at(
                    max(op[1], engine.now), lambda: None, name=f"e{len(handles)}"))
            elif op[0] == "nested":
                # A callback that schedules more events when it fires.
                def nested(offsets=op[1]):
                    for offset in offsets:
                        engine.schedule_after(offset, lambda: None,
                                              name="nested")
                handles.append(engine.schedule_at(
                    max(op[2], engine.now), nested, name="nest"))
            elif op[0] == "cancel":
                if handles:
                    engine.cancel(handles[op[1] % len(handles)])
        engine.run()
        return engine.trace

    @staticmethod
    def _run_model(script):
        model = SortedListModel()
        handles = []
        for op in script:
            if op[0] == "run_until":
                model.run(until=op[1])
            elif op[0] == "schedule":
                handles.append(model.schedule(max(op[1], model.now),
                                              f"e{len(handles)}"))
            elif op[0] == "nested":
                handles.append(model.schedule(max(op[2], model.now), "nest",
                                              offsets=op[1]))
            elif op[0] == "cancel":
                if handles:
                    model.cancel(handles[op[1] % len(handles)])
        model.run()
        return model.trace

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_fuzzed_traces_identical(self, engine, seed):
        script = self._script(seed)
        reference = self._run_model(script)
        assert reference  # the fuzz actually executed something
        # Some scheduled events were cancelled before they could fire.
        scheduled = sum(op[0] in ("schedule", "nested") for op in script)
        assert len([e for e in reference if e[2] != "nested"]) < scheduled
        assert self._run_engine(engine, script) == reference, \
            f"engine trace diverged from the sorted-list model (seed {seed})"


def _series(engine, interval, body, start=None, name="series"):
    """Start a fixed-cadence series the way the simulator's callers do.

    Each occurrence runs ``body`` and then, unless ``body`` returned
    ``False``, schedules the next occurrence ``interval`` later.  The
    workload's queue sampler and the injected ``hang`` fault follow this
    pattern.  Returns a one-item list holding the pending event, so a test
    can cancel the series from outside.
    """
    pending = [None]

    def fire():
        if body() is not False:
            pending[0] = engine.schedule_after(interval, fire, name)

    if start is None:
        pending[0] = engine.schedule_after(interval, fire, name)
    else:
        pending[0] = engine.schedule_at(start, fire, name)
    return pending


class TestSelfReschedulingSeries:
    """A series of plain events, each scheduling its successor."""

    def test_series_fires_on_cadence(self, engine):
        ticks = []
        _series(engine, 0.5, lambda: ticks.append(engine.now))
        engine.run(until=2.6)
        assert ticks == [0.5, 1.0, 1.5, 2.0, 2.5]

    def test_series_custom_start(self, engine):
        ticks = []
        _series(engine, 1.0, lambda: ticks.append(engine.now), start=0.25)
        engine.run(until=2.5)
        assert ticks == [0.25, 1.25, 2.25]

    def test_series_schedules_a_fresh_event_per_occurrence(self, engine):
        seen = []
        pending = _series(engine, 1.0, lambda: seen.append(pending[0]))
        engine.run(until=10.0)
        assert engine.processed_events == 10
        # Ten distinct events, each spent once it fired: cancelling one
        # leaves the pending next occurrence alone.
        assert len({id(event) for event in seen}) == 10
        assert engine.pending_events == 1
        for event in seen:
            engine.cancel(event)
        assert engine.pending_events == 1

    def test_cancelling_pending_occurrence_stops_series(self, engine):
        ticks = []
        pending = _series(engine, 1.0, lambda: ticks.append(1))
        engine.run(until=2.5)
        engine.cancel(pending[0])
        engine.run(until=10.0)
        assert ticks == [1, 1]
        assert engine.pending_events == 0

    def test_series_stops_from_inside_its_body(self, engine):
        ticks = []

        def body():
            ticks.append(1)
            return len(ticks) < 3

        _series(engine, 1.0, body)
        engine.run(until=20.0)
        assert ticks == [1, 1, 1]
        assert engine.pending_events == 0

    def test_series_interleaves_fifo_with_plain_events(self, engine):
        order = []
        _series(engine, 1.0, lambda: order.append("tick"))
        engine.schedule_at(1.0, lambda: order.append("plain"))
        engine.run(until=1.0)
        # The series was scheduled first, so its occurrence at t=1.0 fires
        # before the plain event at the same timestamp.
        assert order == ["tick", "plain"]

    def test_next_occurrence_draws_its_sequence_after_the_body(
            self, engine):
        order = []

        def body():
            order.append("tick")
            if len(order) == 1:
                # Scheduled by the body for the time of the next
                # occurrence: the body runs before the reschedule, so this
                # event holds the lower sequence number and fires first.
                engine.schedule_after(1.0, lambda: order.append("plain"))
            return len(order) < 3

        _series(engine, 1.0, body)
        engine.run()
        assert order == ["tick", "plain", "tick"]

    def test_series_from_before_reset_never_fires(self, engine):
        ticks = []
        _series(engine, 1.0, lambda: ticks.append(1))
        engine.run(until=1.5)
        assert ticks == [1]
        engine.reset()
        engine.run(until=20.0)
        assert ticks == [1]
        assert engine.pending_events == 0


class TestRescheduledCallback:
    """One callback scheduled again and again, as the MHP poll and the EGP
    reply watchdog are: each schedule is a fresh, independent event."""

    def test_schedule_again_after_firing(self, engine):
        fired = []

        def callback():
            fired.append(engine.now)

        first = engine.schedule_at(1.0, callback, "poll")
        engine.run()
        second = engine.schedule_at(2.0, callback, "poll")
        assert second is not first
        engine.cancel(first)  # already fired: a no-op
        assert engine.pending_events == 1
        engine.run()
        assert fired == [1.0, 2.0]

    def test_schedule_while_pending_adds_independent_event(self, engine):
        fired = []

        def callback():
            fired.append(engine.now)

        engine.schedule_at(2.0, callback)
        engine.schedule_at(1.0, callback)  # earlier, while the first waits
        assert engine.pending_events == 2
        engine.run()
        assert fired == [1.0, 2.0]  # both occurrences fire

    def test_cancel_one_of_two_pending_schedules(self, engine):
        fired = []

        def callback(tag):
            fired.append(tag)

        watchdog = engine.schedule_after(1.0, callback, "watchdog", ("a",))
        engine.schedule_after(2.0, callback, "watchdog", ("b",))
        engine.cancel(watchdog)
        assert engine.pending_events == 1
        engine.run()
        assert fired == ["b"]

    def test_args_belong_to_each_schedule(self, engine):
        seen = []
        engine.schedule_at(1.0, seen.append, "watchdog", ("a",))
        engine.run()
        engine.schedule_at(2.0, seen.append, "watchdog", ("b",))
        engine.run()
        assert seen == ["a", "b"]


class TestResetInertness:
    """Handles from before ``reset()`` must be inert — cancelling one never
    touches the fresh queue's accounting."""

    def test_cancel_of_stale_handle_does_not_corrupt_accounting(
            self, engine):
        stale = engine.schedule_at(1.0, lambda: None)
        engine.reset()
        engine.schedule_at(1.0, lambda: None)
        assert engine.pending_events == 1
        engine.cancel(stale)  # must not decrement the new live count
        assert engine.pending_events == 1
        engine.run()
        assert engine.processed_events == 1

    def test_cancelled_then_reset_then_cancelled_again(self, engine):
        handle = engine.schedule_at(1.0, lambda: None)
        engine.cancel(handle)
        engine.reset()
        engine.cancel(handle)
        engine.schedule_at(2.0, lambda: None)
        assert engine.pending_events == 1

    def test_reset_restarts_clock_and_counters(self, engine):
        engine.schedule_at(5.0, lambda: None)
        engine.run()
        engine.reset(start_time=2.0)
        assert engine.now == 2.0
        assert engine.processed_events == 0
        assert engine.pending_events == 0
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, lambda: None)
