"""Unit tests for the discrete-event simulation engine."""

from __future__ import annotations

from time import perf_counter

import pytest

from repro.sim.engine import (
    DeadlineExceeded,
    EventBudgetExceeded,
    SimulationEngine,
    SimulationError,
)


class TestScheduling:
    def test_initial_time_is_zero(self):
        assert SimulationEngine().now == 0.0

    def test_custom_start_time(self):
        assert SimulationEngine(start_time=5.0).now == 5.0

    def test_schedule_at_runs_callback_at_time(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(2.5, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [2.5]

    def test_schedule_after_is_relative(self):
        engine = SimulationEngine(start_time=1.0)
        fired = []
        engine.schedule_after(0.5, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [1.5]

    def test_schedule_in_past_raises(self):
        engine = SimulationEngine(start_time=10.0)
        with pytest.raises(SimulationError):
            engine.schedule_at(5.0, lambda: None)

    def test_negative_delay_raises(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule_after(-1.0, lambda: None)

    def test_nan_time_raises(self):
        # A NaN time compares false against everything: let through, it
        # fired between ordinary events and left the clock at NaN.
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(1.0, lambda: fired.append(1.0))
        engine.schedule_at(2.0, lambda: fired.append(2.0))
        with pytest.raises(SimulationError):
            engine.schedule_at(float("nan"), lambda: fired.append("nan"))
        engine.run()
        assert fired == [1.0, 2.0]
        assert engine.now == 2.0
        assert engine.pending_events == 0

    def test_nan_delay_raises(self):
        engine = SimulationEngine(start_time=1.0)
        with pytest.raises(SimulationError):
            engine.schedule_after(float("nan"), lambda: None)
        assert engine.pending_events == 0
        assert engine.run() == 1.0

    def test_events_run_in_time_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule_at(3.0, lambda: order.append("c"))
        engine.schedule_at(1.0, lambda: order.append("a"))
        engine.schedule_at(2.0, lambda: order.append("b"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_run_in_insertion_order(self):
        engine = SimulationEngine()
        order = []
        for label in "abc":
            engine.schedule_at(1.0, lambda l=label: order.append(l))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_nested_scheduling(self):
        engine = SimulationEngine()
        fired = []

        def outer():
            fired.append(("outer", engine.now))
            engine.schedule_after(1.0, inner)

        def inner():
            fired.append(("inner", engine.now))

        engine.schedule_at(1.0, outer)
        engine.run()
        assert fired == [("outer", 1.0), ("inner", 2.0)]


class TestRunControl:
    def test_run_until_stops_clock_at_bound(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(1.0, lambda: fired.append(1))
        engine.schedule_at(5.0, lambda: fired.append(5))
        engine.run(until=2.0)
        assert fired == [1]
        assert engine.now == 2.0

    def test_run_until_includes_events_at_bound(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(2.0, lambda: fired.append(2))
        engine.run(until=2.0)
        assert fired == [2]

    def test_remaining_events_run_on_next_call(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(1.0, lambda: fired.append(1))
        engine.schedule_at(3.0, lambda: fired.append(3))
        engine.run(until=2.0)
        engine.run(until=4.0)
        assert fired == [1, 3]

    def test_max_events_limit(self):
        engine = SimulationEngine()
        fired = []
        for i in range(10):
            engine.schedule_at(float(i), lambda i=i: fired.append(i))
        engine.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_processed_event_count(self):
        engine = SimulationEngine()
        for i in range(5):
            engine.schedule_at(float(i), lambda: None)
        engine.run()
        assert engine.processed_events == 5

    def test_max_events_on_empty_queue_executes_nothing(self):
        engine = SimulationEngine()
        assert engine.run(max_events=1) == 0.0
        assert engine.processed_events == 0

    def test_reset_clears_queue_and_clock(self):
        engine = SimulationEngine()
        engine.schedule_at(1.0, lambda: None)
        engine.run()
        engine.reset()
        assert engine.now == 0.0
        assert engine.pending_events == 0
        assert engine.processed_events == 0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = SimulationEngine()
        fired = []
        handle = engine.schedule_at(1.0, lambda: fired.append(1))
        engine.cancel(handle)
        assert engine.pending_events == 0
        engine.run()
        assert fired == []
        assert engine.processed_events == 0

    def test_cancel_one_of_many(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(1.0, lambda: fired.append("keep"))
        handle = engine.schedule_at(2.0, lambda: fired.append("drop"))
        engine.schedule_at(3.0, lambda: fired.append("keep2"))
        engine.cancel(handle)
        engine.run()
        assert fired == ["keep", "keep2"]

    def test_handle_reports_time(self):
        engine = SimulationEngine()
        handle = engine.schedule_at(4.0, lambda: None)
        assert handle[0] == 4.0


class TestLazyCompaction:
    """Cancelled events must not accumulate in the heap or inflate counts."""

    def test_pending_events_counts_live_only(self):
        engine = SimulationEngine()
        handles = [engine.schedule_at(float(i), lambda: None)
                   for i in range(10)]
        assert engine.pending_events == 10
        for handle in handles[:4]:
            engine.cancel(handle)
        assert engine.pending_events == 6

    def test_double_cancel_counts_once(self):
        engine = SimulationEngine()
        engine.schedule_at(1.0, lambda: None)
        handle = engine.schedule_at(2.0, lambda: None)
        engine.cancel(handle)
        engine.cancel(handle)
        assert engine.pending_events == 1

    def test_compaction_shrinks_heap(self):
        engine = SimulationEngine()
        fired = []
        for i in range(10):
            engine.schedule_at(1000.0 + i, fired.append, args=(i,))
        doomed = [engine.schedule_at(float(i), lambda: None)
                  for i in range(200)]
        assert len(engine._heap) == 210
        for handle in doomed:
            engine.cancel(handle)
        # Cancelled events outnumber live ones: the heap was compacted down
        # to the live events plus at most the compaction trigger threshold.
        assert len(engine._heap) <= \
            10 + SimulationEngine.COMPACTION_MIN_CANCELLED
        assert engine.pending_events == 10
        engine.run()
        assert fired == list(range(10))

    def test_compaction_preserves_firing_order(self):
        engine = SimulationEngine()
        fired = []
        for i in range(300):
            engine.schedule_at(float(i), lambda i=i: fired.append(i))
        doomed = [engine.schedule_at(0.5, lambda: fired.append("doomed"))
                  for _ in range(400)]
        for handle in doomed:
            engine.cancel(handle)
        engine.run()
        assert fired == list(range(300))

    def test_popping_cancelled_events_updates_counter(self):
        engine = SimulationEngine()
        handles = [engine.schedule_at(float(i), lambda: None)
                   for i in range(30)]
        for handle in handles[:20]:
            engine.cancel(handle)
        engine.run()
        assert engine.pending_events == 0
        assert engine.processed_events == 10

    def test_long_run_with_many_cancellations_stays_bounded(self):
        engine = SimulationEngine()
        fired = 0

        def tick(step=[0]):
            nonlocal fired
            fired += 1
            step[0] += 1
            if step[0] < 2000:
                # Schedule a watchdog and immediately cancel it, as the
                # protocols do for reply timeouts that are answered in time.
                engine.cancel(engine.schedule_at(engine.now + 10.0,
                                                 lambda: None))
                engine.schedule_at(engine.now + 0.001, tick)

        engine.schedule_at(0.0, tick)
        engine.run()
        assert fired == 2000
        assert len(engine._heap) <= SimulationEngine.COMPACTION_MIN_CANCELLED * 2

    def test_cancel_after_fire_is_a_noop_for_accounting(self):
        engine = SimulationEngine()
        handle = engine.schedule_at(1.0, lambda: None)
        live = engine.schedule_at(2.0, lambda: None)
        engine.run(until=1.5)
        engine.cancel(handle)
        assert engine.pending_events == 1
        engine.cancel(live)
        assert engine.pending_events == 0

    def test_cancel_after_reset_is_a_noop_for_accounting(self):
        engine = SimulationEngine()
        handle = engine.schedule_at(1.0, lambda: None)
        engine.reset()
        engine.cancel(handle)
        assert engine.pending_events == 0

    def test_compaction_inside_run_keeps_order_and_heap_list(self):
        # ``run`` holds a reference to the heap list, so a compaction
        # triggered by a callback must rebuild that same list in place.
        engine = SimulationEngine()
        heap = engine._heap
        fired = []
        doomed = []

        def record(tag):
            fired.append((engine.now, tag))

        def cancel_all():
            record("cancel")
            for handle in doomed:
                engine.cancel(handle)
            assert engine._heap is heap
            assert len(heap) < 2 * SimulationEngine.COMPACTION_MIN_CANCELLED

        engine.schedule_at(1.0, cancel_all)
        # Survivors: ties at one time (fire in scheduling order) and a
        # spread of later times, interleaved with the doomed events.
        expected = []
        for i in range(40):
            time = 2.0 if i % 2 else 5.0 - i / 10
            engine.schedule_at(time, record, args=(i,))
            expected.append((time, i))
            doomed += [engine.schedule_at(time, record, args=("doomed",))
                       for _ in range(5)]
        # Scheduled after the compaction from inside a callback.
        engine.schedule_at(1.5, engine.schedule_at,
                           args=(2.0, record, "", ("late",)))

        engine.run()
        assert engine._heap is heap
        expected.append((2.0, "late"))
        expected.sort(key=lambda entry: entry[0])  # stable: ties in order
        assert fired == [(1.0, "cancel")] + expected
        assert engine.pending_events == 0 and not heap


def _ticks(engine: SimulationEngine, interval: float = 1.0) -> None:
    """Schedule a tick every ``interval`` simulated seconds, without end."""
    def tick() -> None:
        engine.schedule_after(interval, tick, "tick")

    engine.schedule_at(interval, tick, "tick")


class TestBoundsAcrossCalls:
    """``event_budget``, the deadline poll and ``max_events`` share one
    per-event threshold; each must still fire at its own event when a run
    starts with a processed count that is not a multiple of 1024."""

    STEP = 700  # not a divisor of 1024: runs start at unaligned counts

    @pytest.mark.parametrize("step", [STEP, None])
    @pytest.mark.parametrize("deadline", [None, 3600.0])
    def test_event_budget_fires_at_the_budget(self, step, deadline):
        # With a deadline set, its polls at 1024 and 2048 come first and
        # must not lose the budget, also within one run (step None).
        engine = SimulationEngine()
        _ticks(engine)
        engine.event_budget = 2500
        if deadline is not None:
            engine.deadline_at = perf_counter() + deadline
        with pytest.raises(EventBudgetExceeded) as err:
            for _ in range(10):
                engine.run(until=10 ** 5, max_events=step)
        # Each tick fires at its own index in seconds: event n at t=n.
        assert err.value.events_processed == 2500
        assert err.value.sim_time == 2500.0
        assert engine.processed_events == 2500
        assert engine.now == 2500.0

    def test_past_deadline_fires_at_the_next_multiple_of_1024(self):
        engine = SimulationEngine()
        _ticks(engine)
        engine.run(max_events=self.STEP)
        engine.run(max_events=self.STEP)
        assert engine.processed_events == 1400
        engine.deadline_at = perf_counter() - 1.0  # already past
        with pytest.raises(DeadlineExceeded) as err:
            engine.run(max_events=self.STEP)
        assert err.value.events_processed == 2048
        assert err.value.sim_time == 2048.0
        assert engine.processed_events == 2048

    def test_max_events_leaves_the_clock_at_the_last_event(self):
        engine = SimulationEngine()
        _ticks(engine)
        engine.event_budget = 10 ** 9
        engine.deadline_at = perf_counter() + 3600.0
        for call in range(1, 5):
            assert engine.run(until=10 ** 6, max_events=self.STEP) \
                == float(call * self.STEP)
            assert engine.processed_events == call * self.STEP
            assert engine.now == float(call * self.STEP)

    def test_budget_and_max_events_on_the_same_event(self):
        # The budget wins, as it did with separate checks.
        engine = SimulationEngine()
        _ticks(engine)
        engine.run(max_events=self.STEP)
        engine.event_budget = 2 * self.STEP
        with pytest.raises(EventBudgetExceeded) as err:
            engine.run(max_events=self.STEP)
        assert err.value.events_processed == 2 * self.STEP
