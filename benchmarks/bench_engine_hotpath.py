"""Event-engine hot path: slim events + timer elision.

PR 4's profile left the engine itself as the bottleneck of the analytic
QL2020 mixed CK+MD workload: ~40% of the remaining wall-clock sat in the
``schedule_at``/``heappop`` chain — dataclass events compared through
tuple-building ``__lt__``, a fresh event + handle + closure + f-string name
per schedule, and thousands of timers that were scheduled only to be
cancelled (reply watchdogs) or to fire provably-no-op polls.

PR 5 attacked it on two fronts:

* slim ``__slots__`` events that double as their own handles, positional
  callback args instead of closures (it also added reusable and periodic
  timers that recycled event objects; they measured no gain over plain
  events and were later removed);
* timer elision for the GEN/REPLY hot path: reply watchdogs skipped when
  frames cannot be lost, the blocked-EGP follow-up poll skipped, the
  post-REPLY poll deferred past the K attempt spacing, and batched REPLYs
  collapsed into a single delivery event.

One measurement lands in ``BENCH_bench_engine_hotpath.json``:

``test_engine_end_to_end_speedup``
    The profiled analytic QL2020 mixed workload, end to end, on three
    configurations: the **PR-4 heap engine** (vendored below, verbatim
    semantics and allocation pattern: ordered dataclass events, per-schedule
    handle + closure, no elisions), the in-repo heap engine in the same
    reference scheduling pattern, and the in-repo heap engine with
    watchdog/timer elision (the default configuration).
    All three must deliver identical pairs; the first/last ratio is the
    end-to-end speedup versus the PR-4 engine.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable

from benchmarks.conftest import print_table, record_perf, scaled


# --------------------------------------------------------------------------- #
# Vendored PR-4 reference engine (the "before" of the end-to-end comparison)
# --------------------------------------------------------------------------- #
# This is the seed/PR-4 engine, verbatim in semantics and cost structure:
# an ordered-dataclass event (tuple-building __lt__ on every heap
# comparison), a separate handle object per schedule, and a closure per
# callback that carries arguments — exactly what every schedule allocated
# before PR 5.  The protocol code schedules plain events only
# (``schedule_at``/``schedule_after``), so it runs on this engine unchanged.


@dataclass(order=True)
class _RefEvent:
    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    name: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)
    popped: bool = field(default=False, compare=False)


class _RefHandle:
    def __init__(self, event: _RefEvent, engine: "ReferenceEngine") -> None:
        self._event = event
        self._engine = engine

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    def cancel(self) -> None:
        if self._event.cancelled:
            return
        self._event.cancelled = True
        if not self._event.popped:
            self._engine._note_cancelled()


class ReferenceEngine:
    """The PR-4 binary-heap engine with its original per-event costs."""

    COMPACTION_MIN_CANCELLED = 64

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: list[_RefEvent] = []
        self._counter = itertools.count()
        self._processed = 0
        self._cancelled_in_queue = 0
        self.trace = None

    @property
    def now(self) -> float:
        return self._now

    @property
    def pending_events(self) -> int:
        return len(self._queue) - self._cancelled_in_queue

    @property
    def processed_events(self) -> int:
        return self._processed

    def note_elided(self, name: str = "") -> None:
        # Called by the protocol stack for skipped duplicate polls; the
        # reference engine has no elision accounting to keep.
        pass

    def schedule_at(self, when, callback, name="", args=()) -> _RefHandle:
        if when < self._now:
            raise RuntimeError(f"cannot schedule event at {when}")
        if args:
            # The seed's callers bound arguments in a fresh closure per
            # schedule; reproduce that allocation here.
            callback = lambda cb=callback, a=args: cb(*a)  # noqa: E731
        event = _RefEvent(time=float(when), sequence=next(self._counter),
                          callback=callback, name=name)
        heapq.heappush(self._queue, event)
        return _RefHandle(event, self)

    def schedule_after(self, delay, callback, name="", args=()):
        if delay < 0:
            raise RuntimeError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, callback, name=name,
                                args=args)

    def step(self) -> bool:
        while self._queue:
            event = heapq.heappop(self._queue)
            event.popped = True
            if event.cancelled:
                self._cancelled_in_queue -= 1
                continue
            self._now = event.time
            event.callback()
            self._processed += 1
            return True
        return False

    def run(self, until=None, max_events=None) -> float:
        executed = 0
        while self._queue:
            if max_events is not None and executed >= max_events:
                break
            next_event = self._peek()
            if next_event is None:
                break
            if until is not None and next_event.time > until:
                self._now = until
                break
            if not self.step():
                break
            executed += 1
        else:
            if until is not None and until > self._now:
                self._now = until
        return self._now

    def _peek(self):
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue).popped = True
            self._cancelled_in_queue -= 1
        return self._queue[0] if self._queue else None

    def _note_cancelled(self) -> None:
        self._cancelled_in_queue += 1
        if (self._cancelled_in_queue >= self.COMPACTION_MIN_CANCELLED
                and 2 * self._cancelled_in_queue > len(self._queue)):
            live = [e for e in self._queue if not e.cancelled]
            for event in self._queue:
                if event.cancelled:
                    event.popped = True
            self._queue = live
            heapq.heapify(self._queue)
            self._cancelled_in_queue = 0


# --------------------------------------------------------------------------- #
# Vendored PR-4 protocol hot paths (pre-PR-5 cost structure)
# --------------------------------------------------------------------------- #
# PR 5 also slimmed the protocol side of every event (memoised batch
# grants, closure-free channel sends).  The reference measurement runs the
# *verbatim PR-4 implementations* of those hot spots so the comparison is
# against the seed's cost structure, not a half-upgraded hybrid.  The PR-4
# scheduler selection and ready list are not vendored: the lane-ordered
# ready sets replaced both, and the ladder's ``link-analytic`` rung times
# them.


def _pr4_channel_send(self, payload):
    """PR-4 ``ClassicalChannel.send`` (closure + f-string name per send)."""
    from repro.sim.channel import ChannelDelivery

    if self._receiver is None:
        raise RuntimeError(f"channel {self.name} has no receiver connected")
    self.messages_sent += 1
    lost = self._rng.random() < self.loss_probability
    delivered_at = None
    if lost:
        self.messages_lost += 1
    else:
        delivered_at = self.now + self.delay
        receiver = self._receiver
        self.call_after(self.delay, lambda p=payload: receiver(p),
                        name=f"{self.name}.deliver")
    if self.record_history:
        self.history.append(ChannelDelivery(
            sent_at=self.now, delivered_at=delivered_at,
            lost=lost, payload=payload))
    return not lost


class _NoGrantSlots:
    """Defeats the EGP's per-type batch grant slots (PR-4 recomputed the
    grant on every poll): every slot always reads empty."""

    def __getitem__(self, index):
        return None

    def __setitem__(self, index, value):
        pass


class _pr4_cost_structure:
    """Context manager installing the vendored PR-4 hot paths."""

    def __enter__(self):
        from repro.sim.channel import ClassicalChannel

        self._saved = [
            (ClassicalChannel, "send", ClassicalChannel.send),
        ]
        ClassicalChannel.send = _pr4_channel_send
        return self

    def __exit__(self, *exc):
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)
        return False


# --------------------------------------------------------------------------- #
# Workload helpers
# --------------------------------------------------------------------------- #
def _mixed_workload():
    from repro.core.messages import Priority
    from repro.runtime.workload import WorkloadSpec

    return [WorkloadSpec(priority=Priority.CK, load_fraction=0.99,
                         max_pairs=1, min_fidelity=0.6),
            WorkloadSpec(priority=Priority.MD, load_fraction=0.6,
                         max_pairs=3, min_fidelity=0.55)]


def _run_mixed(duration, *, engine_factory=None,
               elide_watchdog=None, timer_elision=True, no_grant_cache=False):
    """One profiled mixed CK+MD QL2020 run; returns (wall, result-like)."""
    from repro.analysis.metrics import MetricsCollector
    from repro.hardware.parameters import ql2020_scenario
    from repro.network.network import LinkLayerNetwork
    from repro.runtime.workload import RequestGenerator

    started = time.perf_counter()
    network = LinkLayerNetwork(ql2020_scenario(), scheduler="FCFS",
                               seed=12345, attempt_batch_size=100,
                               backend="analytic",
                               engine=(engine_factory() if engine_factory
                                       else None),
                               elide_watchdog=elide_watchdog,
                               timer_elision=timer_elision)
    if no_grant_cache:
        for node in network.nodes.values():
            node.egp._grants = _NoGrantSlots()
    metrics = MetricsCollector(network)
    generator = RequestGenerator(network, _mixed_workload(), metrics=metrics,
                                 seed=12346)
    generator.start()
    network.run(duration)
    wall = time.perf_counter() - started
    return wall, {
        "events": network.engine.processed_events,
        "pairs": metrics.summary().pairs_delivered,
        "summary": metrics.summary(),
    }


def _best_of_interleaved(reps, *fns):
    """Best-of-``reps`` per configuration, rounds interleaved.

    Interleaving (A B C, A B C, ...) instead of batching (A A, B B, C C)
    keeps slow machine-load drift from biasing whole configurations.
    """
    walls = [float("inf")] * len(fns)
    results = [None] * len(fns)
    for _ in range(reps):
        for index, fn in enumerate(fns):
            wall, result = fn()
            if wall < walls[index]:
                walls[index] = wall
                results[index] = result
    return walls, results


# --------------------------------------------------------------------------- #
# Benchmarks
# --------------------------------------------------------------------------- #
def test_engine_end_to_end_speedup():
    """The profiled mixed workload: PR-4 engine vs heap + elisions."""
    duration = scaled(60.0)

    # Warm the process-global caches (analytic attempt models) so the
    # ordering of the measurements below cannot bias them.
    _run_mixed(min(duration, 2.0))

    # Three configurations, rounds interleaved:
    # * before — the vendored PR-4 heap engine and the vendored PR-4
    #   protocol hot paths, running the PR-4 scheduling pattern (watchdogs
    #   scheduled, no poll elision, two-event batched replies): the seed's
    #   exact event stream and cost structure, event for event;
    # * slim — the in-repo heap engine on the same reference pattern,
    #   isolating the slim-event contribution (same events, leaner cost);
    # * after — the default configuration: the in-repo heap engine plus
    #   watchdog/timer elision.
    def measure_before():
        with _pr4_cost_structure():
            return _run_mixed(duration, engine_factory=ReferenceEngine,
                              elide_watchdog=False, timer_elision=False,
                              no_grant_cache=True)

    (before_wall, slim_wall, after_wall), (before, slim, after) = \
        _best_of_interleaved(
            6,
            measure_before,
            lambda: _run_mixed(duration, elide_watchdog=False,
                               timer_elision=False),
            lambda: _run_mixed(duration))

    # Identical physics everywhere: same delivered pairs and summaries;
    # the reference pattern replays the PR-4 event stream event for event.
    assert before["pairs"] == slim["pairs"] == after["pairs"]
    assert before["summary"] == slim["summary"] == after["summary"]
    assert before["events"] == slim["events"]
    assert after["events"] < before["events"]

    speedup = before_wall / max(after_wall, 1e-12)
    slim_speedup = before_wall / max(slim_wall, 1e-12)
    print_table(
        f"QL2020 CK+MD end-to-end ({duration:.1f}s sim, analytic) — "
        f"{speedup:.2f}x vs the PR-4 heap engine",
        ["configuration", "wall (s)", "events", "events/s"],
        [["heap engine (PR-4 reference)", f"{before_wall:.3f}",
          before["events"], f"{before['events'] / before_wall:,.0f}"],
         ["heap + slim events (same pattern)", f"{slim_wall:.3f}",
          slim["events"], f"{slim['events'] / slim_wall:,.0f}"],
         ["heap + slim events + timer elision", f"{after_wall:.3f}",
          after["events"], f"{after['events'] / after_wall:,.0f}"]])

    record_perf("bench_engine_hotpath", "test_engine_end_to_end_speedup",
                backend="analytic",
                simulated_seconds=duration,
                before_wall_seconds=round(before_wall, 3),
                before_events=before["events"],
                slim_heap_wall_seconds=round(slim_wall, 3),
                after_wall_seconds=round(after_wall, 3),
                after_events=after["events"],
                events_elided=before["events"] - after["events"],
                slim_events_speedup=round(slim_speedup, 2),
                speedup=round(speedup, 2))

    # The floor is loose so CI noise cannot flake it while a real
    # regression (~1x) fails.
    assert speedup >= 1.3, \
        f"end-to-end speedup only {speedup:.2f}x vs the PR-4 heap engine"
