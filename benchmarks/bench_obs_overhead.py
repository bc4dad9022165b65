"""Observability overhead: the no-op tracer must be free.

PR 9 instruments the engine, MHP/EGP, and the sweep/cluster runtime with
``repro.obs`` trace hooks.  Every site is guarded by a single
``if tracer is not None`` check (the engine's run loop hoists the
attribute to a local once per ``run()`` call), so with ``REPRO_OBS``
unset the only cost the simulation pays is that guard.  The acceptance
bar is <2% overhead on the profiled analytic QL2020 mixed workload.

Two measurements land in ``BENCH_bench_obs_overhead.json``:

``test_noop_guard_overhead``
    Bounds the no-op cost from first principles: one profiled mixed run
    with observability off gives wall-clock and event counts; a
    microbenchmark prices the guard pattern itself (attribute load +
    ``is not None`` on a ``__slots__`` host, loop overhead included so
    the per-check figure is an upper bound).  A generous four guard
    evaluations per processed-or-elided event then bounds the total
    guard share of the run's wall-clock.  Pinned <2%.

``test_tracing_outcomes_and_cost``
    End-to-end, rounds interleaved: observability off (tracer ``None``),
    :class:`~repro.obs.NullTracer` attached (guards pass, emission
    kwargs are built, the sink discards them), and a real
    :class:`~repro.obs.Tracer` (``REPRO_OBS=trace``).  All three must
    produce identical summaries and pair counts — tracing is
    outcome-preserving by construction — and the wall-clock ratios are
    recorded so the cost of *enabled* tracing is tracked across PRs.
"""

from __future__ import annotations

import time

from benchmarks.conftest import print_table, record_perf, scaled

#: Guard-pattern microbenchmark iterations (unrolled 8x inside the loop).
GUARD_CHECKS = 2_000_000
#: Generous bound on tracer-guard evaluations per processed/elided event
#: (schedule + execute + cancel + elide sites; the run loop's check is a
#: hoisted local, cheaper than what the microbenchmark prices).
GUARDS_PER_EVENT = 4


# --------------------------------------------------------------------------- #
# Workload (the profiled analytic QL2020 mixed CK+MD run, as in
# bench_engine_hotpath)
# --------------------------------------------------------------------------- #
def _mixed_workload():
    from repro.core.messages import Priority
    from repro.runtime.workload import WorkloadSpec

    return [WorkloadSpec(priority=Priority.CK, load_fraction=0.99,
                         max_pairs=1, min_fidelity=0.6),
            WorkloadSpec(priority=Priority.MD, load_fraction=0.6,
                         max_pairs=3, min_fidelity=0.55)]


def _run_mixed(duration, *, tracer=None):
    """One profiled mixed run; returns (wall, result-like).

    ``tracer=None`` is the production default (observability off);
    passing a tracer wires it into the engine, midpoint, and both
    nodes' MHP/EGP exactly as ``ObsSession.attach`` does.
    """
    from repro.analysis.metrics import MetricsCollector
    from repro.hardware.parameters import ql2020_scenario
    from repro.network.network import LinkLayerNetwork
    from repro.runtime.workload import RequestGenerator

    started = time.perf_counter()
    network = LinkLayerNetwork(ql2020_scenario(), scheduler="FCFS",
                               seed=12345, attempt_batch_size=100,
                               backend="analytic")
    if tracer is not None:
        network.engine.tracer = tracer
        network.midpoint.tracer = tracer
        for node in network.nodes.values():
            node.mhp.tracer = tracer
            node.egp.tracer = tracer
    metrics = MetricsCollector(network)
    generator = RequestGenerator(network, _mixed_workload(), metrics=metrics,
                                 seed=12346)
    generator.start()
    network.run(duration)
    wall = time.perf_counter() - started
    return wall, {
        "events": network.engine.processed_events,
        "elided": network.engine.elided_events,
        "pairs": metrics.summary().pairs_delivered,
        "summary": metrics.summary(),
    }


def _best_of_interleaved(reps, *fns):
    """Best-of-``reps`` per configuration, rounds interleaved."""
    walls = [float("inf")] * len(fns)
    results = [None] * len(fns)
    for _ in range(reps):
        for index, fn in enumerate(fns):
            wall, result = fn()
            if wall < walls[index]:
                walls[index] = wall
                results[index] = result
    return walls, results


class _GuardHost:
    """Same shape as the instrumented hot objects: slotted, tracer=None."""

    __slots__ = ("tracer",)

    def __init__(self):
        self.tracer = None


def _guard_cost_seconds(checks: int = GUARD_CHECKS) -> float:
    """Per-evaluation cost of ``if host.tracer is not None`` (upper bound:
    the loop overhead is charged to the guard)."""
    host = _GuardHost()
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(checks // 8):
            if host.tracer is not None:
                raise AssertionError
            if host.tracer is not None:
                raise AssertionError
            if host.tracer is not None:
                raise AssertionError
            if host.tracer is not None:
                raise AssertionError
            if host.tracer is not None:
                raise AssertionError
            if host.tracer is not None:
                raise AssertionError
            if host.tracer is not None:
                raise AssertionError
            if host.tracer is not None:
                raise AssertionError
        best = min(best, time.perf_counter() - started)
    return best / (checks // 8 * 8)


# --------------------------------------------------------------------------- #
# Benchmarks
# --------------------------------------------------------------------------- #
def test_noop_guard_overhead():
    """Bound the guard share of an observability-off run's wall-clock."""
    duration = scaled(60.0)

    # Warm the process-global caches so they don't inflate the measured run.
    _run_mixed(min(duration, 2.0))

    wall, result = min((_run_mixed(duration) for _ in range(3)),
                       key=lambda pair: pair[0])
    per_check = _guard_cost_seconds()
    guard_events = result["events"] + result["elided"]
    guard_seconds = guard_events * GUARDS_PER_EVENT * per_check
    overhead = guard_seconds / wall

    print_table(
        f"No-op tracer guard bound — {overhead * 100:.3f}% of wall "
        f"(target <2%)",
        ["quantity", "value"],
        [["run wall (s)", f"{wall:.3f}"],
         ["events processed + elided", guard_events],
         ["guard checks bounded", guard_events * GUARDS_PER_EVENT],
         ["per-check cost (ns)", f"{per_check * 1e9:.1f}"],
         ["guard share of wall", f"{overhead * 100:.3f}%"]])

    record_perf("bench_obs_overhead", "test_noop_guard_overhead",
                simulated_seconds=duration,
                run_wall_seconds=round(wall, 3),
                events_processed=result["events"],
                events_elided=result["elided"],
                guards_per_event=GUARDS_PER_EVENT,
                guard_check_nanoseconds=round(per_check * 1e9, 2),
                noop_overhead_percent=round(overhead * 100, 4))

    # The acceptance bar: the no-op tracer (the ``None`` default every
    # un-instrumented run pays for) costs <2% of the profiled workload.
    assert overhead < 0.02, \
        f"no-op tracer guards bound at {overhead * 100:.2f}% of wall (>= 2%)"


def test_tracing_outcomes_and_cost():
    """Off vs NullTracer vs real Tracer: identical outcomes, tracked cost."""
    from repro.obs import NullTracer, Tracer

    duration = scaled(60.0)
    _run_mixed(min(duration, 2.0))

    (off_wall, null_wall, traced_wall), (off, null, traced) = \
        _best_of_interleaved(
            5,
            lambda: _run_mixed(duration),
            lambda: _run_mixed(duration, tracer=NullTracer()),
            lambda: _run_mixed(duration, tracer=Tracer()))

    # Outcome preservation: attaching any tracer changes nothing.
    assert off["pairs"] == null["pairs"] == traced["pairs"]
    assert off["summary"] == null["summary"] == traced["summary"]
    assert off["events"] == null["events"] == traced["events"]

    null_ratio = null_wall / max(off_wall, 1e-12)
    traced_ratio = traced_wall / max(off_wall, 1e-12)
    print_table(
        f"Tracing cost on QL2020 CK+MD ({duration:.1f}s sim, analytic) — "
        f"null {null_ratio:.3f}x, traced {traced_ratio:.3f}x of off",
        ["configuration", "wall (s)", "x off"],
        [["observability off (tracer=None)", f"{off_wall:.3f}", "1.000"],
         ["NullTracer attached", f"{null_wall:.3f}", f"{null_ratio:.3f}"],
         ["Tracer attached (REPRO_OBS=trace)", f"{traced_wall:.3f}",
          f"{traced_ratio:.3f}"]])

    record_perf("bench_obs_overhead", "test_tracing_outcomes_and_cost",
                simulated_seconds=duration,
                off_wall_seconds=round(off_wall, 3),
                null_wall_seconds=round(null_wall, 3),
                traced_wall_seconds=round(traced_wall, 3),
                null_ratio=round(null_ratio, 3),
                traced_ratio=round(traced_ratio, 3),
                events_processed=off["events"])

    # Enabled tracing does real work (per-kind accounting + protocol
    # records); the floor is deliberately loose so CI noise cannot flake
    # it while a pathological regression (tracing dominating the run)
    # fails.
    assert traced_ratio < 2.0, \
        f"enabled tracing costs {traced_ratio:.2f}x the off configuration"
