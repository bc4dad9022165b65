"""MHP poll-chain hot path: the profiled mixed CK+MD QL2020 workload.

Every GEN cycle ``EGP.handle_poll`` asks the scheduler to pick among the
ready queue items; on this workload the MD lane holds a backlog of a few
hundred items.  The distributed queue keeps each lane's ready items ordered
by the scheduler's own key, so a poll looks at one head per lane.  The
end-to-end run below records wall time and event rate in
``BENCH_bench_mhp_hotpath.json``; the ladder's ``link-analytic`` rung is the
same workload over 300 simulated seconds and catches its regressions.
"""

from __future__ import annotations

import time

from benchmarks.conftest import BATCH, print_table, record_perf, scaled


def test_mhp_poll_chain_end_to_end():
    """End-to-end guard: the profiled mixed CK+MD QL2020 workload."""
    from repro.core.messages import Priority
    from repro.runtime.runner import run_scenario
    from repro.runtime.workload import WorkloadSpec

    from repro.hardware.parameters import ql2020_scenario

    duration = scaled(60.0)
    workload = [WorkloadSpec(priority=Priority.CK, load_fraction=0.99,
                             max_pairs=1, min_fidelity=0.6),
                WorkloadSpec(priority=Priority.MD, load_fraction=0.6,
                             max_pairs=3, min_fidelity=0.55)]
    started = time.perf_counter()
    result = run_scenario(ql2020_scenario(), workload, duration,
                          seed=12345, attempt_batch_size=BATCH,
                          backend="analytic")
    wall = time.perf_counter() - started
    events_per_second = result.events_processed / max(wall, 1e-9)

    print_table(f"QL2020 CK+MD end-to-end ({duration:.1f}s sim, analytic)",
                ["wall (s)", "events", "events/s"],
                [[f"{wall:.2f}", result.events_processed,
                  f"{events_per_second:,.0f}"]])
    record_perf("bench_mhp_hotpath", "test_mhp_poll_chain_end_to_end",
                wall_seconds=round(wall, 3),
                events_processed=result.events_processed,
                events_per_second=round(events_per_second),
                simulated_seconds=duration)
    assert result.summary.pairs_delivered  # the run actually served pairs
