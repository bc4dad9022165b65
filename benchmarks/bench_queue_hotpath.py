"""DQP hot path end to end: a busy Lab MD link.

The EGP asks the distributed queue for its ready lane heads every GEN cycle
— hundreds of thousands of times per simulated second on the Lab scenario.
This benchmark times an end-to-end run of that regime and records it in
``BENCH_bench_queue_hotpath.json``.
"""

from __future__ import annotations

import time

from benchmarks.conftest import BATCH, print_table, record_perf, scaled


def test_ready_items_end_to_end():
    """End-to-end guard: a busy MD scenario polling the lane heads."""
    from repro.core.messages import Priority
    from repro.runtime.runner import run_scenario
    from repro.runtime.workload import WorkloadSpec

    from repro.hardware.parameters import lab_scenario

    duration = scaled(2.0)
    workload = WorkloadSpec(priority=Priority.MD, load_fraction=0.99,
                            max_pairs=3, min_fidelity=0.64)
    started = time.perf_counter()
    result = run_scenario(lab_scenario(), [workload], duration,
                          seed=12345, attempt_batch_size=BATCH)
    wall = time.perf_counter() - started
    events_per_second = result.events_processed / max(wall, 1e-9)

    print_table(f"Lab MD High end-to-end ({duration:.1f}s sim)",
                ["wall (s)", "events", "events/s"],
                [[f"{wall:.2f}", result.events_processed,
                  f"{events_per_second:,.0f}"]])
    record_perf("bench_queue_hotpath", "test_ready_items_end_to_end",
                wall_seconds=round(wall, 3),
                events_processed=result.events_processed,
                events_per_second=round(events_per_second),
                simulated_seconds=duration)
    assert result.summary.pairs_delivered  # the run actually served pairs
