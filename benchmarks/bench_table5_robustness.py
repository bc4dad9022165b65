"""Section 6.1 / Table 5: robustness to classical control-message loss.

The paper artificially inflates the classical frame-loss probability from the
realistic < 4e-8 up to 1e-4 and observes that the protocol keeps running with
only a small impact on fidelity, throughput and the number of OKs (relative
differences of a few percent, latency excepted).

This benchmark runs the same Lab workload at several loss probabilities
(including zero) with per-attempt messaging (no batching, so every classical
frame is individually exposed to loss) and reports the relative differences.
"""

from __future__ import annotations

from benchmarks.conftest import print_table, scaled
from repro.analysis.metrics import relative_difference
from repro.backends import get_backend
from repro.core.messages import Priority
from repro.runtime.runner import run_scenario
from repro.runtime.workload import WorkloadSpec

LOSS_PROBABILITIES = [0.0, 1e-6, 1e-4]


def run_with_loss(lab_config, loss, duration, seed=55, backend=None):
    scenario = lab_config.with_frame_loss(loss)
    spec = WorkloadSpec(priority=Priority.MD, load_fraction=0.99, max_pairs=3,
                        min_fidelity=0.64)
    return run_scenario(scenario, [spec], duration=duration, seed=seed,
                        attempt_batch_size=1, backend=backend)


def test_table5_robustness_to_message_loss(benchmark, lab_config):
    duration = scaled(1.5)

    def sweep():
        backend = get_backend()
        return {loss: run_with_loss(lab_config, loss, duration,
                                    backend=backend)
                for loss in LOSS_PROBABILITIES}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    baseline = results[0.0].summary
    rows = []
    for loss in LOSS_PROBABILITIES:
        summary = results[loss].summary
        rows.append([
            f"{loss:.0e}" if loss else "0",
            f"{summary.throughput.get('MD', 0.0):.2f}",
            f"{summary.average_fidelity.get('MD', float('nan')):.3f}",
            summary.oks,
            summary.expires,
            f"{relative_difference(summary.throughput.get('MD', 0.0), baseline.throughput.get('MD', 0.0)):.3f}",
        ])
    print_table("Table 5 — robustness to classical frame loss (Lab, MD)",
                ["p_loss", "throughput", "fidelity", "OKs", "EXPIREs",
                 "rel_diff_throughput"], rows)

    # The protocol must keep delivering pairs at every loss level.
    for loss in LOSS_PROBABILITIES:
        assert results[loss].summary.oks > 0, f"no OKs at loss={loss}"
    # At the paper's most extreme (and unrealistic) loss of 1e-4 the
    # throughput stays within a modest factor of the lossless baseline.
    stressed = results[1e-4].summary
    assert relative_difference(stressed.throughput.get("MD", 0.0),
                               baseline.throughput.get("MD", 0.0)) < 0.5
