"""Section 6.2: fidelity / throughput / latency / fairness of single-kind runs.

Regenerates the headline numbers of the long runs with a single request kind:

* fidelity bands per kind and scenario (NL/CK vs MD, Lab vs QL2020),
* throughput bands (MD slightly above NL/CK in the Lab; QL2020 K-type roughly
  an order of magnitude below the Lab),
* fairness between requests originating at node A and node B.
"""

from __future__ import annotations

from benchmarks.conftest import BATCH, print_table, scaled
from repro.analysis.metrics import relative_difference
from repro.backends import get_backend
from repro.core.messages import Priority
from repro.runtime.runner import run_scenario
from repro.runtime.workload import WorkloadSpec


def run_single_kind(config, priority, duration, origin="random", seed=77,
                    backend=None):
    spec = WorkloadSpec(priority=priority, load_fraction=0.99, max_pairs=3,
                        origin=origin, min_fidelity=0.64)
    return run_scenario(config, [spec], duration=duration, seed=seed,
                        attempt_batch_size=BATCH, backend=backend)


def test_sec62_lab_throughput_and_fidelity(benchmark, lab_config):
    duration = scaled(4.0)

    def sweep():
        backend = get_backend()  # one FEU table for the three kinds
        return {kind: run_single_kind(lab_config, kind, duration,
                                      backend=backend)
                for kind in (Priority.NL, Priority.CK, Priority.MD)}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    for kind, result in results.items():
        summary = result.summary
        rows.append([kind.name,
                     f"{summary.throughput.get(kind.name, 0.0):.2f}",
                     f"{summary.average_fidelity.get(kind.name, float('nan')):.3f}",
                     f"{summary.average_scaled_latency.get(kind.name, float('nan')):.3f}"])
    print_table("Section 6.2 — Lab, High load, single kinds",
                ["kind", "throughput_1/s", "fidelity", "scaled_latency_s"], rows)

    nl = results[Priority.NL].summary
    md = results[Priority.MD].summary
    # Paper: Lab High throughput ~6-6.5 for NL/CK and ~6.5-7.1 for MD; our
    # simulator reproduces the same order of magnitude with MD >= NL.
    assert 2.0 < nl.throughput.get("NL", 0.0) < 30.0
    assert md.throughput.get("MD", 0.0) >= nl.throughput.get("NL", 0.0) * 0.8
    # Fidelity close to (and above) the requested 0.64.
    assert nl.average_fidelity["NL"] > 0.6


def test_sec62_ql2020_keep_throughput_is_an_order_lower(benchmark, lab_config,
                                                        ql2020_config):
    duration_lab = scaled(3.0)
    duration_ql = scaled(25.0)

    def sweep():
        lab = run_single_kind(lab_config, Priority.NL, duration_lab, seed=78)
        ql = run_single_kind(ql2020_config, Priority.NL, duration_ql, seed=78)
        return lab, ql

    lab_result, ql_result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lab_throughput = lab_result.summary.throughput.get("NL", 0.0)
    ql_throughput = ql_result.summary.throughput.get("NL", 0.0)
    print(f"\nSection 6.2 — NL throughput: Lab {lab_throughput:.2f}/s, "
          f"QL2020 {ql_throughput:.2f}/s "
          f"(ratio {lab_throughput / max(ql_throughput, 1e-9):.1f}; "
          f"paper reports a factor of ~14)")
    assert ql_throughput > 0
    # The paper reports a factor ~14; accept anything clearly order-of-magnitude.
    assert lab_throughput / ql_throughput > 5


def test_sec62_fairness_between_origins(benchmark, lab_config):
    duration = scaled(12.0)
    result = benchmark.pedantic(
        run_single_kind, args=(lab_config, Priority.MD, duration, "random", 79),
        rounds=1, iterations=1)
    fairness = result.metrics.fairness_by_origin()
    print_table("Section 6.2 — fairness by request origin (Lab, MD)",
                ["origin", "throughput", "oks", "latency_s"],
                [[origin,
                  f"{data['throughput']:.2f}",
                  int(data["oks"]),
                  f"{data['latency']:.3f}"]
                 for origin, data in fairness.items()])
    oks_a, oks_b = fairness["A"]["oks"], fairness["B"]["oks"]
    assert oks_a > 0 and oks_b > 0
    # Paper: relative differences between origins stay small (<= 0.1 for OKs)
    # over 120-hour runs; with runs that are orders of magnitude shorter the
    # sampling noise dominates, so only gross unfairness is rejected.
    assert relative_difference(oks_a, oks_b) < 0.75
