"""Ablation benchmarks for design choices called out in DESIGN.md.

* Emission multiplexing (Section 5.2.5): allowing measure-directly attempts
  in every MHP cycle without waiting for the previous REPLY should clearly
  increase MD throughput on QL2020, where the round trip to the midpoint is
  ~14 cycles long.
* Attempt batching (Section 5.1): batched operation must not change the
  delivered fidelity — it only trades protocol-message granularity for speed.
"""

from __future__ import annotations

from benchmarks.conftest import BATCH, print_table, scaled
from repro.backends import get_backend
from repro.core.messages import Priority
from repro.runtime.runner import run_scenario
from repro.runtime.workload import WorkloadSpec


def test_ablation_emission_multiplexing(benchmark, ql2020_config):
    duration = scaled(6.0)
    spec = WorkloadSpec(priority=Priority.MD, load_fraction=0.99, max_pairs=3,
                        min_fidelity=0.64)

    def sweep():
        # One backend for both runs: the second reuses the first's tables.
        backend = get_backend()
        with_mux = run_scenario(ql2020_config, [spec], duration=duration,
                                seed=31, emission_multiplexing=True,
                                attempt_batch_size=BATCH, backend=backend)
        without_mux = run_scenario(ql2020_config, [spec], duration=duration,
                                   seed=31, emission_multiplexing=False,
                                   attempt_batch_size=1, backend=backend)
        return with_mux, without_mux

    with_mux, without_mux = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [["multiplexing on",
             f"{with_mux.summary.throughput.get('MD', 0.0):.2f}"],
            ["multiplexing off",
             f"{without_mux.summary.throughput.get('MD', 0.0):.2f}"]]
    print_table("Ablation — emission multiplexing (QL2020, MD)",
                ["configuration", "throughput_1/s"], rows)
    assert with_mux.summary.throughput.get("MD", 0.0) > \
        2 * without_mux.summary.throughput.get("MD", 0.0)


def test_ablation_batching_preserves_fidelity(benchmark, lab_config):
    duration_batched = scaled(3.0)
    duration_unbatched = scaled(1.0)
    spec = WorkloadSpec(priority=Priority.CK, load_fraction=0.99, max_pairs=1,
                        origin="A", min_fidelity=0.64)

    def sweep():
        backend = get_backend()
        batched = run_scenario(lab_config, [spec], duration=duration_batched,
                               seed=32, attempt_batch_size=BATCH,
                               backend=backend)
        unbatched = run_scenario(lab_config, [spec],
                                 duration=duration_unbatched, seed=32,
                                 attempt_batch_size=1, backend=backend)
        return batched, unbatched

    batched, unbatched = benchmark.pedantic(sweep, rounds=1, iterations=1)
    f_batched = batched.summary.average_fidelity.get("CK")
    f_unbatched = unbatched.summary.average_fidelity.get("CK")
    print(f"\nAblation — batching: fidelity batched={f_batched:.3f}, "
          f"per-attempt={f_unbatched:.3f}")
    assert f_batched is not None and f_unbatched is not None
    assert abs(f_batched - f_unbatched) < 0.05
