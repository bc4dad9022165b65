"""Repeater-chain scaling: simulation throughput vs chain length.

A :class:`repro.topology.TopologyRun` puts one full MHP/EGP link stack per
link on a single shared event engine, so an N-node chain is (N-1) interleaved
link simulations plus the swap-ASAP controller.  This benchmark sweeps chain
lengths and records how engine throughput (events/sec of wall-clock) holds up
as links are added — the per-event cost should stay roughly flat (the engine
is O(1) amortised per event; the links are independent), with total
wall-clock growing linearly in links.

Emits ``BENCH_bench_chain_scaling.json`` with events/sec and end-to-end
delivery counts per chain length.
"""

from __future__ import annotations

import time

from benchmarks.conftest import BATCH, print_table, record_perf, scaled

#: Chain lengths (nodes) to sweep; 2 nodes is the single-link baseline.
CHAIN_LENGTHS = (2, 3, 4, 5)


def test_chain_length_scaling():
    from repro.backends import get_backend
    from repro.runtime.scenarios import chain_grid

    duration = scaled(2.0)
    rows = []
    events_per_second = {}
    pairs_delivered = {}
    baseline_rate = None
    # One backend for every length: each link config's table is built once.
    backend = get_backend()
    for num_nodes in CHAIN_LENGTHS:
        spec = chain_grid(lengths=(num_nodes,), loads=("Ultra",),
                          attempt_batch_size=BATCH)[0]
        started = time.perf_counter()
        result = spec.run(duration, seed=7, backend=backend)
        wall = time.perf_counter() - started
        rate = result.events_processed / wall if wall > 0 else 0.0
        if baseline_rate is None:
            baseline_rate = rate
        e2e = result.end_to_end or {}
        events_per_second[num_nodes] = round(rate)
        pairs_delivered[num_nodes] = e2e.get("pairs", 0)
        rows.append([num_nodes, num_nodes - 1, result.events_processed,
                     f"{wall:.2f}", round(rate),
                     f"{rate / baseline_rate:.2f}x",
                     e2e.get("pairs", 0),
                     "-" if e2e.get("fidelity") is None
                     else f"{e2e['fidelity']:.3f}"])
        assert result.events_processed > 0
    print_table(
        f"Chain scaling ({duration:.1f}s simulated, Lab, Ultra load)",
        ["nodes", "links", "events", "wall (s)", "events/s", "rel rate",
         "e2e pairs", "e2e F"],
        rows)
    record_perf("bench_chain_scaling", "test_chain_length_scaling",
                simulated_seconds=duration,
                chain_lengths=list(CHAIN_LENGTHS),
                events_per_second=events_per_second,
                e2e_pairs=pairs_delivered)
