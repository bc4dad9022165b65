#!/usr/bin/env python3
"""Run a scenario grid through the parallel sweep engine.

By default this runs a 12-scenario single-kind sub-grid of the paper's
Section-6.2 long runs on 2 local worker processes with a resume cache, then
prints a per-scenario metrics table.  The full 169-scenario paper grid is one
flag away (expect a long run at realistic durations):

    python examples/sweep_grid.py                       # quick sub-grid
    python examples/sweep_grid.py --workers 4 --duration 1.0
    python examples/sweep_grid.py --paper-grid --duration 120 --out grid.json

Interrupt a sweep and re-run the same command: cached scenarios are skipped
and only the remainder is simulated.  Results are deterministic in the master
seed regardless of worker count.
"""

from __future__ import annotations

import argparse
import time

from repro.obs import config_from_env
from repro.runtime import SweepRunner, paper_grid, single_kind_scenarios


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hardware", default="Lab",
                        choices=("Lab", "QL2020"),
                        help="hardware scenario for the sub-grid")
    parser.add_argument("--duration", type=float, default=0.4,
                        help="simulated seconds per scenario")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes")
    parser.add_argument("--seed", type=int, default=12345,
                        help="master seed (per-scenario seeds are derived)")
    parser.add_argument("--cache-dir", default=".sweep_cache",
                        help="resume cache directory ('' disables caching)")
    parser.add_argument("--paper-grid", action="store_true",
                        help="run the full 169-scenario paper grid")
    parser.add_argument("--batch", type=int, default=50,
                        help="MHP attempt batch size (larger = faster)")
    parser.add_argument("--backend", default=None,
                        help="physics backend: density (exact, default) "
                             "or analytic (closed-form fast path); falls "
                             "back to $REPRO_BACKEND")
    parser.add_argument("--out", default="",
                        help="write the sweep result JSON to this path")
    return parser


def main() -> None:
    args = build_parser().parse_args()
    if args.paper_grid:
        specs = paper_grid(attempt_batch_size=args.batch,
                           backend=args.backend)
    else:
        specs = single_kind_scenarios(
            args.hardware, kinds=("NL", "CK", "MD"), loads=("Low", "High"),
            max_pairs_options=(1,), origins=("A", "B"),
            include_md_k255=False, attempt_batch_size=args.batch,
            backend=args.backend)
    print(f"Sweeping {len(specs)} scenarios x {args.duration:.2f} simulated "
          f"seconds on {args.workers} worker(s), master seed {args.seed}, "
          f"backend {specs[0].backend_name()}")

    done = 0

    def progress(outcome) -> None:
        nonlocal done
        done += 1
        tag = "cached" if outcome.from_cache else (
            "ok" if outcome.ok else "FAILED")
        print(f"  [{done:>3}/{len(specs)}] {outcome.scenario_name:<40} {tag}")

    runner = SweepRunner(specs, duration=args.duration,
                         master_seed=args.seed, workers=args.workers,
                         cache_dir=args.cache_dir or None,
                         on_outcome=progress, obs=config_from_env())
    started = time.perf_counter()
    result = runner.run()
    wall = time.perf_counter() - started

    print(f"\n{'scenario':<40}{'status':<8}{'pairs':>6}{'T (1/s)':>9}"
          f"{'avg F':>7}{'RL (s)':>8}")
    for outcome in result.outcomes:
        if not outcome.ok:
            print(f"{outcome.scenario_name:<40}{'error':<8}")
            continue
        summary = outcome.summary
        pairs = sum(summary.pairs_delivered.values())
        fidelities = summary.average_fidelity.values()
        fidelity = (f"{sum(fidelities) / len(fidelities):.3f}"
                    if fidelities else "-")
        latencies = summary.average_request_latency.values()
        latency = (f"{sum(latencies) / len(latencies):.3f}"
                   if latencies else "-")
        print(f"{outcome.scenario_name:<40}{'ok':<8}{pairs:>6}"
              f"{summary.throughput_total():>9.2f}{fidelity:>7}{latency:>8}")

    cached = sum(outcome.from_cache for outcome in result.outcomes)
    print(f"\n{len(result.completed)} ok / {len(result.failed)} failed / "
          f"{cached} from cache in {wall:.1f}s wall time")
    if args.cache_dir:
        # Distinguishes plain misses from entries that exist but were
        # skipped (different CACHE_VERSION, different backend, corrupt),
        # with the reason per scenario.
        print(runner.cache_report().describe())
    if args.out:
        result.save(args.out)
        print(f"sweep result written to {args.out}")


if __name__ == "__main__":
    main()
