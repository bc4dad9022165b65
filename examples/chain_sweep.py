#!/usr/bin/env python3
"""Sweep repeater-chain topologies on the cluster path.

Runs a :func:`repro.runtime.chain_grid` — swap-ASAP repeater chains of
several lengths, each link a full MHP/EGP stack on one shared event engine —
through the sharded cluster coordinator, exactly like the single-link grids
in ``examples/cluster_sweep.py``.  The merged result carries the topology
fields: per-hop link digests (``hops``) and the end-to-end delivery
statistics (``end_to_end`` — pairs, fidelity, latency, swap count).

    python examples/chain_sweep.py                        # 3..4-node chains
    python examples/chain_sweep.py --lengths 3 4 5 --duration 2 --shards 4
    python examples/chain_sweep.py --backend analytic --out chains.json

``--smoke`` runs the CI equivalence check: the same grid executed by a
serial ``SweepRunner`` and by the sharded cluster path must merge into
field-for-field identical outcomes (same seeds, same per-hop and end-to-end
numbers, same event counts).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.cluster import ClusterCoordinator
from repro.obs import config_from_env
from repro.runtime import SweepRunner, chain_grid


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lengths", type=int, nargs="+", default=[3, 4],
                        help="chain lengths (nodes) to sweep")
    parser.add_argument("--hardware", default="Lab",
                        choices=("Lab", "QL2020"),
                        help="per-link hardware scenario")
    parser.add_argument("--load", default="Ultra",
                        choices=("Low", "High", "Ultra"),
                        help="per-link offered load")
    parser.add_argument("--duration", type=float, default=1.0,
                        help="simulated seconds per scenario")
    parser.add_argument("--shards", type=int, default=2,
                        help="number of shards to plan")
    parser.add_argument("--workers", type=int, default=None,
                        help="local worker processes (default: one per shard)")
    parser.add_argument("--seed", type=int, default=12345,
                        help="master seed (per-scenario seeds are derived)")
    parser.add_argument("--cluster-dir", default=".chain_cluster",
                        help="coordinator directory for the plan, done "
                             "records and result parts")
    parser.add_argument("--batch", type=int, default=50,
                        help="MHP attempt batch size (larger = faster)")
    parser.add_argument("--backend", default=None,
                        help="physics backend: density (exact, default) "
                             "or analytic; falls back to $REPRO_BACKEND")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: assert the sharded sweep merges "
                             "field-for-field identical to a serial sweep")
    parser.add_argument("--out", default="",
                        help="write the merged sweep result JSON here")
    return parser


def main() -> int:
    args = build_parser().parse_args()
    obs = config_from_env()
    specs = chain_grid(lengths=tuple(args.lengths),
                       hardwares=(args.hardware,), loads=(args.load,),
                       attempt_batch_size=args.batch, backend=args.backend)
    print(f"chain grid: {len(specs)} scenario(s) — "
          + ", ".join(spec.name for spec in specs))

    coordinator = ClusterCoordinator(
        specs, args.duration, args.cluster_dir, master_seed=args.seed,
        num_shards=args.shards)
    started = time.perf_counter()
    result = coordinator.run_local(workers=args.workers, reset=True,
                                   obs=obs)
    wall = time.perf_counter() - started

    print(f"\n{'scenario':<28}{'links':>6}{'e2e pairs':>10}{'fidelity':>10}"
          f"{'swaps':>7}")
    for outcome in result.outcomes:
        if not outcome.ok:
            print(f"{outcome.scenario_name:<28}error")
            continue
        e2e = outcome.end_to_end or {}
        fidelity = e2e.get("fidelity")
        print(f"{outcome.scenario_name:<28}{e2e.get('links', 0):>6}"
              f"{e2e.get('pairs', 0):>10}"
              f"{'-' if fidelity is None else format(fidelity, '.4f'):>10}"
              f"{e2e.get('swaps', 0):>7}")
    print(f"\n{len(result.completed)} ok / {len(result.failed)} failed "
          f"in {wall:.1f}s wall time")

    if args.smoke:
        serial = SweepRunner(specs, args.duration,
                             master_seed=args.seed, obs=obs).run()
        mismatches = [
            (a.scenario_name, field)
            for a, b in zip(serial.outcomes, result.outcomes)
            for field in ("scenario_name", "seed", "summary", "hops",
                          "end_to_end", "events_processed", "status")
            if getattr(a, field) != getattr(b, field)
        ]
        if mismatches:
            print(f"SMOKE FAILED: serial != sharded on {mismatches}")
            return 1
        print(f"smoke ok: serial == sharded field-for-field over "
              f"{len(specs)} chain scenario(s)")

    if args.out:
        result.save(args.out)
        print(f"merged sweep result written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
