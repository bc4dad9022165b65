#!/usr/bin/env python3
"""Run a scenario grid as a sharded cluster sweep with work stealing.

The coordinator deals the grid round-robin into shards (shard ``s`` of
``n`` is the scenarios ``s, s + n, ...``), writes the plan into
``--cluster-dir``, and runs local worker
processes through the same TCP protocol real multi-machine deployments
use.  Results stream through per-worker JSONL parts and merge
into a canonical sweep result that is field-for-field identical to a serial
``SweepRunner`` run:

    python examples/cluster_sweep.py                        # quick sub-grid
    python examples/cluster_sweep.py --shards 4 --workers 4
    python examples/cluster_sweep.py --paper-grid --backend analytic \
        --duration 30 --shards 8 --out grid.json

Worker processes reach the coordinator over TCP: ``run_local`` binds a
``ClusterCoordinatorServer`` on an ephemeral ``127.0.0.1`` port.  Across
machines, run the same coordinator as a service and one worker per machine
(see the README's cluster-architecture section):

    python -m repro.cluster.serve --port 7766 --paper-grid ...
    python -m repro.cluster.worker --coordinator <host>:7766

Re-planning the same grid into the same directory resumes it (a new shard
count does not make it a "different" sweep); planning a genuinely
different sweep there needs ``--reset`` or a fresh ``--cluster-dir``.
"""

from __future__ import annotations

import argparse
import time

from repro.cluster import ClusterCoordinator
from repro.obs import config_from_env
from repro.runtime import paper_grid, single_kind_scenarios


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hardware", default="Lab",
                        choices=("Lab", "QL2020"),
                        help="hardware scenario for the sub-grid")
    parser.add_argument("--duration", type=float, default=0.4,
                        help="simulated seconds per scenario")
    parser.add_argument("--shards", type=int, default=3,
                        help="number of shards to plan")
    parser.add_argument("--workers", type=int, default=None,
                        help="local worker processes (default: one per shard)")
    parser.add_argument("--seed", type=int, default=12345,
                        help="master seed (per-scenario seeds are derived)")
    parser.add_argument("--cluster-dir", default=".sweep_cluster",
                        help="coordinator directory for the plan, done "
                             "records and result parts")
    parser.add_argument("--cache-dir", default="",
                        help="resume-cache directory the local workers "
                             "share ('' disables)")
    parser.add_argument("--paper-grid", action="store_true",
                        help="run the full 169-scenario paper grid")
    parser.add_argument("--batch", type=int, default=50,
                        help="MHP attempt batch size (larger = faster)")
    parser.add_argument("--backend", default=None,
                        help="physics backend: density (exact, default) "
                             "or analytic (closed-form fast path); falls "
                             "back to $REPRO_BACKEND")
    parser.add_argument("--reset", action="store_true",
                        help="discard state a previous (different) sweep "
                             "left in --cluster-dir")
    parser.add_argument("--merge-only", action="store_true",
                        help="skip execution and merge existing parts")
    parser.add_argument("--out", default="",
                        help="write the merged sweep result JSON here")
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

    coordinator = ClusterCoordinator(
        specs, args.duration, args.cluster_dir, master_seed=args.seed,
        num_shards=args.shards, cache_dir=args.cache_dir or None)
    plan = coordinator.cluster_plan()
    print(f"Planned {len(specs)} scenarios x {args.duration:.2f} simulated "
          f"seconds into {plan.num_shards} shard(s), backend "
          f"{specs[0].backend_name()}")
    for shard_id in range(plan.num_shards):
        print(f"  shard {shard_id}: {len(plan.shard(shard_id)):>3} "
              f"scenario(s)")

    started = time.perf_counter()
    if args.merge_only:
        result = coordinator.merge()
    else:
        result = coordinator.run_local(workers=args.workers,
                                       reset=args.reset,
                                       obs=config_from_env())
    wall = time.perf_counter() - started

    print(f"\n{'scenario':<40}{'status':<8}{'pairs':>6}{'T (1/s)':>9}")
    for outcome in result.outcomes[:20]:
        if not outcome.ok:
            print(f"{outcome.scenario_name:<40}{'error':<8}")
            continue
        pairs = sum(outcome.summary.pairs_delivered.values())
        print(f"{outcome.scenario_name:<40}{'ok':<8}{pairs:>6}"
              f"{outcome.summary.throughput_total():>9.2f}")
    if len(result.outcomes) > 20:
        print(f"... ({len(result.outcomes) - 20} more)")

    status = coordinator.status()
    print(f"\n{len(result.completed)} ok / {len(result.failed)} failed "
          f"across {status['scenarios']} scenarios in {wall:.1f}s wall time")
    if args.out:
        result.save(args.out)
        print(f"merged sweep result written to {args.out}")


if __name__ == "__main__":
    main()
