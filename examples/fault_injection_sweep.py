#!/usr/bin/env python3
"""Run a seeded fault-injection sweep and check it merges identical to serial.

The protocol-hardening acceptance check, as a CLI: three workers execute a
scenario grid through :class:`~repro.cluster.faults.FaultyTransport`
wrappers that drop, duplicate, reset, delay and stale-replay their protocol
operations, and one worker crashes mid-scenario at a scheduled claim — then
the merged result is compared field-for-field against a serial
``SweepRunner`` run of the same grid.  The workers reach the coordinator's
state over TCP (``socket``: a ``ClusterCoordinatorServer``) or in process
(``local``: a ``LocalTransport``).  Exit status 0 means identical; on a
mismatch the failing seed and the consumed fault schedules are printed and
written to ``--schedule-out`` so the run can be replayed exactly:

    python examples/fault_injection_sweep.py --seed 20260808
    python examples/fault_injection_sweep.py --transport socket --seed 7
    python examples/fault_injection_sweep.py --transport both \
        --seed $RANDOM --schedule-out fault_schedule.json

Every fault decision is a pure function of ``(seed, operation, nth call)``,
so a failure reproduces from the seed alone regardless of timing.  The
crashed worker's leases are expired by stepping the coordinator's clock an
hour ahead, not by waiting out the lease timeout.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.cluster import (
    ClusterCoordinator,
    ClusterWorker,
    FaultSchedule,
    FaultyTransport,
    InjectedWorkerCrash,
    LocalTransport,
    TransportError,
)
from repro.cluster.serve import ClusterCoordinatorServer
from repro.obs import config_from_env
from repro.runtime import SweepRunner, single_kind_scenarios


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=20260808,
                        help="fault-schedule seed (worker schedules derive "
                             "from it); the one number needed to replay")
    parser.add_argument("--transport", default="both",
                        choices=("local", "socket", "both"),
                        help="transport(s) to run the faulted sweep over")
    parser.add_argument("--backend", default="analytic",
                        help="physics backend for the grid")
    parser.add_argument("--duration", type=float, default=0.05,
                        help="simulated seconds per scenario")
    parser.add_argument("--master-seed", type=int, default=77,
                        help="sweep master seed (scenario seeds derive "
                             "from it)")
    parser.add_argument("--drop", type=float, default=0.1,
                        help="per-delivery drop probability")
    parser.add_argument("--reset", type=float, default=0.1,
                        help="per-delivery connection-reset probability")
    parser.add_argument("--duplicate", type=float, default=0.1,
                        help="per-delivery duplication probability")
    parser.add_argument("--replay", type=float, default=0.05,
                        help="per-delivery stale-replay probability")
    parser.add_argument("--schedule-out", default="",
                        help="write the consumed fault schedules (JSON) "
                             "here — always on mismatch, also on success "
                             "when set")
    return parser


def worker_schedules(args: argparse.Namespace) -> list[FaultSchedule]:
    """Three derived schedules: a crasher and two chaotic peers."""
    return [
        FaultSchedule(seed=args.seed, drop=args.drop,
                      duplicate=args.duplicate, crash_op="claim",
                      crash_call=2, crash_mode="after"),
        FaultSchedule(seed=args.seed + 1, drop=args.drop, reset=args.reset,
                      duplicate=args.duplicate, replay=args.replay,
                      delay=0.2, delay_seconds=0.001),
        FaultSchedule(seed=args.seed + 2, drop=args.drop, reset=args.reset,
                      duplicate=args.duplicate, replay=args.replay),
    ]


class SteppedClock:
    """The coordinator's clock: wall time plus the seconds skipped ahead to
    expire a crashed worker's leases."""

    def __init__(self) -> None:
        self.skipped = 0.0

    def __call__(self) -> float:
        return time.time() + self.skipped


def run_faulted_sweep(specs, args, transport_kind: str, work_dir: Path,
                      obs=None):
    """Drive three faulted workers over one front-end; returns the merged
    result and the consumed schedules."""
    coordinator = ClusterCoordinator(
        specs, args.duration, work_dir / f"cluster-{transport_kind}",
        master_seed=args.master_seed, num_shards=3, lease_timeout=120.0)
    clock = SteppedClock()
    server = None
    if transport_kind == "socket":
        server = ClusterCoordinatorServer(coordinator, clock=clock)
        server.start_background()
    else:
        coordinator.write_plan()

    def make_transport(schedule):
        if transport_kind == "socket":
            return FaultyTransport.over_socket(server.address, schedule,
                                               retry_delay=0.0)
        return FaultyTransport(LocalTransport(coordinator.state, clock),
                               schedule, retry_delay=0.0)

    schedules = worker_schedules(args)
    workers = [ClusterWorker(make_transport(schedule), f"w{i}", shard=i,
                             cache_dir=None, obs=obs)
               for i, schedule in enumerate(schedules)]
    crashed = set()
    try:
        for _ in range(2000):
            progressed = False
            for position, worker in enumerate(workers):
                if position in crashed:
                    continue
                try:
                    if worker.step() is not None:
                        progressed = True
                except InjectedWorkerCrash as crash:
                    print(f"[faults] worker {position} died: {crash}")
                    crashed.add(position)
                    progressed = True
                except TransportError:
                    progressed = True  # injected outage burst; retry
            if coordinator.is_complete():
                break
            if not progressed:
                if not coordinator.status(clock())["total"]["leased"]:
                    raise RuntimeError("no progress and no lease to "
                                       "expire: protocol deadlock")
                clock.skipped += 3600.0
        else:
            raise RuntimeError("faulted sweep did not complete")
    finally:
        for worker in workers:
            worker.close()
        if server is not None:
            server.stop()

    injected = sum(len(schedule.injected) for schedule in schedules)
    print(f"[faults] {transport_kind}: {injected} fault(s) injected, "
          f"{len(crashed)} worker crash(es)")
    return coordinator.merge(), schedules


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    specs = single_kind_scenarios(
        "Lab", kinds=("NL", "CK", "MD"), loads=("Low", "High"),
        max_pairs_options=(1, 3), origins=("A", "B"),
        include_md_k255=False, attempt_batch_size=40, backend=args.backend)
    print(f"[faults] seed {args.seed}: {len(specs)} scenarios over "
          f"{args.transport} transport(s)")
    obs = config_from_env()
    serial = SweepRunner(specs, args.duration,
                         master_seed=args.master_seed, obs=obs).run()

    kinds = (["local", "socket"] if args.transport == "both"
             else [args.transport])
    failures = []
    consumed = {}
    with tempfile.TemporaryDirectory(prefix="fault-sweep-") as tmp:
        for kind in kinds:
            merged, schedules = run_faulted_sweep(specs, args, kind,
                                                  Path(tmp), obs)
            consumed[kind] = [schedule.to_dict() for schedule in schedules]
            if merged == serial:
                print(f"[faults] {kind}: merged result identical to serial "
                      f"({len(merged.outcomes)} outcomes) -- OK")
            else:
                failures.append(kind)
                print(f"[faults] {kind}: MISMATCH against serial sweep",
                      file=sys.stderr)

    if args.schedule_out or failures:
        out = Path(args.schedule_out or "fault_schedule.json")
        out.write_text(json.dumps(
            {"seed": args.seed, "transports": kinds, "failures": failures,
             "schedules": consumed}, indent=2))
        print(f"[faults] consumed schedules written to {out}")
    if failures:
        print(f"[faults] FAILED on {failures}; replay with "
              f"--seed {args.seed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
