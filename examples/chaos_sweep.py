#!/usr/bin/env python3
"""Run a chaos sweep: poison scenarios must be quarantined, nothing else.

The run-supervision acceptance check, as a CLI.  A scenario grid is swept
through the full cluster protocol under a :class:`GuardPolicy` whose
:class:`~repro.runtime.guard.ScenarioFaultPlan` (``GuardPolicy.faults``,
carried to the worker processes in the plan they fetch from the
coordinator) poisons two scenarios:

* one **hangs** — it schedules an endless stream of no-op events, so only
  the guard's deterministic event budget can stop it;
* one **crash-loops** — its worker process dies with ``os._exit(137)``
  (an OOM-killer exit) every time any worker claims it, so the failure can
  never be reported by the victim; the coordinator must infer it from
  repeated lease deaths.

The harness serves the grid from an in-process TCP coordinator
(:class:`~repro.cluster.serve.ClusterCoordinatorServer`) and keeps a fixed
number of ``python -m repro.cluster.worker`` *processes* connected to it,
respawning any the crash fault kills, until the grid completes.  It then
checks:

1. exactly the two poisoned indices are quarantined, with durable
   quarantine records naming the right status (``timeout`` / ``crash``);
2. every surviving outcome is field-for-field identical to a serial
   ``SweepRunner`` run of the same grid with the same master seed.

Exit status 0 means both hold.  The fault plan the workers ran (read back
from the sweep's ``plan.json``) and the quarantine records are written to
``--records-out`` so CI can upload them as artifacts:

    python examples/chaos_sweep.py --seed 20260808
    python examples/chaos_sweep.py --records-out chaos.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import repro.cluster
from repro.cluster import ClusterCoordinator
from repro.cluster.coordinator import ClusterPlan
from repro.cluster.serve import ClusterCoordinatorServer
from repro.obs import config_from_env
from repro.runtime import GuardPolicy, ScenarioFaultPlan, SweepRunner
from repro.runtime import single_kind_scenarios


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", default="analytic",
                        help="physics backend for the grid")
    parser.add_argument("--duration", type=float, default=0.3,
                        help="simulated seconds per scenario")
    parser.add_argument("--seed", type=int, default=20260808,
                        help="sweep master seed (scenario seeds derive "
                             "from it)")
    parser.add_argument("--hang-index", type=int, default=1,
                        help="grid index of the scenario that hangs")
    parser.add_argument("--crash-index", type=int, default=2,
                        help="grid index of the scenario that kills its "
                             "worker process")
    parser.add_argument("--max-attempts", type=int, default=2,
                        help="retry budget before quarantine")
    parser.add_argument("--max-events", type=int, default=500_000,
                        help="guard event budget (what stops the hang)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes kept alive at a time")
    parser.add_argument("--lease-timeout", type=float, default=2.0,
                        help="seconds without a heartbeat before a dead "
                             "worker's lease may be taken over")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="wall-clock budget before the harness gives "
                             "up")
    parser.add_argument("--records-out", default="",
                        help="write the fault plan and quarantine records "
                             "(JSON) here — always on failure, also on "
                             "success when set")
    return parser


def keep_workers_until_complete(coordinator: ClusterCoordinator,
                                worker_args: list[str], env: dict,
                                count: int, timeout: float) -> int:
    """Respawn up to ``count`` worker processes until the grid completes.

    Returns the number of worker deaths observed (the crash-loop scenario
    kills its claimant with exit code 137 each round until quarantined).
    """
    procs: dict[int, subprocess.Popen] = {}
    serial = deaths = 0
    deadline = time.monotonic() + timeout
    try:
        while not coordinator.is_complete():
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"chaos sweep did not complete within {timeout:.0f}s")
            for slot in range(count):
                proc = procs.get(slot)
                if proc is not None and proc.poll() is None:
                    continue
                if proc is not None:
                    print(f"[chaos] worker slot {slot} died with exit code "
                          f"{proc.returncode}; respawning")
                    deaths += 1
                serial += 1
                procs[slot] = subprocess.Popen(
                    [sys.executable, "-m", "repro.cluster.worker",
                     "--worker-id", f"chaos-w{serial}", "--cache-dir", "",
                     *worker_args],
                    env=env, stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL)
            time.sleep(0.25)
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.terminate()
        for proc in procs.values():
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
    return deaths


def run_chaos_sweep(specs, args, faults: ScenarioFaultPlan, work_dir: Path):
    """One guarded, faulted cluster sweep; returns (merged, records, the
    fault plan read back from the sweep's ``plan.json``)."""
    guard = GuardPolicy(max_events=args.max_events, wall_deadline=60.0,
                        max_attempts=args.max_attempts, faults=faults)
    coordinator = ClusterCoordinator(
        specs, args.duration, work_dir / "cluster",
        master_seed=args.seed, num_shards=args.workers,
        lease_timeout=args.lease_timeout, guard=guard)
    # The workers import the same package as this process, wherever the
    # example is run from.  ``repro`` is a namespace package (no
    # ``__file__``), so the source root comes from one of its modules.
    source = str(Path(repro.cluster.__file__).resolve().parents[2])
    pythonpath = os.pathsep.join(
        entry for entry in (source, os.environ.get("PYTHONPATH")) if entry)
    env = dict(os.environ, PYTHONPATH=pythonpath)

    server = ClusterCoordinatorServer(coordinator)
    server.start_background()
    try:
        deaths = keep_workers_until_complete(
            coordinator, ["--coordinator", server.address], env,
            args.workers, args.timeout)
    finally:
        server.stop()

    records = coordinator.quarantine_records()
    print(f"[chaos] {deaths} worker death(s), {len(records)} quarantine "
          f"record(s)")
    ran = ClusterPlan.load(coordinator.cluster_dir).guard_policy().faults
    return coordinator.merge(), records, ran


def check_sweep(merged, records, serial, args) -> list[str]:
    """Acceptance checks; returns failure descriptions."""
    poisoned = {args.hang_index: "timeout", args.crash_index: "crash"}
    failures = []
    quarantined = sorted(index for index, outcome in enumerate(merged.outcomes)
                         if outcome.status == "quarantined")
    if quarantined != sorted(poisoned):
        failures.append(f"quarantined indices {quarantined}, "
                        f"expected {sorted(poisoned)}")
    by_index = {record.index: record for record in records}
    for index, status in poisoned.items():
        record = by_index.get(index)
        if record is None:
            failures.append(f"no durable quarantine record for "
                            f"index {index}")
        elif record.status != status:
            failures.append(f"index {index} quarantined as "
                            f"[{record.status}], expected [{status}]")
    survivors = [outcome for index, outcome in enumerate(merged.outcomes)
                 if index not in poisoned]
    expected = [outcome for index, outcome in enumerate(serial.outcomes)
                if index not in poisoned]
    if survivors != expected:
        failures.append("surviving outcomes diverged from the serial "
                        "sweep")
    return failures


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    specs = single_kind_scenarios(
        "Lab", kinds=("NL", "CK", "MD"), loads=("Low", "High"),
        max_pairs_options=(1,), origins=("A",), include_md_k255=False,
        attempt_batch_size=40, backend=args.backend)
    for index in (args.hang_index, args.crash_index):
        if not 0 <= index < len(specs):
            raise SystemExit(f"poison index {index} outside the "
                             f"{len(specs)}-scenario grid")
    faults = ScenarioFaultPlan(
        hang=frozenset({specs[args.hang_index].name}),
        crash=frozenset({specs[args.crash_index].name}))
    print(f"[chaos] {len(specs)} scenarios; hang={specs[args.hang_index].name} "
          f"crash={specs[args.crash_index].name} "
          f"(budget {args.max_attempts} attempt(s))")

    serial = SweepRunner(specs, args.duration, master_seed=args.seed,
                         obs=config_from_env()).run()

    with tempfile.TemporaryDirectory(prefix="chaos-sweep-") as tmp:
        merged, records, ran = run_chaos_sweep(specs, args, faults,
                                               Path(tmp))
    failures = check_sweep(merged, records, serial, args)
    for problem in failures:
        print(f"[chaos] FAIL: {problem}", file=sys.stderr)
    if not failures:
        print(f"[chaos] exactly {{{args.hang_index}, {args.crash_index}}} "
              f"quarantined, survivors identical to serial -- OK")

    if args.records_out or failures:
        out = Path(args.records_out or "chaos_records.json")
        out.write_text(json.dumps(
            {"seed": args.seed, "fault_plan": ran.to_dict(),
             "failures": failures,
             "quarantine_records": [record.to_dict()
                                    for record in records]}, indent=2))
        print(f"[chaos] fault plan and quarantine records written to {out}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
