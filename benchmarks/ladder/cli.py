"""Command line of the ladder.

``--workload W --seed N --seconds S --trace 0|1``
    Measure one workload: fresh-process repetitions while the next one
    should end within ``S`` seconds (at least :data:`MIN_REPS`), or with
    ``--trace 1`` one untraced and one traced repetition.  Prints every
    metric, then one JSON line with ``correct``, ``attempted``, ``failed``
    and ``metrics``.
``run [--seed N] [--out FILE]``
    The full ladder: :data:`DEFAULT_K` untraced rounds over all workloads,
    round-robin, then one traced round; writes the record to ``FILE``.
``compare BASE.json NEW.json``
    Verdict per workload and end-to-end metric, exact-count differences.

Every command exits nonzero when an output is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from benchmarks.ladder import harness
from benchmarks.ladder.compare import main as compare_main
from benchmarks.ladder.metrics import (
    END_TO_END,
    FAILED_FRAC,
    PER_LAYER,
    PREDICTIONS,
)
from benchmarks.ladder.rep import run_rep
from benchmarks.ladder.workloads import WORKLOADS

DEFAULT_SEED = 12345
DEFAULT_K = 5
#: Fewest untraced repetitions behind a reported median.
MIN_REPS = 2
#: A measurement starts no repetition that would likely end past this many
#: seconds, however few it has.
MEASURE_LIMIT = 150.0


def _print_metrics(name: str, metrics: dict) -> None:
    for metric, entry in metrics.items():
        print(f"{name:14s} {metric:32s} {entry['value']:>16.6g} "
              f"{entry['unit']}")


# --------------------------------------------------------------------------- #
# One workload (the form BENCHMARK.json names)
# --------------------------------------------------------------------------- #
def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    started = time.monotonic()
    reference = harness.load_reference(seed)
    traced = None
    reps: list[dict] = []
    if trace:
        reps.append(harness.spawn_rep(name, seed, traced=False))
        traced = harness.spawn_rep(name, seed, traced=True)
    else:
        while True:
            reps.append(harness.spawn_rep(name, seed, traced=False))
            elapsed = time.monotonic() - started
            if reps[-1].get("crashed"):
                break
            next_ends = elapsed * (len(reps) + 1) / len(reps)
            if next_ends > MEASURE_LIMIT:
                break
            if len(reps) >= MIN_REPS and next_ends > seconds:
                break
    result = harness.fold(name, reps, traced, reference)
    metrics = {}
    if trace and "per_layer" in result:
        metrics = {metric.name: {"value": result["per_layer"][metric.name],
                                 "unit": metric.unit}
                   for metric in PER_LAYER}
    elif not trace and "end_to_end" in result:
        metrics = {metric.name: {
            "value": result["end_to_end"][metric.name]["median"],
            "unit": metric.unit} for metric in END_TO_END}
    correct = result["correct"] and bool(metrics)
    for problem in result["problems"]:
        print(f"{name}: {problem}", file=sys.stderr)
    _print_metrics(name, metrics)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


# --------------------------------------------------------------------------- #
# The full ladder
# --------------------------------------------------------------------------- #
def machine_provenance(seed: int, k: int) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=harness.ROOT,
            capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "platform": platform.platform(), "commit": commit,
            "seed": seed, "k": k, "child_env": harness.CHILD_ENV,
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def definition() -> dict:
    return {
        "workloads": {name: {"why": cls.why, "params": cls.params}
                      for name, cls in WORKLOADS.items()},
        "end_to_end": [vars(metric) for metric in END_TO_END + (FAILED_FRAC,)],
        "per_layer": [vars(metric) for metric in PER_LAYER],
        "predictions": list(PREDICTIONS),
    }


def run_ladder(seed: int, k: int, out: Optional[str]) -> int:
    names = list(WORKLOADS)
    reference = harness.load_reference(seed)
    reps: dict[str, list[dict]] = {name: [] for name in names}
    started = time.monotonic()
    for round_index in range(k):
        for name in names:
            rep = harness.spawn_rep(name, seed, traced=False)
            reps[name].append(rep)
            status = ("CRASHED" if rep.get("crashed")
                      else f"{rep['wall_s']:.3f}s")
            print(f"[{time.monotonic() - started:6.1f}s] round "
                  f"{round_index + 1}/{k} {name}: {status}", file=sys.stderr)
    traced = {}
    for name in names:
        traced[name] = harness.spawn_rep(name, seed, traced=True)
        print(f"[{time.monotonic() - started:6.1f}s] traced {name}",
              file=sys.stderr)
    workloads = {name: harness.fold(name, reps[name], traced[name], reference)
                 for name in names}
    # grid-tcp and grid-resume run the same grid, seeds and duration, one
    # solo and one through cohorts: their outcomes must agree.
    tcp, resume = workloads.get("grid-tcp"), workloads.get("grid-resume")
    if tcp and resume and tcp["digest"] != resume["digest"]:
        for result in (tcp, resume):
            result["problems"].append(
                "grid-tcp and grid-resume digests differ")
            result.update(correct=False, failed=result["attempted"],
                          failed_frac=1.0)
    record = {"format": "ladder/v1", "seed": seed, "k": k,
              "provenance": machine_provenance(seed, k),
              "definition": definition(), "workloads": workloads,
              "correct": all(r["correct"] for r in workloads.values())}

    for name, result in workloads.items():
        for problem in result["problems"]:
            print(f"{name}: {problem}", file=sys.stderr)
        for metric in END_TO_END:
            entry = result.get("end_to_end", {}).get(metric.name)
            if entry is not None:
                print(f"{name:14s} {metric.name:32s} {entry['median']:>16.6g} "
                      f"{metric.unit:6s} [q1 {entry['q1']:.6g}, "
                      f"q3 {entry['q3']:.6g}, n={entry['n']}]")
        print(f"{name:14s} {'failed_frac':32s} {result['failed_frac']:>16.6g} "
              f"ratio")
        per_layer = result.get("per_layer", {})
        _print_metrics(name, {metric.name: {"value": per_layer[metric.name],
                                            "unit": metric.unit}
                              for metric in PER_LAYER
                              if metric.name in per_layer})
    if out:
        Path(out).write_text(json.dumps(record, indent=1) + "\n")
        print(f"record written to {out}", file=sys.stderr)
    print("ladder " + ("correct" if record["correct"] else "INCORRECT"),
          file=sys.stderr)
    return 0 if record["correct"] else 1


# --------------------------------------------------------------------------- #
# Argument parsing
# --------------------------------------------------------------------------- #
def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and not argv[0].startswith("-") else "measure"
    if command == "compare":
        return compare_main(argv[1:])
    if not (harness.ROOT / "src" / "repro").is_dir():
        print("benchmarks.ladder: src/repro is missing from this checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS)
    if command == "rep":
        parser = argparse.ArgumentParser(prog="ladder rep")
        parser.add_argument("--workload", required=True, choices=names)
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        parser.add_argument("--workdir", required=True)
        parser.add_argument("--spawned-ns", type=int, required=True)
        args = parser.parse_args(argv[1:])
        record = run_rep(WORKLOADS[args.workload](), args.seed,
                         Path(args.workdir), bool(args.trace),
                         args.spawned_ns)
        print(json.dumps(record))
        return 0
    if command == "run":
        parser = argparse.ArgumentParser(prog="ladder run")
        parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
        parser.add_argument("--out", default=None)
        args = parser.parse_args(argv[1:])
        return run_ladder(args.seed, DEFAULT_K, args.out)
    if command != "measure":
        print(f"unknown command {command!r}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(prog="ladder")
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))
