"""Spawning repetitions and folding them into per-workload results.

Every repetition runs in a fresh child process, one child at a time, so
process-level caches start empty as they do for a user's one-shot run and
the load never exceeds one busy simulation thread.  Children get a scrubbed
environment: nothing in it may pick a backend, an engine, observability,
injected faults or a benchmark scale behind the spec's back.
"""

from __future__ import annotations

import collections
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

from benchmarks.ladder import stats
from benchmarks.ladder.metrics import (
    END_TO_END,
    end_to_end_values,
    per_layer_values,
)

#: The checkout this benchmark lives in.
ROOT = Path(__file__).resolve().parents[2]
REFERENCE = Path(__file__).with_name("reference.json")
#: Seconds a child may run before it is killed and counted as crashed.  The
#: slowest repetition, a traced one, takes about 15 s; at 60 s a hung child
#: still leaves a single-workload measurement inside three minutes.
REP_TIMEOUT = 60.0

SCRUBBED = ("REPRO_BACKEND", "REPRO_ENGINE", "REPRO_SCENARIO_FAULTS")
SCRUBBED_PREFIXES = ("REPRO_OBS", "REPRO_BENCH_")
#: Pinned in every child: string hashing, and single-threaded BLAS so a
#: child never has more busy threads than the simulation's own.
CHILD_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = {key: value for key, value in os.environ.items()
           if key not in SCRUBBED and not key.startswith(SCRUBBED_PREFIXES)}
    env.update(CHILD_ENV)
    return env


def spawn_rep(name: str, seed: int, traced: bool) -> dict:
    """Run one repetition in a fresh interpreter and return its record.

    Its caches and cluster directories go to a scratch directory inside the
    checkout, so the benchmark writes nowhere else, and the directory is
    removed when the child has ended.
    """
    workdir = Path(tempfile.mkdtemp(prefix=f".ladder-{name}-", dir=ROOT))
    command = [sys.executable, str(Path(__file__).with_name("__main__.py")),
               "rep", "--workload", name, "--seed", str(seed),
               "--trace", str(int(traced)), "--workdir", str(workdir),
               "--spawned-ns"]
    try:
        process = subprocess.run(
            command + [str(time.monotonic_ns())], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=REP_TIMEOUT)
    except subprocess.TimeoutExpired:
        return _crashed(name, seed, traced,
                        f"timed out after {REP_TIMEOUT:.0f}s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = process.stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        tail = "\n".join(process.stderr.strip().splitlines()[-15:])
        return _crashed(name, seed, traced,
                        f"exit code {process.returncode}: {tail}")
    return json.loads(lines[-1])


def _crashed(name: str, seed: int, traced: bool, error: str) -> dict:
    return {"workload": name, "seed": seed, "traced": traced,
            "crashed": True, "error": error}


def load_reference(seed: int) -> Optional[dict]:
    """Pinned digests, when ``seed`` is the seed they were recorded at."""
    reference = json.loads(REFERENCE.read_text())
    return reference["digests"] if reference["seed"] == seed else None


def fold(name: str, reps: list[dict], traced: Optional[dict] = None,
         reference: Optional[dict] = None) -> dict:
    """Fold one workload's repetitions into its result.

    A repetition is bad when it crashed, reported a problem (a scenario not
    ok, a failed workload check) or disagrees on the digest; every scenario
    of a bad repetition counts as failed.  The expected digest is the
    reference's when one is pinned for this workload and seed, else the
    most common one.
    """
    every = reps + ([traced] if traced is not None else [])
    finished = [rep for rep in every if not rep.get("crashed")]
    digests = collections.Counter(rep["digest"] for rep in finished)
    expected = None if reference is None else reference.get(name)
    if expected is None and digests:
        expected = digests.most_common(1)[0][0]
    size = max((rep["scenarios"] for rep in finished), default=1)
    problems: list[str] = []
    attempted = failed = 0
    for rep in every:
        label = "traced repetition" if rep["traced"] else "repetition"
        attempted += rep.get("scenarios", size)
        if rep.get("crashed"):
            problems.append(f"{label} crashed: {rep['error']}")
            failed += size
            continue
        issues = list(rep["problems"])
        if rep["digest"] != expected:
            issues.append(f"digest {rep['digest'][:12]} != expected "
                          f"{str(expected)[:12]}")
        if issues:
            problems += [f"{label}: {issue}" for issue in issues]
            failed += rep["scenarios"]
    good = [rep for rep in reps if not rep.get("crashed")]
    result = {
        "workload": name,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "problems": problems,
        "digest": expected,
        "reps": reps,
    }
    if good:
        values = [end_to_end_values(rep) for rep in good]
        result["end_to_end"] = {
            metric.name: {"unit": metric.unit,
                          **stats.summarize([v[metric.name] for v in values])}
            for metric in END_TO_END}
        result["provenance"] = good[0]["provenance"]
        if traced is not None and not traced.get("crashed"):
            wall = stats.median([rep["wall_s"] for rep in good])
            result["per_layer"] = per_layer_values(traced, wall)
    if traced is not None:
        result["traced"] = traced
    return result
