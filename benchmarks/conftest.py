"""Shared helpers for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper's
evaluation section.  Benchmarks print the reproduced rows/series so that the
output can be compared side-by-side with the paper, and use pytest-benchmark
to time a representative slice of the underlying simulation.

Environment knobs:

``REPRO_BENCH_SCALE``
    Multiplier on the simulated duration of every run (default 1.0).  Use a
    larger value for tighter statistics, a smaller one for a quick smoke run.
``REPRO_BACKEND``
    Physics backend every benchmark runs under (``density`` by default,
    ``analytic`` for the closed-form fast path) — the knob is read by the
    runtime layer, so it applies to every ``spec.run`` / ``run_scenario``
    call in the benchmark modules.
``REPRO_BENCH_JSON_DIR``
    Directory the machine-readable perf records are written to (default:
    current working directory).  One ``BENCH_<module>.json`` file per
    benchmark module tracks wall-clock per test, events/sec where the
    benchmark reports it, and the backend its timed runs used — the perf
    trajectory across changes.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from pathlib import Path

import pytest

#: Scale factor applied to simulated durations.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Batch size used for batched attempt generation in benchmarks.  One GEN /
#: REPLY exchange covers this many MHP cycles (Section 5.1 batched operation).
BATCH = 100


def bench_backend() -> str:
    """The physics backend benchmarks run under (``REPRO_BACKEND``)."""
    from repro.backends import default_backend_name

    return default_backend_name()


def scaled(duration: float) -> float:
    """Simulated duration adjusted by the benchmark scale factor."""
    return max(duration * SCALE, 0.2)


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Print a small aligned table of reproduced results."""
    print(f"\n=== {title} ===")
    widths = [max(len(str(header)), max((len(str(row[i])) for row in rows),
                                        default=0))
              for i, header in enumerate(headers)]
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))


# --------------------------------------------------------------------------- #
# Machine-readable perf records (BENCH_<module>.json)
# --------------------------------------------------------------------------- #
#: module name -> test name -> record dict.
_PERF_RECORDS: dict[str, dict[str, dict]] = defaultdict(dict)


def _records() -> dict[str, dict[str, dict]]:
    """The shared perf-record store.

    pytest imports ``conftest.py`` under its own module name while the
    benchmark modules import ``benchmarks.conftest`` — two module objects.
    Always resolve through the canonical import so both sides write into the
    same dict.
    """
    try:
        from benchmarks.conftest import _PERF_RECORDS as shared
        return shared
    except ImportError:  # pragma: no cover - canonical import unavailable
        return _PERF_RECORDS


def record_perf(module: str, test: str, **fields) -> None:
    """Attach extra perf fields (e.g. ``events_per_second``) to a test record.

    Benchmarks call this with whatever throughput figures they can compute;
    wall-clock is recorded automatically for every test.  A benchmark that
    picks its backend itself passes it as ``backend=``; the module's record
    then names that backend instead of the process default
    (``REPRO_BACKEND``).
    """
    _records()[module].setdefault(test, {}).update(fields)


def run_table1_slice(duration: float, backend=None) -> tuple[dict, int]:
    """The Table-1 scheduling slice (QL2020, batched attempts).

    Shared by ``bench_table1_scheduling`` and ``bench_backend_fastpath`` so
    the fast-path speedup comparison always measures exactly the workload
    the scheduling benchmark reports.  Returns scenario-name -> summary and
    the total number of simulation events processed.
    """
    from repro.runtime.scenarios import table1_scenarios

    summaries = {}
    events = 0
    for spec in table1_scenarios("QL2020", backend=backend):
        result = spec.run(duration, attempt_batch_size=BATCH)
        summaries[spec.name] = result.summary
        events += result.network.engine.processed_events
    return summaries, events


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or item.fspath is None:
        return
    module = Path(str(item.fspath)).stem
    if not module.startswith("bench_"):
        return
    record = _records()[module].setdefault(item.name, {})
    record["wall_seconds"] = round(report.duration, 4)
    record["outcome"] = report.outcome


def pytest_sessionfinish(session, exitstatus):
    records = _records()
    if not records:
        return
    out_dir = Path(os.environ.get("REPRO_BENCH_JSON_DIR", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    for module, tests in records.items():
        named = [test.pop("backend") for test in tests.values()
                 if "backend" in test]
        payload = {
            "module": module,
            "backend": named[0] if named else bench_backend(),
            "bench_scale": SCALE,
            "attempt_batch": BATCH,
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "tests": tests,
        }
        path = out_dir / f"BENCH_{module}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))


@pytest.fixture(scope="session")
def lab_config():
    from repro.hardware.parameters import lab_scenario

    return lab_scenario()


@pytest.fixture(scope="session")
def ql2020_config():
    from repro.hardware.parameters import ql2020_scenario

    return ql2020_scenario()
