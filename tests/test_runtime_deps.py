"""The runtime needs numpy only: no run path imports scipy.

scipy is a test-only oracle (``tests/test_quantum_noise.py`` checks the
Bessel ratio and the Uhlmann fidelity against it).  The smoke below imports
every ``repro.*`` module and then runs one short job down each run path:
an analytic and a density-matrix link, a 3-node repeater chain and a
4-scenario cached sweep (run twice, so the second pass reads the cache).
It then fails if any ``scipy`` module was loaded.

The test runs the smoke in a fresh interpreter, since the pytest process
itself imports scipy.  The same smoke runs without pytest, and in an
environment with only numpy installed::

    PYTHONPATH=src python tests/test_runtime_deps.py
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def smoke() -> None:
    import importlib
    import pkgutil
    import tempfile

    import repro
    from repro.core.messages import Priority
    from repro.hardware.parameters import lab_scenario, ql2020_scenario
    from repro.runtime import (USAGE_PATTERNS, ScenarioSpec, SweepRunner,
                               WorkloadSpec, chain_grid, paper_grid)

    modules = [info.name for info in
               pkgutil.walk_packages(repro.__path__, "repro.")]
    for name in modules:
        importlib.import_module(name)

    analytic = ScenarioSpec(
        name="link-analytic", scenario=ql2020_scenario(),
        workload=(WorkloadSpec(priority=Priority.CK, load_fraction=0.99,
                               max_pairs=1, min_fidelity=0.6),
                  WorkloadSpec(priority=Priority.MD, load_fraction=0.6,
                               max_pairs=3, min_fidelity=0.55)),
        scheduler="FCFS", seed=1, attempt_batch_size=100,
        backend="analytic")
    density = ScenarioSpec(
        name="link-density", scenario=lab_scenario(),
        workload=USAGE_PATTERNS["Uniform"].specs, scheduler="FCFS", seed=1,
        attempt_batch_size=100, backend="density")
    chain, = chain_grid(lengths=(3,), attempt_batch_size=100,
                        backend="analytic")
    runs = {"analytic link": analytic.run(0.05, seed=1),
            "density link": density.run(0.05, seed=1),
            "3-node chain": chain.run(0.05, seed=1)}
    for label, result in runs.items():
        assert result.events_processed > 0, f"{label} processed no events"

    specs = paper_grid(attempt_batch_size=100, backend="analytic")[:4]
    with tempfile.TemporaryDirectory() as cache_dir:
        for expected_hits in (0, len(specs)):
            runner = SweepRunner(specs, 0.05, master_seed=1, workers=1,
                                 cache_dir=cache_dir)
            result = runner.run()
            assert len(result.outcomes) == len(specs)
            assert len(runner.cache_report().hits) == expected_hits

    loaded = sorted(name for name in sys.modules
                    if name == "scipy" or name.startswith("scipy."))
    assert not loaded, f"a run path imported scipy: {loaded[:10]}"
    print(f"runtime deps smoke: {len(modules)} repro modules imported, "
          f"{len(runs)} runs and a {len(specs)}-scenario cached sweep, "
          f"no scipy module loaded")


def test_no_run_path_imports_scipy():
    completed = subprocess.run(
        [sys.executable, __file__],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "no scipy module loaded" in completed.stdout


if __name__ == "__main__":
    smoke()
