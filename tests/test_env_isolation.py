"""A run is a function of its arguments: no library call reads the
environment.

Faults ride in the plan (``GuardPolicy.faults``) and observability is an
``ObsConfig`` passed down, so ``REPRO_SCENARIO_FAULTS`` and ``REPRO_OBS*``
set around a library call change nothing.  Only the entry points —
``python -m repro.cluster.worker`` and the examples — read ``REPRO_OBS*``,
through :func:`repro.obs.config_from_env`.

Two checks:

* **Behaviour** — with a hostile environment (every observability
  feature on, an artifact directory, a fault plan poisoning every
  scenario), ``ScenarioSpec.run``, ``execute_scenario``, ``SweepRunner``
  with one and two workers and a ``ClusterWorker`` over a
  ``LocalTransport`` give the outcomes of a clean environment, write no
  artifact and ship no telemetry.
* **Source** — an AST scan of ``src/repro`` finds ``os.environ`` /
  ``os.getenv`` only in the functions that define a setting's default
  (:data:`ALLOWED_ENV_READS`), and ``config_from_env`` called only from
  functions named ``main``.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

from repro.cluster import ClusterCoordinator, ClusterWorker, LocalTransport
from repro.runtime import SweepRunner, single_kind_scenarios
from repro.runtime.sweep import execute_scenario

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

DURATION = 0.1
SEEDS = [41, 42]

#: ``(module, function)`` pairs allowed to read the environment: each
#: defines the default of one setting, read by an entry point or, for
#: ``REPRO_BACKEND``, when a spec names no backend.
ALLOWED_ENV_READS = {
    ("repro.backends", "default_backend_name"),
    ("repro.obs", "obs_features"),
    ("repro.obs", "config_from_env"),
    ("repro.obs.logconf", "configure_logging"),
}

_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def grid():
    return single_kind_scenarios(
        "Lab", kinds=("CK", "MD"), loads=("High",), max_pairs_options=(1,),
        origins=("A",), include_md_k255=False, attempt_batch_size=40,
        backend="analytic")


def _library_results(work_dir: Path) -> dict:
    """What each library entry point returns for :func:`grid`."""
    specs = grid()
    results = {
        "ScenarioSpec.run": [spec.run(DURATION, seed=seed)
                             for spec, seed in zip(specs, SEEDS)],
        "execute_scenario": [execute_scenario(spec, seed, DURATION)
                             for spec, seed in zip(specs, SEEDS)],
    }
    for workers in (1, 2):
        sweep = SweepRunner(specs, DURATION, master_seed=7, workers=workers,
                            cache_dir=work_dir / f"sweep-{workers}").run()
        results[f"SweepRunner(workers={workers})"] = (sweep.outcomes,
                                                      sweep.telemetry)
    coordinator = ClusterCoordinator(specs, DURATION, work_dir / "cluster",
                                     master_seed=7)
    coordinator.write_plan()
    worker = ClusterWorker(LocalTransport(coordinator.state), "w0",
                           cache_dir=None)
    assert worker.metrics is None
    worker.run(wait_for_stragglers=False)
    merged = coordinator.merge()
    coordinator.state.close()
    results["ClusterWorker"] = (merged.outcomes, merged.telemetry)
    return results


def test_library_calls_ignore_the_environment(monkeypatch, tmp_path):
    clean = _library_results(tmp_path / "clean")

    obs_dir = tmp_path / "obs"
    monkeypatch.setenv("REPRO_OBS", "trace,metrics,profile")
    monkeypatch.setenv("REPRO_OBS_DIR", str(obs_dir))
    monkeypatch.setenv("REPRO_SCENARIO_FAULTS", json.dumps(
        {"oom": [spec.name for spec in grid()]}))
    hostile = _library_results(tmp_path / "hostile")

    assert hostile == clean
    assert all(outcome.ok for outcome in clean["execute_scenario"])
    for name in ("SweepRunner(workers=1)", "SweepRunner(workers=2)",
                 "ClusterWorker"):
        outcomes, telemetry = hostile[name]
        assert telemetry is None, name
        assert all(outcome.ok for outcome in outcomes), name
    assert not obs_dir.exists()


# --------------------------------------------------------------------------- #
# Source scan
# --------------------------------------------------------------------------- #
class _Scan(ast.NodeVisitor):
    """Environment reads and ``config_from_env`` calls, each with the name
    of its innermost enclosing function (``None`` at module level)."""

    def __init__(self) -> None:
        self.function = None
        self.env_reads: list[tuple[object, int]] = []
        self.config_calls: list[tuple[object, int]] = []

    def visit_FunctionDef(self, node) -> None:
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (isinstance(node.value, ast.Name) and node.value.id == "os"
                and node.attr in _ENV_NAMES):
            self.env_reads.append((self.function, node.lineno))
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "os" and any(alias.name in _ENV_NAMES
                                       for alias in node.names):
            self.env_reads.append((self.function, node.lineno))

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name == "config_from_env":
            self.config_calls.append((self.function, node.lineno))
        self.generic_visit(node)


def _scan(path: Path) -> _Scan:
    scan = _Scan()
    scan.visit(ast.parse(path.read_text(encoding="utf-8")))
    return scan


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_environment_is_read_only_where_allowed():
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for function, line in _scan(path).env_reads:
            found.setdefault((_module_name(path), function), []).append(
                f"{path.relative_to(ROOT)}:{line}")
    unlisted = {key: where for key, where in found.items()
                if key not in ALLOWED_ENV_READS}
    assert not unlisted, (
        f"environment read below the entry points: {unlisted}; pass the "
        f"setting down as an argument instead")
    stale = sorted(ALLOWED_ENV_READS - set(found))
    assert not stale, f"allowlist entries with no read behind them: {stale}"


def test_obs_config_is_built_only_in_main():
    callers = []
    for path in sorted([*PACKAGE.rglob("*.py"),
                        *(ROOT / "examples").glob("*.py")]):
        callers += [(f"{path.relative_to(ROOT)}:{line}", function)
                    for function, line in _scan(path).config_calls]
    assert callers, "the scan found no config_from_env call at all"
    assert all(function == "main" for _, function in callers), callers


def test_no_scenario_fault_variable_in_the_package():
    assert not [path for path in PACKAGE.rglob("*.py")
                if "REPRO_SCENARIO_FAULTS" in path.read_text(
                    encoding="utf-8")]
