"""``repro.cluster`` exports its names lazily.

The package used to import every submodule, ``repro.cluster.worker``
included, so ``python -m repro.cluster.worker`` found the module already in
``sys.modules`` before running it as ``__main__``: runpy warned, and each
worker process held two copies of the module (two ``ClusterWorker``
classes).  Both checks run in a fresh interpreter, since the pytest process
has imported the worker module long before.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cluster

SRC = Path(__file__).resolve().parents[1] / "src"


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_worker_module_runs_once_as_main():
    done = _python("-W", "error::RuntimeWarning", "-m",
                   "repro.cluster.worker", "--help")
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr
    assert "usage" in done.stdout


def test_importing_the_package_leaves_the_worker_unloaded():
    done = _python("-c", "import sys, repro.cluster; "
                         "print('repro.cluster.worker' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_every_exported_name_resolves():
    for name in repro.cluster.__all__:
        assert getattr(repro.cluster, name) is not None, name
    from repro.cluster.worker import ClusterWorker

    assert repro.cluster.ClusterWorker is ClusterWorker


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="NoSuchName"):
        repro.cluster.NoSuchName  # noqa: B018
