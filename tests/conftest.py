"""Shared pytest fixtures for the reproduction test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.hardware.parameters import lab_scenario, ql2020_scenario
from repro.sim.engine import SimulationEngine


@pytest.fixture(autouse=True)
def _isolate_repro_backend():
    """Fail any test that leaks a ``REPRO_BACKEND`` change to its
    neighbours.

    The whole suite is run once per backend in CI, so a test that mutates
    the selector without restoring it silently changes the physics of
    every later test.  ``monkeypatch.setenv`` is fine (it restores before
    this fixture's teardown runs); bare ``os.environ`` writes are the bug
    this guards against.  The original value is restored *before* failing,
    so one offender cannot cascade into later tests.
    """
    before = os.environ.get("REPRO_BACKEND")
    yield
    after = os.environ.get("REPRO_BACKEND")
    if after != before:
        if before is None:
            os.environ.pop("REPRO_BACKEND", None)
        else:
            os.environ["REPRO_BACKEND"] = before
        pytest.fail(f"test leaked REPRO_BACKEND: {before!r} -> {after!r} "
                    f"(use monkeypatch.setenv, which restores itself)")


@pytest.fixture
def engine() -> SimulationEngine:
    """A fresh simulation engine."""
    return SimulationEngine()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(42)


@pytest.fixture(scope="session")
def lab():
    """The Lab hardware scenario (cached for the whole test session)."""
    return lab_scenario()


@pytest.fixture(scope="session")
def ql2020():
    """The QL2020 hardware scenario (cached for the whole test session)."""
    return ql2020_scenario()
