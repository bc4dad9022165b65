"""Pluggable physics backends for the link-layer simulation.

The protocol stack (MHP, EGP, FEU, device model) talks to the physics through
the :class:`~repro.backends.base.PhysicsBackend` interface; this package
provides the registry that maps backend names to backend classes.

Backends
--------
``"density"`` (default)
    Exact density-matrix model — the reference physics.
``"analytic"``
    Closed-form probabilities/fidelities with geometric fast-forward of
    failed attempt cycles; equivalent in distribution, O(1) events per
    herald.

``AnalyticBackend(fast_forward=False)`` is the analytic model without
fast-forward (same event granularity and random-number consumption as
``"density"``); the cross-backend equivalence tests build it directly, and
it has no registered name.

Selection
---------
Every entry point (``SimulationRun``, ``ScenarioSpec``, benchmarks,
examples) accepts a backend name or instance; when none is given the
``REPRO_BACKEND`` environment variable decides, falling back to
``"density"``.

A name always builds a fresh instance, owned by the run it is given to.
Code that runs many scenarios — a sweep, a pool worker process, a cluster
worker — owns a :class:`BackendSet` and passes its instances down.

Memos
-----
Every backend memoizes per instance what never changes for it: attempt
models, FEU tables and pair physics.  Device noise on a delivered pair is a
chain of deterministic steps from one of a handful of herald states, so
:class:`PhysicsBackend` replays a step it has recorded (keyed by the
state's chain key and the step's parameters) as a copy of the recorded
matrix, and draws readout outcomes with the exact arithmetic of
``rng.choice``; results are bit-identical to recomputing every step.  The
runs that share a :class:`BackendSet` share these memos too.
"""

from __future__ import annotations

import os
from types import MappingProxyType
from typing import Union

from repro.backends.analytic import AnalyticAttemptModel, AnalyticBackend
from repro.backends.base import (
    AttemptModel,
    BatchGrant,
    HeraldSample,
    PhysicsBackend,
)
from repro.backends.density import DensityAttemptModel, DensityMatrixBackend

#: Environment variable consulted when no backend is passed explicitly.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Name of the reference backend.
DEFAULT_BACKEND = "density"

_FACTORIES = MappingProxyType({
    "density": DensityMatrixBackend,
    "analytic": AnalyticBackend,
})


def available_backends() -> list[str]:
    """Names accepted by :func:`get_backend`."""
    return sorted(_FACTORIES)


def default_backend_name() -> str:
    """Backend name selected by the environment (``REPRO_BACKEND``)."""
    return os.environ.get(BACKEND_ENV_VAR, DEFAULT_BACKEND).strip() or \
        DEFAULT_BACKEND


def resolve_backend_name(
        backend: Union[None, str, PhysicsBackend]) -> str:
    """The concrete backend name ``backend`` resolves to.

    Used wherever the name must be recorded (sweep cache keys, results)
    before/without instantiating the backend.
    """
    if backend is None:
        name = default_backend_name()
    elif isinstance(backend, PhysicsBackend):
        return backend.name
    else:
        name = str(backend)
    if name not in _FACTORIES:
        raise ValueError(f"unknown physics backend {name!r}; "
                         f"available: {available_backends()}")
    return name


def get_backend(
        backend: Union[None, str, PhysicsBackend] = None) -> PhysicsBackend:
    """A fresh backend for a name (or the instance passed in); its
    attempt-model caches and FEU table memo live as long as its owner."""
    if isinstance(backend, PhysicsBackend):
        return backend
    return _FACTORIES[resolve_backend_name(backend)]()


class BackendSet:
    """One backend per name for the lifetime of its holder, so the solo
    runs it serves build each distinct FEU table and attempt model once."""

    def __init__(self) -> None:
        self._instances: dict[str, PhysicsBackend] = {}

    def get(self, backend: Union[None, str, PhysicsBackend] = None,
            ) -> PhysicsBackend:
        """This set's instance for ``backend`` (built on first use)."""
        if isinstance(backend, PhysicsBackend):
            return backend
        name = resolve_backend_name(backend)
        instance = self._instances.get(name)
        if instance is None:
            instance = self._instances[name] = get_backend(name)
        return instance


__all__ = [
    "AnalyticAttemptModel",
    "AnalyticBackend",
    "AttemptModel",
    "BACKEND_ENV_VAR",
    "BackendSet",
    "BatchGrant",
    "DEFAULT_BACKEND",
    "DensityAttemptModel",
    "DensityMatrixBackend",
    "HeraldSample",
    "PhysicsBackend",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "resolve_backend_name",
]
