"""Distributed sweep execution: sharding, stealing, sinks, transports.

The package runs sweeps across machines — and every local
:class:`~repro.runtime.sweep.SweepRunner` sweep, which is a one-machine
cluster sweep — while keeping the sweep's defining property intact: the
merged result of any sharded run is field-for-field identical to a serial
sweep, because per-scenario seeds depend only on the master seed and
the scenario's global grid index — never on which worker ran it, in what
order, over which transport, or how many times.

Pieces (see each module's docstring for the protocol details):

* :mod:`repro.cluster.coordinator` — planning, progress, merge, and the
  plan document.  Shard ``s`` of ``n`` is the scenario indices ``s, s + n,
  s + 2n, ...``: the plan stores only the count, and work stealing evens
  out the shards' uneven costs.
* :mod:`repro.cluster.state` — :class:`CoordinatorState`, the one
  in-memory state (registrations, leases, done set, attempt ledger,
  quarantine), stepped on an explicit clock.  Its
  :meth:`~CoordinatorState.apply` *is* the protocol: one function of a
  request frame and the coordinator's time that checks the frame and
  applies its operation.  Its durable effects are done records, sink
  parts, fail/death markers and quarantine records.
* :mod:`repro.cluster.transport` — every client operation defined once on
  :class:`Transport`, over one ``request(op, **payload)``; the transports
  only carry frames to ``apply``: :class:`SocketTransport`
  (length-prefixed JSON frames to a ``python -m repro.cluster.serve``
  coordinator; no shared filesystem) and :class:`LocalTransport` (the
  state in process).
* :mod:`repro.cluster.worker` — the transport-agnostic claim / steal /
  reclaim execution loop, with claim batches and steal victims chosen by
  pending-scenario counts (also a CLI: ``python -m
  repro.cluster.worker``).
* :mod:`repro.cluster.serve` — the TCP coordinator service
  (``python -m repro.cluster.serve``), which carries frames to ``apply``.
* :mod:`repro.cluster.faults` — deterministic fault injection: a seeded
  :class:`FaultSchedule` driving a :class:`FaultyTransport` that drops,
  duplicates, resets, delays and replays the frames of
  :meth:`Transport.request` and crashes
  workers at chosen points — the adversary the protocol's idempotent
  operations are verified against.
* :mod:`repro.cluster.sinks` — crash-safe append-only JSONL result parts
  that merge back into one canonical
  :class:`~repro.runtime.sweep.SweepResult`.
"""

from __future__ import annotations

import importlib
from types import MappingProxyType

#: Public names re-exported from the submodules, each imported on first
#: access (PEP 562).  Importing the package imports none of them, so
#: ``python -m repro.cluster.worker`` runs the worker module once, as
#: ``__main__``, instead of also importing it as ``repro.cluster.worker``.
_LAZY = MappingProxyType({
    "ClusterCoordinator": "repro.cluster.coordinator",
    "ClusterPlan": "repro.cluster.coordinator",
    "ClusterWorker": "repro.cluster.worker",
    "CoordinatorState": "repro.cluster.state",
    "FaultDecision": "repro.cluster.faults",
    "FaultSchedule": "repro.cluster.faults",
    "FaultyTransport": "repro.cluster.faults",
    "InjectedFault": "repro.cluster.faults",
    "InjectedWorkerCrash": "repro.cluster.faults",
    "ScenarioFaultPlan": "repro.cluster.faults",
    "JsonlResultSink": "repro.cluster.sinks",
    "ResultSink": "repro.cluster.sinks",
    "load_results": "repro.cluster.sinks",
    "merge_results": "repro.cluster.sinks",
    "FrameDecodeError": "repro.cluster.transport",
    "FrameTooLarge": "repro.cluster.transport",
    "LocalTransport": "repro.cluster.transport",
    "SocketTransport": "repro.cluster.transport",
    "TaskSnapshot": "repro.cluster.transport",
    "Transport": "repro.cluster.transport",
    "TransportError": "repro.cluster.transport",
})


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


__all__ = [
    "ClusterCoordinator",
    "ClusterPlan",
    "ClusterWorker",
    "CoordinatorState",
    "FaultDecision",
    "FaultSchedule",
    "FaultyTransport",
    "FrameDecodeError",
    "FrameTooLarge",
    "InjectedFault",
    "InjectedWorkerCrash",
    "JsonlResultSink",
    "LocalTransport",
    "ResultSink",
    "ScenarioFaultPlan",
    "SocketTransport",
    "TaskSnapshot",
    "Transport",
    "TransportError",
    "load_results",
    "merge_results",
    "run_sharded_sweep",
]


def run_sharded_sweep(specs, duration, cluster_dir, master_seed=12345,
                      num_shards=3, workers=None, **coordinator_kwargs):
    """One-shot sharded sweep on the local machine.

    Splits ``specs`` into ``num_shards`` shards, runs ``workers`` local
    worker processes (default: one per shard) through the full cluster
    protocol over TCP (:meth:`ClusterCoordinator.run_local`), and returns
    the merged canonical
    :class:`~repro.runtime.sweep.SweepResult`.
    """
    from repro.cluster.coordinator import ClusterCoordinator

    coordinator = ClusterCoordinator(specs, duration, cluster_dir,
                                     master_seed=master_seed,
                                     num_shards=num_shards,
                                     **coordinator_kwargs)
    return coordinator.run_local(workers=workers)
