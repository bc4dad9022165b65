"""One repetition of one workload, run in a fresh process.

The parent starts ``python benchmarks/ladder/__main__.py rep ...`` and
reads the JSON record this module prints as the last line of stdout.
``setup_s`` runs from the moment the parent spawned the process (passed
as a ``time.monotonic_ns()`` stamp, a clock shared by all processes on
the machine) until the timed call starts.

An untraced repetition also runs :class:`~benchmarks.ladder.pace.Pace`
from the start of setup to the end of the call, and records its set-up and
call both in wall seconds and in reference seconds; the end-to-end metrics
use the latter.

A traced repetition additionally wraps ``cProfile`` around the timed call,
times every call into ``SocketTransport.request``,
``ClusterCoordinatorServer.dispatch`` and ``ResumeCache.load``/``store``,
and counts the FEU tables built, through wrappers installed before setup
whose records start when the timed call does.  The profile covers the
thread that makes the timed call; the coordinator's handler thread shows
up as the worker's time waiting in ``SocketTransport.request``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

from benchmarks.ladder.layers import (
    file_resolver,
    self_fractions,
    self_time_by_layer,
)
from benchmarks.ladder.pace import Pace
from benchmarks.ladder.workloads import Observed

#: Fields of a scenario record the digest covers.
DIGEST_FIELDS = ("status", "summary", "events_processed", "events_elided",
                 "hops", "end_to_end")


def digest(scenarios: list[dict]) -> str:
    """sha256 over canonical JSON of the scenarios' result fields."""
    payload = [{key: scenario[key] for key in DIGEST_FIELDS}
               for scenario in scenarios]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Probes:
    """Wrappers around the cluster, cache and FEU entry points."""

    def __init__(self) -> None:
        #: ``rpc.<op>`` / ``serve.<op>`` / ``cache.load`` / ``cache.store``
        #: -> call durations in milliseconds.
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: Every distinct FEU table object seen, by ``id``.  Cohort members
        #: share their first member's table, so this counts real builds
        #: where ``_build_tables`` calls would also count cache hits.
        self.tables: dict[int, object] = {}
        self._saved: list[tuple] = []

    def install(self) -> None:
        from repro.cluster.serve import ClusterCoordinatorServer
        from repro.cluster.transport import SocketTransport
        from repro.core.feu import FidelityEstimationUnit
        from repro.runtime.cache import ResumeCache

        self._wrap(SocketTransport, "request", lambda args: f"rpc.{args[1]}")
        self._wrap(ClusterCoordinatorServer, "dispatch",
                   lambda args: f"serve.{args[1].get('op')}")
        self._wrap(ResumeCache, "load", lambda args: "cache.load")
        self._wrap(ResumeCache, "store", lambda args: "cache.store")

        build = FidelityEstimationUnit.__dict__["_build_tables"]
        tables = self.tables

        def counted(feu) -> None:
            build(feu)
            tables.setdefault(id(feu._table), feu._table)

        self._patch(FidelityEstimationUnit, "_build_tables", counted)

    def clear(self) -> None:
        self.samples.clear()
        self.tables.clear()

    def _wrap(self, owner, attr: str, key) -> None:
        original = owner.__dict__[attr]
        samples = self.samples

        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                samples[key(args)].append(
                    (time.perf_counter() - started) * 1e3)

        self._patch(owner, attr, timed)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _label(function) -> tuple:
    code = function.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def profile_counts(stats: dict) -> dict:
    """Exact call counts and cumulative times read from a profile."""
    from repro.core.egp import EGP
    from repro.core.mhp import NodeMHP
    from repro.core.scheduler import FCFSScheduler, WeightedFairScheduler
    from repro.network.network import LinkLayerNetwork
    from repro.sim.channel import ClassicalChannel
    from repro.sim.engine import SimulationEngine
    from repro.topology.network import TopologyNetwork

    def entry(function) -> tuple:
        return stats.get(_label(function), (0, 0, 0.0, 0.0, {}))

    poll = _label(NodeMHP._poll)
    grants = entry(ClassicalChannel.send)[4].get(poll, (0, 0, 0.0, 0.0))[0]
    link_init = entry(LinkLayerNetwork.__init__)
    topology_init = entry(TopologyNetwork.__init__)
    nested = link_init[4].get(_label(TopologyNetwork.__init__),
                              (0, 0, 0.0, 0.0))[3]
    return {
        "core.mhp.polls": entry(NodeMHP._poll)[1],
        "core.egp.polls": entry(EGP.handle_poll)[1],
        "core.egp.grants": grants,
        "core.scheduler.selects": (entry(FCFSScheduler.select)[1]
                                   + entry(WeightedFairScheduler.select)[1]),
        "build_s": link_init[3] + topology_init[3] - nested,
        "advance_s": entry(SimulationEngine.run)[3],
    }


def result_counts(observed: Observed) -> dict:
    """Exact counts carried by the results themselves."""
    executed = [s for s in observed.scenarios if not s["from_cache"]]
    cohorts = [s["cohort"] for s in executed if s["cohort"]]
    return {
        "sim.events": sum(s["events_processed"] for s in executed),
        "sim.events_elided": sum(s["events_elided"] for s in executed),
        "runtime.batch.cohorts": round(sum(1.0 / size for size in cohorts)),
        "runtime.batch.members": len(cohorts),
        "runtime.cache.hits": observed.counts.get("cache_hits", 0),
        "runtime.cache.misses": observed.counts.get("cache_misses", 0),
        "topology.e2e_pairs": observed.counts.get("e2e_pairs", 0),
        "topology.swaps": observed.counts.get("swaps", 0),
    }


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def run_rep(workload, seed: int, workdir: Path, traced: bool,
            spawned_ns: int) -> dict:
    """Set up, time and check one repetition of a workload object (see
    :mod:`benchmarks.ladder.workloads`); returns its record."""
    # Before the pace starts, setup counts in wall seconds; the pace's own
    # set-up is left out.
    unpaced_s = (time.monotonic_ns() - spawned_ns) / 1e9
    pace = None if traced else Pace()
    probes = Probes() if traced else None
    if probes is not None:
        probes.install()
    paced_at = time.perf_counter()
    if pace is not None:
        pace.start()
    try:
        workload.setup(seed, workdir)
        setup_s = (time.monotonic_ns() - spawned_ns) / 1e9
        if traced:
            probes.clear()  # observe the call only, not the setup
            import cProfile
            import pstats

            profiler = cProfile.Profile()
            started = time.perf_counter()
            profiler.enable()
            raw = workload.call()
            profiler.disable()
            wall = time.perf_counter() - started
        else:
            started = time.perf_counter()
            raw = workload.call()
            wall = time.perf_counter() - started
        observed = workload.observe(raw)
    finally:
        if pace is not None:
            pace.stop()
        workload.close()
        if probes is not None:
            probes.remove()

    import numpy

    record = {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        "setup_s": setup_s,
        "wall_s": wall,
        "sim_seconds": observed.sim_seconds,
        "scenarios": observed.scenario_count,
        "failed": sum(s["status"] != "ok" for s in observed.scenarios),
        "peak_rss_mb": peak_rss_mb() - (pace.resident_mb if pace else 0.0),
        "digest": digest(observed.scenarios),
        "problems": observed.problems,
        "counts": result_counts(observed),
        "provenance": {
            **observed.provenance,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        },
    }
    if pace is not None:
        record["ref_setup_s"] = unpaced_s + pace.seconds(paced_at, started)
        record["ref_wall_s"] = pace.seconds(started, started + wall)
        record["pace"] = {"beats": len(pace.durations),
                          "slowdown": pace.slowdown()}
    if traced:
        import repro.runtime

        stats = pstats.Stats(profiler).stats
        src_root = Path(repro.runtime.__file__).resolve().parents[2]
        seconds = self_time_by_layer(stats, file_resolver(src_root))
        record["layers"] = self_fractions(seconds)
        counts = profile_counts(stats)
        record["build_s"] = counts.pop("build_s")
        record["advance_s"] = counts.pop("advance_s")
        record["counts"].update(counts)
        record["counts"]["core.feu.table_builds"] = len(probes.tables)
        record["probes"] = dict(probes.samples)
    return record
