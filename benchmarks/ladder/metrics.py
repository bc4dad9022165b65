"""Metric definitions: names, units, directions, bounds and predictions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from benchmarks.ladder import stats
from benchmarks.ladder.layers import LAYERS


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Largest worsening of the median, as a share of the base median,
    #: that is not a regression (end-to-end metrics only).
    bound: Optional[float] = None


#: What a user of the simulator sees, measured with tracing off and read in
#: reference seconds (:mod:`benchmarks.ladder.pace`).  Every workload
#: reports all four: a single run covers one scenario and the simulated
#: seconds of its duration, a grid covers each of its scenarios.  A bound
#: must hold the run-to-run spread: across ten seeds the time metrics
#: spread by 4-8% of their median on the 2-vCPU machine the baseline comes
#: from, where wall seconds spread by 10-35% (see README.md).  The time
#: bounds stay at 25%, three times the widest spread, because how well
#: reference seconds follow the host from a slow hour to a quiet one is not
#: measured.  Where a base's spread is still wider, ``compare`` reports the
#: metric as unresolved.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("host_s_per_sim_s", "s/s", "lower", 0.25),
    Metric("scenarios_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

#: Reported by ``run`` and ``compare`` next to the end-to-end metrics; it
#: is 0 on a healthy run, so the single-workload form carries it as its
#: ``failed``/``attempted`` fields instead.
FAILED_FRAC = Metric("failed_frac", "ratio", "lower", 0.0)

RPC_OPS = ("claim", "snapshot", "submit")

#: Exact counts: identical on every run of one commit and seed.
EXACT_COUNTS = (
    "sim.events", "sim.events_elided", "core.mhp.polls",
    "core.scheduler.selects", "core.feu.table_builds",
    "runtime.batch.cohorts", "runtime.cache.hits", "runtime.cache.misses",
    "topology.e2e_pairs", "topology.swaps",
) + tuple(f"cluster.rpc.{op}.count" for op in RPC_OPS)


def _per_layer() -> tuple[Metric, ...]:
    metrics = [Metric(f"{layer}.self_frac", "ratio", "lower")
               for layer in LAYERS]
    metrics += [
        Metric("sim.events", "count", "lower"),
        Metric("sim.events_elided", "count", "higher"),
        Metric("sim.us_per_event", "us", "lower"),
        Metric("sim.poll_frac", "ratio", "lower"),
        Metric("core.mhp.polls", "count", "lower"),
        Metric("core.egp.poll_grant_frac", "ratio", "higher"),
        Metric("core.scheduler.selects", "count", "lower"),
        Metric("core.feu.table_builds", "count", "lower"),
        Metric("runtime.build_frac", "ratio", "lower"),
        Metric("runtime.advance_frac", "ratio", "lower"),
        Metric("runtime.batch.cohorts", "count", "lower"),
        Metric("runtime.batch.mean_members", "count", "higher"),
        Metric("runtime.cache.hits", "count", "higher"),
        Metric("runtime.cache.misses", "count", "lower"),
        Metric("runtime.cache.load_ms.p50", "ms", "lower"),
        Metric("runtime.cache.store_ms.p50", "ms", "lower"),
    ]
    for op in RPC_OPS:
        metrics += [Metric(f"cluster.rpc.{op}.count", "count", "lower"),
                    Metric(f"cluster.rpc.{op}.p50_ms", "ms", "lower"),
                    Metric(f"cluster.rpc.{op}.p90_ms", "ms", "lower")]
    metrics += [Metric(f"cluster.serve.{op}.p50_ms", "ms", "lower")
                for op in RPC_OPS]
    metrics += [
        Metric("cluster.rpc_frac", "ratio", "lower"),
        Metric("topology.e2e_pairs", "count", "higher"),
        Metric("topology.swaps", "count", "higher"),
        Metric("trace.overhead_x", "x", "lower"),
    ]
    return tuple(metrics)


#: Single-layer metrics, from the traced repetition unless noted.
PER_LAYER = _per_layer()

#: Which end-to-end metric each layer metric should move, on which
#: workloads, and where it should not move — written before any
#: optimisation, so a later change can be held to it.
PREDICTIONS = (
    {"layer_metrics": ["sim.poll_frac", "core.mhp.polls"],
     "moves": "host_s_per_sim_s", "on": ["chain5"],
     "not_on": ["grid-tcp", "grid-resume"]},
    {"layer_metrics": ["core.feu.table_builds", "backends.self_frac"],
     "moves": "scenarios_per_s", "on": ["grid-tcp"],
     "not_on": ["grid-local", "link-analytic", "link-density"]},
    {"layer_metrics": ["sim.us_per_event", "sim.self_frac"],
     "moves": "host_s_per_sim_s", "on": ["link-analytic", "chain5"],
     "not_on": ["grid-resume"]},
    {"layer_metrics": ["sim.us_per_event", "sim.self_frac"],
     "moves": "scenarios_per_s", "on": ["grid-local"],
     "not_on": ["grid-resume"]},
    {"layer_metrics": ["core.egp.poll_grant_frac", "core.scheduler.selects",
                       "core.distributed_queue.self_frac"],
     "moves": "host_s_per_sim_s", "on": ["link-analytic"], "not_on": []},
    {"layer_metrics": ["quantum.self_frac", "hardware.self_frac"],
     "moves": "host_s_per_sim_s", "on": ["link-density"], "not_on": []},
    {"layer_metrics": ["runtime.batch.cohorts", "runtime.batch.mean_members"],
     "moves": "scenarios_per_s, peak_rss_mb", "on": ["grid-local"],
     "not_on": []},
    {"layer_metrics": ["cluster.rpc.snapshot.p50_ms", "cluster.rpc_frac",
                       "runtime.cache.load_ms.p50"],
     "moves": "scenarios_per_s", "on": ["grid-resume"],
     "not_on": ["grid-tcp"]},
    {"layer_metrics": ["runtime.cache.store_ms.p50"],
     "moves": "scenarios_per_s", "on": ["grid-tcp", "grid-local"],
     "not_on": []},
)


def end_to_end_values(rep: dict) -> dict[str, float]:
    """The end-to-end metrics of one untraced repetition, in reference
    seconds (see :mod:`benchmarks.ladder.pace`)."""
    wall = rep["ref_wall_s"]
    return {
        "setup_s": rep["ref_setup_s"],
        "host_s_per_sim_s": wall / rep["sim_seconds"],
        "scenarios_per_s": rep["scenarios"] / wall,
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _timing(samples: list[float], pct: float) -> float:
    """``pct``-th percentile of ``samples``; 0 when fewer samples than it
    takes to leave ten above that percentile."""
    tail = stats.tail_percentile(len(samples))
    if tail is None or tail < pct:
        return 0.0
    return stats.percentile(samples, pct)


def per_layer_values(traced: dict, untraced_wall: float) -> dict[str, float]:
    """Every per-layer metric from a traced repetition.

    ``untraced_wall`` is the median wall time of the untraced repetitions
    of the same workload (it turns executed events into a per-event cost
    and the traced wall into the tracer's overhead).
    """
    counts = traced["counts"]
    probes = traced["probes"]
    wall = traced["wall_s"]
    events = counts["sim.events"]
    values = {f"{layer}.self_frac": traced["layers"][layer]
              for layer in LAYERS}
    values.update({
        "sim.events": events,
        "sim.events_elided": counts["sim.events_elided"],
        "sim.us_per_event": _ratio(untraced_wall * 1e6, events),
        "sim.poll_frac": _ratio(counts["core.mhp.polls"], events),
        "core.mhp.polls": counts["core.mhp.polls"],
        "core.egp.poll_grant_frac": _ratio(counts["core.egp.grants"],
                                           counts["core.egp.polls"]),
        "core.scheduler.selects": counts["core.scheduler.selects"],
        "core.feu.table_builds": counts["core.feu.table_builds"],
        "runtime.build_frac": _ratio(traced["build_s"], wall),
        "runtime.advance_frac": _ratio(traced["advance_s"], wall),
        "runtime.batch.cohorts": counts["runtime.batch.cohorts"],
        "runtime.batch.mean_members": _ratio(
            counts["runtime.batch.members"], counts["runtime.batch.cohorts"]),
        "runtime.cache.hits": counts["runtime.cache.hits"],
        "runtime.cache.misses": counts["runtime.cache.misses"],
        "runtime.cache.load_ms.p50": _timing(probes.get("cache.load", []), 50),
        "runtime.cache.store_ms.p50": _timing(probes.get("cache.store", []), 50),
    })
    for op in RPC_OPS:
        samples = probes.get(f"rpc.{op}", [])
        values[f"cluster.rpc.{op}.count"] = len(samples)
        values[f"cluster.rpc.{op}.p50_ms"] = _timing(samples, 50)
        values[f"cluster.rpc.{op}.p90_ms"] = _timing(samples, 90)
        values[f"cluster.serve.{op}.p50_ms"] = _timing(
            probes.get(f"serve.{op}", []), 50)
    rpc_ms = sum(sum(samples) for name, samples in probes.items()
                 if name.startswith("rpc."))
    values["cluster.rpc_frac"] = _ratio(rpc_ms / 1000.0, wall)
    values["topology.e2e_pairs"] = counts["topology.e2e_pairs"]
    values["topology.swaps"] = counts["topology.swaps"]
    values["trace.overhead_x"] = _ratio(wall, untraced_wall)
    return {metric.name: values[metric.name] for metric in PER_LAYER}
