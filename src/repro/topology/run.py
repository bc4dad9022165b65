"""High-level runner for topology scenarios (chains and switched stars).

:class:`TopologyRun` is the multi-link case of
:class:`~repro.runtime.runner.Run`: it instantiates a
:class:`~repro.topology.network.TopologyNetwork`, whose links the base run
drives with one workload generator and one metrics collector each (per-link
seeds derived from the topology seed), and finalises into the same
:class:`~repro.runtime.runner.RunResult` — extended with per-hop (``hops``)
and end-to-end (``end_to_end``) statistics.

The end-to-end summary classes a chain reports are keyed ``"E2E"``: the
delivered unit of a chain run is the swapped end-to-end pair, not the
per-link pair (those appear under ``hops``).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.metrics import MetricsSummary
from repro.core.messages import RequestType
from repro.runtime.runner import Run, RunResult
from repro.runtime.workload import WorkloadSpec
from repro.topology.network import TopologyNetwork
from repro.topology.spec import Topology


def _weighted_mean(pairs: "list[tuple[float, float]]") -> Optional[float]:
    """Mean of (value, weight) pairs; ``None`` when total weight is zero."""
    total = sum(weight for _, weight in pairs)
    if total <= 0:
        return None
    return sum(value * weight for value, weight in pairs) / total


def _link_digest(name: str, summary: MetricsSummary) -> dict:
    """Plain-data per-hop digest of one link's metrics summary."""
    pairs = sum(summary.pairs_delivered.values())
    fidelity = _weighted_mean(
        [(summary.average_fidelity[cls], summary.pairs_delivered.get(cls, 0))
         for cls in summary.average_fidelity])
    latency = _weighted_mean(
        [(summary.average_pair_latency[cls],
          summary.pairs_delivered.get(cls, 0))
         for cls in summary.average_pair_latency])
    return {
        "link": name,
        "pairs": pairs,
        "throughput": summary.throughput_total(),
        "fidelity": fidelity,
        "latency": latency,
        "errors": sum(summary.errors.values()),
    }


def _merge_counts(dicts: "list[dict]") -> dict:
    merged: dict = {}
    for entry in dicts:
        for key, value in entry.items():
            merged[key] = merged.get(key, 0) + value
    return merged


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index of per-link allocations (1.0 = perfectly fair).

    Defined as ``(sum x)^2 / (n * sum x^2)``; an all-zero allocation is
    reported as fair (there is nothing to share unfairly).
    """
    values = list(values)
    if not values:
        return 1.0
    square_sum = sum(value * value for value in values)
    if square_sum <= 0:
        return 1.0
    total = sum(values)
    return (total * total) / (len(values) * square_sum)


class TopologyRun(Run):
    """One complete multi-link simulation of a topology.

    The multi-link case of :class:`~repro.runtime.runner.Run` (including the
    ``start`` / ``advance_to`` / ``finalize`` split), so the sweep layer can
    treat single-link and topology scenarios uniformly.  Chains accept
    create-and-keep workloads only — a measure-directly request consumes the
    electron at attempt time and leaves nothing to swap.
    """

    def __init__(self, topology: Topology,
                 workload: Sequence[WorkloadSpec],
                 scheduler: str = "FCFS",
                 seed: Optional[int] = 12345,
                 emission_multiplexing: bool = True,
                 attempt_batch_size: int = 1,
                 backend=None,
                 elide_watchdog: Optional[bool] = None,
                 timer_elision: bool = True,
                 swap_gate_fidelity: float = 1.0,
                 name: Optional[str] = None,
                 obs=None, guard=None) -> None:
        if topology.kind == "chain":
            for spec in workload:
                if spec.request_type is not RequestType.KEEP:
                    raise ValueError(
                        f"chain topologies serve create-and-keep workloads "
                        f"only; got a {spec.priority.name} (measure-directly) "
                        f"workload")
        self.topology = topology
        network = TopologyNetwork(
            topology, scheduler=scheduler, seed=seed,
            emission_multiplexing=emission_multiplexing,
            attempt_batch_size=attempt_batch_size, backend=backend,
            elide_watchdog=elide_watchdog,
            timer_elision=timer_elision,
            swap_gate_fidelity=swap_gate_fidelity)
        # Chains buffer delivered pairs for swapping, so memory release is
        # owned by the swap controller; star links behave like independent
        # single-link runs (the application consumes pairs on delivery).
        super().__init__(name or topology.name, network,
                         [link.network for link in network.links],
                         network.seeds, workload, scheduler, seed, obs=obs,
                         guard=guard,
                         release_memory=topology.kind != "chain")

    # ------------------------------------------------------------------ #
    # Result assembly
    # ------------------------------------------------------------------ #
    def _assemble(self, duration: float) -> dict:
        """Per-hop and end-to-end results after the run."""
        link_summaries = [collector.summary()
                          for collector in self.collectors]
        hops = [_link_digest(link.name, summary)
                for link, summary in zip(self.network.links, link_summaries)]
        if self.topology.kind == "chain":
            end_to_end = self._chain_end_to_end(duration)
            summary = self._chain_summary(duration, link_summaries,
                                          end_to_end)
        else:
            end_to_end = self._star_end_to_end(duration, hops)
            summary = self._star_summary(duration, link_summaries)
        return {"summary": summary, "hops": hops, "end_to_end": end_to_end,
                "topology": self.topology.name}

    def _chain_end_to_end(self, duration: float) -> dict:
        records = self.network.swap.end_to_end
        pairs = len(records)
        return {
            "pairs": pairs,
            "throughput": pairs / duration if duration > 0 else 0.0,
            "fidelity": (sum(r.fidelity for r in records) / pairs
                         if pairs else None),
            "min_fidelity": (min(r.fidelity for r in records)
                             if pairs else None),
            "latency": (sum(r.latency for r in records) / pairs
                        if pairs else None),
            "swaps": self.network.swap.statistics["swaps"],
            "links": len(self.network.links),
        }

    def _chain_summary(self, duration: float,
                       link_summaries: "list[MetricsSummary]",
                       end_to_end: dict) -> MetricsSummary:
        pairs = end_to_end["pairs"]
        fidelity = end_to_end["fidelity"]
        latency = end_to_end["latency"]
        return MetricsSummary(
            duration=duration,
            throughput={"E2E": end_to_end["throughput"]},
            average_fidelity={} if fidelity is None else {"E2E": fidelity},
            average_request_latency=({} if latency is None
                                     else {"E2E": latency}),
            average_scaled_latency={},
            average_pair_latency=({} if latency is None
                                  else {"E2E": latency}),
            pairs_delivered={"E2E": pairs},
            requests_submitted=_merge_counts(
                [s.requests_submitted for s in link_summaries]),
            requests_completed=_merge_counts(
                [s.requests_completed for s in link_summaries]),
            errors=_merge_counts([s.errors for s in link_summaries]),
            expires=sum(s.expires for s in link_summaries),
            oks=sum(s.oks for s in link_summaries),
            average_queue_length=(
                sum(s.average_queue_length for s in link_summaries)
                / len(link_summaries)),
        )

    def _star_end_to_end(self, duration: float, hops: "list[dict]") -> dict:
        pairs = sum(hop["pairs"] for hop in hops)
        fidelity = _weighted_mean([(hop["fidelity"], hop["pairs"])
                                   for hop in hops
                                   if hop["fidelity"] is not None])
        latency = _weighted_mean([(hop["latency"], hop["pairs"])
                                  for hop in hops
                                  if hop["latency"] is not None])
        return {
            "pairs": pairs,
            "throughput": pairs / duration if duration > 0 else 0.0,
            "fidelity": fidelity,
            "latency": latency,
            "fairness": jain_fairness([hop["pairs"] for hop in hops]),
            "links": len(hops),
        }

    def _star_summary(self, duration: float,
                      link_summaries: "list[MetricsSummary]",
                      ) -> MetricsSummary:
        def merged_mean(field: str, weight_field: str) -> dict:
            values: dict[str, list[tuple[float, float]]] = {}
            for summary in link_summaries:
                weights = getattr(summary, weight_field)
                for cls, value in getattr(summary, field).items():
                    values.setdefault(cls, []).append(
                        (value, weights.get(cls, 0)))
            merged = {}
            for cls, entries in values.items():
                mean = _weighted_mean(entries)
                if mean is not None:
                    merged[cls] = mean
            return merged

        return MetricsSummary(
            duration=duration,
            throughput=_merge_counts([s.throughput for s in link_summaries]),
            average_fidelity=merged_mean("average_fidelity",
                                         "pairs_delivered"),
            average_request_latency=merged_mean("average_request_latency",
                                                "requests_completed"),
            average_scaled_latency=merged_mean("average_scaled_latency",
                                               "requests_completed"),
            average_pair_latency=merged_mean("average_pair_latency",
                                             "pairs_delivered"),
            pairs_delivered=_merge_counts(
                [s.pairs_delivered for s in link_summaries]),
            requests_submitted=_merge_counts(
                [s.requests_submitted for s in link_summaries]),
            requests_completed=_merge_counts(
                [s.requests_completed for s in link_summaries]),
            errors=_merge_counts([s.errors for s in link_summaries]),
            expires=sum(s.expires for s in link_summaries),
            oks=sum(s.oks for s in link_summaries),
            average_queue_length=(
                sum(s.average_queue_length for s in link_summaries)
                / len(link_summaries)),
        )


def run_topology(topology: Topology, workload: Sequence[WorkloadSpec],
                 duration: float, **kwargs) -> RunResult:
    """Convenience one-shot topology runner (examples, benchmarks)."""
    return TopologyRun(topology, workload, **kwargs).run(duration)
