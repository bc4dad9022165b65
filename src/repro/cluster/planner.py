"""Deterministic shard planning over a static scenario cost model.

The paper's 169-scenario grid is wildly heterogeneous: an MD ``k_max = 255``
long run costs orders of magnitude more wall-clock than a ``k_max = 1`` NL
run, and the density backend costs a large constant factor over the analytic
one.  Naive round-robin sharding therefore leaves one shard grinding long
after the others finish.  The planner partitions a grid into ``num_shards``
shards with the classic LPT (longest-processing-time-first) greedy: scenarios
sorted by estimated cost descending are assigned, one by one, to the
currently lightest shard.  Ties break on scenario index and shard id, so the
plan is a pure function of (scenario list, shard count, duration) — every
coordinator and worker that computes it independently agrees.

Costs come from :class:`StaticCostModel`, a closed-form heuristic over the
scenario's workload (pair counts, load, K vs M attempts, hardware timing,
backend).  It only needs to *rank* scenarios sensibly, not predict seconds:
work stealing evens out whatever imbalance the estimate leaves.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Sequence

from repro.runtime.scenarios import ScenarioSpec


class StaticCostModel:
    """Closed-form k/load/kind/backend heuristic (no calibration data).

    The dominant effects, in order: per-request pair count (k255 MD runs
    deliver hundreds of pairs per CREATE and dominate the grid), the density
    backend's per-attempt matrix work versus the analytic fast path, K
    attempts being ~100x longer than M attempts (weighted by the hardware's
    expected MHP cycles per K attempt), and the offered load.
    """

    #: Relative cost factor per resolved backend (unknown names get
    #: ``DEFAULT_BACKEND_FACTOR`` — assume expensive).
    BACKEND_FACTORS = {"density": 6.0, "analytic": 1.0}
    DEFAULT_BACKEND_FACTOR = 6.0

    def estimate(self, spec: ScenarioSpec, duration: float) -> float:
        features = spec.cost_features()
        units = 0.0
        for workload in features["workloads"]:
            kind = 1.0
            if workload["keep"]:
                # K attempts block the electron for the full round trip;
                # QL2020's E ~= 16 cycles per K attempt makes them costlier
                # still relative to M attempts on the same hardware.
                kind = 1.0 + 0.1 * features["expected_cycles_k"]
            units += workload["load"] * (1.0 + workload["pairs"]) * kind
        backend = self.BACKEND_FACTORS.get(spec.backend_name(),
                                           self.DEFAULT_BACKEND_FACTOR)
        # A topology run simulates one full link stack per link on a shared
        # engine (every link re-runs the workload), so cost scales with the
        # link count.
        links = max(1, int(features.get("links", 1)))
        return max(duration, 1e-9) * max(units, 1e-6) * backend * links


@dataclass
class ShardPlan:
    """A deterministic partition of a scenario list into shards.

    ``shards[s]`` lists *global scenario indices* (into the planned scenario
    list) in descending estimated cost — workers serve their shard front to
    back, thieves steal from the back, so the costliest work starts first
    and the cheapest work moves between shards.
    """

    num_shards: int
    shards: list[list[int]]
    #: Estimated cost per shard (sum over its scenarios).
    shard_costs: list[float]
    #: Estimated cost per scenario, indexed by global scenario index.
    scenario_costs: list[float] = field(default_factory=list)

    @property
    def num_scenarios(self) -> int:
        """Total scenarios across all shards."""
        return sum(len(shard) for shard in self.shards)

    def shard_of(self, index: int) -> int:
        """The shard a global scenario index was assigned to."""
        for shard_id, shard in enumerate(self.shards):
            if index in shard:
                return shard_id
        raise KeyError(f"scenario index {index} is in no shard")

    def to_dict(self) -> dict:
        """JSON-serialisable representation (stored in plan files)."""
        return {
            "num_shards": self.num_shards,
            "shards": [list(shard) for shard in self.shards],
            "shard_costs": list(self.shard_costs),
            "scenario_costs": list(self.scenario_costs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardPlan":
        """Rebuild a plan serialised with :meth:`to_dict`."""
        return cls(num_shards=data["num_shards"],
                   shards=[list(shard) for shard in data["shards"]],
                   shard_costs=list(data["shard_costs"]),
                   scenario_costs=list(data.get("scenario_costs", [])))


def plan_shards(specs: Sequence[ScenarioSpec], num_shards: int,
                duration: float) -> ShardPlan:
    """Partition ``specs`` into ``num_shards`` shards with LPT greedy.

    Deterministic: equal inputs always produce the identical plan (costs tie
    on scenario index, shard loads tie on shard id).  Shards can end up
    empty when there are fewer scenarios than shards.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    model = StaticCostModel()
    costs = [float(model.estimate(spec, duration)) for spec in specs]
    order = sorted(range(len(specs)), key=lambda i: (-costs[i], i))
    shards: list[list[int]] = [[] for _ in range(num_shards)]
    heap = [(0.0, shard_id) for shard_id in range(num_shards)]
    heapq.heapify(heap)
    for index in order:
        load, shard_id = heapq.heappop(heap)
        shards[shard_id].append(index)
        heapq.heappush(heap, (load + costs[index], shard_id))
    shard_costs = [sum(costs[index] for index in shard) for shard in shards]
    return ShardPlan(num_shards=num_shards, shards=shards,
                     shard_costs=shard_costs, scenario_costs=costs)
