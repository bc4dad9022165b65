"""Deterministic shard planning with pluggable scenario cost models.

The paper's 169-scenario grid is wildly heterogeneous: an MD ``k_max = 255``
long run costs orders of magnitude more wall-clock than a ``k_max = 1`` NL
run, and the density backend costs a large constant factor over the analytic
one.  Naive round-robin sharding therefore leaves one shard grinding long
after the others finish.  The planner partitions a grid into ``num_shards``
shards with the classic LPT (longest-processing-time-first) greedy: scenarios
sorted by estimated cost descending are assigned, one by one, to the
currently lightest shard.  Ties break on scenario index and shard id, so the
plan is a pure function of (scenario list, shard count, cost model) — every
coordinator and worker that computes it independently agrees.

Costs come from a :class:`CostModel`:

* :class:`StaticCostModel` — a closed-form heuristic over the scenario's
  workload (pair counts, load, K vs M attempts, hardware timing, backend).
  It only needs to *rank* scenarios sensibly, not predict seconds.
* :class:`RecordedCostModel` — calibrated from the per-scenario wall-clock
  recorded in prior :class:`~repro.runtime.sweep.SweepResult` s, falling back
  to the static heuristic for scenarios never seen before.  It persists to
  JSON (:meth:`RecordedCostModel.save` / :meth:`RecordedCostModel.load`), so
  every completed sweep calibrates the *next* plan: the coordinator
  auto-loads ``cost_model.json`` from its cache/cluster directory and writes
  the observed wall-clocks back after each merge.
"""

from __future__ import annotations

import heapq
import json
import logging
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.runtime.cache import atomic_write_text
from repro.runtime.scenarios import ScenarioSpec
from repro.runtime.sweep import ScenarioOutcome, SweepResult

logger = logging.getLogger("repro.cluster.planner")


class CostModel(ABC):
    """Estimates the relative execution cost of one scenario."""

    @abstractmethod
    def estimate(self, spec: ScenarioSpec, duration: float) -> float:
        """Relative cost (arbitrary positive units) of running ``spec`` for
        ``duration`` simulated seconds."""

    def cohort_estimate(self, spec: ScenarioSpec, duration: float,
                        cohort_size: int) -> float:
        """Cost of ``spec`` when run inside a vectorized cohort of
        ``cohort_size`` members (see ``repro.runtime.batch``).

        Default: no batching benefit assumed — subclasses that understand
        cohort throughput override this."""
        return self.estimate(spec, duration)


class StaticCostModel(CostModel):
    """Closed-form k/load/kind/backend heuristic (no calibration data).

    The dominant effects, in order: per-request pair count (k255 MD runs
    deliver hundreds of pairs per CREATE and dominate the grid), the density
    backend's per-attempt matrix work versus the analytic fast path, K
    attempts being ~100x longer than M attempts (weighted by the hardware's
    expected MHP cycles per K attempt), and the offered load.
    """

    #: Relative cost factor per resolved backend (unknown names get
    #: ``DEFAULT_BACKEND_FACTOR`` — assume expensive).
    BACKEND_FACTORS = {"density": 6.0, "analytic-exact": 6.0, "analytic": 1.0}
    DEFAULT_BACKEND_FACTOR = 6.0

    #: Relative per-event cost factor of the event engine (see
    #: ``repro.sim.queues``): the calendar/ladder queues shave the queue
    #: layer's share of the run.  Only the *ranking* matters for LPT.
    ENGINE_FACTORS = {"heap": 1.0, "calendar": 0.7, "ladder": 0.8}
    DEFAULT_ENGINE_FACTOR = 1.0

    #: Saturating per-member speedup of analytic cohort execution: a
    #: cohort of B analytic members costs roughly ``B / min(B, this)`` solo
    #: runs.  Solo runs share FEU tables through their backend too, so only
    #: the cohort's memoized pair physics counts: 1.05 is the ratio of the
    #: mean solo to the mean cohort wall time of
    #: ``benchmarks/bench_vectorized_grid.py`` over 15 runs.  Like the other
    #: factors, only the ranking matters.
    ANALYTIC_COHORT_SPEEDUP = 1.05

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
        engine = self.ENGINE_FACTORS.get(features.get("engine", "heap"),
                                         self.DEFAULT_ENGINE_FACTOR)
        # A topology run simulates one full link stack per link on a shared
        # engine (every link re-runs the workload), so cost scales with the
        # link count.
        links = max(1, int(features.get("links", 1)))
        return (max(duration, 1e-9) * max(units, 1e-6) * backend * engine
                * links)

    def cohort_estimate(self, spec: ScenarioSpec, duration: float,
                        cohort_size: int) -> float:
        base = self.estimate(spec, duration)
        if (cohort_size <= 1 or spec.backend_name() != "analytic"
                or getattr(spec, "topology", None) is not None):
            # Only single-link analytic scenarios join cohorts
            # (see repro.runtime.batch.cohortable).
            return base
        return base / min(float(cohort_size), self.ANALYTIC_COHORT_SPEEDUP)


class RecordedCostModel(CostModel):
    """Cost model calibrated from recorded per-scenario wall-clock.

    Feed it prior sweep results with :meth:`calibrate` (or construct via
    :meth:`from_results`).  Observations are keyed on ``(scenario name,
    backend)`` — scenario names are unique within a grid and stable across
    runs — and normalised to wall-seconds per simulated second, so a sweep
    recorded at one duration calibrates plans at another.  Scenarios without
    an observation fall back to the static heuristic, scaled so the two cost
    scales are commensurable.
    """

    #: Persistence format tag (see :meth:`to_dict`).
    FORMAT = "cost-model/v1"

    #: Observations kept per (scenario, backend) key: a rolling window so a
    #: model persisted across hundreds of sweeps stays bounded and tracks
    #: hardware drift instead of averaging over its whole history.
    MAX_OBSERVATIONS_PER_KEY = 32

    #: Backend-key suffix for observations made inside a vectorized cohort.
    #: Cohort members report their *effective* per-member wall-clock (cohort
    #: wall / cohort size), which is several times below the solo rate —
    #: mixing the two histories under one key would poison shard planning
    #: for whichever mode runs next, so they are recorded apart.  The suffix
    #: rides inside the existing ``backend`` string, so persisted v1 cost
    #: models round-trip unchanged.
    COHORT_KEY_SUFFIX = "#cohort"

    def __init__(self, fallback: Optional[CostModel] = None) -> None:
        self.fallback = fallback or StaticCostModel()
        #: (scenario_name, backend) -> [wall seconds per simulated second].
        self._rates: dict[tuple[str, str], list[float]] = {}
        #: Ratio sum used to rescale fallback estimates onto recorded units.
        self._scale_samples: list[float] = []

    # ------------------------------------------------------------------ #
    # Calibration
    # ------------------------------------------------------------------ #
    @classmethod
    def from_results(cls, results: Iterable[SweepResult],
                     fallback: Optional[CostModel] = None,
                     ) -> "RecordedCostModel":
        """A model calibrated from any number of prior sweep results."""
        model = cls(fallback=fallback)
        for result in results:
            model.calibrate(result)
        return model

    def calibrate(self, result: SweepResult) -> int:
        """Record the wall-clock of every fresh, successful outcome.

        Cached outcomes carry the wall-clock of some earlier run's disk
        read, not of the simulation, so they are ignored.  Returns the
        number of observations absorbed.
        """
        absorbed = 0
        for outcome in result.outcomes:
            if self.observe(outcome):
                absorbed += 1
        return absorbed

    def observe(self, outcome: ScenarioOutcome) -> bool:
        """Record one outcome; returns whether it was usable."""
        if not outcome.ok or outcome.from_cache or outcome.wall_time <= 0:
            return False
        if outcome.duration <= 0:
            return False
        rate = outcome.wall_time / outcome.duration
        backend_key = outcome.backend
        if getattr(outcome, "cohort", None) and outcome.cohort > 1:
            backend_key += self.COHORT_KEY_SUFFIX
        rates = self._rates.setdefault(
            (outcome.scenario_name, backend_key), [])
        rates.append(rate)
        if len(rates) > self.MAX_OBSERVATIONS_PER_KEY:
            del rates[:-self.MAX_OBSERVATIONS_PER_KEY]
        return True

    def observations(self) -> int:
        """Total number of recorded observations."""
        return sum(len(rates) for rates in self._rates.values())

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-serialisable form: the recorded rates, keyed by scenario
        name and backend (the fallback heuristic is code, not data)."""
        return {
            "format": self.FORMAT,
            "rates": [
                {"scenario": name, "backend": backend, "rates": list(rates)}
                for (name, backend), rates in sorted(self._rates.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: dict,
                  fallback: Optional[CostModel] = None,
                  ) -> "RecordedCostModel":
        """Rebuild a model serialised with :meth:`to_dict`."""
        if data.get("format") != cls.FORMAT:
            raise ValueError(f"not a cost model: format "
                             f"{data.get('format')!r}")
        model = cls(fallback=fallback)
        for entry in data["rates"]:
            rates = [float(rate) for rate in entry["rates"]]
            model._rates[(entry["scenario"], entry["backend"])] = (
                rates[-cls.MAX_OBSERVATIONS_PER_KEY:])
        return model

    def save(self, path: str | Path) -> Path:
        """Atomically persist the recorded rates as JSON."""
        path = Path(path)
        atomic_write_text(path, json.dumps(self.to_dict(), indent=2))
        return path

    @classmethod
    def load(cls, path: str | Path,
             fallback: Optional[CostModel] = None) -> "RecordedCostModel":
        """Load a model persisted with :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()),
                             fallback=fallback)

    @classmethod
    def load_if_present(cls, path: str | Path,
                        fallback: Optional[CostModel] = None,
                        ) -> Optional["RecordedCostModel"]:
        """Best-effort load: ``None`` when the file is absent, and a fresh
        warning-logged ``None`` when it is unreadable — a corrupt cost model
        must never break planning (the static heuristic still works)."""
        path = Path(path)
        if not path.exists():
            return None
        try:
            return cls.load(path, fallback=fallback)
        except (OSError, ValueError, KeyError, TypeError,
                json.JSONDecodeError) as error:
            logger.warning("ignoring unreadable cost model %s: %r",
                           path, error)
            return None

    # ------------------------------------------------------------------ #
    # Estimation
    # ------------------------------------------------------------------ #
    def recorded_rate(self, spec: ScenarioSpec,
                      cohort: bool = False) -> Optional[float]:
        """Mean recorded wall-seconds per simulated second, if any.

        With ``cohort`` the cohort-mode history (per-member effective rate)
        is consulted instead of the solo history."""
        backend_key = spec.backend_name()
        if cohort:
            backend_key += self.COHORT_KEY_SUFFIX
        rates = self._rates.get((spec.name, backend_key))
        if not rates:
            return None
        return sum(rates) / len(rates)

    def estimate(self, spec: ScenarioSpec, duration: float) -> float:
        rate = self.recorded_rate(spec)
        if rate is not None:
            return rate * max(duration, 1e-9)
        return self._rescaled_fallback(spec, duration)

    def cohort_estimate(self, spec: ScenarioSpec, duration: float,
                        cohort_size: int) -> float:
        if cohort_size <= 1:
            return self.estimate(spec, duration)
        rate = self.recorded_rate(spec, cohort=True)
        if rate is not None:
            return rate * max(duration, 1e-9)
        # No cohort history yet: scale the solo estimate by the fallback
        # heuristic's batched/solo ratio (1.0 for non-analytic scenarios).
        solo = self.estimate(spec, duration)
        base = self.fallback.estimate(spec, duration)
        if base <= 0:
            return solo
        return solo * (self.fallback.cohort_estimate(spec, duration,
                                                     cohort_size) / base)

    def _rescaled_fallback(self, spec: ScenarioSpec, duration: float) -> float:
        """Fallback estimate rescaled onto the recorded-cost scale.

        Uses the mean ratio of recorded rate to static estimate over the
        calibrated population; with no calibration at all this degrades to
        the raw static heuristic (every scenario is scaled equally, which is
        all LPT needs).
        """
        base = self.fallback.estimate(spec, duration)
        if not self._scale_samples:
            # No calibrated spec in the planned population: plain heuristic
            # (uniformly scaled, which is all LPT needs).
            return base
        return base * (sum(self._scale_samples) / len(self._scale_samples))

    def prepare_scale(self, specs: Sequence[ScenarioSpec],
                      duration: float) -> None:
        """Recompute the recorded/static rescaling over a planned population.

        Called by :func:`plan_shards`; idempotent (the sample set is rebuilt
        from scratch each time).
        """
        self._scale_samples = []
        for spec in specs:
            rate = self.recorded_rate(spec)
            if rate is None:
                continue
            base = self.fallback.estimate(spec, duration)
            if base > 0:
                self._scale_samples.append(rate * max(duration, 1e-9) / base)


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
                duration: float,
                cost_model: Optional[CostModel] = None,
                cohort_size: int = 1) -> ShardPlan:
    """Partition ``specs`` into ``num_shards`` shards with LPT greedy.

    Deterministic: equal inputs always produce the identical plan (costs tie
    on scenario index, shard loads tie on shard id).  Shards can end up
    empty when there are fewer scenarios than shards.

    ``cohort_size > 1`` plans for workers running vectorized cohorts of
    that size: analytic scenarios are weighted by their batched cost
    (:meth:`CostModel.cohort_estimate`), so an analytic-heavy shard is
    sized for its true throughput instead of its solo cost.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    model = cost_model or StaticCostModel()
    if isinstance(model, RecordedCostModel):
        model.prepare_scale(specs, duration)
    if cohort_size > 1:
        costs = [float(model.cohort_estimate(spec, duration, cohort_size))
                 for spec in specs]
    else:
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
