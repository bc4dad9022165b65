"""Run supervision: deadlines, retry budgets, quarantine and validation.

The sweep and cluster layers trust every scenario to terminate and to
produce a sane summary.  This module is the supervision layer that removes
that trust (crash-only style: bound every execution externally, recover by
retry, give up durably):

:class:`GuardPolicy`
    The knobs — a deterministic event budget and a wall-clock deadline
    enforced *inside* :class:`~repro.sim.engine.SimulationEngine`'s run
    loop, a retry budget (``max_attempts``) consumed by the cluster
    coordinator (which every sweep runs through), and an optional
    result-validation pass.
    The all-``None`` default policy changes nothing: traces, summaries and
    serialized sweeps are bit-identical to an unguarded run.

Failure taxonomy
    Outcome statuses beyond ``"ok"``: ``"timeout"`` (a guard deadline or
    budget fired), ``"oom"`` (``MemoryError``), ``"invalid-result"``
    (validation failed), ``"crash"`` (a worker died without reporting —
    only the cluster coordinator can observe this, via repeated lease
    deaths) and ``"error"`` (any other exception).  ``"quarantined"``
    marks a scenario retired after exhausting its retry budget.

:class:`QuarantineStore`
    Durable one-file-per-scenario quarantine records in the coordinator
    directory, written with the shared atomic + fsync idiom so a quarantine
    decision survives crashes and coordinator restarts.

Validation
    :func:`validate_outcome` checks the plain-data summary (fidelities and
    probabilities in [0, 1], latencies/throughput finite and non-negative,
    counts non-negative); :func:`validate_density_state` checks trace-1
    PSD Hermiticity of a density matrix and is applied best-effort to the
    backend's heralded states where they are reachable.

Scenario-level fault injection
    :class:`ScenarioFaultPlan` schedules hangs, OOMs and worker-killing
    crashes by scenario name.  It is a field of the :class:`GuardPolicy`,
    so it travels in the cluster plan document to every worker, in process
    or not, and a ``plan.json`` names the faults its run injected —
    re-exported by :mod:`repro.cluster.faults` so the whole recovery path
    is replayable in CI.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional

from repro.sim.engine import (
    DeadlineExceeded,
    EngineInterrupt,
    EventBudgetExceeded,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.sweep import ScenarioOutcome

__all__ = [
    "DeadlineExceeded",
    "EngineInterrupt",
    "EventBudgetExceeded",
    "FAILURE_STATUSES",
    "GuardPolicy",
    "QUARANTINED",
    "QuarantineRecord",
    "QuarantineStore",
    "ScenarioFaultPlan",
    "perform_injected_fault",
    "validate_density_state",
    "validate_outcome",
    "validate_summary_data",
]

#: Non-ok outcome statuses the supervisor distinguishes.  ``crash`` never
#: appears in a worker-reported outcome (a crashed worker reports nothing);
#: it is synthesized by the coordinator from repeated lease deaths.
FAILURE_STATUSES = ("timeout", "crash", "oom", "invalid-result", "error")

#: Status of a scenario retired after exhausting its retry budget.
QUARANTINED = "quarantined"


# --------------------------------------------------------------------------- #
# Policy
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScenarioFaultPlan:
    """Scheduled scenario-level faults, keyed by scenario name.

    ``hang`` members spin an unbounded event loop (a genuine hang that
    only a guard deadline/budget can stop); ``oom`` members raise
    ``MemoryError`` at execution time; ``crash`` members kill their worker
    process outright (``os._exit``), leaving the lease to go stale exactly
    like an OOM-killed machine.  Carried as :attr:`GuardPolicy.faults`, so
    every worker — in process or a separate process — reads the same
    schedule from the plan.
    """

    hang: frozenset = frozenset()
    oom: frozenset = frozenset()
    crash: frozenset = frozenset()

    def fault_for(self, scenario_name: str) -> Optional[str]:
        """The fault kind scheduled for ``scenario_name``, or ``None``."""
        if scenario_name in self.hang:
            return "hang"
        if scenario_name in self.oom:
            return "oom"
        if scenario_name in self.crash:
            return "crash"
        return None

    def __bool__(self) -> bool:
        return bool(self.hang or self.oom or self.crash)

    def to_dict(self) -> dict:
        return {"hang": sorted(self.hang), "oom": sorted(self.oom),
                "crash": sorted(self.crash)}

    @classmethod
    def from_dict(cls, data: object) -> "ScenarioFaultPlan":
        """Rebuild a plan from :meth:`to_dict` output; a non-object, an
        unknown kind or a kind that is not a list of names (a malformed
        plan from the wire) raises ``ValueError``."""
        if not isinstance(data, dict):
            raise ValueError(f"faults must be an object, got "
                             f"{type(data).__name__}")
        for kind, names in data.items():
            if kind not in cls.__dataclass_fields__:
                raise ValueError(f"unknown fault kind {kind!r}")
            if not isinstance(names, list) or not all(
                    isinstance(name, str) for name in names):
                raise ValueError(f"faults[{kind!r}] must be a list of "
                                 f"scenario names")
        return cls(**{kind: frozenset(names) for kind, names in data.items()})


@dataclass(frozen=True)
class GuardPolicy:
    """Supervision knobs for one scenario execution.

    Parameters
    ----------
    max_events:
        Deterministic cap on engine events per scenario.  The same
        (scenario, seed, backend) run hits it at exactly the same event,
        so a budget timeout is reproducible anywhere.  ``None`` disables.
    wall_deadline:
        Wall-clock seconds per scenario execution, enforced inside the
        engine's run loop (checked every 1024 events).  ``None`` disables.
    max_attempts:
        Executions (including the first) a failing scenario is granted
        before it is quarantined.
    validate:
        Run :func:`validate_outcome` over successful results and demote
        silently-corrupt ones to ``status="invalid-result"``.
    faults:
        Scenario-level faults to inject (see :class:`ScenarioFaultPlan`);
        empty by default.  A ``hang`` needs a policy that
        :attr:`bounds_execution`, or it would spin forever.
    """

    max_events: Optional[int] = None
    wall_deadline: Optional[float] = None
    max_attempts: int = 2
    validate: bool = False
    faults: ScenarioFaultPlan = ScenarioFaultPlan()

    def __post_init__(self) -> None:
        if self.max_events is not None and self.max_events <= 0:
            raise ValueError("max_events must be positive")
        if self.wall_deadline is not None and self.wall_deadline <= 0:
            raise ValueError("wall_deadline must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.faults.hang and not self.bounds_execution:
            raise ValueError("a hang fault needs max_events or "
                             "wall_deadline to stop it")

    @property
    def bounds_execution(self) -> bool:
        """Whether this policy can interrupt a running scenario."""
        return self.max_events is not None or self.wall_deadline is not None

    def install(self, engine) -> None:
        """Arm ``engine`` (a :class:`SimulationEngine`) with these bounds.

        The wall deadline becomes an absolute ``perf_counter`` value from
        *now*, so install immediately before the run starts.
        """
        if self.max_events is not None:
            engine.event_budget = self.max_events
        if self.wall_deadline is not None:
            engine.deadline_at = time.perf_counter() + self.wall_deadline

    def to_dict(self) -> dict:
        """JSON-serialisable form (cluster plans, sweep metadata); empty
        ``faults`` are omitted, so fault-free plan documents stay stable."""
        data = {"max_events": self.max_events,
                "wall_deadline": self.wall_deadline,
                "max_attempts": self.max_attempts,
                "validate": self.validate}
        if self.faults:
            data["faults"] = self.faults.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "GuardPolicy":
        """Rebuild a policy serialised with :meth:`to_dict`; malformed
        ``faults`` raise ``ValueError``."""
        return cls(max_events=data.get("max_events"),
                   wall_deadline=data.get("wall_deadline"),
                   max_attempts=int(data.get("max_attempts", 2)),
                   validate=bool(data.get("validate", False)),
                   faults=ScenarioFaultPlan.from_dict(data.get("faults", {})))


# --------------------------------------------------------------------------- #
# Result validation
# --------------------------------------------------------------------------- #
def validate_density_state(matrix, atol: float = 1e-6) -> Optional[str]:
    """Check that ``matrix`` is a physical density matrix.

    Trace 1, Hermitian, positive semidefinite (eigenvalues above
    ``-atol``).  Returns ``None`` when physical, else a description of the
    first violation.
    """
    import numpy as np

    array = np.asarray(matrix, dtype=complex)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        return f"not a square matrix (shape {array.shape})"
    if not np.all(np.isfinite(array.real)) or not np.all(np.isfinite(array.imag)):
        return "matrix has non-finite entries"
    trace = complex(np.trace(array))
    if abs(trace - 1.0) > atol:
        return f"trace {trace.real:.8f} is not 1"
    if not np.allclose(array, array.conj().T, atol=atol):
        return "matrix is not Hermitian"
    smallest = float(np.linalg.eigvalsh(array).min())
    if smallest < -atol:
        return f"matrix is not PSD (smallest eigenvalue {smallest:.3e})"
    return None


#: Summary keys holding probability-like values (must lie in [0, 1]).
_UNIT_INTERVAL_KEYS = ("fidelity", "probability", "fraction")
#: Summary keys holding non-negative finite magnitudes.
_NON_NEGATIVE_KEYS = ("latency", "throughput", "duration", "rate",
                      "queue_length", "delivered", "submitted", "completed",
                      "errors", "expires", "oks", "pairs", "requests",
                      "swaps", "fairness")


def _iter_numbers(value) -> Iterable[float]:
    """Flatten a summary value (scalar / dict / list) into its numbers."""
    if isinstance(value, bool) or value is None:
        return
    if isinstance(value, (int, float)):
        yield float(value)
    elif isinstance(value, dict):
        for entry in value.values():
            yield from _iter_numbers(entry)
    elif isinstance(value, (list, tuple)):
        for entry in value:
            yield from _iter_numbers(entry)


def validate_summary_data(data: dict, label: str = "summary") -> list[str]:
    """Validate a plain-data summary dict (``MetricsSummary.to_dict`` or a
    topology hop/end-to-end digest) by key-name convention.

    Keys containing a fidelity/probability word must hold values in
    [0, 1]; latency/throughput/count-like keys must be finite and
    non-negative; everything numeric must be finite.  Returns the list of
    violations (empty = valid).
    """
    problems = []
    for key, value in data.items():
        lowered = key.lower()
        for number in _iter_numbers(value):
            if math.isnan(number) or math.isinf(number):
                problems.append(f"{label}.{key} is non-finite ({number})")
                continue
            if any(word in lowered for word in _UNIT_INTERVAL_KEYS):
                if not 0.0 <= number <= 1.0 + 1e-12:
                    problems.append(
                        f"{label}.{key} = {number} outside [0, 1]")
            elif any(word in lowered for word in _NON_NEGATIVE_KEYS):
                if number < 0.0:
                    problems.append(f"{label}.{key} = {number} is negative")
    return problems


def validate_outcome(outcome: "ScenarioOutcome",
                     atol: float = 1e-6) -> list[str]:
    """Validate the plain-data payload of a successful outcome.

    Returns the list of violations; an empty list means the outcome passes.
    Only ``status="ok"`` outcomes are checked — failures already carry
    their own diagnosis.
    """
    if not outcome.ok:
        return []
    problems = []
    if outcome.summary is not None:
        problems.extend(validate_summary_data(outcome.summary.to_dict()))
    if outcome.hops:
        for position, hop in enumerate(outcome.hops):
            if isinstance(hop, dict):
                problems.extend(
                    validate_summary_data(hop, label=f"hops[{position}]"))
    if isinstance(outcome.end_to_end, dict):
        problems.extend(
            validate_summary_data(outcome.end_to_end, label="end_to_end"))
    if outcome.events_processed < 0:
        problems.append(
            f"events_processed = {outcome.events_processed} is negative")
    return problems


def validate_backend_states(backend, scenario,
                            alphas: tuple = (0.1, 0.3),
                            atol: float = 1e-6) -> list[str]:
    """Best-effort trace-1 PSD sanity over the backend's heralded states.

    Delivered pairs retain only a fidelity float, so the reachable density
    states are the backend's (cached, pure) attempt models: resolve one
    heralded sample per ``alpha`` with a throwaway RNG and validate its
    conditional state.  Backends without sampleable models are skipped —
    validation must never fail a run for lacking states to check.
    """
    import numpy as np

    problems = []
    rng = np.random.default_rng(0)
    for alpha in alphas:
        try:
            model = backend.attempt_model(scenario, float(alpha))
            _, sample = model.resolve(rng, 4096)
        except Exception:
            continue
        state = getattr(sample, "state", None)
        if state is None:
            continue
        problem = validate_density_state(state.matrix, atol=atol)
        if problem is not None:
            problems.append(f"heralded state at alpha={alpha}: {problem}")
    return problems


# --------------------------------------------------------------------------- #
# Quarantine
# --------------------------------------------------------------------------- #
@dataclass
class QuarantineRecord:
    """Durable record of one scenario retired by its retry budget."""

    index: int
    scenario_name: str
    seed: Optional[int]
    attempts: int
    #: Taxonomy status of the *last* observed failure (``"crash"`` when the
    #: coordinator quarantined on lease deaths without any report).
    status: str
    error: Optional[str] = None
    #: Who decided: ``"coordinator"`` for every record written now (local
    #: sweeps run through the coordinator too); ``"sweep"`` in records of
    #: the since-removed in-process retry loop.
    source: str = "sweep"
    recorded_at: float = field(default_factory=time.time)

    def to_dict(self) -> dict:
        return {"index": self.index,
                "scenario_name": self.scenario_name,
                "seed": self.seed,
                "attempts": self.attempts,
                "status": self.status,
                "error": self.error,
                "source": self.source,
                "recorded_at": self.recorded_at}

    @classmethod
    def from_dict(cls, data: dict) -> "QuarantineRecord":
        return cls(index=int(data["index"]),
                   scenario_name=data["scenario_name"],
                   seed=data.get("seed"),
                   attempts=int(data.get("attempts", 0)),
                   status=data.get("status", "error"),
                   error=data.get("error"),
                   source=data.get("source", "sweep"),
                   recorded_at=float(data.get("recorded_at", 0.0)))


class QuarantineStore:
    """One durable JSON record per quarantined scenario.

    Lives in a ``quarantine/`` subdirectory of the coordinator directory
    (a local sweep's ``cache_dir``).  Writes use the atomic + fsync idiom
    (a record's existence is proof of the decision), and records are keyed
    by scenario index so racing writers converge on one file.
    """

    DIRNAME = "quarantine"

    def __init__(self, base_dir: "str | Path") -> None:
        self.directory = Path(base_dir) / self.DIRNAME

    def path(self, index: int) -> Path:
        """Record file for global scenario ``index``."""
        return self.directory / f"scenario-{index:05d}.json"

    def record(self, record: QuarantineRecord) -> Path:
        """Durably persist ``record`` (idempotent: last write wins)."""
        from repro.runtime.cache import atomic_write_text

        path = self.path(record.index)
        atomic_write_text(path, json.dumps(record.to_dict(), indent=2),
                          durable=True)
        return path

    def load(self, index: int) -> Optional[QuarantineRecord]:
        """The record for ``index``, or ``None``."""
        try:
            data = json.loads(self.path(index).read_text())
        except (OSError, json.JSONDecodeError):
            return None
        return QuarantineRecord.from_dict(data)

    def load_all(self) -> list[QuarantineRecord]:
        """Every readable record, by scenario index."""
        if not self.directory.exists():
            return []
        records = []
        for path in sorted(self.directory.glob("scenario-*.json")):
            try:
                records.append(
                    QuarantineRecord.from_dict(json.loads(path.read_text())))
            except (OSError, json.JSONDecodeError, KeyError, ValueError):
                continue
        return sorted(records, key=lambda record: record.index)

    def indices(self) -> set[int]:
        """Indices with a quarantine record."""
        return {record.index for record in self.load_all()}


# --------------------------------------------------------------------------- #
# Scenario-level fault injection
# --------------------------------------------------------------------------- #
def perform_injected_fault(kind: str, scenario_name: str,
                           guard: GuardPolicy) -> None:
    """Execute one fault scheduled by ``guard.faults``.

    ``hang`` builds a throwaway engine spinning no-op events, which only
    the guard's budget/deadline can interrupt (raising
    :class:`EngineInterrupt`) — the policy refuses a hang it cannot bound.
    ``oom`` raises ``MemoryError``; ``crash`` kills the process without
    cleanup (no submit, no heartbeat shutdown), simulating an OOM-killed
    worker.
    """
    if kind == "oom":
        raise MemoryError(f"injected oom for scenario {scenario_name!r}")
    if kind == "crash":
        os._exit(137)
    if kind == "hang":
        from repro.sim.engine import SimulationEngine

        engine = SimulationEngine()
        guard.install(engine)

        def spin() -> None:
            engine.schedule_after(1.0, spin, "injected-hang")

        spin()
        engine.run()
        return
    raise ValueError(f"unknown injected fault kind {kind!r}")
