"""Cohort execution — many analytic scenarios advanced in one process.

A cohort bundles B independent scenarios into one process around a shared
:class:`repro.backends.vectorized.VectorizedAnalyticBackend`.  Each member is
an ordinary :class:`~repro.runtime.runner.SimulationRun` with its own event
engine, network and per-member RNG streams, so member ``i``'s random draws —
and therefore its summary, trace and event count — are bit-identical to a
solo analytic run of scenario ``i``.  What the cohort shares is everything
deterministic the members have in common: FEU fidelity tables, attempt
models and memoized pair-physics chains (see the backend's docstring), which
is where the per-member setup and delivery cost collapses.

The cohort advances in lockstep slices of the longest member duration.
Members whose own duration is reached are finalized and retired without
stalling the rest (ragged retirement), and a member that raises is recorded
and retired without poisoning the cohort (failure isolation).
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.backends import PhysicsBackend
from repro.backends.vectorized import VectorizedAnalyticBackend
from repro.runtime.runner import RunResult, SimulationRun
from repro.runtime.scenarios import ScenarioSpec

__all__ = [
    "CohortExecutor",
    "CohortRunner",
    "DEFAULT_STEPS",
    "cohortable",
    "execute_cohort",
]

#: Lockstep slices per cohort.  Slicing has no effect on results (each
#: member's engine advances through the same events either way); it only
#: bounds how far members can drift apart, which keeps the shared backend
#: caches hot across members working on similar simulated times.
DEFAULT_STEPS = 8


def cohortable(spec: ScenarioSpec) -> bool:
    """Whether ``spec`` can join a vectorized cohort.

    Cohorts require the closed-form ``analytic`` backend: ``density`` has no
    closed-form tables to share, and ``analytic-exact`` exists precisely to
    mirror the density backend's event granularity for equivalence tests.
    Topology scenarios are excluded too — a multi-link run already advances
    several link stacks on one shared engine, which the cohort's interleaved
    advancement scheme does not model.
    """
    return (spec.backend_name() == "analytic"
            and getattr(spec, "topology", None) is None)


@dataclass
class _Member:
    index: int
    spec: ScenarioSpec
    seed: Optional[int]
    duration: float
    run: Optional[SimulationRun] = None
    advanced: float = 0.0


class CohortRunner:
    """Advance a cohort of analytic scenarios through one shared backend.

    Parameters
    ----------
    specs:
        The scenarios forming the cohort; every spec must resolve to the
        ``analytic`` backend (see :func:`cohortable`).
    duration:
        Simulated seconds — one float for all members, or a per-member
        sequence (members with shorter durations retire early).
    seeds:
        Per-member seeds (e.g. the sweep's ``SeedSequence``-derived ones);
        ``None`` falls back to each spec's own seed, exactly like
        :meth:`ScenarioSpec.run`.
    backend:
        Shared backend instance; defaults to a fresh
        :class:`VectorizedAnalyticBackend`.  Passing one in lets several
        consecutive cohorts reuse warmed caches.
    steps:
        Lockstep slices (see :data:`DEFAULT_STEPS`).
    guard:
        Optional :class:`repro.runtime.guard.GuardPolicy` installed on
        every member's engine: the event budget applies per member, and
        the wall deadline — armed once at cohort start — bounds the whole
        cohort, so one hung member cannot wedge the process.  A member
        interrupted by its guard is retired like any failed member (its
        :class:`~repro.sim.engine.EngineInterrupt` traceback lands in
        ``errors``); :func:`execute_cohort` then re-runs it solo.

    After :meth:`run`, ``errors`` holds the per-member traceback (or
    ``None``) and ``wall_time`` the cohort's total wall-clock seconds.
    """

    def __init__(self, specs: Sequence[ScenarioSpec],
                 duration: Union[float, Sequence[float]],
                 seeds: Optional[Sequence[Optional[int]]] = None,
                 backend: Optional[PhysicsBackend] = None,
                 steps: int = DEFAULT_STEPS,
                 guard=None) -> None:
        self.specs = list(specs)
        if not self.specs:
            raise ValueError("cohort is empty")
        for spec in self.specs:
            if not cohortable(spec):
                raise ValueError(
                    f"scenario {spec.name!r} resolves to backend "
                    f"{spec.backend_name()!r}; cohorts require 'analytic'")
        if isinstance(duration, (int, float)):
            durations = [float(duration)] * len(self.specs)
        else:
            durations = [float(value) for value in duration]
            if len(durations) != len(self.specs):
                raise ValueError(f"{len(durations)} durations for "
                                 f"{len(self.specs)} scenarios")
        if any(value <= 0 for value in durations):
            raise ValueError("durations must be positive")
        self.durations = durations
        if seeds is None:
            seed_list: list[Optional[int]] = [spec.seed
                                              for spec in self.specs]
        else:
            seed_list = list(seeds)
            if len(seed_list) != len(self.specs):
                raise ValueError(f"{len(seed_list)} seeds for "
                                 f"{len(self.specs)} scenarios")
        self.seeds = seed_list
        self.backend = (backend if backend is not None
                        else VectorizedAnalyticBackend())
        self.steps = max(1, int(steps))
        self.guard = guard
        self.errors: list[Optional[str]] = [None] * len(self.specs)
        self.wall_time = 0.0

    def run(self) -> list[Optional[RunResult]]:
        """Run the cohort; ``results[i]`` is ``None`` where member ``i``
        failed (the traceback lands in ``errors[i]``)."""
        started = time.perf_counter()
        members: list[_Member] = []
        live: list[_Member] = []
        for index, (spec, seed, duration) in enumerate(
                zip(self.specs, self.seeds, self.durations)):
            member = _Member(index, spec, seed, duration)
            try:
                member.run = SimulationRun(
                    spec.scenario, spec.workload, scheduler=spec.scheduler,
                    seed=spec.seed if seed is None else seed,
                    attempt_batch_size=spec.attempt_batch_size,
                    backend=self.backend)
                if self.guard is not None:
                    self.guard.install(member.run.network.engine)
                member.run.start()
                live.append(member)
            except Exception:
                self.errors[index] = traceback.format_exc()
                member.run = None
            members.append(member)

        results: list[Optional[RunResult]] = [None] * len(members)
        horizon_end = max(self.durations)
        for step in range(1, self.steps + 1):
            if not live:
                break
            # The final slice lands exactly on the longest duration so every
            # member's last advance_to() target is its own duration.
            horizon = (horizon_end if step == self.steps
                       else horizon_end * step / self.steps)
            survivors: list[_Member] = []
            for member in live:
                target = min(horizon, member.duration)
                try:
                    if target > member.advanced:
                        member.run.advance_to(target)
                        member.advanced = target
                    if member.advanced >= member.duration:
                        results[member.index] = member.run.finalize(
                            member.duration)
                    else:
                        survivors.append(member)
                except Exception:
                    self.errors[member.index] = traceback.format_exc()
            live = survivors
        self.wall_time = time.perf_counter() - started
        return results


def execute_cohort(payloads: Sequence[tuple[int, ScenarioSpec, int, float]],
                   backend: Optional[PhysicsBackend] = None,
                   guard=None) -> list[tuple[int, "object"]]:
    """Cohort analogue of :func:`repro.runtime.sweep.execute_scenario`.

    Runs the ``(index, spec, seed, duration)`` payloads as one cohort and
    folds every member into a plain-data
    :class:`~repro.runtime.sweep.ScenarioOutcome` tagged with the cohort
    size.  Always returns one ``(index, outcome)`` pair per payload — a
    failed member (or a cohort-level failure) becomes failed records,
    never an exception.

    With a ``guard`` (a :class:`repro.runtime.guard.GuardPolicy`), member
    engines are bounded and the cohort **degrades** instead of failing
    wholesale: any member that fails or times out inside the cohort is
    automatically re-run solo through ``execute_scenario`` — an innocent
    member of a poisoned cohort recovers on the spot, and only the poison
    member's own solo failure is left to charge its retry budget.  Members
    with a scheduled scenario-level fault (``REPRO_SCENARIO_FAULTS``) are
    routed straight to the solo path so the fault fires under the guard.
    """
    from repro.runtime.guard import injected_scenario_fault, validate_outcome
    from repro.runtime.sweep import ScenarioOutcome, execute_scenario

    outcomes: list[tuple[int, ScenarioOutcome]] = []
    grouped: list[tuple[int, ScenarioSpec, int, float]] = []
    for payload in payloads:
        if injected_scenario_fault(payload[1].name) is not None:
            index, spec, seed, duration = payload
            outcomes.append(
                (index, execute_scenario(spec, seed, duration, guard=guard)))
        else:
            grouped.append(payload)
    if not grouped:
        return outcomes

    specs = [payload[1] for payload in grouped]
    seeds = [payload[2] for payload in grouped]
    durations = [payload[3] for payload in grouped]
    cohort = len(grouped)
    try:
        runner = CohortRunner(specs, durations, seeds=seeds, backend=backend,
                              guard=guard)
        results = runner.run()
        errors = runner.errors
        # The member's effective cost inside the cohort — what batched
        # throughput planning should learn, not the solo-equivalent cost.
        member_wall = runner.wall_time / cohort
    except Exception:
        text = traceback.format_exc()
        results = [None] * cohort
        errors = [text] * cohort
        member_wall = 0.0

    for (index, spec, seed, duration), result, error in zip(
            grouped, results, errors):
        if result is not None:
            if result.obs is not None:
                # Same artifact layout as the solo path, so solo vs cohort
                # traces of a (spec, seed) pair land in the same place and
                # can be diffed byte for byte.
                result.obs.write_artifacts(f"{spec.name}-seed{seed}")
            outcome = ScenarioOutcome(
                scenario_name=spec.name,
                scheduler_name=result.scheduler_name,
                seed=seed,
                duration=duration,
                status="ok",
                summary=result.summary,
                requests_issued=result.requests_issued,
                backend=result.backend,
                events_processed=result.events_processed,
                events_elided=result.events_elided,
                engine=result.engine,
                wall_time=member_wall,
                cohort=cohort,
            )
            if (guard is not None and guard.validate
                    and validate_outcome(outcome)):
                # Suspicious result: isolate on the solo path, where the
                # full validation pass (backend states included) decides.
                outcome = execute_scenario(spec, seed, duration, guard=guard)
        elif guard is not None:
            # Cohort degradation: the failed member re-runs solo, bounded
            # by its own fresh deadline, so its failure is classified
            # (timeout/oom/error) in isolation.
            outcome = execute_scenario(spec, seed, duration, guard=guard)
        else:
            outcome = ScenarioOutcome(
                scenario_name=spec.name,
                scheduler_name=spec.scheduler_name(),
                seed=seed,
                duration=duration,
                status="error",
                error=error or "cohort member did not finish",
                backend=spec.backend_name(),
                wall_time=member_wall,
                cohort=cohort,
            )
        outcomes.append((index, outcome))
    return outcomes


class CohortExecutor:
    """Runs one caller's cohorts, one after another, on one shared backend.

    An in-process sweep and a cluster worker each keep one, so every
    hardware config's FEU table is built once for all their cohorts and
    pair physics stays warm between them (results are bit-identical with
    or without the reuse).  A ``MemoryError`` out of a cohort drops the
    backend with its memos and fails every member as ``oom``; the next
    cohort starts on a fresh backend.
    """

    def __init__(self) -> None:
        self.backend: Optional[VectorizedAnalyticBackend] = None

    def execute(self, payloads: Sequence[tuple[int, ScenarioSpec, int, float]],
                guard=None) -> list[tuple[int, "object"]]:
        """:func:`execute_cohort` on the shared backend."""
        from repro.runtime.sweep import _failure_outcome

        if self.backend is None:
            self.backend = VectorizedAnalyticBackend()
        try:
            return execute_cohort(payloads, backend=self.backend, guard=guard)
        except MemoryError:
            self.backend = None
            return [(index, _failure_outcome(
                        spec, seed, duration, "oom",
                        f"MemoryError in a {len(payloads)}-member cohort",
                        time.perf_counter()))
                    for index, spec, seed, duration in payloads]
