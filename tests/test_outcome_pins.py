"""Outcomes pinned against fixtures recorded before hot-path rewrites.

The distributed queue and the schedulers choose the next request on every
poll.  A change there that keeps the choice must keep every outcome and
every event, so each run below must reproduce its recorded summary,
``events_processed`` and ``events_elided`` exactly.

* ``link-analytic`` traffic (QL2020, CK f=0.99 k=1 + MD f=0.6 k=3, FCFS,
  analytic backend, attempt batch 100) at seeds 1-3 for 60 simulated s —
  a lane backlog of a few hundred items;
* a deep-backlog mixed CK+MD link under HigherWFQ and LowerWFQ, whose MD
  lane holds requests of 1-3 pairs, so its arrival-order head is often not
  its smallest virtual finish time.

A second fixture pins the paths of the MHP poll -> GEN -> midpoint match ->
REPLY -> re-arm cycle, recorded before that cycle was flattened:

* a Lab link on the density-matrix backend with the ``Uniform`` usage
  pattern, seeds 1-2;
* the ``link-analytic`` traffic on a QL2020 link that loses classical frames
  (``with_frame_loss(1e-3)``), so reply watchdogs fire, recover lost
  REPLYs and every channel draws its losses;
* the ``link-analytic`` traffic with ``timer_elision=False`` and
  ``elide_watchdog=False`` — the reference scheduling pattern — for 60 s,
  long enough for two missed sequence numbers to raise EXPIREs;
* a 3-node swap-ASAP chain at Ultra load, seeds 1-2 (``end_to_end`` too),
  whose links keep hitting failed qubit allocations;
* the per-name ``scheduled``/``executed``/``cancelled``/``elided`` counts of
  a traced ``link-analytic`` run, which pin the names the protocols hand
  the tracer.

Re-record (only when an intended change moves outcomes) with
``PYTHONPATH=src python tests/test_outcome_pins.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

FIXTURE = (Path(__file__).parent / "data" / "outcome_pins"
           / "scheduler_runs.json")
ATTEMPT_CYCLE_FIXTURE = FIXTURE.with_name("attempt_cycle_runs.json")

#: ``(label, scheduler, CK load, MD load, seed, simulated seconds)``.
PINNED_RUNS = (
    ("link-analytic-seed1", "FCFS", 0.99, 0.6, 1, 60.0),
    ("link-analytic-seed2", "FCFS", 0.99, 0.6, 2, 60.0),
    ("link-analytic-seed3", "FCFS", 0.99, 0.6, 3, 60.0),
    ("deep-ck-md-HigherWFQ", "HigherWFQ", 0.6, 0.99, 1, 60.0),
    ("deep-ck-md-LowerWFQ", "LowerWFQ", 0.6, 0.99, 1, 60.0),
)


def _ck_md_workload(ck_load: float, md_load: float) -> tuple:
    """CK (k=1, F>=0.6) plus MD (k<=3, F>=0.55) traffic at the given loads."""
    from repro.core.messages import Priority
    from repro.runtime import WorkloadSpec

    return (WorkloadSpec(priority=Priority.CK, load_fraction=ck_load,
                         max_pairs=1, min_fidelity=0.6),
            WorkloadSpec(priority=Priority.MD, load_fraction=md_load,
                         max_pairs=3, min_fidelity=0.55))


def _pinned_fields(result) -> dict:
    """The pinned fields of a run result, as plain data.

    The JSON round trip makes the live result comparable to the fixture.
    """
    fields = {
        "summary": result.summary.to_dict(),
        "events_processed": result.events_processed,
        "events_elided": result.events_elided,
    }
    if result.end_to_end is not None:
        fields["end_to_end"] = result.end_to_end
    return json.loads(json.dumps(fields))


def run_pinned(scheduler: str, ck_load: float, md_load: float, seed: int,
               duration: float) -> dict:
    """Run one pinned link and return the pinned fields as plain data."""
    from repro.hardware.parameters import ql2020_scenario
    from repro.runtime import ScenarioSpec

    spec = ScenarioSpec(
        name="pinned", scenario=ql2020_scenario(),
        workload=_ck_md_workload(ck_load, md_load),
        scheduler=scheduler, seed=seed, attempt_batch_size=100,
        backend="analytic")
    return _pinned_fields(spec.run(duration, seed=seed))


@pytest.mark.parametrize("label,scheduler,ck_load,md_load,seed,duration",
                         PINNED_RUNS, ids=[run[0] for run in PINNED_RUNS])
def test_run_matches_pinned_outcome(label, scheduler, ck_load, md_load, seed,
                                    duration):
    expected = json.loads(FIXTURE.read_text())[label]
    assert run_pinned(scheduler, ck_load, md_load, seed, duration) == expected


# --------------------------------------------------------------------------- #
# Attempt-cycle pins
# --------------------------------------------------------------------------- #
def _density_uniform(seed: int) -> dict:
    from repro.hardware.parameters import lab_scenario
    from repro.runtime import USAGE_PATTERNS, ScenarioSpec

    spec = ScenarioSpec(
        name="pinned", scenario=lab_scenario(),
        workload=USAGE_PATTERNS["Uniform"].specs, scheduler="FCFS",
        seed=seed, attempt_batch_size=100, backend="density")
    return _pinned_fields(spec.run(5.0, seed=seed))


def _lossy_link() -> dict:
    from repro.hardware.parameters import ql2020_scenario
    from repro.runtime import ScenarioSpec

    spec = ScenarioSpec(
        name="pinned", scenario=ql2020_scenario().with_frame_loss(1e-3),
        workload=_ck_md_workload(0.99, 0.6), scheduler="FCFS", seed=1,
        attempt_batch_size=100, backend="analytic")
    # Lossy links get no attempt batching, so every cycle is an event: a
    # few seconds already recover dozens of lost REPLYs.
    return _pinned_fields(spec.run(4.0, seed=1))


def _reference_scheduling() -> dict:
    from repro.hardware.parameters import ql2020_scenario
    from repro.runtime.runner import run_scenario

    return _pinned_fields(run_scenario(
        ql2020_scenario(), _ck_md_workload(0.99, 0.6), 60.0,
        scheduler="FCFS", seed=1, attempt_batch_size=100,
        backend="analytic", timer_elision=False, elide_watchdog=False))


def _chain_ultra(seed: int) -> dict:
    from repro.runtime import chain_grid

    spec, = chain_grid(lengths=(3,), loads=("Ultra",),
                       attempt_batch_size=100, backend="analytic")
    return _pinned_fields(spec.run(1.0, seed=seed))


def _traced_link() -> dict:
    from repro.hardware.parameters import ql2020_scenario
    from repro.obs import ObsConfig
    from repro.runtime.runner import SimulationRun

    run = SimulationRun(ql2020_scenario(), _ck_md_workload(0.99, 0.6),
                        scheduler="FCFS", seed=1, attempt_batch_size=100,
                        backend="analytic", obs=ObsConfig(trace=True))
    run.run(20.0)
    tracer = run.obs.tracer
    return json.loads(json.dumps({
        "scheduled": tracer.scheduled,
        "executed": tracer.executed,
        "cancelled": tracer.cancelled,
        "elided": tracer.elided,
    }))


#: ``label -> zero-argument run`` for the attempt-cycle fixture.
ATTEMPT_CYCLE_RUNS = {
    "density-lab-uniform-seed1": lambda: _density_uniform(1),
    "density-lab-uniform-seed2": lambda: _density_uniform(2),
    "lossy-link-analytic": _lossy_link,
    "reference-scheduling-link-analytic": _reference_scheduling,
    "chain3-ultra-seed1": lambda: _chain_ultra(1),
    "chain3-ultra-seed2": lambda: _chain_ultra(2),
    "traced-link-analytic-tracer-counts": _traced_link,
}


@pytest.mark.parametrize("label", list(ATTEMPT_CYCLE_RUNS))
def test_attempt_cycle_run_matches_pinned_outcome(label):
    expected = json.loads(ATTEMPT_CYCLE_FIXTURE.read_text())[label]
    assert ATTEMPT_CYCLE_RUNS[label]() == expected


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(
        {run[0]: run_pinned(*run[1:]) for run in PINNED_RUNS},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
    ATTEMPT_CYCLE_FIXTURE.write_text(json.dumps(
        {label: run() for label, run in ATTEMPT_CYCLE_RUNS.items()},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {ATTEMPT_CYCLE_FIXTURE}")
