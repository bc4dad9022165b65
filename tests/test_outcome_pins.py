"""Outcomes pinned against a fixture recorded before the ready-set rewrite.

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

Re-record (only when an intended change moves outcomes) with
``PYTHONPATH=src python tests/test_outcome_pins.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

FIXTURE = (Path(__file__).parent / "data" / "outcome_pins"
           / "scheduler_runs.json")

#: ``(label, scheduler, CK load, MD load, seed, simulated seconds)``.
PINNED_RUNS = (
    ("link-analytic-seed1", "FCFS", 0.99, 0.6, 1, 60.0),
    ("link-analytic-seed2", "FCFS", 0.99, 0.6, 2, 60.0),
    ("link-analytic-seed3", "FCFS", 0.99, 0.6, 3, 60.0),
    ("deep-ck-md-HigherWFQ", "HigherWFQ", 0.6, 0.99, 1, 60.0),
    ("deep-ck-md-LowerWFQ", "LowerWFQ", 0.6, 0.99, 1, 60.0),
)


def run_pinned(scheduler: str, ck_load: float, md_load: float, seed: int,
               duration: float) -> dict:
    """Run one pinned link and return the pinned fields as plain data."""
    from repro.core.messages import Priority
    from repro.hardware.parameters import ql2020_scenario
    from repro.runtime import ScenarioSpec, WorkloadSpec

    spec = ScenarioSpec(
        name="pinned", scenario=ql2020_scenario(),
        workload=(WorkloadSpec(priority=Priority.CK, load_fraction=ck_load,
                               max_pairs=1, min_fidelity=0.6),
                  WorkloadSpec(priority=Priority.MD, load_fraction=md_load,
                               max_pairs=3, min_fidelity=0.55)),
        scheduler=scheduler, seed=seed, attempt_batch_size=100,
        backend="analytic")
    result = spec.run(duration, seed=seed)
    # The JSON round trip makes the live result comparable to the fixture.
    return json.loads(json.dumps({
        "summary": result.summary.to_dict(),
        "events_processed": result.events_processed,
        "events_elided": result.events_elided,
    }))


@pytest.mark.parametrize("label,scheduler,ck_load,md_load,seed,duration",
                         PINNED_RUNS, ids=[run[0] for run in PINNED_RUNS])
def test_run_matches_pinned_outcome(label, scheduler, ck_load, md_load, seed,
                                    duration):
    expected = json.loads(FIXTURE.read_text())[label]
    assert run_pinned(scheduler, ck_load, md_load, seed, duration) == expected


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(
        {run[0]: run_pinned(*run[1:]) for run in PINNED_RUNS},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
