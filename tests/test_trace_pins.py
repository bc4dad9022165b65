"""Full event traces pinned against a fixture recorded before an engine rewrite.

Each run below must reproduce, exactly, the sha256 of its engine trace —
every executed event's ``(time, sequence, name)`` in execution order —
plus ``events_processed`` and ``events_elided``.  Outcome pins
(``test_outcome_pins.py``) would miss a change that reorders or renames
events but keeps every outcome; these do not.  The runs cover every kind
of scheduling the protocols do:

* the ``link-analytic`` traffic (QL2020, CK f=0.99 k=1 + MD f=0.6 k=3,
  FCFS, analytic backend, attempt batch 100) at seed 1 for 5 simulated s,
  with the workload's periodic queue-length sampler on;
* a 3-node swap-ASAP chain at Ultra load, seed 7, for 0.5 s — the MHP
  poll storm (its first request arrives after 0.05 s);
* ``Lab_robust_loss1e-04`` from :func:`repro.runtime.paper_grid` for
  0.2 s: a lossy MD link, whose midpoint match timeouts are armed and
  cancelled (its first request arrives after 0.02 s);
* the ``link-analytic`` traffic on a QL2020 link that loses classical
  frames (``with_frame_loss(1e-3)``) for 1 s: its K attempts block, so EGP
  reply watchdogs are armed, cancelled and fire.  (Measure-directly
  attempts never arm one, so the robustness scenario above does not.)

Re-record (only when an intended change moves the event trace) with
``PYTHONPATH=src python tests/test_trace_pins.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

FIXTURE = (Path(__file__).parent / "data" / "outcome_pins"
           / "event_traces.json")


def trace_digest(trace: list) -> str:
    """sha256 of an engine trace, one ``time!r sequence name`` line per
    event (``repr`` keeps every float bit)."""
    digest = hashlib.sha256()
    for time, sequence, name in trace:
        digest.update(f"{time!r} {sequence} {name}\n".encode())
    return digest.hexdigest()


def traced_run(spec, seed: int, duration: float) -> dict:
    """Run ``spec`` as :meth:`ScenarioSpec.run` would, with the engine
    trace on, and return the pinned fields."""
    from repro.runtime.runner import SimulationRun
    from repro.topology.run import TopologyRun

    if spec.topology is None:
        run_class, network_spec = SimulationRun, spec.scenario
    else:
        run_class, network_spec = TopologyRun, spec.topology
    run = run_class(network_spec, spec.workload, scheduler=spec.scheduler,
                    seed=seed, attempt_batch_size=spec.attempt_batch_size,
                    backend=spec.backend, obs=None)
    engine = run.network.engine
    engine.trace = []
    result = run.run(duration)
    return {
        "trace_sha256": trace_digest(engine.trace),
        "trace_length": len(engine.trace),
        "events_processed": result.events_processed,
        "events_elided": result.events_elided,
    }


def _link_analytic_spec(frame_loss: float = 0.0):
    from repro.core.messages import Priority
    from repro.hardware.parameters import ql2020_scenario
    from repro.runtime import ScenarioSpec, WorkloadSpec

    return ScenarioSpec(
        name="link-analytic",
        scenario=ql2020_scenario().with_frame_loss(frame_loss),
        workload=(WorkloadSpec(priority=Priority.CK, load_fraction=0.99,
                               max_pairs=1, min_fidelity=0.6),
                  WorkloadSpec(priority=Priority.MD, load_fraction=0.6,
                               max_pairs=3, min_fidelity=0.55)),
        scheduler="FCFS", seed=1, attempt_batch_size=100, backend="analytic")


def _chain3_ultra() -> dict:
    from repro.runtime import chain_grid

    spec, = chain_grid(lengths=(3,), loads=("Ultra",),
                       attempt_batch_size=100, backend="analytic")
    return traced_run(spec, 7, 0.5)


def _lab_robust_loss() -> dict:
    from repro.runtime import paper_grid

    spec, = [spec for spec in paper_grid(attempt_batch_size=100,
                                         backend="analytic")
             if spec.name == "Lab_robust_loss1e-04"]
    return traced_run(spec, spec.seed, 0.2)


#: ``label -> zero-argument run``.
TRACE_RUNS = {
    "link-analytic-seed1-5s": lambda: traced_run(_link_analytic_spec(), 1,
                                                 5.0),
    "chain3-ultra-seed7-0.5s": _chain3_ultra,
    "lab-robust-loss1e-04-0.2s": _lab_robust_loss,
    "lossy-link-analytic-seed1-1s": lambda: traced_run(
        _link_analytic_spec(1e-3), 1, 1.0),
}


@pytest.mark.parametrize("label", list(TRACE_RUNS))
def test_event_trace_matches_pin(label):
    expected = json.loads(FIXTURE.read_text())[label]
    assert TRACE_RUNS[label]() == expected


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(
        {label: run() for label, run in TRACE_RUNS.items()},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
