"""Timer elision and the engine provenance field.

Reply-watchdog elision is bit-identical (the watchdog never fires at zero
frame loss), and GEN/REPLY timer elision preserves every delivered outcome
while strictly shrinking the event count.  ``ScenarioSpec.engine`` records
the one event queue, ``"heap"``, and rejects any other name.
"""

from __future__ import annotations

import dataclasses
import shutil
from pathlib import Path

import pytest

from repro.core.messages import Priority
from repro.hardware.parameters import lab_scenario, ql2020_scenario
from repro.runtime.runner import SimulationRun
from repro.runtime.scenarios import ScenarioSpec, single_kind_scenarios
from repro.runtime.sweep import SweepRunner
from repro.runtime.workload import WorkloadSpec

#: A resume-cache entry for ``TestEnginePlumbing.grid_spec()`` (master seed
#: 5, 0.2 simulated s), written while the event engine was still
#: selectable and the spec's engine field was ``None``.
HEAP_CACHE_ENTRY = (Path(__file__).parent / "data" / "heap_cache"
                    / "30ccf6a3fdfc28d93fb9.analytic.heap.json")

MIXED_WORKLOAD = [
    WorkloadSpec(priority=Priority.CK, load_fraction=0.99, max_pairs=1,
                 min_fidelity=0.6),
    WorkloadSpec(priority=Priority.MD, load_fraction=0.6, max_pairs=3,
                 min_fidelity=0.55),
]


def traced_run(scenario, workload, duration, *, backend,
               seed=12345, batch=40, **kwargs):
    """Run one simulation recording the executed-event trace."""
    run = SimulationRun(scenario, workload, seed=seed,
                        attempt_batch_size=batch, backend=backend, **kwargs)
    run.network.engine.trace = []
    result = run.run(duration)
    return result, run.network.engine.trace


class TestWatchdogElision:
    """Satellite: at zero frame loss the REPLY provably arrives, so the
    watchdog may be skipped with bit-identical outcomes."""

    @pytest.mark.parametrize("backend", ["analytic", "density"])
    def test_bit_identical_with_and_without_watchdog(self, backend):
        duration = 0.6 if backend == "analytic" else 0.2
        with_wd, trace_with = traced_run(
            ql2020_scenario(), MIXED_WORKLOAD, duration,
            backend=backend, elide_watchdog=False)
        without_wd, trace_without = traced_run(
            ql2020_scenario(), MIXED_WORKLOAD, duration,
            backend=backend, elide_watchdog=True)
        # The watchdog is always cancelled before firing, so the *executed*
        # events are identical: same times and names in the same order
        # (sequence numbers shift because the elided schedules no longer
        # consume them).
        assert [(e[0], e[2]) for e in trace_with] == \
            [(e[0], e[2]) for e in trace_without]
        assert with_wd.events_processed == without_wd.events_processed
        assert with_wd.summary == without_wd.summary
        assert with_wd.requests_issued == without_wd.requests_issued

    def test_watchdog_still_fires_under_frame_loss(self):
        """The elision must auto-disable when frames can be lost."""
        scenario = lab_scenario().with_frame_loss(0.2)
        workload = [WorkloadSpec(priority=Priority.CK, load_fraction=0.99,
                                 max_pairs=1, min_fidelity=0.6)]
        run = SimulationRun(scenario, workload, seed=7, backend="analytic")
        egp = run.network.node_a.egp
        assert egp.elide_watchdog is False
        run.run(2.0)
        recoveries = (run.network.node_a.egp.statistics["lost_reply_recoveries"]
                      + run.network.node_b.egp.statistics["lost_reply_recoveries"])
        assert recoveries > 0  # the watchdog did its job


class TestTimerElision:
    """Satellite/tentpole: GEN/REPLY timer elision preserves outcomes while
    strictly reducing the event count."""

    @pytest.mark.parametrize("backend", ["analytic", "density"])
    def test_outcomes_preserved_and_events_reduced(self, backend):
        duration = 0.6 if backend == "analytic" else 0.2
        reference, _ = traced_run(
            ql2020_scenario(), MIXED_WORKLOAD, duration,
            backend=backend, elide_watchdog=False, timer_elision=False)
        elided, _ = traced_run(
            ql2020_scenario(), MIXED_WORKLOAD, duration,
            backend=backend)
        assert elided.summary == reference.summary
        assert elided.requests_issued == reference.requests_issued
        assert elided.events_processed < reference.events_processed


class TestEnginePlumbing:
    """``ScenarioSpec.engine`` is provenance whose only legal value is
    ``"heap"``."""

    @staticmethod
    def grid_spec(**kwargs):
        return single_kind_scenarios(
            "QL2020", kinds=("MD",), loads=("High",), max_pairs_options=(1,),
            origins=("A",), include_md_k255=False, backend="analytic",
            **kwargs)[0]

    def test_spec_round_trip_preserves_engine(self):
        spec = self.grid_spec(engine="heap")
        assert spec.engine == "heap"
        assert self.grid_spec().engine == "heap"
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt.engine == "heap"
        assert rebuilt == spec

    def test_plan_without_engine_reads_as_heap(self):
        # Plans written while the engine was selectable store ``None``.
        data = {**self.grid_spec().to_dict(), "engine": None}
        assert ScenarioSpec.from_dict(data).engine == "heap"

    @pytest.mark.parametrize("name", ["calendar", "ladder"])
    def test_other_engines_rejected(self, name):
        spec = self.grid_spec()
        with pytest.raises(ValueError, match="the only engine is 'heap'"):
            self.grid_spec(engine=name)
        with pytest.raises(ValueError, match="the only engine is 'heap'"):
            dataclasses.replace(spec, engine=name)
        with pytest.raises(ValueError, match="the only engine is 'heap'"):
            ScenarioSpec.from_dict({**spec.to_dict(), "engine": name})

    def test_run_result_records_engine(self):
        result = self.grid_spec().run(0.2)
        assert result.engine == "heap"

    def test_cache_entry_of_another_engine_skipped_with_reason(
            self, tmp_path):
        specs = [self.grid_spec()]
        SweepRunner(specs, duration=0.2, master_seed=5,
                    cache_dir=tmp_path).run()
        # An entry written under a queue that no longer exists.
        (entry,) = tmp_path.glob("*.analytic.heap.json")
        entry.rename(entry.with_name(
            entry.name.replace(".heap.", ".calendar.")))
        runner = SweepRunner(specs, duration=0.2, master_seed=5,
                             cache_dir=tmp_path)
        result = runner.run()
        report = runner.cache_report()
        assert report.counts()["skips"] == 1
        assert "'calendar'" in report.skips[0].reason
        assert "'heap'" in report.skips[0].reason
        assert result.outcomes[0].ok and not result.outcomes[0].from_cache
        assert SweepRunner(specs, duration=0.2, master_seed=5,
                           cache_dir=tmp_path).run().outcomes[0].from_cache

    def test_cache_entry_written_before_still_hits(self, tmp_path):
        shutil.copy(HEAP_CACHE_ENTRY, tmp_path)
        specs = [self.grid_spec()]
        cached = SweepRunner(specs, duration=0.2, master_seed=5,
                             cache_dir=tmp_path).run().outcomes[0]
        assert cached.from_cache
        fresh = SweepRunner(specs, duration=0.2,
                            master_seed=5).run().outcomes[0]
        assert not fresh.from_cache
        assert cached == fresh
