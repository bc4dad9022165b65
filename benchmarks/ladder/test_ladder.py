"""Tests of the ladder's own machinery (layer map, attribution, statistics,
names, compare verdicts) plus a tiny-duration smoke run of every workload."""

from __future__ import annotations

import json
import re
import signal
import time
from pathlib import Path

import pytest

from benchmarks.ladder import stats
from benchmarks.ladder.compare import compare, verdict
from benchmarks.ladder.harness import ROOT, fold
from benchmarks.ladder.layers import (
    LAYERS,
    OTHER_MODULES,
    layer_of_module,
    module_of_file,
    self_fractions,
    self_time_by_layer,
)
from benchmarks.ladder.metrics import (
    END_TO_END,
    PER_LAYER,
    Metric,
    end_to_end_values,
    per_layer_values,
)
from benchmarks.ladder.pace import Pace
from benchmarks.ladder.rep import digest, run_rep
from benchmarks.ladder.workloads import WORKLOADS, GridResume

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SRC = ROOT / "src"


# --------------------------------------------------------------------------- #
# Layers and attribution
# --------------------------------------------------------------------------- #
def test_every_repro_module_maps_to_one_layer():
    modules = [module_of_file(str(path), SRC)
               for path in sorted((SRC / "repro").rglob("*.py"))]
    assert modules and None not in modules
    seen = set()
    for module in modules:
        layer = layer_of_module(module)
        assert layer in LAYERS, module
        seen.add(layer)
        if layer == "other":
            # Only the deliberate glue may fall through to "other"; a new
            # package must be given a layer of its own.
            assert module == "repro" or any(
                module == prefix or module.startswith(prefix + ".")
                for prefix in OTHER_MODULES), module
    assert seen == set(LAYERS)


def test_layer_of_module_rules():
    assert layer_of_module("repro.core.mhp") == "core.mhp"
    assert layer_of_module("repro.sim.queues") == "sim"
    assert layer_of_module("repro.cluster") == "cluster"
    assert layer_of_module("repro.core") == "other"
    assert layer_of_module("numpy.linalg") is None


def _stats_entry(self_time, callers=None, calls=1):
    return (calls, calls, self_time, self_time, callers or {})


def test_foreign_time_is_charged_to_the_calling_layers():
    mhp = ("src/repro/core/mhp.py", 10, "_poll")
    egp = ("src/repro/core/egp.py", 20, "handle_poll")
    builtin_min = ("~", 0, "<built-in method builtins.min>")
    numpy_dot = ("/site-packages/numpy/core/multiarray.py", 5, "dot")
    orphan = ("/usr/lib/python3/threading.py", 1, "run")
    stats_dict = {
        mhp: _stats_entry(1.0),
        egp: _stats_entry(2.0),
        # min(): 3 s when called from MHP, 1 s from EGP.
        builtin_min: _stats_entry(4.0, {mhp: (3, 3, 3.0, 3.0),
                                        egp: (1, 1, 1.0, 1.0)}),
        # numpy called only through min(): inherits min's split.
        numpy_dot: _stats_entry(2.0, {builtin_min: (2, 2, 2.0, 2.0)}),
        orphan: _stats_entry(0.5),
    }

    def resolve(filename):
        module = module_of_file(filename, Path("src"))
        return None if module is None else layer_of_module(module)

    seconds = self_time_by_layer(stats_dict, resolve)
    assert seconds["core.mhp"] == pytest.approx(1.0 + 3.0 + 1.5)
    assert seconds["core.egp"] == pytest.approx(2.0 + 1.0 + 0.5)
    assert seconds["other"] == pytest.approx(0.5)
    shares = self_fractions(seconds)
    assert sum(shares.values()) == pytest.approx(1.0)


def test_attribution_survives_foreign_call_cycles():
    repro = ("src/repro/sim/engine.py", 1, "run")
    a = ("/lib/a.py", 1, "a")
    b = ("/lib/b.py", 1, "b")
    stats_dict = {
        repro: _stats_entry(1.0),
        a: _stats_entry(1.0, {repro: (1, 1, 0.5, 0.5), b: (1, 1, 0.5, 0.5)}),
        b: _stats_entry(1.0, {a: (1, 1, 1.0, 1.0)}),
    }
    seconds = self_time_by_layer(
        stats_dict, lambda f: "sim" if "repro" in f else None)
    assert sum(seconds.values()) == pytest.approx(3.0)
    assert seconds["sim"] == pytest.approx(3.0)


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def test_stats_helpers():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.median(values) == 3.0
    assert stats.quartiles(values) == (1.5, 4.5)
    assert stats.quartiles([7.0]) == (7.0, 7.0)
    assert stats.iqr_share(values) == pytest.approx(1.0)
    assert stats.percentile(list(range(1, 101)), 90) == 90
    assert stats.percentile([3.0], 50) == 3.0
    summary = stats.summarize(values)
    assert summary["n"] == 5 and summary["values"] == values


@pytest.mark.parametrize("count, expected", [
    (9, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (169, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_above(count, expected):
    assert stats.tail_percentile(count) == expected


# --------------------------------------------------------------------------- #
# Pace
# --------------------------------------------------------------------------- #
def test_pace_reads_a_stretch_at_the_pace_of_its_beats():
    pace = Pace()
    pace.starts = [0.1, 0.2, 0.3]
    pace.durations = [2e-3, 2e-3, 1e-3]
    # Two beats at half the reference pace, one at it: 2/3 of the reference
    # host's speed.  The beats' own 5 ms are left out.
    assert pace.seconds(0.0, 0.35) == pytest.approx((0.35 - 0.005) * 2 / 3)
    # A stretch no beat fell into reads at the pace of all of them.
    assert pace.seconds(1.0, 2.0) == pytest.approx(2 / 3)
    assert pace.slowdown() == pytest.approx(2.0)
    # Without beats, wall time is all there is.
    assert Pace().seconds(1.0, 3.0) == 2.0


def test_pace_beats_on_the_main_thread_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    pace = Pace().start()
    started = time.perf_counter()
    while time.perf_counter() - started < 0.3:
        pass
    ended = time.perf_counter()
    pace.stop()
    assert signal.getsignal(signal.SIGALRM) == previous
    assert len(pace.durations) >= 3
    assert 0 < pace.seconds(started, ended)
    assert pace.resident_mb > 0


# --------------------------------------------------------------------------- #
# Names: BENCHMARK.json, the metric tables and what the code emits agree
# --------------------------------------------------------------------------- #
def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_are_well_formed_and_unique():
    names = ([metric.name for metric in END_TO_END + PER_LAYER]
             + list(WORKLOADS) + list(LAYERS))
    for name in names:
        assert NAME.match(name), name
    metric_names = [metric.name for metric in END_TO_END + PER_LAYER]
    assert len(set(metric_names)) == len(metric_names)


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/ladder"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        cls.why for cls in WORKLOADS.values()]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert setup.bound == max(m.bound for m in END_TO_END) <= 0.25


def _fake_rep(**overrides):
    rep = {"workload": "w", "seed": 1, "traced": False, "setup_s": 0.5,
           "wall_s": 2.0, "ref_setup_s": 0.5, "ref_wall_s": 2.0,
           "sim_seconds": 4.0, "scenarios": 2, "failed": 0,
           "peak_rss_mb": 70.0, "digest": "d", "problems": [],
           "counts": {}, "provenance": {}}
    rep.update(overrides)
    return rep


def _fake_traced():
    counts = {name: 3 for name in (
        "sim.events", "sim.events_elided", "core.mhp.polls",
        "core.egp.polls", "core.egp.grants", "core.scheduler.selects",
        "core.feu.table_builds", "runtime.batch.cohorts",
        "runtime.batch.members", "runtime.cache.hits",
        "runtime.cache.misses", "topology.e2e_pairs", "topology.swaps")}
    return _fake_rep(traced=True, wall_s=6.0, counts=counts,
                     layers={layer: 1.0 / len(LAYERS) for layer in LAYERS},
                     build_s=0.1, advance_s=5.0,
                     probes={"rpc.claim": [1.0, 2.0], "serve.claim": [0.5],
                             "cache.load": [0.2]})


def test_emitted_metric_names_match_the_tables():
    assert list(end_to_end_values(_fake_rep())) == [m.name for m in END_TO_END]
    values = per_layer_values(_fake_traced(), untraced_wall=2.0)
    assert list(values) == [m.name for m in PER_LAYER]
    assert values["trace.overhead_x"] == 3.0
    assert values["cluster.rpc.claim.count"] == 2


def test_fold_counts_crashes_and_digest_mismatches_as_failed():
    good = fold("w", [_fake_rep(), _fake_rep()], _fake_traced())
    assert good["correct"] and good["failed"] == 0
    assert good["attempted"] == 6
    assert set(good["per_layer"]) == {m.name for m in PER_LAYER}

    crashed = {"workload": "w", "seed": 1, "traced": False, "crashed": True,
               "error": "boom"}
    bad = fold("w", [_fake_rep(), _fake_rep(digest="x"), _fake_rep(),
                     crashed])
    assert not bad["correct"]
    assert bad["failed"] == 4 and bad["attempted"] == 8

    pinned = fold("w", [_fake_rep(), _fake_rep()], reference={"w": "other"})
    assert not pinned["correct"] and pinned["failed"] == 4


# --------------------------------------------------------------------------- #
# compare
# --------------------------------------------------------------------------- #
LOWER = Metric("t", "s", "lower", 0.1)


@pytest.mark.parametrize("base, new, expected", [
    ([10.0, 10.1, 10.2, 9.9, 10.0], [5.0, 5.1, 4.9, 5.0, 5.2], "better"),
    ([10.0, 10.1, 10.2, 9.9, 10.0], [13.0, 13.1, 12.9, 13.0, 13.2], "worse"),
    ([10.0, 10.1, 10.2, 9.9, 10.0], [10.1, 9.9, 10.3, 10.0, 10.2],
     "within-bound"),
    # BASE's spread (IQR/median ~ 0.4) dwarfs the 0.1 bound, and NEW is
    # neither clearly better nor clearly worse.
    ([6.0, 10.0, 14.0, 8.0, 12.0], [12.0, 9.0, 13.0, 7.5, 11.5],
     "unresolved"),
    # The same wide BASE, but every NEW repetition beats every BASE one.
    ([6.0, 10.0, 14.0, 8.0, 12.0], [5.0, 5.5, 4.0, 5.2, 5.9], "better"),
])
def test_compare_verdicts(base, new, expected):
    assert verdict(LOWER, base, new) == expected


def _record(values: dict, failed=0, attempted=10):
    end_to_end = {metric.name: {"values": values[metric.name]}
                  for metric in END_TO_END}
    return {"workloads": {"w": {"end_to_end": end_to_end, "failed": failed,
                                "attempted": attempted, "digest": "d",
                                "per_layer": {"sim.events": 100}}}}


def test_compare_flags_regressions_and_failures():
    steady = {"setup_s": [1.0, 1.01, 0.99], "host_s_per_sim_s": [2.0] * 3,
              "scenarios_per_s": [5.0] * 3, "peak_rss_mb": [70.0] * 3}
    slower = dict(steady, host_s_per_sim_s=[3.0, 3.1, 3.05])
    lines, regressed = compare([_record(steady)], [_record(steady)])
    assert not regressed
    _, regressed = compare([_record(steady)], [_record(slower)])
    assert regressed
    _, regressed = compare([_record(steady)], [_record(steady, failed=1)])
    assert regressed


# --------------------------------------------------------------------------- #
# Workload smoke runs
# --------------------------------------------------------------------------- #
TINY = {"link-analytic": 0.5, "link-density": 0.2, "chain5": 0.02,
        "grid-local": 0.02, "grid-tcp": 0.02, "grid-resume": 0.02}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_smoke(name, tmp_path):
    kwargs = {"duration": TINY[name]}
    if name == "grid-resume":
        kwargs["passes"] = 2
    workload = WORKLOADS[name](**kwargs)
    try:
        workload.setup(20261016, tmp_path)
        observed = workload.observe(workload.call())
    finally:
        workload.close()
    assert observed.problems == []
    assert observed.scenario_count >= len(observed.scenarios) >= 1
    assert observed.sim_seconds == pytest.approx(
        TINY[name] * observed.scenario_count)
    assert all(s["backend"] in ("analytic", "density")
               for s in observed.scenarios)
    assert all(s["engine"] == "heap" for s in observed.scenarios)
    assert len(digest(observed.scenarios)) == 64


def test_traced_repetition_reports_every_layer_metric(tmp_path):
    import time

    record = run_rep(WORKLOADS["chain5"](duration=0.02), 1, tmp_path,
                     traced=True, spawned_ns=time.monotonic_ns())
    assert record["problems"] == []
    assert sum(record["layers"].values()) == pytest.approx(1.0)
    values = per_layer_values(record, untraced_wall=record["wall_s"])
    assert set(values) == {m.name for m in PER_LAYER}
    assert values["core.feu.table_builds"] == 8  # 4 links x 2 nodes
    assert values["core.mhp.polls"] > 0
    assert values["sim.events"] == record["counts"]["sim.events"] > 0


def test_untraced_repetition_reports_reference_seconds(tmp_path):
    record = run_rep(WORKLOADS["link-analytic"](duration=2.0), 1, tmp_path,
                     traced=False, spawned_ns=time.monotonic_ns())
    assert record["problems"] == []
    assert record["pace"]["beats"] >= 1
    values = end_to_end_values(record)
    assert all(value > 0 for value in values.values())
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_grid_resume_detects_a_cache_that_disagrees(tmp_path):
    workload = GridResume(duration=0.02, passes=1)
    try:
        workload.setup(3, tmp_path)
        raw = workload.call()
        workload.fill.outcomes[0].events_processed += 1
        observed = workload.observe(raw)
    finally:
        workload.close()
    assert any("differ" in problem for problem in observed.problems)
