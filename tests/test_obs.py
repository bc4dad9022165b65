"""Tests for ``repro.obs`` — tracing, metrics, profiling, telemetry.

The load-bearing guarantees:

* **Outcome preservation** — attaching observability changes *nothing*
  about a run's results: summary, event counts and the engine's
  ``(time, name)`` trace are bit-identical with observability on or off.
* **Trace determinism** — the structured trace of a ``(spec, seed)``
  pair is identical across repeat runs, and its artifact byte-identical.
* **Telemetry** — cluster workers ship their metrics registry through
  the idempotent ``telemetry`` transport op and the coordinator merges
  the per-worker snapshots into ``SweepResult.telemetry``.
"""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster import ClusterCoordinator, ClusterWorker, LocalTransport
from repro.cluster.coordinator import TELEMETRY_DIR
from repro.obs import (
    DEFAULT_OBS_DIR,
    MetricsRegistry,
    NULL_TRACER,
    ObsConfig,
    Tracer,
    config_from_env,
    obs_features,
)
from repro.obs.logconf import configure_logging
from repro.obs.report import main as report_main
from repro.obs.trace import read_jsonl
from repro.runtime import ScenarioSpec, chain_grid, single_kind_scenarios
from repro.runtime.runner import SimulationRun
from repro.runtime.sweep import ScenarioOutcome, SweepRunner, execute_scenario

SRC = Path(__file__).resolve().parents[1] / "src"

# Long enough for the High-load Lab workloads to issue requests and
# deliver pairs (0.05s would trace an empty run); still < 0.1s wall each.
DURATION = 0.2

def grid(count=None, backend="analytic") -> list[ScenarioSpec]:
    specs = single_kind_scenarios(
        "Lab", kinds=("CK", "MD"), loads=("High",), max_pairs_options=(1,),
        origins=("A",), include_md_k255=False, attempt_batch_size=40,
        backend=backend)
    return specs if count is None else specs[:count]


def traced_run(spec: ScenarioSpec, seed: int = 7,
               config: ObsConfig | None = None):
    """Run ``spec`` with an explicit ObsConfig; returns (result, session)."""
    run = SimulationRun(spec.scenario, spec.workload,
                        scheduler=spec.scheduler, seed=seed,
                        attempt_batch_size=spec.attempt_batch_size,
                        backend=spec.backend,
                        obs=config if config is not None
                        else ObsConfig(trace=True))
    return run.run(DURATION), run.obs


# --------------------------------------------------------------------------- #
# Config / env plumbing
# --------------------------------------------------------------------------- #
class TestObsConfig:
    def test_features_parse(self):
        assert obs_features("trace,metrics") == {"trace", "metrics"}
        assert obs_features(" TRACE , profile ") == {"trace", "profile"}
        assert obs_features("all") == {"trace", "metrics", "profile"}
        assert obs_features("bogus,trace") == {"trace"}
        assert obs_features("") == frozenset()

    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        assert config_from_env() is None

    def test_env_config(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_OBS", "trace,metrics")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "out"))
        config = config_from_env()
        assert config.trace and config.metrics and not config.profile
        assert config.out_dir == tmp_path / "out"
        monkeypatch.delenv("REPRO_OBS_DIR")
        assert str(config_from_env().out_dir) == DEFAULT_OBS_DIR

    def test_run_without_obs_has_no_tracer(self, monkeypatch, tmp_path):
        # The environment is not read below the entry points.
        monkeypatch.setenv("REPRO_OBS", "trace")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        spec = grid(1)[0]
        run = SimulationRun(spec.scenario, spec.workload, seed=3,
                            backend=spec.backend,
                            attempt_batch_size=spec.attempt_batch_size)
        assert run.obs is None
        assert run.network.engine.tracer is None
        run.run(DURATION)
        assert run.obs is None
        assert list(tmp_path.iterdir()) == []

    def test_run_without_obs_loads_no_obs_submodule(self):
        """A link run without ``obs`` imports nothing of ``repro.obs``:
        the tracer, metrics and profiler modules stay unloaded (checked in
        a fresh interpreter, since this process has imported them)."""
        code = (
            "import sys\n"
            "from repro.runtime import single_kind_scenarios\n"
            "spec = single_kind_scenarios('Lab', kinds=('MD',), "
            "loads=('High',), max_pairs_options=(1,), origins=('A',), "
            "include_md_k255=False, backend='analytic')[0]\n"
            f"assert spec.run({DURATION}, seed=3).events_processed > 0\n"
            "print(sorted(name for name in sys.modules "
            "if name.startswith('repro.obs')))\n")
        env = {key: value for key, value in os.environ.items()
               if key != "REPRO_OBS"}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        output = subprocess.run([sys.executable, "-c", code], env=env,
                                check=True, capture_output=True,
                                text=True).stdout
        loaded = output.strip().splitlines()[-1]
        for module in ("repro.obs.trace", "repro.obs.metrics",
                       "repro.obs.profiler", "repro.obs.logconf"):
            assert f"'{module}'" not in loaded, loaded
        assert loaded == "[]", loaded


# --------------------------------------------------------------------------- #
# Outcome preservation
# --------------------------------------------------------------------------- #
class TestOutcomePreservation:
    def test_observability_does_not_change_results(self):
        spec = grid(1)[0]
        plain = SimulationRun(spec.scenario, spec.workload, seed=11,
                              backend=spec.backend,
                              attempt_batch_size=spec.attempt_batch_size,
                              obs=None).run(DURATION)
        traced, session = traced_run(
            spec, seed=11, config=ObsConfig(trace=True, metrics=True))
        assert traced.summary == plain.summary
        assert traced.events_processed == plain.events_processed
        assert traced.events_elided == plain.events_elided
        assert traced.requests_issued == plain.requests_issued
        # And the trace actually saw the run.
        assert sum(session.tracer.executed.values()) == plain.events_processed
        assert session.tracer.records

    def test_null_tracer_is_inert(self):
        NULL_TRACER.event(0.0, "x", a=1)
        NULL_TRACER.span(0.0, 1.0, "x")
        NULL_TRACER.counter("x")
        NULL_TRACER.on_scheduled("x")
        NULL_TRACER.on_executed("x")
        NULL_TRACER.on_cancelled("x")
        NULL_TRACER.on_elided("x")
        assert NULL_TRACER.records == []
        assert NULL_TRACER.counters == {}


# --------------------------------------------------------------------------- #
# Trace determinism
# --------------------------------------------------------------------------- #
class TestTraceDeterminism:
    def test_identical_across_repeat_runs(self):
        spec = grid(2)[1]
        _, first = traced_run(spec, seed=5)
        _, second = traced_run(spec, seed=5)
        assert first.tracer.to_dict()["records"], \
            "trace captured no protocol events"
        assert first.tracer.to_dict() == second.tracer.to_dict()

    def test_repeat_executions_write_byte_identical_traces(self, tmp_path):
        specs = grid(2)
        seeds = [31, 32]
        first_dir = tmp_path / "first"
        second_dir = tmp_path / "second"

        first = ObsConfig(trace=True, out_dir=first_dir)
        first_outcomes = [execute_scenario(spec, seed, DURATION, obs=first)
                          for spec, seed in zip(specs, seeds)]

        second = ObsConfig(trace=True, out_dir=second_dir)
        outcomes = [execute_scenario(spec, seed, DURATION, obs=second)
                    for spec, seed in zip(specs, seeds)]
        assert all(outcome.ok for outcome in outcomes)

        traced_ids = []
        for spec, seed, outcome in zip(specs, seeds, first_outcomes):
            name = f"{spec.name}-seed{seed}"
            first = (first_dir / name / "trace.jsonl").read_bytes()
            second = (second_dir / name / "trace.jsonl").read_bytes()
            assert first == second
            records, summary = read_jsonl(first_dir / name / "trace.jsonl")
            assert summary is not None and records
            # OKs and errors carry the run's own create ids: each run
            # counts from 1, whatever ran before it in this process.
            ids = {record["fields"]["create_id"] for record in records
                   if record["name"].endswith((".ok", ".error"))}
            assert ids <= set(range(1, outcome.requests_issued + 1))
            traced_ids.append(ids)
        # The second run (MD) delivers; its ids did not continue the first's.
        assert min(traced_ids[1]) == 1


class TestRunArtifacts:
    @pytest.mark.parametrize("kind", ["link", "chain"])
    def test_spec_run_writes_its_own_artifacts(self, kind, tmp_path):
        spec = (grid(1)[0] if kind == "link"
                else chain_grid(lengths=(3,), loads=("High",),
                                attempt_batch_size=40,
                                backend="analytic")[0])
        spec.run(DURATION, seed=9, obs=ObsConfig(trace=True, out_dir=tmp_path))
        assert [path.name for path in tmp_path.iterdir()] == [
            f"{spec.name}-seed9"]
        records, summary = read_jsonl(
            tmp_path / f"{spec.name}-seed9" / "trace.jsonl")
        assert summary is not None and records

    def test_config_without_out_dir_writes_nothing(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        execute_scenario(grid(1)[0], 9, DURATION, obs=ObsConfig(trace=True))
        assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------------- #
# events_elided provenance
# --------------------------------------------------------------------------- #
class TestEventsElided:
    def test_elision_is_counted(self):
        spec = grid(1)[0]
        outcome = execute_scenario(spec, 11, DURATION)
        assert outcome.ok
        # Lab scenarios elide reply watchdogs (lossless classical channel)
        # and busy polls, so a non-trivial run must report elisions.
        assert outcome.events_elided > 0
        assert outcome.events_processed > 0

    def test_round_trips_through_serialization(self):
        spec = grid(1)[0]
        outcome = execute_scenario(spec, 11, DURATION)
        rebuilt = ScenarioOutcome.from_dict(
            json.loads(json.dumps(outcome.to_dict())))
        assert rebuilt.events_elided == outcome.events_elided
        assert rebuilt == outcome

    def test_tracer_sees_per_kind_elision(self):
        spec = grid(1)[0]
        result, session = traced_run(spec, seed=11)
        assert sum(session.tracer.elided.values()) == result.events_elided


# --------------------------------------------------------------------------- #
# Metrics registry
# --------------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        registry = MetricsRegistry(base_labels={"worker": "w1"})
        registry.counter("jobs_total", 3, status="ok")
        registry.counter("jobs_total", status="ok")
        registry.gauge("depth", 7.0)
        registry.observe("latency_seconds", 0.02)
        registry.observe("latency_seconds", 4.0)
        rebuilt = MetricsRegistry.from_dict(registry.to_dict())
        assert rebuilt.to_dict() == registry.to_dict()
        assert rebuilt.counter_value("jobs_total",
                                     worker="w1", status="ok") == 4
        assert rebuilt.gauge_value("depth", worker="w1") == 7.0

    def test_merge_sums_counters_and_histograms(self):
        a = MetricsRegistry(base_labels={"worker": "a"})
        b = MetricsRegistry(base_labels={"worker": "b"})
        a.counter("jobs_total", 2)
        b.counter("jobs_total", 5)
        a.observe("latency_seconds", 0.01)
        b.observe("latency_seconds", 0.5)
        merged = MetricsRegistry().merge(a).merge(b.to_dict())
        assert merged.counter_value("jobs_total", worker="a") == 2
        assert merged.counter_value("jobs_total", worker="b") == 5
        # Merging the same snapshot twice must double-count (counters sum):
        # idempotence lives at the transport layer (whole-file replacement),
        # not in merge itself.
        doubled = MetricsRegistry().merge(a).merge(a)
        assert doubled.counter_value("jobs_total", worker="a") == 4

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("repro_jobs_total", 2, status="ok")
        registry.gauge("repro_depth", 1.5)
        registry.observe("repro_wall_seconds", 0.3)
        text = registry.to_prometheus()
        assert '# TYPE repro_jobs_total counter' in text
        assert 'repro_jobs_total{status="ok"} 2' in text
        assert '# TYPE repro_wall_seconds histogram' in text
        assert 'repro_wall_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_wall_seconds_count 1" in text


# --------------------------------------------------------------------------- #
# Sweep-level metrics
# --------------------------------------------------------------------------- #
class TestSweepMetrics:
    def test_sweep_telemetry_attached_and_written(self, tmp_path):
        # A sweep's metrics are its worker's registry, merged by the
        # coordinator into the coordinator directory (the cache_dir).
        specs = grid(2)
        result = SweepRunner(specs, DURATION, master_seed=77,
                             cache_dir=tmp_path / "cache",
                             obs=ObsConfig(metrics=True,
                                           out_dir=tmp_path / "obs")).run()
        assert result.telemetry is not None
        registry = MetricsRegistry.from_dict(result.telemetry)
        assert registry.counter_value("repro_worker_submits_total",
                                      worker="local-0", shard="0",
                                      status="ok") == len(specs)
        assert (tmp_path / "cache" / "metrics.json").exists()
        assert (tmp_path / "cache" / "metrics.prom").exists()
        # A rerun without metrics leaves no stale merged metrics behind.
        rerun = SweepRunner(specs, DURATION, master_seed=77,
                            cache_dir=tmp_path / "cache").run()
        assert rerun.telemetry is None
        assert not (tmp_path / "cache" / "metrics.json").exists()
        assert not (tmp_path / "cache" / "metrics.prom").exists()
        # The serialized sweep keeps the telemetry section.
        rebuilt = type(result).from_dict(result.to_dict())
        assert rebuilt.telemetry == result.telemetry

    def test_sweep_without_obs_has_no_telemetry(self):
        result = SweepRunner(grid(1), DURATION, master_seed=77).run()
        assert result.telemetry is None
        assert "telemetry" not in result.to_dict()


# --------------------------------------------------------------------------- #
# Cluster telemetry op
# --------------------------------------------------------------------------- #
class TestClusterTelemetry:
    def test_local_transport_writes_snapshot(self, tmp_path):
        specs = grid(2)
        coordinator = ClusterCoordinator(specs, DURATION, tmp_path,
                                         master_seed=77, num_shards=1)
        coordinator.write_plan()
        transport = LocalTransport(coordinator.state)
        transport.send_telemetry("w1", {"format": "repro-metrics/v1",
                                        "counters": []})
        transport.send_telemetry("w1", {"format": "repro-metrics/v1",
                                        "counters": []})  # idempotent rewrite
        path = tmp_path / TELEMETRY_DIR / "w1.json"
        assert json.loads(path.read_text())["format"] == "repro-metrics/v1"
        transport.close()

    def test_worker_ships_and_coordinator_merges(self, tmp_path):
        obs = ObsConfig(metrics=True, out_dir=tmp_path / "obs")
        specs = grid(2)
        cluster_dir = tmp_path / "cluster"
        coordinator = ClusterCoordinator(specs, DURATION, cluster_dir,
                                         master_seed=77, num_shards=2)
        coordinator.write_plan()
        workers = [ClusterWorker(LocalTransport(coordinator.state),
                                 worker_id=f"w{i}", shard=i, obs=obs)
                   for i in range(2)]
        for worker in workers:
            while worker.step() is not None:
                pass
            worker.close()
        result = coordinator.merge()
        assert result.telemetry is not None
        merged = MetricsRegistry.from_dict(result.telemetry)
        total = sum(
            merged.counter_value("repro_worker_claims_total",
                                 worker=f"w{i}", shard=str(i)) or 0
            for i in range(2))
        assert total == len(specs)
        assert (cluster_dir / "metrics.json").exists()
        assert (cluster_dir / "metrics.prom").exists()
        # Per-worker snapshots landed through the transport op.
        assert sorted(path.name for path
                      in (cluster_dir / TELEMETRY_DIR).glob("*.json")) \
            == ["w0.json", "w1.json"]

    def test_merge_without_telemetry_stays_none(self, tmp_path):
        specs = grid(2)
        cluster_dir = tmp_path / "cluster"
        coordinator = ClusterCoordinator(specs, DURATION, cluster_dir,
                                         master_seed=77, num_shards=1)
        coordinator.write_plan()
        worker = ClusterWorker(LocalTransport(coordinator.state),
                               worker_id="w0", shard=0)
        assert worker.metrics is None
        while worker.step() is not None:
            pass
        worker.close()
        result = coordinator.merge()
        assert result.telemetry is None

    def test_serve_dispatch_handles_telemetry_frame(self, tmp_path):
        from repro.cluster.serve import ClusterCoordinatorServer

        specs = grid(1)
        coordinator = ClusterCoordinator(specs, DURATION, tmp_path / "c",
                                         master_seed=77, num_shards=1)
        server = ClusterCoordinatorServer(coordinator)
        server.start_background()
        try:
            payload = MetricsRegistry(base_labels={"worker": "w9"})
            payload.counter("repro_worker_claims_total")
            response = server.dispatch({"op": "telemetry", "worker_id": "w9",
                                        "metrics": payload.to_dict()})
            assert response["ok"]
            written = tmp_path / "c" / TELEMETRY_DIR / "w9.json"
            assert json.loads(written.read_text())["format"] \
                == "repro-metrics/v1"
            bad = server.dispatch({"op": "telemetry", "worker_id": "w9",
                                   "metrics": "not-a-dict"})
            assert not bad["ok"]
        finally:
            server.stop()


# --------------------------------------------------------------------------- #
# Report CLI and logging
# --------------------------------------------------------------------------- #
class TestReportAndLogging:
    def test_report_renders_obs_dir(self, tmp_path, capsys):
        spec = grid(1)[0]
        execute_scenario(spec, 51, DURATION,
                         obs=ObsConfig(trace=True, metrics=True,
                                       out_dir=tmp_path))
        assert report_main([str(tmp_path)]) == 0
        rendered = capsys.readouterr().out
        assert "trace" in rendered

    def test_report_rejects_empty_path(self, tmp_path, capsys):
        assert report_main([str(tmp_path / "missing")]) == 1

    def test_configure_logging_is_idempotent(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG", raising=False)
        root = logging.getLogger("repro")
        state = (list(root.handlers), root.level, root.propagate)
        try:
            configure_logging()
            configure_logging(verbose=True)
            tagged = [handler for handler in root.handlers
                      if getattr(handler, "_repro_obs_handler", False)]
            assert len(tagged) == 1
            assert root.level == logging.DEBUG
            configure_logging()
            assert root.level == logging.INFO
        finally:
            root.handlers[:], root.level, root.propagate = state
            root.setLevel(state[1])
