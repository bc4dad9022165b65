"""``repro.obs`` — unified tracing, metrics, and profiling.

Three opt-in observability layers over the simulator, the sweep
runtime, and the cluster:

- **trace** — a deterministic, sim-time-keyed structured trace
  (:class:`~repro.obs.trace.Tracer`): per-kind engine event accounting
  (scheduled/executed/cancelled/elided) plus protocol-level records
  (midpoint cycle outcomes, EGP OKs/errors and queue depths, swap
  provenance).  Bit-identical for a ``(spec, seed)`` pair across repeat
  runs and across solo vs cohort execution.
- **metrics** — a labelled counter/gauge/histogram registry
  (:class:`~repro.obs.metrics.MetricsRegistry`) serializing to JSON and
  Prometheus text, aggregated per-run → per-shard → per-sweep; cluster
  workers ship theirs to the coordinator via the idempotent
  ``telemetry`` transport op.
- **profile** — a wall-clock sampling profiler
  (:class:`~repro.obs.profiler.SamplingProfiler`) emitting
  collapsed-stack output for flamegraphs.

Enable via the environment::

    REPRO_OBS=trace,metrics          # features: trace, metrics, profile
    REPRO_OBS_DIR=obs_out            # artifact directory (default .repro_obs)

and render artifacts with ``python -m repro.obs.report <path>``.

With ``REPRO_OBS`` unset nothing is allocated and the instrumented hot
paths reduce to ``if tracer is not None`` guards — simulation outcomes
are bit-identical either way (enforced by tests and
``benchmarks/bench_obs_overhead.py``).  Nothing is imported either: the
trace, metrics, profiler and logging submodules load on first use, so a
run that only asks :func:`session_from_env` pays for this module alone.
"""

from __future__ import annotations

import importlib
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profiler import SamplingProfiler
    from repro.obs.trace import Tracer

#: Public names re-exported from the submodules, each imported on first
#: access (PEP 562).
_LAZY = {
    "configure_logging": "repro.obs.logconf",
    "MetricsRegistry": "repro.obs.metrics",
    "SamplingProfiler": "repro.obs.profiler",
    "Tracer": "repro.obs.trace",
    "NullTracer": "repro.obs.trace",
    "NULL_TRACER": "repro.obs.trace",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


__all__ = [
    "ObsConfig", "ObsSession", "Tracer", "NullTracer", "NULL_TRACER",
    "MetricsRegistry", "SamplingProfiler", "config_from_env",
    "session_from_env", "configure_logging", "obs_features",
    "DEFAULT_OBS_DIR",
]

#: Default artifact directory when ``REPRO_OBS_DIR`` is unset.
DEFAULT_OBS_DIR = ".repro_obs"

_KNOWN_FEATURES = ("trace", "metrics", "profile")
_SLUG_RE = re.compile(r"[^A-Za-z0-9._+=@-]+")


def obs_features(value: Optional[str] = None) -> frozenset:
    """Parse a ``REPRO_OBS``-style feature list (``None`` reads the env).

    Unknown feature names are ignored rather than rejected so that a
    newer config string degrades gracefully on an older tree.
    """
    if value is None:
        value = os.environ.get("REPRO_OBS", "")
    features = {part.strip().lower() for part in value.split(",") if part.strip()}
    if "all" in features:
        return frozenset(_KNOWN_FEATURES)
    return frozenset(features & set(_KNOWN_FEATURES))


@dataclass(frozen=True)
class ObsConfig:
    """Which observability features are on, and where artifacts go."""

    trace: bool = False
    metrics: bool = False
    profile: bool = False
    out_dir: Optional[Path] = None

    @property
    def enabled(self) -> bool:
        return self.trace or self.metrics or self.profile


def config_from_env() -> Optional[ObsConfig]:
    """Build an :class:`ObsConfig` from ``REPRO_OBS``/``REPRO_OBS_DIR``.

    Returns ``None`` when no feature is enabled — the caller then skips
    observability entirely (the zero-cost default).
    """
    features = obs_features()
    if not features:
        return None
    out_dir = Path(os.environ.get("REPRO_OBS_DIR", "") or DEFAULT_OBS_DIR)
    return ObsConfig(trace="trace" in features,
                     metrics="metrics" in features,
                     profile="profile" in features,
                     out_dir=out_dir)


def _slug(name: str) -> str:
    return _SLUG_RE.sub("_", name).strip("_") or "run"


class ObsSession:
    """One run's observability state: tracer + metrics + profiler.

    A session is created per simulation run (solo or cohort member),
    attached to the network's engine and protocol entities, and asked to
    write its artifacts once the run finalizes.  Attachment only *sets
    ``tracer`` attributes* — instrumented code reads state, never
    mutates it, so enabling observability cannot perturb outcomes.
    """

    def __init__(self, config: ObsConfig) -> None:
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.profiler import SamplingProfiler
        from repro.obs.trace import Tracer

        self.config = config
        self.tracer: Optional[Tracer] = Tracer() if config.trace else None
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if config.metrics else None)
        self.profiler: Optional[SamplingProfiler] = (
            SamplingProfiler() if config.profile else None)

    # -- attachment ----------------------------------------------------
    def attach_link_network(self, network) -> None:
        """Wire the tracer into a ``LinkLayerNetwork``'s engine/MHP/EGP."""
        if self.tracer is None:
            return
        network.engine.tracer = self.tracer
        network.midpoint.tracer = self.tracer
        for node in network.nodes.values():
            node.mhp.tracer = self.tracer
            node.egp.tracer = self.tracer

    def attach_topology_network(self, network) -> None:
        """Wire the tracer into a ``TopologyNetwork`` (all links + swap)."""
        if self.tracer is None:
            return
        network.engine.tracer = self.tracer
        for link in network.links:
            self.attach_link_network(link.network)
        if network.swap is not None:
            network.swap.tracer = self.tracer

    def start_profiler(self) -> None:
        if self.profiler is not None:
            self.profiler.start()

    def stop_profiler(self) -> None:
        if self.profiler is not None:
            self.profiler.stop()

    # -- run summary ----------------------------------------------------
    def finish_run(self, result) -> None:
        """Record run-level metrics from a finalized ``RunResult``."""
        self.stop_profiler()
        if self.metrics is None:
            return
        self.metrics.counter("repro_run_events_processed_total",
                             result.events_processed)
        self.metrics.counter("repro_run_events_elided_total",
                             result.events_elided)
        self.metrics.counter("repro_run_requests_issued_total",
                             result.requests_issued)
        self.metrics.gauge("repro_run_simulated_seconds", result.simulated_time)

    # -- artifacts ------------------------------------------------------
    def write_artifacts(self, name: str) -> Optional[Path]:
        """Write trace/metrics/profile files under ``out_dir/<name>/``.

        Returns the directory written, or ``None`` when the config has
        no output directory or nothing was collected.
        """
        if self.config.out_dir is None:
            return None
        target = Path(self.config.out_dir) / _slug(name)
        target.mkdir(parents=True, exist_ok=True)
        if self.tracer is not None:
            with open(target / "trace.jsonl", "w", encoding="utf-8") as handle:
                self.tracer.write_jsonl(handle)
        if self.metrics is not None and not self.metrics.is_empty():
            (target / "metrics.json").write_text(
                self.metrics.to_json(indent=2) + "\n", encoding="utf-8")
            (target / "metrics.prom").write_text(
                self.metrics.to_prometheus(), encoding="utf-8")
        if self.profiler is not None and self.profiler.samples:
            (target / "profile.collapsed").write_text(
                self.profiler.collapsed(), encoding="utf-8")
        return target


def session_from_env() -> Optional[ObsSession]:
    """Create a session from the environment, or ``None`` when disabled."""
    config = config_from_env()
    if config is None:
        return None
    return ObsSession(config)
