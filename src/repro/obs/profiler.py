"""Opt-in sampling profiler emitting collapsed-stack output.

A daemon thread periodically samples the target thread's Python stack
via :func:`sys._current_frames` and aggregates identical stacks into
``root;...;leaf count`` lines — the collapsed format consumed by
flamegraph tooling (e.g. ``flamegraph.pl`` or speedscope).

Sampling is wall-clock based and therefore *not* deterministic; the
profiler is strictly an observability aid and never feeds back into
simulation results.  It is enabled only by an ``ObsConfig(profile=True)``.
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, List, Optional

__all__ = ["SamplingProfiler"]


class SamplingProfiler:
    """Sample one thread's stack every ``interval`` seconds."""

    def __init__(self, interval: float = 0.005,
                 thread_ident: Optional[int] = None) -> None:
        self.interval = float(interval)
        self.thread_ident = thread_ident
        self.samples: Dict[str, int] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            return self
        if self.thread_ident is None:
            self.thread_ident = threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-profiler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=2.0)
        self._thread = None

    def _run(self) -> None:
        ident = self.thread_ident
        samples = self.samples
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(ident)
            if frame is None:
                continue
            parts: List[str] = []
            while frame is not None:
                code = frame.f_code
                filename = code.co_filename.rsplit("/", 1)[-1]
                parts.append(f"{filename}:{code.co_name}")
                frame = frame.f_back
            stack = ";".join(reversed(parts))
            samples[stack] = samples.get(stack, 0) + 1

    def collapsed(self) -> str:
        """Collapsed-stack text: one ``stack count`` line per unique stack."""
        return "".join(f"{stack} {count}\n" for stack, count in
                       sorted(self.samples.items(),
                              key=lambda item: (-item[1], item[0])))

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
