#!/usr/bin/env python3
"""Compare FCFS and weighted-fair-queueing scheduling on a mixed workload.

Reproduces (at small scale) the observation of the paper's Section 6.3: giving
network-layer (NL) requests strict priority sharply reduces their latency at a
modest cost to measure-directly (MD) traffic, while throughput is largely
unaffected.

Run with::

    python examples/scheduler_comparison.py
"""

from __future__ import annotations

from repro.backends import get_backend
from repro.hardware import lab_scenario
from repro.obs import config_from_env
from repro.runtime.scenarios import USAGE_PATTERNS
from repro.runtime.runner import SimulationRun


def main(simulated_seconds: float = 6.0) -> None:
    pattern = USAGE_PATTERNS["MoreNL"]
    print(f"Workload pattern: {pattern.name} "
          f"(mostly NL traffic, plus CK and MD) on the Lab scenario")
    print(f"{'scheduler':<12}{'kind':<6}{'throughput (1/s)':<18}"
          f"{'request latency (s)':<20}")
    # One backend for both runs: the second reuses the first's FEU table.
    backend = get_backend()
    obs = config_from_env()
    for scheduler in ("FCFS", "HigherWFQ"):
        run = SimulationRun(lab_scenario(), pattern.specs, scheduler=scheduler,
                            seed=17, attempt_batch_size=100, backend=backend,
                            name=f"{pattern.name}-{scheduler}", obs=obs)
        summary = run.run(simulated_seconds).summary
        for kind in ("NL", "CK", "MD"):
            throughput = summary.throughput.get(kind, 0.0)
            latency = summary.average_request_latency.get(kind)
            latency_text = f"{latency:.3f}" if latency is not None else "-"
            print(f"{scheduler:<12}{kind:<6}{throughput:<18.2f}{latency_text:<20}")
    print("\nStrict NL priority (HigherWFQ) keeps NL latency low; FCFS lets "
          "large MD requests delay it.")


if __name__ == "__main__":
    main()
