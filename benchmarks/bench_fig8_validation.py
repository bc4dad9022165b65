"""Figure 8 / Figure 10: validation of the physical model against NV hardware.

Regenerates the two curves of Figure 8 for the Lab scenario:

(a) fidelity of the heralded state versus the bright-state population alpha,
(b) probability that a single entanglement attempt succeeds versus alpha.

The paper validates its simulation against hardware data; here we regenerate
the simulated curves and check their shape: F decreases roughly as 1 - alpha
(from ~0.83 down to ~0.55 over alpha in [0, 0.5]) while p_succ grows linearly
to ~3e-4 at alpha = 0.5.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_table
from repro.backends import DensityMatrixBackend

ALPHAS = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5]


def compute_validation_curve(scenario, alphas=ALPHAS):
    """Return (alpha, fidelity, p_succ) rows for the scenario."""
    backend = DensityMatrixBackend()
    rows = []
    for alpha in alphas:
        sampler = backend.attempt_model(scenario, alpha).sampler
        rows.append((alpha, sampler.average_success_fidelity(),
                     sampler.success_probability))
    return rows


def test_fig8_lab_validation_curve(benchmark, lab_config):
    rows = benchmark(compute_validation_curve, lab_config)
    print_table(
        "Figure 8 — Lab: fidelity and success probability vs alpha",
        ["alpha", "fidelity", "p_succ"],
        [[f"{a:.2f}", f"{f:.3f}", f"{p:.2e}"] for a, f, p in rows])

    alphas = np.array([row[0] for row in rows])
    fidelities = np.array([row[1] for row in rows])
    p_succ = np.array([row[2] for row in rows])
    # Shape checks mirroring the paper's hardware validation.
    assert np.all(np.diff(fidelities) < 0), "fidelity must decrease with alpha"
    assert np.all(np.diff(p_succ) > 0), "p_succ must increase with alpha"
    assert fidelities[0] > 0.75
    assert fidelities[-1] < 0.6
    assert 1e-4 < p_succ[-1] < 1e-3
    # p_succ is approximately linear in alpha (p ~ alpha * 1e-3, Section 4.4).
    ratio = p_succ / alphas
    assert ratio.max() / ratio.min() < 1.6


def test_fig8_success_probability_monte_carlo_agreement(benchmark, lab_config):
    """Monte-Carlo sampling agrees with the analytic outcome distribution."""
    rng = np.random.default_rng(1234)
    sampler = DensityMatrixBackend().attempt_model(lab_config, 0.4).sampler

    def sample_rate(trials=20000):
        hits = sum(sampler.sample(rng).is_success for _ in range(trials))
        return hits / trials

    observed = benchmark.pedantic(sample_rate, rounds=1, iterations=1)
    expected = sampler.success_probability
    print(f"\nFigure 8 cross-check: analytic p_succ={expected:.3e}, "
          f"Monte-Carlo={observed:.3e}")
    assert abs(observed - expected) < 6 * np.sqrt(expected / 20000 + 1e-12)
