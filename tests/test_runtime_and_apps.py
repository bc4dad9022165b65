"""Tests for workload generation, the runner, metrics and application layers."""

from __future__ import annotations

from bisect import bisect_right

import numpy as np
import pytest

from repro.analysis.metrics import relative_difference
from repro.apps.qkd import QKDSession, bb84_key_fraction, binary_entropy
from repro.apps.teleportation import teleport
from repro.core.messages import Priority, RequestType
from repro.hardware.pair import EntangledPair
from repro.hardware.parameters import lab_scenario
from repro.quantum.density import DensityMatrix
from repro.quantum.fidelity import werner_state
from repro.quantum.states import BellIndex, bell_state, ket0, ket_plus
from repro.runtime.runner import SimulationRun, run_scenario
from repro.runtime.scenarios import (
    USAGE_PATTERNS,
    mixed_kind_scenarios,
    single_kind_scenarios,
    table1_scenarios,
)
from repro.runtime.workload import (
    RequestGenerator,
    WorkloadSpec,
    pair_draw_table,
)


class TestWorkloadSpec:
    def test_priority_implies_request_type(self):
        assert WorkloadSpec(priority=Priority.MD).request_type is RequestType.MEASURE
        assert WorkloadSpec(priority=Priority.NL).request_type is RequestType.KEEP
        assert WorkloadSpec(priority=Priority.CK).request_type is RequestType.KEEP

    def test_generator_issues_requests_at_expected_rate(self):
        from repro.network.network import LinkLayerNetwork

        network = LinkLayerNetwork(lab_scenario(), seed=1, attempt_batch_size=50)
        spec = WorkloadSpec(priority=Priority.CK, load_fraction=0.99,
                            max_pairs=1, origin="A", min_fidelity=0.6)
        generator = RequestGenerator(network, [spec], seed=2)
        expected_rate = generator.expected_request_rate(0)
        generator.start()
        network.run(2.0)
        observed_rate = generator.requests_issued / 2.0
        assert observed_rate == pytest.approx(expected_rate, rel=0.5)

    def test_generator_respects_fixed_pair_count(self):
        from repro.network.network import LinkLayerNetwork

        network = LinkLayerNetwork(lab_scenario(), seed=1, attempt_batch_size=50)
        spec = WorkloadSpec(priority=Priority.MD, load_fraction=1.5,
                            num_pairs=4, origin="A", min_fidelity=0.6)
        generator = RequestGenerator(network, [spec], seed=3)
        issued = []
        original_create = network.node_a.create
        network.node_a.create = lambda req: (issued.append(req.number),
                                             original_create(req))[1]
        generator.start()
        network.run(1.0)
        assert issued and all(n == 4 for n in issued)


class TestQueueSampler:
    """The queue sampler is a self-rescheduling series of plain events."""

    @staticmethod
    def _run(interval, duration):
        from repro.analysis.metrics import MetricsCollector
        from repro.network.network import LinkLayerNetwork

        network = LinkLayerNetwork(lab_scenario(), seed=1,
                                   attempt_batch_size=50)
        network.engine.trace = []
        metrics = MetricsCollector(network)
        spec = WorkloadSpec(priority=Priority.MD, load_fraction=0.5,
                            num_pairs=1, origin="A", min_fidelity=0.6)
        RequestGenerator(network, [spec], metrics=metrics, seed=2,
                         queue_length_sample_interval=interval).start()
        network.run(duration)
        samples = [entry for entry in network.engine.trace
                   if entry[2] == "queue_sample"]
        return metrics, samples

    def test_samples_once_per_interval(self):
        metrics, samples = self._run(0.25, 1.1)
        times = [time for time, _ in metrics.queue_samples]
        assert times == [0.25, 0.5, 0.75, 1.0]
        assert [time for time, _, _ in samples] == times
        # Each occurrence is a fresh event, scheduled after the last one ran.
        sequences = [sequence for _, sequence, _ in samples]
        assert sequences == sorted(set(sequences))

    def test_zero_interval_disables_sampling(self):
        metrics, samples = self._run(0.0, 0.5)
        assert metrics.queue_samples == []
        assert samples == []


class TestPairDraw:
    """The number of pairs per request is drawn by bisecting a CDF, and must
    match ``Generator.choice(p=...)`` draw for draw, stream included."""

    @pytest.mark.parametrize("k_max", [1, 3, 256])
    def test_matches_generator_choice(self, k_max):
        choices = np.arange(1, k_max + 1)
        weights = 1.0 / choices
        weights = weights / weights.sum()
        numbers, cdf = pair_draw_table(choices, weights)
        reference = np.random.default_rng(k_max)
        bisected = np.random.default_rng(k_max)
        for _ in range(12_000):
            expected = int(reference.choice(choices, p=weights))
            assert numbers[bisect_right(cdf, bisected.random())] == expected
        # One draw each time, so both streams are still in step.
        assert reference.random() == bisected.random()

    def test_fixed_pair_count_still_draws_once(self):
        numbers, cdf = pair_draw_table(np.array([4]), np.array([1.0]))
        rng = np.random.default_rng(9)
        assert numbers[bisect_right(cdf, rng.random())] == 4
        reference = np.random.default_rng(9)
        reference.choice(np.array([4]), p=np.array([1.0]))
        assert reference.random() == rng.random()

    @pytest.mark.parametrize("side", [0, 1])
    def test_povm_outcomes_match_generator_choice(self, side):
        # The readout draw of both backends: 2-outcome distributions of
        # noisy readout POVMs on random two-qubit states, sure outcomes
        # included.
        from repro.quantum.measurement import choice_cdf, readout_kraus

        states = np.random.default_rng(side)
        distributions = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        for f0, f1 in ((0.95, 0.995), (0.868, 0.996), (1.0, 1.0)):
            for _ in range(20):
                amplitudes = (states.normal(size=(4, 4))
                              + 1j * states.normal(size=(4, 4)))
                rho = amplitudes @ amplitudes.conj().T
                state = DensityMatrix(rho / np.trace(rho).real,
                                      validate=False)
                distributions.append(state.povm_distribution(
                    readout_kraus(f0, f1), qubits=[side]))
        reference = np.random.default_rng(100 + side)
        bisected = np.random.default_rng(100 + side)
        for draw in range(12_000):
            p = distributions[draw % len(distributions)]
            expected = int(reference.choice(2, p=p))
            assert bisect_right(choice_cdf(p), bisected.random()) == expected
        assert reference.random() == bisected.random()


class TestSimulationRun:
    def test_lab_ck_run_produces_consistent_summary(self):
        result = run_scenario(
            lab_scenario(),
            [WorkloadSpec(priority=Priority.CK, load_fraction=0.99,
                          max_pairs=1, origin="A", min_fidelity=0.64)],
            duration=2.0, seed=5, attempt_batch_size=100)
        summary = result.summary
        assert summary.pairs_delivered.get("CK", 0) > 0
        assert 0.6 < summary.average_fidelity["CK"] < 0.85
        assert summary.throughput["CK"] > 1.0
        assert summary.oks >= 2 * summary.pairs_delivered["CK"]

    def test_seed_reproducibility(self):
        def run_once():
            return run_scenario(
                lab_scenario(),
                [WorkloadSpec(priority=Priority.MD, load_fraction=0.7,
                              max_pairs=1, origin="A", min_fidelity=0.6)],
                duration=1.0, seed=11, attempt_batch_size=100)

        first = run_once().summary
        second = run_once().summary
        assert first.pairs_delivered == second.pairs_delivered
        assert first.throughput == pytest.approx(second.throughput)

    def test_fairness_between_origins(self):
        result = run_scenario(
            lab_scenario(),
            [WorkloadSpec(priority=Priority.MD, load_fraction=0.99,
                          max_pairs=1, origin="random", min_fidelity=0.6)],
            duration=3.0, seed=6, attempt_batch_size=100)
        fairness = result.metrics.fairness_by_origin()
        total_a = fairness["A"]["oks"]
        total_b = fairness["B"]["oks"]
        assert total_a > 0 and total_b > 0
        assert relative_difference(total_a, total_b) < 0.5


class TestScenarioCatalogue:
    def test_single_kind_grid_sizes(self):
        specs = single_kind_scenarios("Lab", kinds=("MD",), loads=("High",),
                                      max_pairs_options=(1,), origins=("A",))
        # MD always gains the paper's k_max=255 variant alongside k=1.
        assert len(specs) == 2
        assert {spec.workload[0].max_pairs for spec in specs} == {1, 255}
        assert all(spec.name.startswith("Lab_MD_High") for spec in specs)

    def test_md_k255_can_be_disabled_for_exact_subgrids(self):
        specs = single_kind_scenarios("Lab", kinds=("MD",), loads=("High",),
                                      max_pairs_options=(1,), origins=("A",),
                                      include_md_k255=False)
        assert len(specs) == 1
        assert specs[0].workload[0].max_pairs == 1

    def test_full_grid_covers_all_combinations(self):
        specs = single_kind_scenarios("Lab")
        # NL/CK: 3 loads x 2 kmax x 3 origins = 18 each; MD additionally has
        # the k_max=255 column: 3 x 3 x 3 = 27.  63 scenarios per hardware.
        assert len(specs) == 63

    def test_mixed_scenarios_include_schedulers(self):
        specs = mixed_kind_scenarios("QL2020", patterns=("Uniform",),
                                     schedulers=("FCFS", "HigherWFQ"))
        names = {spec.scheduler for spec in specs}
        assert names == {"FCFS", "HigherWFQ"}

    def test_usage_patterns_match_paper_table2(self):
        pattern = USAGE_PATTERNS["NoNLMoreMD"]
        fractions = {spec.priority: spec.load_fraction for spec in pattern.specs}
        assert Priority.NL not in fractions
        assert fractions[Priority.MD] == pytest.approx(0.99 * 4 / 5)
        assert fractions[Priority.CK] == pytest.approx(0.99 / 5)

    def test_table1_scenarios(self):
        specs = table1_scenarios()
        assert len(specs) == 4
        for spec in specs:
            pair_counts = {s.priority: s.num_pairs for s in spec.workload}
            assert pair_counts[Priority.MD] == 10


class TestRelativeDifference:
    def test_identical_values(self):
        assert relative_difference(3.0, 3.0) == 0.0

    def test_zero_handling(self):
        assert relative_difference(0.0, 0.0) == 0.0

    def test_matches_paper_definition(self):
        assert relative_difference(2.0, 1.0) == pytest.approx(0.5)


class TestQKD:
    def test_binary_entropy_limits(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_key_fraction_zero_beyond_11_percent(self):
        assert bb84_key_fraction(0.0) == pytest.approx(1.0)
        assert bb84_key_fraction(0.12) == 0.0

    def test_qkd_session_on_md_workload(self):
        from repro.network.network import LinkLayerNetwork
        from repro.core.messages import EntanglementRequest

        network = LinkLayerNetwork(lab_scenario(), seed=21,
                                   attempt_batch_size=100)
        session = QKDSession()
        session.attach(network)
        request = EntanglementRequest(remote_node_id="B", number=40,
                                      request_type=RequestType.MEASURE,
                                      priority=Priority.MD, consecutive=True,
                                      min_fidelity=0.6)
        network.node_a.create(request)
        network.run(10.0)
        stats = session.statistics()
        assert stats.raw_pairs >= 20
        assert stats.sifted_bits > 0
        assert stats.qber is not None and stats.qber < 0.35

    def test_invalid_entropy_argument(self):
        with pytest.raises(ValueError):
            binary_entropy(1.5)


class TestTeleportation:
    def make_pair(self, fidelity=1.0):
        if fidelity >= 1.0:
            state = DensityMatrix.from_ket(bell_state(BellIndex.PSI_PLUS))
        else:
            state = DensityMatrix(werner_state(fidelity, BellIndex.PSI_PLUS))
        return EntangledPair(state=state, heralded_bell=BellIndex.PSI_PLUS,
                             created_at=0.0, corrected=True)

    @pytest.mark.parametrize("ket", [ket0(), ket_plus(),
                                     np.array([0.6, 0.8j], dtype=complex)])
    def test_perfect_pair_teleports_exactly(self, ket, rng):
        result = teleport(ket, self.make_pair(), rng=rng)
        assert result.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_noisy_pair_limits_teleportation_fidelity(self, rng):
        fidelities = []
        for _ in range(20):
            result = teleport(ket_plus(), self.make_pair(fidelity=0.75), rng=rng)
            fidelities.append(result.fidelity)
        average = np.mean(fidelities)
        assert 0.55 < average < 0.95

    def test_invalid_input_state(self, rng):
        with pytest.raises(ValueError):
            teleport(np.zeros(2), self.make_pair(), rng=rng)
        with pytest.raises(ValueError):
            teleport(np.ones(4), self.make_pair(), rng=rng)
