"""Tests for ``repro.topology``: specs, swap math, chains, stars, caching."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core.messages import Priority
from repro.hardware.parameters import lab_scenario
from repro.quantum.states import BellIndex, bell_state
from repro.runtime import (
    ScenarioSpec,
    SweepRunner,
    WorkloadSpec,
    chain_grid,
    paper_grid,
    star_grid,
)
from repro.runtime.cache import ResumeCache
from repro.runtime.sweep import ScenarioOutcome
from repro.topology import (
    LinkSpec,
    SwitchSchedule,
    Topology,
    TopologyRun,
    compose_chain,
    jain_fairness,
    outcome_average_swap,
    project_swap,
    swap_states,
    werner_chain_fidelity,
    werner_state,
)
from repro.topology.network import derive_link_seeds

DURATION = 0.5


def chain_spec(num_nodes: int = 3, backend=None) -> ScenarioSpec:
    return chain_grid(lengths=(num_nodes,), loads=("Ultra",),
                      backend=backend)[0]


def fidelity_to_psi_plus(state) -> float:
    ket = bell_state(BellIndex.PSI_PLUS)
    return float(np.real(ket.conj() @ (state.matrix @ ket)))


class TestTopologySpec:
    def test_chain_constructor_shape(self):
        topology = Topology.chain(4)
        assert topology.kind == "chain"
        assert topology.nodes == ("n0", "n1", "n2", "n3")
        assert [link.name for link in topology.links] == [
            "n0-n1", "n1-n2", "n2-n3"]
        assert topology.interior_nodes() == ("n1", "n2")

    def test_star_constructor_shape(self):
        topology = Topology.switched_star(3)
        assert topology.kind == "star"
        assert len(topology.links) == 3
        assert topology.switch is not None

    def test_json_round_trip_exact(self):
        for topology in (Topology.chain(3, hardware="QL2020"),
                         Topology.switched_star(2, insertion_loss_db=2.5)):
            data = json.loads(json.dumps(topology.to_dict()))
            assert Topology.from_dict(data) == topology
            assert Topology.from_dict(data).identity_key() == \
                topology.identity_key()

    def test_identity_key_tracks_definition(self):
        base = Topology.chain(3)
        renamed = dataclasses.replace(base, name="other")
        assert base.identity_key() != renamed.identity_key()
        assert base.identity_key() == Topology.chain(3).identity_key()

    def test_scenario_spec_round_trip_with_topology(self):
        spec = chain_spec()
        data = json.loads(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_dict(data) == spec

    def test_every_catalogue_spec_round_trips(self):
        # Cluster workers rebuild the whole plan through from_dict, whose
        # per-class type-hint resolution is memoized: every catalogue spec
        # (single-link, chain and star) must still come back equal.
        for spec in (*paper_grid(), *chain_grid(), *star_grid()):
            data = json.loads(json.dumps(spec.to_dict()))
            assert ScenarioSpec.from_dict(data) == spec

    def test_validation_rejects_broken_chains(self):
        config = lab_scenario()
        link = LinkSpec(node_a="n0", node_b="n1", scenario=config)
        with pytest.raises(ValueError, match="needs 2 links"):
            Topology(name="bad", kind="chain", nodes=("n0", "n1", "n2"),
                     links=(link,)).validate()
        with pytest.raises(ValueError, match="unknown"):
            Topology(name="bad", kind="chain", nodes=("n0", "n1"),
                     links=(LinkSpec(node_a="n0", node_b="nX",
                                     scenario=config),)).validate()
        with pytest.raises(ValueError, match="switch"):
            Topology(name="bad", kind="star", nodes=("a0", "b0"),
                     links=(LinkSpec(node_a="a0", node_b="b0",
                                     scenario=config),)).validate()

    def test_midpoint_position_preserves_total_fibre(self):
        config = lab_scenario()
        link = LinkSpec(node_a="a", node_b="b", scenario=config,
                        midpoint_position=0.3)
        arm = link.arm_scenario()
        total = (config.optics_a.fiber_length_km
                 + config.optics_b.fiber_length_km)
        assert arm.optics_a.fiber_length_km == pytest.approx(0.3 * total)
        assert (arm.optics_a.fiber_length_km
                + arm.optics_b.fiber_length_km) == pytest.approx(total)


class TestSwapMath:
    def test_circuit_matches_projector_for_every_outcome(self):
        rng = np.random.default_rng(3)
        left = werner_state(0.92)
        right = werner_state(0.81)
        seen = set()
        for attempt in range(200):
            outcome, state = swap_states(left.copy(), right.copy(),
                                         np.random.default_rng(attempt))
            _, projected = project_swap(left, right, outcome)
            np.testing.assert_allclose(state.matrix, projected.matrix,
                                       atol=1e-12)
            seen.add(outcome)
            if len(seen) == 4:
                break
        assert len(seen) == 4

    def test_outcome_average_is_associative(self):
        a = werner_state(0.95)
        b = werner_state(0.85)
        c = werner_state(0.75)
        # A non-Werner participant: rotate one qubit a little.
        theta = 0.3
        rotation = np.array([[np.cos(theta), -np.sin(theta)],
                             [np.sin(theta), np.cos(theta)]], dtype=complex)
        b.apply_unitary(rotation, qubits=[1])
        left_first = outcome_average_swap(outcome_average_swap(a, b), c)
        right_first = outcome_average_swap(a, outcome_average_swap(b, c))
        np.testing.assert_allclose(left_first.matrix, right_first.matrix,
                                   atol=1e-12)

    def test_werner_chain_closed_form(self):
        fidelities = [0.93, 0.82, 0.88]
        composed = compose_chain([werner_state(f) for f in fidelities])
        assert fidelity_to_psi_plus(composed) == pytest.approx(
            werner_chain_fidelity(fidelities), abs=1e-12)

    def test_perfect_links_swap_perfectly(self):
        perfect = werner_state(1.0)
        for outcome in ((0, 0), (0, 1), (1, 0), (1, 1)):
            probability, state = project_swap(perfect, perfect, outcome)
            assert probability == pytest.approx(0.25, abs=1e-12)
            assert fidelity_to_psi_plus(state) == pytest.approx(1.0,
                                                                abs=1e-12)


class TestChainEndToEnd:
    @pytest.mark.parametrize("backend", ["density", "analytic"])
    def test_three_node_chain_matches_analytic_composition(self, backend):
        spec = chain_spec(3, backend=backend)
        run = TopologyRun(spec.topology, spec.workload, seed=11,
                          backend=backend)
        run.start()
        elapsed = 0.0
        while not run.network.swap.end_to_end and elapsed < 4.0:
            elapsed += DURATION
            run.advance_to(elapsed)
        records = run.network.swap.end_to_end
        assert records, "chain delivered no end-to-end pairs"
        for record in records:
            assert record.swaps == 1 and len(record.swap_events) == 1
            event = record.swap_events[0]
            # The protocol's circuit-path swap must equal an independent
            # analytic composition (Bell projection) of the two per-link
            # states it consumed.
            _, composed = project_swap(event.left_state, event.right_state,
                                       event.outcome)
            np.testing.assert_allclose(record.state.matrix, composed.matrix,
                                       atol=1e-9)
            assert record.fidelity == pytest.approx(
                fidelity_to_psi_plus(composed), abs=1e-9)

    @pytest.mark.parametrize("backend", ["density", "analytic"])
    def test_longer_chain_composes_all_swaps(self, backend):
        spec = chain_spec(4, backend=backend)
        run = TopologyRun(spec.topology, spec.workload, seed=13,
                          backend=backend)
        run.start()
        elapsed = 0.0
        while not run.network.swap.end_to_end and elapsed < 6.0:
            elapsed += DURATION
            run.advance_to(elapsed)
        records = run.network.swap.end_to_end
        assert records, "chain delivered no end-to-end pairs"
        record = records[0]
        assert record.swaps == 2
        for event in record.swap_events:
            _, composed = project_swap(event.left_state, event.right_state,
                                       event.outcome)
            np.testing.assert_allclose(event.output_state.matrix,
                                       composed.matrix, atol=1e-9)

    def test_run_result_carries_topology_fields(self):
        spec = chain_spec(3, backend="analytic")
        result = spec.run(1.0, seed=7)
        assert result.topology == spec.topology.name
        assert result.end_to_end["links"] == 2
        assert [hop["link"] for hop in result.hops] == ["n0-n1", "n1-n2"]
        assert "E2E" in result.summary.pairs_delivered

    def test_chain_rejects_measure_directly_workloads(self):
        spec = chain_spec(3)
        workload = (WorkloadSpec(priority=Priority.MD, load_fraction=0.9),)
        with pytest.raises(ValueError, match="create-and-keep"):
            TopologyRun(spec.topology, workload)

    def test_chain_runs_are_seed_deterministic(self):
        spec = chain_spec(3, backend="analytic")
        first = spec.run(1.0, seed=21)
        second = spec.run(1.0, seed=21)
        assert first.end_to_end == second.end_to_end
        assert first.hops == second.hops
        assert first.events_processed == second.events_processed


    def test_two_node_chain_equals_the_link_at_its_derived_seed(self):
        """A 2-node chain is one link: it delivers the same pairs as the
        single-link run of its spec at the chain's derived link seed.

        The per-link statistics are bit-identical (the hop digest equals
        the link summary).  The end-to-end mean differs from the link's in
        the last bit, and not because of summation order: both runs see
        the same per-pair fidelities and latencies in the same order, but
        the link summary averages them with ``statistics.mean`` (the exact
        mean, rounded once) while the chain's end-to-end record averages
        them with ``sum(...) / pairs`` (rounded at every addition).  Hence
        ``rel=1e-12`` on the means and exact equality on everything else.
        """
        spec = chain_grid(lengths=(2,), loads=("High",), backend="analytic",
                          attempt_batch_size=100)[0]
        chain = spec.run(2.0, seed=99)
        link = dataclasses.replace(spec, topology=None).run(
            2.0, seed=derive_link_seeds(99, 1)[0])
        summary = link.summary
        e2e = chain.end_to_end
        assert e2e["pairs"] == summary.pairs_delivered["CK"] == 13
        assert e2e["swaps"] == 0 and e2e["links"] == 1
        assert e2e["fidelity"] == pytest.approx(
            summary.average_fidelity["CK"], rel=1e-12)
        assert e2e["latency"] == pytest.approx(
            summary.average_pair_latency["CK"], rel=1e-12)
        (hop,) = chain.hops
        assert hop["pairs"] == 13
        assert hop["fidelity"] == summary.average_fidelity["CK"]
        assert hop["latency"] == summary.average_pair_latency["CK"]


class TestSwitchedStar:
    def test_round_robin_schedule(self):
        schedule = SwitchSchedule(num_links=3, slot_duration=0.01)
        assert schedule.active_link(0.000) == 0
        assert schedule.active_link(0.015) == 1
        assert schedule.active_link(0.025) == 2
        assert schedule.active_link(0.031) == 0
        gate = schedule.gate(1)
        # Link 0's slot: inactive — the magnitude counts the attempts until
        # link 1's slot opens at t=0.01 (90 attempts of 1e-4 s from 0.001).
        assert gate(0.001, 10, 1, 1e-4) == -90
        assert gate(0.011, 10, 1, 1e-4) > 0
        assert schedule.next_active(1, 0.001) == pytest.approx(0.01)
        assert schedule.next_active(1, 0.011) == pytest.approx(0.011)
        assert schedule.next_active(1, 0.021) == pytest.approx(0.04)

    def test_star_shares_midpoint_fairly(self):
        spec = star_grid(sizes=(2,), loads=("Ultra",))[0]
        result = spec.run(2.0, seed=9)
        e2e = result.end_to_end
        assert e2e["pairs"] > 0
        assert e2e["fairness"] > 0.8
        assert len(result.hops) == 2

    def test_jain_fairness_index(self):
        assert jain_fairness([]) == 1.0
        assert jain_fairness([0, 0]) == 1.0
        assert jain_fairness([5, 5, 5]) == pytest.approx(1.0)
        assert jain_fairness([1, 0]) == pytest.approx(0.5)

    def test_insertion_loss_reduces_throughput(self):
        lossless = star_grid(sizes=(2,), loads=("Ultra",),
                             insertion_loss_db=0.0)[0]
        lossy = star_grid(sizes=(2,), loads=("Ultra",),
                          insertion_loss_db=10.0)[0]
        pairs_lossless = lossless.run(2.0, seed=9).end_to_end["pairs"]
        pairs_lossy = lossy.run(2.0, seed=9).end_to_end["pairs"]
        assert pairs_lossy < pairs_lossless


class TestSweepIntegration:
    def test_chain_sweep_serial_equals_sharded(self, tmp_path):
        from repro.cluster import ClusterCoordinator

        specs = chain_grid(lengths=(3,), loads=("Ultra",),
                           backend="analytic")
        serial = SweepRunner(specs, 0.4, master_seed=5).run()
        coordinator = ClusterCoordinator(specs, 0.4,
                                         tmp_path / "cluster",
                                         master_seed=5, num_shards=2)
        sharded = coordinator.run_local()
        # Dataclass equality covers every result field (summary, hops,
        # end_to_end, events) but not wall-clock/cache provenance.
        assert serial.outcomes == sharded.outcomes
        assert serial.outcomes[0].end_to_end is not None
        assert serial.outcomes[0].end_to_end == \
            sharded.outcomes[0].end_to_end

    def test_outcome_round_trips_topology_fields(self):
        spec = chain_spec(3, backend="analytic")
        result = SweepRunner([spec], 0.4, master_seed=5).run()
        outcome = result.outcomes[0]
        assert outcome.topology == spec.topology.name
        rebuilt = ScenarioOutcome.from_dict(
            json.loads(json.dumps(outcome.to_dict())))
        assert rebuilt == outcome
        assert rebuilt.hops == outcome.hops
        assert rebuilt.end_to_end == outcome.end_to_end


class TestResumeCacheTopology:
    def _outcome(self, spec: ScenarioSpec, seed: int) -> ScenarioOutcome:
        return ScenarioOutcome(scenario_name=spec.name, scheduler_name="FCFS",
                               seed=seed, duration=DURATION,
                               backend=spec.backend_name())

    def test_topology_mismatch_is_reported_not_missed(self, tmp_path):
        cache = ResumeCache(tmp_path)
        spec = chain_spec(3, backend="analytic")
        cache.store(spec, self._outcome(spec, 1), DURATION)
        # Same scenario name, same per-link hardware and workload — but the
        # topology was redefined underneath it.  The identity hash excludes
        # the topology, so the entry is *found* and skipped with a reason.
        redefined = dataclasses.replace(
            spec, topology=dataclasses.replace(
                spec.topology, name=spec.topology.name,
                links=tuple(dataclasses.replace(link, midpoint_position=0.4)
                            for link in spec.topology.links)))
        assert cache.key(redefined, 1, DURATION) == cache.key(spec, 1,
                                                              DURATION)
        outcome, reason = cache.load(redefined, 1, DURATION)
        assert outcome is None
        assert "topology" in reason and spec.topology.name in reason

    def test_single_link_entry_reported_against_topology_spec(self, tmp_path):
        cache = ResumeCache(tmp_path)
        spec = chain_spec(3, backend="analytic")
        single = dataclasses.replace(spec, topology=None)
        cache.store(single, self._outcome(single, 1), DURATION)
        outcome, reason = cache.load(spec, 1, DURATION)
        assert outcome is None
        assert "single-link" in reason

    def test_matching_topology_hits(self, tmp_path):
        cache = ResumeCache(tmp_path)
        spec = chain_spec(3, backend="analytic")
        cache.store(spec, self._outcome(spec, 1), DURATION)
        record, reason = cache.load(spec, 1, DURATION)
        assert reason is None
        assert record is not None and record["from_cache"]

