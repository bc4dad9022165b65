"""Tests for run supervision (``repro.runtime.guard``).

Covers the engine's deterministic event budget and wall-clock deadline,
``GuardPolicy`` round-trips, result validation, the quarantine store, the
scenario fault plan, guarded ``SweepRunner`` sweeps (retries and
quarantine through the coordinator, and what a rerun keeps), every failure
status through the JSONL result sink, and the cluster-side retry budget:
``record_failure`` charging, repeated-lease-death quarantine, the serve
``fail`` op, and the frame-rejection regression (oversized / garbage frames
must get structured errors without taking the connection down).
"""

from __future__ import annotations

import dataclasses
import json
import socket
import struct
import time

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator, ClusterWorker, LocalTransport
from repro.cluster.coordinator import ClusterPlan
from repro.cluster.serve import ClusterCoordinatorServer
from repro.cluster.sinks import (
    JsonlResultSink,
    load_results,
    merge_results,
    part_name,
)
from repro.cluster.transport import (
    MAX_FRAME_BYTES,
    FrameDecodeError,
    FrameTooLarge,
    SocketTransport,
    recv_frame,
    send_frame,
)
from repro.runtime import (
    GuardPolicy,
    ScenarioSpec,
    SweepRunner,
    run_sweep,
    single_kind_scenarios,
)
from repro.runtime.guard import (
    FAILURE_STATUSES,
    QUARANTINED,
    DeadlineExceeded,
    EventBudgetExceeded,
    QuarantineRecord,
    QuarantineStore,
    ScenarioFaultPlan,
    validate_density_state,
    validate_outcome,
    validate_summary_data,
)
from repro.runtime.sweep import _failure_outcome
from repro.sim.engine import SimulationEngine

DURATION = 0.05


def grid(count=None, loads=("Low", "High")) -> list[ScenarioSpec]:
    specs = single_kind_scenarios(
        "Lab", kinds=("NL", "CK", "MD"), loads=loads,
        max_pairs_options=(1,), origins=("A",), include_md_k255=False,
        attempt_batch_size=40, backend="analytic")
    return specs if count is None else specs[:count]


# --------------------------------------------------------------------------- #
# Engine guard hooks
# --------------------------------------------------------------------------- #
def _tick_forever(engine: SimulationEngine) -> None:
    """Schedule a tick every simulated second, without end."""
    def tick() -> None:
        engine.schedule_after(1.0, tick, "tick")

    tick()


class TestEngineGuards:
    def test_event_budget_interrupts_at_the_exact_event(self):
        def run_with_budget(budget):
            engine = SimulationEngine()
            _tick_forever(engine)
            engine.event_budget = budget
            with pytest.raises(EventBudgetExceeded) as err:
                engine.run()
            return err.value

        first = run_with_budget(50)
        second = run_with_budget(50)
        assert first.events_processed == second.events_processed == 50
        assert first.sim_time == second.sim_time

    def test_wall_deadline_interrupts(self):
        engine = SimulationEngine()
        _tick_forever(engine)
        engine.deadline_at = time.perf_counter() - 1.0  # already past
        with pytest.raises(DeadlineExceeded) as err:
            engine.run(until=5000.0)
        # The deadline is only polled every 1024 events, so the interrupt
        # lands on a multiple of the polling stride.
        assert err.value.events_processed % 1024 == 0

    def test_unset_guards_leave_run_unbounded(self):
        engine = SimulationEngine()
        _tick_forever(engine)
        engine.run(until=2000.0)  # > one deadline polling stride


# --------------------------------------------------------------------------- #
# GuardPolicy
# --------------------------------------------------------------------------- #
class TestGuardPolicy:
    def test_round_trips_through_dict(self):
        policy = GuardPolicy(max_events=123, wall_deadline=4.5,
                             max_attempts=3, validate=True)
        assert GuardPolicy.from_dict(policy.to_dict()) == policy

    @pytest.mark.parametrize("kwargs", [
        {"max_events": 0},
        {"max_events": -5},
        {"wall_deadline": 0.0},
        {"max_attempts": 0},
    ])
    def test_rejects_invalid_knobs(self, kwargs):
        with pytest.raises(ValueError):
            GuardPolicy(**kwargs)

    def test_install_arms_the_engine(self):
        engine = SimulationEngine()
        GuardPolicy(max_events=7, wall_deadline=60.0).install(engine)
        assert engine.event_budget == 7
        assert engine.deadline_at is not None
        assert GuardPolicy(max_events=1).bounds_execution
        assert not GuardPolicy(validate=True).bounds_execution

    def test_refuses_a_hang_it_cannot_bound(self):
        hang = ScenarioFaultPlan(hang=frozenset({"a"}))
        for unbounded in ({}, {"validate": True, "max_attempts": 3}):
            with pytest.raises(ValueError, match="hang"):
                GuardPolicy(faults=hang, **unbounded)
        assert GuardPolicy(max_events=10, faults=hang).faults == hang
        assert GuardPolicy(wall_deadline=1.0, faults=hang).faults == hang
        # An oom or a crash ends by itself: no bound needed.
        GuardPolicy(faults=ScenarioFaultPlan(oom=frozenset({"a"}),
                                             crash=frozenset({"b"})))

    def test_policy_without_faults_keeps_its_document(self):
        assert list(GuardPolicy(max_events=1).to_dict()) == [
            "max_events", "wall_deadline", "max_attempts", "validate"]

    @pytest.mark.parametrize("faults", [
        ["a"],                  # not an object
        {"hang": "a"},          # a kind that is not a list
        {"oom": ["a", 3]},      # a name that is not a string
        {"freeze": ["a"]},      # an unknown kind
    ])
    def test_from_dict_refuses_malformed_faults(self, faults, tmp_path):
        data = {**GuardPolicy(max_events=10).to_dict(), "faults": faults}
        with pytest.raises(ValueError):
            GuardPolicy.from_dict(data)
        # The same policy arriving in a plan document is refused too.
        coordinator = ClusterCoordinator(grid(2), DURATION, tmp_path,
                                         master_seed=5,
                                         guard=GuardPolicy(max_events=10))
        document = json.loads(json.dumps(
            coordinator.cluster_plan().to_dict()))
        document["guard"]["faults"] = faults
        with pytest.raises(ValueError):
            ClusterPlan.from_dict(document)


# --------------------------------------------------------------------------- #
# Result validation
# --------------------------------------------------------------------------- #
class TestValidation:
    def test_density_state_checks(self):
        good = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
        assert validate_density_state(good) is None
        assert "not PSD" in validate_density_state(
            np.array([[2.0, 0], [0, -1.0]], dtype=complex))
        bad_trace = np.array([[0.9, 0], [0, 0.9]], dtype=complex)
        assert "trace" in validate_density_state(bad_trace)
        non_hermitian = np.array([[0.5, 0.4], [0.1, 0.5]], dtype=complex)
        assert "Hermitian" in validate_density_state(non_hermitian)
        nans = np.array([[np.nan, 0], [0, 1.0]], dtype=complex)
        assert "finite" in validate_density_state(nans)

    def test_summary_data_key_conventions(self):
        assert validate_summary_data({"fidelity": 0.93}, "s") == []
        assert any("fidelity" in p for p in
                   validate_summary_data({"fidelity": 1.5}, "s"))
        assert any("finite" in p.lower() for p in
                   validate_summary_data({"latency_avg": float("nan")}, "s"))
        # Containers under a keyed name are flattened into its numbers.
        nested = {"success_probability": [0.5, -0.2]}
        assert any("outside" in p for p in
                   validate_summary_data(nested, "s"))

    def test_validate_outcome_flags_corruption(self):
        (outcome,) = run_sweep(grid(1), DURATION, master_seed=7).outcomes
        assert outcome.ok
        assert validate_outcome(outcome) == []
        corrupted = dataclasses.replace(outcome, events_processed=-3)
        assert validate_outcome(corrupted)

    def test_validating_sweep_accepts_healthy_results(self, tmp_path):
        guard = GuardPolicy(validate=True, max_attempts=1)
        baseline = run_sweep(grid(2), DURATION, master_seed=7)
        checked = SweepRunner(grid(2), DURATION, master_seed=7,
                              guard=guard).run()
        assert checked.outcomes == baseline.outcomes


# --------------------------------------------------------------------------- #
# Quarantine records
# --------------------------------------------------------------------------- #
class TestQuarantine:
    def test_store_round_trips_durably(self, tmp_path):
        record = QuarantineRecord(index=3, scenario_name="s", seed=42,
                                  attempts=2, status="timeout",
                                  error="boom", source="sweep")
        QuarantineStore(tmp_path).record(record)
        # A fresh store instance sees the durable record.
        store = QuarantineStore(tmp_path)
        assert store.indices() == {3}
        loaded = store.load(3)
        assert loaded == record
        assert QuarantineRecord.from_dict(record.to_dict()) == record


# --------------------------------------------------------------------------- #
# Scenario fault plan
# --------------------------------------------------------------------------- #
class TestScenarioFaultPlan:
    def test_guard_policy_round_trip(self):
        plan = ScenarioFaultPlan(hang=frozenset({"a"}),
                                 oom=frozenset({"b", "c"}),
                                 crash=frozenset({"d"}))
        guard = GuardPolicy(max_events=100, faults=plan)
        data = json.loads(json.dumps(guard.to_dict()))
        assert data["faults"] == {"hang": ["a"], "oom": ["b", "c"],
                                  "crash": ["d"]}
        assert GuardPolicy.from_dict(data) == guard
        assert GuardPolicy.from_dict(data).faults == plan
        assert plan.fault_for("a") == "hang"
        assert plan.fault_for("c") == "oom"
        assert plan.fault_for("d") == "crash"
        assert plan.fault_for("e") is None


# --------------------------------------------------------------------------- #
# Guarded sweeps: identity, retries, quarantine, degradation, resume
# --------------------------------------------------------------------------- #
class TestGuardedSweep:
    def test_loose_guard_changes_nothing(self):
        specs = grid(3)
        baseline = run_sweep(specs, DURATION, master_seed=21)
        guard = GuardPolicy(max_events=10**9, wall_deadline=600.0,
                            max_attempts=2, validate=True)
        guarded = SweepRunner(specs, DURATION, master_seed=21,
                              guard=guard).run()
        assert guarded.outcomes == baseline.outcomes
        assert guarded.quarantined == []

    def test_exhausted_budget_quarantines_with_durable_records(
            self, tmp_path):
        # Indices 1 and 2 of the small grid actually process engine events
        # (the others resolve on the analytic fast path without any); at
        # 0.5 simulated seconds both process well over 100, so a 10-event
        # budget deterministically interrupts them.
        specs = grid()[1:3]
        guard = GuardPolicy(max_events=10, max_attempts=2)
        result = SweepRunner(specs, 0.5, master_seed=21, guard=guard,
                             cache_dir=tmp_path).run()
        assert [o.status for o in result.outcomes] == [QUARANTINED] * 2
        assert result.quarantined_indices == [0, 1]
        records = QuarantineStore(tmp_path).load_all()
        assert [r.index for r in records] == [0, 1]
        assert all(r.status == "timeout" and r.attempts == 2
                   and r.source == "coordinator" for r in records)
        # The coordinator's canonical outcome, the same as a cluster's.
        assert all(o.error == "quarantined after spending the retry budget "
                              "(2 attempt(s)); last failure [timeout]"
                   for o in result.outcomes)

    def test_fault_plan_quarantines_exactly_the_poisoned(
            self, tmp_path):
        specs = grid()
        baseline = run_sweep(specs, DURATION, master_seed=21)
        plan = ScenarioFaultPlan(hang=frozenset({specs[1].name}),
                                 oom=frozenset({specs[3].name}))
        guard = GuardPolicy(max_events=200_000, wall_deadline=60.0,
                            max_attempts=2)
        result = SweepRunner(specs, DURATION, master_seed=21,
                             guard=dataclasses.replace(guard, faults=plan),
                             cache_dir=tmp_path).run()
        assert result.quarantined_indices == [1, 3]
        survivors = [o for i, o in enumerate(result.outcomes)
                     if i not in (1, 3)]
        expected = [o for i, o in enumerate(baseline.outcomes)
                    if i not in (1, 3)]
        assert survivors == expected
        statuses = {r.index: r.status
                    for r in QuarantineStore(tmp_path).load_all()}
        assert statuses == {1: "timeout", 3: "oom"}
        assert ClusterPlan.load(tmp_path).guard_policy().faults == plan

        # Rerun from the same cache without the faults: the retry budget
        # and the quarantine lasted one run, so the quarantined scenarios
        # run again (and now succeed); the others come from the cache.
        resumed = SweepRunner(specs, DURATION, master_seed=21, guard=guard,
                              cache_dir=tmp_path).run()
        assert resumed.outcomes == baseline.outcomes
        assert [i for i, o in enumerate(resumed.outcomes)
                if not o.from_cache] == [1, 3]
        assert QuarantineStore(tmp_path).load_all() == []

    def test_plan_alone_replays_the_quarantine(self, tmp_path):
        """A fault-planned sweep's ``plan.json`` names its faults, and a
        fresh coordinator built from that plan alone quarantines the same
        scenarios with the same statuses."""
        specs = grid()
        plan = ScenarioFaultPlan(hang=frozenset({specs[1].name}),
                                 oom=frozenset({specs[3].name}))
        guard = GuardPolicy(max_events=200_000, wall_deadline=60.0,
                            max_attempts=2, faults=plan)
        first = SweepRunner(specs, DURATION, master_seed=21, guard=guard,
                            cache_dir=tmp_path / "first").run()
        document = json.loads((tmp_path / "first" / "plan.json").read_text())
        assert document["guard"]["faults"] == plan.to_dict()

        loaded = ClusterPlan.load(tmp_path / "first")
        assert loaded.guard_policy() == guard
        replay = ClusterCoordinator(
            loaded.specs, loaded.duration, tmp_path / "replay",
            master_seed=loaded.master_seed, seeds=loaded.seeds,
            guard=loaded.guard_policy())
        replay.write_plan()
        ClusterWorker(LocalTransport(replay.state), "replay-0",
                      cache_dir=None).run(wait_for_stragglers=False)
        replayed = replay.merge()
        replay.state.close()

        def statuses(records):
            return [(record.index, record.status) for record in records]

        assert replayed.quarantined_indices == first.quarantined_indices \
            == [1, 3]
        assert statuses(replay.quarantine_records()) == statuses(
            QuarantineStore(tmp_path / "first").load_all()) \
            == [(1, "timeout"), (3, "oom")]
        assert replayed.outcomes == first.outcomes

    def test_batched_sweep_quarantines_only_the_failing_scenario(
            self, tmp_path):
        specs = grid()
        baseline = run_sweep(specs, DURATION, master_seed=21)
        plan = ScenarioFaultPlan(oom=frozenset({specs[2].name}))
        guard = GuardPolicy(max_events=200_000, max_attempts=2, faults=plan)
        result = SweepRunner(specs, DURATION, master_seed=21, guard=guard,
                             batch_size=4, cache_dir=tmp_path).run()
        assert result.quarantined_indices == [2]
        survivors = [o for i, o in enumerate(result.outcomes) if i != 2]
        assert survivors == [o for i, o in enumerate(baseline.outcomes)
                             if i != 2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_last_callback_per_scenario_is_its_merged_outcome(
            self, tmp_path, workers):
        """A progress callback sees the quarantine: whatever attempts it
        saw before, its last call for each scenario is the outcome the
        sweep returns for it."""
        specs = grid(2)
        plan = ScenarioFaultPlan(oom=frozenset({specs[1].name}))
        seen = []
        result = SweepRunner(specs, DURATION, master_seed=21,
                             workers=workers, cache_dir=tmp_path,
                             guard=GuardPolicy(max_attempts=2, faults=plan),
                             on_outcome=seen.append).run()
        assert [o.status for o in result.outcomes] == ["ok", QUARANTINED]
        last = {outcome.scenario_name: outcome for outcome in seen}
        assert last == {o.scenario_name: o for o in result.outcomes}
        assert [o.status for o in seen].count(QUARANTINED) == 1
        if workers == 1:
            # As each attempt ends: both failed attempts, then the
            # quarantine the second one decided.
            assert [o.status for o in seen] == ["oom", "ok", "oom",
                                                QUARANTINED]

    def test_serial_equals_sharded_under_faults(self, tmp_path):
        """A guarded, fault-planned sweep gives the same outcomes —
        quarantined ones included — and the same quarantine records in
        process, with worker processes, and through the cluster."""
        specs = grid()
        plan = ScenarioFaultPlan(hang=frozenset({specs[1].name}),
                                 oom=frozenset({specs[3].name}))
        guard = GuardPolicy(max_events=200_000, wall_deadline=60.0,
                            max_attempts=2, faults=plan)

        def records(directory):
            return [(r.index, r.status, r.attempts)
                    for r in QuarantineStore(directory).load_all()]

        runs = {}
        for workers in (1, 2):
            directory = tmp_path / f"sweep-{workers}"
            result = SweepRunner(specs, DURATION, master_seed=21,
                                 workers=workers, guard=guard,
                                 cache_dir=directory).run()
            runs[f"SweepRunner(workers={workers})"] = (result,
                                                       records(directory))
        coordinator = ClusterCoordinator(specs, DURATION, tmp_path / "cl",
                                         master_seed=21, num_shards=2,
                                         guard=guard)
        runs["run_local"] = (coordinator.run_local(),
                             records(coordinator.cluster_dir))
        serial, serial_records = runs["SweepRunner(workers=1)"]
        assert serial.quarantined_indices == [1, 3]
        assert serial_records == [(1, "timeout", 2), (3, "oom", 2)]
        for name, (result, quarantine) in runs.items():
            assert result.outcomes == serial.outcomes, name
            assert quarantine == serial_records, name


# --------------------------------------------------------------------------- #
# Failure statuses through the sink (and the merge)
# --------------------------------------------------------------------------- #
class TestFailureStatusSinks:
    @pytest.fixture(scope="class")
    def failure_outcomes(self):
        specs = grid()
        outcomes = [
            _failure_outcome(spec, seed=100 + index, duration=DURATION,
                             status=status,
                             error=f"injected {status} failure\nline two",
                             started=time.perf_counter(),
                             events_processed=index * 11)
            for index, (spec, status) in enumerate(
                zip(specs, FAILURE_STATUSES))
        ]
        outcomes.append(dataclasses.replace(
            outcomes[0], status=QUARANTINED,
            error="quarantined after spending the retry budget "
                  "(2 attempt(s)); last failure [timeout]"))
        return outcomes

    def test_every_failure_status_survives_the_sink(self, failure_outcomes,
                                                    tmp_path):
        path = tmp_path / part_name("w0")
        sink = JsonlResultSink(path, master_seed=1, duration=DURATION)
        for index, outcome in enumerate(failure_outcomes):
            sink.write(index, outcome)
        sink.close()
        loaded = [o for _, o in load_results(path)]
        assert loaded == failure_outcomes
        assert ([o.status for o in loaded]
                == list(FAILURE_STATUSES) + [QUARANTINED])
        assert all(o.error for o in loaded)

    def test_failure_statuses_survive_the_merge(self, failure_outcomes,
                                                tmp_path):
        path = tmp_path / part_name("w0")
        sink = JsonlResultSink(path, master_seed=1, duration=DURATION)
        for index, outcome in enumerate(failure_outcomes):
            sink.write(index, outcome)
        sink.close()
        result = merge_results([path])
        assert result.outcomes == failure_outcomes
        assert result.quarantined_indices == [len(failure_outcomes) - 1]
        assert len(result.failed) == len(failure_outcomes)

    def test_mixed_ok_and_failed_parts_merge(self, failure_outcomes,
                                             tmp_path):
        ok = run_sweep(grid(1), DURATION, master_seed=1).outcomes[0]
        a = tmp_path / part_name("w0")
        sink = JsonlResultSink(a, master_seed=1, duration=DURATION)
        sink.write(0, ok)
        sink.close()
        b = tmp_path / part_name("w1")
        sink = JsonlResultSink(b, master_seed=1, duration=DURATION)
        sink.write(1, failure_outcomes[0])
        sink.close()
        merged = merge_results([a, b], expected_count=2)
        assert merged.outcomes == [ok, failure_outcomes[0]]


# --------------------------------------------------------------------------- #
# Cluster-side retry budget and quarantine
# --------------------------------------------------------------------------- #
class TestClusterGuard:
    def coordinator(self, tmp_path, **kwargs):
        kwargs.setdefault("guard", GuardPolicy(max_events=10**9,
                                               max_attempts=2))
        coordinator = ClusterCoordinator(grid(3), DURATION, tmp_path / "c",
                                         master_seed=5, num_shards=1,
                                         **kwargs)
        coordinator.write_plan()
        return coordinator

    def failure(self, coordinator, index, status="error"):
        plan = coordinator.cluster_plan()
        return _failure_outcome(plan.specs[index], plan.seeds[index],
                                DURATION, status, "injected failure",
                                time.perf_counter())

    def test_record_failure_charges_then_quarantines(self, tmp_path):
        coordinator = self.coordinator(tmp_path)
        transport = LocalTransport(coordinator.state)
        assert transport.try_claim(0, "w1")
        charged = transport.record_failure(
            "w1", 0, self.failure(coordinator, 0), attempt=1)
        assert charged == {"attempts": 1, "quarantined": False}
        # The failing worker's lease was released: the scenario is
        # immediately reclaimable for the retry.
        assert transport.try_claim(0, "w2")
        charged = transport.record_failure(
            "w2", 0, self.failure(coordinator, 0), attempt=1)
        assert charged["attempts"] == 2 and charged["quarantined"]
        (record,) = coordinator.quarantine_records()
        assert (record.index, record.status, record.source) == \
            (0, "error", "coordinator")
        # Duplicate delivery of the same failure is idempotent.
        again = transport.record_failure(
            "w2", 0, self.failure(coordinator, 0), attempt=1)
        assert again["quarantined"]
        assert len(coordinator.quarantine_records()) == 1
        transport.close()

    def test_repeated_lease_deaths_quarantine_silent_crashers(
            self, tmp_path):
        from cluster_support import ManualClock

        coordinator = self.coordinator(tmp_path)
        clock = ManualClock()
        transport = LocalTransport(coordinator.state, clock)

        # Death 1: w1 claims and "dies" (never heartbeats, never reports).
        assert transport.try_claim(1, "w1")
        clock.advance(3600.0)
        # w2's takeover writes the death marker and wins the lease.
        assert transport.try_claim(1, "w2")
        clock.advance(3600.0)
        # Death 2 spends the budget: the takeover is refused and the
        # scenario is quarantined as a crash without any failure report.
        assert not transport.try_claim(1, "w3")
        (record,) = coordinator.quarantine_records()
        assert (record.index, record.status, record.attempts,
                record.source) == (1, "crash", 2, "coordinator")
        transport.close()

    def test_unguarded_plan_document_is_unchanged(self, tmp_path):
        coordinator = self.coordinator(tmp_path, guard=None)
        assert "guard" not in coordinator.cluster_plan().to_dict()
        # Unguarded protocol: failures are not tracked, deaths not counted.
        assert coordinator.state.guard is None


# --------------------------------------------------------------------------- #
# Serve: the fail op and frame rejection (S6 regression)
# --------------------------------------------------------------------------- #
class TestServeGuard:
    @pytest.fixture
    def server(self, tmp_path):
        coordinator = ClusterCoordinator(
            grid(2), DURATION, tmp_path / "serve", master_seed=5,
            num_shards=1,
            guard=GuardPolicy(max_events=10**9, max_attempts=2))
        server = ClusterCoordinatorServer(coordinator)
        server.start_background()
        yield server
        server.stop()

    def test_fail_op_charges_over_the_wire(self, server):
        transport = SocketTransport(server.address)
        plan = transport.plan
        assert transport.try_claim(0, "w1")
        outcome = _failure_outcome(plan.specs[0], plan.seeds[0], DURATION,
                                   "timeout", "injected",
                                   time.perf_counter())
        charged = transport.record_failure("w1", 0, outcome, attempt=1)
        assert charged["attempts"] == 1 and not charged["quarantined"]
        assert transport.try_claim(0, "w1")
        charged = transport.record_failure("w1", 0, outcome, attempt=2)
        assert charged["quarantined"]
        (record,) = server.coordinator.quarantine_records()
        assert record.status == "timeout"
        transport.close()

    def test_rejects_bad_frames_and_keeps_serving(self, server):
        sock = socket.create_connection(server.server_address[:2],
                                        timeout=30)
        try:
            # Oversized announcement: structured error, body drained.
            sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            sock.sendall(b"x" * 1024)
            response = recv_frame(sock)
            assert response["ok"] is False
            assert "rejected frame" in response["error"]
            sock.sendall(b"x" * (MAX_FRAME_BYTES + 1 - 1024))
            # Undecodable body: structured error, stream still framed.
            garbage = b"\xff\xfe{not json"
            sock.sendall(struct.pack(">I", len(garbage)) + garbage)
            response = recv_frame(sock)
            assert response["ok"] is False
            # Non-object frame: structured error.
            body = json.dumps([1, 2]).encode()
            sock.sendall(struct.pack(">I", len(body)) + body)
            response = recv_frame(sock)
            assert response["ok"] is False
            # The same connection still serves real operations.
            send_frame(sock, {"op": "plan"})
            response = recv_frame(sock)
            assert response["ok"] is True and "plan" in response
        finally:
            sock.close()

    def test_recv_frame_raises_typed_errors(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(FrameTooLarge) as err:
                recv_frame(b)
            assert err.value.length == MAX_FRAME_BYTES + 1
            a.sendall(struct.pack(">I", 3) + b"\xff\xfe\xfd")
            with pytest.raises(FrameDecodeError):
                recv_frame(b)
        finally:
            a.close()
            b.close()
