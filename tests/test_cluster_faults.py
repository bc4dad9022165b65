"""Tests for ``repro.cluster.faults``, idempotent operations, heartbeat-loss
abort and torn-write fixes.

The regression tests here were written to fail on the code before them:

* ``test_concurrent_threads_never_tear_atomic_writes`` — per-pid tmp names
  collide across threads of one process (the TCP coordinator's handler
  threads), so one thread's rename deletes the other's tmp file mid-write.
* ``test_duplicate_submit_writes_one_sink_record`` — re-delivered submits
  used to append a second sink record.
* ``test_reclaim_by_owner_is_idempotent`` — a retried claim whose first
  delivery was applied used to be refused, stranding the owner.
* ``test_displaced_worker_aborts_instead_of_double_submitting`` — a worker
  whose heartbeat reported the lease lost used to submit its result anyway.
* ``test_connect_deadline_is_clamped`` — the connect retry loop used to
  sleep a fixed 0.2s past the deadline and buy an extra attempt.

The acceptance test runs a seeded fault-injection sweep — drops, resets,
duplicates, stale replays, delays and one mid-scenario worker crash — over
**both** front-ends (in process and TCP) and requires the merged result to
be field-for-field identical to a serial ``SweepRunner`` run.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.cluster import (
    ClusterCoordinator,
    ClusterWorker,
    FaultSchedule,
    FaultyTransport,
    InjectedFault,
    InjectedWorkerCrash,
    LocalTransport,
    SocketTransport,
    TaskSnapshot,
    Transport,
    TransportError,
)
from repro.cluster.serve import ClusterCoordinatorServer
from repro.runtime import ScenarioSpec, SweepRunner, single_kind_scenarios
from repro.runtime.cache import atomic_write_text
from repro.runtime.sweep import execute_scenario

from cluster_support import ManualClock, expire_leases

DURATION = 0.05


def grid(count=None, backend="analytic") -> list[ScenarioSpec]:
    specs = single_kind_scenarios(
        "Lab", kinds=("NL", "CK", "MD"), loads=("Low", "High"),
        max_pairs_options=(1, 3), origins=("A", "B"),
        include_md_k255=False, attempt_batch_size=40, backend=backend)
    return specs if count is None else specs[:count]


def plan_cluster(tmp_path, specs, **kwargs) -> ClusterCoordinator:
    kwargs.setdefault("master_seed", 77)
    kwargs.setdefault("num_shards", 3)
    coordinator = ClusterCoordinator(specs, DURATION, tmp_path / "cluster",
                                     **kwargs)
    coordinator.write_plan()
    return coordinator


# --------------------------------------------------------------------------- #
# Satellite: atomic_write_text is thread-safe (pid alone is not a discriminator)
# --------------------------------------------------------------------------- #
class TestAtomicWriteText:
    def test_concurrent_threads_never_tear_atomic_writes(self, tmp_path):
        """Two coordinator handler threads share a pid; their tmp files must
        not collide.  Pre-PR both threads used ``<name>.<pid>.tmp``: one
        thread's rename deletes the tmp the other is about to rename
        (FileNotFoundError) or renames the other's half-written text."""
        target = tmp_path / "state.json"
        rounds = 200
        barrier = threading.Barrier(2)
        errors: list[BaseException] = []

        def writer(worker: int) -> None:
            try:
                for round_number in range(rounds):
                    barrier.wait()
                    atomic_write_text(target, json.dumps(
                        {"worker": worker, "round": round_number}))
            except BaseException as error:  # noqa: BLE001 - recorded for assert
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(n,))
                   for n in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, f"atomic_write_text tore under threads: {errors!r}"
        final = json.loads(target.read_text())  # never torn, always parses
        assert final["round"] == rounds - 1
        assert not list(tmp_path.glob("*.tmp"))  # no leaked tmp files

    def test_durable_write_fsyncs_and_replaces(self, tmp_path):
        target = tmp_path / "done.json"
        atomic_write_text(target, '{"ok": true}', durable=True)
        atomic_write_text(target, '{"ok": false}', durable=True)
        assert json.loads(target.read_text()) == {"ok": False}
        assert not list(tmp_path.glob("*.tmp"))


# --------------------------------------------------------------------------- #
# Fault schedule determinism
# --------------------------------------------------------------------------- #
class TestFaultSchedule:
    def rates(self):
        return dict(drop=0.3, reset=0.3, duplicate=0.3, replay=0.2,
                    delay=0.2, delay_seconds=0.0)

    def test_same_seed_same_decisions_regardless_of_interleaving(self):
        first = FaultSchedule(seed=42, **self.rates())
        second = FaultSchedule(seed=42, **self.rates())
        # Consume the two schedules in different op interleavings: each
        # decision depends only on (seed, op, per-op call number).
        a = [first.decide("claim") for _ in range(20)]
        a += [first.decide("submit") for _ in range(20)]
        b = []
        for _ in range(20):
            b.append(second.decide("claim"))
            second.decide("submit")
        assert a[:20] == b
        third = FaultSchedule(seed=43, **self.rates())
        assert [third.decide("claim") for _ in range(20)] != a[:20]

    def test_injected_log_and_replayable_description(self):
        schedule = FaultSchedule(seed=7, drop=1.0)
        with pytest.raises(InjectedFault):
            FaultyTransport(_ScriptedTransport(), schedule,
                            max_retries=2).snapshot()
        description = schedule.to_dict()
        assert description["seed"] == 7
        assert description["rates"]["drop"] == 1.0
        assert len(description["injected"]) == 3  # initial try + 2 retries
        assert all(entry["op"] == "snapshot" and "drop" in entry["faults"]
                   for entry in description["injected"])

    def test_crash_point_and_mode_validation(self):
        schedule = FaultSchedule(seed=1, crash_op="claim", crash_call=2,
                                 crash_mode="before")
        inner = _ScriptedTransport()
        faulty = FaultyTransport(inner, schedule)
        assert faulty.try_claim(0, "w") is True
        with pytest.raises(InjectedWorkerCrash):
            faulty.try_claim(1, "w")
        assert inner.calls.count("claim") == 1  # crash *before* delivery
        with pytest.raises(ValueError, match="crash_mode"):
            FaultSchedule(seed=1, crash_mode="sideways")


class _ScriptedTransport(Transport):
    """Minimal transport double recording deliveries."""

    kind = "scripted"
    plan = None

    def __init__(self):
        self.calls: list[str] = []

    def request(self, op, **payload):
        self.calls.append(op)
        return {"ok": True, "granted": payload.get("indices"),
                "snapshot": TaskSnapshot(done=frozenset()).to_dict()}

    def close(self):
        self.calls.append("close")


class TestFaultyTransportUnit:
    def test_drop_is_retried_until_delivered(self):
        inner = _ScriptedTransport()
        # drop=1.0 on every delivery except: make only the first two drop by
        # checking the retry budget instead — with drop=1.0 and 3 retries the
        # op never lands and the fault surfaces as a TransportError subclass.
        schedule = FaultSchedule(seed=5, drop=1.0)
        faulty = FaultyTransport(inner, schedule, max_retries=3,
                                 retry_delay=0.0)
        with pytest.raises(TransportError):
            faulty.snapshot()
        assert inner.calls == []  # dropped requests were never delivered

    def test_reset_applies_then_retries(self):
        inner = _ScriptedTransport()
        schedule = FaultSchedule(seed=5, reset=1.0)
        faulty = FaultyTransport(inner, schedule, max_retries=3,
                                 retry_delay=0.0)
        with pytest.raises(TransportError):
            faulty.try_claim(0, "w")
        # Every attempt was *applied* (reset loses only the response) —
        # exactly the ambiguity idempotent claims absorb.
        assert inner.calls == ["claim"] * 4

    def test_duplicate_and_stale_replay_redeliver(self):
        inner = _ScriptedTransport()
        schedule = FaultSchedule(seed=5, duplicate=1.0)
        FaultyTransport(inner, schedule).try_claim(0, "w")
        assert inner.calls == ["claim", "claim"]

        inner = _ScriptedTransport()
        schedule = FaultSchedule(seed=5, replay=1.0)
        faulty = FaultyTransport(inner, schedule)
        faulty.try_claim(0, "w")
        faulty.snapshot()  # replays the stale claim after delivering
        assert inner.calls == ["claim", "snapshot", "claim"]


# --------------------------------------------------------------------------- #
# Idempotent operations
# --------------------------------------------------------------------------- #
class TestIdempotentOps:
    def test_duplicate_submit_writes_one_sink_record(self, tmp_path):
        specs = grid(count=4)
        coordinator = plan_cluster(tmp_path, specs)
        transport = LocalTransport(coordinator.state)
        assert transport.try_claim(0, "w")
        outcome = execute_scenario(specs[0], transport.plan.seeds[0],
                                   DURATION)
        # The same delivery lands three times (a duplicated frame plus a
        # retry after a reset): one sink record, one done record.
        for _ in range(3):
            transport.submit_result("w", 0, outcome, attempt=1)
        transport.close()
        part = coordinator.cluster_dir / "results" / "part-w.jsonl"
        records = [json.loads(line) for line in
                   part.read_text().splitlines()[1:] if line.strip()]
        assert len(records) == 1
        assert records[0]["index"] == 0

    def test_submit_after_done_is_a_noop(self, tmp_path):
        specs = grid(count=4)
        coordinator = plan_cluster(tmp_path, specs)
        first = LocalTransport(coordinator.state)
        second = LocalTransport(coordinator.state)
        outcome = execute_scenario(specs[0], first.plan.seeds[0], DURATION)
        first.submit_result("a", 0, outcome, attempt=1)
        # A displaced peer submitting late (done record already written)
        # must not open a second part for the same scenario.
        second.submit_result("b", 0, outcome, attempt=1)
        first.close()
        second.close()
        results = coordinator.cluster_dir / "results"
        assert not (results / "part-b.jsonl").exists()
        merged = coordinator.merge(require_complete=False)
        assert merged.outcomes == [outcome]

    def test_reclaim_by_owner_is_idempotent(self, tmp_path):
        """A retried claim whose first delivery was applied re-grants to the
        owner — pre-PR it was refused as 'someone holds the lease'."""
        specs = grid(count=4)
        coordinator = plan_cluster(tmp_path, specs)
        transport = LocalTransport(coordinator.state)
        assert transport.try_claim(0, "w")
        assert transport.try_claim(0, "w")  # duplicate delivery: re-granted
        assert not transport.try_claim(0, "other")  # non-owners still lose

    def test_register_is_idempotent(self, tmp_path):
        specs = grid(count=4)
        coordinator = plan_cluster(tmp_path, specs)
        transport = LocalTransport(coordinator.state)
        shard = transport.register_worker("w", None)
        # A retried register must return the recorded shard, not round-robin
        # the duplicate onto the next one.
        assert transport.register_worker("w", None) == shard
        assert transport.register_worker("w", shard) == shard
        assert transport.status()["registered_workers"] == 1


# --------------------------------------------------------------------------- #
# Heartbeat loss aborts the displaced worker
# --------------------------------------------------------------------------- #
class TestHeartbeatLoss:
    def test_displaced_worker_aborts_instead_of_double_submitting(
            self, tmp_path, monkeypatch):
        """The stale-takeover peer and the resurrecting original both finish
        the same scenario; only the peer may submit.  Pre-PR the original's
        heartbeat thread noticed the takeover and silently stopped, and the
        original submitted anyway — double-counting the scenario."""
        specs = grid(count=4)
        # Tiny lease timeout: the heartbeat interval (timeout / 3, floored
        # at 50ms) fires several times during the slowed execution below.
        coordinator = plan_cluster(tmp_path, specs, lease_timeout=0.15)
        clock = ManualClock()
        rescuer = LocalTransport(coordinator.state, clock)
        takeover_done = threading.Event()

        import repro.cluster.worker as worker_module
        real_execute = worker_module.execute_scenario

        def execute_and_get_displaced(spec, seed, duration, **kwargs):
            outcome = real_execute(spec, seed, duration, **kwargs)
            if not takeover_done.is_set():
                # While the original is "still computing": its lease goes
                # stale and the rescuer takes it over and submits.  The
                # original's heartbeat thread may refresh the lease between
                # the clock step and the claim, so retry the pair.
                index = rescuer.plan.specs.index(spec)
                for _ in range(50):
                    clock.advance(3600.0)
                    if rescuer.try_claim(index, "rescuer"):
                        break
                else:
                    raise AssertionError("rescuer could not take the lease")
                rescuer.submit_result("rescuer", index, outcome, attempt=1)
                takeover_done.set()
                time.sleep(0.4)  # several heartbeat intervals
            return outcome

        monkeypatch.setattr(worker_module, "execute_scenario",
                            execute_and_get_displaced)
        original = ClusterWorker(LocalTransport(coordinator.state, clock),
                                 "original", shard=0, steal=False,
                                 cache_dir=None)
        index = original.step()
        assert index is not None
        assert original.aborted == [index]
        assert original.executed == []  # the displaced result was discarded
        original.close()
        rescuer.close()
        results = coordinator.cluster_dir / "results"
        assert (results / "part-rescuer.jsonl").exists()
        assert not (results / "part-original.jsonl").exists(), \
            "displaced worker double-submitted"
        merged = coordinator.merge(require_complete=False)
        assert len(merged.outcomes) == 1

    def test_transient_heartbeat_outage_does_not_abort(self):
        from repro.cluster.worker import _Heartbeat

        class FlakyTransport:
            def __init__(self):
                self.beats = 0

            def heartbeat_many(self, indices, worker_id):
                self.beats += 1
                if self.beats == 1:
                    raise TransportError("blip")
                return list(indices)

        transport = FlakyTransport()
        heartbeat = _Heartbeat(transport, "w", interval=0.05)
        heartbeat.watch(0)
        deadline = time.monotonic() + 2.0
        while transport.beats < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        lost = heartbeat.unwatch(0)
        heartbeat.close()
        assert transport.beats >= 3  # kept beating through the outage
        assert not lost

    def test_late_answer_for_an_unwatched_lease_marks_nothing(self):
        """A beat answered after its lease was unwatched — even ``alive:
        false`` — must not mark the next watch of the same index lost."""
        from repro.cluster.worker import _Heartbeat

        class BlockingTransport:
            def __init__(self):
                self.started = threading.Event()
                self.release = threading.Event()
                self.beats = 0

            def heartbeat_many(self, indices, worker_id):
                self.beats += 1
                if self.beats == 1:
                    self.started.set()
                    self.release.wait(5.0)
                    return []  # the late, authoritative "lost"
                return list(indices)

        transport = BlockingTransport()
        heartbeat = _Heartbeat(transport, "w", interval=0.05)
        heartbeat.watch(0)
        assert transport.started.wait(2.0)
        assert not heartbeat.unwatch(0)  # the answer is still in flight
        heartbeat.watch(0)  # the same index, claimed again
        transport.release.set()
        deadline = time.monotonic() + 2.0
        while transport.beats < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not heartbeat.unwatch(0)
        heartbeat.close()

    def test_loss_flags_survive_racing_rewatches(self):
        """Stress: one index watched and unwatched many times while beats
        race the switches.  A beat answers "lost" exactly when it began in
        an odd generation; a lost flag may only ever land on an odd
        generation, however late the answer arrives."""
        import sys

        from repro.cluster.worker import _Heartbeat

        class GenerationTransport:
            generation = 0

            def heartbeat_many(self, indices, worker_id):
                began = self.generation
                time.sleep(0.0002)
                return list(indices) if began % 2 == 0 else []

        transport = GenerationTransport()
        heartbeat = _Heartbeat(transport, "w", interval=0.05)
        heartbeat.interval = 0.0001  # beat far faster than the floor
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        marked = []
        try:
            for generation in range(400):
                transport.generation = generation
                heartbeat.watch(0)
                time.sleep(0.0005)
                if heartbeat.unwatch(0):
                    marked.append(generation)
        finally:
            sys.setswitchinterval(switch)
            thread = heartbeat._thread
            heartbeat.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert marked, "no beat ever reported a loss"
        assert all(generation % 2 for generation in marked), marked


class _LeaseLossTransport(LocalTransport):
    """In-process transport on which a peer displaces chosen leases.

    The first heartbeat of a chosen lease finds it stale-taken-over by
    ``rescuer``, which submits the scenario itself — so the beat reports
    the lease lost, and the scenario is done for everyone else.
    """

    def __init__(self, state, lost_indices):
        super().__init__(state, ManualClock())
        self.lost_indices = set(lost_indices)
        self.beats: list[int] = []

    def heartbeat_many(self, indices, worker_id):
        for index in indices:
            self.beats.append(index)
            if index in self.lost_indices:
                self.lost_indices.discard(index)
                self.clock.advance(3600.0)
                assert self.try_claim(index, "rescuer")
                self.submit_result("rescuer", index, _canned_outcome(
                    self.plan.specs[index], self.plan.seeds[index],
                    self.plan.duration), attempt=1)
        return super().heartbeat_many(indices, worker_id)


def _canned_outcome(spec, seed, duration):
    from repro.runtime.sweep import ScenarioOutcome

    return ScenarioOutcome(scenario_name=spec.name,
                           scheduler_name=spec.scheduler_name(), seed=seed,
                           duration=duration, backend=spec.backend_name())


class TestPerWorkerHeartbeat:
    """One heartbeat thread per worker, one loss flag per lease."""

    def test_worker_starts_one_heartbeat_thread_for_many_scenarios(
            self, tmp_path, monkeypatch):
        import repro.cluster.worker as worker_module

        specs = grid(count=20)
        coordinator = plan_cluster(tmp_path, specs, num_shards=1,
                                   lease_timeout=0.15)
        started: list[str] = []
        real_start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)

        def execute(spec, seed, duration, **kwargs):
            time.sleep(0.01)
            return _canned_outcome(spec, seed, duration)

        monkeypatch.setattr(worker_module, "execute_scenario", execute)
        worker = ClusterWorker(LocalTransport(coordinator.state),
                               "solo", cache_dir=None, batch_size=1)
        assert worker.run(wait_for_stragglers=False) == 20
        assert sorted(worker.executed) == list(range(20))
        assert started == ["heartbeat-solo"]

    def test_lease_lost_on_one_scenario_aborts_only_that_scenario(
            self, tmp_path, monkeypatch):
        import repro.cluster.worker as worker_module

        specs = grid(count=4)
        coordinator = plan_cluster(tmp_path, specs, num_shards=1,
                                   lease_timeout=0.15)
        queue = list(coordinator.cluster_plan().shard(0))  # claim order
        doomed, successor = queue[1], queue[2]
        transport = _LeaseLossTransport(coordinator.state, {doomed})

        def execute(spec, seed, duration, **kwargs):
            time.sleep(0.2)  # several heartbeat intervals
            return _canned_outcome(spec, seed, duration)

        monkeypatch.setattr(worker_module, "execute_scenario", execute)
        worker = ClusterWorker(transport, "w", steal=False, cache_dir=None,
                               batch_size=1)
        worker.run(wait_for_stragglers=False)
        assert worker.aborted == [doomed]
        assert worker.executed == [queue[0], successor, queue[3]]
        assert {queue[0], doomed, successor} <= set(transport.beats)
        merged = coordinator.merge()
        assert [outcome.scenario_name for outcome in merged.outcomes] == [
            spec.name for spec in specs]


# --------------------------------------------------------------------------- #
# Satellite: connect deadline clamping
# --------------------------------------------------------------------------- #
class TestConnectDeadline:
    def test_connect_deadline_is_clamped(self):
        started = time.monotonic()
        with pytest.raises(TransportError,
                           match=r"after \d+ attempt\(s\) over \d+\.\d+s"):
            SocketTransport("127.0.0.1:1", connect_retry=0.25)
        elapsed = time.monotonic() - started
        # Pre-PR the loop slept a fixed 0.2s past the deadline and made an
        # extra attempt; the clamped loop stops at the budget (plus one
        # attempt's latency against a closed port, which is microseconds).
        assert elapsed < 0.6, f"connect retry overshot its budget: {elapsed}"

    def test_zero_budget_fails_after_exactly_one_attempt(self):
        with pytest.raises(TransportError, match=r"after 1 attempt"):
            SocketTransport("127.0.0.1:1", connect_retry=0.0)


# --------------------------------------------------------------------------- #
# Acceptance: seeded faulted sweep == serial, both front-ends
# --------------------------------------------------------------------------- #
class TestFaultedSweepAcceptance:
    """Drops + resets + duplicates + stale replays + delays + one
    mid-scenario worker crash, in process and over TCP — the merged result
    must be field-for-field identical to a serial ``SweepRunner`` run."""

    def worker_schedules(self, seed):
        crashy = FaultSchedule(seed=seed, drop=0.1, duplicate=0.1,
                               delay=0.2, delay_seconds=0.001,
                               crash_op="claim", crash_call=2,
                               crash_mode="after")
        chaotic = FaultSchedule(seed=seed + 1, drop=0.15, reset=0.15,
                                duplicate=0.15, replay=0.1, delay=0.2,
                                delay_seconds=0.001)
        steady = FaultSchedule(seed=seed + 2, drop=0.1, reset=0.1,
                               duplicate=0.1, replay=0.1)
        return [crashy, chaotic, steady]

    @pytest.mark.parametrize("transport_kind", ["local", "socket"])
    def test_faulted_sweep_equals_serial(self, tmp_path, transport_kind):
        specs = grid()
        assert len(specs) >= 24
        serial = SweepRunner(specs, DURATION, master_seed=77).run()
        coordinator = plan_cluster(tmp_path, specs, lease_timeout=120.0)
        clock = ManualClock()
        server = None
        if transport_kind == "socket":
            server = ClusterCoordinatorServer(coordinator, clock=clock)
            server.start_background()

        def make_transport(schedule):
            if transport_kind == "socket":
                return FaultyTransport.over_socket(server.address, schedule,
                                                   retry_delay=0.0)
            return FaultyTransport(LocalTransport(coordinator.state, clock),
                                   schedule, retry_delay=0.0)

        schedules = self.worker_schedules(seed=20260808)
        workers = [ClusterWorker(make_transport(schedule), f"w{i}", shard=i,
                                 cache_dir=None)
                   for i, schedule in enumerate(schedules)]
        crashed: set[int] = set()
        try:
            for _ in range(800):
                progressed = False
                for position, worker in enumerate(workers):
                    if position in crashed:
                        continue
                    try:
                        if worker.step() is not None:
                            progressed = True
                    except InjectedWorkerCrash:
                        crashed.add(position)  # died holding its lease
                        progressed = True
                    except TransportError:
                        progressed = True  # injected outage burst; retry
                if coordinator.is_complete():
                    break
                if not progressed:
                    assert expire_leases(coordinator, clock) > 0, \
                        "deadlock: no progress, no lease to expire"
            else:
                raise AssertionError("faulted grid did not complete")
        finally:
            for worker in workers:
                worker.close()
            if server is not None:
                server.stop()

        assert crashed == {0}, "the scheduled crash did not fire"
        assert any(schedule.injected for schedule in schedules)
        merged = coordinator.merge()
        assert merged.master_seed == serial.master_seed
        assert merged.duration == serial.duration
        assert merged.outcomes == serial.outcomes
        assert merged == serial
