"""The coordinator's state, and the cluster protocol as one function of it.

:class:`CoordinatorState` holds what the cluster protocol decides —
worker registrations, leases, the done set, the attempt ledger and the
quarantine.  :meth:`CoordinatorState.apply` *is* the protocol: it takes one
request frame (``{"op": <name>, ...}``) and the coordinator's time, decodes
and checks it, applies the operation per scenario index, and returns the
response frame (``{"ok": true, ...}`` or ``{"ok": false, "error": ...}``).
It is the one place that maps an operation name to the state.  The state
starts no thread and reads no clock: every operation takes the
coordinator's time as an argument, ``now``, so a test steps leases through
expiry by passing a later ``now`` instead of sleeping.

The front-ends only carry frames to :meth:`~CoordinatorState.apply`:

* :class:`~repro.cluster.serve.ClusterCoordinatorServer` — the TCP
  coordinator that :class:`~repro.cluster.transport.SocketTransport`
  workers (and :meth:`ClusterCoordinator.run_local`'s worker processes)
  connect to; it answers ``plan`` itself and passes every other frame on;
* :class:`~repro.cluster.transport.LocalTransport` — the same frames in
  process, for workers that share the coordinator's interpreter (tests,
  drivers stepping workers by hand).

**Soft state** lives in memory only.  A lease is ``(owner, claimed at,
last beat, batch size)``, timed on the one clock of the front-end that
passes ``now``; it is stale once ``now - last beat >= lease_timeout``.
Registrations and the per-delivery dedupe keys are memory too.

**Durable state** is what a result depends on, in the cluster directory:

``results/part-<worker>.jsonl``
    One JSONL sink part per worker (see :mod:`repro.cluster.sinks`).

``tasks/<first-index>.done.<unique>.json``
    Done record: ``{"indices": [...]}``, the sorted indices one submit
    marked done, named after the first of them.  Written (tmp-and-rename,
    so never seen partial) only *after* the submit's outcomes are fsynced
    in the sink part, so a record always vouches for durable sink records.

``tasks/<index>.fail.<worker>.<attempt>.json`` / ``tasks/<index>.death.<unique>.json``
    One fsynced marker per reported failure and per observed lease death
    of a guarded plan; together they are the scenario's spent attempts.

``quarantine/scenario-<index>.json``
    The :class:`~repro.runtime.guard.QuarantineStore` record of a
    scenario whose attempts spent the retry budget.

A coordinator that restarts builds a new state over the same directory: it
reads the done records and the markers back, and knows no lease — every
lease of the old run reads as expired, so its scenarios are claimable at
once.  A coordinator that dies between a submit's sink fsync and its done
record leaves those scenarios pending; they run again (deterministically),
and the merge dedupes the identical records.

Every frame is checked once, in :meth:`~CoordinatorState.apply`, before
anything changes.  A worker id must be a ``str`` matching
:data:`WORKER_ID`: ids name files (``part-<id>.jsonl``,
``telemetry/<id>.json``, fail markers), so one holding a path separator or
starting with a dot is refused.  Indices, shards and attempts must be
``int`` (never ``bool``) and in range, and every submitted or failed
outcome must pass :meth:`ScenarioOutcome.check_record
<repro.runtime.sweep.ScenarioOutcome.check_record>`.
"""

from __future__ import annotations

import collections
import json
import re
import threading
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.cluster.coordinator import (
    RESULTS_DIR,
    TASKS_DIR,
    TELEMETRY_DIR,
    ClusterPlan,
    atomic_write_json,
)
from repro.cluster.sinks import JsonlResultSink, ResultSink, part_name
from repro.cluster.transport import TaskSnapshot
from repro.runtime.guard import QuarantineRecord, QuarantineStore
from repro.runtime.sweep import ScenarioOutcome

#: A worker id the coordinator accepts: a file-name-safe token that admits
#: the default ``<hostname>-<pid>``.  No path separator, no leading dot.
WORKER_ID = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]{0,127}")

#: The operations :meth:`CoordinatorState.apply` applies (``plan`` is
#: answered by the TCP front-end from the written plan).  A tuple, so a
#: frame's unhashable ``op`` is compared, not hashed.
OPS = ("register", "snapshot", "claim", "heartbeat", "submit", "fail",
       "telemetry", "status")

#: The durable task files read back on start: done records, and the fail
#: and death markers of the attempt ledger.  Tmp files never match.
_TASK_FILE = re.compile(
    r"(0|[1-9][0-9]*)\.(done\.[0-9a-f]+|fail\..+|death\.[0-9a-f]+)\.json")


def check_int(value: object, name: str) -> int:
    """``value`` if it is an ``int`` (never a ``bool``), else ValueError."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def check_list(value: object, name: str) -> list:
    """``value`` if it is a list, else ValueError."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got "
                         f"{type(value).__name__}")
    return value


def write_done_record(cluster_dir: Path, indices: Iterable[int],
                      ) -> tuple[int, ...]:
    """Mark ``indices`` done with one record; returns its sorted indices.

    Call only once the sink records of ``indices`` are durable.  The record
    is not fsynced: if a machine crash tears it, it reads as absent and its
    scenarios run again (deterministic, so harmless).  A reader never sees
    it partial, because it appears by rename.
    """
    done = tuple(sorted(indices))
    name = f"{done[0]}.done.{uuid.uuid4().hex}.json"
    atomic_write_json(cluster_dir / TASKS_DIR / name, {"indices": done})
    return done


def read_tasks(cluster_dir: Path) -> tuple[set[int],
                                           collections.Counter]:
    """List ``tasks/`` once: the indices the done records name, and the
    attempts spent per index (one per fail or death marker).

    A missing ``tasks/`` reads as nothing done; an unreadable record
    counts as absent.  Indices are not checked against any plan.
    """
    done: set[int] = set()
    spent: collections.Counter = collections.Counter()
    try:
        names = [path.name for path in (cluster_dir / TASKS_DIR).iterdir()]
    except FileNotFoundError:
        return done, spent
    for name in names:
        match = _TASK_FILE.fullmatch(name)
        if match is None:
            continue
        if not match[2].startswith("done."):
            spent[int(match[1])] += 1
            continue
        try:
            with open(cluster_dir / TASKS_DIR / name) as handle:
                done.update(json.load(handle)["indices"])
        except (OSError, ValueError, KeyError, TypeError):
            continue
    return done, spent


@dataclass
class Lease:
    """One scenario's lease, timed on the coordinator's clock."""

    owner: str
    claimed_at: float
    #: The last claim or heartbeat; stale ``lease_timeout`` after it.
    beat_at: float
    #: How many indices the granting claim carried.
    batch: int


class CoordinatorState:
    """The coordinator's decisions, applied per scenario index.

    :meth:`apply` checks a frame and holds :attr:`lock` around the
    operation it names.  The per-op methods it calls (:meth:`register`,
    :meth:`claim`, ...) take checked arguments and hold no lock: a test
    steps them directly, with a clock.
    """

    def __init__(self, cluster_dir: "str | Path", plan: ClusterPlan) -> None:
        self.cluster_dir = Path(cluster_dir)
        self.plan = plan
        #: Supervision policy of the plan (``None``: no failure budget, no
        #: death charges, no quarantine).
        self.guard = plan.guard_policy()
        #: Held around every operation :meth:`apply` makes.
        self.lock = threading.RLock()
        #: Worker id -> home shard, in registration order.
        self._shards: dict[str, int] = {}
        self._leases: dict[int, Lease] = {}
        self._sinks: dict[str, ResultSink] = {}
        #: Submit and failure deliveries applied, keyed on ``(index,
        #: worker_id, attempt)``: a duplicate delivery writes nothing.
        self._applied_submits: set[tuple[int, str, int]] = set()
        self._applied_failures: set[tuple[int, str, int]] = set()
        self._quarantine = QuarantineStore(self.cluster_dir)
        done, self._spent = read_tasks(self.cluster_dir)
        self._done = {index for index in done if index < len(plan.specs)}
        self._quarantined = self._quarantine.indices()

    # ------------------------------------------------------------------ #
    # The protocol
    # ------------------------------------------------------------------ #
    def apply(self, frame: dict, now: float) -> dict:
        """Apply one request frame at ``now``; returns the response frame.

        The frame is decoded and checked outside :attr:`lock`, and the
        operation it names is applied under it.  A frame naming no known
        operation, missing a field, or holding a value :meth:`check_worker`,
        :meth:`check_index`, :func:`check_int` or
        :meth:`ScenarioOutcome.check_record` refuses is answered ``{"ok":
        false, "error": ...}`` with nothing changed; any other error (a
        full disk) propagates to the front-end.
        """
        op = frame.get("op")
        if op not in OPS:
            return {"ok": False, "error": f"unknown operation {op!r}"}
        try:
            if op == "snapshot":
                with self.lock:
                    snapshot = self.snapshot(now)
                return {"ok": True, "snapshot": snapshot.to_dict()}
            if op == "status":
                with self.lock:
                    return {"ok": True, "status": self.status(now)}
            worker_id = self.check_worker(frame["worker_id"])
            if op == "register":
                shard = frame.get("shard")
                if shard is not None:
                    self.check_shard(shard)
                with self.lock:
                    return {"ok": True,
                            "shard": self.register(worker_id, shard)}
            if op == "claim":
                indices = self.check_indices(frame["indices"])
                with self.lock:
                    granted = self.claim(indices, worker_id, now)
                return {"ok": True, "granted": granted}
            if op == "heartbeat":
                indices = self.check_indices(frame["indices"])
                with self.lock:
                    alive = self.heartbeat(indices, worker_id, now)
                return {"ok": True, "alive": alive}
            if op == "submit":
                results = [(self.check_index(entry["index"]),
                            ScenarioOutcome.check_record(entry["outcome"]),
                            check_int(entry.get("attempt", 0), "attempt"))
                           for entry in check_list(frame["results"],
                                                   "results")]
                with self.lock:
                    self.submit(worker_id, results)
                return {"ok": True}
            if op == "fail":
                index = self.check_index(frame["index"])
                record = ScenarioOutcome.check_record(frame["outcome"])
                attempt = check_int(frame.get("attempt", 0), "attempt")
                with self.lock:
                    charged = self.fail(worker_id, index, record, attempt,
                                        now)
                return {"ok": True, **charged}
            metrics = frame["metrics"]  # op == "telemetry"
            if not isinstance(metrics, dict):
                raise ValueError("telemetry metrics must be an object")
            with self.lock:
                self.telemetry(worker_id, metrics)
            return {"ok": True}
        except (KeyError, TypeError, ValueError) as error:
            return {"ok": False, "error": f"{op}: {error!r}"}

    # ------------------------------------------------------------------ #
    # Boundary checks
    # ------------------------------------------------------------------ #
    @staticmethod
    def check_worker(worker_id: object) -> str:
        """``worker_id`` if it is a safe file-name token, else ValueError."""
        if not isinstance(worker_id, str) or not WORKER_ID.fullmatch(
                worker_id):
            raise ValueError(f"unsafe worker id {worker_id!r}: expected "
                             f"{WORKER_ID.pattern}")
        return worker_id

    def check_index(self, value: object) -> int:
        """``value`` if it is a scenario index of the plan, else
        ValueError."""
        index = check_int(value, "scenario index")
        if not 0 <= index < len(self.plan.specs):
            raise ValueError(f"scenario index {index} out of range")
        return index

    def check_indices(self, value: object) -> list[int]:
        """``value`` if it is a list of scenario indices, else
        ValueError."""
        return [self.check_index(index)
                for index in check_list(value, "indices")]

    def check_shard(self, value: object) -> int:
        """``value`` if it is a shard of the plan, else ValueError."""
        shard = check_int(value, "shard")
        num_shards = self.plan.num_shards
        if not 0 <= shard < num_shards:
            raise ValueError(f"shard {shard} out of range "
                             f"(plan has {num_shards} shards)")
        return shard

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #
    def register(self, worker_id: str, shard: Optional[int]) -> int:
        """Register ``worker_id``; returns its home shard (round-robin over
        registrations when ``shard`` is None).  Idempotent: a repeated
        registration returns the recorded shard."""
        recorded = self._shards.get(worker_id)
        if recorded is not None and shard in (None, recorded):
            return recorded
        if shard is None:
            shard = len(self._shards) % self.plan.num_shards
        self._shards[worker_id] = shard
        return shard

    def snapshot(self, now: float) -> TaskSnapshot:
        """The done set, the age of every lease of a scenario not done,
        and the registration count."""
        return TaskSnapshot(
            done=frozenset(self._done),
            lease_ages={index: max(0.0, now - lease.beat_at)
                        for index, lease in self._leases.items()},
            workers=len(self._shards))

    def claim(self, indices: Sequence[int], worker_id: str,
              now: float) -> list[int]:
        """Lease each of ``indices`` in order; returns the granted ones.

        A live lease is re-granted to its owner (a duplicate delivery) and
        refused to anyone else.  A stale lease is taken over only by a
        claim of that index alone, so the next death on it is its own: on
        a guarded plan, the death of a stale lease that was itself claimed
        alone is charged against the scenario's retry budget first, and a
        spent budget quarantines the scenario instead of re-leasing it.
        """
        return [index for index in indices
                if self._claim(index, worker_id, len(indices), now)]

    def _claim(self, index: int, worker_id: str, batch: int,
               now: float) -> bool:
        if index in self._done:
            return False
        lease = self._leases.get(index)
        if lease is not None and now - lease.beat_at < self.plan.lease_timeout:
            return lease.owner == worker_id
        if lease is not None:
            if batch > 1:
                return False
            if self.guard is not None and lease.batch == 1:
                # A worker that died (or wedged) mid-scenario and never
                # reported back: repeated deaths on one index are the only
                # signature of a scenario that kills its workers.  A death
                # holding a batch is charged to nobody — nothing tells
                # which of its scenarios was running.
                self._charge(index, "death", uuid.uuid4().hex,
                             {"index": index, "worker_id": lease.owner,
                              "claimed_at": lease.claimed_at,
                              "observed_by": worker_id, "observed_at": now})
                if self._spent[index] >= self.guard.max_attempts:
                    self._retire(index, worker_id, "crash", now)
                    return False
        self._leases[index] = Lease(worker_id, now, now, batch)
        return True

    def heartbeat(self, indices: Sequence[int], worker_id: str,
                  now: float) -> list[int]:
        """Refresh each lease of ``indices`` ``worker_id`` still owns;
        returns those.  An index missing from the answer was taken over,
        released, finished or forgotten by a restart: stop beating it."""
        alive = []
        for index in indices:
            lease = self._leases.get(index)
            if lease is not None and lease.owner == worker_id:
                lease.beat_at = now
                alive.append(index)
        return alive

    def submit(self, worker_id: str,
               results: Sequence[tuple[int, dict, int]]) -> None:
        """Write each ``(index, record, attempt)`` to ``worker_id``'s sink
        part (one append, one fsync), then mark the frame's indices done
        with one record.

        A result needs no lease, and a done index wins over any lease.  A
        record is written once per ``(index, worker_id, attempt)`` and
        only while its index is not done, so duplicate deliveries write
        nothing twice.
        """
        fresh = [(index, record) for index, record, attempt in results
                 if (index, worker_id, attempt) not in self._applied_submits
                 and index not in self._done]
        if fresh:
            self._sink_for(worker_id).write_many(fresh)
        self._applied_submits.update((index, worker_id, attempt)
                                     for index, _, attempt in results)
        finished = {index for index, _, _ in results} - self._done
        if finished:
            self._done.update(write_done_record(self.cluster_dir, finished))
            for index in finished:
                self._leases.pop(index, None)

    def fail(self, worker_id: str, index: int, record: dict, attempt: int,
             now: float) -> dict:
        """Charge one failed execution (an outcome ``record``) of ``index``
        against its retry budget without marking it done.

        Releases the reporter's lease so a retry need not wait out the
        timeout, and quarantines the scenario once its reported failures
        plus lease deaths spend a guarded plan's budget.  Returns
        ``{"attempts": <spent>, "quarantined": <bool>}``.  Deliveries
        dedupe on ``(index, worker_id, attempt)``.
        """
        key = (index, worker_id, attempt)
        if key not in self._applied_failures and index not in self._done:
            error = record.get("error") or ""
            self._charge(index, "fail", f"{worker_id}.{attempt}",
                         {"index": index, "worker_id": worker_id,
                          "attempt": attempt, "status": record["status"],
                          "error": error[:2000], "recorded_at": now})
        self._applied_failures.add(key)
        lease = self._leases.get(index)
        if lease is not None and lease.owner == worker_id:
            del self._leases[index]
        spent = self._spent[index]
        if self.guard is not None and spent >= self.guard.max_attempts:
            self._retire(index, worker_id, record["status"], now)
        return {"attempts": spent, "quarantined": index in self._quarantined}

    def telemetry(self, worker_id: str, metrics: dict) -> None:
        """Store one worker's metrics snapshot, replacing its last one
        (last-write-wins, so a duplicate delivery changes nothing)."""
        atomic_write_json(
            self.cluster_dir / TELEMETRY_DIR / f"{worker_id}.json", metrics)

    def status(self, now: float) -> dict:
        """Done / leased / stale / pending counts per shard and overall,
        plus completion and the registration count."""
        per_shard = []
        totals = {"done": 0, "leased": 0, "stale": 0, "pending": 0}
        for shard_id in range(self.plan.num_shards):
            counts = {"done": 0, "leased": 0, "stale": 0, "pending": 0}
            for index in self.plan.shard(shard_id):
                lease = self._leases.get(index)
                if index in self._done:
                    counts["done"] += 1
                elif lease is None:
                    counts["pending"] += 1
                elif now - lease.beat_at >= self.plan.lease_timeout:
                    counts["stale"] += 1
                else:
                    counts["leased"] += 1
            per_shard.append(counts)
            for key, value in counts.items():
                totals[key] += value
        return {"shards": per_shard, "total": totals,
                "scenarios": len(self.plan.specs),
                "complete": self.is_complete(),
                "registered_workers": len(self._shards)}

    def is_complete(self) -> bool:
        """Whether a done record names every scenario."""
        return len(self._done) >= len(self.plan.specs)

    def close(self) -> None:
        """Close the sink parts (their writes are already durable); a
        later submit reopens its part."""
        for sink in self._sinks.values():
            sink.close()
        self._sinks.clear()

    # ------------------------------------------------------------------ #
    # Durable effects
    # ------------------------------------------------------------------ #
    def _sink_for(self, worker_id: str) -> ResultSink:
        sink = self._sinks.get(worker_id)
        if sink is None:
            sink = self._sinks[worker_id] = JsonlResultSink(
                self.cluster_dir / RESULTS_DIR / part_name(worker_id),
                master_seed=self.plan.master_seed,
                duration=self.plan.duration)
        return sink

    def _charge(self, index: int, kind: str, tag: str, marker: dict) -> None:
        """Spend one attempt of ``index``: a durable marker, then the
        ledger, which counts markers as a restart reads them back (a
        marker rewritten under the same name counts once)."""
        path = self.cluster_dir / TASKS_DIR / f"{index}.{kind}.{tag}.json"
        fresh = not path.exists()
        atomic_write_json(path, marker, durable=True)
        self._spent[index] += fresh

    def _retire(self, index: int, worker_id: str, status: str,
                now: float) -> None:
        """Quarantine ``index``: durable record, sink outcome
        (:meth:`ClusterPlan.quarantined_outcome`), done record."""
        if index in self._done:
            return
        spec = self.plan.specs[index]
        self._quarantine.record(QuarantineRecord(
            index=index, scenario_name=spec.name,
            seed=self.plan.seeds[index], attempts=self._spent[index],
            status=status, error=None, source="coordinator",
            recorded_at=now))
        self._quarantined.add(index)
        outcome = self.plan.quarantined_outcome(index, status)
        self.submit(worker_id, [(index, outcome.to_dict(), -1)])

