"""Transport abstraction for the cluster coordinator/worker protocol.

PR 3's shard/lease/steal protocol was defined directly in terms of files in
a shared directory.  This module lifts the protocol's *operations* — fetch
the plan, register a worker, snapshot task state, claim a batch of leases
(including stale-lease takeover), heartbeat a batch of leases, submit a
batch of durable results — into a :class:`Transport` contract that the
planner/worker/stealing/lease machinery runs against unchanged.  Two
implementations:

:class:`FilesystemTransport`
    The shared-directory protocol, verbatim: atomic ``O_CREAT | O_EXCL``
    lease creation, mtime heartbeats, tmp-and-rename takeovers, one done
    record per submit, per-worker sink parts.

:class:`SocketTransport`
    The same operations as length-prefixed JSON frames over one TCP
    connection to a ``python -m repro.cluster.serve`` coordinator.  The
    server answers every frame by applying the operation to its *local*
    :class:`FilesystemTransport` — leases are granted atomically server-side,
    results stream into the server's :class:`~repro.cluster.sinks.ResultSink`
    parts, and coordinator state (leases, done records, parts) stays durable
    across a coordinator restart.  Workers need no shared filesystem at all.

Because both transports implement one contract over the *same* authoritative
semantics, the merged :class:`~repro.runtime.sweep.SweepResult` of a sweep is
field-for-field identical regardless of transport, shard count, stealing
order or crash history — execution determinism depends only on
(spec, seed, backend), never on the wire.

Wire format (``SocketTransport`` <-> ``repro.cluster.serve``): each frame is
a 4-byte big-endian length prefix followed by one UTF-8 JSON object.
Requests carry ``{"op": <name>, ...}``; responses carry ``{"ok": true, ...}``
or ``{"ok": false, "error": <message>}``.  One request is answered by exactly
one response, in order, per connection.

Claims, heartbeats and submits are **batched**: a ``claim`` frame carries
a list of ``indices`` and is answered with the ``granted`` sublist, a
``heartbeat`` frame carries ``indices`` and is answered with the ``alive``
sublist, and a ``submit`` frame carries a list of ``results`` (``index``,
``outcome``, ``attempt``), each ``outcome`` the plain record
:meth:`~repro.runtime.sweep.ScenarioOutcome.to_dict` returns — a cache hit's
stored record goes out as it was read, and the coordinator checks each
record and writes it to the sink as received.  The coordinator applies
the single-index semantics to each element in order — one lease grant or
takeover per
index, one lease refresh per index, and for a submit one sink append and
one fsync for the whole frame, then one done record naming every index of
the frame that was not done yet.
The ops are idempotent and commute per scenario index, so a batch equals
its elements applied one after another (the Scalable Commutativity Rule),
and a single-index call (:meth:`Transport.try_claim`,
:meth:`Transport.heartbeat`, :meth:`Transport.submit_result`) is simply a
batch of one.  A stale lease
is taken over only by a claim of that index alone: after a worker dies
holding a batch, its indices are re-leased one at a time, so a scenario
that kills its workers is found without charging its batch neighbours.

Delivery semantics: every protocol operation is **idempotent** — claims
re-grant each index to its current owner, registrations return the recorded
shard, submits are deduplicated per result on ``(task_index, worker_id,
attempt)`` and by the done records, heartbeats are pure refreshes.  A client
that loses the connection mid-request therefore cannot tell whether the
operation was applied, *and does not need to*:
:meth:`SocketTransport.request` retries idempotent operations with bounded
backoff, and a duplicate delivery commutes into a no-op.  Lease ages are computed on a single clock
authority — the coordinator's clock for the socket transport, and
mtime-relative with a configurable skew tolerance for the filesystem
transport (see ``ClusterPlan.clock_skew_tolerance``) — so cross-machine
clock skew cannot fake a stale lease.  ``repro.cluster.faults`` injects
drops, duplicates, resets, delays, stale replays, crashes and skew against
exactly these guarantees.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

from repro.cluster.coordinator import (
    RESULTS_DIR,
    TASKS_DIR,
    TELEMETRY_DIR,
    WORKERS_DIR,
    ClusterPlan,
    atomic_write_json,
    lease_path,
    read_tasks,
    write_done_record,
)
from repro.cluster.sinks import JsonlResultSink, ResultSink, part_name
from repro.runtime.guard import (
    QUARANTINED,
    GuardPolicy,
    QuarantineRecord,
    QuarantineStore,
)
from repro.runtime.sweep import ScenarioOutcome


class TransportError(RuntimeError):
    """A transport operation failed (protocol error, connection loss, ...)."""


class FrameTooLarge(TransportError):
    """A peer announced a frame beyond :data:`MAX_FRAME_BYTES`.

    The announced body has **not** been consumed — carrying ``length`` lets
    the server drain it to resynchronise the stream and answer with a
    structured error instead of dropping the connection.
    """

    def __init__(self, message: str, length: int) -> None:
        super().__init__(message)
        self.length = length


class FrameDecodeError(TransportError):
    """A complete frame body was read but could not be decoded.

    The stream is still at a frame boundary, so the connection can keep
    serving after a structured error response.
    """


#: Operations that are safe to deliver more than once: claims re-grant each
#: of their indices to its owner, registrations return the recorded shard,
#: submits dedupe each of their results on ``(index, worker_id, attempt)``,
#: heartbeats are pure refreshes of each of their leases, telemetry
#: uploads are whole-snapshot last-write-wins, and the read-only ops
#: (plan/snapshot/status) have no effect at all.  Only these may be retried
#: after a connection error whose outcome is unknown — which, after this set
#: grew to cover the whole protocol, is every operation.
IDEMPOTENT_OPS = frozenset({
    "plan", "register", "snapshot", "claim", "heartbeat", "submit", "status",
    "telemetry", "fail",
})


# --------------------------------------------------------------------------- #
# Frame codec (shared by SocketTransport and repro.cluster.serve)
# --------------------------------------------------------------------------- #
_FRAME_HEADER = struct.Struct(">I")

#: Upper bound on one frame.  A submit carries at most
#: :data:`repro.cluster.worker.SUBMIT_FRAME` outcomes of about 1 kB each, and
#: a claim one index list — both far below this.
MAX_FRAME_BYTES = 64 * 1024 * 1024


def send_frame(sock: socket.socket, payload: dict) -> None:
    """Send one length-prefixed JSON frame."""
    send_body(sock, json.dumps(payload).encode("utf-8"))


def send_body(sock: socket.socket, body: bytes) -> None:
    """Send one frame whose JSON body is already encoded."""
    if len(body) > MAX_FRAME_BYTES:
        raise TransportError(f"frame of {len(body)} bytes exceeds the "
                             f"{MAX_FRAME_BYTES}-byte limit")
    sock.sendall(_FRAME_HEADER.pack(len(body)) + body)


def recv_frame(sock: socket.socket) -> Optional[dict]:
    """Receive one frame; ``None`` on a clean EOF at a frame boundary."""
    header = _recv_exact(sock, _FRAME_HEADER.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"peer announced a {length}-byte frame, "
                            f"limit is {MAX_FRAME_BYTES}", length)
    body = _recv_exact(sock, length, allow_eof=False)
    try:
        frame = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FrameDecodeError(f"undecodable frame: {error}") from None
    if not isinstance(frame, dict):
        raise FrameDecodeError(
            f"frame is not an object: {type(frame).__name__}")
    return frame


def drain_exact(sock: socket.socket, count: int) -> bool:
    """Read and discard ``count`` bytes; ``False`` if the peer hangs up.

    Used by the server to consume the body of an oversized announced frame
    so the stream lands back on a frame boundary and the connection can
    keep serving after a structured error response.
    """
    remaining = count
    try:
        while remaining:
            chunk = sock.recv(min(remaining, 1 << 20))
            if not chunk:
                return False
            remaining -= len(chunk)
    except OSError:
        return False
    return True


def _recv_exact(sock: socket.socket, count: int,
                allow_eof: bool) -> Optional[bytes]:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if allow_eof and remaining == count:
                return None
            raise TransportError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# --------------------------------------------------------------------------- #
# Task-state snapshot
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TaskSnapshot:
    """Point-in-time view of every scenario's lease/done state.

    Workers select claim candidates from a snapshot (one bulk operation —
    one network round trip on the socket transport instead of two per
    scenario) and then validate their choices with the authoritative, atomic
    :meth:`Transport.claim_many`; a stale snapshot therefore costs at most a
    refused claim, never a double execution.

    That is why a worker keeps claiming from the candidate list of its last
    snapshot and refreshes only when the view is known to be stale — after
    a refused claim, a reported failure, an aborted lease, or once the list
    runs dry (see :meth:`repro.cluster.worker.ClusterWorker.step`).  The
    protocol ops are idempotent and commute per scenario index, so a claim
    made from an old view is either granted exactly as from a new one or
    refused: a sweep pass costs one claim and one submit per batch instead
    of O(N) snapshots of O(N) each.
    """

    done: frozenset[int]
    #: Global index -> seconds since the lease's last heartbeat.  Absent
    #: indices are unleased.
    lease_ages: Mapping[int, float] = field(default_factory=dict)
    #: Worker registrations so far (never decreases): the fleet size claim
    #: batches are sized for.  Not task state, so not compared.
    workers: int = field(default=0, compare=False)

    def is_done(self, index: int) -> bool:
        """Whether a done record names ``index``."""
        return index in self.done

    def is_available(self, index: int, lease_timeout: float) -> bool:
        """Pending: not done and not covered by a live lease."""
        if index in self.done:
            return False
        age = self.lease_ages.get(index)
        return age is None or age >= lease_timeout

    def to_dict(self) -> dict:
        """JSON-serialisable form (JSON keys become strings)."""
        return {"done": sorted(self.done),
                "lease_ages": {str(index): age
                               for index, age in self.lease_ages.items()},
                "workers": self.workers}

    @classmethod
    def from_dict(cls, data: dict) -> "TaskSnapshot":
        """Rebuild a snapshot received over the wire."""
        return cls(done=frozenset(data["done"]),
                   lease_ages={int(index): age
                               for index, age in data["lease_ages"].items()},
                   workers=int(data.get("workers", 0)))


# --------------------------------------------------------------------------- #
# Contract
# --------------------------------------------------------------------------- #
class Transport(ABC):
    """The coordinator/worker protocol, independent of how bytes move.

    Implementations must guarantee:

    * :meth:`claim_many` is **atomic per index**: of any number of concurrent
      claims for one index, at most one is granted — and a claim of that
      index *alone* on an index whose lease is stale *takes the lease over*
      (the crashed owner's heartbeats, if it resurrects, report the lease
      as lost).
    * :meth:`submit_many` is **durable before it returns**, and records the
      results *before* their done record — a crash between the two
      re-executes the scenarios (harmless, deterministic) rather than
      losing them.
    * Every operation is **idempotent** (see :data:`IDEMPOTENT_OPS`): a
      duplicated or retried delivery commutes into a no-op, so a caller that
      cannot tell whether a request was applied may simply send it again.
    """

    #: Transport name used in logs and tests.
    kind: str = "base"

    #: The parsed cluster plan every worker executes from.
    plan: ClusterPlan

    @abstractmethod
    def register_worker(self, worker_id: str, shard: Optional[int]) -> int:
        """Register ``worker_id`` and return its home shard (auto-assigned
        round-robin over existing registrations when ``shard`` is None)."""

    @abstractmethod
    def snapshot(self) -> TaskSnapshot:
        """Current done/lease state of every scenario."""

    @abstractmethod
    def claim_many(self, indices: Sequence[int],
                   worker_id: str) -> list[int]:
        """Try to acquire the lease of each of ``indices``, in order;
        returns the granted ones.  A stale lease is taken over only when
        ``indices`` holds that one index."""

    def try_claim(self, index: int, worker_id: str) -> bool:
        """Atomically try to acquire the lease for ``index``."""
        return bool(self.claim_many([index], worker_id))

    @abstractmethod
    def heartbeat_many(self, indices: Sequence[int],
                       worker_id: str) -> list[int]:
        """Refresh the lease of each of ``indices``; returns the ones still
        owned by ``worker_id``.  A missing index was taken over after going
        stale (or released) — stop beating it then."""

    def heartbeat(self, index: int, worker_id: str) -> bool:
        """Refresh the lease of ``index``; ``False`` once it is lost."""
        return bool(self.heartbeat_many([index], worker_id))

    @abstractmethod
    def submit_many(self, worker_id: str,
                    results: Sequence[tuple[int, dict, int]]) -> None:
        """Durably record each ``(index, record, attempt)`` and then mark
        its index done.

        ``record`` is the outcome's plain record, the
        :meth:`ScenarioOutcome.to_dict` form (a cache hit's stored record
        marked ``from_cache``), written to the sink as it is.
        ``attempt`` distinguishes separate *executions* by the same worker
        from duplicate *deliveries* of one execution: re-sending a result
        with the same ``(index, worker_id, attempt)`` key (a retry after a
        connection reset whose first delivery may have been applied) writes
        its sink record at most once.  A done record wins over any lease:
        a result needs no lease to be submitted."""

    def submit_result(self, worker_id: str, index: int,
                      outcome: ScenarioOutcome, attempt: int = 0) -> None:
        """Durably record ``outcome`` and then mark ``index`` done."""
        self.submit_many(worker_id, [(index, outcome.to_dict(), attempt)])

    def record_failure(self, worker_id: str, index: int,
                       outcome: ScenarioOutcome, attempt: int = 0) -> dict:
        """Report a failed execution of ``index`` *without* marking it done.

        The supervision path of a guarded plan: the failure is recorded
        durably, the reporter's lease is released (another worker may try
        immediately), and the coordinator side charges the scenario's
        retry budget — one unit per recorded failure *or* lease death.
        Returns ``{"attempts": <spent>, "quarantined": <bool>}``; once the
        budget is spent the scenario is quarantined (durable record, a
        ``status="quarantined"`` sink outcome, done record) so the sweep
        completes without it.  Deliveries dedupe on ``(index, worker_id,
        attempt)`` like submits, keeping the op idempotent.
        """
        raise TransportError(
            f"{self.kind} transport does not support failure reporting")

    def send_telemetry(self, worker_id: str, metrics: dict) -> None:
        """Ship one worker's observability metrics snapshot.

        ``metrics`` is a whole-registry snapshot
        (:meth:`repro.obs.metrics.MetricsRegistry.to_dict`), so a duplicate
        or reordered delivery is last-write-wins over the same content —
        idempotent by construction.  Telemetry is best-effort side data: the
        default implementation drops it, and no sweep result depends on it.
        """

    def close(self) -> None:
        """Release connections / flush sinks."""


# --------------------------------------------------------------------------- #
# Filesystem implementation (the PR 3 protocol, extracted)
# --------------------------------------------------------------------------- #
class FilesystemTransport(Transport):
    """Shared-directory transport — every operation is an atomic file op.

    This is the protocol :mod:`repro.cluster.coordinator` documents, moved
    out of ``ClusterWorker`` so the worker loop is transport-agnostic.  It is
    also the authoritative state store behind ``repro.cluster.serve``: the
    TCP coordinator applies every remote operation to a local instance, so
    both transports share one battle-tested semantics.
    """

    kind = "filesystem"

    def __init__(self, cluster_dir: str | Path,
                 plan: Optional[ClusterPlan] = None,
                 clock: Callable[[], float] = time.time) -> None:
        self.cluster_dir = Path(cluster_dir)
        self.plan = plan if plan is not None else ClusterPlan.load(cluster_dir)
        #: This process's notion of wall-clock time.  Lease mtimes are
        #: written from it explicitly (instead of the filesystem's implicit
        #: "now") so fault injection can simulate a machine whose clock is
        #: skewed — and so the skew-tolerance math is testable at all.
        self.clock = clock
        self._sinks: dict[str, ResultSink] = {}
        #: Submit deliveries already applied by this process, keyed on
        #: ``(index, worker_id, attempt)`` — duplicate deliveries (retries
        #: after a reset, duplicated frames) skip the sink write.
        self._applied_submits: set[tuple[int, str, int]] = set()
        #: Failure deliveries already applied, same dedupe contract.
        self._applied_failures: set[tuple[int, str, int]] = set()
        #: Done records listed so far, by file name (see
        #: :func:`~repro.cluster.coordinator.read_tasks`).
        self._records: dict[str, tuple[int, ...]] = {}
        #: Indices the done records named at the last :meth:`_refresh`,
        #: plus those of this instance's own records since.
        self._done: set[int] = set()
        #: Supervision policy of the plan (``None`` = pre-guard protocol:
        #: no death markers, no failure budget, no quarantine).
        self.guard: Optional[GuardPolicy] = self.plan.guard_policy()
        # Reentrant: submit_many holds it across the sink lookup *and* the
        # write — when this instance backs the TCP coordinator, a client
        # that timed out and reconnected can have two server threads
        # submitting under the same worker id, and interleaved writes on
        # one sink would tear the part — and _quarantine's submit takes it
        # again inside record_failure and claim_many.  _refresh holds it
        # too, so a listing taken before this instance's own record was
        # renamed cannot drop that record from the done set.
        self._lock = threading.RLock()

    @property
    def _stale_after(self) -> float:
        """Observed lease age at which a lease counts as abandoned.

        The lease timeout plus the plan's clock-skew tolerance: an observed
        age mixes the writer's clock (mtime) with the reader's (now), so up
        to ``clock_skew_tolerance`` seconds of the age may be clock
        disagreement rather than missed heartbeats.
        """
        return self.plan.lease_timeout + self.plan.clock_skew_tolerance

    # -- registration -------------------------------------------------- #
    def register_worker(self, worker_id: str, shard: Optional[int]) -> int:
        workers_dir = self.cluster_dir / WORKERS_DIR
        num_shards = self.plan.shard_plan.num_shards
        with self._lock:
            workers_dir.mkdir(parents=True, exist_ok=True)
            record = workers_dir / f"{worker_id}.json"
            if record.exists():
                # Idempotent re-registration (a retried register frame, or a
                # resurrected worker with the same id): return the recorded
                # shard instead of re-counting registrations — counting
                # again would round-robin the duplicate onto a *different*
                # shard.
                try:
                    recorded = json.loads(record.read_text()).get("shard")
                except (OSError, json.JSONDecodeError):
                    recorded = None
                if recorded is not None and (shard is None
                                             or shard == recorded):
                    return int(recorded)
            if shard is None:
                existing = len(list(workers_dir.glob("*.json")))
                shard = existing % num_shards
            if not 0 <= shard < num_shards:
                raise TransportError(f"shard {shard} out of range "
                                     f"(plan has {num_shards} shards)")
            atomic_write_json(record,
                              {"worker_id": worker_id, "shard": shard,
                               "registered_at": self.clock()})
        return shard

    def registered_workers(self) -> int:
        """Number of worker registrations (never decreases)."""
        workers_dir = self.cluster_dir / WORKERS_DIR
        if not workers_dir.exists():
            return 0
        return len(list(workers_dir.glob("*.json")))

    # -- task state ---------------------------------------------------- #
    def _refresh(self) -> dict[int, os.DirEntry]:
        """Re-list ``tasks/``: rebuild the done set, return the leases."""
        with self._lock:
            self._done, leases = read_tasks(self.cluster_dir, self._records)
        return leases

    def _is_done(self, index: int) -> bool:
        """Whether the done set of the last :meth:`_refresh` has ``index``."""
        return index in self._done

    def _lease_age(self, index: int) -> Optional[float]:
        """Observed lease age on *this* process's clock, raw (no tolerance)."""
        try:
            return self.clock() - lease_path(self.cluster_dir,
                                             index).stat().st_mtime
        except OSError:
            return None

    def snapshot(self) -> TaskSnapshot:
        """Done/lease state with **skew-adjusted** lease ages.

        Reported ages are the observed age minus the skew tolerance (floored
        at zero), so a consumer comparing them against the plain lease
        timeout — :meth:`TaskSnapshot.is_available` — applies exactly the
        single staleness rule of this transport, and up to
        ``clock_skew_tolerance`` seconds of clock disagreement between the
        lease writer and this reader can never fake a stale lease.

        One directory listing covers the whole plan (see
        :func:`~repro.cluster.coordinator.read_tasks`), and only leases of
        scenarios that are not done are stat'ed.  Indices outside the plan
        are ignored.
        """
        num_specs = len(self.plan.specs)
        with self._lock:
            leases = self._refresh()
            done = frozenset(index for index in self._done
                             if index < num_specs)
        now = self.clock()
        tolerance = self.plan.clock_skew_tolerance
        lease_ages = {}
        for index, entry in leases.items():
            if index in done or index >= num_specs:
                continue
            try:
                mtime = entry.stat().st_mtime
            except OSError:
                continue  # released or replaced since the listing
            lease_ages[index] = max(0.0, now - mtime - tolerance)
        return TaskSnapshot(done=done, lease_ages=lease_ages,
                            workers=self.registered_workers())

    def _touch(self, lease: Path) -> None:
        """Stamp the lease mtime from this process's (possibly skewed) clock."""
        now = self.clock()
        os.utime(lease, (now, now))

    # -- claiming ------------------------------------------------------ #
    def claim_many(self, indices: Sequence[int],
                   worker_id: str) -> list[int]:
        batch = len(indices)
        self._refresh()
        return [index for index in indices
                if self._claim(index, worker_id, batch)]

    def _claim(self, index: int, worker_id: str, batch: int) -> bool:
        """One index of a claim of ``batch`` indices."""
        # Done wins over any view the caller claimed from — including a
        # quarantined scenario, whose lease was already released.
        if self._is_done(index):
            return False
        lease = lease_path(self.cluster_dir, index)
        lease.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps({"worker_id": worker_id,
                              "claimed_at": self.clock(), "batch": batch})
        try:
            descriptor = os.open(lease, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            # Every branch below refuses an index that is done; the done
            # set is refreshed only where that decides the answer, since
            # finishing while we looked is what a refresh would catch.
            age = self._lease_age(index)
            if age is None:
                # Lease vanished between the existence check and now —
                # retry through the normal candidate loop.
                return False
            if age < self._stale_after:
                # Live lease.  If *we* own it, this is a duplicate delivery
                # of a claim that was already granted (a retry after a
                # reset, or a duplicated frame): re-grant idempotently
                # instead of refusing and sending the owner elsewhere.
                try:
                    owner = json.loads(lease.read_text()).get("worker_id")
                except (OSError, json.JSONDecodeError):
                    return False
                if owner != worker_id:
                    return False
                self._refresh()
                return not self._is_done(index)
            if batch > 1:
                # Stale leases are re-leased one index at a time, so the
                # next death on this index is attributable to it alone.
                return False
            self._refresh()
            if self._is_done(index):
                return False
            try:
                dead = json.loads(lease.read_text())
            except (OSError, json.JSONDecodeError):
                dead = {}
            if self.guard is not None and dead.get("batch", 1) == 1:
                # The stale lease is a worker that died (or wedged) mid-
                # scenario and never reported back.  Charge the death
                # against the scenario's retry budget *before* handing the
                # same scenario to the next worker — repeated lease deaths
                # on one index are the only observable signature of a
                # poison scenario that OOM-kills its workers, and without
                # this check it would take the fleet down one worker at a
                # time.  Only the death of a lease claimed alone is
                # charged: a worker that dies holding a batch was running
                # one of its scenarios, and nothing tells which.  The
                # marker is keyed on the dead lease's claimed_at stamp so
                # racing takeovers record one death, not two.
                stamp = str(dead.get("claimed_at", "unknown"))
                stamp = stamp.replace(".", "_")
                atomic_write_json(
                    self.cluster_dir / TASKS_DIR
                    / f"{index}.death.{stamp}.json",
                    {"index": index,
                     "worker_id": dead.get("worker_id"),
                     "claimed_at": dead.get("claimed_at"),
                     "observed_by": worker_id,
                     "observed_at": self.clock()},
                    durable=True)
                with self._lock:
                    if (self._spent_attempts(index)
                            >= self.guard.max_attempts):
                        self._quarantine(index, worker_id, "crash")
                        return False
            # Stale lease: take it over atomically.  If two workers race
            # here both takeovers "succeed" and the scenario runs twice —
            # deterministic execution makes that merely wasteful, and the
            # merge dedupes the identical records.
            tmp = lease.with_name(f"{lease.name}.{worker_id}.tmp")
            tmp.write_text(payload)
            self._touch(tmp)
            tmp.replace(lease)
            self._refresh()
            return not self._is_done(index)
        with os.fdopen(descriptor, "w") as handle:
            handle.write(payload)
        self._touch(lease)
        return True

    def heartbeat_many(self, indices: Sequence[int],
                       worker_id: str) -> list[int]:
        return [index for index in indices
                if self._refresh_lease(index, worker_id)]

    def _refresh_lease(self, index: int, worker_id: str) -> bool:
        """One index of a heartbeat: whether ``worker_id`` still owns it."""
        lease = lease_path(self.cluster_dir, index)
        try:
            owner = json.loads(lease.read_text()).get("worker_id")
        except (OSError, json.JSONDecodeError):
            return False  # lease gone or torn: stop beating
        if owner != worker_id:
            return False  # lease was taken over while we were presumed dead
        try:
            self._touch(lease)
        except OSError:
            return False
        return True

    # -- results ------------------------------------------------------- #
    def _sink_for(self, worker_id: str) -> ResultSink:
        with self._lock:
            sink = self._sinks.get(worker_id)
            if sink is None:
                sink = JsonlResultSink(
                    self.cluster_dir / RESULTS_DIR / part_name(worker_id),
                    master_seed=self.plan.master_seed,
                    duration=self.plan.duration,
                )
                self._sinks[worker_id] = sink
            return sink

    def submit_many(self, worker_id: str,
                    results: Sequence[tuple[int, dict, int]]) -> None:
        with self._lock:
            self._write_records(worker_id, results)
            self._mark_done(results)

    def _write_records(self, worker_id: str,
                       results: Sequence[tuple[int, dict, int]]) -> None:
        """The sink half of a submit: one append and one fsync."""
        # Dedupe duplicate deliveries: a done record proves *some* sink
        # record for its indices is already durable (records are written
        # only after the sink write is fsynced), and a seen (index, worker,
        # attempt) key means *this very delivery* was applied even if the
        # crash window between sink write and done record was hit.
        self._refresh()
        fresh = [(index, record) for index, record, attempt in results
                 if (index, worker_id, attempt) not in self._applied_submits
                 and not self._is_done(index)]
        if fresh:
            self._sink_for(worker_id).write_many(fresh)
        self._applied_submits.update((index, worker_id, attempt)
                                     for index, _, attempt in results)

    def _mark_done(self, results: Sequence[tuple[int, dict, int]]) -> None:
        """The done half of a submit, after the sink records are durable:
        one record naming the frame's indices that were not done at
        :meth:`_write_records`' refresh, so a duplicate delivery writes
        none."""
        fresh = {index for index, _, _ in results} - self._done
        if fresh:
            name, indices = write_done_record(self.cluster_dir, fresh)
            self._records[name] = indices
            self._done.update(indices)

    # -- failures and quarantine --------------------------------------- #
    def _spent_attempts(self, index: int) -> int:
        """Executions charged against ``index``: reported failures plus
        observed lease deaths (each durable as one marker file)."""
        tasks = self.cluster_dir / TASKS_DIR
        return (len(list(tasks.glob(f"{index}.fail.*.json")))
                + len(list(tasks.glob(f"{index}.death.*.json"))))

    def _quarantine(self, index: int, worker_id: str, status: str) -> None:
        """Retire ``index``: durable record, sink outcome, done record.

        The sink outcome is **canonical** — built only from the plan and
        the failure status, never from per-run diagnostics — because two
        racing quarantine decisions (e.g. two workers both observing the
        budget spent) each submit it, and the merge requires duplicate
        index records to agree field-for-field.
        """
        self._refresh()
        if self._is_done(index):
            return
        spec = self.plan.specs[index]
        budget = self.guard.max_attempts
        QuarantineStore(self.cluster_dir).record(QuarantineRecord(
            index=index,
            scenario_name=spec.name,
            seed=self.plan.seeds[index],
            attempts=self._spent_attempts(index),
            status=status,
            error=None,
            source="coordinator",
            recorded_at=self.clock(),
        ))
        outcome = ScenarioOutcome(
            scenario_name=spec.name,
            scheduler_name=spec.scheduler_name(),
            seed=self.plan.seeds[index],
            duration=self.plan.duration,
            status=QUARANTINED,
            error=(f"quarantined after spending the retry budget "
                   f"({budget} attempt(s)); last failure [{status}]"),
            backend=spec.backend_name(),
        )
        self.submit_result(worker_id, index, outcome, attempt=-1)

    def record_failure(self, worker_id: str, index: int,
                       outcome: ScenarioOutcome, attempt: int = 0) -> dict:
        with self._lock:
            key = (index, worker_id, attempt)
            self._refresh()
            if key not in self._applied_failures and not self._is_done(index):
                error = outcome.error or ""
                atomic_write_json(
                    self.cluster_dir / TASKS_DIR
                    / f"{index}.fail.{worker_id}.{attempt}.json",
                    {"index": index, "worker_id": worker_id,
                     "attempt": attempt, "status": outcome.status,
                     "error": error[:2000], "recorded_at": self.clock()},
                    durable=True)
            self._applied_failures.add(key)
            # Release the reporter's lease so the retry (here or on any
            # other worker) does not have to wait out a lease timeout.
            lease = lease_path(self.cluster_dir, index)
            try:
                if json.loads(lease.read_text()).get("worker_id") == worker_id:
                    lease.unlink()
            except (OSError, json.JSONDecodeError):
                pass
            spent = self._spent_attempts(index)
            quarantined = (QuarantineStore(self.cluster_dir).path(index)
                           .exists())
            if (not quarantined and self.guard is not None
                    and spent >= self.guard.max_attempts):
                self._quarantine(index, worker_id, outcome.status)
                quarantined = True
            return {"attempts": spent, "quarantined": quarantined}

    def send_telemetry(self, worker_id: str, metrics: dict) -> None:
        # One file per worker, replaced whole on every upload: duplicate
        # deliveries (and retries of unknown outcome) are last-write-wins
        # over identical content, which keeps the op in IDEMPOTENT_OPS.
        atomic_write_json(
            self.cluster_dir / TELEMETRY_DIR / f"{worker_id}.json", metrics)

    def close(self) -> None:
        with self._lock:
            for sink in self._sinks.values():
                sink.close()
            self._sinks.clear()


# --------------------------------------------------------------------------- #
# Socket implementation (client side; the server lives in repro.cluster.serve)
# --------------------------------------------------------------------------- #
def parse_address(address: "str | tuple[str, int]") -> tuple[str, int]:
    """Parse ``host:port`` (or pass a ``(host, port)`` pair through)."""
    if isinstance(address, tuple):
        return address[0], int(address[1])
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {address!r}")
    return host or "127.0.0.1", int(port)


class SocketTransport(Transport):
    """TCP client transport towards a ``repro.cluster.serve`` coordinator.

    One connection, one in-flight request at a time (a lock serialises the
    worker thread and its heartbeat thread).  The plan is fetched once at
    connect time, so a worker is fully provisioned by the address alone —
    no shared filesystem, no plan file, no result directory.

    Parameters
    ----------
    address:
        ``"host:port"`` or a ``(host, port)`` tuple.
    timeout:
        Per-operation socket timeout in seconds.
    connect_retry:
        Keep retrying the initial connection for this many seconds (covers
        workers racing a coordinator that is still starting up).
    max_attempts:
        Delivery attempts per request for **idempotent** operations (see
        :data:`IDEMPOTENT_OPS`): a connection error whose outcome is
        unknown is retried, with exponential backoff, because a duplicate
        delivery of an idempotent operation is a no-op.  Server-side
        rejections (the request was delivered and refused) never retry.
    retry_backoff:
        Initial sleep between delivery attempts, doubled per retry.
    """

    kind = "socket"

    def __init__(self, address: "str | tuple[str, int]",
                 timeout: float = 60.0,
                 connect_retry: float = 10.0,
                 max_attempts: int = 3,
                 retry_backoff: float = 0.05) -> None:
        self.address = parse_address(address)
        self.timeout = timeout
        self.max_attempts = max(1, int(max_attempts))
        self.retry_backoff = max(0.0, retry_backoff)
        self._lock = threading.Lock()
        self._closed = False
        #: Total re-deliveries attempted after connection errors (all ops),
        #: exposed for observability (worker telemetry) — not protocol state.
        self.retries = 0
        self._sock: Optional[socket.socket] = self._connect(connect_retry)
        self.plan = ClusterPlan.from_dict(self.request("plan")["plan"])

    def _connect(self, connect_retry: float) -> socket.socket:
        start = time.monotonic()
        deadline = start + max(0.0, connect_retry)
        attempts = 0
        while True:
            attempts += 1
            try:
                sock = socket.create_connection(self.address,
                                                timeout=self.timeout)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                return sock
            except OSError as error:
                now = time.monotonic()
                if now >= deadline:
                    raise TransportError(
                        f"cannot connect to coordinator at "
                        f"{self.address[0]}:{self.address[1]} after "
                        f"{attempts} attempt(s) over {now - start:.2f}s: "
                        f"{error}"
                    ) from None
                # Clamp the sleep to the deadline: with a 0.1s budget the
                # old fixed 0.2s sleep overshot it and bought an extra
                # attempt well past the promised cutoff.
                time.sleep(min(0.2, deadline - now))

    def _drop_sock_locked(self) -> None:
        """Invalidate the connection (caller holds the lock).

        Any I/O failure mid-request leaves the one-request-one-response
        framing in an unknown state (e.g. a timed-out heartbeat whose
        response is still in flight would be read as the *next* request's
        response), so the socket must never be reused after an error — the
        next request opens a fresh, in-sync connection.
        """
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def request(self, op: str, **payload) -> dict:
        """Send one operation frame and return the (ok) response.

        Reconnects on demand after an earlier request dropped the
        connection — server-side state (registration, leases, parts) is
        keyed on worker id, not on the connection, so a fresh socket
        resumes transparently.

        Connection errors leave the outcome of the in-flight request
        unknown (it may or may not have been applied); for operations in
        :data:`IDEMPOTENT_OPS` — where a duplicate delivery is harmless by
        contract — the request is re-sent up to ``max_attempts`` times with
        exponential backoff before the error surfaces.  A response with
        ``ok: false`` is a server-side rejection of a *delivered* request
        and is never retried.
        """
        frame = {"op": op, **payload}
        attempts = self.max_attempts if op in IDEMPOTENT_OPS else 1
        delay = self.retry_backoff
        last_error: Optional[TransportError] = None
        for attempt in range(attempts):
            if attempt:
                self.retries += 1
                time.sleep(delay)
                delay = min(delay * 2.0, 2.0)
            with self._lock:
                if self._closed:
                    raise TransportError("transport is closed")
                try:
                    if self._sock is None:
                        self._sock = self._connect(connect_retry=2.0)
                    send_frame(self._sock, frame)
                    response = recv_frame(self._sock)
                except (OSError, TransportError) as error:
                    self._drop_sock_locked()
                    last_error = TransportError(
                        f"coordinator connection lost during {op!r} "
                        f"(attempt {attempt + 1}/{attempts}): {error}")
                    continue
                if response is None:
                    self._drop_sock_locked()
                    last_error = TransportError(
                        f"coordinator closed the connection during {op!r} "
                        f"(attempt {attempt + 1}/{attempts})")
                    continue
            if not response.get("ok"):
                raise TransportError(response.get("error", f"{op!r} failed"))
            return response
        raise last_error

    # -- protocol operations ------------------------------------------- #
    def register_worker(self, worker_id: str, shard: Optional[int]) -> int:
        return int(self.request("register", worker_id=worker_id,
                                shard=shard)["shard"])

    def snapshot(self) -> TaskSnapshot:
        return TaskSnapshot.from_dict(self.request("snapshot")["snapshot"])

    def claim_many(self, indices: Sequence[int],
                   worker_id: str) -> list[int]:
        return [int(index) for index in
                self.request("claim", indices=list(indices),
                             worker_id=worker_id)["granted"]]

    def heartbeat_many(self, indices: Sequence[int],
                       worker_id: str) -> list[int]:
        try:
            return [int(index) for index in
                    self.request("heartbeat", indices=list(indices),
                                 worker_id=worker_id)["alive"]]
        except TransportError:
            # Unknown is not "lost": a transient outage (coordinator
            # restart, network blip) must not silence the heartbeat for
            # good — that would let the lease of a *healthy* worker go
            # stale and its scenario run twice fleet-wide.  Keep beating;
            # request() reconnects on the next attempt, and a genuine
            # takeover is reported authoritatively by its absence from
            # ``alive``.
            return list(indices)

    def submit_many(self, worker_id: str,
                    results: Sequence[tuple[int, dict, int]]) -> None:
        self.request("submit", worker_id=worker_id,
                     results=[{"index": index, "outcome": record,
                               "attempt": attempt}
                              for index, record, attempt in results])

    def record_failure(self, worker_id: str, index: int,
                       outcome: ScenarioOutcome, attempt: int = 0) -> dict:
        response = self.request("fail", worker_id=worker_id, index=index,
                                outcome=outcome.to_dict(), attempt=attempt)
        return {"attempts": int(response.get("attempts", 0)),
                "quarantined": bool(response.get("quarantined", False))}

    def send_telemetry(self, worker_id: str, metrics: dict) -> None:
        self.request("telemetry", worker_id=worker_id, metrics=metrics)

    def status(self) -> dict:
        """Coordinator-side progress counters (monitoring)."""
        return self.request("status")["status"]

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._drop_sock_locked()
