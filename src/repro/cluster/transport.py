"""Transports: how a worker's protocol frames reach the coordinator.

The protocol's *operations* — fetch the plan, register a worker, snapshot
task state, claim a batch of leases (including stale-lease takeover),
heartbeat a batch of leases, submit a batch of durable results, report a
failure, ship telemetry, read the status — are decided in one place,
:meth:`CoordinatorState.apply <repro.cluster.state.CoordinatorState.apply>`,
a function of one request frame and the coordinator's time.  The
:class:`Transport` base class defines every client operation once, as a
frame sent through one abstract :meth:`Transport.request`; the transports
only carry frames:

:class:`SocketTransport`
    Length-prefixed JSON frames over one TCP connection to a
    :class:`~repro.cluster.serve.ClusterCoordinatorServer` (``python -m
    repro.cluster.serve``, or the server :meth:`ClusterCoordinator.run_local
    <repro.cluster.coordinator.ClusterCoordinator.run_local>` binds for its
    worker processes), with connect and retry.  Workers need no shared
    filesystem at all.

:class:`LocalTransport`
    The same frames handed to a ``CoordinatorState`` in process (for
    workers in the coordinator's own interpreter).

The merged :class:`~repro.runtime.sweep.SweepResult` of a sweep is
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
takeover per index, one lease refresh per index, and for a submit one sink
append and one fsync for the whole frame, then one done record naming
every index of the frame that was not done yet.
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
:meth:`SocketTransport.request` retries every operation with bounded
backoff, and a duplicate delivery commutes into a no-op.  Lease ages are
computed on a single clock authority, the coordinator's, so a worker's
clock never enters them.  ``repro.cluster.faults`` injects drops,
duplicates, resets, delays, stale replays and crashes against exactly these
guarantees.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence

from repro.cluster.coordinator import ClusterPlan
from repro.runtime.sweep import ScenarioOutcome

if TYPE_CHECKING:
    from repro.cluster.state import CoordinatorState


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
    """The worker's side of the protocol, over one :meth:`request`.

    Every operation is defined here once, as a frame sent through
    :meth:`request` and the decoding of its response; an implementation
    only carries frames to a :class:`~repro.cluster.state.CoordinatorState`
    and back.  The state guarantees:

    * :meth:`claim_many` is **atomic per index**: of any number of concurrent
      claims for one index, at most one is granted — and a claim of that
      index *alone* on an index whose lease is stale *takes the lease over*
      (the crashed owner's heartbeats, if it resurrects, report the lease
      as lost).
    * :meth:`submit_many` is **durable before it returns**, and records the
      results *before* their done record — a coordinator crash between the
      two re-executes the scenarios (harmless, deterministic) rather than
      losing them.
    * Every operation is **idempotent**: claims re-grant each of their
      indices to its owner, registrations return the recorded shard,
      submits and failure reports dedupe each of their results on
      ``(index, worker_id, attempt)``, heartbeats are pure refreshes,
      telemetry uploads are whole-snapshot last-write-wins, and the
      read-only ops (plan, snapshot, status) have no effect at all.  A
      duplicated or retried delivery commutes into a no-op, so a caller
      that cannot tell whether a request was applied may simply send it
      again.
    """

    #: Transport name used in logs and tests.
    kind: str = "base"

    #: The parsed cluster plan every worker executes from.
    plan: ClusterPlan

    @abstractmethod
    def request(self, op: str, **payload) -> dict:
        """Deliver the frame ``{"op": op, **payload}`` and return its
        ``ok: true`` response; raise :class:`TransportError` on an ``ok:
        false`` one, or when the frame cannot be delivered."""

    def register_worker(self, worker_id: str, shard: Optional[int]) -> int:
        """Register ``worker_id`` and return its home shard (auto-assigned
        round-robin over existing registrations when ``shard`` is None)."""
        return self.request("register", worker_id=worker_id,
                            shard=shard)["shard"]

    def snapshot(self) -> TaskSnapshot:
        """Current done/lease state of every scenario."""
        return TaskSnapshot.from_dict(self.request("snapshot")["snapshot"])

    def claim_many(self, indices: Sequence[int],
                   worker_id: str) -> list[int]:
        """Try to acquire the lease of each of ``indices``, in order;
        returns the granted ones.  A stale lease is taken over only when
        ``indices`` holds that one index."""
        return self.request("claim", indices=list(indices),
                            worker_id=worker_id)["granted"]

    def try_claim(self, index: int, worker_id: str) -> bool:
        """Atomically try to acquire the lease for ``index``."""
        return bool(self.claim_many([index], worker_id))

    def heartbeat_many(self, indices: Sequence[int],
                       worker_id: str) -> list[int]:
        """Refresh the lease of each of ``indices``; returns the ones still
        owned by ``worker_id``.  A missing index was taken over after going
        stale (or released) — stop beating it then.  A failed delivery
        raises :class:`TransportError`: whether the leases live is then
        unknown, which the caller must not read as lost."""
        return self.request("heartbeat", indices=list(indices),
                            worker_id=worker_id)["alive"]

    def heartbeat(self, index: int, worker_id: str) -> bool:
        """Refresh the lease of ``index``; ``False`` once it is lost."""
        return bool(self.heartbeat_many([index], worker_id))

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
        self.request("submit", worker_id=worker_id,
                     results=[{"index": index, "outcome": record,
                               "attempt": attempt}
                              for index, record, attempt in results])

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
        response = self.request("fail", worker_id=worker_id, index=index,
                                outcome=outcome.to_dict(), attempt=attempt)
        return {"attempts": response["attempts"],
                "quarantined": response["quarantined"]}

    def send_telemetry(self, worker_id: str, metrics: dict) -> None:
        """Ship one worker's observability metrics snapshot.

        ``metrics`` is a whole-registry snapshot
        (:meth:`repro.obs.metrics.MetricsRegistry.to_dict`), so a duplicate
        or reordered delivery is last-write-wins over the same content —
        idempotent by construction.  No sweep result depends on it.
        """
        self.request("telemetry", worker_id=worker_id, metrics=metrics)

    def status(self) -> dict:
        """Coordinator-side progress counters (monitoring)."""
        return self.request("status")["status"]

    def close(self) -> None:
        """Release connections / flush sinks."""


def _checked(op: str, response: dict) -> dict:
    """``response`` if it is ``ok: true``, else :class:`TransportError`."""
    if not response.get("ok"):
        raise TransportError(response.get("error", f"{op!r} failed"))
    return response


# --------------------------------------------------------------------------- #
# In-process implementation
# --------------------------------------------------------------------------- #
class LocalTransport(Transport):
    """The in-process front-end over a
    :class:`~repro.cluster.state.CoordinatorState`.

    Each frame goes to :meth:`CoordinatorState.apply` at ``clock()``, the
    coordinator's time; transports over one state should share one clock.
    A refused frame raises :class:`TransportError`, as it does over TCP.
    """

    kind = "local"

    def __init__(self, state: "CoordinatorState",
                 clock: Callable[[], float] = time.time) -> None:
        self.state = state
        self.plan = state.plan
        self.clock = clock

    def request(self, op: str, **payload) -> dict:
        return _checked(op, self.state.apply({"op": op, **payload},
                                           self.clock()))


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
        Delivery attempts per request: a connection error whose outcome is
        unknown is retried, with exponential backoff, because every
        operation is idempotent and a duplicate delivery is a no-op.
        Server-side rejections (the request was delivered and refused)
        never retry.
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
        unknown (it may or may not have been applied); every operation is
        idempotent, so a duplicate delivery is harmless and the request is
        re-sent up to ``max_attempts`` times with exponential backoff before
        the error surfaces.  A response with
        ``ok: false`` is a server-side rejection of a *delivered* request
        and is never retried.
        """
        frame = {"op": op, **payload}
        attempts = self.max_attempts
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
            return _checked(op, response)
        raise last_error

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._drop_sock_locked()
