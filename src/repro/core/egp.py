"""Entanglement Generation Protocol (EGP) — the link layer (paper Section 5.2).

The EGP turns the physical layer's entanglement attempts into the robust
service defined in Section 4.1: higher layers submit CREATE requests and
receive OK messages (with entanglement identifiers and goodness estimates) or
error messages (UNSUPP, TIMEOUT, OUTOFMEM, MEMEXCEEDED, DENIED, EXPIRE).

One EGP instance runs at each controllable node.  Its building blocks are the
distributed queue (agreement on which request to serve), the quantum memory
manager (qubit allocation), the fidelity estimation unit (translating F_min
into generation parameters) and a scheduling strategy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.core.distributed_queue import DistributedQueue, QueueItem
from repro.core.feu import FidelityEstimationUnit
from repro.core.messages import (
    AbsoluteQueueId,
    EntanglementId,
    EntanglementRequest,
    ErrorCode,
    ErrorMessage,
    ExpireAck,
    ExpireNotice,
    MHPReply,
    OkMessage,
    PollResponse,
    RequestType,
)
from repro.core.mhp import NodeMHP
from repro.core.qmm import QuantumMemoryManager, QubitAllocation
from repro.core.scheduler import SchedulingStrategy
from repro.hardware.nv_device import NVQuantumProcessor
from repro.hardware.pair import EntangledPair
from repro.hardware.parameters import ScenarioConfig
from repro.quantum.fidelity import qber_from_fidelity_werner
from repro.sim.channel import ClassicalChannel
from repro.sim.engine import SimulationEngine
from repro.sim.entity import Entity

#: Measurement bases cycled through for measure-directly requests when the
#: request does not pin a basis.  Indexed by the midpoint sequence number so
#: that both nodes pick the same basis without extra communication.
_MEASURE_BASES = ("X", "Y", "Z")

# Module-level names for the per-poll and per-REPLY handlers.
_KEEP = RequestType.KEEP
_NO_ATTEMPT = PollResponse.no_attempt()


@dataclass(slots=True)
class _InFlightAttempt:
    """Book-keeping for an attempt whose REPLY is still outstanding."""

    cycle: int
    queue_id: AbsoluteQueueId
    create_id: int
    request_type: RequestType
    alpha: float
    pair_index: int
    allocation: Optional[QubitAllocation]
    started_at: float
    #: Granted batch size and attempt stride (cycles between attempts).
    batch: int = 1
    stride: int = 1
    #: Handle of the reply watchdog, cancelled when the REPLY arrives.
    watchdog: Optional[object] = None


@dataclass
class _PendingExpire:
    """An EXPIRE notice awaiting acknowledgement from the peer."""

    notice: ExpireNotice
    retries: int = 0


class EGP(Entity):
    """Link-layer Entanglement Generation Protocol for one node.

    Parameters
    ----------
    engine, node_name, peer_name:
        Simulation engine and the names of this node and its peer.
    scenario:
        Hardware scenario configuration.
    device:
        This node's NV quantum processor.
    mhp:
        The node-side MHP instance (physical layer).
    dqp:
        This node's end of the distributed queue.
    feu:
        Fidelity estimation unit.
    scheduler:
        Scheduling strategy (FCFS or WFQ variants).
    emission_multiplexing:
        Allow measure-directly attempts in every MHP cycle without waiting for
        the previous REPLY (Section 5.2.5).
    elide_watchdog:
        Skip scheduling the per-attempt lost-REPLY watchdog.  ``None``
        (default) elides exactly when ``frame_loss_probability == 0`` — the
        REPLY provably arrives, so the watchdog would always be cancelled
        unfired; outcomes are bit-identical with and without it.
    timer_elision:
        Skip scheduling GEN/REPLY polls that would provably answer "no"
        (see the attribute docstring).  ``False`` restores the reference
        scheduling pattern.
    create_ids:
        The run's CREATE id counter, shared by both nodes' EGPs; it stamps
        requests submitted without an id.  ``None`` starts a fresh one.
    """

    #: Retransmission interval and limit for EXPIRE notices.
    EXPIRE_RETRY_INTERVAL = 5e-3
    EXPIRE_MAX_RETRIES = 10
    #: MHP cycles a poll waits before retrying after the QMM could not
    #: reserve qubits for the selected request.
    BLOCKED_RETRY_CYCLES = 10

    def __init__(self, engine: SimulationEngine, node_name: str, peer_name: str,
                 scenario: ScenarioConfig, device: NVQuantumProcessor,
                 mhp: NodeMHP, dqp: DistributedQueue,
                 feu: FidelityEstimationUnit, scheduler: SchedulingStrategy,
                 emission_multiplexing: bool = True,
                 attempt_batch_size: int = 1,
                 backend=None,
                 elide_watchdog: Optional[bool] = None,
                 timer_elision: bool = True,
                 create_ids: Optional[Iterator[int]] = None) -> None:
        from repro.backends import get_backend

        super().__init__(engine, name=f"EGP-{node_name}")
        self.node_name = node_name
        self.peer_name = peer_name
        self.scenario = scenario
        self.backend = get_backend(backend)
        self.device = device
        self.mhp = mhp
        self.dqp = dqp
        self.feu = feu
        self.scheduler = scheduler
        self.emission_multiplexing = emission_multiplexing
        if attempt_batch_size < 1:
            raise ValueError(f"attempt_batch_size must be >= 1, "
                             f"got {attempt_batch_size}")
        self.attempt_batch_size = attempt_batch_size
        self.qmm = QuantumMemoryManager(device)
        self.create_ids = (create_ids if create_ids is not None
                           else itertools.count(1))
        #: Reply-watchdog elision (the ROADMAP's named hot-path item): when
        #: the classical channels cannot lose frames the REPLY provably
        #: arrives, so the per-attempt lost-REPLY watchdog would always be
        #: scheduled and then cancelled — pure event churn.  Outcomes are
        #: bit-identical either way (pinned in tier-1); pass
        #: ``elide_watchdog=False`` to force the reference behaviour.
        if elide_watchdog is None:
            elide_watchdog = scenario.classical.frame_loss_probability == 0.0
        self.elide_watchdog = bool(elide_watchdog)
        #: Timer elision for the GEN/REPLY hot path: skip scheduling polls
        #: that would provably answer "no" — the MHP's follow-up poll while
        #: a blocking attempt is in flight, and the post-REPLY poll that
        #: lands before the next K attempt may start.  Outcome-preserving:
        #: every state change that could make an earlier poll useful
        #: (item added, pair delivered, storage released, REPLY, watchdog)
        #: schedules its own poll.  ``False`` restores the reference
        #: scheduling pattern (used by benchmarks and equivalence tests).
        self.timer_elision = bool(timer_elision)
        #: granted_batch is pure in (request type, batch, multiplexing,
        #: timing, loss) and all but the type are fixed per EGP, so each
        #: type's grant is asked for once.  One slot per type, indexed by
        #: ``request_type is KEEP`` (M at 0, K at 1): no enum hashing on
        #: the poll path.
        self._grants: list = [None, None]
        #: K attempt spacing under the K grant (set with it).
        self._keep_spacing = 0.0
        timing = scenario.timing
        #: Per-instance timing constants of the per-event handlers, each
        #: computed by the same expression the handlers used inline.
        self._mhp_cycle = timing.mhp_cycle
        self._blocked_retry_delay = self.BLOCKED_RETRY_CYCLES * timing.mhp_cycle
        self._attempt_spacing_k = timing.attempt_spacing_k
        self._carbon_reinit_period = scenario.gates.carbon_reinit_period
        self._carbon_reinit_duration = scenario.gates.carbon_reinit_duration
        self._reply_watchdog_name = f"{self.name}.reply_watchdog"
        self._request_timeout_name = f"{self.name}.request_timeout"
        self._expire_retry_name = f"{self.name}.expire_retry"
        #: Names of the polls this EGP elides, built once: the engine
        #: counts every elision and a tracer sees the name.
        self._busy_poll_name = f"{self.name}.busy_poll"
        self._release_poll_name = f"{self.name}.release_poll"

        # Wiring into the MHP and DQP.
        self.mhp.poll_callback = self.handle_poll
        self.mhp.reply_callback = self.handle_reply
        self.dqp.on_item_added = self._on_queue_item_added
        self.dqp.order_lanes(scheduler.lane_key)

        self._peer_channel: Optional[ClassicalChannel] = None
        self._inflight: dict[int, _InFlightAttempt] = {}
        self._blocking_cycle: Optional[int] = None
        self._busy_until = 0.0
        #: Earliest time the next K-type attempt may start.  Derived from the
        #: attempt cycle plus the scenario's K attempt spacing so that both
        #: nodes independently compute the same value and stay aligned on the
        #: same MHP cycle despite their different reply delays.
        self._next_keep_attempt_time = 0.0
        self._expected_sequence = 1
        self._keep_attempt_time_since_reinit = 0.0
        self._pending_expires: dict[int, _PendingExpire] = {}
        self._expire_counter = 0

        #: Higher-layer callbacks.
        self.ok_listeners: list[Callable[[OkMessage], None]] = []
        self.error_listeners: list[Callable[[ErrorMessage], None]] = []

        #: Optional :class:`repro.obs.Tracer`; ``None`` keeps every
        #: emission a single ``is not None`` check (zero-cost default).
        self.tracer = None

        self.statistics = {
            "creates_accepted": 0,
            "creates_rejected": 0,
            "oks_issued": 0,
            "errors_issued": 0,
            "expires_sent": 0,
            "expires_received": 0,
            "attempts": 0,
            "successes": 0,
            "allocation_failures": 0,
            "lost_reply_recoveries": 0,
            "timeouts": 0,
        }

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def attach_peer_channel(self, channel: ClassicalChannel) -> None:
        """Set the classical channel used for EGP<->EGP messages (EXPIRE)."""
        self._peer_channel = channel

    def receive_peer(self, message: object) -> None:
        """Entry point for EGP-level messages from the peer node."""
        if isinstance(message, ExpireNotice):
            self._handle_expire_notice(message)
        elif isinstance(message, ExpireAck):
            self._handle_expire_ack(message)
        else:
            raise TypeError(f"unexpected EGP message {type(message).__name__}")

    def add_ok_listener(self, callback: Callable[[OkMessage], None]) -> None:
        """Register a higher-layer callback for OK messages."""
        self.ok_listeners.append(callback)

    def add_error_listener(self, callback: Callable[[ErrorMessage], None]) -> None:
        """Register a higher-layer callback for error messages."""
        self.error_listeners.append(callback)

    # ------------------------------------------------------------------ #
    # Higher-layer API
    # ------------------------------------------------------------------ #
    def create(self, request: EntanglementRequest) -> int:
        """Submit a CREATE request (Section 4.1.1).

        Returns the create id; completion or failure is reported through the
        OK / error listeners.
        """
        if request.create_id is None:
            request.create_id = next(self.create_ids)
        request.origin = self.node_name
        request.create_time = self.now
        if not request.remote_node_id:
            request.remote_node_id = self.peer_name

        estimate = self.feu.estimate_for_fidelity(request.min_fidelity,
                                                  request.request_type)
        if estimate is None:
            self._reject(request, ErrorCode.UNSUPP,
                         detail="requested fidelity unattainable")
            return request.create_id
        if request.max_time > 0:
            min_completion = estimate.minimum_completion_time(request.number)
            if min_completion > request.max_time:
                self._reject(request, ErrorCode.UNSUPP,
                             detail=f"needs ~{min_completion:.3f}s "
                                    f"> max_time {request.max_time}s")
                return request.create_id

        pairs_simultaneously = request.number if request.atomic else 1
        memory_error = self.qmm.can_satisfy(request.request_type,
                                            pairs_simultaneously)
        if memory_error is ErrorCode.MEMEXCEEDED:
            self._reject(request, ErrorCode.MEMEXCEEDED,
                         detail="atomic request exceeds quantum memory")
            return request.create_id

        schedule_cycle = self._schedule_cycle_for_new_request()
        timeout_cycle = None
        if request.max_time > 0:
            timeout_cycle = self.mhp.next_cycle_at_or_after(
                self.now + request.max_time)
        self.dqp.add(request, schedule_cycle, timeout_cycle,
                     callback=lambda item, error, req=request:
                     self._on_add_resolved(req, item, error))
        return request.create_id

    def release_delivered_pair(self, logical_qubit_id: int) -> None:
        """Free the storage qubit of a delivered pair (called by higher layer)."""
        self.qmm.release_storage(logical_qubit_id)
        if self.timer_elision and self.dqp.total_length() == 0:
            # Nothing resident to serve: the poll would provably answer
            # "no", and any future add schedules its own poll
            # (``_on_queue_item_added``).
            self._engine.note_elided(self._release_poll_name)
            return
        self.mhp.notify_work()

    # ------------------------------------------------------------------ #
    # CREATE handling internals
    # ------------------------------------------------------------------ #
    def _schedule_cycle_for_new_request(self) -> int:
        """Earliest MHP cycle at which both nodes can know about the request."""
        delay = self.scenario.classical.node_to_node_delay
        # Two-way handshake of the DQP plus one cycle of margin.
        earliest = self.now + 2 * delay + self.scenario.timing.mhp_cycle
        return self.mhp.next_cycle_at_or_after(earliest)

    def _on_add_resolved(self, request: EntanglementRequest,
                         item: Optional[QueueItem],
                         error: Optional[ErrorCode]) -> None:
        if error is not None:
            code = error
            if code is ErrorCode.DENIED:
                detail = "peer refused the request"
            elif code is ErrorCode.REJECTED:
                detail = "distributed queue full"
            else:
                detail = "could not enqueue request in time"
            self._reject(request, code, detail=detail)
            return
        self.statistics["creates_accepted"] += 1

    def _on_queue_item_added(self, item: QueueItem) -> None:
        cycle = self.mhp.current_cycle()
        if self.tracer is not None:
            self.tracer.event(self.now, f"{self.name}.enqueue",
                              queue_id=list(item.queue_id),
                              depth=self.dqp.total_length())
        self.scheduler.on_enqueue(item, cycle)
        if item.timeout_cycle is not None:
            timeout_time = self.mhp.cycle_start(item.timeout_cycle)
            self.call_at(max(timeout_time, self.now), self._handle_timeout,
                         args=(item.queue_id,),
                         name=self._request_timeout_name)
        start_time = self.mhp.cycle_start(item.schedule_cycle)
        self.mhp.notify_work(not_before=start_time)

    def _reject(self, request: EntanglementRequest, error: ErrorCode,
                detail: str = "") -> None:
        self.statistics["creates_rejected"] += 1
        self._emit_error(ErrorMessage(create_id=request.create_id, error=error,
                                      origin=request.origin,
                                      purpose_id=request.purpose_id,
                                      detail=detail))

    def _handle_timeout(self, queue_id: AbsoluteQueueId) -> None:
        item = self.dqp.get(queue_id)
        if item is None or item.pairs_remaining <= 0:
            return
        self.dqp.remove(queue_id)
        self.statistics["timeouts"] += 1
        if self.timer_elision:
            # A removal can change the scheduler's choice; a poll deferred
            # past the K attempt spacing on the removed item's account must
            # not starve the new selection, so wake the MHP (a no-op poll
            # at worst).
            self.mhp.notify_work()
        if item.request.origin == self.node_name:
            self._emit_error(ErrorMessage(create_id=item.request.create_id,
                                          error=ErrorCode.TIMEOUT,
                                          origin=self.node_name,
                                          purpose_id=item.request.purpose_id,
                                          detail="request deadline exceeded"))

    # ------------------------------------------------------------------ #
    # MHP poll handling (the scheduler's "trigger pair" step)
    # ------------------------------------------------------------------ #
    def handle_poll(self) -> PollResponse:
        """Answer the MHP's poll for this cycle (paper Protocol 2, step 2)."""
        now = self._engine._now
        mhp = self.mhp
        if now < self._busy_until:
            mhp.notify_work(not_before=self._busy_until)
            return _NO_ATTEMPT
        if self._blocking_cycle is not None:
            return _NO_ATTEMPT
        cycle_time = mhp.cycle_time
        cycle = int(now / cycle_time + 1e-9)  # mhp.current_cycle(), inlined

        heads = self.dqp.ready_heads(cycle)
        if not heads:
            if self.timer_elision:
                # Busy-poll elision: the queue's waiting frontier already
                # knows the earliest cycle at which a waiting item crosses
                # its schedule/suspension threshold (valid right after the
                # ``ready_heads`` call above).  Poll exactly
                # then — an unacknowledged item needs no poll until its
                # ACK arrives, and that ACK schedules its own poll
                # (``_on_queue_item_added``), so ``inf`` means stop.
                watermark = self.dqp.next_ready_change()
                if math.isfinite(watermark):
                    mhp.notify_work(
                        not_before=mhp.cycle_start(int(watermark)) +
                        self._mhp_cycle)
                else:
                    self._engine.note_elided(self._busy_poll_name)
                return _NO_ATTEMPT
            # Reference pattern: if items are merely waiting for their
            # schedule cycle, make sure the MHP polls again when the earliest
            # one becomes ready (avoids a dead stop on rounding edge cases).
            pending = [item.schedule_cycle
                       for queue in self.dqp.queues.values()
                       for item in queue.items_in_order()
                       if item.pairs_remaining > 0]
            if pending:
                mhp.notify_work(
                    not_before=mhp.cycle_start(min(pending)) +
                    self._mhp_cycle)
            return _NO_ATTEMPT
        item = self.scheduler.select(heads, cycle)
        if item is None:
            return _NO_ATTEMPT
        request = item.request
        request_type = request.request_type
        keep = request_type is _KEEP
        if keep:
            if now < self._next_keep_attempt_time - 1e-15:
                mhp.notify_work(not_before=self._next_keep_attempt_time)
                return _NO_ATTEMPT
            allocation: Optional[QubitAllocation] = self.qmm.allocate(_KEEP)
            if allocation is None:
                self.statistics["allocation_failures"] += 1
                # Memory is temporarily unavailable: retry a little later
                # (notify_work's two steps, called directly: about half the
                # polls of a busy chain end here).
                mhp.arm_poll(mhp.next_poll_time(
                    now + self._blocked_retry_delay))
                return _NO_ATTEMPT
        else:
            allocation = None
            if self.qmm.free_communication_qubits() < 1:
                self.statistics["allocation_failures"] += 1
                mhp.notify_work(not_before=now + self._blocked_retry_delay)
                return _NO_ATTEMPT

        estimate = item.metadata.get("feu_estimate")
        if estimate is None:
            estimate = self.feu.estimate_for_fidelity(request.min_fidelity,
                                                      request_type)
            item.metadata["feu_estimate"] = estimate
        if estimate is None:
            # Hardware drifted since admission; reject now.
            self.dqp.remove(item.queue_id)
            if request.origin == self.node_name:
                self._reject(request, ErrorCode.UNSUPP,
                             detail="fidelity became unattainable")
            if allocation is not None:
                self.qmm.release(allocation)
            return _NO_ATTEMPT

        grant = self._grants[keep]
        if grant is None:
            grant = self._grant(request_type)
        batch = grant.batch
        stride = grant.stride
        alpha = estimate.alpha
        pair_index = item.pairs_delivered + 1
        attempt = _InFlightAttempt(cycle, item.queue_id, request.create_id,
                                   request_type, alpha, pair_index,
                                   allocation, now, batch, stride)
        self._inflight[cycle] = attempt
        self.statistics["attempts"] += 1
        if self.tracer is not None:
            self.tracer.counter(f"{self.name}.attempts")

        blocking = keep or not self.emission_multiplexing
        if blocking:
            self._blocking_cycle = cycle
            if not self.elide_watchdog:
                attempt.watchdog = self._schedule_reply_watchdog(cycle, grant)
            else:
                self._engine.note_elided(self._reply_watchdog_name)
        if keep:
            # Deterministic spacing of K attempts (t_attempt / r_attempt of
            # Section 4.4): both nodes derive the earliest next attempt from
            # the attempt's cycle, not from when their own REPLY arrives, so
            # their trigger cycles remain synchronised (see _grant for the
            # spacing).
            self._next_keep_attempt_time = (cycle * cycle_time
                                            + self._keep_spacing)

        return PollResponse(True, item.queue_id, request_type, alpha,
                            pair_index, request.measure_basis or "Z", False,
                            request.create_id, batch, stride,
                            blocking and self.timer_elision)

    def _grant(self, request_type: RequestType):
        """Ask the backend for ``request_type``'s batch grant and fill its
        slot (once per type and EGP).

        Batching policy belongs to the physics backend: the exact backend
        never goes beyond the configured batch size, while the analytic
        backend widens the window so runs of failed cycles resolve in O(1)
        events (Section 5.1 batched operation).
        """
        grant = self.backend.granted_batch(
            request_type, self.attempt_batch_size,
            self.emission_multiplexing, self.scenario.timing,
            frame_loss_probability=(
                self.scenario.classical.frame_loss_probability))
        keep = request_type is _KEEP
        self._grants[keep] = grant
        if keep:
            # A K batch's next attempt may start one spacing after the
            # batch's last attempt (shortened again in handle_reply when
            # the REPLY reports an earlier success).
            batch, stride = grant.batch, grant.stride
            if stride == 1:
                self._keep_spacing = max(self._attempt_spacing_k,
                                         batch * self._mhp_cycle)
            else:
                self._keep_spacing = ((batch - 1) * stride * self._mhp_cycle
                                      + self._attempt_spacing_k)
        return grant

    def _notify_after_reply(self, sync: float,
                            include_busy: bool = False) -> None:
        """Re-arm MHP polling after a REPLY, eliding provably useless polls.

        With timer elision on, the poll is deferred past (a) the device
        busy window — ``handle_poll`` would answer "no" and re-arm at
        ``_busy_until`` anyway — and (b) the K attempt spacing, when the
        scheduler's current choice at the upcoming poll is a keep-type item
        that may not start before ``_next_keep_attempt_time`` (the
        ``keep_spacing`` early-exit would re-arm at exactly that time).
        Both checks replicate the poll's own logic on the same state;
        anything that changes that state before the deferred poll
        (enqueue, delivery, release, another REPLY) schedules its own
        poll, so no wake-up is ever lost.
        """
        mhp = self.mhp
        busy_until = self._busy_until
        not_before = max(busy_until, sync) if include_busy else sync
        if not self.timer_elision:
            mhp.notify_work(not_before=not_before)
            return
        if busy_until > not_before:
            not_before = busy_until
        nka = self._next_keep_attempt_time
        poll_time = mhp.next_poll_time(not_before)
        if nka > poll_time + 1e-15:
            # Preview at the cycle the poll would actually run in, so
            # items whose schedule cycle starts between now and the
            # poll are visible exactly as the poll would see them.
            cycle = mhp.next_cycle_at_or_after(poll_time)
            heads = self.dqp.ready_heads(cycle)
            if heads:
                item = self.scheduler.select(heads, cycle)
                if (item is not None and item.request.request_type is _KEEP
                        and nka > not_before):
                    # The preview raises the floor: recompute the poll.
                    mhp.notify_work(not_before=nka)
                    return
        # Otherwise the floor stands and the poll time is already known.
        mhp.arm_poll(poll_time)

    def _account_carbon_reinitialisation(self, attempts: int,
                                         base_time: float) -> None:
        """Model the periodic carbon re-initialisation overhead for K attempts.

        The carbon memory must be re-initialised for ``carbon_reinit_duration``
        every ``carbon_reinit_period`` of attempt time (Section D.3.3), which
        is what makes E ~= 1.1 for K requests in the Lab scenario.
        """
        period = self._carbon_reinit_period
        self._keep_attempt_time_since_reinit += attempts * self._mhp_cycle
        while self._keep_attempt_time_since_reinit >= period:
            self._keep_attempt_time_since_reinit -= period
            self._busy_until = max(self._busy_until,
                                   base_time + self._carbon_reinit_duration)

    def _schedule_reply_watchdog(self, cycle: int, grant=None):
        timing = self.scenario.timing
        cycles = 1 if grant is None else grant.cycles
        deadline = (2 * max(timing.midpoint_delay_a, timing.midpoint_delay_b)
                    + (cycles + 20) * timing.mhp_cycle)
        return self._engine.schedule_after(deadline, self._reply_watchdog,
                                           self._reply_watchdog_name,
                                           (cycle,))

    def _reply_watchdog(self, cycle: int) -> None:
        """Recover from a REPLY that never arrived (lost classical frame)."""
        attempt = self._inflight.pop(cycle, None)
        if attempt is None:
            return
        self.statistics["lost_reply_recoveries"] += 1
        if self._blocking_cycle == cycle:
            self._blocking_cycle = None
        if attempt.allocation is not None:
            self.qmm.release(attempt.allocation)
        self.mhp.notify_work()

    # ------------------------------------------------------------------ #
    # MHP reply handling
    # ------------------------------------------------------------------ #
    def handle_reply(self, reply: MHPReply) -> None:
        """Process a RESULT forwarded by the MHP (paper Protocol 2, step 3)."""
        # All post-REPLY scheduling is floored at a deterministic sync time
        # (never the arrival time) so that both nodes pick the same next
        # attempt cycle despite their different reply delays.  The midpoint
        # stamped both REPLYs of the exchange with the same close time (see
        # :func:`~repro.core.messages.reply_close_time`); the cost is that
        # the nearer node idles for the delay asymmetry.
        sync = reply.close_time
        now = self._engine._now
        if sync < now:
            sync = now
        cycle = reply.cycle
        attempt = self._inflight.pop(cycle, None)
        if self._blocking_cycle == cycle:
            self._blocking_cycle = None
        allocation = None
        if attempt is not None:
            allocation = attempt.allocation
            if attempt.watchdog is not None:
                attempt.watchdog.cancel()
                attempt.watchdog = None
            if attempt.request_type is _KEEP:
                self._account_carbon_reinitialisation(reply.attempts_used,
                                                      sync)
                if attempt.batch > 1:
                    # Batched K window: the REPLY pins down which attempt of
                    # the window succeeded (or that all failed), so the next
                    # attempt may start one spacing after that attempt
                    # instead of after the whole granted window.  Derived
                    # from REPLY fields only, so both nodes stay
                    # synchronised.
                    cycle_time = self._mhp_cycle
                    attempt_time = (attempt.cycle * cycle_time
                                    + (reply.attempts_used - 1)
                                    * attempt.stride * cycle_time)
                    self._next_keep_attempt_time = (attempt_time
                                                    + self._attempt_spacing_k)

        if not reply.success:
            # An MHP error, or no heralded pair.
            if allocation is not None:
                self.qmm.release(allocation)
            self._notify_after_reply(sync)
            return

        item = self.dqp.get(reply.queue_id) if reply.queue_id else None
        if attempt is None or item is None or reply.pair is None:
            # No local record: the request expired locally, or state is
            # inconsistent.  Free resources and let the peer know the pair is
            # unusable (Protocol 2, step 3(b)).
            if attempt is not None and attempt.allocation is not None:
                self.qmm.release(attempt.allocation)
            self._expected_sequence = reply.sequence + 1
            if reply.queue_id is not None:
                self._send_expire(reply.queue_id,
                                  create_id=attempt.create_id if attempt else 0,
                                  low=reply.sequence, high=reply.sequence)
            self._notify_after_reply(sync)
            return

        # Sequence-number processing (Protocol 2, step 3(c)iii).
        if reply.sequence > self._expected_sequence:
            self._emit_error(ErrorMessage(
                create_id=item.request.create_id, error=ErrorCode.EXPIRE,
                origin=self.node_name, purpose_id=item.request.purpose_id,
                sequence_low=self._expected_sequence,
                sequence_high=reply.sequence - 1,
                detail="missed midpoint sequence numbers"))
            self._send_expire(item.queue_id, item.request.create_id,
                              low=self._expected_sequence,
                              high=reply.sequence - 1)
            self._expected_sequence = reply.sequence + 1
            if attempt.allocation is not None:
                self.qmm.release(attempt.allocation)
            self._notify_after_reply(sync)
            return
        if reply.sequence < self._expected_sequence:
            if attempt.allocation is not None:
                self.qmm.release(attempt.allocation)
            self._notify_after_reply(sync)
            return
        self._expected_sequence = reply.sequence + 1
        self.statistics["successes"] += 1

        pair: EntangledPair = reply.pair
        if item.request.request_type is RequestType.KEEP:
            # K requests hold the electron until the REPLY arrives, so it
            # decoheres during the round trip.  M requests measure the
            # communication qubit right after photon emission (Section 5.1.2),
            # long before the REPLY, so no waiting decay applies.
            self._apply_reply_wait_decay(pair, attempt)
        self._apply_correction_if_needed(pair, reply, item)

        request = item.request
        if request.max_time > 0 and self.now > request.create_time + request.max_time:
            # Too late: the deadline passed while the attempt was in flight.
            self._handle_timeout(item.queue_id)
            if attempt.allocation is not None:
                self.qmm.release(attempt.allocation)
            self._notify_after_reply(sync)
            return

        if request.request_type is RequestType.KEEP:
            ok = self._deliver_keep(pair, attempt, item, busy_from=sync)
        else:
            ok = self._deliver_measure(pair, attempt, item, reply,
                                       busy_from=sync)

        item.pairs_remaining -= 1
        item.pairs_delivered += 1
        self.scheduler.on_pair_delivered(item, reply.cycle)

        if request.consecutive:
            self._emit_ok(ok)
        else:
            pending = item.metadata.setdefault("pending_oks", [])
            pending.append(ok)
            if item.pairs_remaining <= 0:
                for buffered in pending:
                    self._emit_ok(buffered)
                pending.clear()

        if item.pairs_remaining <= 0:
            self.dqp.remove(item.queue_id)
        self._notify_after_reply(sync, include_busy=True)

    # ------------------------------------------------------------------ #
    # Pair delivery helpers
    # ------------------------------------------------------------------ #
    def _apply_reply_wait_decay(self, pair: EntangledPair,
                                attempt: _InFlightAttempt) -> None:
        """Electron decoherence while the REPLY travelled back from H."""
        elapsed = self.now - pair.created_at
        if elapsed <= 0:
            return
        slot = (attempt.allocation.communication if attempt.allocation
                else self.device.slots[0])
        self.device.apply_idle_decay(pair, slot, elapsed)

    def _apply_correction_if_needed(self, pair: EntangledPair,
                                    reply: MHPReply, item: QueueItem) -> None:
        """Convert |Psi-> into |Psi+> at the request origin (Eq. 13)."""
        if reply.outcome == 2:
            if item.request.origin == self.node_name:
                self.device.apply_correction(pair)
                pair.corrected = True
        else:
            pair.corrected = True

    def _deliver_keep(self, pair: EntangledPair, attempt: _InFlightAttempt,
                      item: QueueItem,
                      busy_from: Optional[float] = None) -> OkMessage:
        assert attempt.allocation is not None and attempt.allocation.storage is not None
        duration = self.device.move_to_memory(pair,
                                              attempt.allocation.communication,
                                              attempt.allocation.storage)
        base = self.now if busy_from is None else busy_from
        self._busy_until = max(self._busy_until, base + duration)
        goodness = self.feu.goodness(attempt.alpha, RequestType.KEEP)
        request = item.request
        ok = OkMessage(
            create_id=request.create_id,
            entanglement_id=EntanglementId("A", "B", pair.midpoint_sequence),
            purpose_id=request.purpose_id,
            remote_node_id=request.remote_node_id,
            origin=request.origin,
            goodness=goodness,
            goodness_time=self.now,
            create_time=request.create_time,
            logical_qubit_id=attempt.allocation.storage.qubit_id,
            pair_index=attempt.pair_index,
            total_pairs=request.number,
            request_type=RequestType.KEEP,
        )
        ok.pair = pair  # simulation-only handle for instrumentation
        return ok

    def _deliver_measure(self, pair: EntangledPair, attempt: _InFlightAttempt,
                         item: QueueItem, reply: MHPReply,
                         busy_from: Optional[float] = None) -> OkMessage:
        request = item.request
        basis = request.measure_basis
        if basis is None:
            basis = _MEASURE_BASES[pair.midpoint_sequence % len(_MEASURE_BASES)]
        outcome = self.device.measure_pair(pair, basis)
        base = self.now if busy_from is None else busy_from
        self._busy_until = max(self._busy_until,
                               base + self.device.readout_duration())
        fidelity_estimate = self.feu.goodness(attempt.alpha, RequestType.MEASURE)
        goodness = qber_from_fidelity_werner(fidelity_estimate)
        if attempt.allocation is not None:
            self.qmm.release(attempt.allocation)
        ok = OkMessage(
            create_id=request.create_id,
            entanglement_id=EntanglementId("A", "B", pair.midpoint_sequence),
            purpose_id=request.purpose_id,
            remote_node_id=request.remote_node_id,
            origin=request.origin,
            goodness=goodness,
            goodness_time=self.now,
            create_time=request.create_time,
            measurement_outcome=outcome,
            measurement_basis=basis,
            pair_index=attempt.pair_index,
            total_pairs=request.number,
            request_type=RequestType.MEASURE,
        )
        ok.pair = pair  # simulation-only handle for instrumentation
        return ok

    # ------------------------------------------------------------------ #
    # EXPIRE handling
    # ------------------------------------------------------------------ #
    def _send_expire(self, queue_id: AbsoluteQueueId, create_id: int,
                     low: int, high: int) -> None:
        if self._peer_channel is None:
            return
        self.statistics["expires_sent"] += 1
        self._expire_counter += 1
        notice = ExpireNotice(origin=self.node_name, create_id=create_id,
                              queue_id=queue_id,
                              expected_sequence=self._expected_sequence,
                              sequence_low=low, sequence_high=high)
        pending = _PendingExpire(notice=notice)
        key = self._expire_counter
        self._pending_expires[key] = pending
        self._transmit_expire(key)

    def _transmit_expire(self, key: int) -> None:
        pending = self._pending_expires.get(key)
        if pending is None or self._peer_channel is None:
            return
        self._peer_channel.send(pending.notice)
        pending.retries += 1
        if pending.retries <= self.EXPIRE_MAX_RETRIES:
            self.call_after(self.EXPIRE_RETRY_INTERVAL, self._retry_expire,
                            args=(key,), name=self._expire_retry_name)
        else:
            del self._pending_expires[key]

    def _retry_expire(self, key: int) -> None:
        if key in self._pending_expires:
            self._transmit_expire(key)

    def _handle_expire_notice(self, notice: ExpireNotice) -> None:
        self.statistics["expires_received"] += 1
        # Align the expected sequence number with the peer and revoke any OKs
        # in the affected range by notifying the higher layer.
        self._expected_sequence = max(self._expected_sequence,
                                      notice.expected_sequence)
        self._emit_error(ErrorMessage(create_id=notice.create_id,
                                      error=ErrorCode.EXPIRE,
                                      origin=notice.origin,
                                      sequence_low=notice.sequence_low,
                                      sequence_high=notice.sequence_high,
                                      detail="peer expired entanglement"))
        if self._peer_channel is not None:
            self._peer_channel.send(ExpireAck(
                origin=self.node_name, queue_id=notice.queue_id,
                expected_sequence=self._expected_sequence))

    def _handle_expire_ack(self, ack: ExpireAck) -> None:
        for key, pending in list(self._pending_expires.items()):
            if pending.notice.queue_id == ack.queue_id:
                del self._pending_expires[key]

    # ------------------------------------------------------------------ #
    # Emission helpers
    # ------------------------------------------------------------------ #
    def _emit_ok(self, ok: OkMessage) -> None:
        self.statistics["oks_issued"] += 1
        if self.tracer is not None:
            self.tracer.event(self.now, f"{self.name}.ok",
                              create_id=ok.create_id,
                              pair_index=ok.pair_index,
                              goodness=ok.goodness,
                              queue_depth=self.dqp.total_length())
        for listener in list(self.ok_listeners):
            listener(ok)

    def _emit_error(self, error: ErrorMessage) -> None:
        self.statistics["errors_issued"] += 1
        if self.tracer is not None:
            self.tracer.event(self.now, f"{self.name}.error",
                              create_id=error.create_id,
                              error=error.error.name)
        for listener in list(self.error_listeners):
            listener(error)

    # ------------------------------------------------------------------ #
    # Introspection used by tests and metrics
    # ------------------------------------------------------------------ #
    @property
    def expected_sequence(self) -> int:
        """Next midpoint sequence number this node expects."""
        return self._expected_sequence

    def queue_length(self) -> int:
        """Current number of outstanding requests in the local queues."""
        return self.dqp.total_length()
