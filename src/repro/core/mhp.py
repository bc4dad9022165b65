"""Midpoint Heralding Protocol (MHP) — the physical layer (paper Section 5.1).

Two cooperating pieces:

``NodeMHP``
    Runs at each controllable node.  Every MHP cycle it polls the link layer
    (EGP); on a "yes" it triggers an entanglement generation attempt and sends
    a GEN frame to the heralding station.  Replies from the station are
    forwarded up to the EGP.  The MHP keeps no protocol state of its own.

``MidpointHeraldingService``
    Runs at the automated heralding station.  It pairs up GEN frames from the
    two nodes that belong to the same cycle, verifies that their absolute
    queue ids match, resolves the physical attempt through the configured
    :class:`~repro.backends.base.PhysicsBackend`, and sends REPLY frames back
    to both nodes.  On success it assigns the unique midpoint sequence number
    that the EGP later uses to build entanglement identifiers.

A GEN frame may cover a whole *batch* of attempts spaced ``cycle_stride``
MHP cycles apart (Section 5.1 batched operation, and the analytic backend's
geometric fast-forward): the midpoint then resolves the run of attempts in
one step and emits the REPLY at the time of the successful (or last)
attempt.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, TYPE_CHECKING

import numpy as np

from repro.core.messages import (
    GenMessage,
    MHPError,
    MHPReply,
    PollResponse,
    reply_close_time,
)
from repro.hardware.pair import EntangledPair
from repro.hardware.parameters import ScenarioConfig
from repro.sim.channel import ClassicalChannel
from repro.sim.engine import Event, SimulationEngine
from repro.sim.entity import Entity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.base import AttemptModel, PhysicsBackend

_GATED_SAMPLE = None


def _gated_sample():
    """The all-failed herald sample of a switched-away attempt window.

    Lazy because :mod:`repro.backends.base` imports hardware modules; only
    switched topologies ever hit this path.
    """
    global _GATED_SAMPLE
    if _GATED_SAMPLE is None:
        from repro.backends.base import HeraldSample

        _GATED_SAMPLE = HeraldSample(outcome_code=0, state=None)
    return _GATED_SAMPLE


class NodeMHP(Entity):
    """Node-side MHP: polls the EGP each cycle and talks to the midpoint.

    Parameters
    ----------
    engine:
        Simulation engine.
    node_name:
        "A" or "B".
    scenario:
        Hardware scenario; provides the MHP cycle time and attempt spacings.
    """

    def __init__(self, engine: SimulationEngine, node_name: str,
                 scenario: ScenarioConfig) -> None:
        super().__init__(engine, name=f"MHP-{node_name}")
        self.node_name = node_name
        self.scenario = scenario
        self.cycle_time = scenario.timing.mhp_cycle
        #: Callback into the EGP: () -> PollResponse.
        self.poll_callback: Optional[Callable[[], PollResponse]] = None
        #: Callback into the EGP: (MHPReply) -> None.
        self.reply_callback: Optional[Callable[[MHPReply], None]] = None
        self._channel: Optional[ClassicalChannel] = None
        #: Event names built once: the poll is the engine's hottest
        #: customer (the engine counts every elision; a tracer sees the
        #: name).
        self._poll_name = f"{self.name}.poll"
        self._dup_poll_name = f"{self.name}.dup_poll"
        self._followup_poll_name = f"{self.name}.followup_poll"
        self._next_poll_scheduled: Optional[float] = None
        #: End of the attempt window opened by the last GEN frame; no new
        #: attempt may start before it (prevents overlapping attempt streams).
        self._attempt_window_end = 0.0
        #: GEN cycle of the currently open attempt window; only the REPLY
        #: belonging to this window may close it early.
        self._attempt_window_cycle: Optional[int] = None
        self.attempts_triggered = 0
        self.replies_received = 0
        #: Optional :class:`repro.obs.Tracer`; ``None`` keeps emission a
        #: single ``is not None`` check (zero-cost default).
        self.tracer = None

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def attach_channel(self, channel: ClassicalChannel) -> None:
        """Set the classical channel towards the heralding station."""
        self._channel = channel

    def receive(self, frame: object) -> None:
        """Entry point for REPLY frames arriving from the midpoint."""
        if not isinstance(frame, MHPReply):
            raise TypeError(f"unexpected MHP frame {type(frame).__name__}")
        self.replies_received += 1
        # A REPLY closes the attempt window it belongs to — and only that
        # window (with multiplexed batching the next window's GEN is usually
        # already out when the previous REPLY arrives; truncating it would
        # fork a second, overlapping attempt stream).  The midpoint resolved
        # every attempt up to the reported one, so new attempts may start
        # once both nodes have seen the REPLY — the deterministic
        # content-derived close time the midpoint stamped on both REPLYs
        # (``MHPReply.close_time``, see ``reply_close_time``) keeps the two
        # nodes' batched attempt streams on the same MHP cycles despite
        # their asymmetric reply delays.
        if frame.cycle == self._attempt_window_cycle:
            close = frame.close_time
            if close < self._attempt_window_end:
                self._attempt_window_end = close
        if self.reply_callback is not None:
            self.reply_callback(frame)

    # ------------------------------------------------------------------ #
    # Cycle bookkeeping
    # ------------------------------------------------------------------ #
    def current_cycle(self) -> int:
        """MHP cycle number containing the current simulation time.

        A small epsilon guards against floating-point rounding placing an
        exact cycle-boundary timestamp into the previous cycle.
        """
        return int(self._engine._now / self.cycle_time + 1e-9)

    def cycle_start(self, cycle: int) -> float:
        """Simulation time at which ``cycle`` begins."""
        return cycle * self.cycle_time

    def next_cycle_at_or_after(self, time: float) -> int:
        """First cycle starting at or after ``time``."""
        return int(math.ceil(time / self.cycle_time - 1e-12))

    # ------------------------------------------------------------------ #
    # Attempt loop
    # ------------------------------------------------------------------ #
    def next_poll_time(self, not_before: Optional[float] = None) -> float:
        """The time :meth:`notify_work` would poll at for ``not_before``.

        Exposed so the EGP can *preview* the upcoming poll (timer elision:
        deferring a poll that would provably answer "no" requires knowing
        exactly when it would fire).
        """
        # Inlined max(), next_cycle_at_or_after() and cycle_start(): this
        # runs on every wake-up and every EGP preview.  The comparisons
        # pick the same operand max() would, so the floats are identical.
        now = self._engine._now
        earliest = now
        if not_before is not None and not_before > earliest:
            earliest = not_before
        if self._attempt_window_end > earliest:
            earliest = self._attempt_window_end
        cycle_time = self.cycle_time
        cycle = int(math.ceil(earliest / cycle_time - 1e-12))
        poll_time = cycle * cycle_time
        if poll_time < now:
            poll_time = (cycle + 1) * cycle_time
        return poll_time

    def notify_work(self, not_before: Optional[float] = None) -> None:
        """Tell the MHP that the EGP may have an attempt to make.

        The MHP wakes up at the next cycle boundary (at or after
        ``not_before`` when given) and polls the EGP.  Polling stops again as
        soon as the EGP answers "no", so idle periods cost no events.
        """
        self.arm_poll(self.next_poll_time(not_before))

    def arm_poll(self, poll_time: float) -> None:
        """Poll at ``poll_time``, a value :meth:`next_poll_time` returned
        for the current state, unless an earlier poll already covers it."""
        scheduled = self._next_poll_scheduled
        if scheduled is not None and scheduled <= poll_time + 1e-15:
            # An earlier (or equal) poll is already armed and will cover
            # this wake-up: scheduling another would be pure churn.
            self._engine.note_elided(self._dup_poll_name)
            return
        self._next_poll_scheduled = poll_time
        self._engine.schedule_at(poll_time, self._poll, self._poll_name)

    def _poll(self) -> None:
        self._next_poll_scheduled = None
        if self.poll_callback is None or self._channel is None:
            return
        now = self._engine._now
        if now < self._attempt_window_end - 1e-15:
            # A previously granted attempt window is still open (this poll was
            # scheduled before the window was extended); do not start an
            # overlapping attempt stream.
            return
        response = self.poll_callback()
        if not response.attempt:
            return
        if response.queue_id is None:
            raise ValueError("EGP answered yes without an absolute queue id")
        self.attempts_triggered += 1
        if self.tracer is not None:
            self.tracer.counter(f"{self.name}.gen")
        cycle_time = self.cycle_time
        cycle = int(now / cycle_time + 1e-9)  # current_cycle(), inlined
        # The EGP grants ints >= 1 (a backend's BatchGrant).
        batch = response.max_attempts
        stride = response.attempt_stride
        self._channel.send(GenMessage(self.node_name, response.queue_id,
                                      cycle, response.alpha, now, batch,
                                      stride))
        # The batch's attempts run at cycle, cycle + stride, ...; the window
        # closes one cycle after the last attempt starts.
        self._attempt_window_cycle = cycle
        self._attempt_window_end = (now + ((batch - 1) * stride + 1)
                                    * cycle_time)
        # Keep polling: the next opportunity is after the granted batch of
        # cycles; the EGP decides whether it actually wants to attempt again
        # (e.g. it will answer "no" while waiting for a K-type REPLY).  For
        # a blocking attempt the EGP asks us to skip this — the poll would
        # provably find it still blocked, and its REPLY handler re-arms
        # polling in every branch (as does the reply watchdog on loss).
        if not response.skip_followup_poll:
            self.notify_work(self._attempt_window_end)
        else:
            self._engine.note_elided(self._followup_poll_name)


class MidpointHeraldingService(Entity):
    """Heralding station service matching GEN frames and issuing REPLYs.

    Parameters
    ----------
    engine:
        Simulation engine.
    scenario:
        Hardware scenario; provides the heralded-state model and cycle time.
    rng:
        Random generator used to sample attempt outcomes.
    match_window:
        How long to wait for the second GEN of a cycle before declaring
        ``NO_MESSAGE_OTHER`` (defaults to two MHP cycles plus the largest
        node-midpoint delay).
    backend:
        Physics backend resolving attempt outcomes; a name, an instance, or
        ``None`` for the environment default (``REPRO_BACKEND``).
    timer_elision:
        Collapse each delayed (batched) REPLY into a single delivery event
        instead of a hand-over timer plus a channel event.  ``False``
        restores the reference two-event pattern (benchmarks, equivalence
        pinning).
    """

    def __init__(self, engine: SimulationEngine, scenario: ScenarioConfig,
                 rng: Optional[np.random.Generator] = None,
                 match_window: Optional[float] = None,
                 backend: "PhysicsBackend | str | None" = None,
                 timer_elision: bool = True) -> None:
        from repro.backends import get_backend

        super().__init__(engine, name="Midpoint")
        self.scenario = scenario
        self.backend = get_backend(backend)
        self.rng = rng if rng is not None else np.random.default_rng()
        timing = scenario.timing
        if match_window is None:
            match_window = (2 * timing.mhp_cycle
                            + max(timing.midpoint_delay_a,
                                  timing.midpoint_delay_b))
        self.match_window = match_window
        self.timer_elision = bool(timer_elision)
        #: The close time of a one-attempt exchange (every unmatched or
        #: mismatched GEN) is ``cycle * cycle_time + margin``, the margin
        #: being :func:`reply_close_time` at cycle 0: the formula's
        #: one-attempt ``resolved`` term is ``0.0``, and adding it leaves
        #: the float unchanged.
        self._cycle_time = timing.mhp_cycle
        self._close_margin = reply_close_time(timing, 0)
        self._match_timeout_name = f"{self.name}.match_timeout"
        self._batched_reply_name = f"{self.name}.batched_reply"
        self._channels: dict[str, ClassicalChannel] = {}
        #: GEN frames waiting for their counterpart, by cycle: the frame
        #: and the handle of its match-window timeout (cancelled once the
        #: peer's GEN arrives).
        self._pending: dict[int, tuple[GenMessage, Event]] = {}
        #: Attempt model per alpha.  The scenario is fixed, so this skips
        #: hashing the whole ``ScenarioConfig`` in the backend's memo on
        #: every attempt window.
        self._models: dict[float, AttemptModel] = {}
        self._sequence = 0
        #: Optional optical-switch gate (set by ``repro.topology`` for
        #: switched multi-link networks): a callable
        #: ``(now, batch, stride, cycle_time) -> int``.  A positive return
        #: is how many attempts of the window starting *now* reach the
        #: heralding optics; a return ``<= 0`` means the switch is serving
        #: another link — its magnitude is the number of attempts until
        #: this link's slot next opens, and that many attempts (capped at
        #: the window) fail deterministically.  Burning only up to the slot
        #: boundary (instead of the whole window) keeps the next GEN
        #: aligned with the link's active slot — fixed-size fast-forward
        #: windows could otherwise phase-lock into a peer's slot and starve.
        self.attempt_gate = None
        self.statistics = {
            "attempts": 0,
            "successes": 0,
            "queue_mismatches": 0,
            "unmatched": 0,
        }
        #: Optional :class:`repro.obs.Tracer`; ``None`` keeps emission a
        #: single ``is not None`` check (zero-cost default).
        self.tracer = None

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def attach_channel(self, node_name: str, channel: ClassicalChannel) -> None:
        """Register the channel used to send REPLYs to ``node_name``."""
        self._channels[node_name] = channel

    @property
    def sequence(self) -> int:
        """Current midpoint sequence number (number of successes so far)."""
        return self._sequence

    # ------------------------------------------------------------------ #
    # GEN matching
    # ------------------------------------------------------------------ #
    def receive(self, frame: object) -> None:
        """Entry point for GEN frames arriving from either node: pair the
        frame with its cycle's counterpart, or wait for it."""
        if not isinstance(frame, GenMessage):
            raise TypeError(f"unexpected midpoint frame {type(frame).__name__}")
        cycle = frame.cycle
        pending = self._pending.get(cycle)
        if pending is None:
            engine = self._engine
            self._pending[cycle] = (frame, engine.schedule_at(
                engine._now + self.match_window, self._expire_pending,
                self._match_timeout_name, (cycle,)))
            return
        first, timeout = pending
        if first.origin == frame.origin:
            # Duplicate from the same node (e.g. after retransmission): keep
            # the newer frame and continue waiting for the peer.
            self._pending[cycle] = (frame, timeout)
            return
        del self._pending[cycle]
        timeout.cancel()
        self._process_pair(first, frame)

    def _expire_pending(self, cycle: int) -> None:
        pending = self._pending.pop(cycle, None)
        if pending is None:
            return
        self.statistics["unmatched"] += 1
        frame = pending[0]
        if self.tracer is not None:
            self.tracer.event(self.now, f"{self.name}.cycle", cycle=cycle,
                              outcome="unmatched", origin=frame.origin)
        reply = MHPReply(0, self._sequence, frame.queue_id, None,
                         MHPError.NO_MESSAGE_OTHER, cycle, None, 1, 1,
                         cycle * self._cycle_time + self._close_margin)
        self._send_reply(frame.origin, reply)

    def _process_pair(self, first: GenMessage, second: GenMessage) -> None:
        frame_a = first if first.origin == "A" else second
        frame_b = second if first.origin == "A" else first
        statistics = self.statistics
        statistics["attempts"] += 1
        cycle = frame_a.cycle
        timing = self.scenario.timing
        now = self._engine._now
        if frame_a.queue_id != frame_b.queue_id:
            statistics["queue_mismatches"] += 1
            if self.tracer is not None:
                self.tracer.event(now, f"{self.name}.cycle", cycle=cycle,
                                  outcome="queue_mismatch")
            close = cycle * self._cycle_time + self._close_margin
            for frame, peer in ((frame_a, frame_b), (frame_b, frame_a)):
                reply = MHPReply(0, self._sequence, frame.queue_id,
                                 peer.queue_id, MHPError.QUEUE_MISMATCH,
                                 cycle, None, 1, 1, close)
                self._send_reply(frame.origin, reply)
            return

        model = self._models.get(frame_a.alpha)
        if model is None:
            model = self._models[frame_a.alpha] = self.backend.attempt_model(
                self.scenario, frame_a.alpha)
        batch = max(1, min(frame_a.batch_size, frame_b.batch_size))
        stride = max(1, min(frame_a.cycle_stride, frame_b.cycle_stride))
        cycle_time = timing.mhp_cycle

        if self.attempt_gate is not None:
            allowed = int(self.attempt_gate(now, batch, stride, cycle_time))
            if allowed <= 0:
                burn = min(batch, max(1, -allowed))
                attempts_used, sample = burn, _gated_sample()
            else:
                attempts_used, sample = model.resolve(self.rng,
                                                      min(batch, allowed))
        else:
            attempts_used, sample = model.resolve(self.rng, batch)
        statistics["attempts"] += attempts_used - 1  # first one counted above

        # The successful (or last) attempt happens attempts_used - 1 attempt
        # strides after the first one; replies leave the station then.
        reply_emit_delay = (attempts_used - 1) * stride * cycle_time

        pair: Optional[EntangledPair] = None
        outcome_code = 0
        if sample.success:
            outcome_code = sample.outcome_code
            self._sequence += 1
            statistics["successes"] += 1
            pair = EntangledPair(state=sample.state,
                                 heralded_bell=sample.bell_index,
                                 created_at=now + reply_emit_delay,
                                 midpoint_sequence=self._sequence)
        if self.tracer is not None:
            self.tracer.event(
                now, f"{self.name}.cycle", cycle=cycle,
                outcome="success" if sample.success else "fail",
                attempts=attempts_used,
                **({"sequence": self._sequence} if sample.success else {}))
        close = reply_close_time(timing, cycle, attempts_used, stride)
        for frame, peer in ((frame_a, frame_b), (frame_b, frame_a)):
            reply = MHPReply(outcome_code, self._sequence, frame.queue_id,
                             peer.queue_id, MHPError.NONE, cycle, pair,
                             attempts_used, stride, close)
            self._send_reply(frame.origin, reply, delay=reply_emit_delay)

    def _send_reply(self, node_name: str, reply: MHPReply,
                    delay: float = 0.0) -> None:
        channel = self._channels.get(node_name)
        if channel is None:
            raise RuntimeError(f"no channel registered for node {node_name}")
        if delay <= 0:
            # Every NO_MESSAGE_OTHER and QUEUE_MISMATCH reply, and a
            # batch's first-attempt outcome.
            channel.send(reply)
        elif self.timer_elision:
            # One event per delayed reply (delivery at delay + channel
            # delay) instead of an intermediate hand-over event per window.
            self._engine.note_elided(self._batched_reply_name)
            channel.send_delayed(reply, delay)
        else:
            self.call_after(delay, channel.send, args=(reply,),
                            name=self._batched_reply_name)
