"""Point-to-point classical channels with delay and loss.

A :class:`ClassicalChannel` carries classical messages (MHP GEN/REPLY
frames, DQP frames, EGP EXPIRE frames).  Each message is delayed by the
propagation delay of the connection and independently dropped with a
configurable loss probability — the knob used for the robustness study of
Section 6.1.  Photons travelling to the heralding station need no channel
of their own: photon loss is part of the optical model applied by the
hardware layer, and their propagation delay is part of the MHP timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.sim.engine import SimulationEngine
from repro.sim.entity import Entity

#: Speed of light in optical fibre, km/s (value used in the paper, Appendix A.4).
FIBRE_LIGHT_SPEED_KM_S = 206753.0


def fibre_delay(length_km: float) -> float:
    """Propagation delay in seconds over ``length_km`` of standard fibre."""
    if length_km < 0:
        raise ValueError(f"negative fibre length {length_km}")
    return length_km / FIBRE_LIGHT_SPEED_KM_S


@dataclass
class ChannelDelivery:
    """Record of a single delivery attempt on a channel (for diagnostics)."""

    sent_at: float
    delivered_at: Optional[float]
    lost: bool
    payload: Any


class ClassicalChannel(Entity):
    """Unidirectional classical channel with fixed delay and i.i.d. loss.

    Parameters
    ----------
    engine:
        Simulation engine.
    delay:
        One-way propagation delay in seconds.
    loss_probability:
        Probability that an individual message is silently dropped.  The
        paper's robustness experiment sweeps this from 0 up to 1e-4.
    rng:
        Numpy random generator; if omitted a default generator is created.
        A lossless channel never draws from it (a draw could only say "not
        lost"), so channels that share a generator must share one loss
        probability for the skipped draws to leave every outcome unchanged
        — as the channels of one :class:`~repro.network.LinkLayerNetwork`
        do.
    name:
        Identifier used in diagnostics.
    """

    def __init__(self, engine: SimulationEngine, delay: float,
                 loss_probability: float = 0.0,
                 rng: Optional[np.random.Generator] = None,
                 name: str = "") -> None:
        super().__init__(engine, name=name or "ClassicalChannel")
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError(f"loss probability {loss_probability} not in [0, 1]")
        self.delay = float(delay)
        self.loss_probability = float(loss_probability)
        self._rng = rng if rng is not None else np.random.default_rng()
        self._receiver: Optional[Callable[[Any], None]] = None
        #: Event name built once — sends are the hot path, and a per-send
        #: f-string shows up in profiles.
        self._deliver_name = f"{self.name}.deliver"
        self.history: list[ChannelDelivery] = []
        self.record_history = False
        self.messages_sent = 0
        self.messages_lost = 0

    def connect(self, receiver: Callable[[Any], None]) -> None:
        """Register the callback invoked when a message is delivered."""
        self._receiver = receiver

    def send(self, payload: Any) -> bool:
        """Send ``payload`` down the channel.

        Returns ``True`` if the message will be delivered, ``False`` if it was
        lost.  The caller does not normally inspect the return value (a real
        sender cannot know) — it exists for tests and diagnostics.
        """
        if self._receiver is None:
            raise RuntimeError(f"channel {self.name} has no receiver connected")
        self.messages_sent += 1
        lost = (self.loss_probability != 0.0
                and self._rng.random() < self.loss_probability)
        if lost:
            self.messages_lost += 1
        else:
            # Positional args instead of a closure: no per-send lambda;
            # scheduled directly on the engine to skip a dispatch hop, and
            # positionally to skip keyword matching.
            engine = self._engine
            engine.schedule_at(engine._now + self.delay, self._receiver,
                               self._deliver_name, (payload,))
        if self.record_history:
            self.history.append(ChannelDelivery(
                sent_at=self.now,
                delivered_at=None if lost else self.now + self.delay,
                lost=lost, payload=payload))
        return not lost

    def send_delayed(self, payload: Any, delay: float) -> bool:
        """Hand ``payload`` to the channel ``delay`` seconds from now.

        Equivalent to scheduling ``send(payload)`` after ``delay`` but in a
        single event (delivery at ``delay + self.delay``) instead of two —
        the midpoint's batched replies are the hot caller.  The loss draw
        happens now rather than at the hand-over; the outcomes are i.i.d.
        per transmission either way.
        """
        if delay <= 0:
            return self.send(payload)
        if self._receiver is None:
            raise RuntimeError(f"channel {self.name} has no receiver connected")
        self.messages_sent += 1
        lost = (self.loss_probability != 0.0
                and self._rng.random() < self.loss_probability)
        delivered_at: Optional[float] = None
        if lost:
            self.messages_lost += 1
        else:
            # Left-associated on purpose: (now + delay) + self.delay is the
            # exact float a deferred ``send`` at ``now + delay`` would
            # compute, keeping the collapse bit-identical to the two-event
            # reference pattern.
            delivered_at = self._engine._now + delay + self.delay
            self._engine.schedule_at(delivered_at, self._receiver,
                                     self._deliver_name, (payload,))
        if self.record_history:
            self.history.append(ChannelDelivery(
                sent_at=self.now + delay, delivered_at=delivered_at,
                lost=lost, payload=payload))
        return not lost
