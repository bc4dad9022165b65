"""Deterministic fault injection for the cluster protocol.

The link layer the source paper defines is characterised by how it behaves
under loss, delay, duplication and reordering — this module applies the same
discipline to our own coordinator/worker protocol.  A
:class:`FaultyTransport` wraps any :class:`~repro.cluster.transport.Transport`
and adversarially perturbs the frames it carries: every operation is one
frame through :meth:`~repro.cluster.transport.Transport.request`, applied by
:meth:`CoordinatorState.apply <repro.cluster.state.CoordinatorState.apply>`
on the coordinator side, so the faults sit around that one call:

* **drop** — the request never reaches the coordinator (the caller sees a
  connection error before delivery);
* **reset** — the request *is* applied but the response is lost mid-flight
  (the caller cannot tell whether the operation happened — the classic
  at-least-once ambiguity idempotent operations exist to absorb);
* **duplicate** — the request is delivered twice (a retransmitted frame);
* **stale replay** — after the current operation, the *previous* operation
  is delivered again (an old frame arriving late, i.e. reordering);
* **delay** — the request is held briefly before delivery;
* **crash** — the worker dies at a chosen claim/submit point
  (:class:`InjectedWorkerCrash` propagates out of the worker loop, leaving
  its leases to go stale exactly like a machine loss) — before the frame is
  applied or after it.

Leases are timed on the coordinator's clock alone, so a worker's clock has
no way into the protocol and is not perturbed here.  A *coordinator* crash
between a submit's sink fsync and its done record is a state restart, not
a wire fault: ``tests/test_cluster_state.py`` steps it on a
:class:`~repro.cluster.state.CoordinatorState`.

Claims, heartbeats and submits are list-carrying frames, so each fault
hits a whole batch: a dropped claim leases none of its indices, a reset
submit is applied for all of its results and then sent again, a duplicated
claim re-grants every index to its owner, a dropped heartbeat refreshes
none of its leases.

Every decision is a pure function of ``(seed, operation, nth call of that
operation)`` — see :meth:`FaultSchedule.decide` — so a failing run is
replayable from its seed alone regardless of thread interleaving, and the
consumed schedule can be dumped (:meth:`FaultSchedule.to_dict`) as a CI
artifact, with the indices each faulted claim, heartbeat or submit frame
carried.

Like a real client, :class:`FaultyTransport` retries operations whose
delivery failed: every operation of the protocol is idempotent (see
:class:`~repro.cluster.transport.Transport`), so retrying a possibly
applied operation is safe by contract.  A fault burst longer than the retry
budget surfaces as an :class:`InjectedFault` (a ``TransportError``), which
the worker loop already treats as a coordinator outage.

Protocol faults compose with **scenario-level** faults from
:mod:`repro.runtime.guard` (re-exported here): a
:class:`~repro.runtime.guard.ScenarioFaultPlan`, carried in the plan as the
guard policy's ``faults``, makes chosen scenarios hang, exhaust memory or
kill their worker process outright, and the guard/quarantine machinery must
contain the blast radius while *this* module shakes the wire underneath.
``examples/chaos_sweep.py`` runs both at once in CI.

The invariant under all of this stays the cluster package's gold standard:
a faulted sweep merges **field-for-field identical** to a serial
``SweepRunner`` run (``tests/test_cluster_faults.py``,
``examples/fault_injection_sweep.py``) — with quarantined scenarios, and
only those, excluded.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.cluster.transport import (
    SocketTransport,
    Transport,
    TransportError,
)
from repro.runtime.guard import ScenarioFaultPlan  # noqa: F401  (re-exported)

#: Operations faults are injected into by default.  ``plan`` is excluded:
#: it is fetched once while the transport is being constructed, before the
#: wrapper exists to mediate it.
DEFAULT_FAULT_OPS = frozenset({
    "register", "snapshot", "claim", "heartbeat", "submit", "fail",
})


class InjectedFault(TransportError):
    """A scheduled drop/reset that exhausted the retry budget.

    A ``TransportError`` subclass on purpose: to the worker loop an
    injected fault burst is indistinguishable from a real coordinator
    outage, and must be handled by the same code path.
    """


class InjectedWorkerCrash(RuntimeError):
    """A scheduled worker death at a claim/submit point.

    Deliberately *not* a ``TransportError``: the transport did not fail —
    the worker process is gone.  It propagates out of
    ``ClusterWorker.run()`` so the harness can abandon the worker, whose
    unheartbeated lease then goes stale and is reclaimed by a peer, exactly
    like a machine lost mid-scenario.
    """


@dataclass(frozen=True)
class FaultDecision:
    """What happens to one delivery attempt of one operation."""

    #: Request lost before delivery — not applied, caller sees an error.
    drop: bool = False
    #: Connection reset after delivery — applied, caller sees an error.
    reset: bool = False
    #: Request delivered twice (second response discarded).
    duplicate: bool = False
    #: After this operation, redeliver the previous operation (stale frame).
    replay_stale: bool = False
    #: Seconds to hold the request before delivery.
    delay: float = 0.0
    #: Worker death: ``None``, ``"before"`` (op not applied) or
    #: ``"after"`` (op applied, worker dies before using the response).
    crash: Optional[str] = None

    @property
    def is_clean(self) -> bool:
        """No fault at all on this delivery."""
        return not (self.drop or self.reset or self.duplicate
                    or self.replay_stale or self.delay or self.crash)


@dataclass
class FaultSchedule:
    """Seeded, replayable fault plan over protocol operations.

    Rates are independent per-delivery probabilities.  Decisions are a pure
    function of ``(seed, op, n)`` where ``n`` counts deliveries of ``op``
    through this schedule — thread interleaving between different
    operations cannot change any individual decision, so a failure
    reproduces from the seed alone.
    """

    seed: int = 0
    #: P(request lost before delivery) per attempt.
    drop: float = 0.0
    #: P(connection reset after delivery) per attempt.
    reset: float = 0.0
    #: P(request delivered twice).
    duplicate: float = 0.0
    #: P(previous operation redelivered after this one).
    replay: float = 0.0
    #: P(delivery held for ``delay_seconds``).
    delay: float = 0.0
    delay_seconds: float = 0.002
    #: Crash the worker on the ``crash_call``-th delivery of ``crash_op``
    #: (``"claim"`` / ``"submit"``), ``"before"`` or ``"after"`` applying it.
    crash_op: Optional[str] = None
    crash_call: int = 1
    crash_mode: str = "after"
    #: Operations the probabilistic faults apply to.
    fault_ops: frozenset = DEFAULT_FAULT_OPS

    def __post_init__(self) -> None:
        if self.crash_mode not in ("before", "after"):
            raise ValueError(f"crash_mode must be 'before' or 'after', "
                             f"got {self.crash_mode!r}")
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()
        #: Every non-clean decision taken, as ``(op, n, decision,
        #: indices)`` — the replay log dumped into CI artifacts on a
        #: mismatch; ``indices`` are the scenarios a claim, heartbeat or
        #: submit frame carried.
        self.injected: list[tuple[str, int, FaultDecision,
                                  tuple[int, ...]]] = []

    def decide(self, op: str, indices: tuple[int, ...] = ()) -> FaultDecision:
        """The (deterministic) fate of the next delivery of ``op``; a
        faulted delivery is logged with the ``indices`` its frame
        carries."""
        with self._lock:
            n = self._counts.get(op, 0) + 1
            self._counts[op] = n
        crash = None
        if op == self.crash_op and n == self.crash_call:
            crash = self.crash_mode
        if op in self.fault_ops:
            rng = random.Random(f"{self.seed}:{op}:{n}")
            decision = FaultDecision(
                drop=rng.random() < self.drop,
                reset=rng.random() < self.reset,
                duplicate=rng.random() < self.duplicate,
                replay_stale=rng.random() < self.replay,
                delay=(self.delay_seconds
                       if rng.random() < self.delay else 0.0),
                crash=crash,
            )
        else:
            decision = FaultDecision(crash=crash)
        if not decision.is_clean:
            with self._lock:
                self.injected.append((op, n, decision, tuple(indices)))
        return decision

    def to_dict(self) -> dict:
        """Replayable description: the seed, rates and every injected fault."""
        return {
            "seed": self.seed,
            "rates": {"drop": self.drop, "reset": self.reset,
                      "duplicate": self.duplicate, "replay": self.replay,
                      "delay": self.delay},
            "delay_seconds": self.delay_seconds,
            "crash": {"op": self.crash_op, "call": self.crash_call,
                      "mode": self.crash_mode},
            "injected": [{"op": op, "call": n, "indices": list(indices),
                          "faults": [name for name in
                                     ("drop", "reset", "duplicate",
                                      "replay_stale", "crash")
                                     if getattr(decision, name)]}
                         for op, n, decision, indices in self.injected],
        }


class FaultyTransport(Transport):
    """Adversarial wrapper applying a :class:`FaultSchedule` to a transport.

    Faults are injected *around* the inner transport's
    :meth:`~repro.cluster.transport.Transport.request` — the wrapper plays
    both the unreliable network and the disciplined client: a drop or
    reset raises internally and is retried (every protocol operation is
    idempotent, so retrying a possibly-applied request is safe), mirroring
    :meth:`SocketTransport.request`'s retry path; a burst outlasting
    ``max_retries`` surfaces as :class:`InjectedFault`.  Every client
    operation of :class:`~repro.cluster.transport.Transport` goes through
    it, so each is faulted the same way.

    Construct directly over any transport, or use :meth:`over_socket`.
    """

    def __init__(self, inner: Transport, schedule: FaultSchedule,
                 max_retries: int = 8, retry_delay: float = 0.002) -> None:
        self.inner = inner
        self.schedule = schedule
        self.max_retries = max(0, int(max_retries))
        self.retry_delay = max(0.0, retry_delay)
        self.kind = f"faulty+{inner.kind}"
        self.plan = inner.plan
        #: The previous applied ``(op, payload)``, for stale-replay
        #: redelivery.
        self._last: Optional[tuple[str, dict]] = None
        self._lock = threading.RLock()

    @classmethod
    def over_socket(cls, address: "str | tuple[str, int]",
                    schedule: FaultSchedule, **kwargs) -> "FaultyTransport":
        """Faulty TCP transport to the coordinator at ``address``."""
        return cls(SocketTransport(address), schedule, **kwargs)

    def request(self, op: str, **payload) -> dict:
        """Deliver ``op`` under the schedule's faults for it; a faulted
        delivery is logged with the scenarios its frame carries."""
        if op == "submit":
            indices = tuple(entry["index"] for entry in payload["results"])
        else:
            indices = tuple(payload.get("indices", ()))
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.retry_delay)
            decision = self.schedule.decide(op, indices)
            if decision.crash == "before":
                raise InjectedWorkerCrash(
                    f"injected crash before {op!r} "
                    f"(call {self.schedule._counts[op]})")
            if decision.delay:
                time.sleep(decision.delay)
            if decision.drop:
                if attempt < self.max_retries:
                    continue  # idempotent: safe to re-send
                raise InjectedFault(f"injected drop of {op!r} outlasted "
                                    f"{self.max_retries} retries")
            with self._lock:
                response = self.inner.request(op, **payload)
                if decision.duplicate:
                    # Retransmitted frame; response discarded.
                    self.inner.request(op, **payload)
                if decision.replay_stale and self._last is not None:
                    last_op, last_payload = self._last
                    # Stale frame arriving late.
                    self.inner.request(last_op, **last_payload)
                self._last = (op, payload)
            if decision.crash == "after":
                raise InjectedWorkerCrash(
                    f"injected crash after {op!r} "
                    f"(call {self.schedule._counts[op]})")
            if decision.reset:
                # Applied, but the caller must not know: retry — the
                # redelivery is exactly the duplicate-submission /
                # double-claim case the idempotent protocol absorbs.
                if attempt < self.max_retries:
                    continue
                raise InjectedFault(f"injected reset of {op!r} outlasted "
                                    f"{self.max_retries} retries")
            return response
        raise AssertionError("unreachable")  # pragma: no cover

    def close(self) -> None:
        self.inner.close()
