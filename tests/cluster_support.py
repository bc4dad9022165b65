"""Shared helpers for the cluster tests (imported, not collected)."""

from __future__ import annotations

from repro.cluster.transport import Transport


class ManualClock:
    """A coordinator clock the test steps by hand.

    Pass it to a :class:`~repro.cluster.transport.LocalTransport` or a
    :class:`~repro.cluster.serve.ClusterCoordinatorServer`; leases then
    expire exactly when :meth:`advance` moves past their timeout, with no
    sleeping and no file times.
    """

    def __init__(self, start: float = 1_000_000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def expire_leases(coordinator, clock: ManualClock,
                  seconds: float = 3600.0) -> int:
    """Step ``clock`` past every lease of ``coordinator``'s state; returns
    how many leases of unfinished scenarios there were to expire."""
    total = coordinator.status(clock())["total"]
    clock.advance(seconds)
    return total["leased"] + total["stale"]


class FrameRecorder(Transport):
    """Carries every frame to ``inner`` and keeps it with its answer.

    Wrap any transport (local, socket, faulty) to assert which frames a
    worker sent: :attr:`frames` lists ``(op, payload, response)`` per
    answered frame, in call order.
    """

    def __init__(self, inner: Transport) -> None:
        self.inner = inner
        self.kind = inner.kind
        self.plan = inner.plan
        self.frames: list[tuple[str, dict, dict]] = []

    def request(self, op: str, **payload) -> dict:
        response = self.inner.request(op, **payload)
        self.frames.append((op, payload, response))
        return response

    def sent(self, op: str) -> list[tuple[dict, dict]]:
        """``(payload, response)`` of every answered ``op`` frame."""
        return [(payload, response) for sent, payload, response
                in self.frames if sent == op]

    def indices(self, op: str) -> list[list[int]]:
        """The scenario indices each answered ``claim``, ``heartbeat`` or
        ``submit`` frame carried."""
        if op == "submit":
            return [[entry["index"] for entry in payload["results"]]
                    for payload, _ in self.sent(op)]
        return [payload["indices"] for payload, _ in self.sent(op)]

    def close(self) -> None:
        self.inner.close()
