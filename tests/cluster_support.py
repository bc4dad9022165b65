"""Shared helpers for the cluster tests (imported, not collected)."""

from __future__ import annotations


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
