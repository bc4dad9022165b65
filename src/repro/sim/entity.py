"""Simulation entities.

An :class:`Entity` is anything that lives on the simulation timeline and can
schedule callbacks (a protocol layer, a heralding station, a channel).
"""

from __future__ import annotations

from typing import Callable

from repro.sim.engine import Event, SimulationEngine


class Entity:
    """Base class for objects that participate in a simulation.

    Parameters
    ----------
    engine:
        The simulation engine this entity schedules events on.
    name:
        Human-readable identifier used in logs and error messages.
    """

    def __init__(self, engine: SimulationEngine, name: str = "") -> None:
        self._engine = engine
        self.name = name or self.__class__.__name__

    @property
    def engine(self) -> SimulationEngine:
        """The simulation engine this entity is attached to."""
        return self._engine

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        # Read the attribute, not the engine property: this sits on the
        # per-event hot path (hundreds of thousands of reads per simulated
        # minute).
        return self._engine._now

    def call_at(self, time: float, callback: Callable[..., None],
                name: str = "", args: tuple = ()) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time``."""
        return self._engine.schedule_at(time, callback,
                                        name=name or self.name, args=args)

    def call_after(self, delay: float, callback: Callable[..., None],
                   name: str = "", args: tuple = ()) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        return self._engine.schedule_after(delay, callback,
                                           name=name or self.name, args=args)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"<{self.__class__.__name__} {self.name!r} t={self.now:.6f}>"
