"""Discrete-event simulation substrate.

This package provides the simulation engine that every other subsystem of the
reproduction runs on top of.  It plays the role of NetSquid/DynAA in the
original paper: a timestamped event queue, simulation entities that schedule
callbacks, and classical channels with configurable delay and loss.

Public API
----------
``SimulationEngine``
    The event loop.  Create one per simulation run.
``Event``
    The one event kind: a scheduled callback that doubles as its own
    cancellation handle.
``Entity``
    Base class for things that live on the timeline (the MHP, the midpoint,
    the EGP, the distributed queue, channels).
``ClassicalChannel``
    Point-to-point classical connection with delay and loss.
"""

from repro.sim.engine import Event, SimulationEngine, SimulationError
from repro.sim.entity import Entity
from repro.sim.channel import ClassicalChannel, ChannelDelivery
from repro.sim.queues import ENGINE

__all__ = [
    "SimulationEngine",
    "SimulationError",
    "Event",
    "Entity",
    "ClassicalChannel",
    "ChannelDelivery",
    "ENGINE",
]
