"""Discrete-event simulation substrate.

This package provides the simulation engine that every other subsystem of the
reproduction runs on top of.  It plays the role of NetSquid/DynAA in the
original paper: a timestamped event queue, simulation entities that schedule
callbacks, and classical channels with configurable delay and loss.

Public API
----------
``SimulationEngine``
    The event loop.  Create one per simulation run.  Its ``schedule_*``
    methods return the event's heap entry, a plain
    ``[time, sequence, callback, args, name]`` list, which is also the
    handle that ``SimulationEngine.cancel`` takes.
``Entity``
    Base class for things that live on the timeline (the MHP, the midpoint,
    the EGP, the distributed queue, channels).
``ClassicalChannel``
    Point-to-point classical connection with delay and loss.
"""

from repro.sim.engine import SimulationEngine, SimulationError
from repro.sim.entity import Entity
from repro.sim.channel import ClassicalChannel, ChannelDelivery
from repro.sim.queues import ENGINE

__all__ = [
    "SimulationEngine",
    "SimulationError",
    "Entity",
    "ClassicalChannel",
    "ChannelDelivery",
    "ENGINE",
]
