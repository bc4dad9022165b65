"""Discrete-event simulation substrate.

This package provides the simulation engine that every other subsystem of the
reproduction runs on top of.  It plays the role of NetSquid/DynAA in the
original paper: a timestamped event queue, simulation entities that schedule
callbacks, and classical/quantum channels with configurable delay and loss
models.

Public API
----------
``SimulationEngine``
    The event loop.  Create one per simulation run.
``Entity`` / ``Protocol``
    Base classes for things that live on the timeline.
``ClassicalChannel`` / ``QuantumChannel``
    Point-to-point connections with delay and loss.
``Clock``
    Periodic trigger used for MHP cycles.
"""

from repro.sim.engine import (
    Event,
    EventHandle,
    PeriodicHandle,
    ReusableTimer,
    SimulationEngine,
    SimulationError,
)
from repro.sim.entity import Entity, Protocol
from repro.sim.channel import ClassicalChannel, QuantumChannel, ChannelDelivery
from repro.sim.clock import Clock
from repro.sim.queues import ENGINE, HeapEventQueue

__all__ = [
    "SimulationEngine",
    "SimulationError",
    "Event",
    "EventHandle",
    "PeriodicHandle",
    "ReusableTimer",
    "Entity",
    "Protocol",
    "ClassicalChannel",
    "QuantumChannel",
    "ChannelDelivery",
    "Clock",
    "ENGINE",
    "HeapEventQueue",
]
