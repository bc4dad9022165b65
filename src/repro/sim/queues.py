"""The name of the simulation engine's event queue.

:class:`~repro.sim.engine.SimulationEngine` keeps its pending events in one
binary heap (``heapq``) whose entries are the events themselves, plain
``[time, sequence, callback, args, name]`` lists; ``heapq`` compares only
the float time and the int sequence, in C, because the sequence is unique
per engine.

The heap is the only event queue: on the profiled single link and the
5-node repeater chain it was faster than a calendar queue and a ladder
queue.  Specs, results and resume-cache filenames record its name,
:data:`ENGINE`, as provenance.
"""

from __future__ import annotations

#: Name of the event queue, recorded as provenance on specs, results and
#: resume-cache entries.
ENGINE = "heap"

__all__ = [
    "ENGINE",
]
