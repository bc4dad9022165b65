"""Deterministic structured trace layer.

A :class:`Tracer` collects *sim-time keyed* records from the simulation
layers (engine, MHP/EGP, swap-ASAP) plus per-kind event accounting
(scheduled / executed / cancelled / elided).  Records never contain
wall-clock readings, thread ids, or memory addresses, so the trace of a
``(spec, seed)`` pair is bit-identical across repeat runs and across
backends with equivalent physics — which makes traces diffable and a
sound input for the planned commutativity analysis.

The zero-cost default is *no tracer at all*: instrumented code holds a
``tracer`` attribute that is ``None`` unless observability is enabled
and guards every emission with ``if tracer is not None`` — the exact
pattern the engine already uses for its ``trace`` list.  A
:data:`NULL_TRACER` is provided for callers that prefer unconditional
calls over guards.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, TextIO, Tuple

__all__ = ["Tracer", "NullTracer", "NULL_TRACER", "read_jsonl"]


class Tracer:
    """Collects deterministic trace records and per-kind event counts.

    Records are ``(kind, time, name, fields)`` tuples where ``time`` is
    sim-time (seconds) and ``fields`` is a plain dict or ``None``.
    Three record kinds exist:

    - ``"event"`` — a point occurrence (an EGP OK, a swap, a midpoint
      cycle outcome).
    - ``"span"`` — an interval ``[time, fields["end"])`` in sim-time.
    - ``"counter"`` — reserved; counters are aggregated in
      :attr:`counters` instead of being recorded per-occurrence, so
      hot-path counts stay O(1) memory.

    Engine hooks (:meth:`on_scheduled` etc.) aggregate per-kind counts
    without producing records — a run processes hundreds of thousands
    of timer events and per-event records would dwarf the interesting
    protocol-level signal.
    """

    __slots__ = ("records", "scheduled", "executed", "cancelled", "elided",
                 "counters")

    def __init__(self) -> None:
        self.records: List[Tuple[str, float, str, Optional[dict]]] = []
        self.scheduled: Dict[str, int] = {}
        self.executed: Dict[str, int] = {}
        self.cancelled: Dict[str, int] = {}
        self.elided: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}

    # -- record APIs (sim-time keyed) -----------------------------------
    def event(self, time: float, name: str, **fields: Any) -> None:
        """Record a point occurrence at sim-time ``time``."""
        self.records.append(("event", time, name, fields or None))

    def span(self, start: float, end: float, name: str, **fields: Any) -> None:
        """Record an interval ``[start, end)`` in sim-time."""
        fields["end"] = end
        self.records.append(("span", start, name, fields))

    def counter(self, name: str, value: float = 1) -> None:
        """Bump an aggregate counter (no per-occurrence record)."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + value

    # -- engine hooks (per-kind aggregation, called from hot paths) -----
    def on_scheduled(self, name: str) -> None:
        d = self.scheduled
        d[name] = d.get(name, 0) + 1

    def on_executed(self, name: str) -> None:
        d = self.executed
        d[name] = d.get(name, 0) + 1

    def on_cancelled(self, name: str) -> None:
        d = self.cancelled
        d[name] = d.get(name, 0) + 1

    def on_elided(self, name: str) -> None:
        d = self.elided
        d[name] = d.get(name, 0) + 1

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        """Deterministic plain-data view (insertion-ordered dicts)."""
        return {
            "records": [
                {"kind": kind, "t": time, "name": name,
                 **({"fields": fields} if fields else {})}
                for kind, time, name, fields in self.records
            ],
            "scheduled": dict(self.scheduled),
            "executed": dict(self.executed),
            "cancelled": dict(self.cancelled),
            "elided": dict(self.elided),
            "counters": dict(self.counters),
        }

    def write_jsonl(self, stream: TextIO) -> None:
        """One JSON object per line: records first, then one summary line.

        ``sort_keys`` plus repr-exact floats keep the byte stream a pure
        function of the record sequence, so files from two equivalent
        runs can be compared with ``cmp``/``diff``.
        """
        for kind, time, name, fields in self.records:
            payload = {"kind": kind, "t": time, "name": name}
            if fields:
                payload["fields"] = fields
            stream.write(json.dumps(payload, sort_keys=True) + "\n")
        stream.write(json.dumps({
            "kind": "summary",
            "scheduled": self.scheduled,
            "executed": self.executed,
            "cancelled": self.cancelled,
            "elided": self.elided,
            "counters": self.counters,
        }, sort_keys=True) + "\n")


class NullTracer(Tracer):
    """A tracer whose every method is a no-op.

    For callers that want to call tracer methods unconditionally; the
    instrumented hot paths instead keep ``tracer = None`` and skip the
    call entirely, which is cheaper still.
    """

    __slots__ = ()

    def event(self, time: float, name: str, **fields: Any) -> None:
        pass

    def span(self, start: float, end: float, name: str, **fields: Any) -> None:
        pass

    def counter(self, name: str, value: float = 1) -> None:
        pass

    def on_scheduled(self, name: str) -> None:
        pass

    def on_executed(self, name: str) -> None:
        pass

    def on_cancelled(self, name: str) -> None:
        pass

    def on_elided(self, name: str) -> None:
        pass


#: Shared no-op tracer instance.
NULL_TRACER = NullTracer()


def read_jsonl(path) -> Tuple[List[dict], Optional[dict]]:
    """Load a trace written by :meth:`Tracer.write_jsonl`.

    Returns ``(records, summary)`` where ``summary`` is the trailing
    per-kind accounting line (or ``None`` for truncated files).
    """
    records: List[dict] = []
    summary: Optional[dict] = None
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            if payload.get("kind") == "summary":
                summary = payload
            else:
                records.append(payload)
    return records, summary
