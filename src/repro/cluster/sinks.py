"""Append-only JSON Lines result parts for sharded sweeps.

A :class:`ResultSink` receives ``(global scenario index, outcome record)``
pairs as workers finish scenarios and persists them durably — ``write_many``
returning means the outcomes survive a worker crash.  An outcome record is
the plain :meth:`~repro.runtime.sweep.ScenarioOutcome.to_dict` form, written
as it is received.  Its one format,
:class:`JsonlResultSink`, writes one header line, then one outcome per line;
a batch of records is one append, flushed and fsynced once.  A crash
mid-write loses at most the partial trailing line, which the loader detects
and drops and a resumed sink truncates.

Parts merge into a canonical :class:`~repro.runtime.sweep.SweepResult` via
:func:`merge_results`, ordered by global index and therefore *field-for-field
identical* to a serial ``SweepRunner`` run regardless of shard count,
stealing order or crash-and-resume history: per-index records commute, so one
append-only format serves every shard and steal order.
"""

from __future__ import annotations

import json
import os
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.runtime.cache import CACHE_VERSION
from repro.runtime.sweep import ScenarioOutcome, SweepResult


class SinkError(ValueError):
    """A sink part could not be loaded or merged."""


class ResultSink(ABC):
    """Write-side interface workers stream outcomes through.

    Implementations must make :meth:`write_many` durable before returning —
    the coordinator writes a submit's done record (one
    ``tasks/<first-index>.done.<unique>.json`` per submit frame) right after
    the sink write, and a done record naming an index with no recoverable
    sink record would lose that scenario.
    """

    #: Format name used in plan files.
    kind: str = "base"

    def __init__(self, path: str | Path, master_seed: Optional[int] = None,
                 duration: float = 0.0) -> None:
        self.path = Path(path)
        self.master_seed = master_seed
        self.duration = duration

    @abstractmethod
    def write_many(self, records: Sequence[tuple[int, dict]]) -> None:
        """Durably record each ``(global scenario index, outcome record)``.

        A record is a :meth:`ScenarioOutcome.to_dict` dict (checked by the
        caller, e.g. with :meth:`ScenarioOutcome.check_record`), written
        as it is."""

    def write(self, index: int, outcome: ScenarioOutcome) -> None:
        """Durably record ``outcome`` for global scenario ``index``."""
        self.write_many([(index, outcome.to_dict())])

    def close(self) -> None:
        """Flush any remaining state (writes are already durable)."""


class JsonlResultSink(ResultSink):
    """Append-only JSON Lines part — crash-safe incremental writes."""

    kind = "jsonl"

    def __init__(self, path: str | Path, master_seed: Optional[int] = None,
                 duration: float = 0.0) -> None:
        super().__init__(path, master_seed, duration)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._repair_torn_tail()
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._handle = self.path.open("a", encoding="utf-8")
        if fresh:
            header = {"format": "sweep-jsonl/v1",
                      "cache_version": CACHE_VERSION,
                      "master_seed": self.master_seed,
                      "duration": self.duration}
            self._append([header])

    def _repair_torn_tail(self) -> None:
        """Truncate a partial trailing line left by a crash mid-write.

        Without this, resuming a part (same worker id after a restart)
        would append the next record onto the torn line, fusing two records
        into one corrupt line that the loader then drops — losing the
        re-executed scenario *after* a done record names it.
        """
        if not self.path.exists():
            return
        raw = self.path.read_bytes()
        if not raw or raw.endswith(b"\n"):
            return
        keep = raw.rfind(b"\n") + 1  # 0 when even the header is torn
        with self.path.open("r+b") as handle:
            handle.truncate(keep)

    def _append(self, records: Iterable[dict]) -> None:
        self._handle.write("".join(json.dumps(record) + "\n"
                                   for record in records))
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def write_many(self, records: Sequence[tuple[int, dict]]) -> None:
        self._append({"index": index, "outcome": record}
                     for index, record in records)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


def check_sink_kind(kind: str) -> None:
    """Reject any sink format but JSONL (e.g. from an older plan file)."""
    if kind != JsonlResultSink.kind:
        raise ValueError(f"unsupported sink {kind!r}: only "
                         f"{JsonlResultSink.kind!r} result parts are written "
                         f"and merged")


def part_name(worker_id: str) -> str:
    """Canonical part file name for one worker."""
    return f"part-{worker_id}.jsonl"


# --------------------------------------------------------------------------- #
# Loading
# --------------------------------------------------------------------------- #
def _header_of(path: Path) -> dict:
    """The (master_seed, duration) header of a part, if recoverable."""
    try:
        with path.open(encoding="utf-8") as handle:
            first = handle.readline()
        return json.loads(first) if first.strip() else {}
    except (OSError, json.JSONDecodeError):
        return {}


def load_results(path: str | Path) -> list[tuple[int, ScenarioOutcome]]:
    """Load the ``(index, outcome)`` pairs of one JSONL part."""
    path = Path(path)
    entries: list[tuple[int, ScenarioOutcome]] = []
    lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if lineno == len(lines) - 1:
                break  # partial trailing line from a crash mid-write
            raise SinkError(f"{path}:{lineno + 1}: corrupt JSONL record")
        if "index" in record:
            entries.append((record["index"],
                            ScenarioOutcome.from_dict(record["outcome"])))
    return entries


def merge_results(sources: Iterable[str | Path],
                  expected_count: Optional[int] = None,
                  master_seed: Optional[int] = None,
                  duration: Optional[float] = None) -> SweepResult:
    """Merge sink parts into a canonical :class:`SweepResult`.

    Sources are read in sorted-path order; duplicate indices (a stolen
    scenario double-executed around a stale lease takeover) must agree on
    every compared outcome field — determinism means re-execution is
    idempotent — and the first occurrence wins.  With ``expected_count`` the
    merge fails loudly on missing indices instead of returning a partial
    result.
    """
    combined: dict[int, ScenarioOutcome] = {}
    seed_header = master_seed
    duration_header = duration
    for source in sorted(Path(s) for s in sources):
        header = _header_of(source)
        for key, current in (("master_seed", seed_header),
                             ("duration", duration_header)):
            value = header.get(key)
            if value is None:
                continue
            if current is not None and value != current:
                raise SinkError(
                    f"{source}: {key} {value!r} disagrees with {current!r} "
                    f"from other parts — parts belong to different sweeps")
        seed_header = (seed_header if seed_header is not None
                       else header.get("master_seed"))
        duration_header = (duration_header if duration_header is not None
                           else header.get("duration"))
        for index, outcome in load_results(source):
            existing = combined.get(index)
            if existing is None:
                combined[index] = outcome
            elif existing != outcome:
                raise SinkError(
                    f"{source}: scenario index {index} was recorded twice "
                    f"with diverging results — determinism violation")
    if expected_count is not None:
        missing = sorted(set(range(expected_count)) - set(combined))
        if missing:
            raise SinkError(f"merge is missing {len(missing)} scenario(s): "
                            f"indices {missing[:10]}"
                            + ("..." if len(missing) > 10 else ""))
        extra = sorted(set(combined) - set(range(expected_count)))
        if extra:
            raise SinkError(f"merge has out-of-range indices {extra[:10]}")
    outcomes = [combined[index] for index in sorted(combined)]
    return SweepResult(master_seed=seed_header,
                       duration=duration_header if duration_header is not None
                       else (outcomes[0].duration if outcomes else 0.0),
                       outcomes=outcomes)
