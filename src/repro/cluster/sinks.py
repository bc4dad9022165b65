"""Streaming result sinks for sharded sweeps.

A :class:`ResultSink` receives ``(global scenario index, ScenarioOutcome)``
pairs as workers finish scenarios and persists them durably — ``write``
returning means the outcome survives a worker crash.  Three formats:

``json``
    One JSON document per part.  :func:`load_results` also ingests the
    *existing* canonical ``SweepResult.save`` format (outcomes in scenario
    order, indices implied by position), so plain serial sweep files merge
    with cluster parts.

``jsonl``
    Append-only JSON Lines — one header line, then one outcome per line,
    flushed and fsynced per write.  A crash mid-write loses at most the
    partial trailing line, which the loader detects and drops.

``columnar``
    A directory of append-only per-field column segments plus a
    merge-on-read manifest — dependency-free columnar storage for large
    grids: reading one metric across thousands of scenarios touches a few
    small files instead of parsing every outcome, and each flush seals only
    the new rows into a fresh segment instead of rewriting the part.  The
    ``summary`` is exploded into one column per metric field.

All three merge — in any mixture — into a canonical
:class:`~repro.runtime.sweep.SweepResult` via :func:`merge_results`, ordered
by global index and therefore *field-for-field identical* to a serial
``SweepRunner`` run regardless of shard count, stealing order or
crash-and-resume history.
"""

from __future__ import annotations

import dataclasses
import json
import os
from abc import ABC, abstractmethod
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from repro.analysis.metrics import MetricsSummary
from repro.runtime.cache import CACHE_VERSION, atomic_write_text
from repro.runtime.sweep import ScenarioOutcome, SweepResult

#: Columns an outcome is split into in the columnar format, in order.
_OUTCOME_FIELDS = tuple(f.name for f in dataclasses.fields(ScenarioOutcome)
                        if f.name != "summary")
_SUMMARY_FIELDS = tuple(f.name for f in dataclasses.fields(MetricsSummary))


class SinkError(ValueError):
    """A sink part could not be loaded or merged."""


class ResultSink(ABC):
    """Write-side interface workers stream outcomes through.

    Implementations must make :meth:`write` durable before returning — the
    coordinator's done-markers are written after the sink write, and a done
    marker with no recoverable sink record would lose a scenario.
    """

    #: Format name used in plan files and CLIs.
    kind: str = "base"

    def __init__(self, path: str | Path, master_seed: Optional[int] = None,
                 duration: float = 0.0) -> None:
        self.path = Path(path)
        self.master_seed = master_seed
        self.duration = duration

    @abstractmethod
    def write(self, index: int, outcome: ScenarioOutcome) -> None:
        """Durably record ``outcome`` for global scenario ``index``."""

    def close(self) -> None:
        """Flush any remaining state (writes are already durable)."""


class JsonResultSink(ResultSink):
    """One JSON document per part, rewritten atomically on every write.

    Matches the sweep engine's existing JSON idiom; the per-write rewrite
    makes it O(n^2) over a part's lifetime — fine for coarse grids, use
    ``jsonl`` for long ones.
    """

    kind = "json"

    def __init__(self, path: str | Path, master_seed: Optional[int] = None,
                 duration: float = 0.0) -> None:
        super().__init__(path, master_seed, duration)
        self._entries: dict[int, ScenarioOutcome] = {}
        if self.path.exists():  # resume an interrupted part
            for index, outcome in _load_json_entries(self.path):
                self._entries[index] = outcome

    def write(self, index: int, outcome: ScenarioOutcome) -> None:
        self._entries[index] = outcome
        payload = {
            "format": "sweep-json/v1",
            "cache_version": CACHE_VERSION,
            "master_seed": self.master_seed,
            "duration": self.duration,
            "entries": [{"index": i, "outcome": self._entries[i].to_dict()}
                        for i in sorted(self._entries)],
        }
        atomic_write_text(self.path, json.dumps(payload))


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
            self._append(header)

    def _repair_torn_tail(self) -> None:
        """Truncate a partial trailing line left by a crash mid-write.

        Without this, resuming a part (same worker id after a restart)
        would append the next record onto the torn line, fusing two records
        into one corrupt line that the loader then drops — losing the
        re-executed scenario *after* its done marker exists.
        """
        if not self.path.exists():
            return
        raw = self.path.read_bytes()
        if not raw or raw.endswith(b"\n"):
            return
        keep = raw.rfind(b"\n") + 1  # 0 when even the header is torn
        with self.path.open("r+b") as handle:
            handle.truncate(keep)

    def _append(self, record: dict) -> None:
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def write(self, index: int, outcome: ScenarioOutcome) -> None:
        self._append({"index": index, "outcome": outcome.to_dict()})

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class ColumnarResultSink(ResultSink):
    """Append-only column *segments* plus a merge-on-read manifest.

    Layout::

        part.columnar/
          manifest.json            # format, segment list, column list, seed
          seg-000000/index.json    # [3, 17, 4, ...]   (rows of segment 0)
          seg-000000/status.json   # ["ok", "ok", ...]
          seg-000000/summary.throughput.json
          seg-000001/...           # rows flushed later
          ...

    Rows append in completion order; the global index column carries the
    ordering needed at merge time.  Every ``flush_every`` writes (default 1,
    i.e. durable per write) the rows accumulated since the last flush are
    **sealed into a brand-new segment** — the v1 format instead rewrote
    every column in full on every flush, an O(n²) lifetime cost that
    dominated huge grids.  Readers merge the segments in manifest order
    (concatenation), so the loaded rows are identical to what a single
    monolithic part would hold.  The manifest is written last: a crash
    mid-flush leaves an orphaned, unlisted segment directory that the next
    flush simply overwrites, plus at most the unflushed rows, which their
    workers' leases will recycle.
    """

    kind = "columnar"
    FORMAT = "sweep-columnar/v2"

    def __init__(self, path: str | Path, master_seed: Optional[int] = None,
                 duration: float = 0.0, flush_every: int = 1) -> None:
        super().__init__(path, master_seed, duration)
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.flush_every = flush_every
        #: Rows accumulated since the last flush (the open segment).
        self._pending: list[tuple[int, ScenarioOutcome]] = []
        #: Sealed segments, in append order: ``{"name": ..., "rows": n}``.
        self._segments: list[dict] = []
        manifest_path = self.path / "manifest.json"
        if manifest_path.exists():  # resume a part: adopt sealed segments
            manifest = json.loads(manifest_path.read_text())
            self._segments = _manifest_segments(self.path, manifest)

    def write(self, index: int, outcome: ScenarioOutcome) -> None:
        self._pending.append((index, outcome))
        if len(self._pending) >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Seal the pending rows into a new segment, then the manifest."""
        if not self._pending:
            return
        name = f"seg-{len(self._segments):06d}"
        segment_dir = self.path / name
        segment_dir.mkdir(parents=True, exist_ok=True)
        columns: dict[str, list] = {"index": [i for i, _ in self._pending]}
        for field in _OUTCOME_FIELDS:
            columns[field] = [getattr(outcome, field)
                              for _, outcome in self._pending]
        for field in _SUMMARY_FIELDS:
            columns[f"summary.{field}"] = [
                None if outcome.summary is None
                else getattr(outcome.summary, field)
                for _, outcome in self._pending]
        for field, values in columns.items():
            atomic_write_text(segment_dir / f"{field}.json",
                              json.dumps(values))
        self._segments.append({"name": name, "rows": len(self._pending)})
        manifest = {
            "format": self.FORMAT,
            "cache_version": CACHE_VERSION,
            "master_seed": self.master_seed,
            "duration": self.duration,
            "rows": sum(segment["rows"] for segment in self._segments),
            "segments": list(self._segments),
            "columns": sorted(columns),
        }
        atomic_write_text(self.path / "manifest.json",
                          json.dumps(manifest, indent=2))
        self._pending.clear()

    def close(self) -> None:
        self.flush()


#: kind -> sink class.
SINK_KINDS: Mapping[str, type[ResultSink]] = MappingProxyType({
    sink.kind: sink
    for sink in (JsonResultSink, JsonlResultSink, ColumnarResultSink)
})


def open_sink(kind: str, path: str | Path,
              master_seed: Optional[int] = None,
              duration: float = 0.0) -> ResultSink:
    """Instantiate a sink by format name (``json``/``jsonl``/``columnar``)."""
    try:
        sink_cls = SINK_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown sink kind {kind!r}; "
                         f"expected one of {sorted(SINK_KINDS)}") from None
    return sink_cls(path, master_seed=master_seed, duration=duration)


def part_name(kind: str, worker_id: str) -> str:
    """Canonical part file/directory name for one worker."""
    suffix = {"json": ".json", "jsonl": ".jsonl",
              "columnar": ".columnar"}[kind]
    return f"part-{worker_id}{suffix}"


# --------------------------------------------------------------------------- #
# Loading
# --------------------------------------------------------------------------- #
def _load_json_entries(path: Path) -> list[tuple[int, ScenarioOutcome]]:
    data = json.loads(path.read_text())
    if not isinstance(data, dict):
        raise SinkError(f"{path}: not a sweep JSON document")
    if "entries" in data:  # part format
        return [(entry["index"], ScenarioOutcome.from_dict(entry["outcome"]))
                for entry in data["entries"]]
    if "outcomes" in data:  # canonical SweepResult.save format
        result = SweepResult.from_dict(data)
        return list(enumerate(result.outcomes))
    raise SinkError(f"{path}: neither a part file nor a SweepResult document")


def _load_jsonl_entries(path: Path) -> list[tuple[int, ScenarioOutcome]]:
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


def _manifest_segments(path: Path, manifest: dict) -> list[dict]:
    """Segment list of a ``sweep-columnar/v2`` manifest; any other manifest
    is rejected."""
    if (manifest.get("format") != ColumnarResultSink.FORMAT
            or "segments" not in manifest):
        raise SinkError(f"{path}: not a {ColumnarResultSink.FORMAT} part "
                        f"(manifest format {manifest.get('format')!r})")
    return [dict(segment) for segment in manifest["segments"]]


def _load_columnar_segment(path: Path, segment_dir: Path, rows: int,
                           recorded_columns=None,
                           ) -> list[tuple[int, ScenarioOutcome]]:
    def column(name: str) -> list:
        values = json.loads((segment_dir / f"{name}.json").read_text())
        if len(values) < rows:
            raise SinkError(f"{path}: column {segment_dir.name}/{name} has "
                            f"{len(values)} rows, manifest says {rows}")
        # A crash between column flushes can leave a column *longer* than
        # the manifest (manifest is written last): trust the manifest.
        return values[:rows]

    def known(name: str) -> bool:
        # Fields added after a part was written (e.g. ``engine``) have no
        # column in older segments; ``from_dict`` supplies their defaults.
        # The manifest's recorded column list is authoritative: a column it
        # names must exist (a missing file is damage, reported loudly via
        # the read below), while an unrecorded field is skipped.  Manifests
        # without a column list fall back to an existence check.
        if recorded_columns is not None:
            return name in recorded_columns
        return (segment_dir / f"{name}.json").exists()

    indices = column("index")
    outcome_columns = {name: column(name) for name in _OUTCOME_FIELDS
                       if known(name)}
    summary_columns = {name: column(f"summary.{name}")
                       for name in _SUMMARY_FIELDS
                       if known(f"summary.{name}")}
    entries = []
    for row in range(rows):
        data = {name: values[row]
                for name, values in outcome_columns.items()}
        if summary_columns["duration"][row] is not None:
            data["summary"] = {name: values[row]
                               for name, values in summary_columns.items()}
        else:
            data["summary"] = None
        entries.append((indices[row], ScenarioOutcome.from_dict(data)))
    return entries


def _load_columnar_entries(path: Path) -> list[tuple[int, ScenarioOutcome]]:
    """Merge-on-read: concatenate the manifest's segments in append order."""
    manifest = json.loads((path / "manifest.json").read_text())
    recorded = manifest.get("columns")
    entries: list[tuple[int, ScenarioOutcome]] = []
    for segment in _manifest_segments(path, manifest):
        entries.extend(_load_columnar_segment(path, path / segment["name"],
                                              segment["rows"],
                                              recorded_columns=recorded))
    return entries


def _header_of(path: Path) -> dict:
    """The (master_seed, duration) header of any sink part, if recoverable."""
    try:
        if path.is_dir():
            return json.loads((path / "manifest.json").read_text())
        if path.suffix == ".jsonl":
            with path.open(encoding="utf-8") as handle:
                first = handle.readline()
            return json.loads(first) if first.strip() else {}
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}


def load_results(path: str | Path) -> list[tuple[int, ScenarioOutcome]]:
    """Load ``(index, outcome)`` pairs from any sink part or SweepResult file.

    The format is detected from the path: a directory is columnar, a
    ``.jsonl`` file is JSON Lines, anything else is parsed as JSON (part
    format or the canonical ``SweepResult.save`` document).
    """
    path = Path(path)
    if path.is_dir():
        return _load_columnar_entries(path)
    if path.suffix == ".jsonl":
        return _load_jsonl_entries(path)
    return _load_json_entries(path)


def merge_results(sources: Iterable[str | Path],
                  expected_count: Optional[int] = None,
                  master_seed: Optional[int] = None,
                  duration: Optional[float] = None) -> SweepResult:
    """Merge any mixture of sink parts into a canonical :class:`SweepResult`.

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
