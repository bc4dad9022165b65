"""Resume cache of the cluster workers (and so of every sweep).

Each completed scenario is persisted as one JSON file keyed by a hash of the
scenario *identity* (hardware, workload, scheduler, batch size) plus the
derived seed and simulated duration, with the resolved physics backend and
event engine as filename suffixes.  Keeping the cache version, backend and
engine *out* of the hash — they were folded into it before PR 3 — means a
stale or foreign entry is *found and reported* instead of silently missed: a
sweep can tell the operator "skipped, written by cache version 2" rather
than quietly recomputing.

Only successful outcomes are cached.  Retry budgets and quarantine are
the cluster coordinator's (:mod:`repro.cluster.state`), not the cache's.

Skip reasons are logged through the ``repro.runtime.cache`` logger and
surfaced via :class:`CacheReport` (see ``SweepRunner.cache_report()`` and
``ClusterWorker.cache_report``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sweep imports us)
    from repro.runtime.scenarios import ScenarioSpec
    from repro.runtime.sweep import ScenarioOutcome

#: Cache-format version; bump when the outcome schema or file layout changes.
#: v3: wrapper payload {cache_version, backend, outcome} with the backend in
#: the filename instead of the key hash; outcomes record events_processed.
#: v4: the event engine joins the filename (``<key>.<backend>.<engine>.json``)
#: and the wrapper payload; outcomes record the engine.
#: v5: outcomes gained a ``cohort`` provenance field, the cohort size of a
#: since-removed batched executor; every scenario now runs alone, so it is
#: always ``None``.
#: v6: the wrapper payload records the topology (name + identity hash,
#: ``None`` for single-link scenarios) so a topology redefinition under an
#: unchanged scenario name is found and reported, and outcomes carry the
#: per-hop / end-to-end fields of topology runs.
#: v7: outcomes record ``events_elided`` (events skipped outright by
#: outcome-preserving timer elision) alongside ``events_processed`` —
#: provenance like the engine field, but old entries would silently
#: report 0, so the version forces a recompute.
#: v8: guarded sweeps persisted *failed* outcomes too, with an ``attempts``
#: count in the wrapper payload.  That ledger is gone (the coordinator keeps
#: retry budgets); ``ok`` entries are unchanged, and a failed entry an older
#: version wrote is skipped.
CACHE_VERSION = 8

logger = logging.getLogger("repro.runtime.cache")


#: Monotonic discriminator for concurrent :func:`atomic_write_text` calls —
#: ``next()`` on :func:`itertools.count` is atomic under the GIL, so two
#: threads can never draw the same value.
_tmp_counter = itertools.count()


def atomic_write_text(path: Path, text: str, durable: bool = False) -> None:
    """Write ``text`` via a private tmp file and atomic rename.

    The single atomic-persistence idiom shared by the resume cache, the
    result sinks and the cluster protocol: concurrent writers never
    interleave, the last rename wins with a complete file, and a killed
    process never leaves a torn file at ``path``.  Tmp names carry the pid,
    the thread id *and* a per-process counter — pid alone is not enough once
    one process writes from several threads (the TCP coordinator's handler
    threads share a pid; two of them sharing one tmp file would interleave
    text and race the rename).

    With ``durable`` the tmp file is fsynced before the rename, so the
    rename can never expose a file whose *contents* are still in the page
    cache — required wherever a reader treats the file's existence as proof
    of durability (failure, death and quarantine records).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}"
                         f".{threading.get_ident()}.{next(_tmp_counter)}.tmp")
    with tmp.open("w") as handle:
        handle.write(text)
        if durable:
            handle.flush()
            os.fsync(handle.fileno())
    tmp.replace(path)


def _topology_stamp(spec: "ScenarioSpec") -> Optional[dict]:
    """The topology recorded in (and checked against) a cache entry.

    Like the backend and engine, the topology lives in the wrapper payload
    rather than the key hash: redefining a scenario's topology without
    renaming it then *finds* the stale entry and reports a skip instead of
    silently recomputing under a fresh key.
    """
    topology = getattr(spec, "topology", None)
    if topology is None:
        return None
    return {"name": topology.name, "key": topology.identity_key()}


#: Encodes the canonical JSON text cache keys hash.
_ENCODER = json.JSONEncoder(sort_keys=True, default=repr)


def _spliced(mapping: dict, name: str, text: str) -> str:
    """The canonical text of ``mapping``, with ``text`` as the already
    encoded value of its key ``name``."""
    before = {key: value for key, value in mapping.items() if key < name}
    after = {key: value for key, value in mapping.items() if key > name}
    parts = [f"{_ENCODER.encode(name)}: {text}"]
    if before:
        parts.insert(0, _ENCODER.encode(before)[1:-1])
    if after:
        parts.append(_ENCODER.encode(after)[1:-1])
    return "{" + ", ".join(parts) + "}"


def _topology_label(stamp: Optional[dict]) -> str:
    if not isinstance(stamp, dict):
        return "a single-link scenario"
    return f"topology {stamp.get('name')!r} ({stamp.get('key')})"


@dataclass
class CacheSkip:
    """One cache entry that was found but could not be used."""

    scenario_name: str
    reason: str


@dataclass
class CacheReport:
    """What the resume cache did for one sweep (or worker) run."""

    #: Scenario names served from cache.
    hits: list[str] = field(default_factory=list)
    #: Scenario names with no cache entry at all.
    misses: list[str] = field(default_factory=list)
    #: Entries that existed but were skipped, with the reason.
    skips: list[CacheSkip] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        """Summary counters (hits / misses / skips)."""
        return {"hits": len(self.hits), "misses": len(self.misses),
                "skips": len(self.skips)}

    def describe(self) -> str:
        """Human-readable multi-line summary (used by examples)."""
        lines = [f"resume cache: {len(self.hits)} hit(s), "
                 f"{len(self.misses)} miss(es), {len(self.skips)} skipped"]
        for skip in self.skips:
            lines.append(f"  skipped {skip.scenario_name}: {skip.reason}")
        return "\n".join(lines)


class ResumeCache:
    """Per-scenario result cache of the cluster workers
    (:class:`~repro.cluster.worker.ClusterWorker`, which every
    ``SweepRunner`` runs).

    Only successful outcomes are stored, so failures are retried on the
    next run.  Writes are atomic (tmp + rename): a killed run never leaves
    a half-written entry.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        #: Keys :meth:`load` computed on a miss, kept for the :meth:`store`
        #: that follows, so each scenario is keyed once.  Indexed by
        #: ``(id(spec), seed, duration)``; the spec itself is held to keep
        #: the id from being reused.  Specs are values — nothing mutates one
        #: between its lookup and its store.  A miss never stored (a lease
        #: lost mid-run) leaves one small entry behind.
        self._miss_keys: dict[tuple[int, int, float],
                              tuple["ScenarioSpec", str]] = {}
        #: Hardware configs converted and encoded for :meth:`key`, shared
        #: across the specs this cache keys (bounded: overflow clears).
        self._configs: dict = {}
        #: Entry filenames in the directory by cache key, listed by one
        #: scan at the first miss and extended by this instance's stores.
        #: Entries other processes write after that scan are not reported
        #: as foreign variants; they are never served either way.
        self._entries: Optional[dict[str, set[str]]] = None

    # ------------------------------------------------------------------ #
    # Keys and paths
    # ------------------------------------------------------------------ #
    #: Bound of the converted-config memo.
    CONFIG_MEMO_SIZE = 64

    @staticmethod
    def key(spec: "ScenarioSpec", seed: int, duration: float,
            configs: Optional[dict] = None) -> str:
        """Hash of everything that determines a scenario's result — except
        the backend, engine and cache version, which live in the filename
        and entry payload so that mismatches are detectable.

        ``configs`` shares converted hardware configs across calls (see
        :meth:`ScenarioSpec.to_dict`), and with them each config's encoded
        JSON text, spliced into the payload's text unchanged; the key is
        the same with or without it."""
        identity = spec.identity_payload(configs)
        payload = {"identity": identity, "seed": seed, "duration": duration}
        if configs is None:
            text = _ENCODER.encode(payload)
        else:
            # Keyed on the converted dict ``configs`` holds for this
            # config, which lives exactly as long as the entry.
            slot = ("json", id(identity["scenario"]))
            scenario = configs.get(slot)
            if scenario is None:
                scenario = configs[slot] = _ENCODER.encode(
                    identity["scenario"])
            text = _spliced(payload, "identity",
                            _spliced(identity, "scenario", scenario))
        return hashlib.sha256(text.encode()).hexdigest()[:20]

    def path(self, spec: "ScenarioSpec", seed: int, duration: float,
             backend: Optional[str] = None) -> Path:
        """Cache file for ``spec`` under the given (or resolved) backend and
        the spec's event engine."""
        return self._path(self._key_of(spec, seed, duration), spec, backend)

    def _path(self, key: str, spec: "ScenarioSpec",
              backend: Optional[str]) -> Path:
        backend = backend or spec.backend_name()
        return self.directory / f"{key}.{backend}.{spec.engine}.json"

    def _key_of(self, spec: "ScenarioSpec", seed: int, duration: float,
                pop: bool = False) -> str:
        """:meth:`key`, reusing the one a missed :meth:`load` computed
        (``pop`` releases it: the store that follows a miss)."""
        memo = self._miss_keys
        slot = (id(spec), seed, duration)
        entry = memo.pop(slot, None) if pop else memo.get(slot)
        if entry is not None and entry[0] is spec:
            return entry[1]
        return self._key(spec, seed, duration)

    def _key(self, spec: "ScenarioSpec", seed: int, duration: float) -> str:
        """:meth:`key` with this cache's converted-config memo."""
        if len(self._configs) >= self.CONFIG_MEMO_SIZE:
            self._configs.clear()
        return self.key(spec, seed, duration, self._configs)

    # ------------------------------------------------------------------ #
    # Load / store
    # ------------------------------------------------------------------ #
    def load(self, spec: "ScenarioSpec", seed: int, duration: float,
             ) -> tuple[Optional[dict], Optional[str]]:
        """Look up a cached outcome record.

        Returns ``(record, None)`` on a usable hit, ``(None, None)`` on a
        plain miss, and ``(None, reason)`` when an entry was found but had to
        be skipped (wrong cache version, different backend or engine,
        corrupt, or a recorded failure).  Skips are logged.

        A hit is the entry's stored outcome record, the
        :meth:`ScenarioOutcome.to_dict` form (see
        :meth:`ScenarioOutcome.check_record`), marked ``from_cache``: a
        cluster worker submits it as it is, and
        ``ScenarioOutcome.from_dict`` rebuilds the outcome.
        """
        from repro.runtime.sweep import ScenarioOutcome

        backend = spec.backend_name()
        engine = spec.engine
        key = self._key(spec, seed, duration)
        path = self._path(key, spec, backend)
        try:
            text = path.read_text()
        except FileNotFoundError:
            self._miss_keys[(id(spec), seed, duration)] = (spec, key)
            reason = self._foreign_variant_reason(key, path.name, backend,
                                                  engine)
            if reason is not None:
                self._log_skip(spec.name, reason)
            return None, reason
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            reason = f"corrupt cache entry ({error.msg} at char {error.pos})"
            self._log_skip(spec.name, reason)
            return None, reason
        if not isinstance(data, dict) or "outcome" not in data:
            reason = "unversioned legacy cache entry (pre-v3 layout)"
            self._log_skip(spec.name, reason)
            return None, reason
        version = data.get("cache_version")
        if version != CACHE_VERSION:
            reason = (f"cache entry written by cache version {version}, "
                      f"this run uses {CACHE_VERSION}")
            self._log_skip(spec.name, reason)
            return None, reason
        entry_backend = data.get("backend")
        if entry_backend != backend:
            reason = (f"cache entry written under backend "
                      f"{entry_backend!r}, this run resolves to {backend!r}")
            self._log_skip(spec.name, reason)
            return None, reason
        entry_engine = data.get("engine")
        if entry_engine != engine:
            reason = (f"cache entry written under event engine "
                      f"{entry_engine!r}, this run resolves to {engine!r}")
            self._log_skip(spec.name, reason)
            return None, reason
        expected_topology = _topology_stamp(spec)
        entry_topology = data.get("topology")
        if entry_topology != expected_topology:
            reason = (f"cache entry written under "
                      f"{_topology_label(entry_topology)}, this run uses "
                      f"{_topology_label(expected_topology)}")
            self._log_skip(spec.name, reason)
            return None, reason
        try:
            record = ScenarioOutcome.check_record(data["outcome"])
        except (KeyError, TypeError) as error:
            reason = f"corrupt cache entry ({error!r})"
            self._log_skip(spec.name, reason)
            return None, reason
        if record["status"] != "ok":
            reason = "cache entry records a failed run; retrying"
            self._log_skip(spec.name, reason)
            return None, reason
        record["from_cache"] = True
        return record, None

    def store(self, spec: "ScenarioSpec", outcome: "ScenarioOutcome",
              duration: float) -> None:
        """Persist a successful outcome; a failed one is not stored."""
        if not outcome.ok:
            self._miss_keys.pop((id(spec), outcome.seed, duration), None)
            return
        path = self._path(self._key_of(spec, outcome.seed, duration, pop=True),
                          spec, outcome.backend)
        payload = {
            "cache_version": CACHE_VERSION,
            "backend": outcome.backend,
            "engine": spec.engine,
            "topology": _topology_stamp(spec),
            "outcome": outcome.to_dict(),
        }
        atomic_write_text(path, json.dumps(payload))
        if self._entries is not None:
            self._entries.setdefault(path.name.partition(".")[0],
                                     set()).add(path.name)

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _foreign_variant_reason(self, stem: str, own: str, backend: str,
                                engine: str) -> Optional[str]:
        """Report entries for the same scenario (cache key ``stem``) under
        *other* backends or event engines (including pre-v4 entries without
        an engine suffix): the files ``{stem}.*.json`` other than ``own``,
        found in the entry index."""
        others = sorted(self._entry_index().get(stem, set()) - {own})
        if not others:
            return None
        variants = ", ".join(
            " + ".join(repr(part)
                       for part in name[len(stem) + 1:-len(".json")].split("."))
            for name in others)
        return (f"cache entry exists only under {variants}, this run "
                f"resolves to {backend!r} + {engine!r}")

    def _entry_index(self) -> dict[str, set[str]]:
        """Entry filenames (``{key}.{variant}.json``) by key, from one scan
        of the directory per instance."""
        if self._entries is None:
            self._entries = {}
            try:
                with os.scandir(self.directory) as entries:
                    for entry in entries:
                        stem, dot, rest = entry.name.partition(".")
                        if dot and rest.endswith(".json"):
                            self._entries.setdefault(stem, set()).add(
                                entry.name)
            except FileNotFoundError:
                pass
        return self._entries

    @staticmethod
    def _log_skip(scenario_name: str, reason: str) -> None:
        logger.info("resume cache skip for %s: %s", scenario_name, reason)
