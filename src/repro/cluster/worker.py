"""Worker side of the cluster protocol, over any transport.

A worker is stateless: point it at a coordinator (a
:class:`~repro.cluster.transport.SocketTransport` to its address, or a
:class:`~repro.cluster.transport.LocalTransport` in process) and it
rebuilds the scenario list, seeds and shard count from the plan document
(shard ``s`` of ``n`` is the indices ``s, s + n, s + 2n, ...``), then
loops:

1. **Look up** every candidate of its own shard in a new snapshot in the
   resume cache, once.  Hits are submitted straight away, in frames of at
   most :data:`SUBMIT_FRAME` outcomes, without taking a lease: a done
   record wins over any lease, and a cached record equals the one an
   execution would write, so the merge dedupes a peer's duplicate.  A hit
   goes into the frame as the outcome record the cache stored, marked
   ``from_cache``, without being rebuilt into an outcome.  Other
   shards' candidates are left to their owners and looked up only once
   stolen, under a lease, so a fleet sharing one cache loads each record
   once rather than once per worker.
2. **Claim** the misses of its own shard in index order, in batches sized
   by guided self-scheduling: with a fleet of ``P = max(num_shards,
   registered workers)``, a batch holds ``max(1, pending // P)`` of the
   scenarios its shard still has pending (at most :data:`SUBMIT_FRAME`),
   so batches shrink to single scenarios as a shard drains and the tail of
   a sweep is stolen one scenario at a time.  One
   claim RPC leases a whole batch through
   :meth:`~repro.cluster.transport.Transport.claim_many`, drawn from the
   candidate list of the worker's last snapshot; losing a race on a stale
   list refreshes it, on a fresh one just moves on to the next candidates
   (see :meth:`ClusterWorker.step`).  Each :meth:`step` runs one scenario
   of the batch, and the batch's results go back in one submit — sooner if
   the oldest held result is one heartbeat interval old, so a death loses
   at most about one interval of finished work.
3. **Steal** when its shard is exhausted: victims are ranked by the
   number of scenarios they still have pending (the fullest shard is
   robbed first, ties to the lower shard id) and scenarios are taken from
   the back of the victim's list, in batches sized as above, so stragglers
   never gate the grid while the victim keeps working from its front.
4. **Reclaim** scenarios whose lease heartbeat went stale — a worker died
   holding them.  Each is claimed alone (the coordinator takes over a stale
   lease only in a claim of one), so after a death in a batch only the
   scenario that kills workers is charged against the guard's retry
   budget.  A takeover is atomic on the coordinator; a displaced worker
   that resurrects learns of it from its heartbeat and drops the scenario,
   and if it submits anyway the result is harmless: execution is
   deterministic, so the duplicate sink records are identical and the merge
   dedupes them.

From claim to submit, the worker's one daemon heartbeat thread refreshes
every lease of its batch at a third of the lease timeout, all due leases
in one :meth:`~repro.cluster.transport.Transport.heartbeat_many` RPC, so
neither a long scenario nor the unstarted scenarios queued behind it are
mistaken for a dead worker, and a held batch costs one heartbeat RPC per
interval whatever its size; a heartbeat that reports a lease lost (taken
over while this worker was presumed dead) stops beating that lease, and
the worker drops that scenario instead of submitting it.
Outcomes go through
:meth:`~repro.cluster.transport.Transport.submit_many` as plain records (an
executed outcome is converted once), which is durable before its done
record exists — crash-and-resume is safe at every point.

Every scenario runs through :func:`~repro.runtime.sweep.execute_scenario`
on the worker's own :class:`~repro.backends.BackendSet`, so each distinct
hardware config's FEU table is built once per worker.

When the plan carries a :class:`~repro.runtime.guard.GuardPolicy` the worker
executes under it (event budgets, wall deadlines, result validation) and
reports failed outcomes through
:meth:`~repro.cluster.transport.Transport.record_failure` instead of
submitting them: the coordinator charges the scenario's retry budget,
releases the lease for a retry, and quarantines the scenario once the
budget is spent.  A ``MemoryError`` anywhere in execution is reported as an
``oom`` failure.  The faults the policy schedules (``GuardPolicy.faults``)
come with the plan, so every worker injects the same ones.

CLI — the whole multi-machine deployment story::

    python -m repro.cluster.worker --coordinator HOST:PORT
"""

from __future__ import annotations

import argparse
import collections
import logging
import os
import threading
import time
from pathlib import Path
from typing import Callable, Optional

from repro.backends import BackendSet
from repro.cluster.transport import (
    SocketTransport,
    TaskSnapshot,
    Transport,
    TransportError,
)
from repro.runtime.cache import CacheReport, CacheSkip, ResumeCache
from repro.runtime.sweep import (
    ScenarioOutcome,
    _failure_outcome,
    execute_scenario,
)

logger = logging.getLogger("repro.cluster.worker")

#: Most outcomes one submit frame carries, and most scenarios one claim
#: batch holds: a frame stays small (about 50 kB on the paper grid) however
#: many cache hits a snapshot finds.
SUBMIT_FRAME = 64


class _Heartbeat:
    """The worker's one daemon thread refreshing every watched lease.

    :meth:`watch` adds a lease when its batch is claimed: its first beat is
    due one interval later, then one per interval; the leases due at one
    wake-up are refreshed in one
    :meth:`~repro.cluster.transport.Transport.heartbeat_many` call.  A
    transient :class:`TransportError` is not a loss — the lease keeps
    beating.  An authoritative answer without the index (stale takeover by
    a peer) marks that lease **lost** and stops refreshing it;
    :meth:`lost` reads the flag and :meth:`unwatch` returns it, final from
    then on, and the worker must check it before starting or submitting a
    scenario: a displaced worker that submits anyway double-counts the
    scenario (its peer took over and will submit it too).  An answer that
    arrives after its lease was unwatched marks nothing.

    The thread starts with the first watch and lives until :meth:`close`,
    so a worker pays for one thread, not one per scenario.
    """

    def __init__(self, transport: Transport, worker_id: str,
                 interval: float) -> None:
        self._transport = transport
        self._worker_id = worker_id
        #: Seconds between beats of one lease.
        self.interval = max(interval, 0.05)
        self._wakeup = threading.Condition()
        #: index -> [next beat due (monotonic), lost flag]; a fresh list
        #: per watch, so a late answer cannot reach a later watch.
        self._watched: dict[int, list] = {}
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    def watch(self, index: int) -> None:
        """Start refreshing the lease of ``index``."""
        with self._wakeup:
            self._watched[index] = [time.monotonic() + self.interval, False]
            if self._thread is None:
                self._closed = False
                self._thread = threading.Thread(
                    target=self._beat, name=f"heartbeat-{self._worker_id}",
                    daemon=True)
                self._thread.start()
            self._wakeup.notify()

    def lost(self, index: int) -> bool:
        """Whether the watched lease of ``index`` was lost so far."""
        with self._wakeup:
            return self._watched[index][1]

    def unwatch(self, index: int) -> bool:
        """Stop refreshing ``index``; whether its lease was lost."""
        with self._wakeup:
            return self._watched.pop(index)[1]

    def close(self) -> None:
        """Stop the thread; a later :meth:`watch` starts a new one."""
        with self._wakeup:
            self._closed = True
            self._wakeup.notify()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def _due(self) -> Optional[list[tuple[int, list]]]:
        """Wait for the next due beats; ``None`` once closed.

        Once one lease is due, every lease due within the next half
        interval beats with it: the leases of a batch, watched one after
        another, share one frame from their first beat on.
        """
        with self._wakeup:
            while not self._closed:
                now = time.monotonic()
                live = [(index, entry)
                        for index, entry in self._watched.items()
                        if not entry[1]]
                next_at = min((entry[0] for _, entry in live), default=None)
                if next_at is not None and next_at <= now:
                    due = [(index, entry) for index, entry in live
                           if entry[0] <= now + self.interval / 2]
                    for _, entry in due:
                        entry[0] = now + self.interval
                    return due
                self._wakeup.wait(None if next_at is None else next_at - now)
            return None

    def _beat(self) -> None:
        while (due := self._due()) is not None:
            try:
                alive = set(self._transport.heartbeat_many(
                    [index for index, _ in due], self._worker_id))
            except TransportError:
                # Transient outage — unknown is not "lost".  Reading it as
                # lost would abort a healthy worker's scenario and let its
                # lease go stale, so the scenario runs twice.  Keep
                # beating; the transport reconnects/retries, and a genuine
                # takeover is reported authoritatively by its absence from
                # alive.
                continue
            for index, entry in due:
                if index not in alive:
                    # Taken over: stop beating it.  The flag lands on this
                    # watch's own entry, so an answer arriving after the
                    # unwatch marks nothing the worker still reads.
                    entry[1] = True


class ClusterWorker:
    """Executes scenarios from a cluster plan over any transport.

    Parameters
    ----------
    transport:
        The :class:`~repro.cluster.transport.Transport` to the coordinator.
    worker_id:
        Unique name; used for the sink part, lease ownership and the
        registration, so it must be a file-name-safe token (see
        :data:`repro.cluster.state.WORKER_ID`).  Defaults to
        ``<hostname>-<pid>``.
    shard:
        Home shard id.  ``None`` auto-assigns round-robin over the existing
        worker registrations.
    steal:
        Whether to take work from other shards once the home shard is done.
    crash_after_claims:
        Test hook — the worker "dies" (stops, leaving the leases of its last
        claim without a heartbeat) immediately after the claim that brings
        its granted leases to N or more, simulating a machine lost while
        running the first scenario of that batch.
    on_outcome:
        Optional progress callback: called with every outcome this worker
        submits and every failed attempt it reports, and — when that
        failure spends a guarded plan's retry budget — then with the
        ``quarantined`` outcome the coordinator merges for the scenario, so
        the last call for a scenario is its merged outcome.
    cache_dir:
        Resume-cache directory override.  Defaults to the plan's
        ``cache_dir`` (workers on the coordinator's machine); workers
        elsewhere typically pass a machine-local directory or ``None``.
    batch_size:
        Vestigial: only ``1`` is accepted, and any other value raises
        ``ValueError``.  Claim batches are sized from the count of pending
        scenarios instead; the parameter goes once the ladder benchmark
        stops passing it (ROADMAP item 1(c)).
    obs:
        Optional :class:`~repro.obs.ObsConfig` of every execution.  With
        ``metrics`` the worker also keeps a registry of its own, shipped to
        the coordinator through the ``telemetry`` op on :meth:`close`.
    """

    def __init__(self, transport: Transport,
                 worker_id: Optional[str] = None,
                 shard: Optional[int] = None,
                 steal: bool = True,
                 crash_after_claims: Optional[int] = None,
                 on_outcome: Optional[Callable[[ScenarioOutcome], None]] = None,
                 cache_dir: "Optional[str | Path]" = ...,
                 batch_size: int = 1,
                 obs=None,
                 ) -> None:
        self.transport = transport
        self.plan = self.transport.plan
        if worker_id is None:
            worker_id = f"{os.uname().nodename}-{os.getpid()}"
        self.worker_id = worker_id
        self.steal = steal
        if cache_dir is ...:
            cache_dir = self.plan.cache_dir
        if batch_size != 1:
            raise ValueError(f"batch_size {batch_size!r}: claim batches are "
                             f"sized from the plan, so it must be 1")
        self.crash_after_claims = crash_after_claims
        self.on_outcome = on_outcome
        self.crashed = False
        self.executed: list[int] = []
        #: Indices whose failed outcomes were reported through
        #: :meth:`Transport.record_failure` (guarded plans only) — the
        #: scenario goes back to pending for a retry, or is quarantined by
        #: the coordinator once its budget is spent.
        self.failed: list[int] = []
        #: Indices this worker computed but did **not** submit because its
        #: lease was taken over mid-run (the peer that took over owns the
        #: submission; submitting here too would double-count).
        self.aborted: list[int] = []
        self.cache_report = CacheReport()
        self._claims = 0
        #: Monotonic per-execution token, sent with every submit so the
        #: coordinator can dedupe duplicate deliveries of one execution
        #: (keyed on ``(index, worker_id, attempt)``).
        self._attempts = 0
        self._last_snapshot: Optional[TaskSnapshot] = None
        #: Claim candidates built from ``_last_snapshot``, in priority
        #: order; claims pop from the front.  Emptied whenever the view is
        #: known to be stale, so the next claim reads a new snapshot.
        self._candidates: collections.deque[int] = collections.deque()
        #: Whether ``_candidates`` came from a snapshot taken during the
        #: current :meth:`step` — refusals then just move on.
        self._fresh = False
        #: Indices whose cache lookup missed: looked up once, then claimed.
        self._misses: set[int] = set()
        #: The claimed batch's leased scenarios not started yet, in order.
        self._batch: collections.deque[int] = collections.deque()
        #: ``(index, outcome record, attempt)`` of the batch's finished
        #: scenarios, submitted together once the batch is exhausted or the
        #: oldest is one heartbeat interval old.
        self._finished: list[tuple[int, dict, int]] = []
        #: Monotonic time the oldest entry of ``_finished`` was queued.
        self._held_since = 0.0
        #: This worker's backends, one per name: each distinct FEU table
        #: is built once per worker.
        self._backends = BackendSet()
        self._cache = None if cache_dir is None else ResumeCache(cache_dir)
        #: Refreshes the leases of the scenarios running right now.
        self._heartbeat = _Heartbeat(self.transport, self.worker_id,
                                     self.plan.lease_timeout / 3.0)
        #: The plan's supervision policy (``None`` on unguarded plans):
        #: installed into every execution and the trigger for routing
        #: failures through ``record_failure`` instead of ``submit_result``.
        self.guard = self.plan.guard_policy()
        self.shard = self.transport.register_worker(self.worker_id, shard)
        self._own_indices = self.plan.shard(self.shard)
        self.obs = obs
        # None — the production default — costs nothing on the
        # claim/execute path.
        self.metrics = None
        if obs is not None and obs.metrics:
            from repro.obs.metrics import MetricsRegistry

            self.metrics = MetricsRegistry(
                base_labels={"worker": self.worker_id,
                             "shard": str(self.shard)})

    # ------------------------------------------------------------------ #
    # Candidate selection
    # ------------------------------------------------------------------ #
    def _pending_of_shard(self, snapshot: TaskSnapshot,
                          shard_id: int) -> list[int]:
        timeout = self.plan.lease_timeout
        return [index for index in self.plan.shard(shard_id)
                if snapshot.is_available(index, timeout)]

    def _refresh(self) -> Optional[int]:
        """Take a new snapshot, submit the cache hits among its own-shard
        candidates and queue the rest; returns the last index submitted, if
        any.

        Each own candidate is looked up once: a miss stays a miss for this
        worker, and a hit is done once submitted.  Hits go out in frames of
        at most :data:`SUBMIT_FRAME`, so at most one frame of outcomes is
        held at a time.  Other shards' candidates are looked up only once
        stolen (see :meth:`_run_next`).
        """
        self._last_snapshot = self.transport.snapshot()
        self._candidates.clear()
        self._fresh = True
        hits: list[tuple[int, dict, int]] = []
        last = None
        for index in self._next_candidates(self._last_snapshot):
            if index in self._own_indices and index not in self._misses:
                record = self._load_cached(index)
                if record is not None:
                    self._attempts += 1
                    hits.append((index, record, self._attempts))
                    if len(hits) == SUBMIT_FRAME:
                        self._send(hits)
                        last, hits = index, []
                    continue
                self._misses.add(index)
            self._candidates.append(index)
        if hits:
            self._send(hits)
            last = hits[-1][0]
        return last

    def _takeover(self, index: int) -> bool:
        """Whether the last snapshot saw a stale lease on ``index``."""
        age = self._last_snapshot.lease_ages.get(index)
        return age is not None and age >= self.plan.lease_timeout

    def _claim_batch(self) -> list[int]:
        """Claim the next candidates as one batch; returns the granted ones.

        The batch takes ``max(1, pending // P)`` candidates of the head's
        shard from the front, where ``pending`` counts that shard's
        candidates and ``P = max(num_shards, registered workers)`` (guided
        self-scheduling), up to :data:`SUBMIT_FRAME`.  A
        candidate behind a stale lease is claimed alone: the transport
        takes a stale lease over only in a claim of one.  A refusal on a
        cached (not fresh) view means the view is stale: the list is
        dropped so the next claim reads a new snapshot.  A refusal on a
        fresh view just moves on to the next candidates.
        """
        head = self._candidates.popleft()
        shard_of = self.plan.shard_of
        shard = shard_of(head)
        pending = 1 + sum(shard_of(index) == shard
                          for index in self._candidates)
        size = min(SUBMIT_FRAME, max(1, pending // max(
            self.plan.num_shards, self._last_snapshot.workers)))
        batch = [head]
        while (self._candidates and len(batch) < size
               and not self._takeover(head)
               and not self._takeover(self._candidates[0])
               and shard_of(self._candidates[0]) == shard):
            batch.append(self._candidates.popleft())
        granted = self.transport.claim_many(batch, self.worker_id)
        if len(granted) < len(batch) and not self._fresh:
            self._candidates.clear()
        for index in granted:
            self._note_claim(index)
        return granted

    def _next_candidates(self, snapshot: TaskSnapshot):
        """Yield candidate indices in claim-priority order.

        Own shard front-to-back first; then, if stealing, other shards by
        descending pending count (ties to the lower shard id), robbed
        back-to-front.
        """
        yield from self._pending_of_shard(snapshot, self.shard)
        if not self.steal:
            return
        victims = [self._pending_of_shard(snapshot, shard_id)
                   for shard_id in range(self.plan.num_shards)
                   if shard_id != self.shard]
        # A stable sort keeps shard-id order among equal counts.
        for pending in sorted(victims, key=len, reverse=True):
            yield from reversed(pending)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _load_cached(self, index: int) -> Optional[dict]:
        """Resume-cache lookup for ``index``: a hit's stored outcome record
        (see :meth:`ResumeCache.load`).  Updates the cache report."""
        if self._cache is None:
            return None
        spec = self.plan.specs[index]
        record, reason = self._cache.load(spec, self.plan.seeds[index],
                                          self.plan.duration)
        if record is not None:
            self.cache_report.hits.append(spec.name)
        elif reason is not None:
            self.cache_report.skips.append(CacheSkip(spec.name, reason))
        else:
            self.cache_report.misses.append(spec.name)
        return record

    def _execute(self, index: int) -> ScenarioOutcome:
        """Execute ``index`` and store its outcome in the cache."""
        spec = self.plan.specs[index]
        try:
            outcome = execute_scenario(spec, self.plan.seeds[index],
                                       self.plan.duration, guard=self.guard,
                                       backends=self._backends, obs=self.obs)
        except MemoryError:
            # execute_scenario catches MemoryError from the scenario
            # itself; this one fired outside it (outcome assembly).  Same
            # taxonomy: an oom failure.
            outcome = _failure_outcome(
                spec, self.plan.seeds[index], self.plan.duration,
                "oom", "MemoryError outside scenario execution",
                time.perf_counter())
        if self._cache is not None:
            self._cache.store(spec, outcome, self.plan.duration)
        return outcome

    def _note_claim(self, index: int) -> None:
        """Account one granted claim (steal / stale-lease takeover split)."""
        self._claims += 1
        if self.metrics is None:
            return
        self.metrics.counter("repro_worker_claims_total")
        if index not in self._own_indices:
            self.metrics.counter("repro_worker_steals_total")
        if self._takeover(index):
            # The claim displaced a stale lease: a peer died (or was
            # presumed dead) mid-scenario and this worker took over.
            self.metrics.counter("repro_worker_takeovers_total")

    def _send(self, results: list[tuple[int, dict, int]]) -> None:
        """Submit one frame of results and account for them."""
        self.transport.submit_many(self.worker_id, results)
        for index, record, _ in results:
            self.executed.append(index)
            if self.metrics is not None:
                self.metrics.counter("repro_worker_submits_total",
                                     status=record["status"])
                if record["from_cache"]:
                    self.metrics.counter("repro_worker_cache_hits_total")
                else:
                    self.metrics.counter(
                        "repro_worker_scenarios_executed_total")
                    self.metrics.observe(
                        "repro_worker_scenario_wall_seconds",
                        record["wall_time"])
                self.metrics.counter("repro_worker_events_processed_total",
                                     record["events_processed"])
                self.metrics.counter("repro_worker_events_elided_total",
                                     record["events_elided"])
            if self.on_outcome is not None:
                self.on_outcome(ScenarioOutcome.from_dict(record))

    def _submit_finished(self) -> None:
        """Submit the batch's finished scenarios whose leases still hold.

        A failed submit keeps them (and their heartbeats) for the next
        :meth:`step` to send again under the same attempt tokens.
        """
        self._finished = [entry for entry in self._finished
                          if not self._dropped(entry[0])]
        if self._finished:
            self._send(self._finished)
        for index, _, _ in self._finished:
            self._heartbeat.unwatch(index)
        self._finished = []

    def _report_failure(self, index: int, outcome: ScenarioOutcome) -> None:
        """Charge a failed execution against the scenario's retry budget.

        The transport releases this worker's lease (the scenario goes back
        to pending for a retry — possibly by this same worker) and, once
        the budget is spent, quarantines it: a durable record plus a
        synthetic ``quarantined`` outcome in the sinks, so the sweep still
        completes.  The progress callback sees the failed outcome and then,
        on a quarantine, the quarantined one.
        """
        self._attempts += 1
        self.failed.append(index)
        # The scenario is pending again (or quarantined): re-read the task
        # state so a retry comes first, exactly as from a fresh snapshot.
        self._candidates.clear()
        if self.metrics is not None:
            self.metrics.counter("repro_worker_failures_total",
                                 status=outcome.status)
        charged = self.transport.record_failure(self.worker_id, index,
                                                outcome,
                                                attempt=self._attempts)
        logger.warning(
            "[%s] scenario %d failed [%s] — attempt %s of %d%s: %s",
            self.worker_id, index, outcome.status,
            charged.get("attempts", "?"), self.guard.max_attempts,
            " (quarantined)" if charged.get("quarantined") else "",
            outcome.error)
        if self.on_outcome is not None:
            self.on_outcome(outcome)
            if charged["quarantined"]:
                self.on_outcome(self.plan.quarantined_outcome(
                    index, outcome.status))

    def _run_next(self) -> int:
        """Run the batch's next scenario; submit the batch after its last,
        or earlier once the oldest held result is a heartbeat interval old.

        A stolen scenario is looked up in the resume cache first (own
        candidates were looked up at the snapshot).  A lease lost before
        the scenario starts or while it runs drops the scenario: the peer
        that took the lease over owns its submission now, and submitting
        both would double-count it.  A guarded failure is reported at once,
        so its retry is not held up by the batch.
        """
        index = self._batch.popleft()
        if not self._dropped(index):
            record = None
            if index not in self._own_indices:
                record = self._load_cached(index)
            self._finish(index, record or self._execute(index))
        if not self._batch or (
                self._finished and time.monotonic() - self._held_since
                >= self._heartbeat.interval):
            self._submit_finished()
        return index

    def _finish(self, index: int, result: "dict | ScenarioOutcome") -> None:
        """Queue ``result`` — a cache hit's record or an executed outcome,
        converted here once — for the batch's submit, or report a guarded
        failure at once; nothing if the lease was lost while it ran."""
        if self._dropped(index):
            return
        if isinstance(result, ScenarioOutcome):
            if self.guard is not None and not result.ok:
                self._heartbeat.unwatch(index)
                self._report_failure(index, result)
                return
            result = result.to_dict()
        if not self._finished:
            self._held_since = time.monotonic()
        self._attempts += 1
        self._finished.append((index, result, self._attempts))

    def _dropped(self, index: int) -> bool:
        """Whether the lease of ``index`` was lost; if so, stop watching it
        and leave the scenario to the peer that took it over."""
        if not self._heartbeat.lost(index):
            return False
        self._heartbeat.unwatch(index)
        self.aborted.append(index)
        self._candidates.clear()  # a peer took over: our view is stale
        if self.metrics is not None:
            self.metrics.counter("repro_worker_aborts_total")
        logger.warning(
            "[%s] lease for scenario %d was taken over; leaving it to the "
            "peer", self.worker_id, index)
        return True

    def _crash_hook(self) -> bool:
        """Test hook: simulated death once ``crash_after_claims`` leases
        were granted — keep the leases, never heartbeat, write nothing.
        The leases go stale and their scenarios are reclaimed by peers."""
        if (self.crash_after_claims is not None
                and self._claims >= self.crash_after_claims):
            self.crashed = True
            return True
        return False

    def step(self) -> Optional[int]:
        """Run one scenario or submit one pass of cache hits; returns the
        index handled last, ``None`` when nothing is left.

        "Nothing" means: no pending scenario this worker may take right now.
        Live leases held by other workers are *not* waited for — callers
        that want to drain a grid poll :meth:`step` (or use :meth:`run`)
        until the coordinator reports completion.

        A step runs the next scenario of the claimed batch.  Once the batch
        is exhausted, the next step claims a new one from the candidate
        list built from the last snapshot, so a pass over N scenarios costs
        one claim and one submit per batch, not O(N) snapshots of N
        scenarios each.  A new snapshot is taken only when the cached view
        is known to be stale: a claim was refused, a failure was reported
        (the retry must come first), a lease was lost, or the list ran dry.
        Its cache hits are submitted in the same step.  Claiming from a
        stale view is safe because
        :meth:`~repro.cluster.transport.Transport.claim_many` is atomic and
        authoritative — the worst a stale candidate costs is a refused
        claim.  ``None`` is returned only after a fresh snapshot offered
        nothing, so :meth:`run`'s completion check always reads a snapshot
        taken in this step.

        An exception other than a :class:`TransportError` ends the worker
        as a death would: its heartbeat stops, and its leases go stale.
        """
        if self.crashed:
            return None
        try:
            return self._step()
        except TransportError:
            raise
        except BaseException:
            self.crashed = True
            self._heartbeat.close()
            raise

    def _step(self) -> Optional[int]:
        if self._batch:
            return self._run_next()
        if self._finished:
            self._submit_finished()  # the last step's submit failed
        self._fresh = False
        handled = None
        while True:
            if not self._candidates and not self._fresh:
                submitted = self._refresh()
                if submitted is not None:
                    handled = submitted
            if not self._candidates:
                return handled
            granted = self._claim_batch()
            if not granted:
                continue
            if self._crash_hook():
                return None
            for index in granted:
                self._heartbeat.watch(index)
            self._batch.extend(granted)
            return self._run_next()

    def run(self, poll_interval: float = 0.2,
            wait_for_stragglers: bool = True,
            reconnect_grace: float = 30.0) -> int:
        """Serve scenarios until the grid has no work left for this worker.

        With ``wait_for_stragglers`` the worker idles (sleeping
        ``poll_interval``) while other workers still hold live leases, so it
        can reclaim them if their owners die; it returns once every
        scenario is done — or, on a socket transport, when the coordinator
        stays unreachable for ``reconnect_grace`` seconds.  The grace
        window matters both ways: a coordinator *restart* (serve resumes on
        its durable directory) must not kill the whole worker fleet over a
        transient connection blip, while a coordinator that merged and
        exited should release the worker promptly.  Whatever was in flight
        when the coordinator vanished is protocol-safe: an unsubmitted
        result just leaves its lease to go stale and the scenario is
        re-executed deterministically on resume.  Returns the number of
        scenarios this worker executed.
        """
        outage_since: Optional[float] = None
        try:
            while True:
                try:
                    if self.step() is not None:
                        outage_since = None
                        continue
                    outage_since = None
                    if self.crashed or not wait_for_stragglers:
                        break
                    # step() found nothing claimable; its snapshot is fresh
                    # enough to double as the completion check (a second
                    # snapshot RPC per poll would just double idle-fleet
                    # load on the coordinator).
                    if (self._last_snapshot is not None
                            and len(self._last_snapshot.done)
                            >= len(self.plan.specs)):
                        break
                except TransportError as error:
                    now = time.monotonic()
                    if outage_since is None:
                        outage_since = now
                    if now - outage_since >= reconnect_grace:
                        logger.warning(
                            "coordinator unreachable for %.0fs, stopping: %s",
                            now - outage_since, error)
                        break
                    logger.info("coordinator unreachable, retrying: %s",
                                error)
                time.sleep(poll_interval)
        finally:
            self.close()
        return len(self.executed)

    def close(self) -> None:
        """Flush sinks / release the coordinator connection.

        Also the telemetry ship point: the metrics registry (when the
        worker's ``obs`` enabled one) is uploaded as a whole snapshot through
        the transport — best-effort, so a coordinator that already exited
        never turns a clean worker shutdown into a failure.
        """
        self._heartbeat.close()
        if self.metrics is not None:
            # Gauges, not counters: close() may run twice (run()'s finally
            # plus an explicit call) and last-write-wins stays idempotent.
            self.metrics.gauge("repro_worker_transport_retries",
                               getattr(self.transport, "retries", 0))
            schedule = getattr(self.transport, "schedule", None)
            if schedule is not None:
                self.metrics.gauge(
                    "repro_worker_injected_faults",
                    len(getattr(schedule, "injected", ())))
            try:
                self.transport.send_telemetry(self.worker_id,
                                              self.metrics.to_dict())
            except (TransportError, OSError) as error:
                logger.warning("[%s] telemetry upload failed (%s); dropped",
                               self.worker_id, error)
        self.transport.close()


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point: ``python -m repro.cluster.worker``."""
    parser = argparse.ArgumentParser(
        description="Run one sweep-cluster worker against a TCP "
                    "coordinator.")
    parser.add_argument("--coordinator", required=True, metavar="HOST:PORT",
                        help="TCP coordinator started with "
                             "python -m repro.cluster.serve")
    parser.add_argument("--worker-id", default=None,
                        help="unique worker name (default: <host>-<pid>)")
    parser.add_argument("--shard", type=int, default=None,
                        help="home shard (default: auto round-robin)")
    parser.add_argument("--cache-dir", default=None,
                        help="machine-local resume-cache directory "
                             "(default: the plan's cache_dir; '' disables "
                             "caching)")
    parser.add_argument("--no-steal", action="store_true",
                        help="never take work from other shards")
    parser.add_argument("--no-wait", action="store_true",
                        help="exit when idle instead of standing by to "
                             "reclaim crashed peers' work")
    parser.add_argument("--crash-after-claims", type=int, default=None,
                        help=argparse.SUPPRESS)  # CI crash-recovery smoke
    parser.add_argument("--verbose", action="store_true",
                        help="DEBUG-level logging (default INFO; see also "
                             "$REPRO_LOG)")
    args = parser.parse_args(argv)

    from repro.obs import config_from_env
    from repro.obs.logconf import configure_logging

    configure_logging(verbose=args.verbose)

    transport = SocketTransport(args.coordinator)

    def progress(outcome: ScenarioOutcome) -> None:
        tag = "cached" if outcome.from_cache else (
            "ok" if outcome.ok else "FAILED")
        logger.info("[%s] %-40s %s (%.1fs)", worker.worker_id,
                    outcome.scenario_name, tag, outcome.wall_time)

    if args.cache_dir is None:
        cache_dir = ...  # not given: use the plan's cache_dir
    else:
        cache_dir = args.cache_dir or None  # "" disables (as in serve)
    worker = ClusterWorker(
        transport, worker_id=args.worker_id, shard=args.shard,
        steal=not args.no_steal, on_outcome=progress,
        crash_after_claims=args.crash_after_claims,
        cache_dir=cache_dir, obs=config_from_env())
    logger.info("[%s] serving shard %d of %d over %s (%d scenarios total)",
                worker.worker_id, worker.shard,
                worker.plan.num_shards, transport.kind,
                len(worker.plan.specs))
    executed = worker.run(wait_for_stragglers=not args.no_wait)
    logger.info("[%s] done: %d scenario(s) executed", worker.worker_id,
                executed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
