"""Worker side of the cluster protocol, over any transport.

A worker is stateless: point it at a cluster directory (filesystem
transport) or a coordinator address (socket transport) and it rebuilds the
scenario list, seeds and shard plan from the plan document, then loops:

1. **Claim** the next pending scenario of its own shard (front to back — the
   planner puts the costliest first).  Claims go through the transport's
   atomic :meth:`~repro.cluster.transport.Transport.try_claim`, drawn from
   the candidate list of the worker's last snapshot; losing a race on a
   stale list refreshes it, on a fresh one just moves on to the next
   candidate (see :meth:`ClusterWorker.step`).
2. **Steal** when its shard is exhausted: victims are ranked by estimated
   *remaining* cost (the slowest shard is robbed first) and scenarios are
   taken from the back of the victim's list (the cheapest remaining work),
   so stragglers never gate the grid while the victim keeps its expensive
   head-of-line work.
3. **Reclaim** scenarios whose lease heartbeat went stale — a worker died
   mid-scenario.  Takeover is atomic inside the transport; if two workers
   race, both re-execute the scenario, which is harmless: execution is
   deterministic, so the duplicate sink records are identical and the merge
   dedupes them.

While a scenario runs, the worker's one daemon heartbeat thread refreshes
its lease through the transport at a third of the lease timeout, so long
scenarios are never mistaken for dead workers; a heartbeat that reports the
lease lost (taken over while this worker was presumed dead) stops beating
that lease, and the worker aborts the scenario instead of submitting it.
Outcomes stream through
:meth:`~repro.cluster.transport.Transport.submit_result`, which is durable
before the done marker exists — crash-and-resume is safe at every point.

With ``batch_size > 1`` a worker claims up to that many *analytic* scenarios
per step and advances them as one vectorized cohort
(:mod:`repro.runtime.batch`): one lease per member, each refreshed by the
same heartbeat thread, so the failure story is unchanged — a member whose
lease was taken over mid-cohort is aborted individually while the others
still submit.

When the plan carries a :class:`~repro.runtime.guard.GuardPolicy` the worker
executes under it (event budgets, wall deadlines, result validation) and
reports failed outcomes through
:meth:`~repro.cluster.transport.Transport.record_failure` instead of
submitting them: the coordinator charges the scenario's retry budget,
releases the lease for a retry, and quarantines the scenario once the
budget is spent.  A ``MemoryError`` anywhere in execution is reported as an
``oom`` failure and halves this worker's cohort batch size — the usual
reason a cohort blows the memory ceiling is the cohort itself.

CLI — the whole multi-machine deployment story::

    python -m repro.cluster.worker --cluster-dir DIR          # shared filesystem
    python -m repro.cluster.worker --coordinator HOST:PORT    # plain TCP
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

from repro.cluster.transport import (
    FilesystemTransport,
    SocketTransport,
    TaskSnapshot,
    Transport,
    TransportError,
)
from repro.runtime.cache import (
    CacheReport,
    CacheSkip,
    ResumeCache,
    cost_model_path,
)
from repro.runtime.sweep import (
    ScenarioOutcome,
    _failure_outcome,
    execute_scenario,
)

logger = logging.getLogger("repro.cluster.worker")

#: Ceiling of the auto-derived cohort size: recorded speedups beyond this
#: are noise (the vectorized backend's memoized pair physics saturates at
#: about ``StaticCostModel.ANALYTIC_COHORT_SPEEDUP`` times a solo run), and
#: oversized cohorts delay lease turnover without buying throughput.
MAX_AUTO_BATCH_SIZE = 8


def derive_batch_size(plan, cache_dir: "Optional[str | Path]" = None) -> int:
    """Pick a cohort size from recorded cost-model history.

    The persisted cost model (``cost_model.json`` next to the resume cache,
    or in the cluster directory) records cohort-mode throughput separately
    from solo throughput under the ``#cohort`` backend key.  The observed
    per-member speedup, averaged over the plan's cohortable scenarios that
    have history in *both* modes, is the cohort size worth claiming: a
    cohort of roughly that many members keeps the vectorized backend at its
    measured amortization.  Without history (first sweep, foreign machine,
    socket worker without a shared filesystem) this returns 1 — the solo
    path — so auto-derivation can never regress an uncalibrated deployment.
    """
    from repro.cluster.planner import RecordedCostModel
    from repro.runtime.batch import cohortable

    if cache_dir is None:
        cache_dir = plan.cache_dir
    if cache_dir is None:
        return 1
    model = RecordedCostModel.load_if_present(cost_model_path(cache_dir))
    if model is None:
        return 1
    speedups = []
    for spec in plan.specs:
        if not cohortable(spec):
            continue
        solo = model.recorded_rate(spec)
        cohort = model.recorded_rate(spec, cohort=True)
        if solo is None or cohort is None or cohort <= 0:
            continue
        speedups.append(solo / cohort)
    if not speedups:
        return 1
    mean = sum(speedups) / len(speedups)
    return max(1, min(MAX_AUTO_BATCH_SIZE, round(mean)))


class _Heartbeat:
    """The worker's one daemon thread refreshing every watched lease.

    :meth:`watch` adds a lease when its scenario starts running: its first
    beat is due one interval later, then one per interval.  A transient
    :class:`TransportError` is not a loss — the lease keeps beating.  An
    authoritative ``alive: false`` (stale takeover by a peer) marks that
    lease **lost** and stops refreshing it; :meth:`unwatch` returns the
    flag, final from then on, and the worker must check it before
    submitting: a displaced worker that submits anyway double-counts the
    scenario (its peer took over and will submit it too).  An answer that
    arrives after its lease was unwatched marks nothing.

    The thread starts with the first watch and lives until :meth:`close`,
    so a worker pays for one thread, not one per scenario.
    """

    def __init__(self, transport: Transport, worker_id: str,
                 interval: float) -> None:
        self._transport = transport
        self._worker_id = worker_id
        self._interval = max(interval, 0.05)
        self._wakeup = threading.Condition()
        #: index -> [next beat due (monotonic), lost flag]; a fresh list
        #: per watch, so a late answer cannot reach a later watch.
        self._watched: dict[int, list] = {}
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    def watch(self, index: int) -> None:
        """Start refreshing the lease of ``index``."""
        with self._wakeup:
            self._watched[index] = [time.monotonic() + self._interval, False]
            if self._thread is None:
                self._closed = False
                self._thread = threading.Thread(
                    target=self._beat, name=f"heartbeat-{self._worker_id}",
                    daemon=True)
                self._thread.start()
            self._wakeup.notify()

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
        """Wait for the next due beats; ``None`` once closed."""
        with self._wakeup:
            while not self._closed:
                now = time.monotonic()
                due = []
                next_at = None
                for index, entry in self._watched.items():
                    if entry[1]:
                        continue
                    if entry[0] <= now:
                        entry[0] = now + self._interval
                        due.append((index, entry))
                    elif next_at is None or entry[0] < next_at:
                        next_at = entry[0]
                if due:
                    return due
                self._wakeup.wait(None if next_at is None else next_at - now)
            return None

    def _beat(self) -> None:
        while (due := self._due()) is not None:
            for index, entry in due:
                try:
                    alive = self._transport.heartbeat(index, self._worker_id)
                except TransportError:
                    # Transient outage — unknown is not "lost".  Keep
                    # beating; the transport reconnects/retries, and a
                    # genuine takeover is reported authoritatively as False.
                    continue
                if not alive:
                    # Taken over: stop beating it.  The flag lands on this
                    # watch's own entry, so an answer arriving after the
                    # unwatch marks nothing the worker still reads.
                    entry[1] = True


class ClusterWorker:
    """Executes scenarios from a cluster plan over any transport.

    Parameters
    ----------
    cluster:
        A :class:`~repro.cluster.transport.Transport`, or a cluster
        directory path (opened as a :class:`FilesystemTransport`).
    worker_id:
        Unique name; used for the sink part, lease ownership and the
        registration.  Defaults to ``<hostname>-<pid>``.
    shard:
        Home shard id.  ``None`` auto-assigns round-robin over the existing
        worker registrations.
    steal:
        Whether to take work from other shards once the home shard is done.
    crash_after_claims:
        Test hook — the worker "dies" (stops, leaving its last lease without
        a heartbeat) immediately after its N-th successful claim, simulating
        a machine lost mid-scenario.
    on_outcome:
        Optional progress callback, as in ``SweepRunner``.
    cache_dir:
        Resume-cache directory override.  Defaults to the plan's
        ``cache_dir`` (shared-filesystem deployments); socket workers
        typically pass a machine-local directory or ``None``.
    batch_size:
        Cohort size for vectorized execution.  With ``batch_size > 1`` each
        step claims up to this many analytic scenarios and runs them as one
        cohort; non-analytic scenarios keep the solo path.  ``None`` (the
        default) derives the size from the persisted cost model's recorded
        cohort speedup (see :func:`derive_batch_size`) — 1 when there is no
        calibration history.
    """

    def __init__(self, cluster: "Transport | str | Path",
                 worker_id: Optional[str] = None,
                 shard: Optional[int] = None,
                 steal: bool = True,
                 crash_after_claims: Optional[int] = None,
                 on_outcome: Optional[Callable[[ScenarioOutcome], None]] = None,
                 cache_dir: "Optional[str | Path]" = ...,
                 batch_size: Optional[int] = None,
                 ) -> None:
        if isinstance(cluster, Transport):
            self.transport = cluster
        else:
            self.transport = FilesystemTransport(cluster)
        self.plan = self.transport.plan
        if worker_id is None:
            worker_id = f"{os.uname().nodename}-{os.getpid()}"
        self.worker_id = worker_id
        self.steal = steal
        if cache_dir is ...:
            cache_dir = self.plan.cache_dir
        if batch_size is None:
            batch_size = derive_batch_size(self.plan, cache_dir=cache_dir)
            if batch_size > 1:
                logger.info("[%s] auto-derived cohort batch size %d from "
                            "recorded cost model", worker_id, batch_size)
        self.batch_size = max(1, int(batch_size))
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
        #: Runs this worker's cohorts on one shared backend, so FEU tables
        #: and physics chains stay warm between steps.
        self._cohorts = None
        self._cache = None if cache_dir is None else ResumeCache(cache_dir)
        #: Refreshes the leases of the scenarios running right now.
        self._heartbeat = _Heartbeat(self.transport, self.worker_id,
                                     self.plan.lease_timeout / 3.0)
        #: The plan's supervision policy (``None`` on unguarded plans):
        #: installed into every execution and the trigger for routing
        #: failures through ``record_failure`` instead of ``submit_result``.
        self.guard = self.plan.guard_policy()
        self.shard = self.transport.register_worker(self.worker_id, shard)
        self._own_indices = frozenset(
            self.plan.shard_plan.shards[self.shard])
        # Observability: a per-worker metrics registry when REPRO_OBS
        # enables metrics, shipped to the coordinator through the
        # transport's idempotent ``telemetry`` op on close().  None — the
        # production default — costs nothing on the claim/execute path.
        from repro.obs import config_from_env

        config = config_from_env()
        self.metrics = None
        if config is not None and config.metrics:
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
        return [index for index in self.plan.shard_plan.shards[shard_id]
                if snapshot.is_available(index, timeout)]

    def _refresh(self) -> None:
        """Take a new snapshot and rebuild the candidate list from it."""
        self._last_snapshot = self.transport.snapshot()
        self._candidates = collections.deque(
            self._next_candidates(self._last_snapshot))
        self._fresh = True

    def _peek(self) -> Optional[int]:
        """Next candidate, refreshing once the cached list runs dry;
        ``None`` when even a fresh snapshot has nothing to offer."""
        if not self._candidates and not self._fresh:
            self._refresh()
        return self._candidates[0] if self._candidates else None

    def _claim(self, index: int) -> bool:
        """Try to claim the head candidate ``index``.

        A refusal on a cached (not fresh) view means the view is stale:
        the list is dropped so the next :meth:`_peek` reads a new snapshot.
        A refusal on a fresh view just moves on to the next candidate.
        """
        self._candidates.popleft()
        if self.transport.try_claim(index, self.worker_id):
            self._note_claim(index)
            return True
        if not self._fresh:
            self._candidates.clear()
        return False

    def _next_candidates(self, snapshot: TaskSnapshot):
        """Yield candidate indices in claim-priority order.

        Own shard front-to-back first; then, if stealing, other shards by
        descending remaining estimated cost, robbed back-to-front.
        """
        yield from self._pending_of_shard(snapshot, self.shard)
        if not self.steal:
            return
        plan = self.plan.shard_plan
        victims = []
        for shard_id in range(plan.num_shards):
            if shard_id == self.shard:
                continue
            pending = self._pending_of_shard(snapshot, shard_id)
            if not pending:
                continue
            remaining = sum(plan.scenario_costs[index] for index in pending)
            victims.append((-remaining, shard_id, pending))
        victims.sort()
        for _, _, pending in victims:
            yield from reversed(pending)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _load_cached(self, index: int) -> Optional[ScenarioOutcome]:
        """Resume-cache lookup for ``index`` (updates the cache report)."""
        if self._cache is None:
            return None
        spec = self.plan.specs[index]
        outcome, reason = self._cache.load(spec, self.plan.seeds[index],
                                           self.plan.duration)
        if outcome is not None:
            self.cache_report.hits.append(spec.name)
        elif reason is not None:
            self.cache_report.skips.append(CacheSkip(spec.name, reason))
        else:
            self.cache_report.misses.append(spec.name)
        return outcome

    def _compute(self, index: int) -> ScenarioOutcome:
        """Produce the outcome for ``index`` (cache hit or execution) —
        submission is separate so the lease can be re-checked between the
        two."""
        outcome = self._load_cached(index)
        if outcome is None:
            spec = self.plan.specs[index]
            # Unguarded plans keep the exact pre-guard call (and signature,
            # for test doubles); the keyword only appears when a policy is
            # actually in force.
            guard_kwargs = {} if self.guard is None else {"guard": self.guard}
            try:
                outcome = execute_scenario(spec, self.plan.seeds[index],
                                           self.plan.duration,
                                           **guard_kwargs)
            except MemoryError:
                # execute_scenario catches MemoryError from the scenario
                # itself; this one fired outside it (cache I/O, outcome
                # assembly).  Same taxonomy: an oom failure.
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
        age = self._last_snapshot.lease_ages.get(index)
        if age is not None and age >= self.plan.lease_timeout:
            # The claim displaced a stale lease: a peer died (or was
            # presumed dead) mid-scenario and this worker took over.
            self.metrics.counter("repro_worker_takeovers_total")

    def _submit(self, index: int, outcome: ScenarioOutcome) -> None:
        self._attempts += 1
        self.transport.submit_result(self.worker_id, index, outcome,
                                     attempt=self._attempts)
        self.executed.append(index)
        if self.metrics is not None:
            self.metrics.counter("repro_worker_submits_total",
                                 status=outcome.status)
            if outcome.from_cache:
                self.metrics.counter("repro_worker_cache_hits_total")
            else:
                self.metrics.counter("repro_worker_scenarios_executed_total")
                self.metrics.observe("repro_worker_scenario_wall_seconds",
                                     outcome.wall_time)
            self.metrics.counter("repro_worker_events_processed_total",
                                 outcome.events_processed)
            self.metrics.counter("repro_worker_events_elided_total",
                                 outcome.events_elided)
        if self.on_outcome is not None:
            self.on_outcome(outcome)

    def _report_failure(self, index: int, outcome: ScenarioOutcome) -> None:
        """Charge a failed execution against the scenario's retry budget.

        The transport releases this worker's lease (the scenario goes back
        to pending for a retry — possibly by this same worker) and, once
        the budget is spent, quarantines it: a durable record plus a
        synthetic ``quarantined`` outcome in the sinks, so the sweep still
        completes.  An ``oom`` failure additionally halves this worker's
        cohort batch size — smaller cohorts are the one lever a worker has
        against its own memory ceiling.
        """
        self._attempts += 1
        self.failed.append(index)
        # The scenario is pending again (or quarantined): re-read the task
        # state so a retry comes first, exactly as from a fresh snapshot.
        self._candidates.clear()
        if self.metrics is not None:
            self.metrics.counter("repro_worker_failures_total",
                                 status=outcome.status)
        if outcome.status == "oom" and self.batch_size > 1:
            self.batch_size = max(1, self.batch_size // 2)
            logger.warning("[%s] oom on scenario %d; cohort batch size "
                           "halved to %d", self.worker_id, index,
                           self.batch_size)
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

    def _execute_claimed(self, index: int) -> int:
        """Run one freshly claimed scenario under its heartbeat and submit
        (or abort/report) it."""
        self._heartbeat.watch(index)
        try:
            outcome = self._compute(index)
        finally:
            lost = self._heartbeat.unwatch(index)
        # The loss flag is final once unwatched.  A worker that was
        # presumed dead and displaced must abort instead of submitting —
        # its peer took the lease over and owns this scenario's submission
        # now; submitting both would double-count it.
        if lost:
            self._abort(index)
            return index
        if (self.guard is not None and not outcome.ok
                and not outcome.from_cache):
            self._report_failure(index, outcome)
            return index
        self._submit(index, outcome)
        return index

    def _abort(self, index: int) -> None:
        self.aborted.append(index)
        self._candidates.clear()  # a peer took over: our view is stale
        if self.metrics is not None:
            self.metrics.counter("repro_worker_aborts_total")
        logger.warning(
            "[%s] lease for scenario %d was taken over while "
            "running; discarding the local result", self.worker_id, index)

    def _crash_hook(self) -> bool:
        """Test hook: simulated death after the N-th successful claim —
        keep the lease(s), never heartbeat, write nothing.  The leases go
        stale and the scenarios are reclaimed by peers."""
        if (self.crash_after_claims is not None
                and self._claims >= self.crash_after_claims):
            self.crashed = True
            return True
        return False

    def step(self) -> Optional[int]:
        """Claim and execute one scenario (or one cohort of scenarios, with
        ``batch_size > 1``); ``None`` when nothing is left.

        "Nothing" means: no pending scenario this worker may take right now.
        Live leases held by other workers are *not* waited for — callers
        that want to drain a grid poll :meth:`step` (or use :meth:`run`)
        until the coordinator reports completion.

        Claims go through the candidate list built from the last snapshot,
        so a pass over N scenarios costs O(N) RPCs, not O(N) snapshots of
        N scenarios each.  A new snapshot is taken only when the cached
        view is known to be stale: a claim was refused, a failure was
        reported (the retry must come first), a lease was aborted, or the
        list ran dry.  Claiming from a stale view is safe because
        :meth:`~repro.cluster.transport.Transport.try_claim` is atomic and
        authoritative — the worst a stale candidate costs is one refused
        claim.  ``None`` is returned only after a fresh snapshot offered
        nothing, so :meth:`run`'s completion check always reads a snapshot
        taken in this step.
        """
        if self.crashed:
            return None
        self._fresh = False
        if self.batch_size > 1:
            return self._step_cohort()
        while (index := self._peek()) is not None:
            if not self._claim(index):
                continue
            if self._crash_hook():
                return None
            return self._execute_claimed(index)
        return None

    def _step_cohort(self) -> Optional[int]:
        """Claim up to ``batch_size`` analytic scenarios and run them as one
        vectorized cohort — one watched lease per member, so each
        member aborts or submits individually exactly as on the solo path.
        """
        from repro.runtime.batch import CohortExecutor, cohortable

        claimed: list[int] = []
        while len(claimed) < self.batch_size:
            if claimed and not self._candidates:
                break  # run the members in hand; the next step refreshes
            index = self._peek()
            if index is None:
                break
            solo = not cohortable(self.plan.specs[index])
            if solo and claimed:
                # Run the cohort gathered so far first; the non-analytic
                # scenario stays claimable for the next step (or a peer).
                break
            if not self._claim(index):
                continue
            if self._crash_hook():
                return None
            if solo:
                return self._execute_claimed(index)
            claimed.append(index)
        if not claimed:
            return None
        if len(claimed) == 1:
            return self._execute_claimed(claimed[0])

        # Cache hits submit straight away (their leases are fresh); the
        # misses form the cohort.
        payloads = []
        for index in claimed:
            outcome = self._load_cached(index)
            if outcome is not None:
                self._submit(index, outcome)
            else:
                payloads.append((index, self.plan.specs[index],
                                 self.plan.seeds[index], self.plan.duration))
        if not payloads:
            return claimed[0]
        if self._cohorts is None:
            self._cohorts = CohortExecutor()
        for payload in payloads:
            self._heartbeat.watch(payload[0])
        try:
            # A cohort that blows the memory ceiling comes back as oom
            # failures, and _report_failure halves the batch size so the
            # retries come back smaller.
            outcomes = self._cohorts.execute(payloads, guard=self.guard)
        finally:
            lost = {payload[0]: self._heartbeat.unwatch(payload[0])
                    for payload in payloads}
        # Per-member loss flags are final once unwatched: a displaced
        # member aborts while the rest submit.
        specs = {payload[0]: payload[1] for payload in payloads}
        for index, outcome in outcomes:
            if lost[index]:
                self._abort(index)
                continue
            if self.guard is not None and not outcome.ok:
                self._report_failure(index, outcome)
                continue
            if self._cache is not None:
                self._cache.store(specs[index], outcome, self.plan.duration)
            self._submit(index, outcome)
        return claimed[0]

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

        Also the telemetry ship point: the metrics registry (when
        ``REPRO_OBS`` enabled one) is uploaded as a whole snapshot through
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
        description="Run one sweep-cluster worker against a shared cluster "
                    "directory or a TCP coordinator.")
    where = parser.add_mutually_exclusive_group(required=True)
    where.add_argument("--cluster-dir", default=None,
                       help="shared directory containing plan.json")
    where.add_argument("--coordinator", default=None, metavar="HOST:PORT",
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
    parser.add_argument("--batch-size", type=int, default=None,
                        help="vectorized cohort size: claim up to this many "
                             "analytic scenarios per step and advance them "
                             "as one cohort (default: auto — derived from "
                             "the recorded cost model's cohort speedup, 1 "
                             "without calibration history)")
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

    from repro.obs.logconf import configure_logging

    configure_logging(verbose=args.verbose)

    if args.coordinator is not None:
        transport: Transport = SocketTransport(args.coordinator)
    else:
        transport = FilesystemTransport(args.cluster_dir)

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
        cache_dir=cache_dir, batch_size=args.batch_size)
    logger.info("[%s] serving shard %d of %d over %s (%d scenarios total)",
                worker.worker_id, worker.shard,
                worker.plan.shard_plan.num_shards, transport.kind,
                len(worker.plan.specs))
    executed = worker.run(wait_for_stragglers=not args.no_wait)
    logger.info("[%s] done: %d scenario(s) executed", worker.worker_id,
                executed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
