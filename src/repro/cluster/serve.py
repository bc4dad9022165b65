"""TCP coordinator service: the cluster protocol without a shared filesystem.

``python -m repro.cluster.serve`` plans a grid, listens on a socket, and
answers the length-prefixed JSON frames of
:class:`~repro.cluster.transport.SocketTransport` workers.  Every operation
is applied to a **local** :class:`~repro.cluster.transport.FilesystemTransport`
over the server's own cluster directory, which buys three properties for
free:

* **Atomic lease grants** — claims and stale-lease takeovers go through the
  same atomic file primitives the shared-directory protocol uses, serialised
  inside one process.
* **Durable coordinator state** — leases, done markers and result parts
  survive a coordinator restart; re-starting ``serve`` on the same directory
  resumes the sweep exactly like re-planning a filesystem cluster does.
* **One semantics** — the filesystem and socket transports cannot drift,
  because the socket transport *is* the filesystem transport plus a wire.

Workers stream results over their connection; the server writes them into
ordinary per-worker :class:`~repro.cluster.sinks.ResultSink` parts and the
merge is the standard :meth:`ClusterCoordinator.merge`.

Quickstart (three machines, no shared storage)::

    # coordinator box
    python -m repro.cluster.serve --port 7766 --cluster-dir ./grid \\
        --paper-grid --backend analytic --duration 30 \\
        --exit-when-complete --out grid.json

    # each worker box
    python -m repro.cluster.worker --coordinator coordinator-host:7766

Pass ``--autoscale N`` to let the coordinator also run a local
:class:`~repro.cluster.scaling.ProcessPoolScaler` growing/shrinking up to
``N`` worker processes on its own machine from queue depth.
"""

from __future__ import annotations

import argparse
import logging
import socketserver
import threading
import time
from pathlib import Path
from typing import Optional

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.scaling import ProcessPoolScaler, QueueDepthPolicy, ScalePolicy
from repro.cluster.sinks import SINK_KINDS
from repro.cluster.transport import (
    MAX_FRAME_BYTES,
    FilesystemTransport,
    FrameDecodeError,
    FrameTooLarge,
    TransportError,
    drain_exact,
    recv_frame,
    send_frame,
)
from repro.runtime.sweep import ScenarioOutcome

logger = logging.getLogger("repro.cluster.serve")


class ClusterCoordinatorServer(socketserver.ThreadingTCPServer):
    """Threaded TCP frontend over a :class:`ClusterCoordinator`'s directory.

    One handler thread per worker connection; state-changing operations are
    applied to the local filesystem transport (claims additionally serialise
    on a server-side lock, making the lease grant atomic even across
    noncompliant filesystems).
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, coordinator: ClusterCoordinator,
                 address: tuple[str, int] = ("127.0.0.1", 0),
                 reset: bool = False) -> None:
        # Unconditional: refreshes the plan of the *same* sweep (resume) and
        # raises loudly if the directory holds a different sweep's state —
        # silently serving a stale plan.json would hand workers the wrong
        # scenarios while status/merge evaluate the new grid.  The server
        # owns plan writing; pass ``reset`` to discard a different sweep.
        coordinator.write_plan(reset=reset)
        self.coordinator = coordinator
        # The plan just written, from memory: the same fields
        # ``ClusterPlan.load`` would parse back out of plan.json.
        self.local = FilesystemTransport(coordinator.cluster_dir,
                                         plan=coordinator.cluster_plan())
        self._claim_lock = threading.Lock()
        self._serve_thread: Optional[threading.Thread] = None
        super().__init__(address, _ClusterRequestHandler)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> str:
        """The bound ``host:port`` (workers' ``--coordinator`` value)."""
        host, port = self.server_address[:2]
        return f"{host}:{port}"

    def start_background(self) -> threading.Thread:
        """Serve connections on a daemon thread; returns the thread."""
        if self._serve_thread is None:
            self._serve_thread = threading.Thread(
                target=self.serve_forever, name="cluster-serve", daemon=True)
            self._serve_thread.start()
        return self._serve_thread

    def stop(self) -> None:
        """Stop accepting, close the listener and flush the sinks."""
        self.shutdown()
        self.server_close()
        self.local.close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10.0)
            self._serve_thread = None

    # ------------------------------------------------------------------ #
    # Operation dispatch
    # ------------------------------------------------------------------ #
    def dispatch(self, frame: dict) -> dict:
        """Apply one request frame; returns the response frame."""
        op = frame.get("op")
        try:
            if op == "plan":
                # The document written to plan.json, not rebuilt per
                # connection.
                return {"ok": True, "plan": self.coordinator.written_plan}
            if op == "register":
                shard = self.local.register_worker(
                    str(frame["worker_id"]), frame.get("shard"))
                return {"ok": True, "shard": shard}
            if op == "snapshot":
                return {"ok": True,
                        "snapshot": self.local.snapshot().to_dict()}
            if op == "claim":
                index = self._checked_index(frame)
                with self._claim_lock:
                    granted = self.local.try_claim(index,
                                                   str(frame["worker_id"]))
                return {"ok": True, "granted": granted}
            if op == "heartbeat":
                alive = self.local.heartbeat(self._checked_index(frame),
                                             str(frame["worker_id"]))
                return {"ok": True, "alive": alive}
            if op == "submit":
                outcome = ScenarioOutcome.from_dict(frame["outcome"])
                self.local.submit_result(str(frame["worker_id"]),
                                         self._checked_index(frame), outcome,
                                         attempt=int(frame.get("attempt", 0)))
                return {"ok": True}
            if op == "fail":
                outcome = ScenarioOutcome.from_dict(frame["outcome"])
                # Failure accounting can trigger a quarantine, which submits
                # a synthetic result and releases the lease — serialise with
                # claims so a takeover cannot race the quarantine decision.
                with self._claim_lock:
                    charged = self.local.record_failure(
                        str(frame["worker_id"]), self._checked_index(frame),
                        outcome, attempt=int(frame.get("attempt", 0)))
                return {"ok": True, **charged}
            if op == "telemetry":
                metrics = frame["metrics"]
                if not isinstance(metrics, dict):
                    raise ValueError("telemetry metrics must be an object")
                self.local.send_telemetry(str(frame["worker_id"]), metrics)
                return {"ok": True}
            if op == "status":
                return {"ok": True, "status": self.status()}
            return {"ok": False, "error": f"unknown operation {op!r}"}
        except (KeyError, TypeError, ValueError, TransportError) as error:
            return {"ok": False, "error": f"{op}: {error!r}"}

    def _checked_index(self, frame: dict) -> int:
        index = int(frame["index"])
        if not 0 <= index < len(self.local.plan.specs):
            raise ValueError(f"scenario index {index} out of range")
        return index

    # ------------------------------------------------------------------ #
    # Monitoring
    # ------------------------------------------------------------------ #
    def status(self) -> dict:
        """Coordinator progress plus completion/registration counters."""
        status = self.coordinator.status(include_owners=True)
        status["complete"] = status["total"]["done"] >= status["scenarios"]
        status["registered_workers"] = self.local.registered_workers()
        return status

    def is_complete(self) -> bool:
        """Whether every scenario has a done marker."""
        return self.coordinator.is_complete()


class _ClusterRequestHandler(socketserver.BaseRequestHandler):
    """One worker connection: request/response frames until EOF.

    Malformed input does not take the connection (or the server) down:

    * an **oversized** frame announcement gets a structured
      ``{"ok": False, "error": ...}`` response; the announced body is
      drained (up to a bounded limit) so the stream is back on a frame
      boundary and the connection keeps serving.  Absurd announcements
      beyond the drain limit close the connection instead — the length
      prefix cannot be trusted, so neither can the rest of the stream.
    * an **undecodable** body (bad UTF-8 / JSON, or a non-object frame)
      gets a structured error response and the connection keeps serving:
      the body was fully consumed, so the stream is still framed.

    Other transport faults and socket errors close the connection; the
    server itself keeps accepting either way.
    """

    #: Most bytes we are willing to discard to resynchronise after an
    #: oversized frame announcement before giving up on the connection.
    MAX_DRAIN_BYTES = 4 * MAX_FRAME_BYTES

    def handle(self) -> None:  # pragma: no cover - exercised via transport
        while True:
            try:
                frame = recv_frame(self.request)
            except FrameTooLarge as error:
                if not self._reject(f"rejected frame: {error}"):
                    return
                if error.length > self.MAX_DRAIN_BYTES:
                    logger.warning(
                        "[serve] closing connection after a %d-byte frame "
                        "announcement (drain limit %d)", error.length,
                        self.MAX_DRAIN_BYTES)
                    return
                if not drain_exact(self.request, error.length):
                    return
                continue
            except FrameDecodeError as error:
                # Body fully consumed; the stream is still on a boundary.
                if not self._reject(f"rejected frame: {error}"):
                    return
                continue
            except (TransportError, OSError):
                return
            if frame is None:
                return
            response = self.server.dispatch(frame)
            try:
                send_frame(self.request, response)
            except OSError:
                return

    def _reject(self, message: str) -> bool:
        """Send a structured error frame; ``False`` if the peer is gone."""
        logger.warning("[serve] %s (peer %s)", message, self.client_address)
        try:
            send_frame(self.request, {"ok": False, "error": message})
        except OSError:
            return False
        return True


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Serve a sharded sweep to TCP workers "
                    "(python -m repro.cluster.worker --coordinator "
                    "HOST:PORT).")
    parser.add_argument("--host", default="0.0.0.0",
                        help="interface to bind (default: all)")
    parser.add_argument("--port", type=int, default=7766,
                        help="TCP port to listen on")
    parser.add_argument("--cluster-dir", default=".serve_cluster",
                        help="coordinator-local directory for plan, leases "
                             "and result parts (not shared with workers)")
    parser.add_argument("--hardware", default="Lab",
                        choices=("Lab", "QL2020"),
                        help="hardware scenario for the sub-grid")
    parser.add_argument("--paper-grid", action="store_true",
                        help="serve the full 169-scenario paper grid")
    parser.add_argument("--duration", type=float, default=0.4,
                        help="simulated seconds per scenario")
    parser.add_argument("--shards", type=int, default=3,
                        help="number of shards to plan")
    parser.add_argument("--seed", type=int, default=12345,
                        help="master seed (per-scenario seeds are derived)")
    parser.add_argument("--sink", default="jsonl", choices=sorted(SINK_KINDS),
                        help="result sink the server writes parts through")
    parser.add_argument("--lease-timeout", type=float, default=60.0,
                        help="seconds without a heartbeat before a lease "
                             "may be taken over")
    parser.add_argument("--skew-tolerance", type=float, default=5.0,
                        help="extra seconds of observed lease age forgiven "
                             "for cross-machine clock skew before a lease "
                             "counts as stale")
    parser.add_argument("--batch", type=int, default=50,
                        help="MHP attempt batch size")
    parser.add_argument("--backend", default=None,
                        help="physics backend (density/analytic/"
                             "analytic-exact; default $REPRO_BACKEND)")
    parser.add_argument("--cache-dir", default="",
                        help="coordinator-local resume-cache directory "
                             "advertised in the plan ('' disables)")
    parser.add_argument("--reset", action="store_true",
                        help="discard state a previous (different) sweep "
                             "left in --cluster-dir")
    parser.add_argument("--max-events", type=int, default=0,
                        help="guard: per-scenario simulator event budget "
                             "(0 disables)")
    parser.add_argument("--wall-deadline", type=float, default=0.0,
                        help="guard: per-scenario wall-clock deadline in "
                             "seconds (0 disables)")
    parser.add_argument("--max-attempts", type=int, default=2,
                        help="guard: attempts per scenario before it is "
                             "quarantined")
    parser.add_argument("--validate", action="store_true",
                        help="guard: validate results (ranges, finiteness, "
                             "density-matrix sanity) before accepting them")
    parser.add_argument("--autoscale", type=int, default=0, metavar="N",
                        help="run up to N local worker processes, scaled "
                             "from queue depth (0 disables)")
    parser.add_argument("--scale-interval", type=float, default=1.0,
                        help="seconds between autoscaling rounds")
    parser.add_argument("--poll-interval", type=float, default=0.5,
                        help="seconds between completion checks")
    parser.add_argument("--exit-when-complete", action="store_true",
                        help="merge, persist the cost model and exit once "
                             "every scenario is done")
    parser.add_argument("--linger", type=float, default=2.0,
                        help="seconds to keep answering workers after "
                             "completion before shutting down")
    parser.add_argument("--out", default="",
                        help="write the merged sweep result JSON here on "
                             "completion")
    parser.add_argument("--verbose", action="store_true",
                        help="DEBUG-level logging (default INFO; see also "
                             "$REPRO_LOG)")
    return parser


def build_grid(args: argparse.Namespace):
    """The scenario list the CLI serves (paper grid or Lab/QL2020 sub-grid)."""
    from repro.runtime import paper_grid, single_kind_scenarios

    if args.paper_grid:
        return paper_grid(attempt_batch_size=args.batch,
                          backend=args.backend)
    return single_kind_scenarios(
        args.hardware, kinds=("NL", "CK", "MD"), loads=("Low", "High"),
        max_pairs_options=(1,), origins=("A", "B"),
        include_md_k255=False, attempt_batch_size=args.batch,
        backend=args.backend)


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point: ``python -m repro.cluster.serve``."""
    from repro.obs.logconf import configure_logging

    args = build_parser().parse_args(argv)
    configure_logging(verbose=args.verbose)
    specs = build_grid(args)
    guard = None
    if args.max_events > 0 or args.wall_deadline > 0 or args.validate:
        from repro.runtime.guard import GuardPolicy

        guard = GuardPolicy(
            max_events=args.max_events or None,
            wall_deadline=args.wall_deadline or None,
            max_attempts=args.max_attempts, validate=args.validate)
    coordinator = ClusterCoordinator(
        specs, args.duration, args.cluster_dir, master_seed=args.seed,
        num_shards=args.shards, sink=args.sink,
        lease_timeout=args.lease_timeout,
        clock_skew_tolerance=args.skew_tolerance,
        cache_dir=args.cache_dir or None, guard=guard)
    server = ClusterCoordinatorServer(coordinator, (args.host, args.port),
                                      reset=args.reset)
    server.start_background()
    plan = coordinator.plan()
    logger.info("[serve] %d scenarios x %.2fs simulated in %d shard(s) on "
                "%s (sink %s, lease timeout %.0fs)", len(specs),
                args.duration, plan.num_shards, server.address, args.sink,
                args.lease_timeout)
    logger.info("[serve] workers: python -m repro.cluster.worker "
                "--coordinator <this-host>:%d", server.server_address[1])

    scaler: Optional[ProcessPoolScaler] = None
    if args.autoscale > 0:
        policy: ScalePolicy = QueueDepthPolicy(min_workers=1,
                                               max_workers=args.autoscale)
        # Local workers must dial an address the listener actually covers:
        # loopback only works when binding all interfaces (or loopback).
        scale_host = ("127.0.0.1" if args.host in ("", "0.0.0.0", "::")
                      else args.host)
        scaler = ProcessPoolScaler(f"{scale_host}:{server.server_address[1]}",
                                   policy=policy)

    last_done = -1
    next_scale = 0.0
    try:
        while True:
            status = server.status()
            done = status["total"]["done"]
            if done != last_done:
                logger.info(
                    "[serve] progress: %d/%d done, %d leased, %d stale, "
                    "%d pending (%d worker registration(s))", done,
                    status["scenarios"], status["total"]["leased"],
                    status["total"]["stale"], status["total"]["pending"],
                    status["registered_workers"])
                last_done = done
            if scaler is not None and time.monotonic() >= next_scale:
                advice = scaler.scale_once(status)
                if not advice.is_noop:
                    logger.info("[serve] autoscale: spawn %d, retire %d (%s)",
                                advice.spawn, advice.retire, advice.reason)
                next_scale = time.monotonic() + args.scale_interval
            if status["complete"] and args.exit_when_complete:
                break
            time.sleep(args.poll_interval)
    except KeyboardInterrupt:
        logger.info("[serve] interrupted; coordinator state is durable — "
                    "re-run serve on the same --cluster-dir to resume")
        if scaler is not None:
            scaler.shutdown()
        server.stop()
        return 130

    # Complete: give standing-by workers a moment to observe the final
    # snapshot and exit cleanly, then merge and persist.
    time.sleep(max(0.0, args.linger))
    if scaler is not None:
        scaler.shutdown()
    server.stop()
    result = coordinator.merge()
    recorded = coordinator.record_costs(result)
    logger.info("[serve] merged %d outcome(s): %d ok / %d failed",
                len(result.outcomes), len(result.completed),
                len(result.failed))
    if result.telemetry is not None:
        logger.info("[serve] merged worker telemetry written to %s",
                    Path(args.cluster_dir) / "metrics.json")
    if recorded is not None:
        logger.info("[serve] cost model updated at %s", recorded)
    if args.out:
        result.save(args.out)
        logger.info("[serve] merged sweep result written to %s", args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
