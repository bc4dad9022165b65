"""TCP coordinator service: the cluster protocol without a shared filesystem.

``python -m repro.cluster.serve`` plans a grid, listens on a socket, and
carries the length-prefixed JSON frames of
:class:`~repro.cluster.transport.SocketTransport` workers to the
coordinator's one :class:`~repro.cluster.state.CoordinatorState`.  The
server decides nothing itself: it answers ``plan`` and hands every other
frame to :meth:`CoordinatorState.apply
<repro.cluster.state.CoordinatorState.apply>`, which is the protocol, with
the server's clock as the time of the operation.  Lease grants are atomic
because the state serialises them in one process, and lease ages are
measured on one clock whatever the workers' clocks say.

The state's durable effects — done records, result parts, fail and death
markers, quarantine records — stay in the server's cluster directory;
re-starting ``serve`` on the same directory resumes the sweep, with every
lease of the old run expired.

Workers stream results over their connection as plain outcome records; the
state checks each record and writes it, as received, into ordinary
per-worker :class:`~repro.cluster.sinks.ResultSink` parts, and the merge is
the standard :meth:`ClusterCoordinator.merge`.  The ``plan`` response is
built once from the text written to ``plan.json`` and sent as those bytes to
every connection.

Quickstart (three machines, no shared storage)::

    # coordinator box
    python -m repro.cluster.serve --port 7766 --cluster-dir ./grid \\
        --paper-grid --backend analytic --duration 30 \\
        --exit-when-complete --out grid.json

    # each worker box
    python -m repro.cluster.worker --coordinator coordinator-host:7766
"""

from __future__ import annotations

import argparse
import logging
import socket
import socketserver
import threading
import time
from pathlib import Path
from typing import Callable, Optional

from repro.cluster.coordinator import METRICS_JSON, ClusterCoordinator
from repro.cluster.transport import (
    MAX_FRAME_BYTES,
    FrameDecodeError,
    FrameTooLarge,
    TransportError,
    drain_exact,
    recv_frame,
    send_body,
    send_frame,
)

logger = logging.getLogger("repro.cluster.serve")


class ClusterCoordinatorServer(socketserver.ThreadingTCPServer):
    """Threaded TCP front-end over a :class:`ClusterCoordinator`'s state.

    One handler thread per worker connection; every frame but ``plan`` is
    passed to :meth:`CoordinatorState.apply` at ``clock()``, and its
    response sent back.  A frame the state refuses is answered ``ok:
    false`` and the connection keeps serving.
    """

    allow_reuse_address = True
    daemon_threads = True
    #: Seconds between the serving thread's checks for :meth:`stop`, which
    #: waits for the next one.
    poll_interval = 0.05

    def __init__(self, coordinator: ClusterCoordinator,
                 address: tuple[str, int] = ("127.0.0.1", 0),
                 reset: bool = False,
                 clock: Callable[[], float] = time.time) -> None:
        # Unconditional: refreshes the plan of the *same* sweep (resume) and
        # raises loudly if the directory holds a different sweep's state —
        # silently serving a stale plan.json would hand workers the wrong
        # scenarios while status/merge evaluate the new grid.  The server
        # owns plan writing; pass ``reset`` to discard a different sweep.
        coordinator.write_plan(reset=reset)
        self.coordinator = coordinator
        self.state = coordinator.state
        #: The coordinator's one clock: the time of every operation.
        self.clock = clock
        #: The ``plan`` response body, ``json.dumps({"ok": True, "plan":
        #: written_plan})`` byte for byte, built from the written text
        #: once instead of encoding the document per connection.
        self.plan_body = ('{"ok": true, "plan": '
                          + coordinator.written_plan_text + "}").encode()
        self._serve_thread: Optional[threading.Thread] = None
        #: The open worker connections, shut down by :meth:`stop`.
        self.connections: set[socket.socket] = set()
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
                target=self.serve_forever, args=(self.poll_interval,),
                name="cluster-serve", daemon=True)
            self._serve_thread.start()
        return self._serve_thread

    def stop(self) -> None:
        """Stop accepting, close the listener, every open connection and
        the sink parts: a stopped server answers no frame, as if its
        process had exited."""
        if self._serve_thread is not None:
            self.shutdown()
            self._serve_thread.join(timeout=10.0)
            self._serve_thread = None
        self.server_close()
        for connection in list(self.connections):
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        with self.state.lock:
            self.state.close()

    # ------------------------------------------------------------------ #
    # Operation dispatch
    # ------------------------------------------------------------------ #
    def dispatch(self, frame: dict) -> "dict | bytes":
        """Answer one request frame: ``plan`` with its encoded body
        (:attr:`plan_body`), every other frame with
        :meth:`CoordinatorState.apply` at ``clock()``."""
        if frame.get("op") == "plan":
            return self.plan_body
        return self.state.apply(frame, self.clock())

    # ------------------------------------------------------------------ #
    # Monitoring
    # ------------------------------------------------------------------ #
    def status(self) -> dict:
        """Coordinator progress plus completion/registration counters."""
        return self.coordinator.status(self.clock())

    def is_complete(self) -> bool:
        """Whether a done record names every scenario."""
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

    def setup(self) -> None:
        self.server.connections.add(self.request)

    def finish(self) -> None:
        self.server.connections.discard(self.request)

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
                if isinstance(response, bytes):
                    send_body(self.request, response)
                else:
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
                        help="coordinator-local directory for the plan, "
                             "done records and result parts (not shared "
                             "with workers)")
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
    parser.add_argument("--lease-timeout", type=float, default=60.0,
                        help="seconds without a heartbeat before a lease "
                             "may be taken over")
    parser.add_argument("--batch", type=int, default=50,
                        help="MHP attempt batch size")
    parser.add_argument("--backend", default=None,
                        help="physics backend (density/analytic; "
                             "default $REPRO_BACKEND)")
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
    parser.add_argument("--poll-interval", type=float, default=0.5,
                        help="seconds between completion checks")
    parser.add_argument("--exit-when-complete", action="store_true",
                        help="merge and exit once every scenario is done")
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
        num_shards=args.shards,
        lease_timeout=args.lease_timeout,
        cache_dir=args.cache_dir or None, guard=guard)
    server = ClusterCoordinatorServer(coordinator, (args.host, args.port),
                                      reset=args.reset)
    server.start_background()
    logger.info("[serve] %d scenarios x %.2fs simulated in %d shard(s) on "
                "%s (lease timeout %.0fs)", len(specs),
                args.duration, coordinator.num_shards, server.address,
                args.lease_timeout)
    logger.info("[serve] workers: python -m repro.cluster.worker "
                "--coordinator <this-host>:%d", server.server_address[1])

    last_done = -1
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
            if status["complete"] and args.exit_when_complete:
                break
            time.sleep(args.poll_interval)
    except KeyboardInterrupt:
        logger.info("[serve] interrupted; done records and result parts are "
                    "durable — re-run serve on the same --cluster-dir to "
                    "resume")
        server.stop()
        return 130

    # Complete: give standing-by workers a moment to observe the final
    # snapshot and exit cleanly, then merge.
    time.sleep(max(0.0, args.linger))
    server.stop()
    result = coordinator.merge()
    logger.info("[serve] merged %d outcome(s): %d ok / %d failed",
                len(result.outcomes), len(result.completed),
                len(result.failed))
    if result.telemetry is not None:
        logger.info("[serve] merged worker telemetry written to %s",
                    Path(args.cluster_dir) / METRICS_JSON)
    if args.out:
        result.save(args.out)
        logger.info("[serve] merged sweep result written to %s", args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
