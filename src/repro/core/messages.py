"""Message and request types exchanged between the layers (paper Appendix E).

Every packet format of the paper's Appendix E has a dataclass counterpart
here.  We keep them as plain Python objects rather than byte strings: the
evaluation studies protocol behaviour, not wire encoding.  Field names follow
the packet diagrams (Figures 24, 27, 28, 31-39).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import NamedTuple, Optional

from repro.quantum.states import BellIndex


class RequestType(Enum):
    """CREATE request type: create-and-keep (K) or create-and-measure (M)."""

    KEEP = "K"
    MEASURE = "M"


class Priority(IntEnum):
    """Request priorities used by the scheduler (lower value = higher priority).

    The paper uses three priorities, one per use case: network layer (NL),
    create-and-keep applications (CK) and measure-directly applications (MD).
    """

    NL = 1
    CK = 2
    MD = 3


class ErrorCode(Enum):
    """Error conditions the EGP can report to higher layers (Section 4.1.2)."""

    TIMEOUT = "TIMEOUT"
    UNSUPP = "UNSUPP"
    MEMEXCEEDED = "MEMEXCEEDED"
    OUTOFMEM = "OUTOFMEM"
    DENIED = "DENIED"
    EXPIRE = "EXPIRE"
    NOTIME = "NOTIME"
    REJECTED = "REJECTED"


class MHPError(Enum):
    """Errors reported by the MHP / midpoint (paper Protocol 1)."""

    NONE = "OK"
    GEN_FAIL = "GEN_FAIL"
    QUEUE_MISMATCH = "QUEUE_MISMATCH"
    TIME_MISMATCH = "TIME_MISMATCH"
    NO_MESSAGE_OTHER = "NO_MESSAGE_OTHER"


class EntanglementId(NamedTuple):
    """Network-unique identifier of an entangled pair (Section 4.1.2).

    Composed of the two node identifiers and the midpoint sequence number, as
    produced by the EGP when it issues the OK.
    """

    node_a: str
    node_b: str
    sequence: int


class AbsoluteQueueId(NamedTuple):
    """Absolute queue id (queue number, sequence within queue) — paper (j, i_j)."""

    queue_id: int
    queue_seq: int


@dataclass
class EntanglementRequest:
    """A CREATE request from the higher layer (Section 4.1.1, Figure 31).

    Parameters
    ----------
    remote_node_id:
        The peer with whom entanglement is desired.
    request_type:
        ``RequestType.KEEP`` (store) or ``RequestType.MEASURE`` (measure
        directly).
    number:
        Number of entangled pairs requested.
    atomic:
        All pairs must be available simultaneously.
    consecutive:
        Issue an OK per generated pair (typical for the NL use case) instead
        of a single OK when the whole request completes.
    max_time:
        Maximum time in seconds the requester will wait (0 = no limit).
    purpose_id:
        Application tag, analogous to a port number.
    priority:
        Scheduling priority (NL/CK/MD).
    min_fidelity:
        Minimum acceptable fidelity of each delivered pair.
    origin:
        Name of the node at which the request was submitted.
    measure_basis:
        Optional fixed measurement basis for M requests; ``None`` selects a
        random basis per pair (as in the paper's MD workload).
    """

    remote_node_id: str
    request_type: RequestType = RequestType.KEEP
    number: int = 1
    atomic: bool = False
    consecutive: bool = False
    max_time: float = 0.0
    purpose_id: int = 0
    priority: Priority = Priority.CK
    min_fidelity: float = 0.5
    origin: str = ""
    measure_basis: Optional[str] = None
    #: Drawn from the run's own counter on submission (the workload
    #: generator stamps it before registering the request; the EGP stamps
    #: requests submitted without one), so ids start at 1 in every run.
    create_id: Optional[int] = None
    #: Timestamp the EGP stamped on submission (filled in by the EGP).
    create_time: float = 0.0

    def __post_init__(self) -> None:
        if self.number < 1:
            raise ValueError(f"number of pairs must be >= 1, got {self.number}")
        if not 0.0 <= self.min_fidelity <= 1.0:
            raise ValueError(f"min_fidelity {self.min_fidelity} not in [0, 1]")
        if self.max_time < 0:
            raise ValueError(f"max_time must be >= 0, got {self.max_time}")
        if isinstance(self.request_type, str):
            self.request_type = RequestType(self.request_type)
        if not isinstance(self.priority, Priority):
            self.priority = Priority(self.priority)


@dataclass
class OkMessage:
    """OK returned to the higher layer per delivered pair or request
    (Section 4.1.2, Figures 37-38)."""

    create_id: int
    entanglement_id: EntanglementId
    purpose_id: int
    remote_node_id: str
    origin: str
    #: Goodness: fidelity estimate for K requests, QBER-based estimate for M.
    goodness: float
    goodness_time: float
    create_time: float
    #: Logical qubit holding the local half (K requests only).
    logical_qubit_id: Optional[int] = None
    #: Measurement outcome and basis (M requests only).
    measurement_outcome: Optional[int] = None
    measurement_basis: Optional[str] = None
    #: Which pair of the request this OK corresponds to (1-based).
    pair_index: int = 1
    #: Total number of pairs requested.
    total_pairs: int = 1
    request_type: RequestType = RequestType.KEEP

    @property
    def is_final(self) -> bool:
        """True when this OK completes its request."""
        return self.pair_index >= self.total_pairs


@dataclass
class ErrorMessage:
    """ERR returned to the higher layer (Figure 39)."""

    create_id: int
    error: ErrorCode
    origin: str
    purpose_id: int = 0
    #: Range of midpoint sequence numbers affected by an EXPIRE, if any.
    sequence_low: Optional[int] = None
    sequence_high: Optional[int] = None
    detail: str = ""


@dataclass
class ExpireNotice:
    """EXPIRE message exchanged between peer EGPs (Figure 32)."""

    origin: str
    create_id: int
    queue_id: AbsoluteQueueId
    #: Sender's up-to-date expected midpoint sequence number.
    expected_sequence: int
    #: Range of sequence numbers whose OKs must be revoked.
    sequence_low: int = 0
    sequence_high: int = 0


@dataclass
class ExpireAck:
    """Acknowledgement of an EXPIRE notice (Figure 33)."""

    origin: str
    queue_id: AbsoluteQueueId
    expected_sequence: int


# --------------------------------------------------------------------------- #
# MHP <-> EGP and MHP <-> midpoint messages
# --------------------------------------------------------------------------- #
# The hot records below are slotted, and their one producer (EGP poll, MHP
# GEN, midpoint REPLY) builds them positionally: one of each is made per
# attempt window, so attribute storage and keyword matching show in
# profiles.
@dataclass(slots=True)
class PollResponse:
    """EGP response to an MHP poll (paper Figure 35).

    ``attempt`` is False when the EGP has nothing to generate this cycle.
    """

    attempt: bool
    queue_id: Optional[AbsoluteQueueId] = None
    request_type: RequestType = RequestType.KEEP
    alpha: float = 0.0
    #: Pair number within the request (for bookkeeping/diagnostics).
    pair_index: int = 0
    #: Measurement basis to use for M requests.
    measure_basis: str = "Z"
    #: Whether this attempt is a fidelity-estimation test round.
    test_round: bool = False
    create_id: Optional[int] = None
    #: Number of consecutive MHP cycles the physical layer may attempt for
    #: this request without polling again (batched operation, Section 5.1).
    max_attempts: int = 1
    #: MHP cycles between consecutive attempts of the granted batch (1 for
    #: every-cycle attempts; > 1 for K requests whose attempt spacing spans
    #: several cycles).
    attempt_stride: int = 1
    #: Timer elision (see ``EGP.timer_elision``): the attempt blocks the EGP
    #: until its REPLY, so the MHP's usual follow-up poll at the window end
    #: would provably find the EGP still blocked and do nothing — the REPLY
    #: handler re-arms polling in every branch.  The MHP skips scheduling it.
    skip_followup_poll: bool = False

    @staticmethod
    def no_attempt() -> "PollResponse":
        """The "no" poll response: one shared instance, never mutated.

        Most polls of a busy link answer "no", so building an 11-field
        response for each of them is pure overhead.
        """
        return _NO_ATTEMPT


_NO_ATTEMPT = PollResponse(attempt=False)


@dataclass(slots=True)
class GenMessage:
    """GEN frame sent from a node MHP to the heralding midpoint (Figure 27)."""

    origin: str
    queue_id: AbsoluteQueueId
    cycle: int
    alpha: float
    timestamp: float
    #: Number of consecutive attempts covered by this frame (batching).
    batch_size: int = 1
    #: MHP cycles between consecutive attempts of the batch.
    cycle_stride: int = 1


def reply_close_time(timing, cycle: int, attempts_used: int = 1,
                     cycle_stride: int = 1) -> float:
    """Deterministic time by which both nodes have seen a REPLY.

    Derived from the REPLY *contents* (attempt cycle, attempts used,
    stride) plus the known link delays of ``timing``, never from the local
    arrival time: the two replies of one exchange arrive at different times
    on asymmetric links, and any scheduling decision based on arrival time
    would put the nodes' next attempt windows on different MHP cycles —
    their GEN frames would then miss each other at the midpoint.

    The midpoint evaluates this once per exchange and stamps the result on
    both REPLYs as :attr:`MHPReply.close_time`; the node MHP (attempt-window
    close) and the EGP (post-REPLY scheduling floor) both read that stamp,
    so the alignment can never drift between the two layers or the two
    nodes.
    """
    max_delay = max(timing.midpoint_delay_a, timing.midpoint_delay_b)
    resolved = ((attempts_used - 1) * max(1, cycle_stride)
                * timing.mhp_cycle)
    return cycle * timing.mhp_cycle + resolved + 2 * max_delay


@dataclass(slots=True)
class MHPReply:
    """REPLY frame from the midpoint and the RESULT passed up to the EGP
    (Figures 28 and 36)."""

    outcome: int                       # 0 = failure, 1 = |Psi+>, 2 = |Psi->
    sequence: int                      # midpoint sequence number
    queue_id: Optional[AbsoluteQueueId]
    peer_queue_id: Optional[AbsoluteQueueId]
    error: MHPError = MHPError.NONE
    cycle: int = 0
    #: Simulation-level handle to the heralded pair (success only).
    pair: Optional[object] = None
    #: Number of attempts consumed by this reply (1 unless batched).
    attempts_used: int = 1
    #: MHP cycles between the attempts this reply covers (from the GEN).
    cycle_stride: int = 1
    #: :func:`reply_close_time` of this exchange, stamped by the midpoint
    #: (identical on both nodes' REPLYs).
    close_time: float = 0.0

    def sync_close_time(self, timing) -> float:
        """:func:`reply_close_time` evaluated on this REPLY's contents.

        The midpoint computes the formula once per exchange and stamps it as
        :attr:`close_time`; the MHP and the EGP read the stamp instead of
        re-evaluating this.
        """
        return reply_close_time(timing, self.cycle, self.attempts_used,
                                self.cycle_stride)

    @property
    def success(self) -> bool:
        """True when entanglement was heralded."""
        return self.error is MHPError.NONE and self.outcome in (1, 2)

    @property
    def bell_index(self) -> Optional[BellIndex]:
        """Heralded Bell state for successful replies."""
        if self.outcome == 1:
            return BellIndex.PSI_PLUS
        if self.outcome == 2:
            return BellIndex.PSI_MINUS
        return None


# --------------------------------------------------------------------------- #
# Distributed queue (DQP) frames
# --------------------------------------------------------------------------- #
@dataclass
class QueueAdd:
    """ADD frame of the distributed queue protocol (Figure 24)."""

    origin: str
    comm_seq: int
    queue_id: int
    queue_seq: Optional[int]
    request: EntanglementRequest
    schedule_cycle: int
    timeout_cycle: Optional[int]
    initial_virtual_finish: float = 0.0


@dataclass
class QueueAck:
    """ACK frame of the distributed queue protocol."""

    origin: str
    comm_seq: int
    queue_id: int
    queue_seq: int


@dataclass
class QueueReject:
    """REJ frame of the distributed queue protocol."""

    origin: str
    comm_seq: int
    queue_id: int
    reason: ErrorCode = ErrorCode.DENIED
