"""Performance metrics of the link layer (paper Section 4.2).

The collector subscribes to the OK/error streams of both nodes' EGPs and
produces the metrics used throughout the paper's evaluation:

* throughput (pairs per second), per priority class,
* request latency (CREATE submission to completion at the requesting node),
* per-pair latency (CREATE to each OK at the requesting node),
* scaled latency (request latency / number of requested pairs),
* fidelity: measured directly on the simulated pair states for K requests
  and recovered from QBER for M requests (as the paper does),
* queue length traces and fairness comparisons between the two origins,
* counts of OK / error / EXPIRE events for the robustness study.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, fields
from statistics import mean
from typing import Optional

from repro.core.messages import (
    ErrorCode,
    ErrorMessage,
    OkMessage,
    Priority,
    RequestType,
)
from repro.quantum.fidelity import fidelity_from_qber
from repro.quantum.states import BellIndex
from repro.topology.spec import dataclass_to_dict


def relative_difference(first: float, second: float) -> float:
    """Relative difference |m1 - m2| / max(|m1|, |m2|) used in Section 6.1."""
    largest = max(abs(first), abs(second))
    if largest == 0:
        return 0.0
    return abs(first - second) / largest


@dataclass
class PairRecord:
    """One delivered entangled pair (or measured correlation)."""

    entanglement_id: tuple
    create_id: int
    priority: Priority
    request_type: RequestType
    origin: str
    created_request_at: float
    delivered_at: float
    fidelity: Optional[float] = None
    basis: Optional[str] = None
    outcome_a: Optional[int] = None
    outcome_b: Optional[int] = None
    goodness: float = 0.0

    @property
    def pair_latency(self) -> float:
        """Time from CREATE submission to this pair's OK."""
        return self.delivered_at - self.created_request_at


@dataclass
class RequestRecord:
    """Book-keeping for one CREATE request."""

    create_id: int
    origin: str
    priority: Priority
    request_type: RequestType
    number: int
    submitted_at: float
    completed_at: Optional[float] = None
    error: Optional[ErrorCode] = None
    pairs_delivered: int = 0

    @property
    def completed(self) -> bool:
        """Whether every requested pair was delivered."""
        return self.completed_at is not None

    @property
    def request_latency(self) -> Optional[float]:
        """Latency from submission to completion, if completed."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    @property
    def scaled_latency(self) -> Optional[float]:
        """Request latency divided by the number of requested pairs."""
        latency = self.request_latency
        if latency is None:
            return None
        return latency / self.number


@dataclass
class MetricsSummary:
    """Aggregated metrics over one simulation run.

    The summary is deliberately *plain data* (floats, ints and string-keyed
    dicts of them): it is the payload shipped back from sweep worker
    processes and stored in sweep caches, so it must survive pickling and a
    JSON round-trip without loss.
    """

    duration: float
    throughput: dict[str, float]
    average_fidelity: dict[str, float]
    average_request_latency: dict[str, float]
    average_scaled_latency: dict[str, float]
    average_pair_latency: dict[str, float]
    pairs_delivered: dict[str, int]
    requests_submitted: dict[str, int]
    requests_completed: dict[str, int]
    errors: dict[str, int]
    expires: int
    oks: int
    average_queue_length: float

    def throughput_total(self) -> float:
        """Total delivered pairs per second across all classes."""
        return sum(self.throughput.values())

    def to_dict(self) -> dict:
        """JSON-serialisable representation (exact float round-trip)."""
        return dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsSummary":
        """Rebuild a summary from :meth:`to_dict` output."""
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in data.items()
                      if key in known})


class MetricsCollector:
    """Collects OK / error events from both nodes and aggregates metrics.

    Parameters
    ----------
    network:
        A wired :class:`~repro.network.network.LinkLayerNetwork`.  The
        collector registers itself on both EGPs.
    release_memory:
        When ``True`` (default), storage qubits of delivered K pairs are
        released immediately — modelling an application that consumes
        entanglement as soon as it is delivered, as the paper's workload does.
    """

    def __init__(self, network, release_memory: bool = True) -> None:
        self.network = network
        self.release_memory = release_memory
        self.pair_records: list[PairRecord] = []
        self.request_records: dict[int, RequestRecord] = {}
        self.error_counts: dict[str, int] = defaultdict(int)
        self.expire_count = 0
        self.ok_count = 0
        self.queue_samples: list[tuple[float, int]] = []
        self._pending_pairs: dict[tuple, dict] = {}
        self._started_at = network.engine.now
        for name, node in network.nodes.items():
            node.egp.add_ok_listener(
                lambda ok, node_name=name: self._on_ok(node_name, ok))
            node.egp.add_error_listener(
                lambda err, node_name=name: self._on_error(node_name, err))

    # ------------------------------------------------------------------ #
    # Request registration (called by the workload generator)
    # ------------------------------------------------------------------ #
    def register_request(self, request) -> None:
        """Record a CREATE request at submission time."""
        self.request_records[request.create_id] = RequestRecord(
            create_id=request.create_id,
            origin=request.origin or "",
            priority=request.priority,
            request_type=request.request_type,
            number=request.number,
            submitted_at=self.network.engine.now,
        )

    def sample_queue_length(self) -> None:
        """Record the current distributed-queue length (node A's view)."""
        self.queue_samples.append((self.network.engine.now,
                                   self.network.node_a.egp.queue_length()))

    # ------------------------------------------------------------------ #
    # EGP event handling
    # ------------------------------------------------------------------ #
    def _on_ok(self, node_name: str, ok: OkMessage) -> None:
        self.ok_count += 1
        record = self.request_records.get(ok.create_id)
        if record is None:
            record = RequestRecord(create_id=ok.create_id, origin=ok.origin,
                                   priority=Priority.CK,
                                   request_type=ok.request_type,
                                   number=ok.total_pairs,
                                   submitted_at=ok.create_time)
            self.request_records[ok.create_id] = record

        if self.release_memory and ok.logical_qubit_id is not None:
            node = self.network.nodes[node_name]
            node.egp.release_delivered_pair(ok.logical_qubit_id)

        key = tuple(ok.entanglement_id)
        pending = self._pending_pairs.setdefault(key, {})
        pending[node_name] = ok
        if len(pending) < 2:
            return
        # Both nodes delivered: finalise the pair record.
        ok_a = pending.get("A")
        ok_b = pending.get("B")
        del self._pending_pairs[key]
        origin_ok = ok_a if (ok_a and ok_a.origin == "A") else ok_b
        if origin_ok is None:
            origin_ok = ok_a or ok_b
        now = self.network.engine.now
        fidelity = None
        basis = None
        outcome_a = outcome_b = None
        if ok.request_type is RequestType.KEEP:
            pair = getattr(ok, "pair", None)
            if pair is not None:
                fidelity = pair.fidelity(BellIndex.PSI_PLUS)
        else:
            basis = ok_a.measurement_basis if ok_a else None
            outcome_a = ok_a.measurement_outcome if ok_a else None
            outcome_b = ok_b.measurement_outcome if ok_b else None
        record.pairs_delivered += 1
        if record.pairs_delivered >= record.number and record.completed_at is None:
            record.completed_at = now
        self.pair_records.append(PairRecord(
            entanglement_id=key,
            create_id=ok.create_id,
            priority=record.priority,
            request_type=ok.request_type,
            origin=record.origin,
            created_request_at=record.submitted_at,
            delivered_at=now,
            fidelity=fidelity,
            basis=basis,
            outcome_a=outcome_a,
            outcome_b=outcome_b,
            goodness=origin_ok.goodness if origin_ok else ok.goodness,
        ))

    def _on_error(self, node_name: str, error: ErrorMessage) -> None:
        self.error_counts[error.error.value] += 1
        if error.error is ErrorCode.EXPIRE:
            self.expire_count += 1
        record = self.request_records.get(error.create_id)
        if record is not None and record.error is None:
            record.error = error.error

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def qber_by_basis(self, priority: Optional[Priority] = None) -> dict[str, float]:
        """Measured QBER per basis from measure-directly pair records."""
        counts: dict[str, list[int]] = {"X": [], "Y": [], "Z": []}
        for pair in self.pair_records:
            if pair.request_type is not RequestType.MEASURE:
                continue
            if priority is not None and pair.priority != priority:
                continue
            if pair.basis is None or pair.outcome_a is None or pair.outcome_b is None:
                continue
            # Target after correction is |Psi+>: Z anti-correlated, X/Y correlated.
            equal = pair.outcome_a == pair.outcome_b
            error = equal if pair.basis == "Z" else not equal
            counts[pair.basis].append(1 if error else 0)
        return {basis: mean(values) for basis, values in counts.items() if values}

    def fidelity_from_md_qber(self, priority: Optional[Priority] = None,
                              ) -> Optional[float]:
        """Fidelity recovered from MD QBER measurements (paper Section 6.2)."""
        qber = self.qber_by_basis(priority)
        if set(qber) != {"X", "Y", "Z"}:
            return None
        return fidelity_from_qber(qber)

    def summary(self) -> MetricsSummary:
        """Aggregate all collected data into a :class:`MetricsSummary`."""
        now = self.network.engine.now
        duration = max(now - self._started_at, 1e-12)

        def class_of(priority: Priority) -> str:
            return priority.name

        pairs_by_class: dict[str, int] = defaultdict(int)
        fidelity_by_class: dict[str, list[float]] = defaultdict(list)
        pair_latency_by_class: dict[str, list[float]] = defaultdict(list)
        for pair in self.pair_records:
            key = class_of(pair.priority)
            pairs_by_class[key] += 1
            pair_latency_by_class[key].append(pair.pair_latency)
            if pair.fidelity is not None:
                fidelity_by_class[key].append(pair.fidelity)

        # Fidelity of MD classes comes from QBER, as in the paper.
        for priority in Priority:
            key = class_of(priority)
            if not fidelity_by_class.get(key):
                md_fidelity = self.fidelity_from_md_qber(priority)
                if md_fidelity is not None:
                    fidelity_by_class[key] = [md_fidelity]

        submitted: dict[str, int] = defaultdict(int)
        completed: dict[str, int] = defaultdict(int)
        request_latency: dict[str, list[float]] = defaultdict(list)
        scaled_latency: dict[str, list[float]] = defaultdict(list)
        for record in self.request_records.values():
            key = class_of(record.priority)
            submitted[key] += 1
            if record.completed:
                completed[key] += 1
                request_latency[key].append(record.request_latency)
                scaled_latency[key].append(record.scaled_latency)

        average_queue = 0.0
        if self.queue_samples:
            average_queue = mean(length for _, length in self.queue_samples)

        return MetricsSummary(
            duration=duration,
            throughput={key: count / duration
                        for key, count in pairs_by_class.items()},
            average_fidelity={key: mean(values)
                              for key, values in fidelity_by_class.items() if values},
            average_request_latency={key: mean(values)
                                     for key, values in request_latency.items()
                                     if values},
            average_scaled_latency={key: mean(values)
                                    for key, values in scaled_latency.items()
                                    if values},
            average_pair_latency={key: mean(values)
                                  for key, values in pair_latency_by_class.items()
                                  if values},
            pairs_delivered=dict(pairs_by_class),
            requests_submitted=dict(submitted),
            requests_completed=dict(completed),
            errors=dict(self.error_counts),
            expires=self.expire_count,
            oks=self.ok_count,
            average_queue_length=average_queue,
        )

    # ------------------------------------------------------------------ #
    # Fairness (Section 6.2)
    # ------------------------------------------------------------------ #
    def fairness_by_origin(self) -> dict[str, dict[str, float]]:
        """Throughput / latency / fidelity split by the origin of the request."""
        by_origin: dict[str, dict[str, list[float]]] = {
            "A": defaultdict(list), "B": defaultdict(list)}
        duration = max(self.network.engine.now - self._started_at, 1e-12)
        pair_counts = {"A": 0, "B": 0}
        for pair in self.pair_records:
            if pair.origin not in by_origin:
                continue
            pair_counts[pair.origin] += 1
            if pair.fidelity is not None:
                by_origin[pair.origin]["fidelity"].append(pair.fidelity)
            by_origin[pair.origin]["latency"].append(pair.pair_latency)
        result = {}
        for origin, data in by_origin.items():
            result[origin] = {
                "throughput": pair_counts[origin] / duration,
                "fidelity": mean(data["fidelity"]) if data["fidelity"] else 0.0,
                "latency": mean(data["latency"]) if data["latency"] else 0.0,
                "oks": float(pair_counts[origin]),
            }
        return result
