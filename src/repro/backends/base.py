"""Physics-backend interface of the link-layer simulation.

A :class:`PhysicsBackend` answers every *physics* question the protocol stack
asks, so the MHP/EGP/FEU never touch a concrete quantum model directly:

* **Heralding** — per-``alpha`` attempt resolution at the midpoint station:
  outcome probabilities, conditional post-herald states and geometric
  fast-forward over runs of failed cycles (:class:`AttemptModel`).
* **Delivery** — fidelity of a pair as seen by the higher layer after the
  device noise the hardware model will apply
  (:meth:`AttemptModel.delivered_fidelity`).
* **Memory decay and local operations** — T1/T2 idling, gate depolarising,
  attempt dephasing, the Psi-/Psi+ correction and noisy readout applied to
  one side of a stored :class:`~repro.hardware.pair.EntangledPair`.
* **FEU tables** — per-``alpha`` heralded and delivered fidelities and
  success probabilities (:class:`FeuTable`), each row computed on first
  use.
* **Pair-physics memo** — device noise on a delivered pair is a chain of
  deterministic steps applied to one of a handful of herald states, so a
  repeated step is replayed, not recomputed (see below).
* **Batching policy** — how many MHP cycles one GEN/REPLY exchange may cover
  (:meth:`PhysicsBackend.granted_batch`), which is where an approximate
  backend may trade event-level granularity for wall-clock speed.

Attempt models, FEU tables and pair physics are memoized per backend
instance, never per process, so a run's cost depends only on the backend it
was given.  Attempt models and FEU tables are keyed on a scenario's
:attr:`~repro.hardware.parameters.ScenarioConfig.physics_key` (gates, both
optics and timing), not on the whole scenario: scenarios that differ only in
name, classical link or memory sizes, such as a frame-loss variant of Lab,
share them.

The pair-physics memo wraps the subclasses' single-shot ops.  A state
carries a *chain key* (``DensityMatrix.chain_key``): equal keys mean
bitwise-equal matrices.  The herald states one attempt model emits for one
outcome share a root key, every ``(in-key, step)`` maps to one recorded
output, and every ``DensityMatrix`` method that changes the matrix drops the
key.  A recorded step is served as a copy of the recorded matrix; the first
occurrence always runs the subclass's own arithmetic, so every matrix is
bit-identical to an unmemoized run.  Readout draws consume the generator
exactly as ``rng.choice(n, p=)`` would (:func:`~repro.quantum.measurement
.choice_cdf`), memoized or not.

Two implementations ship with the repo: the exact
:class:`~repro.backends.density.DensityMatrixBackend` and the closed-form
:class:`~repro.backends.analytic.AnalyticBackend`.  Any future backend
(tensor-network, GPU, remote service) only implements this interface.
"""

from __future__ import annotations

import abc
import itertools
from bisect import bisect_right
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, TYPE_CHECKING

import numpy as np

from repro.quantum.density import DensityMatrix
from repro.quantum.measurement import choice_cdf
from repro.quantum.states import BellIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.messages import RequestType
    from repro.hardware.pair import EntangledPair
    from repro.hardware.parameters import (
        CoherenceTimes,
        ScenarioConfig,
        TimingParameters,
    )


@dataclass(frozen=True)
class HeraldSample:
    """Resolved outcome of one entanglement generation attempt.

    ``outcome_code`` follows the REPLY encoding: 0 failure, 1 |Psi+>,
    2 |Psi->.  ``state`` is a fresh, caller-owned conditional state of the
    two communication qubits, or ``None`` for failures (and for pathological
    success branches with no conditional state, which the MHP treats as
    failures).
    """

    outcome_code: int
    state: Optional[DensityMatrix]

    @property
    def success(self) -> bool:
        """Whether the attempt heralds usable entanglement."""
        return self.outcome_code in (1, 2) and self.state is not None

    @property
    def bell_index(self) -> Optional[BellIndex]:
        """The heralded Bell state, or ``None`` on failure."""
        if self.outcome_code == 1:
            return BellIndex.PSI_PLUS
        if self.outcome_code == 2:
            return BellIndex.PSI_MINUS
        return None


@dataclass(frozen=True)
class BatchGrant:
    """How the physical layer may batch attempts for one request.

    ``batch``
        Number of consecutive attempts one GEN/REPLY exchange covers.
    ``stride``
        MHP cycles between consecutive attempts of the batch (1 when the
        request attempts every cycle; ``ceil(attempt_spacing / t_cycle)``
        for create-and-keep requests whose spacing spans several cycles).
    """

    batch: int = 1
    stride: int = 1

    @property
    def cycles(self) -> int:
        """Total MHP cycles spanned by the batch."""
        return (self.batch - 1) * self.stride + 1


class AttemptModel(abc.ABC):
    """Per-(scenario, alpha) model of one entanglement generation attempt.

    One model fully characterises the physical entanglement generation for a
    bright-state population: success probability, heralded states and
    fidelities.  The midpoint samples from it once per attempt (or once per
    fast-forwarded batch of attempts).
    """

    #: Chain keys of the heralded states by outcome code (1 |Psi+>,
    #: 2 |Psi->), handed out by the backend that built the model; a model
    #: built on its own heralds unkeyed states.
    root_keys: Mapping[int, int] = MappingProxyType({})

    @property
    @abc.abstractmethod
    def success_probability(self) -> float:
        """Probability that one attempt heralds entanglement."""

    @abc.abstractmethod
    def average_success_fidelity(self,
                                 target: Optional[BellIndex] = None) -> float:
        """Success-probability-weighted fidelity of the heralded state."""

    @abc.abstractmethod
    def delivered_fidelity(self, request_type: "RequestType") -> float:
        """Average fidelity of a pair as delivered to the higher layer.

        Starts from the heralded state and applies the same degradation the
        device model will apply: electron decay while the REPLY travels
        back, and (for K requests) the move-to-memory gate noise.
        """

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator) -> HeraldSample:
        """Draw the outcome of one entanglement generation attempt."""

    @abc.abstractmethod
    def resolve(self, rng: np.random.Generator,
                max_attempts: int) -> tuple[int, HeraldSample]:
        """Resolve up to ``max_attempts`` consecutive attempts at once.

        Returns ``(attempts_used, sample)``.  On success ``attempts_used``
        is the 1-based index of the first successful attempt; when every
        attempt fails it equals ``max_attempts`` and the sample is a
        failure.  Statistically identical to calling :meth:`sample` once per
        attempt, but O(1) in simulation events.
        """


class FeuTable:
    """The FEU's per-``alpha`` rows for one physics key and alpha grid.

    Row ``index`` holds the heralded fidelity, the success probability and
    one delivered fidelity per request type at ``alphas[index]``.  Nothing
    is computed up front: the first read of a row's heralded fidelity or
    success probability fetches the backend's attempt model and evaluates
    both, the first read of a request type's delivered fidelity evaluates
    that, and every value is kept.  Each value is exactly what the attempt
    model returns, so a row equals an eagerly built one bit for bit.

    The FEUs reading the table keep their answers on it
    (:attr:`estimates`, :attr:`baselines`, :attr:`success_probabilities`),
    so each answer is computed once per backend and physics key, not once
    per FEU.
    """

    def __init__(self, backend: "PhysicsBackend", scenario: "ScenarioConfig",
                 alphas: tuple[float, ...]) -> None:
        self.alphas = alphas
        self._backend = backend
        self._scenario = scenario
        self._indices = {alpha: index for index, alpha in enumerate(alphas)}
        #: index -> (heralded fidelity, success probability)
        self._heralding: dict[int, tuple[float, float]] = {}
        #: (request type, index) -> delivered fidelity
        self._delivered: dict[tuple, float] = {}
        self.estimates: dict[tuple, object] = {}
        self.baselines: dict[tuple, float] = {}
        self.success_probabilities: dict[tuple, float] = {}

    def index_of(self, alpha: float) -> Optional[int]:
        """Row index of ``alpha``, or ``None`` if it is not on the grid."""
        return self._indices.get(alpha)

    def heralded_fidelity(self, index: int) -> float:
        """Success-weighted fidelity of the heralded state of row ``index``."""
        return self._heralded(index)[0]

    def success_probability(self, index: int) -> float:
        """Heralding success probability of row ``index``."""
        return self._heralded(index)[1]

    def delivered_fidelity(self, index: int,
                           request_type: "RequestType") -> float:
        """Delivered fidelity of row ``index`` for ``request_type``."""
        key = (request_type, index)
        fidelity = self._delivered.get(key)
        if fidelity is None:
            fidelity = self._delivered[key] = self._model(
                index).delivered_fidelity(request_type)
        return fidelity

    def _heralded(self, index: int) -> tuple[float, float]:
        values = self._heralding.get(index)
        if values is None:
            model = self._model(index)
            values = self._heralding[index] = (
                model.average_success_fidelity(), model.success_probability)
        return values

    def _model(self, index: int) -> AttemptModel:
        return self._backend.attempt_model(self._scenario, self.alphas[index])


class PhysicsBackend(abc.ABC):
    """Pluggable physics model behind the MHP/EGP hot loop."""

    #: Registry / cache-key name of the backend (e.g. ``"density"``).
    name: str = "abstract"
    #: The :class:`AttemptModel` type, built from ``(scenario, alpha)``.
    attempt_model_class: type[AttemptModel]
    #: Bounds of the attempt-model, FEU table and pair-physics memos
    #: (overflow clears; chains then restart from fresh keys).
    ATTEMPT_MODEL_CACHE_SIZE = 256
    FEU_TABLE_CACHE_SIZE = 256
    PAIR_MEMO_SIZE = 4096

    def __init__(self) -> None:
        self._attempt_models: dict[tuple, AttemptModel] = {}
        self._feu_tables: dict[tuple, FeuTable] = {}
        self._chain_keys = itertools.count(1)
        #: ``(in-key, step)`` -> ``(out-key, matrix)``, or a :class:`_Readout`
        #: for a measurement step.
        self._pair_memo: dict[tuple, object] = {}
        #: Keyed pair-physics calls served from the memo / computed.
        self.memo_hits = 0
        self.memo_misses = 0

    # ------------------------------------------------------------------ #
    # Heralding
    # ------------------------------------------------------------------ #
    def attempt_model(self, scenario: "ScenarioConfig",
                      alpha: float) -> AttemptModel:
        """The attempt model for symmetric population ``alpha``, built once
        per backend instance and physics key."""
        key = (scenario.physics_key, float(alpha))
        model = self._attempt_models.get(key)
        if model is None:
            if len(self._attempt_models) >= self.ATTEMPT_MODEL_CACHE_SIZE:
                self._attempt_models.clear()
            model = self._attempt_models[key] = self.attempt_model_class(
                scenario, float(alpha))
            model.root_keys = {1: next(self._chain_keys),
                               2: next(self._chain_keys)}
        return model

    def feu_table(self, scenario: "ScenarioConfig",
                  alphas: tuple[float, ...]) -> "FeuTable":
        """The FEU table of ``alphas`` under ``scenario``'s physics key,
        created once per backend instance; its rows are computed on first
        use."""
        key = (scenario.physics_key, alphas)
        table = self._feu_tables.get(key)
        if table is None:
            if len(self._feu_tables) >= self.FEU_TABLE_CACHE_SIZE:
                self._feu_tables.clear()
            table = self._feu_tables[key] = FeuTable(self, scenario, alphas)
        return table

    # ------------------------------------------------------------------ #
    # Batching policy
    # ------------------------------------------------------------------ #
    def granted_batch(self, request_type: "RequestType", configured: int,
                      emission_multiplexing: bool,
                      timing: "TimingParameters",
                      frame_loss_probability: float = 0.0) -> BatchGrant:
        """How many attempts one GEN/REPLY exchange may cover.

        The default policy is the conservative one of the exact model:
        batched operation (Section 5.1) is only allowed when nothing between
        attempts depends on the previous REPLY.  Measure-directly requests
        with emission multiplexing always qualify; create-and-keep requests
        qualify only when the round trip to the midpoint fits within one MHP
        cycle — otherwise an attempt must wait for the previous REPLY and
        batching would misrepresent the attempt rate.
        """
        from repro.core.messages import RequestType

        if configured <= 1:
            return BatchGrant(1, 1)
        round_trip = 2 * max(timing.midpoint_delay_a, timing.midpoint_delay_b)
        if request_type is RequestType.MEASURE:
            if emission_multiplexing:
                return BatchGrant(configured, 1)
            return BatchGrant(1, 1)
        if round_trip <= timing.mhp_cycle:
            return BatchGrant(configured, 1)
        return BatchGrant(1, 1)

    # ------------------------------------------------------------------ #
    # Local device physics (one side of a stored pair), memoized
    # ------------------------------------------------------------------ #
    def apply_t1t2(self, pair: "EntangledPair", side: str,
                   coherence: "CoherenceTimes", duration: float) -> None:
        """T1/T2 decay of one side of ``pair`` over ``duration`` seconds."""
        self._memoized(pair, ("t1t2", side, coherence.t1, coherence.t2,
                              duration),
                       self._apply_t1t2, side, coherence, duration)

    def apply_depolarizing(self, pair: "EntangledPair", side: str,
                           fidelity: float) -> None:
        """Depolarising gate noise with no-error probability ``fidelity``."""
        self._memoized(pair, ("depol", side, fidelity),
                       self._apply_depolarizing, side, fidelity)

    def apply_dephasing(self, pair: "EntangledPair", side: str,
                        probability: float) -> None:
        """Dephasing channel with Z-flip probability ``probability``."""
        self._memoized(pair, ("deph", side, probability),
                       self._apply_dephasing, side, probability)

    def apply_correction(self, pair: "EntangledPair", side: str,
                         gate_fidelity: float) -> None:
        """Local Z gate converting |Psi-> into |Psi+> (Eq. 13), with
        depolarising gate noise when ``gate_fidelity < 1``."""
        self._memoized(pair, ("corr", side, gate_fidelity),
                       self._apply_correction, side, gate_fidelity)

    def measure_pair(self, pair: "EntangledPair", side: str, basis: str,
                     readout_fidelity_0: float, readout_fidelity_1: float,
                     rng: np.random.Generator) -> int:
        """Noisy electron readout of one side of ``pair`` in ``basis``.

        Collapses the pair state so that the peer's subsequent measurement
        sees the correct conditional state.  The outcome is one ``random()``
        draw searched in the distribution's :func:`choice_cdf`, exactly the
        draw ``rng.choice(n, p=)`` makes.
        """
        basis = basis.upper()
        args = (side, basis, readout_fidelity_0, readout_fidelity_1)
        state = pair.state
        if state.chain_key is None:
            outcome = bisect_right(
                choice_cdf(self._povm_distribution(pair, *args)),
                rng.random())
            state.update_matrix(self._povm_branch(pair, *args, outcome))
            return outcome
        key = (state.chain_key, ("measure",) + args)
        readout = self._pair_memo.get(key)
        served = readout is not None
        if not served:
            readout = self._record(key, _Readout(
                choice_cdf(self._povm_distribution(pair, *args))))
        outcome = bisect_right(readout.cdf, rng.random())
        branch = readout.branches.get(outcome)
        if branch is None:
            served = False
            branch = readout.branches[outcome] = (
                next(self._chain_keys),
                self._povm_branch(pair, *args, outcome))
        if served:
            self.memo_hits += 1
        else:
            self.memo_misses += 1
        out_key, matrix = branch
        state.update_matrix(matrix.copy())
        state.chain_key = out_key
        return outcome

    def _memoized(self, pair: "EntangledPair", step: tuple, apply,
                  *args) -> None:
        """``apply(pair, *args)``, replayed from the memo when this step was
        recorded on a state with the same chain key."""
        state = pair.state
        if state.chain_key is None:
            apply(pair, *args)
            return
        key = (state.chain_key, step)
        recorded = self._pair_memo.get(key)
        if recorded is not None:
            self.memo_hits += 1
            out_key, matrix = recorded
            # Always a copy: the subclass ops may scale a state's matrix in
            # place, which must never reach a recorded one.
            state.update_matrix(matrix.copy())
            state.chain_key = out_key
            return
        self.memo_misses += 1
        apply(pair, *args)
        state = pair.state
        out_key = next(self._chain_keys)
        self._record(key, (out_key, state.matrix.copy()))
        state.chain_key = out_key

    def _record(self, key: tuple, value):
        if len(self._pair_memo) >= self.PAIR_MEMO_SIZE:
            self._pair_memo.clear()
        self._pair_memo[key] = value
        return value

    # The subclasses' single-shot physics.  Each acts on ``pair.state``
    # directly and never calls a memoized op itself.
    @abc.abstractmethod
    def _apply_t1t2(self, pair: "EntangledPair", side: str,
                    coherence: "CoherenceTimes", duration: float) -> None:
        """Unmemoized :meth:`apply_t1t2`."""

    @abc.abstractmethod
    def _apply_depolarizing(self, pair: "EntangledPair", side: str,
                            fidelity: float) -> None:
        """Unmemoized :meth:`apply_depolarizing`."""

    @abc.abstractmethod
    def _apply_dephasing(self, pair: "EntangledPair", side: str,
                         probability: float) -> None:
        """Unmemoized :meth:`apply_dephasing`."""

    @abc.abstractmethod
    def _apply_correction(self, pair: "EntangledPair", side: str,
                          gate_fidelity: float) -> None:
        """Unmemoized :meth:`apply_correction`."""

    @abc.abstractmethod
    def _povm_distribution(self, pair: "EntangledPair", side: str,
                           basis: str, readout_fidelity_0: float,
                           readout_fidelity_1: float) -> np.ndarray:
        """Normalised outcome probabilities of the readout (``basis`` is
        upper case); changes nothing."""

    @abc.abstractmethod
    def _povm_branch(self, pair: "EntangledPair", side: str, basis: str,
                     readout_fidelity_0: float, readout_fidelity_1: float,
                     outcome: int) -> np.ndarray:
        """Normalised post-measurement matrix of ``outcome``; changes
        nothing."""

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"<{self.__class__.__name__} {self.name!r}>"


class _Readout:
    """A memoized measurement step: the draw's CDF and the collapsed
    branches, recorded as outcomes occur."""

    __slots__ = ("cdf", "branches")

    def __init__(self, cdf: list[float]) -> None:
        self.cdf = cdf
        #: outcome -> (chain key, normalised post-measurement matrix)
        self.branches: dict[int, tuple[int, np.ndarray]] = {}
