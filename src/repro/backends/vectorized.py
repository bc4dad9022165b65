"""Cohort-shared analytic backend — the vectorized scenario-batching engine.

One :class:`VectorizedAnalyticBackend` instance is shared by every member of
a :class:`repro.runtime.batch.CohortRunner` cohort.  Cohort members keep
their own per-member RNG streams (``SeedSequence.spawn``-derived, identical
to a solo run), so the *draws* cannot be batched across members without
changing results — instead the backend batches everything deterministic that
members have in common:

* **Shared FEU tables**, as on every backend (``PhysicsBackend.feu_table``).
* **Memoized contraction chains.**  Device noise on a delivered pair is a
  chain of deterministic 4x4 contractions applied to one of a handful of
  herald states.  States are stamped with a *chain key* (equal keys ⟺
  bitwise-equal matrices, maintained inductively: herald states of one
  attempt model share a key, and each ``(op, in-key, params)`` step maps to
  a recorded output).  A repeated step serves a copy of the recorded matrix
  instead of re-running the einsums; the first occurrence always runs the
  inherited scalar code, so every matrix any member observes is bit-identical
  to the solo analytic path.
* **Identical randomness.**  Sampling still consumes the member's generator
  exactly as :class:`repro.backends.analytic.AnalyticAttemptModel` does (the
  POVM ``rng.choice`` call included) — memoization only replaces the
  deterministic matrix arithmetic around the draws.

The backend reports ``name == "analytic"`` because its results *are* the
analytic backend's results; cohort provenance is recorded separately on
``ScenarioOutcome.cohort``.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

import numpy as np

from repro.backends.analytic import AnalyticBackend, _side_index

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.base import HeraldSample
    from repro.hardware.pair import EntangledPair
    from repro.hardware.parameters import CoherenceTimes, ScenarioConfig


class _TaggedAttemptModel:
    """Delegating wrapper that stamps herald states with chain keys.

    All herald states an :class:`AnalyticAttemptModel` emits for one outcome
    code are copies of the same conditional matrix, so they share one chain
    key — the root of every memoized contraction chain.
    """

    __slots__ = ("inner", "_key_by_code")

    def __init__(self, inner, key_minus: int, key_plus: int) -> None:
        self.inner = inner
        self._key_by_code = {2: key_minus, 1: key_plus}

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def _tag(self, sample: "HeraldSample") -> "HeraldSample":
        if sample.state is not None:
            sample.state._ckey = self._key_by_code[sample.outcome_code]
        return sample

    def sample(self, rng: np.random.Generator) -> "HeraldSample":
        return self._tag(self.inner.sample(rng))

    def resolve(self, rng: np.random.Generator,
                max_attempts: int) -> tuple[int, "HeraldSample"]:
        attempt, sample = self.inner.resolve(rng, max_attempts)
        return attempt, self._tag(sample)


class _MeasureEntry:
    """Memoized POVM distribution plus lazily-recorded collapsed branches."""

    __slots__ = ("probabilities", "total", "count", "post")

    def __init__(self, probabilities: np.ndarray, total: float,
                 count: int) -> None:
        self.probabilities = probabilities
        self.total = total
        self.count = count
        #: outcome -> (chain key, normalised post-measurement matrix)
        self.post: dict[int, tuple[int, np.ndarray]] = {}


class VectorizedAnalyticBackend(AnalyticBackend):
    """Analytic backend with cohort-shared tables and memoized pair physics.

    Parameters mirror :class:`AnalyticBackend`; ``max_cache_entries`` bounds
    each memo table (overflow clears the table — chains simply restart from
    fresh keys, so correctness never depends on retention).
    """

    def __init__(self, fast_forward: bool = True,
                 max_window_seconds: float = 10e-3,
                 max_cache_entries: int = 16384) -> None:
        super().__init__(fast_forward=fast_forward,
                         max_window_seconds=max_window_seconds)
        self._keys = itertools.count(1)
        self._models: dict[tuple, _TaggedAttemptModel] = {}
        self._chain_cache: dict[tuple, tuple[int, np.ndarray]] = {}
        self._measure_cache: dict[tuple, _MeasureEntry] = {}
        self._max_cache_entries = int(max_cache_entries)

    # ------------------------------------------------------------------ #
    # Heralding
    # ------------------------------------------------------------------ #
    def attempt_model(self, scenario: "ScenarioConfig",
                      alpha: float) -> _TaggedAttemptModel:
        key = (scenario, float(alpha))
        model = self._models.get(key)
        if model is None:
            inner = super().attempt_model(scenario, float(alpha))
            model = _TaggedAttemptModel(inner, next(self._keys),
                                        next(self._keys))
            self._models[key] = model
        return model

    # ------------------------------------------------------------------ #
    # Memoized pair physics
    # ------------------------------------------------------------------ #
    def _serve(self, pair: "EntangledPair", key: tuple) -> bool:
        """Replay a recorded chain step onto ``pair`` if one exists."""
        hit = self._chain_cache.get(key)
        if hit is None:
            return False
        out_key, matrix = hit
        # Always a copy: tagged states own their buffers, so the in-place
        # coherence scaling of the inherited ops can never corrupt a
        # recorded matrix.
        pair.state.update_matrix(matrix.copy())
        pair.state._ckey = out_key
        return True

    def _remember(self, pair: "EntangledPair", key: tuple) -> None:
        if len(self._chain_cache) >= self._max_cache_entries:
            self._chain_cache.clear()
        out_key = next(self._keys)
        self._chain_cache[key] = (out_key, pair.state.matrix.copy())
        pair.state._ckey = out_key

    def apply_t1t2(self, pair: "EntangledPair", side: str,
                   coherence: "CoherenceTimes", duration: float) -> None:
        in_key = getattr(pair.state, "_ckey", None)
        if in_key is None:
            super().apply_t1t2(pair, side, coherence, duration)
            return
        key = ("t1t2", in_key, side, coherence.t1, coherence.t2, duration)
        if self._serve(pair, key):
            return
        super().apply_t1t2(pair, side, coherence, duration)
        self._remember(pair, key)

    def apply_depolarizing(self, pair: "EntangledPair", side: str,
                           fidelity: float) -> None:
        in_key = getattr(pair.state, "_ckey", None)
        if in_key is None:
            super().apply_depolarizing(pair, side, fidelity)
            return
        key = ("depol", in_key, side, fidelity)
        if self._serve(pair, key):
            return
        super().apply_depolarizing(pair, side, fidelity)
        self._remember(pair, key)

    def apply_dephasing(self, pair: "EntangledPair", side: str,
                        probability: float) -> None:
        in_key = getattr(pair.state, "_ckey", None)
        if in_key is None:
            super().apply_dephasing(pair, side, probability)
            return
        key = ("deph", in_key, side, probability)
        if self._serve(pair, key):
            return
        super().apply_dephasing(pair, side, probability)
        self._remember(pair, key)

    def apply_correction(self, pair: "EntangledPair", side: str,
                         gate_fidelity: float) -> None:
        in_key = getattr(pair.state, "_ckey", None)
        if in_key is None:
            super().apply_correction(pair, side, gate_fidelity)
            return
        key = ("corr", in_key, side, gate_fidelity)
        if self._serve(pair, key):
            return
        super().apply_correction(pair, side, gate_fidelity)
        self._remember(pair, key)

    def measure_pair(self, pair: "EntangledPair", side: str, basis: str,
                     readout_fidelity_0: float, readout_fidelity_1: float,
                     rng: np.random.Generator) -> int:
        in_key = getattr(pair.state, "_ckey", None)
        if in_key is None:
            return super().measure_pair(pair, side, basis,
                                        readout_fidelity_0,
                                        readout_fidelity_1, rng)
        basis = basis.upper()
        key = ("measure", in_key, side, basis, readout_fidelity_0,
               readout_fidelity_1)
        entry = self._measure_cache.get(key)
        if entry is None:
            if len(self._measure_cache) >= self._max_cache_entries:
                self._measure_cache.clear()
            operators = self._measurement_operators(
                _side_index(side), basis, readout_fidelity_0,
                readout_fidelity_1)
            rho = pair.state.matrix
            probabilities = np.array([
                max(float(np.real(np.einsum("ij,ji->", element, rho))), 0.0)
                for _, element in operators])
            total = probabilities.sum()
            if total <= 0:
                raise RuntimeError("POVM probabilities sum to zero")
            entry = _MeasureEntry(probabilities, total, len(operators))
            self._measure_cache[key] = entry
        # Exactly the inherited draw: same call, same distribution, so the
        # member's generator advances identically to a solo run.
        outcome = int(rng.choice(entry.count,
                                 p=entry.probabilities / entry.total))
        post = entry.post.get(outcome)
        if post is None:
            operators = self._measurement_operators(
                _side_index(side), basis, readout_fidelity_0,
                readout_fidelity_1)
            kraus, _ = operators[outcome]
            raw = kraus @ pair.state.matrix @ kraus.conj().T
            norm = float(np.real(np.trace(raw)))
            if norm <= 0:
                raise RuntimeError("POVM produced zero-probability branch")
            post = (next(self._keys), raw / norm)
            entry.post[outcome] = post
        out_key, matrix = post
        pair.state.update_matrix(matrix.copy())
        pair.state._ckey = out_key
        return outcome
