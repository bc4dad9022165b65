"""The pair-physics memo and the FEU answer memo replay, never approximate.

``PhysicsBackend`` serves a repeated device-noise or readout step on a
keyed pair state as a copy of the recorded matrix, and the FEUs sharing a
table answer each (input, request type) once.  Both must be
invisible: every matrix, outcome and generator state equals the one an
unmemoized computation gives, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import get_backend
from repro.core.feu import FidelityEstimationUnit
from repro.core.messages import RequestType
from repro.hardware.pair import EntangledPair
from repro.hardware.parameters import (
    CoherenceTimes,
    lab_scenario,
    ql2020_scenario,
)
from repro.quantum import gates, noise
from repro.quantum.measurement import readout_kraus
from repro.quantum.states import BellIndex

ALPHAS = (0.1, 0.3)
COHERENCES = (CoherenceTimes(t1=3600.0, t2=1.46), CoherenceTimes(
    t1=float("inf"), t2=0.0035))
DURATIONS = (1e-5, 4.8e-6, 0.002)
FIDELITIES = (0.99, 0.95)
DEPHASINGS = (0.01, 0.2)
READOUTS = ((0.95, 0.995), (0.868, 0.996))


def _ops(plan: np.random.Generator) -> list[tuple]:
    """A random chain of backend steps and ``DensityMatrix`` mutators,
    drawn from small parameter sets so that chains repeat."""
    chain = []
    for _ in range(int(plan.integers(1, 9))):
        side = str(plan.choice(["A", "B"]))
        kind = int(plan.integers(0, 7))
        if kind == 0:
            chain.append(("apply_t1t2", side,
                          COHERENCES[plan.integers(2)],
                          DURATIONS[plan.integers(3)]))
        elif kind == 1:
            chain.append(("apply_depolarizing", side,
                          FIDELITIES[plan.integers(2)]))
        elif kind == 2:
            chain.append(("apply_dephasing", side,
                          DEPHASINGS[plan.integers(2)]))
        elif kind == 3:
            chain.append(("apply_correction", side,
                          (1.0, 0.99)[plan.integers(2)]))
        elif kind in (4, 5):
            chain.append(("measure_pair", side,
                          str(plan.choice(["X", "Y", "Z"])),
                          *READOUTS[plan.integers(2)]))
        else:
            chain.append(("mutate", int(plan.integers(5)),
                          int(plan.integers(2))))
    return chain


def _mutate(pair: EntangledPair, which: int, qubit: int,
            rng: np.random.Generator) -> None:
    """One ``DensityMatrix`` method that changes the matrix."""
    state = pair.state
    if which == 0:
        state.apply_unitary(gates.H, qubits=[qubit])
    elif which == 1:
        state.apply_kraus(noise.depolarizing_kraus(0.9), qubits=[qubit])
    elif which == 2:
        state.update_matrix(gates.expand_single_qubit(gates.X, qubit, 2)
                            @ state.matrix
                            @ gates.expand_single_qubit(gates.X, qubit, 2))
    elif which == 3:
        state.measure(qubit, basis="X", rng=rng)
    else:
        state.measure_povm(readout_kraus(0.9, 0.97), qubits=[qubit],
                           rng=rng)


def _step(backend, pair: EntangledPair, op: tuple,
          rng: np.random.Generator):
    name, *args = op
    if name == "mutate":
        return _mutate(pair, *args, rng)
    if name == "measure_pair":
        return backend.measure_pair(pair, *args, rng)
    return getattr(backend, name)(pair, *args)


@pytest.mark.parametrize("name", ["analytic", "density"])
def test_memoized_chains_equal_fresh_backend_chains(name):
    scenario = lab_scenario()
    memo = get_backend(name)
    plan = np.random.default_rng(2024)
    # A few chains replayed from every root, so steps recur, each cut at a
    # random point and continued at random, so that fresh steps (some of
    # them in place) follow replayed ones.
    chains = [_ops(plan) for _ in range(10)]
    heralds = np.random.default_rng(7)
    keyed_calls = 0
    for chain_index in range(240):
        model = memo.attempt_model(scenario, ALPHAS[chain_index % 2])
        _, sample = model.resolve(heralds, 10 ** 7)
        assert sample.success and sample.state.chain_key is not None
        pair = EntangledPair(state=sample.state,
                             heralded_bell=sample.bell_index, created_at=0.0)
        reference = EntangledPair(state=sample.state.copy(),
                                  heralded_bell=sample.bell_index,
                                  created_at=0.0)
        rng = np.random.default_rng(chain_index)
        reference_rng = np.random.default_rng(chain_index)
        chain = chains[chain_index % len(chains)]
        if chain_index % 3 == 2:
            chain = chain[:int(plan.integers(len(chain) + 1))] + _ops(plan)
        for op in chain:
            if op[0] != "mutate" and pair.state.chain_key is not None:
                keyed_calls += 1
            outcome = _step(memo, pair, op, rng)
            # A fresh backend per step: nothing it does is ever replayed.
            expected = _step(get_backend(name), reference, op, reference_rng)
            assert outcome == expected, op
            assert (pair.state.matrix.tobytes()
                    == reference.state.matrix.tobytes()), op
            assert (rng.bit_generator.state
                    == reference_rng.bit_generator.state), op
            if op[0] == "mutate":
                assert pair.state.chain_key is None
    assert memo.memo_hits > 100
    assert memo.memo_hits + memo.memo_misses == keyed_calls


@pytest.mark.parametrize("name", ["analytic", "density"])
@pytest.mark.parametrize("which", range(5))
def test_every_mutator_drops_the_key(name, which):
    # A step recorded after a mutator, then replayed without it (and the
    # other way round), must still see the matrix it is applied to.
    memo = get_backend(name)
    model = memo.attempt_model(lab_scenario(), 0.2)
    heralds = np.random.default_rng(5)
    first = ("apply_dephasing", "A", 0.2)
    last = ("apply_t1t2", "A", COHERENCES[1], DURATIONS[2])
    for mutate in (True, False, True):
        _, sample = model.resolve(heralds, 10 ** 7)
        pair = EntangledPair(state=sample.state,
                             heralded_bell=sample.bell_index, created_at=0.0)
        reference = EntangledPair(state=sample.state.copy(),
                                  heralded_bell=sample.bell_index,
                                  created_at=0.0)
        ops = [first, ("mutate", which, 0), last] if mutate else [first, last]
        for op in ops:
            _step(memo, pair, op, np.random.default_rng(1))
            _step(get_backend(name), reference, op, np.random.default_rng(1))
            if op[0] == "mutate":
                assert pair.state.chain_key is None
        assert pair.state.matrix.tobytes() == reference.state.matrix.tobytes()


@pytest.mark.parametrize("name", ["analytic", "density"])
def test_memo_stays_within_its_bound(name, monkeypatch):
    backend = get_backend(name)
    monkeypatch.setattr(backend, "PAIR_MEMO_SIZE", 8)
    model = backend.attempt_model(lab_scenario(), 0.2)
    rng = np.random.default_rng(3)
    sizes = []
    for duration in [1e-6 * (1 + index % 5) for index in range(60)]:
        _, sample = model.resolve(rng, 10 ** 7)
        pair = EntangledPair(state=sample.state,
                             heralded_bell=sample.bell_index, created_at=0.0)
        reference = EntangledPair(state=sample.state.copy(),
                                  heralded_bell=sample.bell_index,
                                  created_at=0.0)
        backend.apply_t1t2(pair, "A", COHERENCES[1], duration)
        get_backend(name).apply_t1t2(reference, "A", COHERENCES[1], duration)
        assert pair.state.matrix.tobytes() == reference.state.matrix.tobytes()
        sizes.append(len(backend._pair_memo))
    assert max(sizes) == 8 and sizes[-1] < 8  # it filled up and was cleared
    assert backend.memo_hits > 0


def test_unkeyed_states_are_never_served():
    backend = get_backend("analytic")
    model = backend.attempt_model(lab_scenario(), 0.2)
    _, sample = model.resolve(np.random.default_rng(1), 10 ** 7)
    for _ in range(3):
        state = sample.state.copy()
        state.chain_key = None
        pair = EntangledPair(state=state, heralded_bell=sample.bell_index,
                             created_at=0.0)
        backend.apply_depolarizing(pair, "B", 0.9)
        assert pair.state.chain_key is None
    assert backend.memo_hits == backend.memo_misses == 0
    assert not backend._pair_memo


def test_standalone_attempt_models_herald_unkeyed_states():
    backend = get_backend("analytic")
    model = backend.attempt_model_class(lab_scenario(), 0.2)
    _, sample = model.resolve(np.random.default_rng(1), 10 ** 7)
    assert sample.success and sample.state.chain_key is None


# --------------------------------------------------------------------------- #
# FEU answers: once per (input, request type), equal to a fresh computation
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["analytic", "density"])
@pytest.mark.parametrize("scenario", [lab_scenario(), ql2020_scenario()],
                         ids=["Lab", "QL2020"])
def test_feu_memo_answers_equal_fresh_answers(name, scenario):
    feu = FidelityEstimationUnit(scenario, backend=get_backend(name))
    # FEUs on one backend share their answers, so the fresh answers come
    # from an FEU on a backend of its own.
    fresh = FidelityEstimationUnit(scenario, backend=get_backend(name))
    answers = []
    for min_fidelity in np.linspace(0.0, 1.0, 41):
        for request_type in RequestType:
            expected = fresh.estimate_for_fidelity(float(min_fidelity),
                                                   request_type)
            for _ in range(2):
                got = feu.estimate_for_fidelity(float(min_fidelity),
                                                request_type)
                assert got == expected
            answers.append(got)
    assert None in answers and any(answer is not None for answer in answers)
    for alpha in np.linspace(0.02, 0.6, 23):
        for request_type in RequestType:
            for _ in range(2):
                assert (feu.goodness(float(alpha), request_type)
                        == fresh.goodness(float(alpha), request_type))
                assert (feu.success_probability(float(alpha), request_type)
                        == fresh.success_probability(float(alpha),
                                                     request_type))


def test_feu_goodness_still_blends_test_rounds():
    feu = FidelityEstimationUnit(lab_scenario(), backend="analytic",
                                 test_window=4)
    baseline = feu.goodness(0.1, RequestType.KEEP)
    for basis in ("X", "Y", "Z", "Z"):
        feu.record_test_round(basis, 0, 1, target=BellIndex.PSI_PLUS)
    blended = feu.goodness(0.1, RequestType.KEEP)
    assert blended != baseline
    assert blended == pytest.approx(feu.measured_fidelity())


def test_feu_rejects_out_of_range_fidelity_every_time():
    feu = FidelityEstimationUnit(lab_scenario(), backend="analytic")
    for _ in range(2):
        with pytest.raises(ValueError):
            feu.estimate_for_fidelity(1.5, RequestType.KEEP)
