"""Tests for the NV quantum processor model and entangled-pair bookkeeping."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.messages import RequestType
from repro.core.qmm import QuantumMemoryManager
from repro.hardware.nv_device import (
    NVQuantumProcessor,
    OutOfQubitsError,
    QubitRole,
)
from repro.hardware.pair import EntangledPair
from repro.hardware.parameters import NVGateParameters
from repro.quantum.density import DensityMatrix
from repro.quantum.states import BellIndex, bell_state


def make_pair(bell: BellIndex = BellIndex.PSI_PLUS,
              created_at: float = 0.0) -> EntangledPair:
    return EntangledPair(state=DensityMatrix.from_ket(bell_state(bell)),
                         heralded_bell=bell, created_at=created_at,
                         midpoint_sequence=1)


@pytest.fixture
def device(rng):
    return NVQuantumProcessor("A", NVGateParameters(), num_communication=1,
                              num_memory=1, rng=rng)


class TestQubitSlots:
    def test_slot_inventory(self, device):
        roles = [slot.role for slot in device.slots]
        assert roles.count(QubitRole.COMMUNICATION) == 1
        assert roles.count(QubitRole.MEMORY) == 1

    def test_reserve_and_release(self, device):
        slot = device.reserve(QubitRole.COMMUNICATION)
        assert slot.in_use
        assert device.free_slots(QubitRole.COMMUNICATION) == []
        device.release(slot)
        assert len(device.free_slots(QubitRole.COMMUNICATION)) == 1

    def test_reserve_exhaustion_raises(self, device):
        device.reserve(QubitRole.MEMORY)
        with pytest.raises(OutOfQubitsError):
            device.reserve(QubitRole.MEMORY)

    def test_slot_by_id(self, device):
        assert device.slot_by_id(0).qubit_id == 0
        with pytest.raises(KeyError):
            device.slot_by_id(99)

    def test_invalid_node_name(self):
        with pytest.raises(ValueError):
            NVQuantumProcessor("C", NVGateParameters())


class TestQmmAllocation:
    """``QuantumMemoryManager.allocate`` scans the per-role slot lists and
    never raises; ``reserve`` keeps raising for direct callers."""

    def test_busy_communication_qubit_fails_without_raising(self, device):
        qmm = QuantumMemoryManager(device)
        device.reserve(QubitRole.COMMUNICATION)
        for request_type in (RequestType.KEEP, RequestType.MEASURE):
            assert qmm.allocate(request_type) is None
        assert qmm.allocation_failures == 2
        # The failed KEEP attempt left the free memory qubit alone.
        assert qmm.free_storage_qubits() == 1

    def test_full_memory_fails_and_returns_the_communication_qubit(
            self, device):
        qmm = QuantumMemoryManager(device)
        stored = device.reserve(QubitRole.MEMORY)
        assert qmm.allocate(RequestType.KEEP) is None
        assert qmm.allocation_failures == 1
        assert qmm.free_communication_qubits() == 1
        assert stored.in_use
        # Measure-directly attempts need no memory and still succeed.
        allocation = qmm.allocate(RequestType.MEASURE)
        assert allocation is not None and allocation.storage is None
        assert qmm.allocation_failures == 1

    @staticmethod
    def _slot_states(device):
        return [(slot.in_use, slot.pair, dict(slot.metadata))
                for slot in device.slots]

    @staticmethod
    def _mark_free_slots(device):
        """Give every free slot a pair and metadata, so a release of a slot
        the allocation never reserved would show."""
        for slot in device.slots:
            if not slot.in_use:
                slot.pair = make_pair()
                slot.metadata["mark"] = slot.qubit_id

    def test_failed_keep_allocation_with_full_memory_changes_no_slot(
            self, rng, monkeypatch):
        device = NVQuantumProcessor("A", NVGateParameters(),
                                    num_communication=2, num_memory=2,
                                    rng=rng)
        qmm = QuantumMemoryManager(device)
        for slot in device.memory_slots:
            slot.in_use = True
            slot.pair = make_pair()
        self._mark_free_slots(device)
        before = self._slot_states(device)
        released = []
        monkeypatch.setattr(device, "release", released.append)
        assert qmm.allocate(RequestType.KEEP) is None
        assert self._slot_states(device) == before
        assert released == []
        assert qmm.allocation_failures == 1

    @pytest.mark.parametrize("request_type", list(RequestType))
    def test_failed_allocation_with_busy_communication_changes_no_slot(
            self, rng, monkeypatch, request_type):
        device = NVQuantumProcessor("A", NVGateParameters(),
                                    num_communication=1, num_memory=2,
                                    rng=rng)
        qmm = QuantumMemoryManager(device)
        busy = device.communication_slots[0]
        busy.in_use = True
        busy.pair = make_pair()
        busy.metadata["attempt"] = 3
        self._mark_free_slots(device)
        before = self._slot_states(device)
        released = []
        monkeypatch.setattr(device, "release", released.append)
        assert qmm.allocate(request_type) is None
        assert self._slot_states(device) == before
        assert released == []
        assert qmm.allocation_failures == 1

    def test_allocate_takes_first_free_slot_of_each_role(self, rng):
        device = NVQuantumProcessor("B", NVGateParameters(),
                                    num_communication=2, num_memory=3,
                                    rng=rng)
        qmm = QuantumMemoryManager(device)
        device.reserve(QubitRole.MEMORY)
        allocation = qmm.allocate(RequestType.KEEP)
        assert allocation.communication is device.communication_slots[0]
        assert allocation.storage is device.memory_slots[1]
        assert allocation.communication.in_use and allocation.storage.in_use
        qmm.release(allocation)
        assert qmm.free_communication_qubits() == 2
        assert qmm.free_storage_qubits() == 2

    def test_reserve_still_raises(self, device):
        device.reserve(QubitRole.COMMUNICATION)
        with pytest.raises(OutOfQubitsError, match="communication"):
            device.reserve(QubitRole.COMMUNICATION)

    def test_free_counts_agree_with_free_slots(self, rng):
        device = NVQuantumProcessor("A", NVGateParameters(),
                                    num_communication=2, num_memory=4,
                                    rng=rng)
        qmm = QuantumMemoryManager(device)

        def check():
            assert qmm.free_communication_qubits() == len(
                device.free_slots(QubitRole.COMMUNICATION))
            assert qmm.free_storage_qubits() == len(
                device.free_slots(QubitRole.MEMORY))

        check()
        held = []
        while (allocation := qmm.allocate(RequestType.KEEP)) is not None:
            held.append(allocation)
            check()
        assert len(held) == 2 and qmm.free_communication_qubits() == 0
        for allocation in held:
            qmm.release(allocation, keep_storage=True)
            check()
        assert qmm.free_storage_qubits() == 2
        assert qmm.total_storage_qubits() == 4


class TestNoiseApplication:
    def test_idle_decay_reduces_fidelity(self, device):
        pair = make_pair()
        slot = device.slot_by_id(0)
        device.apply_idle_decay(pair, slot, duration=0.5e-3)
        assert pair.fidelity(BellIndex.PSI_PLUS) < 1.0

    def test_zero_duration_decay_is_noop(self, device):
        pair = make_pair()
        slot = device.slot_by_id(0)
        device.apply_idle_decay(pair, slot, duration=0.0)
        assert pair.fidelity(BellIndex.PSI_PLUS) == pytest.approx(1.0)

    def test_memory_qubit_decays_slower_than_electron(self, rng):
        gates = NVGateParameters()
        device = NVQuantumProcessor("A", gates, rng=rng)
        duration = 1e-3
        electron_pair, memory_pair = make_pair(), make_pair()
        device.apply_idle_decay(electron_pair, device.slot_by_id(0), duration)
        device.apply_idle_decay(memory_pair, device.slot_by_id(1), duration)
        assert (memory_pair.fidelity(BellIndex.PSI_PLUS)
                > electron_pair.fidelity(BellIndex.PSI_PLUS))

    def test_move_to_memory_applies_gate_noise_and_rebinds(self, device):
        pair = make_pair()
        comm = device.reserve(QubitRole.COMMUNICATION)
        memory = device.reserve(QubitRole.MEMORY)
        duration = device.move_to_memory(pair, comm, memory)
        assert duration == pytest.approx(
            NVGateParameters().swap_to_memory_duration)
        assert memory.pair is pair
        assert not comm.in_use
        assert pair.qubit_ids["A"] == memory.qubit_id
        # Two imperfect E-C gates leave the fidelity slightly below 1.
        assert 0.95 < pair.fidelity(BellIndex.PSI_PLUS) < 1.0

    def test_attempt_dephasing_only_affects_memory_slots(self, device):
        pair_comm, pair_mem = make_pair(), make_pair()
        device.apply_attempt_dephasing(pair_comm, device.slot_by_id(0),
                                       attempts=100, alpha=0.3)
        device.apply_attempt_dephasing(pair_mem, device.slot_by_id(1),
                                       attempts=100, alpha=0.3)
        assert pair_comm.fidelity(BellIndex.PSI_PLUS) == pytest.approx(1.0)
        assert pair_mem.fidelity(BellIndex.PSI_PLUS) < 1.0

    def test_more_attempts_cause_more_dephasing(self, device):
        slot = device.slot_by_id(1)
        few, many = make_pair(), make_pair()
        device.apply_attempt_dephasing(few, slot, attempts=10, alpha=0.3)
        device.apply_attempt_dephasing(many, slot, attempts=1000, alpha=0.3)
        assert few.fidelity(BellIndex.PSI_PLUS) > many.fidelity(BellIndex.PSI_PLUS)

    def test_correction_converts_psi_minus_to_psi_plus(self, device):
        pair = make_pair(BellIndex.PSI_MINUS)
        device.apply_correction(pair)
        assert pair.fidelity(BellIndex.PSI_PLUS) == pytest.approx(1.0, abs=1e-9)


class TestMeasurement:
    def test_z_measurements_anticorrelated_for_psi_plus(self, rng):
        gates = NVGateParameters(readout_fidelity_0=1.0, readout_fidelity_1=1.0)
        device_a = NVQuantumProcessor("A", gates, rng=rng)
        device_b = NVQuantumProcessor("B", gates, rng=rng)
        mismatches = 0
        for _ in range(30):
            pair = make_pair(BellIndex.PSI_PLUS)
            a = device_a.measure_pair(pair, basis="Z")
            b = device_b.measure_pair(pair, basis="Z")
            mismatches += int(a != b)
        assert mismatches == 30

    def test_x_measurements_correlated_for_psi_plus(self, rng):
        gates = NVGateParameters(readout_fidelity_0=1.0, readout_fidelity_1=1.0)
        device_a = NVQuantumProcessor("A", gates, rng=rng)
        device_b = NVQuantumProcessor("B", gates, rng=rng)
        matches = 0
        for _ in range(30):
            pair = make_pair(BellIndex.PSI_PLUS)
            a = device_a.measure_pair(pair, basis="X")
            b = device_b.measure_pair(pair, basis="X")
            matches += int(a == b)
        assert matches == 30

    def test_readout_noise_introduces_errors(self, rng):
        noisy = NVGateParameters(readout_fidelity_0=0.5, readout_fidelity_1=0.5)
        device_a = NVQuantumProcessor("A", noisy, rng=rng)
        device_b = NVQuantumProcessor("B", noisy, rng=rng)
        mismatches = 0
        trials = 200
        for _ in range(trials):
            pair = make_pair(BellIndex.PSI_PLUS)
            mismatches += int(device_a.measure_pair(pair, basis="Z")
                              != device_b.measure_pair(pair, basis="Z"))
        # Random readout destroys the perfect anti-correlation.
        assert 0.3 < mismatches / trials < 0.7

    def test_unknown_basis_raises(self, device):
        with pytest.raises(ValueError):
            device.measure_pair(make_pair(), basis="Q")


class TestEntangledPair:
    def test_side_index_validation(self):
        pair = make_pair()
        with pytest.raises(ValueError):
            pair.apply_one_sided_unitary(np.eye(2), side="C")

    def test_fidelity_target_defaults_to_heralded_state(self):
        pair = make_pair(BellIndex.PSI_MINUS)
        assert pair.fidelity() == pytest.approx(1.0)
        pair.corrected = True
        assert pair.fidelity() == pytest.approx(0.0, abs=1e-9)

    def test_measure_side(self, rng):
        pair = make_pair(BellIndex.PSI_PLUS)
        a = pair.measure_side("A", "Z", rng=rng)
        b = pair.measure_side("B", "Z", rng=rng)
        assert a != b

    def test_memory_reinit_overhead(self, device):
        overhead = device.memory_reinit_overhead()
        assert overhead == pytest.approx(330e-6 / 3500e-6)
