"""Quantum Memory Manager (QMM) — paper Section 4.5 and 5.2.2.

The QMM owns the mapping between logical qubit identifiers used by the EGP
and the physical qubit slots of the node's NV device.  The EGP asks it for a
communication qubit (to run an attempt) and, for create-and-keep requests,
a storage qubit to move the electron state into.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.messages import ErrorCode, RequestType
from repro.hardware.nv_device import NVQuantumProcessor, QubitSlot


def _count_free(slots: list[QubitSlot]) -> int:
    """Number of unused slots in ``slots``, counted without building a list."""
    count = 0
    for slot in slots:
        if not slot.in_use:
            count += 1
    return count


@dataclass(slots=True)
class QubitAllocation:
    """Qubits reserved for one entanglement attempt (one per granted poll,
    so slotted and built positionally)."""

    communication: QubitSlot
    storage: Optional[QubitSlot] = None


class QuantumMemoryManager:
    """Allocates physical qubits of an NV device on behalf of the EGP.

    Parameters
    ----------
    device:
        The node's quantum processor.
    """

    def __init__(self, device: NVQuantumProcessor) -> None:
        self.device = device
        self.allocation_failures = 0

    # ------------------------------------------------------------------ #
    # Capacity queries
    # ------------------------------------------------------------------ #
    def free_communication_qubits(self) -> int:
        """Number of currently free communication qubits."""
        return _count_free(self.device.communication_slots)

    def free_storage_qubits(self) -> int:
        """Number of currently free memory (storage) qubits."""
        return _count_free(self.device.memory_slots)

    def total_storage_qubits(self) -> int:
        """Total number of memory qubits in the device."""
        return len(self.device.memory_slots)

    def can_satisfy(self, request_type: RequestType,
                    pairs_simultaneously: int = 1) -> Optional[ErrorCode]:
        """Check whether the device can ever / currently serve a request.

        Returns ``None`` when the request can proceed, ``MEMEXCEEDED`` when
        the device is permanently too small (atomic request for more pairs
        than memory qubits exist), or ``OUTOFMEM`` when memory is only
        temporarily unavailable.
        """
        if request_type is RequestType.MEASURE:
            return None
        if pairs_simultaneously > self.total_storage_qubits():
            return ErrorCode.MEMEXCEEDED
        if self.free_storage_qubits() < 1:
            return ErrorCode.OUTOFMEM
        return None

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    def allocate(self, request_type: RequestType) -> Optional[QubitAllocation]:
        """Reserve the qubits needed for one attempt of the given type.

        Measure-directly attempts only need the communication qubit;
        create-and-keep attempts additionally reserve a storage qubit.
        Returns ``None`` (and counts a failure) when the reservation cannot
        be satisfied right now; a failed allocation changes no slot.  Takes
        the first free slot of each role directly rather than through
        :meth:`NVQuantumProcessor.reserve`, which raises: about half the
        polls of a busy chain fail here, and a failure should not build,
        format and catch an exception.
        """
        device = self.device
        for communication in device.communication_slots:
            if not communication.in_use:
                break
        else:
            self.allocation_failures += 1
            return None
        storage: Optional[QubitSlot] = None
        if request_type is RequestType.KEEP:
            # Found before anything is reserved, so a full memory (the
            # common failure of a busy chain) leaves every slot untouched.
            for storage in device.memory_slots:
                if not storage.in_use:
                    break
            else:
                self.allocation_failures += 1
                return None
            storage.in_use = True
        communication.in_use = True
        return QubitAllocation(communication, storage)

    def release(self, allocation: QubitAllocation,
                keep_storage: bool = False) -> None:
        """Release an allocation.

        ``keep_storage=True`` keeps the storage qubit reserved (it now holds
        a delivered pair owned by the higher layer) and frees only the
        communication qubit.
        """
        self.device.release(allocation.communication)
        if allocation.storage is not None and not keep_storage:
            self.device.release(allocation.storage)

    def release_storage(self, qubit_id: int) -> None:
        """Free a storage qubit previously handed to the higher layer."""
        slot = self.device.slot_by_id(qubit_id)
        self.device.release(slot)
