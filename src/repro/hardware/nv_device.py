"""NV-centre quantum processing device model.

Each controllable node hosts one :class:`NVQuantumProcessor` with a single
electron-spin *communication* qubit (optical interface) and one or more
carbon-13 *memory* qubits.  The device model applies the noise processes of
the paper's Appendix D to the halves of entangled pairs stored in its qubits:

* T1/T2 decay while a qubit idles,
* depolarising gate noise when moving a state to memory (E-C controlled
  sqrt(X) gates),
* per-attempt dephasing of the carbon memory while further entanglement
  attempts run (Eq. 25),
* asymmetric, noisy electron readout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from repro.hardware.pair import EntangledPair
from repro.hardware.parameters import CoherenceTimes, NVGateParameters
from repro.quantum import noise


class QubitRole(Enum):
    """Physical role of a qubit in the NV device."""

    COMMUNICATION = "communication"
    MEMORY = "memory"


@dataclass
class QubitSlot:
    """A physical qubit position in the device."""

    qubit_id: int
    role: QubitRole
    in_use: bool = False
    pair: Optional[EntangledPair] = None
    #: Simulation time at which the current state was last touched; used to
    #: apply idle decay lazily.
    last_update: float = 0.0
    metadata: dict = field(default_factory=dict)


class OutOfQubitsError(RuntimeError):
    """Raised when a qubit of the requested role is not available."""


class NVQuantumProcessor:
    """Model of one node's NV-centre quantum processor.

    Parameters
    ----------
    name:
        Node name ("A" or "B"); selects which half of stored pairs this
        device acts on.
    gate_parameters:
        Noise and timing constants (paper Table 6).
    num_communication:
        Number of electron communication qubits (1 for NV).
    num_memory:
        Number of carbon memory qubits.
    rng:
        Random generator used for measurements.
    backend:
        Physics backend that applies the noise channels and readout to pair
        states; a name, an instance, or ``None`` for the environment default.
    """

    def __init__(self, name: str, gate_parameters: NVGateParameters,
                 num_communication: int = 1, num_memory: int = 1,
                 rng: Optional[np.random.Generator] = None,
                 backend=None) -> None:
        from repro.backends import get_backend

        if name.upper() not in ("A", "B"):
            raise ValueError(f"node name must be 'A' or 'B', got {name!r}")
        self.name = name.upper()
        self.gates = gate_parameters
        self.backend = get_backend(backend)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.slots: list[QubitSlot] = []
        #: The slots of each role, in qubit-id order.  Plain attributes,
        #: not a dict keyed on the role: ``Enum.__hash__`` runs in Python,
        #: and the QMM scans these on every poll.
        self.communication_slots: list[QubitSlot] = []
        self.memory_slots: list[QubitSlot] = []
        for role, count, group in (
                (QubitRole.COMMUNICATION, num_communication,
                 self.communication_slots),
                (QubitRole.MEMORY, num_memory, self.memory_slots)):
            for _ in range(count):
                slot = QubitSlot(len(self.slots), role)
                self.slots.append(slot)
                group.append(slot)

    # ------------------------------------------------------------------ #
    # Qubit slot management (used by the QMM)
    # ------------------------------------------------------------------ #
    def slots_of(self, role: QubitRole) -> list[QubitSlot]:
        """Every slot of ``role``, free or not, in qubit-id order."""
        if role is QubitRole.COMMUNICATION:
            return self.communication_slots
        return self.memory_slots

    def free_slots(self, role: Optional[QubitRole] = None) -> list[QubitSlot]:
        """All currently unused slots, optionally filtered by role."""
        slots = self.slots if role is None else self.slots_of(role)
        return [slot for slot in slots if not slot.in_use]

    def reserve(self, role: QubitRole) -> QubitSlot:
        """Reserve a free qubit of the given role.

        Raises :class:`OutOfQubitsError` if none is available (the QMM's
        per-poll allocation scans :meth:`slots_of` instead and never
        raises).
        """
        for slot in self.slots_of(role):
            if not slot.in_use:
                slot.in_use = True
                return slot
        raise OutOfQubitsError(
            f"node {self.name} has no free {role.value} qubit")

    def release(self, slot: QubitSlot) -> None:
        """Release a previously reserved slot."""
        slot.in_use = False
        slot.pair = None
        slot.metadata.clear()

    def slot_by_id(self, qubit_id: int) -> QubitSlot:
        """Look up a slot by physical qubit id."""
        for slot in self.slots:
            if slot.qubit_id == qubit_id:
                return slot
        raise KeyError(f"node {self.name} has no qubit {qubit_id}")

    # ------------------------------------------------------------------ #
    # Noise application
    # ------------------------------------------------------------------ #
    def _coherence_for(self, slot: QubitSlot) -> CoherenceTimes:
        if slot.role is QubitRole.COMMUNICATION:
            return self.gates.electron_coherence
        return self.gates.carbon_coherence

    def apply_idle_decay(self, pair: EntangledPair, slot: QubitSlot,
                         duration: float) -> None:
        """Apply T1/T2 decay to this node's half of ``pair`` for ``duration``."""
        if duration <= 0:
            return
        self.backend.apply_t1t2(pair, self.name, self._coherence_for(slot),
                                duration)

    def apply_initialization_noise(self, pair: EntangledPair) -> None:
        """Depolarising noise from imperfect electron initialisation."""
        self.backend.apply_depolarizing(pair, self.name,
                                        self.gates.electron_init_fidelity)

    def move_to_memory(self, pair: EntangledPair,
                       communication_slot: QubitSlot,
                       memory_slot: QubitSlot) -> float:
        """Swap this node's half of ``pair`` from the electron to a carbon.

        Applies the gate noise of the two E-C controlled-sqrt(X) gates used by
        the swap, plus electron decay over the swap duration, and rebinds the
        pair to the memory slot.  Returns the duration of the operation.
        """
        duration = self.gates.swap_to_memory_duration
        # Two E-C gates: approximate their combined error as two depolarising
        # applications on the transferred qubit.  The pulse sequence that
        # implements the swap dynamically decouples the electron (Section
        # D.2.2), so no additional free-evolution T2 decay is applied for the
        # swap duration; the gate fidelity already captures the residual error.
        self.backend.apply_depolarizing(pair, self.name,
                                        self.gates.ec_gate_fidelity)
        self.backend.apply_depolarizing(pair, self.name,
                                        self.gates.ec_gate_fidelity)
        communication_slot.pair = None
        communication_slot.in_use = False
        memory_slot.pair = pair
        memory_slot.in_use = True
        pair.qubit_ids[self.name] = memory_slot.qubit_id
        return duration

    def apply_attempt_dephasing(self, pair: EntangledPair, slot: QubitSlot,
                                attempts: int, alpha: float) -> None:
        """Carbon dephasing from ``attempts`` further entanglement attempts.

        While new entanglement attempts run, the repeated electron resets
        dephase any state stored in the carbon memory (Eq. 25/26).
        """
        if attempts <= 0 or slot.role is not QubitRole.MEMORY:
            return
        per_attempt = noise.nuclear_dephasing_per_attempt(
            alpha, self.gates.carbon_coupling_rad_s,
            self.gates.carbon_reset_decay_s)
        # N attempts shrink coherence by (1 - p)^N; express as one dephasing.
        coherence_factor = (1.0 - 2.0 * per_attempt) ** attempts
        effective = (1.0 - coherence_factor) / 2.0
        self.backend.apply_dephasing(pair, self.name, effective)

    def apply_correction(self, pair: EntangledPair) -> None:
        """Apply the local Z gate converting |Psi-> into |Psi+> (Eq. 13)."""
        self.backend.apply_correction(pair, self.name,
                                      self.gates.electron_gate_fidelity)

    # ------------------------------------------------------------------ #
    # Measurement
    # ------------------------------------------------------------------ #
    def measure_pair(self, pair: EntangledPair, basis: str = "Z") -> int:
        """Measure this node's half of ``pair`` with noisy electron readout.

        The requested basis is rotated onto Z before the asymmetric readout
        POVM of Eq. (23) is applied.
        """
        return self.backend.measure_pair(pair, self.name, basis,
                                         self.gates.readout_fidelity_0,
                                         self.gates.readout_fidelity_1,
                                         self.rng)

    # ------------------------------------------------------------------ #
    # Timing helpers
    # ------------------------------------------------------------------ #
    def readout_duration(self) -> float:
        """Duration of one electron readout."""
        return self.gates.readout_duration

    def memory_reinit_overhead(self) -> float:
        """Fraction of time lost to periodic carbon re-initialisation."""
        period = self.gates.carbon_reinit_period
        if period <= 0:
            return 0.0
        return self.gates.carbon_reinit_duration / period

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        used = sum(1 for slot in self.slots if slot.in_use)
        return (f"<NVQuantumProcessor {self.name} qubits={len(self.slots)} "
                f"in_use={used}>")
