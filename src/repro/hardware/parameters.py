"""Hardware parameter sets for the Lab and QL2020 scenarios.

All numbers come from the paper (Section 4.4, Table 6 and Appendix D).  The
dataclasses are intentionally explicit so that a reader can map every field to
a quantity in the paper.

Units: seconds for time, kilometres for distance, radians for angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.sim.channel import fibre_delay

#: Degrees-to-radians helper used for the optical phase uncertainty.
_DEG = math.pi / 180.0


@dataclass(frozen=True)
class CoherenceTimes:
    """T1 / T2 times of a single qubit in seconds.

    ``math.inf`` disables the corresponding decay process.
    """

    t1: float
    t2: float

    def __post_init__(self) -> None:
        for name, value in (("t1", self.t1), ("t2", self.t2)):
            if value <= 0:
                raise ValueError(f"{name} must be positive (use inf to disable), "
                                 f"got {value}")


@dataclass(frozen=True)
class NVGateParameters:
    """Gate/initialisation/readout fidelities and durations (paper Table 6)."""

    #: Electron (communication qubit) coherence.
    electron_coherence: CoherenceTimes = CoherenceTimes(t1=2.86e-3, t2=1.00e-3)
    #: Carbon (memory qubit) coherence.
    carbon_coherence: CoherenceTimes = CoherenceTimes(t1=math.inf, t2=3.5e-3)
    #: Electron single-qubit gate (fidelity, duration).
    electron_gate_fidelity: float = 1.0
    electron_gate_duration: float = 5e-9
    #: Electron-carbon controlled-sqrt(X) gate.
    ec_gate_fidelity: float = 0.992
    ec_gate_duration: float = 500e-6
    #: Carbon Z rotation.
    carbon_z_fidelity: float = 0.999
    carbon_z_duration: float = 20e-6
    #: Electron initialisation into |0>.
    electron_init_fidelity: float = 0.95
    electron_init_duration: float = 2e-6
    #: Carbon initialisation into |0>.
    carbon_init_fidelity: float = 0.95
    carbon_init_duration: float = 310e-6
    #: Electron readout fidelities for |0> and |1> and its duration.
    readout_fidelity_0: float = 0.95
    readout_fidelity_1: float = 0.995
    readout_duration: float = 3.7e-6
    #: Duration of the electron->carbon swap (move to memory), Section D.3.3.
    swap_to_memory_duration: float = 1040e-6
    #: Carbon re-initialisation period and duration (Section D.3.3): the
    #: carbon is re-initialised for 330 us every 3500 us while attempts run.
    carbon_reinit_period: float = 3500e-6
    carbon_reinit_duration: float = 330e-6
    #: Nuclear-spin dephasing model per entanglement attempt (Eq. 25):
    #: electron-carbon coupling strength (rad/s) and reset decay constant (s).
    carbon_coupling_rad_s: float = 2.0 * math.pi * 377e3
    carbon_reset_decay_s: float = 82e-9


@dataclass(frozen=True)
class OpticalParameters:
    """Photonic / optical parameters of one node's path to the midpoint
    (paper Appendix D.4 and D.5)."""

    #: Probability of emitting into the zero-phonon line (3% bare, 46% cavity).
    p_zero_phonon: float = 0.03
    #: Probability of collecting the emitted photon into fibre.
    p_collection: float = 0.014
    #: Extra multiplicative efficiency of frequency conversion (1.0 if unused).
    p_frequency_conversion: float = 1.0
    #: Fibre attenuation in dB/km (5 dB/km at 637 nm, 0.5 dB/km at 1588 nm).
    fiber_loss_db_per_km: float = 5.0
    #: Fibre length from this node to the heralding station, km.
    fiber_length_km: float = 1e-3
    #: Detector efficiency (probability a detector clicks given a photon).
    p_detection: float = 0.8
    #: Dark-count rate per detector, Hz.
    dark_count_rate_hz: float = 20.0
    #: Detection time window, seconds.
    detection_window: float = 50e-9
    #: Characteristic emission time of the NV (12 ns bare, 6.48 ns cavity).
    emission_time_constant: float = 12e-9
    #: Probability of a two-photon emission given at least one photon (4%).
    p_double_emission: float = 0.04
    #: Standard deviation of the optical phase of one arm, radians.  The
    #: paper's measured electron-electron phase std of 14.3 degrees splits
    #: over the two arms as 14.3/sqrt(2) per arm.
    phase_std: float = 14.3 * _DEG / math.sqrt(2.0)
    #: Photon indistinguishability |mu|^2 (Hong-Ou-Mandel visibility).
    visibility: float = 0.9

    def survival_probability(self) -> float:
        """Probability an emitted photon reaches the midpoint detectors.

        Combines zero-phonon-line emission, collection into fibre, frequency
        conversion, finite detection window and fibre transmission.  Detector
        efficiency is *not* included here (it is applied classically at the
        midpoint).
        """
        from repro.hardware.fiber import fiber_transmissivity

        window = 1.0 - math.exp(-self.detection_window / self.emission_time_constant)
        transmission = fiber_transmissivity(self.fiber_length_km,
                                            self.fiber_loss_db_per_km)
        return (self.p_zero_phonon * self.p_collection
                * self.p_frequency_conversion * window * transmission)

    def dark_count_probability(self) -> float:
        """Probability of a dark count in one detector during the window
        (Eq. 34)."""
        return 1.0 - math.exp(-self.detection_window * self.dark_count_rate_hz)


@dataclass(frozen=True)
class TimingParameters:
    """Timing constants of the physical entanglement generation (Section 4.4)."""

    #: Duration of the MHP cycle (minimum spacing between attempt triggers).
    mhp_cycle: float
    #: Full duration of one attempt for a measure-directly (M) request.
    attempt_duration_m: float
    #: Full duration of one attempt for a create-and-keep (K) request.
    attempt_duration_k: float
    #: Minimum spacing between attempts for M requests (1 / r_attempt).
    attempt_spacing_m: float
    #: Minimum spacing between attempts for K requests (1 / r_attempt).
    attempt_spacing_k: float
    #: Expected number of MHP cycles per attempt for M requests.
    expected_cycles_per_attempt_m: float
    #: Expected number of MHP cycles per attempt for K requests.
    expected_cycles_per_attempt_k: float
    #: Classical one-way communication delay node A <-> heralding station.
    midpoint_delay_a: float
    #: Classical one-way communication delay node B <-> heralding station.
    midpoint_delay_b: float

    def expected_cycles(self, measure_directly: bool) -> float:
        """E, the expected MHP cycles per attempt for the request type."""
        if measure_directly:
            return self.expected_cycles_per_attempt_m
        return self.expected_cycles_per_attempt_k


@dataclass(frozen=True)
class ClassicalLinkParameters:
    """Parameters of the classical control link (Appendix D.6.1)."""

    #: Probability of losing a classical frame (0 for realistic distances;
    #: the robustness study sweeps this up to 1e-4).
    frame_loss_probability: float = 0.0
    #: One-way delay between the two controllable nodes, seconds.
    node_to_node_delay: float = 1e-6


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one evaluation scenario (Lab or QL2020)."""

    name: str
    gates: NVGateParameters
    optics_a: OpticalParameters
    optics_b: OpticalParameters
    timing: TimingParameters
    classical: ClassicalLinkParameters
    #: Number of communication qubits per node (NV has a single electron).
    num_communication_qubits: int = 1
    #: Number of memory (carbon) qubits per node.
    num_memory_qubits: int = 1
    #: Maximum number of outstanding requests in the distributed queue.
    max_queue_size: int = 256

    @property
    def physics_key(self) -> tuple:
        """The fields that attempt models and FEU rows read.

        Scenarios with equal keys herald the same states with the same
        probabilities and deliver the same fidelities, whatever their name,
        classical link or memory sizes; a backend keys its attempt models
        and FEU tables on this.
        """
        return (self.gates, self.optics_a, self.optics_b, self.timing)

    def with_frame_loss(self, probability: float) -> "ScenarioConfig":
        """Copy of this scenario with a different classical frame-loss rate."""
        classical = replace(self.classical, frame_loss_probability=probability)
        return replace(self, classical=classical)

    def with_optics(self, optics_a: Optional[OpticalParameters] = None,
                    optics_b: Optional[OpticalParameters] = None) -> "ScenarioConfig":
        """Copy of this scenario with replaced optical parameter sets."""
        return replace(self,
                       optics_a=optics_a or self.optics_a,
                       optics_b=optics_b or self.optics_b)


def lab_scenario() -> ScenarioConfig:
    """The Lab scenario: nodes 2 m apart, 1 m to the heralding station each.

    Timing constants from Section 4.4: for M requests
    ``t_attempt = 1/r_attempt = 10.12 us``; for K requests
    ``t_attempt = 1045 us`` with ``1/r_attempt ~= 11 us`` (memory qubits are
    re-initialised for 330 us every 3500 us).  E ~= 1 (M) and ~= 1.1 (K).
    """
    optics = OpticalParameters(
        p_zero_phonon=0.03,
        p_collection=0.014,
        p_frequency_conversion=1.0,
        fiber_loss_db_per_km=5.0,
        fiber_length_km=1e-3,
    )
    timing = TimingParameters(
        mhp_cycle=10.12e-6,
        attempt_duration_m=10.12e-6,
        attempt_duration_k=1045e-6,
        attempt_spacing_m=10.12e-6,
        attempt_spacing_k=11e-6,
        expected_cycles_per_attempt_m=1.0,
        expected_cycles_per_attempt_k=1.1,
        midpoint_delay_a=9.7e-9,
        midpoint_delay_b=9.7e-9,
    )
    classical = ClassicalLinkParameters(
        frame_loss_probability=0.0,
        node_to_node_delay=2 * 9.7e-9,
    )
    return ScenarioConfig(
        name="Lab",
        gates=NVGateParameters(),
        optics_a=optics,
        optics_b=optics,
        timing=timing,
        classical=classical,
    )


def ql2020_scenario() -> ScenarioConfig:
    """The QL2020 scenario: two European cities ~25 km apart over telecom fibre.

    Node A is ~10 km from the heralding station (48.4 us one-way delay),
    node B ~15 km (72.6 us).  Photons are frequency-converted to 1588 nm
    (0.5 dB/km loss) and optical cavities enhance emission.  Timing constants
    from Section 4.4: ``t_attempt = 145 us`` (M) and ``1185 us`` (K);
    ``1/r_attempt = 10.12 us`` (M) and ``~165 us`` (K); E ~= 1 (M), ~= 16 (K).
    """
    optics_a = OpticalParameters(
        p_zero_phonon=0.46,
        p_collection=0.014,
        p_frequency_conversion=0.30,
        fiber_loss_db_per_km=0.5,
        fiber_length_km=10.0,
        emission_time_constant=6.48e-9,
    )
    optics_b = replace(optics_a, fiber_length_km=15.0)
    delay_a = 48.4e-6
    delay_b = 72.6e-6
    timing = TimingParameters(
        mhp_cycle=10.12e-6,
        attempt_duration_m=145e-6,
        attempt_duration_k=1185e-6,
        attempt_spacing_m=10.12e-6,
        attempt_spacing_k=165e-6,
        expected_cycles_per_attempt_m=1.0,
        expected_cycles_per_attempt_k=16.0,
        midpoint_delay_a=delay_a,
        midpoint_delay_b=delay_b,
    )
    classical = ClassicalLinkParameters(
        frame_loss_probability=0.0,
        node_to_node_delay=fibre_delay(25.0),
    )
    return ScenarioConfig(
        name="QL2020",
        gates=NVGateParameters(),
        optics_a=optics_a,
        optics_b=optics_b,
        timing=timing,
        classical=classical,
    )
