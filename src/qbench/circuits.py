"""Timed two-qubit gate plans for preparing and projecting three-level states.

The working states live on the levels |00>, |01>, |11> (the |10> basis
state stays unpopulated).  Qubit 0 receives the single-qubit rotations
and controls the two controlled operations whose target is qubit 1:

    |psi> = cos(t1/2)|00> + e^{i p1} sin(t1/2) cos(t2/2)|01>
                          + e^{i(p1+p2)} sin(t1/2) sin(t2/2)|11>

Projection circuits invert the (phase-free) preparation and measure
both qubits; P(00) is then the squared overlap with the projector
state.  Controlled gates are compiled to {single-qubit U, CNOT} so the
per-gate noise model sees a fixed instruction template regardless of
parameter values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .qcore import COMPLEX

TWO_PI = 2.0 * math.pi

# Preparation acts on these two qubits; changing them would also change
# the level labels, so they are fixed module-wide.
ROTATION_QUBIT = 0   # single-qubit rotations, control of both controlled gates
PARTNER_QUBIT = 1    # target of both controlled gates

#: basis index of each working level
LEVEL_INDICES = (0, 1, 3)


@dataclass(frozen=True)
class SingleU:
    """Generic rotation U(theta, phi, lam) on one qubit."""

    qubit: int
    theta: float
    phi: float
    lam: float


@dataclass(frozen=True)
class Cnot:
    control: int
    target: int


@dataclass(frozen=True)
class Reset:
    qubit: int


@dataclass(frozen=True)
class Measure:
    qubit: int


GateKind = Union[SingleU, Cnot, Reset, Measure]


@dataclass(frozen=True)
class GateDurations:
    """Wall-clock duration of each instruction type, in nanoseconds."""

    single_u_ns: float = 100.0
    cnot_ns: float = 300.0
    reset_ns: float = 1000.0
    measure_ns: float = 1000.0

    def __post_init__(self) -> None:
        for name in ("single_u_ns", "cnot_ns", "reset_ns", "measure_ns"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"duration {name}={value} must be finite and positive")

    def longest(self) -> float:
        return max(self.single_u_ns, self.cnot_ns, self.reset_ns, self.measure_ns)


DEFAULT_DURATIONS = GateDurations()


@dataclass(frozen=True)
class GateInstruction:
    kind: GateKind
    duration_ns: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration_ns) and self.duration_ns > 0):
            raise ValueError(f"instruction duration {self.duration_ns} must be positive")
        if isinstance(self.kind, SingleU):
            for angle in (self.kind.theta, self.kind.phi, self.kind.lam):
                if not math.isfinite(angle):
                    raise ValueError(f"non-finite gate angle {angle}")
        if isinstance(self.kind, Cnot) and self.kind.control == self.kind.target:
            raise ValueError("CNOT control and target must differ")


@dataclass(frozen=True)
class CircuitPlan:
    """Ordered instruction list on a fixed register.

    Measure instructions may appear only as the trailing block, so a
    plan is always "unitaries and resets, then measurements".
    """

    n_qubits: int
    instructions: tuple[GateInstruction, ...]

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits={self.n_qubits} must be at least 1")
        seen_measure = False
        for instr in self.instructions:
            kind = instr.kind
            qubits = instruction_qubits(kind)
            if any(q < 0 or q >= self.n_qubits for q in qubits):
                raise ValueError(f"{kind} addresses qubits outside 0..{self.n_qubits - 1}")
            if isinstance(kind, Measure):
                seen_measure = True
            elif seen_measure:
                raise ValueError("non-measure instruction after a measure")


def instruction_qubits(kind: GateKind) -> tuple[int, ...]:
    if isinstance(kind, SingleU):
        return (kind.qubit,)
    if isinstance(kind, Cnot):
        return (kind.control, kind.target)
    if isinstance(kind, (Reset, Measure)):
        return (kind.qubit,)
    raise ValueError(f"unknown instruction kind {kind!r}")


def u_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """2x2 rotation [[cos(t/2), -e^{i lam} sin(t/2)],
    [e^{i phi} sin(t/2), e^{i(phi+lam)} cos(t/2)]]."""
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=COMPLEX,
    )


def _wrap_phase(phi: float, name: str) -> float:
    if not math.isfinite(phi):
        raise ValueError(f"{name}={phi} is not finite")
    out = math.fmod(phi, TWO_PI)
    if out < 0.0:
        out += TWO_PI
    if out >= TWO_PI:  # fmod roundoff at the boundary
        out = 0.0
    return out


def _canonical_theta(theta: float, name: str) -> float:
    if not math.isfinite(theta):
        raise ValueError(f"{name}={theta} is not finite")
    out = math.fmod(theta, TWO_PI)
    if out < 0.0:
        out += TWO_PI
    if out > math.pi:
        if out <= math.pi + 1e-12:
            return math.pi
        # Folding 2*pi - theta flips the relative sign of the state, so a
        # theta outside [0, pi] is not the same preparation and is refused.
        raise ValueError(f"{name}={theta} lies outside [0, pi] modulo 2*pi")
    return out


@dataclass(frozen=True)
class PreparationParams:
    """Angles (theta1, theta2, phi1, phi2) of the prepared three-level state."""

    theta1: float
    theta2: float
    phi1: float
    phi2: float

    def canonical(self) -> "PreparationParams":
        """Thetas reduced into [0, pi], phases wrapped into [0, 2*pi)."""
        return PreparationParams(
            _canonical_theta(self.theta1, "theta1"),
            _canonical_theta(self.theta2, "theta2"),
            _wrap_phase(self.phi1, "phi1"),
            _wrap_phase(self.phi2, "phi2"),
        )


@dataclass(frozen=True)
class ProjectionParams:
    """Angles (t1, t2) of the phase-free projector state."""

    t1: float
    t2: float

    def canonical(self) -> "ProjectionParams":
        return ProjectionParams(
            _canonical_theta(self.t1, "t1"),
            _canonical_theta(self.t2, "t2"),
        )


class ProjectionLabel(Enum):
    """The seven projection settings of the joint test."""

    P012 = "P012"
    P01 = "P01"
    P12 = "P12"
    P20 = "P20"
    P0 = "P0"
    P1 = "P1"
    P2 = "P2"


#: evaluation order used everywhere a deterministic sequence matters
#: (an Enum iterates in definition order)
PROJECTION_ORDER = tuple(ProjectionLabel)


def projection_settings() -> dict[ProjectionLabel, ProjectionParams]:
    """Projector angles: equal triple superposition, the three pairs, the
    three single levels."""
    return {
        ProjectionLabel.P012: ProjectionParams(2.0 * math.acos(1.0 / math.sqrt(3.0)), math.pi / 2.0),
        ProjectionLabel.P01: ProjectionParams(math.pi / 2.0, 0.0),
        ProjectionLabel.P12: ProjectionParams(math.pi, math.pi / 2.0),
        ProjectionLabel.P20: ProjectionParams(math.pi / 2.0, math.pi),
        ProjectionLabel.P0: ProjectionParams(0.0, 0.0),
        ProjectionLabel.P1: ProjectionParams(math.pi, 0.0),
        ProjectionLabel.P2: ProjectionParams(math.pi, math.pi),
    }


def reference_preparation() -> PreparationParams:
    """Equal-weight three-level state with relative phases pi/4 and pi/2,
    the fixed state used for single-state noise scans."""
    return PreparationParams(
        2.0 * math.acos(1.0 / math.sqrt(3.0)),
        math.pi / 2.0,
        math.pi / 4.0,
        math.pi / 4.0,
    )


def random_preparation(rng: np.random.Generator) -> PreparationParams:
    """Draw angles by inverse-transform sampling: theta = arccos(1 - 2r)
    (density sin(theta)/2 on [0, pi]), phi = 2*pi*r on [0, 2*pi)."""
    theta1 = math.acos(1.0 - 2.0 * rng.random())
    theta2 = math.acos(1.0 - 2.0 * rng.random())
    phi1 = TWO_PI * rng.random()
    phi2 = TWO_PI * rng.random()
    return PreparationParams(theta1, theta2, phi1, phi2)


def _controlled_ry(theta: float, dur: GateDurations) -> list[GateInstruction]:
    """Controlled-U(theta,0,0), compiled with two CNOTs."""
    c, t = ROTATION_QUBIT, PARTNER_QUBIT
    return [
        GateInstruction(SingleU(t, theta / 2.0, 0.0, 0.0), dur.single_u_ns),
        GateInstruction(Cnot(c, t), dur.cnot_ns),
        GateInstruction(SingleU(t, -theta / 2.0, 0.0, 0.0), dur.single_u_ns),
        GateInstruction(Cnot(c, t), dur.cnot_ns),
    ]


def _controlled_phase(lam: float, dur: GateDurations) -> list[GateInstruction]:
    """Controlled-U(0,0,lam), compiled with two CNOTs."""
    c, t = ROTATION_QUBIT, PARTNER_QUBIT
    return [
        GateInstruction(SingleU(c, 0.0, 0.0, lam / 2.0), dur.single_u_ns),
        GateInstruction(Cnot(c, t), dur.cnot_ns),
        GateInstruction(SingleU(t, 0.0, 0.0, -lam / 2.0), dur.single_u_ns),
        GateInstruction(Cnot(c, t), dur.cnot_ns),
        GateInstruction(SingleU(t, 0.0, 0.0, lam / 2.0), dur.single_u_ns),
    ]


def build_preparation(
    params: PreparationParams, durations: GateDurations = DEFAULT_DURATIONS
) -> CircuitPlan:
    """Reset both qubits, then rotate |00> into the parameterized state."""
    p = params.canonical()
    instructions = [
        GateInstruction(Reset(0), durations.reset_ns),
        GateInstruction(Reset(1), durations.reset_ns),
        GateInstruction(SingleU(ROTATION_QUBIT, p.theta1, 0.0, 0.0), durations.single_u_ns),
        GateInstruction(SingleU(ROTATION_QUBIT, 0.0, 0.0, p.phi1), durations.single_u_ns),
    ]
    instructions += _controlled_ry(p.theta2, durations)
    instructions += _controlled_phase(p.phi2, durations)
    return CircuitPlan(2, tuple(instructions))


def _inverted(instr: GateInstruction) -> GateInstruction:
    kind = instr.kind
    if isinstance(kind, SingleU):
        # U(theta,phi,lam)^dagger = U(-theta,-lam,-phi); compiled gates always
        # have phi=0, so this is plain angle negation for them.
        return GateInstruction(SingleU(kind.qubit, -kind.theta, -kind.lam, -kind.phi), instr.duration_ns)
    if isinstance(kind, Cnot):
        return instr
    raise ValueError(f"{kind} has no inverse in a projection plan")


def build_projection(
    params: ProjectionParams, durations: GateDurations = DEFAULT_DURATIONS
) -> CircuitPlan:
    """Invert the phase-free preparation (gates reversed, angles negated),
    then measure both qubits.

    Running this after a preparation makes P(00) the squared overlap of
    the prepared state with the projector state of ``params``.
    """
    p = params.canonical()
    template = build_preparation(PreparationParams(p.t1, p.t2, 0.0, 0.0), durations)
    gates = [i for i in template.instructions if not isinstance(i.kind, Reset)]
    instructions = [_inverted(i) for i in reversed(gates)]
    instructions.append(GateInstruction(Measure(0), durations.measure_ns))
    instructions.append(GateInstruction(Measure(1), durations.measure_ns))
    return CircuitPlan(2, tuple(instructions))


def joint_plan(
    prep: PreparationParams,
    proj: ProjectionParams,
    durations: GateDurations = DEFAULT_DURATIONS,
) -> CircuitPlan:
    """Full test circuit: preparation followed by a projection."""
    a = build_preparation(prep, durations)
    b = build_projection(proj, durations)
    return CircuitPlan(2, a.instructions + b.instructions)


def analytic_amplitudes(params: PreparationParams) -> np.ndarray:
    """Closed-form amplitudes of the prepared state over |00>,|01>,|10>,|11>."""
    p = params.canonical()
    half1, half2 = p.theta1 / 2.0, p.theta2 / 2.0
    amps = np.zeros(4, dtype=COMPLEX)
    amps[0] = math.cos(half1)
    amps[1] = np.exp(1j * p.phi1) * math.sin(half1) * math.cos(half2)
    amps[3] = np.exp(1j * (p.phi1 + p.phi2)) * math.sin(half1) * math.sin(half2)
    return amps


def projection_state(params: ProjectionParams) -> np.ndarray:
    """Closed-form projector-state amplitudes (phase-free preparation)."""
    p = params.canonical()
    return analytic_amplitudes(PreparationParams(p.t1, p.t2, 0.0, 0.0))
