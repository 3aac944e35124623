"""Reference routes the benchmark checks qbench's outputs against.

They use numpy alone and share no simulation code with the package: the
only thing taken from it is the instruction list of
``circuits.joint_plan``.  Every gate is an explicit 4x4 matrix and every
channel is written out here:

* depolarizing after a single-qubit gate on qubit q:
  (1 - p1) rho + p1 (Tr_q rho (x) I/2);
* depolarizing after a CNOT, the joint two-qubit channel:
  (1 - p2) rho + p2 I/4;
* thermal relaxation: amplitude-damping then dephasing Kraus operators
  on every qubit an instruction touches, for that instruction's
  duration;
* readout: the ideal outcome distribution times M (x) M.

Basis order is little endian, index = 2*q1 + q0, so qubit 0 is the
right-hand kron factor.  ``self_check`` tests the routes against closed
forms before any package output is judged by them.
"""

from __future__ import annotations

import math

import numpy as np

from qbench.circuits import Cnot, Measure, PreparationParams, ProjectionParams, Reset, SingleU, joint_plan

TRIPLE_THETA = 2.0 * math.acos(1.0 / math.sqrt(3.0))

#: (t1, t2) of the seven projector states, in the package's field order
SETTINGS = {
    "p012": (TRIPLE_THETA, math.pi / 2.0),
    "p01": (math.pi / 2.0, 0.0),
    "p12": (math.pi, math.pi / 2.0),
    "p20": (math.pi / 2.0, math.pi),
    "p0": (0.0, 0.0),
    "p1": (math.pi, 0.0),
    "p2": (math.pi, math.pi),
}

#: weight of each P(00) in kappa = 3 p012 - 2 (p01 + p12 + p20) + (p0 + p1 + p2)
KAPPA_WEIGHTS = {"p012": 3.0, "p01": -2.0, "p12": -2.0, "p20": -2.0, "p0": 1.0, "p1": 1.0, "p2": 1.0}

LEVELS = (0, 1, 3)
EYE2 = np.eye(2, dtype=complex)
EYE4 = np.eye(4, dtype=complex)
RESET_KRAUS = (
    np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
)


def u2(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [[c, -np.exp(1j * lam) * s], [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]],
        dtype=complex,
    )


def lift(u: np.ndarray, qubit: int) -> np.ndarray:
    """A 2x2 operator on one qubit of the register."""
    return np.kron(EYE2, u) if qubit == 0 else np.kron(u, EYE2)


def cnot(control: int, target: int) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        m[i ^ (((i >> control) & 1) << target), i] = 1.0
    return m


def mix_qubit(rho: np.ndarray, qubit: int) -> np.ndarray:
    """Tr_q rho (x) I/2 with the maximally mixed qubit back in place q."""
    t = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))  # (..., q1, q0, q1', q0')
    if qubit == 0:
        reduced = np.einsum("...abcb->...ac", t)
        out = np.einsum("...ac,bd->...abcd", reduced, EYE2 / 2.0)
    else:
        reduced = np.einsum("...abad->...bd", t)
        out = np.einsum("ac,...bd->...abcd", EYE2 / 2.0, reduced)
    return out.reshape(rho.shape)


def relaxation_kraus(duration_ns: float, t1_ns: float, t2_ns: float) -> list[np.ndarray]:
    """Amplitude damping (1 - e^{-t/T1}) followed by the dephasing that brings
    the coherence factor from e^{-t/(2 T1)} to e^{-t/T2}."""
    decay = 1.0 - math.exp(-duration_ns / t1_ns)
    damping = [
        np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - decay)]], dtype=complex),
        np.array([[0.0, math.sqrt(decay)], [0.0, 0.0]], dtype=complex),
    ]
    keep = math.exp(duration_ns / (2.0 * t1_ns) - duration_ns / t2_ns)
    dephasing = [
        math.sqrt((1.0 + keep) / 2.0) * EYE2,
        math.sqrt((1.0 - keep) / 2.0) * np.diag([1.0, -1.0]).astype(complex),
    ]
    return [z @ a for z in dephasing for a in damping]


def apply_kraus(rho: np.ndarray, kraus, qubit: int) -> np.ndarray:
    out = np.zeros_like(rho)
    for k in kraus:
        big = lift(k, qubit)
        out += big @ rho @ big.conj().T
    return out


def evolve(plan, p1=0.0, p2=0.0, t1_ns: float | None = None, t2_ns: float | None = None) -> np.ndarray:
    """Pre-readout density matrix of a plan, instruction by instruction.

    ``p1`` and ``p2`` may be arrays of one shape; the result then carries
    that shape in front of its 4x4 axes.
    """
    p1, p2 = np.broadcast_arrays(np.asarray(p1, dtype=float), np.asarray(p2, dtype=float))
    rho = np.zeros(p1.shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = 1.0
    p1, p2 = p1[..., None, None], p2[..., None, None]
    for instr in plan.instructions:
        kind = instr.kind
        if isinstance(kind, Reset):
            rho = apply_kraus(rho, RESET_KRAUS, kind.qubit)
            touched = (kind.qubit,)
        elif isinstance(kind, Measure):
            touched = (kind.qubit,)
        elif isinstance(kind, SingleU):
            m = lift(u2(kind.theta, kind.phi, kind.lam), kind.qubit)
            rho = m @ rho @ m.conj().T
            rho = (1.0 - p1) * rho + p1 * mix_qubit(rho, kind.qubit)
            touched = (kind.qubit,)
        elif isinstance(kind, Cnot):
            m = cnot(kind.control, kind.target)
            rho = m @ rho @ m.conj().T
            rho = (1.0 - p2) * rho + p2 * EYE4 / 4.0
            touched = (kind.control, kind.target)
        else:
            raise ValueError(f"unexpected instruction {kind!r}")
        if t1_ns is not None:
            kraus = relaxation_kraus(instr.duration_ns, t1_ns, t2_ns)
            for q in touched:
                rho = apply_kraus(rho, kraus, q)
    return rho


def plans(prep: PreparationParams) -> dict:
    return {name: joint_plan(prep, ProjectionParams(t1, t2)) for name, (t1, t2) in SETTINGS.items()}


def seven_p00(prep: PreparationParams, **noise) -> dict:
    """P(00) of the seven projection circuits under depolarizing and/or thermal
    noise: floats, or arrays shaped like the depolarizing strengths."""
    return {name: evolve(plan, **noise)[..., 0, 0].real for name, plan in plans(prep).items()}


def ideal_distributions(prep: PreparationParams) -> np.ndarray:
    """(7, 4) ideal outcome distributions, rows in SETTINGS order."""
    return np.array([np.real(np.diag(evolve(plan))) for plan in plans(prep).values()])


def readout_p00(dists: np.ndarray, p) -> np.ndarray:
    """Observed P(00) under symmetric readout p (scalar or array): the
    distribution times M (x) M, column 00."""
    p = np.asarray(p, dtype=float)
    m = np.stack([np.stack([1.0 - p, p]), np.stack([p, 1.0 - p])])  # (true, observed, ...)
    col00 = np.einsum("a...,b...->ba...", m[:, 0], m[:, 0]).reshape((4,) + p.shape)
    return np.einsum("ck,k...->c...", dists, col00)


def kappa_f(pp) -> tuple:
    """(kappa, F, (g01, g12, g20)) from the seven P(00), scalars or arrays."""
    def g(pij, pi, pj):
        return (2.0 * pij - pi - pj) / (2.0 * np.sqrt(pi * pj))

    g01 = g(pp["p01"], pp["p0"], pp["p1"])
    g12 = g(pp["p12"], pp["p1"], pp["p2"])
    g20 = g(pp["p20"], pp["p2"], pp["p0"])
    f = g01**2 + g12**2 + g20**2 - 2.0 * g01 * g12 * g20
    kappa = sum(w * pp[name] for name, w in KAPPA_WEIGHTS.items())
    return kappa, f, (g01, g12, g20)


def readout_f(dists: np.ndarray, p) -> np.ndarray:
    observed = readout_p00(dists, p)
    return kappa_f(dict(zip(SETTINGS, observed)))[1]


def threshold_scan(dists: np.ndarray, resolution: float = 1e-3, lo: float = 0.5, hi: float = 1.0) -> float | None:
    """First upward crossing of F = 1 on a grid at half the resolution over (lo, hi)."""
    ps = np.arange(lo + resolution, hi - resolution / 2.0, resolution / 2.0)
    f = readout_f(dists, ps)
    up = np.nonzero((f[:-1] < 1.0) & (f[1:] >= 1.0))[0]
    return float(ps[up[0] + 1]) if up.size else None


def amplitudes(prep: PreparationParams) -> np.ndarray:
    """Closed-form amplitudes over |00>, |01>, |10>, |11>."""
    a = np.zeros(4, dtype=complex)
    s1 = math.sin(prep.theta1 / 2.0)
    a[0] = math.cos(prep.theta1 / 2.0)
    a[1] = np.exp(1j * prep.phi1) * s1 * math.cos(prep.theta2 / 2.0)
    a[3] = np.exp(1j * (prep.phi1 + prep.phi2)) * s1 * math.sin(prep.theta2 / 2.0)
    return a


def draw_preparation(rng: np.random.Generator, floor: float = 0.05) -> PreparationParams:
    """Random state (theta = arccos(1 - 2u), phi = 2 pi u), redrawn until every
    level modulus is at least ``floor``."""
    while True:
        theta1, theta2 = (math.acos(1.0 - 2.0 * rng.random()) for _ in range(2))
        phi1, phi2 = (2.0 * math.pi * rng.random() for _ in range(2))
        prep = PreparationParams(theta1, theta2, phi1, phi2)
        if min(abs(amplitudes(prep)[i]) for i in LEVELS) >= floor:
            return prep


def f_equal_weight(phi1: float, phi2: float, p: float) -> float:
    """Closed-form F of (1, e^{i phi1}, e^{i(phi1 + phi2)})/sqrt(3) under symmetric readout p."""
    h = (1.0 - p) * (1.0 - 2.0 * p) / math.sqrt((1.0 - p + p * p) * (1.0 - p * p))
    g01, g20 = math.cos(phi1) * h, math.cos(phi1 + phi2) * h
    g12 = math.cos(phi2) * (1.0 - 2.0 * p) / (1.0 + p)
    return g01**2 + g12**2 + g20**2 - 2.0 * g01 * g12 * g20


def self_check(seed: int) -> list[str]:
    """Test the routes against closed forms; returns the failures found."""
    rng = np.random.default_rng([seed, 7])
    problems = []
    for _ in range(3):
        prep = draw_preparation(rng)
        psi = amplitudes(prep)
        for (name, (t1, t2)), plan in zip(SETTINGS.items(), plans(prep).values()):
            proj = amplitudes(PreparationParams(t1, t2, 0.0, 0.0))
            ideal = float(evolve(plan)[0, 0].real)
            overlap = abs(np.vdot(proj, psi)) ** 2
            if abs(ideal - overlap) > 1e-12:
                problems.append(f"ideal {name}: P(00) {ideal!r} != squared overlap {overlap!r}")
            full = float(evolve(plan, p1=1.0, p2=1.0)[0, 0].real)
            if abs(full - 0.25) > 1e-12:
                problems.append(f"full depolarizing {name}: P(00) {full!r} != 1/4")
            relaxed = float(evolve(plan, t1_ns=1e-3, t2_ns=2e-3)[0, 0].real)
            if abs(relaxed - 1.0) > 1e-12:
                problems.append(f"full relaxation {name}: P(00) {relaxed!r} != 1")
    phi1, phi2 = math.pi / 4.0, math.pi / 4.0
    equal = PreparationParams(TRIPLE_THETA, math.pi / 2.0, phi1, phi2)
    dists = ideal_distributions(equal)
    for p in (0.1, 0.37, 0.5, 0.73, 0.9):
        got, want = float(readout_f(dists, p)), f_equal_weight(phi1, phi2, p)
        if abs(got - want) > 1e-12:
            problems.append(f"equal-weight readout p={p}: F {got!r} != closed form {want!r}")
    return problems
