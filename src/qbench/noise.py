"""Noise channels and the noisy density-matrix simulator.

Three channel families act on the circuits:

* symmetric readout confusion [[1-p, p], [p, 1-p]] per qubit, applied to
  the final outcome distribution;
* depolarizing rho -> (1-p) rho + p * (maximally mixed on the touched
  qubits), attached after every gate with per-gate strengths p1 / p2;
* zero-temperature thermal relaxation: |1> population decays by
  e^{-t/T1} into |0>, coherences decay by e^{-t/T2}, valid (completely
  positive) only for T2 <= 2*T1.

Gate noise attaches only to the qubits an instruction touches; idle
qubits do not decohere.  T1/T2 may be Gaussian-sampled per qubit around
their means, or held at the means in deterministic mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qcore
from .circuits import CircuitPlan, Cnot, Measure, Reset, SingleU, u_matrix
from .qcore import COMPLEX

ROW_SUM_ATOL = 1e-12
T2_CLIP_ATOL = 1e-9  # relative slack on the T2 <= 2*T1 bound


@dataclass(frozen=True, eq=False)
class ReadoutError:
    """Per-qubit confusion matrices, row-stochastic as M[true, observed]."""

    matrices: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.matrices:
            raise ValueError("readout error needs at least one qubit matrix")
        checked = []
        for q, m in enumerate(self.matrices):
            m = np.asarray(m, dtype=float)
            if m.shape != (2, 2):
                raise ValueError(f"qubit {q} confusion matrix has shape {m.shape}, not 2x2")
            if np.any(m < -ROW_SUM_ATOL) or np.any(m > 1.0 + ROW_SUM_ATOL):
                raise ValueError(f"qubit {q} confusion entries outside [0, 1]")
            row_dev = np.max(np.abs(m.sum(axis=1) - 1.0))
            if row_dev > ROW_SUM_ATOL:
                raise ValueError(f"qubit {q} confusion rows sum off 1 by {row_dev:.3e}")
            checked.append(m)
        object.__setattr__(self, "matrices", tuple(checked))

    @classmethod
    def symmetric(cls, p: float, n_qubits: int = 2) -> "ReadoutError":
        """Equal flip probability p for both outcomes on every qubit."""
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"readout flip probability {p} outside [0, 1]")
        m = np.array([[1.0 - p, p], [p, 1.0 - p]])
        return cls(matrices=tuple(m.copy() for _ in range(n_qubits)))

    @property
    def n_qubits(self) -> int:
        return len(self.matrices)

    def full_matrix(self) -> np.ndarray:
        """Tensor of the per-qubit matrices, ordered so bit q of the outcome
        index belongs to matrices[q]."""
        full = self.matrices[-1]
        for m in self.matrices[-2::-1]:
            full = np.kron(full, m)
        return full


@dataclass(frozen=True)
class DepolarizingError:
    """Per-gate depolarizing strengths for one- and two-qubit gates."""

    p1: float = 0.0
    p2: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p1", "p2"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"depolarizing {name}={value} outside [0, 1]")


@dataclass(frozen=True)
class ThermalRelaxation:
    """Mean relaxation times in nanoseconds plus the sampling policy."""

    t1_mean_ns: float
    t2_mean_ns: float
    sigma_fraction: float = 0.1
    deterministic: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t1_mean_ns) and self.t1_mean_ns > 0):
            raise ValueError(f"t1_mean_ns={self.t1_mean_ns} must be positive")
        if not (math.isfinite(self.t2_mean_ns) and self.t2_mean_ns > 0):
            raise ValueError(f"t2_mean_ns={self.t2_mean_ns} must be positive")
        if self.t2_mean_ns > 2.0 * self.t1_mean_ns * (1.0 + T2_CLIP_ATOL):
            raise ValueError(
                f"t2_mean_ns={self.t2_mean_ns} violates complete positivity: "
                f"T2 must not exceed 2*T1={2.0 * self.t1_mean_ns}"
            )
        if not (0.0 <= self.sigma_fraction <= 1.0):
            raise ValueError(f"sigma_fraction={self.sigma_fraction} outside [0, 1]")
        if not isinstance(self.deterministic, bool):
            raise ValueError(f"deterministic={self.deterministic!r} is not a boolean")


@dataclass(frozen=True)
class NoiseModel:
    """Optional readout, depolarizing and thermal components; all None is ideal."""

    readout: ReadoutError | None = None
    depolarizing: DepolarizingError | None = None
    thermal: ThermalRelaxation | None = None

    @classmethod
    def ideal(cls) -> "NoiseModel":
        return cls()

    def needs_rng(self) -> bool:
        return self.thermal is not None and not self.thermal.deterministic


def apply_readout(probs: np.ndarray, readout: ReadoutError) -> np.ndarray:
    """Mix an outcome distribution through the per-qubit confusion matrices."""
    probs = np.asarray(probs, dtype=float).reshape(-1)
    if probs.size != 1 << readout.n_qubits:
        raise ValueError(
            f"distribution over {probs.size} outcomes does not match "
            f"{readout.n_qubits}-qubit readout"
        )
    if abs(probs.sum() - 1.0) > qcore.PROB_SUM_ATOL:
        raise ValueError(f"input probabilities sum to {probs.sum()}, not 1")
    out = probs @ readout.full_matrix()
    return np.clip(out, 0.0, 1.0)


def depolarize(rho: np.ndarray, p: float, qubits: Sequence[int]) -> np.ndarray:
    """rho -> (1-p) rho + p * (qubits replaced by the maximally mixed state).

    Each listed qubit in turn is traced out and re-tensored as I/2 in its
    own place; touching the whole register reduces to
    (1-p) rho + p * I / 2^n.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"depolarizing strength {p} outside [0, 1]")
    rho = np.asarray(rho, dtype=COMPLEX)
    n = qcore.n_qubits_of(rho.shape[0])
    if len(qubits) == 0:
        raise ValueError("depolarize needs at least one qubit")
    if len(set(qubits)) != len(qubits) or any(q < 0 or q >= n for q in qubits):
        raise ValueError(f"invalid qubit set {list(qubits)} for {n} qubits")
    if p == 0.0:
        return rho.copy()
    dim = rho.shape[0]
    mixed = rho
    for q in qubits:
        # axes (high qubits, qubit q, low qubits) of the row and column index
        blocks = mixed.reshape(dim >> (q + 1), 2, 1 << q, dim >> (q + 1), 2, 1 << q)
        half_trace = 0.5 * (blocks[:, 0, :, :, 0] + blocks[:, 1, :, :, 1])
        retensored = np.zeros_like(blocks)
        retensored[:, 0, :, :, 0] = half_trace
        retensored[:, 1, :, :, 1] = half_trace
        mixed = retensored.reshape(dim, dim)
    return (1.0 - p) * rho + p * mixed


def thermal_relax(
    rho: np.ndarray, qubit: int, duration_ns: float, t1_ns: float, t2_ns: float
) -> np.ndarray:
    """Zero-temperature relaxation on one qubit for a given duration.

    Populations: the |1> level keeps e^{-t/T1}, the remainder moves to
    |0>.  Coherences on that qubit keep e^{-t/T2}.  Requires T2 <= 2*T1.
    """
    rho = np.asarray(rho, dtype=COMPLEX)
    dim = rho.shape[0]
    n = qcore.n_qubits_of(dim)
    if qubit < 0 or qubit >= n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    if not (math.isfinite(duration_ns) and duration_ns >= 0):
        raise ValueError(f"duration_ns={duration_ns} must be non-negative")
    if not (t1_ns > 0 and t2_ns > 0):
        raise ValueError(f"relaxation times must be positive, got T1={t1_ns}, T2={t2_ns}")
    if t2_ns > 2.0 * t1_ns * (1.0 + T2_CLIP_ATOL):
        raise ValueError(
            f"T2={t2_ns} violates complete positivity: must not exceed 2*T1={2.0 * t1_ns}"
        )
    f1 = math.exp(-duration_ns / t1_ns)
    f2 = math.exp(-duration_ns / t2_ns)
    idx = np.arange(dim)
    i0 = idx[(idx >> qubit) & 1 == 0]
    i1 = i0 | (1 << qubit)
    out = rho.copy()
    out[np.ix_(i0, i0)] += (1.0 - f1) * rho[np.ix_(i1, i1)]
    out[np.ix_(i1, i1)] *= f1
    out[np.ix_(i0, i1)] *= f2
    out[np.ix_(i1, i0)] *= f2
    return out


def sample_relaxation_times(
    rng: np.random.Generator, thermal: ThermalRelaxation
) -> tuple[float, float]:
    """Draw one (T1, T2) pair.

    Deterministic mode (or sigma_fraction = 0) returns the means exactly.
    Otherwise each time is Gaussian with standard deviation
    sigma_fraction * mean, redrawn until positive, and T2 is clipped to
    2*T1 to keep the channel completely positive.
    """
    if thermal.deterministic or thermal.sigma_fraction == 0.0:
        return thermal.t1_mean_ns, thermal.t2_mean_ns

    def draw(mean: float) -> float:
        sigma = thermal.sigma_fraction * mean
        while True:
            value = rng.normal(mean, sigma)
            if value > 0.0:
                return float(value)

    t1 = draw(thermal.t1_mean_ns)
    t2 = min(draw(thermal.t2_mean_ns), 2.0 * t1)
    return t1, t2


def evolve_density(
    plan: CircuitPlan, model: NoiseModel, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Run a plan from |0...0><0...0| and return the pre-readout density matrix.

    After every single-qubit gate: depolarize(p1) on its qubit, then
    thermal relaxation for the gate duration.  After every CNOT:
    depolarize(p2) on both qubits, then thermal relaxation on both.
    Reset and Measure contribute only thermal relaxation for their
    durations.  Readout confusion is not applied here.
    """
    if model.needs_rng() and rng is None:
        raise ValueError("thermal sampling requires an rng; pass one or use deterministic mode")
    n = plan.n_qubits
    dim = 1 << n
    idx = np.arange(dim)
    rho = np.zeros((dim, dim), dtype=COMPLEX)
    rho[0, 0] = 1.0

    times: tuple[tuple[float, float], ...] = ()
    if model.thermal is not None:
        sampler = rng if rng is not None else np.random.default_rng()
        times = tuple(sample_relaxation_times(sampler, model.thermal) for _ in range(n))

    def relax(q: int, duration: float) -> None:
        nonlocal rho
        if model.thermal is not None:
            t1, t2 = times[q]
            rho = thermal_relax(rho, q, duration, t1, t2)

    depol = model.depolarizing
    for instr in plan.instructions:
        kind = instr.kind
        if isinstance(kind, SingleU):
            # qubit q is bit q of the index: 2^(n-1-q) identities above it, 2^q below
            u = u_matrix(kind.theta, kind.phi, kind.lam)
            u = np.kron(np.kron(np.eye(dim >> (kind.qubit + 1)), u), np.eye(1 << kind.qubit))
            rho = qcore.apply_unitary(rho, u)
            if depol is not None and depol.p1 > 0.0:
                rho = depolarize(rho, depol.p1, [kind.qubit])
            relax(kind.qubit, instr.duration_ns)
        elif isinstance(kind, Cnot):
            # a basis permutation that is its own inverse: flip the target where the control is 1
            perm = idx ^ (((idx >> kind.control) & 1) << kind.target)
            rho = rho[np.ix_(perm, perm)]
            if depol is not None and depol.p2 > 0.0:
                rho = depolarize(rho, depol.p2, [kind.control, kind.target])
            relax(kind.control, instr.duration_ns)
            relax(kind.target, instr.duration_ns)
        elif isinstance(kind, Reset):
            rho = qcore.reset_qubit(rho, kind.qubit)
            relax(kind.qubit, instr.duration_ns)
        elif isinstance(kind, Measure):
            relax(kind.qubit, instr.duration_ns)
        else:
            raise ValueError(f"unknown instruction kind {kind!r}")
    return rho


def simulate_noisy(
    plan: CircuitPlan, model: NoiseModel, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Exact outcome distribution of a noisy plan (no shot sampling).

    Evolves the density matrix through every instruction, reads the
    basis probabilities and finally mixes them through the readout
    confusion if the model has one.
    """
    rho = evolve_density(plan, model, rng)
    probs = qcore.basis_probabilities(rho)
    if model.readout is not None:
        if model.readout.n_qubits != plan.n_qubits:
            raise ValueError(
                f"readout is {model.readout.n_qubits}-qubit but plan has {plan.n_qubits}"
            )
        probs = apply_readout(probs, model.readout)
    return probs
