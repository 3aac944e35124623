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

The circuits run on the two-qubit register; the public channel functions
also take one-qubit states.  Every channel is a constant map of ``qcore``
or a weighted sum of them, acting on the row-major vec of rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qcore
from .circuits import CircuitPlan, Cnot, Reset, SingleU, instruction_qubits, u_matrix
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
        """True when T1/T2 are drawn, which is the only time evolution draws from an rng."""
        thermal = self.thermal
        return thermal is not None and not thermal.deterministic and thermal.sigma_fraction > 0.0


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

    The mixer of each listed qubit is applied in turn; touching the whole
    register reduces to (1-p) rho + p * I / 2^n.
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
    return _depolarized(rho.reshape(-1), p, qubits, qcore.MIX[n]).reshape(rho.shape)


def _depolarized(v: np.ndarray, p: float, qubits: Sequence[int], mix: Sequence[np.ndarray]) -> np.ndarray:
    """(1-p) v + p MIX v on vec(rho), MIX the product of the listed qubits' mixers."""
    mixed = v
    for q in qubits:
        mixed = mix[q] @ mixed
    return (1.0 - p) * v + p * mixed


def thermal_relax(
    rho: np.ndarray, qubit: int, duration_ns: float, t1_ns: float, t2_ns: float
) -> np.ndarray:
    """Zero-temperature relaxation on one qubit for a given duration.

    Populations: the |1> level keeps e^{-t/T1}, the remainder moves to
    |0>.  Coherences on that qubit keep e^{-t/T2}.  Requires T2 <= 2*T1.
    """
    rho = np.asarray(rho, dtype=COMPLEX)
    n = qcore.n_qubits_of(rho.shape[0])
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
    return (_relaxation(n, qubit, duration_ns, t1_ns, t2_ns) @ rho.reshape(-1)).reshape(rho.shape)


def _relaxation(n: int, qubit: int, duration_ns: float, t1_ns: float, t2_ns: float) -> np.ndarray:
    """Relaxation map of one qubit of an n-qubit register: POP + e^{-d/T1} DECAY + e^{-d/T2} COH."""
    return (
        qcore.POP[n][qubit]
        + math.exp(-duration_ns / t1_ns) * qcore.DECAY[n][qubit]
        + math.exp(-duration_ns / t2_ns) * qcore.COH[n][qubit]
    )


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
    """Run a plan from |00><00| and return the pre-readout density matrix.

    After every single-qubit gate: depolarize(p1) on its qubit, then
    thermal relaxation for the gate duration.  After every CNOT:
    depolarize(p2) on both qubits, then thermal relaxation on both.
    Reset and Measure contribute only thermal relaxation for their
    durations.  Readout confusion is not applied here.  Only a model with
    sampled T1/T2 needs an rng.
    """
    if model.needs_rng() and rng is None:
        raise ValueError("thermal sampling requires an rng; pass one or use deterministic mode")
    thermal = model.thermal
    times = [sample_relaxation_times(rng, thermal) for _ in range(2)] if thermal is not None else []
    depol = model.depolarizing if model.depolarizing is not None else DepolarizingError()
    v = np.zeros(16, dtype=COMPLEX)  # vec(|00><00|)
    v[0] = 1.0
    for instr in plan.instructions:
        kind = instr.kind
        p = 0.0
        if isinstance(kind, SingleU):
            u = qcore.lift(u_matrix(kind.theta, kind.phi, kind.lam), kind.qubit)
            v = (u @ v.reshape(4, 4) @ u.conj().T).reshape(16)
            p = depol.p1
        elif isinstance(kind, Cnot):
            v = qcore.CNOT[kind.control, kind.target] @ v
            p = depol.p2
        elif isinstance(kind, Reset):
            v = qcore.RESET[2][kind.qubit] @ v
        qubits = instruction_qubits(kind)
        if p > 0.0:
            v = _depolarized(v, p, qubits, qcore.MIX[2])
        if times:
            for q in qubits:
                v = _relaxation(2, q, instr.duration_ns, *times[q]) @ v
    return v.reshape(4, 4)


def simulate_noisy(
    plan: CircuitPlan, model: NoiseModel, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Exact outcome distribution of a noisy plan (no shot sampling).

    Evolves the density matrix through every instruction, reads the
    basis probabilities and finally mixes them through the readout
    confusion if the model has one.
    """
    probs = qcore.basis_probabilities(evolve_density(plan, model, rng))
    if model.readout is not None:
        probs = apply_readout(probs, model.readout)
    return probs
