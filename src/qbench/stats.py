"""Shot sampling, bootstrap intervals and first-order error propagation.

Shot noise on a measured probability uses the binomial half-width
Delta P = 1.96 sqrt(P (1 - P) / N) (95% confidence).  Uncertainties
propagate to gamma through the first-order partial derivatives of

    gamma = (2 p_ij - p_i - p_j) / (2 sqrt(p_i p_j))

and to F by maximizing |dF| over independent +-Delta gamma sign choices.
Repeated whole-pipeline runs are summarized with a percentile bootstrap
of the sample mean.

Shot counts of one circuit are a single multinomial draw from its exact
outcome distribution, the same law as n_shots independent categorical
shots.  A shot-mode sweep record computes its seven distributions once
(once per repeat when T1/T2 are sampled) and draws each repeat's counts
from them.  Seeded shot-mode output is byte-identical across runs of
one qbench version; its bytes may change between versions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .metrics import FIELD_ORDER, PAIR_FIELDS, GammaSet, ProjectionProbabilities, gamma

Z_95 = 1.96  # two-sided 95% normal quantile used by the Delta-P rule


@dataclass(frozen=True, eq=False)
class ShotCounts:
    """Histogram of outcomes from one sampled run."""

    counts: np.ndarray
    n_shots: int

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1 or np.any(counts < 0):
            raise ValueError("counts must be a 1-d non-negative integer array")
        if int(counts.sum()) != self.n_shots:
            raise ValueError(f"counts sum {int(counts.sum())} != n_shots {self.n_shots}")
        object.__setattr__(self, "counts", counts)


def sample_counts(probs: np.ndarray, n_shots: int, rng: np.random.Generator) -> ShotCounts:
    """Outcome counts of n_shots shots: one multinomial draw from probs."""
    probs = np.asarray(probs, dtype=float).reshape(-1)
    if n_shots < 1:
        raise ValueError(f"n_shots={n_shots} must be positive")
    if abs(probs.sum() - 1.0) > 1e-9 or np.any(probs < -1e-12):
        raise ValueError("probs is not a probability distribution")
    clipped = np.clip(probs, 0.0, None)
    clipped = clipped / clipped.sum()
    return ShotCounts(counts=rng.multinomial(n_shots, clipped), n_shots=n_shots)


def estimate_probs(counts: ShotCounts) -> np.ndarray:
    """Maximum-likelihood outcome frequencies counts / n_shots."""
    return counts.counts.astype(float) / counts.n_shots


@dataclass(frozen=True)
class BootstrapCI:
    mean: float
    lo: float
    hi: float
    level: float
    n_resamples: int


def bootstrap_ci(
    samples: np.ndarray,
    level: float = 0.99,
    n_resamples: int = 10_000,
    rng: np.random.Generator | None = None,
) -> BootstrapCI:
    """Percentile bootstrap interval for the mean of a small sample."""
    samples = np.asarray(samples, dtype=float).reshape(-1)
    if samples.size < 1:
        raise ValueError("bootstrap_ci needs at least one sample")
    if not np.all(np.isfinite(samples)):
        raise ValueError("bootstrap_ci samples must be finite")
    if not (0.0 < level < 1.0):
        raise ValueError(f"confidence level {level} outside (0, 1)")
    if n_resamples < 1:
        raise ValueError(f"n_resamples={n_resamples} must be positive")
    if rng is None:
        rng = np.random.default_rng()
    idx = rng.integers(0, samples.size, size=(n_resamples, samples.size))
    means = samples[idx].mean(axis=1)
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(means, [alpha, 1.0 - alpha])
    return BootstrapCI(
        mean=float(samples.mean()),
        lo=float(lo),
        hi=float(hi),
        level=level,
        n_resamples=n_resamples,
    )


def delta_p(p: float, n_shots: int) -> float:
    """Binomial 95% half-width 1.96 sqrt(p (1 - p) / N)."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability {p} outside [0, 1]")
    if n_shots < 1:
        raise ValueError(f"n_shots={n_shots} must be positive")
    return Z_95 * math.sqrt(p * (1.0 - p) / n_shots)


def propagate_gamma_error(
    p_ij: float,
    p_i: float,
    p_j: float,
    dp_ij: float,
    dp_i: float,
    dp_j: float,
) -> float:
    """First-order worst-case |d gamma| from probability uncertainties.

    Partials of gamma = (2 p_ij - p_i - p_j) / (2 sqrt(p_i p_j)):
    d/dp_ij = 1 / sqrt(p_i p_j) and
    d/dp_i = -1 / (2 sqrt(p_i p_j)) - gamma / (2 p_i)  (same form for p_j).
    """
    for name, value in (("dp_ij", dp_ij), ("dp_i", dp_i), ("dp_j", dp_j)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name}={value} must be a non-negative uncertainty")
    g = gamma(p_ij, p_i, p_j)  # raises GammaUndefined on vanishing marginals
    root = math.sqrt(p_i * p_j)
    d_ij = 1.0 / root
    d_i = abs(-1.0 / (2.0 * root) - g / (2.0 * p_i))
    d_j = abs(-1.0 / (2.0 * root) - g / (2.0 * p_j))
    return d_ij * dp_ij + d_i * dp_i + d_j * dp_j


def propagate_f_error(gammas: GammaSet, dg01: float, dg12: float, dg20: float) -> float:
    """Worst-case |dF| over the eight +-Delta gamma sign assignments of

        dF = 2 dg01 (g01 - g12 g20) + 2 dg12 (g12 - g01 g20)
           + 2 dg20 (g20 - g01 g12).
    """
    for name, value in (("dg01", dg01), ("dg12", dg12), ("dg20", dg20)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name}={value} must be a non-negative uncertainty")
    g01, g12, g20 = gammas.g01, gammas.g12, gammas.g20
    worst = 0.0
    for s01, s12, s20 in itertools.product((1.0, -1.0), repeat=3):
        df = (
            2.0 * s01 * dg01 * (g01 - g12 * g20)
            + 2.0 * s12 * dg12 * (g12 - g01 * g20)
            + 2.0 * s20 * dg20 * (g20 - g01 * g12)
        )
        worst = max(worst, abs(df))
    return worst


@dataclass(frozen=True)
class ErrorEstimate:
    """Shot-noise error budget of one joint test at 95% confidence."""

    delta_p: dict[str, float]
    delta_gamma: dict[str, float]
    delta_f: float
    confidence: float = 0.95


def error_estimate(pp: ProjectionProbabilities, n_shots: int) -> ErrorEstimate:
    """Full Delta-P -> Delta-gamma -> Delta-F propagation chain.

    Raises GammaUndefined if any pair's marginals are at or below the
    gamma threshold.
    """
    dps = {name: delta_p(getattr(pp, name), n_shots) for name in FIELD_ORDER}
    dgs: dict[str, float] = {}
    gs: dict[str, float] = {}
    for g_name, pair_field, i_field, j_field in PAIR_FIELDS:
        p_pair = getattr(pp, pair_field)
        p_i, p_j = getattr(pp, i_field), getattr(pp, j_field)
        gs[g_name] = gamma(p_pair, p_i, p_j)
        dgs[g_name] = propagate_gamma_error(
            p_pair, p_i, p_j, dps[pair_field], dps[i_field], dps[j_field]
        )
    df = propagate_f_error(GammaSet(gs["g01"], gs["g12"], gs["g20"]), dgs["g01"], dgs["g12"], dgs["g20"])
    return ErrorEstimate(delta_p=dps, delta_gamma=dgs, delta_f=df)
