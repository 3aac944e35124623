"""Interference metrics computed from subset-projection probabilities.

From the seven measured P(00) values (triple superposition, three pairs,
three single levels) the pairwise interference contrast is

    gamma_ij = (2 p_ij - p_i - p_j) / (2 sqrt(p_i p_j))

the pair-phase consistency parameter is

    F = gamma01^2 + gamma12^2 + gamma20^2 - 2 gamma01 gamma12 gamma20

and the third-order interference defect is

    kappa = 3 p012 - 2 (p01 + p12 + p20) + (p0 + p1 + p2).

For an ideal pure state gamma_ij = cos(phase_i - phase_j), F = 1 and
kappa = 0; the uniform distribution also gives kappa = 0, so both ends
of a symmetric readout sweep sit at zero defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .qcore import COMPLEX

GAMMA_EPS = 1e-9  # marginals at or below this make gamma's denominator unusable
PROB_SLACK = 1e-9  # tolerated out-of-range excess on input probabilities


class GammaUndefined(ValueError):
    """Raised when a marginal probability is too small to normalize gamma."""


def _check_probability(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value < -PROB_SLACK or value > 1.0 + PROB_SLACK:
        raise ValueError(f"{name}={value} is not a probability")
    return min(max(value, 0.0), 1.0)


@dataclass(frozen=True)
class ProjectionProbabilities:
    """The seven P(00) values of one joint test, in a fixed field order."""

    p012: float
    p01: float
    p12: float
    p20: float
    p0: float
    p1: float
    p2: float

    def __post_init__(self) -> None:
        for name in FIELD_ORDER:
            _check_probability(getattr(self, name), name)


FIELD_ORDER = tuple(f.name for f in fields(ProjectionProbabilities))

#: (pair name, pair-probability field, first marginal field, second marginal field)
PAIR_FIELDS = (
    ("g01", "p01", "p0", "p1"),
    ("g12", "p12", "p1", "p2"),
    ("g20", "p20", "p2", "p0"),
)


def gamma(p_ij: float, p_i: float, p_j: float) -> float:
    """Pairwise contrast (2 p_ij - p_i - p_j) / (2 sqrt(p_i p_j)).

    Raises GammaUndefined when either marginal is <= 1e-9.
    """
    p_ij = _check_probability(p_ij, "p_ij")
    p_i = _check_probability(p_i, "p_i")
    p_j = _check_probability(p_j, "p_j")
    if p_i <= GAMMA_EPS or p_j <= GAMMA_EPS:
        raise GammaUndefined(
            f"marginals ({p_i:.3e}, {p_j:.3e}) too small to define gamma"
        )
    return (2.0 * p_ij - p_i - p_j) / (2.0 * math.sqrt(p_i * p_j))


@dataclass(frozen=True)
class GammaSet:
    g01: float
    g12: float
    g20: float


@dataclass(frozen=True)
class PeresResult:
    gammas: GammaSet
    f: float


def peres_f(gammas: GammaSet) -> PeresResult:
    """F = g01^2 + g12^2 + g20^2 - 2 g01 g12 g20; equals 1 for any pure state."""
    g = gammas
    for name, value in (("g01", g.g01), ("g12", g.g12), ("g20", g.g20)):
        if not math.isfinite(value):
            raise ValueError(f"{name}={value} is not finite")
    f = g.g01**2 + g.g12**2 + g.g20**2 - 2.0 * g.g01 * g.g12 * g.g20
    return PeresResult(gammas=g, f=f)


@dataclass(frozen=True)
class SorkinResult:
    kappa: float


def sorkin_kappa(pp: ProjectionProbabilities) -> SorkinResult:
    """kappa = 3 p012 - 2 (p01 + p12 + p20) + (p0 + p1 + p2)."""
    kappa = (
        3.0 * pp.p012
        - 2.0 * (pp.p01 + pp.p12 + pp.p20)
        + (pp.p0 + pp.p1 + pp.p2)
    )
    return SorkinResult(kappa=kappa)


def gammas_from_probabilities(pp: ProjectionProbabilities) -> dict[str, float]:
    """All three pairwise contrasts; raises GammaUndefined naming the first
    pair whose marginals vanish."""
    out: dict[str, float] = {}
    for name, pair_field, i_field, j_field in PAIR_FIELDS:
        try:
            out[name] = gamma(getattr(pp, pair_field), getattr(pp, i_field), getattr(pp, j_field))
        except GammaUndefined as exc:
            raise GammaUndefined(f"{name}: {exc}") from None
    return out


def kappa_n(amplitudes: Sequence[complex]) -> float:
    """n-path interference defect of a complex amplitude list:

        |sum x_i|^2 - sum_{i<j} |x_i + x_j|^2 + (n - 2) sum |x_i|^2

    Identically zero for every finite complex vector; evaluating it
    exercises the cancellation numerically.
    """
    x = np.asarray(amplitudes, dtype=COMPLEX).reshape(-1)
    if x.size < 1:
        raise ValueError("kappa_n needs at least one amplitude")
    if not np.all(np.isfinite(x)):
        raise ValueError("kappa_n amplitudes must be finite")
    n = x.size
    total = float(np.abs(x.sum()) ** 2)
    pairs = 0.0
    for i in range(n - 1):
        pairs += float((np.abs(x[i] + x[i + 1 :]) ** 2).sum())
    singles = float((np.abs(x) ** 2).sum())
    return total - pairs + (n - 2) * singles
