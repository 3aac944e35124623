"""Shot sampling, bootstrap intervals and error propagation."""

import math

import numpy as np
import pytest

from qbench.metrics import GammaSet, GammaUndefined, ProjectionProbabilities
from qbench.stats import (
    BootstrapCI,
    ErrorEstimate,
    ShotCounts,
    bootstrap_ci,
    delta_p,
    error_estimate,
    estimate_probs,
    propagate_f_error,
    propagate_gamma_error,
    sample_counts,
)


def test_shot_counts_validation():
    counts = ShotCounts(counts=[3, 7], n_shots=10)
    assert counts.counts.dtype == np.int64
    with pytest.raises(ValueError, match="!= n_shots"):
        ShotCounts(counts=[3, 7], n_shots=11)
    with pytest.raises(ValueError, match="non-negative"):
        ShotCounts(counts=[-1, 11], n_shots=10)


def test_sample_counts_deterministic_distribution():
    rng = np.random.default_rng(0)
    counts = sample_counts(np.array([0.0, 1.0, 0.0, 0.0]), 500, rng)
    assert counts.counts.tolist() == [0, 500, 0, 0]
    assert counts.n_shots == 500


def test_sample_counts_reproducible_and_consistent():
    probs = np.array([0.5, 0.3, 0.15, 0.05])
    a = sample_counts(probs, 10_000, np.random.default_rng(42))
    b = sample_counts(probs, 10_000, np.random.default_rng(42))
    assert a.counts.tolist() == b.counts.tolist()
    assert int(a.counts.sum()) == 10_000
    # loose sanity: frequencies approach the distribution
    assert np.max(np.abs(estimate_probs(a) - probs)) < 0.02


def test_sample_counts_follows_the_multinomial_law():
    # each outcome's count is Binomial(n, p): over m draws the sample mean
    # has standard error sqrt(v / m) with v = n p (1 - p), and the sample
    # variance has standard error sqrt((mu4 - (m - 3) / (m - 1) v^2) / m)
    # with the binomial fourth central moment mu4 = v (1 + 3 (n - 2) p (1 - p));
    # both must land within 5 of their standard errors
    probs = np.array([0.5, 0.3, 0.15, 0.05])
    n, m = 1000, 2000
    rng = np.random.default_rng(2718)
    draws = np.array([sample_counts(probs, n, rng).counts for _ in range(m)])
    assert np.all(draws.sum(axis=1) == n)
    for k, p in enumerate(probs):
        v = n * p * (1.0 - p)
        mu4 = v * (1.0 + 3.0 * (n - 2) * p * (1.0 - p))
        assert abs(draws[:, k].mean() - n * p) <= 5.0 * math.sqrt(v / m), k
        var_se = math.sqrt((mu4 - (m - 3) / (m - 1) * v * v) / m)
        assert abs(draws[:, k].var(ddof=1) - v) <= 5.0 * var_se, k


def test_sample_counts_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="positive"):
        sample_counts(np.array([1.0, 0.0]), 0, rng)
    with pytest.raises(ValueError, match="not a probability distribution"):
        sample_counts(np.array([0.7, 0.7]), 10, rng)


def test_estimate_probs():
    counts = ShotCounts(counts=[25, 75], n_shots=100)
    assert np.allclose(estimate_probs(counts), [0.25, 0.75])


def test_bootstrap_ci_basics():
    rng = np.random.default_rng(7)
    samples = rng.normal(0.0, 1.0, size=40)
    ci = bootstrap_ci(samples, level=0.99, rng=np.random.default_rng(1))
    assert isinstance(ci, BootstrapCI)
    assert ci.lo <= ci.mean <= ci.hi
    assert ci.mean == pytest.approx(float(samples.mean()))
    assert ci.level == 0.99
    # constant sample collapses to a point
    point = bootstrap_ci(np.full(10, 3.25), rng=np.random.default_rng(2))
    assert point.lo == point.hi == point.mean == 3.25


def test_bootstrap_ci_level_ordering_and_determinism():
    rng = np.random.default_rng(123)
    samples = rng.normal(size=30)
    wide = bootstrap_ci(samples, level=0.99, rng=np.random.default_rng(5))
    narrow = bootstrap_ci(samples, level=0.80, rng=np.random.default_rng(5))
    assert wide.hi - wide.lo >= narrow.hi - narrow.lo
    again = bootstrap_ci(samples, level=0.99, rng=np.random.default_rng(5))
    assert (again.lo, again.hi) == (wide.lo, wide.hi)


def test_bootstrap_ci_coverage_of_known_mean():
    # 95% interval should cover the true mean in roughly 95% of trials
    rng = np.random.default_rng(2024)
    hits = 0
    trials = 300
    for _ in range(trials):
        samples = rng.normal(0.0, 1.0, size=25)
        ci = bootstrap_ci(samples, level=0.95, n_resamples=400, rng=rng)
        hits += ci.lo <= 0.0 <= ci.hi
    assert 0.88 <= hits / trials <= 0.99


def test_bootstrap_ci_validation():
    with pytest.raises(ValueError, match="at least one"):
        bootstrap_ci(np.array([]))
    with pytest.raises(ValueError, match="finite"):
        bootstrap_ci(np.array([1.0, math.nan]))
    with pytest.raises(ValueError, match="confidence level"):
        bootstrap_ci(np.array([1.0, 2.0]), level=1.0)
    with pytest.raises(ValueError, match="n_resamples"):
        bootstrap_ci(np.array([1.0, 2.0]), n_resamples=0)


def test_delta_p_examples():
    assert delta_p(0.5, 10_000) == pytest.approx(0.0098)
    assert delta_p(0.0, 100) == 0.0
    assert delta_p(1.0, 100) == 0.0
    assert delta_p(0.5, 100) > delta_p(0.5, 400)
    with pytest.raises(ValueError, match="outside"):
        delta_p(1.2, 100)
    with pytest.raises(ValueError, match="positive"):
        delta_p(0.5, 0)


def test_propagate_gamma_error_example():
    # equal thirds with only the pair probability uncertain:
    # d gamma / d p_ij = 1 / sqrt(p_i p_j) = 3, so 0.001 -> 0.003
    dg = propagate_gamma_error(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 0.001, 0.0, 0.0)
    assert dg == pytest.approx(0.003)


def test_propagate_gamma_error_matches_numeric_gradient():
    rng = np.random.default_rng(10)
    for _ in range(25):
        p_ij, p_i, p_j = rng.uniform(0.05, 0.95, size=3)
        eps = 1e-7

        def g(a, b, c):
            return (2.0 * a - b - c) / (2.0 * math.sqrt(b * c))

        grad = (
            abs(g(p_ij + eps, p_i, p_j) - g(p_ij - eps, p_i, p_j)),
            abs(g(p_ij, p_i + eps, p_j) - g(p_ij, p_i - eps, p_j)),
            abs(g(p_ij, p_i, p_j + eps) - g(p_ij, p_i, p_j - eps)),
        )
        dp = rng.uniform(0.0, 0.01, size=3)
        expected = sum(d * u / (2.0 * eps) for d, u in zip(grad, dp))
        got = propagate_gamma_error(p_ij, p_i, p_j, *dp)
        assert got == pytest.approx(expected, rel=1e-4)


def test_propagate_gamma_error_validation():
    with pytest.raises(GammaUndefined):
        propagate_gamma_error(0.5, 0.0, 0.5, 0.01, 0.01, 0.01)
    with pytest.raises(ValueError, match="non-negative"):
        propagate_gamma_error(0.5, 0.5, 0.5, -0.01, 0.0, 0.0)


def test_propagate_f_error_example():
    # partials 2(g01 - g12 g20) = 2 g01, 2 g12, 2(g20 - g01 g12) = -1;
    # worst case adds the absolute contributions: 0.01 (1.4142 + 1.4142 + 1)
    half = math.sqrt(0.5)
    df = propagate_f_error(GammaSet(half, half, 0.0), 0.01, 0.01, 0.01)
    assert df == pytest.approx(0.01 * (4.0 * half + 1.0), rel=1e-12)
    assert df == pytest.approx(0.0383, abs=5e-5)


def test_propagate_f_error_bounds_actual_perturbations():
    rng = np.random.default_rng(20)
    for _ in range(25):
        g = rng.uniform(-1.0, 1.0, size=3)
        dg = rng.uniform(0.0, 1e-4, size=3)
        bound = propagate_f_error(GammaSet(*g), *dg)

        def f(v):
            return v[0] ** 2 + v[1] ** 2 + v[2] ** 2 - 2.0 * v[0] * v[1] * v[2]

        for signs in np.ndindex(2, 2, 2):
            shifted = g + dg * (2.0 * np.array(signs) - 1.0)
            # first-order bound, so allow quadratic slack
            assert abs(f(shifted) - f(g)) <= bound + 1e-7


def test_error_estimate_chains_all_stages():
    pp = ProjectionProbabilities(0.6476, 0.5690, 0.5690, 0.3333, 1 / 3, 1 / 3, 1 / 3)
    est = error_estimate(pp, 100_000)
    assert isinstance(est, ErrorEstimate)
    assert est.confidence == 0.95
    assert set(est.delta_p) == {"p012", "p01", "p12", "p20", "p0", "p1", "p2"}
    assert set(est.delta_gamma) == {"g01", "g12", "g20"}
    assert est.delta_p["p0"] == pytest.approx(delta_p(1 / 3, 100_000))
    assert est.delta_gamma["g01"] == pytest.approx(
        propagate_gamma_error(0.5690, 1 / 3, 1 / 3, est.delta_p["p01"], est.delta_p["p0"], est.delta_p["p1"])
    )
    assert est.delta_f > 0.0
    # more shots shrink every stage
    tighter = error_estimate(pp, 400_000)
    assert tighter.delta_f < est.delta_f


def test_error_estimate_raises_on_vanishing_marginal():
    pp = ProjectionProbabilities(0.5, 0.5, 0.5, 0.5, 0.5, 0.0, 0.5)
    with pytest.raises(GammaUndefined):
        error_estimate(pp, 1000)
