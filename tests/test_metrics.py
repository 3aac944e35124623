"""Interference metrics: gamma, F, kappa and the n-path identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from qbench.metrics import (
    GammaSet,
    GammaUndefined,
    ProjectionProbabilities,
    gamma,
    kappa_n,
    peres_f,
    sorkin_kappa,
)

finite_amp = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


def ideal_probabilities(a0: complex, a1: complex, a2: complex) -> ProjectionProbabilities:
    """Exact subset-projection probabilities of a normalized 3-level state."""
    norm = math.sqrt(abs(a0) ** 2 + abs(a1) ** 2 + abs(a2) ** 2)
    a0, a1, a2 = a0 / norm, a1 / norm, a2 / norm
    return ProjectionProbabilities(
        p012=abs(a0 + a1 + a2) ** 2 / 3.0,
        p01=abs(a0 + a1) ** 2 / 2.0,
        p12=abs(a1 + a2) ** 2 / 2.0,
        p20=abs(a2 + a0) ** 2 / 2.0,
        p0=abs(a0) ** 2,
        p1=abs(a1) ** 2,
        p2=abs(a2) ** 2,
    )


def test_gamma_examples():
    # equal moduli 1/3 with aligned phases: pair probability 2/3 -> gamma 1
    assert math.isclose(gamma(2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0), 1.0)
    # relative phase pi/4: p_ij = (2 + sqrt(2))/6 -> gamma = cos(pi/4)
    assert math.isclose(
        gamma((2.0 + math.sqrt(2.0)) / 6.0, 1.0 / 3.0, 1.0 / 3.0), math.cos(math.pi / 4.0)
    )
    # no interference at all
    assert gamma(0.25, 0.25, 0.25) == 0.0


def test_gamma_undefined_below_epsilon():
    with pytest.raises(GammaUndefined):
        gamma(0.5, 0.0, 0.5)
    with pytest.raises(GammaUndefined):
        gamma(0.5, 0.5, 1e-10)
    # just above the cutoff it is defined
    gamma(0.5, 0.5, 2e-9)


def test_gamma_rejects_non_probabilities():
    with pytest.raises(ValueError, match="not a probability"):
        gamma(1.5, 0.5, 0.5)
    with pytest.raises(ValueError, match="not a probability"):
        gamma(0.5, -0.2, 0.5)


@settings(deadline=None, max_examples=100)
@given(
    st.floats(min_value=0.01, max_value=math.pi - 0.01),
    st.floats(min_value=0.01, max_value=math.pi - 0.01),
)
def test_gamma_recovers_relative_phase_cosine(phase_i, phase_j):
    # equal-modulus two-level interference: gamma = cos(phase_i - phase_j)
    a_i = np.exp(1j * phase_i) / math.sqrt(3.0)
    a_j = np.exp(1j * phase_j) / math.sqrt(3.0)
    p_ij = abs(a_i + a_j) ** 2 / 2.0
    g = gamma(p_ij, 1.0 / 3.0, 1.0 / 3.0)
    assert math.isclose(g, math.cos(phase_i - phase_j), abs_tol=1e-12)


def test_peres_f_fixed_points():
    assert peres_f(GammaSet(1.0, 1.0, 1.0)).f == 1.0
    assert peres_f(GammaSet(0.0, 0.0, 0.0)).f == 0.0
    result = peres_f(GammaSet(0.5, 0.5, 0.5))
    assert math.isclose(result.f, 0.5)
    assert result.gammas == GammaSet(0.5, 0.5, 0.5)
    with pytest.raises(ValueError, match="not finite"):
        peres_f(GammaSet(math.nan, 0.0, 0.0))


@settings(deadline=None, max_examples=100)
@given(
    st.floats(min_value=-math.pi, max_value=math.pi),
    st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_peres_f_is_one_on_cosine_triples(x, y):
    # gammas of any pure state are (cos x, cos y, cos(x + y)); the
    # trigonometric identity pins F at exactly 1
    f = peres_f(GammaSet(math.cos(x), math.cos(y), math.cos(x + y))).f
    assert math.isclose(f, 1.0, abs_tol=1e-12)


def test_sorkin_kappa_formula_and_uniform_zero():
    pp = ProjectionProbabilities(0.5, 0.3, 0.2, 0.1, 0.3, 0.2, 0.1)
    expected = 3.0 * 0.5 - 2.0 * (0.3 + 0.2 + 0.1) + (0.3 + 0.2 + 0.1)
    assert math.isclose(sorkin_kappa(pp).kappa, expected)
    uniform = ProjectionProbabilities(*([0.25] * 7))
    assert sorkin_kappa(uniform).kappa == 0.0


@settings(deadline=None, max_examples=80)
@given(finite_amp, finite_amp, finite_amp)
def test_sorkin_kappa_vanishes_for_pure_states(a0, a1, a2):
    norm = math.sqrt(abs(a0) ** 2 + abs(a1) ** 2 + abs(a2) ** 2)
    if norm < 0.1:
        return
    pp = ideal_probabilities(a0, a1, a2)
    assert abs(sorkin_kappa(pp).kappa) < 1e-12


def test_reference_state_ideal_metrics():
    # equal moduli with phases 0, pi/4, pi/2
    pp = ideal_probabilities(1.0, np.exp(0.25j * math.pi), np.exp(0.5j * math.pi))
    assert math.isclose(pp.p012, (3.0 + 2.0 * math.sqrt(2.0)) / 9.0)
    gs = GammaSet(gamma(pp.p01, pp.p0, pp.p1), gamma(pp.p12, pp.p1, pp.p2), gamma(pp.p20, pp.p2, pp.p0))
    assert math.isclose(gs.g01, math.cos(math.pi / 4.0), abs_tol=1e-12)
    assert math.isclose(gs.g12, math.cos(math.pi / 4.0), abs_tol=1e-12)
    assert math.isclose(gs.g20, math.cos(math.pi / 2.0), abs_tol=1e-12)
    f = peres_f(gs).f
    assert math.isclose(f, 1.0, abs_tol=1e-12)
    assert abs(sorkin_kappa(pp).kappa) < 1e-15


def test_projection_probabilities_rejects_bad_values():
    with pytest.raises(ValueError, match="not a probability"):
        ProjectionProbabilities(1.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1)
    with pytest.raises(ValueError, match="not a probability"):
        ProjectionProbabilities(math.inf, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1)


def test_kappa_n_examples():
    assert kappa_n([1.0]) == pytest.approx(0.0, abs=1e-12)
    assert kappa_n([1.0, 1j, -1.0]) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="at least one"):
        kappa_n([])
    with pytest.raises(ValueError, match="finite"):
        kappa_n([1.0, math.inf])


@settings(deadline=None, max_examples=100)
@given(st.lists(finite_amp, min_size=1, max_size=8))
def test_kappa_n_identity_holds(xs):
    scale = sum(abs(x) ** 2 for x in xs)
    assert abs(kappa_n(xs)) <= 1e-10 * max(scale, 1.0)


def test_kappa_n_matches_term_by_term_reference():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert kappa_n(x) == pytest.approx(helpers.kappa_n_ref(x), abs=1e-12)
