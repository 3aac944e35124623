"""Gate plans: preparation/projection structure and their closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from qbench.circuits import (
    DEFAULT_DURATIONS,
    LEVEL_INDICES,
    PROJECTION_ORDER,
    Cnot,
    CircuitPlan,
    GateDurations,
    GateInstruction,
    Measure,
    PreparationParams,
    ProjectionParams,
    Reset,
    SingleU,
    analytic_amplitudes,
    build_preparation,
    build_projection,
    joint_plan,
    projection_settings,
    projection_state,
    random_preparation,
    reference_preparation,
    u_matrix,
)

angles = st.floats(min_value=0.0, max_value=math.pi, allow_nan=False)
phases = st.floats(min_value=0.0, max_value=2.0 * math.pi - 1e-9, allow_nan=False)


def test_u_matrix_examples():
    assert np.allclose(u_matrix(math.pi, 0.0, 0.0), [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)
    v = u_matrix(math.pi / 2.0, math.pi / 2.0, 0.0) @ np.array([1.0, 0.0])
    assert np.allclose(v, [1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0)])
    # U(0,0,lam) is the plain phase gate
    assert np.allclose(u_matrix(0.0, 0.0, 0.7), np.diag([1.0, np.exp(0.7j)]))


@settings(deadline=None, max_examples=50)
@given(angles, phases, phases)
def test_u_matrix_is_unitary(theta, phi, lam):
    u = u_matrix(theta, phi, lam)
    assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)


def test_canonical_folds_and_rejects():
    p = PreparationParams(2.0 * math.pi + 0.3, 0.4, -0.5, 7.0).canonical()
    assert math.isclose(p.theta1, 0.3)
    assert math.isclose(p.phi1, 2.0 * math.pi - 0.5)
    assert math.isclose(p.phi2, 7.0 - 2.0 * math.pi)
    # a hair over pi clamps, a genuine excursion is refused
    assert PreparationParams(math.pi + 1e-13, 0.0, 0.0, 0.0).canonical().theta1 == math.pi
    with pytest.raises(ValueError, match="outside"):
        PreparationParams(1.5 * math.pi, 0.0, 0.0, 0.0).canonical()
    with pytest.raises(ValueError, match="not finite"):
        ProjectionParams(math.nan, 0.0).canonical()


@settings(deadline=None, max_examples=50)
@given(angles, angles, phases, phases)
def test_canonical_is_idempotent(t1, t2, f1, f2):
    once = PreparationParams(t1, t2, f1, f2).canonical()
    assert once == once.canonical()


def test_analytic_amplitudes_examples():
    assert np.allclose(analytic_amplitudes(PreparationParams(0, 0, 0, 0)), [1, 0, 0, 0])
    assert np.allclose(analytic_amplitudes(PreparationParams(math.pi, 0, 0, 0)), [0, 1, 0, 0])
    assert np.allclose(
        analytic_amplitudes(PreparationParams(math.pi, math.pi, 0, 0)), [0, 0, 0, 1]
    )
    ref = analytic_amplitudes(reference_preparation())
    third = 1.0 / math.sqrt(3.0)
    assert np.allclose(np.abs(ref[list(LEVEL_INDICES)]), third)
    assert np.isclose(np.angle(ref[1]), math.pi / 4.0)
    assert np.isclose(np.angle(ref[3]), math.pi / 2.0)


@settings(deadline=None, max_examples=60)
@given(angles, angles, phases, phases)
def test_fourth_level_never_populated(t1, t2, f1, f2):
    amps = analytic_amplitudes(PreparationParams(t1, t2, f1, f2))
    assert amps[2] == 0.0
    assert np.isclose(np.vdot(amps, amps).real, 1.0)


def test_analytic_amplitudes_match_brute_force_unitary():
    rng = np.random.default_rng(42)
    for _ in range(50):
        params = random_preparation(rng)
        assert np.allclose(analytic_amplitudes(params), helpers.state_of(params), atol=1e-12)


def test_projection_settings_states():
    settings_map = projection_settings()
    assert tuple(label.value for label in PROJECTION_ORDER) == (
        "P012", "P01", "P12", "P20", "P0", "P1", "P2",
    )
    third = 1.0 / math.sqrt(3.0)
    half = 1.0 / math.sqrt(2.0)
    expected = {
        "P012": [third, third, 0.0, third],
        "P01": [half, half, 0.0, 0.0],
        "P12": [0.0, half, 0.0, half],
        "P20": [half, 0.0, 0.0, half],
        "P0": [1.0, 0.0, 0.0, 0.0],
        "P1": [0.0, 1.0, 0.0, 0.0],
        "P2": [0.0, 0.0, 0.0, 1.0],
    }
    for label, params in settings_map.items():
        assert np.allclose(projection_state(params), expected[label.value], atol=1e-12)


def test_preparation_plan_structure():
    plan = build_preparation(reference_preparation())
    kinds = [type(i.kind) for i in plan.instructions]
    assert kinds[:2] == [Reset, Reset]
    assert kinds.count(Cnot) == 4
    assert kinds.count(SingleU) == 7
    assert Measure not in kinds
    for instr in plan.instructions:
        if isinstance(instr.kind, Reset):
            assert instr.duration_ns == DEFAULT_DURATIONS.reset_ns
        elif isinstance(instr.kind, Cnot):
            assert instr.duration_ns == DEFAULT_DURATIONS.cnot_ns
        else:
            assert instr.duration_ns == DEFAULT_DURATIONS.single_u_ns


def test_projection_plan_structure():
    plan = build_projection(ProjectionParams(math.pi / 2.0, 0.0))
    kinds = [type(i.kind) for i in plan.instructions]
    assert kinds[-2:] == [Measure, Measure]
    assert Reset not in kinds
    # same gate template as a preparation, reversed, so the gate counts match
    assert kinds.count(Cnot) == 4
    assert kinds.count(SingleU) == 7


def test_projection_inverts_phase_free_preparation():
    rng = np.random.default_rng(5)
    for _ in range(20):
        t1 = math.acos(1.0 - 2.0 * rng.random())
        t2 = math.acos(1.0 - 2.0 * rng.random())
        m = helpers.plan_unitary(build_projection(ProjectionParams(t1, t2)))
        target = helpers.prep_unitary(t1, t2).conj().T
        ij = np.unravel_index(np.argmax(np.abs(target)), target.shape)
        phase = m[ij] / target[ij]
        assert np.isclose(abs(phase), 1.0, atol=1e-12)
        assert np.allclose(m, phase * target, atol=1e-10)


def test_joint_plan_measures_projection_overlap():
    rng = np.random.default_rng(9)
    e0 = np.zeros(4, dtype=complex)
    e0[0] = 1.0
    for _ in range(20):
        prep = random_preparation(rng)
        proj = ProjectionParams(
            math.acos(1.0 - 2.0 * rng.random()), math.acos(1.0 - 2.0 * rng.random())
        )
        psi = helpers.plan_unitary(joint_plan(prep, proj)) @ e0
        expected = abs(np.vdot(projection_state(proj), analytic_amplitudes(prep))) ** 2
        assert np.isclose(abs(psi[0]) ** 2, expected, atol=1e-10)


def test_reference_preparation_p012_overlap():
    # |<v012|psi_ref>|^2 = (3 + 2 sqrt(2)) / 9
    prep = reference_preparation()
    v012 = projection_state(projection_settings()[PROJECTION_ORDER[0]])
    overlap = abs(np.vdot(v012, analytic_amplitudes(prep))) ** 2
    assert np.isclose(overlap, (3.0 + 2.0 * math.sqrt(2.0)) / 9.0, atol=1e-12)


def test_random_preparation_distributions():
    # theta = arccos(1 - 2r) makes cos(theta) uniform on [-1, 1]; phases
    # are uniform on [0, 2 pi).  Check both with a KS statistic.
    rng = np.random.default_rng(123)
    n = 100_000
    draws = [random_preparation(rng) for _ in range(n)]

    def ks_uniform(values, lo, hi):
        xs = (np.sort(np.asarray(values)) - lo) / (hi - lo)
        grid = np.arange(1, n + 1) / n
        return float(np.max(np.abs(xs - grid)))

    assert ks_uniform([math.cos(d.theta1) for d in draws], -1.0, 1.0) < 0.01
    assert ks_uniform([math.cos(d.theta2) for d in draws], -1.0, 1.0) < 0.01
    assert ks_uniform([d.phi1 for d in draws], 0.0, 2.0 * math.pi) < 0.01
    assert ks_uniform([d.phi2 for d in draws], 0.0, 2.0 * math.pi) < 0.01


def test_gate_durations_validation():
    assert GateDurations().longest() == 1000.0
    assert GateDurations(single_u_ns=50.0).single_u_ns == 50.0
    with pytest.raises(ValueError, match="positive"):
        GateDurations(cnot_ns=0.0)
    with pytest.raises(ValueError, match="positive"):
        GateDurations(measure_ns=-1.0)


def test_circuit_plan_validation():
    measure = GateInstruction(Measure(0), 1000.0)
    gate = GateInstruction(SingleU(0, 0.1, 0.0, 0.0), 100.0)
    with pytest.raises(ValueError, match="after a measure"):
        CircuitPlan((measure, gate))
    with pytest.raises(ValueError, match="outside"):
        CircuitPlan((GateInstruction(Cnot(0, 2), 300.0),))
    with pytest.raises(ValueError, match="must differ"):
        GateInstruction(Cnot(1, 1), 300.0)
    with pytest.raises(ValueError, match="duration"):
        GateInstruction(SingleU(0, 0.1, 0.0, 0.0), 0.0)
