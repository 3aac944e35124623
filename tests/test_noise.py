"""Noise channels and the noisy simulator against closed forms."""

import math

import numpy as np
import pytest

import helpers
from qbench.circuits import (
    CircuitPlan,
    Cnot,
    GateInstruction,
    ProjectionParams,
    SingleU,
    build_preparation,
    joint_plan,
    random_preparation,
    reference_preparation,
)
from qbench.noise import (
    DepolarizingError,
    NoiseModel,
    ReadoutError,
    ThermalRelaxation,
    apply_readout,
    depolarize,
    evolve_density,
    sample_relaxation_times,
    simulate_noisy,
    thermal_relax,
)
from qbench.qcore import dm_from_statevector, random_density_matrix, validate_density_matrix


def test_readout_symmetric_weights():
    readout = ReadoutError.symmetric(0.1, 2)
    observed = apply_readout(np.array([1.0, 0.0, 0.0, 0.0]), readout)
    assert np.allclose(observed, [0.81, 0.09, 0.09, 0.01])
    flipped = apply_readout(np.array([1.0, 0.0, 0.0, 0.0]), ReadoutError.symmetric(1.0, 2))
    assert np.allclose(flipped, [0.0, 0.0, 0.0, 1.0])
    identity = apply_readout(np.array([0.2, 0.3, 0.4, 0.1]), ReadoutError.symmetric(0.0, 2))
    assert np.allclose(identity, [0.2, 0.3, 0.4, 0.1])


def test_readout_matches_brute_force_confusion():
    rng = np.random.default_rng(2)
    for _ in range(20):
        q = rng.random(4)
        q /= q.sum()
        p = float(rng.random())
        observed = apply_readout(q, ReadoutError.symmetric(p, 2))
        assert np.allclose(observed, helpers.apply_confusion(q, p), atol=1e-12)


def test_readout_validation():
    with pytest.raises(ValueError, match="outside"):
        ReadoutError.symmetric(1.2, 2)
    with pytest.raises(ValueError, match="rows sum"):
        ReadoutError(matrices=(np.array([[0.9, 0.2], [0.1, 0.9]]),))
    with pytest.raises(ValueError, match="shape"):
        ReadoutError(matrices=(np.eye(3),))
    with pytest.raises(ValueError, match="at least one"):
        ReadoutError(matrices=())
    readout = ReadoutError.symmetric(0.1, 2)
    with pytest.raises(ValueError, match="does not match"):
        apply_readout(np.array([1.0, 0.0]), readout)
    with pytest.raises(ValueError, match="sum"):
        apply_readout(np.array([0.7, 0.0, 0.0, 0.0]), readout)


def test_readout_full_matrix_orders_bits():
    # bit q of the outcome index belongs to matrices[q]
    asym = ReadoutError(matrices=(np.array([[1.0, 0.0], [0.0, 1.0]]),
                                  np.array([[0.0, 1.0], [1.0, 0.0]])))
    observed = apply_readout(np.array([1.0, 0.0, 0.0, 0.0]), asym)
    assert np.allclose(observed, [0.0, 0.0, 1.0, 0.0])  # only qubit 1 flips


def test_depolarizing_error_validation():
    DepolarizingError(p1=0.0, p2=1.0)
    with pytest.raises(ValueError, match="p1"):
        DepolarizingError(p1=-0.1)
    with pytest.raises(ValueError, match="p2"):
        DepolarizingError(p2=1.5)


def test_depolarize_endpoints():
    rho = dm_from_statevector([0.5, 0.5, 0.5, 0.5])
    assert np.allclose(depolarize(rho, 0.0, [0, 1]), rho)
    assert np.allclose(depolarize(rho, 1.0, [0, 1]), np.eye(4) / 4.0, atol=1e-12)


def test_depolarize_single_qubit_closed_form():
    # one-qubit depolarizing replaces the target with I/2 tensor (tr_q rho)
    rng = np.random.default_rng(8)
    eye2 = np.eye(2, dtype=complex)
    for qubit in (0, 1):
        rho = random_density_matrix(rng, 2)
        p = 0.3
        if qubit == 0:
            rest = np.array(
                [[rho[2 * a, 2 * b] + rho[2 * a + 1, 2 * b + 1] for b in range(2)] for a in range(2)]
            )
            mixed = np.kron(rest, eye2 / 2.0)  # qubit 1 keeps the high bit
        else:
            rest = np.array(
                [[rho[a, b] + rho[2 + a, 2 + b] for b in range(2)] for a in range(2)]
            )
            mixed = np.kron(eye2 / 2.0, rest)
        out = depolarize(rho, p, [qubit])
        assert np.allclose(out, (1.0 - p) * rho + p * mixed, atol=1e-12)


def test_depolarize_is_affine_in_p():
    rng = np.random.default_rng(12)
    rho = random_density_matrix(rng, 2)
    d0 = depolarize(rho, 0.0, [0, 1])
    d1 = depolarize(rho, 1.0, [0, 1])
    for p in (0.2, 0.5, 0.8):
        assert np.allclose(depolarize(rho, p, [0, 1]), (1.0 - p) * d0 + p * d1, atol=1e-12)


def test_depolarize_validation():
    rho = np.eye(2) / 2.0
    with pytest.raises(ValueError, match="outside"):
        depolarize(rho, 1.1, [0])
    with pytest.raises(ValueError, match="at least one"):
        depolarize(rho, 0.5, [])
    with pytest.raises(ValueError, match="invalid qubit set"):
        depolarize(rho, 0.5, [0, 0])
    with pytest.raises(ValueError, match="invalid qubit set"):
        depolarize(rho, 0.5, [3])


def test_thermal_relax_population_decay():
    rho = dm_from_statevector([0.0, 1.0])
    out = thermal_relax(rho, 0, duration_ns=100.0, t1_ns=100.0, t2_ns=200.0)
    e = math.exp(-1.0)
    assert np.allclose(np.diag(out).real, [1.0 - e, e], atol=1e-12)


def test_thermal_relax_coherence_decay():
    plus = dm_from_statevector(np.array([1.0, 1.0]) / math.sqrt(2.0))
    out = thermal_relax(plus, 0, duration_ns=150.0, t1_ns=100.0, t2_ns=150.0)
    assert np.isclose(out[0, 1].real, 0.5 * math.exp(-1.0), atol=1e-12)


def test_thermal_relax_semigroup_property():
    rng = np.random.default_rng(4)
    rho = random_density_matrix(rng, 2)
    t1, t2 = 250.0, 400.0
    both = thermal_relax(thermal_relax(rho, 1, 80.0, t1, t2), 1, 120.0, t1, t2)
    once = thermal_relax(rho, 1, 200.0, t1, t2)
    assert np.allclose(both, once, atol=1e-12)


def test_thermal_relax_matches_kraus_composition():
    # amplitude damping (gamma = 1 - e^{-t/T1}) followed by phase damping
    # tuned so the total coherence factor is e^{-t/T2}
    rng = np.random.default_rng(6)
    t, t1, t2 = 120.0, 300.0, 450.0
    f1, f2 = math.exp(-t / t1), math.exp(-t / t2)
    lam = 1.0 - (f2 / math.sqrt(f1)) ** 2
    k_ad = [
        np.array([[1.0, 0.0], [0.0, math.sqrt(f1)]], dtype=complex),
        np.array([[0.0, math.sqrt(1.0 - f1)], [0.0, 0.0]], dtype=complex),
    ]
    k_pd = [
        np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - lam)]], dtype=complex),
        np.array([[0.0, 0.0], [0.0, math.sqrt(lam)]], dtype=complex),
    ]
    for _ in range(10):
        rho = random_density_matrix(rng, 1)
        stage1 = sum(k @ rho @ k.conj().T for k in k_ad)
        stage2 = sum(k @ stage1 @ k.conj().T for k in k_pd)
        assert np.allclose(thermal_relax(rho, 0, t, t1, t2), stage2, atol=1e-12)


def test_thermal_relax_targets_requested_qubit():
    # |11><11|: relaxing qubit 1 moves population to |01> (index 1)
    rho = dm_from_statevector([0.0, 0.0, 0.0, 1.0])
    out = thermal_relax(rho, 1, 1e9, 10.0, 20.0)
    assert np.isclose(out[1, 1].real, 1.0, atol=1e-12)


def test_thermal_relax_validation():
    rho = np.eye(2) / 2.0
    with pytest.raises(ValueError, match="complete positivity"):
        thermal_relax(rho, 0, 10.0, t1_ns=100.0, t2_ns=201.0)
    with pytest.raises(ValueError, match="non-negative"):
        thermal_relax(rho, 0, -1.0, 100.0, 100.0)
    with pytest.raises(ValueError, match="positive"):
        thermal_relax(rho, 0, 1.0, 0.0, 100.0)
    with pytest.raises(ValueError, match="out of range"):
        thermal_relax(rho, 1, 1.0, 100.0, 100.0)
    assert np.allclose(thermal_relax(rho, 0, 0.0, 100.0, 100.0), rho)


def test_thermal_relaxation_config_validation():
    ThermalRelaxation(t1_mean_ns=100.0, t2_mean_ns=200.0)
    with pytest.raises(ValueError, match="complete positivity"):
        ThermalRelaxation(t1_mean_ns=100.0, t2_mean_ns=220.0)
    with pytest.raises(ValueError, match="positive"):
        ThermalRelaxation(t1_mean_ns=0.0, t2_mean_ns=100.0)
    with pytest.raises(ValueError, match="sigma_fraction"):
        ThermalRelaxation(t1_mean_ns=100.0, t2_mean_ns=100.0, sigma_fraction=2.0)
    # 0 == False, but only a real boolean is accepted as the flag
    with pytest.raises(ValueError, match="boolean"):
        ThermalRelaxation(5e4, 7e4, deterministic=0)


def test_sample_relaxation_times_deterministic_and_sampled():
    thermal = ThermalRelaxation(t1_mean_ns=1000.0, t2_mean_ns=1500.0)
    assert sample_relaxation_times(np.random.default_rng(0), thermal) == (1000.0, 1500.0)
    zero_sigma = ThermalRelaxation(1000.0, 1500.0, sigma_fraction=0.0, deterministic=False)
    assert sample_relaxation_times(np.random.default_rng(0), zero_sigma) == (1000.0, 1500.0)

    sampled = ThermalRelaxation(1000.0, 1900.0, sigma_fraction=0.1, deterministic=False)
    rng = np.random.default_rng(99)
    t1s, t2s = [], []
    for _ in range(2000):
        t1, t2 = sample_relaxation_times(rng, sampled)
        assert t1 > 0.0 and t2 > 0.0
        assert t2 <= 2.0 * t1
        t1s.append(t1)
        t2s.append(t2)
    assert abs(np.mean(t1s) - 1000.0) < 10.0
    assert abs(np.std(t1s) - 100.0) < 10.0
    # clipping at 2*T1 only trims the upper tail
    assert np.mean(t2s) < 1900.0


def test_noise_model_flags():
    assert not NoiseModel.ideal().needs_rng()
    deterministic = NoiseModel(thermal=ThermalRelaxation(1000.0, 1500.0))
    assert not deterministic.needs_rng()
    sampled = NoiseModel(thermal=ThermalRelaxation(1000.0, 1500.0, deterministic=False))
    assert sampled.needs_rng()


def test_evolve_density_gates_act_on_the_named_qubits():
    # qubit q is bit q of the basis index: X on qubit 1 of |00> gives |10>
    # (index 2), and a CNOT controlled by qubit 1 then reaches |11> (index 3)
    x1 = GateInstruction(SingleU(qubit=1, theta=math.pi, phi=0.0, lam=math.pi), 100.0)
    for n, cnot, final in ((2, Cnot(control=1, target=0), 3), (3, Cnot(control=1, target=2), 6)):
        after_x = evolve_density(CircuitPlan(n, (x1,)), NoiseModel.ideal())
        assert np.isclose(after_x[2, 2].real, 1.0)
        after_cnot = evolve_density(CircuitPlan(n, (x1, GateInstruction(cnot, 300.0))), NoiseModel.ideal())
        assert np.isclose(after_cnot[final, final].real, 1.0)


def test_evolve_density_ideal_matches_analytic_state():
    rng = np.random.default_rng(21)
    for _ in range(10):
        params = random_preparation(rng)
        rho = evolve_density(build_preparation(params), NoiseModel.ideal())
        assert np.allclose(rho, dm_from_statevector(helpers.state_of(params)), atol=1e-10)


def test_evolve_density_requires_rng_only_when_sampling():
    plan = build_preparation(reference_preparation())
    model = NoiseModel(thermal=ThermalRelaxation(5e4, 9e4, deterministic=False))
    with pytest.raises(ValueError, match="rng"):
        evolve_density(plan, model)
    rho = evolve_density(plan, model, np.random.default_rng(1))
    validate_density_matrix(rho)


def test_evolve_density_outputs_remain_valid_under_heavy_noise():
    model = NoiseModel(
        depolarizing=DepolarizingError(p1=0.05, p2=0.2),
        thermal=ThermalRelaxation(t1_mean_ns=500.0, t2_mean_ns=800.0),
    )
    rng = np.random.default_rng(14)
    for _ in range(5):
        plan = joint_plan(random_preparation(rng), ProjectionParams(1.0, 2.0))
        validate_density_matrix(evolve_density(plan, model))


def test_simulate_noisy_examples():
    prep = reference_preparation()
    p0_plan = joint_plan(prep, ProjectionParams(0.0, 0.0))
    ideal = simulate_noisy(p0_plan, NoiseModel.ideal())
    assert np.isclose(ideal[0], 1.0 / 3.0, atol=1e-12)

    uniform = simulate_noisy(p0_plan, NoiseModel(readout=ReadoutError.symmetric(0.5, 2)))
    assert np.allclose(uniform, 0.25, atol=1e-12)

    scrambled = simulate_noisy(p0_plan, NoiseModel(depolarizing=DepolarizingError(p2=1.0)))
    assert np.allclose(scrambled, 0.25, atol=1e-12)


def test_simulate_noisy_matches_brute_force_readout_chain():
    rng = np.random.default_rng(33)
    for _ in range(15):
        prep = random_preparation(rng)
        t1 = math.acos(1.0 - 2.0 * rng.random())
        t2 = math.acos(1.0 - 2.0 * rng.random())
        p = float(rng.random())
        probs = simulate_noisy(
            joint_plan(prep, ProjectionParams(t1, t2)),
            NoiseModel(readout=ReadoutError.symmetric(p, 2)),
        )
        expected = helpers.apply_confusion(
            helpers.outcome_dist(helpers.state_of(prep), t1, t2), p
        )
        assert np.allclose(probs, expected, atol=1e-10)
