"""Joint-test driver, sweep grids, determinism and threshold search."""

import dataclasses
import math

import numpy as np
import pytest

import helpers
from qbench.circuits import (
    GateDurations,
    PreparationParams,
    build_preparation,
    random_preparation,
    reference_preparation,
)
from qbench import metrics, stats, sweep
from qbench.noise import DepolarizingError, NoiseModel, ReadoutError, ThermalRelaxation, evolve_density
from qbench.stats import bootstrap_ci
from qbench.sweep import (
    NoisePoint,
    StateSource,
    SweepConfig,
    SweepRecord,
    default_grid,
    f_crossing_threshold,
    noise_model_for_point,
    readout_threshold,
    run_joint_test,
    run_sweep,
)


def small_config(**overrides) -> SweepConfig:
    base = dict(
        grid=default_grid("readout", steps=3),
        state_source=StateSource.random(2, seed=5),
        mode="exact",
        seed=17,
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_state_source_kinds():
    assert StateSource.specific().preparations() == [reference_preparation()]
    randoms = StateSource.random(4, seed=9)
    assert randoms.preparations() == randoms.preparations()  # seeded, stable
    assert len(randoms.preparations()) == 4
    explicit = StateSource.explicit([PreparationParams(0.1, 0.2, 0.3, 0.4)])
    assert explicit.preparations() == [PreparationParams(0.1, 0.2, 0.3, 0.4)]
    with pytest.raises(ValueError, match="n_states"):
        StateSource.random(0, seed=1)
    with pytest.raises(ValueError, match="at least one"):
        StateSource.explicit([])
    with pytest.raises(ValueError, match="unknown state source"):
        StateSource(kind="other")


def test_noise_point_validation():
    NoisePoint("readout", p_readout=0.1)
    with pytest.raises(ValueError, match="unknown noise axis"):
        NoisePoint("amplitude", p_readout=0.1)


def test_default_grid_shapes():
    readout = default_grid("readout", steps=5)
    assert [p.p_readout for p in readout] == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    assert all(p.t1_ns is None for p in readout)

    depol = default_grid("depolarizing", steps=3)
    assert [p.p_depol1 for p in depol] == pytest.approx([0.0, 0.5, 1.0])
    assert [p.p_depol2 for p in depol] == pytest.approx([0.0, 0.5, 1.0])

    thermal = default_grid("thermal", steps=5, t2_ratio=1.5)
    assert thermal[0].t1_ns == pytest.approx(10.0)
    assert thermal[-1].t1_ns == pytest.approx(1e5)
    assert all(p.t2_ns == pytest.approx(1.5 * p.t1_ns) for p in thermal)
    ratios = [thermal[i + 1].t1_ns / thermal[i].t1_ns for i in range(4)]
    assert ratios == pytest.approx([ratios[0]] * 4)  # log spacing

    combined = default_grid("readout_depolarizing", steps=3)
    assert len(combined) == 9
    assert {(p.p_readout, p.p_depol1) for p in combined} == {
        (pr, pd) for pr in (0.0, 0.5, 1.0) for pd in (0.0, 0.5, 1.0)
    }

    with pytest.raises(ValueError, match="steps"):
        default_grid("readout", steps=1)
    with pytest.raises(ValueError, match="t2_ratio"):
        default_grid("thermal", t2_ratio=2.5)


def test_noise_model_for_point():
    config = small_config()
    readout_model = noise_model_for_point(NoisePoint("readout", p_readout=0.2), config)
    assert readout_model.readout is not None
    assert readout_model.depolarizing is None and readout_model.thermal is None

    thermal_model = noise_model_for_point(NoisePoint("thermal", t1_ns=1e4), config)
    assert thermal_model.thermal == ThermalRelaxation(1e4, 2e4, 0.1, True)

    combined = noise_model_for_point(
        NoisePoint("readout_depolarizing", p_readout=0.1, p_depol1=0.01, p_depol2=0.02),
        config,
    )
    assert combined.readout is not None
    assert combined.depolarizing == DepolarizingError(p1=0.01, p2=0.02)


def test_run_joint_test_ideal_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(5):
        prep = random_preparation(rng)
        result = run_joint_test(prep, NoiseModel.ideal())
        expected = helpers.seven_probs(helpers.state_of(prep))
        for name, value in expected.items():
            assert getattr(result.probabilities, name) == pytest.approx(value, abs=1e-10)
        assert result.kappa == pytest.approx(0.0, abs=1e-10)
        if result.f is not None:
            assert result.f == pytest.approx(1.0, abs=1e-8)


def test_run_joint_test_readout_matches_brute_force():
    prep = reference_preparation()
    for p in (0.1, 0.4, 0.7):
        result = run_joint_test(prep, NoiseModel(readout=ReadoutError.symmetric(p, 2)))
        k, f, gs = helpers.metrics_of(helpers.seven_probs(helpers.state_of(prep), p))
        assert result.kappa == pytest.approx(k, abs=1e-12)
        assert result.f == pytest.approx(f, abs=1e-10)
        assert (result.g01, result.g12, result.g20) == pytest.approx(gs, abs=1e-10)


def test_run_joint_test_flags_undefined_gamma():
    # at readout 1.0 the observed 00 weight of a single-level circuit is the
    # true weight of the never-populated fourth level, which is exactly zero
    prep = reference_preparation()
    result = run_joint_test(prep, NoiseModel(readout=ReadoutError.symmetric(1.0, 2)))
    assert result.gamma_undefined
    assert result.peres is None and result.f is None
    assert result.g01 is None  # p1 marginal vanished
    assert math.isfinite(result.kappa)


def test_run_joint_test_validation():
    prep = reference_preparation()
    with pytest.raises(ValueError, match="unknown mode"):
        run_joint_test(prep, NoiseModel.ideal(), mode="approx")
    with pytest.raises(ValueError, match="requires an rng"):
        run_joint_test(prep, NoiseModel.ideal(), mode="shots", shots=100)
    with pytest.raises(ValueError, match="must be positive"):
        run_joint_test(prep, NoiseModel.ideal(), mode="shots", shots=0, rng=np.random.default_rng(0))


def test_run_joint_test_shot_mode_converges_and_reproduces():
    prep = reference_preparation()
    model = NoiseModel(readout=ReadoutError.symmetric(0.05, 2))
    a = run_joint_test(prep, model, mode="shots", shots=200_000, rng=np.random.default_rng(3))
    b = run_joint_test(prep, model, mode="shots", shots=200_000, rng=np.random.default_rng(3))
    assert a.probabilities == b.probabilities  # same stream, same counts
    exact = run_joint_test(prep, model)
    assert a.kappa == pytest.approx(exact.kappa, abs=0.02)
    assert a.f == pytest.approx(exact.f, abs=0.05)


def test_sweep_config_validation():
    with pytest.raises(ValueError, match="empty"):
        SweepConfig(grid=(), state_source=StateSource.specific())
    mixed = (NoisePoint("readout", p_readout=0.0), NoisePoint("thermal", t1_ns=100.0))
    with pytest.raises(ValueError, match="mixes"):
        SweepConfig(grid=mixed, state_source=StateSource.specific())
    with pytest.raises(ValueError, match="repeats"):
        small_config(mode="shots", shots=100, repeats=1)
    with pytest.raises(ValueError, match="ci_level"):
        small_config(ci_level=0.0)


def test_run_sweep_cardinality_and_order():
    config = small_config()
    records = run_sweep(config)
    assert len(records) == 2 * 3
    assert [(r.state_id, r.point.p_readout) for r in records] == [
        (s, p) for s in (0, 1) for p in (0.0, 0.5, 1.0)
    ]
    for record in records:
        assert record.mode == "exact"
        assert record.shots is None and record.repeats is None
        assert record.kappa_ci_lo is None and record.f_ci_hi is None
        assert math.isfinite(record.kappa)


def test_run_sweep_deterministic_and_worker_invariant():
    config = small_config()
    assert run_sweep(config) == run_sweep(config)
    # a record depends only on its own (seed, state, point): a sweep of the
    # first state alone, as any split of the work would run it, matches
    first_state = small_config(state_source=StateSource.random(1, seed=5))
    assert run_sweep(first_state) == run_sweep(config)[: len(config.grid)]
    reseeded = run_sweep(small_config(seed=18))
    # exact-mode metrics do not depend on the seed, but the replay seeds do
    assert [r.kappa for r in reseeded] == [r.kappa for r in run_sweep(config)]
    assert [r.seed for r in reseeded] != [r.seed for r in run_sweep(config)]


def test_run_sweep_shot_mode_records_intervals():
    config = small_config(
        grid=(NoisePoint("readout", p_readout=0.1),),
        state_source=StateSource.specific(),
        mode="shots",
        shots=2000,
        repeats=4,
    )
    records = run_sweep(config)
    assert len(records) == 1
    record = records[0]
    assert record.shots == 2000 and record.repeats == 4
    assert record.kappa_ci_lo <= record.kappa <= record.kappa_ci_hi
    assert record.f_ci_lo <= record.f <= record.f_ci_hi
    assert run_sweep(config) == records  # shot mode replays bit-identically


def record_from_joint_tests(config: SweepConfig, state_id: int, point_index: int) -> SweepRecord:
    """A shot-mode record rebuilt from one full run_joint_test per repeat,
    on the substreams the sweep documents: repeat r on streams[r], the
    kappa and F bootstraps on streams[repeats] and streams[repeats + 1]."""
    prep = config.state_source.preparations()[state_id]
    point = config.grid[point_index]
    model = noise_model_for_point(point, config)
    base = np.random.SeedSequence([config.seed, state_id, point_index])
    seed = int(base.generate_state(1, dtype=np.uint32)[0])
    streams = base.spawn(config.repeats + 2)
    results = [
        run_joint_test(
            prep, model, "shots", shots=config.shots,
            rng=np.random.default_rng(streams[r]), durations=config.durations,
        )
        for r in range(config.repeats)
    ]
    assert not any(r.gamma_undefined for r in results)
    kappa_ci = bootstrap_ci(
        np.array([r.kappa for r in results]), config.ci_level,
        rng=np.random.default_rng(streams[config.repeats]),
    )
    f_ci = bootstrap_ci(
        np.array([r.f for r in results]), config.ci_level,
        rng=np.random.default_rng(streams[config.repeats + 1]),
    )
    return SweepRecord(
        state_id=state_id, params=prep, point=point, mode="shots",
        shots=config.shots, repeats=config.repeats,
        kappa=kappa_ci.mean, kappa_ci_lo=kappa_ci.lo, kappa_ci_hi=kappa_ci.hi,
        f=f_ci.mean, f_ci_lo=f_ci.lo, f_ci_hi=f_ci.hi,
        g01=float(np.mean([r.g01 for r in results])),
        g12=float(np.mean([r.g12 for r in results])),
        g20=float(np.mean([r.g20 for r in results])),
        gamma_undefined=False, seed=seed,
    )


def shot_config(grid, deterministic_thermal: bool = True) -> SweepConfig:
    return SweepConfig(
        grid=grid,
        state_source=StateSource.random(2, seed=5),
        mode="shots",
        shots=5000,
        repeats=4,
        seed=23,
        deterministic_thermal=deterministic_thermal,
    )


@pytest.mark.parametrize(
    "grid",
    [
        default_grid("thermal", steps=4),
        (NoisePoint("readout", p_readout=0.05), NoisePoint("readout", p_readout=0.2)),
    ],
    ids=["thermal", "readout"],
)
def test_shot_record_equals_per_repeat_joint_tests(grid):
    # the sweep computes a record's distributions once; the record must be
    # the one that seven full circuits per repeat would give
    config = shot_config(grid)
    records = run_sweep(config)
    for state_id, point_index in ((0, len(grid) - 1), (1, 1)):
        got = records[state_id * len(grid) + point_index]
        assert got == record_from_joint_tests(config, state_id, point_index)


def test_sampled_thermal_shot_record_replays_and_differs_from_deterministic():
    point = NoisePoint("thermal", t1_ns=2e3, t2_ns=4e3)
    sampled = shot_config((point,), deterministic_thermal=False)
    records = run_sweep(sampled)
    assert run_sweep(sampled) == records  # replays bit-identically from its seed
    # each repeat evolves its own T1/T2 draw from its own stream
    assert records[1] == record_from_joint_tests(sampled, 1, 0)
    fixed = run_sweep(shot_config((point,), deterministic_thermal=True))
    for a, b in zip(records, fixed):
        assert a.seed == b.seed  # same substreams
        assert a.kappa != b.kappa and a.f != b.f


def test_zero_sigma_thermal_draws_nothing():
    # sigma_fraction = 0 samples no T1/T2, so it needs no rng and its shot
    # records are the deterministic sweep's
    point = NoisePoint("thermal", t1_ns=2e3, t2_ns=4e3)
    zero_sigma = dataclasses.replace(shot_config((point,), deterministic_thermal=False), sigma_fraction=0.0)
    model = noise_model_for_point(point, zero_sigma)
    assert not model.needs_rng()
    rho = evolve_density(build_preparation(reference_preparation()), model)
    assert np.isclose(np.trace(rho).real, 1.0)
    assert run_sweep(zero_sigma) == run_sweep(shot_config((point,)))


def test_readout_threshold_equals_full_pipeline_scan():
    # reusing the ideal distributions must not move a single bit of F
    def full_scan(prep):
        return f_crossing_threshold(
            lambda p: run_joint_test(prep, NoiseModel(readout=ReadoutError.symmetric(p, 2))).f
        )

    rng = np.random.default_rng(1004)
    states = [reference_preparation()] + [helpers.floored_preparation(rng) for _ in range(3)]
    found = [readout_threshold(prep) for prep in states]
    assert found == [full_scan(prep) for prep in states]
    assert found[0] is None and any(t is not None for t in found[1:])


def test_joint_result_reduces_the_distributions():
    prep = random_preparation(np.random.default_rng(8))
    model = NoiseModel(depolarizing=DepolarizingError(p1=0.02, p2=0.05))
    distributions = sweep.joint_distributions(prep, model)
    assert distributions.shape == (7, 4)
    assert np.allclose(distributions.sum(axis=1), 1.0)
    assert sweep.joint_result(distributions[:, 0]) == run_joint_test(prep, model)
    with pytest.raises(ValueError, match="7 P"):
        sweep.joint_result(distributions[:6, 0])


def test_gamma_pairs_follow_the_metrics_table():
    # one (gamma, pair, marginal, marginal) table serves every consumer
    assert sweep.PAIR_FIELDS is metrics.PAIR_FIELDS
    assert stats.PAIR_FIELDS is metrics.PAIR_FIELDS
    model = NoiseModel(readout=ReadoutError.symmetric(0.1, 2))
    result = run_joint_test(random_preparation(np.random.default_rng(8)), model)
    pp = result.probabilities
    for name, pair, i, j in metrics.PAIR_FIELDS:
        assert getattr(result, name) == metrics.gamma(getattr(pp, pair), getattr(pp, i), getattr(pp, j))
    estimate = stats.error_estimate(result.probabilities, 1000)
    assert list(estimate.delta_gamma) == [name for name, *_ in metrics.PAIR_FIELDS]


def test_f_crossing_threshold_synthetic():
    # linear ramp crossing 1 at exactly 0.75
    ramp = lambda p: 4.0 * (p - 0.5)
    found = f_crossing_threshold(ramp, resolution=1e-3)
    assert found == pytest.approx(0.75, abs=1e-3)
    assert ramp(found) >= 1.0
    assert f_crossing_threshold(lambda p: 0.5, resolution=1e-3) is None
    # a curve that starts above 1 and falls has no upward crossing
    assert f_crossing_threshold(lambda p: 2.0 - p, resolution=1e-3) is None
    # a crossing inside the last resolution-wide step before hi is still found
    steep = lambda p: 1.0 + 100.0 * (p - 0.9995)
    found = f_crossing_threshold(steep, resolution=1e-3)
    assert found == pytest.approx(0.9995, abs=2.5e-4)
    assert steep(found) >= 1.0
    with pytest.raises(ValueError, match="resolution"):
        f_crossing_threshold(ramp, resolution=0.0)


def test_f_crossing_threshold_excludes_undefined_endpoint():
    # evaluations exactly at the domain ends would blow up; the scan must
    # never request them
    def guarded(p: float) -> float:
        assert 0.5 < p < 1.0
        return 4.0 * (p - 0.5)

    assert f_crossing_threshold(guarded, resolution=1e-3) == pytest.approx(0.75, abs=1e-3)


def test_readout_threshold_reference_state_never_crosses():
    # the equal-modulus state is degenerate: its F stays below 1 on the
    # whole scan domain, so there is no threshold to report
    assert readout_threshold(reference_preparation()) is None


def test_readout_threshold_generic_state_matches_reference_scan():
    rng = np.random.default_rng(101)
    params = helpers.floored_preparation(rng, 0.1)
    found = readout_threshold(params, resolution=1e-3)
    expected = helpers.threshold_ref(params, resolution=1e-3)
    assert found is not None and expected is not None
    assert found == pytest.approx(expected, abs=2e-3)
    # the returned point sits on the >= 1 side
    assert helpers.f_of_readout(params, found) >= 1.0


def test_readout_threshold_respects_durations_argument():
    # readout confusion acts after the circuit, so gate durations cannot
    # change the exact-mode threshold
    params = helpers.floored_preparation(np.random.default_rng(101), 0.1)
    slow = GateDurations(single_u_ns=200.0, cnot_ns=600.0)
    assert readout_threshold(params, durations=slow) == readout_threshold(params)
