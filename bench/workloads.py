"""The three benchmark workloads: what one round runs and how it is checked.

A workload runs in rounds.  Round ``i`` draws its own inputs from
``(seed, i)``, so no input repeats between rounds apart from the fixed
reference state, and every round makes the same calls in the same number.
``run`` is the timed call; ``check`` judges each output record against
the reference routes and returns one pass flag per record.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from qbench import circuits, csvio, noise, sweep

import reference as ref

STATE_FLOOR = 0.05  # smallest level modulus of a drawn state
READOUT_RESOLUTION = 1e-3  # readout_threshold's default
SHOT_TAIL = 1e-9  # chance per record that a correct sampler lands outside the kappa bound


def _rng(seed: int, round_index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, round_index, stream])


def _same_12_digits(parsed, value) -> bool:
    if value is None or parsed is None:
        return parsed is None and value is None
    if isinstance(value, float):
        return math.isclose(parsed, value, rel_tol=5e-12, abs_tol=1e-300)
    return parsed == value


def csv_matches(row: dict, record: sweep.SweepRecord) -> bool:
    """A row read back by ``read_records_csv`` against the record written."""
    point = record.point
    expected = {
        "state_id": record.state_id,
        "theta1": record.params.theta1,
        "theta2": record.params.theta2,
        "phi1": record.params.phi1,
        "phi2": record.params.phi2,
        "noise_type": point.noise_type,
        "p_readout": point.p_readout,
        "p_depol1": point.p_depol1,
        "p_depol2": point.p_depol2,
        "t1_ns": point.t1_ns,
        "t2_ns": point.t2_ns,
        "mode": record.mode,
        "shots": record.shots,
        "repeats": record.repeats,
        "kappa": record.kappa,
        "kappa_ci_lo": record.kappa_ci_lo,
        "kappa_ci_hi": record.kappa_ci_hi,
        "f": record.f,
        "f_ci_lo": record.f_ci_lo,
        "f_ci_hi": record.f_ci_hi,
        "g01": record.g01,
        "g12": record.g12,
        "g20": record.g20,
        "gamma_undefined": record.gamma_undefined,
        "seed": record.seed,
    }
    return row.keys() == expected.keys() and all(_same_12_digits(row[k], v) for k, v in expected.items())


class DepolarizingExact:
    """One random state over the 21-point depolarizing grid, exact mode, then the CSV write."""

    name = "depolarizing-exact"
    records_per_round = 21
    trace_rounds = 2

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.grid = sweep.default_grid("depolarizing")
        self.csv_path = out_dir / f"{self.name}.csv"
        self.strengths = np.array([point.p_depol1 for point in self.grid])

    def inputs(self, i: int) -> sweep.SweepConfig:
        rng = _rng(self.seed, i, 1)
        prep = ref.draw_preparation(rng, STATE_FLOOR)
        return sweep.SweepConfig(
            grid=self.grid, state_source=sweep.StateSource.explicit([prep]), seed=int(rng.integers(2**31))
        )

    def run(self, config: sweep.SweepConfig):
        records = sweep.run_sweep(config)
        csvio.write_records_csv(self.csv_path, records)
        return records

    def check(self, config: sweep.SweepConfig, records) -> list[bool]:
        prep = config.state_source.params[0]
        want = ref.seven_p00(prep, p1=self.strengths, p2=self.strengths)
        kappa, f, gammas = ref.kappa_f(want)
        rows = csvio.read_records_csv(self.csv_path)
        passes = []
        for j, (record, row) in enumerate(zip(records, rows)):
            p = self.strengths[j]
            model = noise.NoiseModel(depolarizing=noise.DepolarizingError(p, p))
            got = sweep.run_joint_test(prep, model).probabilities
            ok = (
                record.point == self.grid[j]
                and all(abs(getattr(got, name) - want[name][j]) <= 1e-12 for name in ref.SETTINGS)
                and not record.gamma_undefined
                and abs(record.kappa - kappa[j]) <= 1e-9
                and abs(record.f - f[j]) <= 1e-9
                and all(abs(getattr(record, g) - gammas[k][j]) <= 1e-9 for k, g in enumerate(("g01", "g12", "g20")))
                and record.f <= 1.0 + 1e-9
                and (0.0 < p < 1.0 or abs(record.kappa) <= 1e-10)
                and csv_matches(row, record)
            )
            passes.append(ok)
        return passes + [False] * (self.records_per_round - len(passes))

class ReadoutThreshold:
    """``readout_threshold`` for the reference state and one random floored state that crosses F = 1."""

    name = "readout-threshold"
    records_per_round = 2
    trace_rounds = 2

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.reference_state = circuits.reference_preparation()
        self.reference_dists = ref.ideal_distributions(self.reference_state)

    def inputs(self, i: int) -> list[circuits.PreparationParams]:
        """The reference state (no-crossing path) and the first drawn state whose
        reference F crosses 1 on (0.5, 1 - 2 resolution] (bisection path).

        The finder's coarse scan stops at 1 - resolution and so misses a
        crossing above it; states that cross only there are left out.
        """
        rng = _rng(self.seed, i, 2)
        while True:
            prep = ref.draw_preparation(rng, STATE_FLOOR)
            crossing = ref.threshold_scan(ref.ideal_distributions(prep), READOUT_RESOLUTION)
            if crossing is not None and crossing <= 1.0 - 2.0 * READOUT_RESOLUTION:
                return [self.reference_state, prep]

    def run(self, states):
        return [sweep.readout_threshold(prep) for prep in states]

    def check(self, states, thresholds) -> list[bool]:
        passes = []
        for prep, t in zip(states, thresholds):
            dists = self.reference_dists if prep is self.reference_state else ref.ideal_distributions(prep)
            if t is None:
                ok = ref.threshold_scan(dists, READOUT_RESOLUTION) is None
            else:
                ok = (
                    prep is not self.reference_state
                    and ref.readout_f(dists, t) >= 1.0 > ref.readout_f(dists, t - READOUT_RESOLUTION)
                )
            passes.append(bool(ok))
        return passes

class ThermalShots:
    """One random state at three points of the thermal grid, one drawn from each
    third, in shot mode with the sweep defaults (1e5 shots, 30 repeats, 99%
    bootstrap, deterministic T1/T2), then the CSV write.

    Shot sampling costs more for spread-out distributions than for peaked
    ones, so every round takes one point from each third of the grid to
    keep the mix of T1 the same from round to round.
    """

    name = "thermal-shots"
    records_per_round = 3
    trace_rounds = 2

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.grid = sweep.default_grid("thermal")
        self.csv_path = out_dir / f"{self.name}.csv"
        self.covered = 0
        self.checked = 0
        self.zero_width = 0

    def inputs(self, i: int) -> sweep.SweepConfig:
        rng = _rng(self.seed, i, 3)
        prep = ref.draw_preparation(rng, STATE_FLOOR)
        third = len(self.grid) // 3
        grid = tuple(self.grid[k * third + int(rng.integers(third))] for k in range(3))
        return sweep.SweepConfig(
            grid=grid,
            state_source=sweep.StateSource.explicit([prep]),
            mode="shots",
            seed=int(rng.integers(2**31)),
        )

    def run(self, config: sweep.SweepConfig):
        records = sweep.run_sweep(config)
        csvio.write_records_csv(self.csv_path, records)
        return records

    def kappa_bound(self, p00: dict, config: sweep.SweepConfig) -> float:
        """Bernstein bound on |mean kappa - exact kappa| that a correct sampler
        exceeds with probability at most SHOT_TAIL.

        The mean kappa is a sum of repeats * 7 * shots independent terms
        w_c X / (repeats * shots) with X in {0, 1}, each within
        max|w_c| / (repeats * shots) of its mean.
        """
        n = config.repeats * config.shots
        variance = sum(w * w * p00[c] * (1.0 - p00[c]) for c, w in ref.KAPPA_WEIGHTS.items()) / n
        spread = max(abs(w) for w in ref.KAPPA_WEIGHTS.values()) / n
        log_term = math.log(2.0 / SHOT_TAIL)
        linear = log_term * spread / 3.0
        return linear + math.sqrt(linear * linear + 2.0 * log_term * variance) + 1e-12

    def check(self, config: sweep.SweepConfig, records) -> list[bool]:
        prep = config.state_source.params[0]
        rows = csvio.read_records_csv(self.csv_path)
        passes = []
        for point, record, row in zip(config.grid, records, rows):
            want = {k: float(v) for k, v in ref.seven_p00(prep, t1_ns=point.t1_ns, t2_ns=point.t2_ns).items()}
            exact_kappa = float(ref.kappa_f(want)[0])
            if record.kappa_ci_hi > record.kappa_ci_lo:
                self.checked += 1
                self.covered += record.kappa_ci_lo <= exact_kappa <= record.kappa_ci_hi
            else:
                self.zero_width += 1
            ok = (
                record.point == point
                and record.shots == config.shots
                and record.repeats == config.repeats
                and not record.gamma_undefined
                and record.kappa_ci_lo <= record.kappa <= record.kappa_ci_hi
                and record.f_ci_lo <= record.f <= record.f_ci_hi
                and abs(record.kappa - exact_kappa) <= self.kappa_bound(want, config)
                and csv_matches(row, record)
            )
            passes.append(ok)
        return passes + [False] * (self.records_per_round - len(passes))

    def notes(self) -> dict:
        """Coverage of the exact kappa by the 99% intervals of non-zero width.

        At short T1 every shot reads 00, the interval shrinks to the point 0,
        and an exact kappa that is 0 only up to rounding falls outside it;
        those intervals are counted apart.
        """
        share = self.covered / self.checked if self.checked else float("nan")
        return {"kappa_ci99_coverage": share, "intervals": self.checked, "zero_width_intervals": self.zero_width}


WORKLOADS = {w.name: w for w in (DepolarizingExact, ReadoutThreshold, ThermalShots)}
