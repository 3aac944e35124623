"""Command-line front end: sweeps, identity checks, validation and plots.

Configuration comes from an optional JSON document plus flags; a flag
always overrides the matching config key.  Exit codes: 0 on success,
2 for configuration or usage errors, 1 for runtime failures (including
failed validation checks).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from . import csvio
from .circuits import (
    GateDurations,
    PreparationParams,
    ProjectionParams,
    analytic_amplitudes,
    build_preparation,
    joint_plan,
    projection_state,
    random_preparation,
    reference_preparation,
)
from .metrics import kappa_n
from .noise import (
    DepolarizingError,
    NoiseModel,
    ReadoutError,
    depolarize,
    evolve_density,
    simulate_noisy,
    thermal_relax,
)
from .plotting import render_scatter
from .qcore import dm_from_statevector, random_density_matrix
from .sweep import (
    NOISE_AXES,
    NoisePoint,
    StateSource,
    SweepConfig,
    default_grid,
    noise_model_for_point,
    run_joint_test,
    run_sweep,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

SEED_ENV_VAR = "QBENCH_SEED"

DEFAULT_OUT = "sweep.csv"


class ConfigError(ValueError):
    """Bad configuration document or flag combination."""


def _load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(document, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return document


def _integer(value: Any, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}={value!r} is not an integer")
    return value


def _resolve_seed(flag_seed: int | None, config: Mapping[str, Any]) -> int:
    if flag_seed is not None:
        return flag_seed
    if "seed" in config:
        return _integer(config["seed"], "seed")
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR}={env!r} is not an integer") from None
    return 0


def _durations_from_config(section: Mapping[str, Any]) -> GateDurations:
    known = {"single_u_ns", "cnot_ns", "reset_ns", "measure_ns"}
    unknown = set(section) - known
    if unknown:
        raise ConfigError(f"unknown durations keys: {sorted(unknown)}")
    return GateDurations(**{key: float(value) for key, value in section.items()})


def _grid_from_config(noise_axis: str, values: list, t2_ratio: float) -> tuple[NoisePoint, ...]:
    points = []
    for entry in values:
        if noise_axis == "readout":
            points.append(NoisePoint("readout", p_readout=float(entry)))
        elif noise_axis == "depolarizing":
            p = float(entry)
            points.append(NoisePoint("depolarizing", p_depol1=p, p_depol2=p))
        elif noise_axis == "thermal":
            if isinstance(entry, (list, tuple)):
                if len(entry) != 2:
                    raise ConfigError(f"thermal grid entry {entry} must be t1 or [t1, t2]")
                t1, t2 = float(entry[0]), float(entry[1])
            else:
                t1 = float(entry)
                t2 = t2_ratio * t1
            points.append(NoisePoint("thermal", t1_ns=t1, t2_ns=t2))
        elif noise_axis == "readout_depolarizing":
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ConfigError(f"combined grid entry {entry} must be [p_readout, p_depol]")
            pd = float(entry[1])
            points.append(
                NoisePoint("readout_depolarizing", p_readout=float(entry[0]), p_depol1=pd, p_depol2=pd)
            )
    if not points:
        raise ConfigError("config grid is empty")
    return tuple(points)


def _state_source(kind: str, n_states: int, state_seed: int, config: Mapping[str, Any]) -> StateSource:
    if kind == "specific":
        return StateSource.specific()
    if kind == "random":
        return StateSource.random(n_states, state_seed)
    if kind == "explicit":
        raw = config.get("states")
        if not raw:
            raise ConfigError("state=explicit needs a 'states' list in the config")
        params = []
        for entry in raw:
            if not isinstance(entry, (list, tuple)) or len(entry) != 4:
                raise ConfigError(f"states entry {entry} must be [theta1, theta2, phi1, phi2]")
            params.append(PreparationParams(*(float(v) for v in entry)))
        return StateSource.explicit(params)
    raise ConfigError(f"unknown state source {kind!r}")


def _build_sweep(args: argparse.Namespace) -> tuple[SweepConfig, Path]:
    config = _load_config(args.config) if args.config else {}
    known = {
        "noise", "steps", "grid", "state", "n_states", "state_seed", "states",
        "mode", "shots", "repeats", "ci_level", "seed", "t2_ratio", "thermal",
        "durations", "out",
    }
    unknown = set(config) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        return config.get(key, default)

    noise_axis = pick(args.noise, "noise", "readout")
    if noise_axis not in NOISE_AXES:
        raise ConfigError(f"noise axis {noise_axis!r} not one of {list(NOISE_AXES)}")
    # every value below comes from the command line or the config document,
    # so anything the constructors reject is a configuration error
    try:
        steps = _integer(pick(args.steps, "steps", 21), "steps")
        mode = pick(args.mode, "mode", "exact")
        shots = _integer(pick(args.shots, "shots", 100_000), "shots")
        repeats = _integer(pick(args.repeats, "repeats", 30), "repeats")
        ci_level = float(pick(args.ci_level, "ci_level", 0.99))
        t2_ratio = float(pick(args.t2_ratio, "t2_ratio", 2.0))
        seed = _resolve_seed(args.seed, config)

        thermal_section = config.get("thermal", {})
        unknown_thermal = set(thermal_section) - {"sigma_fraction", "deterministic"}
        if unknown_thermal:
            raise ConfigError(f"unknown thermal keys: {sorted(unknown_thermal)}")

        durations = _durations_from_config(config.get("durations", {}))

        kind = pick(args.state, "state", "specific")
        n_states = _integer(pick(args.n_states, "n_states", 20), "n_states")
        state_seed = _integer(config.get("state_seed", seed), "state_seed")
        source = _state_source(kind, n_states, state_seed, config)

        if "grid" in config:
            grid = _grid_from_config(noise_axis, config["grid"], t2_ratio)
        else:
            grid = default_grid(noise_axis, steps, t2_ratio)

        sweep_config = SweepConfig(
            grid=grid,
            state_source=source,
            mode=mode,
            shots=shots,
            repeats=repeats,
            ci_level=ci_level,
            seed=seed,
            sigma_fraction=float(thermal_section.get("sigma_fraction", 0.1)),
            deterministic_thermal=thermal_section.get("deterministic", True),
            durations=durations,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None

    return sweep_config, Path(pick(args.out, "out", DEFAULT_OUT))


def _check_out_path(out: Path) -> None:
    """Reject an output path the CSV writer could not create, before any work."""
    parent = out.parent
    if out.is_dir():
        raise ConfigError(f"output path {out} is a directory")
    if not parent.is_dir():
        raise ConfigError(f"output path {out}: directory {parent} does not exist")
    if not os.access(parent, os.W_OK | os.X_OK):
        raise ConfigError(f"output path {out}: directory {parent} is not writable")


def cmd_sweep(args: argparse.Namespace) -> int:
    sweep_config, out = _build_sweep(args)
    _check_out_path(out)
    start = time.monotonic()
    records = run_sweep(sweep_config)
    csvio.write_records_csv(out, records)
    elapsed = time.monotonic() - start
    n_undefined = sum(1 for r in records if r.gamma_undefined)
    print(f"wrote {out}: {len(records)} records, {n_undefined} gamma-undefined, {elapsed:.2f} s")
    return EXIT_OK


def _parse_amplitude(token: str) -> complex:
    parts = token.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ConfigError(f"amplitude {token!r} is not 're' or 're,im'")


def cmd_kappa_n(args: argparse.Namespace) -> int:
    tokens = list(args.amplitudes)
    if args.file:
        try:
            text = Path(args.file).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read {args.file}: {exc}") from None
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.append(line)
    if not tokens:
        raise ConfigError("no amplitudes given; pass 're,im' tokens or --file")
    x = [_parse_amplitude(t) for t in tokens]
    n = len(x)

    programming = kappa_n(x)
    # Independent route: accumulate the identity's two sides term by term.
    lhs = abs(sum(x)) ** 2
    pair_sum = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            pair_sum += abs(x[i] + x[j]) ** 2
    single_sum = sum(abs(v) ** 2 for v in x)
    rhs = pair_sum - (n - 2) * single_sum

    print(f"n = {n}")
    print(f"kappa_n programming form: {programming:.12g}")
    print(f"identity LHS - RHS:       {lhs - rhs:.12g}")
    return EXIT_OK


X_COLUMN_CANDIDATES = ("p_readout", "p_depol1", "t1_ns")


def cmd_plot(args: argparse.Namespace) -> int:
    rows = csvio.read_records_csv(args.csv)
    y_column = args.y
    if y_column not in ("kappa", "f"):
        raise ConfigError(f"--y must be 'kappa' or 'f', got {y_column!r}")
    x_column = args.x
    if x_column is None:
        x_column = next(
            (c for c in X_COLUMN_CANDIDATES if any(r[c] is not None for r in rows)), None
        )
        if x_column is None:
            x_column = X_COLUMN_CANDIDATES[0]
    elif x_column not in csvio.COLUMNS:
        raise ConfigError(f"unknown x column {x_column!r}")
    series: dict[int, list[tuple[float, float]]] = {}
    for row in rows:
        x_val, y_val = row[x_column], row[y_column]
        if x_val is None or y_val is None:
            continue
        series.setdefault(int(row["state_id"]), []).append((float(x_val), float(y_val)))
    svg = render_scatter(series, x_column, y_column)
    out = Path(args.out if args.out else "plot.svg")
    csvio.write_text_atomic(out, svg)
    n_points = sum(len(pts) for pts in series.values())
    print(f"wrote {out}: {len(series)} series, {n_points} points")
    return EXIT_OK


def _check_kappa_identity(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        scale = float((np.abs(x) ** 2).sum())
        worst = max(worst, abs(kappa_n(x)) / max(scale, 1e-30))
    return worst < 1e-10, f"max relative |kappa_n| = {worst:.3e} over 200 vectors"


def _check_channel_invariants(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(300):
        n_qubits = int(rng.integers(1, 3))
        rho = random_density_matrix(rng, n_qubits)
        which = int(rng.integers(0, 2))
        if which == 0:
            qubits = [int(q) for q in range(n_qubits) if rng.random() < 0.5] or [0]
            out = depolarize(rho, float(rng.random()), qubits)
        else:
            t1 = float(rng.uniform(10.0, 1e5))
            t2 = float(rng.uniform(0.1, 2.0)) * t1
            out = thermal_relax(rho, int(rng.integers(0, n_qubits)), float(rng.uniform(0.0, 5e3)), t1, t2)
        worst = max(
            worst,
            abs(float(np.trace(out).real) - 1.0),
            float(np.max(np.abs(out - out.conj().T))),
            max(0.0, -float(np.linalg.eigvalsh(out)[0])),
        )
    return worst < 1e-10, f"max trace/herm/eig defect = {worst:.3e} over 300 channels"


def _check_preparation_oracle(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(40):
        params = random_preparation(rng)
        rho = evolve_density(build_preparation(params), NoiseModel.ideal())
        expected = dm_from_statevector(analytic_amplitudes(params))
        worst = max(worst, float(np.max(np.abs(rho - expected))))
    return worst < 1e-10, f"max |simulated - analytic| = {worst:.3e} over 40 preparations"


def _check_projection_overlap(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(40):
        prep = random_preparation(rng)
        proj = ProjectionParams(
            math.acos(1.0 - 2.0 * rng.random()), math.acos(1.0 - 2.0 * rng.random())
        )
        probs = simulate_noisy(joint_plan(prep, proj), NoiseModel.ideal())
        overlap = abs(np.vdot(projection_state(proj), analytic_amplitudes(prep))) ** 2
        worst = max(worst, abs(float(probs[0]) - float(overlap)))
    return worst < 1e-10, f"max |P(00) - overlap| = {worst:.3e} over 40 projections"


def _check_fixed_points(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    prep = reference_preparation()
    ideal = run_joint_test(prep, NoiseModel.ideal())
    worst = max(worst, abs(ideal.kappa), abs((ideal.f or 0.0) - 1.0))
    uniform = run_joint_test(prep, NoiseModel(readout=ReadoutError.symmetric(0.5, 2)))
    worst = max(worst, abs(uniform.kappa), abs(uniform.f or 0.0))
    depol = run_joint_test(prep, NoiseModel(depolarizing=DepolarizingError(p1=1.0, p2=1.0)))
    worst = max(worst, abs(depol.kappa), abs(depol.f or 0.0))
    for _ in range(5):
        params = random_preparation(rng)
        clean = run_joint_test(params, NoiseModel.ideal())
        mixed = run_joint_test(params, NoiseModel(readout=ReadoutError.symmetric(0.5, 2)))
        worst = max(worst, abs(clean.kappa), abs(mixed.kappa))
    return worst < 1e-8, f"max fixed-point defect = {worst:.3e}"


def _check_config(path: str) -> tuple[bool, str]:
    try:
        sweep_config, _ = _build_sweep(build_parser().parse_args(["sweep", f"--config={path}"]))
        for point in sweep_config.grid:
            noise_model_for_point(point, sweep_config)
    except (ConfigError, ValueError) as exc:
        return False, str(exc)
    return True, f"{path}: {len(sweep_config.grid)} grid points instantiate cleanly"


def cmd_validate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed, {})
    checks: list[tuple[str, Callable[[np.random.Generator], tuple[bool, str]]]] = [
        ("kappa_identity", _check_kappa_identity),
        ("channel_invariants", _check_channel_invariants),
        ("preparation_oracle", _check_preparation_oracle),
        ("projection_overlap", _check_projection_overlap),
        ("fixed_points", _check_fixed_points),
    ]
    failures = 0
    for index, (name, check) in enumerate(checks):
        ok, detail = check(np.random.default_rng([seed, index]))
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    if args.config:
        ok, detail = _check_config(args.config)
        print(f"{'PASS' if ok else 'FAIL'} config: {detail}")
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help=f"root seed (falls back to ${SEED_ENV_VAR}, then 0)")
    common.add_argument("--out", default=None, help="output path")
    common.add_argument("--config", default=None, help="JSON configuration document")

    parser = argparse.ArgumentParser(prog="qbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", parents=[common], help="run a noise-parameter sweep to CSV")
    sweep.add_argument("--noise", choices=NOISE_AXES, default=None, help="noise axis to sweep")
    sweep.add_argument("--steps", type=int, default=None, help="grid points per axis (default 21)")
    sweep.add_argument("--state", choices=("specific", "random", "explicit"), default=None)
    sweep.add_argument("--n-states", dest="n_states", type=int, default=None, help="random-ensemble size (default 20)")
    sweep.add_argument("--mode", choices=("exact", "shots"), default=None)
    sweep.add_argument("--shots", type=int, default=None, help="shots per circuit in shot mode (default 100000)")
    sweep.add_argument("--repeats", type=int, default=None, help="pipeline repeats in shot mode (default 30)")
    sweep.add_argument("--ci-level", dest="ci_level", type=float, default=None, help="bootstrap CI level (default 0.99)")
    sweep.add_argument("--t2-ratio", dest="t2_ratio", type=float, default=None, help="T2/T1 on the thermal axis (default 2.0)")
    sweep.set_defaults(func=cmd_sweep)

    kn = sub.add_parser("kappa-n", parents=[common], help="evaluate the n-path interference identity")
    kn.add_argument("amplitudes", nargs="*", help="complex amplitudes as 're' or 're,im'")
    kn.add_argument("--file", default=None, help="read amplitudes from a file, one per line")
    kn.set_defaults(func=cmd_kappa_n)

    validate = sub.add_parser("validate", parents=[common], help="run the fast invariant suite")
    validate.set_defaults(func=cmd_validate)

    plot = sub.add_parser("plot", parents=[common], help="render a sweep CSV as an SVG scatter")
    plot.add_argument("csv", help="sweep CSV produced by the sweep command")
    plot.add_argument("--x", default=None, help="x column (default: first populated noise column)")
    plot.add_argument("--y", default="kappa", help="metric column: kappa or f")
    plot.set_defaults(func=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
