"""Joint-test execution and noise-parameter sweeps.

One joint test runs the seven projection circuits of a prepared state
under a noise model and reduces the seven P(00) values to kappa, the
pairwise gammas and F.  A sweep repeats that over a state ensemble and
a grid of noise strengths, in exact mode (one deterministic evaluation
per point) or shot mode (sampled counts, repeated, summarized with
percentile-bootstrap intervals).

A joint test is two steps: joint_distributions computes the seven exact
outcome distributions and joint_result reduces seven P(00) values to the
metrics.  Callers compute the distributions once and reuse them: a
shot-mode record for all its repeats (unless T1/T2 are sampled, when each
repeat evolves its own draw), readout_threshold for every F evaluation.

Every (state, grid point) task derives its own SeedSequence substream
from (seed, state_id, point_index), so each output row can be replayed
on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .circuits import (
    DEFAULT_DURATIONS,
    GateDurations,
    PreparationParams,
    PROJECTION_ORDER,
    joint_plan,
    projection_settings,
    random_preparation,
    reference_preparation,
)
from .metrics import (
    PAIR_FIELDS,
    GammaSet,
    GammaUndefined,
    PeresResult,
    ProjectionProbabilities,
    SorkinResult,
    gamma,
    peres_f,
    sorkin_kappa,
)
from .noise import (
    DepolarizingError,
    NoiseModel,
    ReadoutError,
    ThermalRelaxation,
    apply_readout,
    simulate_noisy,
)
from .stats import BootstrapCI, bootstrap_ci, estimate_probs, sample_counts

NOISE_AXES = ("readout", "depolarizing", "thermal", "readout_depolarizing")
MODES = ("exact", "shots")

THERMAL_GRID_LO_NS = 10.0
THERMAL_GRID_HI_NS = 1e5


@dataclass(frozen=True)
class StateSource:
    """Where the swept preparations come from.

    kind "specific" is the bundled reference state, "random" draws
    n_states preparations from its own seeded generator, "explicit"
    carries a caller-supplied parameter list.
    """

    kind: str
    n_states: int = 20
    seed: int = 0
    params: tuple[PreparationParams, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("specific", "random", "explicit"):
            raise ValueError(f"unknown state source kind {self.kind!r}")
        if self.kind == "random" and self.n_states < 1:
            raise ValueError(f"n_states={self.n_states} must be positive")
        if self.kind == "explicit" and not self.params:
            raise ValueError("explicit state source needs at least one parameter set")
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be non-negative")

    @classmethod
    def specific(cls) -> "StateSource":
        return cls(kind="specific")

    @classmethod
    def random(cls, n_states: int, seed: int) -> "StateSource":
        return cls(kind="random", n_states=n_states, seed=seed)

    @classmethod
    def explicit(cls, params: Iterable[PreparationParams]) -> "StateSource":
        return cls(kind="explicit", params=tuple(params))

    def preparations(self) -> list[PreparationParams]:
        if self.kind == "specific":
            return [reference_preparation()]
        if self.kind == "explicit":
            return [p.canonical() for p in self.params]
        rng = np.random.default_rng(self.seed)
        return [random_preparation(rng) for _ in range(self.n_states)]


@dataclass(frozen=True)
class NoisePoint:
    """One grid point; only the fields of its noise_type are set."""

    noise_type: str
    p_readout: float | None = None
    p_depol1: float | None = None
    p_depol2: float | None = None
    t1_ns: float | None = None
    t2_ns: float | None = None

    def __post_init__(self) -> None:
        if self.noise_type not in NOISE_AXES:
            raise ValueError(f"unknown noise axis {self.noise_type!r}")


def default_grid(noise_axis: str, steps: int = 21, t2_ratio: float = 2.0) -> tuple[NoisePoint, ...]:
    """Evenly spaced grid for one axis: p in [0, 1] for readout and
    depolarizing, T1 log-spaced over [10 ns, 1e5 ns] for thermal, and the
    full steps x steps product for the combined readout/depolarizing axis."""
    if steps < 2:
        raise ValueError(f"steps={steps} must be at least 2")
    if noise_axis == "readout":
        return tuple(NoisePoint("readout", p_readout=p) for p in np.linspace(0.0, 1.0, steps))
    if noise_axis == "depolarizing":
        return tuple(
            NoisePoint("depolarizing", p_depol1=p, p_depol2=p) for p in np.linspace(0.0, 1.0, steps)
        )
    if noise_axis == "thermal":
        if not (0.0 < t2_ratio <= 2.0):
            raise ValueError(f"t2_ratio={t2_ratio} must lie in (0, 2]")
        t1s = np.logspace(math.log10(THERMAL_GRID_LO_NS), math.log10(THERMAL_GRID_HI_NS), steps)
        return tuple(NoisePoint("thermal", t1_ns=float(t), t2_ns=float(t2_ratio * t)) for t in t1s)
    if noise_axis == "readout_depolarizing":
        ps = np.linspace(0.0, 1.0, steps)
        return tuple(
            NoisePoint("readout_depolarizing", p_readout=float(pr), p_depol1=float(pd), p_depol2=float(pd))
            for pr in ps
            for pd in ps
        )
    raise ValueError(f"unknown noise axis {noise_axis!r}")


@dataclass(frozen=True)
class SweepConfig:
    grid: tuple[NoisePoint, ...]
    state_source: StateSource
    mode: str = "exact"
    shots: int = 100_000
    repeats: int = 30
    ci_level: float = 0.99
    seed: int = 0
    sigma_fraction: float = 0.1
    deterministic_thermal: bool = True
    durations: GateDurations = field(default_factory=GateDurations)

    def __post_init__(self) -> None:
        if not self.grid:
            raise ValueError("sweep grid is empty")
        axes = {point.noise_type for point in self.grid}
        if len(axes) != 1:
            raise ValueError(f"sweep grid mixes noise axes {sorted(axes)}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "shots":
            if self.shots < 1:
                raise ValueError(f"shots={self.shots} must be positive")
            if self.repeats < 2:
                raise ValueError(f"repeats={self.repeats} must be at least 2")
        if not (0.0 < self.ci_level < 1.0):
            raise ValueError(f"ci_level={self.ci_level} outside (0, 1)")
        if not isinstance(self.deterministic_thermal, bool):
            raise ValueError(f"deterministic_thermal={self.deterministic_thermal!r} is not a boolean")
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be non-negative")

    @property
    def noise_axis(self) -> str:
        return self.grid[0].noise_type


def noise_model_for_point(point: NoisePoint, config: SweepConfig) -> NoiseModel:
    """Instantiate the noise model of one grid point."""
    readout = None
    depolarizing = None
    thermal = None
    if point.p_readout is not None:
        readout = ReadoutError.symmetric(point.p_readout, 2)
    if point.p_depol1 is not None or point.p_depol2 is not None:
        depolarizing = DepolarizingError(p1=point.p_depol1 or 0.0, p2=point.p_depol2 or 0.0)
    if point.t1_ns is not None:
        t2 = point.t2_ns if point.t2_ns is not None else 2.0 * point.t1_ns
        thermal = ThermalRelaxation(
            t1_mean_ns=point.t1_ns,
            t2_mean_ns=t2,
            sigma_fraction=config.sigma_fraction,
            deterministic=config.deterministic_thermal,
        )
    return NoiseModel(readout=readout, depolarizing=depolarizing, thermal=thermal)


@dataclass(frozen=True)
class JointTestResult:
    """Metrics of one joint-test evaluation.

    peres is None (and f/gammas carry None) when any pair's gamma is
    undefined; kappa is always available.
    """

    probabilities: ProjectionProbabilities
    sorkin: SorkinResult
    peres: PeresResult | None
    g01: float | None
    g12: float | None
    g20: float | None

    @property
    def kappa(self) -> float:
        return self.sorkin.kappa

    @property
    def f(self) -> float | None:
        return None if self.peres is None else self.peres.f

    @property
    def gamma_undefined(self) -> bool:
        return self.peres is None


def joint_distributions(
    prep: PreparationParams,
    model: NoiseModel,
    rng: np.random.Generator | None = None,
    durations: GateDurations = DEFAULT_DURATIONS,
) -> np.ndarray:
    """Exact outcome distributions of the seven projection circuits.

    Row k is the distribution of circuit PROJECTION_ORDER[k], readout
    confusion included.  The circuits run in that order, so a model with
    sampled T1/T2 draws its relaxation times from rng reproducibly; any
    other model draws nothing from rng.
    """
    settings = projection_settings()
    return np.array(
        [
            simulate_noisy(joint_plan(prep, settings[label], durations), model, rng)
            for label in PROJECTION_ORDER
        ]
    )


def joint_result(p00: Sequence[float]) -> JointTestResult:
    """Reduce seven P(00) values, in PROJECTION_ORDER, to kappa, the gammas and F."""
    if len(p00) != len(PROJECTION_ORDER):
        raise ValueError(f"expected {len(PROJECTION_ORDER)} P(00) values, got {len(p00)}")
    pp = ProjectionProbabilities(
        **{label.value.lower(): float(p) for label, p in zip(PROJECTION_ORDER, p00)}
    )
    gammas: dict[str, float | None] = {}
    for name, pair, lo, hi in PAIR_FIELDS:
        try:
            gammas[name] = gamma(getattr(pp, pair), getattr(pp, lo), getattr(pp, hi))
        except GammaUndefined:
            gammas[name] = None
    peres = None
    if all(v is not None for v in gammas.values()):
        peres = peres_f(GammaSet(gammas["g01"], gammas["g12"], gammas["g20"]))
    return JointTestResult(
        probabilities=pp,
        sorkin=sorkin_kappa(pp),
        peres=peres,
        g01=gammas["g01"],
        g12=gammas["g12"],
        g20=gammas["g20"],
    )


def _sampled_p00(distributions: np.ndarray, shots: int, rng: np.random.Generator) -> list[float]:
    """Estimated P(00) of each circuit from one count draw per distribution."""
    return [float(estimate_probs(sample_counts(probs, shots, rng))[0]) for probs in distributions]


def run_joint_test(
    prep: PreparationParams,
    model: NoiseModel,
    mode: str = "exact",
    shots: int = 0,
    rng: np.random.Generator | None = None,
    durations: GateDurations = DEFAULT_DURATIONS,
) -> JointTestResult:
    """Evaluate the seven projection circuits of one state under one model.

    Exact mode uses the simulator's outcome distributions directly; shot
    mode then draws `shots` counts per circuit from them, in label order,
    and uses the estimated P(00).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "shots":
        if shots < 1:
            raise ValueError(f"shots={shots} must be positive in shot mode")
        if rng is None:
            raise ValueError("shot mode requires an rng")
    distributions = joint_distributions(prep, model, rng, durations)
    if mode == "shots":
        return joint_result(_sampled_p00(distributions, shots, rng))
    return joint_result(distributions[:, 0])


@dataclass(frozen=True)
class SweepRecord:
    """One output row: a state, a grid point and the resulting metrics."""

    state_id: int
    params: PreparationParams
    point: NoisePoint
    mode: str
    shots: int | None
    repeats: int | None
    kappa: float
    kappa_ci_lo: float | None
    kappa_ci_hi: float | None
    f: float | None
    f_ci_lo: float | None
    f_ci_hi: float | None
    g01: float | None
    g12: float | None
    g20: float | None
    gamma_undefined: bool
    seed: int


def _record_seed(seed_seq: np.random.SeedSequence) -> int:
    return int(seed_seq.generate_state(1, dtype=np.uint32)[0])


def _run_task(
    config: SweepConfig,
    state_id: int,
    prep: PreparationParams,
    point_index: int,
    point: NoisePoint,
) -> SweepRecord:
    model = noise_model_for_point(point, config)
    base = np.random.SeedSequence([config.seed, state_id, point_index])
    rec_seed = _record_seed(base)

    if config.mode == "exact":
        streams = base.spawn(1)
        distributions = joint_distributions(
            prep, model, np.random.default_rng(streams[0]), config.durations
        )
        result = joint_result(distributions[:, 0])
        return SweepRecord(
            state_id=state_id,
            params=prep,
            point=point,
            mode="exact",
            shots=None,
            repeats=None,
            kappa=result.kappa,
            kappa_ci_lo=None,
            kappa_ci_hi=None,
            f=result.f,
            f_ci_lo=None,
            f_ci_hi=None,
            g01=result.g01,
            g12=result.g12,
            g20=result.g20,
            gamma_undefined=result.gamma_undefined,
            seed=rec_seed,
        )

    streams = base.spawn(config.repeats + 2)
    kappas: list[float] = []
    fs: list[float] = []
    g_lists: dict[str, list[float]] = {"g01": [], "g12": [], "g20": []}
    undefined = False
    # unless T1/T2 are sampled the distributions are the same in every repeat,
    # and computing them draws nothing, so each repeat's counts still come
    # from the start of its own stream
    shared = None if model.needs_rng() else joint_distributions(prep, model, None, config.durations)
    for r in range(config.repeats):
        rng = np.random.default_rng(streams[r])
        distributions = (
            shared if shared is not None else joint_distributions(prep, model, rng, config.durations)
        )
        result = joint_result(_sampled_p00(distributions, config.shots, rng))
        kappas.append(result.kappa)
        if result.gamma_undefined:
            undefined = True
        else:
            fs.append(result.f)
            for name in g_lists:
                g_lists[name].append(getattr(result, name))
    kappa_ci = bootstrap_ci(
        np.array(kappas), config.ci_level, rng=np.random.default_rng(streams[config.repeats])
    )
    f_ci: BootstrapCI | None = None
    if not undefined:
        f_ci = bootstrap_ci(
            np.array(fs), config.ci_level, rng=np.random.default_rng(streams[config.repeats + 1])
        )
    def mean_of(name: str) -> float | None:
        return None if undefined else float(np.mean(g_lists[name]))

    return SweepRecord(
        state_id=state_id,
        params=prep,
        point=point,
        mode="shots",
        shots=config.shots,
        repeats=config.repeats,
        kappa=kappa_ci.mean,
        kappa_ci_lo=kappa_ci.lo,
        kappa_ci_hi=kappa_ci.hi,
        f=f_ci.mean if f_ci is not None else None,
        f_ci_lo=f_ci.lo if f_ci is not None else None,
        f_ci_hi=f_ci.hi if f_ci is not None else None,
        g01=mean_of("g01"),
        g12=mean_of("g12"),
        g20=mean_of("g20"),
        gamma_undefined=undefined,
        seed=rec_seed,
    )


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Run the full ensemble x grid sweep, ordered by (state_id, grid index).

    Every record owns a substream derived from (seed, state_id,
    point_index), so it does not depend on the records computed before it.
    """
    return [
        _run_task(config, state_id, prep, point_index, point)
        for state_id, prep in enumerate(config.state_source.preparations())
        for point_index, point in enumerate(config.grid)
    ]


def f_crossing_threshold(
    evaluate_f: Callable[[float], float],
    resolution: float = 1e-3,
    lo: float = 0.5,
    hi: float = 1.0,
    coarse_steps: int = 50,
) -> float | None:
    """Smallest parameter in (lo, hi) where F crosses from below 1 to >= 1.

    A coarse scan of coarse_steps + 1 points, evenly spaced from
    lo + resolution to hi - resolution with the last one moved to
    hi - resolution/4, brackets the first upward crossing; bisection
    narrows it below resolution/4, and the returned point p satisfies
    F(p) >= 1 with F(p - resolution) < 1.

    Returns None exactly when no two neighbouring scan points x < x' have
    F(x) < 1 <= F(x').  That is the case when F is below 1 at every scan
    point (so a first crossing above hi - resolution/4 is not reported,
    nor an excursion to >= 1 that starts and ends between two scan
    points), and when F is >= 1 from lo + resolution on and, once below
    1, stays below 1 at the later scan points.
    """
    if not (0.0 < resolution < hi - lo):
        raise ValueError(f"resolution={resolution} must lie in (0, {hi - lo})")
    # both endpoints are excluded: at hi=1.0 the single-level marginals vanish
    # identically (the fourth level is never populated), so gamma is undefined
    # there for every state and the crossing must be bracketed strictly inside
    xs = np.linspace(lo + resolution, hi - resolution, coarse_steps + 1)
    xs[-1] = hi - resolution / 4.0
    values = [evaluate_f(float(x)) for x in xs]
    bracket = None
    for i in range(1, len(xs)):
        if values[i - 1] < 1.0 <= values[i]:
            bracket = (float(xs[i - 1]), float(xs[i]))
            break
    if bracket is None:
        return None
    b_lo, b_hi = bracket
    while b_hi - b_lo > resolution / 4.0:
        mid = 0.5 * (b_lo + b_hi)
        if evaluate_f(mid) >= 1.0:
            b_hi = mid
        else:
            b_lo = mid
    return b_hi


def readout_threshold(
    prep: PreparationParams,
    resolution: float = 1e-3,
    durations: GateDurations = DEFAULT_DURATIONS,
) -> float | None:
    """First symmetric-readout strength in (0.5, 1] where F reaches 1.

    Exact-mode scan.  Readout confusion acts after the circuit, so the
    seven ideal distributions are computed once and every F evaluation
    only mixes them through that point's readout.  Any GammaUndefined
    inside the scan aborts with a diagnostic since the crossing would be
    meaningless there.
    """
    ideal = joint_distributions(prep, NoiseModel.ideal(), None, durations)

    def evaluate(p: float) -> float:
        readout = ReadoutError.symmetric(p, 2)
        result = joint_result([apply_readout(probs, readout)[0] for probs in ideal])
        if result.peres is None:
            raise GammaUndefined(f"gamma undefined at readout p={p}; threshold scan aborted")
        return result.peres.f

    return f_crossing_threshold(evaluate, resolution)
