"""Monte Carlo and multilevel Monte Carlo point estimators.

Three sample-allocation strategies are implemented:

* plain Monte Carlo at one stopping width, with the sample count chosen to
  equilibrate statistical and discretization error (``mc_estimate``);
* multilevel with sample counts from modeled variance/work decay rates
  (``model_allocation`` feeding ``mlmc_estimate``);
* multilevel with sample counts from warm-up measurements of variance and
  work per level (``adaptive_mlmc``).

Work is counted in walk steps. All estimators are deterministic functions
of (problem, parameters, seed) regardless of thread count.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import walk
from .geometry import Problem

__all__ = [
    "Ladder",
    "LevelPlan",
    "LevelStats",
    "AllocationModel",
    "EstimateReport",
    "build_ladder",
    "default_ladder",
    "auto_sample_count",
    "allocation_targets",
    "optimal_allocation",
    "model_allocation",
    "mc_estimate",
    "mlmc_estimate",
    "adaptive_mlmc",
    "DEFAULT_WARMUP",
]

DEFAULT_WARMUP = 100
_PILOT_SAMPLES = 100

# Estimator-internal substream tags, packed into the low context bits so a
# caller-supplied context base never collides between main and pilot draws.
_SUB_MAIN = 0
_SUB_PILOT = 1


def _context_word(context_base: int, sub: int) -> int:
    if not 0 <= context_base < 2 ** 28:
        raise ValueError("context must fit in 28 bits")
    return (context_base << 4) | sub


def resolve_threads(threads: Optional[int]) -> int:
    """Explicit value, else MLWOS_THREADS, else the machine core count.

    Raises ValueError for a count below 1 and for an MLWOS_THREADS that is
    not an integer.
    """
    if threads is not None:
        if threads < 1:
            raise ValueError("threads must be at least 1")
        return int(threads)
    env = os.environ.get("MLWOS_THREADS")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"MLWOS_THREADS must be an integer, got {env!r}") from None
        if value < 1:
            raise ValueError(f"MLWOS_THREADS must be at least 1, got {value}")
        return value
    return os.cpu_count() or 1


@dataclass(frozen=True)
class Ladder:
    """Geometric sequence of stopping widths eps_l = eps0 / eta^l, l=0..levels.

    ``eps[levels]`` is anchored to the user's target exactly; coarser widths
    are built upward by multiplication. Equal consecutive widths are allowed
    only for hand-built degenerate ladders used in tests.
    """

    eps0: float
    eta: float
    levels: int
    eps: tuple

    def __post_init__(self):
        if self.eta <= 1.0:
            raise ValueError("eta must exceed 1")
        if self.levels != len(self.eps) - 1:
            raise ValueError("levels inconsistent with width list")
        if any(e <= 0.0 for e in self.eps):
            raise ValueError("widths must be positive")
        if any(b > a for a, b in zip(self.eps, self.eps[1:])):
            raise ValueError("widths must be nonincreasing")


def build_ladder(eps_target: float, eta: float, eps0_hint: float) -> Ladder:
    """Ladder with the fewest levels such that refining ``eps0_hint`` by
    ``eta`` reaches ``eps_target``; the finest width equals the target
    exactly and the coarsest is derived from it."""
    if eta <= 1.0:
        raise ValueError("eta must exceed 1")
    if eps_target <= 0.0 or eps0_hint <= 0.0:
        raise ValueError("widths must be positive")
    if eps_target > eps0_hint:
        raise ValueError("eps_target must not exceed eps0_hint")
    levels = 0
    e = eps0_hint
    while e > eps_target:
        e /= eta
        levels += 1
        if levels > 200:
            raise ValueError("ladder would be unreasonably deep")
    eps = [eps_target]
    for _ in range(levels):
        eps.append(eps[-1] * eta)
    eps.reverse()
    return Ladder(eps0=eps[0], eta=eta, levels=levels, eps=tuple(eps))


def default_ladder(problem: Problem, eps_target: float, eta: float, safety: float = 0.9) -> Ladder:
    """Deepest ladder whose coarsest width stays below ``safety`` times the
    start point's boundary distance (walks must start outside the stopping
    shell on every level)."""
    d0 = problem.domain.distance_to_boundary(problem.start)
    if eps_target >= d0:
        raise ValueError("eps_target must be below the start's boundary distance")
    if eta <= 1.0:
        raise ValueError("eta must exceed 1")
    levels = 0
    while eps_target * eta ** (levels + 1) <= safety * d0:
        levels += 1
    eps = [eps_target]
    for _ in range(levels):
        eps.append(eps[-1] * eta)
    eps.reverse()
    return Ladder(eps0=eps[0], eta=eta, levels=levels, eps=tuple(eps))


@dataclass(frozen=True)
class LevelPlan:
    """A ladder plus the number of samples to draw on each level."""

    ladder: Ladder
    m: tuple

    def __post_init__(self):
        if len(self.m) != self.ladder.levels + 1:
            raise ValueError("need one sample count per level")
        if any(int(v) < 1 for v in self.m):
            raise ValueError("sample counts must be at least 1")


@dataclass
class LevelStats:
    """Running moments for one level: sample count, mean, sum of squared
    deviations, and mean steps per sample (the work proxy)."""

    level: int
    count: int
    mean: float
    m2: float
    mean_steps: float

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)


def _stats_from(level: int, values: np.ndarray, steps: np.ndarray) -> LevelStats:
    mean = float(np.mean(values))
    m2 = float(np.sum((values - mean) ** 2))
    return LevelStats(
        level=level,
        count=int(values.size),
        mean=mean,
        m2=m2,
        mean_steps=float(np.mean(steps)),
    )


def auto_sample_count(pilot_variance: float, eps: float) -> int:
    """Sample count that equilibrates statistical error with a discretization
    error taken to be ``eps`` itself: ceil(variance / eps^2), at least 2."""
    if pilot_variance < 0.0:
        raise ValueError("variance cannot be negative")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    return max(2, math.ceil(pilot_variance / (eps * eps)))


def allocation_targets(variances, works, eps_target: float) -> np.ndarray:
    """Real-valued optimal sample counts per level.

    M_l = eps^-2 * sqrt(V_l / w_l) * sum_k sqrt(V_k w_k), the work-minimizing
    allocation under the constraint sum_l V_l / M_l = eps^2.
    """
    v = np.asarray(variances, dtype=np.float64)
    w = np.asarray(works, dtype=np.float64)
    if v.shape != w.shape or v.ndim != 1 or v.size == 0:
        raise ValueError("variances and works must be equal-length vectors")
    if np.any(v < 0.0):
        raise ValueError("variances cannot be negative")
    if np.any(w <= 0.0):
        raise ValueError("works must be positive")
    if eps_target <= 0.0:
        raise ValueError("eps_target must be positive")
    total = np.sum(np.sqrt(v * w))
    return np.sqrt(v / w) * total / (eps_target * eps_target)


def optimal_allocation(variances, works, eps_target: float) -> list:
    """Integer sample counts from :func:`allocation_targets`, floored at 2
    so every level's variance stays estimable."""
    targets = allocation_targets(variances, works, eps_target)
    return [max(2, math.ceil(t)) for t in targets]


@dataclass(frozen=True)
class AllocationModel:
    """Modeled decay rates for variance and work across levels.

    ``s`` is the level-difference decay exponent (second-moment norm of the
    level difference scales like eps_l^s). Work per sample grows either like
    eps_l^-gamma (``power``) or like l^p (``polylog``); the power mode is
    only admissible when 2s > gamma, otherwise the level sum diverges.
    ``v0``/``w0`` anchor the model with pilot measurements at level 0.
    """

    s: float
    v0: float
    w0: float
    work_mode: str = "polylog"
    gamma: Optional[float] = None
    p: Optional[int] = None

    def __post_init__(self):
        if self.s <= 0.0:
            raise ValueError("s must be positive")
        if self.v0 < 0.0 or self.w0 <= 0.0:
            raise ValueError("pilot variance must be nonnegative and pilot work positive")
        if self.work_mode == "power":
            if self.gamma is None or self.gamma <= 0.0:
                raise ValueError("power mode needs gamma > 0")
        elif self.work_mode == "polylog":
            if self.p not in (1, 2):
                raise ValueError("polylog mode needs p in {1, 2}")
        else:
            raise ValueError("work_mode must be 'power' or 'polylog'")


def model_allocation(model: AllocationModel, ladder: Ladder) -> list:
    """Sample counts from modeled scaling: V_l = v0 (eps_l/eps0)^(2s) and
    w_l = w0 eta^(gamma l) or w0 max(1, l)^p, fed through the optimal
    allocation at the finest width."""
    if model.work_mode == "power" and 2.0 * model.s <= model.gamma:
        raise ValueError("power-mode allocation requires 2s > gamma")
    ells = np.arange(ladder.levels + 1)
    eps = np.asarray(ladder.eps)
    v = model.v0 * (eps / ladder.eps0) ** (2.0 * model.s)
    if model.work_mode == "power":
        w = model.w0 * ladder.eta ** (model.gamma * ells)
    else:
        w = model.w0 * np.maximum(1, ells) ** float(model.p)
    return optimal_allocation(v, w, ladder.eps[-1])


@dataclass
class EstimateReport:
    """A point estimate with its per-level bookkeeping.

    ``stat_error`` is sqrt(sum_l variance_l / count_l); the discretization
    component is bounded by the finest stopping width up to an unknown
    constant, reported separately as ``discr_error_bound``. ``wall_time`` is
    measured; persisted artifacts zero it so outputs stay byte-stable.
    """

    value: float
    eps_target: float
    eta: Optional[float]
    eps: tuple
    m: tuple
    level_stats: list
    total_steps: int
    stat_error: float
    discr_error_bound: float
    seed: int
    wall_time: float = 0.0

    def to_dict(self, include_timing: bool = False) -> dict:
        return {
            "value": self.value,
            "eps_target": self.eps_target,
            "eta": self.eta,
            "levels": [
                {
                    "level": st.level,
                    "eps": self.eps[st.level],
                    "m": self.m[st.level],
                    "mean": st.mean,
                    "variance": st.variance,
                    "mean_steps": st.mean_steps,
                }
                for st in self.level_stats
            ],
            "total_steps": self.total_steps,
            "stat_error": self.stat_error,
            "seed": self.seed,
            "wall_time_s": self.wall_time if include_timing else 0.0,
        }


def _sample_plain(problem, eps, count, start_index, seed, ctx_word, level, max_steps, threads):
    batch = walk.run_many(
        problem.domain,
        problem.start,
        [eps],
        master_seed=seed,
        context=ctx_word,
        level=level,
        start_index=start_index,
        count=count,
        max_steps=max_steps,
        threads=threads,
    )
    values = problem.bc(batch.exits[0])
    return values, batch.steps[0]


def _sample_pairs(
    problem, eps_coarse, eps_fine, count, start_index, seed, ctx_word, level, max_steps, threads
):
    batch = walk.run_many(
        problem.domain,
        problem.start,
        [eps_coarse, eps_fine],
        master_seed=seed,
        context=ctx_word,
        level=level,
        start_index=start_index,
        count=count,
        max_steps=max_steps,
        threads=threads,
    )
    diffs = problem.bc(batch.exits[1]) - problem.bc(batch.exits[0])
    return diffs, batch.steps[1]


def _finalize(value, eps_target, eta, eps, m, stats, step_totals, seed, t0) -> EstimateReport:
    stat_var = sum(st.variance / st.count for st in stats)
    total_steps = int(sum(step_totals))
    return EstimateReport(
        value=float(value),
        eps_target=float(eps_target),
        eta=eta,
        eps=tuple(eps),
        m=tuple(m),
        level_stats=stats,
        total_steps=total_steps,
        stat_error=math.sqrt(stat_var),
        discr_error_bound=float(eps[-1]),
        seed=seed,
        wall_time=time.perf_counter() - t0,
    )


def mc_estimate(
    problem: Problem,
    eps: float,
    m: Optional[int] = None,
    seed: int = 0,
    threads: Optional[int] = None,
    context: int = 0,
    max_steps: int = walk.DEFAULT_MAX_STEPS,
) -> EstimateReport:
    """Plain Monte Carlo estimate at one stopping width.

    With ``m=None`` a 100-sample pilot fixes the count at
    ceil(variance / eps^2); the pilot samples are kept, never redrawn, so
    the final estimate matches an explicit call with the resulting count.
    """
    t0 = time.perf_counter()
    threads = resolve_threads(threads)
    ctx = _context_word(context, _SUB_MAIN)
    if m is None:
        values, steps = _sample_plain(
            problem, eps, _PILOT_SAMPLES, 0, seed, ctx, 0, max_steps, threads
        )
        target = auto_sample_count(float(np.var(values, ddof=1)), eps)
        if target > _PILOT_SAMPLES:
            more_v, more_s = _sample_plain(
                problem,
                eps,
                target - _PILOT_SAMPLES,
                _PILOT_SAMPLES,
                seed,
                ctx,
                0,
                max_steps,
                threads,
            )
            values = np.concatenate([values, more_v])
            steps = np.concatenate([steps, more_s])
    else:
        if m < 2:
            raise ValueError("m must be at least 2")
        values, steps = _sample_plain(problem, eps, m, 0, seed, ctx, 0, max_steps, threads)
    stats = [_stats_from(0, values, steps)]
    return _finalize(
        stats[0].mean, eps, None, (eps,), (stats[0].count,), stats,
        [int(steps.sum())], seed, t0,
    )


def mlmc_estimate(
    problem: Problem,
    plan: LevelPlan,
    seed: int = 0,
    threads: Optional[int] = None,
    context: int = 0,
    max_steps: int = walk.DEFAULT_MAX_STEPS,
) -> EstimateReport:
    """Multilevel estimate for a fixed plan: plain walks on level 0 plus
    independent coupled-pair corrections on each finer level."""
    t0 = time.perf_counter()
    threads = resolve_threads(threads)
    ladder = plan.ladder
    ctx = _context_word(context, _SUB_MAIN)
    stats = []
    step_totals = []
    value = 0.0
    for level in range(ladder.levels + 1):
        count = int(plan.m[level])
        if level == 0:
            vals, steps = _sample_plain(
                problem, ladder.eps[0], count, 0, seed, ctx, 0, max_steps, threads
            )
        else:
            vals, steps = _sample_pairs(
                problem,
                ladder.eps[level - 1],
                ladder.eps[level],
                count,
                0,
                seed,
                ctx,
                level,
                max_steps,
                threads,
            )
        st = _stats_from(level, vals, steps)
        stats.append(st)
        step_totals.append(int(steps.sum()))
        value += st.mean
    return _finalize(
        value, ladder.eps[-1], ladder.eta, ladder.eps, plan.m, stats, step_totals, seed, t0
    )


def adaptive_mlmc(
    problem: Problem,
    eps_target: float,
    eta: float,
    warmup: int = DEFAULT_WARMUP,
    seed: int = 0,
    threads: Optional[int] = None,
    context: int = 0,
    ladder: Optional[Ladder] = None,
    max_steps: int = walk.DEFAULT_MAX_STEPS,
) -> EstimateReport:
    """Multilevel estimate with measured allocation.

    Draws ``warmup`` samples per level, estimates each level's variance and
    mean work, applies the optimal allocation, and tops levels up with fresh
    sample indices (warm-up samples stay in the estimate). The allocation is
    recomputed once from the enlarged sample and topped up again only where
    the requirement grew by more than 10%.
    """
    t0 = time.perf_counter()
    if warmup < 2:
        raise ValueError("warmup must be at least 2")
    threads = resolve_threads(threads)
    if ladder is None:
        ladder = default_ladder(problem, eps_target, eta)
    ctx = _context_word(context, _SUB_MAIN)
    nlev = ladder.levels + 1

    def draw(level, count, start_index):
        if level == 0:
            return _sample_plain(
                problem, ladder.eps[0], count, start_index, seed, ctx, 0, max_steps, threads
            )
        return _sample_pairs(
            problem,
            ladder.eps[level - 1],
            ladder.eps[level],
            count,
            start_index,
            seed,
            ctx,
            level,
            max_steps,
            threads,
        )

    values = []
    steps = []
    for level in range(nlev):
        v, s = draw(level, warmup, 0)
        values.append(v)
        steps.append(s)

    def measured():
        v = [float(np.var(x, ddof=1)) for x in values]
        w = [float(np.mean(s)) for s in steps]
        return v, w

    v_meas, w_meas = measured()
    first = optimal_allocation(v_meas, w_meas, ladder.eps[-1])
    for level in range(nlev):
        need = max(first[level], warmup)
        have = values[level].size
        if need > have:
            v, s = draw(level, need - have, have)
            values[level] = np.concatenate([values[level], v])
            steps[level] = np.concatenate([steps[level], s])

    v_meas, w_meas = measured()
    second = optimal_allocation(v_meas, w_meas, ladder.eps[-1])
    for level in range(nlev):
        have = values[level].size
        if second[level] > have and second[level] > 1.1 * first[level]:
            v, s = draw(level, second[level] - have, have)
            values[level] = np.concatenate([values[level], v])
            steps[level] = np.concatenate([steps[level], s])

    stats = [_stats_from(level, values[level], steps[level]) for level in range(nlev)]
    value = sum(st.mean for st in stats)
    counts = tuple(st.count for st in stats)
    step_totals = [int(s.sum()) for s in steps]
    return _finalize(value, ladder.eps[-1], eta, ladder.eps, counts, stats, step_totals, seed, t0)
