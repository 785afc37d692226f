"""Monte Carlo and multilevel Monte Carlo point estimators.

Three sample-allocation strategies are implemented:

* plain Monte Carlo at one stopping width, with the sample count chosen to
  equilibrate statistical and discretization error (``mc_estimate``);
* multilevel with sample counts from modeled variance/work decay rates
  (``model_allocation`` feeding ``mlmc_estimate``);
* multilevel with sample counts from warm-up measurements of variance and
  work per level (``adaptive_mlmc``).

Work is counted in walk steps. All estimators are deterministic functions
of (problem, parameters, seed) regardless of thread count. ``solve_reps``
runs one estimator for many stream contexts in lockstep, each step drawing
for every replica at once, with the same results as separate runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import walk
from .geometry import Problem
from .walk import resolve_threads  # noqa: F401  (bench/run.py reads it from here)

__all__ = [
    "Ladder",
    "LevelStats",
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
    "sample_level",
    "solve",
    "solve_reps",
    "stream_context",
    "DEFAULT_WARMUP",
    "METHODS",
]

DEFAULT_WARMUP = 100
_PILOT_SAMPLES = 100

# Most walks in one run_many call that packs several replicas' draws; one
# replica's draw above it stays a call of its own, with one context, so
# full-width draws and thread splitting are as in a single run. Outputs do
# not depend on it. It trades per-call overhead against peak memory. On the
# square-workerr benchmark (2 vCPU, 4 rotations of 38 s runs) against runs
# one rep at a time (0.343 s op_s.p50, 40.65 MB peak_rss_mb), unlimited
# packs ran at full width, 0.159 s and 44.40 MB (+9.2%, near the 10%
# bound); packs of at most 8192 walks gave 0.182 s and 42.11 MB (+3.6%).
_PACK_WALKS = 8192

METHODS = ("MEAS", "MLWOS", "WOS")

# Estimator-internal substream tags, packed into the low context bits so a
# caller-supplied context base never collides between main and pilot draws.
_SUB_MAIN = 0
_SUB_PILOT = 1

# MLWOS allocation: the theory decay exponent for Lipschitz boundary data,
# and polylog work growth per level, w_l ~ max(1, l)^p.
_ANALYTIC_S = 1.0 / 3.0
_ANALYTIC_P = 2


def stream_context(base: int, sub: int = _SUB_MAIN) -> int:
    """The stream context word of the caller's context ``base`` (28 bits) and
    an estimator substream tag in the low four bits."""
    if not 0 <= base < 2 ** 28:
        raise ValueError("context must fit in 28 bits")
    return (base << 4) | sub


@dataclass(frozen=True)
class Ladder:
    """Geometric sequence of stopping widths eps_l = eps0 / eta^l, l=0..levels.

    ``eps[levels]`` is anchored to the user's target exactly; coarser widths
    are built upward by multiplication. Equal consecutive widths are allowed
    only for hand-built degenerate ladders used in tests.
    """

    eta: float
    eps: tuple

    def __post_init__(self):
        if self.eta <= 1.0:
            raise ValueError("eta must exceed 1")
        if not self.eps:
            raise ValueError("need at least one width")
        if any(e <= 0.0 for e in self.eps):
            raise ValueError("widths must be positive")
        if any(b > a for a, b in zip(self.eps, self.eps[1:])):
            raise ValueError("widths must be nonincreasing")

    @property
    def eps0(self) -> float:
        return self.eps[0]

    @property
    def levels(self) -> int:
        return len(self.eps) - 1


def _anchored_ladder(eps_target: float, eta: float, levels: int) -> Ladder:
    # The finest width is the target exactly; coarser ones multiply upward.
    eps = [eps_target]
    for _ in range(levels):
        eps.append(eps[-1] * eta)
    eps.reverse()
    return Ladder(eta=eta, eps=tuple(eps))


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
    return _anchored_ladder(eps_target, eta, levels)


def default_ladder(problem: Problem, eps_target: float, eta: float) -> Ladder:
    """Deepest ladder whose coarsest width stays below 0.9 times the start
    point's boundary distance (walks must start outside the stopping shell
    on every level)."""
    d0 = problem.domain.distance_to_boundary(problem.start)
    if eps_target <= 0.0:
        raise ValueError("eps_target must be positive")
    if eps_target >= d0:
        raise ValueError("eps_target must be below the start's boundary distance")
    if eta <= 1.0:
        raise ValueError("eta must exceed 1")
    levels = 0
    while eps_target * eta ** (levels + 1) <= 0.9 * d0:
        levels += 1
    return _anchored_ladder(eps_target, eta, levels)


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


def model_allocation(v0: float, w0: float, ladder: Ladder) -> list:
    """Sample counts from modeled scaling: V_l = v0 (eps_l/eps0)^(2s) and
    w_l = w0 max(1, l)^p with s = 1/3 and p = 2, fed through the optimal
    allocation at the finest width. ``v0``/``w0`` are the variance and
    mean steps measured by a pilot at level 0."""
    if v0 < 0.0 or w0 <= 0.0:
        raise ValueError("pilot variance must be nonnegative and pilot work positive")
    eps = np.asarray(ladder.eps)
    v = v0 * (eps / ladder.eps0) ** (2.0 * _ANALYTIC_S)
    w = w0 * np.maximum(1, np.arange(ladder.levels + 1)) ** float(_ANALYTIC_P)
    return optimal_allocation(v, w, ladder.eps[-1])


@dataclass
class EstimateReport:
    """A point estimate with its per-level bookkeeping.

    ``stat_error`` is sqrt(sum_l variance_l / count_l); the discretization
    component is bounded by the finest stopping width, ``eps_target``, up
    to an unknown constant. ``wall_time`` is measured; ``to_dict`` writes
    it as 0.0 so artifacts stay byte-stable.
    """

    value: float
    eps_target: float
    eta: Optional[float]
    eps: tuple
    m: tuple
    level_stats: list
    total_steps: int
    stat_error: float
    seed: int
    wall_time: float = 0.0

    def to_dict(self) -> dict:
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
            "wall_time_s": 0.0,
        }


def sample_level(
    problem: Problem,
    widths,
    count: int,
    *,
    seed: int,
    context: int,
    level: int = 0,
    start_index: int = 0,
    max_steps: int,
    threads: Optional[int],
):
    """Samples ``start_index`` to ``start_index + count - 1`` of one level,
    drawn from the streams (``seed``, ``context``, ``level``).

    ``widths=(eps,)`` gives the boundary values at the walks' exits;
    ``widths=(coarse, fine)`` gives the coupled corrections
    bc(fine exit) - bc(coarse exit). Returns ``(values, steps)``, with the
    steps of the finest record in both cases. ``context`` is a whole stream
    context word, as :func:`stream_context` makes. ``context`` and
    ``start_index`` may also be per-walk arrays, as ``walk.run_many``
    takes them.
    """
    if len(widths) not in (1, 2):
        raise ValueError("widths must be (eps,) or (coarse, fine)")
    batch = walk.run_many(
        problem.domain,
        problem.start,
        widths,
        master_seed=seed,
        context=context,
        level=level,
        start_index=start_index,
        count=count,
        max_steps=max_steps,
        threads=threads,
    )
    values = problem.bc(batch.exits[-1])
    if len(widths) == 2:
        values = values - problem.bc(batch.exits[0])
    return values, batch.steps[-1]


class _Levels:
    """Every level's samples drawn so far, for the widths ``eps``, of R
    replicas that run in lockstep, one per stream context word.

    ``values[r][l]`` and ``steps[r][l]`` hold samples 0 to n - 1 of level
    ``l`` of replica ``r``, from the streams (``seed``, ``contexts[r]``,
    ``l``): plain boundary values at ``eps[0]`` on level 0, coupled
    corrections between ``eps[l - 1]`` and ``eps[l]`` above. Samples are
    only ever appended, and each is a function of its own stream, so a
    level topped up in several steps, alone or together with other
    replicas, holds the same samples as one drawn at once.
    """

    def __init__(self, problem, eps, seed, contexts, max_steps, threads):
        self.problem = problem
        self.eps = tuple(eps)
        self.contexts = list(contexts)
        self.stream = dict(seed=seed, max_steps=max_steps, threads=threads)
        self.values = [[np.empty(0)] * len(self.eps) for _ in self.contexts]
        self.steps = [[np.empty(0, dtype=np.int64)] * len(self.eps) for _ in self.contexts]

    def top_up(self, level: int, need):
        """Draw each replica's next samples of level ``level``, up to sample
        ``need[r] - 1`` for replica ``r``.

        The replicas' draws are packed, in replica order, into ``run_many``
        calls of at most ``_PACK_WALKS`` walks; one replica's draw larger
        than that is a call of its own.
        """
        packs, size = [], 0  # lists of (replica, first sample, count)
        for r, n in enumerate(need):
            have = self.values[r][level].size
            if n <= have:
                continue
            if not packs or size + n - have > _PACK_WALKS:
                packs.append([])
                size = 0
            packs[-1].append((r, have, n - have))
            size += n - have
        widths = self.eps[max(level - 1, 0):level + 1]
        for pack in packs:
            count = sum(n for _, _, n in pack)
            if len(pack) == 1:
                ((r, have, _),) = pack
                context, start = self.contexts[r], have
            else:
                context = np.repeat(
                    np.array([self.contexts[r] for r, _, _ in pack], dtype=np.uint64),
                    [n for _, _, n in pack],
                )
                start = np.concatenate(
                    [np.arange(have, have + n, dtype=np.uint64) for _, have, n in pack]
                )
            v, s = sample_level(
                self.problem, widths, count, context=context, level=level,
                start_index=start, **self.stream,
            )
            at = 0
            for r, _, n in pack:
                self.values[r][level] = np.concatenate([self.values[r][level], v[at:at + n]])
                self.steps[r][level] = np.concatenate([self.steps[r][level], s[at:at + n]])
                at += n

    def allocation(self, r: int) -> list:
        """Replica ``r``'s optimal counts at the finest width from each
        level's measured variance and mean steps."""
        v = [float(np.var(x, ddof=1)) for x in self.values[r]]
        w = [float(np.mean(s)) for s in self.steps[r]]
        return optimal_allocation(v, w, self.eps[-1])

    def reports(self, eta: Optional[float], t0: float) -> list:
        """One report per replica; each ``wall_time`` is the whole lockstep
        run's."""
        wall = time.perf_counter() - t0
        out = []
        for values, steps in zip(self.values, self.steps):
            stats = []
            for level, (v, s) in enumerate(zip(values, steps)):
                mean = float(np.mean(v))
                m2 = float(np.sum((v - mean) ** 2))
                stats.append(LevelStats(level, int(v.size), mean, m2, float(np.mean(s))))
            out.append(EstimateReport(
                value=float(sum(st.mean for st in stats)),
                eps_target=float(self.eps[-1]),
                eta=eta,
                eps=self.eps,
                m=tuple(st.count for st in stats),
                level_stats=stats,
                total_steps=int(sum(int(s.sum()) for s in steps)),
                stat_error=math.sqrt(sum(st.variance / st.count for st in stats)),
                seed=self.stream["seed"],
                wall_time=wall,
            ))
        return out


def _words(bases, sub=_SUB_MAIN) -> list:
    return [stream_context(base, sub) for base in bases]


def _wos(problem, eps, m, seed, bases, max_steps, threads) -> list:
    t0 = time.perf_counter()
    if m is not None and m < 2:
        raise ValueError("m must be at least 2")
    levels = _Levels(problem, (eps,), seed, _words(bases), max_steps, threads)
    levels.top_up(0, [m or _PILOT_SAMPLES] * len(bases))
    if m is None:
        levels.top_up(0, [
            auto_sample_count(float(np.var(values[0], ddof=1)), eps) for values in levels.values
        ])
    return levels.reports(None, t0)


def _mlmc(problem, ladder, ms, seed, bases, max_steps, threads) -> list:
    t0 = time.perf_counter()
    for m in ms:
        if len(m) != ladder.levels + 1:
            raise ValueError("need one sample count per level")
        if any(int(v) < 1 for v in m):
            raise ValueError("sample counts must be at least 1")
    levels = _Levels(problem, ladder.eps, seed, _words(bases), max_steps, threads)
    for level in range(ladder.levels + 1):
        levels.top_up(level, [int(m[level]) for m in ms])
    return levels.reports(ladder.eta, t0)


def _meas(problem, eps_target, eta, warmup, seed, bases, max_steps, threads) -> list:
    t0 = time.perf_counter()
    if warmup < 2:
        raise ValueError("warmup must be at least 2")
    ladder = default_ladder(problem, eps_target, eta)
    levels = _Levels(problem, ladder.eps, seed, _words(bases), max_steps, threads)
    nlev, reps = ladder.levels + 1, range(len(bases))
    for level in range(nlev):
        levels.top_up(level, [warmup] * len(bases))
    first = [levels.allocation(r) for r in reps]
    for level in range(nlev):
        levels.top_up(level, [max(first[r][level], warmup) for r in reps])
    second = [levels.allocation(r) for r in reps]
    for level in range(nlev):
        # Each replica tops up again only where its requirement grew by
        # more than 10%; a count it already holds draws nothing.
        levels.top_up(level, [
            second[r][level] if second[r][level] > 1.1 * first[r][level] else 0 for r in reps
        ])
    return levels.reports(eta, t0)


def _mlwos(problem, eps_target, eta, seed, bases, threads) -> list:
    ladder = default_ladder(problem, eps_target, eta)
    pilot = _Levels(
        problem, ladder.eps[:1], seed, _words(bases, _SUB_PILOT),
        walk.DEFAULT_MAX_STEPS, threads,
    )
    pilot.top_up(0, [_PILOT_SAMPLES] * len(bases))
    ms = [
        model_allocation(float(np.var(v, ddof=1)), float(np.mean(s)), ladder)
        for (v,), (s,) in zip(pilot.values, pilot.steps)
    ]
    reports = _mlmc(problem, ladder, ms, seed, bases, walk.DEFAULT_MAX_STEPS, threads)
    for report, (s,) in zip(reports, pilot.steps):
        report.total_steps += int(np.sum(s))
    return reports


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
    return _wos(problem, eps, m, seed, [context], max_steps, threads)[0]


def mlmc_estimate(
    problem: Problem,
    ladder: Ladder,
    m,
    seed: int = 0,
    threads: Optional[int] = None,
    context: int = 0,
    max_steps: int = walk.DEFAULT_MAX_STEPS,
) -> EstimateReport:
    """Multilevel estimate with ``m[l]`` samples on level ``l`` of
    ``ladder``: plain walks on level 0 plus independent coupled-pair
    corrections on each finer level."""
    return _mlmc(problem, ladder, [m], seed, [context], max_steps, threads)[0]


def adaptive_mlmc(
    problem: Problem,
    eps_target: float,
    eta: float,
    warmup: int = DEFAULT_WARMUP,
    seed: int = 0,
    threads: Optional[int] = None,
    context: int = 0,
    max_steps: int = walk.DEFAULT_MAX_STEPS,
) -> EstimateReport:
    """Multilevel estimate with measured allocation.

    Draws ``warmup`` samples per level, estimates each level's variance and
    mean work, applies the optimal allocation, and tops levels up with fresh
    sample indices (warm-up samples stay in the estimate). The allocation is
    recomputed once from the enlarged sample and topped up again only where
    the requirement grew by more than 10%.
    """
    return _meas(
        problem, eps_target, eta, warmup, seed, [context], max_steps, threads
    )[0]


def solve(
    problem: Problem,
    method: str,
    eps_target: float,
    eta: float = 16.0,
    warmup: int = DEFAULT_WARMUP,
    m: Optional[int] = None,
    seed: int = 0,
    threads: Optional[int] = None,
    context: int = 0,
) -> EstimateReport:
    """Point estimate at error target ``eps_target`` with one of
    :data:`METHODS`, named in any case.

    WOS is :func:`mc_estimate`, with ``m`` samples if given. MEAS is
    :func:`adaptive_mlmc` with ``warmup`` samples per level. MLWOS is
    :func:`mlmc_estimate` with counts from :func:`model_allocation`: a
    100-sample pilot at the coarsest width, on its own substream, anchors
    the model, and its steps count in the report's work.
    """
    return solve_reps(
        problem, method, eps_target, [context], eta, warmup=warmup, m=m, seed=seed,
        threads=threads,
    )[0]


def solve_reps(
    problem: Problem,
    method: str,
    eps_target: float,
    contexts,
    eta: float = 16.0,
    warmup: int = DEFAULT_WARMUP,
    m: Optional[int] = None,
    seed: int = 0,
    threads: Optional[int] = None,
) -> list:
    """One :func:`solve` per context in ``contexts``, run in lockstep.

    Report ``r`` is bit for bit ``solve(..., context=contexts[r])``; only
    its measured ``wall_time`` differs, being the whole run's. Each step of
    an estimator draws the samples it needs for every replica at once, so
    independent runs share ``run_many`` calls. A step limit exceeded by
    several replicas is raised for the lowest walk of the call that meets
    it, which need not be the replica that sequential runs would name.
    """
    contexts = list(contexts)
    if not contexts:
        raise ValueError("need at least one context")
    name = method.upper()
    if name == "WOS":
        return _wos(problem, eps_target, m, seed, contexts, walk.DEFAULT_MAX_STEPS, threads)
    if name == "MEAS":
        return _meas(
            problem, eps_target, eta, warmup, seed, contexts, walk.DEFAULT_MAX_STEPS, threads
        )
    if name == "MLWOS":
        return _mlwos(problem, eps_target, eta, seed, contexts, threads)
    raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
