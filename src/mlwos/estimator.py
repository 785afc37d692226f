"""Monte Carlo and multilevel Monte Carlo point estimators.

Three sample-allocation strategies are implemented:

* plain Monte Carlo at one stopping width, with the sample count chosen to
  equilibrate statistical and discretization error (``mc_estimate``);
* multilevel with sample counts from modeled variance/work decay rates
  (``model_allocation`` feeding ``mlmc_estimate``);
* multilevel with sample counts from warm-up measurements of variance and
  work per level (``adaptive_mlmc``), which also drops each coarse level
  whose warm-up shows it does not pay (``coarsest_level``).

Work is counted in walk steps. All estimators are deterministic functions
of (problem, parameters, seed) regardless of thread count. Each estimator
is a generator of rounds of sample requests; ``solve_cells`` runs many
estimators, each for many stream contexts, in lockstep, every round
drawing for all of them at once, with the same results as separate runs.
"""

from __future__ import annotations

import math
import numbers
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
    "coarsest_level",
    "mc_estimate",
    "mlmc_estimate",
    "adaptive_mlmc",
    "sample_level",
    "solve",
    "solve_reps",
    "solve_cells",
    "stream_context",
    "DEFAULT_WARMUP",
    "METHODS",
]

DEFAULT_WARMUP = 100
_PILOT_SAMPLES = 100

# Most walks in one run_many call that packs several segments of
# ``sample_level`` (a round's segments of every estimator of a run or study,
# or every level and repeat of ``variance_study``); a segment above it stays
# a call of its own, with one context, level and width row, so full-width
# draws and thread splitting are as in a single run. Outputs do not depend
# on it. It trades per-call overhead against peak memory: on the
# square-workerr benchmark (2 vCPU, 4 alternated 38 s runs each, stream
# format 2), 8192 gave 0.154 s op_s.p50 and 42.09 MB peak_rss_mb, unlimited
# packs 0.135 s and 43.79 MB.
_PACK_WALKS = 8192

# Exits per boundary-data call of ``sample_level``: boundary data is
# row-wise, so the chunks change no value, and their temporaries stay the
# size of the engine's per-draw ones (it holds 16384 walks in flight).
_BC_ROWS = 16384

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
    if not 0 <= sub < 16:
        raise ValueError("substream tag must fit in 4 bits")
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
        _check_eta(self.eta)
        if not self.eps:
            raise ValueError("need at least one width")
        _check_widths(*self.eps)
        if any(b > a for a, b in zip(self.eps, self.eps[1:])):
            raise ValueError("widths must be nonincreasing")

    @property
    def eps0(self) -> float:
        return self.eps[0]

    @property
    def levels(self) -> int:
        return len(self.eps) - 1


def _check_eta(eta: float):
    if not (math.isfinite(eta) and eta > 1.0):
        raise ValueError(f"eta must be finite and exceed 1, got {eta}")


def _check_widths(*widths: float):
    if not all(math.isfinite(e) and e > 0.0 for e in widths):
        raise ValueError(f"widths must be finite and positive, got {widths}")


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
    _check_eta(eta)
    _check_widths(eps_target, eps0_hint)
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
    _check_widths(eps_target)
    if eps_target >= d0:
        raise ValueError("eps_target must be below the start's boundary distance")
    _check_eta(eta)
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


def coarsest_level(costs, pairs) -> int:
    """The level a measured ladder keeps as its coarsest.

    ``costs[l]`` is level ``l``'s mean steps per sample, and ``pairs[l - 1]``
    holds three sample variances of level ``l``'s coupled pairs: of the
    corrections, V_l, of the coarse values, P_{l-1}, and of the fine values,
    P_l, the last two those of plain samples at ``eps_{l-1}`` and ``eps_l``.
    Starting from level 0, the coarsest level ``b`` is dropped, and ``b + 1``
    read as plain, while
    sqrt(P_b C_b) + sqrt(V_{b+1} C_{b+1}) >= sqrt(P_{b+1} C_{b+1}): under the
    MLMC cost (sum_l sqrt(V_l C_l))^2, level ``b`` and the correction above
    it cost at least what a plain level at ``eps_{b+1}`` costs. A tie drops
    the level, so all-zero variances keep only the finest. The three
    variances of one test come from the same walks, so their noise largely
    cancels in the comparison.
    """
    base = 0
    for level, (correction, coarse, fine) in enumerate(pairs, 1):
        kept = math.sqrt(coarse * costs[level - 1]) + math.sqrt(correction * costs[level])
        if kept < math.sqrt(fine * costs[level]):
            break
        base = level
    return base


@dataclass
class EstimateReport:
    """A point estimate with its per-level bookkeeping.

    ``eps``, ``m`` and ``level_stats`` describe the levels that are summed,
    numbered from 0 at the coarsest. ``dropped`` holds ``(eps, steps)`` for
    each coarser level that MEAS warmed up and dropped (see
    :func:`coarsest_level`); those warm-up steps count in ``total_steps``.
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
    dropped: tuple = ()

    def to_dict(self) -> dict:
        doc = {
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
        }
        if self.dropped:  # only MEAS drops levels, and only some runs
            doc["dropped"] = [{"eps": e, "warmup_steps": w} for e, w in self.dropped]
        return {
            **doc,
            "total_steps": self.total_steps,
            "stat_error": self.stat_error,
            "seed": self.seed,
            "wall_time_s": 0.0,
        }


def sample_level(problem: Problem, segments, *, seed: int, threads: Optional[int] = None,
                 fine: bool = False) -> list:
    """One ``(values, work)`` per ``(widths, level, context, start_index,
    count)`` in ``segments``: samples ``start_index`` to ``start_index +
    count - 1`` of stream level ``level``, drawn from the streams (``seed``,
    ``context``, ``level``).

    ``widths=(eps,)`` gives the boundary values at the walks' exits;
    ``widths=(coarse, fine)`` gives the coupled corrections
    bc(fine exit) - bc(coarse exit). ``work`` is the int total of the
    segment's steps to the finest record in both cases. ``context`` is a
    whole stream context word, as :func:`stream_context` makes. With
    ``fine=True`` each entry is ``(values, work, fine_values)``, the last
    the boundary values at the fine exits: the plain samples at the fine
    width that the same walks give. They are ``values`` itself for
    ``(eps,)`` and a second array only for pairs.

    Segments are packed, in order, into ``walk.run_many`` calls of at most
    ``_PACK_WALKS`` walks; a segment larger than that is a call of its own.
    A call takes a field its segments share (context, level, widths) as
    one value, and the others per walk: widths as a table of rows and a
    row per walk, a plain segment's ``(eps,)`` read as ``(eps, eps)`` in a
    call that also holds pairs. Each sample is a function of its own
    stream and widths, so the packing changes no value. Boundary data is
    read at most ``_BC_ROWS`` exits at a time, into one array per call:
    the fine exits of every run of adjacent plain segments, and both of
    every run of pairs.
    """
    packs, size = [], 0
    for segment in segments:
        widths, _, _, _, count = segment
        if len(widths) not in (1, 2):
            raise ValueError("widths must be (eps,) or (coarse, fine)")
        if count < 1:
            raise ValueError("segment counts must be positive")
        if not packs or size + count > _PACK_WALKS:
            packs.append([])
            size = 0
        packs[-1].append(segment)
        size += count
    out = []
    for pack in packs:
        counts = [n for *_, n in pack]
        at = np.cumsum([0] + counts)
        batch = walk.run_many(
            problem.domain, problem.start, master_seed=seed, count=int(at[-1]), threads=threads,
            **_call_fields(pack, counts),
        )
        # Only step totals are kept: the batch's steps are freed here.
        exits, work = batch.exits, np.add.reduceat(batch.steps[-1], at[:-1]).tolist()
        del batch
        pairs = [len(widths) == 2 for widths, *_ in pack]
        values = np.empty(at[-1])
        fines = np.empty(at[-1]) if fine and any(pairs) else values
        # Runs of adjacent segments of one kind, read in chunks.
        runs = [i for i in range(len(pack)) if i == 0 or pairs[i] != pairs[i - 1]]
        for i, j in zip(runs, runs[1:] + [len(pack)]):
            pair = pairs[i]
            for c in range(at[i], at[j], _BC_ROWS):
                rows = slice(c, min(c + _BC_ROWS, at[j]))
                if pair:
                    fines[rows] = problem.bc(exits[-1, rows])
                    np.subtract(fines[rows], problem.bc(exits[0, rows]), out=values[rows])
                else:
                    values[rows] = problem.bc(exits[-1, rows])
        del exits  # not held through the next pack's call
        for a, b, w, pair in zip(at[:-1], at[1:], work, pairs):
            if fine:
                out.append((values[a:b], w, (fines if pair else values)[a:b]))
            else:
                out.append((values[a:b], w))
    return out


def _call_fields(pack, counts) -> dict:
    """``run_many``'s widths and stream fields for the segments ``pack``:
    one value where the segments share it, else one per walk, and the
    widths as one row or as a table with a row per walk."""
    def field(values, dtype=np.uint64):
        if len(set(values)) == 1:
            return values[0]
        return np.repeat(np.array(values, dtype=dtype), counts)

    widths = [tuple(w) for w, *_ in pack]
    fields = dict(
        level=field([level for _, level, *_ in pack]),
        context=field([context for _, _, context, *_ in pack]),
    )
    if len(pack) == 1:
        fields["start_index"] = pack[0][3]
    else:
        fields["start_index"] = np.concatenate(
            [np.arange(s, s + n, dtype=np.uint64) for *_, s, n in pack])
    table = list(dict.fromkeys(widths))
    if len(table) == 1:
        fields["thresholds"] = table[0]
    else:
        records = max(len(w) for w in table)
        fields["thresholds"] = [w[:1] * (records - len(w)) + w for w in table]
        fields["threshold_rows"] = field([table.index(w) for w in widths], np.intp)
    return fields


class _Levels:
    """Every level's samples drawn so far, for the widths ``eps``, of R
    replicas that run in lockstep, one per stream context word.

    Replica ``r`` sums levels ``base[r]`` to the finest; its base is 0
    until :meth:`drop_coarse` moves it up. ``values[r][l]`` holds samples
    0 to n - 1 of level ``l`` of replica ``r``, from the streams (``seed``,
    ``contexts[r]``, ``l``): plain boundary values at ``eps[l]`` on the
    base level, coupled corrections between ``eps[l - 1]`` and ``eps[l]``
    above, none on a dropped level. ``work[r][l]`` is the int total of
    their steps, a dropped level's warm-up included. A store made with
    ``pending=True`` also keeps, in ``fine[r][l]``, the fine values of each
    level's pairs until :meth:`drop_coarse` reads them. Samples are only
    ever appended, and each is a function of its own stream (a pair's fine
    record is the same walk as a plain walk to its fine width), so a level
    topped up in several steps, alone or together with other replicas and
    other estimators, holds the same samples and work as one drawn at once.
    """

    def __init__(self, problem, eps, seed, contexts, pending=False):
        self.problem = problem
        self.eps = tuple(eps)
        self.contexts = list(contexts)
        self.seed = seed
        self.values = [[np.empty(0)] * len(self.eps) for _ in self.contexts]
        self.work = [[0] * len(self.eps) for _ in self.contexts]
        self.base = [0] * len(self.contexts)
        self.fine = [[np.empty(0)] * len(self.eps) for _ in self.contexts] if pending else None

    def top_up(self, need):
        """Draw, as one round of :func:`_drive`, each replica's next samples
        of every level, up to sample ``need[r][l] - 1`` of level ``l`` for
        replica ``r``: plain walks where ``l`` is the replica's base, pairs
        above it, nothing below it. A generator: it yields the round's
        segments, level by level, unless none is needed."""
        segments, slots = [], []
        for level in range(len(self.eps)):
            for r, counts in enumerate(need):
                have, base = self.values[r][level].size, self.base[r]
                if counts[level] > have and level >= base:
                    widths = self.eps[max(level - 1, base):level + 1]
                    segments.append((widths, level, self.contexts[r], have, counts[level] - have))
                    slots.append((r, level))
        if not segments:
            return
        drawn = yield segments, self.fine is not None
        for (r, level), (v, w, *fine) in zip(slots, drawn):
            self.values[r][level] = np.concatenate([self.values[r][level], v])
            self.work[r][level] += w
            if self.fine is not None and level > self.base[r]:
                self.fine[r][level] = np.concatenate([self.fine[r][level], *fine])

    def drop_coarse(self):
        """Move each replica's base up as far as :func:`coarsest_level`
        says from its samples so far, make the new base level's fine values
        its samples, and free every level's fine values."""
        for r, fine in enumerate(self.fine):
            values = self.values[r]
            pairs = [(np.var(v, ddof=1), np.var(f - v, ddof=1), np.var(f, ddof=1))
                     for v, f in zip(values[1:], fine[1:])]
            base = coarsest_level([st.mean_steps for st in self.stats(r)], pairs)
            if base:
                values[:base + 1] = [np.empty(0)] * base + [fine[base]]
                self.base[r] = base
        self.fine = None

    def stats(self, r: int) -> list:
        """Replica ``r``'s :class:`LevelStats`, one per level it sums,
        numbered from 0 at its base."""
        base, out = self.base[r], []
        for level, (v, w) in enumerate(zip(self.values[r][base:], self.work[r][base:])):
            mean = float(np.mean(v))
            m2 = float(np.sum((v - mean) ** 2))
            out.append(LevelStats(level, v.size, mean, m2, w / v.size))
        return out

    def allocation(self, r: int) -> list:
        """Replica ``r``'s optimal counts at the finest width from each
        summed level's measured variance and mean steps, and 0 for each
        dropped level."""
        stats = self.stats(r)
        return [0] * self.base[r] + optimal_allocation(
            [st.variance for st in stats], [st.mean_steps for st in stats], self.eps[-1])

    def reports(self, eta: Optional[float], t0: float) -> list:
        """One report per replica; each ``wall_time`` is the whole lockstep
        run's."""
        wall = time.perf_counter() - t0
        out = []
        for r, (work, base) in enumerate(zip(self.work, self.base)):
            stats = self.stats(r)
            out.append(EstimateReport(
                value=float(sum(st.mean for st in stats)),
                eps_target=float(self.eps[-1]),
                eta=eta,
                eps=self.eps[base:],
                m=tuple(st.count for st in stats),
                level_stats=stats,
                total_steps=sum(work),
                stat_error=math.sqrt(sum(st.variance / st.count for st in stats)),
                seed=self.seed,
                wall_time=wall,
                dropped=tuple(zip(self.eps[:base], work[:base])),
            ))
        return out


def _words(bases, sub=_SUB_MAIN) -> list:
    return [stream_context(base, sub) for base in bases]


def _drive(problem, estimators, seed, threads) -> list:
    """Run the estimator generators ``estimators`` together and return
    what each returns, in order.

    Each generator yields one round of requests at a time, ``(segments,
    fine)`` with segments as :func:`sample_level` takes them, and is sent
    the ``(values, work, fine_values)`` or ``(values, work)`` of its
    segments. Every round, the segments of all live generators go, in
    generator order, into one :func:`sample_level` call, with fine values
    if any generator asks for them; so independent estimators share
    ``run_many`` calls, and each still gets what it would alone.
    """
    results = [None] * len(estimators)
    live, sent = list(enumerate(estimators)), [None] * len(estimators)
    while live:
        asked = []
        for i, gen in live:
            try:
                asked.append((i, gen, gen.send(sent[i])))
            except StopIteration as stop:
                results[i] = stop.value
        drawn = sample_level(
            problem, [seg for *_, (segments, _) in asked for seg in segments], seed=seed,
            threads=threads, fine=any(fine for *_, (_, fine) in asked),
        )
        at = 0
        for i, _, (segments, _) in asked:
            sent[i], at = drawn[at:at + len(segments)], at + len(segments)
        live = [(i, gen) for i, gen, _ in asked]
    return results


def _wos(problem, eps, m, seed, bases):
    t0 = time.perf_counter()
    if m is not None and m < 2:
        raise ValueError("m must be at least 2")
    levels = _Levels(problem, (eps,), seed, _words(bases))
    yield from levels.top_up([[m or _PILOT_SAMPLES]] * len(bases))
    if m is None:
        yield from levels.top_up([[auto_sample_count(levels.stats(r)[0].variance, eps)]
                                  for r in range(len(bases))])
    return levels.reports(None, t0)


def _mlmc(problem, ladder, ms, seed, bases):
    t0 = time.perf_counter()
    for m in ms:
        if len(m) != ladder.levels + 1:
            raise ValueError("need one sample count per level")
        if any(not isinstance(v, numbers.Integral) or v < 2 for v in m):
            raise ValueError("sample counts must be integers of at least 2")
    levels = _Levels(problem, ladder.eps, seed, _words(bases))
    yield from levels.top_up([[int(v) for v in m] for m in ms])
    return levels.reports(ladder.eta, t0)


def _meas(problem, eps_target, eta, warmup, seed, bases):
    t0 = time.perf_counter()
    if warmup < 2:
        raise ValueError("warmup must be at least 2")
    ladder = default_ladder(problem, eps_target, eta)
    levels = _Levels(problem, ladder.eps, seed, _words(bases), pending=True)
    reps = range(len(bases))
    yield from levels.top_up([[warmup] * (ladder.levels + 1)] * len(bases))
    levels.drop_coarse()
    first = [levels.allocation(r) for r in reps]
    yield from levels.top_up([[max(n, warmup) for n in first[r]] for r in reps])
    second = [levels.allocation(r) for r in reps]
    # Each replica tops up again only where its requirement grew by more
    # than 10%; a count it already holds draws nothing.
    yield from levels.top_up([[b if b > 1.1 * a else 0 for a, b in zip(first[r], second[r])]
                              for r in reps])
    return levels.reports(eta, t0)


def _mlwos(problem, eps_target, eta, seed, bases):
    ladder = default_ladder(problem, eps_target, eta)
    pilot = _Levels(problem, ladder.eps[:1], seed, _words(bases, _SUB_PILOT))
    yield from pilot.top_up([[_PILOT_SAMPLES]] * len(bases))
    anchors = [pilot.stats(r)[0] for r in range(len(bases))]
    ms = [model_allocation(st.variance, st.mean_steps, ladder) for st in anchors]
    reports = yield from _mlmc(problem, ladder, ms, seed, bases)
    for report, (work,) in zip(reports, pilot.work):
        report.total_steps += work
    return reports


def mc_estimate(
    problem: Problem,
    eps: float,
    m: Optional[int] = None,
    seed: int = 0,
    threads: Optional[int] = None,
    context: int = 0,
) -> EstimateReport:
    """Plain Monte Carlo estimate at one stopping width.

    With ``m=None`` a 100-sample pilot fixes the count at
    ceil(variance / eps^2); the pilot samples are kept, never redrawn, so
    the final estimate matches an explicit call with the resulting count.
    """
    return _drive(problem, [_wos(problem, eps, m, seed, [context])], seed, threads)[0][0]


def mlmc_estimate(
    problem: Problem,
    ladder: Ladder,
    m,
    seed: int = 0,
    threads: Optional[int] = None,
    context: int = 0,
) -> EstimateReport:
    """Multilevel estimate with ``m[l]`` samples on level ``l`` of
    ``ladder``: plain walks on level 0 plus independent coupled-pair
    corrections on each finer level."""
    return _drive(problem, [_mlmc(problem, ladder, [m], seed, [context])], seed, threads)[0][0]


def adaptive_mlmc(
    problem: Problem,
    eps_target: float,
    eta: float,
    warmup: int = DEFAULT_WARMUP,
    seed: int = 0,
    threads: Optional[int] = None,
    context: int = 0,
) -> EstimateReport:
    """Multilevel estimate with measured allocation.

    Draws ``warmup`` samples per level of :func:`default_ladder` and drops
    the coarse levels that :func:`coarsest_level` finds do not pay, judged
    from those warm-up samples: the pairs' fine values become the new
    coarsest level's samples, so the decision costs no extra walks, and the
    dropped levels' warm-up steps count in the work. It then estimates each
    kept level's variance and mean work, applies the optimal allocation,
    and tops levels up with fresh sample indices (warm-up samples stay in
    the estimate). The allocation is recomputed once from the enlarged
    sample and topped up again only where the requirement grew by more
    than 10%.
    """
    estimate = _meas(problem, eps_target, eta, warmup, seed, [context])
    return _drive(problem, [estimate], seed, threads)[0][0]


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
    its measured ``wall_time`` differs, being the whole run's. It is
    :func:`solve_cells` with one cell: each estimator round draws for every
    replica at once. When walks of several replicas exceed the step limit,
    the error names the first of them in the round's segment order (level
    by level, replicas in ``contexts`` order within a level), with that
    walk's own context, level and sample index; it need not be the walk
    that sequential runs would name.
    """
    return solve_cells(problem, [(method, eps_target, contexts)], eta, warmup=warmup, m=m,
                       seed=seed, threads=threads)[0]


def solve_cells(
    problem: Problem,
    cells,
    eta: float = 16.0,
    warmup: int = DEFAULT_WARMUP,
    m: Optional[int] = None,
    seed: int = 0,
    threads: Optional[int] = None,
) -> list:
    """One :func:`solve_reps` list of reports per ``(method, eps_target,
    contexts)`` in ``cells``, all run in lockstep.

    Each estimator runs in rounds (WOS and MLWOS two: pilot, then the rest;
    MEAS three: warm-up and two top-ups), and every round draws what every
    replica of every cell needs in one :func:`sample_level` call, a
    segment per (cell, level, replica), packed in that order into
    ``run_many`` calls of at most ``_PACK_WALKS`` walks. Every sample is
    still a function of its own stream, so each report is its own
    :func:`solve`'s bit for bit. A step limit exceeded by walks of several
    replicas or cells is raised for the first of those walks in the order
    of its round's segments, level by level within a cell: the lowest
    failing walk of the first call that meets one. That need not be the
    walk that sequential runs would name.
    """
    estimators = []
    for method, eps_target, contexts in cells:
        contexts = list(contexts)
        if not contexts:
            raise ValueError("need at least one context")
        name = method.upper()
        if name == "WOS":
            estimators.append(_wos(problem, eps_target, m, seed, contexts))
        elif name == "MEAS":
            estimators.append(_meas(problem, eps_target, eta, warmup, seed, contexts))
        elif name == "MLWOS":
            estimators.append(_mlwos(problem, eps_target, eta, seed, contexts))
        else:
            raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    return _drive(problem, estimators, seed, threads)
