"""Empirical studies: repeated-seed errors, variance decay across levels,
divergence probability of coupled pairs, and error-versus-work comparisons
of the three estimators (WOS, MLWOS, MEAS).

Every study is a pure function of (problem, parameters, seed): rerunning it
reproduces its records, and the rendered CSV, byte for byte. Row order is
canonical (sorted by the leading columns), independent of scheduling.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import estimator, walk
from .geometry import Problem

__all__ = [
    "FitResult",
    "StudyRecord",
    "VarianceStudyResult",
    "PdivStudyResult",
    "WorkErrorStudyResult",
    "rms_error",
    "fit_loglog",
    "variance_study",
    "pdiv_study",
    "work_error_study",
    "render_csv",
    "METHODS",
]

METHODS = estimator.METHODS

# Study tags occupy the high context bits handed to the estimator layer;
# cells enumerate (level, rep) or (method, eps, rep) grid points beneath.
_CTX_VARIANCE = 1 << 20
_CTX_PDIV = 2 << 20
_CTX_WORKERR = 3 << 20

# Fine/coarse ratio used when measuring divergence probabilities.
_PDIV_ETA = 16.0


@dataclass(frozen=True)
class FitResult:
    """Least-squares line through a cloud of points (usually in log-log)."""

    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class StudyRecord:
    """One full estimator run inside a work-error sweep."""

    method: str
    eps_target: float
    eta: float
    rep_seed: int
    error: float
    work: int
    value: float


def rms_error(values, truth: float):
    """Root-mean-square deviation from ``truth`` plus a one-sigma half-width.

    The half-width is the standard error of the mean squared deviation,
    pushed through the square root by the delta method.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("need at least two values")
    sq = (v - truth) ** 2
    msq = float(np.mean(sq))
    rms = math.sqrt(msq)
    sem = float(np.std(sq, ddof=1)) / math.sqrt(v.size)
    ci = sem / (2.0 * rms) if rms > 0.0 else 0.0
    return rms, ci


def fit_loglog(xs, ys) -> FitResult:
    """Least-squares line through (log x, log y)."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("need two equal-length vectors")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("log-log fit needs positive data")
    if np.unique(x).size < 2:
        raise ValueError("need at least two distinct abscissae")
    lx = np.log(x)
    ly = np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return FitResult(slope=float(slope), intercept=float(intercept), r_squared=max(0.0, min(1.0, r2)))


def render_csv(header: str, records) -> str:
    """CSV text: ``header``, then one line per record, a dict keyed by the
    header's column names; floats are written as their repr."""
    columns = header.split(",")
    out = [header]
    for record in records:
        out.append(",".join(_fmt(record[c]) for c in columns))
    return "\n".join(out) + "\n"


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


@dataclass
class VarianceStudyResult:
    """Per-(level, rep) second-moment norms of the level differences and the
    fitted decay exponent. ``degenerate`` marks all-zero norms (constant
    boundary data), where no log-log fit exists."""

    rows: list
    level_eps: tuple
    level_norms: tuple
    fit: Optional[FitResult]
    degenerate: bool

    def to_csv(self) -> str:
        return render_csv("level,eps,l2_norm,variance,mean_steps,rep", self.rows)

    def summary(self) -> dict:
        return {
            "study": "variance",
            "degenerate": self.degenerate,
            "level_eps": list(self.level_eps),
            "level_norms": list(self.level_norms),
            "fit": None if self.fit is None else vars(self.fit),
        }


def variance_study(
    problem: Problem,
    eta: float,
    eps0: float,
    num_levels: int,
    m_per_level: int,
    seed: int = 0,
    threads: Optional[int] = None,
    reps: int = 10,
) -> VarianceStudyResult:
    """Measure how fast the coupled level differences shrink.

    For each level l = 1..num_levels draws ``m_per_level`` fresh coupled
    pairs at widths (eps0/eta^(l-1), eps0/eta^l) and records the sample
    second-moment norm sqrt(mean(diff^2)). Norms are averaged over ``reps``
    repeated calls before fitting the log-log slope against the fine width.
    """
    if m_per_level < 100:
        raise ValueError("m_per_level must be at least 100")
    if num_levels < 1:
        raise ValueError("need at least one level")
    if reps < 1:
        raise ValueError("reps must be at least 1")
    eps = [eps0 / eta ** l for l in range(num_levels + 1)]
    if eps[0] >= problem.domain.distance_to_boundary(problem.start):
        raise ValueError("eps0 must be below the start's boundary distance")

    rows = []
    sq_sums = np.zeros(num_levels)
    for rep in range(reps):
        for level in range(1, num_levels + 1):
            cell = _CTX_VARIANCE | (rep * (num_levels + 1) + level)
            diffs, steps = estimator.sample_level(
                problem,
                (eps[level - 1], eps[level]),
                m_per_level,
                seed=seed,
                context=estimator.stream_context(cell),
                level=level,
                max_steps=walk.DEFAULT_MAX_STEPS,
                threads=threads,
            )
            msq = float(np.mean(diffs ** 2))
            sq_sums[level - 1] += msq
            rows.append(
                {
                    "level": level,
                    "eps": eps[level],
                    "l2_norm": math.sqrt(msq),
                    "variance": float(np.var(diffs, ddof=1)),
                    "mean_steps": float(np.mean(steps)),
                    "rep": rep,
                }
            )
    rows.sort(key=lambda r: (r["level"], r["rep"]))
    norms = tuple(math.sqrt(s / reps) for s in sq_sums)
    degenerate = any(n == 0.0 for n in norms)
    fit = None if degenerate else fit_loglog(eps[1:], norms)
    return VarianceStudyResult(
        rows=rows,
        level_eps=tuple(eps[1:]),
        level_norms=norms,
        fit=fit,
        degenerate=degenerate,
    )


@dataclass
class PdivStudyResult:
    """Divergence-probability estimates per width and the log-log fit of
    p_hat against eps (expected slope near 1)."""

    rows: list
    fit: Optional[FitResult]

    def to_csv(self) -> str:
        return render_csv("eps,radius,m,divergences,p_hat", self.rows)

    def summary(self) -> dict:
        return {
            "study": "pdiv",
            "fit": None if self.fit is None else vars(self.fit),
            "p_hat": [r["p_hat"] for r in self.rows],
        }


def pdiv_study(
    problem: Problem,
    eps_list: Sequence[float],
    radius: float,
    m: int,
    seed: int = 0,
    threads: Optional[int] = None,
    coupled_radius: bool = False,
) -> PdivStudyResult:
    """Estimate the probability that a coupled pair's fine exit lands more
    than ``radius`` away from its coarse exit.

    Each width eps runs ``m`` pairs at (eps, eps/16). With
    ``coupled_radius=True`` the radius shrinks with the width as
    radius * (eps/max_eps)^(1/(2 alpha + 1)) instead of staying fixed.
    """
    if radius >= problem.domain.diameter:
        raise ValueError("radius must be below the domain diameter")
    if any(e >= radius for e in eps_list):
        raise ValueError("all widths must be below the radius")
    if m < 1:
        raise ValueError("m must be positive")
    eps_max = max(eps_list)
    alpha = problem.bc.holder_alpha

    rows = []
    for idx, eps in enumerate(eps_list):
        cell = _CTX_PDIV | idx
        batch = walk.run_many(
            problem.domain,
            problem.start,
            [eps, eps / _PDIV_ETA],
            master_seed=seed,
            context=estimator.stream_context(cell),
            level=0,
            count=m,
            threads=threads,
        )
        gap2 = np.sum((batch.exits[1] - batch.exits[0]) ** 2, axis=1)
        r_eff = radius
        if coupled_radius:
            r_eff = radius * (eps / eps_max) ** (1.0 / (2.0 * alpha + 1.0))
        div = int(np.sum(gap2 > r_eff * r_eff))
        if div < 20:
            warnings.warn(
                f"only {div} divergence events at eps={eps:g}; estimate unstable",
                stacklevel=2,
            )
        rows.append(
            {
                "eps": float(eps),
                "radius": float(r_eff),
                "m": int(m),
                "divergences": div,
                "p_hat": div / m,
            }
        )
    rows.sort(key=lambda r: r["eps"])
    positive = [r for r in rows if r["p_hat"] > 0.0]
    fit = None
    if len(positive) >= 2:
        fit = fit_loglog([r["eps"] for r in positive], [r["p_hat"] for r in positive])
    elif len(positive) < len(rows):
        warnings.warn("too few positive divergence estimates for a fit", stacklevel=2)
    return PdivStudyResult(rows=rows, fit=fit)


@dataclass
class WorkErrorStudyResult:
    """Per-run records, per-(method, eps) aggregates, and per-method log-log
    fits of RMS error against mean work."""

    records: list
    points: dict
    fits: dict

    def to_csv(self) -> str:
        return render_csv(
            "method,eps_target,eta,rep,value,error,work,wall_time_s",
            [{**vars(r), "rep": r.rep_seed, "wall_time_s": 0.0} for r in self.records],
        )

    def summary(self) -> dict:
        return {
            "study": "workerr",
            "fits": {k: vars(v) for k, v in self.fits.items()},
            "points": {
                method: [
                    {
                        "eps_target": p[0],
                        "rms_error": p[1],
                        "rms_ci": p[2],
                        "mean_work": p[3],
                    }
                    for p in pts
                ]
                for method, pts in self.points.items()
            },
        }


def work_error_study(
    problem: Problem,
    methods: Sequence[str],
    eps_targets: Sequence[float],
    eta: float,
    reps: int = 20,
    seed: int = 0,
    threads: Optional[int] = None,
    warmup: int = estimator.DEFAULT_WARMUP,
) -> WorkErrorStudyResult:
    """Compare estimators by repeated independent runs per error target.

    Every (method, eps_target, rep) cell is a full estimator run with its
    own stream context; a (method, eps_target)'s reps run in lockstep
    through :func:`estimator.solve_reps`. Per cell we record the error against the problem's
    reference solution and the total work in walk steps. Aggregates are RMS
    error and mean work per (method, eps_target); the per-method log-log fit
    of RMS error versus mean work measures the convergence rate.
    """
    if reps < 5:
        raise ValueError("reps must be at least 5")
    truth = problem.reference_solution
    if truth is None:
        raise ValueError("work-error study needs a problem with a reference solution")
    methods = sorted({m.upper() for m in methods})
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
    eps_targets = sorted(float(e) for e in eps_targets)

    records = []
    points = {m: [] for m in methods}
    fits = {}
    for mi, method in enumerate(methods):
        for ei, eps in enumerate(eps_targets):
            cells = [
                _CTX_WORKERR | (((mi * len(eps_targets) + ei) * reps) + rep) for rep in range(reps)
            ]
            reports = estimator.solve_reps(
                problem, method, eps, cells, eta, warmup=warmup, seed=seed, threads=threads
            )
            values = [report.value for report in reports]
            works = [report.total_steps for report in reports]
            for rep, report in enumerate(reports):
                records.append(
                    StudyRecord(
                        method=method,
                        eps_target=eps,
                        eta=float(eta),
                        rep_seed=rep,
                        error=abs(report.value - truth),
                        work=report.total_steps,
                        value=report.value,
                    )
                )
            rms, ci = rms_error(values, truth)
            points[method].append((eps, rms, ci, float(np.mean(works))))
        xs = [p[3] for p in points[method]]
        ys = [p[1] for p in points[method]]
        if len(xs) >= 2 and all(y > 0 for y in ys):
            fits[method] = fit_loglog(xs, ys)
    records.sort(key=lambda r: (r.method, r.eps_target, r.rep_seed))
    return WorkErrorStudyResult(records=records, points=points, fits=fits)
