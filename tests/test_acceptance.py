"""Acceptance suite: every criterion at its stated scale and tolerance,
one printed pass/fail line each (run with ``pytest -v -s`` to stream them).

The error-versus-work sweep backing criteria 4-6 runs once as a module
fixture (the finest target dominates the runtime; expect several minutes).
Criterion 5 encodes thresholds that sit beyond the multilevel crossover at
these sweep widths; it is implemented exactly as stated and reports honestly.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

import mlwos
from mlwos.estimator import (
    adaptive_mlmc,
    allocation_targets,
    build_ladder,
    mc_estimate,
    sample_level,
)
from mlwos.geometry import ball_problem, get_problem
from mlwos.studies import fit_loglog, pdiv_study, rms_error, variance_study, work_error_study
from mlwos.walk import run_many

THREADS = 2
SWEEP = [0.1, 0.03, 0.01, 0.003, 0.001]
SQUARE = get_problem("square")
HEMI = get_problem("hemisphere")


def _report(criterion: str, passed: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


def _rms(point) -> str:
    # point is (eps, rms, rms_ci, mean_work); show the rms with its half-width
    return f"{point[1]:.2e}+-{point[2]:.1e}"


def _work_at_error(fit, error: float) -> float:
    # fit is log(rms) = intercept + slope * log(work); invert at the error
    return math.exp((math.log(error) - fit.intercept) / fit.slope)


@pytest.fixture(scope="module")
def workerr():
    return work_error_study(
        SQUARE,
        methods=["WOS", "MLWOS", "MEAS"],
        eps_targets=SWEEP,
        eta=16.0,
        reps=20,
        seed=2024,
        threads=THREADS,
    )


def test_c01_hemisphere_accuracy():
    truth = (0.2 ** 2 + 0.3 ** 2 + 1.1 ** 2) ** -0.5
    assert truth == pytest.approx(0.863868, abs=5e-7)
    values, stats = [], []
    for seed in range(10):
        rep = adaptive_mlmc(HEMI, 1e-3, 16.0, warmup=100, seed=seed, threads=THREADS)
        values.append(rep.value)
        stats.append(rep.stat_error)
    rms, _ = rms_error(values, truth)
    bound = 2.0 * (float(np.mean(stats)) + 1e-3)
    ok = _report("C1 hemisphere accuracy", rms <= bound, f"rms={rms:.2e} bound={bound:.2e}")
    assert ok


def test_c02_variance_decay_rate():
    res = variance_study(
        SQUARE, eta=2.0, eps0=0.5, num_levels=6, m_per_level=10_000,
        seed=7, threads=THREADS, reps=10,
    )
    s = res.fit.slope
    ok = 0.35 <= s <= 0.65 and s >= 1.0 / 3.0 - 0.05
    ok = _report("C2 variance decay", ok, f"fitted s={s:.3f} target [0.35, 0.65]")
    assert ok


def test_c03_divergence_probability():
    res = pdiv_study(
        SQUARE, [0.05, 0.025, 0.0125, 0.00625], radius=0.2, m=100_000,
        seed=13, threads=THREADS,
    )
    slope = res.fit.slope
    ok = _report("C3 divergence probability", 0.75 <= slope <= 1.25,
                 f"fitted slope={slope:.3f} target [0.75, 1.25]")
    assert ok


def test_c04_plain_wos_work_scaling(workerr):
    slope = workerr.fits["WOS"].slope
    ok = _report("C4 WOS error-vs-work", -0.50 <= slope <= -0.40,
                 f"fitted slope={slope:.3f} target [-0.50, -0.40]")
    assert ok


def test_c05_meas_beats_wos(workerr):
    wos_fit = workerr.fits["WOS"]
    meas = {p[0]: p for p in workerr.points["MEAS"]}
    wos = {p[0]: p for p in workerr.points["WOS"]}
    checks = []
    ratios = {}
    raw = {}
    for eps in (0.01, 0.003, 0.001):
        _, rms, _, work_meas = meas[eps]
        work_wos = _work_at_error(wos_fit, rms)
        ratios[eps] = work_wos / work_meas
        raw[eps] = wos[eps][3] / work_meas
        checks.append(work_meas <= 1.1 * work_wos)
    finest_ok = ratios[0.001] >= 1.2
    detail = " ".join(
        f"eps={e:g}:WOS/MEAS={r:.2f}(raw {raw[e]:.2f}, "
        f"rms MEAS {_rms(meas[e])} WOS {_rms(wos[e])})"
        for e, r in ratios.items()
    )
    ok = _report("C5 MEAS vs WOS", all(checks) and finest_ok,
                 f"{detail} (need <=1.1x everywhere, >=1.2 at finest)")
    assert ok


def test_c06_mlwos_analytic_gap(workerr):
    meas_fit = workerr.fits["MEAS"]
    mlwos = {p[0]: p for p in workerr.points["MLWOS"]}
    meas = {p[0]: p for p in workerr.points["MEAS"]}
    checks = []
    details = []
    for eps in (0.01, 0.003, 0.001):
        _, rms, _, work_mlwos = mlwos[eps]
        work_meas = _work_at_error(meas_fit, rms)
        checks.append(work_mlwos >= work_meas)
        details.append(
            f"eps={eps:g}:MLWOS/MEAS={work_mlwos / work_meas:.2f}"
            f"(raw {work_mlwos / meas[eps][3]:.2f}, rms ratio {rms / meas[eps][1]:.2f}, "
            f"rms MLWOS {_rms(mlwos[eps])} MEAS {_rms(meas[eps])})"
        )
    ok = _report("C6 MLWOS performs poorly", all(checks),
                 " ".join(details) + " (need >=1 at matched error)")
    assert ok


def test_c07_exact_algebraic_suite():
    t0 = time.perf_counter()
    # allocation constraint and homogeneity
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = rng.uniform(0.01, 2.0, 4)
        w = rng.uniform(0.5, 20.0, 4)
        eps = rng.uniform(1e-3, 0.2)
        targets = allocation_targets(v, w, eps)
        assert abs(np.sum(v / targets) - eps ** 2) <= 1e-12 * eps ** 2
        np.testing.assert_allclose(
            allocation_targets(3.0 * v, w, eps), 3.0 * targets, rtol=1e-12
        )
    # ladder exactness
    lad = build_ladder(0.0125, 2.0, 0.1)
    assert lad.eps == (0.1, 0.05, 0.025, 0.0125)
    assert build_ladder(3.90625e-4, 16.0, 0.1).eps == (0.1, 6.25e-3, 3.90625e-4)
    # degenerate coupling
    [(diff, _)] = sample_level(SQUARE, [((0.05, 0.05), 0, 0, 0, 1)], seed=3, threads=1)
    assert diff[0] == 0.0
    # rms and fit trivial cases
    assert rms_error([1.0, 3.0], 2.0)[0] == 1.0
    assert rms_error([2.0, 2.0, 2.0], 2.0)[0] == 0.0
    fit = fit_loglog([1.0, 10.0], [1.0, 100.0])
    assert fit.slope == pytest.approx(2.0) and fit.intercept == pytest.approx(0.0, abs=1e-12)
    assert fit_loglog([1.0, 2.0, 4.0], [3.0, 3.0, 3.0]).slope == pytest.approx(0.0, abs=1e-14)
    elapsed = time.perf_counter() - t0
    ok = _report("C7 exact algebra", elapsed < 1.0, f"completed in {elapsed:.3f}s")
    assert ok


def test_c08_determinism_across_threads(tmp_path, cli_env):
    commands = {
        "solve": ["solve", "--problem", "hemisphere", "--method", "meas",
                  "--eps", "5e-3", "--eta", "16", "--seed", "3"],
        "study-variance": ["study-variance", "--problem", "square", "--eps", "0.4",
                           "--levels", "3", "--m", "200", "--reps", "2", "--seed", "3"],
        "study-pdiv": ["study-pdiv", "--problem", "square", "--m", "2000",
                       "--eps-list", "0.05,0.025", "--seed", "3"],
        "study-workerr": ["study-workerr", "--problem", "square", "--method", "wos,meas",
                          "--eps-list", "0.1,0.03", "--reps", "5", "--seed", "3"],
    }
    all_ok = True
    for name, argv in commands.items():
        blobs = []
        for threads in (1, 4, 8):
            out = tmp_path / f"{name}_t{threads}.out"
            proc = subprocess.run(
                [sys.executable, "-m", "mlwos"] + argv
                + ["--threads", str(threads), "--output", str(out)],
                cwd=tmp_path, env=cli_env, capture_output=True, text=True, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append(out.read_bytes())
        all_ok &= blobs[0] == blobs[1] == blobs[2]
    ok = _report("C8 determinism", all_ok, "byte-identical artifacts for threads 1/4/8")
    assert ok


def test_c09_ball_fixture_statistics():
    linear = ball_problem(2, data="x1")
    rep = mc_estimate(linear, 1e-3, m=100_000, seed=17, threads=THREADS)
    centered = abs(rep.value) <= 3.0 * rep.stat_error
    const = mc_estimate(ball_problem(2), 1e-3, m=1000, seed=17, threads=THREADS)
    exact = const.value == 1.0 and const.level_stats[0].variance == 0.0
    ok = _report("C9 ball fixtures", centered and exact,
                 f"|x1 estimate|={abs(rep.value):.2e} <= {3 * rep.stat_error:.2e}; "
                 f"constant value={const.value}")
    assert ok


def test_c10_path_length_scaling():
    grid = [1e-1, 1e-2, 1e-3, 1e-4]
    means = []
    for i, eps in enumerate(grid):
        batch = run_many(
            SQUARE.domain, SQUARE.start, [eps], master_seed=23, context=i,
            count=10_000, threads=THREADS,
        )
        means.append(float(batch.steps[0].mean()))
    x = np.log(1.0 / np.asarray(grid)) ** 2
    slope, intercept = np.polyfit(x, means, 1)
    fitted = slope * x + intercept
    r2 = 1.0 - float(np.sum((means - fitted) ** 2)) / float(np.sum((means - np.mean(means)) ** 2))
    ok = _report("C10 path-length scaling", slope > 0.0 and r2 > 0.95,
                 f"b={slope:.3f} r2={r2:.4f}")
    assert ok
