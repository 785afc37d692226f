import math

import numpy as np
import pytest

from mlwos import estimator, studies, walk
from mlwos.geometry import ball_problem, get_problem, square_problem
from mlwos.studies import (
    fit_loglog,
    pdiv_study,
    rms_error,
    variance_study,
    work_error_study,
)

SQUARE = square_problem()


class TestRmsError:
    def test_symmetric_pair(self):
        rms, ci = rms_error([1.0, 3.0], 2.0)
        assert rms == 1.0

    def test_exact_values(self):
        rms, ci = rms_error([2.0, 2.0, 2.0], 2.0)
        assert rms == 0.0
        assert ci == 0.0

    def test_mixed(self):
        rms, _ = rms_error([0.0, 2.0], 0.0)
        assert rms == pytest.approx(math.sqrt(2.0))

    def test_ci_shrinks_with_samples(self):
        rng = np.random.default_rng(0)
        small = rms_error(rng.normal(0, 1, 50), 0.0)[1]
        large = rms_error(rng.normal(0, 1, 5000), 0.0)[1]
        assert large < small

    def test_rejects_single_value(self):
        with pytest.raises(ValueError):
            rms_error([1.0], 0.0)


class TestFitLoglog:
    def test_quadratic(self):
        fit = fit_loglog([1.0, 10.0], [1.0, 100.0])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_constant(self):
        fit = fit_loglog([1.0, 2.0, 4.0], [3.0, 3.0, 3.0])
        assert fit.slope == pytest.approx(0.0, abs=1e-14)
        assert fit.r_squared == 1.0

    def test_exact_power_law(self):
        xs = [1.0, 4.0, 16.0]
        ys = [3.0 * x ** -0.5 for x in xs]
        fit = fit_loglog(xs, ys)
        assert fit.slope == pytest.approx(-0.5, rel=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_loglog([1.0, -2.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            fit_loglog([1.0, 2.0], [0.0, 1.0])

    def test_rejects_degenerate_abscissae(self):
        with pytest.raises(ValueError):
            fit_loglog([2.0, 2.0], [1.0, 3.0])


class TestVarianceStudy:
    def test_constant_data_flagged_degenerate(self):
        res = variance_study(
            ball_problem(2), eta=2.0, eps0=0.2, num_levels=2, m_per_level=100,
            seed=0, threads=1, reps=2,
        )
        assert res.degenerate
        assert res.fit is None
        assert all(n == 0.0 for n in res.level_norms)

    def test_square_decay_smaller_scale(self):
        res = variance_study(
            SQUARE, eta=2.0, eps0=0.5, num_levels=5, m_per_level=2000,
            seed=1, threads=2, reps=2,
        )
        assert not res.degenerate
        # norms beyond the first level shrink as the widths shrink
        # (generous slack covers the sampling noise of the norm estimates)
        for a, b in zip(res.level_norms[1:], res.level_norms[2:]):
            assert b <= 1.25 * a
        assert res.level_norms[-1] < res.level_norms[1]
        assert 0.2 < res.fit.slope < 0.8

    def test_csv_schema_and_purity(self):
        kwargs = dict(eta=2.0, eps0=0.4, num_levels=2, m_per_level=150, seed=3, threads=1, reps=2)
        a = variance_study(SQUARE, **kwargs)
        b = variance_study(SQUARE, **kwargs)
        assert a.to_csv() == b.to_csv()
        lines = a.to_csv().strip().split("\n")
        assert lines[0] == "level,eps,l2_norm,variance,mean_steps,rep"
        assert len(lines) == 1 + 2 * 2

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            variance_study(SQUARE, eta=2.0, eps0=0.4, num_levels=2, m_per_level=50)

    def test_one_draw_gives_the_per_level_draws(self, monkeypatch):
        """Every level of every repeat comes from one ``sample_level``
        call, and the rows are those of one draw per level."""
        kwargs = dict(eta=2.0, eps0=0.4, num_levels=3, m_per_level=150, seed=3, threads=1, reps=2)
        draws = []
        sample_level = estimator.sample_level

        def counted(*args, **kw):
            draws.append(len(args[1]))
            return sample_level(*args, **kw)

        monkeypatch.setattr(estimator, "sample_level", counted)
        rows = variance_study(SQUARE, **kwargs).rows
        assert draws == [3 * 2]
        eps = [0.4 / 2.0 ** l for l in range(4)]
        for level in range(1, 4):
            segments = [((eps[level - 1], eps[level]), level,
                         estimator.stream_context(studies._CTX_VARIANCE | (rep * 4 + level)), 0,
                         150) for rep in range(2)]
            for rep, (diffs, work) in enumerate(sample_level(SQUARE, segments, seed=3)):
                row = rows[(level - 1) * 2 + rep]
                assert (row["level"], row["rep"]) == (level, rep)
                assert row["variance"] == float(np.var(diffs, ddof=1))
                assert row["mean_steps"] == work / 150


class TestPdivStudy:
    def test_probability_bounded_and_fit(self):
        res = pdiv_study(SQUARE, [0.05, 0.025], radius=0.2, m=2000, seed=0, threads=2)
        for row in res.rows:
            assert 0.0 <= row["p_hat"] <= 1.0
            assert row["divergences"] == int(row["p_hat"] * row["m"])
        assert res.fit is not None

    def test_p_hat_decreases_with_eps(self):
        res = pdiv_study(
            SQUARE, [0.05, 0.0125], radius=0.2, m=4000, seed=2, threads=2
        )
        by_eps = {r["eps"]: r for r in res.rows}
        p_small, p_big = by_eps[0.0125]["p_hat"], by_eps[0.05]["p_hat"]
        slack = 2.0 * math.sqrt(p_big * (1 - p_big) / 4000)
        assert p_small <= p_big + 2.0 * slack

    def test_warns_on_rare_events(self):
        with pytest.warns(UserWarning, match="divergence"):
            pdiv_study(SQUARE, [0.004], radius=0.3, m=200, seed=0, threads=1)

    def test_coupled_radius_variant(self):
        res = pdiv_study(
            SQUARE, [0.05, 0.025], radius=0.2, m=500, seed=1, threads=1,
            coupled_radius=True,
        )
        radii = {r["eps"]: r["radius"] for r in res.rows}
        assert radii[0.05] == pytest.approx(0.2)
        assert radii[0.025] == pytest.approx(0.2 * 0.5 ** (1.0 / 3.0))

    def test_csv_schema(self):
        res = pdiv_study(SQUARE, [0.05], radius=0.2, m=300, seed=0, threads=1)
        lines = res.to_csv().strip().split("\n")
        assert lines[0] == "eps,radius,m,divergences,p_hat"

    def test_rejects_radius_geq_diameter(self):
        with pytest.raises(ValueError):
            pdiv_study(SQUARE, [0.05], radius=5.0, m=100)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_rejects_nonfinite_radius(self, radius):
        """A NaN radius passes both ordering checks and counts no
        divergence at all."""
        with pytest.raises(ValueError, match="radius"):
            pdiv_study(SQUARE, [0.05], radius=radius, m=100)

    def test_rejects_eps_geq_radius(self):
        with pytest.raises(ValueError):
            pdiv_study(SQUARE, [0.4], radius=0.3, m=100)

    def test_rejects_empty_eps_list(self):
        with pytest.raises(ValueError, match="eps_list"):
            pdiv_study(SQUARE, [], radius=0.3, m=100)


class TestWorkErrorStudy:
    def test_requires_reference(self):
        prob = ball_problem(2, data="x1", start=(0.3, 0.2))
        assert prob.reference_solution is None
        with pytest.raises(ValueError, match="reference"):
            work_error_study(prob, ["WOS"], [0.05, 0.02], eta=2.0, reps=5, seed=0)

    def test_records_and_fits(self):
        res = work_error_study(
            SQUARE, ["wos", "meas"], [0.05, 0.01], eta=16.0, reps=5, seed=11, threads=2
        )
        assert sorted({r.method for r in res.records}) == ["MEAS", "WOS"]
        assert len(res.records) == 2 * 2 * 5
        assert all(r.work >= 1 for r in res.records)
        assert set(res.fits) == {"MEAS", "WOS"}
        assert res.fits["WOS"].slope < 0.0

    def test_error_decreases_with_target(self):
        res = work_error_study(
            SQUARE, ["WOS"], [0.1, 0.01], eta=16.0, reps=6, seed=3, threads=2
        )
        pts = {p[0]: p for p in res.points["WOS"]}
        rms_fine, ci_fine = pts[0.01][1], pts[0.01][2]
        rms_coarse, ci_coarse = pts[0.1][1], pts[0.1][2]
        assert rms_fine <= rms_coarse + 2.0 * (ci_fine + ci_coarse)

    def test_purity_and_schema(self):
        kwargs = dict(eps_targets=[0.1, 0.05], eta=16.0, reps=5, seed=7, threads=1)
        a = work_error_study(SQUARE, ["WOS"], **kwargs)
        b = work_error_study(SQUARE, ["WOS"], **kwargs)
        assert a.to_csv() == b.to_csv()
        lines = a.to_csv().strip().split("\n")
        assert lines[0] == "method,eps_target,eta,rep,value,error,work,wall_time_s"
        assert len(lines) == 1 + 10
        # canonical ordering: method, then eps ascending, then rep
        cols = [line.split(",")[:2] for line in lines[1:]]
        assert cols == sorted(cols, key=lambda c: (c[0], float(c[1])))

    def test_identical_seeds_zero_spread(self):
        a = work_error_study(SQUARE, ["MEAS"], [0.05], eta=16.0, reps=5, seed=9, threads=1)
        b = work_error_study(SQUARE, ["MEAS"], [0.05], eta=16.0, reps=5, seed=9, threads=4)
        assert a.to_csv() == b.to_csv()

    def test_cells_share_each_rounds_calls(self, monkeypatch):
        """The 45 runs of the benchmark's sweep share at most 10 engine
        calls (32 at this seed when each (method, eps) cell made its own),
        and every record is that of its cell's own ``solve_reps``, bit for
        bit."""
        counts = []
        run_many = walk.run_many

        def counted(*args, **kwargs):
            counts.append(kwargs["count"])
            return run_many(*args, **kwargs)

        monkeypatch.setattr(walk, "run_many", counted)
        methods, targets = ("WOS", "MLWOS", "MEAS"), (0.1, 0.03, 0.01)
        res = work_error_study(SQUARE, methods, targets, eta=16.0, reps=5, threads=1)
        assert len(counts) <= 10
        monkeypatch.undo()
        for cell, (method, eps) in enumerate((m, e) for m in sorted(methods) for e in sorted(targets)):
            contexts = [studies._CTX_WORKERR | (cell * 5 + rep) for rep in range(5)]
            reports = estimator.solve_reps(SQUARE, method, eps, contexts, 16.0, threads=1)
            got = [r for r in res.records if (r.method, r.eps_target) == (method, eps)]
            assert [(r.rep_seed, r.value, r.work) for r in got] == [
                (rep, report.value, report.total_steps) for rep, report in enumerate(reports)
            ]

    def test_rejects_few_reps(self):
        with pytest.raises(ValueError):
            work_error_study(SQUARE, ["WOS"], [0.1], eta=2.0, reps=3)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            work_error_study(SQUARE, ["XYZ"], [0.1], eta=2.0, reps=5)

    def test_rejects_empty_methods(self):
        with pytest.raises(ValueError, match="methods"):
            work_error_study(SQUARE, [], [0.1], eta=2.0, reps=5)

    def test_rejects_empty_eps_targets(self):
        with pytest.raises(ValueError, match="eps_targets"):
            work_error_study(SQUARE, ["WOS"], [], eta=2.0, reps=5)
