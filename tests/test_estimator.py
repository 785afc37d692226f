import dataclasses
import functools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mlwos import estimator, walk
from mlwos.estimator import (
    Ladder,
    _Levels,
    adaptive_mlmc,
    allocation_targets,
    auto_sample_count,
    build_ladder,
    coarsest_level,
    default_ladder,
    mc_estimate,
    mlmc_estimate,
    model_allocation,
    optimal_allocation,
    sample_level,
    solve,
    solve_cells,
    solve_reps,
    stream_context,
)
from mlwos.geometry import ball_problem, get_problem, hemisphere_problem, square_problem
from mlwos.walk import StepLimitExceeded, resolve_threads, run_many

SQUARE = square_problem()
HEMI = hemisphere_problem()


class TestLadder:
    def test_three_level_example(self):
        lad = build_ladder(0.0125, 2.0, 0.1)
        assert lad.levels == 3
        assert lad.eps == (0.1, 0.05, 0.025, 0.0125)
        assert lad.eps0 == 0.1

    def test_single_level_when_hint_reaches_target(self):
        lad = build_ladder(0.1, 16.0, 0.1)
        assert lad.levels == 0
        assert lad.eps == (0.1,)

    def test_eta_sixteen_exact(self):
        lad = build_ladder(3.90625e-4, 16.0, 0.1)
        assert lad.levels == 2
        assert lad.eps == (0.1, 6.25e-3, 3.90625e-4)

    def test_finest_width_is_target_exactly(self):
        for eta in (2.0, 3.0, 16.0):
            lad = build_ladder(1e-3, eta, 0.37)
            assert lad.eps[-1] == 1e-3
            assert lad.eps0 == lad.eps[0]
            ratios = [a / b for a, b in zip(lad.eps, lad.eps[1:])]
            assert all(r == pytest.approx(eta, rel=1e-12) for r in ratios)

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError, match="eta"):
            build_ladder(0.01, 1.0, 0.1)
        with pytest.raises(ValueError, match="eta"):
            build_ladder(0.01, 0.5, 0.1)

    def test_widths_define_eps0_and_levels(self):
        lad = Ladder(eta=2.0, eps=(0.1, 0.05, 0.05))
        assert (lad.eps0, lad.levels) == (0.1, 2)
        with pytest.raises(ValueError, match="at least one width"):
            Ladder(eta=2.0, eps=())

    def test_rejects_target_above_hint(self):
        with pytest.raises(ValueError):
            build_ladder(0.2, 2.0, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_ladder_rejects_nonfinite_eta_and_widths(self, bad):
        with pytest.raises(ValueError, match="eta must be finite"):
            Ladder(eta=bad, eps=(0.1,))
        with pytest.raises(ValueError, match="widths must be finite"):
            Ladder(eta=2.0, eps=(bad,))
        with pytest.raises(ValueError, match="widths must be finite"):
            Ladder(eta=2.0, eps=(0.1, bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_build_ladder_rejects_nonfinite_inputs(self, bad):
        with pytest.raises(ValueError, match="widths must be finite"):
            build_ladder(bad, 2.0, 0.1)
        with pytest.raises(ValueError, match="widths must be finite"):
            build_ladder(0.01, 2.0, bad)
        with pytest.raises(ValueError, match="eta must be finite"):
            build_ladder(0.01, bad, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_default_ladder_rejects_nonfinite_inputs(self, bad):
        with pytest.raises(ValueError, match="widths must be finite"):
            default_ladder(SQUARE, bad, 16.0)
        with pytest.raises(ValueError, match="eta must be finite"):
            default_ladder(SQUARE, 1e-3, bad)

    @pytest.mark.parametrize("eps", [0.0, -0.01])
    def test_default_ladder_rejects_nonpositive_target(self, eps):
        with pytest.raises(ValueError, match="positive"):
            default_ladder(SQUARE, eps, 16.0)

    def test_default_ladder_respects_start_distance(self):
        for prob in (SQUARE, HEMI):
            d0 = prob.domain.distance_to_boundary(prob.start)
            for eta in (2.0, 16.0):
                lad = default_ladder(prob, 1e-3, eta)
                assert lad.eps[0] < d0
                assert lad.eps[-1] == 1e-3
                assert lad.eps[0] * eta > 0.9 * d0  # deepest admissible


class TestAutoSampleCount:
    def test_unit_variance(self):
        assert auto_sample_count(1.0, 0.1) == 100

    def test_zero_variance_floor(self):
        assert auto_sample_count(0.0, 0.1) == 2

    def test_quarter_variance(self):
        assert auto_sample_count(0.25, 0.05) == 100

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            auto_sample_count(-1.0, 0.1)


class TestOptimalAllocation:
    def test_worked_example(self):
        m = optimal_allocation([1.0, 0.25], [1.0, 4.0], 0.1)
        assert m == [200, 50]
        assert 1.0 / 200 + 0.25 / 50 == pytest.approx(0.01)

    def test_single_level_reduces_to_equilibration(self):
        for v, w, eps in ((1.0, 1.0, 0.1), (0.3, 7.0, 0.02)):
            assert optimal_allocation([v], [w], eps) == [auto_sample_count(v, eps)]

    @settings(max_examples=300, deadline=None)
    @given(
        levels=st.lists(
            st.tuples(
                st.just(0.0) | st.floats(1e-12, 1e6),  # V_l
                st.floats(1e-6, 1e8),  # w_l
            ),
            min_size=1,
            max_size=12,
        ),
        eps=st.floats(1e-6, 10.0),
    )
    def test_constraint_holds_pre_rounding(self, levels, eps):
        """sum V_l / M_l = eps^2 over the levels with V_l > 0."""
        v, w = np.array(levels).T
        assume(np.any(v > 0.0))
        targets = allocation_targets(v, w, eps)
        used = v > 0.0
        assert np.sum(v[used] / targets[used]) == pytest.approx(eps ** 2, rel=1e-12)

    def test_variance_scaling_homogeneity(self):
        v = np.array([1.0, 0.3, 0.05])
        w = np.array([1.0, 3.0, 9.0])
        base = allocation_targets(v, w, 0.05)
        scaled = allocation_targets(4.0 * v, w, 0.05)
        np.testing.assert_allclose(scaled, 4.0 * base, rtol=1e-12)

    def test_allocation_structure(self):
        v = np.array([0.9, 0.2, 0.03])
        w = np.array([2.0, 5.0, 11.0])
        targets = allocation_targets(v, w, 0.1)
        expected = np.sqrt(v / w) * np.sum(np.sqrt(v * w)) / 0.1 ** 2
        np.testing.assert_allclose(targets, expected, rtol=1e-13)

    def test_zero_variance_level_floors_at_two(self):
        assert optimal_allocation([0.0, 1.0], [1.0, 1.0], 0.1)[0] == 2

    def test_rejects_nonpositive_work(self):
        with pytest.raises(ValueError, match="works"):
            optimal_allocation([1.0], [0.0], 0.1)


class TestResolveThreads:
    def test_explicit_value_then_environment(self, monkeypatch):
        monkeypatch.setenv("MLWOS_THREADS", "3")
        assert resolve_threads(None) == 3
        assert resolve_threads(2) == 2

    @pytest.mark.parametrize("value", ["abc", "2.5", "0", "-4"])
    def test_malformed_environment_rejected(self, monkeypatch, value):
        monkeypatch.setenv("MLWOS_THREADS", value)
        with pytest.raises(ValueError, match="MLWOS_THREADS"):
            resolve_threads(None)
        with pytest.raises(ValueError, match="MLWOS_THREADS"):
            mc_estimate(SQUARE, 0.1, m=10, seed=0)
        assert resolve_threads(1) == 1


class TestStreamContext:
    def test_packs_base_and_substream_tag(self):
        assert stream_context(5) == 80
        assert stream_context(5, 15) == 95
        assert stream_context(2 ** 28 - 1, 1) == 2 ** 32 - 15

    @pytest.mark.parametrize("base, sub", [(5, 16), (5, -1), (2 ** 28, 0), (-1, 0)],
                             ids=["tag-16", "tag-negative", "base-2^28", "base-negative"])
    def test_rejects_out_of_range(self, base, sub):
        """A tag of 16 would alias the next base's main substream."""
        with pytest.raises(ValueError, match="4 bits|28 bits"):
            stream_context(base, sub)


class TestModelAllocation:
    def test_single_level_degenerates(self):
        lad = build_ladder(0.1, 2.0, 0.1)
        assert model_allocation(1.0, 5.0, lad) == [auto_sample_count(1.0, 0.1)]

    def test_counts_decrease_across_levels(self):
        lad = build_ladder(0.1 / 8, 2.0, 0.1)
        m = model_allocation(1.0, 10.0, lad)
        assert len(m) == 4
        assert all(a > b for a, b in zip(m, m[1:]))

    def test_doubling_pilot_variance_doubles_counts(self):
        lad = build_ladder(0.0125, 2.0, 0.1)
        eps = np.asarray(lad.eps)
        t1 = allocation_targets(1.0 * (eps / lad.eps0), 3.0 * np.maximum(1, np.arange(4)) ** 2, lad.eps[-1])
        t2 = allocation_targets(2.0 * (eps / lad.eps0), 3.0 * np.maximum(1, np.arange(4)) ** 2, lad.eps[-1])
        np.testing.assert_allclose(t2, 2.0 * t1, rtol=1e-12)
        for a, b in zip(model_allocation(2.0, 3.0, lad), model_allocation(1.0, 3.0, lad)):
            assert a >= b

    def test_model_validation(self):
        lad = build_ladder(0.0125, 2.0, 0.1)
        with pytest.raises(ValueError, match="pilot"):
            model_allocation(-1.0, 1.0, lad)
        with pytest.raises(ValueError, match="pilot"):
            model_allocation(1.0, 0.0, lad)


class TestCoarsestLevel:
    """The drop rule on hand-built warm-up figures: ``costs`` per level and
    (correction, coarse, fine) variances per pair level."""

    def test_tie_drops_the_level(self):
        # sqrt(1 * 1) + sqrt(1 * 4) == sqrt(2.25 * 4)
        assert coarsest_level([1.0, 4.0], [(1.0, 1.0, 2.25)]) == 1
        assert coarsest_level([1.0, 4.0], [(1.0, 1.0, 2.25 + 1e-9)]) == 0

    def test_zero_variances_keep_only_the_finest(self):
        assert coarsest_level([1.0, 3.0, 9.0], [(0.0, 0.0, 0.0)] * 2) == 2

    def test_hemisphere_figures_keep_level_zero(self):
        """Measured at 1e-3 (widths 0.016 and 0.001): 0.575 against 0.588."""
        assert coarsest_level([8.08, 17.09], [(0.00188, 0.0194, 0.0202)]) == 0

    def test_three_levels_can_drop_two(self):
        pairs = [(0.1, 0.24, 0.24), (0.02, 0.24, 0.24)]
        assert coarsest_level([1.0, 2.0, 3.0], pairs) == 2
        # where the finest plain walks cost more, the climb stops one level up
        assert coarsest_level([1.0, 2.0, 4.0], pairs) == 1

    def test_one_level_keeps_it(self):
        assert coarsest_level([5.0], []) == 0


class TestMcEstimate:
    def test_constant_data_is_exact(self):
        rep = mc_estimate(ball_problem(2), 0.05, m=100, seed=0, threads=1)
        assert rep.value == 1.0
        assert rep.level_stats[0].variance == 0.0
        assert rep.stat_error == 0.0
        assert rep.m == (100,)

    def test_hemisphere_against_analytic(self):
        rep = mc_estimate(HEMI, 1e-2, m=10_000, seed=3, threads=2)
        truth = HEMI.reference_solution
        assert abs(rep.value - truth) <= 3.0 * rep.stat_error + 1e-2

    def test_square_auto_count_against_oracle(self):
        rep = mc_estimate(SQUARE, 1e-2, m=None, seed=5, threads=2)
        assert rep.m[0] >= 100
        assert abs(rep.value - SQUARE.reference_solution) <= 3.0 * rep.stat_error + 1e-2
        # count realizes the equilibration at the measured variance
        assert rep.stat_error == pytest.approx(1e-2, rel=0.25)

    def test_auto_matches_explicit_rerun(self):
        auto = mc_estimate(SQUARE, 0.03, m=None, seed=9, threads=1)
        explicit = mc_estimate(SQUARE, 0.03, m=auto.m[0], seed=9, threads=1)
        assert auto.value == explicit.value
        assert auto.total_steps == explicit.total_steps

    def test_work_additivity(self):
        rep = mc_estimate(SQUARE, 0.05, m=500, seed=1, threads=1)
        st = rep.level_stats[0]
        assert rep.total_steps == round(st.mean_steps * st.count)

    def test_rejects_tiny_m(self):
        with pytest.raises(ValueError):
            mc_estimate(SQUARE, 0.05, m=1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_rejects_nonfinite_eps(self, eps):
        """A NaN width compares false against every bound: unchecked, its
        walks never stop and run into the step limit."""
        with pytest.raises(ValueError, match="finite"):
            mc_estimate(SQUARE, eps, seed=1, threads=1)


class TestMlmcEstimate:
    def test_single_level_plan_matches_mc(self):
        lad = build_ladder(0.05, 2.0, 0.05)
        ml = mlmc_estimate(SQUARE, lad, (400,), seed=4, threads=2)
        mc = mc_estimate(SQUARE, 0.05, m=400, seed=4, threads=2)
        assert ml.value == mc.value
        assert ml.total_steps == mc.total_steps
        assert ml.stat_error == mc.stat_error

    def test_degenerate_level_contributes_zero(self):
        lad = Ladder(eta=2.0, eps=(0.05, 0.05))
        rep = mlmc_estimate(SQUARE, lad, (200, 150), seed=6, threads=1)
        assert rep.level_stats[1].mean == 0.0
        assert rep.level_stats[1].variance == 0.0

    def test_telescoping_unbiasedness(self):
        lad = default_ladder(SQUARE, 0.02, 4.0)
        ml_vals, mc_vals, ml_stats, mc_stats = [], [], [], []
        for seed in range(20):
            ml = mlmc_estimate(SQUARE, lad, [600] * (lad.levels + 1), seed=seed, threads=2)
            mc = mc_estimate(SQUARE, 0.02, m=600, seed=seed, threads=2)
            ml_vals.append(ml.value)
            mc_vals.append(mc.value)
            ml_stats.append(ml.stat_error)
            mc_stats.append(mc.stat_error)
        gap = abs(np.mean(ml_vals) - np.mean(mc_vals))
        sem = math.sqrt((np.mean(ml_stats) ** 2 + np.mean(mc_stats) ** 2) / 20)
        assert gap <= 3.0 * sem

    def test_stat_error_formula(self):
        lad = default_ladder(SQUARE, 0.03, 4.0)
        rep = mlmc_estimate(SQUARE, lad, [300] * (lad.levels + 1), seed=2, threads=1)
        expected = math.sqrt(sum(st.variance / st.count for st in rep.level_stats))
        assert rep.stat_error == pytest.approx(expected, rel=1e-12)
        assert rep.value == pytest.approx(sum(st.mean for st in rep.level_stats), rel=1e-12)

    def test_propagates_step_limit(self, monkeypatch):
        monkeypatch.setattr(walk, "run_many", functools.partial(run_many, max_steps=2))
        lad = default_ladder(SQUARE, 1e-4, 16.0)
        with pytest.raises(StepLimitExceeded):
            mlmc_estimate(SQUARE, lad, [50] * (lad.levels + 1), seed=0, threads=1)

    @pytest.mark.parametrize(
        "m", [(100,), (100, 100, 100), (100, 0), (100, 1), (100, 2.9)],
        ids=["short", "long", "zero", "one", "fraction"],
    )
    def test_rejects_bad_counts(self, m):
        """One sample leaves a level's variance unmeasured; a fractional
        count is not a sample count."""
        lad = Ladder(eta=2.0, eps=(0.1, 0.05))
        with pytest.raises(ValueError, match="per level|integers of at least 2"):
            mlmc_estimate(SQUARE, lad, m, threads=1)


class TestAdaptiveMlmc:
    def test_constant_data_stays_at_warmup(self):
        rep = adaptive_mlmc(ball_problem(2), 0.05, 2.0, warmup=50, seed=0, threads=1)
        assert rep.value == 1.0
        assert all(m == 50 for m in rep.m)
        assert rep.stat_error == 0.0

    def test_budgets_decrease_with_level(self):
        rep = adaptive_mlmc(SQUARE, 1e-3, 16.0, warmup=100, seed=3, threads=2)
        assert len(rep.m) >= 2
        assert all(a > b for a, b in zip(rep.m, rep.m[1:]))

    def test_same_seed_bitwise_identical(self):
        a = adaptive_mlmc(HEMI, 5e-3, 16.0, seed=12, threads=1)
        b = adaptive_mlmc(HEMI, 5e-3, 16.0, seed=12, threads=4)
        assert a.value == b.value
        assert a.m == b.m
        assert a.total_steps == b.total_steps
        assert a.stat_error == b.stat_error

    def test_statistical_error_hits_target(self):
        rep = adaptive_mlmc(SQUARE, 5e-3, 16.0, seed=8, threads=2)
        assert rep.stat_error <= 5e-3 * 1.15

    def test_rejects_small_warmup(self):
        with pytest.raises(ValueError):
            adaptive_mlmc(SQUARE, 0.01, 2.0, warmup=1)

    def test_kept_ladder_is_unchanged(self):
        """Where the rule keeps every level, the walks, counts and report
        are those of the estimator without the rule, recorded from it."""
        rep = adaptive_mlmc(HEMI, 3e-3, 16.0, seed=2, threads=1)
        assert rep.dropped == () and "dropped" not in rep.to_dict()
        assert rep.eps == (0.048, 0.003)
        assert rep.m == (3340, 1323)
        assert rep.total_steps == 33516
        assert rep.value == 0.8678873821942146
        assert rep.stat_error == 0.002949331790615549

    def test_dropped_level_becomes_plain(self):
        """With level 0 dropped, level 1's samples are plain walks to its
        width from the streams of level 1: the warm-up pairs' fine records
        and plain top-ups alike. Level 0's warm-up steps count in the work."""
        rep = adaptive_mlmc(SQUARE, 3e-3, 16.0, seed=0, threads=1)
        assert [e for e, _ in rep.dropped] == [0.768]
        assert rep.eps == (0.048, 0.003) and len(rep.m) == 2
        [(values, work)] = sample_level(
            SQUARE, [((0.048,), 1, stream_context(0), 0, rep.m[0])], seed=0, threads=1)
        assert rep.level_stats[0].mean == float(np.mean(values))
        [(_, warmup)] = sample_level(SQUARE, [((0.768,), 0, stream_context(0), 0, 100)], seed=0,
                                     threads=1)
        assert rep.dropped[0][1] == warmup
        kept = sum(round(st.mean_steps * st.count) for st in rep.level_stats)
        assert round(rep.level_stats[0].mean_steps * rep.m[0]) == work
        assert rep.total_steps == kept + warmup

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_rejects_nonfinite_eta(self, eta):
        """Unchecked, a NaN eta builds a one-level ladder and runs plain
        WOS under the MEAS name."""
        with pytest.raises(ValueError, match="eta must be finite"):
            adaptive_mlmc(SQUARE, 0.1, eta=eta, seed=1, threads=1)


class TestReportSchema:
    def test_json_fields(self):
        rep = mc_estimate(ball_problem(2), 0.05, m=50, seed=0, threads=1)
        doc = rep.to_dict()
        assert set(doc) == {
            "value", "eps_target", "eta", "levels", "total_steps",
            "stat_error", "seed", "wall_time_s",
        }
        assert doc["wall_time_s"] == 0.0
        assert set(doc["levels"][0]) == {"level", "eps", "m", "mean", "variance", "mean_steps"}
        json.dumps(doc)

    def test_work_additivity_multilevel(self):
        lad = default_ladder(SQUARE, 0.02, 4.0)
        rep = mlmc_estimate(SQUARE, lad, [200] * (lad.levels + 1), seed=7, threads=1)
        total = sum(round(st.mean_steps * st.count) for st in rep.level_stats)
        assert rep.total_steps == total


class TestSampleLevel:
    # Off-center start, so plain values and pair corrections both vary.
    X1 = ball_problem(2, data="x1", start=(0.3, 0.2))

    def _level(self, widths):
        ctx = stream_context(5)
        [(values, work)] = sample_level(self.X1, [(widths, 2, ctx, 40, 300)], seed=3, threads=1)
        batch = run_many(
            self.X1.domain, self.X1.start, widths, master_seed=3, context=ctx, level=2,
            start_index=40, count=300, threads=1,
        )
        assert np.ptp(values) > 0.0
        assert type(work) is int and work == batch.steps[-1].sum()
        return values, batch

    def test_plain_level_is_boundary_values(self):
        values, batch = self._level((0.01,))
        np.testing.assert_array_equal(values, self.X1.bc(batch.exits[0]))

    def test_pair_level_is_fine_minus_coarse(self):
        values, batch = self._level((0.1, 0.01))
        np.testing.assert_array_equal(
            values, self.X1.bc(batch.exits[1]) - self.X1.bc(batch.exits[0])
        )

    @pytest.mark.parametrize("pack", [1, 50, 8192])
    @pytest.mark.parametrize("widths", [(0.1,), (0.1, 0.01)], ids=["plain", "pair"])
    def test_segments_match_a_call_each(self, widths, pack, monkeypatch):
        """Segments of one width and level packed into calls of at most
        ``pack`` walks, in one call, in several or one by one, give each
        segment's samples as a ``run_many`` call of its own. Such a call
        takes one width row and one level."""
        segments = [(stream_context(9), 0, 30), (stream_context(2), 2 ** 64 - 20, 20),
                    (stream_context(9), 30, 60), (stream_context(4), 7, 1)]
        monkeypatch.setattr(estimator, "_PACK_WALKS", pack)
        drawn = sample_level(self.X1, [(widths, 1, *s) for s in segments], seed=6, threads=1)
        assert len(drawn) == len(segments)
        for (context, start, count), (values, work) in zip(segments, drawn):
            batch = run_many(
                self.X1.domain, self.X1.start, widths, master_seed=6, context=context, level=1,
                start_index=start, count=count, threads=1,
            )
            want = self.X1.bc(batch.exits[-1])
            if len(widths) == 2:
                want = want - self.X1.bc(batch.exits[0])
            np.testing.assert_array_equal(values, want)
            assert work == batch.steps[-1].sum()

    MIXED_WIDTHS = [(0.1,), (0.03,), (0.1, 0.01), (0.1, 0.03), (0.03, 0.01)]

    @settings(max_examples=40, deadline=None)
    @given(
        segments=st.lists(
            st.tuples(
                st.sampled_from(MIXED_WIDTHS), st.integers(0, 2 ** 16 - 1),
                st.sampled_from([stream_context(2), stream_context(9), 2 ** 32 - 1]),
                st.one_of(st.integers(0, 1000), st.just(2 ** 64 - 60)), st.integers(1, 60),
            ),
            min_size=1, max_size=6,
        ),
        pack=st.one_of(st.integers(1, 200), st.just(8192)),
        threads=st.sampled_from([1, 2]),
        fine=st.booleans(),
    )
    @example(
        segments=[((0.1,), 1, stream_context(9), 0, 30),
                  ((0.1, 0.01), 1, stream_context(2), 2 ** 64 - 20, 20),
                  ((0.1, 0.01), 3, stream_context(9), 30, 60), ((0.03,), 0, stream_context(4), 7, 1)],
        pack=50, threads=2, fine=True,
    )
    def test_mixed_segments_match_a_call_each(self, segments, pack, threads, fine):
        """Segments of plain walks and pairs at several widths and levels,
        packed into calls of at most ``pack`` walks and run at an engine
        width of 16 (so a call of 32 walks or more splits across two
        threads), give each segment's samples, fine values and step total
        as a ``run_many`` call of its own, bit for bit."""
        with mock.patch.object(estimator, "_PACK_WALKS", pack), \
                mock.patch.object(walk, "_WIDTH", 16):
            drawn = sample_level(self.X1, segments, seed=6, threads=threads, fine=fine)
        assert len(drawn) == len(segments)
        for (widths, level, context, start, count), got in zip(segments, drawn):
            batch = run_many(
                self.X1.domain, self.X1.start, widths, master_seed=6, context=context,
                level=level, start_index=start, count=count, threads=1,
            )
            fines = self.X1.bc(batch.exits[-1])
            values = fines - self.X1.bc(batch.exits[0]) if len(widths) == 2 else fines
            np.testing.assert_array_equal(got[0], values)
            assert got[1] == batch.steps[-1].sum()
            if fine:
                np.testing.assert_array_equal(got[2], fines)
            else:
                assert len(got) == 2

    def test_rejects_empty_segment(self):
        with pytest.raises(ValueError, match="positive"):
            sample_level(self.X1, [((0.1,), 0, 0, 0, 5), ((0.1,), 0, 0, 5, 0)], seed=0,
                         threads=1)

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("widths", [(0.1,), (0.1, 0.01)], ids=["plain", "pair"])
    def test_chunked_boundary_data_is_whole_array_data(self, widths, threads, monkeypatch):
        """Boundary data read 7 exits at a time equals one call on all
        exits, bit for bit, also when 300 walks at width 64 are split into
        one range per thread."""
        monkeypatch.setattr(estimator, "_BC_ROWS", 7)
        monkeypatch.setattr(walk, "_WIDTH", 64)
        ctx = stream_context(5)
        [(values, _)] = sample_level(self.X1, [(widths, 2, ctx, 40, 300)], seed=3,
                                     threads=threads)
        batch = run_many(
            self.X1.domain, self.X1.start, widths, master_seed=3, context=ctx, level=2,
            start_index=40, count=300, threads=1,
        )
        want = self.X1.bc(batch.exits[-1])
        if len(widths) == 2:
            want = want - self.X1.bc(batch.exits[0])
        np.testing.assert_array_equal(values, want)

    @pytest.mark.parametrize(
        "problem, widths, bound",
        [(square_problem(), (1e-3,), 42), (hemisphere_problem(), (0.016, 1e-3), 85)],
        ids=["square-plain", "hemisphere-pair"],
    )
    def test_traced_peak_per_walk(self, problem, widths, bound, traced_peak):
        """A level of 12 engine widths of walks on one thread peaks at most
        ``bound`` traced bytes per walk: 38.8 measured on the square, 79.4
        for hemisphere pairs (39.4 and 80.0 at stream format 3; making a
        format-4 draw's directions all at once peaks at 44.1 and 82.7). The
        exits and steps (24 and 64 bytes per walk) are the only full-size
        arrays held together: the stops are projected
        in place, a width of rows at a time, and the steps are summed and
        freed before boundary data is read in chunks. Keeping the stops
        beside the exits peaks at 43.3 and 116.7."""
        count = 12 * walk._WIDTH
        peak = traced_peak(
            lambda: sample_level(problem, [(widths, 0, stream_context(1), 0, count)], seed=4,
                                 threads=1)
        )
        assert peak / count <= bound


class TestLevels:
    X1 = ball_problem(2, data="x1", start=(0.3, 0.2))
    EPS = (0.1, 0.03, 0.01)
    WIDTHS = {0: (0.1,), 1: (0.1, 0.03), 2: (0.03, 0.01)}

    @settings(max_examples=40, deadline=None)
    @given(level=st.sampled_from([0, 1, 2]),
           counts=st.lists(st.tuples(st.integers(0, 80), st.integers(1, 80)), min_size=1,
                           max_size=4),
           pack=st.sampled_from([1, 50, 8192]), seed=st.integers(0, 2 ** 64 - 1))
    def test_split_top_up_equals_one_draw(self, level, counts, pack, seed):
        """Topping replica ``r``'s level up to ``a`` then to ``b``, in rounds
        of their own with the other replicas' draws packed into calls of at
        most ``pack`` walks, draws the same samples and step total as one
        ``sample_level`` draw of ``b`` from its own context, bit for bit."""
        contexts = [stream_context(9 + r) for r in range(len(counts))]

        def top_up(levels, need):
            rows = [[n if l == level else 0 for l in range(3)] for n in need]
            estimator._drive(self.X1, [levels.top_up(rows)], seed, 1)

        with mock.patch.object(estimator, "_PACK_WALKS", pack):
            levels = _Levels(self.X1, self.EPS, seed, contexts)
            top_up(levels, [a for a, _ in counts])
            top_up(levels, [a + extra for a, extra in counts])
            top_up(levels, [a for a, _ in counts])  # already held: draws nothing
        for r, (ctx, (a, extra)) in enumerate(zip(contexts, counts)):
            b = a + extra
            [(values, work)] = sample_level(
                self.X1, [(self.WIDTHS[level], level, ctx, 0, b)], seed=seed, threads=1
            )
            np.testing.assert_array_equal(levels.values[r][level], values)
            assert levels.work[r] == [work if l == level else 0 for l in range(3)]
            assert [v.size for v in levels.values[r]] == [b if l == level else 0 for l in range(3)]


class TestSolveReps:
    CONTEXTS = [7, 0, 2 ** 28 - 1, 12]

    @staticmethod
    def _untimed(reports):
        return [dataclasses.replace(r, wall_time=0.0) for r in reports]

    def _sequential(self, method, eps, **kwargs):
        return self._untimed(
            [solve(SQUARE, method, eps, context=c, **kwargs) for c in self.CONTEXTS]
        )

    @pytest.mark.parametrize(
        "method, eps, m",
        [("WOS", 0.03, None), ("WOS", 0.03, 300), ("MLWOS", 0.02, None), ("MEAS", 0.01, None)],
    )
    def test_equals_sequential_solves(self, method, eps, m):
        args = dict(eta=4.0, warmup=50, m=m, seed=5, threads=1)
        got = solve_reps(SQUARE, method, eps, self.CONTEXTS, **args)
        assert self._untimed(got) == self._sequential(method, eps, **args)

    @pytest.mark.parametrize("m, calls", [(3000, [6000, 6000]), (9000, [9000] * 4)])
    def test_packs_straddle_the_limit(self, m, calls, monkeypatch):
        """Four replicas' draws of 3000 fill two calls of 6000, below the
        8192 limit; draws of 9000 each stay one call of their own."""
        counts = []
        run_many = walk.run_many

        def counted(*args, **kwargs):
            counts.append(kwargs["count"])
            return run_many(*args, **kwargs)

        monkeypatch.setattr(walk, "run_many", counted)
        got = solve_reps(SQUARE, "WOS", 0.1, self.CONTEXTS, m=m, seed=2, threads=1)
        assert counts == calls
        monkeypatch.undo()
        assert self._untimed(got) == self._sequential("WOS", 0.1, m=m, seed=2, threads=1)

    @pytest.mark.parametrize("problem, seed, contexts", [
        (SQUARE, 1, [0, 1, 2, 3, 4, 5]), (HEMI, 1, [0, 1, 2, 3]),
    ], ids=["square", "hemisphere"])
    def test_replicas_that_decide_differently(self, problem, seed, contexts):
        """At 3e-3, one level drops for some replicas and two (square) or
        none (hemisphere) for others, so a top-up draws plain walks for
        some and pairs for others; each report is still its own solve's."""
        got = self._untimed(solve_reps(problem, "MEAS", 3e-3, contexts, seed=seed, threads=1))
        assert len({len(r.dropped) for r in got}) == 2
        assert got == self._untimed(
            [solve(problem, "MEAS", 3e-3, seed=seed, threads=1, context=c) for c in contexts]
        )

    def test_cells_equal_solve_reps_each(self):
        """Cells of every method and two targets, run in lockstep, give
        each cell's ``solve_reps`` reports bit for bit."""
        cells = [(method, eps, [3 * i, 3 * i + 1, 3 * i + 2])
                 for i, (method, eps) in enumerate(
                     (m, e) for m in ("WOS", "MLWOS", "MEAS") for e in (0.03, 0.01))]
        got = solve_cells(SQUARE, cells, 4.0, warmup=50, seed=5, threads=1)
        assert [self._untimed(r) for r in got] == [
            self._untimed(solve_reps(SQUARE, method, eps, contexts, 4.0, warmup=50, seed=5,
                                     threads=1))
            for method, eps, contexts in cells
        ]

    def test_step_limit_names_the_first_failing_walk_of_the_round(self, monkeypatch):
        """Walks of both cells exceed a limit of 3 steps in the first
        round, which holds the MLWOS pilot's segment and then the WOS
        pilot's. The error names the first failing pilot walk of the
        MLWOS cell, with its own context, level and sample index, where
        the WOS cell alone names one of its own walks."""
        pilot = run_many(SQUARE.domain, SQUARE.start, [0.16], master_seed=1,
                         context=stream_context(4, 1), count=100, threads=1)
        first = int(np.flatnonzero(pilot.steps[-1] > 3)[0])
        monkeypatch.setattr(walk, "run_many", functools.partial(run_many, max_steps=3))
        with pytest.raises(StepLimitExceeded) as err:
            solve_cells(SQUARE, [("MLWOS", 0.01, [4]), ("WOS", 0.1, [2])], 16.0, seed=1,
                        threads=1)
        assert err.value.key == walk.StreamKey(1, stream_context(4, 1), 0, first)
        with pytest.raises(StepLimitExceeded) as err:
            solve_cells(SQUARE, [("WOS", 0.1, [2])], 16.0, seed=1, threads=1)
        assert err.value.context == stream_context(2)

    def test_rejects_empty_contexts_and_unknown_method(self):
        with pytest.raises(ValueError, match="at least one context"):
            solve_reps(SQUARE, "WOS", 0.1, [])
        with pytest.raises(ValueError, match="unknown method"):
            solve_reps(SQUARE, "mlmc", 0.1, [0])


class TestSolve:
    @pytest.mark.parametrize("method", ["wos", "WOS"])
    @pytest.mark.parametrize("m", [None, 300])
    def test_wos_is_mc_estimate(self, method, m):
        got = solve(SQUARE, method, 0.03, m=m, seed=5, threads=1, context=7)
        want = mc_estimate(SQUARE, 0.03, m=m, seed=5, threads=1, context=7)
        assert got.to_dict() == want.to_dict()

    def test_meas_is_adaptive_mlmc(self):
        got = solve(SQUARE, "MEAS", 0.02, eta=4.0, warmup=50, seed=3, threads=1, context=2)
        want = adaptive_mlmc(SQUARE, 0.02, 4.0, warmup=50, seed=3, threads=1, context=2)
        assert got.to_dict() == want.to_dict()

    def test_mlwos_is_modeled_allocation(self):
        """A 100-sample pilot at the coarsest width on substream 1 anchors
        the s = 1/3, p = 2 polylog model; its steps count in the work."""
        ladder = default_ladder(SQUARE, 0.02, 4.0)
        [(pilot_v, pilot_work)] = sample_level(
            SQUARE, [(ladder.eps[:1], 0, stream_context(6, 1), 0, 100)], seed=4, threads=1
        )
        m = model_allocation(float(np.var(pilot_v, ddof=1)), pilot_work / 100, ladder)
        want = mlmc_estimate(SQUARE, ladder, m, seed=4, threads=1, context=6)
        want.total_steps += pilot_work
        got = solve(SQUARE, "MLWOS", 0.02, eta=4.0, seed=4, threads=1, context=6)
        assert ladder.levels == 2
        assert got.to_dict() == want.to_dict()

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            solve(SQUARE, "mlmc", 0.03, threads=1)
