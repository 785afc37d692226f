import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlwos import walk
from mlwos.geometry import Ball, Hemisphere, Square, ball_problem, square_problem
from mlwos.walk import StepLimitExceeded, StreamKey, philox4x64, run_many, trace_csv

SQUARE = Square()

# (domain, start) pairs covering every stride shape: 1-d and 2-d take two
# steps per Philox block, 3-d one, 5-d two steps per three blocks.
CASES = st.sampled_from([
    (Ball(1), (0.3,)),
    (SQUARE, (0.7, 1.2)),
    (Hemisphere(), (0.2, 0.3, 0.1)),
    (Ball(5), (0.3, 0.0, 0.1, 0.0, 0.0)),
])
# Stopping widths as fractions of the start distance; the fixed values make
# equal consecutive widths likely.
FRACTIONS = st.lists(
    st.sampled_from([0.5, 0.1, 0.02]) | st.floats(0.002, 0.9), min_size=1, max_size=3
)
SEEDS = st.integers(0, 2 ** 64 - 1)
PROPERTY = settings(max_examples=50, deadline=None)
# (context, start index, count) segments of one call with per-walk streams;
# starts near 2**64 - 1 are clipped so the segment's last index fits.
SEGMENTS = st.lists(
    st.tuples(
        st.integers(0, 2 ** 32 - 1),
        st.integers(0, 2 ** 40) | st.integers(2 ** 64 - 100, 2 ** 64 - 1),
        st.integers(1, 40),
    ),
    min_size=1,
    max_size=5,
)


def _thresholds(domain, x0, fractions):
    d0 = domain.distance_to_boundary(x0)
    return sorted((f * d0 for f in fractions), reverse=True)


def _width(width):
    """Run the engine with ``width`` walks in flight per wavefront."""
    return mock.patch.object(walk, "_WIDTH", width)


def _assert_same(a, b):
    np.testing.assert_array_equal(a.stops, b.stops)
    np.testing.assert_array_equal(a.steps, b.steps)


def _u64(v):
    return np.array(v, dtype=np.uint64)


def _per_walk(segments):
    """The per-walk (context, start_index) arrays of ``segments``."""
    context = np.concatenate([np.full(n, c, dtype=np.uint64) for c, _, n in segments])
    start = np.concatenate([_u64(s) + np.arange(n, dtype=np.uint64) for _, s, n in segments])
    return context, start


def _lanes(key, blocks, first=0):
    """Lanes of Philox blocks ``first`` to ``first + blocks - 1`` of stream
    ``key``, as a (4 * blocks,) array."""
    k0, k1 = walk._key_words(key.master_seed, key.context, key.level)
    word = np.array([key.sample_index], dtype=np.uint64)
    return walk._raw_lanes(k0, k1, word, first, blocks)[:, 0]


def _uniforms(lanes):
    return (lanes >> np.uint64(11)) * 2.0 ** -53


def _stream_directions(dim, key, n):
    """The first ``n`` (even) directions of stream ``key``, as (n, dim)."""
    lanes = _lanes(key, n * walk._lanes_per_direction(dim) // 4)
    return walk._directions(dim, lanes[:, None])


class TestPhiloxKernel:
    def test_matches_numpy_bit_generator(self):
        # numpy's Philox emits the block for counter+1 first; our kernel is
        # the pure block function, so shift by one to compare.
        for key in ((0, 0), (12345, 67890), (2 ** 63 + 17, 999)):
            for ctr in ((0, 5), (1234567, 42)):
                ref = np.random.Philox(
                    counter=np.array([ctr[0], ctr[1], 0, 0], dtype=np.uint64),
                    key=np.array(key, dtype=np.uint64),
                )
                raw = ref.random_raw(8)
                zero = _u64(0)
                blocks = []
                for b in (1, 2):
                    out = philox4x64(
                        _u64(ctr[0] + b), _u64(ctr[1]), zero, zero, _u64(key[0]), _u64(key[1])
                    )
                    blocks.extend(int(w) for w in out)
                assert list(raw) == blocks

    def test_vectorized_agrees_with_scalar(self):
        c0 = np.arange(10, dtype=np.uint64)
        word = np.full(10, 3, dtype=np.uint64)
        zero = np.zeros(10, dtype=np.uint64)
        vec = philox4x64(c0, word, zero, zero, _u64(9), _u64(11))
        for i in range(10):
            one = philox4x64(_u64(i), _u64(3), _u64(0), _u64(0), _u64(9), _u64(11))
            assert all(int(v[i]) == int(o) for v, o in zip(vec, one))

    @settings(max_examples=30, deadline=None)
    @given(
        layout=st.sampled_from(["one", "rows", "columns", "grid", "broadcast"]),
        key=st.tuples(SEEDS, SEEDS),
        seed=SEEDS,
    )
    def test_matches_numpy_block_by_block(self, layout, key, seed):
        """Random keys and counters with all four words nonzero, on both
        sides of the switch from same-shape multiplier rows to columns."""
        rng = np.random.default_rng(seed)

        def words(shape):
            return rng.integers(1, 2 ** 64, size=shape, dtype=np.uint64, endpoint=False)

        n = walk._FULL_ROWS_MAX
        shapes = {
            "one": [(1,)] * 4,
            "rows": [(n,)] * 4,
            "columns": [(n + 1,)] * 4,
            "grid": [(3, 1), (5,), (5,), (5,)],  # (blocks, rows), as the engine draws
            "broadcast": [(7,), (7,), (), ()],  # scalar c2, c3
        }[layout]
        ctr = [words(shape) for shape in shapes]
        out = philox4x64(*ctr, _u64(key[0]), _u64(key[1]))
        full = np.broadcast_arrays(*ctr)
        assert all(o.shape == full[0].shape for o in out)
        for i in np.ndindex(full[0].shape):
            # numpy's Philox increments its counter before each block, and
            # c0 >= 1 keeps the decrement here from borrowing from c1.
            c0, c1, c2, c3 = (int(c[i]) for c in full)
            ref = np.random.Philox(counter=_u64([c0 - 1, c1, c2, c3]), key=_u64(key))
            assert [int(o[i]) for o in out] == [int(v) for v in ref.random_raw(4)]

    def test_traced_peak_at_full_width(self):
        """One draw of a block for 16384 rows, the engine's full width,
        holds the (2, rows) state and four round buffers at most: the same
        traced peak as before the buffers were made once per call. It fails
        if full-width multiplier rows or more round buffers are added."""
        k0, k1 = walk._key_words(3, 5, 1)
        words = np.arange(16384, dtype=np.uint64)
        first = np.zeros(16384, dtype=np.int64)
        tracemalloc.start()
        try:
            walk._raw_lanes(k0, k1, words, first, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1700 * 1024

    def test_traced_peak_of_per_walk_streams(self):
        """A full-width ``run_many`` with a context and a sample index per
        walk peaks at most three words per walk above the same call with
        scalar ones (1.6 measured): key words are made at refill for the
        walks entering, and Philox advances one row key in place. A
        (10, rows) table of round keys adds 11.6."""
        count = walk._WIDTH
        context, start = _per_walk(
            [(c, 2 ** 64 - count, count // 4) for c in (7, 1007, 2007, 3007)]
        )
        start += _u64(np.arange(4).repeat(count // 4) * (count // 4))

        def peak(**streams):
            tracemalloc.start()
            try:
                run_many(SQUARE, (1.0, 1.0), [1e-2], master_seed=3, count=count, threads=1,
                         **streams)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        scalar = peak(context=7, start_index=0)
        assert peak(context=context, start_index=start) <= scalar + 3 * 8 * count


class TestStreams:
    """Lanes of one stream, as the engine draws them with ``_raw_lanes``."""

    def test_same_key_same_draws(self):
        key = StreamKey(123, context=4, level=2, sample_index=9)
        np.testing.assert_array_equal(_lanes(key, 250), _lanes(key, 250))

    def test_adjacent_sample_indices_uncorrelated(self):
        k0, k1 = walk._key_words(5, 0, 0)
        words = np.array([100, 101], dtype=np.uint64)
        u = _uniforms(walk._raw_lanes(k0, k1, words, 0, 2500))
        corr = np.corrcoef(u[:, 0], u[:, 1])[0, 1]
        assert abs(corr) < 0.05

    def test_uniform_mean(self):
        u = _uniforms(_lanes(StreamKey(0), 250_000))
        assert abs(u.mean() - 0.5) < 0.002
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_draws_chunk_invariant(self):
        """Draws split at block boundaries, and rows that start at different
        blocks in one call, give the lanes of one whole draw."""
        key = StreamKey(77)
        whole = _lanes(key, 25)
        parts = np.concatenate([_lanes(key, n, first) for first, n in ((0, 1), (1, 9), (10, 15))])
        np.testing.assert_array_equal(whole, parts)
        k0, k1 = walk._key_words(77, 0, 0)
        rows = walk._raw_lanes(k0, k1, np.zeros(3, dtype=np.uint64), np.array([0, 10, 20]), 5)
        np.testing.assert_array_equal(rows.T, whole.reshape(5, 20)[[0, 2, 4]])

    def test_field_ranges_validated(self):
        with pytest.raises(ValueError):
            StreamKey(-1)
        with pytest.raises(ValueError):
            StreamKey(0, context=2 ** 32)
        with pytest.raises(ValueError):
            StreamKey(0, level=2 ** 16)

    def test_normals_standardized(self):
        z = walk._lanes_to_normals(_lanes(StreamKey(1), 50_000)[:, None], 2)
        assert z.size == 200_000
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01


def _box_muller_reference(lanes):
    """Every lane pair (2p, 2p + 1) along the first axis gives normals 2p
    (cosine) and 2p + 1 (sine), all of them computed."""
    u_log = ((lanes[0::2] >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53
    u_ang = (lanes[1::2] >> np.uint64(11)) * 2.0 ** -53
    r = np.sqrt(-2.0 * np.log(u_log))
    theta = 2.0 * np.pi * u_ang
    out = np.empty(lanes.shape)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out


class TestUniformDirection:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_directions_match_box_muller_reference(self, dim):
        """Step ``t`` of column ``r`` is the normalized first ``dim``
        normals of its own ``L`` lanes, bit for bit, in odd dimensions too."""
        lanes_per_step, steps, rows = walk._lanes_per_direction(dim), 3, 7
        rng = np.random.default_rng(dim)
        lanes = rng.integers(0, 2 ** 64, (steps * lanes_per_step, rows), dtype=np.uint64)
        got = walk._directions(dim, lanes)
        assert got.shape == (steps * rows, dim)
        for t in range(steps):
            g = _box_muller_reference(lanes[t * lanes_per_step:(t + 1) * lanes_per_step])[:dim]
            n2 = g[0] * g[0]
            for j in range(1, dim):
                n2 = n2 + g[j] * g[j]
            np.testing.assert_array_equal(got[t * rows:(t + 1) * rows], (g / np.sqrt(n2)).T)
        own = _lanes(StreamKey(9, sample_index=dim), 2)[:lanes_per_step, None]
        np.testing.assert_array_equal(
            walk._lanes_to_normals(own, dim)[:, 0, 0], _box_muller_reference(own)[:dim, 0]
        )

    def test_one_dimension_is_sign(self):
        draws = _stream_directions(1, StreamKey(3), 10_000)[:, 0]
        assert set(np.unique(draws)) == {-1.0, 1.0}
        assert abs(np.mean(draws > 0) - 0.5) < 0.015

    def test_unit_norm(self):
        for dim in (1, 2, 3, 5):
            dirs = _stream_directions(dim, StreamKey(4), 50)
            assert dirs.shape == (50, dim)
            assert np.all(np.abs(np.linalg.norm(dirs, axis=1) - 1.0) <= 1e-12)

    def test_planar_angles_uniform(self):
        n = 100_000
        dirs = _stream_directions(2, StreamKey(6), n)
        angles = np.arctan2(dirs[:, 1], dirs[:, 0])
        counts, _ = np.histogram(angles, bins=16, range=(-np.pi, np.pi))
        expected = n / 16
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < 37.7  # 99.9% quantile, 15 dof

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            Ball(0)


class TestWosWalk:
    def test_ball_center_single_step(self):
        ball = Ball(3, 1.0)
        for seed in range(5):
            res = run_many(ball, (0.0, 0.0, 0.0), [0.3], master_seed=seed)
            assert res.steps[0, 0] == 1
            assert np.linalg.norm(res.exits[0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_data_centers_on_zero(self):
        prob = ball_problem(2, data="x1")
        batch = run_many(prob.domain, prob.start, [1e-3], master_seed=8, count=10_000)
        vals = prob.bc(batch.exits[0])
        sem = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean()) <= 3.0 * sem

    def test_rejects_eps_at_or_beyond_start_distance(self):
        with pytest.raises(ValueError, match="stopping width"):
            run_many(SQUARE, (1.0, 1.0), [1.0], master_seed=0)

    def test_step_limit_signals_sample(self):
        with pytest.raises(StepLimitExceeded) as err:
            run_many(SQUARE, (1.0, 1.0), [1e-8], master_seed=0, start_index=40, count=4, max_steps=3)
        assert err.value.sample_index == 40
        assert err.value.key == StreamKey(0, 0, 0, 40)

    @pytest.mark.parametrize("width", [5, 64, walk._WIDTH])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_step_limit_reports_lowest_failing_sample(self, width, threads):
        """At full width the 300 walks enter at once and their draws cover
        steps 1-2, 3-4, 5-8, 9-16 and 17-32: the limits 5 and 12 fall inside
        grown draws, 16 on a draw boundary."""
        args = dict(master_seed=3, context=7, level=2, start_index=101, count=300)
        ref = run_many(SQUARE, (1.0, 1.0), [1e-2], **args)
        for max_steps in (5, 12, 16):
            failing = np.flatnonzero(ref.steps[-1] > max_steps)
            # Sample 0 finishes, and failures lie in every range of a 3-way split.
            assert failing[0] > 0
            assert np.array_equal(np.unique(failing // 100), [0, 1, 2])
            with _width(width), pytest.raises(StepLimitExceeded) as err:
                run_many(
                    SQUARE, (1.0, 1.0), [1e-2], max_steps=max_steps, threads=threads, **args
                )
            assert err.value.key == StreamKey(3, 7, 2, 101 + int(failing[0]))
            assert (err.value.master_seed, err.value.context, err.value.level) == (3, 7, 2)
            assert err.value.sample_index == 101 + int(failing[0])
            assert err.value.max_steps == max_steps


class TestPerWalkStreams:
    """``run_many`` with ``context`` / ``start_index`` arrays, one value per
    walk."""

    @pytest.mark.parametrize("width", [5, 64, walk._WIDTH])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_step_limit_names_the_failing_rows_own_key(self, width, threads):
        """Three walks of context 7 finish within the limit; the error
        names the lowest failing walk of context 9, with its own index."""
        segments = [(7, 101, 3), (9, 2 ** 64 - 300, 300)]
        context, start = _per_walk(segments)
        args = dict(master_seed=3, level=2, context=context, start_index=start, count=303)
        ref = run_many(SQUARE, (1.0, 1.0), [1e-2], **args)
        max_steps = int(ref.steps[-1, :3].max())
        failing = np.flatnonzero(ref.steps[-1] > max_steps)
        assert failing.size and failing[0] >= 3
        with _width(width), pytest.raises(StepLimitExceeded) as err:
            run_many(SQUARE, (1.0, 1.0), [1e-2], max_steps=max_steps, threads=threads, **args)
        row = int(failing[0])
        assert err.value.key == StreamKey(3, 9, 2, 2 ** 64 - 300 + row - 3)

    def test_scalar_field_keeps_its_meaning(self):
        """A scalar ``start_index`` next to a ``context`` array still numbers
        walk ``i`` as ``start_index + i``, and the other way round."""
        args = dict(master_seed=5, level=1)
        mixed = run_many(SQUARE, (1.0, 1.0), [1e-2], context=[3, 3, 8], start_index=10,
                         count=3, **args)
        head = run_many(SQUARE, (1.0, 1.0), [1e-2], context=3, start_index=10, count=2, **args)
        tail = run_many(SQUARE, (1.0, 1.0), [1e-2], context=8, start_index=12, **args)
        np.testing.assert_array_equal(mixed.steps, np.concatenate([head.steps, tail.steps], 1))
        np.testing.assert_array_equal(mixed.stops, np.concatenate([head.stops, tail.stops], 1))
        starts = run_many(SQUARE, (1.0, 1.0), [1e-2], context=3, start_index=[11, 10],
                          count=2, **args)
        np.testing.assert_array_equal(starts.steps[:, ::-1], head.steps)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("context", np.zeros(3, dtype=np.uint64), "1-D array of count=4"),
            ("start_index", np.zeros(5, dtype=np.uint64), "1-D array of count=4"),
            ("context", np.zeros((2, 2), dtype=np.uint64), "1-D array of count=4"),
            ("start_index", np.zeros(4), "integers"),
            ("context", np.full(4, 2 ** 32, dtype=np.uint64), "32 unsigned bits"),
            ("context", np.array([0, 1, -1, 2]), "negative"),
            ("start_index", np.array([0, 1, -1, 2]), "negative"),
        ],
        ids=["short", "long", "2-d", "float", "context-range", "negative-context",
             "negative-index"],
    )
    def test_malformed_arrays_rejected(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            run_many(SQUARE, (1.0, 1.0), [1e-2], master_seed=0, count=4, **{field: value})


class TestWalkInvariants:
    def test_step_size_exactness_and_containment(self):
        pts = run_many(SQUARE, (1.0, 1.0), [1e-3], master_seed=13, trace=True).trace
        dists = np.array([SQUARE.distance_to_boundary(p) for p in pts])
        jumps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        np.testing.assert_allclose(jumps, dists[:-1], atol=1e-12 * SQUARE.diameter)
        assert np.all(dists[:-1] >= 1e-3)  # still outside the shell pre-jump
        assert np.all(dists >= 0.0)

    def test_determinism_across_thread_counts(self, monkeypatch):
        # 5000 walks at width 512 split into as many ranges as threads.
        monkeypatch.setattr(walk, "_WIDTH", 512)
        ranges = []
        engine = walk._walk_chunk

        def counted(*args, **kwargs):
            ranges.append(args[4])
            return engine(*args, **kwargs)

        monkeypatch.setattr(walk, "_walk_chunk", counted)
        runs = []
        for t in (1, 4, 8):
            ranges.clear()
            runs.append(
                run_many(SQUARE, (1.0, 1.0), [1e-2], master_seed=21, count=5000, threads=t)
            )
            assert len(ranges) == t and sum(ranges) == 5000
        for other in runs[1:]:
            np.testing.assert_array_equal(runs[0].stops, other.stops)
            np.testing.assert_array_equal(runs[0].steps, other.steps)

    def test_mean_steps_monotone_in_eps(self):
        grid = [0.1, 0.03, 0.01, 0.003]
        means = []
        sems = []
        for i, eps in enumerate(grid):
            batch = run_many(SQUARE, (1.0, 1.0), [eps], master_seed=31, context=i, count=4000)
            steps = batch.steps[0]
            means.append(steps.mean())
            sems.append(steps.std(ddof=1) / np.sqrt(steps.size))
        for i in range(len(grid) - 1):
            assert means[i + 1] >= means[i] - 2.0 * (sems[i] + sems[i + 1])

    def test_polylog_step_growth(self):
        grid = [1e-1, 1e-2, 1e-3, 1e-4]
        means = []
        for i, eps in enumerate(grid):
            batch = run_many(SQUARE, (1.0, 1.0), [eps], master_seed=77, context=i, count=10_000)
            means.append(batch.steps[0].mean())
        x = np.log(1.0 / np.asarray(grid)) ** 2
        slope, intercept = np.polyfit(x, means, 1)
        fitted = slope * x + intercept
        ss_res = float(np.sum((means - fitted) ** 2))
        ss_tot = float(np.sum((means - np.mean(means)) ** 2))
        assert slope > 0.0
        assert 1.0 - ss_res / ss_tot > 0.95


class TestEngineProperties:
    """Outputs depend only on each sample's stream key: not on the width,
    the thread count, how a sample range is split, or which other widths
    the walk is recorded at."""

    @PROPERTY
    @given(case=CASES, fractions=FRACTIONS, count=st.integers(1, 150),
           width=st.sampled_from([1, 5, 64]), threads=st.sampled_from([1, 3]), seed=SEEDS)
    def test_width_invariance(self, case, fractions, count, width, threads, seed):
        domain, x0 = case
        thr = _thresholds(domain, x0, fractions)
        whole = run_many(domain, x0, thr, master_seed=seed, count=count)
        with _width(width):
            refilled = run_many(domain, x0, thr, master_seed=seed, count=count, threads=threads)
        _assert_same(whole, refilled)

    @PROPERTY
    @given(case=CASES, fractions=FRACTIONS, count=st.integers(1, 120),
           width=st.sampled_from([5, 64]), seed=SEEDS)
    def test_thread_count_invariance(self, case, fractions, count, width, seed):
        domain, x0 = case
        thr = _thresholds(domain, x0, fractions)
        with _width(width):
            runs = [
                run_many(domain, x0, thr, master_seed=seed, count=count, threads=t)
                for t in (1, 2, 3)
            ]
        for other in runs[1:]:
            _assert_same(runs[0], other)

    @PROPERTY
    @given(case=CASES, fractions=FRACTIONS, a=st.integers(1, 80), b=st.integers(1, 80),
           start=st.integers(0, 2 ** 40), width=st.sampled_from([5, 64]),
           threads=st.sampled_from([1, 2]), seed=SEEDS)
    def test_range_splitting(self, case, fractions, a, b, start, width, threads, seed):
        domain, x0 = case
        thr = _thresholds(domain, x0, fractions)
        args = dict(master_seed=seed, context=3, level=1, threads=threads)
        with _width(width):
            whole = run_many(domain, x0, thr, start_index=start, count=a + b, **args)
            head = run_many(domain, x0, thr, start_index=start, count=a, **args)
            tail = run_many(domain, x0, thr, start_index=start + a, count=b, **args)
        np.testing.assert_array_equal(whole.stops, np.concatenate([head.stops, tail.stops], 1))
        np.testing.assert_array_equal(whole.steps, np.concatenate([head.steps, tail.steps], 1))

    @PROPERTY
    @given(case=CASES, fractions=FRACTIONS, count=st.integers(1, 100),
           width=st.sampled_from([5, 64]), seed=SEEDS)
    def test_prefix_property(self, case, fractions, count, width, seed):
        domain, x0 = case
        thr = _thresholds(domain, x0, fractions)
        with _width(width):
            batch = run_many(domain, x0, thr, master_seed=seed, count=count, threads=2)
            for k, eps in enumerate(thr):
                alone = run_many(domain, x0, [eps], master_seed=seed, count=count)
                np.testing.assert_array_equal(batch.stops[k], alone.stops[0])
                np.testing.assert_array_equal(batch.steps[k], alone.steps[0])
        assert np.all(np.diff(batch.steps, axis=0) >= 0)

    @PROPERTY
    @given(case=CASES, fractions=FRACTIONS, segments=SEGMENTS,
           width=st.sampled_from([1, 64, walk._WIDTH]), threads=st.sampled_from([1, 2, 3]),
           seed=SEEDS)
    def test_per_walk_streams_match_scalar_segments(
        self, case, fractions, segments, width, threads, seed
    ):
        """One call with a context and a sample index per walk equals the
        per-segment calls with scalar ones, concatenated, bit for bit."""
        domain, x0 = case
        thr = _thresholds(domain, x0, fractions)
        segments = [(c, min(s, 2 ** 64 - n), n) for c, s, n in segments]
        context, start = _per_walk(segments)
        with _width(width):
            fused = run_many(domain, x0, thr, master_seed=seed, level=4, context=context,
                             start_index=start, count=context.size, threads=threads)
        parts = [
            run_many(domain, x0, thr, master_seed=seed, level=4, context=c, start_index=s,
                     count=n)
            for c, s, n in segments
        ]
        for field in ("stops", "exits", "steps"):
            np.testing.assert_array_equal(
                getattr(fused, field), np.concatenate([getattr(p, field) for p in parts], 1)
            )

    @PROPERTY
    @given(case=CASES, fraction=st.floats(0.01, 0.9), index=st.integers(0, 2 ** 64 - 1),
           seed=SEEDS)
    def test_single_walk_matches_stepwise_loop(self, case, fraction, index, seed):
        """One walk at any seed and sample index matches a loop that takes
        step ``t``'s direction from lanes ``t*L`` to ``t*L + L - 1`` of its
        stream, one step at a time."""
        domain, x0 = case
        eps = fraction * domain.distance_to_boundary(x0)
        key = StreamKey(seed, context=2, level=5, sample_index=index)
        res = run_many(
            domain, x0, [eps], master_seed=seed, context=2, level=5, start_index=index
        )
        lanes_per_step = walk._lanes_per_direction(domain.dim)
        pos = np.asarray(x0, dtype=np.float64)
        dist = domain._dist(pos[None, :])[0]
        steps = 0
        while dist >= eps:
            lo, hi = steps * lanes_per_step, (steps + 1) * lanes_per_step
            step = _lanes(key, hi // 4 + 1)[lo:hi, None]
            pos = pos + dist * walk._directions(domain.dim, step)[0]
            dist = max(domain._dist(pos[None, :])[0], 0.0)
            steps += 1
        np.testing.assert_array_equal(res.stops[0, 0], pos)
        assert res.steps[0, 0] == steps


class TestTailLookahead:
    """Once a call has no samples left to refill, each draw covers twice the
    strides of the one before, capped at the call's width in strides over
    the walks in flight. Outputs must not depend on the draw sizes."""

    @pytest.mark.parametrize("count", [1, 2, 37, 300])
    @pytest.mark.parametrize(
        "domain, x0, thr",
        [
            (SQUARE, (1.0, 1.0), [1e-2, 1e-4]),
            (Ball(1), (0.3,), [1e-3, 1e-6]),
            (Ball(3), (0.3, 0.0, 0.1), [1e-3, 1e-6]),
            (Ball(5), (0.3, 0.0, 0.1, 0.0, 0.0), [1e-3, 1e-6]),
        ],
        ids=["square", "ball1", "ball3", "ball5"],
    )
    def test_long_tailed_calls_match_single_walks(self, domain, x0, thr, count):
        """At width 1 every draw is one stride, as if each walk ran alone."""
        args = dict(master_seed=2 ** 63 + 5, context=11, level=3, start_index=1000, count=count)
        batch = run_many(domain, x0, thr, **args)
        with _width(1):
            stepwise = run_many(domain, x0, thr, **args)
        _assert_same(batch, stepwise)
        np.testing.assert_array_equal(batch.exits, stepwise.exits)
        fine = run_many(domain, x0, thr[1:], **args)
        np.testing.assert_array_equal(batch.stops[1], fine.stops[0])
        np.testing.assert_array_equal(batch.steps[1], fine.steps[0])

    @pytest.mark.parametrize(
        "domain, x0, eps",
        [
            (SQUARE, (1.0, 1.0), 1e-4),
            (Ball(1), (0.3,), 1e-6),
            (Hemisphere(), (0.2, 0.3, 0.1), 1e-4),
            (Ball(5), (0.3, 0.0, 0.1, 0.0, 0.0), 1e-6),
        ],
        ids=["square", "ball1", "hemisphere", "ball5"],
    )
    def test_lanes_drawn_within_doubling_bound(self, domain, x0, eps, monkeypatch):
        """Lanes drawn <= 2 * lanes used + one stride per walk.

        Every draw but a walk's last is used in full. A walk's last draw is
        at most one stride longer than all its earlier draws together: true
        for one-stride refill draws, and for tail draws, which start at one
        stride and at most double. When every walk enters at once, every
        draw is a tail draw, and the draw sizes follow from the strides each
        walk needs.
        """
        blocks = []
        philox = walk.philox4x64

        def counted(*args):
            out = philox(*args)
            blocks.append(out[0].size)
            return out

        monkeypatch.setattr(walk, "philox4x64", counted)
        lanes = walk._lanes_per_direction(domain.dim)
        stride = math.lcm(lanes, 4) // lanes
        for count, width in ((1, walk._WIDTH), (300, walk._WIDTH), (300, 64)):
            blocks.clear()
            with _width(width):
                batch = run_many(domain, x0, [eps], master_seed=17, count=count)
            used = lanes * int(batch.steps[-1].sum())
            assert used <= 4 * sum(blocks) <= 2 * used + stride * lanes * count
            assert 4 * max(blocks) <= min(width, count) * stride * lanes
            if count <= width:
                need = -(-batch.steps[-1] // stride)
                want, done, reach = [], 0, 1
                while rows := int(np.count_nonzero(need > done)):
                    reach = min(reach, count // rows)
                    want.append(rows * reach * stride * lanes // 4)
                    done += reach
                    reach *= 2
                assert blocks == want


class TestMlPair:
    """One walk recorded at a coarse and a fine width, ``[c, f]``."""

    def test_degenerate_coupling_is_exactly_zero(self):
        prob = square_problem()
        pair = run_many(SQUARE, (1.0, 1.0), [0.05, 0.05], master_seed=2)
        assert prob.bc(pair.exits[1, 0]) - prob.bc(pair.exits[0, 0]) == 0.0
        assert pair.steps[0, 0] == pair.steps[1, 0]
        np.testing.assert_array_equal(pair.stops[0, 0], pair.stops[1, 0])

    def test_ball_center_pair_single_step(self):
        ball = Ball(3, 1.0)
        pair = run_many(ball, (0.0, 0.0, 0.0), [0.5, 1e-3], master_seed=9)
        assert pair.steps[0, 0] == 1
        assert pair.steps[1, 0] == 1

    def test_fine_extends_coarse(self):
        pair = run_many(SQUARE, (1.0, 1.0), [0.1, 1e-3], master_seed=17)
        assert pair.steps[0, 0] <= pair.steps[1, 0]
        assert SQUARE.distance_to_boundary(pair.stops[0, 0]) < 0.1
        assert SQUARE.distance_to_boundary(pair.stops[1, 0]) < 1e-3

    def test_prefix_property_bitwise(self):
        for idx in range(20):
            pair = run_many(
                SQUARE, (1.0, 1.0), [0.1, 1e-3], master_seed=55, start_index=idx, trace=True
            )
            pts = pair.trace
            assert len(pts) == pair.steps[1, 0] + 1
            np.testing.assert_array_equal(pts[-1], pair.stops[1, 0])
            dists = SQUARE._dist(pts)
            first_inside = int(np.argmax(dists < 0.1))
            np.testing.assert_array_equal(pts[first_inside], pair.stops[0, 0])
            assert first_inside == pair.steps[0, 0]

    def test_coupling_reduces_variance(self):
        prob = square_problem()
        batch = run_many(SQUARE, (1.0, 1.0), [0.1, 0.1 / 16], master_seed=3, count=10_000)
        coarse_vals = prob.bc(batch.exits[0])
        fine_vals = prob.bc(batch.exits[1])
        diff = fine_vals - coarse_vals
        assert np.var(diff) < np.var(fine_vals)

    def test_rejects_inverted_widths(self):
        with pytest.raises(ValueError):
            run_many(SQUARE, (1.0, 1.0), [0.01, 0.1], master_seed=0)


class TestTraceCsv:
    def test_schema_and_content(self):
        res = run_many(SQUARE, (1.0, 1.0), [0.05], master_seed=41, trace=True)
        text = trace_csv(SQUARE, res.trace)
        lines = text.strip().split("\n")
        assert lines[0] == "step,x1,x2,dist"
        assert lines[1] == "0,1.0,1.0,1.0"
        assert len(lines) == res.steps[0, 0] + 2

    def test_trace_records_one_walk(self):
        with pytest.raises(ValueError, match="count must be 1"):
            run_many(SQUARE, (1.0, 1.0), [0.05], master_seed=41, count=2, trace=True)
        assert run_many(SQUARE, (1.0, 1.0), [0.05], master_seed=41).trace is None
