import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlwos import walk
from mlwos.geometry import (
    Ball,
    Hemisphere,
    Square,
    ball_problem,
    hemisphere_problem,
    square_problem,
)
from mlwos.walk import StepLimitExceeded, StreamKey, philox4x64, run_many, trace_csv

SQUARE = Square()

# (domain, start) pairs covering every stride shape: 1-d and 2-d take eight
# steps per Philox block, 3-d four, 4-d one, 5-d two steps per three blocks.
CASES = st.sampled_from([
    (Ball(1), (0.3,)),
    (SQUARE, (0.7, 1.2)),
    (Hemisphere(), (0.2, 0.3, 0.1)),
    (Ball(4), (0.3, 0.0, 0.1, 0.0)),
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
    np.testing.assert_array_equal(a.exits, b.exits)
    np.testing.assert_array_equal(a.steps, b.steps)


def _u64(v):
    return np.array(v, dtype=np.uint64)


def _per_walk(segments):
    """The per-walk (context, start_index) arrays of ``segments``."""
    context = np.concatenate([np.full(n, c, dtype=np.uint64) for c, _, n in segments])
    start = np.concatenate([_u64(s) + np.arange(n, dtype=np.uint64) for _, s, n in segments])
    return context, start


def _key_words(master_seed, context, level):
    """Philox key words 0 and 1 of the streams (master_seed, context,
    level, ·), as the engine makes them."""
    k1, _ = walk._stream_rows((master_seed, context, level, 0), np.zeros(1, dtype=np.int64))
    return walk._u64(master_seed), k1


def _lanes(key, blocks, first=0):
    """Lanes of Philox blocks ``first`` to ``first + blocks - 1`` of stream
    ``key``, as a (4 * blocks,) array."""
    k0, k1 = _key_words(key.master_seed, key.context, key.level)
    word = np.array([key.sample_index], dtype=np.uint64)
    return walk._raw_lanes(k0, k1, word, first, blocks)[:, 0]


def _uniforms(lanes):
    return (lanes >> np.uint64(11)) * 2.0 ** -53


def _stream_directions(dim, key, n):
    """The first ``n`` directions of stream ``key``, as (n, dim)."""
    lanes = -(-n * walk._words_per_direction(dim) // 2)
    return walk._directions(dim, _lanes(key, -(-lanes // 4))[:lanes, None])[:n]


def _words(lanes):
    """The 32-bit words of ``lanes`` along the first axis, each lane's high
    half first, as uint64."""
    words = np.empty((2 * lanes.shape[0],) + lanes.shape[1:], dtype=np.uint64)
    words[0::2] = lanes >> np.uint64(32)
    words[1::2] = lanes & np.uint64(2 ** 32 - 1)
    return words


def _join(words):
    """The lanes of ``words`` along the first axis, the inverse of ``_words``."""
    return (words[0::2] << np.uint64(32)) | words[1::2]


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
        layout=st.sampled_from(
            ["one", "rows", "columns", "grid", "broadcast", "row-keys", "row-key-columns"]
        ),
        k0=SEEDS,
        seed=SEEDS,
    )
    def test_matches_numpy_block_by_block(self, layout, k0, seed):
        """Random keys and counters with all four words nonzero, on both
        sides of the switch from same-shape multiplier rows to columns, with
        key word 1 one value or one per row of a (blocks, rows) grid."""
        rng = np.random.default_rng(seed)

        def words(shape):
            return rng.integers(1, 2 ** 64, size=shape, dtype=np.uint64, endpoint=False)

        n = walk._FULL_ROWS_MAX
        # The shapes of c0, c1, c2, c3 and k1.
        shapes = {
            "one": [(1,)] * 4 + [()],
            "rows": [(n,)] * 4 + [()],
            "columns": [(n + 1,)] * 4 + [()],
            "grid": [(3, 1), (5,), (5,), (5,), ()],  # (blocks, rows), as the engine draws
            "broadcast": [(7,), (7,), (), (), ()],  # scalar c2, c3
            # A key per row on a (2, rows) grid of n and of n + 2 blocks.
            "row-keys": [(2, 1), (n // 2,), (), (), (n // 2,)],
            "row-key-columns": [(2, 1), (n // 2 + 1,), (), (), (n // 2 + 1,)],
        }[layout]
        *ctr, k1 = [words(shape) for shape in shapes]
        out = philox4x64(*ctr, _u64(k0), k1)
        *full, k1 = np.broadcast_arrays(*ctr, k1)
        assert all(o.shape == full[0].shape for o in out)
        for i in np.ndindex(full[0].shape):
            # numpy's Philox increments its counter before each block, and
            # c0 >= 1 keeps the decrement here from borrowing from c1.
            c0, c1, c2, c3 = (int(c[i]) for c in full)
            ref = np.random.Philox(counter=_u64([c0 - 1, c1, c2, c3]), key=_u64([k0, k1[i]]))
            assert [int(o[i]) for o in out] == [int(v) for v in ref.random_raw(4)]

    def test_traced_peak_at_full_width(self, traced_peak):
        """One draw of a block for 16384 rows, the engine's full width,
        holds the (2, rows) state and four round buffers at most: the same
        traced peak as before the buffers were made once per call. It fails
        if full-width multiplier rows or more round buffers are added."""
        k0, k1 = _key_words(3, 5, 1)
        words = np.arange(16384, dtype=np.uint64)
        first = np.zeros(16384, dtype=np.int64)
        assert traced_peak(lambda: walk._raw_lanes(k0, k1, words, first, 1)) <= 1700 * 1024

    def test_traced_peak_of_a_full_width_planar_call(self, traced_peak):
        """One 2-D ``run_many`` of 16384 walks, the engine's full width,
        peaks at 3.07 MiB traced, below 3.1 MiB: a draw's eight steps per
        walk are kept as lanes and made into directions four steps at a
        time, so its direction array is a format-3 draw's (making all eight
        at once peaks at 4.07). Directions are written straight into their
        output, and each batch of them is freed before the next. Gathering
        table rows in ``take``'s default mode, which buffers ``out``, peaked
        at 3.13 MiB at format 3. At stream format 2 a separate angle
        temporary in ``_directions`` peaked at 3.19, keeping the last draw's
        directions through the next draw at 3.57, and making the exits
        before the walks at 3.26."""
        peak = traced_peak(
            lambda: run_many(SQUARE, (1.0, 1.0), [1e-2], master_seed=3, count=walk._WIDTH,
                             threads=1)
        )
        assert peak <= 3.1 * 2 ** 20

    def test_traced_peak_of_per_walk_streams(self, traced_peak):
        """A full-width ``run_many`` with a context and a sample index per
        walk peaks at most two words per walk above the same call with
        scalar ones (1.0 measured): the key and counter words of the walks
        in flight are made at each draw, and Philox makes each round's row
        keys in a buffer it already holds. A (10, rows) table of round keys
        adds 11.6."""
        count = walk._WIDTH
        context, start = _per_walk(
            [(c, 2 ** 64 - count, count // 4) for c in (7, 1007, 2007, 3007)]
        )
        start += _u64(np.arange(4).repeat(count // 4) * (count // 4))

        def peak(**streams):
            return traced_peak(lambda: run_many(SQUARE, (1.0, 1.0), [1e-2], master_seed=3,
                                                count=count, threads=1, **streams))

        scalar = peak(context=7, start_index=0)
        assert peak(context=context, start_index=start) <= scalar + 2 * 8 * count


class TestStreams:
    """Lanes of one stream, as the engine draws them with ``_raw_lanes``."""

    def test_same_key_same_draws(self):
        key = StreamKey(123, context=4, level=2, sample_index=9)
        np.testing.assert_array_equal(_lanes(key, 250), _lanes(key, 250))

    def test_adjacent_sample_indices_uncorrelated(self):
        k0, k1 = _key_words(5, 0, 0)
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
        k0, k1 = _key_words(77, 0, 0)
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
        """Box-Muller normals, which directions from 4-D on normalize."""
        z = walk._lanes_to_normals(_lanes(StreamKey(1), 50_000)[:, None], 4)
        assert z.size == 200_000
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01


def _chi2_uniform(values, lo, hi, bins=16):
    """Pearson chi-square of ``values`` against the uniform law on [lo, hi]."""
    counts, _ = np.histogram(values, bins=bins, range=(lo, hi))
    expected = values.size / bins
    return float(np.sum((counts - expected) ** 2 / expected))


def _circle_reference(m):
    """cos and sin of the angles m * 2 pi / 2^53 by the format-3 formula,
    in plain numpy on whole arrays: the table row of m's top 12 bits,
    rotated by d = (m mod 2^41) * 2 pi / 2^53 with sin d ~ d - d^3/6 and
    cos d - 1 ~ -d^2/2 + d^4/24, the table value added last."""
    t_c, t_s = walk._CIRCLE[:, (m >> np.uint64(41)).astype(np.int64)]
    d = (m & np.uint64(2 ** 41 - 1)) * walk._ANGLE
    d2 = d * d
    cm1 = (d2 * (1.0 / 24.0) - 0.5) * d2
    sd = (d2 * (-1.0 / 6.0) + 1.0) * d
    return t_c + (t_c * cm1 - t_s * sd), t_s + (t_s * cm1 + t_c * sd)


def _box_muller_reference(lanes):
    """Every lane pair (2p, 2p + 1) along the first axis gives normals 2p
    (cosine) and 2p + 1 (sine), all of them computed."""
    u_log = ((lanes[0::2] >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53
    r = np.sqrt(-2.0 * np.log(u_log))
    cos, sin = _circle_reference(lanes[1::2] >> np.uint64(11))
    out = np.empty(lanes.shape)
    out[0::2] = r * cos
    out[1::2] = r * sin
    return out


def _word_formula_reference(dim, words):
    """Directions of 1-D to 3-D from one step's 32-bit words ``w``, as (dim,
    rows): the sign of the top bit; the unit-circle point at 2 pi w / 2^32,
    the format-3 formula of the 53 bits ``w << 21``; z = 2 w / 2^32 - 1 and
    the azimuth of the second word."""
    if dim == 1:
        return np.where(words[:1] >> np.uint64(31), -1.0, 1.0)
    cos, sin = _circle_reference(words[-1] << np.uint64(21))
    if dim == 2:
        return np.stack([cos, sin])
    z = 2.0 * (words[0] * 2.0 ** -32) - 1.0
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * cos, r * sin, z])


def _circle(m, rows):
    """``walk._circle`` of the words ``m``, as (cos, sin) flat arrays; the
    words are laid out as (n, ``rows``)."""
    cos, sin = np.empty((2, m.size // rows, rows))
    walk._circle(m.reshape(-1, rows).copy(), cos, sin)
    return cos.ravel(), sin.ravel()


# Words at the ends of the grid and of table rows: 2^41 steps one row.
EDGE_WORDS = np.array(
    [0, 2 ** 41 - 1, 2 ** 41, 2 ** 50, 2 ** 51, 2 ** 52, 3 * 2 ** 51, 2 ** 53 - 1], dtype=np.uint64
)


class TestCircle:
    """Unit-circle points (``walk._circle``), unchanged since stream format 3."""

    @pytest.fixture(scope="class")
    def words(self):
        rng = np.random.default_rng(31)
        return np.concatenate([rng.integers(0, 2 ** 53, 2 ** 20, dtype=np.uint64), EDGE_WORDS])

    def test_within_1e15_of_libm(self, words):
        cos, sin = _circle(words, rows=words.size)
        angle = words * walk._ANGLE
        np.testing.assert_allclose(cos, np.cos(angle), rtol=0, atol=1e-15)
        np.testing.assert_allclose(sin, np.sin(angle), rtol=0, atol=1e-15)

    def test_unit_norm(self, words):
        cos, sin = _circle(words, rows=words.size)
        assert np.abs(np.sqrt(cos * cos + sin * sin) - 1.0).max() <= 4.5e-16

    def test_matches_the_formula(self, words):
        """Bit for bit the reference formula on whole arrays."""
        got = _circle(words, rows=words.size)
        for g, ref in zip(got, _circle_reference(words)):
            np.testing.assert_array_equal(g, ref)

    def test_zero_rotation_is_the_table_row(self):
        """A word whose low 41 bits are zero returns its row bit for bit."""
        rows = np.arange(2 ** walk._CIRCLE_BITS, dtype=np.uint64)
        cos, sin = _circle(rows << np.uint64(41), rows=64)
        np.testing.assert_array_equal(cos, walk._CIRCLE[0])
        np.testing.assert_array_equal(sin, walk._CIRCLE[1])
        np.testing.assert_array_equal(walk._CIRCLE[:, 0], [1.0, 0.0])

    def test_table_rows_agree_a_quarter_and_half_turn_apart(self):
        """Exact rows satisfy cos t = sin(t + quarter turn) = -cos(t + half
        turn) to 1.2e-16, the rounding of 2 pi; the table keeps them within
        3e-16, since each row is rotated back by its angle's rounding. Rows
        of plain ``np.cos``/``np.sin(k * step)`` break them by 5.8e-16."""
        cos, sin = walk._CIRCLE
        assert np.abs(cos[:3072] - sin[1024:]).max() <= 3e-16
        assert np.abs(cos[:2048] + cos[2048:]).max() <= 3e-16
        assert np.abs(sin[:2048] + sin[2048:]).max() <= 3e-16

    @pytest.mark.parametrize("shape", [(1, 20_000), (6, 4100), (3000, 7), (5, 3)])
    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_chunking_changes_no_bit(self, shape, chunk):
        """Chunks across rows, within rows and of whole rows give one
        unchunked call's bits."""
        words = np.random.default_rng(chunk).integers(0, 2 ** 53, shape, dtype=np.uint64)
        with mock.patch.object(walk, "_CIRCLE_CHUNK", words.size):
            whole = _circle(words, rows=shape[1])
        with mock.patch.object(walk, "_CIRCLE_CHUNK", chunk):
            parts = _circle(words, rows=shape[1])
        np.testing.assert_array_equal(whole, parts)

    def test_strided_rows(self):
        """Rows of ``m`` and of the outputs may be strided, as the words
        and steps of 1-D and 2-D directions are."""
        words = np.random.default_rng(5).integers(0, 2 ** 53, (40, 2, 300), dtype=np.uint64)
        cos, sin = np.empty((2, 80, 300))[:, 1::2]
        with mock.patch.object(walk, "_CIRCLE_CHUNK", 1000):
            walk._circle(words.copy()[:, 1], cos, sin)
        ref = _circle_reference(words[:, 1])
        np.testing.assert_array_equal(cos, ref[0])
        np.testing.assert_array_equal(sin, ref[1])


class TestUniformDirection:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_directions_match_lane_formulas(self, dim):
        """Step ``t`` of column ``r`` is the direction of its own ``W`` words
        (32-bit halves of the lanes, high half first) by the formula of its
        dimension, bit for bit, edge words included."""
        words_per_step, rows = walk._words_per_direction(dim), 7
        assert words_per_step == (1, 1, 2)[dim - 1]
        rng = np.random.default_rng(dim)
        words = rng.integers(0, 2 ** 32, (10, rows), dtype=np.uint64)
        words[:8, 0] = [0, 2 ** 32 - 1, 2 ** 31, 2 ** 31 - 1, 1, 2 ** 20, 2 ** 20 - 1, 2 ** 30]
        got = walk._directions(dim, _join(words))
        steps = 10 // words_per_step
        assert got.shape == (steps * rows, dim)
        for t in range(steps):
            ref = _word_formula_reference(dim, words[t * words_per_step:(t + 1) * words_per_step])
            np.testing.assert_array_equal(got[t * rows:(t + 1) * rows], ref.T)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_direction_reads_only_its_own_words(self, dim):
        """Direction ``t`` of a stream depends on its words ``t*W`` to
        ``(t+1)*W - 1`` alone: column ``r`` holds stream B's words but
        step ``r``'s, which are stream A's, and its step ``r`` is A's
        direction ``r`` while every other step is B's."""
        words_per_step, steps = walk._words_per_direction(dim), 12
        a, b = (_words(_lanes(StreamKey(8, context=c), 3)[:, None]) for c in (1, 2))
        mixed = np.repeat(b, steps, axis=1)
        for r in range(steps):
            at = slice(r * words_per_step, (r + 1) * words_per_step)
            mixed[at, r] = a[at, 0]
        n = steps * words_per_step // 2
        got = walk._directions(dim, _join(mixed)[:n]).reshape(-1, steps, dim)
        want_a, want_b = (walk._directions(dim, _join(w)[:n]) for w in (a, b))
        for r in range(steps):
            for t in range(steps):
                np.testing.assert_array_equal(got[t, r], (want_a if t == r else want_b)[t])

    @pytest.mark.parametrize("dim", [4, 5])
    def test_directions_match_box_muller_reference(self, dim):
        """Step ``t`` of column ``r`` is the normalized first ``dim``
        normals of its own ``L`` lanes, bit for bit, in odd dimensions too."""
        lanes_per_step, steps, rows = walk._words_per_direction(dim) // 2, 3, 7
        rng = np.random.default_rng(dim)
        lanes = rng.integers(0, 2 ** 64, (steps * lanes_per_step, rows), dtype=np.uint64)
        got = walk._directions(dim, lanes.copy())
        assert got.shape == (steps * rows, dim)
        for t in range(steps):
            g = _box_muller_reference(lanes[t * lanes_per_step:(t + 1) * lanes_per_step])[:dim]
            n2 = g[0] * g[0]
            for j in range(1, dim):
                n2 = n2 + g[j] * g[j]
            np.testing.assert_array_equal(got[t * rows:(t + 1) * rows], (g / np.sqrt(n2)).T)
        own = _lanes(StreamKey(9, sample_index=dim), 2)[:lanes_per_step, None]
        np.testing.assert_array_equal(
            walk._lanes_to_normals(own.copy(), dim)[:, 0, 0], _box_muller_reference(own)[:dim, 0]
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
        assert _chi2_uniform(angles, -np.pi, np.pi) < 37.7  # 99.9% quantile, 15 dof

    def test_spatial_height_and_azimuth_uniform(self):
        """On the unit sphere z is uniform on [-1, 1] and the azimuth on
        [-pi, pi], each tested in 16 bins."""
        n = 100_000
        dirs = _stream_directions(3, StreamKey(10), n)
        assert _chi2_uniform(dirs[:, 2], -1.0, 1.0) < 37.7  # 99.9% quantile, 15 dof
        azimuth = np.arctan2(dirs[:, 1], dirs[:, 0])
        assert _chi2_uniform(azimuth, -np.pi, np.pi) < 37.7

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_mean_zero_and_second_moments_isotropic(self, dim):
        """Over 100k directions the mean is 0 and E[x x^T] = I / dim. Each
        entry's standard error is at most 0.0032 (mean) and 0.0012
        (second moments, dim >= 2)."""
        n = 100_000
        dirs = _stream_directions(dim, StreamKey(11, context=dim), n)
        assert np.abs(dirs.mean(axis=0)).max() < 0.015
        np.testing.assert_allclose(dirs.T @ dirs / n, np.eye(dim) / dim, rtol=0, atol=0.006)

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

    @pytest.mark.parametrize("widths", [[math.nan], [0.1, math.nan], [math.inf, 0.1]])
    def test_rejects_nonfinite_widths(self, widths):
        """Every other width check is false for NaN: unchecked, the walks
        never stop and run into the step limit."""
        with pytest.raises(ValueError, match="finite"):
            run_many(SQUARE, (1.0, 1.0), widths, master_seed=0, count=4)

    def test_step_limit_signals_sample(self):
        with pytest.raises(StepLimitExceeded) as err:
            run_many(SQUARE, (1.0, 1.0), [1e-8], master_seed=0, start_index=40, count=4, max_steps=3)
        assert err.value.sample_index == 40
        assert err.value.key == StreamKey(0, 0, 0, 40)

    @pytest.mark.parametrize("width", [5, 64, walk._WIDTH])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_step_limit_reports_lowest_failing_sample(self, width, threads):
        """At full width the 300 walks enter at once and their draws cover
        steps 1-8, 9-24 and 25-56: the limits 12 and 16 fall inside a grown
        draw, 8 on a draw boundary. Finished walks that keep their slots
        (the default rule, and dropping them only at a draw's end) do not
        hide the lowest failing walk, nor does dropping them at once.

        Then no walk fails in rows 0-149, which hold range 0 of every split
        (the calling thread's), so the error comes from a pool worker: the
        lowest failing row lies in range 1 of a 2- or 3-way split, and range
        2 of a 3-way split fails too."""
        args = dict(master_seed=3, context=7, level=2, start_index=90, count=300)

        def raised(max_steps, **args):
            errors = []
            for share in (0.0, walk._COMPACT_SHARE, 1.0):
                with _width(width), mock.patch.object(walk, "_COMPACT_SHARE", share), \
                        pytest.raises(StepLimitExceeded) as err:
                    run_many(
                        SQUARE, (1.0, 1.0), [1e-2], max_steps=max_steps, threads=threads, **args
                    )
                errors.append(err.value)
            assert len({e.key for e in errors}) == 1
            err = errors[0]
            assert (err.master_seed, err.context, err.level) == (3, 7, 2)
            assert err.max_steps == max_steps
            return err

        ref = run_many(SQUARE, (1.0, 1.0), [1e-2], **args)
        for max_steps in (8, 12, 16):
            failing = np.flatnonzero(ref.steps[-1] > max_steps)
            # Sample 0 finishes, and failures lie in every range of a 3-way split.
            assert failing[0] > 0
            assert np.array_equal(np.unique(failing // 100), [0, 1, 2])
            err = raised(max_steps, **args)
            assert err.key == StreamKey(3, 7, 2, 90 + int(failing[0]))
            assert err.sample_index == 90 + int(failing[0])

        # Rows 0-149 are the first 150 walks of samples 0-999 that finish
        # within 12 steps, rows 150-299 samples 1000-1149.
        pool = run_many(SQUARE, (1.0, 1.0), [1e-2], **dict(args, start_index=0, count=1000))
        start = np.concatenate([_u64(np.flatnonzero(pool.steps[-1] <= 12)[:150]),
                                _u64(1000) + np.arange(150, dtype=np.uint64)])
        args["start_index"] = start
        failing = np.flatnonzero(run_many(SQUARE, (1.0, 1.0), [1e-2], **args).steps[-1] > 12)
        assert 150 <= failing[0] < 200 <= failing[-1]
        assert raised(12, **args).key == StreamKey(3, 7, 2, int(start[failing[0]]))


class TestPerWalkStreams:
    """``run_many`` with ``context`` / ``start_index`` arrays, one value per
    walk."""

    @pytest.mark.parametrize("width", [5, 64, walk._WIDTH])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_step_limit_names_the_failing_rows_own_key(self, width, threads):
        """Three walks of context 7 finish within the limit; the error
        names the lowest failing walk of context 9, with its own index.

        The limit is the median length of the 300 context-9 walks, so about
        half of them exceed it, and the context-7 walks are the first three
        of their context, from index 101 on, that finish within it."""
        base = dict(master_seed=3, level=2)
        tail = run_many(SQUARE, (1.0, 1.0), [1e-2], context=9, start_index=2 ** 64 - 300,
                        count=300, **base)
        max_steps = int(np.median(tail.steps[-1]))
        pool = run_many(SQUARE, (1.0, 1.0), [1e-2], context=7, start_index=101, count=30, **base)
        short = 101 + np.flatnonzero(pool.steps[-1] <= max_steps)[:3]
        assert short.size == 3
        context = np.repeat(_u64([7, 9]), [3, 300])
        start = np.concatenate([_u64(short), _u64(2 ** 64 - 300) + np.arange(300, dtype=np.uint64)])
        args = dict(context=context, start_index=start, count=303, **base)
        ref = run_many(SQUARE, (1.0, 1.0), [1e-2], **args)
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
        np.testing.assert_array_equal(mixed.exits, np.concatenate([head.exits, tail.exits], 1))
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


class TestPerWalkWidthsAndLevels:
    """``run_many`` with a level per walk and a table of width rows."""

    TABLE = [[0.3, 0.3], [0.3, 0.01], [0.1, 0.001]]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_walk_is_its_own_call(self, threads):
        """Walks of three levels and three width rows in one call record
        what a call of their own gives, bit for bit; a plain width ``w``
        read as the row (w, w) records the same stop twice."""
        rows = np.repeat([0, 1, 2, 1], [20, 30, 25, 5])
        level = np.repeat(_u64([0, 3, 2 ** 16 - 1, 3]), [20, 30, 25, 5])
        start = np.concatenate([np.arange(n, dtype=np.uint64) for n in (20, 30, 25, 5)])
        with _width(16):
            mixed = run_many(SQUARE, (1.0, 1.0), self.TABLE, master_seed=9, context=4,
                             level=level, start_index=start, count=80, threads=threads,
                             threshold_rows=rows)
        for i in range(80):
            own = run_many(SQUARE, (1.0, 1.0), self.TABLE[rows[i]], master_seed=9, context=4,
                           level=int(level[i]), start_index=int(start[i]), threads=1)
            np.testing.assert_array_equal(mixed.exits[:, i], own.exits[:, 0])
            np.testing.assert_array_equal(mixed.steps[:, i], own.steps[:, 0])
        plain = rows == 0
        np.testing.assert_array_equal(mixed.exits[0, plain], mixed.exits[1, plain])
        np.testing.assert_array_equal(mixed.steps[0, plain], mixed.steps[1, plain])

    def test_one_row_table_is_the_row(self):
        args = dict(master_seed=2, context=1, start_index=7, count=30, threads=1)
        want = run_many(SQUARE, (1.0, 1.0), [0.1, 0.01], **args)
        for thresholds, rows in (([[0.1, 0.01]], None), ([[0.1, 0.01]], np.zeros(30, int))):
            _assert_same(run_many(SQUARE, (1.0, 1.0), thresholds, threshold_rows=rows, **args),
                         want)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_step_limit_names_a_later_levels_walk(self, threads):
        """The error names the lowest failing walk with its own level: here
        a walk of level 5 and width row 1, after level-0 walks that finish
        within the limit."""
        pool = run_many(SQUARE, (1.0, 1.0), [0.3], master_seed=3, context=2, count=40)
        limit = 4
        short = np.flatnonzero(pool.steps[-1] <= limit)[:4]
        tail = run_many(SQUARE, (1.0, 1.0), [0.3, 0.001], master_seed=3, context=2, level=5,
                        start_index=100, count=60)
        failing = np.flatnonzero(tail.steps[-1] > limit)
        assert short.size == 4 and failing.size
        level = np.repeat(_u64([0, 5]), [4, 60])
        start = np.concatenate([_u64(short), 100 + np.arange(60, dtype=np.uint64)])
        with _width(16), pytest.raises(StepLimitExceeded) as err:
            run_many(SQUARE, (1.0, 1.0), [[0.3, 0.3], [0.3, 0.001]], master_seed=3, context=2,
                     level=level, start_index=start, count=64, max_steps=limit,
                     threads=threads, threshold_rows=np.repeat([0, 1], [4, 60]))
        assert err.value.key == StreamKey(3, 2, 5, 100 + int(failing[0]))
        assert err.value.level == 5

    ROWS = {"threshold_rows": [0, 1, 0, 1]}

    @pytest.mark.parametrize(
        "thresholds, fields, match",
        [
            ([[0.1, 0.01], [math.nan, 0.01]], ROWS, "of row 1 must be finite"),
            ([[0.1, 0.01], [0.1, math.inf]], ROWS, "of row 1 must be finite"),
            ([[0.1, 0.01], [0.01, 0.1]], ROWS, "of row 1 must be nonincreasing"),
            ([[0.1, 0.01], [1.0, 0.01]], ROWS, "1 of row 1 is not below the start distance 1"),
            ([0.1], {"level": _u64([0, 1, 2 ** 16, 3])}, "level of walk 2 must fit in 16"),
            ([0.1], {"level": np.array([0, -1, 0, 0])}, "level of walk 1 must not be negative"),
            ([0.1], {"level": _u64([0, 1, 2])}, "level must be .* count=4"),
            ([[0.1], [0.2]], {"threshold_rows": [0, 1, 1]}, "threshold_rows must be .* count=4"),
            ([[0.1], [0.2]], {"threshold_rows": [0, 2, 1, 0]}, "walk 1 names no row"),
            ([[0.1], [0.2]], {}, "needs threshold_rows"),
        ],
        ids=["nan", "inf", "increasing", "start-distance", "level-range", "level-negative",
             "level-count", "rows-count", "rows-range", "rows-missing"],
    )
    def test_bad_per_walk_inputs_rejected(self, thresholds, fields, match):
        """Each error names the table row or the walk at fault."""
        with pytest.raises(ValueError, match=match):
            run_many(SQUARE, (1.0, 1.0), thresholds, master_seed=0, count=4, **fields)


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
            _assert_same(runs[0], other)

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
    @given(case=CASES, fractions=FRACTIONS, count=st.integers(1, 150),
           width=st.sampled_from([1, 5, 64, walk._WIDTH]), share=st.sampled_from([0.0, 1.0]),
           seed=SEEDS)
    def test_compaction_rule_invariance(self, case, fractions, count, width, share, seed):
        """Dropping finished walks after every sub-step on which one
        finished (share 1), or only at a draw's end (share 0), gives the
        default rule's exits and steps bit for bit."""
        domain, x0 = case
        thr = _thresholds(domain, x0, fractions)
        with _width(width):
            default = run_many(domain, x0, thr, master_seed=seed, count=count, threads=1)
            with mock.patch.object(walk, "_COMPACT_SHARE", share):
                patched = run_many(domain, x0, thr, master_seed=seed, count=count, threads=1)
        _assert_same(default, patched)

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

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("count", [13, 193])
    @pytest.mark.parametrize(
        "domain, x0",
        [(SQUARE, (0.7, 1.2)), (Hemisphere(), (0.2, 0.3, 0.1)),
         (Ball(5), (0.3, 0.0, 0.1, 0.0, 0.0))],
        ids=["square", "hemisphere", "ball5"],
    )
    def test_exits_are_projections_of_stops(self, domain, x0, count, threads):
        """Walk ``i`` stops at width ``k`` at ``trace[steps[k, i]]`` of its
        own traced run, its first position closer to the boundary than the
        width (first crossing), and exits at that position's projection, bit
        for bit, also where the call is split into ranges and projected a
        width of rows at a time."""
        thr = _thresholds(domain, x0, [0.3, 0.01])
        with _width(5):
            batch = run_many(domain, x0, thr, master_seed=11, count=count, threads=threads)
        for i in range(count):
            pts = run_many(domain, x0, thr, master_seed=11, start_index=i, trace=True).trace
            assert len(pts) == batch.steps[-1, i] + 1
            dist = np.maximum(domain._dist(pts), 0.0)
            for k, eps in enumerate(thr):
                at = int(batch.steps[k, i])
                np.testing.assert_array_equal(batch.exits[k, i], domain._proj(pts[at:at + 1])[0])
                assert dist[at] < eps <= dist[at - 1]

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
        np.testing.assert_array_equal(whole.exits, np.concatenate([head.exits, tail.exits], 1))
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
                np.testing.assert_array_equal(batch.exits[k], alone.exits[0])
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
        for field in ("exits", "steps"):
            np.testing.assert_array_equal(
                getattr(fused, field), np.concatenate([getattr(p, field) for p in parts], 1)
            )

    @PROPERTY
    @given(case=CASES, fraction=st.floats(0.01, 0.9), index=st.integers(0, 2 ** 64 - 1),
           seed=SEEDS)
    def test_single_walk_matches_stepwise_loop(self, case, fraction, index, seed):
        """One walk at any seed and sample index matches a loop that takes
        step ``t``'s direction from words ``t*W`` to ``t*W + W - 1`` of its
        stream, one step at a time: from the lanes that hold them, of
        which a 1-D or 2-D step's lane gives two directions."""
        domain, x0 = case
        eps = fraction * domain.distance_to_boundary(x0)
        key = StreamKey(seed, context=2, level=5, sample_index=index)
        res = run_many(
            domain, x0, [eps], master_seed=seed, context=2, level=5, start_index=index
        )
        words = walk._words_per_direction(domain.dim)
        pos = np.asarray(x0, dtype=np.float64)
        dist = domain._dist(pos[None, :])[0]
        steps = 0
        while dist >= eps:
            lo, hi = steps * words // 2, -(-(steps + 1) * words // 2)
            step = _lanes(key, hi // 4 + 1)[lo:hi, None]
            pos = pos + dist * walk._directions(domain.dim, step)[steps * words % 2]
            dist = max(domain._dist(pos[None, :])[0], 0.0)
            steps += 1
        np.testing.assert_array_equal(res.exits[0, 0], domain._proj(pos[None, :])[0])
        assert res.steps[0, 0] == steps


class TestTailLookahead:
    """Once a call has no samples left to refill, each draw covers twice the
    strides of the one before, capped at ``_WIDTH`` strides summed over the
    walks in flight, whatever the call's count. Outputs must not depend on
    the draw sizes."""

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
        fine = run_many(domain, x0, thr[1:], **args)
        np.testing.assert_array_equal(batch.exits[1], fine.exits[0])
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
        """Words drawn <= 2 * words used + one stride per walk, counted in
        32-bit words, two per lane.

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
        words = walk._words_per_direction(domain.dim)
        stride = math.lcm(words, 8) // words
        for count, width in ((1, walk._WIDTH), (300, walk._WIDTH), (300, 64)):
            blocks.clear()
            with _width(width):
                batch = run_many(domain, x0, [eps], master_seed=17, count=count)
            used = words * int(batch.steps[-1].sum())
            assert used <= 8 * sum(blocks) <= 2 * used + stride * words * count
            assert 8 * max(blocks) <= width * stride * words
            if count <= width:
                need = -(-batch.steps[-1] // stride)
                want, done, reach = [], 0, 1
                while rows := int(np.count_nonzero(need > done)):
                    reach = min(reach, width // rows)
                    want.append(rows * reach * stride * words // 8)
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
        np.testing.assert_array_equal(pair.exits[0, 0], pair.exits[1, 0])

    def test_ball_center_pair_single_step(self):
        ball = Ball(3, 1.0)
        pair = run_many(ball, (0.0, 0.0, 0.0), [0.5, 1e-3], master_seed=9)
        assert pair.steps[0, 0] == 1
        assert pair.steps[1, 0] == 1

    def test_fine_extends_coarse(self):
        pair = run_many(SQUARE, (1.0, 1.0), [0.1, 1e-3], master_seed=17, trace=True)
        assert pair.steps[0, 0] <= pair.steps[1, 0]
        assert SQUARE.distance_to_boundary(pair.trace[pair.steps[0, 0]]) < 0.1
        assert SQUARE.distance_to_boundary(pair.trace[pair.steps[1, 0]]) < 1e-3

    def test_prefix_property_bitwise(self):
        for idx in range(20):
            pair = run_many(
                SQUARE, (1.0, 1.0), [0.1, 1e-3], master_seed=55, start_index=idx, trace=True
            )
            pts = pair.trace
            assert len(pts) == pair.steps[1, 0] + 1
            np.testing.assert_array_equal(SQUARE._proj(pts[-1:])[0], pair.exits[1, 0])
            dists = SQUARE._dist(pts)
            first_inside = int(np.argmax(dists < 0.1))
            np.testing.assert_array_equal(SQUARE._proj(pts[first_inside:first_inside + 1])[0],
                                          pair.exits[0, 0])
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

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("problem", [square_problem(), hemisphere_problem()],
                             ids=["square", "hemisphere"])
    @PROPERTY
    @given(coarse=st.floats(0.05, 0.9),
           ratio=st.sampled_from([1.0, 4.0, 16.0]) | st.floats(1.0, 1e3),
           count=st.integers(1, 150), start=st.integers(0, 2 ** 40), level=st.integers(0, 5),
           width=st.sampled_from([5, 64, walk._WIDTH]), seed=SEEDS)
    def test_fine_record_is_the_plain_walk(self, problem, threads, coarse, ratio, count, start,
                                           level, width, seed):
        """A pair's fine record is the plain walk to the fine width, exits
        and steps bit for bit: a measured ladder that drops its coarsest
        level reads the pairs' fine values as that walk's samples."""
        d0 = problem.domain.distance_to_boundary(problem.start)
        widths = (coarse * d0, coarse * d0 / ratio)
        args = dict(master_seed=seed, context=7, level=level, start_index=start, count=count,
                    threads=threads)
        with _width(width):
            pair = run_many(problem.domain, problem.start, widths, **args)
            plain = run_many(problem.domain, problem.start, widths[1:], **args)
        np.testing.assert_array_equal(pair.exits[1], plain.exits[0])
        np.testing.assert_array_equal(pair.steps[1], plain.steps[0])


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
