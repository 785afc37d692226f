"""Splittable random streams and walk-on-spheres path simulation.

Randomness is counter based: every sample owns an independent stream
addressed by a :class:`StreamKey` (master seed, context tag, level, sample
index), and any position inside any stream can be generated directly without
producing predecessors. The generator is Philox4x64-10, implemented here as
a vectorized kernel over numpy uint64 arrays; it is bit-for-bit the same
function numpy's own ``Philox`` bit generator computes (see the tests), but
random access by (key, counter) lets whole batches of paths draw their next
jump direction in one array operation.

Every path step consumes a fixed number of 32-bit words of its stream, the
fewest its direction needs: one in 1-D and 2-D, two in 3-D (Archimedes'
hat-box theorem), and from 4-D on two per lane of the dimension rounded up
to even, for normalized Box-Muller gaussians. A lane (a 64-bit Philox
output word) holds two words, its high half first. Every point on the unit
circle (the 2-D direction, the 3-D azimuth, each Box-Muller pair) is the
angle 2 pi m / 2^53 of 53 bits ``m`` (a word ``w`` as ``w << 21``, a
Box-Muller lane's top 53 bits), read from a 4096-row table of cos and sin
and rotated by the angle of ``m``'s low 41 bits with a short Taylor series
(:func:`_circle`), within 1e-15 of libm's value. This is stream format 4
(``STREAM_FORMAT``). Consequence: a walk's trajectory depends only on its
key, never on thread count, batch membership, or execution order. So one
engine call can run walks of many streams, each with its own context and
sample index.

The engine (``_walk_chunk``) runs a wavefront: a fixed-width set of walks
in flight, advanced together, drawing their words in strides aligned to
whole Philox blocks, with finished walks replaced by the next sample index.
Once no samples are left to refill, each draw covers up to twice as many
strides as the one before, so a call's tail takes few draws.
"""

from __future__ import annotations

import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import Domain, as_point

__all__ = [
    "STREAM_FORMAT",
    "StreamKey",
    "BatchResult",
    "StepLimitExceeded",
    "run_many",
    "resolve_threads",
    "trace_csv",
    "DEFAULT_MAX_STEPS",
]

# Version of how a walk turns its stream into directions: the word layout
# and the unit-circle arithmetic. Artifacts record it, since every sample
# depends on it.
STREAM_FORMAT = 4

# A path this long means the stopping width is unreachable or the stream is
# pathological; turning it into an error keeps hangs diagnosable.
DEFAULT_MAX_STEPS = 10_000_000

# Walks in flight per wavefront. It also caps a tail draw (one made when no
# samples are left to refill) at that many strides summed over the walks in
# flight, so no draw holds more lanes than one stride at full width.
# Outputs do not depend on it: each walk draws only from its own stream and
# writes only its own output row. It trades per-call numpy overhead and
# thread scaling against peak memory. Wider means fewer numpy calls per
# walk step, and enough work in each for threads to overlap between
# interpreter-lock handoffs; a call is split across threads only when each
# thread gets a full width. Narrower means smaller per-draw temporaries;
# the allocator keeps freed ones, so peak RSS grows with the width. On a
# 2-core host, 2 threads at 8192 ran no faster than 1; at 16384 they ran
# faster, for 3 MB more peak RSS on the 3-D MEAS benchmark workload (46.3
# against 43.3 MB, medians of 4 runs each at stream format 2).
_WIDTH = 16384

# A wavefront drops its finished walks mid-draw once at most this share of
# the walks in flight are still going, and at the end of every draw. Until
# then a finished walk keeps its slot, jumps on inside the domain (a jump
# stays within the ball its boundary distance allows) and records nothing.
# Outputs do not depend on it. Dropping them after every sub-step on which
# a walk finished took 8% more process time per step on 100k-walk calls on
# the square at 1e-3 and 10% on hemisphere pairs at (0.016, 1e-3); only at
# a draw's end, about the same as this (medians of 6 alternated rounds at
# threads 1, 2 vCPU).
_COMPACT_SHARE = 0.5

# Philox4x64-10 round multipliers of counter words 0 and 2, one row each, as
# full 64-bit values and as 32-bit halves (the 128-bit products are built
# from those), and round r's key offsets r * (W0, W1), the Weyl increments
# of key words 0 and 1, wrapped to 64 bits.
_MUL = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_ROUND_OFFSETS = np.array(
    [[r * w % 2 ** 64 for w in (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)] for r in range(10)],
    dtype=np.uint64,
)
# Shift and mask operands are 0-d arrays: a numpy scalar operand costs a
# ufunc call about half a microsecond more.
_MASK32 = np.array(0xFFFFFFFF, dtype=np.uint64)
_S32 = np.array(32, dtype=np.uint64)
_MUL_HI = _MUL >> _S32
_MUL_LO = _MUL & _MASK32
_S11 = np.array(11, dtype=np.uint64)
_S16 = np.array(16, dtype=np.uint64)
_S52 = np.array(52, dtype=np.uint64)
# A lane's high 32-bit word ``w`` as ``w << 21``, once the lane is shifted
# right by 11.
_HIGH_WORD = np.array((2 ** 32 - 1) << 21, dtype=np.uint64)
_U64ONE = np.array(1, dtype=np.uint64)
# Calls of at most this many blocks multiply by rows of their own shape;
# larger ones by the (2, 1) columns above. A broadcast column costs a
# multiply about twice the time of a same-shape operand on a few hundred
# elements, and the same from ~16384 on, where full rows would add three
# (2, blocks) arrays to the call's peak memory.
_FULL_ROWS_MAX = 4096

_INV53 = float(2.0 ** -53)
_INV52 = float(2.0 ** -52)
_TWOPI = 2.0 * math.pi
# A lane's top 53 bits times this are 2 pi u bit for bit: scaling by a power
# of two is exact, so one rounding happens either way.
_ANGLE = _TWOPI * _INV53


def _u64(value: int) -> np.uint64:
    # Exact conversion; the scalar constructor routes large ints through
    # float64 and loses low bits.
    return np.array(value, dtype=np.uint64)[()]


def philox4x64(c0, c1, c2, c3, k0, k1):
    """One Philox4x64-10 block: four uint64 words per counter.

    Arguments broadcast; uint64 wraparound is the intended arithmetic.

    The state is two flat (2, n) arrays, ``a`` = (c0, c2), the words a
    round multiplies, and ``b`` = (c1, c3). A round computes the 128-bit
    products of ``a``'s rows with the multipliers into ``hi`` and ``lo``,
    then c0 <- hi(c2) ^ c1 ^ k0, c1 <- lo(c2), c2 <- hi(c0) ^ c3 ^ k1,
    c3 <- lo(c0). The new ``a`` is written row by row, and the new ``b`` is
    ``lo`` with its rows swapped, read only row by row, so no operand has
    a negative stride. ``lo`` and ``b`` trade buffers each round: every
    buffer is made once per call, and every operation writes with ``out=``.
    Key word ``k0`` is one value for all counters; its ten round keys take
    one add. Key word ``k1`` is one value or one per row (broadcast against
    the counters, as a (rows,) key against a (blocks, rows) grid); each
    round's ``k1`` key is made into the free ``t`` buffer, so no (10, rows)
    table of round keys is made.
    """
    shape = np.broadcast_shapes(*(np.shape(v) for v in (c0, c1, c2, c3, k1)))
    a = np.empty((2,) + shape, dtype=np.uint64)
    lo = np.empty_like(a)
    # ``lo`` holds b = (c1, c3) rows swapped, as every later round leaves it.
    a[0], a[1], lo[0], lo[1] = c0, c2, c3, c1
    a, lo = a.reshape(2, -1), lo.reshape(2, -1)
    n = a.shape[1]
    if n <= _FULL_ROWS_MAX:
        mul, mul_hi, mul_lo = (np.repeat(m, n, axis=1) for m in (_MUL, _MUL_HI, _MUL_LO))
    else:
        mul, mul_hi, mul_lo = _MUL, _MUL_HI, _MUL_LO
    spare, hi, t, w = (np.empty_like(a) for _ in range(4))
    a0, a1 = a
    hi0, hi1 = hi
    keys0 = _ROUND_OFFSETS[:, 0] + k0
    # The c2 row in the broadcast shape, and the first elements of ``t`` in
    # k1's shape, where each round's k1 key is made.
    grid1, key1 = a1.reshape(shape), t.reshape(-1)[:np.size(k1)].reshape(np.shape(k1))
    for rnd in range(10):
        b1, b0 = lo
        lo, spare = spare, lo
        # (hi, lo) = a * mul; a's 32-bit halves times mul's, summed with
        # carries into t and w. Overwrites a.
        np.multiply(mul, a, out=lo)
        np.right_shift(a, _S32, out=hi)
        np.bitwise_and(a, _MASK32, out=a)
        np.multiply(mul_lo, a, out=t)
        np.right_shift(t, _S32, out=t)
        np.multiply(a, mul_hi, out=a)
        np.add(t, a, out=t)
        np.multiply(mul_lo, hi, out=w)
        np.bitwise_and(t, _MASK32, out=a)
        np.add(w, a, out=w)
        np.multiply(hi, mul_hi, out=hi)
        np.right_shift(t, _S32, out=t)
        np.add(hi, t, out=hi)
        np.right_shift(w, _S32, out=w)
        np.add(hi, w, out=hi)
        np.bitwise_xor(hi1, b0, out=a0)
        np.bitwise_xor(hi0, b1, out=a1)
        np.bitwise_xor(a0, keys0[rnd, ...], out=a0)
        np.add(k1, _ROUND_OFFSETS[rnd, 1, ...], out=key1)
        np.bitwise_xor(grid1, key1, out=grid1)
    return a0.reshape(shape), lo[1].reshape(shape), a1.reshape(shape), lo[0].reshape(shape)


@dataclass(frozen=True)
class StreamKey:
    """Address of one random stream.

    ``master_seed`` is the user-facing 64-bit seed; ``context`` tags the
    study or estimator activity (32 bits); ``level`` is the discretization
    level (16 bits); ``sample_index`` numbers the sample within its activity.
    Distinct keys yield independent streams, identical keys identical ones.
    """

    master_seed: int
    context: int = 0
    level: int = 0
    sample_index: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError("master_seed must fit in 64 unsigned bits")
        if not 0 <= self.context < 2 ** 32:
            raise ValueError("context must fit in 32 unsigned bits")
        if not 0 <= self.level < 2 ** 16:
            raise ValueError("level must fit in 16 unsigned bits")
        if not 0 <= self.sample_index < 2 ** 64:
            raise ValueError("sample_index must fit in 64 unsigned bits")


def _stream_words(value, count: int, bits: int, name: str):
    """A per-walk field of ``run_many``: an int, or a 1-D array of ``count``
    integers below ``2 ** bits`` returned as uint64. An error names the
    first walk whose value is out of range."""
    if np.ndim(value) == 0:
        return int(value)
    words = np.asarray(value)
    if words.ndim != 1 or words.size != count:
        raise ValueError(f"{name} must be an integer or a 1-D array of count={count} integers")
    if words.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers (uint64 for indices of 2**63 and above)")
    if words.dtype.kind == "i" and words.min() < 0:
        raise ValueError(f"{name} of walk {int((words < 0).argmax())} must not be negative")
    words = words.astype(np.uint64, copy=False)
    if bits < 64 and words.max() >= 2 ** bits:
        bad = int((words >= 2 ** bits).argmax())
        raise ValueError(f"{name} of walk {bad} must fit in {bits} unsigned bits")
    return words


def _width_table(thresholds, rows, count: int, d0: float):
    """``run_many``'s stopping widths as a (table rows, records) float array
    and the row of each walk: ``None`` for a table of one row, which every
    walk reads, else an int array of ``count`` row numbers. A 1-D
    ``thresholds`` is one row; a 2-D one needs ``rows``. Errors about a
    row of a 2-D table name it."""
    thr = np.asarray(thresholds, dtype=np.float64)
    table = thr.reshape(1, -1) if thr.ndim == 1 else thr
    if table.ndim != 2 or table.size == 0:
        raise ValueError("need at least one stopping width")
    for i, row in enumerate(table):
        of = "" if thr.ndim == 1 else f" of row {i}"
        if not np.all(np.isfinite(row) & (row > 0.0)):
            raise ValueError(f"stopping widths{of} must be finite and positive")
        if np.any(np.diff(row) > 0.0):
            raise ValueError(f"stopping widths{of} must be nonincreasing")
        if row[0] >= d0:
            raise ValueError(f"stopping width {row[0]:g}{of} is not below the start distance {d0:g}")
    if rows is None:
        if len(table) > 1:
            raise ValueError("a table of several width rows needs threshold_rows")
        return table, None
    rows = np.broadcast_to(_stream_words(rows, count, 64, "threshold_rows"), count)
    bad = np.flatnonzero(rows >= len(table))
    if bad.size:
        raise ValueError(f"threshold_rows of walk {bad[0]} names no row of the "
                         f"{len(table)}-row table")
    return table, (None if len(table) == 1 else rows.astype(np.intp))


def _stream_rows(streams, rows):
    """Philox key word 1 and counter word 1 of the walks at call rows
    ``rows`` (an int64 array) of ``streams``, (master_seed, context, level,
    start), as ``run_many`` takes them.

    Key word 0 is the master seed and word 1 packs the context with the
    level, ``(context << 16) | level``, so (master_seed, context, level)
    map injectively into the 128-bit key; word 1 is one 0-d value for an
    int ``context`` and ``level``, else one per row, an array field giving
    row ``i`` its value at [i]. The counter word is the sample index:
    ``start + rows`` for an int ``start``, else ``start[rows]``.
    """
    _, context, level, start = streams
    if np.ndim(context):
        context = context[rows]
    level = level[rows] if np.ndim(level) else _u64(level)
    key = (np.asarray(context, dtype=np.uint64) << _S16) | level
    index = start[rows] if np.ndim(start) else _u64(start) + rows.astype(np.uint64)
    return key, index


def _row_key(streams, row: int) -> StreamKey:
    """The stream key of call row ``row`` of ``streams``, its context and
    level read back from its own key word."""
    key, index = _stream_rows(streams, np.array([row]))
    word = int(np.ravel(key)[0])
    return StreamKey(streams[0], word >> 16, word & 0xFFFF, int(index[0]))


def _raw_lanes(k0, k1, words, first, blocks):
    """Uniform uint64 lanes of Philox blocks ``first`` to ``first + blocks
    - 1`` of each stream word in ``words``, as a (4 * blocks, rows) array:
    lane ``4 * first[r] + i`` of stream ``words[r]`` at [i, r].

    Lane j lives in block j//4 at position j%4; blocks are generated in one
    vectorized call over a (blocks, rows) counter grid.
    """
    c0 = (np.arange(blocks, dtype=np.int64)[:, None] + first).astype(np.uint64)
    zero = _u64(0)
    block = philox4x64(c0, words, zero, zero, k0, k1)
    lanes = np.empty((blocks, 4, len(words)), dtype=np.uint64)
    for q in range(4):
        lanes[:, q] = block[q]
    return lanes.reshape(4 * blocks, len(words))


# The top 12 of an angle's 53 bits pick a unit-circle table row, the low 41
# the rotation from it. ``_circle`` works ``_CIRCLE_CHUNK`` elements at a
# time, through three chunk-sized temporaries: 384 KiB at this size, within
# the traced bound of a full-width planar call. Each chunk takes 20 numpy
# calls, and every call hands the interpreter lock between threads, so
# halving the chunk made a 2-thread WOS solve of the square about 10%
# slower (30 alternated runs, 2 vCPU).
_CIRCLE_BITS = 12
_S41 = np.array(53 - _CIRCLE_BITS, dtype=np.int64)
_LOW41 = np.array(2 ** (53 - _CIRCLE_BITS) - 1, dtype=np.int64)
_CIRCLE_CHUNK = 16384


def _circle_table():
    """cos (row 0) and sin (row 1) of k * 2 pi / 4096, 2 pi as ``_TWOPI``,
    each within 1.1e-16 of its exact value. ``np.cos(k * step)`` alone is
    off by up to 4.4e-16, the rounding of the angle, so each row is
    rotated back by that rounding ``e``; ``k`` times ``step``'s top 41 bits
    ``hi`` is exact, and so is ``e`` but for the last bits of ``k * lo``."""
    k = np.arange(2 ** _CIRCLE_BITS, dtype=np.float64)
    step = _TWOPI / 2 ** _CIRCLE_BITS
    frac, exp = math.frexp(step)
    hi = math.ldexp(math.floor(math.ldexp(frac, 41)), exp - 41)
    lo = step - hi
    angle = k * step
    e = (k * hi - angle) + k * lo
    cos, sin = np.cos(angle), np.sin(angle)
    return np.stack([cos - sin * e, sin + cos * e])


_CIRCLE = _circle_table()


def _circle(m, cos, sin):
    """Write cos and sin of the angles ``m * _ANGLE`` (2 pi m / 2^53) into
    ``cos`` and ``sin``.

    ``m`` holds 53-bit angles as uint64 (a word ``w`` as ``w << 21``, or a
    lane's top 53 bits) and is overwritten; all three are (n, rows) arrays
    of one shape with contiguous rows. The top 12 bits
    of ``m`` pick a row (t_c, t_s) of ``_CIRCLE``, and the low 41 give the
    rest of the angle, d < 2 pi / 4096 < 1.6e-3. The row is rotated by d,
    the table value added last: cos = t_c + (t_c (cos d - 1) - t_s sin d)
    and sin = t_s + (t_s (cos d - 1) + t_c sin d), with sin d ~ d - d^3/6
    and cos d - 1 ~ -d^2/2 + d^4/24 (truncation below 7.1e-17 and 1.9e-20).
    Over 1M random words each coordinate came within 2.1e-16 of the exact
    value and within 5.6e-16 of ``np.cos``/``np.sin`` of the rounded
    angle, in about a quarter of their time. Elementwise, so chunking
    changes no bit.
    """
    n, rows = m.shape
    width = min(rows, _CIRCLE_CHUNK)
    per = _CIRCLE_CHUNK // width
    # k (as int64), then the table's cos and sin of each chunk.
    buf = np.empty((3, min(n, per) * width))
    for i in range(0, n, per):
        for j in range(0, rows, width):
            part = (slice(i, i + per), slice(j, j + width))
            mi, c, s = m[part].view(np.int64), cos[part], sin[part]
            kf, tc, ts = (b[:mi.size].reshape(mi.shape) for b in buf)
            k, f = kf.view(np.int64), mi.view(np.float64)
            np.right_shift(mi, _S41, out=k)
            np.bitwise_and(mi, _LOW41, out=mi)
            np.multiply(mi, _ANGLE, out=s)  # d
            np.multiply(s, s, out=f)  # d^2, where m was
            np.multiply(f, 1.0 / 24.0, out=c)
            c -= 0.5
            c *= f  # cos d - 1
            f *= -1.0 / 6.0
            f += 1.0
            f *= s  # sin d
            # Rows are below 2^12, so no index is clipped; "raise" would
            # gather through a chunk-sized copy of ``out``.
            _CIRCLE[0].take(k, out=tc, mode="clip")
            _CIRCLE[1].take(k, out=ts, mode="clip")
            np.multiply(ts, c, out=s)
            np.multiply(tc, f, out=kf)
            s += kf
            s += ts
            c *= tc
            f *= ts
            c -= f
            c += tc


def _lanes_to_normals(lanes, dim):
    """Box-Muller gaussians for directions in ``dim`` >= 4 dimensions, as a
    (dim, steps, rows) array; ``lanes`` is overwritten.

    ``lanes`` is (steps * L, rows), ``L`` (``dim`` rounded up to even)
    lanes per direction: step ``t`` of column ``r`` takes lanes ``t*L`` to
    ``t*L + L - 1``, so every lane pair lies within one step. Pair ``p`` of
    a step gives its coordinates ``2p`` (cosine) and ``2p + 1`` (sine): the
    even lane feeds the radial log term via the (0,1] mapping, the odd lane
    the angle via :func:`_circle`. In odd dimensions the last pair's sine
    is made but not returned.
    """
    half = (dim + 1) // 2
    rows = lanes.shape[-1]
    np.right_shift(lanes, _S11, out=lanes)
    pairs = lanes.reshape(-1, half, 2, rows)
    r = (pairs[:, :, 0] + _U64ONE) * _INV53
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    # Coordinates first, so the (dim, steps * rows) result is contiguous.
    out = np.empty((2 * half, pairs.shape[0], rows))
    for p in range(half):
        _circle(pairs[:, p, 1], out[2 * p], out[2 * p + 1])
        out[2 * p:2 * p + 2] *= r[:, p]
    return out[:dim]


def _words_per_direction(dim: int) -> int:
    """32-bit words a step's direction takes: one in 1-D and 2-D, two in
    3-D, and from 4-D on two per lane of ``dim`` rounded up to even
    (Box-Muller pairs)."""
    if dim <= 3:
        return max(dim - 1, 1)
    return 4 * ((dim + 1) // 2)


def _split_words(lanes, low):
    """Turn each lane's two 32-bit words ``w`` into the 53-bit ``w << 21``:
    the high word's in place in ``lanes``, the low word's into ``low``, a
    uint64 array of ``lanes``' shape."""
    np.left_shift(lanes, _S32, out=low)
    np.right_shift(low, _S11, out=low)
    np.right_shift(lanes, _S11, out=lanes)
    np.bitwise_and(lanes, _HIGH_WORD, out=lanes)


def _directions(dim, lanes):
    """Unit directions from ``lanes`` (n, rows), returned as a (steps *
    rows, dim) view: direction ``t * rows + r`` is step ``t`` of column
    ``r``. Its transpose is contiguous (dim, steps * rows).

    In 1-D to 3-D each lane is two 32-bit words, its high half first, and
    ``u`` is a word ``w`` times 2^-32, uniform on [0, 1). 1-D and 2-D
    steps take a word each, so the n lanes give 2n steps: 1-D the sign of
    the word's top bit, 2-D the angle 2 pi u. A 3-D step takes a lane:
    z = 2u - 1 from its high word and the azimuth 2 pi v from its low one,
    at radius sqrt(1 - z^2) about the z axis. The height of a uniform
    point on the sphere is uniform on [-1, 1] and independent of its
    azimuth (Archimedes' hat-box theorem; Marsaglia 1972). Every word goes
    through the format-3 arithmetic of a lane's top 53 bits as ``w << 21``,
    so z = (w << 21) 2^-52 - 1 and :func:`_circle` gives the angle 2 pi u
    exactly. From 4-D on, each step takes ``dim`` rounded up to even whole
    lanes, for normalized Box-Muller gaussians. ``lanes`` is overwritten; in 1-D to 3-D the low words wait
    in the result's own memory and the directions are written straight
    into it.
    """
    if dim > 3:
        g = _lanes_to_normals(lanes, dim).reshape(dim, -1)
        n2 = g[0] * g[0]
        for j in range(1, dim):
            n2 += g[j] * g[j]
        norm = np.sqrt(n2, out=n2)
        # A zero gaussian vector has probability ~2^-53 per draw; fall back
        # to the first axis deterministically rather than divide by zero.
        degenerate = norm == 0.0
        if degenerate.any():
            g[:, degenerate] = 0.0
            g[0, degenerate] = 1.0
            norm[degenerate] = 1.0
        g /= norm
        return g.T
    n, rows = lanes.shape
    if dim == 3:
        out = np.empty((3, n, rows))
        azimuth = out[2].view(np.uint64)
        _split_words(lanes, azimuth)
        _circle(azimuth, out[0], out[1])
        z = out[2]
        np.multiply(lanes, _INV52, out=z)
        z -= 1.0
        r = z * z
        np.subtract(1.0, r, out=r)
        np.sqrt(r, out=r)
        out[:2] *= r
        return out.reshape(3, -1).T
    # Step 2j takes lane j's high word, step 2j + 1 its low word, which
    # waits in the first coordinate of step 2j.
    out = np.empty((dim, 2 * n, rows))
    low = out[0, 0::2].view(np.uint64)
    _split_words(lanes, low)
    for m, steps in ((low, slice(1, None, 2)), (lanes, slice(0, None, 2))):
        if dim == 1:
            np.right_shift(m, _S52, out=m)
            np.multiply(m, -2.0, out=out[0, steps])
            out[0, steps] += 1.0
        else:
            _circle(m, out[0, steps], out[1, steps])
    return out.reshape(dim, -1).T


class StepLimitExceeded(RuntimeError):
    """A walk exceeded ``max_steps``; ``key`` is the stream it drew from.

    ``run_many`` reports the lowest walk of the call that exceeds the
    limit, whatever the width and thread count, with that walk's own
    context, level and sample index.
    """

    def __init__(self, max_steps: int, key: StreamKey):
        self.max_steps = max_steps
        self.key = key
        self.master_seed = key.master_seed
        self.context = key.context
        self.level = key.level
        self.sample_index = key.sample_index
        super().__init__(
            f"walk of stream (master_seed={key.master_seed}, context={key.context}, "
            f"level={key.level}, sample_index={key.sample_index}) exceeded {max_steps} "
            f"steps; the stopping width may be unreachable"
        )


@dataclass
class BatchResult:
    """Arrays for ``count`` walks recorded at each stopping width.

    ``exits`` (num_thresholds, count, dim) project the walks' stops onto
    the boundary; ``steps`` (num_thresholds, count) count the steps to them.
    Row order is sample-index order. A traced walk's positions, the start
    and every step, are ``trace``; its stop at width k is trace[steps[k]].
    """

    exits: np.ndarray
    steps: np.ndarray
    trace: Optional[np.ndarray] = None


def _walk_chunk(domain, x0, widths, streams, count, max_steps, stops, steps, lo=0, trace=False):
    """Run the ``count`` walks of call rows ``lo`` to ``lo + count - 1`` as
    one wavefront.

    ``streams`` is ``run_many``'s (master_seed, context, level, start): row
    ``i`` draws from the stream whose key words :func:`_stream_rows` makes,
    (master_seed, context, level, start + i), or with row ``i``'s own value
    at [i] of a ``context``, ``level`` or ``start`` given as a uint64
    array. The key words are made for the walks in flight at each draw.
    ``widths`` is :func:`_width_table`'s (table, rows): row ``i`` records
    at the widths of table row ``rows[i]``, or of its one row for ``rows``
    None. With one row, each sub-step gathers the walks' next widths by
    the thresholds they crossed; with a table, each walk in flight keeps
    its own next width, set when it enters and moved on when it records,
    so no sub-step gathers from the table.

    At most ``_WIDTH`` walks are in flight, in ascending row order. Each
    iteration draws Philox blocks for every walk in flight in whole strides
    (eight steps per block in 1-D and 2-D, four in 3-D, one in 4-D, two per
    three blocks in 5-D). It keeps the draw's lanes and turns about
    ``4 * _WIDTH`` words of them at a time into directions, whole lanes of
    every column still in flight (half a block per walk at full width).
    Between those calls it advances the walks one sub-step at a time: jump
    the current boundary distance in the step's direction, record every
    threshold crossed. A walk past its last threshold stays in its slot,
    jumping on inside the domain and recording nothing, until at most
    ``_COMPACT_SHARE`` of the walks in flight are still going or the draw
    ends; then the finished walks are dropped. While rows are left, an
    iteration draws one stride, and finished slots are refilled with the
    next rows at the stride boundary. After that (the tail), draws cover 1,
    2, 4, ... strides, capped so that walks times strides stays within
    ``_WIDTH``, whatever the call's count: a lone walk's draws grow too.
    Every draw but a walk's last is used in full, and its last is at most
    one stride longer than all its earlier draws together, so the words
    drawn stay below twice the words used plus one stride per walk. Step
    ``t`` of every walk uses words ``t*W`` to ``(t+1)*W - 1`` of its stream
    (``W`` words per direction; word ``2j`` is lane ``j``'s high half).
    Walks enter and draw in whole strides, so every draw starts on a block
    boundary.

    Row ``i`` writes column ``i`` of the call's ``stops`` (nthr, rows, dim)
    and ``steps`` (nthr, rows). With ``trace`` (one walk), returns its
    position after every step, the start included.
    """
    dim = domain.dim
    table, rows = widths
    nthr = table.shape[1]
    words = _words_per_direction(dim)
    stride = math.lcm(words, 8) // words
    # The fewest lanes that hold whole steps: one lane holds two 1-D or 2-D
    # steps, or one 3-D step.
    unit = -(-words // 2)
    k0 = _u64(streams[0])
    d0 = max(float(domain._dist(x0[None, :])[0]), 0.0)
    # A walk past its last threshold compares against -inf: no more hits.
    thr_next = np.append(table, np.full((len(table), 1), -np.inf), axis=1)
    if rows is None:
        thr_next = thr_next[0]

    # One entry per walk in flight, in ascending row order; positions are
    # stored coordinate-major, (dim, walks), so every numpy call runs along
    # the walks.
    idx = np.empty(0, dtype=np.int64)  # call row
    pos = np.empty((dim, 0))
    dist = np.empty(0)
    entry = np.empty(0, dtype=np.int64)  # value of ``now`` when it started
    ptr = np.empty(0, dtype=np.int64)  # thresholds crossed
    # With a table: each walk's width row, and thr_next[row, ptr].
    wrow, nxt = (None, None) if rows is None else (np.empty(0, dtype=np.intp), np.empty(0))
    now = 0  # sub-steps taken by the wavefront
    history = [x0.copy()] if trace else None
    filled = 0
    reach = 1  # strides in the next draw once no rows are left to refill
    while True:
        new = min(_WIDTH - idx.size, count - filled)
        if new:
            idx = np.concatenate([idx, np.arange(lo + filled, lo + filled + new)])
            pos = np.concatenate([pos, np.broadcast_to(x0[:, None], (dim, new))], axis=1)
            dist = np.concatenate([dist, np.full(new, d0)])
            entry = np.concatenate([entry, np.full(new, now)])
            ptr = np.concatenate([ptr, np.zeros(new, dtype=np.int64)])
            if rows is not None:
                added = rows[lo + filled:lo + filled + new]
                wrow = np.concatenate([wrow, added])
                nxt = np.concatenate([nxt, thr_next[added, 0]])
            filled += new
        if not idx.size:
            return history
        nsub = stride
        if filled == count:
            reach = min(reach, _WIDTH // idx.size)
            nsub *= reach
            reach *= 2
        lanes = _raw_lanes(
            k0, *_stream_rows(streams, idx),
            (now - entry) * words // 8, nsub * words // 8,
        )
        # Lanes per column of a ``_directions`` call, about 2 * _WIDTH in all.
        span = max(unit, 2 * _WIDTH // idx.size // unit * unit)
        going = idx.size  # walks not yet past their last threshold
        # Entry of a walk at or before the oldest one still going, which
        # has the lowest row of those going.
        oldest = int(entry[0])
        live = None  # columns of ``lanes`` and ``dirs`` in flight, once some have left
        while lanes.size:
            part = lanes[:span] if live is None else lanes[:span].take(live, axis=1)
            # (dim, sub-step, walk in flight); the lanes are overwritten.
            dirs = _directions(dim, part).T.reshape(dim, -1, idx.size)
            lanes = lanes[span:] if live is None else lanes[span:].take(live, axis=1)
            del part
            live = None
            for t in range(dirs.shape[1]):
                if now - oldest >= max_steps:
                    first = int((ptr < nthr).argmax())
                    oldest = int(entry[first])
                    if now - oldest >= max_steps:
                        raise StepLimitExceeded(max_steps, _row_key(streams, int(idx[first])))
                g = dirs[:, t] if live is None else dirs[:, t].take(live, axis=1)
                g *= dist
                pos += g
                now += 1
                dist = domain._dist(pos.T)
                np.maximum(dist, 0.0, out=dist)
                if trace:
                    history.append(pos[:, 0].copy())
                # One jump can cross several widths at once; record them all
                # at the same position, which realizes the first-crossing rule.
                hit = (dist < (thr_next[ptr] if nxt is None else nxt)).nonzero()[0]
                if hit.size:
                    crossed = hit
                    while hit.size:
                        k, col = ptr[hit], idx[hit]
                        stops[k, col] = pos[:, hit].T
                        steps[k, col] = now - entry[hit]
                        ptr[hit] = k + 1
                        if nxt is None:
                            hit = hit[dist[hit] < thr_next[k + 1]]
                        else:
                            nxt[hit] = thr_next[wrow[hit], k + 1]
                            hit = hit[dist[hit] < nxt[hit]]
                    going -= int(np.count_nonzero(ptr[crossed] == nthr))
                end = not lanes.size and t == dirs.shape[1] - 1
                if going < idx.size and (end or going <= _COMPACT_SHARE * idx.size):
                    keep = (ptr < nthr).nonzero()[0]
                    idx, dist, entry, ptr = idx[keep], dist[keep], entry[keep], ptr[keep]
                    if nxt is not None:
                        wrow, nxt = wrow[keep], nxt[keep]
                    pos = pos.take(keep, axis=1)
                    live = keep if live is None else live[keep]
                    if not going:
                        break
            # Freed before the next directions (``g`` may be a view of
            # ``dirs``), which would otherwise peak beside them.
            del dirs, g
            if not going:
                break
        # Even empty, a slice of the draw's lanes holds them through the next.
        del lanes


def run_many(
    domain: Domain,
    x0,
    thresholds,
    master_seed: int,
    context=0,
    level=0,
    start_index=0,
    count: int = 1,
    max_steps: int = DEFAULT_MAX_STEPS,
    threads: Optional[int] = None,
    trace: bool = False,
    threshold_rows=None,
) -> BatchResult:
    """Run ``count`` independent walks, each recorded at every threshold.

    Walk ``i`` draws from the stream keyed by
    ``StreamKey(master_seed, context, level, start_index + i)``. Any of
    ``context``, ``level`` and ``start_index`` may instead be a 1-D integer
    array of ``count`` values, one per walk: walk ``i`` then takes
    ``context[i]``, ``level[i]`` or sample index ``start_index[i]`` (uint64
    reaches 2**64 - 1), so one call can run walks of many streams.
    ``thresholds`` is one nonincreasing row of widths that every walk
    records at, or a 2-D table of such rows, all of one length, with
    ``threshold_rows`` giving each walk's row as ``count`` integers. A
    walk's results depend only on its stream and its widths.

    Results are written to slots in walk order, so the output is bitwise
    reproducible for any ``threads``; ``None`` takes the default of
    :func:`resolve_threads`. With more than one thread the walks are split
    into contiguous ranges, one wavefront each, but only into as many as
    hold a full ``_WIDTH`` of walks: the calling thread runs the first
    range and a pool the others. Once every range is done, the stops are
    projected to exits in place. One walk is ``count=1``; with
    ``trace=True`` (one walk only) the result's ``trace`` holds its
    (steps + 1, dim) positions, the start included.
    """
    x0 = as_point(x0, domain.dim)
    if count < 1:
        raise ValueError("count must be positive")
    widths = _width_table(thresholds, threshold_rows, count, domain.distance_to_boundary(x0))
    if trace and count != 1:
        raise ValueError("trace records one walk; count must be 1")
    context = _stream_words(context, count, 32, "context")
    level = _stream_words(level, count, 16, "level")
    start_index = _stream_words(start_index, count, 64, "start_index")
    # Range check of the int fields; an int start_index counts up to the
    # last walk's index.
    StreamKey(
        master_seed, 0 if np.ndim(context) else context, 0 if np.ndim(level) else level,
        0 if np.ndim(start_index) else start_index + count - 1,
    )
    streams = (master_seed, context, level, start_index)
    threads = resolve_threads(threads)

    nthr = widths[0].shape[1]
    stops = np.empty((nthr, count, domain.dim))
    steps = np.empty((nthr, count), dtype=np.int64)
    parts = max(1, min(threads, count // _WIDTH))
    bounds = [count * i // parts for i in range(parts + 1)]

    def work(lo, hi):
        return _walk_chunk(domain, x0, widths, streams, hi - lo, max_steps, stops, steps, lo, trace)

    if parts > 1:
        with ThreadPoolExecutor(max_workers=parts - 1) as pool:
            rest = [pool.submit(work, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
            # If the first range raises, leaving the block waits for the
            # workers; otherwise their results are read in range order. So
            # the lowest range's StepLimitExceeded is the one raised.
            history = work(0, bounds[1])
        for part in rest:
            part.result()
    else:
        history = work(0, count)
    # A width of rows at a time, so projecting adds no full-size array.
    for k in range(nthr):
        for a in range(0, count, _WIDTH):
            stops[k, a:a + _WIDTH] = domain._proj(stops[k, a:a + _WIDTH])
    return BatchResult(stops, steps, np.stack(history) if trace else None)


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


def trace_csv(domain: Domain, positions: np.ndarray) -> str:
    """Render one traced path as CSV with columns step, x1..xd, dist."""
    pts = np.asarray(positions, dtype=np.float64)
    dist = np.maximum(domain._dist(pts), 0.0)
    buf = io.StringIO()
    cols = ",".join(f"x{j + 1}" for j in range(domain.dim))
    buf.write(f"step,{cols},dist\n")
    for i in range(len(pts)):
        coords = ",".join(repr(float(v)) for v in pts[i])
        buf.write(f"{i},{coords},{repr(float(dist[i]))}\n")
    return buf.getvalue()
