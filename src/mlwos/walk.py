"""Splittable random streams and walk-on-spheres path simulation.

Randomness is counter based: every sample owns an independent stream
addressed by a :class:`StreamKey` (master seed, context tag, level, sample
index), and any position inside any stream can be generated directly without
producing predecessors. The generator is Philox4x64-10, implemented here as
a vectorized kernel over numpy uint64 arrays; it is bit-for-bit the same
function numpy's own ``Philox`` bit generator computes (see the tests), but
random access by (key, counter) lets whole batches of paths draw their next
jump direction in one array operation.

Directions are unit vectors from normalized Box-Muller gaussian draws, so
every path step consumes a fixed number of counter positions. Consequence:
a walk's trajectory depends only on its key, never on thread count, batch
membership, or execution order. So one engine call can run walks of many
streams, each with its own context and sample index.

The engine (``_walk_chunk``) runs a wavefront: a fixed-width set of walks
in flight, advanced together, drawing their lanes in strides aligned to
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
from typing import Optional, Sequence

import numpy as np

from .geometry import Domain, as_point

__all__ = [
    "StreamKey",
    "BatchResult",
    "StepLimitExceeded",
    "run_many",
    "resolve_threads",
    "trace_csv",
    "DEFAULT_MAX_STEPS",
]

# A path this long means the stopping width is unreachable or the stream is
# pathological; turning it into an error keeps hangs diagnosable.
DEFAULT_MAX_STEPS = 10_000_000

# Walks in flight per wavefront. A call's width, min(_WIDTH, count), also
# caps a tail draw (one made when no samples are left to refill) at that
# many strides summed over the walks in flight, so no draw holds more lanes
# than the call's first stride. Outputs do not depend on it: each walk
# draws only from its own stream and writes only its own output row. It
# trades per-call numpy overhead and thread scaling against peak memory.
# Wider means fewer numpy calls per walk step, and enough work in each for
# threads to overlap between interpreter-lock handoffs; a call is split
# across threads only when each thread gets a full width. Narrower means
# smaller per-draw temporaries; the allocator keeps freed ones, so peak RSS
# grows with the width. On a 2-core host, 2 threads at 8192 ran no faster
# than 1; at 16384 they ran faster, for 2 MB more peak RSS (49 MB on the
# 3-D MEAS benchmark workload).
_WIDTH = 16384

# Philox4x64-10 round multipliers of counter words 0 and 2, one row each, as
# full 64-bit values and as 32-bit halves (the 128-bit products are built
# from those), and the Weyl increments of key words 0 and 1.
_MUL = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_WEYL_U64 = np.array(_WEYL, dtype=np.uint64)
# Shift and mask operands are 0-d arrays: a numpy scalar operand costs a
# ufunc call about half a microsecond more.
_MASK32 = np.array(0xFFFFFFFF, dtype=np.uint64)
_S32 = np.array(32, dtype=np.uint64)
_MUL_HI = _MUL >> _S32
_MUL_LO = _MUL & _MASK32
_S11 = np.array(11, dtype=np.uint64)
_S16 = np.array(16, dtype=np.uint64)
_U64ONE = np.array(1, dtype=np.uint64)
_U64MAX = 2 ** 64 - 1
# Calls of at most this many blocks multiply by rows of their own shape;
# larger ones by the (2, 1) columns above. A broadcast column costs a
# multiply about twice the time of a same-shape operand on a few hundred
# elements, and the same from ~16384 on, where full rows would add three
# (2, blocks) arrays to the call's peak memory.
_FULL_ROWS_MAX = 4096

_INV53 = float(2.0 ** -53)
_TWOPI = 2.0 * math.pi


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
    Scalar key words' ten round keys are computed up front from Python
    ints. Key words given as arrays (one key per row, broadcast against
    the counters) are copied once and advanced in place each round, so no
    (10, rows) table of round keys is made.
    """
    shape = np.broadcast_shapes(*(np.shape(v) for v in (c0, c1, c2, c3, k0, k1)))
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
    row_keys = np.ndim(k0) or np.ndim(k1)
    if row_keys:
        # Copies advanced in place each round, XORed into the (c0, c2) rows
        # viewed in the broadcast shape.
        keys = [np.array(k, dtype=np.uint64) for k in (k0, k1)]
        shaped = (a0.reshape(shape), a1.reshape(shape))
    else:
        k0, k1 = int(k0), int(k1)
        keys = np.array(
            [((k0 + r * _WEYL[0]) & _U64MAX, (k1 + r * _WEYL[1]) & _U64MAX) for r in range(10)],
            dtype=np.uint64,
        )
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
        if row_keys:
            for row, key, inc in zip(shaped, keys, _WEYL_U64):
                np.bitwise_xor(row, key, out=row)
                np.add(key, inc, out=key)
        else:
            np.bitwise_xor(a0, keys[rnd, 0, ...], out=a0)
            np.bitwise_xor(a1, keys[rnd, 1, ...], out=a1)
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


def _key_words(master_seed: int, context: int, level: int):
    # (master_seed, context, level) pack injectively into the 128-bit Philox
    # key; the sample index occupies its own counter word.
    return _u64(master_seed), _u64((context << 16) | level)


def _stream_words(value, count: int, bits: int, name: str):
    """A stream field of ``run_many``: an int, or a 1-D array of ``count``
    integers below ``2 ** bits`` returned as uint64."""
    if np.ndim(value) == 0:
        return int(value)
    words = np.asarray(value)
    if words.ndim != 1 or words.size != count:
        raise ValueError(f"{name} must be an integer or a 1-D array of count={count} integers")
    if words.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers (uint64 for indices of 2**63 and above)")
    if words.dtype.kind == "i" and words.min() < 0:
        raise ValueError(f"{name} values must not be negative")
    words = words.astype(np.uint64, copy=False)
    if bits < 64 and words.max() >= 2 ** bits:
        raise ValueError(f"{name} values must fit in {bits} unsigned bits")
    return words


def _row_key(streams, row: int) -> StreamKey:
    """The stream key of row ``row`` of a wavefront's ``streams``."""
    master_seed, context, level, start = streams
    if np.ndim(context):
        context = int(context[row])
    index = int(start[row]) if np.ndim(start) else start + row
    return StreamKey(master_seed, context, level, index)


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


def _lanes_to_normals(lanes, dim):
    """Box-Muller gaussians for directions in ``dim`` dimensions, as a
    (dim, steps, rows) array.

    ``lanes`` is (steps * L, rows), ``L`` lanes per direction: step ``t`` of
    column ``r`` takes lanes ``t*L`` to ``t*L + L - 1``. ``L`` is even, so
    every lane pair lies within one step. Pair ``p`` of a step gives its
    coordinates ``2p`` (cosine) and ``2p + 1`` (sine): the even lane feeds
    the radial log term via the (0,1] mapping, the odd lane the angle via
    [0,1). In odd dimensions the last pair's sine is not used, so it is not
    computed.
    """
    half = _lanes_per_direction(dim) // 2
    rows = lanes.shape[-1]
    pairs = lanes.reshape(-1, half, 2, rows)
    r = ((pairs[:, :, 0] >> _S11) + _U64ONE) * _INV53
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta = (pairs[:, :, 1] >> _S11) * _INV53
    theta *= _TWOPI
    # Coordinates first, so the (dim, steps * rows) result is contiguous.
    out = np.empty((dim, pairs.shape[0], rows))
    r, theta = r.transpose(1, 0, 2), theta.transpose(1, 0, 2)
    cos, sin = out[0::2], out[1::2]
    np.cos(theta, out=cos)
    cos *= r
    if dim > 1:
        np.sin(theta[: dim // 2], out=sin)
        sin *= r[: dim // 2]
    return out


def _lanes_per_direction(dim: int) -> int:
    return 2 * ((dim + 1) // 2)


def _directions(dim, lanes):
    """Unit directions from ``lanes`` (steps * L, rows), returned as a
    (steps * rows, dim) view: direction ``t * rows + r`` is step ``t`` of
    column ``r``. Its transpose is contiguous (dim, steps * rows)."""
    g = _lanes_to_normals(lanes, dim).reshape(dim, -1)
    n2 = g[0] * g[0]
    for j in range(1, dim):
        n2 += g[j] * g[j]
    norm = np.sqrt(n2, out=n2)
    # A zero gaussian vector has probability ~2^-53 per draw; fall back to
    # the first axis deterministically rather than divide by zero.
    degenerate = norm == 0.0
    if degenerate.any():
        g[:, degenerate] = 0.0
        g[0, degenerate] = 1.0
        norm[degenerate] = 1.0
    g /= norm
    return g.T


class StepLimitExceeded(RuntimeError):
    """A walk exceeded ``max_steps``; ``key`` is the stream it drew from.

    ``run_many`` reports the lowest sample index whose walk exceeds the
    limit, whatever the width and thread count.
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

    ``stops``/``exits`` have shape (num_thresholds, count, dim); ``steps``
    has shape (num_thresholds, count). Row order is sample-index order.
    A traced walk's positions, the start and every step, are ``trace``.
    """

    stops: np.ndarray
    exits: np.ndarray
    steps: np.ndarray
    trace: Optional[np.ndarray] = None


def _walk_chunk(domain, x0, thr, streams, count, max_steps, stops, steps, trace=False):
    """Run ``count`` walks, rows 0 to ``count - 1``, as one wavefront.

    ``streams`` is (master_seed, context, level, start): row ``i`` draws
    from the stream (master_seed, context, level, start + i), where a
    ``context`` or ``start`` given as a uint64 array holds row ``i``'s own
    value at [i] instead.

    At most ``_WIDTH`` walks are in flight, in ascending row order. Each
    iteration draws lanes for every walk in flight in whole strides of
    Philox blocks (two steps per block in 2-D), turns them into directions
    in one call, then advances the walks one sub-step at a time: jump the
    current boundary distance in the step's direction, record every
    threshold crossed, drop walks past the last one. While rows are left,
    an iteration draws one stride, and finished slots are refilled with the
    next rows at the stride boundary. After that (the tail), draws cover
    1, 2, 4, ... strides, capped so that walks times strides stays within
    the width. Every draw but a walk's last is used in full, and its last
    is at most one stride longer than all its earlier draws together, so
    the lanes drawn stay below twice the lanes used plus one stride per
    walk. Step ``t`` of every walk uses lanes ``t*L`` to ``(t+1)*L - 1`` of
    its stream (``L`` lanes per direction). Walks enter and draw in whole
    strides, so every draw starts on a block boundary.

    Row ``i`` writes column ``i`` of ``stops`` (nthr, count, dim) and
    ``steps`` (nthr, count). With ``trace`` (one walk), returns its
    position after every step, the start included.
    """
    dim = domain.dim
    nthr = thr.size
    lanes_per_step = _lanes_per_direction(dim)
    stride = math.lcm(lanes_per_step, 4) // lanes_per_step
    master_seed, context, level, start = streams
    # A row's Philox key word 1 packs its context with the level. For
    # per-row contexts (``k1`` is then the level alone) it is made at
    # refill, for the entering rows only, and kept for the walks in flight.
    row_keys = np.ndim(context) > 0
    k0, k1 = _key_words(master_seed, 0 if row_keys else context, level)
    row_starts = np.ndim(start) > 0
    first = start if row_starts else _u64(start)
    d0 = max(float(domain._dist(x0[None, :])[0]), 0.0)
    # A walk past its last threshold compares against -inf: no more hits.
    thr_next = np.append(thr, -np.inf)
    width = min(_WIDTH, count)

    # One entry per walk in flight, in ascending row order; positions are
    # stored coordinate-major, (dim, walks), so every numpy call runs along
    # the walks.
    idx = np.empty(0, dtype=np.int64)  # output column
    pos = np.empty((dim, 0))
    dist = np.empty(0)
    entry = np.empty(0, dtype=np.int64)  # value of ``now`` when it started
    ptr = np.empty(0, dtype=np.int64)  # thresholds crossed
    keys = np.empty(0, dtype=np.uint64)  # key word 1, with per-row contexts
    now = 0  # sub-steps taken by the wavefront
    history = [x0.copy()] if trace else None
    filled = 0
    reach = 1  # strides in the next draw once no rows are left to refill
    while True:
        new = min(width - idx.size, count - filled)
        if new:
            idx = np.concatenate([idx, np.arange(filled, filled + new)])
            pos = np.concatenate([pos, np.broadcast_to(x0[:, None], (dim, new))], axis=1)
            dist = np.concatenate([dist, np.full(new, d0)])
            entry = np.concatenate([entry, np.full(new, now)])
            ptr = np.concatenate([ptr, np.zeros(new, dtype=np.int64)])
            if row_keys:
                keys = np.concatenate([keys, (context[filled:filled + new] << _S16) | k1])
            filled += new
        if not idx.size:
            return history
        nsub = stride
        if filled == count:
            reach = min(reach, width // idx.size)
            nsub *= reach
            reach *= 2
        lanes = _raw_lanes(
            k0, keys if row_keys else k1,
            first[idx] if row_starts else first + idx.astype(np.uint64),
            (now - entry) * lanes_per_step // 4, nsub * lanes_per_step // 4,
        )
        # (dim, sub-step, column of this draw); the lanes are not kept.
        dirs = _directions(dim, lanes).T.reshape(dim, nsub, idx.size)
        del lanes
        live = None  # columns of ``dirs`` still in flight, once some have left
        for t in range(nsub):
            if now - entry[0] >= max_steps:
                # The first walk in flight is the oldest and has the lowest
                # row, so it is the lowest row that exceeds the limit.
                raise StepLimitExceeded(max_steps, _row_key(streams, int(idx[0])))
            g = dirs[:, t] if live is None else dirs[:, t].take(live, axis=1)
            g *= dist
            pos += g
            now += 1
            dist = domain._dist(pos.T)
            np.maximum(dist, 0.0, out=dist)
            if trace:
                history.append(pos[:, 0].copy())
            # One jump can cross several widths at once; record them all at
            # the same position, which realizes the first-crossing rule.
            hit = (dist < thr_next[ptr]).nonzero()[0]
            if not hit.size:
                continue
            while hit.size:
                k, col = ptr[hit], idx[hit]
                stops[k, col] = pos[:, hit].T
                steps[k, col] = now - entry[hit]
                ptr[hit] = k + 1
                hit = hit[dist[hit] < thr_next[k + 1]]
            keep = (ptr < nthr).nonzero()[0]
            if keep.size == idx.size:
                continue
            idx, dist, entry, ptr = idx[keep], dist[keep], entry[keep], ptr[keep]
            pos = pos.take(keep, axis=1)
            if row_keys:
                keys = keys[keep]
            live = keep if live is None else live[keep]
            if not idx.size:
                break


def run_many(
    domain: Domain,
    x0,
    thresholds: Sequence[float],
    master_seed: int,
    context=0,
    level: int = 0,
    start_index=0,
    count: int = 1,
    max_steps: int = DEFAULT_MAX_STEPS,
    threads: Optional[int] = None,
    trace: bool = False,
) -> BatchResult:
    """Run ``count`` independent walks, each recorded at every threshold.

    Walk ``i`` draws from the stream keyed by
    ``StreamKey(master_seed, context, level, start_index + i)``. Either of
    ``context`` and ``start_index`` may instead be a 1-D integer array of
    ``count`` values, one per walk: walk ``i`` then takes ``context[i]`` or
    sample index ``start_index[i]`` (uint64 reaches 2**64 - 1), so one call
    can run walks of many streams. Results are written to slots in walk
    order, so the output is bitwise reproducible for any ``threads``;
    ``None`` takes the default of :func:`resolve_threads`. With more than
    one thread the walks are split into contiguous ranges, one wavefront
    each, but only into as many as hold a full ``_WIDTH`` of walks. One walk
    is ``count=1``; with ``trace=True`` (one walk only) the result's
    ``trace`` holds its (steps + 1, dim) positions, the start included.
    """
    x0 = as_point(x0, domain.dim)
    thr = np.asarray(thresholds, dtype=np.float64)
    if thr.ndim != 1 or thr.size == 0:
        raise ValueError("need at least one stopping width")
    if np.any(thr <= 0.0):
        raise ValueError("stopping widths must be positive")
    if np.any(np.diff(thr) > 0.0):
        raise ValueError("stopping widths must be nonincreasing")
    d0 = domain.distance_to_boundary(x0)
    if thr[0] >= d0:
        raise ValueError(f"stopping width {thr[0]:g} is not below the start distance {d0:g}")
    if count < 1:
        raise ValueError("count must be positive")
    if trace and count != 1:
        raise ValueError("trace records one walk; count must be 1")
    context = _stream_words(context, count, 32, "context")
    start_index = _stream_words(start_index, count, 64, "start_index")
    _row_key((master_seed, context, level, start_index), count - 1)  # range check
    threads = resolve_threads(threads)

    nthr = thr.size
    stops = np.empty((nthr, count, domain.dim))
    steps = np.empty((nthr, count), dtype=np.int64)
    parts = max(1, min(threads, count // _WIDTH))
    bounds = [count * i // parts for i in range(parts + 1)]

    def work(lo, hi):
        part = (
            master_seed,
            context if np.ndim(context) == 0 else context[lo:hi],
            level,
            start_index + lo if np.ndim(start_index) == 0 else start_index[lo:hi],
        )
        return _walk_chunk(
            domain, x0, thr, part, hi - lo, max_steps, stops[:, lo:hi], steps[:, lo:hi], trace
        )

    history = None
    if parts > 1:
        with ThreadPoolExecutor(max_workers=parts) as pool:
            # Results are read in range order, so the lowest range's
            # StepLimitExceeded is the one raised.
            list(pool.map(work, bounds[:-1], bounds[1:]))
    else:
        history = work(0, count)

    exits = np.empty_like(stops)
    for k in range(nthr):
        exits[k] = domain._proj(stops[k])
    return BatchResult(stops, exits, steps, np.stack(history) if trace else None)


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
