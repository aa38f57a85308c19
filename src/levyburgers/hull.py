"""Upper concave majorant of a finite point cloud.

The majorant is the minimal concave function dominating the points.  Its
vertex chain is found in vectorized stages, each of which keeps every
vertex.  They run in this order, each only while the check still flags a
triple of the list:
- the throw-away of whole blocks (_block_prune): on a long input whose
  block maxima are rough, as a Levy path's are, the chain of the maxima
  of blocks of _BLOCK points is built by the stages below, and a block
  under the coarse edge above it is thrown away, by buckets as in Devroye
  & Toussaint (1981), so the later stages see a few thousand of 65,537
  points;
- the dyadic chord filter (_chord_filter), whose rounds drop the points
  below a chord of two other input points and end with the throw-away
  step of Akl & Toussaint (1978);
- the check (_check), one orientation determinant per consecutive
  survivor triple, which certifies the survivors as the chain when no
  triple pops, as on near-flat inputs whose every point is a vertex;
- the monotone chain (Andrew 1979) in bulk (_bulk_chain), which finishes
  a list whose triples pop rarely, as one jump of the potential makes
  them;
- a level-synchronous QuickHull (Barber, Dobkin & Huhdanpaa 1996;
  _quickhull) on a longer list whose triples pop often, then the check;
- the monotone-chain pass in Python (_chain) over what still flags.
_chain_indices runs the filter and the stages after it on one sorted
list, so the route is a function of the check's counts alone.  The edge
slopes are stored once, padded with +/-inf sentinels at the chain ends
where the majorant is unconstrained by the data, so vertex k has left
slope s[k] and right slope s[k+1].

The stages run in _majorant, which takes the points as two columns, the
y's and the v's.  The solver and the regen scans call it with the grid
points, finite and strictly increasing by construction, and the shifted
values, so only the values are checked and no (n, 2) array is built;
upper_concave_majorant checks a point cloud of any layout and hands its
columns to the same entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, OutOfDomainError

# Relative forward error bound of the orientation determinant of _pops and
# _orient (Shewchuk 1997, "ccwerrboundA").  A triple whose determinant lies within
# this bound times the sum of the magnitudes of its two products cannot be
# told apart from collinear and is flattened, keeping the extreme points of
# each collinear run; slope-tie vertices would break strict slope
# monotonicity.
_EPS = float(np.finfo(float).eps)
COLLINEAR_ERRBOUND = (3.0 + 16.0 * _EPS) * _EPS

# When the largest magnitudes of the two axes multiply to 2^(2 *
# SCALE_EXPONENT) or more, or one of them does alone, both axes are scaled
# by one power of two that brings the larger below 2^SCALE_EXPONENT, so
# that no product of two coordinate differences overflows.
SCALE_EXPONENT = 500

# Points per block of the chord filter: its three scratch buffers stay at
# 128 KiB each whatever n is, and only the compacted survivors are copied,
# so the filter adds little to peak memory.  The regen scans nominate
# witnesses for blocks of at most this many candidates, for the same
# reason.
FILTER_BLOCK = 16384

# The bound has two jobs.  A chord filter level over a list of N points
# that drops at most N / _FEW_FLAGS of them ends its round, and a round
# that drops at most that share of its list ends the filter.  The
# monotone chain runs in bulk over N filter survivors when at most
# N / _FEW_FLAGS of their consecutive triples pop, and more than that go
# to QuickHull.  So a quiet level hands a near-flat list, whose triples
# pop about as rarely, to the check and the bulk chain.  The bulk chain's
# searches test chunks of _FIRST_CHUNK points, grown x4.
_FEW_FLAGS = 1024
_FIRST_CHUNK = 32

# The chord filter restarts at spacing 1 with a full round after a round
# whose first level dropped at least one point in _ROUND_SHARE of its
# list.  Noisy and Levy paths drop a quarter to a half of their points
# there; spiked parabolas and compound Poisson paths one in fifty or
# fewer, so their filter ends after its first round.
_ROUND_SHARE = 8

# A list of at most _CHAIN_POINTS points that still flags goes to the
# Python chain pass at once: on a 2-core Xeon it costs about 0.5 us per
# point, and QuickHull with its check 90-310 us on lists of 20-450 points.
_CHAIN_POINTS = 256

# Points per block of the throw-away stage, which runs on inputs of at
# least 2 * FILTER_BLOCK points: 1,024 blocks at n = 65537.  Blocks of 32
# points make the coarse chain dearer and blocks of 128 keep more points;
# over eight Levy hulls at n = 65537 they read 16% and 4-8% slower on a
# 2-core Xeon.
_BLOCK = 64


def read_only(a) -> np.ndarray:
    """``a`` as an array that refuses writes: ``a`` itself, flagged
    read-only, when it owns its data, else a read-only copy, so that no
    handle to a borrowed buffer can change it later."""
    a = np.asarray(a)
    if not a.flags.owndata:
        a = a.copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ConcaveMajorant:
    """Vertex/slope representation of an upper concave hull.

    ``ys``/``vs`` are the vertex coordinates (ys strictly increasing) and
    ``indices`` the positions of the vertices in the input cloud.  ``s``
    (length m+1) is +inf, the strictly decreasing edge slopes, then -inf:
    vertex k has left slope ``s[k]`` and right slope ``s[k+1]``, and every
    reader of a slope interval slices this one array.  All four arrays
    are read-only.  An interior slope that overflows float64 raises
    InputError.
    """

    ys: np.ndarray
    vs: np.ndarray
    indices: np.ndarray
    s: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in ("ys", "vs", "indices"):
            object.__setattr__(self, name, read_only(getattr(self, name)))
        s = np.empty(len(self.ys) + 1)
        s[0], s[-1] = np.inf, -np.inf
        np.divide(np.diff(self.vs), np.diff(self.ys), out=s[1:-1])
        if not np.isfinite(s[1:-1]).all():
            raise InputError("a majorant edge slope overflows float64")
        object.__setattr__(self, "s", read_only(s))

    def __len__(self) -> int:
        return len(self.ys)


def _pops(y1, v1, y2, v2, y3, v3):
    """True where p2 is not certainly above the chord p1-p3 (below it, on
    it, or within rounding of it), so the chain drops p2.  Also true where
    the two edge slopes at p2 do not come out strictly decreasing: near
    the subnormal range they underflow, and the error bound, which assumes
    no underflow, can keep a vertex whose slopes tie.  Elementwise on
    arrays, or on scalars."""
    p = (y2 - y1) * (v3 - v1)
    q = (v2 - v1) * (y3 - y1)
    tied = (v2 - v1) / (y2 - y1) <= (v3 - v2) / (y3 - y2)
    return (p - q >= -COLLINEAR_ERRBOUND * (abs(p) + abs(q))) | tied


def _orient(ys, vs, k: int, start: int, stop: int, P, Q, W) -> None:
    """Orientation of the triples (i - k, i, i + k) of sorted points for i
    in [start, stop): W gets the determinant, positive where point i lies
    below the chord of the other two, and P its forward error bound
    (COLLINEAR_ERRBOUND times the sum of the magnitudes of the two
    products).  P, Q and W are scratch buffers of length stop - start."""
    lo, mid, hi = slice(start - k, stop - k), slice(start, stop), slice(start + k, stop + k)
    np.subtract(ys[mid], ys[lo], out=P)
    np.subtract(vs[hi], vs[lo], out=W)
    P *= W
    np.subtract(vs[mid], vs[lo], out=Q)
    np.subtract(ys[hi], ys[lo], out=W)
    Q *= W
    np.subtract(P, Q, out=W)
    np.abs(P, out=P)
    np.abs(Q, out=Q)
    P += Q
    P *= COLLINEAR_ERRBOUND


def _scratch(n: int):
    """Three float buffers and one bool buffer for blocks of at most
    FILTER_BLOCK + 1 of n points."""
    size = min(n, FILTER_BLOCK) + 1
    return np.empty(size), np.empty(size), np.empty(size), np.empty(size, dtype=bool)


def _chord_filter(ys: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Sorted int32 indices of the points that survive the dyadic filter.

    The filter runs in rounds over a list that starts as every point.  A
    round runs levels k = 1, 2, 4, ... while 2k is below the length of the
    list: every point certainly below the chord of the points k places to
    its left and right in the list is dropped.  The list is compacted to
    the survivors once a quarter of it is gone, so a level costs
    O(survivors), and a level that drops at most one point in _FEW_FLAGS
    of its list ends the round: a near-flat input pays one level.

    The filter ends after a round that leaves at most _CHAIN_POINTS
    points, drops at most one point in _FEW_FLAGS of its list, or was a
    last round.  Otherwise the survivors are compacted and a new round
    starts at k = 1: a full one when the round's first level dropped at
    least one point in _ROUND_SHARE of the list, so that the list shrinks
    by that share a round and there are O(log n) rounds; else none after
    a first round, and after a later one a last round of the one level
    k = 1, the throw-away step of Akl & Toussaint (1978).  Every chord
    joins two input points, and a point below such a chord is never a
    vertex.  Each level runs over blocks of FILTER_BLOCK points with three
    block-sized buffers.
    """
    p, q, w, keep = _scratch(len(ys))
    idx = np.arange(len(ys), dtype=np.int32)
    restarted = last_round = False
    while True:
        alive = np.ones(len(idx), dtype=bool)
        size = live = len(idx)
        k, first = 1, 0  # first: the drop of the round's first level
        while 2 * k < len(idx):
            n = len(idx)
            for start in range(k, n - k, FILTER_BLOCK):
                stop = min(start + FILTER_BLOCK, n - k)
                m = stop - start
                P, W, K = p[:m], w[:m], keep[:m]
                _orient(ys, vs, k, start, stop, P, q[:m], W)
                np.less_equal(W, P, out=K)
                alive[start:stop] &= K
            left = np.count_nonzero(alive)
            quiet = (live - left) * _FEW_FLAGS <= n
            if k == 1:
                first = live - left
            live, k = left, 2 * k
            if quiet or last_round:
                break
            # a compaction costs about as much as a level, so it waits until a
            # quarter of the list is gone
            if 4 * left <= 3 * n:
                kept = np.flatnonzero(alive)
                idx, ys, vs = idx[kept], ys[kept], vs[kept]
                alive = np.ones(len(idx), dtype=bool)
        full = first * _ROUND_SHARE >= size
        if (
            last_round
            or live <= _CHAIN_POINTS
            or (size - live) * _FEW_FLAGS <= size
            or not (full or restarted)
        ):
            return idx[alive]
        kept = np.flatnonzero(alive)
        idx, ys, vs = idx[kept], ys[kept], vs[kept]
        restarted, last_round = True, not full


def _quickhull(ys: np.ndarray, vs: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Vertex candidates among the sorted indices idx, ends included.

    Level-synchronous farthest-point recursion: each level measures every
    open point against the chord of its segment, drops the points on or
    below it, and turns each segment's farthest points into vertices.
    """
    verts = idx[[0, -1]]
    rest = idx[1:-1]
    yr, vr = ys[rest], vs[rest]
    seg = np.zeros(len(rest), dtype=np.int32)  # left vertex of each open point
    while len(rest):
        ya, va = ys[verts], vs[verts]
        slope = (va[1:] - va[:-1]) / (ya[1:] - ya[:-1])
        d = (vr - va[seg]) - slope[seg] * (yr - ya[seg])
        above = d > 0
        rest, seg, d, yr, vr = rest[above], seg[above], d[above], yr[above], vr[above]
        if not len(rest):
            break
        new = np.empty(len(seg), dtype=bool)  # first open point of a segment
        new[0] = True
        np.not_equal(seg[1:], seg[:-1], out=new[1:])
        dmax = np.maximum.reduceat(d, np.flatnonzero(new))
        far = d == dmax[np.cumsum(new) - 1]
        verts = np.insert(verts, seg[far] + 1, rest[far])
        # every new vertex left of an open point shifts its segment by one
        seg += np.cumsum(far, dtype=np.int32)
        near = ~far
        rest, seg, yr, vr = rest[near], seg[near], yr[near], vr[near]
    return verts


def _check(ys: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Flags over the consecutive triples k, k+1, k+2 of sorted points:
    the positions k where the triple pops (_pops).

    One orientation per triple, in blocks of FILTER_BLOCK points; the
    slope-tie test runs after it and can only add flags.  When there are
    no flags, the chain of the points has strictly decreasing slopes, so
    it is locally and hence globally concave; if the points hold every
    vertex of the hull, they are the hull's vertex chain.
    """
    n = max(len(ys) - 2, 0)
    p, q, w, t = _scratch(n)
    keeps = np.empty(n, dtype=bool)
    for start in range(1, n + 1, FILTER_BLOCK):
        stop = min(start + FILTER_BLOCK, n + 1)
        m = stop - start
        P, Q, W, out = p[:m], q[:m], w[:m], slice(start - 1, stop - 1)
        _orient(ys, vs, 1, start, stop, P, Q, W)
        np.negative(P, out=P)
        np.less(W, P, out=keeps[out])
        # edge slopes start-1 .. stop-1; the middle point keeps only where
        # its left slope is strictly above its right one
        S, D = p[: m + 1], w[: m + 1]
        np.subtract(vs[start : stop + 1], vs[start - 1 : stop], out=S)
        np.subtract(ys[start : stop + 1], ys[start - 1 : stop], out=D)
        S /= D
        np.greater(S[:-1], S[1:], out=t[:m])
        keeps[out] &= t[:m]
    return np.flatnonzero(~keeps)


def _chain(ys: list[float], vs: list[float]) -> list[int]:
    """Positions of the monotone-chain vertices of sorted points."""
    stack: list[int] = []
    for j in range(len(ys)):
        while len(stack) >= 2:
            i1, i2 = stack[-2], stack[-1]
            if not _pops(ys[i1], vs[i1], ys[i2], vs[i2], ys[j], vs[j]):
                break
            stack.pop()
        stack.append(j)
    return stack


def _bulk_chain(ys: np.ndarray, vs: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """_chain(ys, vs) as an index array.

    flags are the positions of the popping consecutive triples, _check's
    flags.  While the top two points of the stack are consecutive, every
    point up to the last one of the next flagged triple is pushed as one
    slice.
    That last one pops its predecessor, and then pops back through the
    stack until a triple keeps its middle point.  Where the top two
    points (a, p) are not consecutive, each next point is tested against
    them: one that pops p but not a replaces p, one that keeps p makes
    the top consecutive again, and one that pops both pops back.  Both
    searches test triples with _pops in chunks grown x4 from
    _FIRST_CHUNK, so each decision is _chain's on the same floats.
    Each loop turn settles one flag or one pop-back: over 227 few-flag
    lists of 3,500-65,500 points, it turned at most 2 (flags + 1) times,
    and its searches tested at most 1.6 N points.
    """
    n = len(ys)

    def first(test, count):
        """First offset in [0, count) where test(lo, hi), which covers
        offsets lo..hi-1, is true, else count."""
        lo, size = 0, _FIRST_CHUNK
        while lo < count:
            hi = min(lo + size, count)
            hit = np.flatnonzero(test(lo, hi))
            if hit.size:
                return lo + int(hit[0])
            lo, size = hi, 4 * size
        return count

    def stops(lo, hi):  # offsets from j; true where a point keeps p or pops a
        prev, q = slice(j + lo - 1, j + hi - 1), slice(j + lo, j + hi)
        keeps = ~_pops(ys[a], vs[a], ys[prev], vs[prev], ys[q], vs[q])
        if top < 3:
            return keeps
        b = stack[top - 3]
        return keeps | _pops(ys[b], vs[b], ys[a], vs[a], ys[q], vs[q])

    def kept(lo, hi):  # offsets down from the top; true where j keeps it
        mid = stack[top - hi : top - lo][::-1]
        left = stack[top - hi - 1 : top - lo - 1][::-1]
        return ~_pops(ys[left], vs[left], ys[mid], vs[mid], ys[j], vs[j])

    stack = np.empty(n, dtype=np.intp)
    stack[:2] = 0, 1
    top, j = 2, 2  # stack[:top] is the chain of the points before j
    while j < n:
        a = int(stack[top - 2])
        if a == j - 2:
            k = np.searchsorted(flags, a)
            end = int(flags[k]) + 2 if k < len(flags) else n
            stack[top : top + end - j] = np.arange(j, end)
            top += end - j
            j = end
            if j == n:
                break
            top -= 1  # j pops its predecessor
        else:
            j += first(stops, n - j)
            stack[top - 1] = j - 1
            if j == n:
                break
            if not _pops(ys[a], vs[a], ys[j - 1], vs[j - 1], ys[j], vs[j]):
                stack[top] = j
                top += 1
                j += 1
                continue
            top -= 2  # j pops its predecessor and a
        top -= first(kept, top - 1)
        stack[top] = j
        top += 1
        j += 1
    return stack[:top]


def _chain_indices(ys: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Positions of the chain vertices among the sorted points (ys, vs):
    the chord filter, the check, then, while the check flags, the bulk
    chain, which finishes the list, when at most one triple in _FEW_FLAGS
    flags; else QuickHull over a list of over _CHAIN_POINTS points, then
    the check; the chain pass."""
    idx = _chord_filter(ys, vs).astype(np.intp)  # intp gathers are faster
    flags = _check(ys[idx], vs[idx])
    if 0 < len(flags) * _FEW_FLAGS <= len(idx):
        idx, flags = idx[_bulk_chain(ys[idx], vs[idx], flags)], ()
    if len(flags) and len(idx) > _CHAIN_POINTS:
        idx = _quickhull(ys, vs, idx)
        flags = _check(ys[idx], vs[idx])
    if len(flags):
        idx = idx[_chain(ys[idx].tolist(), vs[idx].tolist())]
    return idx


def _gate_share(ys: np.ndarray, vs: np.ndarray, nb: int) -> float:
    """Share of the maxima of the blocks of _BLOCK points among the
    FILTER_BLOCK points in the middle of the nb whole blocks that one
    chord filter level at spacing 1 drops.  It reads those points only."""
    g = FILTER_BLOCK // _BLOCK
    lo = (nb - g) // 2 * _BLOCK
    at = vs[lo : lo + g * _BLOCK].reshape(g, _BLOCK).argmax(axis=1)
    at += np.arange(lo, lo + g * _BLOCK, _BLOCK)
    P, Q, W = np.empty(g - 2), np.empty(g - 2), np.empty(g - 2)
    _orient(ys[at], vs[at], 1, 1, g - 1, P, Q, W)
    return int(np.less(P, W).sum()) / g


def _tilted_max(Y: np.ndarray, V: np.ndarray, blocks: np.ndarray, s: np.ndarray) -> np.ndarray:
    """max of V[b] - s[j] * Y[b] over the row b = blocks[j] of the block
    views Y and V, for each j."""
    tilt = Y[blocks]
    tilt *= -s[:, None]
    tilt += V[blocks]
    return tilt.max(axis=1)


def _block_prune(ys: np.ndarray, vs: np.ndarray) -> np.ndarray | None:
    """Sorted intp indices of the points that survive the throw-away of
    whole blocks, or None where the stage turns the input away.

    The points [0, nb * _BLOCK) fall into nb blocks of _BLOCK points, and
    the tail [nb * _BLOCK, n) holds 1 to _BLOCK points, point n - 1 among
    them.  The stage runs on inputs of at least 2 * FILTER_BLOCK points
    whose block maxima are rough, by the restart rule of the chord filter
    read one scale up (_gate_share), so that near-flat and smooth inputs
    pay only the gate.  It builds the chain of the block maxima and the
    tail points with _chain_indices, and keeps the tail and every block
    that holds a vertex of that coarse chain, block 0 among them, as its
    maximum starts the chain.  Every other block lies strictly inside one
    coarse edge (a, c), and is thrown away when every point of it lies
    under the line through a with the edge's slope s by more than the
    forward error bound of the test.
    The block maximum minus the smaller of s * y at the block's two ends
    bounds the tilted maximum from above, so only the blocks this bound
    leaves open pay for the exact one.  A dropped point lies under the
    chord of the input points a and c, as one the filter drops does, so
    the list keeps every vertex.  A coarse edge slope or error bound that
    overflows turns the input away, and the full route decides on it.
    """
    n = len(ys)
    nb = (n - 1) // _BLOCK
    if n < 2 * FILTER_BLOCK or _gate_share(ys, vs, nb) * _ROUND_SHARE < 1:
        return None
    top = nb * _BLOCK
    Y, V = ys[:top].reshape(nb, _BLOCK), vs[:top].reshape(nb, _BLOCK)
    at = V.argmax(axis=1)
    at += np.arange(0, top, _BLOCK)
    at = np.concatenate([at, np.arange(top, n)])
    cy, cv = ys[at], vs[at]
    chain = _chain_indices(cy, cv)
    a = at[chain]
    s = np.diff(vs[a]) / np.diff(ys[a])
    # Every tested value and line value lies within K = max|v| + |s| max|y|
    # of zero, max|v| taken over the block maxima and the tail, and the
    # rounding of s, of the two tilts and of the cut stays under about
    # 14 eps K; a K that overflows is refused with its slope.
    tol = 32 * _EPS * (np.abs(cv).max() + np.abs(s) * max(-ys[0], ys[-1]))
    if not np.isfinite(tol).all():
        return None
    cut = vs[a[:-1]] - s * ys[a[:-1]] - tol
    keep = np.zeros(nb, dtype=bool)
    keep[chain[chain < nb]] = True
    blocks = np.flatnonzero(~keep)
    first = blocks * _BLOCK
    edge = np.searchsorted(a, first) - 1
    se = s[edge]
    ends = np.minimum(se * ys[first], se * ys[first + _BLOCK - 1])
    left = cv[blocks] - ends >= cut[edge]
    blocks, edge = blocks[left], edge[left]
    keep[blocks[_tilted_max(Y, V, blocks, s[edge]) >= cut[edge]]] = True
    kept = np.flatnonzero(keep) * _BLOCK
    return np.concatenate([(kept[:, None] + np.arange(_BLOCK)).ravel(), np.arange(top, n)])


def upper_concave_majorant(
    points: list[tuple[float, float]] | np.ndarray,
) -> ConcaveMajorant:
    """Vertex chain of the upper concave hull of points sorted by y.

    Needs >= 2 finite points with strictly increasing y (collapse duplicate
    y to the max v beforehand), checks them and hands their two columns to
    _majorant, which raises InputError when an edge slope of the chain
    overflows float64, or when the scale that keeps products finite sends
    distinct y's to one value.  Interior points collinear with their
    neighbours are removed.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise InputError("need at least 2 points of shape (n, 2)")
    if not np.isfinite(pts).all():
        raise InputError("point coordinates must be finite")
    ys, vs = np.ascontiguousarray(pts.T)  # a copy only for row-major input
    if np.any(np.diff(ys) <= 0):
        raise InputError("y coordinates must be strictly increasing")
    return _majorant(ys, vs)


def _majorant(ys: np.ndarray, vs: np.ndarray) -> ConcaveMajorant:
    """upper_concave_majorant of the points (ys[i], vs[i]), given as two
    columns of at least 2 floats, ys finite and strictly increasing.

    Only the values are checked: a v that is not finite, as a shifted
    potential that overflows to -inf, raises InputError.  The stages run
    in the order of the module docstring: the throw-away of whole blocks
    on the inputs its gate lets in, then _chain_indices over the whole
    list or over the kept points.  The filter, the checks and the
    QuickHull levels are O(n log n) array work; a near-flat input, whose
    first filter level is quiet and whose list the check certifies or the
    bulk chain settles, costs O(n).  The bulk chain's Python loop turns
    once per flag or pop-back, its searches testing at most about 1.6 n
    points on the inputs measured, and the Python chain pass runs on the
    QuickHull candidates or on a short list.  The throw-away costs one
    argmax pass and the hull of about n / _BLOCK block maxima, and hands
    the filter 2,900-5,300 of the 65,537 points of a Levy path.  Every
    dropped or filtered point lies under a chord of two input points, so
    the list keeps every vertex, and a check that passes on it certifies
    it as the chain.  The bulk chain's result and the chain pass's are
    _chain over the list, index for index.
    """
    if not np.isfinite(vs).all():
        raise InputError("point coordinates must be finite")
    # one power of two for both coordinates keeps every slope and every
    # comparison of the orientation tests; scaling only where a product
    # could overflow keeps tiny coordinates next to huge ones distinct
    ey = math.frexp(max(-ys[0], ys[-1]))[1]
    ev = math.frexp(max(vs.max(), -vs.min()))[1]
    sy, sv = ys, vs
    if max(ey + ev, ey, ev) > 2 * SCALE_EXPONENT:
        shift = max(ey, ev) - SCALE_EXPONENT
        sy, sv = np.ldexp(ys, -shift), np.ldexp(vs, -shift)
        if np.any(np.diff(sy) <= 0):
            raise InputError(
                f"coordinate range too wide: y in [{ys[0]:g}, {ys[-1]:g}] and v in "
                f"[{vs.min():g}, {vs.max():g}] need a scale of 2^-{shift}, under "
                "which distinct y coordinates coincide"
            )
    # a slope may overflow to inf in every stage; a chain left with one is
    # refused by ConcaveMajorant
    with np.errstate(over="ignore"):
        kept = _block_prune(sy, sv)
        if kept is None:
            idx = _chain_indices(sy, sv)
        else:
            idx = kept[_chain_indices(sy[kept], sv[kept])]
        return ConcaveMajorant(ys=ys[idx], vs=vs[idx], indices=idx)


def query(cm: ConcaveMajorant, y: float) -> tuple[float, float, float]:
    """(value, left slope, right slope) of the majorant at y.

    Value by linear interpolation; at a vertex the two slopes are the
    incoming/outgoing edge slopes (+/-inf sentinels at the chain ends); at
    an edge-interior point both equal the edge slope.  Binary search,
    O(log m).  Raises OutOfDomainError outside [ys[0], ys[-1]].
    """
    ys = cm.ys
    if not ys[0] <= y <= ys[-1]:
        raise OutOfDomainError(f"{y} outside the hull domain [{ys[0]}, {ys[-1]}]")
    k = int(np.searchsorted(ys, y))
    if ys[k] == y:
        return float(cm.vs[k]), float(cm.s[k]), float(cm.s[k + 1])
    # interior of edge (k-1, k)
    s = float(cm.s[k])
    val = float(cm.vs[k - 1] + s * (y - ys[k - 1]))
    return val, s, s
