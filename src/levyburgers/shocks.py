"""Shock structure extraction and statistics, read off the hull as arrays.

A shock is a macroscopic hull edge at location -t * edge slope; vertices
whose own X-interval contains them form the zero set (zero-velocity
points); each vertex's X-interval, clipped to the analysis window, is its
constancy (rarefaction) record.

Owners are read by vertex index, not searched for among floats: ys and
the breaks are nondecreasing, so a window is one index range of each, and
a cut at edge k has left owner k and right owner k + 1.  A zero point
lying exactly on a break belongs to the right vertex, as every break
point does.

Every plain result record of the package is a NamedTuple, and a row record
is one CSV row under the columns ``_fields``; a class stays a dataclass
only where it validates or derives a field, defines a method, is
``replace``d by the tests or builds CLI flags.  A report's shock and
rarefaction rows and a sign pattern's gap stats are ``Records``: rows of a
NamedTuple type held as one array per field, so that extraction stays
array work and builds no Python object per row, and built as rows of
Python floats and bools only when read.  On a finite grid every vertex has
a positive-length constancy interval, so rarefaction claims are studied
through refinement trends rather than per-grid booleans.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .errors import GridError, ParameterError
from .levy import GridSpec, LevyParams
from .solver import BurgersSolution, analysis_window, check_time, solved_replicates

# One-cell tolerance when deciding that a vertex is attained from one side
# only; shock locations on the grid carry O(h) discretization error.
ONE_SIDED_TOL_CELLS = 1.0


class Shock(NamedTuple):
    """A jump of x -> a(x): the Eulerian location, the Lagrangian interval
    of aggregated particles, its mass and the cluster velocity."""

    x: float
    a_minus: float
    a_plus: float
    mass: float
    velocity: float
    boundary_affected: bool


class Rarefaction(NamedTuple):
    """Constancy interval of a(.) owned by one vertex, clipped to the
    window."""

    vertex_y: float
    x_lo: float
    x_hi: float
    length: float
    boundary_affected: bool


class Records(Sequence):
    """Rows of the NamedTuple type ``row_type``, held as ``columns``, one
    array per ``row_type._fields`` entry.

    ``len`` counts rows.  Iterating or indexing builds ``row_type`` rows
    whose values are Python floats and bools; a slice is again Records.
    """

    __slots__ = ("row_type", "columns")

    def __init__(self, row_type: type, *columns: np.ndarray):
        self.row_type = row_type
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Records(self.row_type, *(c[i] for c in self.columns))
        return self.row_type(*(c[i].item() for c in self.columns))

    def __iter__(self):
        return map(self.row_type, *(c.tolist() for c in self.columns))


class ShockReport(NamedTuple):
    shocks: Records  # of Shock
    zero_set: np.ndarray
    rarefactions: Records  # of Rarefaction


class GapStat(NamedTuple):
    """Sign scan of u over one gap between consecutive zero-set points."""

    gap: tuple[float, float]
    has_positive_phase: bool
    has_negative_phase: bool


# GapStat.gap as one column: a structured array whose rows read as (lo, hi)
_GAP = np.dtype([("lo", float), ("hi", float)])


class SignPatternReport(NamedTuple):
    violations: list[tuple[float, float, float]]  # (gap lo, gap hi, x of bad sample)
    gap_stats: Records  # of GapStat


class JumpSignReport(NamedTuple):
    agreements: int
    disagreements: int
    untracked: int


class RefinementRow(NamedTuple):
    h: float
    n: int
    median_contacts: float
    median_zero: float
    median_max_rarefaction: float
    median_contact_fraction: float
    n_failed: int


def zero_set_indices(sol: BurgersSolution) -> np.ndarray:
    """Vertex indices k with s_right(k) <= -y_k/t <= s_left(k) (closed).

    The closed slope interval keeps tie vertices, mirroring the closure in
    the definition of the zero-velocity set.
    """
    return _window_zeros(sol, -math.inf, math.inf)


def epsilon_regular_indices(sol: BurgersSolution) -> np.ndarray:
    """Vertex indices with another contact under 10 grid cells away on both sides.

    Finite-resolution proxy for contact points isolated on neither side
    (particles untouched by collisions).
    """
    close = np.diff(sol.majorant.indices) < 10
    return np.flatnonzero(close[:-1] & close[1:]) + 1


def _macroscopic_edges(sol: BurgersSolution, k0: int, k1: int) -> np.ndarray:
    """Indices k0 <= k < k1 of the hull edges whose interval swallows at
    least one interior grid point (grid-index gap >= 2): single-cell edges
    are the discretization of a continuous increase of a(.), not
    discontinuities."""
    return k0 + np.flatnonzero(np.diff(sol.majorant.indices[k0 : k1 + 1]) >= 2)


def _window_zeros(sol: BurgersSolution, lo: float, hi: float) -> np.ndarray:
    """zero_set_indices restricted to, and tested only on, vertices in [lo, hi]."""
    ys, s = sol.majorant.ys, sol.majorant.s
    i0, i1 = np.searchsorted(ys, lo, "left"), np.searchsorted(ys, hi, "right")
    target = ys[i0:i1] / -sol.t
    return i0 + np.flatnonzero((s[i0 + 1 : i1 + 1] <= target) & (target <= s[i0:i1]))


def _overlapping(sol: BurgersSolution, lo: float, hi: float) -> slice:
    """The vertices whose X-intervals overlap (lo, hi): x_hi > lo and x_lo < hi."""
    return slice(np.searchsorted(sol.x_hi, lo, "right"), np.searchsorted(sol.x_lo, hi, "left"))


def extract_shocks(sol: BurgersSolution) -> ShockReport:
    """Windowed shock structure of a solved flow.

    Shocks are the macroscopic edges located in the window.  Shock
    velocities are computed from the potential difference across the
    shock interval; the average-of-one-sided-u identity is exact algebra
    on the same hull coordinates and is asserted by the tests rather than
    recomputed here.
    """
    lo, hi = sol.window
    ys, gidx, ba, edge_x = sol.majorant.ys, sol.majorant.indices, sol.boundary_affected, sol.edge_x

    k0, k1 = np.searchsorted(edge_x, lo, "left"), np.searchsorted(edge_x, hi, "right")
    k = _macroscopic_edges(sol, k0, k1)
    a_minus, a_plus = ys[k], ys[k + 1]
    mass = a_plus - a_minus
    dpsi = sol.path.values[gidx[k + 1]] - sol.path.values[gidx[k]]
    shocks = Records(Shock, edge_x[k], a_minus, a_plus, mass, -dpsi / mass, ba[k] | ba[k + 1])

    v = _overlapping(sol, lo, hi)  # those of positive length overlap the window
    r = v.start + np.flatnonzero(sol.x_hi[v] > sol.x_lo[v])
    r_lo, r_hi = np.maximum(sol.x_lo[r], lo), np.minimum(sol.x_hi[r], hi)
    rarefactions = Records(Rarefaction, ys[r], r_lo, r_hi, r_hi - r_lo, ba[r])

    zero_set = ys[_window_zeros(sol, lo, hi)]
    return ShockReport(shocks=shocks, zero_set=zero_set, rarefactions=rarefactions)


def sign_pattern(sol: BurgersSolution) -> SignPatternReport:
    """Scan u between consecutive zero-set points of the window.

    Between two consecutive zero-velocity points u must be first positive
    then negative: u only jumps downward, so any observed passage from
    u < 0 to u > 0 without an intervening zero-set point is a violation.
    A gap lies between zero-set points more than one grid index apart
    (nearer ones are one piece of the zero set at grid resolution); it is
    sampled at u(x-), u(x) at each shock x in it and at the midpoint of
    each constancy-interval piece.  An empty zero set gives an empty report.
    """
    ys, edge_x = sol.majorant.ys, sol.edge_x
    z = _window_zeros(sol, *sol.window)
    g = np.flatnonzero(np.diff(sol.majorant.indices[z]) > 1)
    z1, z2 = ys[z[g]], ys[z[g + 1]]
    gaps = np.empty(len(g), dtype=_GAP)
    gaps["lo"], gaps["hi"] = z1, z2

    # a gap is cut at z1 and at the n edges k0 <= k < k0 + n strictly inside
    # it: edges z[g] ... z[g + 1] - 1 but for a break rounded onto a gap end,
    # so only the gap ends are searched for.  The piece right of edge k is
    # owned by k + 1, and the one right of z1 by k0, as a zero point on a
    # break belongs to the right vertex
    k0 = np.searchsorted(edge_x, z1, "right")
    n = np.searchsorted(edge_x, z2, "left") - k0
    start = np.arange(len(g)) + np.cumsum(n) - n  # each gap's cut at z1
    right = np.arange(len(g) + n.sum()) + np.repeat(k0 - start, n + 1)
    left = right - 1
    x = edge_x[left]
    x[start] = z1
    if (x[1:] == x[:-1]).any():
        # each point once: equal edges are one cut, with the left owner of
        # the first and the right owner of the last
        cut = np.flatnonzero(np.diff(x, append=np.inf) > 0)
        left = left[np.append(0, cut[:-1] + 1)]
        x, right, start = x[cut], right[cut], np.searchsorted(cut, start)
    end = np.append(x[1:], z2[-1:])
    end[start[1:] - 1] = z2[:-1]

    # per cut: u(x-) and u(x) at a shock, then u at the piece midpoint, as
    # 1 where u > 0 and 2 where u < 0; a cut at z1 is no shock, so its shock
    # samples read 4, which opens the gap, and 0
    mid = 0.5 * (x + end)
    us = (np.column_stack([x, x, mid]) - ys[np.column_stack([left, right, right])]) / sol.t
    sign = ((us > 0).view(np.uint8) | (us < 0).view(np.uint8) << 1).ravel()
    first = 3 * start  # each gap's first sample
    sign[first], sign[first + 1] = 4, 0
    seen = np.bitwise_or.reduceat(sign, first)

    # a violation is a positive after a negative in one gap; where there is
    # one, a positive directly follows a negative among the signed samples
    violations = []
    signed = sign[sign > 0]
    if ((signed[:-1] == 2) & (signed[1:] == 1)).any():
        neg = np.cumsum(sign == 2)
        neg -= np.repeat(neg[first], np.diff(first, append=len(sign)))  # in the gap
        bad = np.flatnonzero((sign == 1) & (neg > 0))
        gap = np.searchsorted(first, bad, "right") - 1
        xs = np.where(bad % 3 == 2, mid[bad // 3], x[bad // 3])
        violations = list(zip(z1[gap].tolist(), z2[gap].tolist(), xs.tolist()))
    return SignPatternReport(violations, Records(GapStat, gaps, seen & 1 > 0, seen & 2 > 0))


def contact_jump_signs(sol: BurgersSolution) -> JumpSignReport:
    """Check jump signs at one-sidedly attained contact points of sol.path.

    A contact attained only from the left (its X-interval below the
    vertex) should sit at an upward jump of the potential, and one
    attained only from the right at a downward jump.  One-sidedness uses a
    one-cell tolerance.  Each one-sided vertex outside the boundary zone
    is judged by the largest tracked jump within one grid cell of it (the
    first of equal ones); a vertex with no such jump, or only jumps of
    size 0, counts as untracked.
    """
    path = sol.path
    ys = sol.majorant.ys
    tol = ONE_SIDED_TOL_CELLS * path.grid.h
    below = (sol.x_hi <= ys + tol) & (sol.x_lo < ys - tol)
    above = (sol.x_lo >= ys - tol) & (sol.x_hi > ys + tol)
    one_sided = (below | above) & ~sol.boundary_affected
    g = sol.majorant.indices[one_sided]

    # jump sizes by grid index, 0 where none is tracked; index -1 wraps to a pad
    size = np.zeros(path.grid.n + 1)
    size[path.tracked_jumps["index"]] = path.tracked_jumps["size"]
    near = size[g[:, None] + np.arange(-1, 2)]
    best = near[np.arange(len(g)), np.abs(near).argmax(axis=1)]
    agreements = int(np.count_nonzero(np.where(below[one_sided], best > 0, best < 0)))
    n_tracked = int(np.count_nonzero(best))
    return JumpSignReport(agreements, n_tracked - agreements, len(g) - n_tracked)


def _stats_window(
    window: tuple[float, float] | None, grid: GridSpec
) -> tuple[float, float, int]:
    """(lo, hi, grid points in [lo, hi]) for ``window`` (the analysis
    window of the grid when None) intersected with that analysis window;
    ParameterError unless it is two finite numbers lo < hi whose
    intersection holds a grid point."""
    analysis = analysis_window(grid)
    if window is None:
        lo, hi = analysis
    else:
        if len(window) != 2 or not -math.inf < window[0] < window[1] < math.inf:
            raise ParameterError(f"window must be two finite numbers lo < hi, got {window}")
        lo, hi = max(window[0], analysis[0]), min(window[1], analysis[1])
        if not lo < hi:
            raise ParameterError(f"window {window} misses the analysis window {analysis}")
    pts = grid.points()
    n_pts = int(np.searchsorted(pts, hi, "right") - np.searchsorted(pts, lo, "left"))
    if not n_pts:
        raise ParameterError(f"window {window} holds no point of the grid with h={grid.h:g}")
    return lo, hi, n_pts


def window_stats(
    sol: BurgersSolution, window: tuple[float, float] | None = None
) -> tuple[int, int, float, float]:
    """(contacts, zero-set size, max rarefaction length, contact fraction)
    inside ``window`` (the solution's own analysis window by default).

    Boundary-affected vertices are excluded from the rarefaction maximum;
    the contact fraction divides by the number of grid points in the
    window.
    """
    lo, hi, n_pts = _stats_window(window, sol.path.grid)
    ys = sol.majorant.ys
    n_contacts = int(np.searchsorted(ys, hi, "right") - np.searchsorted(ys, lo, "left"))
    n_zero = len(_window_zeros(sol, lo, hi))

    # every other vertex has length 0 in the window, and these are >= 0
    v = _overlapping(sol, lo, hi)
    lengths = np.minimum(sol.x_hi[v], hi) - np.maximum(sol.x_lo[v], lo)
    lengths[sol.boundary_affected[v]] = 0.0
    max_rare = float(lengths.max())
    return n_contacts, n_zero, max_rare, n_contacts / n_pts


def refinement_study(
    params: LevyParams,
    t: float,
    L: float,
    h_list: list[float],
    n_rep: int,
    seed: int,
    window: tuple[float, float] | None = None,
) -> list[RefinementRow]:
    """Windowed shock statistics as the grid is refined.

    For each h, runs n_rep seeded replicates on [-L, L], solves, and
    reports medians of the window statistics; pure aggregation, no
    verdicts.  Replicates that fail the boundary-domination check are
    counted and skipped.  Every input, every grid included, is checked
    before the first replicate is sampled.
    """
    check_time(t)
    if n_rep < 1:
        raise ParameterError(f"n_rep must be >= 1, got {n_rep}")
    if not h_list:
        raise GridError("h_list must not be empty")
    if any(h2 >= h1 for h1, h2 in zip(h_list, h_list[1:])):
        raise GridError("h_list must be strictly decreasing")
    if not all(0.0 < v < math.inf for v in (2.0 * L, *h_list)):
        raise GridError("L and every h must be > 0 with 2L and h finite")
    grids = []
    for h in h_list:
        # 2L/h must be an even integer (GridSpec checks) giving step h bitwise
        cells = 2.0 * L / h
        grid = GridSpec(L, int(cells) + 1) if cells.is_integer() else None
        if grid is None or grid.h != h:
            raise GridError(f"h={h} does not divide the domain [-{L}, {L}]")
        _stats_window(window, grid)
        grids.append(grid)
    rows = []
    for hk, (h, grid) in enumerate(zip(h_list, grids)):
        replicates = solved_replicates(params, grid, t, n_rep, seed, key=hk)
        stats = [window_stats(sol, window) for sol in replicates if sol is not None]
        arr = np.sort(np.array(stats) if stats else np.full((1, 4), math.nan), axis=0)
        # the mean of the middle row or two, as np.median takes it (which
        # would import numpy.ma); in window_stats order
        medians = np.mean(arr[(len(arr) - 1) // 2 : len(arr) // 2 + 1], axis=0).tolist()
        rows.append(RefinementRow(h, grid.n, *medians, n_rep - len(stats)))
    return rows
