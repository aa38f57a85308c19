"""Shock structure extraction and statistics, read off the hull as arrays.

A shock is a macroscopic hull edge at location -t * edge slope; vertices
whose own X-interval contains them form the zero set (zero-velocity
points); each vertex's X-interval, clipped to the analysis window, is its
constancy (rarefaction) record.  Records are NamedTuples: one record is one
CSV row under the columns ``_fields``.  On a finite grid every vertex has a
positive-length constancy interval, so rarefaction claims are studied
through refinement trends rather than per-grid booleans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GridError, ParameterError
from .levy import GridSpec, LevyParams
from .solver import BurgersSolution, analysis_window, solved_replicates

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


@dataclass(frozen=True)
class ShockReport:
    shocks: list[Shock]
    contacts: np.ndarray
    contact_indices: np.ndarray
    zero_set: np.ndarray
    zero_indices: np.ndarray
    rarefactions: list[Rarefaction]
    window: tuple[float, float]


@dataclass(frozen=True)
class GapStat:
    """Sign scan of u over one gap between consecutive zero-set points."""

    gap: tuple[float, float]
    has_positive_phase: bool
    has_negative_phase: bool


@dataclass(frozen=True)
class SignPatternReport:
    violations: list[tuple[float, float, float]]  # (gap lo, gap hi, x of bad sample)
    gap_stats: list[GapStat]


@dataclass(frozen=True)
class JumpSignReport:
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
    target = -sol.vertex_ys / sol.t
    s = sol.majorant.s
    return np.flatnonzero((s[1:] <= target) & (target <= s[:-1]))


def epsilon_regular_indices(sol: BurgersSolution) -> np.ndarray:
    """Vertex indices with another contact closer than eps = 10h on both sides.

    Finite-resolution proxy for contact points isolated on neither side
    (particles untouched by collisions).
    """
    eps = 10.0 * sol.path.grid.h
    ys = sol.vertex_ys
    left_gap = np.diff(ys, prepend=-np.inf)
    right_gap = np.diff(ys, append=np.inf)
    return np.flatnonzero((left_gap < eps) & (right_gap < eps))


def macroscopic_edges(sol: BurgersSolution) -> np.ndarray:
    """Mask of the hull edges whose interval swallows at least one interior
    grid point (grid-index gap >= 2): single-cell edges are the
    discretization of a continuous increase of a(.), not discontinuities."""
    return np.diff(sol.vertex_grid_indices) >= 2


def _window_zero_indices(sol: BurgersSolution, lo: float, hi: float) -> np.ndarray:
    """zero_set_indices restricted to vertices in [lo, hi]."""
    z = zero_set_indices(sol)
    return z[(sol.vertex_ys[z] >= lo) & (sol.vertex_ys[z] <= hi)]


def extract_shocks(sol: BurgersSolution) -> ShockReport:
    """Windowed shock structure of a solved flow.

    Shocks are the macroscopic edges located in the window.  Shock
    velocities are computed from the potential difference across the
    shock interval; the average-of-one-sided-u identity is exact algebra
    on the same hull coordinates and is asserted by the tests rather than
    recomputed here.
    """
    lo, hi = sol.window
    ys = sol.vertex_ys
    gidx = sol.vertex_grid_indices
    ba = sol.boundary_affected

    k = np.flatnonzero((sol.edge_x >= lo) & (sol.edge_x <= hi) & macroscopic_edges(sol))
    a_minus, a_plus = ys[k], ys[k + 1]
    mass = a_plus - a_minus
    dpsi = sol.path.values[gidx[k + 1]] - sol.path.values[gidx[k]]
    shocks = list(map(
        Shock, sol.edge_x[k].tolist(), a_minus.tolist(), a_plus.tolist(),
        mass.tolist(), (-dpsi / mass).tolist(), (ba[k] | ba[k + 1]).tolist(),
    ))

    r_lo, r_hi = np.clip(sol.x_lo, lo, hi), np.clip(sol.x_hi, lo, hi)
    r = np.flatnonzero(r_hi > r_lo)
    r_lo, r_hi = r_lo[r], r_hi[r]
    rarefactions = list(map(
        Rarefaction, ys[r].tolist(), r_lo.tolist(), r_hi.tolist(),
        (r_hi - r_lo).tolist(), ba[r].tolist(),
    ))

    in_window = np.flatnonzero((ys >= lo) & (ys <= hi))
    zero_idx = _window_zero_indices(sol, lo, hi)
    return ShockReport(
        shocks=shocks,
        contacts=ys[in_window],
        contact_indices=in_window,
        zero_set=ys[zero_idx],
        zero_indices=zero_idx,
        rarefactions=rarefactions,
        window=sol.window,
    )


def _ranges(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(g, i) over the concatenated index ranges [starts[g], stops[g])."""
    counts = stops - starts
    g = np.repeat(np.arange(len(counts)), counts)
    return g, np.arange(counts.sum()) + np.repeat(starts + counts - np.cumsum(counts), counts)


def _gap_samples(
    sol: BurgersSolution, z1: np.ndarray, z2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gap, x, u) samples inside the open gaps (z1[g], z2[g]), ordered by
    gap, then x: one-sided u at every shock strictly inside, plus u at the
    midpoint of every constancy interval's overlap with the gap.

    edge_x, x_lo and x_hi are nondecreasing (t > 0), so each gap's shocks
    and overlapping intervals are contiguous index ranges.
    """
    ys = sol.vertex_ys
    g_e, e = _ranges(
        np.searchsorted(sol.edge_x, z1, side="right"),
        np.searchsorted(sol.edge_x, z2, side="left"),
    )
    g_k, k = _ranges(
        np.searchsorted(sol.x_hi, z1, side="right"),
        np.searchsorted(sol.x_lo, z2, side="left"),
    )
    o_lo = np.maximum(sol.x_lo[k], z1[g_k])
    o_hi = np.minimum(sol.x_hi[k], z2[g_k])
    keep = o_hi > o_lo
    k = k[keep]

    # u(x-) then u(x) at each shock, then the interval midpoints; the
    # stable sort keeps that order among equal x
    gap = np.concatenate([np.repeat(g_e, 2), g_k[keep]])
    xs = np.concatenate([np.repeat(sol.edge_x[e], 2), 0.5 * (o_lo[keep] + o_hi[keep])])
    a = np.concatenate([np.column_stack([ys[e], ys[e + 1]]).ravel(), ys[k]])
    order = np.lexsort((xs, gap))
    return gap[order], xs[order], ((xs - a) / sol.t)[order]


def sign_pattern(sol: BurgersSolution) -> SignPatternReport:
    """Scan u between consecutive zero-set points of the window.

    Between two consecutive zero-velocity points u must be first positive
    then negative: u only jumps downward, so any observed passage from
    u < 0 to u > 0 without an intervening zero-set point is a violation.
    Empty zero set yields an empty report.
    """
    zs = sol.vertex_ys[_window_zero_indices(sol, *sol.window)]
    # zero elements one cell apart are a single connected component of the
    # closed zero set at grid resolution, not a gap
    g = np.flatnonzero(np.diff(zs) > sol.path.grid.h * (1.0 + 1e-9))
    z1, z2 = zs[g], zs[g + 1]
    gap, xs, us = _gap_samples(sol, z1, z2)
    neg, pos = us < 0, us > 0

    # negatives seen earlier in the same gap
    neg_before = np.cumsum(neg) - neg
    neg_before -= neg_before[np.searchsorted(gap, gap)]
    bad = pos & (neg_before > 0)
    violations = list(zip(z1[gap[bad]].tolist(), z2[gap[bad]].tolist(), xs[bad].tolist()))

    gap_stats = list(map(
        GapStat, zip(z1.tolist(), z2.tolist()),
        (np.bincount(gap[pos], minlength=len(g)) > 0).tolist(),
        (np.bincount(gap[neg], minlength=len(g)) > 0).tolist(),
    ))
    return SignPatternReport(violations=violations, gap_stats=gap_stats)


def contact_jump_signs(sol: BurgersSolution) -> JumpSignReport:
    """Check jump signs at one-sidedly attained contact points of sol.path.

    A contact attained only from the left (its X-interval below the
    vertex) should sit at an upward jump of the potential, and one
    attained only from the right at a downward jump.  One-sidedness uses a
    one-cell tolerance.  Each one-sided vertex outside the boundary zone
    is judged by the largest tracked jump within one grid cell of it (the
    first of equal ones); a vertex with no such jump counts as untracked.
    """
    path = sol.path
    ys = sol.vertex_ys
    tol = ONE_SIDED_TOL_CELLS * path.grid.h
    below = (sol.x_hi <= ys + tol) & (sol.x_lo < ys - tol)
    above = (sol.x_lo >= ys - tol) & (sol.x_hi > ys + tol)
    one_sided = (below | above) & ~sol.boundary_affected
    g = sol.vertex_grid_indices[one_sided]

    # jump indices are distinct and increasing, so the jumps in [g-1, g+1]
    # are among the three from the first index >= g-1 on; padding past the
    # grid end keeps those three in bounds
    jumps = path.tracked_jumps
    idx = np.concatenate([jumps["index"], np.full(3, path.grid.n + 2)])
    size = np.concatenate([jumps["size"], np.zeros(3)])
    cand = np.searchsorted(jumps["index"], g - 1)[:, None] + np.arange(3)
    mag = np.where(idx[cand] <= g[:, None] + 1, np.abs(size[cand]), -1.0)
    tracked = mag.max(axis=1) >= 0.0
    best = size[cand[np.arange(len(g)), mag.argmax(axis=1)]]
    agreements = int(np.count_nonzero(tracked & ((best > 0) == below[one_sided])))
    n_tracked = int(np.count_nonzero(tracked))
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
    n_pts = int(np.count_nonzero((pts >= lo) & (pts <= hi)))
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
    ys = sol.vertex_ys
    n_contacts = int(np.count_nonzero((ys >= lo) & (ys <= hi)))
    n_zero = len(_window_zero_indices(sol, lo, hi))

    # x_lo <= x_hi and clipping is monotone, so no length is negative
    lengths = np.clip(sol.x_hi, lo, hi) - np.clip(sol.x_lo, lo, hi)
    lengths[sol.boundary_affected] = 0.0
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
    if n_rep < 1:
        raise ParameterError(f"n_rep must be >= 1, got {n_rep}")
    if not h_list:
        raise GridError("h_list must not be empty")
    if any(h2 >= h1 for h1, h2 in zip(h_list, h_list[1:])):
        raise GridError("h_list must be strictly decreasing")
    if not all(0.0 < v < math.inf for v in (L, *h_list)):
        raise GridError("L and every h must be finite and > 0")
    grids = []
    for h in h_list:
        cells = 2.0 * L / h
        if abs(cells - round(cells)) > 1e-9:
            raise GridError(f"h={h} does not divide the domain [-{L}, {L}]")
        grids.append(GridSpec(L, int(round(cells)) + 1))
    for grid in grids:
        _stats_window(window, grid)
    rows = []
    for hk, (h, grid) in enumerate(zip(h_list, grids)):
        replicates = solved_replicates(params, grid, t, n_rep, seed, key=hk)
        stats = [window_stats(sol, window) for sol in replicates if sol is not None]
        arr = np.array(stats) if stats else np.full((1, 4), math.nan)
        medians = np.median(arr, axis=0).tolist()  # in window_stats order
        rows.append(RefinementRow(h, grid.n, *medians, n_rep - len(stats)))
    return rows
