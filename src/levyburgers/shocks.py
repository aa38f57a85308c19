"""Shock structure extraction and statistics from a solved flow.

A shock is a hull edge whose Lagrangian interval swallows at least one
interior grid point (location -t * edge slope, interval the two
vertices); vertices whose own X-interval contains them form the zero set
(zero-velocity points); each vertex's X-interval, clipped to the analysis
window, is its constancy (rarefaction) record.  On a finite grid every
vertex has a positive-length constancy interval, so rarefaction claims
are studied through refinement trends rather than per-grid booleans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, WindowTooSmallError
from .levy import GridSpec, LevyParams, LevyPath, derived_seed, sample_path
from .solver import BurgersSolution, solve

# One-cell tolerance when deciding that a vertex is attained from one side
# only; shock locations on the grid carry O(h) discretization error.
ONE_SIDED_TOL_CELLS = 1.0


@dataclass(frozen=True)
class Shock:
    """A jump of x -> a(x): the Eulerian location, the Lagrangian interval
    of aggregated particles, its mass and the cluster velocity."""

    x: float
    a_minus: float
    a_plus: float
    mass: float
    velocity: float
    boundary_affected: bool


@dataclass(frozen=True)
class Rarefaction:
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


@dataclass(frozen=True)
class RefinementRow:
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
    ys = sol.vertex_ys
    target = -ys / sol.t
    s = sol.majorant.slopes
    s_left = np.concatenate([[np.inf], s])
    s_right = np.concatenate([s, [-np.inf]])
    return np.flatnonzero((s_right <= target) & (target <= s_left))


def epsilon_regular_indices(sol: BurgersSolution, eps: float | None = None) -> np.ndarray:
    """Vertex indices with another contact within eps on both sides.

    Finite-resolution proxy for contact points isolated on neither side
    (particles untouched by collisions); defaults to eps = 10h.
    """
    if eps is None:
        eps = 10.0 * sol.path.grid.h
    ys = sol.vertex_ys
    left_gap = np.diff(ys, prepend=-np.inf)
    right_gap = np.diff(ys, append=np.inf)
    return np.flatnonzero((left_gap < eps) & (right_gap < eps))


def extract_shocks(sol: BurgersSolution) -> ShockReport:
    """Windowed shock structure of a solved flow.

    A hull edge is a shock only when its interval swallows at least one
    interior grid point (grid-index gap >= 2): single-cell edges are the
    discretization of a continuous increase of a(.), not discontinuities.
    Shock velocities are computed from the potential difference across the
    shock interval; the average-of-one-sided-u identity is exact algebra
    on the same hull coordinates and is asserted by the tests rather than
    recomputed here.
    """
    lo, hi = sol.window
    ys = sol.vertex_ys
    gidx = sol.vertex_grid_indices
    vals = sol.path.values
    t = sol.t

    in_win = (sol.edge_x >= lo) & (sol.edge_x <= hi)
    macroscopic = np.diff(gidx) >= 2
    shocks = []
    for k in np.flatnonzero(in_win & macroscopic):
        a_minus = float(ys[k])
        a_plus = float(ys[k + 1])
        mass = a_plus - a_minus
        dpsi = float(vals[gidx[k + 1]] - vals[gidx[k]])
        shocks.append(
            Shock(
                x=float(sol.edge_x[k]),
                a_minus=a_minus,
                a_plus=a_plus,
                mass=mass,
                velocity=-dpsi / mass,
                boundary_affected=bool(
                    sol.boundary_affected[k] or sol.boundary_affected[k + 1]
                ),
            )
        )

    in_window = np.flatnonzero((ys >= lo) & (ys <= hi))
    zero_all = zero_set_indices(sol)
    zero_idx = zero_all[(ys[zero_all] >= lo) & (ys[zero_all] <= hi)]

    rarefactions = []
    for k in range(len(ys)):
        r_lo = max(float(sol.x_lo[k]), lo)
        r_hi = min(float(sol.x_hi[k]), hi)
        if r_hi > r_lo:
            rarefactions.append(
                Rarefaction(
                    vertex_y=float(ys[k]),
                    x_lo=r_lo,
                    x_hi=r_hi,
                    length=r_hi - r_lo,
                    boundary_affected=bool(sol.boundary_affected[k]),
                )
            )

    return ShockReport(
        shocks=shocks,
        contacts=ys[in_window],
        contact_indices=in_window,
        zero_set=ys[zero_idx],
        zero_indices=zero_idx,
        rarefactions=rarefactions,
        window=sol.window,
    )


def _gap_samples(sol: BurgersSolution, z1: float, z2: float) -> list[tuple[float, float]]:
    """(x, u) samples inside the open gap (z1, z2): one-sided u at every
    shock strictly inside, plus u at the midpoint of every constancy
    interval's overlap with the gap."""
    ys = sol.vertex_ys
    t = sol.t
    samples = []
    for k in np.flatnonzero((sol.edge_x > z1) & (sol.edge_x < z2)):
        x = float(sol.edge_x[k])
        samples.append((x, (x - float(ys[k])) / t))      # u(x-)
        samples.append((x, (x - float(ys[k + 1])) / t))  # u(x)
    for k in np.flatnonzero((sol.x_hi > z1) & (sol.x_lo < z2)):
        o_lo = max(float(sol.x_lo[k]), z1)
        o_hi = min(float(sol.x_hi[k]), z2)
        if o_hi > o_lo:
            mid = 0.5 * (o_lo + o_hi)
            samples.append((mid, (mid - float(ys[k])) / t))
    samples.sort(key=lambda s: s[0])
    return samples


def sign_pattern(sol: BurgersSolution) -> SignPatternReport:
    """Scan u between consecutive zero-set points.

    Between two consecutive zero-velocity points u must be first positive
    then negative: u only jumps downward, so any observed passage from
    u < 0 to u > 0 without an intervening zero-set point is a violation.
    Empty zero set yields an empty report.
    """
    report = extract_shocks(sol)
    zs = report.zero_set
    violations = []
    gap_stats = []
    # zero elements one cell apart are a single connected component of the
    # closed zero set at grid resolution, not a gap
    h = sol.path.grid.h
    for z1, z2 in zip(zs[:-1], zs[1:]):
        if z2 - z1 <= h * (1.0 + 1e-9):
            continue
        samples = _gap_samples(sol, float(z1), float(z2))
        seen_negative = False
        has_pos = False
        has_neg = False
        for x, u in samples:
            if u > 0:
                has_pos = True
                if seen_negative:
                    violations.append((float(z1), float(z2), x))
            elif u < 0:
                has_neg = True
                seen_negative = True
        gap_stats.append(
            GapStat(gap=(float(z1), float(z2)),
                    has_positive_phase=has_pos,
                    has_negative_phase=has_neg)
        )
    return SignPatternReport(violations=violations, gap_stats=gap_stats)


def contact_jump_signs(sol: BurgersSolution, path: LevyPath) -> JumpSignReport:
    """Check jump signs at one-sidedly attained contact points.

    A contact attained only from the left (its X-interval below the
    vertex) should sit at an upward jump of the potential, and one
    attained only from the right at a downward jump.  One-sidedness uses a
    one-cell tolerance; a vertex with no tracked jump within one cell
    counts as untracked.
    """
    h = path.grid.h
    ys = sol.vertex_ys
    gidx = sol.vertex_grid_indices
    jumps = path.tracked_jumps
    jump_idx = np.array([j for j, _ in jumps], dtype=np.intp)
    jump_size = np.array([s for _, s in jumps])

    tol = ONE_SIDED_TOL_CELLS * h
    agreements = disagreements = untracked = 0
    for k in range(len(ys)):
        if sol.boundary_affected[k]:
            continue
        below = sol.x_hi[k] <= ys[k] + tol and sol.x_lo[k] < ys[k] - tol
        above = sol.x_lo[k] >= ys[k] - tol and sol.x_hi[k] > ys[k] + tol
        if not (below or above):
            continue
        if len(jump_idx) == 0:
            untracked += 1
            continue
        d = np.abs(jump_idx - gidx[k])
        near = np.flatnonzero(d <= 1)
        if len(near) == 0:
            untracked += 1
            continue
        j = near[np.argmax(np.abs(jump_size[near]))]
        expect_positive = below
        if (jump_size[j] > 0) == expect_positive:
            agreements += 1
        else:
            disagreements += 1
    return JumpSignReport(agreements, disagreements, untracked)


def window_stats(
    sol: BurgersSolution, window: tuple[float, float] | None = None
) -> tuple[int, int, float, float]:
    """(contacts, zero-set size, max rarefaction length, contact fraction)
    inside ``window`` (the solution's own analysis window by default).

    Boundary-affected vertices are excluded from the rarefaction maximum;
    the contact fraction divides by the number of grid points in the
    window.
    """
    lo, hi = window if window is not None else sol.window
    lo = max(lo, sol.window[0])
    hi = min(hi, sol.window[1])
    ys = sol.vertex_ys
    n_contacts = int(np.count_nonzero((ys >= lo) & (ys <= hi)))
    zero_all = zero_set_indices(sol)
    n_zero = int(np.count_nonzero((ys[zero_all] >= lo) & (ys[zero_all] <= hi)))

    clip_lo = np.maximum(sol.x_lo, lo)
    clip_hi = np.minimum(sol.x_hi, hi)
    lengths = np.clip(clip_hi - clip_lo, 0.0, None)
    lengths[sol.boundary_affected] = 0.0
    max_rare = float(lengths.max()) if len(lengths) else 0.0

    pts = sol.path.grid.points()
    n_pts = int(np.count_nonzero((pts >= lo) & (pts <= hi)))
    fraction = n_contacts / n_pts if n_pts else math.nan
    return n_contacts, n_zero, max_rare, fraction


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
    counted and skipped.
    """
    if any(h2 >= h1 for h1, h2 in zip(h_list, h_list[1:])):
        raise GridError("h_list must be strictly decreasing")
    rows = []
    for hk, h in enumerate(h_list):
        cells = 2.0 * L / h
        if abs(cells - round(cells)) > 1e-9:
            raise GridError(f"h={h} does not divide the domain [-{L}, {L}]")
        grid = GridSpec.symmetric(L, int(round(cells)) + 1)
        stats = []
        n_failed = 0
        for rep in range(n_rep):
            path = sample_path(params, grid, derived_seed(seed, hk, rep))
            try:
                sol = solve(path, t)
            except WindowTooSmallError:
                n_failed += 1
                continue
            stats.append(window_stats(sol, window))
        arr = np.array(stats) if stats else np.full((1, 4), math.nan)
        med = np.median(arr, axis=0)
        rows.append(
            RefinementRow(
                h=h,
                n=grid.n,
                median_contacts=float(med[0]),
                median_zero=float(med[1]),
                median_max_rarefaction=float(med[2]),
                median_contact_fraction=float(med[3]),
                n_failed=n_failed,
            )
        )
    return rows
