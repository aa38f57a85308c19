"""Entropy solution of the inviscid Burgers equation from a potential path.

The solution at time t is a(x) = argmax_y psi0(y) - (y-x)^2/(2t) (largest
argmax) and u(x) = (x - a(x))/t.  Shifting by y^2/(2t) turns the family of
parabola tests into a single upper concave majorant of the shifted
potential: a(x) is the vertex whose slope interval contains -x/t, so the
hull contact set is the entire shock structure and every query is exact
on the grid.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomainError, ParameterError, WindowTooSmallError
from .hull import ConcaveMajorant, upper_concave_majorant
from .levy import GridSpec, LevyParams, LevyPath, derived_seed, sample_path

# Fraction of the grid length trimmed from each side to form the analysis
# window.  The parabolic tail guarantees global domination only in the
# continuum; a finite window needs guarding.
WINDOW_MARGIN_FRACTION = 0.25


@dataclass(frozen=True)
class EulerianValues:
    """One-sided solution values at a query point."""

    a: float
    a_minus: float
    u: float
    u_minus: float


@dataclass(frozen=True)
class BurgersSolution:
    """Exact piecewise representation of a(., t) and u(., t).

    Vertex k of the shifted-potential majorant owns the Eulerian interval
    [x_lo[k], x_hi[k]] on which a(x) = vertex_ys[k]; consecutive intervals
    share a single shock point and tile the line.  ``edge_x`` holds the
    shared endpoints (the shock locations), increasing.  Ties at shared
    endpoints resolve to the right vertex, which realizes both the right
    continuity of a and the largest-argmax convention.
    """

    t: float
    path: LevyPath
    majorant: ConcaveMajorant
    window: tuple[float, float]
    x_lo: np.ndarray
    x_hi: np.ndarray
    boundary_affected: np.ndarray
    edge_x: np.ndarray

    @property
    def vertex_ys(self) -> np.ndarray:
        return self.majorant.ys

    @property
    def vertex_values(self) -> np.ndarray:
        """Majorant values at the vertices (shifted potential)."""
        return self.majorant.vs

    @property
    def vertex_grid_indices(self) -> np.ndarray:
        return self.majorant.indices

    def __len__(self) -> int:
        return len(self.majorant)


def analysis_window(grid: GridSpec) -> tuple[float, float]:
    """The grid minus WINDOW_MARGIN_FRACTION of its length on each side."""
    margin = WINDOW_MARGIN_FRACTION * (2 * grid.L)
    return -grid.L + margin, grid.L - margin


def solve(path: LevyPath, t: float) -> BurgersSolution:
    """Build the exact grid solution at time t.

    Raises WindowTooSmallError when a grid endpoint attains the maximum of
    the shifted potential: the global argmax may then lie off-grid and no
    window statistic would be trustworthy.
    """
    if not 0.0 < t < np.inf:
        raise ParameterError(f"t must be finite and > 0, got {t}")
    ys = path.grid.points()
    # the parabola term is largest at the grid ends ys[0] = -ys[-1]; checked
    # in Python floats, which overflow to inf without a warning
    y_end = float(ys[-1])
    if not math.isfinite(y_end * y_end / (2.0 * t)):
        raise ParameterError(
            f"y^2/(2t) overflows at the grid end y={y_end:g} with t={t:g}; "
            "shrink L or raise t"
        )
    shifted = path.values - ys * ys / (2.0 * t)

    fmax = float(shifted.max())
    if not (fmax > shifted[0] and fmax > shifted[-1]):
        raise WindowTooSmallError(
            "shifted potential is maximal at a grid endpoint; enlarge the grid"
        )

    # column-major, so the hull reads both columns without a copy
    cm = upper_concave_majorant(np.array([ys, shifted]).T)
    # vertex k owns -t * [s[k], s[k+1]]; t > 0 maps the sentinels to -/+inf
    breaks = -t * cm.s
    x_lo, x_hi = breaks[:-1], breaks[1:]

    window = analysis_window(path.grid)
    boundary = (x_lo < window[0]) | (x_hi > window[1])

    return BurgersSolution(
        t=t,
        path=path,
        majorant=cm,
        window=window,
        x_lo=x_lo,
        x_hi=x_hi,
        boundary_affected=boundary,
        edge_x=x_hi[:-1],
    )


def solved_replicates(
    params: LevyParams, grid: GridSpec, t: float, n_rep: int, seed: int, key: int
) -> Iterator[BurgersSolution | None]:
    """Yield the solution of each replicate 0..n_rep-1, replicate r sampled
    with derived_seed(seed, key, r), or None when its grid window is too
    small; a solution's path is ``sol.path``."""
    for rep in range(n_rep):
        path = sample_path(params, grid, derived_seed(seed, key, rep))
        try:
            sol = solve(path, t)
        except WindowTooSmallError:
            sol = None
        yield sol


def owning_vertices(sol: BurgersSolution, xs) -> np.ndarray:
    """Indices of the vertices whose X-intervals contain the points xs.

    A shock location belongs to the right vertex (right continuity of a,
    largest argmax).  No window check: callers pass window points.
    """
    return np.searchsorted(sol.edge_x, xs, side="right")


def _owning_vertex(sol: BurgersSolution, x: float) -> int:
    """Index of the vertex whose X-interval contains the window point x
    (right at ties)."""
    lo, hi = sol.window
    if not lo <= x <= hi:
        raise OutOfDomainError(f"x={x} outside the analysis window [{lo}, {hi}]")
    return int(owning_vertices(sol, x))


def evaluate_solution(sol: BurgersSolution, x: float) -> EulerianValues:
    """a(x), a(x-), u(x), u(x-) at an Eulerian point of the window.

    Binary search over the shared interval endpoints; a(x-) differs from
    a(x) only when x is exactly a shock location, where it is the left
    vertex.
    """
    kr = _owning_vertex(sol, x)
    kl = int(np.searchsorted(sol.edge_x, x, side="left"))
    a = float(sol.vertex_ys[kr])
    a_minus = float(sol.vertex_ys[kl])
    return EulerianValues(
        a=a, a_minus=a_minus, u=(x - a) / sol.t, u_minus=(x - a_minus) / sol.t
    )


def solve_naive(path: LevyPath, t: float, xs) -> np.ndarray:
    """Brute-force a(x) by scanning every grid point, for each x in xs.

    Returns the largest grid y maximizing psi0(y) - (y-x)^2/(2t); exact
    floating-point ties break to the larger index.  This is the
    independent oracle for the hull solver.
    """
    if not 0.0 < t < np.inf:
        raise ParameterError(f"t must be finite and > 0, got {t}")
    ys = path.grid.points()
    vals = path.values
    out = np.empty(len(xs))
    for j, x in enumerate(np.asarray(xs, dtype=float)):
        obj = vals - (ys - x) ** 2 / (2.0 * t)
        best = np.flatnonzero(obj == obj.max())[-1]
        out[j] = ys[best]
    return out


def lagrangian_position(sol: BurgersSolution, a: float) -> float:
    """Position x(a) at time t of the particle initially at a.

    Right-continuous inverse of a(.): particles strictly inside a shock
    interval sit at the shock point; a particle that is itself a vertex
    sits inside its own constancy interval (at a when untouched).
    """
    ys = sol.vertex_ys
    if not ys[0] <= a <= ys[-1]:
        raise OutOfDomainError(f"a={a} outside the Lagrangian window")
    k = int(np.searchsorted(ys, a, side="left"))
    if ys[k] == a:
        return float(min(max(a, sol.x_lo[k]), sol.x_hi[k]))
    return float(sol.x_lo[k])


def moreau_envelope(sol: BurgersSolution, x: float) -> float:
    """M(x) = sup_y psi0(y) - (y-x)^2/(2t), exactly the grid supremum.

    Evaluated as C(a(x)) + x a(x)/t - x^2/(2t) with C the shifted-potential
    majorant value at the selected vertex.
    """
    k = _owning_vertex(sol, x)
    t = sol.t
    return float(sol.vertex_values[k] + x * sol.vertex_ys[k] / t - x * x / (2.0 * t))


def prox_fixed_points(sol: BurgersSolution) -> np.ndarray:
    """Vertex indices whose own X-interval contains the vertex (a(y)=y).

    These are the fixed points of the proximal mapping x -> a(x); interval
    membership is closed on both ends.
    """
    ys = sol.vertex_ys
    return np.flatnonzero((sol.x_lo <= ys) & (ys <= sol.x_hi))
