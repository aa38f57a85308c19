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
from typing import NamedTuple

import numpy as np

from .errors import OutOfDomainError, ParameterError, WindowTooSmallError
from .hull import ConcaveMajorant, _majorant, read_only
from .levy import GridSpec, LevyParams, LevyPath, derived_seed, sample_path

# Fraction of the grid length trimmed from each side to form the analysis
# window.  The parabolic tail guarantees global domination only in the
# continuum; a finite window needs guarding.
WINDOW_MARGIN_FRACTION = 0.25


class EulerianValues(NamedTuple):
    """One-sided solution values at a query point."""

    a: float
    a_minus: float
    u: float
    u_minus: float


@dataclass(frozen=True)
class BurgersSolution:
    """Exact piecewise representation of a(., t) and u(., t).

    Vertex k of the shifted-potential majorant owns the Eulerian interval
    [breaks[k], breaks[k+1]] on which a(x) = majorant.ys[k].  ``breaks`` =
    -t * majorant.s is -inf, the m-1 shock locations increasing, then +inf,
    so consecutive intervals share a shock point and tile the line;
    ``x_lo``, ``x_hi`` and ``edge_x`` (the shocks) are views of it.  Ties
    at shared endpoints resolve to the right vertex, which realizes both
    the right continuity of a and the largest-argmax convention.  The
    arrays are read-only.
    """

    t: float
    path: LevyPath
    majorant: ConcaveMajorant
    window: tuple[float, float]
    breaks: np.ndarray
    boundary_affected: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "breaks", read_only(self.breaks))
        object.__setattr__(self, "boundary_affected", read_only(self.boundary_affected))

    @property
    def x_lo(self) -> np.ndarray:
        return self.breaks[:-1]

    @property
    def x_hi(self) -> np.ndarray:
        return self.breaks[1:]

    @property
    def edge_x(self) -> np.ndarray:
        return self.breaks[1:-1]

    def __len__(self) -> int:
        return len(self.majorant)


def check_time(t: float) -> None:
    """Refuse a time t that is not finite and > 0."""
    if not 0.0 < t < math.inf:
        raise ParameterError(f"t must be finite and > 0, got {t}")


def analysis_window(grid: GridSpec) -> tuple[float, float]:
    """The grid minus WINDOW_MARGIN_FRACTION of its length on each side."""
    margin = WINDOW_MARGIN_FRACTION * (2 * grid.L)
    return -grid.L + margin, grid.L - margin


def solve(path: LevyPath, t: float) -> BurgersSolution:
    """Build the exact grid solution at time t.

    The shifted potential is built in one buffer, and it and the grid
    points go to the hull as two columns, with no (n, 2) copy.  Raises
    WindowTooSmallError when a grid endpoint attains the maximum of the
    shifted potential: the global argmax may then lie off-grid and no
    window statistic would be trustworthy; InputError when a shifted value
    overflows float64.
    """
    check_time(t)
    ys = path.grid.points()
    # the parabola term is largest at the grid ends ys[0] = -ys[-1]; checked
    # in Python floats, which overflow to inf without a warning
    y_end = float(ys[-1])
    if not math.isfinite(y_end * y_end / (2.0 * t)):
        raise ParameterError(
            f"y^2/(2t) overflows at the grid end y={y_end:g} with t={t:g}; "
            "shrink L or raise t"
        )
    # values - ys * ys / (2t), the same operations in one buffer; a value
    # that overflows to -inf is refused by the hull
    shifted = np.multiply(ys, ys)
    shifted /= 2.0 * t
    with np.errstate(over="ignore"):
        np.subtract(path.values, shifted, out=shifted)

    fmax = float(shifted.max())
    if not (fmax > shifted[0] and fmax > shifted[-1]):
        raise WindowTooSmallError(
            "shifted potential is maximal at a grid endpoint; enlarge the grid"
        )

    cm = _majorant(ys, shifted)
    # vertex k owns -t * [s[k], s[k+1]]; t > 0 maps the sentinels to -/+inf
    with np.errstate(over="ignore"):
        breaks = -t * cm.s
    if not np.isfinite(breaks[1:-1]).all():
        raise ParameterError(f"t={t:g} times a hull slope overflows float64; lower t")

    window = analysis_window(path.grid)
    boundary = (breaks[:-1] < window[0]) | (breaks[1:] > window[1])

    return BurgersSolution(
        t=t,
        path=path,
        majorant=cm,
        window=window,
        breaks=breaks,
        boundary_affected=boundary,
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
    a = float(sol.majorant.ys[kr])
    a_minus = float(sol.majorant.ys[kl])
    return EulerianValues(
        a=a, a_minus=a_minus, u=(x - a) / sol.t, u_minus=(x - a_minus) / sol.t
    )


def solve_naive(path: LevyPath, t: float, xs) -> np.ndarray:
    """Brute-force a(x) by scanning every grid point, for each x in xs.

    Returns the largest grid y maximizing psi0(y) - (y-x)^2/(2t); exact
    floating-point ties break to the larger index.  This is the
    independent oracle for the hull solver.  A non-finite x raises
    OutOfDomainError.
    """
    check_time(t)
    xs = np.asarray(xs, dtype=float)
    if not np.isfinite(xs).all():
        raise OutOfDomainError("every x must be finite")
    ys = path.grid.points()
    vals = path.values
    out = np.empty(len(xs))
    for j, x in enumerate(xs):
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
    ys = sol.majorant.ys
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
    return float(sol.majorant.vs[k] + x * sol.majorant.ys[k] / t - x * x / (2.0 * t))


def prox_fixed_points(sol: BurgersSolution) -> np.ndarray:
    """Vertex indices whose own X-interval contains the vertex (a(y)=y).

    These are the fixed points of the proximal mapping x -> a(x); interval
    membership is closed on both ends.
    """
    ys = sol.majorant.ys
    return np.flatnonzero((sol.x_lo <= ys) & (ys <= sol.x_hi))
