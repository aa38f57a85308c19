"""Regeneration-point constructions and the independence test.

The first nonnegative zero-velocity point T of a flow admits a two-stage
scan construction: R is the first nonnegative point whose entire past
stays under the centered parabola, S the first point at or after R whose
entire future stays strictly under it; S coincides with T pathwise.  An
iterated argsup map started at R walks to the same point.

The scans nominate, then confirm.  With f = values - y^2/(2t), a point j
breaks the bound at i exactly when f_j + y_i y_j / t exceeds its value at
j = i (reaches it, for the strict S bound), so the vertex of the upper
concave majorant of f that a line of slope -y_i/t touches is the likeliest
killer of i.  One rule nominates that witness for both scans, from
majorants of the raw path, never the solved hull: R's witnesses lie in
[0, i0), S's in (R, n), and per block of candidates the majorant is built
only on the stretch between the vertices that the block's first and last
slopes touch.  For R the first slope is 0, so the stretch starts at the
first argmax of f on [0, i0).  A witness that breaks the bound, evaluated
exactly as the bound itself is, rejects its candidate.  The survivors are
checked in order against the whole bound, and the first that holds is the
answer.  A candidate is rejected only by a real violation and accepted
only by the full check, so the majorants decide the speed, never the
result; where one cannot be built, every candidate it serves is a
survivor.

Regenerativity of the zero set is probed statistically: low-dimensional
features of the flow before and after T are tested for dependence across
replicates with a distance-correlation permutation test (the test can
only fail to falsify; it never proves full-process independence).
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from .errors import InputError, InsufficientDataError, ParameterError
from .hull import FILTER_BLOCK, _majorant
from .levy import GridSpec, LevyParams, LevyPath, derived_seed
from .shocks import macroscopic_edges, zero_set_indices
from .solver import BurgersSolution, check_time, owning_vertices, solved_replicates

# u is sampled at this many equispaced points on each side of T when
# building the feature vectors.
N_FEATURE_SAMPLES = 64

# The permutation test runs only on at least this many replicates.
MIN_INDEPENDENCE_REPS = 100

# The scans' first block of candidates ends this many past the first
# candidate, and each later block end 4x as far past it, up to
# FILTER_BLOCK: R - i0 and S - R are a few dozen candidates on most paths
# and thousands on a few.
_FIRST_BLOCK = 64


class RegenReport(NamedTuple):
    """Scan results for one path.  Missing quantities (window exhausted,
    empty nonnegative zero set) are None; that is a status, not an error."""

    R: float | None
    S: float | None
    T_first: float | None
    rk: list[float]
    s_equals_t: bool | None = None
    rk_converged: bool = False
    steps: int = 0


class IndependenceReport(NamedTuple):
    """The permutation test's result, as regen_report.json writes it."""

    p_value_global: float
    dcor: float
    feature_correlations: tuple[float, ...]
    n_valid: int
    n_dropped: int


def _nominations(values: np.ndarray, ys: np.ndarray, lo: int, hi: int, start: int, t: float):
    """The candidates from ``start`` on in blocks, each as (cand, j): j the
    witnesses in [lo, hi) nominated for cand, or None.

    With f = values - y^2/(2t), a(c) is the first argmax of
    f_j + y_c y_j / t over j in [lo, hi): the vertex of the majorant of f
    that a line of slope -y_c/t touches.  As y_c grows with c, a(c) moves
    right, so each is searched from the previous block's end vertex on,
    and the chain of an upper hull between two of its vertices is the hull
    of the points between them.  So block [c0, c1) is nominated from the
    majorant of the stretch [a(c0 - 1), a(c1 - 1)] alone (from a(c0) in
    the first block), as that vertex for every candidate when the stretch
    is one point, and not at all (None) where the majorant overflows.
    Blocks end at _FIRST_BLOCK * 4^k candidates past ``start``, up to
    FILTER_BLOCK, then at every further FILTER_BLOCK.  Nothing is
    nominated where [lo, hi) holds under two points.
    """

    def touched(c: int, a: int) -> int:
        with np.errstate(over="ignore", invalid="ignore"):
            return a + int(np.argmax(f[a - lo :] + ys[a:hi] * (ys[c] / t)))

    nominate = hi - lo >= 2
    if nominate:
        with np.errstate(over="ignore", invalid="ignore"):
            f = values[lo:hi] - ys[lo:hi] ** 2 / (2.0 * t)
        a = touched(start, lo)
    first, stop = start, start + _FIRST_BLOCK
    while start < len(ys):
        cand = np.arange(start, min(stop, len(ys)))
        j = None
        if nominate:
            b = touched(int(cand[-1]), a)
            if a == b:
                j = np.full(len(cand), a)
            else:
                try:
                    cm = _majorant(ys[a : b + 1], f[a - lo : b + 1 - lo])
                except InputError:
                    pass
                else:
                    with np.errstate(over="ignore"):
                        j = a + cm.indices[np.searchsorted(-cm.s, ys[cand] / t) - 1]
            a = b
        yield cand, j
        start, stop = stop, stop + min(3 * (stop - first), FILTER_BLOCK)


def _past_holds(values: np.ndarray, ys: np.ndarray, i: int, lo: int, hi: int, t: float) -> bool:
    """The closed R bound values[j] - values[i] <= (y_i - y_j)^2 / (2t)
    for every j in [lo, hi)."""
    past = values[lo:hi] - values[i]
    return bool(np.all(past <= (ys[i] - ys[lo:hi]) ** 2 / (2.0 * t)))


def _future_holds(values: np.ndarray, ys: np.ndarray, i: int, t: float) -> bool:
    """The strict S bound values[j] - values[i] < (y_j - y_i)^2 / (2t) for
    every j > i; an empty future holds."""
    fut = values[i + 1 :] - values[i]
    return bool(np.all(fut < (ys[i + 1 :] - ys[i]) ** 2 / (2.0 * t)))


def _scan_r(values: np.ndarray, ys: np.ndarray, i0: int, t: float) -> int | None:
    """First grid index i >= i0 whose entire past satisfies the closed
    parabola bound, or None.

    Per block of candidates, _nominations names one witness j in [0, i0)
    each, and a witness that breaks the bound, in the bound's own
    arithmetic, rejects its candidate.  Each survivor in turn is then
    checked against [i0, i), where its witnesses are not nominated, and
    against [0, i0); the first that holds is R.
    """
    for cand, j in _nominations(values, ys, 0, i0, i0, t):
        if j is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                kept = values[j] - values[cand] <= (ys[cand] - ys[j]) ** 2 / (2.0 * t)
            cand = cand[kept]
        for i in cand.tolist():
            if _past_holds(values, ys, i, i0, i, t) and _past_holds(values, ys, i, 0, i0, t):
                return i
    return None


def _scan_s(values: np.ndarray, ys: np.ndarray, r: int, t: float) -> int:
    """First grid index i >= r whose entire future satisfies the strict
    parabola bound; the last grid point, with an empty future, always does.

    The mirror of _scan_r on the witnesses that _nominations names in
    (r, n): a witness past i that breaks the strict bound rejects i, a
    witness at or before i is none, and each survivor in turn is checked
    against its whole future.
    """
    for cand, j in _nominations(values, ys, r + 1, len(ys), r, t):
        if j is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                kept = values[j] - values[cand] < (ys[j] - ys[cand]) ** 2 / (2.0 * t)
            cand = cand[kept | (j <= cand)]
        for i in cand.tolist():
            if _future_holds(values, ys, i, t):
                return i


def _first_zero(sol: BurgersSolution) -> float | None:
    """Smallest nonnegative element of the zero set, over the whole grid."""
    zy = sol.majorant.ys[zero_set_indices(sol)]
    zy = zy[zy >= 0.0]
    return float(zy[0]) if len(zy) else None


def rst_scan(path: LevyPath, t: float, sol: BurgersSolution) -> RegenReport:
    """(R, S) by the nominate-then-confirm scans, plus T from the zero set.

    Majorants of the raw path only nominate a witness per candidate;
    every answer is confirmed by the parabola condition itself, so R and
    S are those of the direct O(n^2) scans, index for index.  Both scans
    nominate by one rule, per block of candidates from a majorant of only
    the stretch where the block's witnesses lie, so beyond the confirming
    checks a scan costs a few O(n) passes and hulls of a few hundred
    points on the paths measured, not two hull passes of the grid.

    The parabola conditions compare plain grid values at their own grid
    offsets; a left limit is carried by the previous grid point, which is
    scanned at its own location.  T_first is the smallest nonnegative
    element of the zero set of ``sol``, over the whole grid: the scans see
    the whole grid too, and S coincides with T only when both
    constructions run on the same domain.  ``sol`` must be solve(path, t);
    the scans themselves read only the raw path.
    """
    if sol.t != t or sol.path is not path:
        raise InputError("sol must be solve(path, t) for the path and t scanned")
    ys = path.grid.points()
    values = path.values
    i0 = path.grid.zero_index

    r_idx = _scan_r(values, ys, i0, t)
    s_idx = _scan_s(values, ys, r_idx, t) if r_idx is not None else None
    t_first = _first_zero(sol)

    s_val = float(ys[s_idx]) if s_idx is not None else None
    return RegenReport(
        R=float(ys[r_idx]) if r_idx is not None else None,
        S=s_val,
        T_first=t_first,
        rk=[],
        s_equals_t=(s_val == t_first) if (s_val is not None and t_first is not None) else None,
    )


class RkResult(NamedTuple):
    rk: list[float]
    converged: bool
    steps: int


def _check_k_max(k_max) -> None:
    """ParameterError unless k_max is an integer >= 1; a bool is none."""
    try:
        ok = not isinstance(k_max, bool) and operator.index(k_max) >= 1
    except TypeError:
        ok = False
    if not ok:
        raise ParameterError(f"k_max must be an integer >= 1, got {k_max!r}")


def rk_sequence(path: LevyPath, t: float, k_max: int = 64, *, r0: float) -> RkResult:
    """Iterated argsup walk from the grid point r0 = R toward the first zero point.

    Each step moves to the largest argmax of values minus the parabola
    recentered at the current point, scanning grid points to the right
    (ties to the larger index); the walk stops at the first fixed point.
    Exceeding k_max is reported, not fatal.
    """
    check_time(t)
    _check_k_max(k_max)
    ys = path.grid.points()
    values = path.values
    i = int(np.searchsorted(ys, r0))
    if i >= len(ys) or ys[i] != r0:
        raise ParameterError(f"r0={r0} is not a grid point")

    rk = [float(ys[i])]
    converged = False
    for _ in range(k_max):
        obj = values[i:] - (ys[i:] - ys[i]) ** 2 / (2.0 * t)
        step = int(np.flatnonzero(obj == obj.max())[-1])
        if step == 0:
            converged = True
            break
        i += step
        rk.append(float(ys[i]))
    return RkResult(rk=rk, converged=converged, steps=len(rk) - 1)


def regen_report(sol: BurgersSolution, k_max: int = 64) -> RegenReport:
    """rst_scan plus the r_k walk of the solved flow ``sol`` in one report."""
    _check_k_max(k_max)
    base = rst_scan(sol.path, sol.t, sol)
    if base.R is None:
        return base
    walk = rk_sequence(sol.path, sol.t, k_max=k_max, r0=base.R)
    return base._replace(rk=walk.rk, rk_converged=walk.converged, steps=walk.steps)


def _standardize(x: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd[sd == 0] = 1.0
    return (x - mu) / sd


def _centred_distances(x: np.ndarray) -> np.ndarray:
    """Double-centred Euclidean distance matrix between the rows of x;
    a 1-D x holds one observation per entry."""
    x = np.asarray(x, dtype=float).reshape(len(x), -1)
    d = np.sqrt(((x[:, None] - x[None]) ** 2).sum(-1))
    return d - d.mean(axis=0) - d.mean(axis=1)[:, None] + d.mean()


def _dcor(aa: np.ndarray, bb: np.ndarray, dvar_x: float, dvar_y: float) -> float:
    if dvar_x <= 0 or dvar_y <= 0:
        return 0.0
    return math.sqrt(max((aa * bb).mean(), 0.0)) / (dvar_x * dvar_y) ** 0.25


def _centred_pair(x: np.ndarray, y: np.ndarray):
    """(aa, bb, dVar_x, dVar_y) for row-paired observations x and y."""
    if len(x) != len(y):
        raise InputError(f"row counts differ: {len(x)} vs {len(y)}")
    if not len(x):
        raise InputError("need at least one row of observations")
    aa, bb = _centred_distances(x), _centred_distances(y)
    return aa, bb, (aa * aa).mean(), (bb * bb).mean()


def distance_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Sample distance correlation between row-paired observations."""
    return _dcor(*_centred_pair(x, y))


def permutation_pvalue(
    f_pre: np.ndarray,
    f_post: np.ndarray,
    rng: np.random.Generator,
    n_perm: int = 999,
) -> tuple[float, float]:
    """(dcor, permutation p-value) for dependence between the rows of
    f_pre and f_post; f_post rows are permuted across replicates.

    Exact under the null by construction: p = (1 + #{perm >= obs}) /
    (1 + n_perm), so p-values are approximately uniform for independent
    features and never zero.  Double centring commutes with permuting
    rows and columns together and dVar_y is permutation invariant, so the
    centred matrix of f_post is built once and permuted.
    """
    if n_perm < 1:
        raise ParameterError(f"n_perm must be >= 1, got {n_perm}")
    aa, bb, dvar_x, dvar_y = _centred_pair(f_pre, f_post)
    obs = _dcor(aa, bb, dvar_x, dvar_y)
    count = 0
    for _ in range(n_perm):
        perm = rng.permutation(len(bb))
        if _dcor(aa, bb[perm][:, perm], dvar_x, dvar_y) >= obs:
            count += 1
    return obs, (1 + count) / (1 + n_perm)


def _side_features(
    sol: BurgersSolution, lo: float, hi: float, closed_right: bool
) -> np.ndarray:
    """(mean u, min u, #shocks) on (lo, hi] or [lo, hi); shocks are the
    macroscopic edges."""
    j = np.arange(N_FEATURE_SAMPLES) + float(closed_right)
    xs = lo + (hi - lo) * j / N_FEATURE_SAMPLES
    # edge_x is nondecreasing (t > 0): a range of it counts the shocks
    side = "right" if closed_right else "left"
    lo_k, hi_k = np.searchsorted(sol.edge_x[macroscopic_edges(sol)], [lo, hi], side=side)
    u = (xs - sol.majorant.ys[owning_vertices(sol, xs)]) / sol.t
    return np.array([u.mean(), u.min(), float(hi_k - lo_k)])


def replicate_features(
    sol: BurgersSolution | None, window_w: float
) -> tuple[float, np.ndarray, np.ndarray] | None:
    """(T, pre, post) of one replicate: T is the first nonnegative zero
    point, pre and post the features on [T-w, T) and (T, T+w].  None drops
    the replicate: it has no solution, T is not found or [T-w, T+w]
    leaves the analysis window."""
    if not 0.0 < window_w < math.inf:
        raise ParameterError(f"w must be finite and > 0, got {window_w}")
    T = None if sol is None else _first_zero(sol)
    if T is None or T - window_w < sol.window[0] or T + window_w > sol.window[1]:
        return None
    return (
        T,
        _side_features(sol, T - window_w, T, closed_right=False),
        _side_features(sol, T, T + window_w, closed_right=True),
    )


def independence_report(features: list, seed: int) -> IndependenceReport:
    """Distance-correlation test over per-replicate features.

    ``features`` holds one replicate_features result per replicate, None
    for a dropped one; more than 20% drops aborts.  Features are
    standardized across replicates before testing.
    """
    kept = [f for f in features if f is not None]
    n_rep, n_dropped = len(features), len(features) - len(kept)
    if not kept or n_dropped > 0.2 * n_rep:
        raise InsufficientDataError(
            f"{n_dropped}/{n_rep} replicates dropped; shrink w or enlarge the grid"
        )

    f_pre = _standardize(np.array([f[1] for f in kept]))
    f_post = _standardize(np.array([f[2] for f in kept]))
    rng = np.random.default_rng(derived_seed(seed, 1))
    dcor, p = permutation_pvalue(f_pre, f_post, rng)

    corrs = []
    for j in range(f_pre.shape[1]):
        x, y = f_pre[:, j], f_post[:, j]
        if x.std() == 0 or y.std() == 0:
            corrs.append(0.0)
        else:
            corrs.append(float(np.corrcoef(x, y)[0, 1]))

    return IndependenceReport(
        p_value_global=p,
        dcor=dcor,
        feature_correlations=tuple(corrs),
        n_valid=len(kept),
        n_dropped=n_dropped,
    )


def independence_test(
    params: LevyParams,
    grid: GridSpec,
    t: float,
    window_w: float,
    n_rep: int,
    seed: int,
) -> IndependenceReport:
    """Permutation test of dependence between the flow before and after T.

    Builds each solved replicate's feature vectors (mean u, min u, shock
    count) with replicate_features and tests them with independence_report.
    """
    check_time(t)
    if n_rep < MIN_INDEPENDENCE_REPS:
        raise ParameterError(f"need n_rep >= {MIN_INDEPENDENCE_REPS}")
    features = [
        replicate_features(sol, window_w)
        for sol in solved_replicates(params, grid, t, n_rep, seed, key=0)
    ]
    return independence_report(features, seed)
