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
killer of i.  Majorants of the raw path, never the solved hull, nominate
that witness for every candidate, each built only on the stretch of the
grid where the witnesses lie: for R on [lo, i0), lo the first argmax of f
on [0, i0), and for S, per block of candidates, between the vertices of
the majorant of f on (R, n) that the block's first and last slopes touch.
A witness that breaks the bound, evaluated exactly as the bound itself
is, rejects its candidate.  The survivors are checked in order against
the whole bound, and the first that holds is the answer.  A candidate is
rejected only by a real violation and accepted only by the full check, so
the majorants decide the speed, never the result; where one cannot be
built, every candidate it serves is a survivor.

Regenerativity of the zero set is probed statistically: low-dimensional
features of the flow before and after T are tested for dependence across
replicates with a distance-correlation permutation test (the test can
only fail to falsify; it never proves full-process independence).
"""

from __future__ import annotations

import functools
import math
import operator
from typing import NamedTuple

import numpy as np

from .errors import InputError, InsufficientDataError, ParameterError
from .hull import FILTER_BLOCK, ConcaveMajorant, _majorant
from .levy import GridSpec, LevyParams, LevyPath, derived_seed
from .shocks import macroscopic_edges, zero_set_indices
from .solver import BurgersSolution, check_time, owning_vertices, solved_replicates

# u is sampled at this many equispaced points on each side of T when
# building the feature vectors.
N_FEATURE_SAMPLES = 64

# The permutation test runs only on at least this many replicates.
MIN_INDEPENDENCE_REPS = 100

# The S scan nominates witnesses for its first block of this many
# candidates, then for blocks 4x as large, up to FILTER_BLOCK: S - R is a
# few dozen candidates on most paths and thousands on a few.
_FIRST_S_BLOCK = 64


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


def _filter_majorant(
    values: np.ndarray, ys: np.ndarray, lo: int, hi: int, t: float
) -> ConcaveMajorant | None:
    """Upper concave majorant of f = values - y^2/(2t) on the grid indices
    [lo, hi), or None where there is none to filter with: fewer than two
    points, or an f or an edge slope that overflows (InputError)."""
    if hi - lo < 2:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        f = values[lo:hi] - ys[lo:hi] ** 2 / (2.0 * t)
    try:
        return _majorant(ys[lo:hi], f)
    except InputError:
        return None


def _witnesses(cm: ConcaveMajorant, lo: int, y: np.ndarray, t: float) -> np.ndarray:
    """For each candidate y_i, the grid index of the vertex of ``cm`` (built
    on [lo, hi)) that a line of slope -y_i/t touches: the j maximizing
    f_j + y_i y_j / t, which is the j most likely to break the parabola
    bound at i.  Only a nomination; rounding may pick a near miss."""
    with np.errstate(over="ignore"):
        k = np.searchsorted(-cm.s, y / t) - 1
    return lo + cm.indices[k]


def _nominator(values: np.ndarray, ys: np.ndarray, lo: int, hi: int, t: float):
    """The witnesses of the grid stretch [lo, hi] (closed), as a function
    from candidate y's to grid indices: _witnesses of the majorant of f
    on the stretch, or lo for every candidate when the stretch is that one
    point.  None where the majorant overflows and nothing is nominated."""
    if hi == lo:
        return lambda y: np.full(len(y), lo)
    cm = _filter_majorant(values, ys, lo, hi + 1, t)
    return None if cm is None else functools.partial(_witnesses, cm, lo, t=t)


def _r_nominations(values: np.ndarray, ys: np.ndarray, i0: int, t: float):
    """The R candidates from i0 on in blocks of FILTER_BLOCK, each as
    (cand, j): j the witnesses in [0, i0) nominated for cand, or None.

    A candidate has y_i >= 0, and its witness maximizes f_j + y_i y_j / t
    over j < i0.  Left of lo, the first argmax of f there, f_j < f_lo and
    y_i y_j <= y_i y_lo, so no j < lo wins, and the majorant is built on
    [lo, i0) alone, which may be the single point i0 - 1.  As where the
    whole majorant overflows, nothing is nominated where [0, i0) has under
    two points.
    """
    nominate = None
    if i0 > 1:
        with np.errstate(over="ignore", invalid="ignore"):
            lo = int(np.argmax(values[:i0] - ys[:i0] ** 2 / (2.0 * t)))
        nominate = _nominator(values, ys, lo, i0 - 1, t)
    for start in range(i0, len(ys), FILTER_BLOCK):
        cand = np.arange(start, min(start + FILTER_BLOCK, len(ys)))
        yield cand, None if nominate is None else nominate(ys[cand])


def _s_nominations(values: np.ndarray, ys: np.ndarray, r: int, t: float):
    """The S candidates from r on in blocks of _FIRST_S_BLOCK, grown x4
    up to FILTER_BLOCK, each as (cand, j): j the witnesses in (r, n)
    nominated for cand, or None.

    As the slope -y_c/t falls with c, the vertex it touches, a(c), the
    first argmax of f_j + y_c y_j / t over j in (r, n), moves right, and
    the chain of an upper hull between two of its vertices is the hull of
    the points between them.  So a block [c0, c1) needs the majorant of
    the stretch [a(c0), a(c1 - 1)] alone, and the next block starts at
    that end vertex.  Each a(c) is one pass over f, built once.  A future
    of one point is its own witness, so nothing is nominated for the two
    candidates left then.
    """
    if len(ys) - r < 3:
        yield np.arange(r, len(ys)), None
        return
    with np.errstate(over="ignore", invalid="ignore"):
        f = values[r + 1 :] - ys[r + 1 :] ** 2 / (2.0 * t)

    def touched(c: int) -> int:
        with np.errstate(over="ignore", invalid="ignore"):
            return r + 1 + int(np.argmax(f + ys[r + 1 :] * (ys[c] / t)))

    start, size, lo = r, _FIRST_S_BLOCK, touched(r)
    while start < len(ys):
        cand = np.arange(start, min(start + size, len(ys)))
        hi = max(lo, touched(int(cand[-1])))
        nominate = _nominator(values, ys, lo, hi, t)
        yield cand, None if nominate is None else nominate(ys[cand])
        start, size, lo = start + len(cand), min(4 * size, FILTER_BLOCK), hi


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

    Per block of candidates, _r_nominations names one witness j in
    [0, i0) each, and a witness that breaks the bound, in the bound's own
    arithmetic, rejects its candidate.  Each survivor in turn is then
    checked against [i0, i), where its witnesses are not nominated, and
    against [0, i0); the first that holds is R.
    """
    for cand, j in _r_nominations(values, ys, i0, t):
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

    The mirror of _scan_r on the witnesses of _s_nominations in (r, n): a
    witness past i that breaks the strict bound rejects i, a witness at or
    before i is none, and each survivor in turn is checked against its
    whole future.
    """
    for cand, j in _s_nominations(values, ys, r, t):
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
    S are those of the direct O(n^2) scans, index for index.  Each
    majorant spans only the stretch where its witnesses lie, so beyond the
    confirming checks a scan costs a few O(n) passes and hulls of a few
    hundred points on the paths measured, not two hull passes of the grid.

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
