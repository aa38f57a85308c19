"""Regeneration-point constructions and the independence test.

The first nonnegative zero-velocity point T of a flow admits a two-stage
scan construction: R is the first nonnegative point whose entire past
stays under the centered parabola, S the first point at or after R whose
entire future stays strictly under it; S coincides with T pathwise.  An
iterated argsup map started at R walks to the same point.  Regenerativity
of the zero set is probed statistically: low-dimensional features of the
flow before and after T are tested for dependence across replicates with
a distance-correlation permutation test (the test can only fail to
falsify; it never proves full-process independence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError, InsufficientDataError, ParameterError
from .levy import GridSpec, LevyParams, LevyPath, derived_seed
from .shocks import macroscopic_edges, zero_set_indices
from .solver import BurgersSolution, owning_vertices, solve, solved_replicates

# u is sampled at this many equispaced points on each side of T when
# building the feature vectors.
N_FEATURE_SAMPLES = 64

# The permutation test runs only on at least this many replicates.
MIN_INDEPENDENCE_REPS = 100


@dataclass(frozen=True)
class RegenReport:
    """Scan results for one path.  Missing quantities (window exhausted,
    empty nonnegative zero set) are None; that is a status, not an error."""

    R: float | None
    S: float | None
    T_first: float | None
    rk: list[float] = field(default_factory=list)
    s_equals_t: bool | None = None
    rk_converged: bool = False
    steps: int = 0


@dataclass(frozen=True)
class IndependenceReport:
    """The permutation test's result, as regen_report.json writes it."""

    p_value_global: float
    dcor: float
    feature_correlations: tuple[float, ...]
    n_valid: int
    n_dropped: int


def _scan_r_index(values: np.ndarray, ys: np.ndarray, i0: int, t: float) -> int | None:
    """First grid index >= i0 whose entire past satisfies the closed
    parabola bound values[j] - values[i] <= (y_i - y_j)^2 / (2t)."""
    for i in range(i0, len(ys)):
        past = values[:i] - values[i]
        if np.all(past <= (ys[i] - ys[:i]) ** 2 / (2.0 * t)):
            return i
    return None


def _scan_s_index(values: np.ndarray, ys: np.ndarray, start: int, t: float) -> int | None:
    """First grid index >= start whose entire future satisfies the strict
    parabola bound."""
    n = len(ys)
    for i in range(start, n):
        fut = values[i + 1 :] - values[i]
        if np.all(fut < (ys[i + 1 :] - ys[i]) ** 2 / (2.0 * t)):
            return i
    return None


def _first_zero(sol: BurgersSolution) -> float | None:
    """Smallest nonnegative element of the zero set, over the whole grid."""
    zy = sol.vertex_ys[zero_set_indices(sol)]
    zy = zy[zy >= 0.0]
    return float(zy[0]) if len(zy) else None


def rst_scan(path: LevyPath, t: float, sol: BurgersSolution) -> RegenReport:
    """Direct O(n^2) scan for (R, S) plus T from the zero set.

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

    r_idx = _scan_r_index(values, ys, i0, t)
    s_idx = _scan_s_index(values, ys, r_idx, t) if r_idx is not None else None
    t_first = _first_zero(sol)

    s_val = float(ys[s_idx]) if s_idx is not None else None
    return RegenReport(
        R=float(ys[r_idx]) if r_idx is not None else None,
        S=s_val,
        T_first=t_first,
        s_equals_t=(s_val == t_first) if (s_val is not None and t_first is not None) else None,
    )


@dataclass(frozen=True)
class RkResult:
    rk: list[float]
    converged: bool
    steps: int


def rk_sequence(path: LevyPath, t: float, k_max: int = 64, *, r0: float) -> RkResult:
    """Iterated argsup walk from the grid point r0 = R toward the first zero point.

    Each step moves to the largest argmax of values minus the parabola
    recentered at the current point, scanning grid points to the right
    (ties to the larger index); the walk stops at the first fixed point.
    Exceeding k_max is reported, not fatal.
    """
    if not 0.0 < t < math.inf:
        raise ParameterError(f"t must be finite and > 0, got {t}")
    if k_max < 1:
        raise ParameterError("k_max must be >= 1")
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


def regen_report(path: LevyPath, t: float, k_max: int = 64) -> RegenReport:
    """rst_scan plus the r_k walk in one report."""
    if k_max < 1:
        raise ParameterError("k_max must be >= 1")
    base = rst_scan(path, t, solve(path, t))
    if base.R is None:
        return base
    walk = rk_sequence(path, t, k_max=k_max, r0=base.R)
    return replace(base, rk=walk.rk, rk_converged=walk.converged, steps=walk.steps)


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
        if _dcor(aa, bb[np.ix_(perm, perm)], dvar_x, dvar_y) >= obs:
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
    u = (xs - sol.vertex_ys[owning_vertices(sol, xs)]) / sol.t
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
    if n_rep < MIN_INDEPENDENCE_REPS:
        raise ParameterError(f"need n_rep >= {MIN_INDEPENDENCE_REPS}")
    features = [
        replicate_features(sol, window_w)
        for sol in solved_replicates(params, grid, t, n_rep, seed, key=0)
    ]
    return independence_report(features, seed)
