"""Extreme values in every float slot of the public library surface.

Each public entry of ``levyburgers`` that takes a float gets, in each such
slot, each of NaN, +-inf, +-1e308, +-0.0, 5e-324, 1e-300 and -1, with the
other arguments at small working values and warnings as errors.  Every
call must raise a LevyBurgersError or return finite numbers.  The +-inf
slope sentinels at the ends of a hull, and the NaN medians of a
refinement row whose replicates all failed, are not returned here.
"""

import math
import warnings

import numpy as np
import pytest

import levyburgers as lb
from levyburgers.regen import MIN_INDEPENDENCE_REPS

EXTREMES = (math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -0.0, 5e-324, 1e-300, -1.0)

GRID = lb.GridSpec(4.0, 65)
BROWNIAN = lb.LevyParams.brownian(1.0)
PATH = lb.sample_path(BROWNIAN, GRID, 1)
SOL = lb.solve(PATH, 1.0)


def _path(params):
    path = lb.sample_path(params, GRID, 1)
    return path.values, path.tracked_jumps["size"]


def _cpoisson(jumps):
    return _path(lb.LevyParams.compound_poisson(3.0, jumps))


def _hull(cm):
    return cm.ys, cm.vs, cm.s[1:-1]


def _solution(sol):
    return _hull(sol.majorant), sol.edge_x


def _solved(path):
    return _solution(lb.solve(path, 1.0))


def _regen(t):
    report = lb.rst_scan(PATH, t, lb.solve(PATH, t))
    return report.R, report.S, report.T_first


def _refine(t=1.0, L=4.0, h=0.125, window=None, n_rep=2):
    rows = lb.refinement_study(BROWNIAN, t, L, [h], n_rep, 0, window)
    return [row if row.n_failed < n_rep else row[:2] for row in rows]


def _independence(t=1.0, window_w=0.5):
    report = lb.independence_test(BROWNIAN, GRID, t, window_w, MIN_INDEPENDENCE_REPS, 0)
    return report.p_value_global, report.dcor, report.feature_correlations


SLOTS = {
    "GridSpec.L": lambda v: lb.GridSpec(v, 65).points(),
    "JumpDist.normal.a": lambda v: _cpoisson(lb.JumpDist("normal", v, 1.0)),
    "JumpDist.normal.b": lambda v: _cpoisson(lb.JumpDist("normal", 0.0, v)),
    "JumpDist.uniform.a": lambda v: _cpoisson(lb.JumpDist("uniform", v, 2.0)),
    "JumpDist.uniform.b": lambda v: _cpoisson(lb.JumpDist("uniform", -1.0, v)),
    "JumpDist.fixed.a": lambda v: _cpoisson(lb.JumpDist("fixed", v)),
    "LevyParams.brownian.sigma": lambda v: _path(lb.LevyParams.brownian(v)),
    "LevyParams.stable.alpha": lambda v: _path(lb.LevyParams.stable(v, 0.0)),
    "LevyParams.stable.beta": lambda v: _path(lb.LevyParams.stable(1.5, v)),
    "LevyParams.stable.scale": lambda v: _path(lb.LevyParams.stable(0.75, 0.0, v)),
    "LevyParams.cauchy.scale": lambda v: _path(lb.LevyParams.cauchy(v)),
    "LevyParams.compound_poisson.rate": lambda v: _path(
        lb.LevyParams.compound_poisson(v, lb.JumpDist("normal", 0.0, 1.0))
    ),
    "stable_increments.c": lambda v: lb.stable_increments(
        0.75, 0.0, v, 0.1, 64, np.random.default_rng(0)
    ),
    "stable_increments.h": lambda v: lb.stable_increments(
        1.5, 0.0, 1.0, v, 64, np.random.default_rng(0)
    ),
    "abruptness_integral_estimate.a": lambda v: lb.abruptness_integral_estimate(
        BROWNIAN, v, 1.0, [0.1], 1000, 0
    ),
    "abruptness_integral_estimate.b": lambda v: lb.abruptness_integral_estimate(
        BROWNIAN, -1.0, v, [0.1], 1000, 0
    ),
    "abruptness_integral_estimate.eps": lambda v: lb.abruptness_integral_estimate(
        BROWNIAN, -1.0, 1.0, [v], 1000, 0
    ),
    "step_path.delta": lambda v: _solved(lb.step_path(GRID, v)),
    "step_path.location": lambda v: _solved(lb.step_path(GRID, 0.5, v)),
    "jump_up.delta": lambda v: _solved(lb.jump_up(GRID, v)),
    "jump_down.delta": lambda v: _solved(lb.jump_down(GRID, v)),
    "upper_concave_majorant.y": lambda v: _hull(
        lb.upper_concave_majorant([[v, 0.0], [1.0, 1.0], [2.0, 0.0]])
    ),
    "upper_concave_majorant.v": lambda v: _hull(
        lb.upper_concave_majorant([[0.0, 0.0], [1.0, v], [2.0, 0.0]])
    ),
    # the value only: a slope at an end vertex is the +-inf sentinel
    "query.y": lambda v: lb.query(SOL.majorant, v)[0],
    "solve.t": lambda v: _solution(lb.solve(PATH, v)),
    "solve_naive.t": lambda v: lb.solve_naive(PATH, v, [0.0]),
    "solve_naive.x": lambda v: lb.solve_naive(PATH, 1.0, [v]),
    "evaluate_solution.x": lambda v: lb.evaluate_solution(SOL, v),
    "moreau_envelope.x": lambda v: lb.moreau_envelope(SOL, v),
    "lagrangian_position.a": lambda v: lb.lagrangian_position(SOL, v),
    "rk_sequence.t": lambda v: lb.rk_sequence(PATH, v, r0=0.0).rk,
    "rk_sequence.r0": lambda v: lb.rk_sequence(PATH, 1.0, r0=v).rk,
    "rst_scan.t": _regen,
    "window_stats.lo": lambda v: lb.window_stats(SOL, (v, 1.0)),
    "window_stats.hi": lambda v: lb.window_stats(SOL, (-1.0, v)),
    "refinement_study.t": lambda v: _refine(t=v),
    "refinement_study.L": lambda v: _refine(L=v),
    "refinement_study.h": lambda v: _refine(h=v),
    "refinement_study.window": lambda v: _refine(window=(v, 1.0)),
    "independence_test.t": lambda v: _independence(t=v),
    "independence_test.window_w": lambda v: _independence(window_w=v),
    "distance_correlation.x": lambda v: lb.distance_correlation(
        np.array([0.0, 1.0, v]), np.array([0.0, 1.0, 3.0])
    ),
    "permutation_pvalue.f_pre": lambda v: lb.permutation_pvalue(
        np.array([[0.0], [1.0], [v]]), np.array([[0.0], [1.0], [3.0]]),
        np.random.default_rng(0), 9,
    ),
}


def _numbers(out) -> list:
    """Every number in out, a nest of tuples, lists and arrays, None for
    a missing one."""
    if out is None:
        return []
    if isinstance(out, (tuple, list)):
        return [x for item in out for x in _numbers(item)]
    return np.asarray(out, dtype=float).ravel().tolist()


@pytest.mark.parametrize("value", EXTREMES, ids=repr)
@pytest.mark.parametrize("slot", SLOTS)
def test_extreme_value(slot, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = SLOTS[slot](value)
        except lb.LevyBurgersError:
            return
    assert all(math.isfinite(x) for x in _numbers(out)), out

