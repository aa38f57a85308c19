import math

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform
from scipy.stats import kstest

from levyburgers import (
    GridSpec,
    InputError,
    InsufficientDataError,
    LevyParams,
    ParameterError,
    WindowTooSmallError,
    distance_correlation,
    independence_test,
    jump_down,
    permutation_pvalue,
    regen_report,
    rk_sequence,
    rst_scan,
    sample_path,
    solve,
    step_path,
    zero_path,
)
from levyburgers.regen import replicate_features
from levyburgers.solver import owning_vertices, solved_replicates
from conftest import derived_seed


def dcor_pdist_reference(x, y):
    """Distance correlation from scipy's pdist, the textbook double centring."""
    a = squareform(pdist(x))
    b = squareform(pdist(y))
    aa = a - a.mean(axis=0) - a.mean(axis=1)[:, None] + a.mean()
    bb = b - b.mean(axis=0) - b.mean(axis=1)[:, None] + b.mean()
    dvar_x, dvar_y = (aa * aa).mean(), (bb * bb).mean()
    if dvar_x <= 0 or dvar_y <= 0:
        return 0.0
    return math.sqrt(max((aa * bb).mean(), 0.0)) / (dvar_x * dvar_y) ** 0.25


class TestFixtureScans:
    def test_zero_path(self, grid_fixture):
        rep = regen_report(zero_path(grid_fixture), 1.0)
        assert (rep.R, rep.S, rep.T_first) == (0.0, 0.0, 0.0)
        assert rep.rk == [0.0]
        assert rep.s_equals_t and rep.rk_converged and rep.steps == 0

    def test_jump_up_at_half(self, grid_fixture):
        path = step_path(grid_fixture, 0.5, 0.5)
        rep = regen_report(path, 1.0)
        assert (rep.R, rep.S, rep.T_first) == (0.0, 0.5, 0.5)
        assert rep.rk == [0.0, 0.5]
        assert rep.s_equals_t and rep.rk_converged

    def test_jump_up_at_origin(self, grid_fixture):
        path = step_path(grid_fixture, 0.5, 0.0)
        rep = regen_report(path, 1.0)
        assert (rep.R, rep.S, rep.T_first) == (0.0, 0.0, 0.0)
        assert rep.rk == [0.0]

    def test_jump_down(self, grid_fixture):
        # the first nonnegative zero-velocity point sits one cell left of 1
        h = grid_fixture.h
        rep = regen_report(jump_down(grid_fixture, 0.5), 1.0)
        for v in (rep.R, rep.S, rep.T_first):
            assert abs(v - 1.0) <= 2 * h
        assert rep.R == rep.S == rep.T_first
        assert rep.rk == [rep.R]
        assert rep.s_equals_t


class TestScanInvariants:
    @pytest.mark.parametrize("alpha,c", [(1.5, 0.4), (0.75, 0.1)])
    def test_ordering_and_identity(self, grid_standard, alpha, c):
        par = LevyParams.stable(alpha, 0.0, c)
        found = 0
        for rep_i in range(30):
            path = sample_path(par, grid_standard, derived_seed(5200, int(alpha * 100), rep_i))
            sol = solve(path, 1.0)
            rep = rst_scan(path, 1.0, sol)
            if rep.R is None or rep.S is None or rep.T_first is None:
                continue
            found += 1
            assert 0.0 <= rep.R <= rep.S <= rep.T_first
            assert rep.S == rep.T_first
            walk = rk_sequence(path, 1.0, k_max=4096, r0=rep.R)
            assert walk.converged
            assert walk.rk[-1] == rep.T_first
            assert walk.steps <= len(sol)
            assert all(a < b for a, b in zip(walk.rk, walk.rk[1:]))
        assert found >= 27

    @pytest.mark.parametrize(
        "par,tag",
        [(LevyParams.stable(1.5, 0.0, 0.4), 40), (LevyParams.stable(0.75, 0.0, 0.1), 41)],
        ids=["stable1.5", "stable0.75"],
    )
    def test_rk_walk_iterates_a(self, par, tag):
        # the c04 families and grid: started from R, each step of the
        # argsup walk is a(.) of the solved flow, although rk_sequence
        # never reads the hull
        grid = GridSpec.symmetric(16.0, 8193)
        checked = 0
        for rep in range(40):
            path = sample_path(par, grid, derived_seed(tag, rep))
            try:
                sol = solve(path, 1.0)
            except WindowTooSmallError:
                continue
            R = rst_scan(path, 1.0, sol).R
            if R is None:
                continue
            walk = [R]
            for _ in range(len(sol)):
                a = float(sol.vertex_ys[owning_vertices(sol, walk[-1])])
                if a == walk[-1]:
                    break
                walk.append(a)
            assert walk == rk_sequence(path, 1.0, k_max=len(sol), r0=R).rk
            checked += 1
        assert checked >= 39

    @pytest.mark.parametrize("t_scan,seed_scan", [(2.0, 3), (1.0, 4)], ids=["t", "path"])
    def test_rst_scan_rejects_another_solution(self, grid_standard, t_scan, seed_scan):
        # scanned at t = 2 against the t = 1 zero set, this path gives
        # S = 1.3516 and T_first = 1.1406, a false S != T
        par = LevyParams.stable(1.5, 0.0, 0.4)
        sol = solve(sample_path(par, grid_standard, 3), 1.0)
        path = sol.path if seed_scan == 3 else sample_path(par, grid_standard, seed_scan)
        with pytest.raises(InputError):
            rst_scan(path, t_scan, sol)

    def test_rk_requires_grid_r0(self, grid_fixture):
        with pytest.raises(ParameterError):
            rk_sequence(zero_path(grid_fixture), 1.0, r0=0.0051)
        with pytest.raises(ParameterError):
            rk_sequence(zero_path(grid_fixture), 1.0, k_max=0, r0=0.0)

    @pytest.mark.parametrize("t", [0.0, np.inf, np.nan])
    def test_rk_requires_finite_positive_t(self, grid_fixture, t):
        with pytest.raises(ParameterError):
            rk_sequence(zero_path(grid_fixture), t, r0=0.0)


class TestPermutationMachinery:
    def test_dcor_self_is_one(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(80, 3))
        assert abs(distance_correlation(x, x) - 1.0) < 1e-9

    def test_dcor_independent_is_small(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(400, 2))
        y = rng.normal(size=(400, 2))
        assert distance_correlation(x, y) < 0.2

    def test_matches_pdist_reference_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            n = int(rng.integers(5, 121))
            x = rng.normal(size=(n, int(rng.integers(1, 6))))
            y = rng.standard_cauchy(size=(n, int(rng.integers(1, 6))))
            # a standardized integer column, like the shock-count feature
            counts = rng.integers(0, 4, size=n).astype(float)
            y[:, -1] = (counts - counts.mean()) / (counts.std() or 1.0)
            assert distance_correlation(x, y) == dcor_pdist_reference(x, y)

    def test_1d_input_is_one_column(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=100)
        assert abs(distance_correlation(x, x) - 1.0) < 1e-9
        assert distance_correlation(x, x) == distance_correlation(x[:, None], x[:, None])
        dcor, p = permutation_pvalue(x, x.copy(), rng, n_perm=99)
        assert abs(dcor - 1.0) < 1e-9 and p == 0.01

    @pytest.mark.parametrize("n_perm", [0, -1, -5])
    def test_n_perm_must_be_positive(self, n_perm):
        rng = np.random.default_rng(9)
        x, y = rng.normal(size=(20, 3)), rng.normal(size=(20, 3))
        with pytest.raises(ParameterError):
            permutation_pvalue(x, y, rng, n_perm=n_perm)

    def test_row_count_mismatch_raises(self):
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=(80, 3)), rng.normal(size=(60, 3))
        with pytest.raises(InputError):
            distance_correlation(x, y)
        with pytest.raises(InputError):
            permutation_pvalue(x, y, rng, n_perm=9)

    def test_degenerate_dependence_min_pvalue(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(100, 3))
        _, p = permutation_pvalue(f, f.copy(), rng, n_perm=999)
        assert p <= 0.001

    def test_null_pvalues_roughly_uniform(self):
        # small sanity version; the full 100-run calibration is in acceptance
        rng = np.random.default_rng(4)
        ps = [
            permutation_pvalue(rng.normal(size=(60, 3)), rng.normal(size=(60, 3)), rng, 499)[1]
            for _ in range(25)
        ]
        assert kstest(ps, "uniform").statistic < 0.3


class TestIndependenceTest:
    def test_needs_enough_reps(self, grid_standard):
        with pytest.raises(ParameterError):
            independence_test(LevyParams.stable(1.5, 0, 0.2), grid_standard, 1.0, 0.5, 50, 1)

    @pytest.mark.parametrize("w", [0.0, -1.0, np.inf, np.nan])
    def test_feature_window_must_be_finite_positive(self, grid_fixture, w):
        sol = solve(jump_down(grid_fixture, 0.5), 1.0)
        with pytest.raises(ParameterError):
            replicate_features(sol, w)

    def test_insufficient_data_when_window_too_wide(self, grid_standard):
        with pytest.raises(InsufficientDataError):
            independence_test(
                LevyParams.stable(1.5, 0.0, 0.2), grid_standard, 1.0, 3.9, 100, seed=9
            )

    def test_runs_and_reports(self, grid_standard):
        rep = independence_test(
            LevyParams.stable(1.5, 0.0, 0.2), grid_standard, 1.0, 0.5, 100, seed=10
        )
        assert rep.n_valid + rep.n_dropped == 100
        assert rep.n_dropped <= 20
        assert 0.0 < rep.p_value_global <= 1.0
        assert len(rep.feature_correlations) == 3

    def test_replicate_features_shape(self, grid_standard):
        replicates = solved_replicates(
            LevyParams.stable(1.5, 0.0, 0.2), grid_standard, 1.0, 10, seed=10, key=0
        )
        features = [replicate_features(sol, 0.5) for sol in replicates]
        kept = [f for f in features if f is not None]
        assert len(kept) >= 8
        for T, pre, post in kept:
            assert T >= 0.0 and pre.shape == post.shape == (3,)
