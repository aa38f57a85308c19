import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyburgers import (
    GridSpec,
    InputError,
    LevyBurgersError,
    LevyParams,
    LevyPath,
    OutOfDomainError,
    ParameterError,
    WindowTooSmallError,
    contact_jump_signs,
    evaluate_solution,
    extract_shocks,
    jump_down,
    jump_up,
    lagrangian_position,
    moreau_envelope,
    prox_fixed_points,
    regen_report,
    rk_sequence,
    sample_path,
    sign_pattern,
    solve,
    solve_naive,
    step_path,
    upper_concave_majorant,
    zero_path,
    zero_set_indices,
)
from levyburgers import regen
from levyburgers.levy import jump_array
from levyburgers.solver import owning_vertices
from conftest import adversarial_params, derived_seed


@pytest.fixture(scope="module")
def zero_sol(grid_fixture):
    return solve(zero_path(grid_fixture), 1.0)


@pytest.fixture(scope="module")
def jump_up_sol(grid_fixture):
    path = jump_up(grid_fixture, 0.5)
    return path, solve(path, 1.0)


@pytest.fixture(scope="module")
def jump_down_sol(grid_fixture):
    path = jump_down(grid_fixture, 0.5)
    return path, solve(path, 1.0)


class TestZeroPath:
    def test_every_grid_point_is_a_vertex(self, zero_sol, grid_fixture):
        assert len(zero_sol) == grid_fixture.n
        assert np.array_equal(zero_sol.majorant.ys, grid_fixture.points())

    def test_identity_map_and_zero_velocity(self, zero_sol, grid_fixture):
        lo, hi = zero_sol.window
        for x in grid_fixture.points():
            if lo <= x <= hi:
                ev = evaluate_solution(zero_sol, x)
                assert ev.a == x and ev.u == 0.0

    def test_naive_identity(self, zero_sol, grid_fixture):
        pts = grid_fixture.points()
        assert np.array_equal(solve_naive(zero_sol.path, 1.0, pts), pts)

    def test_moreau_identically_zero(self, zero_sol, grid_fixture):
        lo, hi = zero_sol.window
        pts = grid_fixture.points()
        for x in pts[(pts >= lo) & (pts <= hi)][::37]:
            assert moreau_envelope(zero_sol, x) == 0.0

    def test_lagrangian_identity(self, zero_sol):
        for a in (-1.5, 0.0, 0.73, 1.99):
            k = np.searchsorted(zero_sol.majorant.ys, a)
            a_grid = float(zero_sol.majorant.ys[k])
            assert lagrangian_position(zero_sol, a_grid) == a_grid


class TestJumpUp:
    def test_vertex_structure(self, jump_up_sol, grid_fixture):
        _, sol = jump_up_sol
        pts = grid_fixture.points()
        expected = np.concatenate([pts[pts <= -1.0], pts[pts >= 0.0]])
        assert np.array_equal(sol.majorant.ys, expected)
        k0 = np.searchsorted(sol.majorant.ys, 0.0)
        assert sol.majorant.vs[k0] == 0.5

    def test_piecewise_a(self, jump_up_sol):
        _, sol = jump_up_sol
        h = sol.path.grid.h
        for x, a_hand in [(-1.7, -1.7), (-0.5, 0.0), (-0.1, 0.0), (0.6, 0.6), (1.9, 1.9)]:
            assert abs(evaluate_solution(sol, x).a - a_hand) <= h

    def test_evaluate_inside_rarefaction(self, jump_up_sol):
        _, sol = jump_up_sol
        ev = evaluate_solution(sol, -0.5)
        assert ev.a == 0.0 and ev.u == -0.5
        assert ev.a_minus == 0.0 and ev.u_minus == -0.5

    def test_naive_tie_breaks_to_larger(self, jump_up_sol):
        path, _ = jump_up_sol
        assert solve_naive(path, 1.0, [-1.0])[0] == 0.0

    def test_moreau_hand_values(self, jump_up_sol):
        _, sol = jump_up_sol
        assert moreau_envelope(sol, -2.0) == 0.0
        assert moreau_envelope(sol, -0.5) == 0.375
        assert moreau_envelope(sol, 1.0) == 0.5


class TestJumpDown:
    def test_shock_location_and_values(self, jump_down_sol):
        path, sol = jump_down_sol
        h = path.grid.h
        # single macroscopic edge at x = 1 - h
        gaps = np.diff(sol.majorant.indices)
        big = np.flatnonzero(gaps >= 2)
        assert len(big) == 1
        k = big[0]
        x_shock = sol.edge_x[k]
        assert abs(x_shock - 1.0) <= 2 * h
        ev = evaluate_solution(sol, float(x_shock))
        assert abs(ev.a_minus - 0.0) <= 2 * h
        assert abs(ev.a - 1.0) <= 2 * h
        assert abs(ev.u_minus - 1.0) <= 2 * h
        assert abs(ev.u - 0.0) <= 2 * h

    def test_lagrangian_positions(self, jump_down_sol):
        path, sol = jump_down_sol
        h = path.grid.h
        assert abs(lagrangian_position(sol, 0.5) - 1.0) <= 2 * h
        assert lagrangian_position(sol, 2.0) == 2.0

    def test_out_of_range_particle(self, jump_down_sol):
        _, sol = jump_down_sol
        for a in (100.0, np.nan):
            with pytest.raises(OutOfDomainError):
                lagrangian_position(sol, a)


def _random_paths(grid, n_per_family=10):
    for fi, par in enumerate(
        [LevyParams.stable(0.75, 0.0), LevyParams.stable(1.5, 0.0)]
    ):
        for rep in range(n_per_family):
            yield sample_path(par, grid, derived_seed(2000, fi, rep))


class TestOracleEquivalence:
    def test_hull_equals_naive_on_random_paths(self, grid_standard):
        rng = np.random.default_rng(99)
        for path in _random_paths(grid_standard):
            sol = solve(path, 1.0)
            lo, hi = sol.window
            xs = rng.uniform(lo, hi, 50)
            a_hull = np.array([evaluate_solution(sol, x).a for x in xs])
            assert np.array_equal(a_hull, solve_naive(path, 1.0, xs))

    def test_general_t(self, grid_standard):
        path = sample_path(LevyParams.stable(1.5, 0.0), grid_standard, derived_seed(3))
        rng = np.random.default_rng(5)
        for t in (0.25, 2.0, 7.5):
            sol = solve(path, t)
            lo, hi = sol.window
            xs = rng.uniform(lo, hi, 30)
            a_hull = np.array([evaluate_solution(sol, x).a for x in xs])
            assert np.array_equal(a_hull, solve_naive(path, t, xs))


class TestStructuralInvariants:
    def test_monotone_right_continuous(self, grid_standard):
        rng = np.random.default_rng(31)
        for path in _random_paths(grid_standard, 4):
            sol = solve(path, 1.0)
            lo, hi = sol.window
            xs = np.sort(rng.uniform(lo, hi, 80))
            a_vals = [evaluate_solution(sol, x).a for x in xs]
            assert all(a1 <= a2 for a1, a2 in zip(a_vals, a_vals[1:]))
            # right continuity at shared endpoints: a(x) is the right vertex
            for k, x in enumerate(sol.edge_x):
                if lo <= x <= hi:
                    assert evaluate_solution(sol, float(x)).a == sol.majorant.ys[k + 1]

    def test_downward_jumps_only(self, grid_standard):
        for path in _random_paths(grid_standard, 4):
            sol = solve(path, 1.0)
            lo, hi = sol.window
            for x in sol.edge_x[(sol.edge_x >= lo) & (sol.edge_x <= hi)]:
                ev = evaluate_solution(sol, float(x))
                assert ev.u - ev.u_minus <= 0.0

    def test_interval_tiling(self, grid_standard):
        for path in _random_paths(grid_standard, 3):
            sol = solve(path, 1.0)
            assert np.all(sol.x_hi[:-1] == sol.x_lo[1:])
            assert np.all(sol.x_hi > sol.x_lo)

    def test_parabola_dominance_at_interval_midpoints(self, grid_standard):
        rng = np.random.default_rng(77)
        ys = grid_standard.points()
        for path in _random_paths(grid_standard, 3):
            sol = solve(path, 1.0)
            interior = np.flatnonzero(~sol.boundary_affected)
            for k in interior[:: max(1, len(interior) // 10)]:
                x = 0.5 * (sol.x_lo[k] + sol.x_hi[k])
                yk = sol.majorant.ys[k]
                vk = path.values[sol.majorant.indices[k]] - (yk - x) ** 2 / 2.0
                samples = rng.choice(len(ys), 50, replace=False)
                lhs = path.values[samples] - (ys[samples] - x) ** 2 / 2.0
                assert np.all(lhs <= vk + 1e-9)

    def test_prox_fixed_points_equal_zero_set(self, grid_standard):
        for path in _random_paths(grid_standard, 5):
            sol = solve(path, 1.0)
            assert np.array_equal(prox_fixed_points(sol), zero_set_indices(sol))

    def test_moreau_dominates_potential(self, grid_standard):
        rng = np.random.default_rng(13)
        ys = grid_standard.points()
        for path in _random_paths(grid_standard, 3):
            sol = solve(path, 1.0)
            lo, hi = sol.window
            idx = np.flatnonzero((ys >= lo) & (ys <= hi))
            for i in rng.choice(idx, 100, replace=False):
                x = float(ys[i])
                m = moreau_envelope(sol, x)
                assert m >= path.values[i] - 1e-12 * (1 + abs(path.values[i]))

    @pytest.mark.parametrize("params", [LevyParams.brownian(1.0), LevyParams.cauchy(1.0)],
                             ids=["brownian", "cauchy"])
    @pytest.mark.parametrize("L", [1e-3, 1.0, 1e3, 1e5])
    def test_moreau_is_the_grid_supremum(self, params, L):
        # bit for bit; the shifted value plus x a/t - x^2/(2t) cancelled
        # digits, up to 1.8e-3 relative at L = 1e5 and t = 1e-6
        grid = GridSpec(L, 2049)
        ys = grid.points()
        path = sample_path(params, grid, derived_seed(1300, int(math.log10(L)) + 3))
        n_solved = 0
        for t in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            try:
                sol = solve(path, t)
            except WindowTooSmallError:  # a grid end attains the maximum
                continue
            n_solved += 1
            for x in np.linspace(*sol.window, 41).tolist():
                assert moreau_envelope(sol, x) == np.max(path.values - (ys - x) ** 2 / (2.0 * t))
        assert n_solved >= 4


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.integers(min_value=-12, max_value=12), min_size=17, max_size=17
    )
)
def test_hypothesis_tie_conventions_agree(halves):
    """Half-integer paths on a unit grid make every floating-point
    comparison exact, so argmax ties really occur; the hull's
    right-vertex rule must match the oracle's largest-index rule at every
    integer query, ties included."""
    grid = GridSpec(8.0, 17)
    values = np.array(halves, dtype=float) / 2.0
    path = LevyPath(grid=grid, values=values, tracked_jumps=(), params=None, seed=None)
    try:
        sol = solve(path, 1.0)
    except WindowTooSmallError:
        return
    lo, hi = sol.window
    pts = grid.points()
    xs = pts[(pts >= lo) & (pts <= hi)]
    a_hull = np.array([evaluate_solution(sol, float(x)).a for x in xs])
    assert np.array_equal(a_hull, solve_naive(path, 1.0, xs))


def _window_points(sol):
    ys = sol.path.grid.points()
    lo, hi = sol.window
    return ys[(ys >= lo) & (ys <= hi)]


def _mismatches(sol, xs):
    a_hull = np.array([evaluate_solution(sol, float(x)).a for x in xs])
    return int(np.count_nonzero(a_hull != solve_naive(sol.path, sol.t, xs)))


class TestNearCollinearVertices:
    """Real vertices whose orientation determinant is tiny next to the
    coordinate magnitudes but far above its rounding error must stay
    vertices; a tolerance in coordinate units flattened them."""

    def test_heavy_tailed_stable_large_scale(self):
        path = sample_path(LevyParams.stable(0.55, 0.0, 50.0), GridSpec(8.0, 4097), 195)
        sol = solve(path, 1.0)
        assert len(sol) == 13
        assert _mismatches(sol, _window_points(sol)) == 0

    @pytest.mark.parametrize("seed, m", [(1002, 22), (1007, 34)])
    def test_sweep_family(self, seed, m):
        grid = GridSpec(16.0, 65537)
        sol = solve(sample_path(LevyParams.stable(0.75, 0.0, 1.0), grid, seed), 1.0)
        assert len(sol) == m
        # a flattened vertex shows next to the shocks that bound its
        # X-interval, so the oracle checks the grid points around each shock
        xs = _window_points(sol)
        near = np.searchsorted(xs, sol.edge_x)
        near = np.unique(np.clip(np.concatenate([near - 2, near - 1, near, near + 1]), 0, len(xs) - 1))
        assert _mismatches(sol, xs[near]) == 0


def _noisy_step(grid, seed):
    """A downward step of 1/2 at 0 plus Brownian noise of sigma 1e-6."""
    step = jump_down(grid, 0.5)
    noise = sample_path(LevyParams.brownian(1e-6), grid, seed)
    return LevyPath(grid, step.values + noise.values, step.tracked_jumps, None, None)


# (L, n, params, t) on [-L, L] at seed 7; params None is the noisy step.
# Put back, the old collinearity tolerance (1e-12 times the largest
# coordinate magnitude of the triple) flattens real vertices and
# mismatches the oracle in every case at n = 65537 and in
# sigma1e-12-n4097-t1e6.  From L = 1e103 on, the hull's unscaled
# orientation products overflow; the cases stop at 1e153, since at 1e154
# the oracle's own (y - x)^2 overflows.
ORACLE_SWEEP = {
    "alpha0.51-n4097-t1e-6": (8.0, 4097, LevyParams.stable(0.51, 0.0, 1.0), 1e-6),
    "alpha0.51-n65537-t1": (8.0, 65537, LevyParams.stable(0.51, 0.0, 1.0), 1.0),
    "alpha0.55-scale1e3-n65537-t1e-6": (8.0, 65537, LevyParams.stable(0.55, 0.0, 1e3), 1e-6),
    "cauchy-scale1e3-n4097-t1e-6": (8.0, 4097, LevyParams.cauchy(1e3), 1e-6),
    "stable1.5-scale1e3-n4097-t1e-6": (8.0, 4097, LevyParams.stable(1.5, 0.0, 1e3), 1e-6),
    "sigma1e-12-n4097-t1e6": (8.0, 4097, LevyParams.brownian(1e-12), 1e6),
    "sigma1e-12-n65537-t1e3": (8.0, 65537, LevyParams.brownian(1e-12), 1e3),
    "sigma1e-12-n65537-t1e6": (8.0, 65537, LevyParams.brownian(1e-12), 1e6),
    "sigma1e-6-n65537-t1": (8.0, 65537, LevyParams.brownian(1e-6), 1.0),
    "sigma1e-6-n65537-t1e3": (8.0, 65537, LevyParams.brownian(1e-6), 1e3),
    "step-n65537-t1": (8.0, 65537, None, 1.0),
    "step-n65537-t1e3": (8.0, 65537, None, 1e3),
    "brownian-L1e103-n65-t1": (1e103, 65, LevyParams.brownian(1.0), 1.0),
    "brownian-L1e150-n65-t1": (1e150, 65, LevyParams.brownian(1.0), 1.0),
    "brownian-L1e153-n65-t1": (1e153, 65, LevyParams.brownian(1.0), 1.0),
}


@pytest.mark.parametrize("case", ORACLE_SWEEP)
def test_oracle_sweep_at_real_grid_sizes(case):
    """The oracle at the grid points next to every window shock, where a
    flattened vertex shows, plus 64 random window points (all of them
    when fewer)."""
    L, n, params, t = ORACLE_SWEEP[case]
    grid = GridSpec(L, n)
    path = _noisy_step(grid, 7) if params is None else sample_path(params, grid, 7)
    sol = solve(path, t)
    ys = grid.points()
    lo, hi = sol.window
    i = np.searchsorted(ys, [s.x for s in extract_shocks(sol).shocks])
    window = np.flatnonzero((ys >= lo) & (ys <= hi))
    sample = np.random.default_rng(7).choice(window, min(64, len(window)), replace=False)
    xs = ys[np.union1d(np.concatenate([i - 1, i, i + 1]), sample)]
    xs = xs[(xs >= lo) & (xs <= hi)]
    a_hull = sol.majorant.ys[owning_vertices(sol, xs)]
    assert np.array_equal(a_hull, solve_naive(path, t, xs))


NESTING_TIMES = (1e-6, 1e-3, 1.0, 1e3, 1e6)
# the ORACLE_SWEEP paths, each once, by case name without its t
NESTING_PATHS = {c.rsplit("-t", 1)[0]: ORACLE_SWEEP[c][:3] for c in ORACLE_SWEEP}
NESTING_FIXTURES = {
    "zero": zero_path,
    "jump_up": lambda grid: jump_up(grid, 0.5),
    "jump_down": lambda grid: jump_down(grid, 0.5),
    "sigma1e-3": lambda grid: sample_path(LevyParams.brownian(1e-3), grid, 7),
}


def _nesting_path(case):
    if case in NESTING_FIXTURES:
        return NESTING_FIXTURES[case](GridSpec(16.0, 16385))
    L, n, params = NESTING_PATHS[case]
    grid = GridSpec(L, n)
    return _noisy_step(grid, 7) if params is None else sample_path(params, grid, 7)


@pytest.mark.parametrize("case", [*NESTING_PATHS, *NESTING_FIXTURES])
def test_hull_vertices_nest_in_time(case):
    """Hopf-Lax nesting, with no oracle: for t1 < t2 the shifted potentials
    differ by the concave c*y^2 (c = 1/(2 t1) - 1/(2 t2) > 0), so every
    contact point at t2 is one at t1, V(t2) in V(t1), and the hull at t2
    of the V(t1) points alone is the full hull at t2.  Each t from 1e-6 to
    1e6 whose parabola term stays finite at the grid end; the dense
    fixtures are all-vertex at small t, so the certified filter is
    crossed at extreme t."""
    path = _nesting_path(case)
    y_end = float(path.grid.points()[-1])
    times = [t for t in NESTING_TIMES if math.isfinite(y_end * y_end / (2.0 * t))]
    assert len(times) >= 3
    _assert_hulls_nest(path, times)


def _assert_hulls_nest(path, times):
    """For increasing times, V(t2) in V(t1) and the hull at t2 of the V(t1)
    points alone is the full hull at t2."""
    ys = path.grid.points()
    prev = None
    for t in times:
        vs = path.values - ys * ys / (2.0 * t)
        full = upper_concave_majorant(np.array([ys, vs]).T).indices
        if prev is not None:
            assert np.isin(full, prev).all()
            nested = upper_concave_majorant(np.array([ys[prev], vs[prev]]).T)
            assert np.array_equal(prev[nested.indices], full)
        prev = full


@settings(max_examples=150, deadline=None)
@given(
    params=adversarial_params(),
    half=st.integers(1, 32),
    half_width=st.sampled_from([1.0, 4.0, 16.0]),
    t=st.floats(1e-6, 1e6),
    seed=st.integers(0, 2**32),
)
def test_hypothesis_adversarial_regimes_match_oracle(params, half, half_width, t, seed):
    """Heavy tails near alpha = 1/2, scales up to 1e3, t over twelve
    decades, near-zero sigma and grids of 3 to 65 points: every case
    either raises a typed error or gives finite outputs equal to the
    oracle at every window grid point."""
    grid = GridSpec(half_width, 2 * half + 1)
    try:
        sol = solve(sample_path(params, grid, seed), t)
    except LevyBurgersError:
        return
    xs = _window_points(sol)
    evs = [evaluate_solution(sol, float(x)) for x in xs]
    assert np.all(np.isfinite([(ev.a, ev.u) for ev in evs]))
    assert np.all(np.isfinite(sol.x_hi[:-1]))
    assert np.array_equal([ev.a for ev in evs], solve_naive(sol.path, t, xs))


@settings(max_examples=150, deadline=None)
@given(
    params=adversarial_params(),
    half=st.integers(1, 32),
    half_width=st.sampled_from([1.0, 4.0, 16.0]),
    t=st.floats(1e-6, 1e6),
    ratio=st.sampled_from([1.5, 2.0, 10.0]),
    seed=st.integers(0, 2**32),
)
def test_hypothesis_adversarial_regimes_nest_in_time(params, half, half_width, t, ratio, seed):
    """Hopf-Lax nesting from t to t * ratio over the adversarial regimes,
    with no oracle; a path that cannot be sampled, or whose shifted
    potential is not finite, is skipped."""
    grid = GridSpec(half_width, 2 * half + 1)
    try:
        path = sample_path(params, grid, seed)
    except LevyBurgersError:
        return
    ys = grid.points()
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(path.values - ys * ys / (2.0 * t)).all():
            return
    _assert_hulls_nest(path, [t, t * ratio])


def _public_route(path, t):
    """The majorant of the shifted potential through the validating entry,
    from an (n, 2) array of the two columns."""
    ys = path.grid.points()
    with np.errstate(over="ignore"):
        vs = path.values - ys * ys / (2.0 * t)
    return upper_concave_majorant(np.column_stack([ys, vs]))


def _assert_routes_agree(path, t):
    """solve hands the hull the grid points and the shifted values as two
    columns; its majorant is the public route's, bit for bit, and a
    shifted value that overflows raises InputError on both routes."""
    try:
        cm = solve(path, t).majorant
    except InputError:
        with pytest.raises(InputError):
            _public_route(path, t)
        return
    except (ParameterError, WindowTooSmallError):
        return
    want = _public_route(path, t)
    for name in ("indices", "ys", "vs", "s"):
        assert np.array_equal(getattr(cm, name), getattr(want, name))


@pytest.mark.parametrize("case", ORACLE_SWEEP)
def test_column_route_matches_public_route(case):
    """Over the oracle sweep paths, solve's majorant and the column route's
    majorant of the past of 0, as the regen scans build theirs, equal the
    public route's."""
    L, n, params, t = ORACLE_SWEEP[case]
    grid = GridSpec(L, n)
    path = _noisy_step(grid, 7) if params is None else sample_path(params, grid, 7)
    _assert_routes_agree(path, t)
    ys, i0 = grid.points(), grid.zero_index
    with np.errstate(over="ignore"):
        vs = path.values[:i0] - ys[:i0] ** 2 / (2.0 * t)
    got = regen._majorant(ys[:i0], vs)
    want = upper_concave_majorant(np.column_stack([ys[:i0], vs]))
    assert np.array_equal(got.indices, want.indices)


@settings(max_examples=150, deadline=None)
@given(
    params=adversarial_params(),
    half=st.integers(1, 32),
    half_width=st.sampled_from([1.0, 4.0, 16.0]),
    t=st.one_of(st.floats(1e-6, 1e6), st.sampled_from([5e-324, 1e-300, 1e300, 1.7e308])),
    seed=st.integers(0, 2**32),
)
def test_hypothesis_column_route_matches_public_route(params, half, half_width, t, seed):
    """The adversarial regimes, extreme t included: solve's majorant is the
    public route's, or both refuse the shifted potential."""
    grid = GridSpec(half_width, 2 * half + 1)
    try:
        path = sample_path(params, grid, seed)
    except LevyBurgersError:
        return
    _assert_routes_agree(path, t)


def test_shifted_overflow_raises_input_error():
    """A value near -1.8e308 at y = 5e150 overflows its shifted value to
    -inf: solve refuses it with InputError, not a silently wrong hull, a
    regen block whose stretch holds it has no majorant to nominate with,
    and the scans still find R and S."""
    grid = GridSpec(1e151, 5)
    values = np.zeros(5)
    values[3] = -np.finfo(float).max
    path = LevyPath(grid, values, jump_array([], []), None, None)
    with pytest.raises(InputError, match="finite"):
        solve(path, 1.0)
    with pytest.raises(InputError, match="finite"):
        _public_route(path, 1.0)
    # candidates 2 to 4 touch the witnesses 2 and 4 of [1, 5), around the -inf
    ys = grid.points()
    assert [j for _, j in regen._nominations(values, ys, 1, 5, 2, 1.0)] == [None]
    assert regen._scan_r(values, ys, 2, 1.0) == 2 and regen._scan_s(values, ys, 2, 1.0) == 2


# law: (params, b, a), the law's own self-similarity psi(2^b y) =d 2^a psi(y)
SCALE_LAWS = {
    "brownian": (LevyParams.brownian(1.0), 2, 1),
    "stable1.5": (LevyParams.stable(1.5, 0.0), 3, 2),
    "cauchy": (LevyParams.cauchy(), 1, 1),
    "stable0.75": (LevyParams.stable(0.75, 0.0), 3, 4),
}


@pytest.mark.parametrize("t", [1e-3, 1.0, 100.0])
@pytest.mark.parametrize("L", [4.0, 16.0])
@pytest.mark.parametrize("law", SCALE_LAWS)
def test_exact_scale_covariance(law, L, t):
    """Scaling y by 2^b, psi0 by 2^a and t by 2^(2b-a) scales the shifted
    potential by exactly 2^a and every Eulerian break by exactly 2^b, so
    every answer read off the hull scales by exact powers of two: no
    oracle is needed.  It breaks if a tolerance stops being relative or
    counted in grid cells."""
    params, b, a = SCALE_LAWS[law]
    cx, cu = 2.0**b, 2.0 ** (a - b)
    path = sample_path(params, GridSpec(L, 4097), derived_seed(2100, b, a))
    jumps = path.tracked_jumps
    big = LevyPath(
        GridSpec(L * cx, 4097), path.values * 2.0**a,
        jump_array(jumps["index"], jumps["size"] * 2.0**a), None, None,
    )
    sol, big_sol = solve(path, t), solve(big, t * 2.0 ** (2 * b - a))

    assert np.array_equal(big_sol.majorant.indices, sol.majorant.indices)
    assert np.array_equal(big_sol.boundary_affected, sol.boundary_affected)
    assert np.array_equal(big_sol.x_lo, sol.x_lo * cx)
    assert np.array_equal(big_sol.edge_x, sol.edge_x * cx)
    zero = sol.majorant.ys[zero_set_indices(sol)]
    assert np.array_equal(big_sol.majorant.ys[zero_set_indices(big_sol)], zero * cx)

    rep, big_rep = extract_shocks(sol), extract_shocks(big_sol)
    assert np.array_equal(big_rep.zero_set, rep.zero_set * cx)
    for records, big_records, factors in [
        (rep.shocks, big_rep.shocks, (cx, cx, cx, cx, cu, 1)),
        (rep.rarefactions, big_rep.rarefactions, (cx, cx, cx, cx, 1)),
    ]:
        for col, big_col, f in zip(records.columns, big_records.columns, factors):
            assert np.array_equal(big_col, col * f)

    sp, big_sp = sign_pattern(sol), sign_pattern(big_sol)
    assert big_sp.violations == [tuple(v * cx for v in row) for row in sp.violations]
    (gap, pos, neg), (big_gap, big_pos, big_neg) = sp.gap_stats.columns, big_sp.gap_stats.columns
    assert np.array_equal(big_gap["lo"], gap["lo"] * cx)
    assert np.array_equal(big_gap["hi"], gap["hi"] * cx)
    assert np.array_equal(big_pos, pos) and np.array_equal(big_neg, neg)
    assert contact_jump_signs(big_sol) == contact_jump_signs(sol)

    def scaled(y):
        return None if y is None else y * cx

    reg = regen_report(sol)
    assert regen_report(big_sol) == reg._replace(
        R=scaled(reg.R), S=scaled(reg.S), T_first=scaled(reg.T_first),
        rk=[r * cx for r in reg.rk],
    )


class TestErrors:
    @pytest.mark.parametrize(
        "call",
        [
            lambda path: solve(path, 1.0),
            lambda path: solve_naive(path, 1.0, [0.0]),
            lambda path: rk_sequence(path, 1.0, r0=0.0),
        ],
        ids=["solve", "solve_naive", "rk_sequence"],
    )
    @pytest.mark.parametrize(
        "bad", [(7, np.nan), (0, np.inf), (40, np.inf), None],
        ids=["nan", "inf-first", "inf-inside", "short"],
    )
    def test_bad_values_refused(self, call, bad):
        """A path holds one finite value per grid point: a NaN, an inf or
        63 values on the 65-point grid is refused where the path is built,
        so no solver is handed it."""
        grid = GridSpec(2.0, 65)
        values = np.zeros(65 if bad else 63)
        if bad:
            values[bad[0]] = bad[1]
        with pytest.raises(InputError):
            call(LevyPath(grid, values, jump_array([], []), None, None))

    @pytest.mark.parametrize(
        "jumps",
        [jump_array([801], [0.5]), jump_array([-1], [0.5]), jump_array([400, 400], [0.5, 0.5]),
         np.zeros(2), np.zeros((0, 2)), jump_array([400], [np.nan]), jump_array([400], [np.inf])],
        ids=["past-end", "negative", "repeated", "float", "2-d", "size-nan", "size-inf"],
    )
    def test_bad_jumps_refused(self, jumps):
        """Tracked jump indices strictly increase within the grid, sizes are
        finite, and both come as a JUMP_DTYPE array; anything else is refused
        where the path is built, not later as a bare IndexError or as a
        contact jump of no sign."""
        with pytest.raises(InputError, match="tracked jump"):
            LevyPath(GridSpec(4.0, 801), np.zeros(801), jumps, None, None)

    def test_no_jumps_as_empty_sequence(self):
        # () stands for no jumps; index 0 is a grid point a jump may sit on
        grid = GridSpec(4.0, 801)
        path = LevyPath(grid, np.zeros(801), (), None, None)
        assert path.tracked_jumps.dtype == jump_array([], []).dtype
        assert contact_jump_signs(solve(path, 1.0)) == (0, 0, 0)
        assert len(step_path(grid, 0.5, -4.0).tracked_jumps) == 1

    def test_arrays_are_read_only(self):
        """A path is checked where it is built, and its hull and solution
        are read by every report: a later write into any of their arrays
        raises, so no reader sees values that were never checked.  An
        array that borrows its buffer is copied, so the lender cannot
        change it either."""
        path = jump_up(GridSpec(2.0, 65), 0.5)
        sol = solve(path, 1.0)
        cm = sol.majorant
        arrays = [
            path.values, path.tracked_jumps, cm.ys, cm.vs, cm.indices, cm.s,
            sol.breaks, sol.boundary_affected, sol.x_lo, sol.x_hi, sol.edge_x,
        ]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[-1]
        lender = np.zeros(66)
        path = LevyPath(path.grid, lender[1:], path.tracked_jumps, None, None)
        lender[1] = np.inf
        assert path.values[0] == 0.0

    def test_nonpositive_t(self, grid_fixture):
        with pytest.raises(ParameterError):
            solve(zero_path(grid_fixture), 0.0)
        with pytest.raises(ParameterError):
            solve_naive(zero_path(grid_fixture), -1.0, [0.0])

    @pytest.mark.parametrize("t", [np.inf, np.nan])
    def test_non_finite_t(self, grid_fixture, t):
        with pytest.raises(ParameterError):
            solve(zero_path(grid_fixture), t)
        with pytest.raises(ParameterError):
            solve_naive(zero_path(grid_fixture), t, [0.0])

    def test_break_overflow_names_t(self):
        # a hull slope above 1 times t overflows; the end sentinels are
        # infinite for every t
        path = sample_path(LevyParams.brownian(1.0), GridSpec(2.0, 129), 0)
        with pytest.raises(ParameterError, match="t=1.7e"):
            solve(path, 1.7e308)

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda g: step_path(g, 0.5, 0.005), id="off-grid-location"),
            pytest.param(lambda g: jump_up(g, 0.0), id="jump-up-zero"),
            pytest.param(lambda g: jump_up(g, -0.5), id="jump-up-negative"),
            pytest.param(lambda g: jump_down(g, 0.0), id="jump-down-zero"),
            pytest.param(lambda g: step_path(g, np.inf), id="step-inf"),
        ],
    )
    def test_bad_fixture(self, grid_fixture, make):
        with pytest.raises(ParameterError):
            make(grid_fixture)

    def test_window_too_small(self, grid_fixture):
        # a steep ramp keeps the shifted potential maximal at the grid end
        values = 100.0 * grid_fixture.points()
        path = LevyPath(
            grid=grid_fixture, values=values, tracked_jumps=(), params=None, seed=None
        )
        with pytest.raises(WindowTooSmallError):
            solve(path, 1.0)

    def test_evaluate_outside_window(self, zero_sol):
        for x in (3.99, -2.5, np.nan):
            with pytest.raises(OutOfDomainError):
                evaluate_solution(zero_sol, x)
            with pytest.raises(OutOfDomainError):
                moreau_envelope(zero_sol, x)

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_naive_non_finite_x(self, grid_fixture, x):
        with pytest.raises(OutOfDomainError):
            solve_naive(zero_path(grid_fixture), 1.0, [0.0, x])

    @pytest.mark.parametrize("x", [-1e308, -1e155, 1e200])
    def test_naive_overflowing_x(self, x):
        """An x whose squared distance to the grid overflows is refused:
        every objective would read -inf, and the tie rule would pick the
        last grid point, where the largest argmax tends to the first."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfDomainError, match="outside"):
                solve_naive(zero_path(GridSpec(16.0, 65)), 1.0, [x])

    @pytest.mark.parametrize("t", [5e-324, 1e-310])
    def test_brute_force_refuses_tiny_t(self, t):
        """A t whose grid width squared over 2t overflows is refused by the
        brute force as by solve, with a typed error and no warning."""
        path = zero_path(GridSpec(16.0, 65))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (
                lambda: solve(path, t),
                lambda: solve_naive(path, t, [0.0]),
                lambda: rk_sequence(path, t, r0=0.0),
            ):
                with pytest.raises(ParameterError):
                    call()

    def test_naive_objectives_past_float64(self):
        """Objectives below -max float read -inf and lose to the finite
        maximum; when every objective does, the oracle refuses, as the
        hull refuses a shifted potential that overflows."""
        path = jump_down(GridSpec(1e153, 5), 1.7e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solve_naive(path, 1.0, [-1e154]).tolist() == [-1e153]
            flat = step_path(GridSpec(1.0, 5), -1.7e308, -1.0)
            with pytest.raises(InputError, match="every y"):
                solve_naive(flat, 1.0, [1e154])
