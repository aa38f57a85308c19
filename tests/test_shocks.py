import gc
from dataclasses import replace

import numpy as np
import pytest

from levyburgers import (
    GridError,
    GridSpec,
    JumpDist,
    LevyParams,
    ParameterError,
    Rarefaction,
    Shock,
    ShockReport,
    SignPatternReport,
    contact_jump_signs,
    epsilon_regular_indices,
    extract_shocks,
    jump_down,
    jump_up,
    refinement_study,
    sample_path,
    sign_pattern,
    solve,
    window_stats,
    zero_path,
    zero_set_indices,
)
from levyburgers import solver
from levyburgers.levy import jump_array
from levyburgers.shocks import ONE_SIDED_TOL_CELLS, GapStat, JumpSignReport
from conftest import derived_seed


@pytest.fixture(scope="module")
def zero_report(grid_fixture):
    sol = solve(zero_path(grid_fixture), 1.0)
    return sol, extract_shocks(sol)


@pytest.fixture(scope="module")
def up_report(grid_fixture):
    path = jump_up(grid_fixture, 0.5)
    sol = solve(path, 1.0)
    return path, sol, extract_shocks(sol)


@pytest.fixture(scope="module")
def down_report(grid_fixture):
    path = jump_down(grid_fixture, 0.5)
    sol = solve(path, 1.0)
    return path, sol, extract_shocks(sol)


class TestZeroPath:
    def test_no_shocks_all_contacts(self, zero_report, grid_fixture):
        sol, rep = zero_report
        assert list(rep.shocks) == []
        lo, hi = sol.window
        pts = grid_fixture.points()
        expected = pts[(pts >= lo) & (pts <= hi)]
        ys = sol.majorant.ys
        assert np.array_equal(ys[(ys >= lo) & (ys <= hi)], expected)
        assert np.array_equal(rep.zero_set, expected)

    def test_rarefactions_have_length_h(self, zero_report, grid_fixture):
        _, rep = zero_report
        h = grid_fixture.h
        interior = [r for r in rep.rarefactions if not r.boundary_affected]
        assert interior
        assert np.allclose([r.length for r in interior], h, rtol=1e-9)

    def test_tiling_of_window(self, zero_report):
        sol, rep = zero_report
        total = sum(r.length for r in rep.rarefactions)
        lo, hi = sol.window
        assert abs(total - (hi - lo)) < 1e-9

    def test_no_gaps_no_violations(self, zero_report):
        sol, _ = zero_report
        sp = sign_pattern(sol)
        assert list(sp.gap_stats) == [] and sp.violations == []


class TestJumpUp:
    def test_single_shock_hand_values(self, up_report):
        _, _, rep = up_report
        shocks = [s for s in rep.shocks if not s.boundary_affected]
        assert len(shocks) == 1
        s = shocks[0]
        assert s.x == -1.0
        assert s.a_minus == -1.0 and s.a_plus == 0.0
        assert s.mass == 1.0
        assert s.velocity == -0.5

    def test_velocity_double_identity(self, up_report):
        _, _, rep = up_report
        s = [s for s in rep.shocks if not s.boundary_affected][0]
        v_avg = 0.5 * ((s.x - s.a_minus) + (s.x - s.a_plus))
        assert abs(s.velocity - v_avg) <= 1e-9 * (1 + abs(s.velocity))

    def test_rarefaction_at_zero(self, up_report, grid_fixture):
        _, _, rep = up_report
        h = grid_fixture.h
        r0 = [r for r in rep.rarefactions if r.vertex_y == 0.0][0]
        assert abs(r0.length - 1.0) <= 2 * h
        assert r0.x_lo == -1.0

    def test_zero_set_structure(self, up_report, grid_fixture):
        _, sol, rep = up_report
        pts = grid_fixture.points()
        lo, hi = sol.window
        w = pts[(pts >= lo) & (pts <= hi)]
        expected = np.concatenate([w[w <= -1.0], w[w >= 0.0]])
        assert np.array_equal(rep.zero_set, expected)

    def test_single_gap_all_negative(self, up_report):
        _, sol, _ = up_report
        sp = sign_pattern(sol)
        assert len(sp.gap_stats) == 1
        gs = sp.gap_stats[0]
        assert gs.gap == (-1.0, 0.0)
        assert not gs.has_positive_phase and gs.has_negative_phase
        assert sp.violations == []

    def test_jump_sign_agreement(self, up_report):
        _, sol, _ = up_report
        r = contact_jump_signs(sol)
        assert r.agreements == 1 and r.disagreements == 0


class TestJumpDown:
    def test_single_shock_hand_values(self, down_report, grid_fixture):
        _, _, rep = down_report
        h = grid_fixture.h
        shocks = [s for s in rep.shocks if not s.boundary_affected]
        assert len(shocks) == 1
        s = shocks[0]
        assert abs(s.x - 1.0) <= 2 * h
        assert abs(s.a_minus - 0.0) <= 2 * h
        assert abs(s.a_plus - 1.0) <= 2 * h
        assert abs(s.mass - 1.0) <= 2 * h
        assert abs(s.velocity - 0.5) <= 1e-6

    def test_jump_sign_agreement(self, down_report):
        _, sol, _ = down_report
        r = contact_jump_signs(sol)
        assert r.agreements == 1 and r.disagreements == 0

    def test_brownian_paths_are_untracked(self, grid_fixture):
        par = LevyParams.brownian(1.0)
        path = sample_path(par, grid_fixture, derived_seed(4001))
        sol = solve(path, 1.0)
        r = contact_jump_signs(sol)
        assert r.agreements == 0 and r.disagreements == 0
        assert r.untracked > 0


@pytest.fixture(scope="module")
def solutions(grid_standard):
    sols = []
    for fi, par in enumerate(
        [LevyParams.stable(0.75, 0.0), LevyParams.stable(1.5, 0.0),
         LevyParams.brownian(1.0), LevyParams.cauchy(1.0)]
    ):
        for rep in range(5):
            path = sample_path(par, grid_standard, derived_seed(4100, fi, rep))
            sols.append(solve(path, 1.0))
    return sols


class TestRandomPathInvariants:
    def test_velocity_double_identity(self, solutions):
        for sol in solutions:
            rep = extract_shocks(sol)
            for s in rep.shocks:
                if s.boundary_affected:
                    continue
                v_avg = 0.5 * ((s.x - s.a_minus) + (s.x - s.a_plus)) / sol.t
                assert abs(s.velocity - v_avg) <= 1e-9 * (1 + abs(s.velocity))

    def test_shock_masses_at_least_h(self, solutions, grid_standard):
        for sol in solutions:
            for s in extract_shocks(sol).shocks:
                assert s.mass >= grid_standard.h

    def test_zero_set_contained_in_contacts(self, solutions):
        for sol in solutions:
            lo, hi = sol.window
            ys = sol.majorant.ys
            contacts = ys[(ys >= lo) & (ys <= hi)]
            assert set(extract_shocks(sol).zero_set).issubset(set(contacts))

    def test_rarefactions_tile_window(self, solutions):
        for sol in solutions:
            rep = extract_shocks(sol)
            lo, hi = sol.window
            total = sum(r.length for r in rep.rarefactions)
            assert abs(total - (hi - lo)) < 1e-9
            # disjoint: ordered by construction, no overlap
            for r1, r2 in zip(rep.rarefactions, rep.rarefactions[1:]):
                assert r1.x_hi <= r2.x_lo + 1e-12

    def test_sign_scan_no_violations(self, solutions):
        for sol in solutions:
            assert sign_pattern(sol).violations == []

    def test_zero_set_more_epsilon_regular_than_other_contacts(self, grid_standard):
        # for bounded-variation flows the zero-velocity points are the
        # regular points; at grid resolution the containment only shows
        # statistically, as an excess regularity rate of the zero set
        nz = nzr = nc = ncr = 0
        par = LevyParams.stable(0.75, 0.0, 0.05)
        for rep in range(12):
            path = sample_path(par, grid_standard, derived_seed(4200, rep))
            sol = solve(path, 1.0)
            zero = set(zero_set_indices(sol).tolist())
            reg = set(epsilon_regular_indices(sol).tolist())
            others = set(range(len(sol))) - zero
            nz += len(zero)
            nzr += len(zero & reg)
            nc += len(others)
            ncr += len(others & reg)
        assert nz > 500
        assert nzr / nz > 0.6
        assert nzr / nz > ncr / nc


class TestRefinementStudy:
    def test_degenerate_family(self):
        rows = refinement_study(
            LevyParams.brownian(0.0), 1.0, 4.0, [2**-4, 2**-5], 3, seed=1
        )
        for row in rows:
            assert row.median_contact_fraction == 1.0
            assert abs(row.median_max_rarefaction - row.h) < 1e-12
            assert row.n_failed == 0

    def test_window_stats_explicit_window(self, grid_fixture):
        sol = solve(zero_path(grid_fixture), 1.0)
        n_contacts, n_zero, max_rare, fraction = window_stats(sol, (0.0, 1.0))
        assert n_contacts == n_zero == 101
        assert fraction == 1.0

    # (5, 6) and (2, 3) miss the analysis window [-2, 2] or touch it at one
    # point; (0.011, 0.019) lies between the grid points 0.01 and 0.02
    @pytest.mark.parametrize(
        "window",
        [(1.0,), (2.0, 1.0), (np.nan, 2.0), (1.0, np.inf), (5.0, 6.0), (2.0, 3.0),
         (0.011, 0.019)],
    )
    def test_window_stats_rejects_malformed_window(self, grid_fixture, window):
        sol = solve(zero_path(grid_fixture), 1.0)
        with pytest.raises(ParameterError):
            window_stats(sol, window)

    def test_eroded_contrast_at_resolved_scale(self):
        # when the flow's structure cells are much smaller than the window,
        # the eroded family shows far shorter constancy intervals than the
        # abrupt one at the same grid resolution
        H = [2**-6, 2**-7, 2**-8, 2**-9]
        rows_c = refinement_study(
            LevyParams.cauchy(0.05), 1.0, 16.0, H, 50, seed=81, window=(1.0, 2.0)
        )
        rows_b = refinement_study(
            LevyParams.brownian(1.0), 1.0, 16.0, H, 50, seed=80, window=(1.0, 2.0)
        )
        assert (
            rows_c[-1].median_max_rarefaction
            < 0.5 * rows_b[-1].median_max_rarefaction
        )

    def test_failed_replicates_are_counted(self):
        # a huge-scale heavy-tail family on a tiny grid fails the
        # boundary-domination check on some replicates
        rows = refinement_study(
            LevyParams.stable(0.75, 0.0, 10.0), 1.0, 2.0, [0.25, 0.125], 20, seed=9
        )
        assert [r.n_failed for r in rows] == [7, 2]
        assert all(np.isfinite(r.median_contacts) for r in rows)

    def test_h_list_must_decrease(self):
        with pytest.raises(GridError):
            refinement_study(LevyParams.brownian(1.0), 1.0, 4.0, [0.25, 0.5], 2, seed=0)

    def test_h_must_divide_domain(self):
        with pytest.raises(GridError):
            refinement_study(LevyParams.brownian(1.0), 1.0, 4.0, [0.3], 2, seed=0)

    def test_h_must_be_the_step_of_its_grid(self):
        # 0.6 / 0.1 is 6 only within 1e-9, and the grid of 7 points on
        # [-0.3, 0.3] has h = 0.09999999999999999
        with pytest.raises(GridError):
            refinement_study(LevyParams.brownian(1.0), 1.0, 0.3, [0.1], 2, seed=0)

    @pytest.mark.parametrize(
        "L,h",
        [(8.0, 0.1), (1.0, 0.1), (1.5, 0.3), (4.0, 0.05), (16.0, 0.01), (3.0, 0.03),
         (10.0, 0.2), (8.0, 2**-9)],
    )
    def test_h_makes_an_exact_grid(self, L, h):
        row, = refinement_study(LevyParams.brownian(0.0), 1.0, L, [h], 1, seed=0)
        assert row.n == round(2 * L / h) + 1

    @pytest.mark.parametrize(
        "t,h_list,window,error",
        [
            pytest.param(1.0, [0.0625, 0.03], None, GridError, id="h-not-dividing"),
            pytest.param(1.0, [0.0625, 0.03125], (5.0, 6.0), ParameterError,
                         id="window-outside"),
            # 0.1 is a point of the first grid; the second has none in the window
            pytest.param(1.0, [0.1, 0.0625], (0.09, 0.11), ParameterError,
                         id="window-between-points"),
            pytest.param(-1.0, [0.0625], None, ParameterError, id="t-negative"),
        ],
    )
    def test_bad_input_draws_no_sample(self, monkeypatch, t, h_list, window, error):
        # t, every grid and the window are checked before the first replicate
        calls = []

        def counting_sample_path(*args):
            calls.append(args)
            return sample_path(*args)

        monkeypatch.setattr(solver, "sample_path", counting_sample_path)
        with pytest.raises(error):
            refinement_study(LevyParams.brownian(1.0), t, 8.0, h_list, 200, seed=0,
                             window=window)
        assert calls == []


# -- the per-vertex extraction and the full-scan sign pattern, kept as
# references for the array expressions of the library


def reference_extract_shocks(sol) -> ShockReport:
    lo, hi = sol.window
    ys = sol.majorant.ys
    gidx = sol.majorant.indices
    vals = sol.path.values

    in_win = (sol.edge_x >= lo) & (sol.edge_x <= hi)
    macroscopic = np.diff(gidx) >= 2
    shocks = []
    for k in np.flatnonzero(in_win & macroscopic):
        a_minus = float(ys[k])
        a_plus = float(ys[k + 1])
        mass = a_plus - a_minus
        dpsi = float(vals[gidx[k + 1]] - vals[gidx[k]])
        shocks.append(Shock(
            x=float(sol.edge_x[k]), a_minus=a_minus, a_plus=a_plus, mass=mass,
            velocity=-dpsi / mass,
            boundary_affected=bool(sol.boundary_affected[k] or sol.boundary_affected[k + 1]),
        ))

    zero_all = zero_set_indices(sol)
    zero_idx = zero_all[(ys[zero_all] >= lo) & (ys[zero_all] <= hi)]

    rarefactions = []
    for k in range(len(ys)):
        r_lo = max(float(sol.x_lo[k]), lo)
        r_hi = min(float(sol.x_hi[k]), hi)
        if r_hi > r_lo:
            rarefactions.append(Rarefaction(
                vertex_y=float(ys[k]), x_lo=r_lo, x_hi=r_hi, length=r_hi - r_lo,
                boundary_affected=bool(sol.boundary_affected[k]),
            ))
    return ShockReport(shocks=shocks, zero_set=ys[zero_idx], rarefactions=rarefactions)


def reference_gap_samples(sol, z1, z2):
    ys = sol.majorant.ys
    t = sol.t
    samples = []
    for k in np.flatnonzero((sol.edge_x > z1) & (sol.edge_x < z2)):
        x = float(sol.edge_x[k])
        samples.append((x, (x - float(ys[k])) / t))
        samples.append((x, (x - float(ys[k + 1])) / t))
    for k in np.flatnonzero((sol.x_hi > z1) & (sol.x_lo < z2)):
        o_lo = max(float(sol.x_lo[k]), z1)
        o_hi = min(float(sol.x_hi[k]), z2)
        if o_hi > o_lo:
            mid = 0.5 * (o_lo + o_hi)
            samples.append((mid, (mid - float(ys[k])) / t))
    samples.sort(key=lambda s: s[0])
    return samples


def reference_sign_pattern(sol) -> SignPatternReport:
    zs = reference_extract_shocks(sol).zero_set
    violations = []
    gap_stats = []
    h = sol.path.grid.h
    for z1, z2 in zip(zs[:-1], zs[1:]):
        if z2 - z1 <= h * (1.0 + 1e-9):
            continue
        seen_negative = has_pos = has_neg = False
        for x, u in reference_gap_samples(sol, float(z1), float(z2)):
            if u > 0:
                has_pos = True
                if seen_negative:
                    violations.append((float(z1), float(z2), x))
            elif u < 0:
                has_neg = seen_negative = True
        gap_stats.append(GapStat((float(z1), float(z2)), has_pos, has_neg))
    return SignPatternReport(violations=violations, gap_stats=gap_stats)


def _assert_same_records(got, want):
    assert list(got) == want
    for r_got, r_want in zip(got, want):
        assert list(map(type, r_got)) == list(map(type, r_want))


def _assert_same_sign_pattern(got, want):
    assert got.violations == want.violations
    _assert_same_records(got.gap_stats, want.gap_stats)


LEVY_FAMILIES = (
    LevyParams.stable(0.75, 0.0),
    LevyParams.stable(1.5, 0.0),
    LevyParams.brownian(1.0),
    LevyParams.cauchy(1.0),
    LevyParams.compound_poisson(2.0, JumpDist("normal", 0.0, 1.0)),
)
DENSE_GRID = GridSpec(16.0, 16385)


def _equivalence_paths():
    grid = GridSpec(8.0, 4097)
    for fi, par in enumerate(LEVY_FAMILIES):
        for rep in range(20):
            yield sample_path(par, grid, derived_seed(4300, fi, rep))
    yield zero_path(DENSE_GRID)
    yield jump_up(DENSE_GRID, 0.5)
    yield jump_down(DENSE_GRID, 0.5)
    for rep in range(3):
        yield sample_path(LevyParams.brownian(1e-3), DENSE_GRID, derived_seed(4301, rep))


def test_array_extraction_matches_per_vertex_reference():
    n_paths = 0
    for path in _equivalence_paths():
        sol = solve(path, 1.0)
        got, want = extract_shocks(sol), reference_extract_shocks(sol)
        _assert_same_records(got.shocks, want.shocks)
        _assert_same_records(got.rarefactions, want.rarefactions)
        assert got.zero_set.dtype == want.zero_set.dtype
        assert np.array_equal(got.zero_set, want.zero_set)

        _assert_same_sign_pattern(sign_pattern(sol), reference_sign_pattern(sol))
        n_paths += 1
    assert n_paths == 106


@pytest.mark.parametrize(
    "make",
    [
        zero_path,
        lambda grid: jump_up(grid, 0.5),
        lambda grid: sample_path(LevyParams.brownian(1e-3), grid, derived_seed(4301, 0)),
    ],
    ids=["zero", "jump_up", "brownian1e-3"],
)
def test_records_read_as_rows(make):
    """The report's rows, read the way the benchmark's checks and counters
    read them: len counts rows, not fields, truth tests emptiness, and a
    filtered iteration yields rows of Python floats and bools."""
    sol = solve(make(DENSE_GRID), 1.0)
    rep, want = extract_shocks(sol), reference_extract_shocks(sol)
    assert len(rep.shocks) == len(want.shocks)
    assert len(rep.rarefactions) == len(want.rarefactions) > len(Rarefaction._fields)
    assert bool(rep.shocks) == (make is not zero_path)
    interior = [s for s in rep.shocks if not s.boundary_affected]
    assert interior == [s for s in want.shocks if not s.boundary_affected]
    for s in interior:
        assert type(s) is Shock
        assert list(map(type, s)) == [float] * 5 + [bool]
    for records, rows in ((rep.shocks, want.shocks), (rep.rarefactions, want.rarefactions)):
        if rows:
            assert records[0] == rows[0] and records[-1] == rows[-1]
        assert list(records[1:]) == rows[1:]


def test_sign_pattern_builds_no_row_objects():
    """On the dense benchmark's near-flat Brownian input, with its 738
    gaps, sign_pattern nets a handful of objects the collector tracks
    (a list of GapStat rows netted over 700), so a timed item sets off no
    collection; its rows, built when read, are the reference's."""
    sol = solve(sample_path(LevyParams.brownian(1e-3), DENSE_GRID, derived_seed(4301, 0)), 1.0)
    gc.disable()
    try:
        before = gc.get_count()[0]
        sp = sign_pattern(sol)
        grown = gc.get_count()[0] - before
    finally:
        gc.enable()
    assert grown < 50
    assert len(sp.gap_stats) == 738
    _assert_same_sign_pattern(sp, reference_sign_pattern(sol))
    row = sp.gap_stats[0]
    assert type(row) is GapStat and list(map(type, row.gap)) == [float, float]
    assert type(row.has_positive_phase) is bool and type(row.has_negative_phase) is bool


def test_records_quick_start():
    """The README quick start reads the first shock row by index."""
    grid = GridSpec(8.0, 4097)
    path = sample_path(LevyParams.stable(1.5, 0.0, 0.4), grid, seed=7)
    report = extract_shocks(solve(path, t=1.0))
    first = report.shocks[0]
    assert type(first) is Shock and first == next(iter(report.shocks))
    assert type(first.velocity) is float and type(first.boundary_affected) is bool
    assert report.shocks.columns[4].tolist() == [s.velocity for s in report.shocks]
    assert Shock._fields == ("x", "a_minus", "a_plus", "mass", "velocity", "boundary_affected")


def test_sign_pattern_reports_a_violation():
    # shifted by d, the constancy interval of a vertex inside a gap, whole
    # left of the vertex before, straddles it: u passes from - to + there,
    # and the zero set, read off the slopes, does not see it
    grid = GridSpec(8.0, 4097)
    sol = solve(sample_path(LevyParams.stable(0.75, 0.0, 0.1), grid, derived_seed(4302)), 1.0)
    ys = sol.majorant.ys
    z = zero_set_indices(sol)
    z = z[(ys[z] >= sol.window[0]) & (ys[z] <= sol.window[1])]
    k = next(k for k in range(z[0], z[-1]) if sol.x_hi[k] < ys[k])
    d = ys[k] - 0.5 * (sol.x_lo[k] + sol.x_hi[k])
    shifted = replace(sol, breaks=sol.breaks + d)
    sp = sign_pattern(shifted)
    assert sp.violations
    _assert_same_sign_pattern(sp, reference_sign_pattern(shifted))


# -- the per-vertex jump-sign loop, kept as the reference for the array
# expression of the library


def reference_contact_jump_signs(sol, path) -> JumpSignReport:
    h = path.grid.h
    ys = sol.majorant.ys
    gidx = sol.majorant.indices
    jump_idx = np.array([j for j, _ in path.tracked_jumps.tolist()], dtype=np.intp)
    jump_size = np.array([s for _, s in path.tracked_jumps.tolist()])

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
        near = np.flatnonzero(np.abs(jump_idx - gidx[k]) <= 1)
        if len(near) == 0:
            untracked += 1
            continue
        j = near[np.argmax(np.abs(jump_size[near]))]
        if (jump_size[j] > 0) == below:
            agreements += 1
        else:
            disagreements += 1
    return JumpSignReport(agreements, disagreements, untracked)


def _jump_sign_paths():
    grid = GridSpec(8.0, 8193)
    families = (
        LevyParams.stable(0.75, 0.0),
        LevyParams.stable(0.6, 0.5, 0.3),
        LevyParams.cauchy(1.0),
        LevyParams.compound_poisson(2.0, JumpDist("normal", 0.0, 1.0)),
    )
    for fi, par in enumerate(families):
        for rep in range(30):
            yield sample_path(par, grid, derived_seed(4400, fi, rep))
    yield sample_path(LevyParams.brownian(1.0), grid, derived_seed(4401))
    yield zero_path(grid)
    up = jump_up(grid, 0.5)
    yield up
    yield jump_down(grid, 0.5)
    # equal sizes of opposite sign next to the contact: the first one counts
    i0 = grid.zero_index
    yield replace(up, tracked_jumps=jump_array([i0 - 1, i0], [-0.5, 0.5]))


def test_contact_jump_signs_matches_per_vertex_reference():
    n_paths = n_judged = 0
    for path in _jump_sign_paths():
        sol = solve(path, 1.0)
        got = contact_jump_signs(sol)
        assert got == reference_contact_jump_signs(sol, path)
        n_paths += 1
        n_judged += got.agreements + got.disagreements
    assert n_paths == 125 and n_judged > 1000
