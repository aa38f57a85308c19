import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform
from scipy.stats import kstest

from levyburgers import (
    GridSpec,
    InputError,
    InsufficientDataError,
    LevyBurgersError,
    LevyParams,
    LevyPath,
    ParameterError,
    WindowTooSmallError,
    distance_correlation,
    independence_test,
    jump_down,
    jump_up,
    permutation_pvalue,
    regen_report,
    rk_sequence,
    rst_scan,
    sample_path,
    solve,
    step_path,
    zero_path,
)
from levyburgers import regen, solver
from levyburgers.hull import FILTER_BLOCK, ConcaveMajorant, _majorant
from levyburgers.regen import independence_report, replicate_features
from levyburgers.solver import owning_vertices, solved_replicates
from conftest import adversarial_params, derived_seed


def _scan_r_index(values: np.ndarray, ys: np.ndarray, i0: int, t: float) -> int | None:
    """First grid index >= i0 whose entire past satisfies the closed
    parabola bound values[j] - values[i] <= (y_i - y_j)^2 / (2t)."""
    for i in range(i0, len(ys)):
        past = values[:i] - values[i]
        if np.all(past <= (ys[i] - ys[:i]) ** 2 / (2.0 * t)):
            return i
    return None


def _scan_s_index(values: np.ndarray, ys: np.ndarray, start: int, t: float) -> int:
    """First grid index >= start whose entire future satisfies the strict
    parabola bound; the last grid point, with an empty future, always does."""
    for i in range(start, len(ys)):
        fut = values[i + 1 :] - values[i]
        if np.all(fut < (ys[i + 1 :] - ys[i]) ** 2 / (2.0 * t)):
            return i


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
        rep = regen_report(solve(zero_path(grid_fixture), 1.0))
        assert (rep.R, rep.S, rep.T_first) == (0.0, 0.0, 0.0)
        assert rep.rk == [0.0]
        assert rep.s_equals_t and rep.rk_converged and rep.steps == 0

    def test_jump_up_at_half(self, grid_fixture):
        path = step_path(grid_fixture, 0.5, 0.5)
        rep = regen_report(solve(path, 1.0))
        assert (rep.R, rep.S, rep.T_first) == (0.0, 0.5, 0.5)
        assert rep.rk == [0.0, 0.5]
        assert rep.s_equals_t and rep.rk_converged

    def test_jump_up_at_origin(self, grid_fixture):
        path = step_path(grid_fixture, 0.5, 0.0)
        rep = regen_report(solve(path, 1.0))
        assert (rep.R, rep.S, rep.T_first) == (0.0, 0.0, 0.0)
        assert rep.rk == [0.0]

    def test_jump_down(self, grid_fixture):
        # the first nonnegative zero-velocity point sits one cell left of 1
        h = grid_fixture.h
        rep = regen_report(solve(jump_down(grid_fixture, 0.5), 1.0))
        for v in (rep.R, rep.S, rep.T_first):
            assert abs(v - 1.0) <= 2 * h
        assert rep.R == rep.S == rep.T_first
        assert rep.rk == [rep.R]
        assert rep.s_equals_t

    def test_no_r_no_walk(self):
        # the drop of 100 at -1 keeps every point right of 0 from the R test
        rep = regen_report(solve(jump_down(GridSpec(4.0, 801), 100.0, -1.0), 1.0))
        assert (rep.R, rep.S, rep.T_first, rep.s_equals_t) == (None, None, None, None)
        assert rep.rk == [] and not rep.rk_converged and rep.steps == 0


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
        grid = GridSpec(16.0, 8193)
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
                a = float(sol.majorant.ys[owning_vertices(sol, walk[-1])])
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

    @pytest.mark.parametrize("k_max", [0, -3, 2.5, True, np.float64(4.0), "8"])
    def test_k_max_must_be_a_positive_integer(self, monkeypatch, grid_fixture, k_max):
        path = zero_path(grid_fixture)
        with pytest.raises(ParameterError, match="k_max"):
            rk_sequence(path, 1.0, k_max=k_max, r0=0.0)
        # checked before any scan runs
        monkeypatch.setattr(regen, "rst_scan", lambda *a: pytest.fail("scanned"))
        with pytest.raises(ParameterError, match="k_max"):
            regen_report(solve(path, 1.0), k_max=k_max)

    def test_k_max_takes_a_numpy_integer(self, grid_fixture):
        walk = rk_sequence(zero_path(grid_fixture), 1.0, k_max=np.int64(2), r0=0.0)
        assert walk.converged and walk.rk == [0.0]

    @pytest.mark.parametrize("t", [0.0, np.inf, np.nan])
    def test_rk_requires_finite_positive_t(self, grid_fixture, t):
        with pytest.raises(ParameterError):
            rk_sequence(zero_path(grid_fixture), t, r0=0.0)


def assert_scans_match_oracles(path: LevyPath, t: float) -> tuple[int | None, int | None]:
    """The filtered R and S scans give the O(n^2) oracles' grid indices;
    returns them."""
    ys, values, i0 = path.grid.points(), path.values, path.grid.zero_index
    r = _scan_r_index(values, ys, i0, t)
    assert regen._scan_r(values, ys, i0, t) == r
    if r is None:
        return None, None
    s = _scan_s_index(values, ys, r, t)
    assert regen._scan_s(values, ys, r, t) == s
    return r, s


STEP_GRID = GridSpec(16.0, 65537)


def _noisy(grid: GridSpec, values: np.ndarray, seed: int) -> LevyPath:
    """values plus Brownian noise of sigma 1e-3."""
    noise = sample_path(LevyParams.brownian(1e-3), grid, seed)
    return LevyPath(grid, values + noise.values, (), None, seed)


def _two_spikes() -> LevyPath:
    # the drop of 2.6 at -1 lets R sit near 1.28 on its own, but the spike
    # of 2.0 at 0.01 breaks the bound of every point up to about 2.01: those
    # killers lie past 0, where the filter nominates none
    values = jump_down(STEP_GRID, 2.6, -1.0).values.copy()
    values[STEP_GRID.zero_index + round(0.01 / STEP_GRID.h)] += 2.0
    return _noisy(STEP_GRID, values, 23)


NAMED_SCAN_CASES = [
    *(
        pytest.param(lambda d=d: _noisy(STEP_GRID, jump_down(STEP_GRID, d).values, 1), None,
                     id=f"step-{d}")
        for d in (0.5, 2.0, 4.5)
    ),
    pytest.param(_two_spikes, None, id="two-spikes"),
    pytest.param(lambda: jump_down(GridSpec(4.0, 801), 100.0, -1.0), (None, None), id="no-R"),
    # every bound ties at 0
    pytest.param(lambda: zero_path(GridSpec(4.0, 801)), (400, 400), id="zero-ties"),
    pytest.param(lambda: sample_path(LevyParams.cauchy(1.0), GridSpec(1.0, 3), 7), None,
                 id="n3"),
    # the jump of 100 at the right end breaks every strict future bound
    pytest.param(lambda: jump_up(GridSpec(4.0, 801), 100.0, 4.0), (400, 800),
                 id="S-last-point"),
    # the jump of 100 at 12 puts S 3,074 candidates past R = 0: the S scan
    # runs four blocks of witnesses
    pytest.param(lambda: _noisy(GridSpec(16.0, 8193),
                                jump_up(GridSpec(16.0, 8193), 100.0, 12.0).values, 1),
                 (4096, 7170), id="S-four-blocks"),
]

REAL_GRID_LAWS = [
    pytest.param(par, id=name)
    for par, name in [
        (LevyParams.brownian(1.0), "brownian"),
        (LevyParams.stable(1.5, 0.0, 0.4), "stable1.5"),
        (LevyParams.stable(0.75, 0.0, 0.1), "stable0.75"),
        (LevyParams.stable(0.55, 0.5, 1.0), "stable0.55"),
        (LevyParams.cauchy(1.0), "cauchy"),
    ]
]
REAL_GRID_TIMES = [1e-3, 1.0, 100.0, 1e6]


def _filter_majorant(
    values: np.ndarray, ys: np.ndarray, lo: int, hi: int, t: float
) -> ConcaveMajorant | None:
    """Upper concave majorant of f = values - y^2/(2t) on the grid indices
    [lo, hi), or None where there is none: fewer than two points, or an f
    or an edge slope that overflows (InputError)."""
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
    on [lo, hi)) that a line of slope -y_i/t touches."""
    with np.errstate(over="ignore"):
        k = np.searchsorted(-cm.s, y / t) - 1
    return lo + cm.indices[k]


def assert_same_nominations(path: LevyPath, t: float) -> tuple[int, int]:
    """Wherever the full majorants of f on [0, i0) and on (R, n) exist
    next to the scans' own, the scans' blockwise majorants nominate the
    same witness for every candidate; returns how many R and S candidates
    were compared."""
    ys, values, i0 = path.grid.points(), path.values, path.grid.zero_index
    compared = [0, 0]
    r = regen._scan_r(values, ys, i0, t)
    sides = [(0, i0, i0)]
    if r is not None:
        sides.append((r + 1, len(ys), r))
    for side, (lo, hi, start) in enumerate(sides):
        full = _filter_majorant(values, ys, lo, hi, t)
        for cand, j in regen._nominations(values, ys, lo, hi, start, t):
            if full is not None and j is not None:
                np.testing.assert_array_equal(j, _witnesses(full, lo, ys[cand], t))
                compared[side] += len(cand)
    return tuple(compared)


class TestScanOracles:
    """The R and S scans nominate witnesses from a majorant and confirm
    with the bound's own arithmetic; the O(n^2) scans above are the
    oracles they must match index for index."""

    @pytest.mark.parametrize("build,expected", NAMED_SCAN_CASES)
    def test_named_cases(self, build, expected):
        found = assert_scans_match_oracles(build(), 1.0)
        if expected is not None:
            assert found == expected

    @pytest.mark.parametrize("build,expected", NAMED_SCAN_CASES)
    def test_named_cases_nominate_the_full_majorants_witnesses(self, build, expected):
        assert_same_nominations(build(), 1.0)

    @pytest.mark.parametrize("t", REAL_GRID_TIMES)
    @pytest.mark.parametrize("par", REAL_GRID_LAWS)
    def test_real_grid_size_nominates_the_full_majorants_witnesses(self, par, t):
        compared = [assert_same_nominations(sample_path(par, GridSpec(16.0, 8193), seed), t)
                    for seed in range(3)]
        assert all(sum(side) > 0 for side in zip(*compared))

    def test_step_killers_are_nominated(self):
        # on a noisy step at 0 the first argmax of f on [0, i0) sits 17
        # points left of 0, and the R scan's block majorants span only
        # those points: the killer of every candidate short of R is among
        # them, so the filter rejects them all and one candidate is confirmed
        path = _noisy(STEP_GRID, jump_down(STEP_GRID, 2.0).values, 1)
        ys, values, i0 = STEP_GRID.points(), path.values, STEP_GRID.zero_index
        r = regen._scan_r(values, ys, i0, 1.0)
        assert abs(ys[r] - 2.0) < 0.05
        assert np.argmax(values[:i0] - ys[:i0] ** 2 / 2.0) == i0 - 17
        rejected = []
        for cand, j in regen._nominations(values, ys, 0, i0, i0, 1.0):
            assert (j >= i0 - 17).all() and (j < i0).all()
            kept = values[j] - values[cand] <= (ys[cand] - ys[j]) ** 2 / 2.0
            rejected += cand[~kept].tolist()
            if cand[-1] >= r:
                break
        assert rejected[: r - i0] == list(range(i0, r))

    def test_one_point_stretch_is_every_witness(self):
        # with this noise the first argmax of f on [0, i0) is i0 - 1: that
        # one point, with no majorant, is every R candidate's witness
        path = _noisy(STEP_GRID, jump_down(STEP_GRID, 2.0).values, 3)
        ys, values, i0 = STEP_GRID.points(), path.values, STEP_GRID.zero_index
        assert np.argmax(values[:i0] - ys[:i0] ** 2 / 2.0) == i0 - 1
        for _, j in regen._nominations(values, ys, 0, i0, i0, 1.0):
            assert (j == i0 - 1).all()
        assert assert_same_nominations(path, 1.0)[0] == len(ys) - i0
        r, _ = assert_scans_match_oracles(path, 1.0)
        assert abs(ys[r] - 2.0) < 0.05

    def test_falls_back_when_the_filter_majorant_overflows(self):
        # on a grid of h = 2.5e150 the drop of 1.8e308 at y = -5e150
        # shifts to -inf.  The slope of R's first candidate touches
        # y = -1e151 and that of its last y = -2.5e150, so the one block's
        # stretch holds the -inf point and has no majorant: the R scan runs
        # the block unfiltered
        grid = GridSpec(1e151, 9)
        values = np.zeros(9)
        values[0], values[2] = 1e302, -np.finfo(float).max
        path = LevyPath(grid, values, (), None, None)
        ys, i0 = grid.points(), grid.zero_index
        ((cand, j),) = regen._nominations(values, ys, 0, i0, i0, 1.0)
        assert cand.tolist() == [4, 5, 6, 7, 8] and j is None
        assert assert_scans_match_oracles(path, 1.0) == (6, 6)

    @pytest.mark.parametrize("t", REAL_GRID_TIMES)
    @pytest.mark.parametrize("par", REAL_GRID_LAWS)
    def test_real_grid_size(self, par, t):
        for seed in range(3):
            assert_scans_match_oracles(sample_path(par, GridSpec(16.0, 8193), seed), t)


class TestScanWork:
    """The oracle tests cannot see a nomination that silently weakens, for
    an unfiltered scan passes them too; these pin the confirming checks,
    the majorant points and the R candidates nominated that the scans
    spend."""

    @staticmethod
    def work(monkeypatch, paths) -> dict:
        """Calls of _past_holds and _future_holds, the points handed to
        the majorant and the candidates nominated before _scan_r returns
        while both scans run at t = 1 on each path."""
        counts = {"past": 0, "future": 0, "points": 0, "nominated": 0, "r_nominated": 0}
        nominations = regen._nominations

        def counted_nominations(*a):
            for cand, j in nominations(*a):
                counts["nominated"] += len(cand)
                yield cand, j

        def counted(key, fn, size=lambda *a: 1):
            def wrapper(*a):
                counts[key] += size(*a)
                return fn(*a)
            return wrapper

        monkeypatch.setattr(regen, "_past_holds", counted("past", regen._past_holds))
        monkeypatch.setattr(regen, "_future_holds", counted("future", regen._future_holds))
        monkeypatch.setattr(
            regen, "_majorant", counted("points", regen._majorant, lambda ys, vs: len(ys))
        )
        monkeypatch.setattr(regen, "_nominations", counted_nominations)
        for path in paths:
            ys, values, i0 = path.grid.points(), path.values, path.grid.zero_index
            before = counts["nominated"]
            r = regen._scan_r(values, ys, i0, 1.0)
            counts["r_nominated"] += counts["nominated"] - before
            if r is not None:
                regen._scan_s(values, ys, r, 1.0)
        return counts

    @pytest.mark.parametrize("delta,past", [(0.5, 7), (2.0, 2), (4.5, 3)])
    def test_noisy_steps(self, monkeypatch, delta, past):
        work = self.work(monkeypatch, [_noisy(STEP_GRID, jump_down(STEP_GRID, delta).values, 1)])
        assert (work["past"], work["future"]) == (past, 1)
        # two full-grid majorants would take about 60,000 points
        assert work["points"] < 0.01 * STEP_GRID.n
        # R - i0 is up to 6,144 candidates: blocks that end at 64 * 4^k
        # past i0 nominate no more than one FILTER_BLOCK to reach it
        assert work["r_nominated"] <= FILTER_BLOCK

    @pytest.mark.parametrize(
        "par,past,found",
        [(LevyParams.stable(1.5, 0.0, 0.4), 725, 40), (LevyParams.stable(0.75, 0.0, 0.1), 1106, 38)],
        ids=["stable1.5", "stable0.75"],
    )
    def test_c04_families(self, monkeypatch, par, past, found):
        grid = GridSpec(16.0, 8193)
        work = self.work(monkeypatch, [sample_path(par, grid, seed) for seed in range(40)])
        assert (work["past"], work["future"]) == (past, found)
        # the full [0, i0) and (R, n) majorants take about n points a path
        assert work["points"] < 0.1 * 40 * grid.n


@settings(max_examples=150, deadline=None)
@given(
    params=adversarial_params(),
    half=st.integers(1, 32),
    half_width=st.sampled_from([1.0, 4.0, 16.0]),
    t=st.floats(1e-6, 1e6),
    seed=st.integers(0, 2**32),
)
def test_hypothesis_adversarial_regimes_match_oracles(params, half, half_width, t, seed):
    """Heavy tails, near-flat paths, t over twelve decades and grids of 3
    to 65 points: the filtered scans give the oracles' indices."""
    try:
        path = sample_path(params, GridSpec(half_width, 2 * half + 1), seed)
    except LevyBurgersError:
        return
    assert_scans_match_oracles(path, t)


@settings(max_examples=150, deadline=None)
@given(
    params=adversarial_params(),
    half=st.integers(1, 32),
    half_width=st.sampled_from([1.0, 4.0, 16.0]),
    t=st.floats(1e-6, 1e6),
    seed=st.integers(0, 2**32),
)
def test_hypothesis_adversarial_block_ends_match_oracles(params, half, half_width, t, seed):
    """The adversarial regimes with a first block of one candidate, so
    that the scans cross the block ends at 1, 4, 16 and 64: the oracles'
    indices, and the full majorants' witnesses."""
    try:
        path = sample_path(params, GridSpec(half_width, 2 * half + 1), seed)
    except LevyBurgersError:
        return
    with mock.patch.object(regen, "_FIRST_BLOCK", 1):
        assert_scans_match_oracles(path, t)
        assert_same_nominations(path, t)


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

    def test_zero_variance_gives_zero(self):
        x = np.arange(10.0)
        assert distance_correlation(np.ones(10), x) == distance_correlation(x, np.ones(10)) == 0.0

    def test_row_count_mismatch_raises(self):
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=(80, 3)), rng.normal(size=(60, 3))
        with pytest.raises(InputError):
            distance_correlation(x, y)
        with pytest.raises(InputError):
            permutation_pvalue(x, y, rng, n_perm=9)

    def test_zero_rows_raise(self):
        rng = np.random.default_rng(8)
        with pytest.raises(InputError):
            distance_correlation(np.array([]), np.array([]))
        with pytest.raises(InputError):
            permutation_pvalue(np.empty((0, 3)), np.empty((0, 3)), rng, n_perm=9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308, -1e154])
    def test_non_finite_rows_raise(self, bad):
        # one NaN row, or one whose distances overflow, gave p = 1/(1 + n_perm),
        # the strongest dependence the test can report, as no permuted
        # statistic compares >= NaN
        rng = np.random.default_rng(10)
        x, y = rng.normal(size=(50, 3)), rng.normal(size=(50, 3))
        x_bad, y_bad = x.copy(), y[:, 0].copy()
        x_bad[7, 1] = y_bad[30] = bad
        for a, b in ((x_bad, y), (x, y_bad), (y_bad, x[:, 0])):
            with pytest.raises(InputError):
                permutation_pvalue(a, b, rng, n_perm=999)
            with pytest.raises(InputError):
                distance_correlation(a, b)

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

    def test_bad_time_draws_no_sample(self, monkeypatch, grid_standard):
        monkeypatch.setattr(solver, "sample_path", lambda *a: pytest.fail("sampled a path"))
        with pytest.raises(ParameterError, match="t must be finite and > 0"):
            independence_test(LevyParams.brownian(1.0), grid_standard, -1.0, 0.5, 100, 1)

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

    def test_constant_feature_has_zero_correlation(self):
        rng = np.random.default_rng(12)
        pre, post = rng.normal(size=(2, 100, 3))
        pre[:, 1] = 2.0
        rep = independence_report(list(zip(np.ones(100), pre, post)), seed=1)
        assert rep.feature_correlations[1] == 0.0
        assert rep.feature_correlations[0] != 0.0 and rep.n_valid == 100

    def test_replicate_features_shape(self, grid_standard):
        replicates = solved_replicates(
            LevyParams.stable(1.5, 0.0, 0.2), grid_standard, 1.0, 10, seed=10, key=0
        )
        features = [replicate_features(sol, 0.5) for sol in replicates]
        kept = [f for f in features if f is not None]
        assert len(kept) >= 8
        for T, pre, post in kept:
            assert T >= 0.0 and pre.shape == post.shape == (3,)
