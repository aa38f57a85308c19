import math
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from levyburgers import (
    GridError,
    GridSpec,
    JumpDist,
    LevyParams,
    LevyPath,
    ParameterError,
    abruptness_integral_estimate,
    classify,
    sample_path,
    stable_increments,
    zero_path,
)
from levyburgers import levy
from levyburgers.levy import MAX_FLOAT64_ITEMS
from conftest import derived_seed

# 0.75-quantile of the standard symmetric 1.5-stable law, frozen from the
# characteristic-function inversion oracle below.
STABLE15_Q75 = 0.9689331817


def stable_sym_cdf(x: float, alpha: float) -> float:
    """Gil-Pelaez inversion of the symmetric stable cf exp(-|u|^alpha)."""
    val, _ = quad(lambda u: math.sin(u * x) / u * math.exp(-(u**alpha)), 0, np.inf, limit=400)
    return 0.5 + val / math.pi


class TestGridSpec:
    def test_basic(self):
        g = GridSpec(8.0, 4097)
        assert g.h == 16.0 / 4096
        pts = g.points()
        assert pts[g.zero_index] == 0.0
        assert pts[0] == -8.0 and pts[-1] == 8.0
        assert np.all(np.diff(pts) > 0)
        assert g == GridSpec(8.0, 4097) and g.zero_index == 2048

    def test_too_few_points(self):
        with pytest.raises(GridError):
            GridSpec(1.0, 2)

    def test_too_many_points(self):
        # more points than a float64 array can hold; nothing is allocated
        for n in (MAX_FLOAT64_ITEMS + 2, 10**400 + 1):
            with pytest.raises(GridError):
                GridSpec(1.0, n)

    def test_zero_off_grid(self):
        # an even n puts 0 between two grid points; 10**9 is rejected
        # before anything is allocated
        for n in (4, 4096, 10**9):
            with pytest.raises(GridError):
                GridSpec(1.0, n)

    def test_must_straddle_zero(self):
        for L in (0.0, -1.0):
            with pytest.raises(GridError):
                GridSpec(L, 11)

    def test_width_must_be_finite(self):
        # 2L overflows for 1e308; an int beyond any float is rejected too
        for L in (math.nan, math.inf, 1e308, 10**400):
            with pytest.raises(GridError):
                GridSpec(L, 11)

    def test_point_count_must_be_an_integer(self):
        # a float n would reach np.empty as a bare TypeError; a numpy int
        # is an integer
        with pytest.raises(GridError, match="integer"):
            GridSpec(4.0, 801.0)
        assert GridSpec(4.0, np.int64(801)).points()[400] == 0.0

    def test_step_must_not_underflow(self):
        # 2L/(n - 1) rounds to 0, so every point would be +-0.0
        with pytest.raises(GridError, match="underflows"):
            GridSpec(5e-324, 129)
        assert GridSpec(5e-324, 3).h == 5e-324

    @pytest.mark.parametrize(
        "L,n",
        [(1.0, 7), (5e-300, 129), (4.0, 801), (8.0, 4097), (16.0, 16385),
         (16.0, 65537), (1e300, 65537)],
    )
    def test_points_bitwise(self, L, n):
        # the float arange gives the bits of the int arange cast to float
        g = GridSpec(L, n)
        want = (np.arange(n) - g.zero_index) * g.h
        assert g.points().tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [MAX_FLOAT64_ITEMS, 2**59 + 1], ids=["n", "h"])
    def test_points_beyond_memory(self, n):
        # 8 and 4 EiB, beyond any address space: numpy refuses them at once
        # (n = 2**59 + 1 on [-1, 1] is the step h = 2**-58)
        with pytest.raises(GridError, match="more than memory holds"):
            GridSpec(1.0, n).points()


def reference_sample_path(params, grid, seed):
    """The two-temporary sampler that sample_path replaced, kept as its
    bitwise reference: each side cumsummed into a new array, the left one
    negated and reversed, then jumps tagged over the concatenated raw
    increments against np.diff of the values."""
    ss = levy._seed_sequence(seed)
    right_ss, left_ss = ss.spawn(2)
    i0, h = grid.zero_index, grid.h
    values = np.empty(grid.n)
    values[i0] = 0.0
    incr_r = levy._cell_increments(params, h, grid.n - 1 - i0, np.random.default_rng(right_ss))
    incr_l = levy._cell_increments(params, h, i0, np.random.default_rng(left_ss))
    values[i0 + 1 :] = np.cumsum(incr_r)
    values[:i0] = -np.cumsum(incr_l)[::-1]
    incr = np.concatenate([incr_l[::-1], incr_r])
    embedded = np.diff(values)
    if params.family == "brownian":
        mask = np.zeros(incr.size, bool)
    elif params.family == "stable":
        mask = np.abs(incr) > levy.JUMP_THRESHOLD_SCALES * params.scale * h ** (1.0 / params.alpha)
    else:
        mask = incr != 0.0
    cells = np.flatnonzero(mask & (embedded != 0.0))
    jumps = levy.jump_array(cells + 1, embedded[cells])
    return LevyPath(grid, values, jumps, params, ss.entropy[0])


REFERENCE_LAWS = {
    "brownian": LevyParams.brownian(1.0),
    "brownian0": LevyParams.brownian(0.0),
    "stable1.5": LevyParams.stable(1.5, 0.0),
    "stable0.75": LevyParams.stable(0.75, 0.0),
    "stable0.51+": LevyParams.stable(0.51, 1.0),
    "stable0.51-": LevyParams.stable(0.51, -1.0),
    "cauchy": LevyParams.cauchy(),
    "cp-normal": LevyParams.compound_poisson(0.5, JumpDist("normal", 0.0, 1.0)),
    "cp-uniform": LevyParams.compound_poisson(1e3, JumpDist("uniform", -1.0, 2.0)),
    "cp-fixed": LevyParams.compound_poisson(2.0, JumpDist("fixed", 0.5)),
}


# the shortest path whose sides are drawn on two threads
THREADED_N = 2 * levy._PARALLEL_SIDE + 1


@pytest.mark.parametrize("n", [3, 4097, THREADED_N - 2, THREADED_N, 65537])
@pytest.mark.parametrize("law", REFERENCE_LAWS)
def test_sample_path_matches_reference(law, n):
    """Same values, jumps and seed as the reference, byte for byte, so a
    -0.0 counts; the law flags the tagging (none, thresholded, nonzero).
    The sides are drawn one after the other below THREADED_N and on two
    threads from it."""
    grid = GridSpec(8.0, n)
    for seed in range(3):
        got = sample_path(REFERENCE_LAWS[law], grid, seed)
        want = reference_sample_path(REFERENCE_LAWS[law], grid, seed)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.tracked_jumps.tobytes() == want.tracked_jumps.tobytes()
        assert got.seed == want.seed


def test_sample_path_peak_memory_bounded():
    """One Brownian path at n = 65537 peaks under 1.25 MiB of traced
    allocations: its values (512 KiB) and the two per-side increment
    arrays (256 KiB each), with no other full-grid scratch array."""
    grid = GridSpec(16.0, 65537)
    sample_path(LevyParams.brownian(1.0), grid, 1)
    tracemalloc.start()
    try:
        sample_path(LevyParams.brownian(1.0), grid, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20


class TestThreadedSides:
    """From THREADED_N points on, a worker thread draws the right side:
    errors, forks and threads behave as when the sides are drawn in turn."""

    @pytest.mark.parametrize("n", [THREADED_N - 2, THREADED_N], ids=["serial", "threaded"])
    @pytest.mark.parametrize("failing", [("right", "left"), ("left",)], ids=["both", "left"])
    def test_draw_errors_in_serial_order(self, monkeypatch, failing, n):
        draw = levy._cell_increments
        drawn_on_main = {}

        def failing_draw(params, h, size, rng):
            # the right side's stream is child 0 of the seed, the left's child 1
            side = ("right", "left")[rng.bit_generator.seed_seq.spawn_key[-1]]
            drawn_on_main[side] = threading.current_thread() is threading.main_thread()
            if side in failing:
                raise ParameterError(side)
            return draw(params, h, size, rng)

        monkeypatch.setattr(levy, "_cell_increments", failing_draw)
        with pytest.raises(ParameterError, match=f"^{failing[0]}$"):
            sample_path(LevyParams.brownian(1.0), GridSpec(8.0, n), 0)
        if n == THREADED_N:
            assert drawn_on_main == {"right": False, "left": True}

    @pytest.mark.parametrize(
        "par",
        [
            LevyParams.brownian(1.7e308),
            LevyParams.stable(1.5, 0.0, 1.7e308),
            LevyParams.compound_poisson(4.0, JumpDist("normal", 1.7e308, 1.0)),
        ],
        ids=["sigma", "scale", "jump-a"],
    )
    def test_overflow_is_a_parameter_error(self, par):
        # numpy's errstate is per thread: the worker's overflow must stay
        # silent, not reach the warnings-as-errors filter as a RuntimeWarning
        with pytest.raises(ParameterError) as serial:
            sample_path(par, GridSpec(2.0, 129), seed=0)
        with pytest.raises(ParameterError) as threaded:
            sample_path(par, GridSpec(8.0, THREADED_N), seed=0)
        assert str(threaded.value) == str(serial.value)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_draws_the_same_path(self):
        # the child inherits the worker's executor but not its thread
        par, grid = LevyParams.stable(1.5, 0.0), GridSpec(8.0, THREADED_N)
        want = sample_path(par, grid, 3).values.tobytes()
        with warnings.catch_warnings():
            # from Python 3.12 on, os.fork warns in a process with threads
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            same = False
            try:
                same = sample_path(par, grid, 3).values.tobytes() == want
            finally:
                os._exit(0 if same else 1)
        deadline = time.monotonic() + 30.0
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish its path in 30 s")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(done[1]) == 0

    def test_concurrent_callers_share_one_worker(self, monkeypatch):
        # more callers than cores, switching threads often, while the worker
        # is first built: each gets its own path and one worker thread starts
        par, grid = LevyParams.stable(1.5, 0.0), GridSpec(8.0, THREADED_N)
        want = [sample_path(par, grid, seed).values.tobytes() for seed in range(4)]
        before = threading.active_count()
        monkeypatch.setattr(levy, "_side_pool", None)
        got = {}
        start = threading.Barrier(4)

        def draw(seed):
            start.wait(timeout=30.0)
            got[seed] = sample_path(par, grid, seed).values.tobytes()

        callers = [threading.Thread(target=draw, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(caller.is_alive() for caller in callers)
            assert [got.get(seed) for seed in range(4)] == want
            assert threading.active_count() == before + 1
        finally:
            levy._side_pool.shutdown()

    def test_one_worker_thread(self):
        before = threading.active_count()
        for seed in range(10):
            sample_path(LevyParams.brownian(1.0), GridSpec(8.0, THREADED_N), seed)
        assert threading.active_count() <= before + 1


class TestSamplePath:
    def test_grid_beyond_memory(self):
        # 8 EiB of path values: refused before anything is drawn
        grid = GridSpec(1.0, MAX_FLOAT64_ITEMS)
        with pytest.raises(GridError, match="more than memory holds"):
            sample_path(LevyParams.brownian(1.0), grid, seed=0)
        with pytest.raises(GridError, match="more than memory holds"):
            zero_path(grid)

    def test_zero_variance_brownian_is_flat(self):
        g = GridSpec(2.0, 65)
        p = sample_path(LevyParams.brownian(0.0), g, seed=7)
        assert np.all(p.values == 0.0)
        assert len(p.tracked_jumps) == 0

    def test_determinism_bit_for_bit(self):
        g = GridSpec(4.0, 513)
        par = LevyParams.stable(1.5, 0.3, 0.7)
        p1 = sample_path(par, g, seed=123456789)
        p2 = sample_path(par, g, seed=123456789)
        assert np.array_equal(p1.values, p2.values)
        assert np.array_equal(p1.tracked_jumps, p2.tracked_jumps)
        p3 = sample_path(par, g, seed=123456790)
        assert not np.array_equal(p1.values, p3.values)

    def test_anchored_at_origin(self):
        g = GridSpec(4.0, 513)
        for fam in (
            LevyParams.brownian(1.0),
            LevyParams.stable(0.75, 0.0),
            LevyParams.cauchy(2.0),
            LevyParams.compound_poisson(3.0, JumpDist("normal", 0.0, 1.0)),
        ):
            p = sample_path(fam, g, seed=11)
            assert p.values[g.zero_index] == 0.0

    def test_brownian_moments(self):
        # h = 0.01 and 1e5 increments; sample mean within 4 stderr of 0 and
        # sample std within 5% of sqrt(h) = 0.1
        g = GridSpec(500.0, 100_001)
        assert abs(g.h - 0.01) < 1e-12
        p = sample_path(LevyParams.brownian(1.0), g, seed=2024)
        inc = np.diff(p.values)
        stderr = 0.1 / math.sqrt(len(inc))
        assert abs(inc.mean()) < 4 * stderr
        assert abs(inc.std() - 0.1) < 0.005

    def test_two_sided_increments_same_law(self):
        # two-sample KS on the two sides at level 0.01; over 100 seeds the
        # failure rate stays within the nominal 5%
        g = GridSpec(100.0, 20_001)
        par = LevyParams.brownian(1.0)
        failures = 0
        for rep in range(100):
            p = sample_path(par, g, seed=derived_seed(5, rep))
            inc = np.diff(p.values)
            left, right = inc[: g.zero_index], inc[g.zero_index :]
            if ks_2samp(left, right).pvalue < 0.01:
                failures += 1
        assert failures <= 5

    def test_stable_jumps_tracked(self):
        g = GridSpec(8.0, 4097)
        p = sample_path(LevyParams.stable(0.75, 0.0), g, seed=31)
        assert len(p.tracked_jumps) > 0
        thr = 6.0 * g.h ** (1 / 0.75)
        inc = np.diff(p.values)
        for idx, size in p.tracked_jumps:
            assert 0 < idx < g.n
            assert size != 0.0
            assert abs(size) > 0.99 * thr
            assert inc[idx - 1] == size  # lands at the first point including it
        assert len(p.tracked_jumps) == np.count_nonzero(np.abs(inc) > thr)
        # one sorted array, whose sizes are the value differences bit for bit
        jumps = p.tracked_jumps
        assert jumps.dtype == np.dtype([("index", np.intp), ("size", np.float64)])
        assert np.all(np.diff(jumps["index"]) > 0)
        assert np.array_equal(inc[jumps["index"] - 1].view(np.uint64),
                              jumps["size"].view(np.uint64))

    def test_brownian_has_no_tracked_jumps(self):
        g = GridSpec(4.0, 513)
        assert len(sample_path(LevyParams.brownian(1.0), g, seed=3).tracked_jumps) == 0

    def test_cpoisson_jumps_reproduce_increments(self):
        g = GridSpec(4.0, 513)
        for law in (JumpDist("uniform", -1.0, 2.0), JumpDist("fixed", 0.5)):
            p = sample_path(LevyParams.compound_poisson(2.0, law), g, seed=17)
            rebuilt = np.zeros(g.n - 1)
            for idx, size in p.tracked_jumps:
                rebuilt[idx - 1] += size
            assert np.array_equal(rebuilt, np.diff(p.values))
        # a cell with k jumps of the fixed size 0.5 rises by k/2
        sizes = p.tracked_jumps["size"]
        assert len(sizes) > 0 and np.all(sizes > 0) and np.all(2 * sizes == np.round(2 * sizes))


class TestStableIncrement:
    def test_alpha2_is_gaussian_var_2(self):
        rng = np.random.default_rng(1)
        x = stable_increments(2.0, 0.0, 1.0, 1.0, 200_000, rng)
        assert abs(x.std() - math.sqrt(2.0)) < 0.02
        assert abs(np.mean(np.abs(x) < 1.96 * math.sqrt(2.0)) - 0.95) < 0.01

    def test_alpha2_h_scaling(self):
        rng = np.random.default_rng(2)
        x = stable_increments(2.0, 0.0, 0.5, 0.04, 200_000, rng)
        # Normal(0, 2 c^2 h) with c=0.5, h=0.04 -> std = 0.1414
        assert abs(x.std() - math.sqrt(2 * 0.25 * 0.04)) < 0.003

    def test_cauchy_symmetric_median(self):
        rng = np.random.default_rng(3)
        x = stable_increments(1.0, 0.0, 1.0, 1.0, 100_000, rng)
        # stderr of the Cauchy sample median is pi/(2 sqrt(n))
        assert abs(np.median(x)) < 4 * math.pi / (2 * math.sqrt(len(x)))

    def test_quantile_against_cf_inversion_oracle(self):
        # oracle: numerical inversion of the characteristic function
        q_oracle = STABLE15_Q75
        from scipy.optimize import brentq

        recomputed = brentq(lambda x: stable_sym_cdf(x, 1.5) - 0.75, 0.1, 5.0)
        assert abs(recomputed - q_oracle) < 1e-6
        rng = np.random.default_rng(4)
        x = stable_increments(1.5, 0.0, 1.0, 1.0, 400_000, rng)
        assert abs(np.quantile(x, 0.75) - q_oracle) < 0.02 * q_oracle

    @pytest.mark.parametrize(
        "alpha,beta,c",
        [(0.4, 0.0, 1.0), (2.1, 0.0, 1.0), (1.5, 1.5, 1.0), (1.5, 0.0, -1.0), (1.0, 0.5, 1.0)],
    )
    def test_parameter_errors(self, alpha, beta, c):
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError):
            stable_increments(alpha, beta, c, 1.0, 10, rng)

    def test_h_must_be_positive(self):
        with pytest.raises(ParameterError):
            stable_increments(1.5, 0.0, 1.0, 0.0, 10, np.random.default_rng(0))

    @pytest.mark.parametrize("alpha,c,h", [(0.75, 1.0, 1e300), (0.51, 1.0, 1e160),
                                           (0.75, 1e300, 1e10)])
    def test_step_scale_overflow(self, alpha, c, h):
        # h^(1/alpha) raises OverflowError as a float power, and c times it
        # overflows to inf; both are found before any draw
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ParameterError, match="step scale"):
            stable_increments(alpha, 0.0, c, h, 10, rng)
        assert rng.bit_generator.state == state


class TestClassify:
    def test_brownian(self):
        f = classify(LevyParams.brownian(1.0))
        assert not f.bounded_variation
        assert f.abrupt and not f.eroded
        assert f.hyp_A and f.hyp_B
        assert f.assumption_B == "not_applicable"

    def test_cauchy_is_eroded(self):
        f = classify(LevyParams.cauchy(1.0))
        assert f.eroded and not f.abrupt and not f.bounded_variation

    def test_stable_bv(self):
        f = classify(LevyParams.stable(0.75, 0.0))
        assert f.bounded_variation and f.hyp_B
        assert f.assumption_B == "assumed"

    def test_stable_abrupt(self):
        f = classify(LevyParams.stable(1.5, -0.5))
        assert f.abrupt and not f.eroded and f.hyp_B

    def test_one_sided_bv_stable_fails_oscillation(self):
        # a spectrally one-sided alpha<1 process is monotone near 0
        assert not classify(LevyParams.stable(0.75, 1.0)).hyp_B

    def test_cpoisson_never_hyp_B(self):
        f = classify(LevyParams.compound_poisson(2.0, JumpDist("normal", 0, 1)))
        assert f.bounded_variation and not f.hyp_B
        assert f.assumption_B == "unknown"

    def test_consistency_sweep(self):
        fams = [
            LevyParams.brownian(1.0),
            LevyParams.brownian(0.0),
            LevyParams.cauchy(0.5),
            LevyParams.compound_poisson(1.0, JumpDist("fixed", 1.0)),
        ] + [
            LevyParams.stable(a, b)
            for a in (0.6, 0.75, 0.99, 1.2, 1.5, 2.0)
            for b in (-1.0, -0.3, 0.0, 0.5, 1.0)
            if not (a == 1.0 and b != 0.0)
        ]
        for par in fams:
            f = classify(par)
            assert not (f.abrupt and f.eroded)
            if f.abrupt or f.eroded:
                assert not f.bounded_variation


class TestAbruptnessIntegral:
    def test_degenerate_interval_is_zero(self):
        rows = abruptness_integral_estimate(
            LevyParams.brownian(1.0), 0.5, 0.5, [0.1, 0.01], 1000, seed=1
        )
        assert all(v == 0.0 for _, v in rows)

    def test_rows_match_eps_list(self):
        eps = [0.5, 0.1, 0.02]
        rows = abruptness_integral_estimate(
            LevyParams.stable(1.5, 0.0), -1, 1, eps, 1000, seed=2
        )
        assert [e for e, _ in rows] == eps
        # the integral over a larger range can only be larger
        vals = [v for _, v in rows]
        assert vals[0] <= vals[1] <= vals[2]

    def test_cauchy_grows(self):
        rows = dict(
            abruptness_integral_estimate(
                LevyParams.cauchy(1.0), -1, 1, [1e-1, 1e-2], 2000, seed=3
            )
        )
        assert rows[1e-2] > rows[1e-1] + 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(a=1.0, b=-1.0),
            dict(eps_list=[1.5, 0.1]),
            dict(eps_list=[0.1, 0.2]),
            dict(eps_list=[]),
            dict(n_mc=10),
            dict(n_mc=MAX_FLOAT64_ITEMS + 1),
        ],
    )
    def test_parameter_errors(self, kwargs):
        base = dict(a=-1.0, b=1.0, eps_list=[0.1, 0.01], n_mc=1000)
        base.update(kwargs)
        with pytest.raises(ParameterError):
            abruptness_integral_estimate(
                LevyParams.brownian(1.0), base["a"], base["b"], base["eps_list"],
                base["n_mc"], seed=0,
            )

    @pytest.mark.parametrize(
        "par",
        [
            LevyParams.brownian(1.7e308),
            LevyParams.stable(1.5, 0.0, 1.7e308),
            LevyParams.compound_poisson(4.0, JumpDist("normal", 1.7e308, 1.0)),
            LevyParams.compound_poisson(4.0, JumpDist("normal", 0.0, 1.7e308)),
        ],
        ids=["sigma", "scale", "jump-a", "jump-b"],
    )
    def test_overflowing_draws(self, par):
        # an inf or nan draw may fall outside [ax, bx] when the true one lies
        # inside; the error is the one sample_path gives for the same law
        with pytest.raises(ParameterError) as integral:
            abruptness_integral_estimate(par, -1.0, 1.0, [0.1], 1000, seed=0)
        with pytest.raises(ParameterError) as path:
            sample_path(par, GridSpec(2.0, 129), seed=0)
        assert str(integral.value) == str(path.value)

    def test_out_of_memory_is_a_parameter_error(self, monkeypatch):
        # no draw is allocated: the sampler reports memory as exhausted
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(levy, "_cell_increments", exhausted)
        with pytest.raises(ParameterError, match="n_mc"):
            abruptness_integral_estimate(LevyParams.brownian(1.0), -1, 1, [0.1], 1000, seed=0)


class TestParams:
    def test_cauchy_maps_to_stable_1_0(self):
        assert LevyParams.cauchy(2.0) == LevyParams.stable(1.0, 0.0, 2.0)

    def test_invalid_families(self):
        with pytest.raises(ParameterError):
            LevyParams(family="gamma")
        with pytest.raises(ParameterError):
            LevyParams.brownian(-1.0)
        with pytest.raises(ParameterError):
            LevyParams.stable(0.3, 0.0)
        with pytest.raises(ParameterError):
            LevyParams.compound_poisson(0.0, JumpDist("fixed", 1.0))
        with pytest.raises(ParameterError):
            JumpDist("cauchy", 0, 1)
        with pytest.raises(ParameterError):
            JumpDist("uniform", 2.0, 1.0)
        with pytest.raises(ParameterError):
            JumpDist("normal", 0.0, -1.0)
        with pytest.raises(ParameterError):
            JumpDist("uniform", 0.0, math.inf)
        with pytest.raises(ParameterError):
            LevyParams("cpoisson")
