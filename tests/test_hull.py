import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levyburgers import (
    GridSpec,
    InputError,
    JumpDist,
    LevyParams,
    OutOfDomainError,
    jump_down,
    jump_up,
    query,
    sample_path,
    upper_concave_majorant,
    zero_path,
)
from levyburgers import hull


def brute_force_vertices(ys: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """A point is a hull vertex iff no chord of two other points strictly
    dominates it.  O(n^3), vectorized per point."""
    n = len(ys)
    keep = []
    for j in range(n):
        yl, vl = ys[:j], vs[:j]
        yr, vr = ys[j + 1 :], vs[j + 1 :]
        if len(yl) == 0 or len(yr) == 0:
            keep.append(j)
            continue
        lam = (ys[j] - yl[:, None]) / (yr[None, :] - yl[:, None])
        chord = vl[:, None] + lam * (vr[None, :] - vl[:, None])
        if not np.any(chord > vs[j]):
            keep.append(j)
    return np.asarray(keep, dtype=np.intp)


def reference_chain(ys: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Left-to-right monotone chain over every point, the per-point loop
    the vectorized hull replaces.  Pops the middle of a triple unless its
    orientation determinant is certainly negative (below minus its
    forward error bound)."""
    ys, vs = ys.tolist(), vs.tolist()
    tol = hull.COLLINEAR_ERRBOUND
    stack: list[int] = []
    for j in range(len(ys)):
        while len(stack) >= 2:
            i1, i2 = stack[-2], stack[-1]
            p = (ys[i2] - ys[i1]) * (vs[j] - vs[i1])
            q = (vs[i2] - vs[i1]) * (ys[j] - ys[i1])
            if p - q < -tol * (abs(p) + abs(q)):
                break
            stack.pop()
        stack.append(j)
    return np.asarray(stack, dtype=np.intp)


def spiked_parabola(n: int, spikes: int):
    """-y^2/2 on [-16, 16] with the points k*n // (spikes + 2), k = 1, ...,
    spikes, raised by 50."""
    ys = np.linspace(-16.0, 16.0, n)
    vs = -ys * ys / 2
    vs[np.arange(1, spikes + 1) * n // (spikes + 2)] += 50.0
    return ys, vs


def step_parabola(n: int, delta: float):
    """-y^2/2 on [-16, 16], lowered by delta from y = 0 on."""
    ys = np.linspace(-16.0, 16.0, n)
    vs = -ys * ys / 2
    vs[ys >= 0] -= delta
    return ys, vs


def random_cloud(rng, n):
    ys = np.sort(rng.uniform(-10, 10, n))
    while np.any(np.diff(ys) <= 0):
        ys = np.sort(rng.uniform(-10, 10, n))
    vs = rng.normal(0, 3, n)
    return ys, vs


class TestExamples:
    def test_already_concave(self):
        cm = upper_concave_majorant([(0, 0), (1, 1), (2, 0)])
        assert cm.ys.tolist() == [0, 1, 2]
        assert cm.vs.tolist() == [0, 1, 0]

    def test_convex_middle_dropped(self):
        cm = upper_concave_majorant([(0, 0), (1, 0.5), (2, 2)])
        assert cm.ys.tolist() == [0, 2]

    def test_collinear_interior_removed(self):
        cm = upper_concave_majorant([(0, 0), (1, 1), (2, 2)])
        assert cm.ys.tolist() == [0, 2]
        assert cm.indices.tolist() == [0, 2]

    def test_input_errors(self):
        with pytest.raises(InputError):
            upper_concave_majorant([(0, 0)])
        with pytest.raises(InputError):
            upper_concave_majorant([(0, 0), (1, np.inf)])
        with pytest.raises(InputError):
            upper_concave_majorant([(0, np.nan), (1, 0)])
        with pytest.raises(InputError):
            upper_concave_majorant([(0, 0), (0, 1)])
        with pytest.raises(InputError):
            upper_concave_majorant([(1, 0), (0, 1)])

    def test_slope_overflow(self):
        # the chain is [0, 1, 2, 3], whose first edge slope (1e310) is no
        # float64; QuickHull's own slopes overflow too and must not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="slope overflows"):
                upper_concave_majorant([(0, 0), (1e-300, 1e10), (2e-300, 1.5e10), (1, 0)])

    @pytest.mark.parametrize(
        "points",
        [
            [(1e-300, 0.0), (2e-300, 1.0), (3e-300, 0.0), (1.0, 1e200)],
            [(0.0, 1e-300), (1.0, 2e-300), (2.0, 1e-300), (1e200, 0.0)],
        ],
        ids=["tiny-y-huge-v", "huge-y-tiny-v"],
    )
    def test_tiny_axis_next_to_huge_one(self, points):
        """Distinct tiny coordinates on one axis next to a huge coordinate
        are not flushed to zero by a scale the other axis needs."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cm = upper_concave_majorant(points)
        assert cm.indices.tolist() == [0, 1, 3]
        ys, vs = np.array(points).T
        assert cm.indices.tolist() == reference_chain(ys, vs).tolist()

    def test_flushed_abscissae_raise(self):
        """Both axes reach 2^665, so both are scaled by 2^-165, which sends
        the three tiny y's to 0: that is refused, not divided by."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="coordinate range"):
                upper_concave_majorant([(1e-300, 0), (2e-300, 1), (3e-300, 0), (1e200, 1e200)])

    def test_scale_keeps_huge_slopes_apart(self):
        """Slopes 1e160, 5e159 and 0 make every point a vertex.  Scaling
        the y axis alone by 2^-524 would send both slopes at point 1 to
        +inf and drop it as a tie; one power of two for both axes keeps
        every slope.  The reference chain's products of the raw input
        overflow, so it runs on the input scaled by that power, which is
        exact."""
        points = [(0.0, 0.0), (1e-10, 1e150), (2e-10, 1.5e150), (1e308, 1.5e150)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cm = upper_concave_majorant(points)
        assert cm.indices.tolist() == [0, 1, 2, 3]
        ys, vs = np.array(points).T
        expected = reference_chain(np.ldexp(ys, -524), np.ldexp(vs, -524))
        assert cm.indices.tolist() == expected.tolist()

    def test_slope_overflow_on_the_bulk_chain(self, monkeypatch):
        """A step parabola with one flagged triple takes the bulk chain; a
        first point 1e150 below it at distance 1e-160 makes the chain's
        first edge slope overflow, which must raise without a warning."""
        ys, vs = step_parabola(4097, 0.5)
        ys = np.concatenate([[-1e-160], ys / 32 + 0.5])
        vs = np.concatenate([[vs[0] - 1e150], vs])

        def refuse(*args):
            raise AssertionError("QuickHull ran on a few-flag cloud")

        monkeypatch.setattr(hull, "_quickhull", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="slope overflows"):
                upper_concave_majorant(np.column_stack([ys, vs]))


class TestQuery:
    def setup_method(self):
        self.cm = upper_concave_majorant([(0, 0), (1, 1), (2, 0)])

    def test_at_vertex(self):
        val, sl, sr = query(self.cm, 1.0)
        assert (val, sl, sr) == (1.0, 1.0, -1.0)

    def test_edge_interior(self):
        val, sl, sr = query(self.cm, 0.5)
        assert (val, sl, sr) == (0.5, 1.0, 1.0)

    def test_endpoint_sentinels(self):
        val, sl, sr = query(self.cm, 0.0)
        assert val == 0.0 and sl == np.inf and sr == 1.0
        val, sl, sr = query(self.cm, 2.0)
        assert val == 0.0 and sl == -1.0 and sr == -np.inf

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomainError):
            query(self.cm, 2.5)
        with pytest.raises(OutOfDomainError):
            query(self.cm, -0.1)
        with pytest.raises(OutOfDomainError):
            query(self.cm, np.nan)


class TestProperties:
    def test_oracle_equivalence_500(self):
        rng = np.random.default_rng(42)
        ys, vs = random_cloud(rng, 500)
        cm = upper_concave_majorant(np.column_stack([ys, vs]))
        assert cm.indices.tolist() == brute_force_vertices(ys, vs).tolist()

    def test_oracle_equivalence_small_clouds(self):
        rng = np.random.default_rng(7)
        for trial in range(40):
            n = int(rng.integers(2, 60))
            ys, vs = random_cloud(rng, n)
            cm = upper_concave_majorant(np.column_stack([ys, vs]))
            assert cm.indices.tolist() == brute_force_vertices(ys, vs).tolist()

    def test_idempotence(self):
        rng = np.random.default_rng(11)
        ys, vs = random_cloud(rng, 300)
        cm = upper_concave_majorant(np.column_stack([ys, vs]))
        cm2 = upper_concave_majorant(np.column_stack([cm.ys, cm.vs]))
        assert np.array_equal(cm2.ys, cm.ys)
        assert np.array_equal(cm2.vs, cm.vs)

    def test_slopes_strictly_decreasing(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            ys, vs = random_cloud(rng, 200)
            cm = upper_concave_majorant(np.column_stack([ys, vs]))
            assert np.all(np.diff(cm.s[1:-1]) < 0)

    def test_dominance_and_contact(self):
        rng = np.random.default_rng(17)
        ys, vs = random_cloud(rng, 400)
        cm = upper_concave_majorant(np.column_stack([ys, vs]))
        for y, v in zip(ys, vs):
            val, _, _ = query(cm, y)
            assert val >= v - 1e-12 * (1 + abs(v))
        # every vertex is an input point, touched exactly
        assert np.all(vs[cm.indices] == cm.vs)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-50, max_value=50),
            st.floats(min_value=-100, max_value=100, allow_nan=False),
        ),
        min_size=2,
        max_size=40,
        unique_by=lambda p: p[0],
    )
)
# a subnormal value whose edge slopes underflow to a tie
@example(points=[(0, 0.0), (1, 0.0), (-2, -5e-324)])
def test_hypothesis_hull_matches_oracle(points):
    pts = sorted(points)
    ys = np.array([p[0] for p in pts], dtype=float)
    vs = np.array([p[1] for p in pts], dtype=float)
    cm = upper_concave_majorant(np.column_stack([ys, vs]))
    # hull of the hull is the hull
    cm2 = upper_concave_majorant(np.column_stack([cm.ys, cm.vs]))
    assert np.array_equal(cm2.ys, cm.ys)
    # dominance at every input point
    for y, v in zip(ys, vs):
        val, _, _ = query(cm, y)
        assert val >= v - 1e-9 * (1 + abs(v))
    assert np.all(np.diff(cm.s[1:-1]) < 0)


def _shifted(path, t=1.0):
    """Grid and shifted potential at t, the cloud solve() hands the hull."""
    ys = path.grid.points()
    return ys, path.values - ys * ys / (2.0 * t)


def noisy_step(delta: float, past: bool = False, n: int = 65537):
    """A downward step of delta at 0 plus Brownian noise of sigma 1e-3,
    shifted at t = 1: the cloud of a regen step path's hull, or with
    ``past`` its part on [0, i0), the cloud of the R scan's filter hull."""
    grid = GridSpec(16.0, n)
    noise = sample_path(LevyParams.brownian(1e-3), grid, 1).values
    ys, vs = _shifted(jump_down(grid, delta))
    end = grid.zero_index if past else n
    return ys[:end], (vs + noise)[:end]


NOISY_INPUTS = {
    "step0.5": lambda: noisy_step(0.5),
    "step0.5-past": lambda: noisy_step(0.5, past=True),
    "step4.5": lambda: noisy_step(4.5),
    "step4.5-past": lambda: noisy_step(4.5, past=True),
    "sigma1e-3": lambda: _shifted(
        sample_path(LevyParams.brownian(1e-3), GridSpec(16.0, 16385), 1)
    ),
}


LEVY_FAMILIES = {
    "brownian": LevyParams.brownian(1.0),
    "stable1.5": LevyParams.stable(1.5, 0.0, 1.0),
    "stable0.75": LevyParams.stable(0.75, 0.0, 1.0),
    "cauchy": LevyParams.cauchy(1.0),
}


def assert_matches_reference(ys, vs):
    """The chord filter keeps every vertex of the per-point chain, and the
    hull returns exactly that chain's indices."""
    ref = reference_chain(ys, vs)
    assert np.isin(ref, hull._chord_filter(ys, vs)).all()
    cm = upper_concave_majorant(np.column_stack([ys, vs]))
    assert np.array_equal(cm.indices, ref)
    return cm


class TestMatchesMonotoneChain:
    """The vectorized hull returns exactly the vertex indices of the
    per-point monotone chain on the inputs the solver sees."""

    @pytest.mark.parametrize("n", [4097, 65537])
    @pytest.mark.parametrize("family", sorted(LEVY_FAMILIES))
    def test_levy_families(self, family, n):
        grid = GridSpec(16.0, n)
        for seed in (1, 2):
            path = sample_path(LEVY_FAMILIES[family], grid, seed)
            assert_matches_reference(*_shifted(path))

    def test_near_flat_brownian(self):
        grid = GridSpec(16.0, 16385)
        for seed in range(3):
            path = sample_path(LevyParams.brownian(1e-3), grid, seed)
            assert_matches_reference(*_shifted(path))

    @pytest.mark.parametrize("past", [False, True], ids=["grid", "past"])
    @pytest.mark.parametrize("delta", [0.5, 4.5])
    def test_noisy_step(self, delta, past):
        """A regen step path's hull on the whole grid, and on [0, i0), the
        R scan's filter hull: thousands of survivors, half of them flagged."""
        assert_matches_reference(*noisy_step(delta, past))

    @pytest.mark.parametrize("fixture", [zero_path, jump_up, jump_down])
    def test_fixtures(self, fixture):
        grid = GridSpec(16.0, 16385)
        cm = assert_matches_reference(*_shifted(fixture(grid)))
        if fixture is zero_path:
            assert len(cm) == grid.n

    @pytest.mark.parametrize("n", [4097, 65537])
    def test_one_spike_parabola(self, n):
        """A spike on a parabola: each filter level drops only the two
        points next to the spike's shadow, the slowest input for a filter
        that repeats a level until nothing drops."""
        assert_matches_reference(*spiked_parabola(n, 1))

    @pytest.mark.parametrize("delta", [0.5, 4.5])
    def test_step_parabola(self, delta):
        assert_matches_reference(*step_parabola(4097, delta))

    @pytest.mark.parametrize("spikes", [5, 40])
    def test_spiked_parabola(self, spikes):
        assert_matches_reference(*spiked_parabola(4097, spikes))

    @pytest.mark.parametrize("t", [1e-3, 1.0, 1e3])
    def test_compound_poisson(self, t):
        assert_matches_reference(*_compound_poisson(4097, t))

    @pytest.mark.parametrize("family", ["cauchy", "stable1.5"])
    def test_small_t(self, family):
        path = sample_path(LEVY_FAMILIES[family], GridSpec(16.0, 4097), 1)
        assert_matches_reference(*_shifted(path, 1e-6))

    @pytest.mark.parametrize(
        "ys, vs",
        [
            (np.linspace(0.0, 1.0, 1001), 0.1 * np.linspace(0.0, 1.0, 1001) + 3.0),
            (np.linspace(-3.0, 7.0, 4097), np.pi * np.linspace(-3.0, 7.0, 4097) - 1 / 3),
            (
                np.linspace(-16.0, 16.0, 4097),
                0.7 * np.linspace(-16.0, 16.0, 4097)
                + 1e-15 * np.random.default_rng(0).standard_normal(4097),
            ),
        ],
        ids=["rounded-line", "rounded-steep-line", "line-with-noise"],
    )
    def test_chain_fallback(self, ys, vs):
        """Rounded lines leave candidate triples within rounding of
        collinear, so the final check flags them and the chain pass over
        the candidates decides."""
        cand = hull._quickhull(ys, vs, hull._chord_filter(ys, vs))
        cy, cv = ys[cand], vs[cand]
        assert hull._pops(cy[:-2], cv[:-2], cy[1:-1], cv[1:-1], cy[2:], cv[2:]).any()
        cm = upper_concave_majorant(np.column_stack([ys, vs]))
        assert np.array_equal(cm.indices, reference_chain(ys, vs))


class TestCertifiedFilter:
    """The check on the chord filter's survivors certifies them as the
    chain when no triple pops, the bulk chain runs to the end when few
    pop, and QuickHull runs only when many pop.  The filter's rounds drop
    enough of a noisy or Levy path that one check settles it."""

    @pytest.mark.parametrize("t", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("source", ["zero", "sigma1e-12"])
    def test_all_vertex_inputs_skip_quickhull(self, source, t, monkeypatch):
        grid = GridSpec(16.0, 16385)
        if source == "zero":
            path = zero_path(grid)
        else:
            path = sample_path(LevyParams.brownian(1e-12), grid, 1)

        def refuse(*args):
            raise AssertionError("QuickHull ran on a certified chain")

        monkeypatch.setattr(hull, "_quickhull", refuse)
        cm = assert_matches_reference(*_shifted(path, t))
        assert len(cm) == grid.n

    @pytest.mark.parametrize("t", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("fixture", [jump_up, jump_down])
    def test_jump_fixtures_skip_quickhull(self, fixture, t, monkeypatch):
        """A step leaves one flagged survivor triple, and the bulk chain
        settles it without QuickHull, also at t = 1e3, where the stretch
        it searches after the step is half the grid."""

        def refuse(*args):
            raise AssertionError("QuickHull ran on a one-flag input")

        monkeypatch.setattr(hull, "_quickhull", refuse)
        assert_matches_reference(*_shifted(fixture(GridSpec(16.0, 16385)), t))

    @pytest.mark.parametrize("source", sorted(NOISY_INPUTS))
    def test_noisy_inputs_skip_quickhull(self, source, monkeypatch):
        """Noisy paths drop about half of their points at each round's
        first level: the filter restarts at spacing 1 until a round drops
        few, and a last level at spacing 1 leaves at most a few flags,
        which the bulk chain settles."""

        def refuse(*args):
            raise AssertionError("QuickHull ran on a noisy path")

        monkeypatch.setattr(hull, "_quickhull", refuse)
        assert_matches_reference(*NOISY_INPUTS[source]())

    @pytest.mark.parametrize("source", sorted(LEVY_FAMILIES) + sorted(NOISY_INPUTS))
    def test_rough_inputs_check_once(self, source, monkeypatch):
        """A Levy path at n = 65537 and a noisy path leave the filter's
        rounds with a list that one check routes to the chain pass or the
        bulk chain, so QuickHull and its second check never run on the
        full-resolution list.  A Levy path at n = 65537 also builds the
        chain of its block maxima first, whose list the same stages
        settle with at most one check of their own."""
        calls = []  # (filter calls so far, length) per check
        check = hull._check
        filters = _filter_calls(monkeypatch)

        def counted(ys, vs):
            calls.append((len(filters), len(ys)))
            return check(ys, vs)

        monkeypatch.setattr(hull, "_check", counted)
        if source in LEVY_FAMILIES:
            path = sample_path(LEVY_FAMILIES[source], GridSpec(16.0, 65537), 1)
            ys, vs = _shifted(path)
        else:
            ys, vs = NOISY_INPUTS[source]()
        cm = upper_concave_majorant(np.column_stack([ys, vs]))
        assert np.array_equal(cm.indices, reference_chain(ys, vs))
        full = [c for c in calls if c[0] == len(filters)]
        coarse = [c for c in calls if c[0] < len(filters)]
        assert len(full) == 1 and len(coarse) <= 1, (filters, calls)

    @pytest.mark.parametrize("n", [4097, 65537])
    def test_one_spike_parabola_skips_quickhull(self, n, monkeypatch):
        """One spike leaves two flagged triples, and its tangents reach
        across most of the list; the bulk chain settles it without
        QuickHull."""

        def refuse(*args):
            raise AssertionError("QuickHull ran on a two-flag input")

        monkeypatch.setattr(hull, "_quickhull", refuse)
        assert_matches_reference(*spiked_parabola(n, 1))

    def test_quiet_level_ends_the_filter(self, monkeypatch):
        """A level that drops at most one point in _FEW_FLAGS of its list
        ends the filter.  Near-flat inputs drop at most one point at the
        first level, so no level runs at a spacing of 2 or more; a Lévy
        path and the noisy inputs drop about half of their points there,
        so the filter goes on."""
        spacings = []
        orient = hull._orient

        def recorded(ys, vs, k, *args):
            spacings.append(k)
            return orient(ys, vs, k, *args)

        monkeypatch.setattr(hull, "_orient", recorded)
        grid = GridSpec(16.0, 16385)
        flat = {
            "zero": zero_path(grid),
            "sigma1e-12": sample_path(LevyParams.brownian(1e-12), grid, 1),
            "jump_up": jump_up(grid),
            "jump_down": jump_down(grid),
        }
        for name, path in flat.items():
            for t in (1e-3, 1.0, 1e3):
                spacings.clear()
                ys, vs = _shifted(path, t)
                cm = upper_concave_majorant(np.column_stack([ys, vs]))
                assert max(spacings) < 2, (name, t)
                assert np.array_equal(cm.indices, reference_chain(ys, vs)), (name, t)
        levy_path = sample_path(LEVY_FAMILIES["brownian"], GridSpec(16.0, 65537), 1)
        rough = {"brownian_n65537": lambda: _shifted(levy_path), **NOISY_INPUTS}
        for name, source in rough.items():
            spacings.clear()
            upper_concave_majorant(np.column_stack(source()))
            assert max(spacings) >= 2, name

    @pytest.mark.parametrize("spikes", [5])
    def test_spiked_parabolas_reach_quickhull(self, spikes, monkeypatch):
        """Five spikes flag too many triples to start the bulk chain, so
        QuickHull runs once, on the survivors."""
        calls = []
        quickhull = hull._quickhull

        def refuse(*args):
            raise AssertionError("the bulk chain ran on a many-flag input")

        def counted(ys, vs, idx):
            calls.append(idx)
            return quickhull(ys, vs, idx)

        monkeypatch.setattr(hull, "_bulk_chain", refuse)
        monkeypatch.setattr(hull, "_quickhull", counted)
        ys, vs = spiked_parabola(4097, spikes)
        assert_matches_reference(ys, vs)
        assert len(calls) == 1 and np.array_equal(calls[0], hull._chord_filter(ys, vs))


def _filter_calls(monkeypatch) -> list:
    """The lengths of the lists handed to hull._chord_filter from now on."""
    calls = []
    chord_filter = hull._chord_filter

    def counted(ys, vs):
        calls.append(len(ys))
        return chord_filter(ys, vs)

    monkeypatch.setattr(hull, "_chord_filter", counted)
    return calls


def _levy_shifted(family: str, seed: int, n: int = 65537):
    return _shifted(sample_path(LEVY_FAMILIES[family], GridSpec(16.0, n), seed))


class TestBlockPrune:
    """On inputs of at least 2 * FILTER_BLOCK points whose block maxima
    are rough, whole blocks under the chain of the block maxima are thrown
    away before the chord filter runs at full resolution; smooth and
    near-flat inputs are turned away by the gate and run the filter over
    every point."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("family", sorted(LEVY_FAMILIES))
    def test_levy_paths_filter_few_points(self, family, seed, monkeypatch):
        """The four Levy families at n = 65537, the sweep benchmark's
        paths: the full-resolution filter gets at most n / 8 points, after
        one coarse filter call over the block maxima and the tail."""
        ys, vs = _levy_shifted(family, seed)
        calls = _filter_calls(monkeypatch)
        cm = upper_concave_majorant(np.column_stack([ys, vs]))
        assert np.array_equal(cm.indices, reference_chain(ys, vs))
        n = len(ys)
        assert len(calls) == 2, calls
        assert calls[0] == (n - 1) // hull._BLOCK + 1
        assert calls[1] <= n // 8, calls

    @pytest.mark.parametrize(
        "source",
        sorted(NOISY_INPUTS)
        + [f"spike{k}" for k in (1, 5, 40)]
        + [
            f"{f.__name__}_t{t:g}"
            for f in (zero_path, jump_up, jump_down)
            for t in (1e-3, 1.0, 1e3)
        ],
    )
    def test_gate_turns_smooth_inputs_away(self, source, monkeypatch):
        """Noisy steps, whose block maxima lie on a parabola but for one
        step, spiked parabolas and the fixtures on a 65537-point grid build
        no coarse chain: the filter runs once, over every point."""
        if source in NOISY_INPUTS:
            ys, vs = NOISY_INPUTS[source]()
        elif source.startswith("spike"):
            ys, vs = spiked_parabola(65537, int(source[5:]))
        else:
            name, t = source.rsplit("_t", 1)
            fixtures = {f.__name__: f for f in (zero_path, jump_up, jump_down)}
            ys, vs = _shifted(fixtures[name](GridSpec(16.0, 65537)), float(t))
        calls = _filter_calls(monkeypatch)
        cm = upper_concave_majorant(np.column_stack([ys, vs]))
        assert calls == [len(ys)]
        assert np.array_equal(cm.indices, reference_chain(ys, vs))

    def test_scaled_input(self, monkeypatch):
        """A Levy path whose axes need the power-of-two scale: the stage
        runs on the scaled columns and returns the reference indices,
        which the exact scale leaves as they are."""
        ys, vs = _levy_shifted("cauchy", 1)
        calls = _filter_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cm = upper_concave_majorant(np.column_stack([np.ldexp(ys, 600), np.ldexp(vs, 500)]))
        assert len(calls) == 2
        assert np.array_equal(cm.indices, reference_chain(ys, vs))

    def test_flushed_abscissae_raise(self):
        """A Levy path whose scale sends its three tiny y's to 0 is refused
        before the stage, as on a short input."""
        ys, vs = _levy_shifted("brownian", 1)
        ys = np.concatenate([[1e-300, 2e-300, 3e-300], 1e199 * (ys[3:] + 17.0)])
        vs = vs.copy()
        vs[-1] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="coordinate range"):
                upper_concave_majorant(np.column_stack([ys, vs]))

    def test_coarse_slope_overflow_falls_back(self, monkeypatch):
        """Block 1's maximum sits 1e-300 right of block 0's maximum and
        1e10 above it, so the coarse chain's first edge slope overflows.  The
        stage turns the input away after its coarse chain, and the full
        route finds the chain, whose first edge runs from point 0."""
        ys, vs = _levy_shifted("brownian", 1)
        ys = np.ldexp(np.arange(len(ys)) - 64.0, -11)
        ys[63] = -1e-300
        vs = vs.copy()
        vs[63], vs[64] = vs.max() + 1.0, vs.max() + 1e10
        calls = _filter_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cm = upper_concave_majorant(np.column_stack([ys, vs]))
            with np.errstate(over="ignore"):
                assert hull._block_prune(ys, vs) is None
        assert calls[:2] == [(len(ys) - 1) // hull._BLOCK + 1, len(ys)]
        assert np.array_equal(cm.indices, reference_chain(ys, vs))

    def test_chain_slope_overflow_raises(self, monkeypatch):
        """Points 0, 1e-300 and 2e-300 rise by 1e10 and 1.5e10 and start
        the chain, whose first edge slope overflows; the coarse chain
        starts at block 0's maximum, point 2, so the stage runs, keeps
        block 0, and the full route raises."""
        ys, vs = _levy_shifted("stable1.5", 1)
        ys = ys - ys[0]
        ys[1:3] = 1e-300, 2e-300
        vs = vs.copy()
        vs[0:3] = 0.0, 1e10, 1.5e10
        calls = _filter_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="slope overflows"):
                upper_concave_majorant(np.column_stack([ys, vs]))
        assert len(calls) == 2 and calls[1] < len(ys) // 8, calls


def _bulk_chain(ys, vs, first_chunk=hull._FIRST_CHUNK):
    """hull._bulk_chain on sorted points, its searches starting with
    chunks of first_chunk points."""
    with mock.patch.object(hull, "_FIRST_CHUNK", first_chunk), np.errstate(over="ignore"):
        return hull._bulk_chain(ys, vs, hull._check(ys, vs))


def _compound_poisson(n: int, t: float = 1.0):
    params = LevyParams.compound_poisson(1.0, JumpDist("normal", 0.0, 1.0))
    return _shifted(sample_path(params, GridSpec(16.0, n), 1), t)


DEFECT_INPUTS = {
    "jump_up": lambda: _shifted(jump_up(GridSpec(16.0, 4097))),
    "jump_down": lambda: _shifted(jump_down(GridSpec(16.0, 4097))),
    "step0.5": lambda: step_parabola(4097, 0.5),
    "step4.5": lambda: step_parabola(4097, 4.5),
    "spike1": lambda: spiked_parabola(4097, 1),
    "spike5": lambda: spiked_parabola(4097, 5),
    "cpoisson": lambda: _compound_poisson(4097),
}


class TestBulkChain:
    """The bulk chain returns _chain over the same points, index for
    index."""

    @pytest.mark.parametrize("first_chunk", [1, 32])
    @pytest.mark.parametrize("name", sorted(DEFECT_INPUTS))
    def test_equals_chain_over_survivors(self, name, first_chunk):
        ys, vs = DEFECT_INPUTS[name]()
        idx = hull._chord_filter(ys, vs)
        cy, cv = ys[idx], vs[idx]
        chain = _bulk_chain(cy, cv, first_chunk)
        assert chain.tolist() == hull._chain(cy.tolist(), cv.tolist())


DEFECT_PARABOLAS = dict(
    n=st.integers(min_value=3, max_value=400),
    log_t=st.floats(min_value=-2.0, max_value=3.0),
    defects=st.lists(
        st.tuples(
            st.sampled_from(["step", "spike", "dent"]),
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=-4.0, max_value=2.0),
        ),
        min_size=1,
        max_size=4,
    ),
)


def defect_parabola(n, log_t, defects):
    """A parabola chain with injected steps, spikes or dents."""
    ys = np.linspace(-4.0, 4.0, n)
    vs = -ys * ys / (2 * 10.0**log_t)
    for kind, where, log_size in defects:
        k = min(int(where * n), n - 1)
        size = 10.0**log_size
        if kind == "step":
            vs[k:] -= size
        else:
            vs[k] += size if kind == "spike" else -size
    return ys, vs


@settings(max_examples=80, deadline=None)
@given(**DEFECT_PARABOLAS, first_chunk=st.sampled_from([1, 2, 32]))
def test_hypothesis_bulk_chain_matches_chain(n, log_t, defects, first_chunk):
    """Parabola chains with 1-4 injected steps, spikes or dents: the bulk
    chain over every point equals _chain, and the hull equals the
    per-point reference chain."""
    ys, vs = defect_parabola(n, log_t, defects)
    chain = _bulk_chain(ys, vs, first_chunk)
    assert chain.tolist() == hull._chain(ys.tolist(), vs.tolist())
    cm = upper_concave_majorant(np.column_stack([ys, vs]))
    assert np.array_equal(cm.indices, reference_chain(ys, vs))


@settings(max_examples=80, deadline=None)
@given(**DEFECT_PARABOLAS, sigma=st.sampled_from([0.0, 1e-9, 1e-3]))
def test_hypothesis_rounds_keep_every_vertex(n, log_t, defects, sigma):
    """The same chains, optionally noisy, with no list short enough to
    end the filter: its rounds keep every vertex of the reference chain,
    and the hull equals that chain.  The usual share restarts after a
    round whose first level drops one point in 8; a huge one after any
    drop there, and a share of 1 never."""
    ys, vs = defect_parabola(n, log_t, defects)
    vs += sigma * np.random.default_rng(n).standard_normal(n)
    ref = reference_chain(ys, vs)
    for share in (hull._ROUND_SHARE, 2**40, 1):
        with mock.patch.multiple(hull, _CHAIN_POINTS=-1, _ROUND_SHARE=share):
            assert np.isin(ref, hull._chord_filter(ys, vs)).all()
            cm = upper_concave_majorant(np.column_stack([ys, vs]))
        assert np.array_equal(cm.indices, ref)


@settings(max_examples=80, deadline=None)
@given(
    **DEFECT_PARABOLAS,
    sigma=st.sampled_from([0.0, 1e-9, 1e-3]),
    block=st.sampled_from([1, 3, 8]),
)
def test_hypothesis_block_prune_keeps_every_vertex(n, log_t, defects, sigma, block):
    """The same chains, optionally noisy, with blocks of 1, 3 or 8 points
    and the stage run from 32 points on with its gate held open (the gate
    still runs): the kept list holds every vertex of the reference chain,
    and the hull equals that chain."""
    ys, vs = defect_parabola(n, log_t, defects)
    vs += sigma * np.random.default_rng(n).standard_normal(n)
    ref = reference_chain(ys, vs)
    gate = hull._gate_share

    def opened(*args):
        return 1.0 + gate(*args)

    with mock.patch.multiple(hull, FILTER_BLOCK=16, _BLOCK=block, _gate_share=opened):
        with np.errstate(over="ignore"):
            kept = hull._block_prune(ys, vs)
        cm = upper_concave_majorant(np.column_stack([ys, vs]))
    if n >= 32:
        assert np.isin(ref, kept).all()
    else:
        assert kept is None
    assert np.array_equal(cm.indices, ref)


def test_peak_memory_bounded():
    """One hull at n = 65537, given the column view solve() passes, peaks
    under 2 MiB of traced allocations: the filter works in blocks and on
    its survivors, never in full-n float scratch arrays (each 512 KiB)."""
    ys, vs = _shifted(sample_path(LEVY_FAMILIES["stable1.5"], GridSpec(16.0, 65537), 1))
    pts = np.array([ys, vs]).T
    upper_concave_majorant(pts)
    tracemalloc.start()
    try:
        upper_concave_majorant(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
