"""Two-sided Levy potential paths on a uniform grid.

The initial potential of the flow is a two-sided process psi0 with
stationary independent increments and psi0(0) = 0.  This module samples
such paths on a uniform grid symmetric about the origin, classifies the
supported families (regularity flags used downstream), and provides a
Monte Carlo diagnostic for the abrupt/eroded integral criterion.

A path is one array of values, written once: each side of 0 is summed in
place from its own increment stream, and its jumps are tagged from that
side's raw increments, with sizes read back from the values.  The two
sides are independent, so on a long path (at least _PARALLEL_SIDE
increments a side) one worker thread draws the right side while the
caller draws the left.  The bytes do not change: each side has its own
stream and writes its own slice of the values, and its operations and
their order are those of the serial draw.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import sys
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import GridError, InputError, ParameterError
from .hull import read_only

FAMILIES = ("brownian", "stable", "cpoisson")

# Stable increments larger than this many step-scale units are tagged as
# macroscopic jumps; separates jumps from bulk noise at desk scale.
JUMP_THRESHOLD_SCALES = 6.0

# Largest mean numpy's Poisson sampler accepts (its own bound).
POISSON_LAM_MAX = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10

# Largest float64 array numpy can address; more jump sizes are never drawn.
MAX_FLOAT64_ITEMS = np.iinfo(np.intp).max // 8

# Sides of at least this many increments are drawn on two threads.  On a
# 2-core host a Cauchy path with 8192 a side took 0.24 ms either way, as
# handing a side to the worker cost what the overlap saved; with 16384 a
# side every family took 0.56-0.67 of its serial time.
_PARALLEL_SIDE = 16384

# Quadrature resolution of the integral diagnostic (the integrand varies
# on log scale).
NODES_PER_DECADE = 40


@dataclass(frozen=True)
class GridSpec:
    """Uniform Lagrangian grid on [-L, L] with an odd number n >= 3 of points.

    Grid points are y_i = (i - zero_index) * h with zero_index = (n - 1) // 2
    and h = 2L / (n - 1), so 0 is exactly the middle grid point.
    """

    L: float
    n: int

    def __post_init__(self):
        try:
            operator.index(self.n)
        except TypeError:
            raise GridError(f"the grid point count must be an integer, got n={self.n!r}") from None
        if self.n < 3 or self.n % 2 == 0:
            raise GridError(f"need an odd number n >= 3 of grid points, got n={self.n}")
        if self.n > MAX_FLOAT64_ITEMS:
            raise GridError(f"need n <= {MAX_FLOAT64_ITEMS}, the most a float64 array holds")
        # compared exactly, so an int L too large for a float fails here too
        if not 0.0 < self.L <= sys.float_info.max / 2:
            raise GridError(f"half-width L must be > 0 with 2L finite, got L={self.L}")
        if self.h == 0.0:
            raise GridError(f"step 2L/(n - 1) underflows to 0 for L={self.L}, n={self.n}")

    @property
    def h(self) -> float:
        return 2 * self.L / (self.n - 1)

    @property
    def zero_index(self) -> int:
        return (self.n - 1) // 2

    def points(self) -> np.ndarray:
        """Grid points, anchored so that points()[zero_index] == 0.0 exactly.

        Built once per grid; the array is read-only."""
        return self._points

    @functools.cached_property
    def _points(self) -> np.ndarray:
        i0 = self.zero_index
        pts = _grid_floats(self, lambda: np.arange(-i0, self.n - i0, dtype=float))
        pts *= self.h
        pts.flags.writeable = False
        return pts

    @classmethod
    def symmetric(cls, L: float, n: int) -> "GridSpec":
        """GridSpec(L, n), the grid [-L, L] with n points."""
        return cls(L, n)


def _grid_floats(grid: GridSpec, make: Callable[[], np.ndarray]) -> np.ndarray:
    """make(), an array of grid.n floats; GridError where numpy refuses that
    size (a MemoryError, or np.arange's ValueError "array is too big"),
    which GridSpec cannot check: it depends on the memory at hand."""
    try:
        return make()
    except (MemoryError, ValueError) as exc:
        raise GridError(f"n={grid.n} grid points are more than memory holds") from exc


@dataclass(frozen=True)
class JumpDist:
    """Jump-size law for the compound Poisson family.

    kind "normal": mean a, std b; "uniform": on [a, b]; "fixed": constant a.
    """

    kind: str
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if self.kind not in ("normal", "uniform", "fixed"):
            raise ParameterError(f"unknown jump-size kind {self.kind!r}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ParameterError("jump law parameters must be finite")
        if self.kind == "normal" and self.b < 0:
            raise ParameterError("normal jump std must be >= 0")
        if self.kind == "uniform" and not self.a < self.b:
            raise ParameterError("uniform jump law needs a < b")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "normal":
            return rng.normal(self.a, self.b, size)
        if self.kind == "uniform":
            return rng.uniform(self.a, self.b, size)
        return np.full(size, self.a)


@dataclass(frozen=True)
class LevyParams:
    """Parameters of the potential process; drift is fixed to 0 throughout.

    Families: brownian (sigma >= 0), stable (alpha in (1/2, 2], beta in
    [-1, 1], scale > 0) and cpoisson (rate > 0 plus a jump-size law).
    Cauchy noise is the stable law with alpha = 1, beta = 0.
    """

    family: str
    sigma: float = 1.0
    alpha: float = 1.5
    beta: float = 0.0
    scale: float = 1.0
    rate: float = 1.0
    jump_dist: JumpDist | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown family {self.family!r}")
        if self.family == "brownian":
            if not 0.0 <= self.sigma < math.inf:
                raise ParameterError("sigma must be finite and >= 0")
        elif self.family == "stable":
            _check_stable(self.alpha, self.beta, self.scale)
        else:
            if not 0.0 < self.rate < math.inf:
                raise ParameterError("compound Poisson rate must be finite and > 0")
            if self.jump_dist is None:
                raise ParameterError("compound Poisson needs a jump-size law")

    @classmethod
    def brownian(cls, sigma: float) -> "LevyParams":
        return cls(family="brownian", sigma=sigma)

    @classmethod
    def stable(cls, alpha: float, beta: float, scale: float = 1.0) -> "LevyParams":
        return cls(family="stable", alpha=alpha, beta=beta, scale=scale)

    @classmethod
    def cauchy(cls, scale: float = 1.0) -> "LevyParams":
        """Symmetric Cauchy noise, the stable law with alpha = 1, beta = 0."""
        return cls.stable(1.0, 0.0, scale)

    @classmethod
    def compound_poisson(cls, rate: float, jump_dist: JumpDist) -> "LevyParams":
        return cls(family="cpoisson", rate=rate, jump_dist=jump_dist)


class PropertyFlags(NamedTuple):
    """Regularity flags of a family, from the lookup table in classify()."""

    bounded_variation: bool
    abrupt: bool
    eroded: bool
    hyp_A: bool
    hyp_B: bool
    assumption_B: str  # "assumed" | "not_applicable" | "unknown"


# Record of one tracked jump; ``.tolist()`` gives (int, float) pairs.
JUMP_DTYPE = np.dtype([("index", np.intp), ("size", np.float64)])


def jump_array(index, size) -> np.ndarray:
    """Tracked jumps from their grid indices and signed sizes."""
    jumps = np.empty(len(index), JUMP_DTYPE)
    jumps["index"] = index
    jumps["size"] = size
    return jumps


@dataclass(frozen=True)
class LevyPath:
    """Discretized two-sided potential path.

    ``values[i]`` is psi0 at ``grid.points()[i]``: one finite float per
    grid point, checked here, so every solver may rely on it.
    ``tracked_jumps`` is a JUMP_DTYPE array with one (grid index, signed
    size) record per increment tagged as a jump, the index being the first
    grid point whose value includes the jump.  Sizes are finite and
    indices strictly increasing in [0, n - 1], checked here; an empty
    sequence stands for no jumps.  Both arrays are read-only.
    """

    grid: GridSpec
    values: np.ndarray
    tracked_jumps: np.ndarray
    params: LevyParams | None
    seed: int | None

    def __post_init__(self):
        shape = np.shape(self.values)
        if shape != (self.grid.n,):
            raise InputError(f"need one value per grid point, shape ({self.grid.n},); got {shape}")
        if not np.isfinite(self.values).all():
            raise InputError("path values must be finite")
        jumps = np.asarray(self.tracked_jumps)
        if jumps.shape == (0,):
            jumps = np.empty(0, JUMP_DTYPE)
        if jumps.dtype != JUMP_DTYPE or jumps.ndim != 1:
            raise InputError(
                f"tracked jumps must be a 1-d JUMP_DTYPE array, got {jumps.dtype} "
                f"of shape {jumps.shape}"
            )
        if not np.isfinite(jumps["size"]).all():
            raise InputError("tracked jump sizes must be finite")
        idx = jumps["index"]
        if len(idx) and not (
            idx[0] >= 0 and idx[-1] < self.grid.n and (idx[1:] > idx[:-1]).all()
        ):
            raise InputError(
                f"tracked jump indices must strictly increase within [0, {self.grid.n - 1}]"
            )
        object.__setattr__(self, "values", read_only(self.values))
        object.__setattr__(self, "tracked_jumps", read_only(jumps))


def _check_stable(alpha: float, beta: float, c: float) -> None:
    if not 0.5 < alpha <= 2.0:
        raise ParameterError(f"alpha must lie in (1/2, 2], got {alpha}")
    if not -1.0 <= beta <= 1.0:
        raise ParameterError(f"beta must lie in [-1, 1], got {beta}")
    if not 0.0 < c < math.inf:
        raise ParameterError(f"scale must be finite and > 0, got {c}")
    if alpha == 1.0 and beta != 0.0:
        # asymmetric alpha=1 needs a centering drift, excluded by the
        # zero-drift convention
        raise ParameterError("alpha == 1 is supported only with beta == 0")


def stable_increments(
    alpha: float,
    beta: float,
    c: float,
    h: float,
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``size`` increments with law S(alpha, beta, c*h^(1/alpha), 0).

    Chambers-Mallows-Stuck transform of one uniform and one exponential
    variate, in the 1-parametrization; alpha=2 reduces to Normal(0, 2c^2h).
    """
    _check_stable(alpha, beta, c)
    if h <= 0:
        raise ParameterError(f"step h must be > 0, got {h}")
    # checked before any draw: a float power raises OverflowError, a
    # product overflows to inf
    try:
        step = c * h ** (1.0 / alpha)
    except OverflowError:
        step = math.inf
    if not math.isfinite(step):
        raise ParameterError(
            f"the stable step scale c*h^(1/alpha) overflows float64 "
            f"(c={c:g}, h={h:g}, alpha={alpha:g}); shrink the scale or the step"
        )
    u = rng.uniform(-math.pi / 2, math.pi / 2, size)
    w = rng.standard_exponential(size)
    if alpha == 1.0:
        x = np.tan(u)
    else:
        # tan(pi*alpha/2) is 0 at alpha=2 up to rounding; pin it exactly
        t = 0.0 if alpha == 2.0 else beta * math.tan(math.pi * alpha / 2)
        b0 = math.atan(t) / alpha
        s0 = (1.0 + t * t) ** (1.0 / (2.0 * alpha))
        x = (
            s0
            * np.sin(alpha * (u + b0))
            / np.cos(u) ** (1.0 / alpha)
            * (np.cos(u - alpha * (u + b0)) / w) ** ((1.0 - alpha) / alpha)
        )
    return step * x


def _cell_increments(
    params: LevyParams, h: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """i.i.d. increments of the step-h law for one side of the path."""
    if params.family == "brownian":
        return rng.normal(0.0, params.sigma * math.sqrt(h), size)
    if params.family == "stable":
        return stable_increments(params.alpha, params.beta, params.scale, h, size, rng)
    # compound Poisson: jump times snapped to the owning cell, multiple
    # jumps in one cell summed
    lam = params.rate * h
    if lam > POISSON_LAM_MAX:
        raise ParameterError(
            f"compound Poisson rate {params.rate:g} means {lam:g} jumps per cell of "
            f"width {h:g}, above the sampler's limit {POISSON_LAM_MAX:g}"
        )
    counts = rng.poisson(lam, size)
    # a float sum, unlike the int64 one, cannot overflow
    n_jumps = float(counts.sum(dtype=float))
    too_many = (
        f"compound Poisson rate {params.rate:g} draws {n_jumps:g} jumps in {size} cells "
        f"of width {h:g}, more than memory holds"
    )
    if n_jumps > MAX_FLOAT64_ITEMS:
        raise ParameterError(too_many)
    sums = np.zeros(size)
    if n_jumps:
        try:
            sizes = params.jump_dist.sample(rng, int(counts.sum()))
            cells = np.repeat(np.arange(size), counts)
        except MemoryError as exc:
            raise ParameterError(too_many) from exc
        np.add.at(sums, cells, sizes)
    return sums


def _jump_cells(params: LevyParams, incr: np.ndarray, h: float) -> np.ndarray:
    """Positions in one side's raw increments ``incr`` that are tagged as
    jumps: stable increments above JUMP_THRESHOLD_SCALES step scales, every
    nonzero compound Poisson increment, and no Brownian one."""
    if params.family == "brownian":
        return np.empty(0, np.intp)
    if params.family == "stable":
        thr = JUMP_THRESHOLD_SCALES * params.scale * h ** (1.0 / params.alpha)
        return np.flatnonzero(np.abs(incr) > thr)
    return np.flatnonzero(incr != 0.0)


def _seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    """SeedSequence((seed, *key)), the seed masked to 64 bits; every stream
    starts here.  With no key it equals SeedSequence(seed), children too."""
    return np.random.SeedSequence((int(seed) & (2**64 - 1), *key))


def derived_seed(seed: int, *key: int) -> int:
    """64-bit seed of the stream keyed by (seed, *key), e.g. (seed, 0, replicate).

    Replicate streams are pure functions of their key, so replicates are
    order-independent.
    """
    return int(_seed_sequence(seed, *key).generate_state(1, dtype=np.uint64)[0])


# The one worker thread that draws a long path's right side, built on
# first use so that importing the package starts no thread.
_side_pool = None
_side_pool_lock = threading.Lock()


def _side_worker():
    global _side_pool
    with _side_pool_lock:
        if _side_pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _side_pool = ThreadPoolExecutor(1, thread_name_prefix="levyburgers-side")
        return _side_pool


def _forget_side_worker() -> None:
    # a forked child inherits the executor but not its thread, so work
    # handed to it would never run
    global _side_pool, _side_pool_lock
    _side_pool = None
    _side_pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_side_worker)


def _draw_side(
    params: LevyParams, h: float, seed: np.random.SeedSequence, out: np.ndarray
) -> np.ndarray:
    """Draw one side's increments from ``seed``, sum them into ``out`` and
    return the positions tagged as jumps (see _jump_cells)."""
    # errstate is per thread, so the worker sets it too; an overflow shows
    # as a non-finite value, checked once by the caller
    with np.errstate(over="ignore", invalid="ignore"):
        incr = _cell_increments(params, h, out.size, np.random.default_rng(seed))
        np.cumsum(incr, out=out)
    return _jump_cells(params, incr, h)


def _overflow_error(params: LevyParams) -> ParameterError:
    scale = {"brownian": "sigma", "stable": "scale"}.get(params.family, "jump law")
    return ParameterError(f"the {params.family} path overflows float64; shrink its {scale}")


def sample_path(params: LevyParams, grid: GridSpec, seed: int) -> LevyPath:
    """Sample psi0 on the grid; pure function of (params, grid, seed).

    The two sides of 0 use independent child streams of the seed, each
    drawing i0 = grid.zero_index i.i.d. step-h increments, so increments
    over every grid cell are i.i.d. with the step-h law and psi0(0) = 0.
    Each side is summed in place into ``values``: rightward from 0, and
    leftward from 0 and then negated.  Jumps are tagged from each side's
    own raw increments; the stored size is read back from ``values`` at
    the tagged cells only, so it equals the value difference bit for bit.

    With i0 >= _PARALLEL_SIDE (n >= 32769) a worker thread draws the
    right side while the caller draws the left; the values and jumps are
    the same bytes as when drawn one after the other, because the sides
    share no stream and no memory.  Errors come in the serial order: the
    right side's draw, then the left side's, then an overflow.
    """
    ss = _seed_sequence(seed)
    right_ss, left_ss = ss.spawn(2)
    i0 = grid.zero_index
    h = grid.h

    values = _grid_floats(grid, lambda: np.empty(grid.n))
    values[i0] = 0.0
    right = values[i0 + 1 :]
    # psi0(y) for y < 0 is minus the sum of the increments between y and 0;
    # left[k] sums the increments over cells i0 - 1 - k .. i0 - 1, and i0 >= 1
    left = values[i0 - 1 :: -1]
    if i0 < _PARALLEL_SIDE:
        jumps_r = _draw_side(params, h, right_ss, right)
        jumps_l = _draw_side(params, h, left_ss, left)
    else:
        future = _side_worker().submit(_draw_side, params, h, right_ss, right)
        try:
            jumps_l = _draw_side(params, h, left_ss, left)
        finally:
            # wait for the worker in any case; its error, like the right
            # side's in a serial draw, comes before the left side's
            jumps_r = future.result()
    np.negative(left, out=left)
    if not np.isfinite(values).all():
        raise _overflow_error(params)

    # right position k is cell i0 + k, left position k is cell i0 - 1 - k;
    # grid point c + 1 is the first to include the increment over cell c
    cells = np.concatenate([i0 - 1 - jumps_l[::-1], i0 + jumps_r])
    sizes = values[cells + 1] - values[cells]
    tagged = sizes != 0.0
    return LevyPath(
        grid=grid,
        values=values,
        tracked_jumps=jump_array(cells[tagged] + 1, sizes[tagged]),
        params=params,
        seed=ss.entropy[0],  # the masked seed
    )


def classify(params: LevyParams) -> PropertyFlags:
    """Regularity flags per family, by lookup (no numerical integration).

    Abrupt: unbounded variation with infinitely steep one-sided behavior
    at local maxima (stable alpha in (1, 2], nonzero Brownian component).
    Eroded: unbounded variation with flat one-sided behavior (symmetric
    Cauchy).  The small-time h^-2 oscillation condition holds for every
    unbounded-variation family and for two-sided stable laws with
    alpha < 1; one-sided stable laws (|beta| = 1, alpha < 1) are monotone
    near 0 and fail it.
    """
    fam = params.family
    if fam == "brownian":
        if params.sigma == 0.0:
            # degenerate flat path
            return PropertyFlags(True, False, False, True, False, "unknown")
        return PropertyFlags(False, True, False, True, True, "not_applicable")
    if fam == "stable":
        if params.alpha > 1.0:
            return PropertyFlags(False, True, False, True, True, "not_applicable")
        if params.alpha == 1.0:
            return PropertyFlags(False, False, True, True, True, "not_applicable")
        return PropertyFlags(True, False, False, True, abs(params.beta) < 1.0, "assumed")
    return PropertyFlags(True, False, False, True, False, "unknown")


def abruptness_integral_estimate(
    params: LevyParams,
    a: float,
    b: float,
    eps_list: list[float],
    n_mc: int,
    seed: int,
) -> list[tuple[float, float]]:
    """Monte Carlo estimate of I(eps) = int_eps^1 P{psi0(x) in [ax, bx]} dx/x.

    Log-spaced quadrature (NODES_PER_DECADE nodes per decade, trapezoid in
    log x) with P estimated from n_mc draws of psi0(x) at each node.  All
    requested eps values are inserted as exact nodes, so one shared draw
    sequence serves every row.  Returns one (eps, I_hat) row per eps; this
    is a trend diagnostic (bounded vs. growing as eps decreases), not a
    binary verdict.
    """
    if not a <= b:
        raise ParameterError("need a <= b")
    if not 1000 <= n_mc <= MAX_FLOAT64_ITEMS:
        raise ParameterError(f"need 1000 <= n_mc <= {MAX_FLOAT64_ITEMS}, got {n_mc}")
    eps_arr = [float(e) for e in eps_list]
    if not eps_arr:
        raise ParameterError("eps_list must be nonempty")
    if any(not 0.0 < e < 1.0 for e in eps_arr):
        raise ParameterError("every eps must lie in (0, 1)")
    if any(e2 >= e1 for e1, e2 in zip(eps_arr, eps_arr[1:])):
        raise ParameterError("eps_list must be strictly decreasing")

    eps_min = eps_arr[-1]
    n_dec = math.ceil(-math.log10(eps_min) * NODES_PER_DECADE)
    nodes = 10.0 ** (-np.arange(n_dec + 1) / NODES_PER_DECADE)
    nodes = np.sort(np.concatenate([nodes[nodes >= eps_min], eps_arr]))[::-1]
    nodes = nodes[np.diff(nodes, prepend=np.inf) < 0]  # each node once

    rng = np.random.default_rng(_seed_sequence(seed))
    prob = np.empty(nodes.size)
    for k, x in enumerate(nodes):
        # psi0(x) for x > 0 is one increment of the step-x law; an overflow
        # shows as a non-finite draw, which may have left [ax, bx] wrongly
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                draws = _cell_increments(params, float(x), n_mc, rng)
        except MemoryError as exc:
            raise ParameterError(f"n_mc={n_mc} draws are more than memory holds") from exc
        if not np.isfinite(draws).all():
            raise _overflow_error(params)
        prob[k] = np.mean((draws >= a * x) & (draws <= b * x))

    # cumulative trapezoid in u = ln x, integrating down from 1
    du = np.log(nodes[:-1]) - np.log(nodes[1:])
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (prob[:-1] + prob[1:]) * du)])
    out = []
    for e in eps_arr:
        k = int(np.flatnonzero(nodes == e)[0])
        out.append((e, float(cum[k])))
    return out
