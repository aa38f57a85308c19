"""Deterministic potential paths anchoring the closed-form tests."""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .levy import GridSpec, LevyPath, _grid_floats, jump_array


def zero_path(grid: GridSpec) -> LevyPath:
    """psi0 identically 0 (the sigma=0 degenerate case)."""
    return LevyPath(
        grid=grid,
        values=_grid_floats(grid, lambda: np.zeros(grid.n)),
        tracked_jumps=jump_array([], []),
        params=None,
        seed=None,
    )


def step_path(grid: GridSpec, delta: float, location: float = 0.0) -> LevyPath:
    """psi0(y) = delta * 1{y >= location}, with the jump tracked.

    ``location`` must be a grid point.  Note psi0(0) = delta when the jump
    sits at the origin; these are synthetic test paths, not Levy samples.
    """
    if not math.isfinite(delta):
        raise ParameterError(f"jump size must be finite, got {delta}")
    ys = grid.points()
    idx = int(np.searchsorted(ys, location))
    if idx >= grid.n or ys[idx] != location:
        raise ParameterError(f"jump location {location} is not a grid point")
    values = np.where(np.arange(grid.n) >= idx, float(delta), 0.0)
    return LevyPath(
        grid=grid,
        values=values,
        tracked_jumps=jump_array([idx], [delta]),
        params=None,
        seed=None,
    )


def jump_up(grid: GridSpec, delta: float = 0.5, location: float = 0.0) -> LevyPath:
    """Upward step fixture (a +delta jump at ``location``)."""
    if delta <= 0:
        raise ParameterError("jump_up needs delta > 0")
    return step_path(grid, delta, location)


def jump_down(grid: GridSpec, delta: float = 0.5, location: float = 0.0) -> LevyPath:
    """Downward step fixture (a -delta jump at ``location``)."""
    if delta <= 0:
        raise ParameterError("jump_down needs delta > 0")
    return step_path(grid, -delta, location)
