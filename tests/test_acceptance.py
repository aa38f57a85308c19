"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The statistical
criteria fix their protocols (grids, family scales, seed bases) here;
every expected value is either exact hand algebra on the step fixtures or
a property that must hold path by path.
"""

import time

import numpy as np
import pytest
from scipy.stats import kstest

from levyburgers import (
    GridSpec,
    LevyParams,
    WindowTooSmallError,
    abruptness_integral_estimate,
    contact_jump_signs,
    evaluate_solution,
    extract_shocks,
    independence_test,
    jump_down,
    jump_up,
    moreau_envelope,
    permutation_pvalue,
    prox_fixed_points,
    refinement_study,
    regen_report,
    rk_sequence,
    rst_scan,
    sample_path,
    sign_pattern,
    solve,
    solve_naive,
    zero_set_indices,
)
from conftest import derived_seed

# criterion-1 protocol: 50 paths each of the four families on [-8, 8],
# n = 4097, t = 1
GRID_C1 = GridSpec(8.0, 4097)
FAMILIES_C1 = [
    ("brownian", LevyParams.brownian(1.0)),
    ("stable15", LevyParams.stable(1.5, 0.0, 1.0)),
    ("stable075", LevyParams.stable(0.75, 0.0, 1.0)),
    ("cauchy", LevyParams.cauchy(1.0)),
]
N_PER_FAMILY = 50
N_QUERIES = 200

# regeneration protocols: scales chosen so the first zero-velocity point
# and its surroundings fit the grid at desk scale
GRID_REGEN = GridSpec(16.0, 8193)
REGEN_FAMILIES = [(LevyParams.stable(1.5, 0.0, 0.4), 40), (LevyParams.stable(0.75, 0.0, 0.1), 41)]

GRID_SIGN = GridSpec(8.0, 4097)
PARAMS_SIGN = LevyParams.stable(0.75, 0.0, 0.1)

GRID_JUMPSIGN = GridSpec(8.0, 8193)  # h = 2^-9, the finest of H_LIST
PARAMS_JUMPSIGN = LevyParams.stable(0.75, 0.0, 0.1)

PARAMS_INDEP = LevyParams.stable(1.5, 0.0, 0.2)

H_LIST = [2**-6, 2**-7, 2**-8, 2**-9]
L_REFINE = 16.0
WINDOW_REFINE = (1.0, 2.0)

_cache: dict = {}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _path_set():
    """The 200 solved paths shared by criteria 1, 2 and 11."""
    if "paths" not in _cache:
        t0 = time.monotonic()
        entries = []
        for fi, (name, par) in enumerate(FAMILIES_C1):
            for rep in range(N_PER_FAMILY):
                path = sample_path(par, GRID_C1, derived_seed(1, fi, rep))
                sol = solve(path, 1.0)
                rng = np.random.default_rng(derived_seed(2, fi, rep))
                lo, hi = sol.window
                xs = rng.uniform(lo, hi, N_QUERIES)
                entries.append((name, path, sol, xs))
        _cache["paths"] = entries
        _cache["build_seconds"] = time.monotonic() - t0
    return _cache["paths"]


def test_c01_oracle_equivalence():
    t0 = time.monotonic()
    entries = _path_set()
    mismatches = 0
    for _, path, sol, xs in entries:
        a_hull = np.array([evaluate_solution(sol, x).a for x in xs])
        a_naive = solve_naive(path, 1.0, xs)
        mismatches += int(np.count_nonzero(a_hull != a_naive))
    elapsed = time.monotonic() - t0 + _cache["build_seconds"]
    ok = mismatches == 0 and elapsed < 120.0
    _report(
        1,
        ok,
        f"hull a(x) == largest-argmax oracle at {len(entries) * N_QUERIES} queries, "
        f"mismatches={mismatches}, {elapsed:.1f}s (< 120s)",
    )


def test_c02_shock_velocity_double_identity():
    n_shocks = 0
    worst = 0.0
    for _, path, sol, _ in _path_set():
        for s in extract_shocks(sol).shocks:
            if s.boundary_affected:
                continue
            n_shocks += 1
            v_avg = 0.5 * ((s.x - s.a_minus) + (s.x - s.a_plus)) / sol.t
            dpsi = (
                path.values[np.searchsorted(path.grid.points(), s.a_plus)]
                - path.values[np.searchsorted(path.grid.points(), s.a_minus)]
            )
            v_mass = -dpsi / (s.a_plus - s.a_minus)
            tol = 1e-9 * (1 + abs(s.velocity))
            worst = max(worst, abs(s.velocity - v_avg), abs(s.velocity - v_mass))
            if abs(s.velocity - v_avg) > tol or abs(s.velocity - v_mass) > tol:
                _report(2, False, f"velocity identity broken at shock x={s.x}")
    _report(
        2,
        True,
        f"both velocity formulas agree on {n_shocks} shocks, worst |dv|={worst:.2e}",
    )


def test_c03_closed_form_fixtures():
    grid = GridSpec(4.0, 801)
    h = grid.h
    checks = []

    # ---- upward step of 1/2 at the origin
    path = jump_up(grid, 0.5)
    sol = solve(path, 1.0)
    rep = extract_shocks(sol)
    s = [x for x in rep.shocks if not x.boundary_affected]
    checks.append(("up: one shock", len(s) == 1))
    s = s[0]
    checks.append(("up: shock tuple", s.x == -1.0 and s.a_minus == -1.0
                   and s.a_plus == 0.0 and s.mass == 1.0))
    checks.append(("up: velocity exact", abs(s.velocity - (-0.5)) <= 1e-6))
    r0 = [r for r in rep.rarefactions if r.vertex_y == 0.0][0]
    checks.append(("up: rarefaction length 1", abs(r0.length - 1.0) <= 2 * h))
    for x, a_hand in [(-1.8, -1.8), (-0.4, 0.0), (0.9, 0.9)]:
        checks.append((f"up: a({x})", abs(evaluate_solution(sol, x).a - a_hand) <= 2 * h))
    zp = rep.zero_set
    pts = grid.points()
    lo, hi = sol.window
    w = pts[(pts >= lo) & (pts <= hi)]
    checks.append(("up: zero set", np.array_equal(
        zp, np.concatenate([w[w <= -1.0], w[w >= 0.0]]))))
    rr = regen_report(sol)
    checks.append(("up: R,S,T = 0", (rr.R, rr.S, rr.T_first) == (0.0, 0.0, 0.0)))
    checks.append(("up: rk", rr.rk == [0.0] and rr.rk_converged))

    # ---- downward step of 1/2 at the origin: structure sits at 1 - h
    path = jump_down(grid, 0.5)
    sol = solve(path, 1.0)
    rep = extract_shocks(sol)
    s = [x for x in rep.shocks if not x.boundary_affected]
    checks.append(("down: one shock", len(s) == 1))
    s = s[0]
    checks.append(("down: location", abs(s.x - 1.0) <= 2 * h))
    checks.append(("down: interval", abs(s.a_minus) <= 2 * h and abs(s.a_plus - 1.0) <= 2 * h))
    checks.append(("down: mass", abs(s.mass - 1.0) <= 2 * h))
    checks.append(("down: velocity exact", abs(s.velocity - 0.5) <= 1e-6))
    for x, a_hand in [(-1.5, -1.5), (0.5, 0.0), (1.5, 1.5)]:
        checks.append((f"down: a({x})", abs(evaluate_solution(sol, x).a - a_hand) <= 2 * h))
    ev = evaluate_solution(sol, float(s.x))
    checks.append(("down: one-sided u", abs(ev.u_minus - 1.0) <= 2 * h and abs(ev.u) <= 2 * h))
    rr = regen_report(sol)
    checks.append(("down: R=S=T near 1", rr.R == rr.S == rr.T_first
                   and abs(rr.R - 1.0) <= 2 * h))
    checks.append(("down: rk", rr.rk == [rr.R] and rr.rk_converged))

    bad = [name for name, ok in checks if not ok]
    _report(3, not bad, f"{len(checks)} fixture checks at h={h}" +
            (f"; failed: {bad}" if bad else ""))


def test_c04_s_equals_t_and_rk_termination():
    t0 = time.monotonic()
    n_found = n_paths = 0
    id_bad = rk_bad = 0
    for par, tag in REGEN_FAMILIES:
        for rep in range(500):
            n_paths += 1
            path = sample_path(par, GRID_REGEN, derived_seed(tag, rep))
            try:
                sol = solve(path, 1.0)
            except WindowTooSmallError:
                continue
            r = rst_scan(path, 1.0, sol)
            if r.R is None or r.S is None or r.T_first is None:
                continue
            n_found += 1
            if r.S != r.T_first:
                id_bad += 1
            walk = rk_sequence(path, 1.0, k_max=len(sol), r0=r.R)
            if not (walk.converged and walk.rk[-1] == r.T_first and walk.steps <= len(sol)):
                rk_bad += 1
    elapsed = time.monotonic() - t0
    found_rate = n_found / n_paths
    ok = id_bad == 0 and rk_bad == 0 and found_rate >= 0.95 and elapsed < 180.0
    _report(
        4,
        ok,
        f"S == T_first and r_k terminated at T on {n_found - id_bad - rk_bad}/{n_found} "
        f"found paths (found rate {found_rate:.1%}), {elapsed:.0f}s (< 180s)",
    )


def test_c05_sign_pattern():
    n_viol = wide = wide_both = 0
    h = GRID_SIGN.h
    for rep in range(500):
        path = sample_path(PARAMS_SIGN, GRID_SIGN, derived_seed(50, rep))
        try:
            sol = solve(path, 1.0)
        except WindowTooSmallError:
            continue
        sp = sign_pattern(sol)
        n_viol += len(sp.violations)
        for gs in sp.gap_stats:
            if gs.gap[1] - gs.gap[0] > 10 * h:
                wide += 1
                wide_both += int(gs.has_positive_phase and gs.has_negative_phase)
    rate = wide_both / max(wide, 1)
    ok = n_viol == 0 and rate >= 0.9 and wide > 100
    _report(
        5,
        ok,
        f"0 sign violations required, got {n_viol}; both phases in "
        f"{wide_both}/{wide} gaps wider than 10h ({rate:.1%} >= 90%)",
    )


def test_c06_abrupt_discreteness_trend():
    t0 = time.monotonic()
    rows = refinement_study(
        LevyParams.brownian(1.0), 1.0, L_REFINE, H_LIST, 50, seed=70, window=WINDOW_REFINE
    )
    _cache["refine_brownian"] = rows
    c_prev, c_fine = rows[-2].median_contacts, rows[-1].median_contacts
    rel = abs(c_fine - c_prev) / c_prev
    elapsed = time.monotonic() - t0
    ok = rel < 0.25 and elapsed < 300.0
    _report(
        6,
        ok,
        f"median contacts in [1,2]: {[r.median_contacts for r in rows]}, "
        f"change between finest {rel:.1%} (< 25%), {elapsed:.0f}s (< 300s)",
    )


def test_c07_eroded_contrast():
    rows_b = _cache.get("refine_brownian") or refinement_study(
        LevyParams.brownian(1.0), 1.0, L_REFINE, H_LIST, 50, seed=70, window=WINDOW_REFINE
    )
    rows_c = refinement_study(
        LevyParams.cauchy(1.0), 1.0, L_REFINE, H_LIST, 50, seed=71, window=WINDOW_REFINE
    )
    mr = [r.median_max_rarefaction for r in rows_c]
    decreasing = all(a > b for a, b in zip(mr, mr[1:]))
    contrast = mr[-1] < 0.5 * rows_b[-1].median_max_rarefaction
    ok = decreasing and contrast
    _report(
        7,
        ok,
        f"cauchy median max rarefaction {['%.3f' % m for m in mr]} "
        f"(strictly decreasing: {decreasing}), finest vs 0.5*brownian "
        f"{mr[-1]:.3f} vs {0.5 * rows_b[-1].median_max_rarefaction:.3f} "
        f"(contrast: {contrast})",
    )


def test_c08_null_set_trend():
    bad = []
    for fi, (name, par) in enumerate(FAMILIES_C1):
        rows = refinement_study(par, 1.0, L_REFINE, H_LIST, 50, seed=72 + fi)
        fr = [r.median_contact_fraction for r in rows]
        if not all(a >= b for a, b in zip(fr, fr[1:])):
            bad.append((name, fr))
    _report(
        8,
        not bad,
        "contact fraction of Lagrangian grid points non-increasing along the "
        "h-list for all four families" + (f"; failed: {bad}" if bad else ""),
    )


def test_c09_contact_jump_signs():
    ag = dis = un = 0
    for rep in range(50):
        path = sample_path(PARAMS_JUMPSIGN, GRID_JUMPSIGN, derived_seed(51, rep))
        try:
            sol = solve(path, 1.0)
        except WindowTooSmallError:
            continue
        r = contact_jump_signs(sol)
        ag += r.agreements
        dis += r.disagreements
        un += r.untracked
    rate = ag / max(ag + dis, 1)
    ok = rate >= 0.9 and ag + dis > 500
    _report(
        9,
        ok,
        f"jump-sign agreement {ag}/{ag + dis} = {rate:.1%} (>= 90%), "
        f"{un} one-sided vertices untracked",
    )


def test_c10_regenerative_independence():
    rep = independence_test(PARAMS_INDEP, GRID_C1, 1.0, 0.5, 200, seed=60)
    # calibration: independent synthetic features give uniform p-values
    rng = np.random.default_rng(61)
    ps = [
        permutation_pvalue(rng.normal(size=(100, 3)), rng.normal(size=(100, 3)), rng, 999)[1]
        for _ in range(100)
    ]
    ks = kstest(ps, "uniform").statistic
    f = rng.normal(size=(100, 3))
    _, p_degen = permutation_pvalue(f, f.copy(), rng, 999)
    ok = rep.p_value_global > 0.01 and ks < 0.15 and p_degen <= 0.001
    _report(
        10,
        ok,
        f"permutation p={rep.p_value_global:.3f} (> 0.01) on {rep.n_valid} replicates "
        f"({rep.n_dropped} dropped); calibration KS={ks:.3f} (< 0.15); "
        f"degenerate p={p_degen:.4f} (<= 0.001)",
    )


def test_c11_moreau_prox_identity():
    rng = np.random.default_rng(4242)
    pts = GRID_C1.points()
    n_prox_bad = n_env_bad = 0
    for _, path, sol, _ in _path_set():
        if not np.array_equal(prox_fixed_points(sol), zero_set_indices(sol)):
            n_prox_bad += 1
        lo, hi = sol.window
        idx = np.flatnonzero((pts >= lo) & (pts <= hi))
        for i in rng.choice(idx, 100, replace=False):
            x = float(pts[i])
            if moreau_envelope(sol, x) < path.values[i] - 1e-12 * (1 + abs(path.values[i])):
                n_env_bad += 1
    ok = n_prox_bad == 0 and n_env_bad == 0
    _report(
        11,
        ok,
        f"prox fixed points == zero set on all {len(_path_set())} paths "
        f"(bad: {n_prox_bad}); M(x) >= psi0(x) at 100 points each (bad: {n_env_bad})",
    )


def test_c12_integral_diagnostic():
    t0 = time.monotonic()
    eps = [1e-1, 1e-2, 1e-3]
    s = dict(abruptness_integral_estimate(
        LevyParams.stable(1.5, 0.0, 1.0), -1, 1, eps, 10_000, seed=62))
    c = dict(abruptness_integral_estimate(
        LevyParams.cauchy(1.0), -1, 1, eps, 10_000, seed=63))
    growth = (s[1e-3] - s[1e-2]) / s[1e-2]
    sustained = (c[1e-3] - c[1e-2]) > 0.5 * (c[1e-2] - c[1e-1])
    elapsed = time.monotonic() - t0
    ok = growth < 0.20 and sustained and elapsed < 120.0
    _report(
        12,
        ok,
        f"stable(1.5) relative growth {growth:.1%} (< 20%); cauchy sustained "
        f"log-growth {c[1e-3] - c[1e-2]:.2f} > {0.5 * (c[1e-2] - c[1e-1]):.2f}; "
        f"{elapsed:.0f}s (< 120s)",
    )
