"""The four benchmark workloads: item kinds, their inputs and output checks.

A workload is a cycle of item kinds.  The closed loop in ``run.py`` runs
one item of each kind per cycle, so every run holds whole cycles and the
same mix of kinds.  Each kind has

* ``prepare(seed)``: untimed input preparation for one item,
* ``run(inp)``: the timed item, calling the library through its module
  attributes (``solver.solve``, not a name bound at import) so that the
  traced run's wrappers see every call,
* ``check(inp, out, seed)``: untimed output checks, returning a list of
  failure messages (empty when the item is correct).

Checks also bump named counters in ``Workload.counts``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from levyburgers import cli, fixtures, levy, regen, shocks, solver

T = 1.0
ORACLE_QUERIES = 16  # oracle checks per item on sweep and dense


def derived_seed(*key: int) -> int:
    """64-bit seed from an integer key, e.g. (workload seed, kind, cycle)."""
    ss = np.random.SeedSequence(tuple(int(k) & (2**64 - 1) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class Kind:
    name: str
    run: Callable[[Any], Any]
    check: Callable[[Any, Any, int], list[str]]
    prepare: Callable[[int], Any] = lambda seed: seed
    # regeneration replicates one item processes (regen.solves_per_replicate)
    replicates: int = 0


@dataclass
class Workload:
    name: str
    kinds: list[Kind]
    counts: Counter = field(default_factory=Counter)
    # in-process cli.main instead of subprocesses (the traced cli run)
    in_process: bool = False
    # peak RSS of child processes, KiB (cli only)
    child_maxrss_kb: int = 0


# ---------------------------------------------------------------- checks


def _oracle(counts: Counter, path, sol, seed: int) -> list[str]:
    """hull a(x) == brute-force largest argmax at sampled window grid points."""
    pts = path.grid.points()
    lo, hi = sol.window
    window_pts = pts[(pts >= lo) & (pts <= hi)]
    rng = np.random.default_rng(seed)
    xs = rng.choice(window_pts, ORACLE_QUERIES, replace=False)
    a_hull = np.array([solver.evaluate_solution(sol, float(x)).a for x in xs])
    a_naive = solver.solve_naive(path, sol.t, xs)
    bad = int(np.count_nonzero(a_hull != a_naive))
    counts["solver.oracle_checked"] += len(xs)
    counts["solver.oracle_mismatch"] += bad
    return [f"oracle mismatch at {bad}/{len(xs)} points"] if bad else []


def _window_points(sol) -> np.ndarray:
    pts = sol.path.grid.points()
    lo, hi = sol.window
    return pts[(pts >= lo) & (pts <= hi)]


def _interior_shocks(rep) -> list:
    return [s for s in rep.shocks if not s.boundary_affected]


def _zero_fixture_facts(sol, rep, sp) -> list[str]:
    w = _window_points(sol)
    bad = []
    if len(sol) != sol.path.grid.n:
        bad.append("zero: not every grid point is a vertex")
    if rep.shocks:
        bad.append("zero: shocks found")
    if not np.array_equal(rep.zero_set, w):
        bad.append("zero: zero set is not the window grid")
    if sp.gap_stats:
        bad.append("zero: sign pattern has gaps")
    return bad


def _jump_up_facts(sol, rep, sp) -> list[str]:
    s = _interior_shocks(rep)
    if len(s) != 1:
        return [f"jump_up: {len(s)} interior shocks, expected 1"]
    s = s[0]
    w = _window_points(sol)
    bad = []
    if (s.x, s.a_minus, s.a_plus, s.mass) != (-1.0, -1.0, 0.0, 1.0):
        bad.append("jump_up: shock tuple")
    if abs(s.velocity + 0.5) > 1e-6:
        bad.append("jump_up: velocity")
    if not np.array_equal(rep.zero_set, np.concatenate([w[w <= -1.0], w[w >= 0.0]])):
        bad.append("jump_up: zero set")
    gaps = [(g.gap, g.has_positive_phase, g.has_negative_phase) for g in sp.gap_stats]
    if gaps != [((-1.0, 0.0), False, True)]:
        bad.append("jump_up: sign pattern gaps")
    return bad


def _jump_down_facts(sol, rep, sp) -> list[str]:
    s = _interior_shocks(rep)
    if len(s) != 1:
        return [f"jump_down: {len(s)} interior shocks, expected 1"]
    s = s[0]
    h = sol.path.grid.h
    bad = []
    if not (abs(s.x - 1.0) <= 2 * h and abs(s.a_minus) <= 2 * h
            and abs(s.a_plus - 1.0) <= 2 * h and abs(s.mass - 1.0) <= 2 * h):
        bad.append("jump_down: shock location/interval/mass")
    if abs(s.velocity - 0.5) > 1e-6:
        bad.append("jump_down: velocity")
    return bad


# ---------------------------------------------------------------- sweep

SWEEP_GRID = levy.GridSpec.symmetric(16.0, 65537)
SWEEP_FAMILIES = (
    ("brownian", levy.LevyParams.brownian(1.0)),
    ("stable15", levy.LevyParams.stable(1.5, 0.0, 1.0)),
    ("stable075", levy.LevyParams.stable(0.75, 0.0, 1.0)),
    ("cauchy", levy.LevyParams.cauchy(1.0)),
)


def build_sweep() -> Workload:
    wl = Workload("sweep", [])

    def make(name, params):
        def run(seed):
            path = levy.sample_path(params, SWEEP_GRID, seed)
            sol = solver.solve(path, T)
            rep = shocks.extract_shocks(sol)
            stats = shocks.window_stats(sol, (1.0, 2.0))
            return path, sol, rep, stats

        def check(seed, out, check_seed):
            path, sol, _, _ = out
            return _oracle(wl.counts, path, sol, check_seed)

        return Kind(name, run, check)

    wl.kinds = [make(name, par) for name, par in SWEEP_FAMILIES]
    return wl


# ---------------------------------------------------------------- dense

DENSE_GRID = levy.GridSpec.symmetric(16.0, 16385)


def build_dense() -> Workload:
    wl = Workload("dense", [])
    fixed = {
        "zero": (fixtures.zero_path(DENSE_GRID), _zero_fixture_facts),
        "jump_up": (fixtures.jump_up(DENSE_GRID, 0.5, 0.0), _jump_up_facts),
        "jump_down": (fixtures.jump_down(DENSE_GRID, 0.5, 0.0), _jump_down_facts),
    }

    def run(path):
        sol = solver.solve(path, T)
        rep = shocks.extract_shocks(sol)
        sp = shocks.sign_pattern(sol)
        return sol, rep, sp

    def checker(facts):
        def check(path, out, check_seed):
            sol, rep, sp = out
            bad = _oracle(wl.counts, path, sol, check_seed)
            if sp.violations:
                bad.append(f"{len(sp.violations)} sign-pattern violations")
            if facts is not None:
                bad += facts(sol, rep, sp)
            return bad

        return check

    for name, (path, facts) in fixed.items():
        wl.kinds.append(Kind(name, run, checker(facts), prepare=lambda s, p=path: p))
    near_flat = levy.LevyParams.brownian(1e-3)
    wl.kinds.append(
        Kind(
            "brownian_1e-3",
            run,
            checker(None),
            prepare=lambda s: levy.sample_path(near_flat, DENSE_GRID, s),
        )
    )
    return wl


# ---------------------------------------------------------------- regen

# the c04 acceptance protocol: its families on its grid
REGEN_LEVY_GRID = levy.GridSpec.symmetric(16.0, 8193)
REGEN_LEVY_FAMILIES = (
    ("stable15", levy.LevyParams.stable(1.5, 0.0, 0.4)),
    ("stable075", levy.LevyParams.stable(0.75, 0.0, 0.1)),
)
# scan-heavy items: a downward step of delta at 0 plus Brownian noise of
# sigma 1e-3; R = S = T_first sits near sqrt(2 delta t), so the R scan covers
# a fixed stretch of the grid whatever the seed (c04 Levy paths at this n
# spread the scan length, and so the item time, over a heavy tail)
REGEN_STEP_GRID = levy.GridSpec.symmetric(16.0, 65537)
REGEN_STEP_DELTAS = (("step_R1", 0.5), ("step_R2", 2.0), ("step_R3", 4.5))
REGEN_STEP_NOISE = levy.LevyParams.brownian(1e-3)


def _regen_chain(path):
    sol = solver.solve(path, T)
    rr = regen.rst_scan(path, T, sol)
    walk = None
    if rr.R is not None:
        walk = regen.rk_sequence(path, T, k_max=len(sol), r0=rr.R)
    return sol, rr, walk


def build_regen() -> Workload:
    wl = Workload("regen", [])

    def identities(out) -> list[str]:
        sol, rr, walk = out
        if None in (rr.R, rr.S, rr.T_first):
            return []  # nothing found within the grid: an outcome
        bad = []
        if rr.S != rr.T_first:
            bad.append(f"S={rr.S} != T_first={rr.T_first}")
        if not (walk.converged and walk.rk[-1] == rr.T_first and walk.steps <= len(sol)):
            bad.append("r_k walk did not converge at T_first")
        return bad

    for name, params in REGEN_LEVY_FAMILIES:
        def run(seed, params=params):
            return _regen_chain(levy.sample_path(params, REGEN_LEVY_GRID, seed))

        wl.kinds.append(Kind(name, run, lambda s, out, c: identities(out), replicates=1))

    for name, delta in REGEN_STEP_DELTAS:
        step = fixtures.jump_down(REGEN_STEP_GRID, delta, 0.0)

        def run(seed, step=step):
            noise = levy.sample_path(REGEN_STEP_NOISE, REGEN_STEP_GRID, seed)
            path = levy.LevyPath(
                grid=REGEN_STEP_GRID,
                values=step.values + noise.values,
                tracked_jumps=step.tracked_jumps,
                params=None,
                seed=seed,
            )
            return _regen_chain(path)

        def check(seed, out, check_seed):
            _, rr, _ = out
            if None in (rr.R, rr.S, rr.T_first):
                return ["step path: R, S or T_first not found"]
            return identities(out)

        wl.kinds.append(Kind(name, run, check, replicates=1))
    return wl


# ---------------------------------------------------------------- cli

JUMP_UP_FIXTURE = {
    "config": {
        "family": "jump_up",
        "delta": 0.5,
        "location": 0.0,
        "L": 4.0,
        "n": 801,
        "t": 1.0,
        "seed": 0,
    }
}
# (name, argv, expected files besides effective_config.json, replicates)
CLI_CALLS = (
    ("simulate", ["simulate", "--family", "stable", "--alpha", "0.75", "--seed", "3"],
     ["path.csv", "jumps.csv"], 0),
    ("solve", ["solve", "--family", "jump_up", "--delta", "0.5", "--L", "4", "--n", "801"],
     ["vertices.csv", "eulerian.csv"], 0),
    ("shocks", ["shocks", "--config", "{workdir}/jump_up_fixture.json"],
     ["shocks.csv", "zero_set.csv", "rarefactions.csv"], 0),
    ("regen", ["regen", "--family", "stable", "--alpha", "1.5", "--scale", "0.4",
               "--reps", "100"],
     ["regen_report.json", "replicates.csv"], 100),
    ("refine", ["refine", "--family", "brownian", "--L", "16", "--reps", "5",
                "--stats-window", "1,2"],
     ["refine.csv"], 0),
    ("integral", ["integral", "--family", "cauchy", "--eps-list", "0.1,0.01,0.001"],
     ["integral.csv"], 0),
)


def run_child(argv: list[str], env: dict, log: Path) -> tuple[int, int]:
    """Run argv to completion; (exit code, peak RSS of the child in KiB)."""
    with open(log, "wb") as fh:
        proc = subprocess.Popen(argv, env=env, stdout=fh, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def _digest(out_dir: Path) -> tuple[str, int, int]:
    """(sha256 over every file name and its bytes, files, bytes)."""
    h = hashlib.sha256()
    files = sorted(p for p in out_dir.iterdir() if p.is_file())
    total = 0
    for p in files:
        data = p.read_bytes()
        total += len(data)
        h.update(p.name.encode() + b"\0" + data)
    return h.hexdigest(), len(files), total


def _check_cli_files(out_dir: Path, expected: list[str]) -> list[str]:
    bad = []
    for name in ["effective_config.json", *expected]:
        p = out_dir / name
        if not p.is_file():
            bad.append(f"missing {name}")
        elif name.endswith(".csv"):
            with open(p, "rb") as fh:
                if not fh.readline().startswith(b"# config_hash="):
                    bad.append(f"{name} lacks the config_hash header")
        elif "config_hash" not in json.loads(p.read_text()):
            bad.append(f"{name} lacks config_hash")
    return bad


def build_cli(workdir: Path, src: Path, in_process: bool = False) -> Workload:
    wl = Workload("cli", [], in_process=in_process)
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "jump_up_fixture.json").write_text(json.dumps(JUMP_UP_FIXTURE))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    first_digest: dict[str, str] = {}
    serial = itertools.count()

    for name, argv, expected, reps in CLI_CALLS:
        argv = [a.replace("{workdir}", str(workdir)) for a in argv]

        def prepare(seed, name=name):
            return workdir / f"{name}-{next(serial)}"

        def run(out_dir, argv=argv):
            args = [*argv, "--out-dir", str(out_dir)]
            if wl.in_process:
                return cli.main(args)
            code, rss = run_child(
                [sys.executable, "-m", "levyburgers.cli", *args], env,
                out_dir.with_suffix(".log"),
            )
            wl.child_maxrss_kb = max(wl.child_maxrss_kb, rss)
            return code

        def check(out_dir, code, check_seed, name=name, expected=expected):
            if code != 0:
                log = out_dir.with_suffix(".log")
                tail = log.read_text()[-300:] if log.is_file() else ""
                return [f"exit code {code} {tail}"]
            bad = _check_cli_files(out_dir, expected)
            digest, n_files, n_bytes = _digest(out_dir)
            wl.counts["cli.files_written"] += n_files
            wl.counts["cli.bytes_written"] += n_bytes
            if first_digest.setdefault(name, digest) != digest:
                bad.append("output differs from the first call with this config")
            for p in out_dir.iterdir():
                p.unlink()
            out_dir.rmdir()
            out_dir.with_suffix(".log").unlink(missing_ok=True)
            return bad

        wl.kinds.append(Kind(name, run, check, prepare=prepare, replicates=reps))
    return wl


def build(name: str, workdir: Path, src: Path, in_process: bool = False) -> Workload:
    if name == "sweep":
        return build_sweep()
    if name == "dense":
        return build_dense()
    if name == "regen":
        return build_regen()
    return build_cli(workdir, src, in_process)

