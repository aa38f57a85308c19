"""Per-input hull timing of two source trees.

    python tests/hull_timing.py SRC_A SRC_B [--only TEXT] [--routes]

loads the ``levyburgers`` package of each ``src`` directory under its own
alias, checks that both return the same ``indices`` on every input, then
calls the two trees' ``upper_concave_majorant`` CALLS times each in turn,
A first in even rounds and B first in odd ones, and prints per input the
median ms of each and the ratio B / A.  The inputs are the corpora of
``test_hull.py`` and the hull clouds of one item of every kind of the
``sweep``, ``dense`` and ``regen`` benchmark workloads at seed 1,
recorded as the two columns the solver and the regen scans hand to the
hull and timed as one column-major (n, 2) array, which the public entry
reads without a copy.  They are built with SRC_A's package, imported as
``levyburgers``.  ``--only`` keeps the inputs whose name contains TEXT,
so that each can be timed in a fresh process.  ``--routes`` prints, in
place of the times, the route each tree's hull takes on each input: the
throw-away of whole blocks, where the tree has it and the input is long
enough for its gate (the share of the middle block maxima the gate's
level drops; then, where the gate let it run, the blocks, the vertices
of the coarse chain, the blocks dropped by the end bound + by the exact
tilt, and the points kept), the chord filter's rounds as size at the
start / first-level drop / round's drop, the flag count of each check,
and the stages after the first check, each with the length of the list
it was given; the last one finished the list.  The coarse chain's own
filter rounds, checks and stages are not shown; the coarse chain is read
from the chain entry (``_chain_indices``, or ``_finish`` in a tree that
has it) called inside the throw-away.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"
CALLS = 21


def load(alias: str, src: Path):
    """The levyburgers package under src, imported as alias."""
    pkg = src / "levyburgers"
    spec = importlib.util.spec_from_file_location(
        alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def corpus_inputs() -> dict:
    """test_hull.py's corpora, each as an (n, 2) array of points."""
    import test_hull as th
    from levyburgers import GridSpec, LevyParams, jump_down, jump_up, sample_path, zero_path

    out = {}
    for family, params in sorted(th.LEVY_FAMILIES.items()):
        for n in (4097, 65537):
            for seed in (1, 2):
                out[f"{family}_n{n}_s{seed}"] = th._shifted(
                    sample_path(params, GridSpec(16.0, n), seed)
                )
    for seed in range(3):
        path = sample_path(LevyParams.brownian(1e-3), GridSpec(16.0, 16385), seed)
        out[f"bm1e-3_16385_s{seed}"] = th._shifted(path)
    for delta in (0.5, 4.5):
        out[f"noisystep{delta}"] = th.noisy_step(delta)
        out[f"noisystep{delta}-past"] = th.noisy_step(delta, past=True)
    grid = GridSpec(16.0, 16385)
    for fixture in (zero_path, jump_up, jump_down):
        for t in (1e-3, 1.0, 1e3):
            out[f"{fixture.__name__}_t{t:g}"] = th._shifted(fixture(grid), t)
    for n in (4097, 65537):
        for spikes in (1, 5, 40):
            out[f"spike{spikes}_n{n}"] = th.spiked_parabola(n, spikes)
    for delta in (0.5, 4.5):
        out[f"stepparab{delta}"] = th.step_parabola(4097, delta)
    for t in (1e-3, 1.0, 1e3):
        out[f"cpoisson_t{t:g}"] = th._compound_poisson(4097, t)
    for family in ("cauchy", "stable1.5"):
        path = sample_path(th.LEVY_FAMILIES[family], GridSpec(16.0, 4097), 1)
        out[f"{family}_t1e-6"] = th._shifted(path, 1e-6)
    lines = {
        "rounded-line": (0.0, 1.0, 1001, 0.1, 3.0, 0.0),
        "rounded-steep-line": (-3.0, 7.0, 4097, np.pi, -1 / 3, 0.0),
        "line-with-noise": (-16.0, 16.0, 4097, 0.7, 0.0, 1e-15),
    }
    for name, (a, b, n, slope, shift, noise) in lines.items():
        ys = np.linspace(a, b, n)
        out[name] = ys, slope * ys + shift + noise * np.random.default_rng(0).standard_normal(n)
    sigma = sample_path(LevyParams.brownian(1e-12), grid, 1)
    for t in (1e-6, 1.0, 1e6):
        out[f"zero_t{t:g}"] = th._shifted(zero_path(grid), t)
        out[f"bm1e-12_t{t:g}"] = th._shifted(sigma, t)
    return {name: np.column_stack(cloud) for name, cloud in out.items()}


def workload_inputs() -> dict:
    """The points the hull is given in one item of each kind of the sweep,
    dense and regen workloads, as column-major (n, 2) arrays."""
    import workloads
    from levyburgers import regen, solver

    clouds = []
    majorant = solver._majorant

    def recorded(ys, vs):
        clouds.append(np.array([ys, vs]).T)
        return majorant(ys, vs)

    out = {}
    solver._majorant = regen._majorant = recorded
    try:
        for build in (workloads.build_sweep, workloads.build_dense, workloads.build_regen):
            wl = build()
            for ki, kind in enumerate(wl.kinds):
                clouds.clear()
                kind.run(kind.prepare(workloads.derived_seed(1, ki, 0)))
                for i, cloud in enumerate(clouds):
                    out[f"{wl.name}_{kind.name}_{i}"] = cloud
    finally:
        solver._majorant = regen._majorant = majorant
    return out


def route(hull, points) -> str:
    """The route of one upper_concave_majorant call of the module hull.

    It wraps the module's stages for the call.  The filter's levels are
    read from its count of the survivors of each level, which is the only
    np.count_nonzero call in the module, together with the spacing and
    the list length of the level's last _orient call; a level at spacing
    1 starts a round.
    """
    names = ("np", "_orient", "_check", "_bulk_chain", "_quickhull", "_chain")
    names += ("_block_prune", "_gate_share", "_chain_indices", "_finish", "_tilted_max")
    saved = {name: getattr(hull, name) for name in names if hasattr(hull, name)}
    levels, checks, stages, spacing = [], [], [], [1, 0]
    prune, inside = {}, [False]  # the throw-away's readings; inside it

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def count_nonzero(a):
            left = np.count_nonzero(a)
            if not inside[0]:
                levels.append((*spacing, left))
            return left

    def orient(ys, vs, k, *args):
        spacing[:] = k, len(ys)
        return saved["_orient"](ys, vs, k, *args)

    def check(ys, vs):
        out = saved["_check"](ys, vs)
        if not inside[0]:
            checks.append(len(out[0] if isinstance(out, tuple) else out))
        return out

    def stage(name, size):
        def run(*args):
            if not inside[0]:
                stages.append(f"{name.strip('_')}({size(*args)})")
            return saved[name](*args)

        return run

    def block_prune(ys, vs):
        inside[0] = True
        try:
            kept = saved["_block_prune"](ys, vs)
        finally:
            inside[0] = False
        prune["kept"] = kept
        return kept

    def gate_share(*args):
        prune["share"] = saved["_gate_share"](*args)
        return prune["share"]

    def chain_entry(name):
        def run(*args):
            out = saved[name](*args)
            if inside[0]:
                prune["chain"] = out
            return out

        return run

    def tilted_max(Y, V, blocks, s):
        prune["open"] = len(blocks)
        return saved["_tilted_max"](Y, V, blocks, s)

    wraps = {
        "np": Numpy(),
        "_orient": orient,
        "_check": check,
        "_bulk_chain": stage("_bulk_chain", lambda ys, vs, flags: len(ys)),
        "_quickhull": stage("_quickhull", lambda ys, vs, idx: len(idx)),
        "_chain": stage("_chain", lambda ys, vs: len(ys)),
        "_block_prune": block_prune,
        "_gate_share": gate_share,
        "_chain_indices": chain_entry("_chain_indices"),
        "_finish": chain_entry("_finish"),
        "_tilted_max": tilted_max,
    }
    try:
        for name, wrap in wraps.items():
            if name in saved:
                setattr(hull, name, wrap)
        hull.upper_concave_majorant(points)
    finally:
        for name, fn in saved.items():
            setattr(hull, name, fn)
    rounds = []
    for k, n, left in levels:
        if k == 1:
            rounds.append([n, n - left, n - left])
        else:
            rounds[-1][2] = rounds[-1][0] - left
    return (
        f"{throw_away(prune, len(points), getattr(hull, '_BLOCK', 0))}"
        f"rounds {' '.join('/'.join(map(str, r)) for r in rounds) or '-'}"
        f" | flags {','.join(map(str, checks))} | {' > '.join(stages) or 'check'}"
    )


def throw_away(prune: dict, n: int, block: int) -> str:
    """The throw-away's readings of one hull of n points, from the wraps
    of route, as a prefix of its route: '' where the gate did not run."""
    if "share" not in prune:
        return ""
    text = f"gate {prune['share']:.3f}"
    if "chain" not in prune:
        return text + " | "
    nb = (n - 1) // block
    chain = prune["chain"]
    if prune["kept"] is None:
        return text + f" coarse {len(chain)} slope overflows | "
    fixed = int((chain < nb).sum())  # blocks holding a coarse vertex
    end_drop = nb - fixed - prune["open"]
    kept_blocks = (len(prune["kept"]) - (n - nb * block)) // block
    tilt_drop = prune["open"] - (kept_blocks - fixed)
    return (
        f"{text} blocks {nb} coarse {len(chain)} dropped {end_drop}+{tilt_drop}"
        f" kept {len(prune['kept'])} | "
    )


def time_pair(fa, fb, points) -> tuple[float, float]:
    """Median seconds of fa(points) and fb(points) over CALLS interleaved
    calls each, after one warm-up call of each."""
    fa(points), fb(points)
    ta, tb = [], []
    for r in range(CALLS):
        order = ((fa, ta), (fb, tb)) if r % 2 == 0 else ((fb, tb), (fa, ta))
        for f, times in order:
            t0 = time.perf_counter()
            f(points)
            times.append(time.perf_counter() - t0)
    return statistics.median(ta), statistics.median(tb)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src_a", type=Path, help="src directory of tree A (the baseline)")
    ap.add_argument("src_b", type=Path, help="src directory of tree B")
    ap.add_argument("--only", default="", help="time only the inputs whose name holds this")
    ap.add_argument("--routes", action="store_true", help="print each hull's route, not times")
    args = ap.parse_args(argv)
    src_a, src_b = args.src_a.resolve(), args.src_b.resolve()
    sys.path[:0] = [str(src_a), str(TESTS), str(PERFBENCH)]
    inputs = {**corpus_inputs(), **workload_inputs()}
    inputs = {name: pts for name, pts in inputs.items() if args.only in name}
    hull_a = load("levyburgers_a", src_a).hull
    hull_b = load("levyburgers_b", src_b).hull
    a, b = hull_a.upper_concave_majorant, hull_b.upper_concave_majorant
    if not args.routes:
        print(f"{'input':32} {'points':>7} {'A ms':>9} {'B ms':>9} {'B/A':>6}")
    worst = (0.0, "")
    for name, pts in inputs.items():
        ia, ib = a(pts).indices, b(pts).indices
        if not np.array_equal(ia, ib):
            raise SystemExit(f"{name}: the trees return different indices")
        if args.routes:
            print(f"{name:32} {len(pts):7d}  A {route(hull_a, pts)}")
            print(f"{'':32} {'':7}  B {route(hull_b, pts)}")
            continue
        ta, tb = time_pair(a, b, pts)
        worst = max(worst, (tb / ta, name))
        print(f"{name:32} {len(pts):7d} {1e3 * ta:9.3f} {1e3 * tb:9.3f} {tb / ta:6.2f}")
    if args.routes:
        print(f"{len(inputs)} inputs, equal indices on all")
    else:
        print(f"{len(inputs)} inputs, equal indices on all; largest B/A {worst[0]:.2f} ({worst[1]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
