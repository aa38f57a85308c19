"""Per-item A/B timing of two source trees in one process.

    python tests/item_ab.py PARENT CHANGE {sweep,dense,regen} [--seconds S] [--seed N]

loads the ``levyburgers`` package of each tree (a checkout or its ``src``
directory) under its own alias, and ``perfbench/workloads.py`` of this
checkout once per tree, bound to that tree's package.  Each cycle runs
every item kind of the workload once per tree on the same input, PARENT
first in even cycles and CHANGE first in odd ones, until S seconds have
passed; only ``kind.run`` is timed, as in ``perfbench/run.py``, and every
output is checked (a WindowTooSmallError is an outcome, as there).  It
prints per kind the median ms of each tree and the ratio CHANGE / PARENT,
then the same for whole cycles, and the median minor page faults of each
tree's ``kind.run`` (``resource.getrusage``), which count in the time as
they do in the harness.  Separate 20 s benchmark runs on a shared
2-core host spread by 15% and more; items of the two trees interleaved in
one process see the same host state.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import resource
import statistics
import sys
import time
from pathlib import Path

from hull_timing import load

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("cli", "fixtures", "levy", "regen", "shocks", "solver")


def load_tree(alias: str, tree: Path):
    """The workloads module of perfbench bound to the levyburgers package
    of tree, both under names built from alias."""
    src = tree / "src" if (tree / "src" / "levyburgers").is_dir() else tree
    pkg = load(alias, src.resolve())
    for name in MODULES:  # workloads imports them from the package by name
        importlib.import_module(f"{alias}.{name}")
    saved = sys.modules.get("levyburgers")
    sys.modules["levyburgers"] = pkg
    try:
        name = f"{alias}_workloads"
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
        workloads = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        if saved is None:
            del sys.modules["levyburgers"]
        else:
            sys.modules["levyburgers"] = saved
    return workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="tree A, the baseline")
    ap.add_argument("change", type=Path, help="tree B")
    ap.add_argument("workload", choices=("sweep", "dense", "regen"))
    ap.add_argument("--seconds", type=float, default=60.0, help="wall time, whole cycles")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    trees = [load_tree(alias, path) for alias, path in
             (("levyburgers_a", args.parent), ("levyburgers_b", args.change))]
    wls = [getattr(w, f"build_{args.workload}")() for w in trees]
    derived_seed = trees[0].derived_seed

    kinds = [k.name for k in wls[0].kinds]
    times = {(side, kind): [] for side in (0, 1) for kind in kinds}
    faults = {(side, kind): [] for side in (0, 1) for kind in kinds}
    cycles = 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        for ki, kind in enumerate(kinds):
            seed = derived_seed(args.seed, ki, cycles)
            for side in (cycles % 2, 1 - cycles % 2):
                k = wls[side].kinds[ki]
                inp = k.prepare(seed)
                f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                t0 = time.perf_counter()
                try:
                    out = k.run(inp)
                except trees[side].solver.WindowTooSmallError:
                    out = None  # a typed outcome, timed as run.py times it
                times[side, kind].append(time.perf_counter() - t0)
                faults[side, kind].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
                bad = out is not None and k.check(inp, out, derived_seed(args.seed, ki, cycles, 1))
                if bad:
                    raise SystemExit(f"{'AB'[side]} {kind} cycle {cycles}: {'; '.join(bad)}")
        cycles += 1

    print(f"{args.workload}, seed {args.seed}, {cycles} cycles, A={args.parent} B={args.change}")
    print(f"{'kind':16} {'A ms':>9} {'B ms':>9} {'B/A':>6} {'A flt':>7} {'B flt':>7}")
    for kind in [*kinds, "cycle"]:
        if kind == "cycle":
            a, b, fa, fb = (
                [sum(c) for c in zip(*(series[side, k] for k in kinds))]
                for series in (times, faults) for side in (0, 1)
            )
        else:
            a, b, fa, fb = times[0, kind], times[1, kind], faults[0, kind], faults[1, kind]
        ma, mb = statistics.median(a), statistics.median(b)
        print(f"{kind:16} {1e3 * ma:9.3f} {1e3 * mb:9.3f} {mb / ma:6.3f} "
              f"{statistics.median(fa):7.0f} {statistics.median(fb):7.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
