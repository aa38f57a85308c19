"""Per-input timing of the R and S scans of two source trees.

    python tests/scan_timing.py SRC_A SRC_B [--only TEXT]

loads the ``levyburgers`` package of each ``src`` directory under its own
alias, checks that both trees' ``_scan_r`` and ``_scan_s`` return the same
R and S on every input, then runs the two trees' scans CALLS times each
in turn, A first in even rounds and B first in odd ones, and prints per
input the median ms of each and the ratio B / A.  The inputs are the
paths of ``test_regen.py``'s ``NAMED_SCAN_CASES`` and of its
``test_real_grid_size`` (every law of ``REAL_GRID_LAWS`` at every time of
``REAL_GRID_TIMES``, seeds 0 to 2, n = 8193), all scanned at t = 1 but
the latter, built with SRC_A's package, imported as ``levyburgers``.
``--only`` keeps the inputs whose name contains TEXT.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from hull_timing import TESTS, load, time_pair


def scan_inputs() -> dict:
    """name: (values, ys, i0, t) for every path that test_regen.py scans
    against the oracles by name or at the real grid size."""
    import test_regen as tr
    from levyburgers import GridSpec, sample_path

    paths = {f"named_{case.id}": (case.values[0](), 1.0) for case in tr.NAMED_SCAN_CASES}
    for law in tr.REAL_GRID_LAWS:
        for t in tr.REAL_GRID_TIMES:
            for seed in range(3):
                path = sample_path(law.values[0], GridSpec(16.0, 8193), seed)
                paths[f"{law.id}_t{t:g}_s{seed}"] = (path, t)
    return {
        name: (path.values, path.grid.points(), path.grid.zero_index, t)
        for name, (path, t) in paths.items()
    }


def scans(regen):
    """(R, S) grid indices of one tree's scans on a scan input."""

    def run(args):
        values, ys, i0, t = args
        r = regen._scan_r(values, ys, i0, t)
        return r, None if r is None else regen._scan_s(values, ys, r, t)

    return run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src_a", type=Path, help="src directory of tree A (the baseline)")
    ap.add_argument("src_b", type=Path, help="src directory of tree B")
    ap.add_argument("--only", default="", help="time only the inputs whose name holds this")
    args = ap.parse_args(argv)
    src_a, src_b = args.src_a.resolve(), args.src_b.resolve()
    sys.path[:0] = [str(src_a), str(TESTS)]
    inputs = {name: x for name, x in scan_inputs().items() if args.only in name}
    a = scans(load("levyburgers_a", src_a).regen)
    b = scans(load("levyburgers_b", src_b).regen)
    print(f"{'input':32} {'points':>7} {'R':>6} {'S':>6} {'A ms':>9} {'B ms':>9} {'B/A':>6}")
    worst = (0.0, "")
    for name, x in inputs.items():
        found = a(x)
        if b(x) != found:
            raise SystemExit(f"{name}: the trees find different R and S")
        ta, tb = time_pair(a, b, x)
        worst = max(worst, (tb / ta, name))
        r, s = ("-" if i is None else i for i in found)
        print(f"{name:32} {len(x[1]):7d} {r:>6} {s:>6} {1e3 * ta:9.3f} {1e3 * tb:9.3f} {tb / ta:6.2f}")
    print(f"{len(inputs)} inputs, equal R and S on all; largest B/A {worst[0]:.2f} ({worst[1]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
