"""Spans around the library's public functions, for the traced run only.

``Tracer.install()`` replaces each function in ``WRAPPED`` by a wrapper in
every ``levyburgers`` module namespace that holds it (the defining module
and every module that imported it by name), and ``uninstall()`` puts the
originals back.  No library file changes.  A span records its name, start,
end, parent and item; a layer's self time is its spans' durations minus
the time covered by their child spans.  Spans are kept only while an item
is open, so untimed preparation and output checks leave none.

A renamed or removed target makes ``install()`` fail loudly: update
``WRAPPED`` rather than lose a layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module under levyburgers, function, span name); the span's layer is the
# part of its name before the first dot
WRAPPED = (
    ("levy", "sample_path", "levy.sample_path"),
    ("levy", "abruptness_integral_estimate", "levy.integral"),
    ("hull", "upper_concave_majorant", "hull"),
    ("solver", "solve", "solver.solve"),
    ("shocks", "extract_shocks", "shocks.extract"),
    ("shocks", "sign_pattern", "shocks.sign_pattern"),
    ("shocks", "window_stats", "shocks.window_stats"),
    ("shocks", "refinement_study", "shocks.refinement"),
    ("regen", "rst_scan", "regen.rst_scan"),
    ("regen", "rk_sequence", "regen.rk_sequence"),
    ("regen", "regen_report", "regen.report"),
    ("regen", "independence_test", "regen.independence"),
    ("regen", "permutation_pvalue", "regen.permutation"),
    ("cli", "main", "cli.main"),
    ("cli", "run_experiment", "cli.run_experiment"),
)
LAYERS = ("levy", "hull", "solver", "shocks", "regen", "cli")
ITEM = "item"


def cells_scanned(path, report) -> int:
    """Grid cells the O(n^2) R and S scans touch, from the returned R and S.

    The R scan compares each candidate i >= i0 with its i-point past, the
    S scan each candidate i >= i_R with its (n-1-i)-point future; a scan
    that finds nothing runs to the end of the grid.
    """
    n = path.grid.n
    i0 = path.grid.zero_index

    def index(y):
        return n - 1 if y is None else i0 + round(y / path.grid.h)

    i_r = index(report.R)
    cells = (i_r * (i_r + 1) - (i0 - 1) * i0) // 2  # sum of i for i0..i_R
    if report.R is not None:
        i_s = index(report.S)
        # sum of n-1-i for i = i_R..i_S
        a, b = n - 1 - i_s, n - 1 - i_r
        cells += (b * (b + 1) - (a - 1) * a) // 2
    return cells


def _observe(name, arguments, result, counts, parent) -> None:
    """Work counts read off a wrapped call's arguments and result."""
    if name == "hull":
        counts["hull.points_in"] += len(arguments["points"])
        counts["hull.vertices_out"] += len(result)
    elif name == "levy.sample_path":
        counts["levy.sample_path.points"] += arguments["grid"].n
    elif name == "shocks.extract" and parent != "shocks.sign_pattern":
        counts["shocks.shocks_found"] += len(result.shocks)
        counts["shocks.zero_set_size"] += len(result.zero_set)
        counts["shocks.rarefactions"] += len(result.rarefactions)
    elif name == "regen.rst_scan":
        counts["regen.rst_scan.calls"] += 1
        counts["regen.rst_scan.found"] += int(
            None not in (result.R, result.S, result.T_first)
        )
        counts["regen.rst_scan.cells_scanned"] += cells_scanned(arguments["path"], result)
    elif name == "regen.rk_sequence":
        counts["regen.rk_steps"] += result.steps
    elif name == "regen.permutation":
        counts["regen.permutation.perms"] += arguments["n_perm"]


class Tracer:
    def __init__(self, counts: Counter):
        self.counts = counts
        self.spans: list[list] = []  # [name, start, end, parent index, item]
        self.stack: list[int] = []
        self.item_index = -1
        self.patched: list[tuple[object, str, object]] = []

    # -- spans
    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.item_index])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def item(self):
        self.item_index += 1
        idx = self._open(ITEM)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name):
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            parent = tracer.spans[tracer.stack[-1]][0]
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                tracer._close(idx)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            _observe(name, bound.arguments, result, tracer.counts, parent)
            return result

        return traced

    # -- patching
    def install(self) -> list[str]:
        """Wrap every target; return the patched ``module.attribute`` names."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "levyburgers" or k.startswith("levyburgers.")]
        names = []
        for mod_name, attr, span in WRAPPED:
            mod = importlib.import_module(f"levyburgers.{mod_name}")
            original = getattr(mod, attr, None)
            if not callable(original):
                raise RuntimeError(
                    f"trace target levyburgers.{mod_name}.{attr} is missing; "
                    "update perfbench/tracing.py WRAPPED"
                )
            wrapper = self._wrap(original, span)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self.patched.append((m, key, original))
                        names.append(f"{m.__name__}.{key}")
        return names

    def uninstall(self) -> None:
        for m, key, original in reversed(self.patched):
            setattr(m, key, original)
        self.patched.clear()

    # -- analysis
    def _self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def summary(self, count_items: int) -> dict:
        """Per span name: calls, inclusive and self seconds.  ``calls``
        counts only the first ``count_items`` items, so it repeats exactly
        for a given seed; the times cover every item."""
        by_name: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
        )
        for (name, start, end, _, item), self_s in zip(self.spans, self._self_times()):
            d = by_name[name]
            d["calls"] += int(item < count_items)
            d["incl_s"] += end - start
            d["self_s"] += self_s
        return dict(by_name)

    def calls_in_items(self, name: str, items: set[int]) -> int:
        return sum(1 for s in self.spans if s[0] == name and s[4] in items)

    def kind_shares(self, kinds: list[str]) -> dict[str, dict[str, float]]:
        """Per item kind: each layer's self time as a share of item time."""
        self_by: dict[str, Counter] = defaultdict(Counter)
        for (name, _, _, _, item), self_s in zip(self.spans, self._self_times()):
            self_by[kinds[item]][name.split(".")[0]] += self_s
        return {
            kind: {layer: t / sum(c.values()) for layer, t in c.items()}
            for kind, c in self_by.items()
        }


def span_cost_ns(calls: int = 20000) -> float:
    """Added cost of one traced call: a wrapped no-op against a bare one."""

    def noop(x=0):
        return x

    tracer = Tracer(Counter())
    traced = tracer._wrap(noop, "noop")
    with tracer.item():
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        t1 = time.perf_counter()
    for _ in range(calls):
        noop()
    t2 = time.perf_counter()
    return 1e9 * ((t1 - t0) - (t2 - t1)) / calls
