"""The traced benchmark run wraps library functions by module and name."""

import importlib
import math
import os
from collections import Counter
from pathlib import Path

import pytest

import levyburgers.cli  # noqa: F401  (install() patches the modules already imported)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_benchmark_trace_target_exists(monkeypatch):
    # a renamed or removed target would otherwise fail only in a traced
    # benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer(Counter())
    try:
        patched = set(tracer.install())
    finally:
        tracer.uninstall()
    assert {f"levyburgers.{mod}.{attr}" for mod, attr, _ in tracing.WRAPPED} <= patched


@pytest.mark.parametrize("name", ["sweep", "dense", "regen", "cli"])
def test_one_traced_cycle_of_each_workload(monkeypatch, tmp_path, name):
    # the tracer binds the wrapped calls' arguments by name, so a changed
    # call or parameter name fails here rather than in a benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    environ = dict(os.environ)
    try:
        run = importlib.import_module("run")  # sets the thread variables
    finally:
        os.environ.clear()
        os.environ.update(environ)
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    tracer = tracing.Tracer(Counter())
    tracer.install()
    try:
        wl = workloads.build(name, tmp_path, run.SRC, in_process=True)
        loop = run.closed_loop(wl, 1, math.inf, tracer, max_cycles=1)
    finally:
        tracer.uninstall()
    assert loop.failures == []
    assert len(loop.latencies) == len(wl.kinds)
