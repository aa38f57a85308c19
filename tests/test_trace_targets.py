"""The traced benchmark run wraps library functions by module and name."""

import importlib
from collections import Counter
from pathlib import Path

import levyburgers.cli  # noqa: F401  (install() patches the modules already imported)


def test_every_benchmark_trace_target_exists(monkeypatch):
    # a renamed or removed target would otherwise fail only in a traced
    # benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer(Counter())
    try:
        patched = set(tracer.install())
    finally:
        tracer.uninstall()
    assert {f"levyburgers.{mod}.{attr}" for mod, attr, _ in tracing.WRAPPED} <= patched
