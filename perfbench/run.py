"""levyburgers benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  The library is imported from ``src/`` of
this checkout.  With ``--trace 0`` the run measures the end-to-end metrics
with no tracing; with ``--trace 1`` it wraps the library's public
functions in spans and reports the per-layer metrics instead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it and
``perfbench/out/results/`` hold the full record.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread for this process and every child, set before
# numpy can be imported
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

# only the standard library at module level: the setup probe re-runs this
# file in a fresh interpreter and must time a cold ``import levyburgers``
import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 3  # fresh interpreters timing the import, per run
COUNT_CYCLES = 1  # exact work counts cover this many leading cycles
TAIL_BEYOND = 10  # items that must lie beyond the reported tail latency
WORKLOADS = ("sweep", "dense", "regen", "cli")


@dataclass
class LoopResult:
    latencies: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    window_too_small: int = 0
    cycles: int = 0
    prefix_items: int = 0
    prefix_counts: Counter = field(default_factory=Counter)
    wall_s: float = 0.0


def closed_loop(wl, seed: int, seconds: float, tracer=None, max_cycles=None) -> LoopResult:
    """One client, whole cycles: the next item starts when the last ends.

    Runs cycles until ``seconds`` of wall time have passed (or
    ``max_cycles``).  Only ``kind.run`` is timed; preparation and output
    checks run between items.
    """
    from levyburgers import WindowTooSmallError
    from workloads import derived_seed

    res = LoopResult()
    start = time.perf_counter()
    while True:
        for ki, kind in enumerate(wl.kinds):
            inp = kind.prepare(derived_seed(seed, ki, res.cycles))
            out = err = None
            ctx = tracer.item() if tracer is not None else nullcontext()
            t0 = time.perf_counter()
            try:
                with ctx:
                    out = kind.run(inp)
            except WindowTooSmallError:
                res.window_too_small += 1  # a typed outcome, not a failure
            except Exception as exc:  # any other exception fails the item
                err = f"{type(exc).__name__}: {exc}"
            res.latencies.append(time.perf_counter() - t0)
            res.kinds.append(kind.name)
            if out is not None:
                try:
                    bad = kind.check(inp, out, derived_seed(seed, ki, res.cycles, 1))
                except Exception as exc:
                    bad = [f"check raised {type(exc).__name__}: {exc}"]
                err = "; ".join(bad) or None
            if err:
                res.failures.append(f"{kind.name} cycle {res.cycles}: {err}")
        res.cycles += 1
        if res.cycles == COUNT_CYCLES:
            res.prefix_items = len(res.latencies)
            res.prefix_counts = Counter(wl.counts)
        if time.perf_counter() - start >= seconds or res.cycles == max_cycles:
            break
    res.wall_s = time.perf_counter() - start
    return res


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with at least
    TAIL_BEYOND items beyond it; the maximum when there are too few."""
    s = sorted(latencies)
    k = len(s) - TAIL_BEYOND  # 1-based rank with TAIL_BEYOND items above
    if k < 1:
        return s[-1], 100.0
    return s[k - 1], 100.0 * k / len(s)


def environment() -> dict:
    import numpy
    import scipy

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu = None
    info = read("/proc/cpuinfo") or ""
    for line in info.splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (read(idx / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor() or "unknown",
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "note": (
            "n = 65537 float64 arrays are 512 KiB and fit in L2; no memory-"
            "bandwidth figure is claimed, only computed bytes and counts"
        ),
    }


def setup_probe(workload: str) -> None:
    """In a fresh interpreter: time ``import levyburgers`` and the
    workload's untimed preparation; print both as JSON."""
    t0 = time.perf_counter()
    import levyburgers  # noqa: F401

    t1 = time.perf_counter()
    import workloads

    workdir = OUT / "work" / f"probe-{os.getpid()}"
    workloads.build(workload, workdir, SRC)
    t2 = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"import_s": t1 - t0, "prepare_s": t2 - t1}))


def run_setup_probes(workload: str, seed: int) -> list[dict]:
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.exit(f"perfbench: setup probe failed:\n{proc.stderr[-2000:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def interpreter_seconds() -> list[float]:
    """Wall time of a bare ``python -c pass``, once per probe."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        out.append(time.perf_counter() - t0)
    return out


def end_to_end(wl, loop: LoopResult, setups: list[dict]) -> tuple[dict, dict]:
    """(metrics for the result line, extra facts for the record)."""
    n = len(loop.latencies)
    tail_s, tail_pct = tail(loop.latencies)
    if wl.name == "cli":
        rss_kb = wl.child_maxrss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "items_per_s": (n / sum(loop.latencies), "1/s", n),
        "item_p50_ms": (1e3 * statistics.median(loop.latencies), "ms", n),
        "item_tail_ms": (1e3 * tail_s, "ms", n),
        "setup_s": (statistics.median(s["import_s"] + s["prepare_s"] for s in setups),
                    "s", len(setups)),
        "peak_rss_mb": (rss_kb / 1024.0, "MiB", 1),
    }
    facts = {
        "error_rate": len(loop.failures) / n,
        "item_tail_percentile": tail_pct,
        "items": n,
        "cycles": loop.cycles,
        "window_too_small": loop.window_too_small,
        "measured_wall_s": loop.wall_s,
        "per_kind_p50_ms": {
            k: 1e3 * statistics.median(
                lat for lat, kk in zip(loop.latencies, loop.kinds) if kk == k)
            for k in dict.fromkeys(loop.kinds)
        },
    }
    return metrics, facts


def per_layer(wl, tracer, loop: LoopResult, overhead_s: float,
              interp: list[float], setups: list[dict]) -> dict:
    from tracing import ITEM, LAYERS, span_cost_ns

    s = tracer.summary(loop.prefix_items)
    pc, wc = loop.prefix_counts, wl.counts
    n = len(loop.latencies)
    item_time = s[ITEM]["incl_s"]

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    def per_item(name, key="incl_s"):
        return get(name, key) / n

    def ratio(a, b):
        return a / b if b else 0.0

    reps = {k.name: k.replicates for k in wl.kinds}
    rep_items = {i for i in range(loop.prefix_items) if reps[loop.kinds[i]]}
    layer_self = Counter()
    for name, d in s.items():
        layer_self[name.split(".")[0]] += d["self_s"]

    m = {
        "hull.s": (per_item("hull"), "s"),
        "hull.ns_per_point": (1e9 * ratio(get("hull", "incl_s"), wc["hull.points_in"]), "ns"),
        "hull.calls": (get("hull", "calls"), "count"),
        "hull.points_in": (pc["hull.points_in"], "count"),
        "hull.vertices_out": (pc["hull.vertices_out"], "count"),
        "hull.vertex_ratio": (ratio(pc["hull.vertices_out"], pc["hull.points_in"]), "ratio"),
        "levy.sample_path.s": (per_item("levy.sample_path"), "s"),
        "levy.sample_path.ns_per_point": (
            1e9 * ratio(get("levy.sample_path", "incl_s"), wc["levy.sample_path.points"]),
            "ns"),
        "levy.integral.s": (per_item("levy.integral"), "s"),
        "solver.solve.self_s": (per_item("solver.solve", "self_s"), "s"),
        "solver.window_too_small": (pc["solver.solve.raised.WindowTooSmallError"], "count"),
        "solver.oracle_checked": (pc["solver.oracle_checked"], "count"),
        "solver.oracle_mismatch": (pc["solver.oracle_mismatch"], "count"),
        "shocks.extract.s": (per_item("shocks.extract"), "s"),
        "shocks.sign_pattern.self_s": (per_item("shocks.sign_pattern", "self_s"), "s"),
        "shocks.window_stats.s": (per_item("shocks.window_stats"), "s"),
        "shocks.shocks_found": (pc["shocks.shocks_found"], "count"),
        "shocks.zero_set_size": (pc["shocks.zero_set_size"], "count"),
        "shocks.rarefactions": (pc["shocks.rarefactions"], "count"),
        "regen.rst_scan.self_s": (per_item("regen.rst_scan", "self_s"), "s"),
        "regen.rst_scan.cells_scanned": (pc["regen.rst_scan.cells_scanned"], "count"),
        "regen.rk_sequence.s": (per_item("regen.rk_sequence"), "s"),
        "regen.rk_steps": (pc["regen.rk_steps"], "count"),
        "regen.found_ratio": (
            ratio(pc["regen.rst_scan.found"], pc["regen.rst_scan.calls"]), "ratio"),
        "regen.permutation.s": (per_item("regen.permutation"), "s"),
        "regen.permutation.perms": (pc["regen.permutation.perms"], "count"),
        "regen.independence.self_s": (per_item("regen.independence", "self_s"), "s"),
        "regen.solves_per_replicate": (
            ratio(tracer.calls_in_items("solver.solve", rep_items),
                  sum(reps[loop.kinds[i]] for i in rep_items)),
            "ratio"),
        "cli.interpreter_s": (statistics.median(interp), "s"),
        "cli.import_s": (statistics.median(p["import_s"] for p in setups), "s"),
        "cli.run_experiment.self_s": (per_item("cli.run_experiment", "self_s"), "s"),
        "cli.bytes_written": (pc["cli.bytes_written"], "count"),
        "cli.files_written": (pc["cli.files_written"], "count"),
    }
    for layer in LAYERS:
        m[f"share.{layer}"] = (layer_self[layer] / item_time, "ratio")
    m["share.other"] = (layer_self[ITEM] / item_time, "ratio")
    # a cli item is a fresh interpreter: its start-up and import against
    # the in-process item time measured here
    startup = m["cli.interpreter_s"][0] + m["cli.import_s"][0]
    m["share.startup"] = (startup / (startup + item_time / n) if wl.name == "cli" else 0.0,
                          "ratio")
    m["trace.item_s"] = (item_time / n, "s")
    m["trace.items"] = (n, "count")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.spans_per_item"] = ((len(tracer.spans) - n) / n, "count")
    m["trace.span_cost_ns"] = (span_cost_ns(), "ns")
    return m


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, each in its own process, then one table of every
    metric by name and unit and one combined result line."""
    results = {}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        results[w] = json.loads(lines[-1])
    first = results[WORKLOADS[0]]["metrics"]
    print(f"{'metric':32s} {'unit':>6s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for name, v in first.items():
        print(f"{name:32s} {v['unit']:>6s}" + "".join(
            f"{results[w]['metrics'][name]['value']:>14.6g}" for w in WORKLOADS))
    print(f"{'error_rate':32s} {'':>6s}" + "".join(
        f"{results[w]['failed'] / results[w]['attempted']:>14.6g}" for w in WORKLOADS))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "levyburgers" / "__init__.py").is_file():
        print(f"perfbench: no levyburgers sources under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    wall0 = time.perf_counter()
    setups = run_setup_probes(args.workload, args.seed)
    import levyburgers
    import workloads

    if Path(levyburgers.__file__).resolve().parent != SRC / "levyburgers":
        print(f"perfbench: levyburgers imported from {levyburgers.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, workdir, SRC, in_process=bool(args.trace))
        if args.trace:
            from tracing import Tracer

            interp = interpreter_seconds()
            before = closed_loop(wl, args.seed, 0.0, max_cycles=1)
            wl.counts.clear()
            tracer = Tracer(wl.counts)
            patched = tracer.install()
            try:
                loop = closed_loop(wl, args.seed, args.seconds, tracer)
            finally:
                tracer.uninstall()
            after = closed_loop(wl, args.seed, 0.0, max_cycles=1)
            # ``before`` warms caches; the overhead compares the traced and
            # the untraced pass over the same first cycle of inputs
            k = len(wl.kinds)
            overhead = (sum(loop.latencies[:k]) - sum(after.latencies)) / k
            metrics = per_layer(wl, tracer, loop, overhead, interp, setups)
            failures = before.failures + loop.failures + after.failures
            attempted = len(before.latencies) + len(loop.latencies) + len(after.latencies)
            facts = {"items": len(loop.latencies), "cycles": loop.cycles,
                     "wrapped": patched,
                     "untraced_cycle_s": [sum(before.latencies), sum(after.latencies)],
                     "traced_cycle_s": sum(loop.latencies[:k]),
                     "kind_shares": tracer.kind_shares(loop.kinds)}
        else:
            loop = closed_loop(wl, args.seed, args.seconds)
            metrics, facts = end_to_end(wl, loop, setups)
            failures, attempted = loop.failures, len(loop.latencies)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "setup_probes": setups,
        "facts": facts,
        "failures": failures[:20],
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
        "total_wall_s": time.perf_counter() - wall0,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"closed loop, 1 client, {facts['items']} items in {facts['cycles']} cycles")
    for name, v in metrics.items():
        samples = f"  (n={v[2]})" if len(v) > 2 else ""
        print(f"  {name:32s} {v[0]:>16.6g} {v[1]}{samples}")
    if not args.trace:
        print(f"  {'error_rate':32s} {facts['error_rate']:>16.6g} "
              f"(failed {len(failures)} of {attempted} attempted)")
        print(f"  item_tail_ms is the p{facts['item_tail_percentile']:.1f} latency; "
              f"{facts['window_too_small']} WindowTooSmallError outcomes")
    for f in failures[:5]:
        print(f"  FAILED {f}")
    print("environment " + json.dumps(record["environment"]))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
