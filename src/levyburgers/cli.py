"""Reproducible experiment driver.

Subcommands: simulate, solve, shocks, regen, refine, integral, each one
function in SUBCOMMANDS that reads the config and hands its reports to an
emit callable.  Every run writes an effective-config JSON with all
defaults explicit plus one or more CSV/JSON reports, each carrying a
header line with the config hash and seed; CSV rows are numpy or Python
values formatted by the csv module.  Identical configs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import LevyBurgersError, ParameterError
from .fixtures import jump_down, jump_up, zero_path
from .levy import (
    FAMILIES,
    GridSpec,
    JumpDist,
    LevyParams,
    LevyPath,
    abruptness_integral_estimate,
    sample_path,
)
from .regen import (
    MIN_INDEPENDENCE_REPS, independence_report, regen_report, replicate_features, rst_scan,
)
from .shocks import Rarefaction, RefinementRow, Shock, extract_shocks, refinement_study
from .solver import owning_vertices, solve, solved_replicates

# the deterministic families: a path from (grid, delta, location)
FIXTURES = {"zero": lambda g, *_: zero_path(g), "jump_up": jump_up, "jump_down": jump_down}

EXIT_OK = 0


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, JSON-round-trippable experiment description.  Frozen, so every
    field passes the __post_init__ check: change one by dataclasses.replace."""

    family: str = "brownian"
    sigma: float = 1.0
    alpha: float = 1.5
    beta: float = 0.0
    scale: float = 1.0
    rate: float = 1.0
    jump_kind: str = "normal"
    jump_a: float = 0.0
    jump_b: float = 1.0
    delta: float = 0.5
    location: float = 0.0
    L: float = 8.0
    n: int = 4097
    t: float = 1.0
    seed: int = 0
    n_rep: int = 1
    h_list: list[float] = field(default_factory=lambda: [2**-6, 2**-7, 2**-8, 2**-9])
    eps_list: list[float] = field(default_factory=lambda: [1e-1, 1e-2, 1e-3])
    a: float = -1.0
    b: float = 1.0
    w: float = 0.5
    n_mc: int = 10_000
    k_max: int = 64
    stats_window: list[float] | None = None

    def __post_init__(self):
        """Check every field's type and finiteness, however the config is
        built: from flags, from a dict, directly or by dataclasses.replace."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _takes(f, value):
                kind = _field_type(f).__name__
                raise ParameterError(f"config field {f.name} must be {kind}, got {value!r}")
            if not all(map(_finite, value if isinstance(value, list) else [value])):
                raise ParameterError(f"config field {f.name} must be finite, got {value!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ParameterError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)

    def grid(self) -> GridSpec:
        return GridSpec(self.L, self.n)

    def levy_params(self) -> LevyParams:
        if self.family == "cauchy":  # alpha and beta are ignored
            return LevyParams.cauchy(self.scale)
        if self.family not in FAMILIES:
            raise ParameterError(f"family {self.family!r} has no Levy parameters")
        jumps = None  # other families ignore, and do not check, the jump flags
        if self.family == "cpoisson":
            jumps = JumpDist(self.jump_kind, self.jump_a, self.jump_b)
        return LevyParams(
            self.family, self.sigma, self.alpha, self.beta, self.scale, self.rate, jumps
        )

    def build_path(self) -> LevyPath:
        grid = self.grid()
        if self.family in FIXTURES:
            return FIXTURES[self.family](grid, self.delta, self.location)
        return sample_path(self.levy_params(), grid, self.seed)


def _field_type(f: dataclasses.Field) -> type:
    """int, float or str for a field with such a default, else list (a list
    of numbers, or None where that is the default)."""
    return type(f.default) if isinstance(f.default, (int, float, str)) else list


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value) -> bool:
    """Whether a config value is no float nan or +-inf; an int is finite,
    and math.isfinite would overflow on a huge one."""
    return not isinstance(value, float) or math.isfinite(value)


def _takes(f: dataclasses.Field, value) -> bool:
    """Whether config field f takes value: a float field takes an int too,
    kept as given, so a config keeps its hash; a bool is no number."""
    kind = _field_type(f)
    if kind is list:
        return (value is None and f.default is None) or (
            isinstance(value, list) and all(map(_is_number, value)))
    if kind is float:
        return _is_number(value)
    return isinstance(value, kind) and not isinstance(value, bool)


def config_hash(config: ExperimentConfig, subcommand: str) -> str:
    payload = json.dumps(
        {**config.to_dict(), "subcommand": subcommand},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _write_csv(path: Path, header_meta: str, columns: list[str], rows) -> None:
    """csv writes floats with repr, ints with str and None as an empty
    field; bools alone are mapped, to 1/0."""
    with open(path, "w", newline="") as fh:
        fh.write(header_meta + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([int(v) if isinstance(v, (bool, np.bool_)) else v for v in row])


def _write_json(path: Path, header_meta: dict, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump({**header_meta, **payload}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _simulate(config: ExperimentConfig, emit) -> None:
    path = config.build_path()
    ys = path.grid.points()
    emit("path.csv", ["y", "psi0"], zip(ys, path.values))
    idx = path.tracked_jumps["index"]
    emit("jumps.csv", ["index", "y", "size"], zip(idx, ys[idx], path.tracked_jumps["size"]))


def _solve(config: ExperimentConfig, emit) -> None:
    path = config.build_path()
    sol = solve(path, config.t)
    cm = sol.majorant
    emit(
        "vertices.csv",
        ["y", "c_bar", "s_left", "s_right", "x_lo", "x_hi", "boundary_affected"],
        zip(cm.ys, cm.vs, cm.s[:-1], cm.s[1:], sol.x_lo, sol.x_hi, sol.boundary_affected),
    )
    lo, hi = sol.window
    ys = path.grid.points()
    xs = ys[(ys >= lo) & (ys <= hi)]
    a = cm.ys[owning_vertices(sol, xs)]
    emit("eulerian.csv", ["x", "a", "u"], zip(xs, a, (xs - a) / config.t))


def _shocks(config: ExperimentConfig, emit) -> None:
    rep = extract_shocks(solve(config.build_path(), config.t))
    emit("shocks.csv", Shock._fields, zip(*rep.shocks.columns))
    emit("zero_set.csv", ["y"], zip(rep.zero_set))
    emit("rarefactions.csv", Rarefaction._fields, zip(*rep.rarefactions.columns))


def _regen(config: ExperimentConfig, emit) -> None:
    if config.n_rep < 1:
        raise ParameterError(f"n_rep must be >= 1, got {config.n_rep}")
    rep = regen_report(solve(config.build_path(), config.t), k_max=config.k_max)
    payload = rep._asdict()
    scans = [rep]
    if config.n_rep > 1 and config.family not in FIXTURES:
        replicates = solved_replicates(
            config.levy_params(), config.grid(), config.t, config.n_rep, config.seed, key=0
        )
        # the scans and the independence features share each solve; a
        # replicate whose solve failed has no scan
        scans, features = [], []
        for sol in replicates:
            scans.append(None if sol is None else rst_scan(sol.path, config.t, sol))
            features.append(replicate_features(sol, config.w))
        if config.n_rep >= MIN_INDEPENDENCE_REPS:
            ind = independence_report(features, config.seed)
            payload["independence"] = ind._asdict()
    emit("regen_report.json", payload)
    vals = [(None,) * 3 if s is None else (s.R, s.S, s.T_first) for s in scans]
    emit(
        "replicates.csv",
        ["replicate", "found", "R", "S", "T_first"],
        ((r, None not in v, *v) for r, v in enumerate(vals)),
    )


def _refine(config: ExperimentConfig, emit) -> None:
    window = None if config.stats_window is None else tuple(config.stats_window)
    rows = refinement_study(
        config.levy_params(), config.t, config.L, config.h_list, config.n_rep, config.seed,
        window=window,
    )
    emit("refine.csv", RefinementRow._fields, rows)


def _integral(config: ExperimentConfig, emit) -> None:
    rows = abruptness_integral_estimate(
        config.levy_params(), config.a, config.b, config.eps_list, config.n_mc, config.seed
    )
    emit("integral.csv", ["eps", "i_hat"], rows)


# each subcommand reads the config and hands its reports to emit(name, ...)
SUBCOMMANDS = {
    "simulate": _simulate, "solve": _solve, "shocks": _shocks,
    "regen": _regen, "refine": _refine, "integral": _integral,
}


def run_experiment(
    config: ExperimentConfig, subcommand: str, out_dir: str | Path
) -> list[Path]:
    """Execute one subcommand, write its reports, return the file paths."""
    if subcommand not in SUBCOMMANDS:
        raise ParameterError(f"unknown subcommand {subcommand!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    chash = config_hash(config, subcommand)
    tool = f"levyburgers-{__version__}"
    eff = out / "effective_config.json"
    _write_json(
        eff,
        {"config_hash": chash, "tool": tool},
        {"subcommand": subcommand, "config": config.to_dict()},
    )
    written = [eff]

    def emit(name: str, *report) -> None:
        """Write a JSON payload, or CSV columns and rows, under the run's header."""
        p = out / name
        if name.endswith(".json"):
            _write_json(p, {"config_hash": chash, "seed": config.seed}, *report)
        else:
            _write_csv(p, f"# config_hash={chash} seed={config.seed} tool={tool}", *report)
        written.append(p)

    SUBCOMMANDS[subcommand](config, emit)
    return written


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    """One parser for every subcommand: each reads the same flags."""
    parser = argparse.ArgumentParser(
        prog="levyburgers",
        description="Burgers shock structure from Levy potential paths",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", type=str, default=None, help="JSON config file")
    parser.add_argument("--out-dir", type=str, default="out")
    # one flag per config field, typed by _field_type; lists take
    # comma-separated floats
    for f in dataclasses.fields(ExperimentConfig):
        kind = _field_type(f)
        kind = _float_list if kind is list else kind
        flag = "--reps" if f.name == "n_rep" else "--" + f.name.replace("_", "-")
        parser.add_argument(flag, type=kind, default=None, dest=f.name)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    base: dict = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParameterError(f"cannot read config {args.config}: {exc}") from exc
        if isinstance(loaded, dict):
            loaded = loaded.get("config", loaded)
        if not isinstance(loaded, dict):
            raise ParameterError(f"config {args.config} is not a JSON object")
        base.update(loaded)
    for f in dataclasses.fields(ExperimentConfig):
        value = getattr(args, f.name)
        if value is not None:
            base[f.name] = value
    return ExperimentConfig.from_dict(base)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        run_experiment(config, args.subcommand, args.out_dir)
        return EXIT_OK
    except LevyBurgersError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
