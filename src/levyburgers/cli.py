"""Reproducible experiment driver.

Subcommands: simulate, solve, shocks, regen, refine, integral.  Every run
emits an effective-config JSON with all defaults explicit plus one or
more CSV/JSON reports, each carrying a header line with the config hash
and seed.  Identical configs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    GridError,
    InputError,
    InsufficientDataError,
    LevyBurgersError,
    OutOfDomainError,
    ParameterError,
    WindowTooSmallError,
)
from .fixtures import jump_down, jump_up, zero_path
from .levy import (
    GridSpec,
    JumpDist,
    LevyParams,
    LevyPath,
    abruptness_integral_estimate,
    sample_path,
)
from .regen import (
    RegenReport,
    independence_report,
    regen_report,
    replicate_features,
    rst_scan,
)
from .shocks import Rarefaction, RefinementRow, Shock, extract_shocks, refinement_study
from .solver import owning_vertices, solve, solved_replicates

SUBCOMMANDS = ("simulate", "solve", "shocks", "regen", "refine", "integral")

FIXTURE_FAMILIES = ("zero", "jump_up", "jump_down")

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_BAD_CONFIG = 2
EXIT_WINDOW = 3
EXIT_INSUFFICIENT = 4
EXIT_OUT_OF_DOMAIN = 5


@dataclass
class ExperimentConfig:
    """Flat, JSON-round-trippable experiment description."""

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

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ParameterError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)

    def grid(self) -> GridSpec:
        return GridSpec.symmetric(self.L, self.n)

    def levy_params(self) -> LevyParams:
        if self.family == "brownian":
            return LevyParams.brownian(self.sigma)
        if self.family == "stable":
            return LevyParams.stable(self.alpha, self.beta, self.scale)
        if self.family == "cauchy":
            return LevyParams.cauchy(self.scale)
        if self.family == "cpoisson":
            return LevyParams.compound_poisson(
                self.rate, JumpDist(self.jump_kind, self.jump_a, self.jump_b)
            )
        raise ParameterError(f"family {self.family!r} has no Levy parameters")

    def build_path(self) -> LevyPath:
        grid = self.grid()
        if self.family == "zero":
            return zero_path(grid)
        if self.family == "jump_up":
            return jump_up(grid, self.delta, self.location)
        if self.family == "jump_down":
            return jump_down(grid, self.delta, self.location)
        return sample_path(self.levy_params(), grid, self.seed)


def config_hash(config: ExperimentConfig, subcommand: str) -> str:
    payload = json.dumps(
        {**config.to_dict(), "subcommand": subcommand},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _write_csv(path: Path, header_meta: str, columns: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header_meta + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, header_meta: dict, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump({**header_meta, **payload}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _replicate_row(r: int, rep: RegenReport | None) -> tuple:
    """replicates.csv row; a replicate whose solve failed has no report."""
    vals = (None, None, None) if rep is None else (rep.R, rep.S, rep.T_first)
    return (r, int(None not in vals), *("" if v is None else repr(v) for v in vals))


def run_experiment(
    config: ExperimentConfig, subcommand: str, out_dir: str | Path
) -> list[Path]:
    """Execute one subcommand, write its reports, return the file paths."""
    if subcommand not in SUBCOMMANDS:
        raise ParameterError(f"unknown subcommand {subcommand!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    chash = config_hash(config, subcommand)
    meta = f"# config_hash={chash} seed={config.seed} tool=levyburgers-{__version__}"
    written: list[Path] = []

    def emit_csv(name, columns, rows):
        p = out / name
        _write_csv(p, meta, columns, rows)
        written.append(p)

    eff = out / "effective_config.json"
    _write_json(
        eff,
        {"config_hash": chash, "tool": f"levyburgers-{__version__}"},
        {"subcommand": subcommand, "config": config.to_dict()},
    )
    written.append(eff)

    if subcommand == "simulate":
        path = config.build_path()
        ys = path.grid.points()
        emit_csv("path.csv", ["y", "psi0"], zip(ys, path.values))
        jumps = path.tracked_jumps
        cols = (jumps["index"], ys[jumps["index"]], jumps["size"])
        emit_csv("jumps.csv", ["index", "y", "size"], zip(*(c.tolist() for c in cols)))
        return written

    if subcommand == "solve":
        path = config.build_path()
        sol = solve(path, config.t)
        m = len(sol)
        emit_csv(
            "vertices.csv",
            ["y", "c_bar", "s_left", "s_right", "x_lo", "x_hi", "boundary_affected"],
            (
                (
                    sol.vertex_ys[k],
                    sol.vertex_values[k],
                    sol.majorant.left_slope(k),
                    sol.majorant.right_slope(k),
                    sol.x_lo[k],
                    sol.x_hi[k],
                    bool(sol.boundary_affected[k]),
                )
                for k in range(m)
            ),
        )
        lo, hi = sol.window
        ys = path.grid.points()
        xs = ys[(ys >= lo) & (ys <= hi)]
        a = sol.vertex_ys[owning_vertices(sol, xs)]
        emit_csv("eulerian.csv", ["x", "a", "u"], zip(xs, a, (xs - a) / config.t))
        return written

    if subcommand == "shocks":
        path = config.build_path()
        sol = solve(path, config.t)
        rep = extract_shocks(sol)
        emit_csv("shocks.csv", Shock._fields, rep.shocks)
        emit_csv("zero_set.csv", ["y"], ((y,) for y in rep.zero_set))
        emit_csv("rarefactions.csv", Rarefaction._fields, rep.rarefactions)
        return written

    if subcommand == "regen":
        path = config.build_path()
        rep = regen_report(path, config.t, k_max=config.k_max)
        payload = dataclasses.asdict(rep)
        if config.n_rep > 1 and config.family not in FIXTURE_FAMILIES:
            replicates = solved_replicates(
                config.levy_params(), config.grid(), config.t, config.n_rep, config.seed,
                key=0,
            )
            # the scans and the independence features share each solve
            rows, features = [], []
            for r, (p_r, sol) in enumerate(replicates):
                rr = None if sol is None else rst_scan(p_r, config.t, sol)
                rows.append(_replicate_row(r, rr))
                features.append(replicate_features(sol, config.w))
            if config.n_rep >= 100:
                ind = independence_report(features, config.seed)
                payload["independence"] = {
                    "p_value_global": ind.p_value_global,
                    "dcor": ind.dcor,
                    "feature_correlations": list(ind.feature_correlations),
                    "n_valid": ind.n_valid,
                    "n_dropped": ind.n_dropped,
                }
        else:
            rows = [_replicate_row(0, rep)]
        rj = out / "regen_report.json"
        _write_json(rj, {"config_hash": chash, "seed": config.seed}, payload)
        written.append(rj)
        emit_csv("replicates.csv", ["replicate", "found", "R", "S", "T_first"], rows)
        return written

    if subcommand == "refine":
        window = tuple(config.stats_window) if config.stats_window else None
        rows = refinement_study(
            config.levy_params(),
            config.t,
            config.L,
            config.h_list,
            config.n_rep,
            config.seed,
            window=window,
        )
        emit_csv("refine.csv", RefinementRow._fields, rows)
        return written

    # integral
    rows = abruptness_integral_estimate(
        config.levy_params(), config.a, config.b, config.eps_list, config.n_mc, config.seed
    )
    emit_csv("integral.csv", ["eps", "i_hat"], rows)
    return written


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyburgers",
        description="Burgers shock structure from Levy potential paths",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    defaults = ExperimentConfig()
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out-dir", type=str, default="out")
        # one flag per config field, typed by its default; lists and the
        # None default take comma-separated floats
        for f in dataclasses.fields(ExperimentConfig):
            value = getattr(defaults, f.name)
            kind = type(value) if isinstance(value, (int, float, str)) else _float_list
            flag = "--reps" if f.name == "n_rep" else "--" + f.name.replace("_", "-")
            p.add_argument(flag, type=kind, default=None, dest=f.name)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    base: dict = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParameterError(f"cannot read config {args.config}: {exc}") from exc
        base.update(loaded.get("config", loaded))
    field_names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for name in field_names:
        value = getattr(args, name, None)
        if value is not None:
            base[name] = value
    return ExperimentConfig.from_dict(base)


_EXIT_CODES = (
    (WindowTooSmallError, EXIT_WINDOW),
    (InsufficientDataError, EXIT_INSUFFICIENT),
    (OutOfDomainError, EXIT_OUT_OF_DOMAIN),
    ((ParameterError, GridError, InputError), EXIT_BAD_CONFIG),
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        run_experiment(config, args.subcommand, args.out_dir)
        return EXIT_OK
    except LevyBurgersError as exc:
        code = EXIT_UNEXPECTED
        for types, c in _EXIT_CODES:
            if isinstance(exc, types):
                code = c
                break
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return code


if __name__ == "__main__":
    sys.exit(main())
