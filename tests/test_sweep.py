"""Extreme-value sweep of the CLI.

Each config field takes each extreme value of its kind, on two of the six
subcommands (a pair that rotates with the value), on top of a small base
config; L and the stable scale also take each float extreme on all six
subcommands at stable alpha = 0.75.  Every argv must exit 0 or with its
typed code and warn nothing; on exit 0 every number written must be
finite, except the +-inf sentinels of vertices.csv and the NaN medians of
a refine row whose replicates all failed.  Values that only ask for a lot
of work (a replicate count of 2**64, an eps of 5e-324) are left out.  No
argv may reach a grid of more than MAX_GRID points: huge grids must be
rejected before anything is sampled or allocated.
"""

import csv
import dataclasses
import json
import math
import warnings

import pytest

from levyburgers import GridSpec, LevyBurgersError, cli, solver
from levyburgers.cli import EXIT_OK, ExperimentConfig, _field_type, main

SUBCOMMANDS = tuple(cli.SUBCOMMANDS)
# -0 passes every check that a value be >= 0, as 0.0 <= -0.0
FLOATS = ("0", "-1", "5e-324", "1e300", "1.7e308", "inf", "-inf", "nan", "-0")
VALUES = {
    float: FLOATS,
    int: ("0", "-1", str(2**64)),
    list: (*FLOATS, "", "0.5,0.5"),
    str: ("nope",),
}
SLOW = {("n_rep", str(2**64)), ("eps_list", "5e-324")}
# the family that reads a field; the other fields cycle through FAMILIES
FAMILY_OF = {
    "sigma": "brownian", "alpha": "stable", "beta": "stable", "scale": "stable",
    "rate": "cpoisson", "jump_kind": "cpoisson", "jump_a": "cpoisson", "jump_b": "cpoisson",
    "delta": "jump_up", "location": "jump_up",
}
FAMILIES = ("brownian", "stable", "cpoisson")
BASE = {"L": "2", "n": "129", "n_mc": "1000", "eps_list": "0.1,0.01",
        "h_list": "0.0625,0.03125"}
# every error type's own exit code; the base class's 1 is no typed exit
TYPED_EXITS = {EXIT_OK, *(e.exit_code for e in LevyBurgersError.__subclasses__())}
MAX_GRID = 2**16 + 1


def _flag(name: str) -> str:
    return "--reps" if name == "n_rep" else "--" + name.replace("_", "-")


def _param(sub: str, config: dict, family: str, name: str, value: str):
    # --flag=value, so that a value such as -1 is no option
    argv = [sub, *(f"{_flag(n)}={v}" for n, v in {**BASE, **config}.items())]
    return pytest.param(argv, id=f"{sub}-{family}-{name}={value}")


def _sweep():
    k = 0
    for f in dataclasses.fields(ExperimentConfig):
        for value in VALUES[_field_type(f)]:
            if (f.name, value) in SLOW:
                continue
            for j in range(2):
                sub = SUBCOMMANDS[(k + 3 * j) % 6]
                family = FAMILY_OF.get(f.name, FAMILIES[(k // 6 + j) % len(FAMILIES)])
                yield _param(sub, {"family": family, f.name: value}, family, f.name, value)
            # -0 shares the subcommands of the value after it, so that
            # the other values keep theirs
            k += value != "-0"
    # below alpha = 1 the stable step scale c*h^(1/alpha) can overflow
    # where it does not at the default alpha = 1.5
    for name in ("L", "scale"):
        for value in FLOATS:
            for sub in SUBCOMMANDS:
                config = {"family": "stable", "alpha": "0.75", name: value}
                yield _param(sub, config, "stable-alpha=0.75", name, value)


SWEEP = list(_sweep())


@pytest.fixture
def sweep_setup(monkeypatch):
    """Fail any grid of more than MAX_GRID points that gets its points,
    a sampled path or a zero path."""

    def guard(fn):
        def guarded(*args, **kwargs):
            grid = next(a for a in (*args, *kwargs.values()) if isinstance(a, GridSpec))
            assert grid.n <= MAX_GRID, f"a grid of {grid.n} points reached {fn.__name__}"
            return fn(*args, **kwargs)
        return guarded

    monkeypatch.setattr(GridSpec, "points", guard(GridSpec.points))
    for module, name in ((cli, "sample_path"), (solver, "sample_path"), (cli, "zero_path")):
        monkeypatch.setattr(module, name, guard(getattr(module, name)))


def _reject_constant(name):
    raise AssertionError(f"{name} is not JSON")


def _assert_finite_outputs(out_dir, n_rep: int) -> None:
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=_reject_constant)
            continue
        columns, *rows = csv.reader(path.read_text().splitlines()[1:])
        for r, row in enumerate(rows):
            for col, text in zip(columns, row):
                if text == "" or math.isfinite(float(text)):
                    continue
                sentinel = path.name == "vertices.csv" and (
                    (r == 0 and col in ("s_left", "x_lo"))
                    or (r == len(rows) - 1 and col in ("s_right", "x_hi")))
                failed = path.name == "refine.csv" and int(row[-1]) == n_rep
                assert sentinel or failed, f"{path.name} row {r} {col}={text}"


@pytest.mark.parametrize("argv", SWEEP)
def test_extreme_value(tmp_path, sweep_setup, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, f"--out-dir={tmp_path}"])
    assert code in TYPED_EXITS
    if code == EXIT_OK:
        n_rep = json.loads((tmp_path / "effective_config.json").read_text())["config"]["n_rep"]
        _assert_finite_outputs(tmp_path, n_rep)


def test_sweep_size():
    assert 436 <= len(SWEEP) <= 476
