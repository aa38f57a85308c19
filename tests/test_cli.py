import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cli_corpus
import levyburgers
from levyburgers import (
    LevyParams, ParameterError, WindowTooSmallError, extract_shocks, sample_path, solve,
)
from levyburgers import cli, errors, solver
from levyburgers.cli import (
    EXIT_OK,
    ExperimentConfig,
    build_parser,
    config_from_args,
    main,
    run_experiment,
)

SUBS_DETERMINISTIC = ("simulate", "solve", "shocks", "regen", "integral")

# the byte-identity corpus of cli_corpus.py, split by whether an argv runs
# on a fixture; among the others, stable-simulate tracks 355 jumps and
# replicate 18 of stable-regen-empty-fields has no S or T, so its row has
# empty fields
CORPUS = cli_corpus.load()
FIXTURE_KEYS = [k for k in CORPUS if k.split("-")[0] in cli.FIXTURES]
SAMPLED_KEYS = [k for k in CORPUS if k not in FIXTURE_KEYS]


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    rows = list(csv.reader(lines[1:]))
    return lines[0], rows[0], rows[1:]


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig(family="stable", alpha=0.75, seed=42, h_list=[0.5, 0.25])
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(Exception):
            ExperimentConfig.from_dict({"familly": "brownian"})

    def test_effective_config_has_all_defaults(self, tmp_path):
        run_experiment(ExperimentConfig(n=65, L=2.0), "simulate", tmp_path)
        eff = json.loads((tmp_path / "effective_config.json").read_text())
        field_names = set(ExperimentConfig().to_dict())
        assert field_names == set(eff["config"])
        # reload round-trips
        assert ExperimentConfig.from_dict(eff["config"]) == ExperimentConfig(n=65, L=2.0)


    def test_float_field_keeps_an_int(self):
        # an int is a float value and stays an int, so the config hash holds
        cfg = ExperimentConfig.from_dict({"t": 1, "stats_window": [1, 2.5]})
        assert type(cfg.t) is int and cfg.stats_window == [1, 2.5]

    def test_every_field_has_a_flag(self):
        want = ExperimentConfig(
            family="cpoisson", sigma=2.0, alpha=0.75, beta=0.5, scale=3.0, rate=4.0,
            jump_kind="uniform", jump_a=-1.0, jump_b=2.0, delta=0.25, location=1.0,
            L=2.0, n=65, t=0.5, seed=7, n_rep=3, h_list=[0.5, 0.25], eps_list=[0.1],
            a=-2.0, b=3.0, w=0.125, n_mc=2000, k_max=8, stats_window=[1.0, 2.0],
        )
        argv = ["refine", "--reps", "3"]
        for name, value in want.to_dict().items():
            if name != "n_rep":
                text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
                argv += ["--" + name.replace("_", "-"), text]
        args = build_parser().parse_args(argv)
        assert args.out_dir == "out" and args.config is None
        got = config_from_args(args)
        assert got == want
        assert [type(v) for v in got.to_dict().values()] == [
            type(v) for v in want.to_dict().values()]


class TestSimulate:
    def test_flat_path_csv(self, tmp_path):
        cfg = ExperimentConfig(family="brownian", sigma=0.0, n=65, L=2.0)
        run_experiment(cfg, "simulate", tmp_path)
        meta, cols, rows = read_csv(tmp_path / "path.csv")
        assert cols == ["y", "psi0"]
        assert len(rows) == 65
        assert all(float(v) == 0.0 for _, v in rows)

    def test_jumps_csv_round_trip(self, tmp_path):
        cfg = ExperimentConfig(family="stable", alpha=0.75, n=2049, L=4.0, seed=5)
        run_experiment(cfg, "simulate", tmp_path)
        _, _, rows = read_csv(tmp_path / "jumps.csv")
        path = cfg.build_path()
        assert [(int(r[0]), float(r[2])) for r in rows] == path.tracked_jumps.tolist()

    def test_cauchy_is_stable_1_0(self, tmp_path):
        argvs = {
            "cauchy": ["--family", "cauchy", "--scale", "2"],
            "stable": ["--family", "stable", "--alpha", "1", "--beta", "0", "--scale", "2"],
        }
        rows = {}
        for name, flags in argvs.items():
            out = tmp_path / name
            assert main(["simulate", *flags, "--seed", "5", "--out-dir", str(out)]) == EXIT_OK
            rows[name] = [read_csv(out / f)[1:] for f in ("path.csv", "jumps.csv")]
        assert rows["cauchy"] == rows["stable"]
        assert len(rows["cauchy"][1][1]) > 0  # some jumps were tracked


class TestShocksSubcommand:
    def test_jump_up_fixture_pinned(self, tmp_path):
        rc = main(
            [
                "shocks",
                "--config",
                str(cli_corpus.DATA / "jump_up_fixture.json"),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == EXIT_OK
        _, cols, rows = read_csv(tmp_path / "shocks.csv")
        non_boundary = [r for r in rows if r[5] == "0"]
        assert len(non_boundary) == 1
        assert abs(float(non_boundary[0][4]) - (-0.5)) <= 1e-6

    def test_solve_eulerian_matches_api(self, tmp_path):
        from levyburgers import evaluate_solution

        cfg = ExperimentConfig(family="stable", alpha=1.5, scale=0.4, n=1025, seed=8)
        run_experiment(cfg, "solve", tmp_path)
        _, cols, rows = read_csv(tmp_path / "eulerian.csv")
        assert cols == ["x", "a", "u"]
        sol = solve(cfg.build_path(), cfg.t)
        for x_s, a_s, u_s in rows[:: max(1, len(rows) // 40)]:
            ev = evaluate_solution(sol, float(x_s))
            assert float(a_s) == ev.a and float(u_s) == ev.u

    def test_schema_round_trip(self, tmp_path):
        cfg = ExperimentConfig(family="stable", alpha=1.5, seed=3)
        run_experiment(cfg, "shocks", tmp_path)
        _, _, rows = read_csv(tmp_path / "shocks.csv")
        sol = solve(cfg.build_path(), cfg.t)
        rep = extract_shocks(sol)
        assert len(rows) == len(rep.shocks)
        for row, s in zip(rows, rep.shocks):
            assert float(row[0]) == s.x
            assert float(row[4]) == s.velocity
            assert (row[5] == "1") == s.boundary_affected


class TestDeterminism:
    @pytest.mark.parametrize(
        "sub,n_rep",
        [
            *(pytest.param(s, 1, id=s) for s in SUBS_DETERMINISTIC),
            # n_rep >= 100 adds the replicate loop and the independence test
            pytest.param("regen", 100, id="regen-replicates"),
        ],
    )
    def test_byte_identical_outputs(self, tmp_path, sub, n_rep):
        cfg = ExperimentConfig(
            family="stable", alpha=1.5, scale=0.4, n=1025, L=8.0, seed=11,
            eps_list=[0.1, 0.05], n_mc=1000, n_rep=n_rep,
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        files1 = run_experiment(cfg, sub, out1)
        files2 = run_experiment(cfg, sub, out2)
        assert [f.name for f in files1] == [f.name for f in files2]
        for f1, f2 in zip(files1, files2):
            assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("key", FIXTURE_KEYS)
    def test_fixture_outputs_pinned(self, tmp_path, key):
        # these paths involve no sampling and no libm calls, so the bytes
        # are the same on every platform
        assert cli_corpus.run(CORPUS[key]["argv"], tmp_path / "out") == CORPUS[key]

    @pytest.mark.parametrize("key", SAMPLED_KEYS)
    def test_sampled_outputs_pinned(self, tmp_path, key):
        # most of these draw through libm, so another platform's numpy may
        # give other bytes
        assert cli_corpus.run(CORPUS[key]["argv"], tmp_path / "out") == CORPUS[key]

    def test_refine_deterministic(self, tmp_path):
        cfg = ExperimentConfig(
            family="brownian", sigma=1.0, L=4.0, h_list=[2**-4, 2**-5], n_rep=4, seed=2
        )
        f1 = run_experiment(cfg, "refine", tmp_path / "a")
        f2 = run_experiment(cfg, "refine", tmp_path / "b")
        for a, b in zip(f1, f2):
            assert a.read_bytes() == b.read_bytes()


class TestRegenSubcommand:
    def test_report_fields(self, tmp_path):
        rc = main(
            [
                "regen",
                "--family", "stable", "--alpha", "1.5", "--scale", "0.4",
                "--seed", "0", "--out-dir", str(tmp_path),
            ]
        )
        assert rc == EXIT_OK
        rep = json.loads((tmp_path / "regen_report.json").read_text())
        for key in ("R", "S", "T_first", "rk", "s_equals_t", "rk_converged", "steps"):
            assert key in rep
        assert rep["s_equals_t"] is True
        _, cols, rows = read_csv(tmp_path / "replicates.csv")
        assert cols == ["replicate", "found", "R", "S", "T_first"]
        assert len(rows) == 1

    def test_one_solve_per_replicate(self, tmp_path, monkeypatch):
        # the replicate scans and the independence features share one solve;
        # the extra solve is the report's own path at the base seed
        calls = []

        def counting_solve(path, t):
            calls.append(path.seed)
            return solve(path, t)

        for module in (cli, solver):
            monkeypatch.setattr(module, "solve", counting_solve)
        n_rep = 100
        rc = main(
            [
                "regen", "--family", "stable", "--alpha", "1.5", "--scale", "0.4",
                "--n", "257", "--reps", str(n_rep), "--seed", "11",
                "--out-dir", str(tmp_path),
            ]
        )
        assert rc == EXIT_OK
        assert "independence" in json.loads((tmp_path / "regen_report.json").read_text())
        assert len(calls) == len(set(calls)) == n_rep + 1


class TestStartup:
    def test_import_loads_no_scipy(self):
        # scipy is a test-only dependency; a fresh interpreter shows what the
        # package itself imports
        src = str(Path(levyburgers.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = (
            "import sys, levyburgers; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_import_starts_no_thread(self):
        # the worker that draws a long path's right side is built on first use
        src = str(Path(levyburgers.__file__).resolve().parents[1])
        code = (
            "import sys, threading, levyburgers; "
            "print(threading.active_count(), 'concurrent.futures' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "1 False"

    def test_subcommands_load_no_numpy_ma(self, tmp_path):
        # numpy.ma costs about 13 ms of import; np.unique and np.median load
        # it.  In process scipy has loaded it already, so a fresh interpreter
        # runs each subcommand on a small config
        src = str(Path(levyburgers.__file__).resolve().parents[1])
        small = ["--L", "2", "--n", "129", "--reps", "2", "--h-list", "0.0625",
                 "--n-mc", "1000", "--eps-list", "0.1,0.01"]
        code = (
            "import sys; from levyburgers.cli import SUBCOMMANDS, main; "
            f"codes = [main([s, *{small!r}, '--out-dir', {str(tmp_path)!r} + '/' + s]) "
            "for s in SUBCOMMANDS]; "
            "print(codes, 'numpy.ma' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[0, 0, 0, 0, 0, 0] False"


OVERFLOW_ARGV = (
    pytest.param(["solve", "--family", "cpoisson", "--rate", "1e300", "--n", "65",
                  "--L", "2"], id="rate-huge"),
    pytest.param(["solve", "--t", "1e-320", "--n", "65", "--L", "2"], id="t-tiny"),
    pytest.param(["solve", "--L", "1e300", "--n", "65"], id="L-huge"),
    # more jump sizes than memory holds, than numpy can address, and than
    # an int64 sum of the counts can hold
    pytest.param(["solve", "--family", "cpoisson", "--rate", "1e17", "--n", "65",
                  "--L", "2"], id="jumps-past-memory"),
    pytest.param(["solve", "--family", "cpoisson", "--rate", "1e17", "--n", "65",
                  "--L", "32"], id="jumps-past-array-size"),
    pytest.param(["solve", "--family", "cpoisson", "--rate", "9e18", "--n", "65",
                  "--L", "32"], id="jump-count-overflow"),
    # draws or their sums past the largest float
    pytest.param(["simulate", "--family", "stable", "--alpha", "0.75", "--scale", "1.7e308"],
                 id="stable-scale-huge"),
    pytest.param(["simulate", "--family", "brownian", "--sigma", "1.7e308"],
                 id="sigma-huge"),
    pytest.param(["simulate", "--family", "cpoisson", "--jump-a", "1.7e308"],
                 id="jump-a-huge"),
)


BAD_CONFIG_VALUES = [
    pytest.param({"n": "4097"}, "field n ", id="int-as-str"),
    pytest.param({"n": 4097.0}, "field n ", id="int-as-float"),
    pytest.param({"seed": True}, "field seed ", id="int-as-bool"),
    pytest.param({"L": "8"}, "field L ", id="float-as-str"),
    pytest.param({"t": None}, "field t ", id="float-null"),
    pytest.param({"config": {"h_list": "0.5"}}, "field h_list ", id="list-as-str"),
    pytest.param([1, 2], "not a JSON object", id="not-an-object"),
    pytest.param({"alpha": math.inf}, "field alpha ", id="float-inf"),
    pytest.param({"h_list": [0.5, math.nan]}, "field h_list ", id="list-nan"),
]


REFINE_SMALL = ["refine", "--family", "brownian", "--L", "4", "--reps", "2",
                "--h-list", "0.0625"]


class TestErrors:
    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["solve", "--config", str(bad), "--out-dir", str(tmp_path)])
        assert rc == ParameterError.exit_code

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["solve", "--family", "stable", "--alpha", "0.2"], id="alpha"),
            # t, w and the path and grid parameters must be finite and in range
            pytest.param(["solve", "--t", "inf"], id="t-inf"),
            pytest.param(["solve", "--t", "nan"], id="t-nan"),
            pytest.param(["regen", "--family", "stable", "--scale", "0.4", "--n", "257",
                          "--reps", "100", "--w", "nan"], id="w-nan"),
            pytest.param(["regen", "--family", "stable", "--scale", "0.4", "--n", "257",
                          "--reps", "100", "--w", "-1"], id="w-negative"),
            pytest.param(["solve", "--L", "inf"], id="L-inf"),
            pytest.param(["solve", "--family", "cpoisson", "--rate", "inf"], id="rate-inf"),
            pytest.param(["solve", "--family", "cpoisson", "--rate", "nan"], id="rate-nan"),
            pytest.param(["solve", "--family", "cpoisson", "--jump-kind", "uniform",
                          "--jump-b", "inf"], id="jump-b-inf"),
            pytest.param(["solve", "--family", "cpoisson", "--jump-b", "nan"],
                         id="jump-b-nan"),
            pytest.param(["solve", "--sigma", "nan"], id="sigma-nan"),
            pytest.param(["integral", "--sigma", "inf"], id="integral-sigma-inf"),
            pytest.param(["solve", "--family", "stable", "--scale", "inf"], id="scale-inf"),
            pytest.param(["solve", "--family", "jump_up", "--delta", "nan"], id="delta-nan"),
            pytest.param(["solve", "--family", "jump_up", "--delta", "inf"], id="delta-inf"),
            pytest.param(["integral", "--a", "nan"], id="integral-a-nan"),
            pytest.param(["refine", "--h-list", "0.5,nan"], id="refine-h-nan"),
            pytest.param(["refine", "--h-list", "0.5,0"], id="refine-h-zero"),
            pytest.param(["refine", "--L", "inf"], id="refine-L-inf"),
            # 2L overflows; a grid of h = 1e-300 has more points than an array
            pytest.param(["refine", "--L", "1e308"], id="refine-L-huge"),
            pytest.param(["refine", "--h-list", "1e-300"], id="refine-h-tiny"),
            pytest.param(["solve", "--family", "cpoisson", "--rate", "1e300", "--n", "65",
                          "--L", "2"], id="rate-huge"),
            # the stats window must be two finite numbers lo < hi, the
            # replicate count >= 1 and the h-list not empty
            pytest.param([*REFINE_SMALL, "--stats-window", "1"], id="stats-window-one"),
            pytest.param([*REFINE_SMALL, "--stats-window", "2,1"], id="stats-window-reversed"),
            pytest.param([*REFINE_SMALL, "--stats-window", "nan,2"], id="stats-window-nan"),
            pytest.param([*REFINE_SMALL, "--stats-window", ""], id="stats-window-empty"),
            pytest.param(["refine", "--reps", "0"], id="refine-reps-zero"),
            pytest.param(["refine", "--reps", "-3"], id="refine-reps-negative"),
            pytest.param(["refine", "--h-list", ""], id="refine-h-list-empty"),
            pytest.param(["regen", "--family", "stable", "--reps", "-4"],
                         id="regen-reps-negative"),
            # a stats window that misses the analysis window [-2, 2], and a
            # k_max < 1 on a path whose walk would never run
            pytest.param([*REFINE_SMALL, "--stats-window", "5,6"], id="stats-window-outside"),
            # a stats window between two grid points of h = 0.0625
            pytest.param([*REFINE_SMALL, "--stats-window", "0.01,0.02"],
                         id="stats-window-between-points"),
            pytest.param(["regen", "--family", "jump_down", "--delta", "100",
                          "--location", "-1", "--L", "4", "--n", "801", "--k-max", "0"],
                         id="regen-k-max-zero"),
            # a fixture has no Levy parameters to integrate
            pytest.param(["integral", "--family", "zero"], id="integral-fixture"),
            # t times a hull slope overflows an interior break
            pytest.param(["solve", "--family", "brownian", "--L", "2", "--n", "129",
                          "--t", "1.7e308"], id="t-huge"),
            # draws past the largest float, and more draws than an array holds
            pytest.param(["integral", "--family", "stable", "--scale", "1.7e308"],
                         id="integral-scale-huge"),
            pytest.param(["integral", "--family", "cpoisson", "--jump-a", "1.7e308"],
                         id="integral-jump-a-huge"),
            pytest.param(["integral", "--family", "cpoisson", "--jump-b", "1.7e308"],
                         id="integral-jump-b-huge"),
            pytest.param(["integral", "--sigma", "1.7e308"], id="integral-sigma-huge"),
            pytest.param(["integral", "--n-mc", str(2**64)], id="integral-n-mc-2**64"),
            # nan or +-inf in a field the subcommand ignores
            pytest.param(["simulate", "--family", "brownian", "--alpha", "inf"],
                         id="simulate-alpha-inf"),
            pytest.param(["solve", "--eps-list", "0.1,nan"], id="solve-eps-nan"),
            pytest.param(["shocks", "--w=-inf"], id="shocks-w-minus-inf"),
            pytest.param(["integral", "--stats-window", "0,inf"], id="integral-window-inf"),
        ],
    )
    def test_bad_parameter(self, tmp_path, argv):
        assert main([*argv, "--out-dir", str(tmp_path)]) == ParameterError.exit_code

    @pytest.mark.parametrize("config,message", BAD_CONFIG_VALUES)
    def test_bad_config_value(self, tmp_path, capsys, config, message):
        # a config file value must have the type its flag parses to
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        rc = main(["solve", "--config", str(path), "--out-dir", str(tmp_path)])
        assert rc == ParameterError.exit_code
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError" and message in err["message"]

    @pytest.mark.parametrize("route", ["direct", "replace"])
    @pytest.mark.parametrize(
        "config,message", [p for p in BAD_CONFIG_VALUES if isinstance(p.values[0], dict)])
    def test_bad_config_value_built_in_python(self, tmp_path, route, config, message):
        # a config built directly or by dataclasses.replace passes the
        # check a config file does, before anything is written
        fields = config.get("config", config)
        with pytest.raises(ParameterError, match=message):
            if route == "direct":
                cfg = ExperimentConfig(**fields)
            else:
                cfg = dataclasses.replace(ExperimentConfig(n=65, L=2.0), **fields)
            run_experiment(cfg, "simulate", tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_config_fields_cannot_be_assigned(self):
        # an assignment would skip __post_init__ and let inf reach the
        # effective config; replace goes through the check
        cfg = ExperimentConfig(n=65, L=2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.alpha = math.inf
        assert cfg.alpha == 1.5
        with pytest.raises(ParameterError, match="alpha must be finite"):
            dataclasses.replace(cfg, alpha=math.inf)

    @pytest.mark.parametrize("argv", OVERFLOW_ARGV)
    def test_overflow_names_the_parameter(self, tmp_path, capsys, argv):
        # finite inputs whose Poisson mean, parabola term or path values
        # overflow are parameter errors, caught before numpy warns about
        # them or rejects them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--out-dir", str(tmp_path)]) == ParameterError.exit_code
        assert '"error": "ParameterError"' in capsys.readouterr().err

    def test_huge_int_is_finite(self):
        # an int beyond any float passes the finite check without overflow
        assert ExperimentConfig.from_dict({"L": 10**400}).L == 10**400

    def test_unknown_subcommand(self, tmp_path):
        with pytest.raises(ParameterError):
            run_experiment(ExperimentConfig(), "nope", tmp_path)

    def test_exit_codes(self):
        # each error type carries the exit status main returns for it
        codes = {name: cls.exit_code for name, cls in vars(errors).items()
                 if isinstance(cls, type) and issubclass(cls, Exception)}
        assert codes == {
            "LevyBurgersError": 1, "ParameterError": 2, "GridError": 2, "InputError": 2,
            "WindowTooSmallError": 3, "InsufficientDataError": 4, "OutOfDomainError": 5,
        }

    def test_window_error_exit_code(self, tmp_path):
        # a seed whose shifted potential peaks at the grid end on a tiny grid
        par = LevyParams.stable(0.75, 0.0, 5.0)
        from levyburgers import GridSpec

        grid = GridSpec(1.0, 65)
        chosen = None
        for seed in range(200):
            path = sample_path(par, grid, seed)
            try:
                solve(path, 1.0)
            except WindowTooSmallError:
                chosen = seed
                break
        assert chosen is not None
        rc = main(
            [
                "solve", "--family", "stable", "--alpha", "0.75", "--scale", "5.0",
                "--L", "1.0", "--n", "65", "--seed", str(chosen),
                "--out-dir", str(tmp_path),
            ]
        )
        assert rc == WindowTooSmallError.exit_code
