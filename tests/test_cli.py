import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import levyburgers
from levyburgers import LevyParams, extract_shocks, sample_path, solve
from levyburgers import cli, regen, solver
from levyburgers.cli import (
    EXIT_BAD_CONFIG,
    EXIT_OK,
    EXIT_WINDOW,
    ExperimentConfig,
    build_parser,
    config_from_args,
    main,
    run_experiment,
)

DATA = Path(__file__).parent / "data"
SUBS_DETERMINISTIC = ("simulate", "solve", "shocks", "regen", "integral")

# sha256 of every output file of solve and shocks on the fixture configs in
# DATA, keyed by (family, subcommand[, t]); these paths involve no sampling
# and no libm calls, so the bytes are the same on every platform
PINNED_DIGESTS = {
    ("zero", "solve"): {
        "effective_config.json": "c8f92c39ab3abc7723df1ed59deb734dd656175043e01f3288d30497b376db3f",
        "eulerian.csv": "83b2d53b2c80c568c7d5330aa8db6f7c57e0b39f8ff6d26cca8e934bb3b64403",
        "vertices.csv": "9358c85db3ef7c2d22c5ae9e95fbb9d5ec7854d841ee8fa22ddbb4ffda3700da",
    },
    ("zero", "shocks"): {
        "effective_config.json": "08886f2b5654cb911431cf0a0c900fc6bf702873b7d90302f05d14cdb18fc3b0",
        "rarefactions.csv": "a0a07b7d163a29f5107930e798ae7cd3f16ae7731569545f0332d6acf3f8f5ca",
        "shocks.csv": "c180ff359a157085f70fa0469300880664756322f604add5fcd52047632088a0",
        "zero_set.csv": "916e79cc6529fe0029e25e5ae751c2db9c7bdefd8ddd92e0c53acc29b6cfeb9a",
    },
    ("jump_up", "solve"): {
        "effective_config.json": "be396b6bbbd3f01b3a0d1907181b02d223836bcbce6aabbd1121888c269e0550",
        "eulerian.csv": "b952b2b78914181c41b2c68bc7e0359cde2faa2fcd9ffdad03ab712bd644639f",
        "vertices.csv": "767bd49149b843ebfff974f9c8921ac06af3f4a6dbf23a9b2fae5cf35d0c16a2",
    },
    ("jump_up", "shocks"): {
        "effective_config.json": "0772015fcf456a4cef0737394549a78bd70cda2692d7b3224b19b066fb6e4f01",
        "rarefactions.csv": "47459a14c581c88296437547496a2d971f81773ea0b3f0379e970b47f2141e49",
        "shocks.csv": "3d796d00a05574e10fba020eb0902e70bc97130744bbd1a49c7f857d2bf65665",
        "zero_set.csv": "914ada90dfad2e32732f703f8a4b77fe9ad4c0f7b87a654502e9f1d4f561ba20",
    },
    ("jump_down", "solve"): {
        "effective_config.json": "92040a379c242f83de7593b5ce0679bf4030e04945747cec432c9d2de1ef1ba1",
        "eulerian.csv": "625aca69930f4d214fe8bbba59069ce0fde4ceaf4d2d907d328072194ecb98a2",
        "vertices.csv": "f6065110d6e015ba03772854cb29695b05b09b6132fd47d64685591f668f96c0",
    },
    ("jump_down", "shocks"): {
        "effective_config.json": "2d952ceed5bcfa4ea2adeebefe0083e1dfafe45b437e2aa81e733703139e3a76",
        "rarefactions.csv": "b79a40fdf4d1b510f6ad9ab71af5b9afa1768a4b4d8f393da3605b0f89b92287",
        "shocks.csv": "670af34da739351543c474fe809311a3600a457a9d9df2a8b8fd912816069024",
        "zero_set.csv": "ec0bfc60f2210deb1112c76874563214ae46e32f87a02355fe3493a825d32c68",
    },
    ("jump_down", "solve", "2.5"): {
        "effective_config.json": "3b3285e43e660847345515569e30699df0f6f784e7be87c962bab1440c251bb0",
        "eulerian.csv": "dcaecc5f00eaab2ca63038a27c102263b5b19450aace8b163db8970f6f6d94ad",
        "vertices.csv": "3e0f17b52e8ea831b06b988af6911a20eeec71b7c97dc7eeae0e2fce7c77f529",
    },
    ("jump_down", "shocks", "2.5"): {
        "effective_config.json": "82252d4d2285125ea25e86ab24f53b371aee716acf288398200bf52dc79fc9b9",
        "rarefactions.csv": "9fe3b658255f199014615c449b14ffdd409f99b890c9289744899afcc51f370a",
        "shocks.csv": "8baa9dcb44615819e0308711f77ad6909bc20ff068d76e66bab95e145d327861",
        "zero_set.csv": "2f994f7fd0c112d7b5e681cd66bfc466470bc93c74f926b051b695897063af9a",
    },
}


def digest_files(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}


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

    def test_stable_outputs_pinned(self, tmp_path):
        # a heavy-tailed path with 355 tracked jumps; the draws go through
        # libm, so another platform's numpy may give other bytes
        argv = ["simulate", "--family", "stable", "--alpha", "0.75", "--n", "2049",
                "--L", "4", "--seed", "5", "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("path.csv", "jumps.csv")}
        assert digests == {
            "path.csv": "678b1db9cc96422adb1f2e043252bf178514f4e0f7372646048c9fb610a83736",
            "jumps.csv": "34d79700e6152739ca1f94a9a80b15f091c82f00a4e0088f291efb4707aa034b",
        }

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
                str(DATA / "jump_up_fixture.json"),
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

    @pytest.mark.parametrize("key", [pytest.param(k, id="-".join(k)) for k in PINNED_DIGESTS])
    def test_fixture_outputs_pinned(self, tmp_path, key):
        family, sub, *t = key
        argv = [sub, "--config", str(DATA / f"{family}_fixture.json"), "--out-dir", str(tmp_path)]
        assert main(argv + (["--t", *t] if t else [])) == EXIT_OK
        assert digest_files(tmp_path) == PINNED_DIGESTS[key]

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

        for module in (cli, regen, solver):
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

    @pytest.mark.parametrize(
        "argv,digests",
        [
            # replicate 18 has no S or T: a row with empty fields
            pytest.param(
                ["--family", "stable", "--scale", "0.4", "--n", "257", "--L", "1",
                 "--reps", "20"],
                {
                    "effective_config.json":
                        "f02c7fd5884cc59877bbcc5d02d188c065ce2074dfda32e434c4bb5cc2e1a068",
                    "regen_report.json":
                        "8b49e715780d5a41670808912a03c54a6420d317e8f546c4d1f6fe78ae4c2ebb",
                    "replicates.csv":
                        "03f312179eacaa0ea2be4ed64cbbcf9a8dbceb7b5688d9f1d0c10cce7e0ce06c",
                },
                id="stable-empty-fields",
            ),
            # 100 replicates add the independence payload
            pytest.param(
                ["--family", "cpoisson", "--rate", "2", "--n", "1025", "--reps", "100"],
                {
                    "effective_config.json":
                        "12aeecf1b450efc0009c9893083e8955ad21330bbe478dad130669032e2c39e6",
                    "regen_report.json":
                        "aa55a4fad237a5fa8f128888fa9a15d433ea5a8711ad1ac6283b94d3293d800d",
                    "replicates.csv":
                        "a961e80976fa3af5efa5482f10391cb5e5a4ae9ec1de825b7ad0e67eecacf029",
                },
                id="cpoisson-independence",
            ),
        ],
    )
    def test_replicate_outputs_pinned(self, tmp_path, argv, digests):
        # the draws go through libm, so another platform's numpy may give
        # other bytes
        assert main(["regen", *argv, "--out-dir", str(tmp_path)]) == EXIT_OK
        assert digest_files(tmp_path) == digests


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
)


REFINE_SMALL = ["refine", "--family", "brownian", "--L", "4", "--reps", "2",
                "--h-list", "0.0625"]


class TestErrors:
    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["solve", "--config", str(bad), "--out-dir", str(tmp_path)])
        assert rc == EXIT_BAD_CONFIG

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
        ],
    )
    def test_bad_parameter(self, tmp_path, argv):
        assert main([*argv, "--out-dir", str(tmp_path)]) == EXIT_BAD_CONFIG

    @pytest.mark.parametrize(
        "config,message",
        [
            pytest.param({"n": "4097"}, "field n ", id="int-as-str"),
            pytest.param({"n": 4097.0}, "field n ", id="int-as-float"),
            pytest.param({"seed": True}, "field seed ", id="int-as-bool"),
            pytest.param({"L": "8"}, "field L ", id="float-as-str"),
            pytest.param({"t": None}, "field t ", id="float-null"),
            pytest.param({"config": {"h_list": "0.5"}}, "field h_list ", id="list-as-str"),
            pytest.param([1, 2], "not a JSON object", id="not-an-object"),
        ],
    )
    def test_bad_config_value(self, tmp_path, capsys, config, message):
        # a config file value must have the type its flag parses to
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        rc = main(["solve", "--config", str(path), "--out-dir", str(tmp_path)])
        assert rc == EXIT_BAD_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError" and message in err["message"]

    @pytest.mark.parametrize("argv", OVERFLOW_ARGV)
    def test_overflow_names_the_parameter(self, tmp_path, capsys, argv):
        # finite inputs whose Poisson mean or parabola term overflows are
        # parameter errors, caught before numpy overflows or rejects them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--out-dir", str(tmp_path)]) == EXIT_BAD_CONFIG
        assert '"error": "ParameterError"' in capsys.readouterr().err

    def test_window_error_exit_code(self, tmp_path):
        # a seed whose shifted potential peaks at the grid end on a tiny grid
        par = LevyParams.stable(0.75, 0.0, 5.0)
        from levyburgers import GridSpec, WindowTooSmallError

        grid = GridSpec.symmetric(1.0, 65)
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
        assert rc == EXIT_WINDOW
