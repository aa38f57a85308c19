import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import levyburgers
from levyburgers import LevyParams, extract_shocks, sample_path, solve
from levyburgers import cli, regen
from levyburgers.cli import (
    EXIT_BAD_CONFIG,
    EXIT_OK,
    EXIT_WINDOW,
    ExperimentConfig,
    main,
    run_experiment,
)

DATA = Path(__file__).parent / "data"
SUBS_DETERMINISTIC = ("simulate", "solve", "shocks", "regen", "integral")


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
        assert [(int(r[0]), float(r[2])) for r in rows] == list(path.tracked_jumps)


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

        for module in (cli, regen):
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


class TestErrors:
    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["solve", "--config", str(bad), "--out-dir", str(tmp_path)])
        assert rc == EXIT_BAD_CONFIG

    def test_bad_parameter(self, tmp_path):
        rc = main(["solve", "--family", "stable", "--alpha", "0.2",
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_BAD_CONFIG

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
