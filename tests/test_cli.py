from pathlib import Path

import pytest
import yaml

from beamctl.cli import main
from beamctl.config import parse_config
from beamctl.errors import ConfigError

CONFIGS = Path(__file__).parents[1] / "configs"


def write_config(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


def read_report(path):
    out = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


class TestParseConfig:
    def test_minimal_model_block(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, {"model": {"c": 1.0, "d": 1.0, "k": 1.0}}))
        assert cfg.params.n_modes == 8
        assert cfg.params.T == 1.0
        assert cfg.problem.n_steps == 2000
        assert cfg.problem.q == 0

    def test_lag_at_delay_span_rejected(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "model": {"c": 1.0, "d": 1.0, "k": 1.0, "r": 0.25},
                "delays": {"lags": [0.25]},
                "nonlocal": {"gammas": [0.1]},
            },
        )
        with pytest.raises(ConfigError, match="tau_1 < ... < tau_q < r"):
            parse_config(path)

    def test_out_of_range_impulse_rejected_naming_time(self, tmp_path):
        # Any in-range time is within h/2 of a node of the uniform grid and
        # gets snapped; rejection happens for times outside (0, T).
        path = write_config(
            tmp_path,
            {
                "model": {"c": 1.0, "d": 1.0, "k": 1.0},
                "impulses": [{"time": 1.25, "catalog": "velocity_kick", "params": {"amp": 0.1}}],
            },
        )
        with pytest.raises(ConfigError, match="1.25"):
            parse_config(path)

    def test_near_grid_impulse_snapped(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "model": {"c": 1.0, "d": 1.0, "k": 1.0},
                "impulses": [
                    {"time": 0.5001, "catalog": "velocity_kick", "params": {"amp": 0.1}}
                ],
            },
        )
        cfg = parse_config(path)
        assert cfg.problem.impulses[0].time == pytest.approx(0.5, abs=1e-15)
        assert cfg.resolved["impulses"][0]["time"] == pytest.approx(0.5, abs=1e-15)

    def test_unknown_block_rejected(self, tmp_path):
        path = write_config(tmp_path, {"model": {}, "typo_block": {}})
        with pytest.raises(ConfigError, match="typo_block"):
            parse_config(path)

    def test_unknown_catalog_path_in_error(self, tmp_path):
        path = write_config(
            tmp_path,
            {"model": {}, "nonlinearity": {"catalog": "nope"}},
        )
        with pytest.raises(ConfigError, match="nonlinearity.catalog"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "absent.yaml")

    def test_gamma_count_must_match_lags(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "model": {"r": 0.25},
                "delays": {"lags": [0.1]},
                "nonlocal": {"gammas": [0.1, 0.2]},
            },
        )
        with pytest.raises(ConfigError, match="nonlocal.gammas"):
            parse_config(path)


class TestCli:
    def test_unknown_command_exits_2(self, capsys):
        rc = main(["transmogrify", "--config", "x.yaml"])
        assert rc == 2
        assert "usage" in capsys.readouterr().err

    def test_config_error_exits_2(self, tmp_path, capsys):
        bad = write_config(tmp_path, {"model": {"c": -1.0}})
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert err.count("\n") == 1

    def test_check_zero_config(self, tmp_path):
        rc = main(["check", "--config", str(CONFIGS / "check_zero.yaml"), "--out", str(tmp_path)])
        assert rc == 0
        report = read_report(tmp_path / "check_zero_report.txt")
        assert float(report["lhs"]) <= 1e-12
        assert report["satisfied"] == "true"

    def test_steer_linear_benchmark(self, tmp_path):
        rc = main(["steer", "--config", str(CONFIGS / "steer_linear.yaml"), "--out", str(tmp_path)])
        assert rc == 0
        report = read_report(tmp_path / "steer_linear_report.txt")
        assert float(report["terminal_error_relative"]) <= 1e-6

    def test_steer_without_target_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": {"c": 1.0, "d": 1.0, "k": 1.0}})
        rc = main(["steer", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "zstar" in capsys.readouterr().err

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # A saturating perturbation far beyond the certificate leaves the
        # fixed-point iteration wandering; non-convergence must exit 3.
        cfg = write_config(
            tmp_path,
            {
                "model": {"c": 1.0, "d": 1.0, "k": 1.0, "n_modes": 4, "T": 1.0, "r": 0.25},
                "grids": {"h": 0.002, "G": 65},
                "nonlinearity": {"catalog": "delayed_saturation", "params": {"amp": 60.0}},
                "history": {"catalog": "modal_constant", "params": {"w": [0.4]}},
                "targets": {"zstar_w": [0.1], "zstar_y": [0.2]},
                "experiment": {"tol": 1.0e-10, "max_iter": 6},
            },
        )
        rc = main(["exact", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical:")

    def test_non_finite_state_exits_3_without_csv(self, tmp_path, capsys):
        # A velocity kick of 1e300 overflows the energy norm right at the jump.
        cfg = write_config(
            tmp_path,
            {
                "model": {"c": 1.0, "d": 1.0, "k": 1.0, "n_modes": 4, "T": 1.0, "r": 0.25},
                "grids": {"h": 0.002, "G": 65},
                "impulses": [
                    {"time": 0.5, "catalog": "velocity_kick", "params": {"amp": 1.0e300}}
                ],
                "history": {"catalog": "modal_constant", "params": {"w": [0.4], "y": [0.2]}},
            },
        )
        out = tmp_path / "o"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical:")
        assert "t = 0.5 " in err
        assert not list(out.glob("*.csv"))

    def test_simulate_emits_double_rows_at_impulse(self, tmp_path):
        rc = main(
            ["simulate", "--config", str(CONFIGS / "simulate_demo.yaml"), "--out", str(tmp_path)]
        )
        assert rc == 0
        lines = (tmp_path / "simulate_demo_trajectory.csv").read_text().splitlines()
        times = [line.split(",")[0] for line in lines[1:]]
        assert times.count("0.5") == 2

    def test_resolved_config_round_trip(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["check", "--config", str(CONFIGS / "exact_benchmark.yaml"), "--out", str(out1)]) == 0
        resolved = out1 / "exact_benchmark_resolved_config.yaml"
        assert main(["check", "--config", str(resolved), "--out", str(out2)]) == 0
        assert (out1 / "exact_benchmark_report.txt").read_bytes() == (
            out2 / "exact_benchmark_report.txt"
        ).read_bytes()
