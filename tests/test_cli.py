import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
import yaml

from beamctl.cli import main
from beamctl.config import parse_config
from beamctl.control import ControlSignal, build_gramian_set
from beamctl.dynamics import Trajectory, integrate_mild
from beamctl.errors import ConfigError
from beamctl.reporting import trajectory_rows
from beamctl.semigroup import apply_semigroup
from beamctl.spectral import StateZ, eigenvalues, energy_norms, norm_z

from oracles import count_propagator_tables, linear_states, steering_control

ROOT = Path(__file__).parents[1]
CONFIGS = ROOT / "configs"


def write_config(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


@dataclass(frozen=True)
class HistoryFile:
    """A `file` history block reading `text`, written next to the config."""

    text: str


# The header and the first row of a history file on [-0.25, 0] with 4 modes.
HISTORY_HEAD = "t,w_1,w_2,w_3,w_4,y_1,y_2,y_3,y_4\n-0.25,0,0,0,0,0,0,0,0\n"


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

    def test_readme_configuration_block_loads(self, tmp_path):
        # The reference block under "## Configuration" in README.md, with its
        # [...] placeholders filled in, loads and names every key the reader
        # echoes: a key renamed in the reader or misspelt in the README fails.
        section = (ROOT / "README.md").read_text().split("## Configuration", 1)[1]
        block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.yaml"
        path.write_text(block.replace("[...]", "[0.1, -0.2, 0.05]"))
        cfg = parse_config(path)

        def key_paths(node, prefix=""):
            if isinstance(node, list) and node and isinstance(node[0], dict):
                yield from key_paths(node[0], f"{prefix}[0]")
            if isinstance(node, dict):
                for key, value in node.items():
                    path = f"{prefix}.{key}" if prefix else key
                    yield path
                    yield from key_paths(value, path)

        raw = yaml.safe_load(path.read_text())
        assert set(key_paths(cfg.resolved)) == set(key_paths(raw))


class TestCli:
    def test_unknown_command_exits_2(self, capsys):
        rc = main(["transmogrify", "--config", "x.yaml"])
        assert rc == 2
        assert "usage" in capsys.readouterr().err

    def test_parser_is_reused_across_calls(self, capsys):
        for _ in range(2):
            assert main(["transmogrify", "--config", "x.yaml"]) == 2
            assert "invalid choice: 'transmogrify'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("n_modes", [8, 48])
    def test_steer_terminal_state_is_the_march(self, tmp_path, n_modes):
        # steer reads the reached state from its window's force-column table;
        # it is the state the exponential-trapezoid march reaches, to rounding.
        if n_modes == 8:
            path = CONFIGS / "steer_linear.yaml"
        else:
            rng = np.random.default_rng(48)
            draw = lambda scale: rng.uniform(-scale, scale, n_modes).tolist()  # noqa: E731
            path = write_config(
                tmp_path,
                {
                    "model": {"c": 1.0, "d": 1.0, "k": 1.0, "n_modes": n_modes, "T": 1.0, "r": 0.25},
                    "grids": {"h": 5.0e-4},
                    "targets": {
                        "z0_w": draw(0.2), "z0_y": draw(0.9),
                        "zstar_w": draw(0.15), "zstar_y": draw(0.35),
                    },
                    "output": {"prefix": "steer_linear"},
                },
            )
        cfg = parse_config(path)
        p, z0, zstar = cfg.params, cfg.z0, cfg.zstar
        u = steering_control(z0, zstar, cfg.t0, p.T, p, cfg.steer_steps)
        gs = build_gramian_set(cfg.t0, p.T, p, cfg.steer_steps)
        terminal = apply_semigroup(z0, p.T - cfg.t0, p) + gs.response(u)
        march = StateZ.from_pair(linear_states(z0, u, p)[-1])
        assert norm_z(terminal - march) <= 1e-12 * norm_z(march)

        out = tmp_path / "o"
        assert main(["steer", "--config", str(path), "--out", str(out)]) == 0
        written = np.loadtxt(out / "steer_linear_control.csv", delimiter=",", skiprows=1)
        assert np.array_equal(written[:, 1:], u.values)
        report = read_report(out / "steer_linear_report.txt")
        assert float(report["terminal_error"]) == norm_z(terminal - zstar)

    def test_steer_tabulates_one_window_table(self, tmp_path, monkeypatch):
        # The Gramian, the control and the reached state share one table;
        # the only other table is the free flight's single time.
        path = CONFIGS / "steer_linear.yaml"
        sizes = count_propagator_tables(monkeypatch)
        assert main(["steer", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert sorted(sizes) == [1, parse_config(path).steer_steps + 1]

    @pytest.mark.parametrize(
        "command, data, key",
        [
            pytest.param("gramian", {"model": {"c": float("inf")}}, "model.c", id="model-c-inf"),
            pytest.param(
                "simulate",
                {"model": {"r": 0.25}, "delays": {"lags": [0.1]}, "nonlocal": {"gammas": [float("nan")]}},
                "nonlocal.gammas[0]",
                id="gamma-nan",
            ),
            pytest.param(
                "simulate",
                {"nonlinearity": {"catalog": "delayed_saturation", "params": {"amp": float("nan")}}},
                "nonlinearity.params.amp",
                id="amp-nan",
            ),
        ],
    )
    def test_non_finite_input_exits_2_at_load(self, tmp_path, capsys, command, data, key):
        out = tmp_path / "o"
        rc = main([command, "--config", str(write_config(tmp_path, data)), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: {key}: must be finite")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "fragment, key",
        [
            pytest.param(
                {"nonlinearity": {"catalog": "bounded_wave", "params": {"amp": "x"}}},
                "nonlinearity.params.amp",
                id="amp-str",
            ),
            pytest.param(
                {"delays": {"lags": [0.1]}, "nonlocal": {"gammas": [0.1], "L_q": "big"}},
                "nonlocal.L_q",
                id="L_q-str",
            ),
            pytest.param(
                {
                    "impulses": [
                        {
                            "time": 0.5,
                            "catalog": "velocity_kick",
                            "params": {"amp": 0.1},
                            "d_k": "z",
                        }
                    ]
                },
                "impulses[0].d_k",
                id="d_k-str",
            ),
            pytest.param(
                {
                    "nonlinearity": {
                        "catalog": "delayed_saturation",
                        "params": {"amp": 0.1},
                        "l_f": [1],
                    }
                },
                "nonlinearity.l_f",
                id="l_f-list",
            ),
            pytest.param(
                {"forcing": {"catalog": "harmonic", "params": [1, 2]}},
                "forcing.params",
                id="forcing-params-list",
            ),
            pytest.param(
                {"impulses": [{"time": 0.5, "catalog": "velocity_kick", "params": [1]}]},
                "impulses[0].params",
                id="impulse-params-list",
            ),
            pytest.param(
                {"forcing": {"catalog": "harmonic", "params": {"coeffs": "abc"}}},
                "forcing.params.coeffs",
                id="coeffs-str",
            ),
            pytest.param(
                {"forcing": {"catalog": "harmonic", "params": {"coeffs": [1.0], "omega": "fast"}}},
                "forcing.params.omega",
                id="omega-str",
            ),
            pytest.param(
                {"history": {"catalog": "file", "params": {"path": "/nonexistent.csv"}}},
                "history.params.path",
                id="history-file-missing",
            ),
            pytest.param(
                {"history": {"catalog": "file"}}, "history.params.path", id="history-file-no-path"
            ),
            # History file contents: no data rows, or a state without a finite norm.
            pytest.param(HistoryFile(""), "history.params.path", id="history-file-empty"),
            pytest.param(
                HistoryFile(HISTORY_HEAD.splitlines()[0] + "\n"),
                "history.params.path",
                id="history-file-header-only",
            ),
            pytest.param(
                HistoryFile(HISTORY_HEAD + "0,nan,0,0,0,0,0,0,0\n"),
                "history.params.path",
                id="history-file-nan",
            ),
            pytest.param(
                HistoryFile(HISTORY_HEAD + "0,0,0,0,0,inf,0,0,0\n"),
                "history.params.path",
                id="history-file-inf",
            ),
            pytest.param(
                HistoryFile(HISTORY_HEAD + "0,0,0,-inf,0,0,0,0,0\n"),
                "history.params.path",
                id="history-file-minus-inf",
            ),
            pytest.param(
                HistoryFile(HISTORY_HEAD + "0,1e308,0,0,0,0,0,0,0\n"),
                "history.params.path",
                id="history-file-norm-overflows",
            ),
            pytest.param(
                HistoryFile(HISTORY_HEAD + "nan,0,0,0,0,0,0,0,0\n0,0,0,0,0,0,0,0,0\n"),
                "history.params.path",
                id="history-file-nan-time",
            ),
            pytest.param(
                HistoryFile(HISTORY_HEAD + "inf,0,0,0,0,0,0,0,0\n" * 2 + "0,0,0,0,0,0,0,0,0\n"),
                "history.params.path",
                id="history-file-inf-times",
            ),
            pytest.param({"output": {"dir": None}}, "output.dir", id="output-dir-null"),
            pytest.param({"output": {"prefix": ["a", "b"]}}, "output.prefix", id="prefix-list"),
            pytest.param(
                {"delays": {"lag": [0.1]}, "nonlocal": {"gammas": [0.1]}},
                "delays.lag",
                id="misspelt-before-a-check",
            ),
            # A negative declared constant would lower the certificate's lhs.
            pytest.param(
                {"nonlinearity": {"catalog": "delayed_saturation", "params": {"amp": 0.1}, "l_f": -5}},
                "nonlinearity.l_f",
                id="l_f-negative",
            ),
            pytest.param(
                {"nonlinearity": {"catalog": "delayed_saturation", "alpha1": -0.5}},
                "nonlinearity.alpha1",
                id="alpha1-negative",
            ),
            pytest.param(
                {"nonlinearity": {"catalog": "bounded_wave", "beta1": -1e-3}},
                "nonlinearity.beta1",
                id="beta1-negative",
            ),
            pytest.param(
                {
                    "impulses": [
                        {"time": 0.5, "catalog": "velocity_kick", "params": {"amp": 0.1}, "d_k": -3}
                    ]
                },
                "impulses[0].d_k",
                id="d_k-negative",
            ),
            pytest.param(
                {"delays": {"lags": [0.1]}, "nonlocal": {"gammas": [0.1], "L_q": -0.2}},
                "nonlocal.L_q",
                id="L_q-negative",
            ),
            # The checks `ProblemSpec` makes, keyed as the config names them.
            pytest.param({"grids": {"h": 0.002, "G": 8}}, "grids.G", id="G-aliases"),
            pytest.param(
                {"delays": {"lags": [0.3]}, "nonlocal": {"gammas": [0.1]}},
                "delays.lags[0]",
                id="lag-past-r",
            ),
            pytest.param(
                {"delays": {"lags": [0.1, 0.1]}, "nonlocal": {"gammas": [0.1, 0.1]}},
                "delays.lags[1]",
                id="lags-not-increasing",
            ),
            pytest.param(
                {"delays": {"lags": [0.1]}, "nonlocal": {"gammas": [0.1, 0.2]}},
                "nonlocal.gammas",
                id="gamma-count",
            ),
            pytest.param(
                {"impulses": [{"time": 1.25, "catalog": "velocity_kick", "params": {"amp": 0.1}}]},
                "impulses[0].time",
                id="impulse-past-T",
            ),
            # Times so large that t/h overflows, and a span that snaps onto T.
            pytest.param(
                {"delays": {"lags": [1e308]}, "nonlocal": {"gammas": [0.1]}},
                "delays.lags[0]",
                id="lag-overflows",
            ),
            pytest.param(
                {"impulses": [{"time": 1e308, "catalog": "velocity_kick", "params": {"amp": 0.1}}]},
                "impulses[0].time",
                id="impulse-overflows",
            ),
            pytest.param({"model": {"r": 0.9999}}, "model.r", id="r-snaps-to-T"),
            # A window equal to T - t_m = 141 h, though the float 1 - 59 h exceeds 141 h.
            pytest.param(
                {
                    "model": {"T": 1, "r": 0.8, "n_modes": 2},
                    "grids": {"h": 0.005, "G": 33},
                    "impulses": [
                        {"time": 0.295, "catalog": "velocity_kick", "params": {"amp": 0.1}}
                    ],
                    "delays": {"lags": [0.1]},
                    "nonlocal": {"gammas": [0.05]},
                    "experiment": {"sigmas": [0.705]},
                },
                "experiment.sigmas[0]",
                id="window-on-the-post-impulse-gap",
            ),
            pytest.param({"grids": {"h": 1.0e-300}}, "grids.h", id="h-above-the-step-ceiling"),
            # A repeated key, given as text after the base blocks, at any level.
            pytest.param("model: {c: 2.0}\n", "model", id="repeated-block"),
            pytest.param("output: {dir: a, dir: b}\n", "output.dir", id="repeated-key"),
            pytest.param(
                "impulses:\n- {time: 0.5, catalog: velocity_kick, time: 0.6}\n",
                "impulses[0].time",
                id="repeated-key-in-a-list-entry",
            ),
        ],
    )
    # A warning would print a second stderr line outside the test.
    @pytest.mark.filterwarnings("error")
    def test_malformed_input_exits_2_at_load(self, tmp_path, capsys, fragment, key):
        data = {
            "model": {"c": 1.0, "d": 1.0, "k": 1.0, "n_modes": 4, "T": 1.0, "r": 0.25},
            "grids": {"h": 0.002, "G": 65},
        }
        if isinstance(fragment, HistoryFile):
            history = tmp_path / "history.csv"
            history.write_text(fragment.text)
            fragment = {"history": {"catalog": "file", "params": {"path": str(history)}}}
        if isinstance(fragment, str):
            path = tmp_path / "cfg.yaml"
            path.write_text(yaml.safe_dump(data) + fragment)
        else:
            path = write_config(tmp_path, {**data, **fragment})
        out = tmp_path / "o"
        rc = main(["simulate", "--config", str(path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: {key}: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, problem, where",
        [
            pytest.param("model: [1, 2\n", "',' or ']'", "line 2, column 1", id="unclosed-list"),
            pytest.param(
                "model:\n\tc: 1.0\n", "cannot start any token", "line 2, column 1", id="tab"
            ),
            pytest.param(
                "model: {c: 1\x07}\n", "#x0007", "line 1, column 13", id="control-character"
            ),
            # The C reader counts bytes, the Python one characters.
            pytest.param(
                "output: {dir: \u00e9t\u00e9\x07}\n",
                "#x0007",
                "line 1, column 18",
                id="control-after-unicode",
            ),
            pytest.param(
                "model: {c: 1.0}\n---\nmodel: {}\n",
                "another document",
                "line 2, column 1",
                id="two-documents",
            ),
        ],
    )
    def test_unparseable_yaml_exits_2_on_one_line(
        self, tmp_path, capsys, yaml_loader, text, problem, where
    ):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        out = tmp_path / "o"
        assert main(["check", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: not parseable as YAML: ")
        assert err.count("\n") == 1
        assert problem in err and err.endswith(f"({where})\n")
        assert not out.exists()

    def test_unreadable_config_exits_2_on_one_line(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_bytes(b"model: {c: 1\xff}\n")
        out = tmp_path / "o"
        assert main(["check", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: config: not UTF-8 text: invalid start byte at byte 12\n"
        assert main(["check", "--config", str(tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: config: cannot read configuration file {tmp_path}: Is a directory\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "where, key",
        [
            pytest.param(("modle",), "modle", id="top"),
            pytest.param(("model", "dampin"), "model.dampin", id="model"),
            pytest.param(("grids", "hr"), "grids.hr", id="grids"),
            pytest.param(("grids", "h_r"), "grids.h_r", id="grids-h_r"),
            pytest.param(("grids", "norm_step"), "grids.norm_step", id="grids-norm_step"),
            pytest.param(("grids", "gamma_samples"), "grids.gamma_samples", id="grids-gamma_samples"),
            pytest.param(("impulses", 0, "dk"), "impulses[0].dk", id="impulse-entry"),
            pytest.param(("delays", "lag"), "delays.lag", id="delays"),
            pytest.param(("nonlocal", "Lq"), "nonlocal.Lq", id="nonlocal"),
            pytest.param(("forcing", "parms"), "forcing.parms", id="forcing"),
            pytest.param(("nonlinearity", "lf"), "nonlinearity.lf", id="nonlinearity"),
            pytest.param(("history", "param"), "history.param", id="history"),
            pytest.param(("targets", "zstar_v"), "targets.zstar_v", id="targets"),
            pytest.param(
                ("experiment", "picard_max_itr"), "experiment.picard_max_itr", id="experiment"
            ),
            pytest.param(("output", "prefx"), "output.prefx", id="output"),
            pytest.param(
                ("impulses", 0, "params", "amplitude"),
                "impulses[0].params.amplitude",
                id="impulse-params",
            ),
            pytest.param(
                ("forcing", "params", "omgea"), "forcing.params.omgea", id="forcing-params"
            ),
            pytest.param(
                ("nonlinearity", "params", "ampp"),
                "nonlinearity.params.ampp",
                id="nonlinearity-params",
            ),
            pytest.param(("history", "params", "z"), "history.params.z", id="history-params"),
            # The misspelt block takes the delays over, so without them the
            # nonlocal count check would trip before the name is checked.
            pytest.param(("delayz",), "delayz", id="top-before-a-check"),
        ],
    )
    def test_misspelt_key_exits_2_at_load(self, tmp_path, capsys, where, key):
        # Every block of simulate_demo.yaml plus targets and experiment; the
        # config loads until one misspelt key is added.
        data = yaml.safe_load((CONFIGS / "simulate_demo.yaml").read_text())
        data["targets"] = {"zstar_w": [0.1], "zstar_y": [0.2]}
        data["experiment"] = {"tol": 1.0e-9, "picard_max_iter": 40}
        node = data
        for part in where[:-1]:
            node = node[part]
        node[where[-1]] = data.pop("delays") if where == ("delayz",) else 1.0
        out = tmp_path / "o"
        rc = main(["check", "--config", str(write_config(tmp_path, data)), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: {key}: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_exact_reports_the_check_certificate(self, tmp_path):
        # On a stiffer, more damped beam, where M = 2 and |Gamma| is large,
        # exact must certify with the same steering set as check.
        data = yaml.safe_load((CONFIGS / "exact_benchmark.yaml").read_text())
        data["model"].update(d=4, c=30)
        cfg = str(write_config(tmp_path, data))
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "check")]) == 0
        assert main(["exact", "--config", cfg, "--out", str(tmp_path / "exact")]) == 0
        check = read_report(tmp_path / "check" / "exact_benchmark_report.txt")
        exact = read_report(tmp_path / "exact" / "exact_benchmark_report.txt")
        assert exact["contraction_lhs"] == check["lhs"]

    def test_zero_declared_constants_load(self, tmp_path):
        data = {
            "impulses": [{"time": 0.5, "catalog": "velocity_kick", "params": {"amp": 0.1}, "d_k": 0}],
            "delays": {"lags": [0.1]},
            "nonlocal": {"gammas": [0.1], "L_q": 0},
            "nonlinearity": {"catalog": "delayed_saturation", "l_f": 0, "alpha1": 0.0, "beta1": 0},
        }
        cfg = parse_config(write_config(tmp_path, data))
        nl = cfg.problem.nonlinearity
        assert (nl.lipschitz, nl.alpha1, nl.beta1, cfg.problem.L_q) == (0.0, 0.0, 0.0, 0.0)
        assert cfg.problem.impulses[0].d_k == 0.0

    def test_stiff_damped_probe_prints_unsatisfied(self, tmp_path):
        # check_zero on a stiffer, more damped beam with a small cable: the
        # former sampled M (1.860) printed lhs = 0.943 and satisfied = true.
        data = yaml.safe_load((CONFIGS / "check_zero.yaml").read_text())
        data["model"].update(c=30, d=4, k=0.024)
        cfg = str(write_config(tmp_path, data))
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        report = read_report(tmp_path / "o" / "check_zero_report.txt")
        assert report["M"] == "2"
        assert float(report["lhs"]) > 1.0
        assert report["satisfied"] == "false"

    @pytest.mark.parametrize(
        "fragment",
        [
            pytest.param(
                {"nonlinearity": {"catalog": "control_saturation", "params": {"amp": 0.1}}},
                id="control_saturation",
            ),
            pytest.param(
                {"impulses": [{"time": 0.5, "catalog": "control_kick", "params": {"amp": 0.1}}]},
                id="control_kick",
            ),
        ],
    )
    def test_control_dependent_entries_run_under_zero_control(self, tmp_path, capsys, fragment):
        # No control means the zero control, for the catalogs too; only
        # exact, which steers, rejects these entries.
        data = {
            "model": {"c": 1.0, "d": 1.0, "k": 1.0, "n_modes": 4, "T": 1.0, "r": 0.25},
            "grids": {"h": 0.002, "G": 65},
            "history": {"catalog": "modal_constant", "params": {"w": [0.3], "y": [0.1]}},
            "targets": {"zstar_w": [0.1], "zstar_y": [0.2]},
            "experiment": {"sigmas": [0.08, 0.04]},
            **fragment,
        }
        path = write_config(tmp_path, data)
        for command in ("simulate", "approx"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 0
        assert main(["exact", "--config", str(path), "--out", str(tmp_path / "exact")]) == 2
        assert "control-independent" in capsys.readouterr().err
        assert not (tmp_path / "exact").exists()
        spec = parse_config(path).problem
        zero = ControlSignal(0.0, 1.0, np.zeros((spec.n_steps + 1, 4)))
        implicit, explicit = integrate_mild(spec, None), integrate_mild(spec, zero)
        assert implicit.trajectory.values.tobytes() == explicit.trajectory.values.tobytes()
        assert implicit.sources.tobytes() == explicit.sources.tobytes()
        marks = implicit.trajectory.left_values
        assert sorted(marks) == sorted(explicit.trajectory.left_values)
        for i, v in marks.items():
            assert v.tobytes() == explicit.trajectory.left_values[i].tobytes()

    @pytest.mark.parametrize(
        "command, experiment, key",
        [
            pytest.param("approx", {"sigmas": []}, "experiment.sigmas", id="no-windows"),
            pytest.param("approx", {"sigmas": None}, "experiment.sigmas", id="null-windows"),
            # The default windows 0.2..0.025 x min(T - t_m, r) = 0.25 at
            # h = T/2000: the last one, 0.006, is 12 steps.
            pytest.param("approx", {}, "experiment.sigmas[3]", id="default-windows-short"),
            pytest.param("steer", {"t0": 0.995}, "experiment.t0", id="steer-window-short"),
            # t0 = 0.9999 < T snaps onto T: no steering window is left.
            pytest.param("gramian", {"t0": 0.9999}, "experiment.t0", id="gramian-t0-snaps-to-T"),
            pytest.param("steer", {"t0": 0.9999}, "experiment.t0", id="steer-t0-snaps-to-T"),
            pytest.param("check", {"t0": 0.9999}, "experiment.t0", id="check-t0-snaps-to-T"),
        ],
    )
    def test_window_below_the_step_floor_exits_2(self, tmp_path, capsys, command, experiment, key):
        data = {
            "model": {"n_modes": 4},
            "grids": {"G": 65},
            "targets": {"zstar_w": [0.1]},
            "experiment": experiment,
        }
        out = tmp_path / "o"
        rc = main([command, "--config", str(write_config(tmp_path, data)), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: {key}: ")
        assert err.count("\n") == 1
        # The command's checks run before the output directory is made.
        assert not out.exists()

    def test_steer_without_target_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": {"c": 1.0, "d": 1.0, "k": 1.0}})
        out = tmp_path / "o"
        rc = main(["steer", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert "zstar" in capsys.readouterr().err
        assert not out.exists()

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

    def test_singular_history_iteration_exits_3_naming_the_mode(self, tmp_path, capsys):
        # d puts mode 1 half a period on in the lag 0.1 (omega tau = pi), and
        # gamma = exp(c tau / 2) cancels its decay, so I + gamma E_1(tau) = 0:
        # the nonlocal condition does not determine the history at t = 0.
        d = float(((math.pi / 0.1) ** 2 + 0.25) / eigenvalues(1)[0])
        cfg = write_config(
            tmp_path,
            {
                "model": {"c": 1.0, "d": d, "k": 1.0, "n_modes": 4, "T": 1.0, "r": 0.25},
                "grids": {"h": 0.005, "G": 65},
                "delays": {"lags": [0.1]},
                "nonlocal": {"gammas": [math.exp(0.05)]},
                "history": {"catalog": "modal_constant", "params": {"w": [0.4], "y": [0.2]}},
            },
        )
        out = tmp_path / "o"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical:")
        assert "singular in mode 1 " in err
        assert not list(out.glob("*.csv"))

    def test_approx_non_finite_tail_exits_3_without_csv(self, tmp_path, capsys):
        # A target of 1e300 makes the first steering tail, from T - 0.08 = 0.92,
        # overflow at its first step.
        data = yaml.safe_load((CONFIGS / "approx_bounded.yaml").read_text())
        data["targets"]["zstar_w"] = [1.0e300] * 4
        out = tmp_path / "o"
        rc = main(["approx", "--config", str(write_config(tmp_path, data)), "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical:")
        assert "t = 0.9205 " in err
        assert not list(out.glob("*_approx.csv"))

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

    @pytest.mark.parametrize("n_modes", [4, 7, 32, 48])
    def test_trajectory_norm_column_is_each_rows_norm(self, rng, n_modes):
        # The norms come from one call over all nodes (and one per mark);
        # each must be bitwise the norm of its own row.
        values = rng.normal(size=(301, 2, n_modes)) * np.array([[1e-3], [1.0]])
        marks = {40: rng.normal(size=(2, n_modes)), 200: rng.normal(size=(2, n_modes))}
        traj = Trajectory(0.01, 50, values, marks)
        lam = eigenvalues(n_modes)
        rows = list(trajectory_rows(traj))
        pairs = [p for i in range(301) for p in ([marks[i]] if i in marks else []) + [values[i]]]
        assert len(rows) == len(pairs) == 303
        for row, pair in zip(rows, pairs):
            assert row[-1] == float(energy_norms(pair, lam))
