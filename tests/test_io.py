"""File I/O against its references: the CSV writer and the YAML loader and dumper.

`write_csv` streams a 2-D array through one `%.17g` row template; its
bytes must equal those of the former per-value writer in `oracles.py`.
The config is loaded and echoed through libyaml where PyYAML has it; the
trees must equal those of the pure-Python loader, and the echo the bytes
of `yaml.safe_dump`.
"""

from pathlib import Path

import numpy as np
import pytest
import yaml

from beamctl import config
from beamctl.config import parse_config, resolved_config_text
from beamctl.control import ControlSignal
from beamctl.dynamics import Trajectory
from beamctl.errors import ConfigError
from beamctl.reporting import (
    control_rows,
    snapshot_rows,
    trajectory_header,
    trajectory_rows,
    write_csv,
)
from beamctl.spectral import SpatialGrid

from oracles import (
    PythonLoader,
    reference_control_rows,
    reference_snapshot_rows,
    reference_trajectory_rows,
    reference_write_csv,
)

ROOT = Path(__file__).parents[1]
SHIPPED = sorted((ROOT / "configs").glob("*.yaml"))
needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")

# output.dir strings that a dumper might quote, escape or fold differently.
ODD_STRINGS = [
    "é", "日本語/out", "a" * 120, "yes", "no", "on", "~", "null", "-x", "- x", "a\tb",
    "a\nb", "1e3", "0x10", "'q'", '"q"', "a: b", "#c", "x ", " x", "%x", "!x", "*x",
    "&x", "?x", "[x]", "{x}", "a,b", " ",
]


def assert_same_bytes(tmp_path, header, table, reference_rows):
    write_csv(tmp_path / "new.csv", header, table)
    reference_write_csv(tmp_path / "ref.csv", header, reference_rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestWriteCsv:
    def test_edge_values(self, tmp_path, rng):
        special = [
            float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, -5e-324,
            1.7976931348623157e308, -1.7976931348623157e308, 2.2250738585072014e-308,
            1.0, -3.0, 1e16, 1e17, 123456789012345678.0, 0.1, 1e-5, 1 / 3,
        ]
        values = np.concatenate([special, rng.normal(size=6) * 10.0 ** rng.integers(-300, 300, 6)])
        table = values.reshape(-1, 4)
        assert_same_bytes(tmp_path, ["a", "b", "c", "d"], table, table.tolist())

    def test_ints_and_lists(self, tmp_path):
        rows = [[1, 2**53, -7], [0, 3, 10**20]]
        assert_same_bytes(tmp_path, ["n", "m", "k"], rows, rows)

    @pytest.mark.parametrize("n_rows", [0, 1, 511, 512, 513, 1100])
    def test_row_counts_around_the_block_size(self, tmp_path, rng, n_rows):
        table = rng.normal(size=(n_rows, 3))
        assert_same_bytes(tmp_path, ["x", "y", "z"], table, table)

    def test_table_of_another_width_raises(self, tmp_path):
        with pytest.raises(TypeError):
            write_csv(tmp_path / "t.csv", ["a", "b"], np.zeros((3, 3)))


@pytest.mark.parametrize("n_modes", [4, 8, 32, 48])
def test_trajectory_and_snapshots_match_reference(tmp_path, rng, n_modes):
    values = rng.normal(size=(401, 2, n_modes)) * np.array([[1e-3], [1.0]])
    marks = {i: rng.normal(size=(2, n_modes)) for i in (0, 75, 300, 400)}
    header = trajectory_header(n_modes)
    grid = SpatialGrid(2 * n_modes + 33)
    for traj in (Trajectory(0.0025, 100, values, marks), Trajectory(0.0025, 100, values)):
        assert_same_bytes(tmp_path, header, trajectory_rows(traj), reference_trajectory_rows(traj))
        snapshots = snapshot_rows(traj, grid)
        reference = reference_snapshot_rows(traj, grid)
        assert_same_bytes(tmp_path, ["t", "x", "w", "y"], snapshots, reference)


@pytest.mark.parametrize("n_modes", [4, 8, 32, 48])
def test_switched_control_matches_reference(tmp_path, rng, n_modes):
    header = ["t"] + [f"u_{i}" for i in range(1, n_modes + 1)]
    values = rng.normal(size=(2001, n_modes))
    marks = {1, 1600, 1999}
    for left in ({}, {i: rng.normal(size=n_modes) for i in marks}):
        u = ControlSignal(0.0, 1.0, values, left)
        assert_same_bytes(tmp_path, header, control_rows(u), reference_control_rows(u))


def test_loader_and_dumper_use_libyaml_when_built_with_it():
    assert issubclass(config._Loader, yaml.CSafeLoader) == yaml.__with_libyaml__
    assert (config._SafeDumper is yaml.CSafeDumper) == yaml.__with_libyaml__


def n48_config(tmp_path, rng) -> Path:
    data = {
        "model": {"n_modes": 48, "T": 1.0, "r": 0.25},
        "grids": {"h": 0.0005, "G": 129},
        "history": {"catalog": "modal_constant", "params": {"w": rng.normal(size=48).tolist()}},
        "targets": {
            "zstar_w": rng.normal(size=48).tolist(),
            "zstar_y": rng.normal(size=48).tolist(),
        },
        "experiment": {"sigmas": [0.1, 0.05, 0.02], "t0": 0.3},
    }
    path = tmp_path / "n48.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


def odd_dir_configs(tmp_path) -> list[Path]:
    paths = []
    for j, s in enumerate(ODD_STRINGS):
        path = tmp_path / f"odd{j}.yaml"
        path.write_text(yaml.safe_dump({"output": {"dir": s, "prefix": s}}))
        paths.append(path)
    return paths


def all_configs(tmp_path, rng) -> list[Path]:
    return [*SHIPPED, n48_config(tmp_path, rng), *odd_dir_configs(tmp_path)]


def test_echo_is_safe_dump_and_round_trips(tmp_path, rng):
    for path in all_configs(tmp_path, rng):
        cfg = parse_config(path)
        text = resolved_config_text(cfg)
        assert text == yaml.safe_dump(cfg.resolved, sort_keys=False, default_flow_style=False)
        echo = tmp_path / "echo.yaml"
        echo.write_text(text)
        assert resolved_config_text(parse_config(echo)) == text


@needs_libyaml
def test_c_and_python_loaders_build_equal_trees(tmp_path, rng):
    for path in all_configs(tmp_path, rng):
        echo = resolved_config_text(parse_config(path))
        for text in (path.read_text(), echo):
            # repr tells 1 from 1.0 and True, and shows the key order.
            assert repr(yaml.load(text, config._Loader)) == repr(yaml.load(text, PythonLoader))


@needs_libyaml
def test_c_and_python_dumpers_write_equal_bytes(tmp_path, rng):
    for path in all_configs(tmp_path, rng):
        resolved = parse_config(path).resolved
        dumps = [
            yaml.dump(resolved, Dumper=dumper, sort_keys=False, default_flow_style=False)
            for dumper in (yaml.CSafeDumper, yaml.SafeDumper)
        ]
        assert dumps[0] == dumps[1]


@pytest.mark.parametrize(
    "text, key",
    [
        ("model: {c: 1.0}\nmodel: {c: 2.0}\n", "model"),
        ("model:\n  c: 1.0\n  d: 2.0\n  c: 2.0\n", "model.c"),
        ("impulses:\n- time: 0.5\n- {time: 0.5, time: 0.6}\n", "impulses[1].time"),
        ("forcing:\n  params: {coeffs: [1.0], coeffs: [2.0]}\n", "forcing.params.coeffs"),
        ("model: {1: a, 1.0: b}\n", "model.1.0"),
    ],
)
def test_repeated_key_is_named(tmp_path, yaml_loader, text, key):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    assert info.value.key == key
    assert info.value.message.startswith("repeated key (line ")


def test_merge_keys_may_override(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("model:\n  <<: {c: 2.0, d: 3.0}\n  c: 5.0\n")
    assert (parse_config(path).params.c, parse_config(path).params.d) == (5.0, 3.0)
