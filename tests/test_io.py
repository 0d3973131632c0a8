"""File I/O against its references: the CSV writer and the YAML loader and dumper.

`write_csv` formats its tables with a numpy block kernel that must write
the bytes of `'%.17g' % x` for every value; the former per-value writer
in `oracles.py` and the `%` operator itself are the references.  Three
kinds of test hold it to them:
- a seeded hypothesis property (database off, as in
  `test_config_fuzz.py`) over tables of widths 1-49 whose floats include
  NaN, infinities, subnormals and the extremes;
- fixed corner sets: signed zeros and subnormals, the smallest normal and
  the largest double, both edges of the kernel's window [1e-270, 1e270),
  neighbours of every power of ten, decimal rounding ties, the decades
  9.99...e+k rounds up to, and the switches between fixed and scientific
  notation.  Each random set draws `CSV_SAMPLES` values (the environment
  variable BEAMCTL_CSV_SAMPLES, 2000 by default; 80000 makes one run of
  more than 10**6 values);
- row counts around the kernel's block size, and the writer's contract:
  ints and nested lists, zero rows, a table of another width.
The config is loaded and echoed through libyaml where PyYAML has it; the
trees must equal those of the pure-Python loader, and the echo the bytes
of `yaml.safe_dump`.
"""

import functools
import os
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from beamctl import config, reporting
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


CSV_SAMPLES = int(os.environ.get("BEAMCTL_CSV_SAMPLES", "2000"))
BLOCK_ROWS = reporting._BLOCK_VALUES // 3  # rows of a 3-column table per kernel block


def assert_same_bytes(tmp_path, header, table, reference_rows):
    write_csv(tmp_path / "new.csv", header, table)
    reference_write_csv(tmp_path / "ref.csv", header, reference_rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def assert_formats_like_percent(tmp_path, values, width):
    """write_csv on `values` in rows of `width` writes '%.17g' % x for each x."""
    values = np.asarray(values, dtype=float)
    values = values[: values.size // width * width]
    header = [f"c{j}" for j in range(width)]
    write_csv(tmp_path / "t.csv", header, values.reshape(-1, width))
    lines = tmp_path.joinpath("t.csv").read_bytes().decode().split("\n")
    assert lines[0] == ",".join(header) and lines[-1] == ""
    written = ",".join(lines[1:-1]).split(",") if values.size else []
    expected = ["%.17g" % x for x in values.tolist()]
    mismatches = [(x, w) for x, w, e in zip(values.tolist(), written, expected) if w != e]
    assert mismatches == [] and len(written) == len(expected)


def neighbours(x, n_ulps) -> np.ndarray:
    """`x` and the n_ulps doubles on either side of each of its values."""
    out = [np.asarray(x, dtype=float)]
    up = down = out[0]
    with np.errstate(over="ignore"):
        for _ in range(n_ulps):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            out += [up, down]
    return np.concatenate(out)


def powers_of_ten() -> np.ndarray:
    return np.array([float(f"1e{k}") for k in range(-323, 309)])


@functools.cache
def corner_sets(n) -> dict:
    """Named arrays of values where a formatter of '%.17g' could go wrong, n per random set."""
    rng = np.random.default_rng(20221)
    tiny, huge = 2.2250738585072014e-308, 1.7976931348623157e308
    subnormal = rng.integers(1, 2**52, n) * 5e-324
    ks = np.arange(-300, 300)
    # |x| * 5**k has 18 digits ending in 5 for odd m: a tie of the 17-digit rounding.
    k = rng.integers(2, 26, n)
    m = np.floor(rng.uniform(1e17, 1e18, n) / 5.0**k)
    dyadic_ties = (m + (m % 2 == 0)) * 2.0 ** -k.astype(float)
    return {
        "zeros and extremes": [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, huge, -huge],
        "subnormals": np.concatenate([subnormal, -subnormal]),
        "around the smallest normal": neighbours([tiny, -tiny], 64),
        "around the largest double": neighbours([huge, -huge], 64),
        "window edges": neighbours([1e-270, -1e-270, 1e270, -1e270], 256),
        "around every power of ten": neighbours([*powers_of_ten(), *-powers_of_ten()], 8),
        "quarter ties at 1e15-1e16": rng.integers(4 * 10**15, 4 * 10**16, n) / 4.0,
        "eighth ties at 1e14-1e15": rng.integers(8 * 10**14, 8 * 10**15, n) / 8.0,
        "integers from 2**53 to 2**57": rng.integers(2**53, 2**57, n).astype(float),
        "dyadic ties": np.concatenate([dyadic_ties, -dyadic_ties]),
        "decades that round up": np.concatenate(
            [[float(f"9.9999999999999999{d}e{k}") for k in ks] for d in range(10)]
        ),
        "fixed and scientific switch": np.concatenate(
            [
                neighbours([1e-5, 1e-4, 1e16, 1e17, -1e-5, -1e-4, -1e16, -1e17], 256),
                rng.uniform(1e-5, 1e-4, n),
                rng.uniform(1e16, 1e17, n),
                rng.uniform(5e-6, 2e-4, n).round(12),
            ]
        ),
        "random decades": rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n),
        "short decimals": rng.integers(-10**6, 10**6, n) / 10.0 ** rng.integers(0, 12, n),
        "random bit patterns": rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64).view(float),
    }


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

    @pytest.mark.parametrize("name", list(corner_sets(CSV_SAMPLES)))
    def test_corner_set_matches_percent_format(self, tmp_path, name):
        values = corner_sets(CSV_SAMPLES)[name]
        assert_formats_like_percent(tmp_path, values, 7)

    def test_ints_and_lists(self, tmp_path):
        rows = [[1, 2**53, -7], [0, 3, 10**20]]
        assert_same_bytes(tmp_path, ["n", "m", "k"], rows, rows)

    def test_no_rows_give_the_header_alone(self, tmp_path):
        write_csv(tmp_path / "t.csv", ["a", "b", "c"], [])
        assert (tmp_path / "t.csv").read_bytes() == b"a,b,c\n"

    @pytest.mark.parametrize(
        "n_rows", [0, 1, 1100, *(k * BLOCK_ROWS + d for k in (1, 2) for d in (-1, 0, 1))]
    )
    def test_row_counts_around_the_block_size(self, tmp_path, rng, n_rows):
        table = rng.normal(size=(n_rows, 3)) * 10.0 ** rng.integers(-20, 20, (n_rows, 3))
        table[::5, 1] = np.resize([0.0, np.nan, -np.inf, 2.0**-25, 1e300], len(table[::5]))
        assert_same_bytes(tmp_path, ["x", "y", "z"], table, table)

    def test_rows_wider_than_a_block(self, tmp_path, rng):
        table = rng.normal(size=(3, reporting._BLOCK_VALUES + 1)).T.copy().T  # column-major
        assert_same_bytes(tmp_path, [f"c{j}" for j in range(table.shape[1])], table, table)

    def test_table_of_another_width_raises(self, tmp_path):
        with pytest.raises(TypeError):
            write_csv(tmp_path / "t.csv", ["a", "b"], np.zeros((3, 3)))


@seed(17)
@settings(max_examples=40, database=None, deadline=None)
@given(
    table=st.integers(1, 49).flatmap(
        lambda width: arrays(
            np.float64,
            st.tuples(st.integers(0, 12), st.just(width)),
            elements=st.floats(allow_nan=True, allow_infinity=True),
        )
    )
)
def test_any_float_table_matches_reference(tmp_path_factory, table):
    tmp_path = tmp_path_factory.mktemp("csv")
    header = [f"c{j}" for j in range(table.shape[1])]
    assert_same_bytes(tmp_path, header, table, table.tolist())


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
    u = ControlSignal(0.0, 1.0, values)
    assert_same_bytes(tmp_path, header, control_rows(u), reference_control_rows(u))
    # No command writes a marked control, and the CSV has no row for a left limit.
    marked = ControlSignal(0.0, 1.0, values, {i: rng.normal(size=n_modes) for i in (1, 1600, 1999)})
    with pytest.raises(ValueError, match="control_rows reads no left limits"):
        control_rows(marked)


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
