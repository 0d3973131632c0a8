"""Config fuzz: one key of a shipped config at a time gets a bad value.

Hypothesis (MacIver et al., JOSS 2019) picks a shipped config, one of its
keys, blocks or list entries (or an optional key it leaves out), and a
value that key must reject: a wrong type, a null where null means no
default, or a number out of range.  Every such config must exit 2 at load
with exactly one `error: config:` line on stderr, no traceback and no
output.  The seed is fixed and the example database is off, so every run
tries the same cases.  Sizes stay within the shipped configs' (n_modes
and G are never raised, and T/h only past the step ceiling, which is
checked before anything is allocated), so no case allocates more than
they do.

A second fuzz writes the contents of a `file` history for simulate_demo:
0-6 rows at uniform, jittered, random, reversed or non-finite times, with
at most one defect (a wrong column count, a NaN, infinite or overflowing
value, a token that is not a number).  `check` must exit 0, or exit 2
with one `error: config: history.params.path:` line, no traceback, no
warning and no output.
"""

import contextlib
import copy
import io
import shutil
import warnings
from pathlib import Path

import numpy as np

import yaml
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from beamctl.cli import main

CONFIGS = Path(__file__).parents[1] / "configs"
SHIPPED = {path.stem: yaml.safe_load(path.read_text()) for path in sorted(CONFIGS.glob("*.yaml"))}

NOT_A_NUMBER = ["x", "1.0", True, [1.0], {"a": 1}]
NOT_A_LIST = ["x", 0.5, True, {"a": 1}, [0.1, "a"], [True]]
NOT_A_MAPPING = ["x", 3, True, [1]]

# Values each key must reject, by key name.  None is listed only where a
# null does not stand for a default (an empty list, a derived constant or
# an empty block).
BAD = {
    **{key: NOT_A_NUMBER + [None, 0, -1.0] for key in ("c", "d", "k", "tol", "picard_tol")},
    "h": NOT_A_NUMBER + [None, 0, -1.0, 1.0e-300],  # T/h above the step ceiling
    "T": NOT_A_NUMBER + [None, 0, -1.0, 0.2],  # 0.2 < every shipped r
    "r": NOT_A_NUMBER + [None, 0, -0.1, 1.0, 2.0, 1e-9],
    "n_modes": ["4", 2.5, True, None, [4], 0, -1],
    "G": ["65", 2.5, True, None, [65], 2, 8, 0],  # 8 < 2N + 1 for N >= 4
    "max_iter": ["5", 2.5, True, None, 0, -3],
    "picard_max_iter": ["5", 2.5, True, None, 0, -3],
    **{key: NOT_A_NUMBER + [-1.0, -1e-9] for key in ("d_k", "L_q", "l_f", "alpha1", "beta1")},
    **{key: NOT_A_NUMBER + [None] for key in ("amp", "omega", "phase")},
    "coeffs": NOT_A_LIST + [None, [], [0.1] * 9],
    "w": NOT_A_LIST + [None, [0.1] * 9],
    "y": NOT_A_LIST + [None, [0.1] * 9],
    "time": NOT_A_NUMBER + [None, 0.0, -0.1, 1.0, 1.5],
    "t0": NOT_A_NUMBER + [None, -0.1, 1.0, 2.0],
    "lags": NOT_A_LIST + [[0.0, 0.1], [0.1, 0.1], [-0.1, 0.1], [0.1, 0.3], [0.1, 5.0], [0.2, 0.1]],
    "gammas": NOT_A_LIST + [[0.1], [0.1, 0.1, 0.1]],
    "sigmas": NOT_A_LIST + [[0.0], [-0.01], [0.01, 0.02], [0.3], [5.0]],
    **{key: NOT_A_LIST + [[0.1] * 9] for key in ("zstar_w", "zstar_y", "z0_w", "z0_y")},
    "dir": ["", None, 1, ["a"], True],
    "prefix": ["", None, 1, ["a"], True],
    "catalog": ["nope", 1, None, True, ["zero"]],
    "impulses": ["x", 3, {"a": 1}, [1]],
    # The blocks and catalog params: an unknown key or not a mapping.
    **{
        key: NOT_A_MAPPING + [{"a": 1}]
        for key in ("model", "grids", "delays", "nonlocal", "forcing", "nonlinearity",
                    "history", "targets", "experiment", "output", "params")
    },
}
# Keys a shipped config may leave out that the fuzz also sets, under a
# block the config has (or, for experiment and grids, any config).
OPTIONAL = {
    "experiment": ("t0", "sigmas", "tol", "max_iter", "picard_tol", "picard_max_iter"),
    "grids": ("G",),
    "nonlocal": ("L_q",),
    "nonlinearity": ("l_f", "alpha1", "beta1"),
}


def _paths(node, prefix=()):
    """Every mutable path of a config: blocks, keys and impulse entries."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list) and node and isinstance(node[0], dict):
        for j, entry in enumerate(node):
            yield prefix + (j,)
            yield from _paths(entry, prefix + (j,))


def _mutable(config):
    paths = set(_paths(config))
    for block, keys in OPTIONAL.items():
        if block in config or block in ("experiment", "grids"):
            paths.update((block, key) for key in keys)
    for j in range(len(config.get("impulses") or [])):
        paths.add(("impulses", j, "d_k"))
    return sorted(paths, key=str)


PATHS = {name: _mutable(config) for name, config in SHIPPED.items()}


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(sorted(SHIPPED)))
    path = draw(st.sampled_from(PATHS[name]))
    key = path[-1]
    value = draw(st.sampled_from(NOT_A_MAPPING if isinstance(key, int) else BAD[key]))
    data = copy.deepcopy(SHIPPED[name])
    node = data
    for part in path[:-1]:
        node = node.setdefault(part, {}) if isinstance(node, dict) else node[part]
    node[key] = value
    return name, path, data


@seed(20190715)
@settings(max_examples=300, database=None, deadline=None)
@given(case=mutations())
def test_bad_value_exits_2_at_load(tmp_path_factory, case):
    name, path, data = case
    base = tmp_path_factory.getbasetemp() / "fuzz"
    base.mkdir(exist_ok=True)
    config = base / f"{name}.yaml"
    config.write_text(yaml.safe_dump(data))
    out = base / "out"
    shutil.rmtree(out, ignore_errors=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["check", "--config", str(config), "--out", str(out)])
    lines = err.getvalue().splitlines()
    assert rc == 2, (path, lines)
    assert len(lines) == 1 and lines[0].startswith("error: config: "), (path, lines)
    assert not out.exists()


# A `file` history for simulate_demo (4 modes, r = 0.3): columns t, w_1..w_4,
# y_1..y_4 after one header line.
HISTORY_R = SHIPPED["simulate_demo"]["model"]["r"]
HISTORY_COLUMNS = 1 + 2 * SHIPPED["simulate_demo"]["model"]["n_modes"]
NOT_A_FLOAT = ["x", "", "1.0.0", "--1", "0x10", "nan0", "1e", "[0]"]
EXTREME = ["inf", "nan", "-inf", "1e308", "-1e308", "1e999", "NaN", "+inf"]


@st.composite
def history_files(draw):
    """The text of a history file: its row count, its times and at most one defect vary."""
    defect = draw(st.sampled_from(["none", "extreme", "token", "columns", "row-columns"]))
    spacing = draw(st.sampled_from(["uniform", "jittered", "random", "reversed", "extreme"]))
    n_rows = draw(st.integers(0, 6))
    times = np.linspace(-HISTORY_R, 0.0, n_rows)
    if spacing == "jittered":
        scale = draw(st.sampled_from([1e-13, 1e-10, 1e-6, 1e-2]))
        times = times + scale * draw(arrays(float, n_rows, elements=st.floats(-1, 1)))
    elif spacing == "random":
        times = np.sort(draw(arrays(float, n_rows, elements=st.floats(-HISTORY_R, 0.0))))
    elif spacing == "reversed":
        times = times[::-1]
    values = draw(arrays(float, (n_rows, HISTORY_COLUMNS - 1), elements=st.floats(-1e3, 1e3)))
    rows = [[repr(float(t)), *map(repr, row.tolist())] for t, row in zip(times, values)]
    if spacing == "extreme":  # the interior times, with the end points kept
        token = draw(st.sampled_from(EXTREME))
        for row in rows[1:-1]:
            row[0] = token
    if rows and defect == "columns":
        n_cols = draw(st.sampled_from([1, HISTORY_COLUMNS - 1, HISTORY_COLUMNS + 1]))
        rows = [(row + ["0"])[:n_cols] for row in rows]
    elif rows and defect == "row-columns":
        row = rows[draw(st.integers(0, n_rows - 1))]
        if draw(st.booleans()):
            row.append("0")
        else:
            row.pop()
    elif rows and defect in ("extreme", "token"):
        row = rows[draw(st.integers(0, n_rows - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(
            st.sampled_from(EXTREME if defect == "extreme" else NOT_A_FLOAT)
        )
    header = "t," + ",".join(f"c{j}" for j in range(1, HISTORY_COLUMNS))
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


@seed(3)
@settings(max_examples=150, database=None, deadline=None)
@given(text=history_files())
def test_history_file_exits_0_or_2_naming_the_path(tmp_path_factory, text):
    base = tmp_path_factory.getbasetemp() / "history-fuzz"
    base.mkdir(exist_ok=True)
    history = base / "history.csv"
    history.write_text(text)
    data = copy.deepcopy(SHIPPED["simulate_demo"])
    data["history"] = {"catalog": "file", "params": {"path": str(history)}}
    config = base / "simulate_demo.yaml"
    config.write_text(yaml.safe_dump(data))
    out = base / "out"
    shutil.rmtree(out, ignore_errors=True)
    err = io.StringIO()
    # A numpy warning fails the case: it would print outside the error line.
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["check", "--config", str(config), "--out", str(out)])
    lines = err.getvalue().splitlines()
    if rc == 0:
        assert lines == [], (text, lines)
        return
    assert rc == 2, (text, lines)
    assert len(lines) == 1, (text, lines)
    assert lines[0].startswith("error: config: history.params.path: "), (text, lines)
    assert not out.exists()
