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
"""

import contextlib
import copy
import io
import shutil
from pathlib import Path

import yaml
from hypothesis import given, seed, settings
from hypothesis import strategies as st

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
