"""Run-configuration loading, validation, and resolution.

Configurations are YAML with nested blocks, parsed by libyaml where PyYAML
has it; a key repeated in one mapping is rejected by name, and a syntax
error is one line with its line and column.  All blocks are read by one
reader, `_Block`: its typed getters alone decide which keys exist, their
defaults and checks, and the echo, for each getter records the value it
read in read order.  Loading snaps impulse times, delay lags, the delay
span, t0 and the pull-back windows to the nearest node of the trajectory
grid and writes the snapped and derived values back into the echo; a key
that no getter read, at any level, is rejected when the reader leaves its
block, and an unknown top-level block before any block is read.  What
`ProblemSpec` checks (the de-aliasing bound on G, the lags, their weights,
the impulse times and the pull-back windows' steps, which `RunConfig`
carries with steer's) is checked there alone, under the key it concerns.
The echo is the fully resolved configuration, with the bytes of
`yaml.safe_dump`, written next to the outputs so a run can be reproduced
from a single artifact; feeding it back produces byte-identical outputs.
"""

from __future__ import annotations

import math
from collections.abc import Hashable
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .catalogs import ImpulseEvent, make_forcing, make_impulse_map, make_nonlinearity
from .control import MIN_STEPS
from .dynamics import ProblemSpec, history_segment
from .errors import ConfigError
from .semigroup import ModelParams
from .spectral import SpatialGrid, StateZ

__all__ = ["RunConfig", "parse_config", "resolved_config_text"]

# The most steps T/h may ask for, checked before any grid is allocated.
MAX_STEPS = 10**7

# libyaml's parser and emitter where PyYAML has them, around the same
# pure-Python constructor, representer and resolver.
_SafeLoader = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
_SafeDumper = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper


class _UniqueKeys:
    """Loader mixin: a repeated mapping key, at any level, is a ConfigError naming it.

    Each mapping and sequence records the key path of its children, so a
    nested mapping, constructed after its parent, knows its own.  Merge
    keys (`<<`) are left to the base constructor.
    """

    def __init__(self, stream):
        super().__init__(stream)
        self.key_paths: dict = {}

    def construct_sequence(self, node, deep=False):
        path = self.key_paths.get(node, "")
        for j, child in enumerate(node.value):
            self.key_paths[child] = f"{path}[{j}]"
        return super().construct_sequence(node, deep)

    def construct_mapping(self, node, deep=False):
        path = self.key_paths.get(node, "")
        seen = set()
        for key_node, value_node in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node)
            name = f"{path}.{key}" if path else str(key)
            self.key_paths[value_node] = name
            if not isinstance(key, Hashable):
                continue  # the base constructor reports it
            if key in seen:
                mark = key_node.start_mark
                raise ConfigError(f"repeated key{_at(mark.line, mark.column)}", name)
            seen.add(key)
        return super().construct_mapping(node, deep)


class _Loader(_UniqueKeys, _SafeLoader):
    pass


@dataclass(frozen=True)
class RunConfig:
    """A validated run: the problem plus experiment and output settings."""

    problem: ProblemSpec
    z0: StateZ | None
    zstar: StateZ | None
    sigmas: tuple[float, ...]
    window_steps: tuple[int, ...]
    t0: float
    steer_steps: int
    tol: float
    max_iter: int
    out_dir: str
    prefix: str
    resolved: dict

    @property
    def params(self) -> ModelParams:
        return self.problem.params


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class _Block:
    """One YAML mapping, read through typed getters whose errors name `path.key`.

    Each getter records the value it returns in `resolved`, in read order,
    and `set` replaces a recorded value by its resolved form.  `echo()`
    rejects any key that no getter read, here or in a block read from here,
    and returns the record.  Opening a block echoes the ones opened before
    it, so every getter of a block must run before the next block opens; an
    unknown key is then reported before a later block's checks can trip
    over its absence.
    """

    def __init__(self, raw, path: str = ""):
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError("expected a mapping", path)
        self.raw = raw
        self.path = path
        self.resolved: dict = {}
        self._children: list[_Block] = []

    def key(self, name) -> str:
        return f"{self.path}.{name}" if self.path else str(name)

    def set(self, name: str, value):
        self.resolved[name] = value
        return value

    def get(self, name: str, default=None):
        """The raw value, unchecked (catalog names)."""
        return self.set(name, self.raw.get(name, default))

    def text(self, name: str, default: str) -> str:
        value = self.raw.get(name, default)
        if not isinstance(value, str) or not value:
            raise ConfigError(f"expected a non-empty string, got {value!r}", self.key(name))
        return self.set(name, value)

    def number(self, name: str, default=None, positive=False) -> float:
        if name not in self.raw:
            if default is None:
                raise ConfigError("missing required key", self.key(name))
            return self.set(name, default)
        value = self.raw[name]
        if not _is_number(value):
            raise ConfigError(f"expected a number, got {value!r}", self.key(name))
        if positive and not value > 0:
            raise ConfigError(f"must be positive, got {value}", self.key(name))
        return self.set(name, float(value))

    def optional_number(self, name: str) -> float | None:
        """A declared constant (>= 0) whose absence (or null) means a derived value."""
        if self.raw.get(name) is None:
            return self.set(name, None)
        value = self.number(name)
        if value < 0:
            raise ConfigError(f"must be >= 0, got {value}", self.key(name))
        return value

    def integer(self, name: str, default: int, minimum: int) -> int:
        value = self.raw.get(name, default)
        if value is None:
            raise ConfigError("missing required key", self.key(name))
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"expected an integer, got {value!r}", self.key(name))
        if value < minimum:
            raise ConfigError(f"must be >= {minimum}, got {value}", self.key(name))
        return self.set(name, value)

    def numbers(self, name: str) -> list[float]:
        """A list of numbers; absent or null is the empty list."""
        value = self.raw.get(name)
        if value is None:
            value = []
        if not isinstance(value, list) or not all(_is_number(v) for v in value):
            raise ConfigError("expected a list of numbers", self.key(name))
        return self.set(name, [float(v) for v in value])

    def params(self) -> dict:
        """A catalog's `params` mapping; the catalog entry checks its keys."""
        return self.set("params", dict(_Block(self.raw.get("params"), self.key("params")).raw))

    def _open(self, children: list[_Block]) -> None:
        for child in self._children:
            child.echo()
        self._children.extend(children)

    def block(self, name: str) -> _Block:
        child = _Block(self.raw.get(name), self.key(name))
        self._open([child])
        self.set(name, child.resolved)
        return child

    def entries(self, name: str, what: str) -> list[_Block]:
        """A list of mappings, read as blocks `name[j]`."""
        raw = self.raw.get(name)
        if raw is None:
            raw = []
        if not isinstance(raw, list):
            raise ConfigError(f"expected a list of {what}", self.key(name))
        children = [_Block(entry, f"{self.key(name)}[{j}]") for j, entry in enumerate(raw)]
        self._open(children)
        self.set(name, [child.resolved for child in children])
        return children

    def reject_unknown(self, known) -> None:
        """Raise ConfigError naming the first key (in sorted order) not in `known`."""
        unknown = sorted((k for k in self.raw if k not in known), key=str)
        if unknown:
            raise ConfigError("unknown key", self.key(unknown[0]))

    def echo(self) -> dict:
        self.reject_unknown(self.resolved)
        for child in self._children:
            child.echo()
        return self.resolved


# The top-level blocks, in read order.
_BLOCKS = (
    "model", "grids", "impulses", "delays", "nonlocal", "forcing", "nonlinearity",
    "history", "targets", "experiment", "output",
)


def _catalog(path: str, make, *args):
    """`make(*args)` with its errors keyed `path.catalog`, or `path.params.<key>`."""
    try:
        return make(*args)
    except ConfigError as exc:
        raise ConfigError(exc.message, f"{path}.{exc.key or 'catalog'}") from exc


def _reject_non_finite(node, key: str) -> None:
    """Raise ConfigError naming the first .nan/.inf anywhere under `node`."""
    if isinstance(node, float) and not math.isfinite(node):
        raise ConfigError(f"must be finite, got {node}", key)
    if isinstance(node, dict):
        for k, v in node.items():
            _reject_non_finite(v, f"{key}.{k}" if key else str(k))
    elif isinstance(node, list):
        for j, v in enumerate(node):
            _reject_non_finite(v, f"{key}[{j}]")


def _at(line: int, column: int) -> str:
    return f" (line {line + 1}, column {column + 1})"


def _yaml_problem(exc: yaml.YAMLError, text: str) -> str:
    """The loader's problem and its line and column, on one line."""
    if isinstance(exc, yaml.reader.ReaderError):
        # The C reader counts bytes and the Python one characters: find the
        # character, whose first occurrence is where either reader stopped.
        pos = text.find(chr(exc.character))
        problem = f"{exc.reason}: #x{exc.character:04x}"
        where = _at(text.count("\n", 0, pos), pos - text.rfind("\n", 0, pos) - 1)
    elif getattr(exc, "problem_mark", None) is not None:
        problem, where = exc.problem, _at(exc.problem_mark.line, exc.problem_mark.column)
    else:
        problem, where = str(exc), ""
    return " ".join(f"{problem}{where}".split())


def _snap(t: float, h: float, what: str, key: str) -> int:
    """The index j of the grid node j*h nearest to t."""
    pos = t / h
    if not math.isfinite(pos):
        raise ConfigError(f"{what} {t} is not a finite number of steps (h = {h})", key)
    return int(round(pos))


def _state(targets: _Block, prefix: str, n_modes: int) -> StateZ | None:
    w_key, y_key = f"{prefix}_w", f"{prefix}_y"
    if w_key not in targets.raw and y_key not in targets.raw:
        return None
    w = targets.numbers(w_key)
    y = targets.numbers(y_key)
    if len(w) > n_modes or len(y) > n_modes:
        raise ConfigError(f"at most {n_modes} modal coefficients allowed", f"targets.{prefix}_*")
    pair = np.zeros((2, n_modes))
    pair[0, : len(w)] = w
    pair[1, : len(y)] = y
    state = StateZ.from_pair(pair)
    targets.set(w_key, state.w.tolist())
    targets.set(y_key, state.y.tolist())
    return state


def parse_config(path: str | Path) -> RunConfig:
    """Load, validate, and resolve a YAML run configuration."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"configuration file not found: {path}")
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    try:
        raw = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"not parseable as YAML: {_yaml_problem(exc, text)}") from exc
    if raw is not None and not isinstance(raw, dict):
        raise ConfigError("top level must be a mapping")
    _reject_non_finite(raw, "")
    # Blocks and keys are read in the order of the echo.  A misspelt block
    # name is rejected before any block is read: its missing block could
    # otherwise trip a later block's check first.
    top = _Block(raw)
    top.reject_unknown(_BLOCKS)

    model = top.block("model")
    c = model.number("c", 1.0, positive=True)
    d = model.number("d", 1.0, positive=True)
    k = model.number("k", 1.0, positive=True)
    n_modes = model.integer("n_modes", 8, minimum=1)
    T = model.number("T", 1.0, positive=True)
    r_raw = model.number("r", T / 4.0, positive=True)

    grids = top.block("grids")
    h_req = grids.number("h", T / 2000.0, positive=True)
    if not T / h_req <= MAX_STEPS:
        raise ConfigError(f"T/h = {T / h_req:.6g} steps, more than {MAX_STEPS}", "grids.h")
    n_steps = max(int(round(T / h_req)), MIN_STEPS)
    h = grids.set("h", T / n_steps)
    n_r = _snap(r_raw, h, "delay span r", "model.r")
    r = model.set("r", n_r * h)
    if not 0 < n_r < n_steps:
        raise ConfigError(f"delay span {r_raw} snaps to {r}, outside (0, T) (h={h})", "model.r")
    G = grids.integer("G", 513, minimum=3)

    params = ModelParams(c=c, d=d, k=k, n_modes=n_modes, T=T, r=r)

    events = []
    for entry in top.entries("impulses", "impulse entries"):
        t_k = _snap(entry.number("time"), h, "impulse time", entry.key("time")) * h
        entry.set("time", t_k)
        kind = entry.get("catalog")
        if not kind:
            raise ConfigError("missing catalog entry name", entry.key("catalog"))
        imap = _catalog(
            entry.path,
            make_impulse_map,
            kind,
            n_modes,
            entry.params(),
            entry.optional_number("d_k"),
        )
        entry.set("d_k", imap.d_k)
        events.append(ImpulseEvent(t_k, imap))

    delays = top.block("delays")
    lags = [
        _snap(tau, h, "delay lag", f"delays.lags[{j}]") * h
        for j, tau in enumerate(delays.numbers("lags"))
    ]
    delays.set("lags", lags)

    nonlocal_block = top.block("nonlocal")
    gammas = nonlocal_block.numbers("gammas")
    L_q_declared = nonlocal_block.optional_number("L_q")

    forcing_block = top.block("forcing")
    forcing = _catalog(
        "forcing", make_forcing, forcing_block.get("catalog", "zero"), n_modes, forcing_block.params()
    )

    nl_block = top.block("nonlinearity")
    nonlinearity = _catalog(
        "nonlinearity",
        make_nonlinearity,
        nl_block.get("catalog", "zero"),
        n_modes,
        nl_block.params(),
        *(nl_block.optional_number(key) for key in ("l_f", "alpha1", "beta1")),
    )
    nl_block.set("l_f", nonlinearity.lipschitz)
    nl_block.set("alpha1", nonlinearity.alpha1)
    nl_block.set("beta1", nonlinearity.beta1)

    history_block = top.block("history")
    history = _catalog(
        "history",
        history_segment,
        history_block.get("catalog", "zero"),
        params,
        n_r + 1,
        history_block.params(),
    )

    targets = top.block("targets")
    zstar = _state(targets, "zstar", n_modes)
    z0 = _state(targets, "z0", n_modes)

    experiment = top.block("experiment")
    j0 = _snap(experiment.number("t0", 0.0), h, "steering start t0", "experiment.t0")
    if not 0 <= j0 < n_steps:
        raise ConfigError(f"t0 snaps to {j0 * h}, outside [0, T) (h={h})", "experiment.t0")
    t0 = experiment.set("t0", j0 * h)
    # The spec checks the windows; reading them here keeps their echo place.
    windows = experiment.numbers("sigmas")
    tol = experiment.number("tol", 1e-8, positive=True)
    max_iter = experiment.integer("max_iter", 50, minimum=1)
    picard_tol = experiment.number("picard_tol", 1e-10, positive=True)
    picard_max_iter = experiment.integer("picard_max_iter", 50, minimum=1)

    problem = ProblemSpec(
        params=params,
        grid=SpatialGrid(G),
        n_steps=n_steps,
        impulses=tuple(events),
        lags=tuple(lags),
        gammas=tuple(gammas),
        forcing=forcing,
        nonlinearity=nonlinearity,
        history=history,
        L_q_declared=L_q_declared,
        picard_tol=picard_tol,
        picard_max_iter=picard_max_iter,
    )
    nonlocal_block.set("L_q", problem.L_q)
    if "sigmas" not in experiment.raw:
        t_m = events[-1].time if events else 0.0
        windows = [f * min(T - t_m, r) for f in (0.2, 0.1, 0.05, 0.025)]
    sigmas = [
        _snap(s, h, "pull-back window", f"experiment.sigmas[{j}]") * h
        for j, s in enumerate(windows)
    ]
    window_steps = problem.window_steps(sigmas)
    experiment.set("sigmas", sigmas)

    output = top.block("output")
    return RunConfig(
        problem=problem,
        z0=z0,
        zstar=zstar,
        sigmas=tuple(sigmas),
        window_steps=window_steps,
        t0=t0,
        steer_steps=n_steps - j0,
        tol=tol,
        max_iter=max_iter,
        out_dir=output.text("dir", "out"),
        prefix=output.text("prefix", "run"),
        resolved=top.echo(),
    )


def resolved_config_text(cfg: RunConfig) -> str:
    return yaml.dump(cfg.resolved, Dumper=_SafeDumper, sort_keys=False, default_flow_style=False)
