"""Run-configuration loading, validation, and resolution.

Configurations are YAML with nested blocks.  Loading applies every
default, snaps impulse times, delay lags, and the delay span onto the
trajectory grid (anything farther than half a step from a node is
rejected), and re-validates all structural invariants.  The fully
resolved configuration is echoed back to an output file so a run can be
reproduced from a single artifact; feeding the echo back produces
byte-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .catalogs import ImpulseEvent, make_forcing, make_impulse_map, make_nonlinearity
from .dynamics import ProblemSpec, history_segment
from .errors import ConfigError
from .semigroup import ModelParams
from .spectral import SpatialGrid, StateZ

__all__ = ["RunConfig", "parse_config", "resolved_config_text"]

_TOP_KEYS = {
    "model",
    "grids",
    "impulses",
    "delays",
    "nonlocal",
    "forcing",
    "nonlinearity",
    "history",
    "targets",
    "experiment",
    "output",
}


@dataclass(frozen=True)
class RunConfig:
    """A validated run: the problem plus experiment and output settings."""

    problem: ProblemSpec
    z0: StateZ | None
    zstar: StateZ | None
    sigmas: tuple[float, ...]
    t0: float
    tol: float
    max_iter: int
    norm_step: float
    gamma_samples: int
    out_dir: str
    prefix: str
    resolved: dict

    @property
    def params(self) -> ModelParams:
        return self.problem.params


def _block(raw: dict, name: str, path: str = "") -> dict:
    value = raw.get(name)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError("expected a mapping", f"{path}{name}")
    return value


def _number(block: dict, path: str, key: str, default=None, positive=False):
    if key not in block:
        if default is None:
            raise ConfigError("missing required key", f"{path}.{key}")
        return default
    value = block[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"expected a number, got {value!r}", f"{path}.{key}")
    if positive and not value > 0:
        raise ConfigError(f"must be positive, got {value}", f"{path}.{key}")
    return float(value)


def _optional_number(block: dict, path: str, key: str) -> float | None:
    """`_number` for a key whose absence (or null) means a derived value."""
    return None if block.get(key) is None else _number(block, path, key)


def _catalog(path: str, make, *args):
    """`make(*args)` with its errors keyed `path.catalog`, or `path.params.<key>`."""
    try:
        return make(*args)
    except ConfigError as exc:
        raise ConfigError(exc.message, f"{path}.{exc.key or 'catalog'}") from exc


def _int(block: dict, path: str, key: str, default=None, minimum=None) -> int:
    value = block.get(key, default)
    if value is None:
        raise ConfigError("missing required key", f"{path}.{key}")
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"expected an integer, got {value!r}", f"{path}.{key}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"must be >= {minimum}, got {value}", f"{path}.{key}")
    return value


def _float_list(block: dict, path: str, key: str, default=()) -> list[float]:
    value = block.get(key, list(default))
    if value is None:
        value = []
    if not isinstance(value, list) or any(
        not isinstance(v, (int, float)) or isinstance(v, bool) for v in value
    ):
        raise ConfigError("expected a list of numbers", f"{path}.{key}")
    return [float(v) for v in value]


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


def _snap(t: float, h: float, what: str, key: str) -> float:
    j = int(round(t / h))
    if abs(t - j * h) > 0.5 * h + 1e-12 * max(abs(t), 1.0):
        raise ConfigError(
            f"{what} {t} is farther than h/2 from a grid node (h = {h})", key
        )
    return j * h


def _state(block: dict, path: str, prefix: str, n_modes: int) -> StateZ | None:
    w_key, y_key = f"{prefix}_w", f"{prefix}_y"
    if w_key not in block and y_key not in block:
        return None
    w = _float_list(block, path, w_key)
    y = _float_list(block, path, y_key)
    if len(w) > n_modes or len(y) > n_modes:
        raise ConfigError(
            f"at most {n_modes} modal coefficients allowed", f"{path}.{prefix}_*"
        )
    full_w = np.zeros(n_modes)
    full_y = np.zeros(n_modes)
    full_w[: len(w)] = w
    full_y[: len(y)] = y
    return StateZ(full_w, full_y)


def parse_config(path: str | Path) -> RunConfig:
    """Load, validate, and resolve a YAML run configuration."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"configuration file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"not parseable as YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("top level must be a mapping")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError("unknown configuration block", sorted(unknown)[0])
    _reject_non_finite(raw, "")

    model = _block(raw, "model")
    c = _number(model, "model", "c", 1.0, positive=True)
    d = _number(model, "model", "d", 1.0, positive=True)
    k = _number(model, "model", "k", 1.0, positive=True)
    n_modes = _int(model, "model", "n_modes", 8, minimum=1)
    T = _number(model, "model", "T", 1.0, positive=True)
    r_raw = _number(model, "model", "r", T / 4.0, positive=True)
    if not r_raw < T:
        raise ConfigError(f"delay span must satisfy 0 < r < T, got r={r_raw}, T={T}", "model.r")

    grids = _block(raw, "grids")
    h_req = _number(grids, "grids", "h", T / 2000.0, positive=True)
    n_steps = max(int(round(T / h_req)), 16)
    h = T / n_steps
    r = _snap(r_raw, h, "delay span r", "model.r")
    if r <= 0:
        raise ConfigError(f"delay span {r_raw} collapses to 0 on the grid (h={h})", "model.r")
    h_r = _number(grids, "grids", "h_r", r / 200.0, positive=True)
    n_hist_nodes = max(int(round(r / h_r)), 2) + 1
    G = _int(grids, "grids", "G", 513, minimum=3)
    if G < 2 * n_modes + 1:
        raise ConfigError(
            f"G={G} cannot de-alias {n_modes} modes (need >= {2 * n_modes + 1})", "grids.G"
        )
    norm_step = _number(grids, "grids", "norm_step", T / 2000.0, positive=True)
    gamma_samples = _int(grids, "grids", "gamma_samples", 2000, minimum=16)

    params = ModelParams(c=c, d=d, k=k, n_modes=n_modes, T=T, r=r)

    impulses_raw = raw.get("impulses", [])
    if impulses_raw is None:
        impulses_raw = []
    if not isinstance(impulses_raw, list):
        raise ConfigError("expected a list of impulse entries", "impulses")
    events = []
    resolved_impulses = []
    prev_time = 0.0
    for idx, entry in enumerate(impulses_raw):
        key = f"impulses[{idx}]"
        if not isinstance(entry, dict):
            raise ConfigError("expected a mapping", key)
        t_req = _number(entry, key, "time")
        t_k = _snap(t_req, h, "impulse time", f"{key}.time")
        if not prev_time < t_k < T:
            raise ConfigError(
                f"impulse times must be strictly increasing inside (0, T); got {t_k}",
                f"{key}.time",
            )
        prev_time = t_k
        kind = entry.get("catalog")
        if not kind:
            raise ConfigError("missing catalog entry name", f"{key}.catalog")
        imp_params = _block(entry, "params", f"{key}.")
        d_k = _optional_number(entry, key, "d_k")
        imap = _catalog(key, make_impulse_map, kind, n_modes, imp_params, d_k)
        events.append(ImpulseEvent(t_k, imap))
        resolved_impulses.append(
            {"time": t_k, "catalog": kind, "params": dict(imp_params), "d_k": imap.d_k}
        )

    delays = _block(raw, "delays")
    lags_raw = _float_list(delays, "delays", "lags")
    lags = []
    prev = 0.0
    for j, tau in enumerate(lags_raw):
        if not prev < tau < r:
            raise ConfigError(
                f"lags must satisfy 0 < tau_1 < ... < tau_q < r (got tau={tau}, r={r})",
                f"delays.lags[{j}]",
            )
        tau_s = _snap(tau, h, "delay lag", f"delays.lags[{j}]")
        if not prev < tau_s < r:
            raise ConfigError(
                f"lags must satisfy 0 < tau_1 < ... < tau_q < r after grid snapping "
                f"(got tau={tau_s}, r={r})",
                f"delays.lags[{j}]",
            )
        lags.append(tau_s)
        prev = tau_s

    nonlocal_block = _block(raw, "nonlocal")
    gammas = _float_list(nonlocal_block, "nonlocal", "gammas")
    if len(gammas) != len(lags):
        raise ConfigError(
            f"{len(gammas)} coefficients for {len(lags)} delay lags", "nonlocal.gammas"
        )
    L_q_declared = _optional_number(nonlocal_block, "nonlocal", "L_q")

    forcing_block = _block(raw, "forcing")
    forcing_kind = forcing_block.get("catalog", "zero")
    forcing_params = _block(forcing_block, "params", "forcing.")
    forcing = _catalog("forcing", make_forcing, forcing_kind, n_modes, forcing_params)

    nl_block = _block(raw, "nonlinearity")
    nl_kind = nl_block.get("catalog", "zero")
    nl_params = _block(nl_block, "params", "nonlinearity.")
    nonlinearity = _catalog(
        "nonlinearity",
        make_nonlinearity,
        nl_kind,
        n_modes,
        nl_params,
        *(_optional_number(nl_block, "nonlinearity", key) for key in ("l_f", "alpha1", "beta1")),
    )

    history_block = _block(raw, "history")
    history_kind = history_block.get("catalog", "zero")
    history_params = _block(history_block, "params", "history.")
    history = _catalog(
        "history", history_segment, history_kind, params, n_hist_nodes, history_params
    )

    experiment = _block(raw, "experiment")
    tol = _number(experiment, "experiment", "tol", 1e-8, positive=True)
    max_iter = _int(experiment, "experiment", "max_iter", 50, minimum=1)
    picard_tol = _number(experiment, "experiment", "picard_tol", 1e-10, positive=True)
    picard_max_iter = _int(experiment, "experiment", "picard_max_iter", 50, minimum=1)
    t0 = _number(experiment, "experiment", "t0", 0.0)
    if not 0.0 <= t0 < T:
        raise ConfigError(f"t0 must lie in [0, T), got {t0}", "experiment.t0")
    t0 = _snap(t0, h, "steering start t0", "experiment.t0")
    t_m = events[-1].time if events else 0.0
    sigma_limit = min(T - t_m, r)
    sigmas_raw = _float_list(
        experiment,
        "experiment",
        "sigmas",
        [f * sigma_limit for f in (0.2, 0.1, 0.05, 0.025)],
    )
    sigmas = []
    for j, s in enumerate(sigmas_raw):
        s_snapped = _snap(s, h, "pull-back window", f"experiment.sigmas[{j}]")
        if not 0.0 < s_snapped < sigma_limit:
            raise ConfigError(
                f"window {s_snapped} outside (0, min(T - t_m, r)) = (0, {sigma_limit})",
                f"experiment.sigmas[{j}]",
            )
        if sigmas and s_snapped >= sigmas[-1]:
            raise ConfigError("windows must be strictly decreasing", f"experiment.sigmas[{j}]")
        sigmas.append(s_snapped)

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

    targets = _block(raw, "targets")
    zstar = _state(targets, "targets", "zstar", n_modes)
    z0 = _state(targets, "targets", "z0", n_modes)

    output = _block(raw, "output")
    out_dir = str(output.get("dir", "out"))
    prefix = str(output.get("prefix", "run"))

    resolved = {
        "model": {"c": c, "d": d, "k": k, "n_modes": n_modes, "T": T, "r": r},
        "grids": {
            "h": h,
            "h_r": r / (n_hist_nodes - 1),
            "G": G,
            "norm_step": norm_step,
            "gamma_samples": gamma_samples,
        },
        "impulses": resolved_impulses,
        "delays": {"lags": list(lags)},
        "nonlocal": {"gammas": list(gammas), "L_q": problem.L_q},
        "forcing": {"catalog": forcing_kind, "params": dict(forcing_params)},
        "nonlinearity": {
            "catalog": nl_kind,
            "params": dict(nl_params),
            "l_f": nonlinearity.lipschitz,
            "alpha1": nonlinearity.alpha1,
            "beta1": nonlinearity.beta1,
        },
        "history": {"catalog": history_kind, "params": dict(history_params)},
        "targets": {
            key: value
            for key, value in (
                ("zstar_w", zstar.w.tolist() if zstar is not None else None),
                ("zstar_y", zstar.y.tolist() if zstar is not None else None),
                ("z0_w", z0.w.tolist() if z0 is not None else None),
                ("z0_y", z0.y.tolist() if z0 is not None else None),
            )
            if value is not None
        },
        "experiment": {
            "t0": t0,
            "sigmas": list(sigmas),
            "tol": tol,
            "max_iter": max_iter,
            "picard_tol": picard_tol,
            "picard_max_iter": picard_max_iter,
        },
        "output": {"dir": out_dir, "prefix": prefix},
    }

    return RunConfig(
        problem=problem,
        z0=z0,
        zstar=zstar,
        sigmas=tuple(sigmas),
        t0=t0,
        tol=tol,
        max_iter=max_iter,
        norm_step=norm_step,
        gamma_samples=gamma_samples,
        out_dir=out_dir,
        prefix=prefix,
        resolved=resolved,
    )


def resolved_config_text(cfg: RunConfig) -> str:
    return yaml.safe_dump(cfg.resolved, sort_keys=False, default_flow_style=False)
