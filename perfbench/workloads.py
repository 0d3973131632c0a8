"""Seeded workload generation: the configs beamctl receives and the job list.

A workload is a dict of YAML config texts plus an ordered job list.  beamctl
only ever sees the generated YAML files; nothing else about a workload
reaches it.

* ``shipped``: the six configs of ``configs/``.  Seed 0 reproduces them byte
  for byte (the templates in ``shipped/`` are copies); other seeds redraw the
  targets and the history amplitudes, keeping comments and layout.
* ``wide-steer``: random z0/zstar at N=32 (gramian, steer, check) and N=48
  (steer).  The Simpson reference Gramians take almost all of the time and
  the mild-solution integrator never runs.
* ``history-heavy``: one simulate at N=16 with a strong nonlocal coupling
  around gamma = (0.4, 0.3), resolved by about 39 Picard sweeps.  Only the
  integrator and the CSV writers work; control and synthesis stay idle.
  Runnable by name; not gated in BENCHMARK.json (see README.md).

Seeded draws stay inside ranges on which every job passes the correctness
gate and the Picard and fixed-point iteration counts do not change, so the
work per pass is the same for every seed.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TEMPLATES = Path(__file__).resolve().parent / "shipped"


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``beamctl <command> --config <config>.yaml``.

    ``reps`` > 1 marks a sub-0.1 s job that is repeated inside each pass so
    that its per-command median rests on more than one sample.
    """

    command: str
    config: str
    reps: int = 1

    @property
    def name(self) -> str:
        return f"{self.command}:{self.config}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: dict[str, str]
    jobs: tuple[Job, ...]


WHY = {
    "shipped": "the six shipped configs, the users' real traffic; time goes to dynamics under approx and exact",
    "wide-steer": "N=32/48 steering with random targets; Simpson reference Gramians dominate, dynamics never runs",
    "history-heavy": "one N=16 simulate with strong nonlocal coupling: many Picard sweeps, a 2 MB CSV, no control",
}

SHORT_REPS = 10


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _fmt(values) -> str:
    return "[" + ", ".join(f"{float(v):.6g}" for v in values) + "]"


def _replace_list(text: str, key: str, fn) -> str:
    """Rewrite every one-line flow list ``<indent>key: [...]`` through fn."""

    def sub(match: re.Match) -> str:
        old = [float(v) for v in match.group(2).split(",")]
        return match.group(1) + _fmt(fn(np.array(old)))

    new, count = re.subn(rf"^(\s*{key}: )\[([^\]]*)\]$", sub, text, flags=re.M)
    if count == 0:
        raise ValueError(f"template has no one-line list '{key}'")
    return new


def shipped(seed: int) -> Workload:
    configs = {p.stem: p.read_text() for p in sorted(TEMPLATES.glob("*.yaml"))}
    if seed != 0:
        rng = _rng("shipped", seed)
        for name in sorted(configs):
            text = configs[name]
            for key in ("z0_w", "z0_y", "zstar_w", "zstar_y"):
                if re.search(rf"^\s*{key}: \[", text, flags=re.M):
                    text = _replace_list(text, key, lambda v: v * rng.uniform(0.75, 1.25, v.size))
            if "catalog: modal_constant" in text:
                for key in ("w", "y"):
                    text = _replace_list(text, key, lambda v: v * rng.uniform(0.9, 1.1, v.size))
            configs[name] = text
    jobs = (
        Job("simulate", "simulate_demo"),
        Job("gramian", "gramian_n8", SHORT_REPS),
        Job("steer", "steer_linear", SHORT_REPS),
        Job("approx", "approx_bounded"),
        Job("exact", "exact_benchmark"),
        Job("check", "check_zero", SHORT_REPS),
    )
    return Workload("shipped", WHY["shipped"], configs, jobs)


_WIDE = """\
# Minimum-energy steering between seeded random states, {n} modes.
model:
  c: 1.0
  d: 1.0
  k: 1.0
  n_modes: {n}
  T: 1.0
  r: 0.25
grids:
  h: 5.0e-4
targets:
  z0_w: {z0_w}
  z0_y: {z0_y}
  zstar_w: {zstar_w}
  zstar_y: {zstar_y}
output:
  dir: out
  prefix: wide_n{n}
"""


def wide_steer(seed: int) -> Workload:
    rng = _rng("wide-steer", seed)
    configs = {}
    for n in (32, 48):
        draws = {
            key: _fmt(rng.uniform(-scale, scale, n))
            for key, scale in (("z0_w", 0.2), ("z0_y", 0.9), ("zstar_w", 0.15), ("zstar_y", 0.35))
        }
        configs[f"wide_n{n}"] = _WIDE.format(n=n, **draws)
    jobs = (
        Job("gramian", "wide_n32"),
        Job("steer", "wide_n32"),
        Job("check", "wide_n32"),
        Job("steer", "wide_n48"),
    )
    return Workload("wide-steer", WHY["wide-steer"], configs, jobs)


_HISTORY = """\
# Simulation with a strong two-lag nonlocal history, sixteen modes.
model:
  c: 1.0
  d: 1.0
  k: 1.0
  n_modes: 16
  T: 1.0
  r: 0.3
grids:
  h: 5.0e-4
  G: 129
impulses:
  - time: 0.5
    catalog: saturating_kick
    params: {{amp: 0.05}}
delays:
  lags: [0.12, 0.24]
nonlocal:
  gammas: {gammas}
forcing:
  catalog: harmonic
  params:
    coeffs: [0.7071067811865475]
    omega: 3.0
nonlinearity:
  catalog: delayed_saturation
  params: {{amp: 0.2}}
history:
  catalog: modal_constant
  params:
    w: {w}
    y: {y}
output:
  dir: out
  prefix: history_heavy
"""


def history_heavy(seed: int) -> Workload:
    rng = _rng("history-heavy", seed)
    # The sweep count is (log residual) / (log contraction ratio), and the
    # ratio moves with the coupling: +-0.001 keeps it at 39 sweeps.
    gammas = np.array([0.4, 0.3]) + rng.uniform(-0.001, 0.001, 2)
    w = np.array([0.4, 0.15]) * rng.uniform(0.95, 1.05, 2)
    y = np.array([0.0, 0.1]) * rng.uniform(0.95, 1.05, 2)
    text = _HISTORY.format(gammas=_fmt(gammas), w=_fmt(w), y=_fmt(y))
    return Workload(
        "history-heavy",
        WHY["history-heavy"],
        {"history_heavy": text},
        (Job("simulate", "history_heavy"),),
    )


WORKLOADS = {"shipped": shipped, "wide-steer": wide_steer, "history-heavy": history_heavy}


def generate(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload '{name}' (known: {', '.join(WORKLOADS)})")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return WORKLOADS[name](seed)
