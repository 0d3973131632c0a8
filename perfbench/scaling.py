"""Opt-in scaling series, outside the gated workloads.

* ``control.build_gramian_set`` time and ``control.simpson_nodes`` over
  n_modes in {4, 8, 16, 32, 64} (the Simpson reference grows like N^3);
* ``dynamics.step_us`` over n_steps in {1000, 2000, 4000} and n_modes in
  {4, 16}, on the shipped simulate problem.

Run with ``python3 perfbench/run.py --scaling``; N=64 takes about 20 s and
several hundred MB.
"""

from __future__ import annotations

import re
import tempfile
import time
from pathlib import Path

import tracer as tracing
from workloads import TEMPLATES

GRAMIAN_MODES = (4, 8, 16, 32, 64)
STEP_GRID = ((1000, 4), (2000, 4), (4000, 4), (1000, 16), (2000, 16), (4000, 16))


def gramian_series() -> list[dict]:
    from beamctl.control import build_gramian_set
    from beamctl.semigroup import ModelParams

    rows = []
    for n in GRAMIAN_MODES:
        p = ModelParams(c=1.0, d=1.0, k=1.0, n_modes=n, T=1.0, r=0.25)
        start = time.perf_counter()
        build_gramian_set(0.0, p.T, p, 2000)
        seconds = time.perf_counter() - start
        nodes = sum(tracing.simpson_nodes(i, 0.0, p.T, p) for i in range(1, n + 1))
        rows.append({"n_modes": n, "control.build_gramian_set.s": seconds, "control.simpson_nodes": nodes})
    return rows


def step_series() -> list[dict]:
    from beamctl.config import parse_config

    template = (TEMPLATES / "simulate_demo.yaml").read_text()
    rows = []
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        for n_steps, n_modes in STEP_GRID:
            text = re.sub(r"n_modes: \d+", f"n_modes: {n_modes}", template)
            text = re.sub(r"h: [0-9.e-]+", f"h: {1.0 / n_steps!r}", text)
            path = Path(tmp) / f"scaling_{n_steps}_{n_modes}.yaml"
            path.write_text(text)
            spec = parse_config(path).problem
            tr = tracing.Tracer()
            with tr.installed():
                import beamctl.dynamics

                beamctl.dynamics.integrate_mild(spec, None)
            m = tracing.layer_metrics(tr)
            rows.append(
                {
                    "n_steps": n_steps,
                    "n_modes": n_modes,
                    "dynamics.picard_sweeps": m["dynamics.picard_sweeps"],
                    "dynamics.step_us": m["dynamics.step_us"],
                }
            )
    return rows


def run() -> dict:
    return {"gramian": gramian_series(), "steps": step_series()}
