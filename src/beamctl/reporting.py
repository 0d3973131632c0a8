"""Deterministic file outputs: CSV tables and structured-text reports.

All numbers are written with 17 significant digits so a written value
parses back to the identical 64-bit float, and repeated runs of the same
configuration produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .control import ControlSignal
from .dynamics import Trajectory
from .spectral import eigenvalues, energy_norms, reconstruct

__all__ = [
    "fmt",
    "write_csv",
    "trajectory_rows",
    "snapshot_rows",
    "control_rows",
    "write_report",
]


def fmt(x) -> str:
    return f"{float(x):.17g}"


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def trajectory_header(n_modes: int) -> list[str]:
    return (
        ["t"]
        + [f"w_{i}" for i in range(1, n_modes + 1)]
        + [f"y_{i}" for i in range(1, n_modes + 1)]
        + ["norm_z"]
    )


def _state_row(t: float, pair: np.ndarray, norm) -> list[float]:
    return [t, *pair[0].tolist(), *pair[1].tolist(), float(norm)]


def trajectory_rows(traj: Trajectory):
    """One row per node; jump nodes are emitted twice, left then right."""
    lam = eigenvalues(traj.n_modes)
    times = traj.times
    norms = energy_norms(traj.values, lam)
    for i in range(traj.n_nodes):
        if i in traj.left_values:
            left = traj.left_values[i]
            yield _state_row(times[i], left, energy_norms(left, lam))
        yield _state_row(times[i], traj.values[i], norms[i])


def snapshot_rows(traj: Trajectory, grid, n_snapshots: int = 11):
    """Long-format physical snapshots: t, x, w(t, x), y(t, x)."""
    idx = np.unique(
        np.round(np.linspace(traj.n_history, traj.n_nodes - 1, n_snapshots)).astype(int)
    )
    xs = grid.nodes
    times = traj.times
    for i in idx:
        w_phys = reconstruct(traj.values[i, 0], grid)
        y_phys = reconstruct(traj.values[i, 1], grid)
        for j in range(xs.size):
            yield [times[i], xs[j], w_phys[j], y_phys[j]]


def control_rows(u: ControlSignal):
    """One row per node; switch nodes are emitted twice, left then right."""
    times = u.times
    for i in range(u.n_nodes):
        if i in u.left_values:
            yield [times[i], *u.left_values[i].tolist()]
        yield [times[i], *u.values[i].tolist()]


def write_report(path: Path, entries: list[tuple[str, object]]) -> None:
    """Structured text: one `key = value` line per entry."""
    lines = []
    for key, value in entries:
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, (int, np.integer)):
            rendered = str(int(value))
        elif isinstance(value, str):
            rendered = value
        else:
            rendered = fmt(value)
        lines.append(f"{key} = {rendered}")
    Path(path).write_text("\n".join(lines) + "\n")
