"""Deterministic file outputs: CSV tables and structured-text reports.

All numbers are written with 17 significant digits so a written value
parses back to the identical 64-bit float, and repeated runs of the same
configuration produce byte-identical files.  A CSV table is a 2-D float
array, streamed through one `%.17g` row template (as `f"{x:.17g}"`).
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


def write_csv(path: Path, header: list[str], table) -> None:
    """The header, then the rows of the 2-D float `table`, 512 at a time."""
    table = np.asarray(table, dtype=float)
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for block in np.split(table, range(512, len(table), 512)):
            f.write((row * len(block)) % tuple(block.ravel().tolist()))


def trajectory_header(n_modes: int) -> list[str]:
    return (
        ["t"]
        + [f"w_{i}" for i in range(1, n_modes + 1)]
        + [f"y_{i}" for i in range(1, n_modes + 1)]
        + ["norm_z"]
    )


def _with_marks(times: np.ndarray, values: np.ndarray, marks: dict) -> tuple:
    """`times` and `values` with each marked node's left limit inserted before it."""
    nodes = list(marks)
    left = np.array([marks[i] for i in nodes]).reshape((len(nodes),) + values.shape[1:])
    return np.insert(times, nodes, times[nodes]), np.insert(values, nodes, left, axis=0)


def trajectory_rows(traj: Trajectory) -> np.ndarray:
    """t, w, y, norm_z per node; jump nodes have two rows, left then right."""
    times, pairs = _with_marks(traj.times, traj.values, traj.left_values)
    norms = energy_norms(pairs, eigenvalues(traj.n_modes))
    return np.column_stack([times, pairs.reshape(len(pairs), -1), norms])


def snapshot_rows(traj: Trajectory, grid, n_snapshots: int = 11) -> np.ndarray:
    """Long-format physical snapshots: t, x, w(t, x), y(t, x)."""
    idx = np.unique(
        np.round(np.linspace(traj.n_history, traj.n_nodes - 1, n_snapshots)).astype(int)
    )
    table = np.empty((idx.size, grid.nodes.size, 4))
    table[:, :, 0] = traj.times[idx, None]
    table[:, :, 1] = grid.nodes
    for row, i in enumerate(idx):
        table[row, :, 2:] = np.transpose([reconstruct(v, grid) for v in traj.values[i]])
    return table.reshape(-1, 4)


def control_rows(u: ControlSignal) -> np.ndarray:
    """t, u per node; switch nodes have two rows, left then right."""
    return np.column_stack(_with_marks(u.times, u.values, u.left_values))


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
