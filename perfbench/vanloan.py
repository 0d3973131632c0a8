"""Exact response of the linear beam to a piecewise-linear control.

Reference for ``steer_miss_rel``: how far the control that ``steer`` writes,
read as the piecewise-linear signal its CSV documents, misses the target in
the continuous linear system.  Per mode and per grid interval the response
to a linear input comes from one 4x4 augmented matrix exponential (Van Loan,
"Computing integrals involving the matrix exponential", IEEE TAC 1978), so
no grid refinement is involved and the floor is rounding, not (omega h)^2.

The state is taken in energy coordinates (sqrt(lambda_n) w_n, y_n), where
the mode block [[0, sqrt(lambda_n)], [-d sqrt(lambda_n), -c]] is well
scaled, the energy norm is the Euclidean norm, and scaling and squaring
stays accurate.  Uses numpy only.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a degree-18 Taylor sum."""
    norm = float(np.max(np.sum(np.abs(a), axis=1)))
    squarings = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0
    x = a / 2.0**squarings
    term = np.eye(a.shape[0], dtype=a.dtype)
    out = term.copy()
    for k in range(1, 19):
        term = term @ x / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def interval_maps(lam: float, c: float, d: float, h: float):
    """(Phi, g0, g1): z(h) = Phi z(0) + g0 u(0) + g1 u(h) for linear u on [0, h].

    The augmented generator acts on (z, u, v) with u' = v / h and v' = 0, so
    its exponential carries int_0^h e^{A(h-s)} b ds and
    int_0^h e^{A(h-s)} b (s/h) ds in its last two columns.
    """
    rl = math.sqrt(lam)
    m = np.zeros((4, 4), dtype=np.longdouble)
    m[0, 1] = rl
    m[1, 0] = -d * rl
    m[1, 1] = -c
    m[1, 2] = 1.0  # b = (0, 1) in energy coordinates too
    m[2, 3] = 1.0 / h
    e = expm(m * h)
    phi = e[:2, :2]
    ramp = e[:2, 3]
    return phi, e[:2, 2] - ramp, ramp


def propagate(z0_w, z0_y, times, u, lam, c, d) -> np.ndarray:
    """Energy-coordinate state at times[-1] from z0 at times[0] under u.

    ``u`` has shape (len(times), n_modes), linear between consecutive
    nodes; the grid must be uniform.  Returns an array (n_modes, 2).
    """
    times = np.asarray(times, dtype=float)
    h = (times[-1] - times[0]) / (len(times) - 1)
    if not np.allclose(np.diff(times), h, rtol=1e-9, atol=1e-12):
        raise ValueError("control grid is not uniform")
    n_modes = len(lam)
    phi = np.empty((n_modes, 2, 2), dtype=np.longdouble)
    g0 = np.empty((n_modes, 2), dtype=np.longdouble)
    g1 = np.empty((n_modes, 2), dtype=np.longdouble)
    for i, lam_n in enumerate(lam):
        phi[i], g0[i], g1[i] = interval_maps(lam_n, c, d, h)
    z = np.stack([np.sqrt(lam) * np.asarray(z0_w, float), np.asarray(z0_y, float)], axis=1)
    z = z.astype(np.longdouble)
    for k in range(len(times) - 1):
        z = np.einsum("nij,nj->ni", phi, z) + g0 * u[k][:, None] + g1 * u[k + 1][:, None]
    return z.astype(float)


def read_control_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    times = data[:, 0]
    if np.any(np.diff(times) <= 0):
        raise ValueError(f"{path}: control has repeated nodes (switched control)")
    return times, data[:, 1:]


def steer_miss_rel(control_csv: Path, resolved: dict) -> float:
    """Relative energy-norm miss of the written control in the continuous system."""
    model = resolved["model"]
    n = int(model["n_modes"])
    lam = (np.pi * np.arange(1, n + 1)) ** 4
    tg = resolved["targets"]
    z0_w = tg.get("z0_w") or [0.0] * n
    z0_y = tg.get("z0_y") or [0.0] * n
    times, u = read_control_csv(control_csv)
    z = propagate(z0_w, z0_y, times, u, lam, float(model["c"]), float(model["d"]))
    zstar = np.stack([np.sqrt(lam) * np.asarray(tg["zstar_w"], float), np.asarray(tg["zstar_y"], float)], axis=1)
    return float(np.linalg.norm(z - zstar) / np.linalg.norm(zstar))


def zero_control_tolerance(params, t0: float, t1: float) -> float:
    """1e-12, or float64's own phase conditioning eps * omega_N * t if larger.

    Any float64 evaluation of the top mode's rotation over [t0, t1] carries a
    relative error of order eps * omega_N * (t1 - t0); from N of about 11 at
    d = T = 1 that, not the reference, sets the floor of the comparison.
    """
    omega = math.sqrt(params.d * params.lam[-1])
    return max(1e-12, 4.0 * np.finfo(float).eps * omega * (t1 - t0))


def zero_control_error(params, z0, t0: float, t1: float, n_steps: int) -> float:
    """Self-check: relative gap to beamctl's apply_semigroup under u = 0."""
    from beamctl.semigroup import apply_semigroup

    lam = params.lam
    times = t0 + (t1 - t0) / n_steps * np.arange(n_steps + 1)
    u = np.zeros((n_steps + 1, params.n_modes))
    z = propagate(z0.w, z0.y, times, u, lam, params.c, params.d)
    ref = apply_semigroup(z0, t1 - t0, params)
    ref_e = np.stack([np.sqrt(lam) * ref.w, ref.y], axis=1)
    return float(np.linalg.norm(z - ref_e) / np.linalg.norm(ref_e))
