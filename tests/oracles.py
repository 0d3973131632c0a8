"""Independent reference computations the tests check the package against.

Everything here deliberately avoids the package's quadrature and stepping
choices: matrix exponentials come from scaled Taylor series or RK4 on the
matrix ODE, responses from classical fixed-step RK4, and the delay system
from a method-of-steps RK4 with cubic-Hermite dense output.  The one
exception is `implicit_trapezoid_sweep`, the integrator's former
implicit-endpoint sweep, kept as a bitwise reference for the explicit sweep
that replaced it (on the explicit sweep's kernel, so that only the endpoint
treatment differs); likewise `full_pullback_experiment`
re-integrates every switched pull-back run in full, as the package did
before it reused the nominal prefix, and `full_history_integrate` runs
every history sweep over all of [0, T], as the package did before its
history sweeps stopped at the largest lag.  `cold_exact_fixed_point` starts
every integration of the exact driver from the prescribed history, as the
package did before it warm-started them, and `loop_steering_target` sums
the steering target's source convolution one node at a time, as the package
did before it summed it in one pass, and `one_node_sources` evaluates the
source rows node by node, as the steering target did before it took the
rows that the integration records.  `where_branch_coefficients` is the
propagator's former branch formula, which evaluated all three branches on
every entry and picked one with nested `np.where`; it is the bitwise
reference for the per-entry branch that replaced it.  `resample_history`
samples a history `Segment` at the trajectory nodes, as the package did on
every integration before the history became a node array fixed at load.
`simpson_gramian` integrates the package's own propagator entries, but by
a quadrature the package no longer uses.  `sampled_operator_norm` and
`sampled_gamma_norm` are the certificate's former grid estimates of M and
|Gamma| (the latter of the reference operator, built on `mode_gramian`);
`interpolated_gamma_norm` samples the applied steering operator between
its nodes.  `Segment`, `source_term`, `nonlocal_combination`,
`segment_at`, `node_index`, `trajectory_span` (the former `Trajectory.r`
and `t_end`), the generator blocks, `expm2`, the adjoint propagator, the
control arithmetic, `project` and `norm_half` are former package helpers
that only the tests used.  `reference_write_csv` and the
`reference_*_rows` generators are the package's former CSV writer, which
formatted every value with its own f-string, and its row-by-row table
producers; they are the byte reference for the writer that streams a 2-D
array through one row template.  `PythonLoader` is the config loader on
PyYAML's pure-Python parser, the one used where libyaml is missing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from beamctl import config, dynamics, semigroup
from beamctl.chord import correction as chord_correction
from beamctl.chord import linear_part as chord_linear_part
from beamctl.control import (
    ControlSignal,
    build_gramian_set,
    default_gramian_step,
    minimum_energy_control,
    mode_gramian,
)
from beamctl.dynamics import IntegrationResult, Trajectory, integrate_mild
from beamctl.errors import NumericalError
from beamctl.semigroup import (
    _DISC_RTOL,
    _branch_coefficients,
    apply_semigroup,
    operator_norm_bound,
    propagator_entries_for,
    propagator_matrix,
    weighted_block_norms,
)
from beamctl.spectral import (
    SpatialGrid,
    StateZ,
    _require_resolution,
    eigenvalue,
    eigenvalues,
    energy_norms,
    pair_norm,
    reconstruct,
)
from beamctl.synthesis import (
    FixedPointResult,
    FixedPointRow,
    PullbackResult,
    PullbackRow,
    contraction_constants,
    pullback_control,
    steering_target,
)

_NODE_SNAP = 1e-9


@dataclass(frozen=True)
class Segment:
    """Delay window on a uniform grid over [-span, 0].

    `values[i]` holds the (2, n_modes) coefficient pair at theta_i =
    -span + i*step and is the right limit; nodes listed in `left_values`
    are jump points carrying a distinct left limit.  The package's former
    history type, kept for the window oracles and for `resample_history`.
    """

    step: float
    values: np.ndarray
    left_values: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim != 3 or values.shape[1] != 2 or values.shape[0] < 2:
            raise ValueError(f"values must be (n_nodes >= 2, 2, n_modes), got {values.shape}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        marks = {int(i): np.array(v, dtype=float) for i, v in sorted(self.left_values.items())}
        object.__setattr__(self, "left_values", marks)
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def span(self) -> float:
        return self.step * (self.n_nodes - 1)

    def value(self, theta: float) -> np.ndarray:
        """Right-continuous piecewise-linear evaluation at theta in [-span, 0]."""
        if not -self.span - 1e-9 * self.span <= theta <= 1e-12:
            raise ValueError(f"theta {theta} outside [-{self.span}, 0]")
        pos = (theta + self.span) / self.step
        idx = int(round(pos))
        if abs(pos - idx) < _NODE_SNAP:
            return self.values[min(max(idx, 0), self.n_nodes - 1)]
        lo = int(np.floor(theta / self.step + (self.n_nodes - 1)))
        a = (theta + self.span) / self.step - lo
        upper = self.left_values.get(lo + 1, self.values[lo + 1])
        return (1.0 - a) * self.values[lo] + a * upper


def resample_history(segment: Segment, spec) -> np.ndarray:
    """A history segment sampled at the trajectory nodes of [-r, 0] of `spec`.

    The package's former per-integration resample, kept as the bitwise
    reference for the history files that `history_segment` now interpolates
    once at load (which carry no jump marks).
    """
    h = spec.h
    n_r = int(round(spec.params.r / h))
    if abs(segment.step - h) < 1e-12 * h and segment.n_nodes == n_r + 1:
        return segment.values.copy()
    thetas = h * np.arange(-n_r, 1)
    return np.stack([segment.value(th) for th in thetas])


def mode_matrix(n: int, p) -> np.ndarray:
    """Generator block of mode n: [[0, 1], [-d*lambda_n, -c]]."""
    lam = eigenvalue(n)
    return np.array([[0.0, 1.0], [-p.d * lam, -p.c]])


def mode_adjoint_matrix(n: int, p) -> np.ndarray:
    """Adjoint of the generator block in the energy inner product.

    With the mode-n weight D = diag(lambda_n, 1) the adjoint is
    D^-1 A^T D = [[0, -d], [lambda_n, -c]].
    """
    lam = eigenvalue(n)
    return np.array([[0.0, -p.d], [lam, -p.c]])


def expm2(a: np.ndarray, t: float) -> np.ndarray:
    """Closed-form exponential exp(a*t) of a real 2x2 matrix.

    Branches on the discriminant of the characteristic polynomial:
    complex pair (damped oscillation), distinct real roots, and the
    repeated-root limit near the branch point.  Negative t is allowed.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {a.shape}")
    shift = 0.5 * (a[0, 0] + a[1, 1])
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    c0, c1 = _branch_coefficients(np.array(shift), np.array(det), t)
    scale = np.exp(shift * t)
    b = a - shift * np.eye(2)
    return scale * (float(c0) * np.eye(2) + float(c1) * b)


def where_branch_coefficients(shift, det, t):
    """`semigroup._branch_coefficients` as it evaluated all three branches everywhere.

    Takes the same broadcasting arguments; it differs from the package only
    at q = shift^2 - det = 0 under a zero threshold, which it sends to the
    hyperbolic branch (C1 = sinh(0)/1 = 0) instead of the repeated root.
    """
    shift = np.asarray(shift, dtype=float)
    det = np.asarray(det, dtype=float)
    t = np.asarray(t, dtype=float)
    quarter_disc = shift**2 - det
    thresh = _DISC_RTOL * np.maximum(shift**2, np.abs(det))

    omega = np.sqrt(np.abs(quarter_disc))
    # np.where evaluates both sides, so mask the hyperbolic arguments to
    # zero on oscillatory entries (cosh would overflow at their omega) and
    # guard the 0/0 of the repeated-root limit.
    safe = np.where(omega > 0, omega, 1.0)
    hyperbolic = quarter_disc >= 0
    wt = omega * t
    wt_hyp = np.where(hyperbolic, wt, 0.0)
    osc_c0 = np.cos(wt)
    osc_c1 = np.sin(wt) / safe
    hyp_c0 = np.cosh(wt_hyp)
    hyp_c1 = np.sinh(wt_hyp) / safe

    repeated = np.abs(quarter_disc) < thresh
    c0 = np.where(repeated, 1.0, np.where(hyperbolic, hyp_c0, osc_c0))
    c1 = np.where(repeated, t * np.ones_like(wt), np.where(hyperbolic, hyp_c1, osc_c1))
    return c0, c1


def adjoint_blocks(t: float, p) -> np.ndarray:
    """Per-mode blocks of the adjoint propagator in the energy inner product.

    Related to the direct block E by D^-1 E^T D with D = diag(lambda_n, 1):
    same diagonal, off-diagonals rescaled by lambda_n.
    """
    lam = p.lam
    e00, e01, e10, e11 = propagator_entries_for(np.array([t]), lam, p.c, p.d)
    blocks = np.empty((p.n_modes, 2, 2))
    blocks[:, 0, 0] = e00[0]
    blocks[:, 0, 1] = e10[0] / lam
    blocks[:, 1, 0] = e01[0] * lam
    blocks[:, 1, 1] = e11[0]
    return blocks


def apply_adjoint_semigroup(z: StateZ, t: float, p) -> StateZ:
    if z.n_modes != p.n_modes:
        raise ValueError(f"state has {z.n_modes} modes, params expect {p.n_modes}")
    return StateZ.from_pair(apply_blocks(adjoint_blocks(t, p), z.to_pair()))


def semigroup_blocks(t: float, p) -> np.ndarray:
    """(n_modes, 2, 2) array of per-mode propagator blocks at time t."""
    e00, e01, e10, e11 = propagator_entries_for(np.array([t]), p.lam, p.c, p.d)
    blocks = np.empty((p.n_modes, 2, 2))
    blocks[:, 0, 0] = e00[0]
    blocks[:, 0, 1] = e01[0]
    blocks[:, 1, 0] = e10[0]
    blocks[:, 1, 1] = e11[0]
    return blocks


def apply_blocks(blocks: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Apply per-mode 2x2 blocks to a (2, N) coefficient pair."""
    w, y = pair[0], pair[1]
    return np.vstack(
        [
            blocks[:, 0, 0] * w + blocks[:, 0, 1] * y,
            blocks[:, 1, 0] * w + blocks[:, 1, 1] * y,
        ]
    )


def trajectory_span(traj: Trajectory) -> tuple[float, float]:
    """(r, T): the trajectory covers [-r, T]."""
    return traj.step * traj.n_history, traj.step * (traj.n_nodes - 1 - traj.n_history)


def trajectory_state(traj: Trajectory, t: float) -> StateZ:
    """Right-continuous value of a trajectory at t (grid nodes exactly, else linear)."""
    r, t_end = trajectory_span(traj)
    if not -r - 1e-12 <= t <= t_end + 1e-12:
        raise ValueError(f"time {t} outside [-{r}, {t_end}]")
    pos = (t + r) / traj.step
    idx = int(round(pos))
    if abs(pos - idx) < _NODE_SNAP:
        return StateZ.from_pair(traj.values[min(max(idx, 0), traj.n_nodes - 1)])
    lo = int(np.floor(pos))
    a = pos - lo
    upper = traj.left_values.get(lo + 1, traj.values[lo + 1])
    return StateZ.from_pair((1.0 - a) * traj.values[lo] + a * upper)


def node_index(traj: Trajectory, t: float) -> int:
    """The index of the trajectory node at time t; ValueError if t is no node."""
    pos = (t + trajectory_span(traj)[0]) / traj.step
    idx = int(round(pos))
    if abs(pos - idx) > _NODE_SNAP or not 0 <= idx < traj.n_nodes:
        raise ValueError(f"time {t} is not a grid node")
    return idx


def control_value(u: ControlSignal, t: float) -> np.ndarray:
    """Right-continuous piecewise-linear evaluation of a control at t."""
    if not u.t0 - 1e-12 <= t <= u.t1 + 1e-12:
        raise ValueError(f"time {t} outside [{u.t0}, {u.t1}]")
    pos = (t - u.t0) / u.step
    i = int(np.clip(np.floor(pos + 1e-9), 0, u.n_nodes - 1))
    frac = pos - i
    if frac <= 1e-9:
        return u.values[i].copy()
    upper = u.left_values.get(i + 1, u.values[i + 1])
    return (1.0 - frac) * u.values[i] + frac * upper


def steering_control(z0: StateZ, zstar: StateZ, t0: float, t1: float, p, n_steps: int) -> ControlSignal:
    """Minimum-energy control steering the linear system from z0 at t0 to zstar at t1.

    The recipe of the `steer` command, which also reads the reached state
    from the same Gramian set.
    """
    gs = build_gramian_set(t0, t1, p, n_steps)
    xi = zstar - apply_semigroup(z0, t1 - t0, p)
    return minimum_energy_control(xi, gs, p)


def count_propagator_tables(monkeypatch) -> list[int]:
    """Sizes of the propagator tables the package tabulates from now on.

    Wraps `force_column` and `propagator_entries_for` in every package
    module that holds them; the returned list gets the number of times of
    each table as it is made.
    """
    sizes = []
    tabulators = (semigroup.force_column, semigroup.propagator_entries_for)
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "beamctl"]
    for fn in tabulators:
        def counted(ts, *args, _inner=fn):
            sizes.append(int(np.size(ts)))
            return _inner(ts, *args)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return sizes


def linear_states(z0: StateZ, u: ControlSignal, p) -> np.ndarray:
    """The former `control.integrate_linear`: every state of its march, (n_nodes, 2, n_modes).

    It keeps one row [w, y, h/2 u] per node; `integrate_linear` keeps a
    block of rows and returns the last state, which must equal this
    array's last row bitwise.
    """
    n = p.n_modes
    F = propagator_matrix(u.step, p.lam, p.c, p.d)
    left, right = u.node_values()
    rows = np.empty((u.n_nodes, 3 * n))
    half_right = np.multiply(right, 0.5 * u.step, out=rows[:, 2 * n :])
    half_left = half_right if left is right else np.multiply(left, 0.5 * u.step)
    rows[0, : 2 * n] = z0.to_pair().ravel()
    for prev, pair, y, half_u in zip(rows, rows[1:, : 2 * n], rows[1:, n : 2 * n], half_left[1:]):
        F.dot(prev, pair)
        np.add(y, half_u, out=y)
    return rows[:, : 2 * n].reshape(-1, 2, n)


def zero_control(t0: float, t1: float, n_steps: int, n_modes: int) -> ControlSignal:
    return ControlSignal(t0, t1, np.zeros((n_steps + 1, n_modes)))


def scaled_control(u: ControlSignal, a: float) -> ControlSignal:
    return ControlSignal(u.t0, u.t1, a * u.values, {i: a * v for i, v in u.left_values.items()})


def control_sum(u: ControlSignal, v: ControlSignal) -> ControlSignal:
    if v.n_nodes != u.n_nodes or v.t0 != u.t0 or v.t1 != u.t1:
        raise ValueError("control grids do not match")
    ul, _ = u.node_values()
    vl, _ = v.node_values()
    marks = set(u.left_values) | set(v.left_values)
    return ControlSignal(u.t0, u.t1, u.values + v.values, {i: ul[i] + vl[i] for i in marks})


def project(samples: np.ndarray, n_modes: int, grid: SpatialGrid) -> np.ndarray:
    """Modal coefficients of a grid function by discrete sine quadrature.

    The interior trapezoid rule is exact for products of basis functions
    up to the grid's Nyquist mode, so project(reconstruct(c)) == c to
    machine precision whenever the grid resolves the requested modes.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape[-1] != grid.n_points:
        raise ValueError(f"expected {grid.n_points} samples, got {samples.shape[-1]}")
    _require_resolution(grid, n_modes)
    return grid.weight * (samples @ grid.basis(n_modes))


def norm_half(w: np.ndarray) -> float:
    """Fractional-power norm sqrt(sum lambda_n * w_n**2)."""
    w = np.asarray(w, dtype=float)
    return float(np.sqrt(np.sum(eigenvalues(w.shape[-1]) * w**2)))


def taylor_expm(a: np.ndarray, t: float, scaling_power: int = 10, order: int = 30) -> np.ndarray:
    """Scaled-and-squared Taylor series for exp(a*t).

    Few squarings keep the roundoff amplification (about 2**scaling_power
    times machine epsilon) below the tolerances the tests assert.
    """
    m = np.asarray(a, dtype=float) * (t / 2.0**scaling_power)
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for j in range(1, order + 1):
        term = term @ m / j
        out = out + term
    for _ in range(scaling_power):
        out = out @ out
    return out


def rk4_matrix_exp(a: np.ndarray, t: float, step: float = 1e-5) -> np.ndarray:
    """RK4 integration of X' = a X from the identity."""
    n = max(int(round(abs(t) / step)), 1)
    h = t / n
    x = np.eye(a.shape[0])
    for _ in range(n):
        k1 = a @ x
        k2 = a @ (x + 0.5 * h * k1)
        k3 = a @ (x + 0.5 * h * k2)
        k4 = a @ (x + h * k3)
        x = x + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def rk4_forced_response(a: np.ndarray, b: np.ndarray, u_fn, t1: float, z0: np.ndarray, n_steps: int):
    """RK4 for z' = a z + b u(t) from z0 at 0; returns z(t1)."""
    h = t1 / n_steps
    z = np.array(z0, dtype=float)

    def f(t, zz):
        return a @ zz + b * u_fn(t)

    for i in range(n_steps):
        t = i * h
        k1 = f(t, z)
        k2 = f(t + 0.5 * h, z + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, z + 0.5 * h * k2)
        k4 = f(t + h, z + h * k3)
        z = z + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return z


def composite_simpson(values: np.ndarray, dx: float) -> float:
    """Composite Simpson rule over an odd number of equally spaced samples."""
    n = values.shape[0] - 1
    if n % 2:
        raise ValueError("need an even interval count")
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return float(np.sum(w * values) * dx / 3.0)


def sine_coefficients_simpson(f_values: np.ndarray, xs: np.ndarray, n_modes: int) -> np.ndarray:
    """Modal coefficients of samples on a uniform grid over (0, 1) by Simpson.

    The grid must include the endpoints where the integrand vanishes.
    """
    dx = xs[1] - xs[0]
    out = np.empty(n_modes)
    for n in range(1, n_modes + 1):
        integrand = f_values * np.sqrt(2.0) * np.sin(n * np.pi * xs)
        out[n - 1] = composite_simpson(integrand, dx)
    return out


def simpson_gramian(n: int, t0: float, t1: float, p, refine: int = 1) -> np.ndarray:
    """Gramian of mode n over [t0, t1] by composite Simpson on the kernel.

    The package's former `mode_gramian`: the step is
    `default_gramian_step` / `refine`, capped at (t1 - t0) / 16, on the
    kernel (lam*e01^2, e01*e11; lam*e01*e11, e11^2) over tau in [0, t1 - t0].
    """
    length = t1 - t0
    step = min(default_gramian_step(n, t0, t1, p) / refine, length / 16.0)
    intervals = max(int(np.ceil(length / step)), 2)
    intervals += intervals % 2
    tau = np.linspace(0.0, length, intervals + 1)
    lam = eigenvalue(n)
    _, e01, _, e11 = propagator_entries_for(tau, np.array([lam]), p.c, p.d)
    e01, e11 = e01[:, 0], e11[:, 0]
    dx = length / intervals
    g01 = composite_simpson(e01 * e11, dx)
    return np.array(
        [
            [lam * composite_simpson(e01**2, dx), g01],
            [lam * g01, composite_simpson(e11**2, dx)],
        ]
    )


def sampled_operator_norm(p, time_step: float | None = None) -> float:
    """Largest energy operator norm of S(t) over modes and a uniform grid on [0, T].

    The package's former `operator_norm_bound`: a grid maximum, so a lower
    estimate of the sup; the default step is T/2000.
    """
    if time_step is None:
        time_step = p.T / 2000.0
    n = max(int(round(p.T / time_step)), 1)
    ts = np.linspace(0.0, p.T, n + 1)
    e00, e01, e10, e11 = propagator_entries_for(ts, p.lam, p.c, p.d)
    return float(weighted_block_norms(e00, e01, e10, e11, p.lam[None, :]).max())


def _dual_norms(m0, m1, lam):
    """Dual energy norms of the rows (m0, m1): the norm of xi -> m0 xi_w + m1 xi_y."""
    return np.sqrt(m0**2 / lam + m1**2)


def sampled_gamma_norm(t0: float, t1: float, p, n_samples: int = 2000) -> float:
    """Grid estimate of sup_t |b* E*(t1 - t) W^-1| with the exact Gramians W.

    The package's former `gamma_norm_estimate`: the reference operator of
    the continuous system (`mode_gramian`), sampled on n_samples + 1 times.
    """
    lam = p.lam
    ts = t0 + (t1 - t0) / n_samples * np.arange(n_samples + 1)
    _, e01, _, e11 = propagator_entries_for(t1 - ts, lam, p.c, p.d)
    inv = np.array([np.linalg.inv(mode_gramian(n, t0, t1, p)) for n in range(1, p.n_modes + 1)])
    m0 = inv[:, 0, 0] * lam * e01 + inv[:, 1, 0] * e11
    m1 = inv[:, 0, 1] * lam * e01 + inv[:, 1, 1] * e11
    return float(_dual_norms(m0, m1, lam).max())


def interpolated_gamma_norm(gs, p, refine: int = 10) -> float:
    """Sup of the applied steering operator's norm on a `refine`-times finer grid.

    The rows of the operator xi -> u are read off `minimum_energy_control`
    on the unit targets of the energy coordinates (xi_w = 1 and xi_y = 1 in
    every mode at once, which the per-mode steering keeps apart), and the
    piecewise-linear control between two nodes is sampled at `refine`
    points per interval.
    """
    n = p.n_modes
    m0 = minimum_energy_control(StateZ(np.ones(n), np.zeros(n)), gs, p).values
    m1 = minimum_energy_control(StateZ(np.zeros(n), np.ones(n)), gs, p).values
    theta = (np.arange(refine) / refine)[:, None, None]
    fine = []
    for m in (m0, m1):
        inner = (1.0 - theta) * m[None, :-1] + theta * m[None, 1:]
        fine.append(np.concatenate([inner.transpose(1, 0, 2).reshape(-1, n), m[-1:]]))
    return float(_dual_norms(fine[0], fine[1], p.lam).max())


def method_of_steps_rk4(
    spec,
    u=None,
    refine: int = 8,
    picard_tol: float = 1e-11,
    max_iter: int = 80,
    full_sweeps: bool = False,
):
    """Method-of-steps RK4 for the full impulsive delay problem.

    Fixed-step classical RK4 on a grid `refine` times finer than the
    package integrator, with cubic-Hermite dense output supplying the
    delayed arguments at the stage times.  The nonlocal history is
    resolved by the same outer fixed point as the package, but everything
    inside the sweep is independent.  Returns the (n_nodes, 2, N) state
    array from -r to T.

    The sweep is causal and the residual reads no node past the largest
    lag, so the history sweeps stop there and the converged history is
    swept once more over [0, T]; `full_sweeps=True` runs every sweep over
    [0, T] instead, with bitwise the same result.
    """
    p = spec.params
    h = spec.h / refine
    n_r = int(round(p.r / h))
    n_fwd = spec.n_steps * refine
    n_tot = n_r + n_fwd + 1
    neg_d_lam = -p.d * p.lam
    basis = spec.grid.basis(p.n_modes)
    quad_w = spec.grid.weight
    forced = not spec.forcing.is_zero
    perturbed = not spec.nonlinearity.is_zero

    def clip_project(w):
        return quad_w * (np.maximum(basis @ w, 0.0) @ basis)

    def u_at(t):
        return control_value(u, t) if u is not None else None

    imp_nodes = {n_r + int(round(ev.time / h)): ev for ev in spec.impulses}
    # The history, linear between the package's nodes, at the finer nodes.
    k, m = np.divmod(np.arange(n_r + 1), refine)
    a = (m / refine)[:, None, None]
    nxt = np.minimum(k + 1, len(spec.history) - 1)
    rho = (1.0 - a) * spec.history[k] + a * spec.history[nxt]

    def sweep(hist, n_steps=n_fwd):
        ys = np.empty((n_tot, 2, p.n_modes))
        ys[: n_r + 1] = hist
        fs = np.empty_like(ys)

        def time_terms(t):
            # The control, the load and the catalog term read the time and
            # nodes at least a lag back, never the stage state, so every
            # evaluation at one time shares them.
            def lookup(theta):
                pos = (t + theta + p.r) / h
                j = math.floor(pos + 1e-12)
                a = pos - j
                if a < 1e-12:
                    return ys[j]
                if a > 1 - 1e-12:
                    return ys[j + 1]
                y0, y1 = ys[j], ys[j + 1]
                f0, f1 = fs[j], fs[j + 1]
                h00 = (1 + 2 * a) * (1 - a) ** 2
                h10 = a * (1 - a) ** 2
                h01 = a * a * (3 - 2 * a)
                h11 = a * a * (a - 1)
                return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1

            uv = u_at(t)
            load = spec.forcing(t) if forced else None
            pert = None
            if perturbed:
                pert = spec.nonlinearity.evaluate(t, lookup(-p.r), uv)
            return uv, load, pert

        def rhs(z, terms):
            uv, load, pert = terms
            w, y = z
            row = neg_d_lam * w - p.c * y - p.k * clip_project(w)
            if uv is not None:
                row = row + uv
            if load is not None:
                row = row + load
            if pert is not None:
                row = row + pert
            out = np.empty_like(z)
            out[0] = y
            out[1] = row
            return out

        # Hermite slopes over the history come from difference quotients of
        # the data itself (the history is not governed by the equation).
        fs[0] = (ys[1] - ys[0]) / h
        fs[1:n_r] = (ys[2 : n_r + 1] - ys[: n_r - 1]) / (2 * h)
        fs[n_r] = rhs(ys[n_r], time_terms(0.0))
        for m in range(n_steps):
            i = n_r + m
            t = m * h
            z = ys[i]
            k1 = fs[i]
            mid = time_terms(t + h / 2)
            k2 = rhs(z + h / 2 * k1, mid)
            k3 = rhs(z + h / 2 * k2, mid)
            end = time_terms(t + h)
            k4 = rhs(z + h * k3, end)
            znew = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            ev = imp_nodes.get(i + 1)
            if ev is not None:
                znew = znew.copy()
                znew[1] = znew[1] + ev.map.velocity_jump(t + h, znew, end[0])
            ys[i + 1] = znew
            fs[i + 1] = rhs(znew, end)
        return ys

    hist = rho.copy()
    offsets = [int(round(tau / h)) for tau in spec.lags]
    stop = n_fwd if full_sweeps or not offsets else max(offsets)
    for _ in range(max_iter):
        ys = sweep(hist, stop)
        if not spec.lags:
            return ys
        gv = np.zeros((n_r + 1, 2, p.n_modes))
        for g, off in zip(spec.gammas, offsets):
            gv += g * ys[off : off + n_r + 1]
        residual = float(np.abs(ys[: n_r + 1] + gv - rho).max())
        if residual <= picard_tol:
            return ys if stop == n_fwd else sweep(hist)
        hist = rho - gv
    raise RuntimeError("oracle history iteration did not converge")


class _SegmentView:
    """Duck-typed segment over the trajectory buffer during a sweep.

    Exposes the `value`/`span`/`state` interface of `Segment` without
    copying the window; the node currently being solved can be overridden
    with the inner-iteration state.
    """

    __slots__ = ("_values", "_marks", "_node", "_span", "_step", "_current")

    def __init__(self, values, marks, node, span, step, current):
        self._values = values
        self._marks = marks
        self._node = node
        self._span = span
        self._step = step
        self._current = current

    @property
    def span(self):
        return self._span

    def value(self, theta):
        pos = theta / self._step
        rel = int(round(pos))
        j = self._node + rel
        if abs(pos - rel) < _NODE_SNAP:
            if j == self._node:
                return self._current
            return self._values[j]
        lo = self._node + int(np.floor(pos))
        a = pos - np.floor(pos)
        hi_val = self._current if lo + 1 == self._node else self._values[lo + 1]
        hi_val = self._marks.get(lo + 1, hi_val)
        return (1.0 - a) * self._values[lo] + a * hi_val

    def state(self, theta):
        return StateZ.from_pair(self.value(theta))


def _source_row(t, seg, w_current, u_val, spec, basis, quad_w):
    """Velocity-equation source excluding the control channel: p - k*w+ + f."""
    clipped = np.maximum(basis @ w_current, 0.0)
    row = -spec.params.k * (quad_w * (clipped @ basis))
    if not spec.forcing.is_zero:
        row = row + spec.forcing(t)
    if not spec.nonlinearity.is_zero:
        row = row + spec.nonlinearity.evaluate(t, seg.value(-seg.span), u_val)
    return row


def implicit_trapezoid_sweep(spec, u_left, u_right, u_marks, hist_values, hist_marks, n_r):
    """The implicit-endpoint exponential-trapezoid sweep the integrator replaced.

    Each step resolves the trapezoid right endpoint by up to eight passes of
    an inner fixed point.  Kept as a bitwise reference for the explicit
    sweep in `beamctl.dynamics`, which must reproduce it exactly.  It steps
    with the explicit sweep's kernel (`dynamics._sweep_kernel`) at the same
    nodes: F from the closed node and its opening source after t = 0, an
    impulse, a control mark and the largest lag, and K from the open row
    [w, y - s, m, e] elsewhere; it adds the halved source terms in the same
    order, so the two differ only in how they reach the endpoint, the jumps
    and the marks, not in rounding; the signature is that of the old
    `_sweep`.
    """
    p = spec.params
    h = spec.h
    half_h = 0.5 * h
    n_total = n_r + spec.n_steps + 1
    F, K, S, P = dynamics._sweep_kernel(spec)

    values = np.empty((n_total, 2, p.n_modes))
    values[: n_r + 1] = hist_values
    marks = dict(hist_marks)
    impulse_nodes = {int(round(ev.time / h)): ev for ev in spec.impulses}
    lag_nodes = [int(round(tau / h)) for tau in spec.lags]
    restarts = {0, *impulse_nodes, *u_marks, *lag_nodes[-1:]}

    def terms(t, node, u_val):
        # h/2 (p + f) at node `node`, or None when both are zero.
        seg = _SegmentView(values, marks, node, p.r, h, None)
        terms = []
        if not spec.forcing.is_zero:
            terms.append(spec.forcing(t))
        if not spec.nonlinearity.is_zero:
            terms.append(spec.nonlinearity.evaluate(t, seg.value(-seg.span), u_val))
        return sum(terms[1:], terms[0]) * half_h if terms else None

    def rhs(t, node, current, u_val):
        # h/2 times the velocity source with the control, at `current`.
        row = np.dot(np.maximum(np.dot(S, current[0]), 0.0), P)
        term = terms(t, node, u_val)
        if term is not None:
            row = row + term
        return row + u_val * half_h

    g_prev = rhs(0.0, n_r, values[n_r], u_right[0])
    for j in range(1, spec.n_steps + 1):
        i = n_r + j
        t = j * h
        if j - 1 in restarts:
            base = np.dot(F, np.concatenate([values[i - 1].ravel(), g_prev])).reshape(2, -1)
        else:
            base = np.dot(K, open_row).reshape(2, -1)
        # Implicit trapezoid endpoint: only the velocity row moves, and the
        # contraction factor is h/2 times the state-Lipschitz bound of the
        # sources, so a couple of passes reach roundoff.
        current = base
        row = rhs(t, i, current, u_left[j])
        for _ in range(8):
            y_new = base[1] + row
            delta = float(np.max(np.abs(y_new - current[1])))
            current = np.vstack([base[0], y_new])
            scale = max(1.0, float(np.max(np.abs(y_new))))
            if delta <= 1e-13 * scale:
                break
            row = rhs(t, i, current, u_left[j])
        # The open row K steps from: the velocity before the closing source,
        # the clipped samples and the exogenous half source.
        term = terms(t, i, u_left[j])
        e = u_left[j] * half_h if term is None else term + u_left[j] * half_h
        m = np.maximum(np.dot(S, base[0]), 0.0)
        open_row = np.concatenate([base[0], base[1], m, e])
        ev = impulse_nodes.get(j)
        if ev is not None:
            marks[i] = current
            jumped = current.copy()
            jumped[1] = jumped[1] + ev.map.velocity_jump(t, current, u_right[j])
            values[i] = jumped
            g_prev = rhs(t, i, jumped, u_right[j])
        else:
            values[i] = current
            # `row` was evaluated at the converged state with the left
            # control value; recompute only when the control jumps here.
            g_prev = rhs(t, i, current, u_right[j]) if j in u_marks else row
    return values, marks


def source_term(t: float, seg, u_val, spec) -> StateZ:
    """Perturbation entering the velocity equation: (0, p(t) - k*w+ + f).

    `seg` is the delay segment ending at t; its value at 0 supplies the
    current position for the one-sided cable force.  `u_val` may be None
    when every catalog entry is control-independent.
    """
    basis = spec.grid.basis(spec.params.n_modes)
    row = _source_row(t, seg, seg.value(0.0)[0], u_val, spec, basis, spec.grid.weight)
    return StateZ(np.zeros_like(row), row)


def nonlocal_combination(segments, spec) -> Segment:
    """Linear combination of the lagged segments with the nonlocal weights.

    The increment satisfies |G(y)(t) - G(v)(t)| <= L_q * sum_i |y_i(t) -
    v_i(t)| by construction, with L_q the largest absolute coefficient.
    """
    if len(segments) != spec.q:
        raise ValueError(f"expected {spec.q} segments, got {len(segments)}")
    if spec.q == 0:
        raise ValueError("problem has no nonlocal terms")
    base = segments[0]
    for seg in segments[1:]:
        if seg.n_nodes != base.n_nodes or abs(seg.step - base.step) > 1e-12 * base.step:
            raise ValueError("segments live on different grids")
    values = np.zeros_like(base.values)
    for g, seg in zip(spec.gammas, segments):
        values += g * seg.values
    marks = {}
    mark_keys = sorted({i for seg in segments for i in seg.left_values})
    for i in mark_keys:
        acc = np.zeros_like(base.values[0])
        for g, seg in zip(spec.gammas, segments):
            acc += g * seg.left_values.get(i, seg.values[i])
        marks[i] = acc
    return Segment(base.step, values, marks)


def segment_at(traj, t: float) -> Segment:
    """Delay window [t - r, t] of a trajectory, for t in [0, T].

    At grid times this is an exact node slice and jump marks are carried
    over; off the grid the window is sampled by linear interpolation and
    interior jump information is lost.
    """
    r, t_end = trajectory_span(traj)
    if not -1e-12 <= t <= t_end + 1e-12:
        raise ValueError(f"time {t} outside [0, {t_end}]")
    n_r = traj.n_history
    pos = (t + r) / traj.step
    idx = int(round(pos))
    if abs(pos - idx) < _NODE_SNAP:
        lo = idx - n_r
        values = traj.values[lo : idx + 1]
        marks = {i - lo: v for i, v in traj.left_values.items() if lo < i <= idx}
        return Segment(traj.step, values, marks)
    thetas = t + traj.step * (np.arange(n_r + 1) - n_r)
    values = np.stack([trajectory_state(traj, th).to_pair() for th in thetas])
    return Segment(traj.step, values)


def full_pullback_experiment(spec, u, zstar, sigmas):
    """The pull-back experiment with every switched run integrated over [-r, T].

    The loop of `approx_experiment` before it reused the nominal prefix
    (windows are not validated here).  Returns the `PullbackResult` and the
    switched trajectories, one per window.
    """
    p = spec.params
    nominal = integrate_mild(spec, u)
    traj = nominal.trajectory
    lam = p.lam
    M_est = operator_norm_bound(p)
    nl = spec.nonlinearity
    rows, runs = [], []
    for sigma in [float(s) for s in sigmas]:
        u_s = pullback_control(u, traj, sigma, zstar, spec)
        switched = integrate_mild(spec, u_s).trajectory
        runs.append(switched)
        terminal_error = pair_norm(switched.values[-1] - zstar.to_pair(), lam)

        n_tail = int(round(sigma / spec.h))
        switch_node = traj.n_nodes - 1 - n_tail
        tail_ts = p.T - sigma + spec.h * np.arange(n_tail + 1)
        e00, e01, e10, e11 = propagator_entries_for(p.T - tail_ts, lam, p.c, p.d)
        s_norms = weighted_block_norms(e00, e01, e10, e11, lam[None, :]).max(axis=1)
        delay_nodes = [node_index(traj, t - p.r) for t in tail_ts]
        seg_norms = np.array([pair_norm(traj.values[i], lam) for i in delay_nodes])
        envelope = np.array([nl.alpha1 * nl.envelope(s) + nl.beta1 for s in seg_norms])
        integrand = s_norms * envelope
        bound = float(spec.h * (np.sum(integrand) - 0.5 * (integrand[0] + integrand[-1])))

        d_delay = max(pair_norm(switched.values[i] - traj.values[i], lam) for i in delay_nodes)
        overlap = switched.values[: switch_node + 1] - traj.values[: switch_node + 1]
        d_overlap = float(energy_norms(overlap, lam).max())
        rows.append(PullbackRow(sigma, float(terminal_error), bound, float(d_delay), d_overlap))
    return PullbackResult(tuple(rows), M_est), runs


def full_history_integrate(spec, u=None, *, chord=True):
    """`integrate_mild` with every history sweep over all of [0, T].

    The package's former history loop, kept as the bitwise reference for
    the sweeps that stop at the largest lag: its values, marks, source rows,
    sweep count and residual must be equal.  Each of its sweeps passes the
    largest lag as a restart node (closed at once, the next step taken with
    F), as the continuation from there starts.  Its `picard_sup_diffs` are
    measured over the whole trajectory.  With `chord=False` every update is
    the plain Picard one, the next candidate rho - sum_j gamma_j z(. + tau_j):
    the independent reference for the chord correction, which must reach
    the same history within tolerance.
    """
    controls = dynamics._control_nodes(u, spec)
    rho_values, n_r = spec.history, spec.n_r
    p = spec.params
    lam = p.lam
    kernel = dynamics._sweep_kernel(spec)

    hist_values, hist_marks = rho_values, {}
    prev_values, tables = None, None
    sup_diffs: list[float] = []
    grow_streak = 0
    residual, ratio = np.inf, np.nan
    for iteration in range(1, spec.picard_max_iter + 1):
        values, marks, sources = dynamics._sweep(
            spec, kernel, *controls, hist_values, hist_marks, where=f"history sweep {iteration}"
        )
        if prev_values is not None:
            d = float(energy_norms(values - prev_values, lam).max())
            ratio = d / sup_diffs[-1] if sup_diffs and sup_diffs[-1] > 0 else np.nan
            sup_diffs.append(d)
        if spec.q == 0:
            residual = 0.0
            break
        gvals, gmarks = dynamics._nonlocal_on_history(values, marks, spec)
        res = values[: n_r + 1] + gvals - rho_values
        residual = float(energy_norms(res, lam).max())
        if residual <= spec.picard_tol:
            break
        grow_streak = grow_streak + 1 if np.isfinite(ratio) and ratio > 1.0 else 0
        if grow_streak >= 3:
            raise NumericalError(
                f"history iteration diverging: sweep-difference ratio {ratio:.3f} > 1 "
                f"for three consecutive sweeps (sweep {iteration}, residual {residual:.3e})"
            )
        if chord and not gmarks:
            tables = tables or chord_linear_part(spec)
            hist_values = hist_values - chord_correction(res, tables, spec)
        else:
            hist_values = rho_values - gvals
            hist_marks = {i: rho_values[i] - g_left for i, g_left in gmarks.items()}
        prev_values = values
    else:
        raise NumericalError(
            f"history iteration did not reach tol={spec.picard_tol} in "
            f"{spec.picard_max_iter} sweeps (residual {residual:.3e}, "
            f"last contraction ratio {ratio:.3f})"
        )
    traj = Trajectory(spec.h, n_r, values, marks)
    return IntegrationResult(traj, iteration, residual, tuple(sup_diffs), sources)


# Bound at import, so `per_node_sources` can stand in for `dynamics.node_sources`.
_node_sources = dynamics.node_sources


def per_node_sources(spec, values):
    """`dynamics.node_sources` with every node of a block evaluated as a block of one.

    The reference for the block evaluation of the terms that do not read
    the position: a sweep run with this in place of `node_sources` must be
    bitwise the same.
    """
    block = _node_sources(spec, values)

    def one_by_one(first, n, u_rows):
        rows = [None if u_rows is None else u_rows[k : k + 1] for k in range(n)]
        return np.concatenate([block(first + k, 1, row) for k, row in enumerate(rows)])

    return one_by_one


def one_node_sources(spec, traj, u_rows=None):
    """The source rows h/2 g of a trajectory, each node evaluated on its own.

    Node j's row is the cable half source of its position through the
    sweep's kernel (`dynamics._sweep_kernel`), a 1-row product with the
    projector, plus `node_sources`' block of one at the control row
    `u_rows[j]` (None when no entry reads the control): the one-node
    evaluation that a sweep's recorded rows, closed a block at a time, must
    equal bitwise.
    """
    _, _, S, P = dynamics._sweep_kernel(spec)
    block = _node_sources(spec, traj.values)
    rows = np.empty((spec.n_steps + 1, spec.params.n_modes))
    for j, row in enumerate(rows):
        i = traj.n_history + j
        np.dot(np.maximum(np.dot(S, traj.values[i, 0]), 0.0), P, out=row)
        np.add(row, block(i, 1, None if u_rows is None else u_rows[j : j + 1])[0], out=row)
    return rows


def loop_steering_target(traj, zstar, spec, sources=None) -> StateZ:
    """`steering_target` with the source convolution summed one node at a time.

    The package's former loop, kept as the bitwise reference for the
    one-pass sum that replaced it; it tabulates the force column itself, as
    the package did before the steering target read its Gramian set's.
    Missing source rows h/2 g are evaluated one node at a time
    (`one_node_sources`), as the package's own fallback did before the
    recorded rows became the only input.
    """
    p = spec.params
    lam = p.lam
    rho0 = spec.history[-1]
    if spec.q:
        g0 = np.zeros_like(rho0)
        for g, tau in zip(spec.gammas, spec.lags):
            g0 += g * traj.values[node_index(traj, tau)]
        z0_eff = rho0 - g0
    else:
        z0_eff = rho0
    total = apply_semigroup(StateZ.from_pair(z0_eff), p.T, p).to_pair()

    h = spec.h
    if sources is None:
        sources = one_node_sources(spec, traj)
    _, e01, _, e11 = propagator_entries_for(p.T - h * np.arange(spec.n_steps + 1), lam, p.c, p.d)
    acc = np.zeros((2, p.n_modes))
    for j, row in enumerate(sources):
        # Trapezoid weights h inside and h/2 at the ends: twice and once h/2 g.
        wt = 2.0 if 0 < j < spec.n_steps else 1.0
        acc[0] += wt * e01[j] * row
        acc[1] += wt * e11[j] * row
    total += acc

    for ev in spec.impulses:
        node = node_index(traj, ev.time)
        left = traj.left_values[node]
        jump_row = ev.map.velocity_jump(ev.time, left, None)
        e00, e01, e10, e11 = propagator_entries_for(np.array([p.T - ev.time]), lam, p.c, p.d)
        total[0] += e01[0] * jump_row
        total[1] += e11[0] * jump_row
    return StateZ(zstar.w - total[0], zstar.y - total[1])


def cold_exact_fixed_point(spec, zstar, tol: float = 1e-8, max_iter: int = 50):
    """`exact_fixed_point` with every integration started from the prescribed history.

    The package's former outer loop, before each integration was
    warm-started from the previous iterate's converged history; the same
    certificate, first control (the linear steering control from rho(0)),
    steering target and minimum-energy control, without the divergence stop.
    """
    p = spec.params
    gs = build_gramian_set(0.0, p.T, p, spec.n_steps)
    report = contraction_constants(spec, gs)
    target = zstar - apply_semigroup(StateZ.from_pair(spec.history[-1]), p.T, p)
    prev = integrate_mild(spec, minimum_energy_control(target, gs, p))
    rows, diffs = [], []
    for it in range(1, max_iter + 1):
        xi = steering_target(prev.trajectory, zstar, spec, prev.sources, gs)
        control = minimum_energy_control(xi, gs, p)
        current = integrate_mild(spec, control)
        d = current.trajectory.sup_diff(prev.trajectory)
        ratio = d / diffs[-1] if diffs and diffs[-1] > 0 else float("nan")
        diffs.append(d)
        rows.append(FixedPointRow(it, d, ratio))
        prev = current
        if d <= tol:
            terminal = pair_norm(current.trajectory.values[-1] - zstar.to_pair(), p.lam)
            return FixedPointResult(control, current, tuple(rows), report, float(terminal))
    raise NumericalError(f"fixed-point iteration did not converge in {max_iter} iterations")


def reference_write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{float(v):.17g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _state_row(t, pair, norm) -> list:
    return [t, *pair[0].tolist(), *pair[1].tolist(), float(norm)]


def reference_trajectory_rows(traj: Trajectory):
    """One row per node; jump nodes are emitted twice, left then right."""
    lam = eigenvalues(traj.n_modes)
    times = traj.times
    norms = energy_norms(traj.values, lam)
    for i in range(traj.n_nodes):
        if i in traj.left_values:
            left = traj.left_values[i]
            yield _state_row(times[i], left, energy_norms(left, lam))
        yield _state_row(times[i], traj.values[i], norms[i])


def reference_snapshot_rows(traj: Trajectory, grid, n_snapshots: int = 11):
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


def reference_control_rows(u: ControlSignal):
    """One row per node; switch nodes are emitted twice, left then right."""
    times = u.times
    for i in range(u.n_nodes):
        if i in u.left_values:
            yield [times[i], *u.left_values[i].tolist()]
        yield [times[i], *u.values[i].tolist()]


class PythonLoader(config._UniqueKeys, yaml.SafeLoader):
    pass
