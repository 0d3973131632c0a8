"""Controllability Gramians and minimum-energy steering controls.

The distributed force enters only the velocity equation, so the
controllability machinery decouples into per-mode 2x2 Gramians.  Each
of its two Gramians has its own readers:

* `GramianSet` holds the *steering* Gramian of a window, accumulated by
  the trapezoid rule on the control grid that `controllability_map` uses,
  and the force-column table it is built from.  Everything that steers or
  certifies reads it: `minimum_energy_control` applies its inverse,
  `gamma_norm_estimate` takes the norm of exactly that applied operator
  for the contraction certificate, and `GramianSet.response` gives the
  state a control on the window's grid reaches, by the one trapezoid sum
  that `controllability_map` takes too.  Because the map and the Gramian
  share one discrete quadrature, the right-inverse identity (map after
  steering equals the target) holds to machine precision on every grid.
* `mode_gramian` is the exact Gramian of the continuous system, in closed
  form from one propagator evaluation at the window length; only the
  `gramian` command reports it.  The gap between the two Gramians is the
  trapezoid error of the control grid alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .semigroup import ModelParams, force_column, propagator_matrix
from .spectral import StateZ, eigenvalue

__all__ = [
    "ControlSignal",
    "GramianSet",
    "mode_gramian",
    "build_gramian_set",
    "controllability_map",
    "minimum_energy_control",
    "gamma_norm_estimate",
    "integrate_linear",
    "weighted_cond",
]

CONDITION_LIMIT = 1e12

# The fewest steps of any time grid: a trajectory and a steering window.
MIN_STEPS = 16


@dataclass(frozen=True)
class ControlSignal:
    """Piecewise-linear control on a uniform time grid over [t0, t1].

    `values[i]` is the right limit at node i; a node listed in
    `left_values` carries a distinct left limit (used when a steering
    control is switched in mid-run).  The L2-in-time norm uses the
    trapezoid rule on the same grid, with marked nodes contributing half
    weight from each side.
    """

    t0: float
    t1: float
    values: np.ndarray
    left_values: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 2:
            raise ValueError(f"values must be (n_nodes >= 2, n_modes), got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("control values must be finite")
        if not self.t1 > self.t0:
            raise ValueError(f"need t1 > t0, got [{self.t0}, {self.t1}]")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        marks = {}
        for i, v in sorted(self.left_values.items()):
            if not 0 < i < values.shape[0] - 1:
                raise ValueError(f"marked node {i} must be interior")
            arr = np.array(v, dtype=float)
            arr.flags.writeable = False
            marks[int(i)] = arr
        object.__setattr__(self, "left_values", marks)

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def n_modes(self) -> int:
        return self.values.shape[1]

    @property
    def step(self) -> float:
        return (self.t1 - self.t0) / (self.n_nodes - 1)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.step * np.arange(self.n_nodes)

    def node_values(self) -> tuple[np.ndarray, np.ndarray]:
        """(left, right) value arrays per node; they differ only at marks."""
        right = self.values
        if not self.left_values:
            return right, right
        left = right.copy()
        for i, v in self.left_values.items():
            left[i] = v
        return left, right

    def quadrature_weights(self) -> tuple[np.ndarray, dict[int, float]]:
        """Trapezoid weights for the canonical values plus extra mark weights."""
        h = self.step
        w = np.full(self.n_nodes, h)
        w[0] = w[-1] = 0.5 * h
        extra = {}
        for i in self.left_values:
            w[i] = 0.5 * h
            extra[i] = 0.5 * h
        return w, extra

    def l2_norm(self) -> float:
        w, extra = self.quadrature_weights()
        total = float(np.sum(w * np.sum(self.values**2, axis=1)))
        for i, wi in extra.items():
            total += wi * float(np.sum(self.left_values[i] ** 2))
        return float(np.sqrt(total))


def default_gramian_step(n: int, t0: float, t1: float, p: ModelParams) -> float:
    """Simpson step resolving mode n's Gramian kernel to ~1e-10; sizes cross-checks only."""
    omega = np.sqrt(p.d * eigenvalue(n))
    return min((t1 - t0) / 32.0, 0.012 / (2.0 * omega + p.c))


# Ten-point Gauss-Legendre rule on [-1, 1], (node, weight) for the positive
# half; it integrates the Gramian kernel to roundoff on windows with
# omega_n*L, c*L <= 1.  Tabulated, since importing numpy.polynomial for
# `leggauss` costs about 1 MB of resident memory.
_GL_HALF = np.array(
    [
        (0.14887433898163122, 0.2955242247147528),
        (0.4333953941292472, 0.2692667193099965),
        (0.6794095682990244, 0.219086362515982),
        (0.8650633666889845, 0.1494513491505804),
        (0.9739065285171717, 0.06667134430868814),
    ]
)
_GL_NODES = np.concatenate((-_GL_HALF[:, 0], _GL_HALF[:, 0]))
_GL_WEIGHTS = np.tile(_GL_HALF[:, 1], 2)


def mode_gramian(n: int, t0: float, t1: float, p: ModelParams) -> np.ndarray:
    """Controllability Gramian of mode n over [t0, t1], in closed form.

    The kernel is E(tau) b b* E*(tau) with b = (0, 1) and the adjoint taken
    in the energy inner product, over tau in [0, L], L = t1 - t0.  Its force
    column (e01, e11) solves e01' = e11, e11' = -d*lam*e01 - c*e11, so its
    integrals follow from e01(L) and e11(L): int e01*e11 integrates e01*e01',
    int e11^2 is the energy balance, int e01^2 follows from (e01*e11)'.
    On short windows (omega_n*L and c*L at most 1) those identities cancel
    (int e01^2 ~ L^3/3 out of O(L) terms), and a fixed Gauss-Legendre rule
    on the kernel, exact to roundoff there, takes their place.
    """
    if n < 1:
        raise ValueError(f"mode index must be >= 1, got {n}")
    length = t1 - t0
    if length <= 0:
        raise ValueError(f"degenerate interval: t0={t0}, t1={t1}")
    lam = eigenvalue(n)
    dlam = p.d * lam
    if max(np.sqrt(dlam), p.c) * length <= 1.0:
        tau = 0.5 * length * (_GL_NODES + 1.0)
        e01, e11 = force_column(tau, np.array([lam]), p.c, p.d)
        wts, a, b = 0.5 * length * _GL_WEIGHTS, e01[:, 0], e11[:, 0]
        i00, i01, i11 = wts @ (a * a), wts @ (a * b), wts @ (b * b)
    else:
        e01, e11 = force_column(np.array([length]), np.array([lam]), p.c, p.d)
        a, b = float(e01[0, 0]), float(e11[0, 0])
        i01 = 0.5 * a * a
        i11 = (1.0 - b * b - dlam * a * a) / (2.0 * p.c)
        i00 = (i11 - p.c * i01 - a * b) / dlam
    return np.array([[lam * i00, i01], [lam * i01, i11]])


def weighted_cond(w, lam) -> np.ndarray:
    """Energy-weighted condition numbers of (..., 2, 2) Gramian blocks; inf if not definite."""
    w = np.asarray(w, dtype=float)
    rl = np.sqrt(lam)
    w00, w01, w10, w11 = w[..., 0, 0], w[..., 0, 1], w[..., 1, 0], w[..., 1, 1]
    tr = w00 + w11
    det = w00 * w11 - (rl * w01) * (w10 / rl)
    gap = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    emax = 0.5 * (tr + gap)
    emin = 0.5 * (tr - gap)
    return np.divide(emax, emin, out=np.full_like(emax, np.inf), where=emin > 0)


@dataclass(frozen=True)
class GramianSet:
    """Per-mode steering Gramians over [t0, t1], their inverses and condition numbers.

    `steering` is the control-grid trapezoid rule applied to the force
    column (`e01`, `e11`) of the propagator at t1 - t_i, tabulated at the
    control nodes t_i, one column per mode: the one force-column table of
    the window, which the steering target over [0, T] reads too.  `cond`
    is the energy-weighted condition number of each steering block.
    """

    t0: float
    t1: float
    steering: np.ndarray
    steering_inv: np.ndarray
    cond: np.ndarray
    e01: np.ndarray
    e11: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.steering.shape[0]

    def response(self, u: ControlSignal) -> StateZ:
        """State reached at t1 from rest by a control on this window's grid.

        The set's force column is the table `controllability_map` would
        tabulate for u, so this is that map, read without a new table.
        """
        if (u.t0, u.t1, u.values.shape) != (self.t0, self.t1, self.e01.shape):
            raise ValueError("control is not on the Gramian set's grid")
        return _force_response(self.e01, self.e11, u)


def _invert_blocks(blocks: np.ndarray) -> np.ndarray:
    det = blocks[:, 0, 0] * blocks[:, 1, 1] - blocks[:, 0, 1] * blocks[:, 1, 0]
    inv = np.empty_like(blocks)
    inv[:, 0, 0] = blocks[:, 1, 1]
    inv[:, 1, 1] = blocks[:, 0, 0]
    inv[:, 0, 1] = -blocks[:, 0, 1]
    inv[:, 1, 0] = -blocks[:, 1, 0]
    return inv / det[:, None, None]


def build_gramian_set(t0: float, t1: float, p: ModelParams, n_steps: int) -> GramianSet:
    """Assemble the steering Gramian of every mode from its force-column table."""
    if not 0 <= t0 < t1:
        raise ValueError(f"need 0 <= t0 < t1, got [{t0}, {t1}]")
    if n_steps < MIN_STEPS:
        raise ValueError(f"control grid too coarse: {n_steps} steps")
    lam = p.lam
    h = (t1 - t0) / n_steps
    ts = t0 + h * np.arange(n_steps + 1)
    e01, e11 = force_column(t1 - ts, lam, p.c, p.d)
    w = np.full(n_steps + 1, h)
    w[0] = w[-1] = 0.5 * h
    w = w[:, None]
    # The products w*e01^2, (w*e01)*e11 and w*e11^2 take turns in one
    # buffer and are summed down the nodes.
    buf = np.empty(e01.shape)
    W = np.empty((p.n_modes, 2, 2))
    W[:, 0, 0] = lam * np.multiply(w, np.square(e01, out=buf), out=buf).sum(axis=0)
    W[:, 0, 1] = np.multiply(np.multiply(w, e01, out=buf), e11, out=buf).sum(axis=0)
    W[:, 1, 0] = lam * W[:, 0, 1]
    W[:, 1, 1] = np.multiply(w, np.square(e11, out=buf), out=buf).sum(axis=0)

    return GramianSet(t0, t1, W, _invert_blocks(W), weighted_cond(W, lam), e01, e11)


def _force_response(e01: np.ndarray, e11: np.ndarray, u: ControlSignal) -> StateZ:
    """Trapezoid convolution of u against the force column at t1 - t_i of its nodes.

    Marked nodes contribute their left and right values with half weight
    each, mirroring the stepping of the integrators.  Both components go
    through one (n_nodes, n_modes) buffer.
    """
    wts, extra = u.quadrature_weights()
    wts = wts[:, None]
    buf = np.empty(u.values.shape)
    w_comp, y_comp = (
        np.multiply(np.multiply(wts, e, out=buf), u.values, out=buf).sum(axis=0) for e in (e01, e11)
    )
    for i, wi in extra.items():
        w_comp += wi * e01[i] * u.left_values[i]
        y_comp += wi * e11[i] * u.left_values[i]
    return StateZ(w_comp, y_comp)


def controllability_map(u: ControlSignal, p: ModelParams) -> StateZ:
    """State reached at t1 from rest by the control alone.

    Trapezoid rule on the control grid applied to the propagated force
    channel, tabulated for u's nodes (`GramianSet.response` reads a
    window's table instead).
    """
    if u.n_modes != p.n_modes:
        raise ValueError(f"control has {u.n_modes} modes, params expect {p.n_modes}")
    e01, e11 = force_column(u.t1 - u.times, p.lam, p.c, p.d)
    return _force_response(e01, e11, u)


def _require_conditioned(gs: GramianSet) -> None:
    """Raise NumericalError naming the first mode whose steering block is ill-conditioned."""
    bad = np.nonzero(gs.cond > CONDITION_LIMIT)[0]
    if bad.size:
        raise NumericalError(
            f"Gramian for mode {int(bad[0]) + 1} is ill-conditioned "
            f"(cond {gs.cond[bad[0]]:.3e} > {CONDITION_LIMIT:.0e})"
        )


def minimum_energy_control(xi: StateZ, gs: GramianSet, p: ModelParams) -> ControlSignal:
    """Control of least trapezoid-L2 norm steering 0 to `xi` over [t0, t1].

    Per mode the nodal values are b* E*(t1 - t) W^-1 xi; composed with
    `controllability_map` on the same grid this reproduces xi to machine
    precision.
    """
    if xi.n_modes != gs.n_modes:
        raise ValueError(f"target has {xi.n_modes} modes, Gramian set has {gs.n_modes}")
    _require_conditioned(gs)
    eta = np.einsum("nij,jn->in", gs.steering_inv, xi.to_pair())
    # Second row of the adjoint propagator is (lambda*e01, e11).
    values = p.lam[None, :] * gs.e01 * eta[0][None, :] + gs.e11 * eta[1][None, :]
    return ControlSignal(gs.t0, gs.t1, values)


def gamma_norm_estimate(gs: GramianSet, p: ModelParams) -> float:
    """Norm of the steering operator xi -> u that `minimum_energy_control` applies.

    Per mode u_n(t_i) = m_i . xi_n at each node, with the row
    m_i = (lambda*e01, e11) W^-1 of the set's table and steering inverse,
    and u is linear between nodes.  The norm of an affine function is
    convex, so sup_t |u(t)| is reached at a node, and the operator norm is
    the maximum over the nodes and modes of the dual energy norm of m_i,
    with no sampling.  Raises NumericalError on an ill-conditioned block,
    as steering with it would.
    """
    _require_conditioned(gs)
    lam, inv = p.lam, gs.steering_inv
    lam_e01 = lam * gs.e01
    m0 = lam_e01 * inv[:, 0, 0] + gs.e11 * inv[:, 1, 0]
    m1 = lam_e01 * inv[:, 0, 1] + gs.e11 * inv[:, 1, 1]
    return float(np.sqrt(m0**2 / lam + m1**2).max())


# Rows in `integrate_linear`'s buffer.
_LINEAR_BLOCK = 256


def integrate_linear(z0: StateZ, u: ControlSignal, p: ModelParams) -> np.ndarray:
    """March the unperturbed controlled system over the control grid to its last node.

    No command calls it: `steer` reads its terminal state from the window's
    force-column table (`GramianSet.response`).  It stays because the
    benchmark's tracer (`perfbench/tracer.py`) wraps it by name, and goes
    with the next change to the benchmark.

    Exponential-trapezoid stepping with the control as the only source: the
    sweep's step matrix (`propagator_matrix`) with no cable force, the row
    [w, y, h/2 u] carrying the left half of the control.  Returns the
    (2, n_modes) state at the last node.  The rows go through a buffer of
    `_LINEAR_BLOCK` nodes whose last row starts the next block, so the
    march keeps no array of all nodes.
    """
    if z0.n_modes != p.n_modes:
        raise ValueError(f"state has {z0.n_modes} modes, params expect {p.n_modes}")
    n = p.n_modes
    F = propagator_matrix(u.step, p.lam, p.c, p.d)
    left, right = u.node_values()
    half_step = 0.5 * u.step
    rows = np.empty((min(u.n_nodes, _LINEAR_BLOCK), 3 * n))
    rows[0, : 2 * n] = z0.to_pair().ravel()
    f_dot = F.dot  # bound: skips `np.dot`'s Python-level dispatch, same product
    start = 0  # the node in rows[0]
    while True:
        stop = min(start + len(rows), u.n_nodes)
        block = rows[: stop - start]
        half_right = np.multiply(right[start:stop], half_step, out=block[:, 2 * n :])
        half_left = half_right if left is right else np.multiply(left[start:stop], half_step)
        for prev, pair, y, half_u in zip(block, block[1:, : 2 * n], block[1:, n : 2 * n], half_left[1:]):
            f_dot(prev, pair)
            np.add(y, half_u, out=y)
        if stop == u.n_nodes:
            return block[-1, : 2 * n].reshape(2, n)
        rows[0, : 2 * n] = block[-1, : 2 * n]
        start = stop - 1
