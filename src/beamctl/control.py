"""Controllability Gramians and minimum-energy steering controls.

The distributed force enters only the velocity equation, so the
controllability machinery decouples into per-mode 2x2 Gramians.  Two
quadratures coexist on purpose:

* `mode_gramian` integrates the Gramian kernel by composite Simpson with
  a per-mode step fine enough to resolve the mode's oscillation; it is the
  reported, refinement-checkable value.
* `GramianSet` additionally carries the *steering* Gramian, accumulated by
  the same trapezoid rule on the control grid that `controllability_map`
  uses.  With that pairing the right-inverse identity (map after steering
  equals the target) holds to machine precision on every grid, because
  both sides share one discrete quadrature.  The two Gramians agree up to
  the trapezoid error of the control grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .semigroup import ModelParams, exponential_step, propagator_entries_for
from .spectral import StateZ, eigenvalue

__all__ = [
    "ControlSignal",
    "GramianSet",
    "mode_gramian",
    "build_gramian_set",
    "controllability_map",
    "minimum_energy_control",
    "steering_control",
    "gamma_norm_estimate",
    "integrate_linear",
]

CONDITION_LIMIT = 1e12


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

    @classmethod
    def zeros(cls, t0: float, t1: float, n_steps: int, n_modes: int) -> "ControlSignal":
        return cls(t0, t1, np.zeros((n_steps + 1, n_modes)))

    @classmethod
    def from_function(cls, fn, t0: float, t1: float, n_steps: int) -> "ControlSignal":
        ts = t0 + (t1 - t0) / n_steps * np.arange(n_steps + 1)
        return cls(t0, t1, np.array([np.asarray(fn(t), dtype=float) for t in ts]))

    def node_values(self) -> tuple[np.ndarray, np.ndarray]:
        """(left, right) value arrays per node; they differ only at marks."""
        right = self.values
        if not self.left_values:
            return right, right
        left = right.copy()
        for i, v in self.left_values.items():
            left[i] = v
        return left, right

    def value(self, t: float) -> np.ndarray:
        """Right-continuous piecewise-linear evaluation."""
        if not self.t0 - 1e-12 <= t <= self.t1 + 1e-12:
            raise ValueError(f"time {t} outside [{self.t0}, {self.t1}]")
        pos = (t - self.t0) / self.step
        i = int(np.clip(np.floor(pos + 1e-9), 0, self.n_nodes - 1))
        frac = pos - i
        if frac <= 1e-9:
            return self.values[i].copy()
        upper = self.left_values.get(i + 1, self.values[i + 1])
        return (1.0 - frac) * self.values[i] + frac * upper

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

    def scaled(self, a: float) -> "ControlSignal":
        return ControlSignal(
            self.t0, self.t1, a * self.values, {i: a * v for i, v in self.left_values.items()}
        )

    def plus(self, other: "ControlSignal") -> "ControlSignal":
        if other.n_nodes != self.n_nodes or other.t0 != self.t0 or other.t1 != self.t1:
            raise ValueError("control grids do not match")
        sl, _ = self.node_values()
        ol, _ = other.node_values()
        marks = set(self.left_values) | set(other.left_values)
        return ControlSignal(
            self.t0,
            self.t1,
            self.values + other.values,
            {i: sl[i] + ol[i] for i in marks},
        )


def _simpson_gramian(lam: float, c: float, d: float, length: float, step: float) -> np.ndarray:
    n = max(int(np.ceil(length / step)), 2)
    n += n % 2
    tau = np.linspace(0.0, length, n + 1)
    _, e01, _, e11 = propagator_entries_for(tau, np.array([lam]), c, d)
    e01, e11 = e01[:, 0], e11[:, 0]
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= length / n / 3.0
    g00 = lam * e01**2
    g01 = e01 * e11
    g11 = e11**2
    out = np.empty((2, 2))
    out[0, 0] = float(np.sum(w * g00))
    out[0, 1] = float(np.sum(w * g01))
    out[1, 0] = lam * out[0, 1]
    out[1, 1] = float(np.sum(w * g11))
    return out


def default_gramian_step(n: int, t0: float, t1: float, p: ModelParams) -> float:
    """Simpson step resolving mode n's kernel oscillation to ~1e-10 relative."""
    omega = np.sqrt(p.d * eigenvalue(n))
    return min((t1 - t0) / 32.0, 0.012 / (2.0 * omega + p.c))


def mode_gramian(
    n: int, t0: float, t1: float, p: ModelParams, step: float | None = None
) -> np.ndarray:
    """Controllability Gramian of mode n over [t0, t1] by composite Simpson.

    The kernel is E(tau) b b* E*(tau) with b = (0, 1) and the adjoint taken
    in the energy inner product; after the change of variable tau = t1 - s
    the integral runs over [0, t1 - t0].
    """
    if n < 1:
        raise ValueError(f"mode index must be >= 1, got {n}")
    length = t1 - t0
    if length <= 0:
        raise ValueError(f"degenerate interval: t0={t0}, t1={t1}")
    if step is None:
        step = default_gramian_step(n, t0, t1, p)
    if step > length / 16.0:
        step = length / 16.0
    return _simpson_gramian(eigenvalue(n), p.c, p.d, length, step)


def _weighted_cond(w: np.ndarray, lam: float) -> float:
    """Condition number of the Gramian block in the energy inner product."""
    rl = np.sqrt(lam)
    s01 = rl * w[0, 1]
    tr = w[0, 0] + w[1, 1]
    det = w[0, 0] * w[1, 1] - s01 * (w[1, 0] / rl)
    gap = np.sqrt(max(tr * tr - 4.0 * det, 0.0))
    emax = 0.5 * (tr + gap)
    emin = 0.5 * (tr - gap)
    if emin <= 0:
        return np.inf
    return float(emax / emin)


@dataclass(frozen=True)
class GramianSet:
    """Per-mode Gramians over [t0, t1] with inverses and condition numbers.

    `steering` matches the control-grid trapezoid rule (used by
    `minimum_energy_control`); `reference` is the Simpson value reported by
    diagnostics.  `cond` is the energy-weighted condition number of the
    steering block.
    """

    t0: float
    t1: float
    n_steps: int
    steering: np.ndarray
    steering_inv: np.ndarray
    reference: np.ndarray
    cond: np.ndarray
    reference_cond: np.ndarray

    @property
    def step(self) -> float:
        return (self.t1 - self.t0) / self.n_steps

    @property
    def n_modes(self) -> int:
        return self.steering.shape[0]


def _invert_blocks(blocks: np.ndarray) -> np.ndarray:
    det = blocks[:, 0, 0] * blocks[:, 1, 1] - blocks[:, 0, 1] * blocks[:, 1, 0]
    inv = np.empty_like(blocks)
    inv[:, 0, 0] = blocks[:, 1, 1]
    inv[:, 1, 1] = blocks[:, 0, 0]
    inv[:, 0, 1] = -blocks[:, 0, 1]
    inv[:, 1, 0] = -blocks[:, 1, 0]
    return inv / det[:, None, None]


def build_gramian_set(t0: float, t1: float, p: ModelParams, n_steps: int) -> GramianSet:
    """Assemble steering and reference Gramians for every mode."""
    if not 0 <= t0 < t1:
        raise ValueError(f"need 0 <= t0 < t1, got [{t0}, {t1}]")
    if n_steps < 16:
        raise ValueError(f"control grid too coarse: {n_steps} steps")
    lam = p.lam
    h = (t1 - t0) / n_steps
    ts = t0 + h * np.arange(n_steps + 1)
    _, e01, _, e11 = propagator_entries_for(t1 - ts, lam, p.c, p.d)
    w = np.full(n_steps + 1, h)
    w[0] = w[-1] = 0.5 * h
    W = np.empty((p.n_modes, 2, 2))
    W[:, 0, 0] = lam * np.sum(w[:, None] * e01**2, axis=0)
    W[:, 0, 1] = np.sum(w[:, None] * e01 * e11, axis=0)
    W[:, 1, 0] = lam * W[:, 0, 1]
    W[:, 1, 1] = np.sum(w[:, None] * e11**2, axis=0)

    ref = np.empty_like(W)
    for i in range(p.n_modes):
        ref[i] = mode_gramian(i + 1, t0, t1, p)
    cond = np.array([_weighted_cond(W[i], lam[i]) for i in range(p.n_modes)])
    ref_cond = np.array([_weighted_cond(ref[i], lam[i]) for i in range(p.n_modes)])
    return GramianSet(t0, t1, n_steps, W, _invert_blocks(W), ref, cond, ref_cond)


def controllability_map(u: ControlSignal, p: ModelParams) -> StateZ:
    """State reached at t1 from rest by the control alone.

    Trapezoid rule on the control grid applied to the propagated force
    channel; marked nodes contribute their left and right values with half
    weight each, mirroring the stepping of the integrators.
    """
    if u.n_modes != p.n_modes:
        raise ValueError(f"control has {u.n_modes} modes, params expect {p.n_modes}")
    _, e01, _, e11 = propagator_entries_for(u.t1 - u.times, p.lam, p.c, p.d)
    wts, extra = u.quadrature_weights()
    w_comp = np.sum(wts[:, None] * e01 * u.values, axis=0)
    y_comp = np.sum(wts[:, None] * e11 * u.values, axis=0)
    for i, wi in extra.items():
        w_comp += wi * e01[i] * u.left_values[i]
        y_comp += wi * e11[i] * u.left_values[i]
    return StateZ(w_comp, y_comp)


def minimum_energy_control(xi: StateZ, gs: GramianSet, p: ModelParams) -> ControlSignal:
    """Control of least trapezoid-L2 norm steering 0 to `xi` over [t0, t1].

    Per mode the nodal values are b* E*(t1 - t) W^-1 xi; composed with
    `controllability_map` on the same grid this reproduces xi to machine
    precision.
    """
    if xi.n_modes != gs.n_modes:
        raise ValueError(f"target has {xi.n_modes} modes, Gramian set has {gs.n_modes}")
    bad = np.nonzero(gs.cond > CONDITION_LIMIT)[0]
    if bad.size:
        n = int(bad[0]) + 1
        raise NumericalError(
            f"Gramian for mode {n} is ill-conditioned "
            f"(cond {gs.cond[bad[0]]:.3e} > {CONDITION_LIMIT:.0e})"
        )
    lam = p.lam
    h = gs.step
    ts = gs.t0 + h * np.arange(gs.n_steps + 1)
    _, e01, _, e11 = propagator_entries_for(gs.t1 - ts, lam, p.c, p.d)
    eta = np.einsum("nij,jn->in", gs.steering_inv, xi.to_pair())
    # Second row of the adjoint propagator is (lambda*e01, e11).
    values = lam[None, :] * e01 * eta[0][None, :] + e11 * eta[1][None, :]
    return ControlSignal(gs.t0, gs.t1, values)


def steering_control(
    z0: StateZ, zstar: StateZ, t0: float, t1: float, p: ModelParams, n_steps: int
) -> ControlSignal:
    """Minimum-energy control steering the linear system from z0 at t0 to zstar at t1."""
    from .semigroup import apply_semigroup

    gs = build_gramian_set(t0, t1, p, n_steps)
    xi = zstar - apply_semigroup(z0, t1 - t0, p)
    return minimum_energy_control(xi, gs, p)


def gamma_norm_estimate(
    t0: float, t1: float, p: ModelParams, n_samples: int = 2000
) -> float:
    """Grid estimate of the steering-operator norm sup_t |b* E*(t1-t) W^-1|.

    Uses the Simpson (reference) Gramian so the estimate is a property of
    the continuous operator, independent of any control grid.  The induced
    norm at fixed t is the maximum over modes of the dual energy norm of
    the per-mode row.
    """
    lam = p.lam
    ts = t0 + (t1 - t0) / n_samples * np.arange(n_samples + 1)
    _, e01, _, e11 = propagator_entries_for(t1 - ts, lam, p.c, p.d)
    ref = np.empty((p.n_modes, 2, 2))
    for i in range(p.n_modes):
        ref[i] = mode_gramian(i + 1, t0, t1, p)
    inv = _invert_blocks(ref)
    # Row vector m with u_n(t) = m . xi_n, m = W^-T (lambda*e01, e11)^T.
    m0 = inv[:, 0, 0][None, :] * lam[None, :] * e01 + inv[:, 1, 0][None, :] * e11
    m1 = inv[:, 0, 1][None, :] * lam[None, :] * e01 + inv[:, 1, 1][None, :] * e11
    dual = np.sqrt(m0**2 / lam[None, :] + m1**2)
    return float(dual.max())


def integrate_linear(z0: StateZ, u: ControlSignal, p: ModelParams) -> np.ndarray:
    """March the unperturbed controlled system over the control grid.

    Exponential-trapezoid stepping (`exponential_step`) with the control as
    the only source.  Returns the (n_nodes, 2, n_modes) array of states.
    """
    if z0.n_modes != p.n_modes:
        raise ValueError(f"state has {z0.n_modes} modes, params expect {p.n_modes}")
    h = u.step
    step = exponential_step(h, p.lam, p.c, p.d)
    half_h = 0.5 * h
    left, right = u.node_values()
    out = np.empty((u.n_nodes, 2, p.n_modes))
    out[0] = z0.to_pair()
    for i in range(1, u.n_nodes):
        step(out[i - 1], right[i - 1], out[i])
        out[i, 1] += half_h * left[i]
    return out
