"""Mild-solution integration with delays, impulses, and nonlocal history.

The trajectory lives on one uniform grid covering [-r, T].  Stepping is an
exponential integrator: the stiff linear part is propagated by the exact
per-mode blocks, the sources (control, load, cable force, nonlinear term)
are integrated by the trapezoid rule within each step.  The step is
explicit and still takes the trapezoid rule's right endpoint exactly: the
sources enter only the velocity equation and read the new node only
through its position (the cable force clips it; the catalog terms read the
time, the control and delayed nodes), and the exact propagation fixes that
position before the source is evaluated.  One source evaluation per node
thus closes the step.  Summed over steps the scheme reproduces the global
trapezoid convolution of the sources exactly, which is what ties the
integrator to the discrete Gramian of the control module.

The nonlocal initial condition prescribes the history only implicitly
(through segments of the solution at the positive lag times), so the whole
trajectory is resolved by an outer Picard iteration over candidate
histories, terminated on the history-consistency residual.  Measuring the
residual instead of the whole-trajectory change keeps termination causal:
nodes beyond the largest lag never influence the iteration count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalogs import Forcing, ImpulseEvent, Nonlinearity
from .control import ControlSignal
from .errors import ConfigError, NumericalError
from .semigroup import ModelParams, exponential_step
from .spectral import SpatialGrid, StateZ, eigenvalues, energy_norms, pair_norm

__all__ = [
    "Segment",
    "Trajectory",
    "ProblemSpec",
    "IntegrationResult",
    "history_segment",
    "source_term",
    "node_sources",
    "nonlocal_combination",
    "segment_at",
    "integrate_mild",
]

_NODE_SNAP = 1e-9


def _as_marks(marks: dict | None) -> dict[int, np.ndarray]:
    out = {}
    for i, v in sorted((marks or {}).items()):
        arr = np.array(v, dtype=float)
        arr.flags.writeable = False
        out[int(i)] = arr
    return out


def _node_position(offset: float, step: float) -> tuple[int, float]:
    pos = offset / step
    idx = int(round(pos))
    return idx, pos - idx


@dataclass(frozen=True)
class Segment:
    """History window on a uniform grid over [-span, 0].

    `values[i]` holds the (2, n_modes) coefficient pair at theta_i =
    -span + i*step and is the right limit; nodes listed in `left_values`
    are jump points carrying a distinct left limit.
    """

    step: float
    values: np.ndarray
    left_values: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim != 3 or values.shape[1] != 2 or values.shape[0] < 2:
            raise ValueError(f"values must be (n_nodes >= 2, 2, n_modes), got {values.shape}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "left_values", _as_marks(self.left_values))
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def n_modes(self) -> int:
        return self.values.shape[2]

    @property
    def span(self) -> float:
        return self.step * (self.n_nodes - 1)

    def value(self, theta: float) -> np.ndarray:
        """Right-continuous piecewise-linear evaluation at theta in [-span, 0]."""
        if not -self.span - 1e-9 * self.span <= theta <= 1e-12:
            raise ValueError(f"theta {theta} outside [-{self.span}, 0]")
        idx, frac = _node_position(theta + self.span, self.step)
        if abs(frac) < _NODE_SNAP:
            return self.values[min(max(idx, 0), self.n_nodes - 1)]
        lo = int(np.floor(theta / self.step + (self.n_nodes - 1)))
        a = (theta + self.span) / self.step - lo
        upper = self.left_values.get(lo + 1, self.values[lo + 1])
        return (1.0 - a) * self.values[lo] + a * upper

    def sup_norm(self) -> float:
        """Max energy norm over nodes, including the left limits at jumps."""
        lam = eigenvalues(self.n_modes)
        best = float(energy_norms(self.values, lam).max())
        for v in self.left_values.values():
            best = max(best, pair_norm(v, lam))
        return best

    def state(self, theta: float) -> StateZ:
        return StateZ.from_pair(self.value(theta))


@dataclass(frozen=True)
class Trajectory:
    """Mild solution samples on the uniform grid covering [-r, T].

    Node i sits at t_i = (i - n_history) * step; `values[i]` is the right
    limit there.  Jump nodes (impulse times and any history jumps) are
    recorded in `left_values` with their left limits.
    """

    step: float
    n_history: int
    values: np.ndarray
    left_values: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "left_values", _as_marks(self.left_values))

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def n_modes(self) -> int:
        return self.values.shape[2]

    @property
    def r(self) -> float:
        return self.step * self.n_history

    @property
    def t_end(self) -> float:
        return self.step * (self.n_nodes - 1 - self.n_history)

    @property
    def times(self) -> np.ndarray:
        return self.step * (np.arange(self.n_nodes) - self.n_history)

    def node_index(self, t: float) -> int:
        idx, frac = _node_position(t + self.r, self.step)
        if abs(frac) > _NODE_SNAP or not 0 <= idx < self.n_nodes:
            raise ValueError(f"time {t} is not a grid node")
        return idx

    def state(self, t: float) -> StateZ:
        """Right-continuous value at t (grid nodes exactly, else linear)."""
        if not -self.r - 1e-12 <= t <= self.t_end + 1e-12:
            raise ValueError(f"time {t} outside [-{self.r}, {self.t_end}]")
        idx, frac = _node_position(t + self.r, self.step)
        if abs(frac) < _NODE_SNAP:
            return StateZ.from_pair(self.values[min(max(idx, 0), self.n_nodes - 1)])
        lo = int(np.floor((t + self.r) / self.step))
        a = (t + self.r) / self.step - lo
        upper = self.left_values.get(lo + 1, self.values[lo + 1])
        return StateZ.from_pair((1.0 - a) * self.values[lo] + a * upper)

    def left_state(self, t: float) -> StateZ:
        i = self.node_index(t)
        return StateZ.from_pair(self.left_values.get(i, self.values[i]))

    def terminal_state(self) -> StateZ:
        return StateZ.from_pair(self.values[-1])

    def sup_norm(self) -> float:
        lam = eigenvalues(self.n_modes)
        best = float(energy_norms(self.values, lam).max())
        for v in self.left_values.values():
            best = max(best, pair_norm(v, lam))
        return best

    def sup_diff(self, other: "Trajectory") -> float:
        """Max energy norm of the nodewise difference (canonical values)."""
        if other.values.shape != self.values.shape:
            raise ValueError("trajectories live on different grids")
        return float(energy_norms(self.values - other.values, eigenvalues(self.n_modes)).max())


@dataclass(frozen=True)
class ProblemSpec:
    """Full description of one impulsive delay problem on [0, T].

    Impulse times, delay lags, and the delay span r must sit on the
    trajectory grid; configuration loading snaps them (rejecting anything
    farther than half a step from a node), so construction only verifies
    the alignment.
    """

    params: ModelParams
    grid: SpatialGrid
    n_steps: int
    impulses: tuple[ImpulseEvent, ...] = ()
    lags: tuple[float, ...] = ()
    gammas: tuple[float, ...] = ()
    forcing: Forcing = None
    nonlinearity: Nonlinearity = None
    history: Segment = None
    L_q_declared: float | None = None
    picard_tol: float = 1e-10
    picard_max_iter: int = 50

    def __post_init__(self) -> None:
        from .catalogs import make_forcing, make_nonlinearity

        p = self.params
        if self.forcing is None:
            object.__setattr__(self, "forcing", make_forcing("zero", p.n_modes))
        if self.nonlinearity is None:
            object.__setattr__(self, "nonlinearity", make_nonlinearity("zero", p.n_modes))
        if self.n_steps < 16:
            raise ConfigError(f"need at least 16 time steps, got {self.n_steps}")
        if not self.grid.supports(p.n_modes):
            raise ConfigError(
                f"spatial grid with {self.grid.n_points} points cannot de-alias "
                f"{p.n_modes} modes (need >= {2 * p.n_modes + 1})"
            )
        h = self.h
        idx, frac = _node_position(p.r, h)
        if abs(frac) > _NODE_SNAP or idx < 1:
            raise ConfigError(f"delay span r={p.r} does not sit on the time grid (h={h})")
        if len(self.lags) != len(self.gammas):
            raise ConfigError(
                f"{len(self.lags)} delay lags but {len(self.gammas)} nonlocal coefficients"
            )
        prev = 0.0
        for j, tau in enumerate(self.lags):
            if not prev < tau < p.r:
                raise ConfigError(
                    f"delays.lags[{j}]: lags must satisfy 0 < tau_1 < ... < tau_q < r "
                    f"(got tau={tau}, r={p.r})"
                )
            _, fr = _node_position(tau, h)
            if abs(fr) > _NODE_SNAP:
                raise ConfigError(f"delay lag {tau} does not sit on the time grid (h={h})")
            prev = tau
        prev = 0.0
        for ev in self.impulses:
            if not prev < ev.time < p.T:
                raise ConfigError(
                    f"impulse times must be strictly increasing inside (0, T); got {ev.time}"
                )
            _, fr = _node_position(ev.time, h)
            if abs(fr) > _NODE_SNAP:
                raise ConfigError(f"impulse time {ev.time} does not sit on the time grid (h={h})")
            prev = ev.time
        if self.history is not None:
            if abs(self.history.span - p.r) > 1e-9 * max(p.r, 1.0):
                raise ConfigError(
                    f"history covers [-{self.history.span}, 0] but the delay span is {p.r}"
                )
            if self.history.n_modes != p.n_modes:
                raise ConfigError(
                    f"history has {self.history.n_modes} modes, model has {p.n_modes}"
                )
        else:
            n_h = max(int(round(p.r / h)), 2)
            object.__setattr__(
                self, "history", Segment(p.r / n_h, np.zeros((n_h + 1, 2, p.n_modes)))
            )

    @property
    def h(self) -> float:
        return self.params.T / self.n_steps

    @property
    def q(self) -> int:
        return len(self.lags)

    @property
    def L_q(self) -> float:
        if self.L_q_declared is not None:
            return self.L_q_declared
        return max((abs(g) for g in self.gammas), default=0.0)

    @property
    def u_dependent(self) -> bool:
        return self.nonlinearity.u_dependent or any(ev.map.u_dependent for ev in self.impulses)


def history_segment(
    kind: str, p: ModelParams, n_nodes: int, params: dict | None = None
) -> Segment:
    """Initial history data on [-r, 0]: 'zero', 'modal_constant', or 'file'."""
    params = params or {}
    if n_nodes < 2:
        raise ConfigError(f"history grid needs at least 2 nodes, got {n_nodes}")
    step = p.r / (n_nodes - 1)
    if kind == "zero":
        return Segment(step, np.zeros((n_nodes, 2, p.n_modes)))
    if kind == "modal_constant":
        w = np.zeros(p.n_modes)
        y = np.zeros(p.n_modes)
        for key, out in (("w", w), ("y", y)):
            coeffs = np.asarray(params.get(key, ()), dtype=float)
            if coeffs.size > p.n_modes:
                raise ConfigError(f"history.{key} lists {coeffs.size} modes, model has {p.n_modes}")
            out[: coeffs.size] = coeffs
        values = np.broadcast_to(np.vstack([w, y]), (n_nodes, 2, p.n_modes)).copy()
        return Segment(step, values)
    if kind == "file":
        path = params.get("path")
        if not path:
            raise ConfigError("history catalog 'file' needs a 'path'")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[1] != 1 + 2 * p.n_modes:
            raise ConfigError(
                f"history file {path} must have columns t, w_1..w_{p.n_modes}, "
                f"y_1..y_{p.n_modes}"
            )
        n = data.shape[0]
        if n < 2:
            raise ConfigError(f"history file {path} needs at least 2 rows")
        ts = data[:, 0]
        if abs(ts[0] + p.r) > 1e-9 or abs(ts[-1]) > 1e-9:
            raise ConfigError(f"history file {path} must sample exactly [-r, 0] with r={p.r}")
        values = np.empty((n, 2, p.n_modes))
        values[:, 0, :] = data[:, 1 : 1 + p.n_modes]
        values[:, 1, :] = data[:, 1 + p.n_modes :]
        return Segment(p.r / (n - 1), values)
    raise ConfigError(f"unknown history catalog entry '{kind}'")


class _SegmentView:
    """Duck-typed delay segment ending at one node of a trajectory buffer.

    Exposes the `value`/`span`/`state` interface of `Segment` without
    copying the window; `node` moves along as a sweep advances.
    """

    __slots__ = ("_values", "_marks", "_step", "span", "node")

    def __init__(self, values, marks, span, step):
        self._values = values
        self._marks = marks
        self._step = step
        self.span = span
        self.node = 0

    def value(self, theta):
        pos = theta / self._step
        rel = int(round(pos))
        if abs(pos - rel) < _NODE_SNAP:
            return self._values[self.node + rel]
        lo = self.node + int(np.floor(pos))
        a = pos - np.floor(pos)
        upper = self._marks.get(lo + 1, self._values[lo + 1])
        return (1.0 - a) * self._values[lo] + a * upper

    def state(self, theta):
        return StateZ.from_pair(self.value(theta))


def _source_row(t, seg, w_current, u_val, spec, basis, quad_w):
    """Velocity-equation source excluding the control channel: p - k*w+ + f."""
    clipped = np.maximum(basis @ w_current, 0.0)
    row = -spec.params.k * (quad_w * (clipped @ basis))
    if not spec.forcing.is_zero:
        row = row + spec.forcing(t)
    if not spec.nonlinearity.is_zero:
        row = row + spec.nonlinearity.evaluate(t, seg, u_val)
    return row


def source_term(t: float, seg, u_val: np.ndarray | None, spec: ProblemSpec) -> StateZ:
    """Perturbation entering the velocity equation: (0, p(t) - k*w+ + f).

    `seg` is the delay segment ending at t; its value at 0 supplies the
    current position for the one-sided cable force.  `u_val` may be None
    when every catalog entry is control-independent.
    """
    basis = spec.grid.basis(spec.params.n_modes)
    row = _source_row(t, seg, seg.value(0.0)[0], u_val, spec, basis, spec.grid.weight)
    return StateZ(np.zeros_like(row), row)


def node_sources(spec: ProblemSpec, values: np.ndarray, marks: dict):
    """Per-node evaluator of the velocity source p(t) - k*w+ + f (no control channel).

    `values` is a trajectory buffer on the grid of `spec` (history nodes
    first, t = 0 at node r/h) and `marks` its left limits.  The returned
    `row(node, t, u_val)` reads the position `values[node, 0]` and, through
    the delay segment ending at `node`, earlier nodes; it never reads the
    velocity at `node`, and it sees later writes to the buffer.
    """
    seg = _SegmentView(values, marks, spec.params.r, spec.h)
    basis = spec.grid.basis(spec.params.n_modes)
    quad_w = spec.grid.weight

    def row(node: int, t: float, u_val: np.ndarray | None) -> np.ndarray:
        seg.node = node
        return _source_row(t, seg, values[node, 0], u_val, spec, basis, quad_w)

    return row


def nonlocal_combination(segments, spec: ProblemSpec) -> Segment:
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


def segment_at(traj: Trajectory, t: float) -> Segment:
    """Delay window [t - r, t] of a trajectory, for t in [0, T].

    At grid times this is an exact node slice and jump marks are carried
    over; off the grid the window is sampled by linear interpolation and
    interior jump information is lost.
    """
    if not -1e-12 <= t <= traj.t_end + 1e-12:
        raise ValueError(f"time {t} outside [0, {traj.t_end}]")
    n_r = traj.n_history
    idx, frac = _node_position(t + traj.r, traj.step)
    if abs(frac) < _NODE_SNAP:
        lo = idx - n_r
        values = traj.values[lo : idx + 1]
        marks = {
            i - lo: v for i, v in traj.left_values.items() if lo < i <= idx
        }
        return Segment(traj.step, values, marks)
    thetas = t + traj.step * (np.arange(n_r + 1) - n_r)
    values = np.stack([traj.state(th).to_pair() for th in thetas])
    return Segment(traj.step, values)


@dataclass(frozen=True)
class IntegrationResult:
    """A resolved trajectory plus the outer-iteration diagnostics."""

    trajectory: Trajectory
    picard_iterations: int
    history_residual: float
    picard_sup_diffs: tuple[float, ...]


def _control_nodes(u: ControlSignal | None, spec: ProblemSpec):
    """(left, right, jump-node set) arrays of the control on the trajectory grid."""
    n = spec.n_steps + 1
    if u is None:
        zeros = np.zeros((n, spec.params.n_modes))
        return zeros, zeros, frozenset()
    if abs(u.t0) > 1e-12 or abs(u.t1 - spec.params.T) > 1e-9:
        raise ValueError(f"control covers [{u.t0}, {u.t1}], expected [0, {spec.params.T}]")
    if u.n_nodes != n:
        raise ValueError(
            f"control has {u.n_nodes} nodes, the trajectory grid has {n}; "
            "controls must live on the trajectory grid"
        )
    left, right = u.node_values()
    return left, right, frozenset(u.left_values)


def _resample_history(spec: ProblemSpec):
    """History data on the trajectory grid: (n_r + 1, 2, N) plus marks."""
    h = spec.h
    n_r = int(round(spec.params.r / h))
    src = spec.history
    if abs(src.step - h) < 1e-12 * h and src.n_nodes == n_r + 1:
        return src.values.copy(), dict(src.left_values), n_r
    thetas = h * np.arange(-n_r, 1)
    values = np.stack([src.value(th) for th in thetas])
    marks = {}
    for i, v in src.left_values.items():
        theta = src.step * i - src.span
        idx, frac = _node_position(theta + spec.params.r, h)
        if abs(frac) > _NODE_SNAP:
            raise ConfigError(
                f"history jump at {theta} does not sit on the trajectory grid (h={h})"
            )
        marks[idx] = np.array(v, dtype=float)
    return values, marks, n_r


def _sweep(spec: ProblemSpec, step, u_left, u_right, u_marks, hist_values, hist_marks, n_r):
    """One explicit exponential-trapezoid pass over [0, T] from the given history.

    Each step propagates the previous node with the left half of the
    trapezoid source (`step`), evaluates the source once at the new node
    from the propagated position, and adds the right half.  A second
    evaluation happens only where the right limit of the source differs
    from its left limit: after an impulse jump and where the control jumps.
    """
    h = spec.h
    half_h = 0.5 * h
    values = np.empty((n_r + spec.n_steps + 1, 2, spec.params.n_modes))
    values[: n_r + 1] = hist_values
    marks = dict(hist_marks)
    source = node_sources(spec, values, marks)
    impulse_nodes = {n_r + int(round(ev.time / h)): ev for ev in spec.impulses}

    g = u_right[0] + source(n_r, 0.0, u_right[0])
    for j in range(1, spec.n_steps + 1):
        i = n_r + j
        t = j * h
        step(values[i - 1], g, values[i])
        g = u_left[j] + source(i, t, u_left[j])
        values[i, 1] += half_h * g
        ev = impulse_nodes.get(i)
        if ev is not None:
            marks[i] = values[i].copy()
            values[i, 1] += ev.map.velocity_jump(t, marks[i], u_right[j])
        if ev is not None or j in u_marks:
            g = u_right[j] + source(i, t, u_right[j])
    return values, marks


def _nonlocal_on_history(values, marks, spec: ProblemSpec, n_r: int):
    """Evaluate the nonlocal combination of the lagged windows on [-r, 0]."""
    h = spec.h
    gvals = np.zeros((n_r + 1, 2, spec.params.n_modes))
    gmarks: dict[int, np.ndarray] = {}
    offsets = [int(round(tau / h)) for tau in spec.lags]
    for g, off in zip(spec.gammas, offsets):
        gvals += g * values[off : off + n_r + 1]
    mark_targets = sorted(
        {
            i - off
            for off in offsets
            for i in marks
            if 0 <= i - off <= n_r
        }
    )
    for loc in mark_targets:
        acc = np.zeros_like(gvals[0])
        for g, off in zip(spec.gammas, offsets):
            src = marks.get(loc + off, values[loc + off])
            acc += g * src
        gmarks[loc] = acc
    return gvals, gmarks


def integrate_mild(spec: ProblemSpec, u: ControlSignal | None = None) -> IntegrationResult:
    """Resolve the mild solution on [-r, T] under the control u.

    On [0, T] the state follows the variation-of-constants formula with
    the group propagator, jump updates at the impulse times, and the
    delayed sources; on [-r, 0] it equals the prescribed history minus the
    nonlocal combination of its own lagged segments.  That implicit
    coupling is resolved by Picard iteration over candidate histories,
    starting from the history with the nonlocal term dropped, until the
    history-consistency residual falls below `picard_tol`.  The iteration
    stops with NumericalError when a sweep leaves the finite range or the
    successive sweep differences grow three times in a row.
    """
    if spec.u_dependent and u is None:
        raise ValueError("problem has control-dependent catalog entries but no control")
    u_left, u_right, u_marks = _control_nodes(u, spec)
    rho_values, rho_marks, n_r = _resample_history(spec)
    p = spec.params
    lam = p.lam
    step = exponential_step(spec.h, lam, p.c, p.d)

    hist_values, hist_marks = rho_values, rho_marks
    prev_values = None
    sup_diffs: list[float] = []
    grow_streak = 0
    residual, ratio = np.inf, np.nan
    for iteration in range(1, spec.picard_max_iter + 1):
        # Overflow surfaces as a non-finite norm, reported below as one error.
        with np.errstate(over="ignore", invalid="ignore"):
            values, marks = _sweep(
                spec, step, u_left, u_right, u_marks, hist_values, hist_marks, n_r
            )
            finite = np.isfinite(energy_norms(values, lam))
        if not finite.all():
            t_bad = (int(np.argmin(finite)) - n_r) * spec.h
            raise NumericalError(
                f"state is not finite at t = {t_bad:.6g} (history sweep {iteration})"
            )
        if prev_values is not None:
            d = float(energy_norms(values - prev_values, lam).max())
            ratio = d / sup_diffs[-1] if sup_diffs and sup_diffs[-1] > 0 else np.nan
            sup_diffs.append(d)
        if spec.q == 0:
            residual = 0.0
            break
        gvals, gmarks = _nonlocal_on_history(values, marks, spec, n_r)
        residual = float(energy_norms(values[: n_r + 1] + gvals - rho_values, lam).max())
        if residual <= spec.picard_tol:
            break
        grow_streak = grow_streak + 1 if np.isfinite(ratio) and ratio > 1.0 else 0
        if grow_streak >= 3:
            raise NumericalError(
                f"history iteration diverging: sweep-difference ratio {ratio:.3f} > 1 "
                f"for three consecutive sweeps (sweep {iteration}, residual {residual:.3e})"
            )
        hist_values = rho_values - gvals
        hist_marks = {}
        for i in sorted(set(rho_marks) | set(gmarks)):
            rho_side = rho_marks.get(i, rho_values[i])
            g_side = gmarks.get(i, gvals[i])
            hist_marks[i] = rho_side - g_side
        prev_values = values
    else:
        raise NumericalError(
            f"history iteration did not reach tol={spec.picard_tol} in "
            f"{spec.picard_max_iter} sweeps (residual {residual:.3e}, "
            f"last contraction ratio {ratio:.3f})"
        )
    traj = Trajectory(spec.h, n_r, values, marks)
    return IntegrationResult(traj, iteration, residual, tuple(sup_diffs))
