"""Mild-solution integration with delays, impulses, and nonlocal history.

The trajectory lives on one uniform grid covering [-r, T], and so does the
prescribed history: `ProblemSpec.history` holds it at the grid's nodes on
[-r, 0], and the sweeps read it as it is.  Stepping is an exponential
integrator: the stiff linear part is propagated by the exact per-mode
blocks, the sources (control, load, cable force, nonlinear term) are
integrated by the trapezoid rule within each step.  The step is explicit
and still takes the trapezoid rule's right endpoint exactly: the sources
enter only the velocity equation and read the new node only through its
position (the cable force clips it; the catalog terms read the time, the
control and the node at t - r), and the exact propagation fixes that
position before the source is evaluated.  So h/2 times the source at a
node both closes its step and opens the next one.  Summed over steps the
scheme reproduces the global trapezoid convolution of the sources exactly,
which is what ties the integrator to the discrete Gramian of the control
module.

A sweep keeps each node as the open row [w, y - s, m, e]: the velocity
before the node's closing half source s = h/2 (g + u), the clipped grid
samples m = max(S w, 0) of the position (S = `grid.basis`), and the
exogenous half source e = h/2 (p + f) + h/2 u, so that s = P^T m + e with
the cable projector P (`spectral.positive_projector`, scaled by -k h/2;
`positive_part`'s clip up to rounding).  The step matrix F
(`semigroup.propagator_matrix`) maps [w, y, s] to E(h) (w, y + s), its
s-columns being its y-columns, so it equals K [w, y - s, m, e] with
K = [F_w, F_y, 2 F_y P^T, 2 F_y], built once per integration
(`_sweep_kernel`).  A node costs three numpy calls: the product with K
steps the previous open row, one product samples the new position and
`np.maximum` clips.  Only the position feeds the next node, so the
velocity is closed a block of nodes at a time, outside the node loop:
the rows e are written before the block, and after it c = P^T m (a stack
of 1-row products, each bitwise the product of a node on its own), the
recorded source rows h/2 g = c + h/2 (p + f), without the control, and
y = (y - s) + (h/2 g + h/2 u).  The load and the catalog term
(`node_sources`) read the time, the control and the node at t - r,
n_r = r/h steps back, so a block holds at most n_r nodes: every delayed
node it reads is closed before it starts, and the terms are elementwise in
the node, so each row is bitwise the row of a node-by-node evaluation.
The rows are zeros when a problem has neither term, so every problem runs
the same block code.

Restart nodes close at once: the start node, every impulse, every control
mark and the largest lag tau_q.  There the sweep applies the jump,
evaluates the right-limit source again as a one-node block and takes the
next step with F from the closed row [w, y, s].  Every sweep of a problem
(a history sweep to tau_q, the continuation from there, a tail from a
pull-back switch, which is a control mark, or one sweep over all of
[0, T]) thus runs the same arithmetic at each node, and the same guard at
its end: overflow inside a sweep is not warned about, and a node whose
energy norm is not finite ends it with NumericalError naming the node's
time and the sweep.

The nonlocal initial condition prescribes the history only implicitly
(through segments of the solution at the positive lag times), so the whole
trajectory is resolved by an outer Picard iteration over candidate
histories, terminated on the history-consistency residual.  Measuring the
residual instead of the whole-trajectory change keeps termination causal:
nodes beyond the largest lag never influence the iteration count.  So the
history sweeps stop at the largest lag tau_q, and once the residual is
met the converged sweep continues from there to T, once; the sweep being
causal, that is bitwise the full sweep.  Without lags the one history
sweep runs to T and meets the residual, exactly 0, at once.  Likewise a
run whose control departs from a converged run's only after the largest
lag repeats its history iteration exactly, and `integrate_tail`
integrates just the part after the departure.  A run whose control is
close to a converged run's can start its history iteration from that
run's history (`warm`), which needs fewer sweeps to meet the same
residual.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .catalogs import (
    Forcing,
    ImpulseEvent,
    Nonlinearity,
    entry_params,
    make_forcing,
    make_nonlinearity,
    param_list,
)
from .control import MIN_STEPS, ControlSignal
from .errors import ConfigError, NumericalError
from .semigroup import ModelParams, propagator_matrix
from .spectral import SpatialGrid, StateZ, eigenvalues, energy_norms, positive_projector

__all__ = [
    "Trajectory",
    "ProblemSpec",
    "IntegrationResult",
    "history_segment",
    "node_sources",
    "integrate_mild",
    "integrate_tail",
]

_NODE_SNAP = 1e-9

# The most nodes a sweep steps between two block closes: its buffer holds
# that many rows of 3N + G entries.
_BLOCK_NODES = 64

# Each history catalog entry and the `params` keys it uses.
HISTORY_KINDS = {"zero": (), "modal_constant": ("w", "y"), "file": ("path",)}


def _grid_nodes(times, h: float, end: int, rule: str, key: str) -> tuple[int, ...]:
    """The indices j of the grid nodes j*h at `times`, which must increase strictly in (0, end).

    ConfigError names `key`, formatted with the position of the bad time.
    """
    nodes = [0]
    for j, t in enumerate(times):
        pos = t / h
        node = int(round(pos)) if np.isfinite(pos) else -1
        if abs(pos - node) > _NODE_SNAP:
            raise ConfigError(f"{t} does not sit on the time grid (h = {h})", key.format(j))
        if not nodes[-1] < node < end:
            raise ConfigError(f"{rule}; got {t}", key.format(j))
        nodes.append(node)
    return tuple(nodes[1:])


@dataclass(frozen=True)
class Trajectory:
    """Mild solution samples on the uniform grid covering [-r, T].

    Node i sits at t_i = (i - n_history) * step; `values[i]` is the right
    limit there.  Jump nodes (impulse times, and the history nodes where
    the nonlocal term carries an impulse jump back) are recorded in
    `left_values` with their left limits.
    """

    step: float
    n_history: int
    values: np.ndarray
    left_values: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        marks = {int(i): np.array(v, dtype=float) for i, v in sorted(self.left_values.items())}
        for v in marks.values():
            v.flags.writeable = False
        object.__setattr__(self, "left_values", marks)

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def n_modes(self) -> int:
        return self.values.shape[2]

    @property
    def times(self) -> np.ndarray:
        return self.step * (np.arange(self.n_nodes) - self.n_history)

    def terminal_state(self) -> StateZ:
        return StateZ.from_pair(self.values[-1])

    def sup_diff(self, other: "Trajectory") -> float:
        """Max energy norm of the nodewise difference (canonical values)."""
        if other.values.shape != self.values.shape:
            raise ValueError("trajectories live on different grids")
        return float(energy_norms(self.values - other.values, eigenvalues(self.n_modes)).max())


@dataclass(frozen=True)
class ProblemSpec:
    """Full description of one impulsive delay problem on [0, T].

    Impulse times, delay lags, and the delay span r must sit on the
    trajectory grid; configuration loading snaps them to the nearest node,
    so construction only verifies the alignment, and keeps their node
    indices: `n_r` = r/h, `lag_nodes` and `impulse_nodes`, counted from
    t = 0.  Every reader takes its nodes from there, and the pull-back
    windows' steps from `window_steps`.  The construction checks raise
    ConfigError naming the configuration key they concern.
    `history` is the prescribed history rho at the trajectory nodes of
    [-r, 0], a read-only (n_r + 1, 2, n_modes) array (zeros by default);
    `history[-1]` is rho(0).
    """

    params: ModelParams
    grid: SpatialGrid
    n_steps: int
    impulses: tuple[ImpulseEvent, ...] = ()
    lags: tuple[float, ...] = ()
    gammas: tuple[float, ...] = ()
    forcing: Forcing = None
    nonlinearity: Nonlinearity = None
    history: np.ndarray | None = None
    L_q_declared: float | None = None
    picard_tol: float = 1e-10
    picard_max_iter: int = 50
    n_r: int = field(init=False, repr=False)
    lag_nodes: tuple[int, ...] = field(init=False, repr=False)
    impulse_nodes: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        p = self.params
        if self.forcing is None:
            object.__setattr__(self, "forcing", make_forcing("zero", p.n_modes))
        if self.nonlinearity is None:
            object.__setattr__(self, "nonlinearity", make_nonlinearity("zero", p.n_modes))
        if self.n_steps < MIN_STEPS:
            raise ConfigError(f"need at least {MIN_STEPS} time steps, got {self.n_steps}")
        if not self.grid.supports(p.n_modes):
            raise ConfigError(
                f"G={self.grid.n_points} cannot de-alias {p.n_modes} modes "
                f"(need >= {2 * p.n_modes + 1})",
                "grids.G",
            )
        h, n = self.h, self.n_steps
        (n_r,) = _grid_nodes([p.r], h, n, "delay span must satisfy 0 < r < T", "model.r")
        times = [ev.time for ev in self.impulses]
        rule = f"impulse times must satisfy 0 < t_1 < ... < t_m < T = {p.T}"
        impulse_nodes = _grid_nodes(times, h, n, rule, "impulses[{}].time")
        rule = f"lags must satisfy 0 < tau_1 < ... < tau_q < r = {p.r}"
        lag_nodes = _grid_nodes(self.lags, h, n_r, rule, "delays.lags[{}]")
        if len(self.gammas) != len(self.lags):
            raise ConfigError(
                f"{len(self.gammas)} coefficients for {len(self.lags)} delay lags",
                "nonlocal.gammas",
            )
        object.__setattr__(self, "n_r", n_r)
        object.__setattr__(self, "lag_nodes", lag_nodes)
        object.__setattr__(self, "impulse_nodes", impulse_nodes)
        shape = (n_r + 1, 2, p.n_modes)
        history = np.broadcast_to(0.0, shape) if self.history is None else self.history
        history = np.asarray(history, dtype=float)
        if history.shape != shape:
            raise ConfigError(
                f"history has shape {history.shape}, the trajectory grid on [-r, 0] "
                f"needs {shape}"
            )
        # Read-only arrays (`history_segment`'s, whose constants are
        # broadcast views) are kept; a writeable one is copied and frozen.
        if history.flags.writeable:
            history = history.copy()
            history.flags.writeable = False
        object.__setattr__(self, "history", history)

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

    def window_steps(self, sigmas) -> tuple[int, ...]:
        """The steps sigma/h of pull-back windows, each starting at node n_steps - sigma/h.

        ConfigError naming `experiment.sigmas[j]` unless the windows sit on the
        grid and decrease strictly in (0, min(T - t_m, r)), compared in nodes.
        """
        h = self.h
        end = min(self.n_steps - max(self.impulse_nodes, default=0), self.n_r)
        rule = f"windows must decrease in (0, min(T - t_m, r)) = (0, {end * h:g}), {end} steps"
        steps = [end]
        for j, sigma in enumerate(sigmas):
            steps += _grid_nodes([sigma], h, steps[-1], rule, f"experiment.sigmas[{j}]")
        return tuple(steps[1:])


def history_segment(
    kind: str, p: ModelParams, n_nodes: int, params: dict | None = None
) -> np.ndarray:
    """Initial history at the n_nodes trajectory nodes of [-r, 0].

    Returns a read-only (n_nodes, 2, n_modes) array.  Kinds: 'zero',
    'modal_constant', or 'file'.  A file samples [-r, 0] at uniformly
    spaced rows, any number of them; the rows are interpolated piecewise
    linearly onto the nodes, and a node within 1e-9 (in units of the row
    spacing) of a row takes that row.  Every row's energy norm must be finite.
    """
    params = entry_params("history", kind, params, HISTORY_KINDS)
    if n_nodes < 2:
        raise ConfigError(f"history grid needs at least 2 nodes, got {n_nodes}")
    shape = (n_nodes, 2, p.n_modes)
    if kind == "zero":
        return np.broadcast_to(0.0, shape)
    if kind == "modal_constant":
        w = np.zeros(p.n_modes)
        y = np.zeros(p.n_modes)
        for key, out in (("w", w), ("y", y)):
            coeffs = param_list(params, key)
            if coeffs.size > p.n_modes:
                raise ConfigError(
                    f"lists {coeffs.size} modes, model has {p.n_modes}", f"params.{key}"
                )
            out[: coeffs.size] = coeffs
        return np.broadcast_to(np.vstack([w, y]), shape)
    # file
    path = params.get("path")
    if not path:
        raise ConfigError("history catalog 'file' needs a 'path'", "params.path")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data rows: reported below
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read history file: {exc}", "params.path") from None
    if data.size == 0:
        raise ConfigError(f"history file {path} has no data rows", "params.path")
    if data.shape[1] != 1 + 2 * p.n_modes:
        raise ConfigError(
            f"history file {path} must have columns t, w_1..w_{p.n_modes}, "
            f"y_1..y_{p.n_modes}",
            "params.path",
        )
    n = data.shape[0]
    if n < 2:
        raise ConfigError(f"history file {path} needs at least 2 rows", "params.path")
    ts = data[:, 0]
    # Both checks are written so that a NaN time fails them.
    if not (abs(ts[0] + p.r) <= 1e-9 and abs(ts[-1]) <= 1e-9):
        raise ConfigError(
            f"history file {path} must sample exactly [-r, 0] with r={p.r}", "params.path"
        )
    step = p.r / (n - 1)
    if not (np.isfinite(ts).all() and np.abs(np.diff(ts) - step).max() <= 1e-9 * p.r):
        raise ConfigError(
            f"history file {path} must sample [-r, 0] at uniform spacing r/{n - 1}",
            "params.path",
        )
    rows = np.empty((n, 2, p.n_modes))
    rows[:, 0, :] = data[:, 1 : 1 + p.n_modes]
    rows[:, 1, :] = data[:, 1 + p.n_modes :]
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(energy_norms(rows, p.lam))
    if not finite.all():
        t_bad = ts[np.argmin(finite)]
        raise ConfigError(
            f"history file {path}: the energy norm at t = {t_bad:.6g} is not finite", "params.path"
        )
    # Node times as the trajectory grid computes them, h = T/n_steps.
    n_r = n_nodes - 1
    h = p.T / round(p.T * n_r / p.r)
    thetas = h * np.arange(-n_r, 1)
    pos = (thetas + step * (n - 1)) / step
    lo = np.clip(np.floor(thetas / step + (n - 1)).astype(int), 0, n - 2)
    a = (pos - lo)[:, None, None]
    out = (1.0 - a) * rows[lo] + a * rows[lo + 1]
    idx = np.rint(pos)
    snap = np.abs(pos - idx) < _NODE_SNAP
    out[snap] = rows[np.clip(idx[snap].astype(int), 0, n - 1)]
    out.flags.writeable = False
    return out


def node_sources(spec: ProblemSpec, values: np.ndarray):
    """Evaluator of h/2 (p(t) + f), the velocity source terms that do not read the position.

    `values` is a trajectory buffer on the grid of `spec` (history nodes
    first, t = 0 at node n_r = r/h).  The returned `block(first, n, u_rows)`
    evaluates the load p(t) and the catalog term f, which reads the state
    `values[node - n_r]` at t - r and the control row `u_rows[k]` (None if no
    entry reads the control), for the n nodes first, ..., first + n - 1 at
    once, as they are when it is called.  It returns the (n, N) rows, zeros
    when both terms are zero (a zero term is never evaluated); a single node
    is a block of one with bitwise the same row.  The cable force reads the
    node itself (`_sweep_kernel`).
    """
    n_r = spec.n_r
    h = spec.h
    half_h = 0.5 * h
    forcing = None if spec.forcing.is_zero else spec.forcing
    nonlinearity = None if spec.nonlinearity.is_zero else spec.nonlinearity

    def block(first: int, n: int, u_rows: np.ndarray | None) -> np.ndarray:
        ts = h * np.arange(first - n_r, first - n_r + n)
        total = None if forcing is None else forcing(ts)
        if nonlinearity is not None:
            f = nonlinearity.evaluate(ts, values[first - n_r : first - n_r + n], u_rows)
            total = f if total is None else total + f
        return np.zeros((n, spec.params.n_modes)) if total is None else total * half_h

    return block


def _sweep_kernel(spec: ProblemSpec):
    """(F, K, S, P): the sweep's two step matrices, grid samples of the modes and cable projector.

    `np.dot(np.maximum(np.dot(S, w), 0), P)` is h/2 times the cable force
    -k w+ of the position w, `positive_part`'s clip up to rounding.  F
    (`propagator_matrix`) steps a closed row [w, y, s]; K = [F_w, F_y,
    2 F_y P^T, 2 F_y] steps the open row [w, y - s, m, e] with the same
    s = P^T m + e, F's s-columns being its y-columns.
    """
    p, h, n = spec.params, spec.h, spec.params.n_modes
    F = propagator_matrix(h, p.lam, p.c, p.d)
    P = positive_projector(spec.grid, n, -0.5 * h * p.k)
    twice_fy = 2.0 * F[:, n : 2 * n]
    K = np.hstack([F[:, : 2 * n], np.dot(twice_fy, P.T), twice_fy])
    return F, K, spec.grid.basis(n), P


def _cable_rows(m: np.ndarray, P: np.ndarray, out: np.ndarray) -> None:
    """`out[k] = np.dot(m[k], P)` for each row of clipped samples m, bitwise.

    One (n, G) @ (G, N) product would round differently from the 1-row
    product of a node evaluated on its own; a stack of 1-row products does
    not.
    """
    np.matmul(m[:, None, :], P, out=out[:, None, :])


@dataclass(frozen=True)
class IntegrationResult:
    """A resolved trajectory plus the outer-iteration diagnostics.

    `sources[j]` is h/2 times the final sweep's velocity source
    p(t) - k*w+ + f at t_j = j*h, without the control channel, taken with
    the left control value.  `picard_sup_diffs` holds the energy sup
    norms of successive history-sweep differences over [-r, tau_q], the part
    of the trajectory that the nonlocal history map feeds back.
    """

    trajectory: Trajectory
    picard_iterations: int
    history_residual: float
    picard_sup_diffs: tuple[float, ...]
    sources: np.ndarray


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


@np.errstate(over="ignore", invalid="ignore")
def _sweep(
    spec,
    kernel,
    u_left,
    u_right,
    u_marks,
    prefix,
    prefix_marks,
    prefix_sources=None,
    *,
    last=None,
    where,
):
    """One explicit exponential-trapezoid pass from the last node of `prefix` to t_last.

    `prefix` holds the nodes from -r up to t_j0 = j0*h and `prefix_marks`
    their left limits: in the history iteration the candidate history alone
    (j0 = 0); for a continuation or a tail, a run up to t_j0, whose source
    rows 0..j0 come in `prefix_sources`.  The pass ends at t_last = last*h
    (T by default) and leaves the node and source rows after it unfilled.
    The nodes between restart nodes (module docstring) go in blocks of at
    most min(n_r, `_BLOCK_NODES`); a restart node ends a block, and the next
    one starts with the F-step from it.  Returns the nodes, their marks and
    the source rows h/2 g, g taken with the left control and before any
    jump.  Overflow is not warned about: a node up to t_last whose energy
    norm is not finite ends the pass with NumericalError, which names the
    first such time and the pass, `where`.
    """
    F, K, S, P = kernel
    h, n_r = spec.h, spec.n_r
    last = spec.n_steps if last is None else last
    j0 = prefix.shape[0] - n_r - 1
    n, n_grid = spec.params.n_modes, S.shape[0]
    values = np.empty((n_r + spec.n_steps + 1, 2, n))
    values[: n_r + j0 + 1] = prefix
    marks = dict(prefix_marks)
    sources = np.empty((spec.n_steps + 1, n))
    terms = node_sources(spec, values)
    half_u_left = np.multiply(u_left, 0.5 * h)
    half_u_right = half_u_left if u_right is u_left else np.multiply(u_right, 0.5 * h)
    jumps = dict(zip(spec.impulse_nodes, spec.impulses))
    restarts = {*jumps, *u_marks, *spec.lag_nodes[-1:], last}
    restarts = sorted(j for j in restarts if j0 < j <= last)
    # Buffer row k is the open row [w, y - s, m, e] of a block's k-th node,
    # row 0 that of the node before the block; `opening` is the closed row
    # [w, y, s] of a restart node.
    block_nodes = min(n_r, _BLOCK_NODES)
    buf = np.empty((block_nodes + 1, 3 * n + n_grid))
    m_all, e_all = buf[:, 2 * n : -n], buf[:, -n:]
    rows, pairs, ws, ms = list(buf), list(buf[:, : 2 * n]), list(buf[:, :n]), list(m_all)
    opening = np.empty(3 * n)
    floor = np.zeros(n_grid)  # `np.maximum` converts a scalar 0 on every call
    # Bound `ndarray.dot` skips `np.dot`'s Python-level dispatch and runs the
    # same product.  `out` stays a keyword of `np.maximum`: positionally it
    # is deprecated and takes the warning path.
    f_dot, k_dot, s_dot, maximum = F.dot, K.dot, S.dot, np.maximum

    def reopen(j: int, out: np.ndarray) -> np.ndarray:
        # h/2 g at closed node j with the right control, as a one-node block.
        opening[: 2 * n] = values[n_r + j].ravel()
        maximum(s_dot(values[n_r + j, 0]), floor).dot(P, out)
        np.add(out, terms(n_r + j, 1, u_right[j : j + 1])[0], out=out)
        np.add(out, half_u_right[j], out=opening[2 * n :])
        return out

    # At t = 0 nothing jumps, so node 0's opening source is also its row.
    right_src = reopen(j0, np.empty(n))
    sources[: j0 + 1] = prefix_sources if j0 else right_src
    first = j0 + 1
    for end in restarts:
        # The nodes after a restart node, up to the next one: the first
        # steps with F from the closed row, the others with K.
        f_dot(opening, pairs[1])
        s_dot(ws[1], ms[1])
        maximum(ms[1], floor, out=ms[1])
        k = 2
        while first <= end:
            stop = min(first + block_nodes, end + 1)
            count, js, at = stop - first, slice(first, stop), slice(n_r + first, n_r + stop)
            term = terms(at.start, count, u_left[js])
            np.add(term, half_u_left[js], out=e_all[1 : count + 1])
            for prev, pair, w, m in zip(rows[k - 1 : count], pairs[k:], ws[k:], ms[k:]):
                k_dot(prev, pair)
                s_dot(w, m)
                maximum(m, floor, out=m)
            # Close the block: source rows h/2 g = P^T m + h/2 (p + f), and
            # y = (y - s) + (h/2 g + h/2 u).
            src, block = sources[js], values[at]
            _cable_rows(m_all[1 : count + 1], P, src)
            np.add(src, term, out=src)
            block[:, 0] = buf[1 : count + 1, :n]
            np.add(src, half_u_left[js], out=block[:, 1])
            np.add(buf[1 : count + 1, n : 2 * n], block[:, 1], out=block[:, 1])
            buf[0] = buf[count]
            first, k = stop, 1
        ev = jumps.get(end)
        if ev is not None:
            marks[n_r + end] = values[n_r + end].copy()
            values[n_r + end, 1] += ev.map.velocity_jump(end * h, marks[n_r + end], u_right[end])
        if end < last:
            reopen(end, right_src)
    # Overflow surfaces here, as a non-finite norm; the rows after t_last are unfilled.
    finite = np.isfinite(energy_norms(values[: n_r + last + 1], spec.params.lam))
    if not finite.all():
        t_bad = (int(np.argmin(finite)) - n_r) * h
        raise NumericalError(f"state is not finite at t = {t_bad:.6g} ({where})")
    return values, marks, sources


def _nonlocal_on_history(values, marks, spec: ProblemSpec):
    """Evaluate the nonlocal combination of the lagged windows on [-r, 0]."""
    n_r, offsets = spec.n_r, spec.lag_nodes
    gvals = np.zeros((n_r + 1, 2, spec.params.n_modes))
    gmarks: dict[int, np.ndarray] = {}
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


def _warm_history(spec: ProblemSpec, warm: IntegrationResult):
    """The history nodes [-r, 0] of a run on the grid of `spec`, plus their marks."""
    traj, n_r = warm.trajectory, spec.n_r
    shape = (n_r + spec.n_steps + 1, 2, spec.params.n_modes)
    same_grid = traj.n_history == n_r and abs(traj.step - spec.h) <= 1e-12 * spec.h
    if traj.values.shape != shape or not same_grid:
        raise ValueError(
            f"warm start has values {traj.values.shape} of step {traj.step:.6g}, "
            f"the trajectory grid {shape} of step {spec.h:.6g}; "
            "warm starts must live on the trajectory grid"
        )
    return traj.values[: n_r + 1], {i: v for i, v in traj.left_values.items() if i <= n_r}


def integrate_mild(
    spec: ProblemSpec,
    u: ControlSignal | None = None,
    *,
    warm: IntegrationResult | None = None,
    tol: float | None = None,
) -> IntegrationResult:
    """Resolve the mild solution on [-r, T] under the control u (None: zero).

    On [0, T] the state follows the variation-of-constants formula with
    the group propagator, jump updates at the impulse times, and the
    delayed sources; on [-r, 0] it equals the prescribed history minus the
    nonlocal combination of its own lagged segments.  That implicit
    coupling is resolved by Picard iteration over candidate histories,
    starting from the history with the nonlocal term dropped, until the
    history-consistency residual falls below `tol`: `spec.picard_tol` by
    default, looser where `exact_fixed_point` needs no more.  The residual
    and the next candidate read no node past the largest lag tau_q, so each
    history sweep stops there; the converged one then continues to T, once.
    The iteration stops with NumericalError when a sweep leaves the finite
    range or the successive sweep differences on [-r, tau_q] grow three
    times in a row.

    `warm`, a run of the same problem on the same grid (any control),
    replaces the first candidate: its history nodes on [-r, 0] and their
    marks.  The Picard map contracts, so the fixed point and every stopping
    rule are as for a cold start; only the number of sweeps changes.  When
    `warm` was run with the same control, its history already meets the
    residual and one sweep returns that run bit for bit.
    """
    tol = spec.picard_tol if tol is None else tol
    controls = _control_nodes(u, spec)
    rho_values, n_r = spec.history, spec.n_r
    lam = spec.params.lam
    kernel = _sweep_kernel(spec)
    stop = max(spec.lag_nodes, default=spec.n_steps)
    n_read = n_r + stop + 1

    if warm is None:
        hist_values, hist_marks = rho_values, {}
    else:
        hist_values, hist_marks = _warm_history(spec, warm)
    prev_values = None
    sup_diffs: list[float] = []
    grow_streak = 0
    residual, ratio = np.inf, np.nan
    for iteration in range(1, spec.picard_max_iter + 1):
        where = f"history sweep {iteration}"
        values, marks, sources = _sweep(
            spec, kernel, *controls, hist_values, hist_marks, last=stop, where=where
        )
        if prev_values is not None:
            d = float(energy_norms(values[:n_read] - prev_values[:n_read], lam).max())
            ratio = d / sup_diffs[-1] if sup_diffs and sup_diffs[-1] > 0 else np.nan
            sup_diffs.append(d)
        gvals, gmarks = _nonlocal_on_history(values, marks, spec)
        residual = float(energy_norms(values[: n_r + 1] + gvals - rho_values, lam).max())
        if residual <= tol:
            break
        grow_streak = grow_streak + 1 if np.isfinite(ratio) and ratio > 1.0 else 0
        if grow_streak >= 3:
            raise NumericalError(
                f"history iteration diverging: sweep-difference ratio {ratio:.3f} > 1 "
                f"for three consecutive sweeps (sweep {iteration}, residual {residual:.3e})"
            )
        hist_values = rho_values - gvals
        hist_marks = {i: rho_values[i] - g_left for i, g_left in gmarks.items()}
        prev_values = values
    else:
        raise NumericalError(
            f"history iteration did not reach tol={tol} in "
            f"{spec.picard_max_iter} sweeps (residual {residual:.3e}, "
            f"last contraction ratio {ratio:.3f})"
        )
    if stop < spec.n_steps:
        where = f"continuation from t = {stop * spec.h:.6g} after history sweep {iteration}"
        values, marks, sources = _sweep(
            spec, kernel, *controls, values[:n_read], marks, sources[: stop + 1], where=where
        )
    traj = Trajectory(spec.h, n_r, values, marks)
    return IntegrationResult(traj, iteration, residual, tuple(sup_diffs), sources)


def integrate_tail(
    spec: ProblemSpec, nominal: IntegrationResult, u: ControlSignal, start: int
) -> IntegrationResult:
    """Bitwise `integrate_mild(spec, u)` for u switched from the nominal control at start*h.

    u must equal the nominal control before t_start = start*h and keep its
    value as the left limit there (a pull-back switch), no impulse may sit
    at t_start and no lag exceed it.  The history iteration then reads only
    nodes the two runs share, so it is the nominal's, which has already
    passed the divergence guard; only the tail after t_start is integrated,
    under the non-finite guard.  `picard_sup_diffs` is left empty.
    """
    h = spec.h
    if max(spec.lag_nodes, default=0) > start:
        raise ValueError(f"a delay lag reaches past t_start = {start * h:.6g}")
    if start in spec.impulse_nodes:
        raise ValueError(f"an impulse sits at t_start = {start * h:.6g}")
    traj = nominal.trajectory
    end = spec.n_r + start + 1
    values, marks, sources = _sweep(
        spec,
        _sweep_kernel(spec),
        *_control_nodes(u, spec),
        traj.values[:end],
        {i: v for i, v in traj.left_values.items() if i < end},
        nominal.sources[: start + 1],
        where=f"tail from t = {start * h:.6g}",
    )
    tail = Trajectory(h, spec.n_r, values, marks)
    return IntegrationResult(tail, nominal.picard_iterations, nominal.history_residual, (), sources)
