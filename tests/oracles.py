"""Independent reference computations the tests check the package against.

Everything here deliberately avoids the package's quadrature and stepping
choices: matrix exponentials come from scaled Taylor series or RK4 on the
matrix ODE, responses from classical fixed-step RK4, and the delay system
from a method-of-steps RK4 with cubic-Hermite dense output.  The one
exception is `implicit_trapezoid_sweep`, the integrator's former
implicit-endpoint sweep, kept unchanged as a bitwise reference for the
explicit sweep that replaced it.
"""

from __future__ import annotations

import numpy as np

from beamctl.semigroup import propagator_entries_for
from beamctl.spectral import StateZ

_NODE_SNAP = 1e-9


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


class _OracleSegment:
    """Segment interface backed by a dense-lookup closure."""

    __slots__ = ("_lookup", "span")

    def __init__(self, lookup, span):
        self._lookup = lookup
        self.span = span

    def value(self, theta):
        return self._lookup(theta)


def method_of_steps_rk4(spec, u=None, refine: int = 8, picard_tol: float = 1e-11, max_iter: int = 80):
    """Method-of-steps RK4 for the full impulsive delay problem.

    Fixed-step classical RK4 on a grid `refine` times finer than the
    package integrator, with cubic-Hermite dense output supplying the
    delayed arguments at the stage times.  The nonlocal history is
    resolved by the same outer fixed point as the package, but everything
    inside the sweep is independent.  Returns the (n_nodes, 2, N) state
    array from -r to T.
    """
    p = spec.params
    h = spec.h / refine
    n_r = int(round(p.r / h))
    n_fwd = spec.n_steps * refine
    n_tot = n_r + n_fwd + 1
    lam = p.lam
    basis = spec.grid.basis(p.n_modes)
    quad_w = spec.grid.weight

    def clip_project(w):
        return quad_w * (np.maximum(basis @ w, 0.0) @ basis)

    def u_at(t):
        return u.value(t) if u is not None else None

    imp_nodes = {n_r + int(round(ev.time / h)): ev for ev in spec.impulses}
    rho = np.stack([spec.history.value(-p.r + h * i) for i in range(n_r + 1)])

    def sweep(hist):
        ys = np.empty((n_tot, 2, p.n_modes))
        ys[: n_r + 1] = hist
        fs = np.empty_like(ys)

        def rhs(t, z):
            def lookup(theta):
                pos = (t + theta + p.r) / h
                j = int(np.floor(pos + 1e-12))
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

            w, y = z
            uv = u_at(t)
            row = -p.d * lam * w - p.c * y - p.k * clip_project(w)
            if uv is not None:
                row = row + uv
            if not spec.forcing.is_zero:
                row = row + spec.forcing(t)
            if not spec.nonlinearity.is_zero:
                row = row + spec.nonlinearity.evaluate(t, _OracleSegment(lookup, p.r), uv)
            return np.vstack([y, row])

        # Hermite slopes over the history come from difference quotients of
        # the data itself (the history is not governed by the equation).
        fs[0] = (ys[1] - ys[0]) / h
        for j in range(1, n_r):
            fs[j] = (ys[j + 1] - ys[j - 1]) / (2 * h)
        fs[n_r] = rhs(0.0, ys[n_r])
        for m in range(n_fwd):
            i = n_r + m
            t = m * h
            z = ys[i]
            k1 = fs[i]
            k2 = rhs(t + h / 2, z + h / 2 * k1)
            k3 = rhs(t + h / 2, z + h / 2 * k2)
            k4 = rhs(t + h, z + h * k3)
            znew = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            ev = imp_nodes.get(i + 1)
            if ev is not None:
                znew = znew.copy()
                znew[1] = znew[1] + ev.map.velocity_jump(t + h, znew, u_at(t + h))
            ys[i + 1] = znew
            fs[i + 1] = rhs(t + h, znew)
        return ys

    hist = rho.copy()
    offsets = [int(round(tau / h)) for tau in spec.lags]
    for _ in range(max_iter):
        ys = sweep(hist)
        if not spec.lags:
            return ys
        gv = np.zeros((n_r + 1, 2, p.n_modes))
        for g, off in zip(spec.gammas, offsets):
            gv += g * ys[off : off + n_r + 1]
        residual = float(np.abs(ys[: n_r + 1] + gv - rho).max())
        if residual <= picard_tol:
            return ys
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
        row = row + spec.nonlinearity.evaluate(t, seg, u_val)
    return row


def implicit_trapezoid_sweep(spec, u_left, u_right, u_marks, hist_values, hist_marks, n_r):
    """The implicit-endpoint exponential-trapezoid sweep the integrator replaced.

    Each step resolves the trapezoid right endpoint by up to eight passes of
    an inner fixed point.  Kept as a bitwise reference for the explicit
    sweep in `beamctl.dynamics`, which must reproduce it exactly; the
    signature is that of the old `_sweep`.
    """
    p = spec.params
    h = spec.h
    n_total = n_r + spec.n_steps + 1
    e00, e01, e10, e11 = propagator_entries_for(np.array([h]), p.lam, p.c, p.d)
    e00, e01, e10, e11 = e00[0], e01[0], e10[0], e11[0]
    basis = spec.grid.basis(p.n_modes)
    quad_w = spec.grid.weight

    values = np.empty((n_total, 2, p.n_modes))
    values[: n_r + 1] = hist_values
    marks = dict(hist_marks)
    impulse_nodes = {n_r + int(round(ev.time / h)): ev for ev in spec.impulses}

    def rhs(t, node, current, u_val):
        seg = _SegmentView(values, marks, node, p.r, h, current)
        return u_val + _source_row(t, seg, current[0], u_val, spec, basis, quad_w)

    g_prev = rhs(0.0, n_r, values[n_r], u_right[0])
    half_h = 0.5 * h
    for j in range(1, spec.n_steps + 1):
        i = n_r + j
        t = j * h
        w0, y0 = values[i - 1]
        y_in = y0 + half_h * g_prev
        base_w = e00 * w0 + e01 * y_in
        base_y = e10 * w0 + e11 * y_in
        # Implicit trapezoid endpoint: only the velocity row moves, and the
        # contraction factor is h/2 times the state-Lipschitz bound of the
        # sources, so a couple of passes reach roundoff.
        current = np.vstack([base_w, base_y])
        row = rhs(t, i, current, u_left[j])
        for _ in range(8):
            y_new = base_y + half_h * row
            delta = float(np.max(np.abs(y_new - current[1])))
            current = np.vstack([base_w, y_new])
            scale = max(1.0, float(np.max(np.abs(y_new))))
            if delta <= 1e-13 * scale:
                break
            row = rhs(t, i, current, u_left[j])
        ev = impulse_nodes.get(i)
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
