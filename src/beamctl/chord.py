"""The chord step of the nonlocal history iteration.

`dynamics.integrate_mild` resolves the history x on [-r, 0] as the fixed
point of H(x)(theta) = rho(theta) - sum_j gamma_j z(theta + tau_j), z the
trajectory swept from x.  Most of x - H(x) is linear and known in closed
form, P x = x + sum_j gamma_j Y_j(x): Y_j reads x itself where
theta + tau_j <= 0 and the linear flow E(theta + tau_j) x(0) after it.
The chord method (Kelley, *Iterative Methods for Linear and Nonlinear
Equations*, SIAM 1995, ch. 5) takes P as a fixed Jacobian, so each update
is x - P^-1 (x - H(x)), and only the cable, the catalog term and the kicks
are left to iterate.  P^-1 is in closed form: `linear_part` tabulates it
once per integration and `correction` applies it.  The iterate is the node
values alone, jumps in the history window or not: no sweep reads the
history's left limits, which `dynamics` solves once from the converged sweep.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalError
from .semigroup import propagator_entries_for

if TYPE_CHECKING:
    from .dynamics import ProblemSpec


def linear_part(spec: ProblemSpec):
    """(flow, inverse): the tables of P for the lags and coefficients of `spec`.

    `flow` holds the entries e00, e01, e10, e11 of E(k h) at the lag nodes
    k = 0, ..., tau_q/h, each (tau_q/h + 1, N); `inverse` the entries of the
    per-mode inverses of I + sum_j gamma_j E(tau_j), each (N,), in closed
    form.  NumericalError names the first mode whose matrix is singular:
    its inverse would amplify the energy norm by 1e12 or more (the bound
    ||M^-1|| <= ||M||_F / |det M| in the energy-balanced coordinates), and
    the nonlocal condition then does not determine the history at t = 0.
    """
    p, lags = spec.params, spec.lag_nodes
    flow = propagator_entries_for(spec.h * np.arange(lags[-1] + 1), p.lam, p.c, p.d)
    a, b, c, d = (sum(g * e[k] for g, k in zip(spec.gammas, lags)) for e in flow)
    a, d = a + 1.0, d + 1.0
    det = a * d - b * c
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = np.sqrt(a * a + d * d + p.lam * b * b + c * c / p.lam) / np.abs(det)
    singular = ~(gain < 1e12)
    if singular.any():
        mode = int(np.argmax(singular)) + 1
        raise NumericalError(
            f"history iteration: I + sum gamma_j E(tau_j) is singular in mode {mode} "
            f"(determinant {det[mode - 1]:.3e})"
        )
    return flow, (d / det, -b / det, -c / det, a / det)


def correction(res: np.ndarray, tables, spec: ProblemSpec) -> np.ndarray:
    """P^-1 res on the history nodes [-r, 0], from the tables of `linear_part`.

    y(0) solves the per-mode 2x2 system (I + sum_j gamma_j E(tau_j)) y(0)
    = res(0), and each node before it reads only later ones:
    y(theta) = res(theta) - sum_j gamma_j Y_j(theta), solved backward in
    blocks of tau_1/h nodes over the history followed by the flow of y(0)
    on (0, tau_q].
    """
    (e00, e01, e10, e11), (i00, i01, i10, i11) = tables
    n_r, lags = spec.n_r, spec.lag_nodes
    ext = np.empty((n_r + lags[-1] + 1, 2, spec.params.n_modes))
    r_w, r_y = res[n_r]
    w0, y0 = i00 * r_w + i01 * r_y, i10 * r_w + i11 * r_y
    ext[n_r:, 0] = e00 * w0 + e01 * y0
    ext[n_r:, 1] = e10 * w0 + e11 * y0
    hi = n_r
    while hi > 0:
        lo = max(hi - lags[0], 0)
        block = ext[lo:hi]
        block[...] = res[lo:hi]
        for g, k in zip(spec.gammas, lags):
            block -= g * ext[lo + k : hi + k]
        hi = lo
    return ext[: n_r + 1]
