"""Closed-form per-mode propagators for the damped beam group.

The first-order system decouples across sine modes into 2x2 companion
blocks [[0, 1], [-d*lambda_n, -c]].  Their exponentials have exact branch
formulas (oscillatory, overdamped, critically damped), which stay accurate
at the large stiffness values lambda_n = (n*pi)**4 where series or
scaling-and-squaring methods degrade.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import StateZ, eigenvalue, eigenvalues

__all__ = [
    "ModelParams",
    "mode_matrix",
    "mode_adjoint_matrix",
    "expm2",
    "propagator_entries",
    "propagator_entries_for",
    "exponential_step",
    "semigroup_blocks",
    "adjoint_blocks",
    "apply_semigroup",
    "apply_adjoint_semigroup",
    "weighted_block_norms",
    "operator_norm_bound",
]

# Below this relative size the discriminant branch switches to the
# repeated-root limit; the two-root formula cancels catastrophically there.
_DISC_RTOL = 1e-9


@dataclass(frozen=True)
class ModelParams:
    """Physical and discretization parameters of the controlled beam.

    c: viscous damping, d: bending stiffness, k: one-sided cable stiffness,
    n_modes: spectral truncation, T: control horizon, r: delay span.
    """

    c: float
    d: float
    k: float
    n_modes: int
    T: float
    r: float

    def __post_init__(self) -> None:
        if self.c <= 0:
            raise ValueError(f"damping c must be positive, got {self.c}")
        if self.d <= 0:
            raise ValueError(f"stiffness d must be positive, got {self.d}")
        if self.k <= 0:
            raise ValueError(f"cable constant k must be positive, got {self.k}")
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {self.n_modes}")
        if self.T <= 0:
            raise ValueError(f"horizon T must be positive, got {self.T}")
        if not 0 < self.r < self.T:
            raise ValueError(f"delay span must satisfy 0 < r < T, got r={self.r}, T={self.T}")

    @property
    def lam(self) -> np.ndarray:
        return eigenvalues(self.n_modes)


def mode_matrix(n: int, p: ModelParams) -> np.ndarray:
    """Generator block of mode n: [[0, 1], [-d*lambda_n, -c]]."""
    lam = eigenvalue(n)
    return np.array([[0.0, 1.0], [-p.d * lam, -p.c]])


def mode_adjoint_matrix(n: int, p: ModelParams) -> np.ndarray:
    """Adjoint of the generator block in the energy inner product.

    With the mode-n weight D = diag(lambda_n, 1) the adjoint is
    D^-1 A^T D = [[0, -d], [lambda_n, -c]].
    """
    lam = eigenvalue(n)
    return np.array([[0.0, -p.d], [lam, -p.c]])


def _branch_coefficients(shift, det, t):
    """Pair (C0, C1) with exp(Mt) = exp(shift*t) * (C0*I + C1*(M - shift*I)).

    Valid for any real 2x2 M with trace 2*shift and determinant det, since
    (M - shift*I)^2 = (shift^2 - det) * I by Cayley-Hamilton.  Arguments
    broadcast; `t` may be an array.
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


def propagator_entries_for(ts: np.ndarray, lam: np.ndarray, c: float, d: float):
    """Entries of exp(A_n * t) for the given eigenvalues and times.

    Returns four arrays of shape (len(ts), len(lam)): e00, e01, e10, e11.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    det = d * lam
    c0, c1 = _branch_coefficients(-0.5 * c, det[None, :], ts[:, None])
    scale = np.exp(-0.5 * c * ts)[:, None]
    half_c = 0.5 * c
    e00 = scale * (c0 + half_c * c1)
    e01 = scale * c1
    e10 = scale * (-d * lam[None, :] * c1)
    e11 = scale * (c0 - half_c * c1)
    return e00, e01, e10, e11


def exponential_step(h: float, lam: np.ndarray, c: float, d: float):
    """Kernel of the exponential-trapezoid scheme for sources in the velocity row.

    Returns `step(prev, g, out)`, which writes E(h) (w, y + h/2 g) into the
    (2, N) pair `out` for the pair `prev` = (w, y): the exact propagation of
    the state and of the left half of the trapezoid source.  The caller
    closes the step by adding h/2 times the source at the new node to
    `out[1]`; summed over steps this is the trapezoid convolution of the
    source against the propagator.
    """
    e00, e01, e10, e11 = (e[0] for e in propagator_entries_for(np.array([h]), lam, c, d))
    half_h = 0.5 * h

    def step(prev: np.ndarray, g: np.ndarray, out: np.ndarray) -> None:
        w = prev[0]
        y_in = prev[1] + half_h * g
        out[0] = e00 * w + e01 * y_in
        out[1] = e10 * w + e11 * y_in

    return step


def propagator_entries(ts: np.ndarray, p: ModelParams):
    """Entries of exp(A_n * t) for every mode and every time in `ts`.

    Returns four arrays of shape (len(ts), n_modes): e00, e01, e10, e11.
    The adjoint-block entries come from the same evaluation (both blocks
    share trace and determinant); see `adjoint_blocks`.
    """
    return propagator_entries_for(ts, p.lam, p.c, p.d)


def semigroup_blocks(t: float, p: ModelParams) -> np.ndarray:
    """(n_modes, 2, 2) array of per-mode propagator blocks at time t."""
    e00, e01, e10, e11 = propagator_entries(np.array([t]), p)
    blocks = np.empty((p.n_modes, 2, 2))
    blocks[:, 0, 0] = e00[0]
    blocks[:, 0, 1] = e01[0]
    blocks[:, 1, 0] = e10[0]
    blocks[:, 1, 1] = e11[0]
    return blocks


def adjoint_blocks(t: float, p: ModelParams) -> np.ndarray:
    """Per-mode blocks of the adjoint propagator in the energy inner product.

    Related to the direct block E by D^-1 E^T D with D = diag(lambda_n, 1):
    same diagonal, off-diagonals rescaled by lambda_n.
    """
    lam = p.lam
    e00, e01, e10, e11 = propagator_entries(np.array([t]), p)
    blocks = np.empty((p.n_modes, 2, 2))
    blocks[:, 0, 0] = e00[0]
    blocks[:, 0, 1] = e10[0] / lam
    blocks[:, 1, 0] = e01[0] * lam
    blocks[:, 1, 1] = e11[0]
    return blocks


def _apply_blocks(blocks: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Apply per-mode 2x2 blocks to a (2, N) coefficient pair."""
    w, y = pair[0], pair[1]
    return np.vstack(
        [
            blocks[:, 0, 0] * w + blocks[:, 0, 1] * y,
            blocks[:, 1, 0] * w + blocks[:, 1, 1] * y,
        ]
    )


def apply_semigroup(z: StateZ, t: float, p: ModelParams) -> StateZ:
    """Propagate a state by time t (any sign) under the homogeneous dynamics."""
    if z.n_modes != p.n_modes:
        raise ValueError(f"state has {z.n_modes} modes, params expect {p.n_modes}")
    if t == 0.0:
        return z
    return StateZ.from_pair(_apply_blocks(semigroup_blocks(t, p), z.to_pair()))


def apply_adjoint_semigroup(z: StateZ, t: float, p: ModelParams) -> StateZ:
    if z.n_modes != p.n_modes:
        raise ValueError(f"state has {z.n_modes} modes, params expect {p.n_modes}")
    return StateZ.from_pair(_apply_blocks(adjoint_blocks(t, p), z.to_pair()))


def weighted_block_norms(e00, e01, e10, e11, lam) -> np.ndarray:
    """Spectral norms of D^(1/2) E D^(-1/2): the per-mode energy operator norms.

    Accepts broadcastable entry arrays; returns the elementwise norm array.
    """
    rl = np.sqrt(lam)
    f00 = e00
    f01 = e01 * rl
    f10 = e10 / rl
    f11 = e11
    # Largest singular value of a 2x2 matrix in closed form.
    frob2 = f00**2 + f01**2 + f10**2 + f11**2
    det = f00 * f11 - f01 * f10
    gap = np.sqrt(np.maximum(frob2**2 - 4.0 * det**2, 0.0))
    return np.sqrt(0.5 * (frob2 + gap))


def operator_norm_bound(p: ModelParams, time_step: float | None = None) -> float:
    """Grid estimate of sup over [0, T] of the energy operator norm of S(s).

    Maximizes the per-mode weighted block norm over modes 1..n_modes and a
    uniform time grid (default step T/2000).  Always >= 1 since S(0) = I.
    """
    if time_step is None:
        time_step = p.T / 2000.0
    if time_step <= 0:
        raise ValueError(f"time step must be positive, got {time_step}")
    n = max(int(round(p.T / time_step)), 1)
    ts = np.linspace(0.0, p.T, n + 1)
    e00, e01, e10, e11 = propagator_entries(ts, p)
    norms = weighted_block_norms(e00, e01, e10, e11, p.lam[None, :])
    return float(norms.max())
