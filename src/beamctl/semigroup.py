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

from .spectral import StateZ, eigenvalues

__all__ = [
    "ModelParams",
    "force_column",
    "propagator_entries_for",
    "propagator_matrix",
    "apply_semigroup",
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


def _branch_coefficients(shift, det, t):
    """Pair (C0, C1) with exp(Mt) = exp(shift*t) * (C0*I + C1*(M - shift*I)).

    Valid for any real 2x2 M with trace 2*shift and determinant det, since
    (M - shift*I)^2 = q*I, q = shift^2 - det, by Cayley-Hamilton.  Each
    entry's branch is decided by its own q and evaluated on its entries only:
    (1, t) where |q| is under the threshold or 0, cosh/sinh of sqrt(q)*t
    where q > 0, cos/sin otherwise.  Arguments broadcast; `t` may be an array.
    """
    shift = np.asarray(shift, dtype=float)
    det = np.asarray(det, dtype=float)
    t = np.asarray(t, dtype=float)
    quarter_disc = shift**2 - det
    thresh = _DISC_RTOL * np.maximum(shift**2, np.abs(det))
    repeated = (np.abs(quarter_disc) < thresh) | (quarter_disc == 0)
    hyperbolic = (quarter_disc > 0) & ~repeated
    oscillatory = ~(repeated | hyperbolic)

    omega = np.sqrt(np.abs(quarter_disc))
    wt = omega * t
    c0 = np.ones(wt.shape)
    c1 = np.array(np.broadcast_to(t, wt.shape))
    for on, even, odd in ((oscillatory, np.cos, np.sin), (hyperbolic, np.cosh, np.sinh)):
        even(wt, out=c0, where=on)
        odd(wt, out=c1, where=on)
        np.divide(c1, omega, out=c1, where=on)
    return c0, c1


def _scaled_coefficients(ts, lam, c: float, d: float):
    """(scale, C0, C1) of exp(A_n * t), shapes (len(ts), 1) and (len(ts), len(lam)).

    exp(A_n * t) = scale * (C0*I + C1*(A_n + c/2*I)) with scale = exp(-c*t/2).
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    c0, c1 = _branch_coefficients(-0.5 * c, (d * lam)[None, :], ts[:, None])
    return np.exp(-0.5 * c * ts)[:, None], c0, c1


def _force_entries(scale, c0, c1, c: float):
    """(e01, e11) from the scaled coefficients; overwrites c0 and c1."""
    e01 = scale * c1
    c1 *= 0.5 * c
    e11 = np.subtract(c0, c1, out=c0)
    e11 *= scale
    return e01, e11


def force_column(ts: np.ndarray, lam: np.ndarray, c: float, d: float):
    """The force column (e01, e11) of exp(A_n * t): the response to a unit velocity.

    Returns two arrays of shape (len(ts), len(lam)), bitwise those of
    `propagator_entries_for`, without tabulating e00 and e10.
    """
    return _force_entries(*_scaled_coefficients(ts, lam, c, d), c)


def propagator_entries_for(ts: np.ndarray, lam: np.ndarray, c: float, d: float):
    """Entries of exp(A_n * t) for the given eigenvalues and times.

    Returns four arrays of shape (len(ts), len(lam)): e00, e01, e10, e11.
    The adjoint block in the energy inner product, D^-1 E^T D with
    D = diag(lambda_n, 1), reuses them: same diagonal, off-diagonals
    e10/lambda_n and e01*lambda_n.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    scale, c0, c1 = _scaled_coefficients(ts, lam, c, d)
    e00 = scale * (c0 + 0.5 * c * c1)
    e10 = scale * (-d * lam[None, :] * c1)
    e01, e11 = _force_entries(scale, c0, c1, c)
    return e00, e01, e10, e11


def propagator_matrix(h: float, lam: np.ndarray, c: float, d: float) -> np.ndarray:
    """Step matrix of the exponential-trapezoid scheme for sources in the velocity row.

    Returns the (2N, 3N) matrix F that maps a row [w, y, s] to the pair
    E(h) (w, y + s), flattened: the exact propagation of the state and of
    the left half s = h/2 g of the trapezoid source, so F's s-columns equal
    its y-columns.  The step is closed by adding h/2 times the source at the
    new node to the velocity, the same h/2 g that opens the next step;
    summed over steps this is the trapezoid convolution of the source
    against the propagator.  The mild-solution sweep closes a block of
    steps at a time and steps with F's columns rearranged for that
    (`dynamics`); `control.integrate_linear`, which no command calls,
    closes each step at once.  A control alone needs no march: its
    convolution is one sum against the `force_column` table.
    """
    e00, e01, e10, e11 = (e[0] for e in propagator_entries_for(np.array([h]), lam, c, d))
    return np.block([[np.diag(e) for e in (e00, e01, e01)], [np.diag(e) for e in (e10, e11, e11)]])


def apply_semigroup(z: StateZ, t: float, p: ModelParams) -> StateZ:
    """Propagate a state by time t (any sign) under the homogeneous dynamics."""
    if z.n_modes != p.n_modes:
        raise ValueError(f"state has {z.n_modes} modes, params expect {p.n_modes}")
    if t == 0.0:
        return z
    e00, e01, e10, e11 = (e[0] for e in propagator_entries_for(np.array([t]), p.lam, p.c, p.d))
    return StateZ(e00 * z.w + e01 * z.y, e10 * z.w + e11 * z.y)


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


def operator_norm_bound(p: ModelParams) -> float:
    """Upper bound on sup over t >= 0 of the energy operator norm of S(t).

    With c > 0 each mode's energy d*lambda_n*w^2 + y^2 does not increase
    along the flow.  The energy norm weights the position by lambda_n
    instead of d*lambda_n, and trading one weight for the other costs at
    most a factor sqrt(d) or 1/sqrt(d), so |S(t)| <= max(sqrt(d),
    1/sqrt(d)): exactly 1 at d = 1, where S(0) = I attains it.
    """
    root = float(np.sqrt(p.d))
    return max(root, 1.0 / root)
