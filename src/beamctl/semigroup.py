"""Closed-form per-mode propagators for the damped beam group.

The first-order system decouples across sine modes into 2x2 companion
blocks [[0, 1], [-d*lambda_n, -c]].  Their exponentials have exact branch
formulas (oscillatory, overdamped, critically damped), which stay accurate
at the large stiffness values lambda_n = (n*pi)**4 where series or
scaling-and-squaring methods degrade.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import StateZ, eigenvalues

__all__ = [
    "ModelParams",
    "force_column_on_grid",
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
    """Triple (S, C0, C1) with exp(Mt) = S * (C0*I + C1*(M - shift*I)).

    Valid for any real 2x2 M with trace 2*shift and determinant det, since
    (M - shift*I)^2 = q*I, q = shift^2 - det, by Cayley-Hamilton.  Each
    entry's branch is decided by its own q and evaluated on its entries only:
    (1, t) where |q| is under the threshold or 0, cos/sin of omega*t,
    omega = sqrt(|q|), where q < 0; on both, S = exp(shift*t).  Where q > 0
    the exponential is folded into the coefficients and S = 1:
    C0 = 1/2 e^((omega+shift)t) (1 + e^(-2 omega t)) and
    C1 = -1/2 e^((omega+shift)t) expm1(-2 omega t) / omega, which are
    exp(shift*t) cosh(omega*t) and exp(shift*t) sinh(omega*t)/omega without
    the overflow of cosh and sinh once omega*t > 710.  Arguments broadcast;
    `t` may be an array.  S has the shape of shift*t, or the coefficients'
    shape where some entry is hyperbolic.
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
    scale = np.exp(shift * t)
    c0 = np.ones(wt.shape)
    c1 = np.array(np.broadcast_to(t, wt.shape))
    np.cos(wt, out=c0, where=oscillatory)
    np.sin(wt, out=c1, where=oscillatory)
    np.divide(c1, omega, out=c1, where=oscillatory)
    if hyperbolic.any():
        scale = np.where(hyperbolic, 1.0, scale)
        half = np.exp((omega + shift) * t, out=np.zeros(wt.shape), where=hyperbolic)
        half *= 0.5
        fold = np.expm1(-2.0 * wt, out=np.zeros(wt.shape), where=hyperbolic)
        np.multiply(half, 2.0 + fold, out=c0, where=hyperbolic)
        np.multiply(half, fold, out=c1, where=hyperbolic)
        np.divide(c1, -omega, out=c1, where=hyperbolic)
    return scale, c0, c1


def force_column_on_grid(n: int, h: float, lam: np.ndarray, c: float, d: float):
    """The force column (e01, e11) at t = (n - i)*h for i = 0..n, by the semigroup law.

    Row i is the time left from node i to the end of an n-step grid of
    step h, so the rows run in node order.  With the stride
    s = ceil(sqrt(n + 1)), the last (n + 1) mod s rows are closed-form
    rows, e01 and e11 of `propagator_entries_for`, and every block of s
    rows above them is E(q*h) (e01, e11)(j*h), j = s - 1 .. 0: one
    closed-form propagator at the block's knot q*h, its last row's time,
    applied to the s closed-form fine rows.  The knot rows and the rows
    below the blocks are the closed form at their times, bitwise but for
    the sign of an underflowed zero; the others differ from it by rounding.
    About 2 sqrt(n) rows take a transcendental call, instead of all n + 1,
    and the stride minimises that count.  Returns two C-contiguous arrays
    of shape (n + 1, len(lam)).
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    stride = math.isqrt(n) + 1  # ceil(sqrt(n + 1))
    blocks, rest = divmod(n + 1, stride)
    fine = np.stack(propagator_entries_for(h * np.arange(stride - 1, -1, -1), lam, c, d)[1::2])
    knots = propagator_entries_for(h * (rest + stride * np.arange(blocks - 1, -1, -1)), lam, c, d)
    # Two arrays of their own, not views of one: a single (2, n + 1, N)
    # table raised wide-steer's peak RSS by 1.5 MB (2-vCPU Linux host).
    column = []
    for entry, knot_row in enumerate((knots[:2], knots[2:])):
        table = np.empty((n + 1, lam.size))
        table[blocks * stride :] = fine[entry, stride - rest :]
        # Block a, row j: knot_row[0] * e01 + knot_row[1] * e11, the entry
        # of E(q_a*h) applied to fine row j.
        np.einsum(
            "apn,pjn->ajn",
            np.stack(knot_row, axis=1),
            fine,
            out=table[: blocks * stride].reshape(blocks, stride, lam.size),
        )
        column.append(table)
    return column[0], column[1]


def propagator_entries_for(ts: np.ndarray, lam: np.ndarray, c: float, d: float):
    """Entries of exp(A_n * t) for the given eigenvalues and times.

    Returns four arrays of shape (len(ts), len(lam)): e00, e01, e10, e11,
    from exp(A_n * t) = S * (C0*I + C1*(A_n + c/2*I)) with the coefficients
    of `_branch_coefficients`; (e01, e11) is the force column, the response
    to a unit velocity.  The adjoint block in the energy inner product,
    D^-1 E^T D with D = diag(lambda_n, 1), reuses them: same diagonal,
    off-diagonals e10/lambda_n and e01*lambda_n.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    scale, c0, c1 = _branch_coefficients(-0.5 * c, (d * lam)[None, :], ts[:, None])
    e00 = scale * (c0 + 0.5 * c * c1)
    e01 = scale * c1
    e10 = scale * (-d * lam[None, :] * c1)
    e11 = scale * (c0 - 0.5 * c * c1)
    return e00, e01, e10, e11


def propagator_matrix(h: float, lam: np.ndarray, c: float, d: float) -> np.ndarray:
    """Step matrix of the exponential-trapezoid scheme for sources in the velocity row.

    Returns the (2N, 3N) matrix F that maps a row [w, y, s] to the pair
    E(h) (w, y + s), flattened: the exact propagation of the state and of
    s = h/2 g, the trapezoid term of the source at the step's first node,
    so F's s-columns equal its y-columns.  The step is closed by adding h/2
    times the source at the new node to the velocity, the same h/2 g that
    opens the next step, so each node has one source value, the control's
    included; summed over steps this is the trapezoid convolution of the
    source against the propagator.  The mild-solution sweep closes a block of
    steps at a time and steps with F's columns rearranged for that
    (`dynamics`); `control.integrate_linear`, which no command calls,
    closes each step at once.  A control alone needs no march: its
    convolution is one sum against the `force_column_on_grid` table.
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
