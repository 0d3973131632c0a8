"""Sine-spectral discretization of the hinged beam on the unit interval.

The fourth-derivative operator with hinged ends diagonalizes in the
orthonormal basis sqrt(2)*sin(n*pi*x), n = 1, 2, ...  Everything in this
module works either on coefficient vectors in that basis ("modal
coefficients") or on samples over a uniform interior collocation grid.
The position component of the state lives in the fractional-power space
whose norm weights mode n by sqrt(lambda_n), lambda_n = (n*pi)**4.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SpatialGrid",
    "StateZ",
    "eigenvalue",
    "eigenvalues",
    "reconstruct",
    "positive_projector",
    "norm_z",
    "energy_norms",
    "pair_norm",
    "zero_state",
]


def eigenvalue(n: int) -> float:
    """Eigenvalue of the hinged fourth-derivative operator for mode n: (n*pi)**4."""
    if n < 1:
        raise ValueError(f"mode index must be >= 1, got {n}")
    return float(n) ** 4 * np.pi**4


def eigenvalues(n_modes: int) -> np.ndarray:
    """Vector of the first `n_modes` eigenvalues."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    n = np.arange(1, n_modes + 1, dtype=float)
    return n**4 * np.pi**4


@lru_cache(maxsize=32)
def _sine_table(n_points: int, n_modes: int) -> np.ndarray:
    """(G, N) table of sqrt(2)*sin(n*pi*x_i) on the interior grid."""
    x = np.arange(1, n_points + 1, dtype=float) / (n_points + 1)
    n = np.arange(1, n_modes + 1, dtype=float)
    return np.sqrt(2.0) * np.sin(np.pi * np.outer(x, n))


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform interior collocation grid x_i = i/(G+1), i = 1..G."""

    n_points: int

    def __post_init__(self) -> None:
        if self.n_points < 3:
            raise ValueError(f"grid needs at least 3 interior points, got {self.n_points}")

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(1, self.n_points + 1, dtype=float) / (self.n_points + 1)

    @property
    def weight(self) -> float:
        """Quadrature weight of the interior trapezoid rule (endpoints vanish)."""
        return 1.0 / (self.n_points + 1)

    def supports(self, n_modes: int) -> bool:
        """Anti-aliasing requirement for pointwise nonlinear operations."""
        return self.n_points >= 2 * n_modes + 1

    def basis(self, n_modes: int) -> np.ndarray:
        return _sine_table(self.n_points, n_modes)


def _require_resolution(grid: SpatialGrid, n_modes: int) -> None:
    if not grid.supports(n_modes):
        raise ValueError(
            f"grid with {grid.n_points} points too coarse for {n_modes} modes; "
            f"need at least {2 * n_modes + 1} interior points"
        )


def reconstruct(coeffs: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Grid samples of the function with the given modal coefficients."""
    coeffs = np.asarray(coeffs, dtype=float)
    return grid.basis(coeffs.shape[-1]) @ coeffs


def positive_projector(grid: SpatialGrid, n_modes: int, scale: float) -> np.ndarray:
    """The cable projector: modal projection of clipped grid samples, times `scale`.

    Checks the anti-aliasing bound G >= 2N + 1 and returns the (G, N)
    matrix P = basis * (scale * weight): for clipped grid samples
    s = max(basis @ c, 0), `np.dot(s, P)` is `scale` times the modal
    coefficients of max(f, 0), evaluated pseudo-spectrally (reference:
    `tests/oracles.positive_part`), up to rounding, the quadrature weight
    and the scale folded into one product.
    """
    _require_resolution(grid, n_modes)
    return grid.basis(n_modes) * (scale * grid.weight)


def energy_norms(values: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Energy norms of a stack of (2, N) coefficient pairs, shape (..., 2, N) -> (...).

    The position row is weighted by lambda_n; every norm in the package goes
    through this one expression, so equal inputs give bitwise equal norms.
    """
    return np.sqrt(
        np.sum(lam * values[..., 0, :] ** 2, axis=-1) + np.sum(values[..., 1, :] ** 2, axis=-1)
    )


def pair_norm(pair: np.ndarray, lam: np.ndarray) -> float:
    """Energy norm of a (2, N) coefficient pair: position weighted by lambda_n."""
    return float(energy_norms(pair, lam))


@dataclass(frozen=True)
class StateZ:
    """Instantaneous state: position coefficients `w` and velocity coefficients `y`."""

    w: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.w, dtype=float)
        y = np.array(self.y, dtype=float)
        if w.ndim != 1 or y.ndim != 1 or w.shape != y.shape:
            raise ValueError(f"w and y must be equal-length vectors, got {w.shape} and {y.shape}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(y))):
            raise ValueError("state coefficients must be finite")
        w.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "y", y)

    @property
    def n_modes(self) -> int:
        return self.w.shape[0]

    def to_pair(self) -> np.ndarray:
        return np.vstack([self.w, self.y])

    @classmethod
    def from_pair(cls, pair: np.ndarray) -> "StateZ":
        return cls(pair[0], pair[1])

    def __add__(self, other: "StateZ") -> "StateZ":
        return StateZ(self.w + other.w, self.y + other.y)

    def __sub__(self, other: "StateZ") -> "StateZ":
        return StateZ(self.w - other.w, self.y - other.y)

    def __rmul__(self, a: float) -> "StateZ":
        return StateZ(a * self.w, a * self.y)


def zero_state(n_modes: int) -> StateZ:
    return StateZ(np.zeros(n_modes), np.zeros(n_modes))


def norm_z(z: StateZ) -> float:
    """Energy norm of a state: sqrt(sum lambda_n * w_n**2 + |y|**2)."""
    return pair_norm(z.to_pair(), eigenvalues(z.n_modes))
