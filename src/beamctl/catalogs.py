"""Catalog entries for forcing terms, nonlinear perturbations, and impulse maps.

Every entry declares the constants the synthesis module consumes: a
Lipschitz bound with respect to the sup norm of the delay segment, a
growth envelope (alpha1, beta1, and a scalar envelope function), and
whether the entry reads the instantaneous control value.  A perturbation
reads the delay segment at most at its endpoint, the state at t - r, in
which the growth envelope is stated too, so it receives that state alone.
Entries that depend on the control are rejected by the
exact-controllability driver, which requires state-only perturbations.
Each entry names the `params` keys it uses; any other key is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError

__all__ = [
    "Forcing",
    "Nonlinearity",
    "ImpulseMap",
    "ImpulseEvent",
    "make_forcing",
    "make_nonlinearity",
    "make_impulse_map",
    "FORCING_KINDS",
    "NONLINEARITY_KINDS",
    "IMPULSE_KINDS",
    "entry_params",
    "param_list",
]

# Each catalog entry and the `params` keys it uses.
FORCING_KINDS = {"zero": (), "harmonic": ("coeffs", "omega", "phase")}
NONLINEARITY_KINDS = {
    "zero": (),
    "bounded_wave": ("amp", "coeffs", "omega", "phase"),
    "delayed_saturation": ("amp",),
    "control_saturation": ("amp",),
}
IMPULSE_KINDS = {
    "constant_kick": ("coeffs",),
    "velocity_kick": ("amp",),
    "saturating_kick": ("amp",),
    "control_kick": ("amp",),
}


def entry_params(what: str, kind, params: dict | None, kinds: dict) -> dict:
    """`params` (default empty) once `kind` is an entry of `kinds` that uses every key."""
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"unknown {what} catalog entry '{kind}' (known: {tuple(kinds)})")
    params = params or {}
    for key in params:
        if key not in kinds[kind]:
            uses = ", ".join(kinds[kind]) or "no params"
            raise ConfigError(f"unknown key; '{kind}' uses {uses}", f"params.{key}")
    return params


def _is_real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _param(params: dict, key: str) -> float:
    """A scalar catalog parameter (default 0); errors name `params.<key>`."""
    value = params.get(key, 0.0)
    if not _is_real(value):
        raise ConfigError(f"expected a number, got {value!r}", f"params.{key}")
    return float(value)


def param_list(params: dict, key: str) -> np.ndarray:
    """A list-of-numbers catalog parameter (default empty); errors name `params.<key>`."""
    value = params.get(key, [])
    if not isinstance(value, (list, tuple)) or not all(map(_is_real, value)):
        raise ConfigError(f"expected a list of numbers, got {value!r}", f"params.{key}")
    return np.array(value, dtype=float)


def _profile(params: dict, n_modes: int, key: str = "coeffs") -> np.ndarray:
    coeffs = param_list(params, key)
    if not 0 < coeffs.size <= n_modes:
        raise ConfigError(f"must list 1..{n_modes} modal coefficients", f"params.{key}")
    out = np.zeros(n_modes)
    out[: coeffs.size] = coeffs
    return out


@dataclass(frozen=True)
class Forcing:
    """Bounded distributed load p(t) = cos(omega*t + phase) * profile."""

    kind: str
    profile: np.ndarray
    omega: float = 0.0
    phase: float = 0.0

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    def __call__(self, t) -> np.ndarray:
        """p(t) for a time, (N,), or for a block of times (n,), (n, N)."""
        if self.is_zero:
            return np.zeros(np.shape(t) + self.profile.shape)
        return np.multiply.outer(np.cos(self.omega * t + self.phase), self.profile)


def make_forcing(kind: str, n_modes: int, params: dict | None = None) -> Forcing:
    params = entry_params("forcing", kind, params, FORCING_KINDS)
    if kind == "zero":
        return Forcing("zero", np.zeros(n_modes))
    return Forcing(
        "harmonic", _profile(params, n_modes), _param(params, "omega"), _param(params, "phase")
    )


@dataclass(frozen=True)
class Nonlinearity:
    """Nonlinear perturbation f(t, segment, u) valued in modal coefficients.

    An entry reads the segment at most at its endpoint segment(-r), the
    state at t - r.  `lipschitz` bounds the increment in the X norm against
    the sup norm of the segment difference; `alpha1`, `beta1`, and
    `envelope` give the growth bound alpha1 * envelope(|segment(-r)|) + beta1.
    """

    kind: str
    amp: float
    profile: np.ndarray | None = None
    omega: float = 0.0
    phase: float = 0.0
    lipschitz: float = 0.0
    alpha1: float = 0.0
    beta1: float = 0.0
    envelope_kind: str = "zero"
    envelope_cap: float = 0.0
    u_dependent: bool = False

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    def envelope(self, x):
        """The envelope function at segment norms x, elementwise (a scalar or an array)."""
        if self.envelope_kind == "zero":
            return np.zeros(np.shape(x))
        return np.minimum(x, self.envelope_cap)

    def evaluate(self, t, delayed: np.ndarray, u_val: np.ndarray | None) -> np.ndarray:
        """f at time t from `delayed`, the (2, N) right-limit state at t - r, and the control.

        Also takes a block of n nodes: times (n,), delayed states (n, 2, N)
        and control rows (n, N), and returns the (n, N) rows; every entry is
        elementwise in the node, so a row equals that node's own evaluation.
        """
        if self.kind == "zero":
            raise RuntimeError("zero nonlinearity should be short-circuited by callers")
        if self.kind == "bounded_wave":
            return np.multiply.outer(self.amp * np.cos(self.omega * t + self.phase), self.profile)
        if self.kind == "delayed_saturation":
            return self.amp * np.tanh(delayed[..., 1, :])
        # control_saturation
        if u_val is None:
            raise ValueError("catalog entry 'control_saturation' needs a control value")
        return self.amp * np.tanh(u_val)


def make_nonlinearity(
    kind: str,
    n_modes: int,
    params: dict | None = None,
    lipschitz: float | None = None,
    alpha1: float | None = None,
    beta1: float | None = None,
) -> Nonlinearity:
    """Build a catalog entry; explicit constants override the derived defaults."""
    params = entry_params("nonlinearity", kind, params, NONLINEARITY_KINDS)
    amp = _param(params, "amp")
    if kind == "zero":
        entry = Nonlinearity("zero", 0.0)
    elif kind == "bounded_wave":
        profile = _profile(params, n_modes) if "coeffs" in params else None
        if profile is None:
            profile = np.zeros(n_modes)
            profile[0] = 1.0
        norm = np.linalg.norm(profile)
        if norm == 0:
            raise ConfigError("bounded_wave profile must be nonzero")
        entry = Nonlinearity(
            "bounded_wave",
            amp,
            profile / norm,
            _param(params, "omega"),
            _param(params, "phase"),
            lipschitz=0.0,
            alpha1=0.0,
            beta1=abs(amp),
            envelope_kind="zero",
        )
    elif kind == "delayed_saturation":
        # tanh is 1-Lipschitz and bounded by sqrt(N) in the coefficient norm.
        entry = Nonlinearity(
            "delayed_saturation",
            amp,
            lipschitz=abs(amp),
            alpha1=abs(amp),
            beta1=0.0,
            envelope_kind="clip",
            envelope_cap=float(np.sqrt(n_modes)),
        )
    else:  # control_saturation
        entry = Nonlinearity(
            "control_saturation",
            amp,
            lipschitz=0.0,
            alpha1=0.0,
            beta1=abs(amp) * float(np.sqrt(n_modes)),
            envelope_kind="zero",
            u_dependent=True,
        )
    overrides = {
        name: float(value)
        for name, value in (("lipschitz", lipschitz), ("alpha1", alpha1), ("beta1", beta1))
        if value is not None
    }
    return replace(entry, **overrides) if overrides else entry


@dataclass(frozen=True)
class ImpulseMap:
    """Instantaneous velocity jump applied when the trajectory crosses t_k.

    `velocity_jump` consumes the left-limit state (a (2, N) pair) and the
    control value at the impulse time; `d_k` is the declared Lipschitz
    bound of the jump with respect to the state in the energy norm.
    """

    kind: str
    amp: float
    profile: np.ndarray | None
    d_k: float
    u_dependent: bool = False

    def velocity_jump(self, t: float, pair: np.ndarray, u_val: np.ndarray | None) -> np.ndarray:
        if self.kind == "constant_kick":
            return self.profile.copy()
        if self.kind == "velocity_kick":
            return self.amp * pair[1]
        if self.kind == "saturating_kick":
            return self.amp * np.tanh(pair[1])
        # control_kick
        if u_val is None:
            raise ValueError("catalog entry 'control_kick' needs a control value")
        return self.amp * u_val


def make_impulse_map(
    kind: str, n_modes: int, params: dict | None = None, d_k: float | None = None
) -> ImpulseMap:
    params = entry_params("impulse", kind, params, IMPULSE_KINDS)
    amp = _param(params, "amp")
    if kind == "constant_kick":
        entry = ImpulseMap("constant_kick", 0.0, _profile(params, n_modes), d_k=0.0)
    elif kind == "velocity_kick":
        entry = ImpulseMap("velocity_kick", amp, None, d_k=abs(amp))
    elif kind == "saturating_kick":
        entry = ImpulseMap("saturating_kick", amp, None, d_k=abs(amp))
    else:  # control_kick
        entry = ImpulseMap("control_kick", amp, None, d_k=0.0, u_dependent=True)
    return entry if d_k is None else replace(entry, d_k=float(d_k))


@dataclass(frozen=True)
class ImpulseEvent:
    """An impulse map scheduled at a fixed time."""

    time: float
    map: ImpulseMap

    @property
    def d_k(self) -> float:
        return self.map.d_k
