"""The constants each catalog entry derives bound the map it runs.

For random parameters and states, every nonlinearity satisfies
|f(x) - f(x')| <= l_f |x - x'| and |f(x)| <= alpha1 H(|x|) + beta1, and
every impulse map |J(x) - J(x')| <= d_k |x - x'|, with states in the
energy norm and values, velocity rows, in the coefficient norm, which is
the energy norm of (0, v).  An entry reads the delay segment at most at
its endpoint, so a bound there is the bound against the segment's sup
norm.  The growth envelope of `delayed_saturation` and the L_q bound are
tested in tests/test_dynamics.py.
"""

import numpy as np
import pytest

from beamctl.catalogs import (
    IMPULSE_KINDS,
    NONLINEARITY_KINDS,
    make_impulse_map,
    make_nonlinearity,
)
from beamctl.spectral import eigenvalues, energy_norms

N_MODES = 6
# States and their differences span the linear and the saturated range of tanh.
SCALES = (1e-3, 1.0, 1e3)
# Rounding slack, relative to the bound and to the values compared.
REL = 1e-12


def random_params(rng, keys) -> dict:
    """Random values for an entry's `params` keys, negative amplitudes included."""
    draw = {
        "amp": lambda: float(rng.uniform(-3.0, 3.0)),
        "coeffs": lambda: rng.normal(size=int(rng.integers(1, N_MODES + 1))).tolist(),
        "omega": lambda: float(rng.uniform(-10.0, 10.0)),
        "phase": lambda: float(rng.uniform(-np.pi, np.pi)),
    }
    return {key: draw[key]() for key in keys}


def random_pairs(rng, n=50):
    """n (2, N) states of random scale."""
    return rng.normal(size=(n, 2, N_MODES)) * rng.choice(SCALES, size=(n, 1, 1))


def random_differences(rng, n=50):
    """n (2, N) differences; half move the velocity alone, where the bounds are tight."""
    diff = random_pairs(rng, n)
    diff[: n // 2, 0] = 0.0
    return diff


def within(lhs, rhs, *values):
    """lhs <= rhs up to rounding in rhs and in `values`, the norms lhs was computed from."""
    return np.all(lhs <= rhs + REL * (rhs + sum(values)))


def nonlinearity_values(nl, t, x, u):
    """f(t, x, u) for a block of nodes; the zero entry is zero."""
    return np.zeros((len(t), N_MODES)) if nl.is_zero else nl.evaluate(t, x, u)


@pytest.mark.parametrize("kind", sorted(NONLINEARITY_KINDS))
def test_nonlinearity_is_lipschitz_with_l_f(rng, kind):
    lam = eigenvalues(N_MODES)
    for _ in range(20):
        nl = make_nonlinearity(kind, N_MODES, random_params(rng, NONLINEARITY_KINDS[kind]))
        t = rng.uniform(0.0, 1.0, size=50)
        x = random_pairs(rng)
        x2 = x + random_differences(rng)
        u = random_pairs(rng)[:, 1]  # the same control for both states
        f, f2 = nonlinearity_values(nl, t, x, u), nonlinearity_values(nl, t, x2, u)
        lhs = np.linalg.norm(f - f2, axis=-1)
        rhs = nl.lipschitz * energy_norms(x - x2, lam)
        assert within(lhs, rhs, np.linalg.norm(f, axis=-1), np.linalg.norm(f2, axis=-1)), nl


@pytest.mark.parametrize("kind", sorted(set(NONLINEARITY_KINDS) - {"delayed_saturation"}))
def test_nonlinearity_grows_within_its_envelope(rng, kind):
    lam = eigenvalues(N_MODES)
    for _ in range(20):
        nl = make_nonlinearity(kind, N_MODES, random_params(rng, NONLINEARITY_KINDS[kind]))
        t = rng.uniform(0.0, 1.0, size=50)
        x = random_pairs(rng)
        u = random_pairs(rng)[:, 1]
        lhs = np.linalg.norm(nonlinearity_values(nl, t, x, u), axis=-1)
        rhs = nl.alpha1 * nl.envelope(energy_norms(x, lam)) + nl.beta1
        assert within(lhs, rhs), nl


@pytest.mark.parametrize("kind", sorted(IMPULSE_KINDS))
def test_impulse_map_is_lipschitz_with_d_k(rng, kind):
    lam = eigenvalues(N_MODES)
    for _ in range(20):
        imap = make_impulse_map(kind, N_MODES, random_params(rng, IMPULSE_KINDS[kind]))
        for x, dx, u in zip(random_pairs(rng), random_differences(rng), random_pairs(rng)[:, 1]):
            x2 = x + dx
            jump, jump2 = imap.velocity_jump(x, u), imap.velocity_jump(x2, u)
            lhs = np.linalg.norm(jump - jump2)
            rhs = imap.d_k * energy_norms(x - x2, lam)
            assert within(lhs, rhs, np.linalg.norm(jump), np.linalg.norm(jump2)), imap
