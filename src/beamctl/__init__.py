"""Spectral simulation and control synthesis for a damped hinged beam.

The model is the suspension-bridge beam of Lazer-McKenna type: a damped
Euler-Bernoulli beam on (0, 1) with hinged ends, a one-sided cable-stay
restoring force, a distributed control, impulsive velocity jumps, a
delayed nonlinear perturbation, and a nonlocal initial history.  The
package simulates mild solutions on a spectral truncation, synthesizes
minimum-energy steering controls from per-mode controllability Gramians,
and runs the pull-back approximate-controllability experiment and the
exact-controllability fixed-point iteration with its contraction
certificate.
"""

from .catalogs import (
    ImpulseEvent,
    make_forcing,
    make_impulse_map,
    make_nonlinearity,
)
from .config import RunConfig, parse_config
from .control import (
    ControlSignal,
    GramianSet,
    build_gramian_set,
    controllability_map,
    integrate_linear,
    minimum_energy_control,
    mode_gramian,
)
from .dynamics import (
    IntegrationResult,
    ProblemSpec,
    Trajectory,
    history_segment,
    integrate_mild,
)
from .errors import ConfigError, NumericalError
from .semigroup import ModelParams, apply_semigroup, operator_norm_bound
from .spectral import (
    SpatialGrid,
    StateZ,
    eigenvalue,
    eigenvalues,
    norm_z,
    positive_part,
    reconstruct,
)
from .synthesis import (
    ContractionReport,
    FixedPointResult,
    PullbackResult,
    approx_experiment,
    contraction_constants,
    exact_fixed_point,
    pullback_control,
    steering_target,
)

__version__ = "0.1.0"
