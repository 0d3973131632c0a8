"""Controllability experiments on the nonlinear system.

Two drivers live here.  The pull-back experiment follows a nominal control
until T - sigma and then switches to the linear minimum-energy control
that steers the frozen state to the target over the remaining window; the
terminal miss is bounded by the integral of the declared growth envelope
of the perturbation over that window, so it shrinks with sigma.  The exact
driver iterates trajectory -> steering target -> control -> trajectory to
a fixed point; the contraction certificate assembled by
`contraction_constants` gives the sufficient condition for convergence and
the bound the measured contraction ratios are checked against.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .control import (
    ControlSignal,
    build_gramian_set,
    gamma_norm_estimate,
    minimum_energy_control,
)
from .dynamics import (
    IntegrationResult,
    ProblemSpec,
    Trajectory,
    integrate_mild,
    node_sources,
)
from .errors import ConfigError, NumericalError
from .semigroup import (
    apply_semigroup,
    operator_norm_bound,
    propagator_entries_for,
    weighted_block_norms,
)
from .spectral import StateZ, energy_norms, pair_norm

__all__ = [
    "ContractionReport",
    "PullbackRow",
    "PullbackResult",
    "FixedPointRow",
    "FixedPointResult",
    "contraction_constants",
    "pullback_control",
    "approx_experiment",
    "steering_target",
    "exact_fixed_point",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ContractionReport:
    """Constants of the fixed-point contraction estimate.

    `lhs` is M*L_q*q + M*T*|B|*|Gamma|*C + M*T*l + M*N_imp with
    C = M*L_q*q + M*T*l + M*N_imp; the iteration is certified when
    lhs < 1.  `lipschitz_F` folds the one-sided cable force into the
    perturbation constant: the clip is 1-Lipschitz in the plain
    coefficient norm and the position norm dominates it by sqrt(lambda_1)
    = pi^2, so the cable contributes k / pi^2.
    """

    M: float
    M_step: float
    norm_B: float
    norm_gamma: float
    gamma_samples: int
    lipschitz_F: float
    L_q: float
    q: int
    impulse_sum: float
    T: float
    C: float
    lhs: float
    satisfied: bool

    def recompute_lhs(self) -> float:
        return (
            self.M * self.L_q * self.q
            + self.M * self.T * self.norm_B * self.norm_gamma * self.C
            + self.M * self.T * self.lipschitz_F
            + self.M * self.impulse_sum
        )


def contraction_constants(
    spec: ProblemSpec,
    norm_step: float | None = None,
    gamma_samples: int = 2000,
) -> ContractionReport:
    """Assemble the contraction certificate from grid estimates and catalogs."""
    p = spec.params
    if norm_step is None:
        norm_step = p.T / 2000.0
    M = operator_norm_bound(p, norm_step)
    norm_gamma = gamma_norm_estimate(0.0, p.T, p, gamma_samples)
    lipschitz_F = p.k / np.pi**2 + spec.nonlinearity.lipschitz
    L_q = spec.L_q
    q = spec.q
    n_imp = float(sum(ev.d_k for ev in spec.impulses))
    C = M * L_q * q + M * p.T * lipschitz_F + M * n_imp
    norm_B = 1.0
    lhs = M * L_q * q + M * p.T * norm_B * norm_gamma * C + M * p.T * lipschitz_F + M * n_imp
    return ContractionReport(
        M=M,
        M_step=norm_step,
        norm_B=norm_B,
        norm_gamma=norm_gamma,
        gamma_samples=gamma_samples,
        lipschitz_F=lipschitz_F,
        L_q=L_q,
        q=q,
        impulse_sum=n_imp,
        T=p.T,
        C=C,
        lhs=lhs,
        satisfied=bool(lhs < 1.0),
    )


def _sigma_limit(spec: ProblemSpec) -> float:
    t_m = spec.impulses[-1].time if spec.impulses else 0.0
    return min(spec.params.T - t_m, spec.params.r)


def pullback_control(
    u: ControlSignal | None,
    traj: Trajectory,
    sigma: float,
    zstar: StateZ,
    spec: ProblemSpec,
) -> ControlSignal:
    """Nominal control switched to the tail steering control after T - sigma.

    The tail is the linear minimum-energy control from the trajectory's
    state at T - sigma to the target over [T - sigma, T].  The switch node
    keeps the nominal value as its left limit, so the restriction to
    [0, T - sigma] is exactly the nominal control.
    """
    p = spec.params
    limit = _sigma_limit(spec)
    if not 0.0 < sigma < limit:
        raise ValueError(
            f"pull-back window sigma={sigma} must lie in (0, {limit}) "
            "(the smaller of the post-impulse gap and the delay span)"
        )
    h = spec.h
    n_tail = int(round(sigma / h))
    if abs(n_tail * h - sigma) > 1e-9 * max(sigma, 1.0):
        raise ValueError(f"sigma={sigma} does not sit on the time grid (h={h})")
    switch = spec.n_steps - n_tail
    gs_tail = build_gramian_set(p.T - sigma, p.T, p, n_tail)
    z_switch = traj.state(p.T - sigma)
    xi = zstar - apply_semigroup(z_switch, sigma, p)
    tail = minimum_energy_control(xi, gs_tail, p)

    if u is None:
        values = np.zeros((spec.n_steps + 1, p.n_modes))
        marks: dict[int, np.ndarray] = {}
    else:
        if u.n_nodes != spec.n_steps + 1 or abs(u.t0) > 1e-12:
            raise ValueError("nominal control must live on the trajectory grid")
        values = u.values.copy()
        marks = {i: v for i, v in u.left_values.items() if i < switch}
    left_at_switch = marks.pop(switch, None)
    if left_at_switch is None:
        left_at_switch = values[switch].copy()
    values[switch:] = tail.values
    marks[switch] = left_at_switch
    return ControlSignal(0.0, p.T, values, marks)


@dataclass(frozen=True)
class PullbackRow:
    """One pull-back run: the window, the terminal miss, and its envelope bound.

    `delay_identity_sup` is the largest deviation between the delayed
    arguments of the switched and nominal runs over the tail window (they
    agree exactly in theory because the delay reaches behind the switch);
    `overlap_sup` is the largest node deviation on [-r, T - sigma].
    """

    sigma: float
    terminal_error: float
    bound_estimate: float
    delay_identity_sup: float
    overlap_sup: float


@dataclass(frozen=True)
class PullbackResult:
    rows: tuple[PullbackRow, ...]
    M_estimate: float


def approx_experiment(
    spec: ProblemSpec,
    u: ControlSignal | None,
    zstar: StateZ,
    sigmas,
) -> PullbackResult:
    """Run the pull-back construction for each window size in `sigmas`.

    Requires decreasing windows inside (0, min(T - t_m, r)).  Each run
    re-integrates the nonlinear system under the switched control and
    reports the terminal miss together with the trapezoid estimate of
    the envelope integral over the tail window, evaluated on the nominal
    trajectory's delayed states.
    """
    p = spec.params
    limit = _sigma_limit(spec)
    sigmas = [float(s) for s in sigmas]
    if not sigmas:
        raise ValueError("need at least one pull-back window")
    for a, b in zip(sigmas, sigmas[1:]):
        if not a > b:
            raise ValueError(f"pull-back windows must decrease, got {a} before {b}")
    if not all(0.0 < s < limit for s in sigmas):
        raise ValueError(f"every window must lie in (0, {limit}), got {sigmas}")

    nominal = integrate_mild(spec, u)
    traj = nominal.trajectory
    lam = p.lam
    M_est = operator_norm_bound(p)
    nl = spec.nonlinearity
    rows = []
    for sigma in sigmas:
        u_s = pullback_control(u, traj, sigma, zstar, spec)
        switched = integrate_mild(spec, u_s).trajectory
        terminal_error = pair_norm(switched.values[-1] - zstar.to_pair(), lam)

        n_tail = int(round(sigma / spec.h))
        switch_node = traj.n_nodes - 1 - n_tail
        tail_ts = p.T - sigma + spec.h * np.arange(n_tail + 1)
        e00, e01, e10, e11 = propagator_entries_for(p.T - tail_ts, lam, p.c, p.d)
        s_norms = weighted_block_norms(e00, e01, e10, e11, lam[None, :]).max(axis=1)
        # Delayed argument of the perturbation along the tail, taken from
        # the nominal trajectory per the pull-back identity.
        delay_nodes = [traj.node_index(t - p.r) for t in tail_ts]
        seg_norms = np.array(
            [pair_norm(traj.values[i], lam) for i in delay_nodes]
        )
        envelope = np.array([nl.alpha1 * nl.envelope(s) + nl.beta1 for s in seg_norms])
        integrand = s_norms * envelope
        bound = float(spec.h * (np.sum(integrand) - 0.5 * (integrand[0] + integrand[-1])))

        d_delay = max(
            pair_norm(switched.values[i] - traj.values[i], lam) for i in delay_nodes
        )
        overlap = switched.values[: switch_node + 1] - traj.values[: switch_node + 1]
        d_overlap = float(energy_norms(overlap, lam).max())
        rows.append(PullbackRow(sigma, float(terminal_error), bound, float(d_delay), d_overlap))
    return PullbackResult(tuple(rows), M_est)


def _trap_convolution_of_sources(traj: Trajectory, spec: ProblemSpec) -> np.ndarray:
    """Trapezoid value of the propagated perturbation integral over [0, T].

    Matches the integrator's stepping exactly: nodal trapezoid weights with
    one source evaluation per node.  Impulse nodes need no second one, since
    the source reads the position, which does not jump.
    """
    p = spec.params
    h = spec.h
    n_r = traj.n_history
    ts = h * np.arange(spec.n_steps + 1)
    e00, e01, e10, e11 = propagator_entries_for(p.T - ts, p.lam, p.c, p.d)
    source = node_sources(spec, traj.values, traj.left_values)

    acc_w = np.zeros(p.n_modes)
    acc_y = np.zeros(p.n_modes)
    for j in range(spec.n_steps + 1):
        row = source(n_r + j, ts[j], None)
        wt = h if 0 < j < spec.n_steps else 0.5 * h
        acc_w += wt * e01[j] * row
        acc_y += wt * e11[j] * row
    return np.vstack([acc_w, acc_y])


def steering_target(traj: Trajectory, zstar: StateZ, spec: ProblemSpec) -> StateZ:
    """What the control channel must deliver for the trajectory to end at zstar.

    Subtracts from the target the propagated effective initial state, the
    convolved perturbation, and the propagated impulse jumps, all evaluated
    on the given trajectory.  Requires control-independent catalogs.
    """
    if spec.u_dependent:
        raise ConfigError(
            "steering target needs control-independent perturbation and impulse entries"
        )
    p = spec.params
    lam = p.lam
    n_r = traj.n_history

    rho0 = spec.history.value(0.0)
    if spec.q:
        g0 = np.zeros_like(rho0)
        for g, tau in zip(spec.gammas, spec.lags):
            g0 += g * traj.values[traj.node_index(tau)]
        z0_eff = rho0 - g0
    else:
        z0_eff = rho0
    total = apply_semigroup(StateZ.from_pair(z0_eff), p.T, p).to_pair()

    total += _trap_convolution_of_sources(traj, spec)

    for ev in spec.impulses:
        node = traj.node_index(ev.time)
        left = traj.left_values[node]
        jump_row = ev.map.velocity_jump(ev.time, left, None)
        e00, e01, e10, e11 = propagator_entries_for(
            np.array([p.T - ev.time]), lam, p.c, p.d
        )
        total[0] += e01[0] * jump_row
        total[1] += e11[0] * jump_row

    return StateZ(zstar.w - total[0], zstar.y - total[1])


@dataclass(frozen=True)
class FixedPointRow:
    index: int
    sup_diff: float
    ratio: float


@dataclass(frozen=True)
class FixedPointResult:
    control: ControlSignal
    result: IntegrationResult
    iterations: tuple[FixedPointRow, ...]
    report: ContractionReport
    terminal_error: float


def exact_fixed_point(
    spec: ProblemSpec,
    zstar: StateZ,
    tol: float = 1e-8,
    max_iter: int = 50,
) -> FixedPointResult:
    """Iterate control and trajectory to the exactly-steered fixed point.

    Each pass integrates the nonlinear system under the minimum-energy
    control built from the previous trajectory's steering target; at the
    fixed point the terminal state meets the target up to the iteration
    and quadrature tolerances.  When the contraction certificate fails the
    iteration still runs (the condition is sufficient, not necessary) but
    convergence is no longer guaranteed; divergence is detected from the
    successive-difference ratios.
    """
    if spec.u_dependent:
        raise ConfigError(
            "exact steering needs control-independent perturbation and impulse entries"
        )
    p = spec.params
    report = contraction_constants(spec)
    if not report.satisfied:
        logger.warning(
            "contraction certificate violated (lhs = %.6g >= 1); "
            "iterating without a convergence guarantee",
            report.lhs,
        )
    gs = build_gramian_set(0.0, p.T, p, spec.n_steps)
    prev = integrate_mild(spec, None)
    rows: list[FixedPointRow] = []
    diffs: list[float] = []
    grow_streak = 0
    for it in range(1, max_iter + 1):
        xi = steering_target(prev.trajectory, zstar, spec)
        control = minimum_energy_control(xi, gs, p)
        current = integrate_mild(spec, control)
        d = current.trajectory.sup_diff(prev.trajectory)
        ratio = d / diffs[-1] if diffs and diffs[-1] > 0 else float("nan")
        diffs.append(d)
        rows.append(FixedPointRow(it, d, ratio))
        if np.isfinite(ratio) and ratio > 1.0:
            grow_streak += 1
            if grow_streak >= 3:
                raise NumericalError(
                    f"fixed-point iteration diverging: successive-difference "
                    f"ratio {ratio:.3f} > 1 for three consecutive iterations"
                )
        else:
            grow_streak = 0
        prev = current
        if d <= tol:
            terminal = pair_norm(
                current.trajectory.values[-1] - zstar.to_pair(), p.lam
            )
            return FixedPointResult(control, current, tuple(rows), report, float(terminal))
    raise NumericalError(
        f"fixed-point iteration did not converge in {max_iter} iterations "
        f"(last change {diffs[-1]:.3e}, tol {tol})"
    )
