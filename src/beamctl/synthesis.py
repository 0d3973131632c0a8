"""Controllability experiments on the nonlinear system.

Two drivers live here.  The pull-back experiment follows a nominal control
until T - sigma and then switches to the linear minimum-energy control
that steers the frozen state to the target over the remaining window.
Windows lie in (0, min(T - t_m, r)), t_m the last impulse time, and
`ProblemSpec.window_steps` alone turns them into steps.  The switched run
is the nominal run up to T - sigma, so only its tail is integrated again
(the whole run when a delay lag reaches past the switch).
The terminal miss is bounded by the integral of the declared growth
envelope of the perturbation over that window, so it shrinks with sigma.
The exact driver iterates trajectory -> steering target -> control ->
trajectory to a fixed point; the contraction certificate assembled by
`contraction_constants` gives the sufficient condition for convergence and
the bound the measured contraction ratios are checked against.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .control import (
    ControlSignal,
    GramianSet,
    build_gramian_set,
    gamma_norm_estimate,
    minimum_energy_control,
)
from .dynamics import (
    IntegrationResult,
    ProblemSpec,
    Trajectory,
    integrate_mild,
    integrate_tail,
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

# The forcing term of `exact_fixed_point`'s inner solves: each integration
# resolves its history to this fraction of the last outer change.  On
# configs/exact_benchmark.yaml, 1e-4 takes 16 history sweeps and six outer
# iterations; 1e-3 and 1e-2 add a seventh iteration, 1e-5 takes 18 sweeps.
_INNER_ETA = 1e-4


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
    norm_B: float
    norm_gamma: float
    lipschitz_F: float
    L_q: float
    q: int
    impulse_sum: float
    T: float
    C: float
    lhs: float
    satisfied: bool


def contraction_constants(spec: ProblemSpec, gs: GramianSet) -> ContractionReport:
    """Assemble the contraction certificate from closed forms and catalogs.

    M is the bound `operator_norm_bound` on the propagator norm, and
    |Gamma| the norm of the steering operator that `minimum_energy_control`
    applies with `gs`, the steering Gramian set over [0, T].
    """
    p = spec.params
    M = operator_norm_bound(p)
    norm_gamma = gamma_norm_estimate(gs, p)
    lipschitz_F = p.k / np.pi**2 + spec.nonlinearity.lipschitz
    L_q = spec.L_q
    q = spec.q
    n_imp = float(sum(ev.d_k for ev in spec.impulses))
    C = M * L_q * q + M * p.T * lipschitz_F + M * n_imp
    norm_B = 1.0
    lhs = M * L_q * q + M * p.T * norm_B * norm_gamma * C + M * p.T * lipschitz_F + M * n_imp
    return ContractionReport(
        M=M,
        norm_B=norm_B,
        norm_gamma=norm_gamma,
        lipschitz_F=lipschitz_F,
        L_q=L_q,
        q=q,
        impulse_sum=n_imp,
        T=p.T,
        C=C,
        lhs=lhs,
        satisfied=bool(lhs < 1.0),
    )


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
    [0, T - sigma] is exactly the nominal control.  ConfigError unless
    sigma is a window `ProblemSpec.window_steps` accepts.
    """
    p = spec.params
    (n_tail,) = spec.window_steps([sigma])
    switch = spec.n_steps - n_tail
    gs_tail = build_gramian_set(p.T - sigma, p.T, p, n_tail)
    z_switch = StateZ.from_pair(traj.values[traj.n_history + switch])
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
    `overlap_sup` is the largest node deviation on [-r, T - sigma].  Both
    are zero by construction when the switched run reuses the nominal
    prefix (`integrate_tail`); they measure something only for runs that
    are integrated in full.
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

    Requires decreasing windows on the time grid inside (0, min(T - t_m,
    r)), all checked (`ProblemSpec.window_steps`) before the nominal run.
    Each run integrates the nonlinear system under the switched control:
    from the switch node on, starting from the nominal run's converged
    nodes, when no delay lag reaches past the switch (`integrate_tail`,
    bitwise the full run), and over all of [-r, T] otherwise, with a
    warning: the nonlocal history then reads the switched tail, so the
    pull-back identity behind the bound fails.  It reports the terminal
    miss together with the trapezoid estimate of the envelope integral over
    the tail window, evaluated on the nominal trajectory's delayed states.
    """
    p = spec.params
    sigmas = [float(s) for s in sigmas]
    if not sigmas:
        raise ValueError("need at least one pull-back window")
    tails = spec.window_steps(sigmas)

    nominal = integrate_mild(spec, u)
    traj = nominal.trajectory
    tau_q = max(spec.lags, default=0.0)
    last_lag_node = max(spec.lag_nodes, default=0)
    lam = p.lam
    M_est = operator_norm_bound(p)
    nl = spec.nonlinearity
    rows = []
    for sigma, n_tail in zip(sigmas, tails):
        u_s = pullback_control(u, traj, sigma, zstar, spec)
        switch = spec.n_steps - n_tail
        if last_lag_node <= switch:
            switched = integrate_tail(spec, nominal, u_s, switch).trajectory
        else:
            logger.warning(
                "pull-back window sigma = %.6g switches at T - sigma = %.6g, before the "
                "largest lag tau_q = %.6g: the nonlocal history reads the switched tail, "
                "so the pull-back identity and the error bound need not hold",
                sigma,
                p.T - sigma,
                tau_q,
            )
            switched = integrate_mild(spec, u_s).trajectory
        terminal_error = pair_norm(switched.values[-1] - zstar.to_pair(), lam)

        switch_node = traj.n_history + switch
        tail_ts = p.T - sigma + spec.h * np.arange(n_tail + 1)
        e00, e01, e10, e11 = propagator_entries_for(p.T - tail_ts, lam, p.c, p.d)
        s_norms = weighted_block_norms(e00, e01, e10, e11, lam[None, :]).max(axis=1)
        # Delayed argument of the perturbation along the tail, taken from
        # the nominal trajectory per the pull-back identity: t - r at node
        # switch + j of the buffer, as `node_sources` reads it.
        delayed = slice(switch, switch + n_tail + 1)
        seg_norms = energy_norms(traj.values[delayed], lam)
        integrand = s_norms * (nl.alpha1 * nl.envelope(seg_norms) + nl.beta1)
        bound = float(spec.h * (np.sum(integrand) - 0.5 * (integrand[0] + integrand[-1])))

        d_delay = energy_norms(switched.values[delayed] - traj.values[delayed], lam).max()
        overlap = switched.values[: switch_node + 1] - traj.values[: switch_node + 1]
        d_overlap = float(energy_norms(overlap, lam).max())
        rows.append(PullbackRow(sigma, float(terminal_error), bound, float(d_delay), d_overlap))
    return PullbackResult(tuple(rows), M_est)


def steering_target(
    traj: Trajectory, zstar: StateZ, spec: ProblemSpec, sources: np.ndarray, gs: GramianSet
) -> StateZ:
    """What the control channel must deliver for the trajectory to end at zstar.

    Subtracts from the target the propagated effective initial state, the
    convolved perturbation, and the propagated impulse jumps, all evaluated
    on the given trajectory.  `sources` holds the trajectory's per-node
    source rows h/2 g, as `IntegrationResult.sources` records them; they are
    convolved against the force column of `gs`, the steering Gramian set
    over [0, T] on the same grid.  Requires control-independent catalogs.
    """
    if spec.u_dependent:
        raise ConfigError(
            "steering target needs control-independent perturbation and impulse entries"
        )
    p = spec.params
    if (gs.t0, gs.t1, gs.e01.shape) != (0.0, p.T, (spec.n_steps + 1, p.n_modes)):
        raise ValueError("steering target needs the Gramian set over [0, T] on the run's grid")
    lam = p.lam

    rho0 = spec.history[-1]
    g0 = np.zeros_like(rho0)
    for g, node in zip(spec.gammas, spec.lag_nodes):
        g0 += g * traj.values[spec.n_r + node]
    total = apply_semigroup(StateZ.from_pair(rho0 - g0), p.T, p).to_pair()

    # Trapezoid convolution of the sources, one row h/2 g per node as the
    # integrator steps, so the weights h/2 at the ends and h inside are once
    # and twice a row; impulse nodes need no second row, since the source
    # reads the position, which does not jump.  The sum over axis 0 adds the
    # rows in node order, as a loop over the nodes would.
    wt = np.full((spec.n_steps + 1, 1), 2.0)
    wt[0] = wt[-1] = 1.0
    total[0] += (wt * gs.e01 * sources).sum(axis=0)
    total[1] += (wt * gs.e11 * sources).sum(axis=0)

    for ev, node in zip(spec.impulses, spec.impulse_nodes):
        left = traj.left_values[spec.n_r + node]
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
    successive-difference ratios.  Each integration after the first starts
    its history iteration from the previous iterate's converged history
    (`integrate_mild(..., warm=prev)`), which saves sweeps as the controls
    settle.  Each resolves its history only as tightly as the outer
    iterate needs (`integrate_mild(..., tol=)`): to max(`picard_tol`,
    eta d), d the last outer change (1 before the first), eta =
    `_INNER_ETA`.  The converged iterate still meets `picard_tol`: when
    its residual is above it, one more warm integration under the same
    control resolves it.  The certificate reads the Gramian set the
    iteration steers with, so it describes the operator the iteration
    applies.
    """
    if spec.u_dependent:
        raise ConfigError(
            "exact steering needs control-independent perturbation and impulse entries"
        )
    p = spec.params
    gs = build_gramian_set(0.0, p.T, p, spec.n_steps)
    report = contraction_constants(spec, gs)
    if not report.satisfied:
        logger.warning(
            "contraction certificate violated (lhs = %.6g >= 1); "
            "iterating without a convergence guarantee",
            report.lhs,
        )
    inner_tol = max(spec.picard_tol, _INNER_ETA)
    prev = integrate_mild(spec, None, tol=inner_tol)
    rows: list[FixedPointRow] = []
    diffs: list[float] = []
    grow_streak = 0
    for it in range(1, max_iter + 1):
        xi = steering_target(prev.trajectory, zstar, spec, prev.sources, gs)
        control = minimum_energy_control(xi, gs, p)
        current = integrate_mild(spec, control, warm=prev, tol=inner_tol)
        d = current.trajectory.sup_diff(prev.trajectory)
        inner_tol = max(spec.picard_tol, _INNER_ETA * d)
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
            if current.history_residual > spec.picard_tol:
                current = integrate_mild(spec, control, warm=current)
            terminal = pair_norm(
                current.trajectory.values[-1] - zstar.to_pair(), p.lam
            )
            return FixedPointResult(control, current, tuple(rows), report, float(terminal))
    raise NumericalError(
        f"fixed-point iteration did not converge in {max_iter} iterations "
        f"(last change {diffs[-1]:.3e}, tol {tol})"
    )
