"""Command-line driver: `beamctl <command> --config <path> [--out DIR] [--verbose]`.

Commands: simulate, gramian, steer, approx, exact, check.  Every run
echoes the fully resolved configuration next to its outputs.  Exit codes:
0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, parse_config, resolved_config_text
from .control import (
    MIN_STEPS,
    build_gramian_set,
    minimum_energy_control,
    mode_gramian,
    weighted_cond,
)
from .dynamics import integrate_mild
from .errors import ConfigError, NumericalError
from .reporting import (
    control_rows,
    snapshot_rows,
    trajectory_header,
    trajectory_rows,
    write_csv,
    write_report,
)
from .semigroup import apply_semigroup
from .spectral import norm_z, zero_state
from .synthesis import approx_experiment, contraction_constants, exact_fixed_point

COMMANDS = ("simulate", "gramian", "steer", "approx", "exact", "check")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="beamctl",
        description="Spectral simulation and control synthesis for the damped hinged beam",
    )
    parser.add_argument("command", choices=COMMANDS, help="what to run")
    parser.add_argument("--config", required=True, help="path to the YAML run configuration")
    parser.add_argument("--out", default=None, help="output directory (overrides output.dir)")
    parser.add_argument("--verbose", action="store_true", help="print progress details")
    return parser


def _require_steps(n_steps: int, what: str, key: str) -> None:
    """A steering window needs the step floor of its Gramian set."""
    if n_steps < MIN_STEPS:
        raise ConfigError(f"{what} spans {n_steps} steps, fewer than {MIN_STEPS}", key)


def _check_command(command: str, cfg: RunConfig) -> None:
    """What `command` needs beyond a valid config, checked before any output."""
    if command in ("steer", "approx", "exact") and cfg.zstar is None:
        raise ConfigError(f"command '{command}' needs targets.zstar_w / targets.zstar_y")
    if command == "exact" and cfg.problem.u_dependent:
        raise ConfigError("command 'exact' needs control-independent catalog entries")
    if command == "steer":
        window = f"steering window [{cfg.t0}, {cfg.params.T}]"
        _require_steps(cfg.steer_steps, window, "experiment.t0")
    if command == "approx":
        if not cfg.sigmas:
            raise ConfigError("command 'approx' needs a pull-back window", "experiment.sigmas")
        for j, (sigma, n_steps) in enumerate(zip(cfg.sigmas, cfg.window_steps)):
            _require_steps(n_steps, f"window {sigma}", f"experiment.sigmas[{j}]")


def _cmd_simulate(cfg: RunConfig, out: Path, prefix: str, say) -> None:
    res = integrate_mild(cfg.problem, None)
    traj = res.trajectory
    say(f"integrated {traj.n_nodes} nodes, history iterations {res.picard_iterations}")
    write_csv(
        out / f"{prefix}_trajectory.csv",
        trajectory_header(traj.n_modes),
        trajectory_rows(traj),
    )
    write_csv(
        out / f"{prefix}_snapshots.csv",
        ["t", "x", "w", "y"],
        snapshot_rows(traj, cfg.problem.grid),
    )
    write_report(
        out / f"{prefix}_report.txt",
        [
            ("command", "simulate"),
            ("picard_iterations", res.picard_iterations),
            ("history_residual", res.history_residual),
            ("terminal_norm", norm_z(traj.terminal_state())),
        ],
    )


def _cmd_gramian(cfg: RunConfig, out: Path, prefix: str, say) -> None:
    p = cfg.params
    blocks = [mode_gramian(n, cfg.t0, p.T, p) for n in range(1, p.n_modes + 1)]
    for n, w in enumerate(blocks, 1):
        if not np.isfinite(w).all():
            raise NumericalError(f"Gramian for mode {n} is not finite")
    conds = weighted_cond(blocks, p.lam)
    say(f"worst weighted condition number: {conds.max():.6g}")
    write_csv(
        out / f"{prefix}_gramian.csv",
        ["n", "W11", "W12", "W21", "W22", "cond"],
        [[n, *w.ravel(), cond] for n, (w, cond) in enumerate(zip(blocks, conds), 1)],
    )


def _cmd_steer(cfg: RunConfig, out: Path, prefix: str, say) -> None:
    p = cfg.params
    zstar = cfg.zstar
    z0 = cfg.z0 if cfg.z0 is not None else zero_state(p.n_modes)
    # One force-column table serves the Gramian, the control and the
    # terminal state the control reaches from the free flight.
    gs = build_gramian_set(cfg.t0, p.T, p, cfg.steer_steps)
    free = apply_semigroup(z0, p.T - cfg.t0, p)
    u = minimum_energy_control(zstar - free, gs, p)
    terminal = free + gs.response(u)
    err = norm_z(terminal - zstar)
    rel = err / norm_z(zstar) if norm_z(zstar) > 0 else err
    say(f"steered to relative error {rel:.3e}")
    write_csv(
        out / f"{prefix}_control.csv",
        ["t"] + [f"u_{i}" for i in range(1, p.n_modes + 1)],
        control_rows(u),
    )
    write_report(
        out / f"{prefix}_report.txt",
        [
            ("command", "steer"),
            ("t0", cfg.t0),
            ("terminal_error", err),
            ("terminal_error_relative", rel),
            ("control_l2_norm", u.l2_norm()),
        ],
    )


def _cmd_approx(cfg: RunConfig, out: Path, prefix: str, say) -> None:
    result = approx_experiment(cfg.problem, cfg.zstar, list(cfg.sigmas))
    for row in result.rows:
        say(f"sigma={row.sigma:g}: terminal error {row.terminal_error:.3e}")
    write_csv(
        out / f"{prefix}_approx.csv",
        ["sigma", "terminal_error", "bound_estimate"],
        [[r.sigma, r.terminal_error, r.bound_estimate] for r in result.rows],
    )
    write_report(
        out / f"{prefix}_report.txt", [("command", "approx"), ("M_estimate", result.M_estimate)]
    )


def _cmd_exact(cfg: RunConfig, out: Path, prefix: str, say) -> None:
    result = exact_fixed_point(cfg.problem, cfg.zstar, cfg.tol, cfg.max_iter)
    say(
        f"converged in {len(result.iterations)} iterations, "
        f"terminal error {result.terminal_error:.3e}"
    )
    write_csv(
        out / f"{prefix}_iterations.csv",
        ["iter", "sup_diff", "ratio"],
        [[row.index, row.sup_diff, row.ratio] for row in result.iterations],
    )
    write_csv(
        out / f"{prefix}_control.csv",
        ["t"] + [f"u_{i}" for i in range(1, cfg.params.n_modes + 1)],
        control_rows(result.control),
    )
    rep = result.report
    write_report(
        out / f"{prefix}_report.txt",
        [
            ("command", "exact"),
            ("iterations", len(result.iterations)),
            ("terminal_error", result.terminal_error),
            ("contraction_lhs", rep.lhs),
            ("contraction_satisfied", rep.satisfied),
            ("history_residual", result.result.history_residual),
        ],
    )


def _cmd_check(cfg: RunConfig, out: Path, prefix: str, say) -> None:
    p = cfg.params
    rep = contraction_constants(cfg.problem, build_gramian_set(0.0, p.T, p, cfg.problem.n_steps))
    say(f"contraction lhs = {rep.lhs:.6g} (satisfied: {rep.satisfied})")
    write_report(
        out / f"{prefix}_report.txt",
        [
            ("command", "check"),
            ("M", rep.M),
            ("norm_B", rep.norm_B),
            ("norm_Gamma", rep.norm_gamma),
            ("lipschitz_F", rep.lipschitz_F),
            ("L_q", rep.L_q),
            ("q", rep.q),
            ("impulse_lipschitz_sum", rep.impulse_sum),
            ("T", rep.T),
            ("C", rep.C),
            ("lhs", rep.lhs),
            ("satisfied", rep.satisfied),
        ],
    )


_RUNNERS = {
    "simulate": _cmd_simulate,
    "gramian": _cmd_gramian,
    "steer": _cmd_steer,
    "approx": _cmd_approx,
    "exact": _cmd_exact,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    def say(message: str) -> None:
        if args.verbose:
            print(message)

    try:
        cfg = parse_config(args.config)
        _check_command(args.command, cfg)
        out = Path(args.out) if args.out else Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{cfg.prefix}_resolved_config.yaml").write_text(resolved_config_text(cfg))
        _RUNNERS[args.command](cfg, out, cfg.prefix, say)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
