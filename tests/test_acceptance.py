"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line
per criterion.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from beamctl.catalogs import ImpulseEvent, make_impulse_map, make_nonlinearity
from beamctl.cli import main as cli_main
from beamctl.control import (
    build_gramian_set,
    integrate_linear,
    minimum_energy_control,
    mode_gramian,
)
from beamctl.dynamics import ProblemSpec, history_segment, integrate_mild
from beamctl.semigroup import (
    ModelParams,
    apply_semigroup,
    operator_norm_bound,
    propagator_entries_for,
)
from beamctl.spectral import SpatialGrid, StateZ, eigenvalues, energy_norms, norm_z, pair_norm
from beamctl.synthesis import approx_experiment, contraction_constants, exact_fixed_point

from oracles import (
    controllability_map,
    full_pullback_experiment,
    method_of_steps_rk4,
    node_index,
    semigroup_blocks,
    steering_control,
)

CONFIGS = Path(__file__).parents[1] / "configs"


def _report(number: int, description: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status} ({elapsed:.1f}s): {description}")


class _criterion:
    def __init__(self, number, description, budget):
        self.number = number
        self.description = description
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        _report(self.number, self.description, exc_type is None, elapsed)
        if exc_type is None:
            assert elapsed < self.budget, f"criterion {self.number} exceeded {self.budget}s"
        return False


def full_benchmark(n_steps):
    p = ModelParams(c=1.0, d=1.0, k=1.0, n_modes=4, T=1.0, r=0.3)
    return ProblemSpec(
        params=p,
        grid=SpatialGrid(129),
        n_steps=n_steps,
        impulses=(ImpulseEvent(0.5, make_impulse_map("saturating_kick", 4, {"amp": 0.05})),),
        lags=(0.12, 0.24),
        gammas=(0.1, 0.05),
        nonlinearity=make_nonlinearity("delayed_saturation", 4, {"amp": 0.2}),
        history=history_segment(
            "modal_constant", p, int(round(p.r * n_steps)) + 1, {"w": [0.4, 0.15], "y": [0.0, 0.1]}
        ),
        picard_tol=1e-11,
    )


def test_criterion_1_semigroup_correctness(p8):
    with _criterion(1, "group law and determinant identity at 1e-10", 1.0):
        rng = np.random.default_rng(11)
        for _ in range(100):
            z = StateZ(rng.normal(size=8), rng.normal(size=8))
            s, t = rng.uniform(-1.0, 1.0, size=2)
            err = norm_z(
                apply_semigroup(apply_semigroup(z, s, p8), t, p8)
                - apply_semigroup(z, s + t, p8)
            )
            assert err <= 1e-10 * norm_z(z)
            blocks = semigroup_blocks(float(t), p8)
            dets = blocks[:, 0, 0] * blocks[:, 1, 1] - blocks[:, 0, 1] * blocks[:, 1, 0]
            assert np.abs(dets - np.exp(-p8.c * t)).max() <= 1e-10


def test_criterion_2_gramian_validity(p8):
    with _criterion(2, "Gramian symmetry, definiteness, Lyapunov residual, right inverse", 10.0):
        rng = np.random.default_rng(22)
        lam = eigenvalues(8)
        gs = build_gramian_set(0.0, 1.0, p8, 2000)
        for i in range(8):
            d = np.diag([lam[i], 1.0])
            dw = d @ gs.steering[i]
            assert np.abs(dw - dw.T).max() <= 1e-12 * np.abs(dw).max()
            for _ in range(100):
                v = rng.normal(size=2)
                assert v @ d @ gs.steering[i] @ v > 0.0

        # Lyapunov residual on the energy-symmetrized entries.
        tau = 0.4
        for n in range(1, 9):
            omega = np.sqrt(p8.d * lam[n - 1])
            delta = 0.02 / (2.0 * omega + p8.c)

            def q(tt):
                return mode_gramian(n, p8.T - tt, p8.T, p8)

            fd = (
                -q(tau + 2 * delta) + 8 * q(tau + delta) - 8 * q(tau - delta) + q(tau - 2 * delta)
            ) / (12 * delta)
            _, e01, _, e11 = propagator_entries_for(np.array([tau]), lam[n - 1 : n], p8.c, p8.d)
            kernel = np.array(
                [
                    [lam[n - 1] * e01[0, 0] ** 2, e01[0, 0] * e11[0, 0]],
                    [lam[n - 1] * e01[0, 0] * e11[0, 0], e11[0, 0] ** 2],
                ]
            )
            rl = np.sqrt(lam[n - 1])
            resid = fd - kernel
            resid_sym = np.array(
                [
                    [resid[0, 0], rl * resid[0, 1]],
                    [resid[1, 0] / rl, resid[1, 1]],
                ]
            )
            assert np.abs(resid_sym).max() <= 1e-6

        for _ in range(20):
            xi = StateZ(0.3 * rng.normal(size=8), rng.normal(size=8))
            u = minimum_energy_control(xi, gs, p8)
            assert norm_z(controllability_map(u, p8) - xi) <= 1e-6 * norm_z(xi)


def test_criterion_3_linear_exact_controllability(p8):
    with _criterion(3, "random-to-random linear steering at 1e-6 with h = 5e-4", 30.0):
        rng = np.random.default_rng(33)
        for _ in range(3):
            z0 = StateZ(0.3 * rng.normal(size=8), rng.normal(size=8))
            zstar = StateZ(0.3 * rng.normal(size=8), rng.normal(size=8))
            u = steering_control(z0, zstar, 0.0, 1.0, p8, 2000)
            zT = StateZ.from_pair(integrate_linear(z0, u, p8))
            assert norm_z(zT - zstar) <= 1e-6 * norm_z(zstar)


def test_criterion_4_mild_solution_oracle_equivalence():
    with _criterion(4, "full nonlinear system vs method-of-steps RK4 at 1e-4", 60.0):
        spec_h = full_benchmark(1000)
        spec_h2 = full_benchmark(2000)
        lam = spec_h.params.lam
        oracle = method_of_steps_rk4(spec_h, refine=16)[-1]
        scale = pair_norm(oracle, lam)
        err_h = pair_norm(integrate_mild(spec_h).trajectory.values[-1] - oracle, lam) / scale
        err_h2 = pair_norm(integrate_mild(spec_h2).trajectory.values[-1] - oracle, lam) / scale
        assert err_h <= 1e-4
        assert err_h / err_h2 >= 3.0


def test_criterion_5_impulse_and_history_exactness():
    with _criterion(5, "jump identity at 1e-12 and history residual at 1e-10", 30.0):
        spec = full_benchmark(1000)
        res = integrate_mild(spec)
        traj = res.trajectory
        for ev in spec.impulses:
            node = node_index(traj, ev.time)
            left = traj.left_values[node]
            right = traj.values[node]
            jump = ev.map.velocity_jump(left, None)
            assert np.abs((right[1] - left[1]) - jump).max() <= 1e-12
            assert np.array_equal(right[0], left[0])
        assert res.history_residual <= 1e-10
        # independent recomputation of the residual
        p = spec.params
        lam = p.lam
        n_r = traj.n_history
        gvals = np.zeros((n_r + 1, 2, 4))
        for g, tau in zip(spec.gammas, spec.lags):
            off = node_index(traj, tau) - n_r
            gvals += g * traj.values[off : off + n_r + 1]
        resid = traj.values[: n_r + 1] + gvals - spec.history
        assert max(pair_norm(resid[i], lam) for i in range(n_r + 1)) <= 1e-10


def test_criterion_6_approximate_controllability():
    with _criterion(6, "pull-back errors under the envelope bound, non-increasing", 120.0):
        p = ModelParams(c=1.0, d=1.0, k=1e-9, n_modes=4, T=1.0, r=0.4)
        spec = ProblemSpec(
            params=p,
            grid=SpatialGrid(129),
            n_steps=2000,
            impulses=(
                ImpulseEvent(0.4, make_impulse_map("constant_kick", 4, {"coeffs": [0.0, 0.2]})),
            ),
            lags=(0.1, 0.2),
            gammas=(0.05, 0.05),
            nonlinearity=make_nonlinearity("bounded_wave", 4, {"amp": 0.5, "omega": 2.0}),
            history=history_segment("modal_constant", p, 801, {"w": [0.3, 0.1], "y": [0.1]}),
            picard_tol=1e-11,
        )
        rng = np.random.default_rng(66)
        zstar = StateZ(0.2 * rng.normal(size=4), 0.4 * rng.normal(size=4))
        sigmas = [f * 0.4 for f in (0.2, 0.1, 0.05, 0.025)]
        result = approx_experiment(spec, zstar, sigmas)
        M = operator_norm_bound(p)
        beta1 = spec.nonlinearity.beta1
        errs = [row.terminal_error for row in result.rows]
        for row in result.rows:
            assert row.terminal_error <= M * beta1 * row.sigma + 1e-6
        assert all(a >= b for a, b in zip(errs, errs[1:]))
        # The pull-back identity: each switched run, resolved in full over
        # [-r, T] (`switched_full_run`), reads at t - r, t in [T - sigma, T],
        # the nominal run's states.
        nominal = integrate_mild(spec).trajectory.values
        for sigma, run in zip(sigmas, full_pullback_experiment(spec, zstar, sigmas)[1]):
            delayed = slice(spec.n_steps - round(sigma / spec.h), spec.n_steps + 1)
            assert energy_norms(run.values[delayed] - nominal[delayed], p.lam).max() <= 1e-9


def test_criterion_7_exact_controllability_fixed_point(grid129):
    with _criterion(7, "certified fixed point: ratios under lhs + 0.05, terminal 1e-6", 300.0):
        p = ModelParams(c=1.0, d=1.0, k=1.0, n_modes=4, T=1.0, r=0.25)
        spec = ProblemSpec(
            params=p,
            grid=grid129,
            n_steps=2000,
            impulses=(ImpulseEvent(0.5, make_impulse_map("saturating_kick", 4, {"amp": 0.01})),),
            lags=(0.1, 0.2),
            gammas=(0.02, 0.01),
            nonlinearity=make_nonlinearity("delayed_saturation", 4, {"amp": 0.02}),
            history=history_segment("modal_constant", p, 501, {"w": [0.3, 0.1], "y": [0.0, 0.05]}),
            picard_tol=1e-11,
        )
        report = contraction_constants(spec, build_gramian_set(0.0, p.T, p, spec.n_steps))
        assert report.satisfied, f"benchmark certificate violated: lhs = {report.lhs}"
        rng = np.random.default_rng(77)
        zstar = StateZ(0.2 * rng.normal(size=4), 0.5 * rng.normal(size=4))
        out = exact_fixed_point(spec, zstar, tol=1e-9, max_iter=50)
        assert len(out.iterations) <= 50
        for row in out.iterations[1:]:
            assert row.ratio <= report.lhs + 0.05
        assert out.terminal_error <= 1e-6


def test_criterion_8_certificate_reproducibility(grid129):
    with _criterion(8, "contraction lhs stable to 1e-3 under tenfold grid refinement", 60.0):
        # The certificate's |Gamma| is that of the steering operator on the
        # trajectory grid, so that is the grid refined tenfold.
        p = ModelParams(c=1.0, d=1.0, k=1.0, n_modes=4, T=1.0, r=0.25)
        spec = ProblemSpec(
            params=p,
            grid=grid129,
            n_steps=2000,
            impulses=(ImpulseEvent(0.5, make_impulse_map("saturating_kick", 4, {"amp": 0.01})),),
            lags=(0.1, 0.2),
            gammas=(0.02, 0.01),
            nonlinearity=make_nonlinearity("delayed_saturation", 4, {"amp": 0.02}),
        )
        refined = replace(spec, n_steps=20000, history=None)
        coarse, fine = (
            contraction_constants(s, build_gramian_set(0.0, p.T, p, s.n_steps))
            for s in (spec, refined)
        )
        assert abs(coarse.lhs - fine.lhs) <= 1e-3 * fine.lhs


def test_criterion_9_determinism(tmp_path):
    with _criterion(9, "byte-identical outputs for every command on the shipped configs", 180.0):
        jobs = [
            ("check", "check_zero"),
            ("gramian", "gramian_n8"),
            ("steer", "steer_linear"),
            ("simulate", "simulate_demo"),
            ("approx", "approx_bounded"),
            ("exact", "exact_benchmark"),
        ]
        for cmd, name in jobs:
            out_a = tmp_path / "a" / name
            out_b = tmp_path / "b" / name
            assert cli_main([cmd, "--config", str(CONFIGS / f"{name}.yaml"), "--out", str(out_a)]) == 0
            assert cli_main([cmd, "--config", str(CONFIGS / f"{name}.yaml"), "--out", str(out_b)]) == 0
            files_a = sorted(out_a.iterdir())
            files_b = sorted(out_b.iterdir())
            assert [f.name for f in files_a] == [f.name for f in files_b]
            assert files_a, f"{cmd} produced no outputs"
            for fa, fb in zip(files_a, files_b):
                assert fa.read_bytes() == fb.read_bytes(), f"{cmd}: {fa.name} differs"
