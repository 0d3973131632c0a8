import logging
from pathlib import Path

import numpy as np
import pytest

from beamctl import synthesis
from beamctl.catalogs import ImpulseEvent, make_forcing, make_impulse_map, make_nonlinearity
from beamctl.config import parse_config
from beamctl.control import ControlSignal, build_gramian_set, minimum_energy_control
from beamctl.dynamics import (
    ProblemSpec,
    Trajectory,
    history_segment,
    integrate_mild,
    integrate_tail,
)
from beamctl.errors import ConfigError
from beamctl.semigroup import ModelParams
from beamctl.spectral import SpatialGrid, StateZ, norm_z, pair_norm, zero_state
from beamctl.synthesis import (
    approx_experiment,
    contraction_constants,
    exact_fixed_point,
    pullback_control,
    steering_target,
)

from oracles import (
    cold_exact_fixed_point,
    controllability_map,
    count_propagator_tables,
    full_pullback_experiment,
    loop_steering_target,
)

CONFIGS = Path(__file__).parents[1] / "configs"


def certificate(spec, n_steps=None):
    """The contraction certificate with the steering set of n_steps (default the spec's)."""
    p = spec.params
    return contraction_constants(spec, build_gramian_set(0.0, p.T, p, n_steps or spec.n_steps))


def steering_set(spec):
    """The steering set over [0, T] on the spec's grid, as `exact_fixed_point` builds it."""
    p = spec.params
    return build_gramian_set(0.0, p.T, p, spec.n_steps)


def constant_history(p, n_steps, w=(), y=()):
    """A modal-constant history at the nodes of [-r, 0] of the grid with n_steps steps."""
    n_r = int(round(p.r * n_steps / p.T))
    return history_segment("modal_constant", p, n_r + 1, {"w": list(w), "y": list(y)})


def exact_benchmark_spec():
    p = ModelParams(c=1.0, d=1.0, k=1.0, n_modes=4, T=1.0, r=0.25)
    return ProblemSpec(
        params=p,
        grid=SpatialGrid(129),
        n_steps=2000,
        impulses=(ImpulseEvent(0.5, make_impulse_map("saturating_kick", 4, {"amp": 0.01})),),
        lags=(0.1, 0.2),
        gammas=(0.02, 0.01),
        nonlinearity=make_nonlinearity("delayed_saturation", 4, {"amp": 0.02}),
        history=constant_history(p, 2000, w=[0.3, 0.1], y=[0.0, 0.05]),
        picard_tol=1e-11,
    )


@pytest.fixture
def exact_benchmark():
    return exact_benchmark_spec()


@pytest.fixture
def bounded_benchmark(grid129):
    p = ModelParams(c=1.0, d=1.0, k=1e-9, n_modes=4, T=1.0, r=0.4)
    return ProblemSpec(
        params=p,
        grid=grid129,
        n_steps=2000,
        impulses=(ImpulseEvent(0.4, make_impulse_map("constant_kick", 4, {"coeffs": [0.0, 0.2]})),),
        lags=(0.1, 0.2),
        gammas=(0.05, 0.05),
        nonlinearity=make_nonlinearity("bounded_wave", 4, {"amp": 0.5, "omega": 2.0}),
        history=constant_history(p, 2000, w=[0.3, 0.1], y=[0.1]),
        picard_tol=1e-11,
    )


def post_impulse_gap_spec():
    """T = 1 on 200 steps, the last impulse at node 59 and r = 160 h past the gap."""
    p = ModelParams(c=1.0, d=1.0, k=1.0, n_modes=2, T=1.0, r=0.8)
    kick = make_impulse_map("velocity_kick", 2, {"amp": 0.1})
    return ProblemSpec(
        params=p,
        grid=SpatialGrid(33),
        n_steps=200,
        impulses=(ImpulseEvent(59 * p.T / 200, kick),),
        lags=(0.1,),
        gammas=(0.05,),
    )


def late_lag_spec(grid):
    """Pull-back problem whose last lag, 0.35, leaves windows of at most T - tau_q = 0.15."""
    p = ModelParams(c=1.0, d=1.0, k=1e-9, n_modes=4, T=0.5, r=0.4)
    return ProblemSpec(params=p, grid=grid, n_steps=1000, lags=(0.1, 0.35), gammas=(0.05, 0.05))


def saturation_spec(grid):
    """Pull-back problem whose bound reads every delayed state: delayed_saturation below its cap."""
    p = ModelParams(c=1.0, d=1.0, k=1e-9, n_modes=4, T=1.0, r=0.4)
    return ProblemSpec(
        params=p,
        grid=grid,
        n_steps=2000,
        lags=(0.1, 0.2),
        gammas=(0.05, 0.05),
        nonlinearity=make_nonlinearity("delayed_saturation", 4, {"amp": 0.4}),
        history=constant_history(p, 2000, w=[0.02, 0.01], y=[0.2]),
        picard_tol=1e-11,
    )


def spied_approx_experiment(monkeypatch, spec, zstar, sigmas):
    """`approx_experiment` plus its `integrate_mild` call count and switched runs."""
    mild_calls, runs = [], []

    def spy(fn, counter=None):
        def wrapped(*args, **kwargs):
            res = fn(*args, **kwargs)
            if counter is not None:
                counter.append(1)
            runs.append(res.trajectory)
            return res

        return wrapped

    with monkeypatch.context() as m:
        m.setattr(synthesis, "integrate_mild", spy(synthesis.integrate_mild, mild_calls))
        m.setattr(synthesis, "integrate_tail", spy(synthesis.integrate_tail))
        result = approx_experiment(spec, zstar, sigmas)
    return result, len(mild_calls), runs[1:]


class TestContractionConstants:
    def test_all_zero_perturbations(self, grid129):
        p = ModelParams(c=1.0, d=1.0, k=1e-15, n_modes=4, T=1.0, r=0.25)
        spec = ProblemSpec(params=p, grid=grid129, n_steps=200)
        rep = certificate(spec)
        assert rep.lhs <= 1e-12
        assert rep.satisfied

    def test_affine_monotonicity_in_impulse_bound(self, grid129):
        p = ModelParams(c=1.0, d=1.0, k=1e-15, n_modes=4, T=1.0, r=0.25)
        values = []
        for d1 in (0.01, 0.05, 0.1):
            spec = ProblemSpec(
                params=p,
                grid=grid129,
                n_steps=200,
                impulses=(ImpulseEvent(0.5, make_impulse_map("velocity_kick", 4, {"amp": d1})),),
            )
            values.append(certificate(spec).lhs)
        assert values[0] < values[1] < values[2]

    def test_pure_cable_case_formula(self, grid129):
        # k = pi^2 alone: the perturbation constant is exactly one, so
        # lhs = M*T*(1 + |Gamma|*M*T).
        p = ModelParams(c=1.0, d=1.0, k=np.pi**2, n_modes=4, T=1.0, r=0.25)
        spec = ProblemSpec(params=p, grid=grid129, n_steps=200)
        rep = certificate(spec)
        assert rep.lipschitz_F == pytest.approx(1.0, rel=1e-14)
        formula = rep.M * rep.T * (1.0 + rep.norm_gamma * rep.M * rep.T)
        assert rep.lhs == pytest.approx(formula, rel=1e-12)
        four_terms = (
            rep.M * rep.L_q * rep.q
            + rep.M * rep.T * rep.norm_B * rep.norm_gamma * rep.C
            + rep.M * rep.T * rep.lipschitz_F
            + rep.M * rep.impulse_sum
        )
        assert rep.lhs == pytest.approx(four_terms, rel=1e-14)

    def test_reproducible_under_grid_refinement(self, grid129):
        p = ModelParams(c=1.0, d=1.0, k=np.pi**2, n_modes=4, T=1.0, r=0.25)
        spec = ProblemSpec(params=p, grid=grid129, n_steps=200)
        coarse = certificate(spec, 2000)
        fine = certificate(spec, 20000)
        assert abs(coarse.lhs - fine.lhs) <= 1e-3 * fine.lhs


class TestPullbackControl:
    def test_window_bound_enforced(self, bounded_benchmark, rng):
        spec = bounded_benchmark
        traj = integrate_mild(spec).trajectory
        zstar = StateZ(rng.normal(size=4), rng.normal(size=4))
        # min(T - t_m, r) = min(0.6, 0.4) = 0.4
        with pytest.raises(ConfigError, match="0.4") as exc:
            pullback_control(traj, 0.4, zstar, spec)
        assert exc.value.key == "experiment.sigmas[0]"
        with pytest.raises(ConfigError, match="0.4"):
            pullback_control(traj, 0.5, zstar, spec)

    def test_window_on_the_post_impulse_gap_rejected(self, rng):
        # T - t_m = 141 h, whose float 1 - 59 h lies above 141 h: only the
        # node count tells the window sigma = 141 h from one inside the gap.
        spec = post_impulse_gap_spec()
        sigma = 141 * spec.h
        assert sigma < spec.params.T - spec.impulses[-1].time
        assert spec.window_steps([140 * spec.h]) == (140,)
        traj = integrate_mild(spec).trajectory
        zstar = StateZ(rng.normal(size=2), rng.normal(size=2))
        with pytest.raises(ConfigError, match="141 steps") as exc:
            pullback_control(traj, sigma, zstar, spec)
        assert exc.value.key == "experiment.sigmas[0]"
        with pytest.raises(ConfigError, match="141 steps") as exc:
            approx_experiment(spec, zstar, [sigma])
        assert exc.value.key == "experiment.sigmas[0]"

    def test_restriction_is_bitwise_zero(self, bounded_benchmark, rng):
        spec = bounded_benchmark
        traj = integrate_mild(spec).trajectory
        zstar = StateZ(rng.normal(size=4) * 0.1, rng.normal(size=4))
        sigma = 0.05
        u_s = pullback_control(traj, sigma, zstar, spec)
        switch = 2000 - int(round(sigma / spec.h))
        assert np.array_equal(u_s.values[:switch], np.zeros((switch, 4)))
        assert list(u_s.left_values) == [switch]
        assert np.array_equal(u_s.left_values[switch], np.zeros(4))

    def test_linear_tail_steers_exactly(self, grid129, rng):
        p = ModelParams(c=1.0, d=1.0, k=1e-15, n_modes=4, T=1.0, r=0.4)
        spec = ProblemSpec(
            params=p,
            grid=grid129,
            n_steps=2000,
            history=constant_history(p, 2000, w=[0.3], y=[0.2]),
        )
        zstar = StateZ(rng.normal(size=4) * 0.2, rng.normal(size=4))
        free = integrate_mild(spec)
        for sigma in (0.2, 0.05):
            u_s = pullback_control(free.trajectory, sigma, zstar, spec)
            final = integrate_tail(spec, free, u_s).trajectory.terminal_state()
            assert norm_z(final - zstar) <= 1e-6


class TestApproxExperiment:
    def test_bounded_benchmark_error_bound(self, bounded_benchmark, rng):
        spec = bounded_benchmark
        zstar = StateZ(rng.normal(size=4) * 0.2, rng.normal(size=4) * 0.4)
        result = approx_experiment(spec, zstar, [0.08, 0.04, 0.02, 0.01])
        beta1 = spec.nonlinearity.beta1
        assert beta1 == 0.5
        errs = [row.terminal_error for row in result.rows]
        for row in result.rows:
            assert row.terminal_error <= result.M_estimate * beta1 * row.sigma + 1e-6
            assert row.terminal_error <= row.bound_estimate + 1e-6
        assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_windows_switching_before_the_last_lag_are_rejected(
        self, bounded_benchmark, grid129, rng, caplog
    ):
        # Late-lag problem: both switches, T - sigma = 0.2 and 0.3, come
        # before tau_q = 0.35.  The bounded benchmark is the problem of
        # approx_bounded.yaml, whose switches all follow tau_q = 0.2.
        zstar = StateZ(rng.normal(size=4) * 0.2, rng.normal(size=4) * 0.4)
        with pytest.raises(ConfigError, match=r"T - sigma >= tau_q") as err:
            approx_experiment(late_lag_spec(grid129), zstar, [0.3, 0.2])
        assert err.value.key == "experiment.sigmas[0]"
        assert late_lag_spec(grid129).window_steps([0.15]) == (300,)
        with caplog.at_level(logging.DEBUG):
            approx_experiment(bounded_benchmark, zstar, [0.08, 0.04, 0.02, 0.01])
        assert not caplog.records

    @pytest.mark.parametrize("case", ["bounded", "saturation"])
    def test_matches_full_reintegration_bitwise(
        self, case, bounded_benchmark, grid129, rng, monkeypatch
    ):
        spec, sigmas = bounded_benchmark, [0.08, 0.04, 0.02, 0.01]
        if case == "saturation":
            spec, sigmas = saturation_spec(grid129), [0.08, 0.02]
        zstar = StateZ(rng.normal(size=4) * 0.2, rng.normal(size=4) * 0.4)
        result, mild_calls, runs = spied_approx_experiment(monkeypatch, spec, zstar, sigmas)
        oracle, oracle_runs = full_pullback_experiment(spec, zstar, sigmas)
        assert mild_calls == 1
        assert result == oracle
        assert len(runs) == len(oracle_runs) == len(sigmas)
        for a, b in zip(runs, oracle_runs):
            assert np.array_equal(a.values, b.values)
            assert sorted(a.left_values) == sorted(b.left_values)
            for i in a.left_values:
                assert np.array_equal(a.left_values[i], b.left_values[i])

    def test_monotone_on_delayed_saturation_benchmark(self, grid129, rng):
        p = ModelParams(c=1.0, d=1.0, k=1e-9, n_modes=4, T=1.0, r=0.4)
        spec = ProblemSpec(
            params=p,
            grid=grid129,
            n_steps=2000,
            lags=(0.1, 0.2),
            gammas=(0.05, 0.05),
            nonlinearity=make_nonlinearity("delayed_saturation", 4, {"amp": 0.4}),
            history=constant_history(p, 2000, w=[0.3, 0.1], y=[0.2]),
            picard_tol=1e-11,
        )
        zstar = StateZ(rng.normal(size=4) * 0.2, rng.normal(size=4) * 0.4)
        sigmas = [f * 0.4 for f in (0.2, 0.1, 0.05, 0.025)]
        result = approx_experiment(spec, zstar, sigmas)
        errs = [row.terminal_error for row in result.rows]
        assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_linear_problem_every_window_exact(self, grid129, rng):
        p = ModelParams(c=1.0, d=1.0, k=1e-15, n_modes=4, T=1.0, r=0.4)
        spec = ProblemSpec(
            params=p, grid=grid129, n_steps=2000, history=constant_history(p, 2000, w=[0.2])
        )
        zstar = StateZ(rng.normal(size=4) * 0.2, rng.normal(size=4))
        result = approx_experiment(spec, zstar, [0.08, 0.04, 0.02])
        for row in result.rows:
            assert row.terminal_error <= 1e-6

    def test_windows_must_decrease(self, bounded_benchmark, rng):
        zstar = StateZ(rng.normal(size=4), rng.normal(size=4))
        with pytest.raises(ConfigError, match="decrease") as exc:
            approx_experiment(bounded_benchmark, zstar, [0.02, 0.04])
        assert exc.value.key == "experiment.sigmas[1]"


class TestSteeringTarget:
    def test_trivial_problem_returns_target(self, grid129, rng):
        p = ModelParams(c=1.0, d=1.0, k=1e-15, n_modes=4, T=1.0, r=0.25)
        spec = ProblemSpec(params=p, grid=grid129, n_steps=500)
        res = integrate_mild(spec)
        zstar = StateZ(rng.normal(size=4), rng.normal(size=4))
        out = steering_target(res.trajectory, zstar, spec, res.sources, steering_set(spec))
        assert norm_z(out - zstar) <= 1e-12 * norm_z(zstar)

    def test_shift_linearity_in_target(self, exact_benchmark, rng):
        spec = exact_benchmark
        res = integrate_mild(spec)
        z1 = StateZ(rng.normal(size=4), rng.normal(size=4))
        delta = StateZ(rng.normal(size=4), rng.normal(size=4))
        gs = steering_set(spec)
        a = steering_target(res.trajectory, z1, spec, res.sources, gs)
        b = steering_target(res.trajectory, z1 + delta, spec, res.sources, gs)
        assert norm_z((b - a) - delta) <= 1e-12 * norm_z(delta)

    def test_recorded_sources_give_the_same_target_bitwise(self, exact_benchmark, rng):
        res = integrate_mild(exact_benchmark)
        zstar = StateZ(rng.normal(size=4), rng.normal(size=4))
        # The loop evaluates every row on its own, one node at a time.
        a = loop_steering_target(res.trajectory, zstar, exact_benchmark)
        gs = steering_set(exact_benchmark)
        b = steering_target(res.trajectory, zstar, exact_benchmark, res.sources, gs)
        assert np.array_equal(a.to_pair(), b.to_pair())

    @pytest.mark.parametrize("problem", ["exact_benchmark", "impulses+forcing"])
    @pytest.mark.parametrize("controlled", [False, True], ids=["cold", "controlled"])
    def test_one_pass_sum_matches_the_node_loop_bitwise(
        self, problem, controlled, exact_benchmark, grid129, rng
    ):
        if problem == "exact_benchmark":
            spec = exact_benchmark
        else:
            p = ModelParams(c=1.0, d=1.0, k=1.0, n_modes=4, T=1.0, r=0.25)
            spec = ProblemSpec(
                params=p,
                grid=grid129,
                n_steps=400,
                impulses=(
                    ImpulseEvent(0.3, make_impulse_map("constant_kick", 4, {"coeffs": [0.0, 0.2]})),
                    ImpulseEvent(0.7, make_impulse_map("saturating_kick", 4, {"amp": 0.05})),
                ),
                lags=(0.1, 0.2),
                gammas=(0.05, 0.02),
                forcing=make_forcing("harmonic", 4, {"coeffs": [2 ** -0.5, 0.1], "omega": 3.0}),
                history=constant_history(p, 400, w=[0.3, 0.1], y=[0.0, 0.05]),
            )
        u = None
        if controlled:
            u = ControlSignal(0.0, 1.0, rng.normal(size=(spec.n_steps + 1, 4)))
        res = integrate_mild(spec, u)
        zstar = StateZ(rng.normal(size=4), rng.normal(size=4))
        gs = steering_set(spec)
        got = steering_target(res.trajectory, zstar, spec, res.sources, gs).to_pair()
        for sources in (None, res.sources):
            ref = loop_steering_target(res.trajectory, zstar, spec, sources).to_pair()
            # Bytes, not values: the sign of zero must agree too.
            assert got.tobytes() == ref.tobytes()

    def test_rejects_a_set_off_the_run_window(self, exact_benchmark, rng):
        spec = exact_benchmark
        p = spec.params
        res = integrate_mild(spec)
        zstar = StateZ(rng.normal(size=4), rng.normal(size=4))
        for gs in (
            build_gramian_set(0.5, p.T, p, spec.n_steps),
            build_gramian_set(0.0, p.T, p, spec.n_steps // 2),
        ):
            with pytest.raises(ValueError, match="over \\[0, T\\]"):
                steering_target(res.trajectory, zstar, spec, res.sources, gs)

    def test_lipschitz_against_certificate(self, exact_benchmark, rng):
        spec = exact_benchmark
        rep = certificate(spec)
        p = spec.params
        lam = p.lam
        n_r = int(round(p.r / spec.h))
        n_total = n_r + spec.n_steps + 1
        imp_node = n_r + int(round(0.5 / spec.h))
        zstar = zero_state(4)
        for _ in range(20):
            vals_a = 0.3 * rng.normal(size=(n_total, 2, 4))
            vals_b = 0.3 * rng.normal(size=(n_total, 2, 4))
            ya = Trajectory(spec.h, n_r, vals_a, {imp_node: 0.3 * rng.normal(size=(2, 4))})
            yb = Trajectory(spec.h, n_r, vals_b, {imp_node: 0.3 * rng.normal(size=(2, 4))})
            la = loop_steering_target(ya, zstar, spec)
            lb = loop_steering_target(yb, zstar, spec)
            sup = ya.sup_diff(yb)
            sup = max(
                sup,
                pair_norm(ya.left_values[imp_node] - yb.left_values[imp_node], lam),
            )
            assert norm_z(la - lb) <= rep.C * sup + 1e-9


class TestExactFixedPoint:
    def test_trivial_problem_converges_immediately(self, grid129, rng):
        p = ModelParams(c=1.0, d=1.0, k=1e-15, n_modes=4, T=1.0, r=0.25)
        spec = ProblemSpec(
            params=p, grid=grid129, n_steps=2000, history=constant_history(p, 2000, w=[0.2])
        )
        zstar = StateZ(rng.normal(size=4) * 0.3, rng.normal(size=4))
        out = exact_fixed_point(spec, zstar, tol=1e-9, max_iter=50)
        assert len(out.iterations) <= 2
        assert out.terminal_error <= 1e-6

    @pytest.fixture(scope="class")
    def benchmark_run(self):
        # One run on the `exact_benchmark` problem and the rng(1234) target,
        # shared by the tests that check it.
        spec = exact_benchmark_spec()
        rng = np.random.default_rng(1234)
        zstar = StateZ(rng.normal(size=4) * 0.2, rng.normal(size=4) * 0.5)
        return spec, zstar, exact_fixed_point(spec, zstar, tol=1e-9, max_iter=50)

    def test_benchmark_convergence_and_ratios(self, benchmark_run):
        spec, zstar, out = benchmark_run
        # The certificate is that of the steering set the iteration applies.
        assert out.report == certificate(spec)
        assert out.report.satisfied
        assert out.terminal_error <= 1e-6
        bound = out.report.lhs + 0.05
        for row in out.iterations[1:]:
            assert row.ratio <= bound
        # one more pass through the map moves the iterate by at most 2 tol
        gs = steering_set(spec)
        xi = steering_target(out.result.trajectory, zstar, spec, out.result.sources, gs)
        once_more = integrate_mild(spec, minimum_energy_control(xi, gs, spec.params))
        assert once_more.trajectory.sup_diff(out.result.trajectory) <= 2e-9

    def test_tabulates_the_force_column_once(self, exact_benchmark, monkeypatch):
        # Every outer iteration convolves against the [0, T] force column;
        # the Gramian set holds it, so it is tabulated once per run.
        spec = exact_benchmark
        sizes = count_propagator_tables(monkeypatch)
        rng = np.random.default_rng(1234)
        zstar = StateZ(rng.normal(size=4) * 0.2, rng.normal(size=4) * 0.5)
        out = exact_fixed_point(spec, zstar, tol=1e-9, max_iter=50)
        assert len(out.iterations) > 1
        assert sizes.count(spec.n_steps + 1) == 1

    def test_reached_target_matches_steering_identity(self, benchmark_run):
        spec, zstar, out = benchmark_run
        gu = controllability_map(out.control, spec.params)
        gs = steering_set(spec)
        lz = steering_target(out.result.trajectory, zstar, spec, out.result.sources, gs)
        assert norm_z(gu - lz) <= 1e-9 * max(1.0, norm_z(lz))

    @pytest.mark.parametrize("problem", ["config", "criterion_7"])
    def test_warm_started_iteration_matches_the_cold_loop(self, problem, exact_benchmark):
        # Criterion 7's problem is the `exact_benchmark` fixture; the
        # shipped config differs from it only in its target.
        if problem == "config":
            cfg = parse_config(CONFIGS / "exact_benchmark.yaml")
            spec, zstar, tol = cfg.problem, cfg.zstar, cfg.tol
        else:
            rng = np.random.default_rng(77)
            spec, tol = exact_benchmark, 1e-9
            zstar = StateZ(0.2 * rng.normal(size=4), 0.5 * rng.normal(size=4))
        warm = exact_fixed_point(spec, zstar, tol=tol, max_iter=50)
        cold = cold_exact_fixed_point(spec, zstar, tol=tol, max_iter=50)
        assert len(warm.iterations) == len(cold.iterations)
        a, b = warm.control, cold.control
        assert sorted(a.left_values) == sorted(b.left_values)
        assert np.abs(a.values - b.values).max() <= 1e-12 * np.abs(b.values).max()
        assert warm.result.history_residual <= spec.picard_tol
        assert warm.terminal_error <= 1e-6

    @pytest.mark.parametrize("tol", [1e-5, 1e-6])
    def test_loose_outer_tolerance_still_returns_a_resolved_history(self, tol):
        # A loose outer tolerance stops while the inner solves are still
        # loose; the returned iterate is resolved to `picard_tol` all the
        # same (without a final solve it reads 1.3e-9 at tol 1e-5).
        cfg = parse_config(CONFIGS / "exact_benchmark.yaml")
        out = exact_fixed_point(cfg.problem, cfg.zstar, tol=tol, max_iter=50)
        assert out.result.history_residual <= cfg.problem.picard_tol

    def test_control_dependent_entries_rejected(self, grid129, rng):
        p = ModelParams(c=1.0, d=1.0, k=1.0, n_modes=4, T=1.0, r=0.25)
        spec = ProblemSpec(
            params=p,
            grid=grid129,
            n_steps=500,
            nonlinearity=make_nonlinearity("control_saturation", 4, {"amp": 0.1}),
        )
        with pytest.raises(ConfigError, match="control-independent"):
            exact_fixed_point(spec, zero_state(4))
