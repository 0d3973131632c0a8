import numpy as np
import pytest

from beamctl.control import (
    ControlSignal,
    build_gramian_set,
    controllability_map,
    gamma_norm_estimate,
    integrate_linear,
    minimum_energy_control,
    mode_gramian,
    weighted_cond,
)
from beamctl.errors import NumericalError
from beamctl.semigroup import ModelParams, apply_semigroup, propagator_entries_for
from beamctl.spectral import StateZ, eigenvalues, norm_z, zero_state

from oracles import (
    control_sum,
    control_value,
    interpolated_gamma_norm,
    linear_states,
    mode_matrix,
    rk4_forced_response,
    sampled_gamma_norm,
    scaled_control,
    simpson_gramian,
    steering_control,
    zero_control,
)


def random_state(rng, n, w_scale=0.3, y_scale=1.0):
    return StateZ(w_scale * rng.normal(size=n), y_scale * rng.normal(size=n))


def symmetrized(block, lam):
    rl = np.sqrt(lam)
    return np.array(
        [
            [block[0, 0], rl * block[0, 1]],
            [block[1, 0] / rl, block[1, 1]],
        ]
    )


class TestModeGramian:
    def test_vanishing_interval(self, p8):
        for n in (1, 8):
            w = mode_gramian(n, 1.0 - 1e-6, 1.0, p8)
            assert np.abs(w).max() <= 1e-5

    def test_degenerate_interval_rejected(self, p8):
        with pytest.raises(ValueError, match="degenerate"):
            mode_gramian(1, 1.0, 1.0, p8)

    @pytest.mark.parametrize(
        "c, d, t0",
        [
            pytest.param(1.0, 1.0, 0.0, id="p8-full"),
            pytest.param(1.0, 1.0, 0.975, id="p8-tail"),
            pytest.param(200.0, 1.0, 0.0, id="overdamped"),
            pytest.param(2.0 * np.pi**2, 1.0, 0.0, id="critical"),
            pytest.param(30.0, 4.0, 0.0, id="d4-c30"),
        ],
    )
    def test_closed_form_matches_refined_simpson(self, c, d, t0):
        # c = 2 pi^2 sqrt(d) puts mode 1 on the critically damped branch;
        # c = 200 makes modes 1 and 2 overdamped.
        p = ModelParams(c=c, d=d, k=1.0, n_modes=8, T=1.0, r=0.3)
        lam = eigenvalues(8)
        for n in range(1, 9):
            exact = symmetrized(mode_gramian(n, t0, 1.0, p), lam[n - 1])
            oracle = symmetrized(simpson_gramian(n, t0, 1.0, p, refine=4), lam[n - 1])
            assert np.abs(exact - oracle).max() <= 1e-11 * np.abs(oracle).max()

    @pytest.mark.parametrize(
        "c, d",
        [
            pytest.param(1.0, 1.0, id="p8"),
            pytest.param(200.0, 1.0, id="overdamped"),
            pytest.param(2.0 * np.pi**2, 1.0, id="critical"),
            pytest.param(30.0, 4.0, id="d4-c30"),
        ],
    )
    def test_short_windows_match_refined_simpson(self, c, d):
        # Windows down to L = 1e-5, where int e01^2 ~ L^3/3 is far below the
        # O(L) terms of the closed-form identities.  They start at 0 so that
        # t1 - t0 is L exactly; Simpson needs 16x refinement to resolve 1e-11.
        p = ModelParams(c=c, d=d, k=1.0, n_modes=8, T=1.0, r=0.3)
        for length in (1e-2, 1e-3, 1e-4, 1e-5):
            for n in range(1, 9):
                got = mode_gramian(n, 0.0, length, p)
                oracle = simpson_gramian(n, 0.0, length, p, refine=16)
                assert np.all(np.abs(got - oracle) <= 1e-11 * np.abs(oracle)), (length, n)

    def test_kalman_rank_structure(self, p8):
        # [b, A b] = [[0, 1], [1, -c]] has determinant -1 for every mode.
        b = np.array([0.0, 1.0])
        for n in (1, 4, 8):
            a = mode_matrix(n, p8)
            k = np.column_stack([b, a @ b])
            assert np.linalg.det(k) == pytest.approx(-1.0, rel=1e-14)

    def test_lyapunov_residual(self, p8):
        # d/dtau of the growing-window Gramian is the kernel at the window
        # edge; checked by a fourth-order central difference per mode, on
        # the energy-symmetrized entries (which are O(1) for every mode).
        lam = eigenvalues(8)
        tau = 0.4
        for n in range(1, 9):
            omega = np.sqrt(p8.d * lam[n - 1])
            delta = 0.02 / (2.0 * omega + p8.c)

            def q(tt):
                return mode_gramian(n, p8.T - tt, p8.T, p8)

            fd = (-q(tau + 2 * delta) + 8 * q(tau + delta) - 8 * q(tau - delta) + q(tau - 2 * delta)) / (
                12 * delta
            )
            _, e01, _, e11 = propagator_entries_for(np.array([tau]), lam[n - 1 : n], p8.c, p8.d)
            kernel = np.array(
                [
                    [lam[n - 1] * e01[0, 0] ** 2, e01[0, 0] * e11[0, 0]],
                    [lam[n - 1] * e01[0, 0] * e11[0, 0], e11[0, 0] ** 2],
                ]
            )
            resid = symmetrized(fd - kernel, lam[n - 1])
            assert np.abs(resid).max() <= 1e-6


class TestGramianSet:
    def test_weighted_symmetry(self, p8):
        gs = build_gramian_set(0.0, 1.0, p8, 2000)
        lam = eigenvalues(8)
        for i in range(8):
            dw = np.diag([lam[i], 1.0]) @ gs.steering[i]
            assert np.abs(dw - dw.T).max() <= 1e-12 * np.abs(dw).max()

    def test_positive_definite(self, p8, rng):
        gs = build_gramian_set(0.0, 1.0, p8, 2000)
        lam = eigenvalues(8)
        for i in range(8):
            d = np.diag([lam[i], 1.0])
            for _ in range(100):
                z = rng.normal(size=2)
                assert z @ d @ gs.steering[i] @ z > 0.0

    def test_inverse_identity(self, p8):
        gs = build_gramian_set(0.0, 1.0, p8, 2000)
        for i in range(8):
            assert np.abs(gs.steering[i] @ gs.steering_inv[i] - np.eye(2)).max() <= 1e-10

    def test_steering_gramian_tracks_reference(self, p8):
        # The control-grid Gramian converges to the exact value as the
        # grid refines (they differ by the trapezoid error).
        reference = np.array([mode_gramian(n, 0.0, 1.0, p8) for n in range(1, 9)])
        coarse = build_gramian_set(0.0, 1.0, p8, 2000)
        fine = build_gramian_set(0.0, 1.0, p8, 20000)
        err_coarse = np.abs(coarse.steering - reference).max()
        err_fine = np.abs(fine.steering - reference).max()
        assert err_fine < err_coarse / 50.0

    def test_cond_reads_stacked_blocks(self, p8):
        # One call on the stack gives each block's own condition number, the
        # ratio of the symmetrized block's eigenvalues; a block that is not
        # positive definite reads inf (and warns of nothing: Tier-1 makes a
        # RuntimeWarning an error).
        gs = build_gramian_set(0.0, 1.0, p8, 2000)
        lam = eigenvalues(8)
        for i in range(8):
            assert weighted_cond(gs.steering[i], lam[i]) == gs.cond[i]
            ev = np.linalg.eigvalsh(symmetrized(gs.steering[i], lam[i]))
            assert gs.cond[i] == pytest.approx(ev[1] / ev[0], rel=1e-6)
        singular = np.array([[[1.0, 0.0], [0.0, 0.0]], [[-1.0, 0.0], [0.0, -2.0]], np.eye(2)])
        assert np.array_equal(weighted_cond(singular, lam[:3]), [np.inf, np.inf, 1.0])

    def test_table_is_the_force_column(self, p8):
        # The set keeps the propagator's force column at t1 - t_i, the
        # table its Gramian and every steering control are built from.
        gs = build_gramian_set(0.25, 1.0, p8, 300)
        ts = 0.25 + (1.0 - 0.25) / 300 * np.arange(301)
        _, e01, _, e11 = propagator_entries_for(1.0 - ts, eigenvalues(8), p8.c, p8.d)
        assert np.array_equal(gs.e01, e01)
        assert np.array_equal(gs.e11, e11)


class TestControllabilityMap:
    def test_zero_control(self, p8):
        u = zero_control(0.0, 1.0, 100, 8)
        assert norm_z(controllability_map(u, p8)) == 0.0

    def test_constant_single_mode_against_rk4(self, p8):
        n_steps = 10000
        values = np.zeros((n_steps + 1, 8))
        values[:, 0] = 0.7
        u = ControlSignal(0.0, 1.0, values)
        reached = controllability_map(u, p8)
        a = mode_matrix(1, p8)
        z_end = rk4_forced_response(a, np.array([0.0, 1.0]), lambda t: 0.7, 1.0, np.zeros(2), 40000)
        assert abs(reached.w[0] - z_end[0]) < 1e-6
        assert abs(reached.y[0] - z_end[1]) < 1e-6
        assert np.abs(reached.w[1:]).max() == 0.0

    def test_linearity(self, p8, rng):
        u1 = ControlSignal(0.0, 1.0, rng.normal(size=(501, 8)))
        u2 = ControlSignal(0.0, 1.0, rng.normal(size=(501, 8)))
        alpha = 0.73
        lhs = controllability_map(control_sum(scaled_control(u1, alpha), u2), p8)
        rhs = alpha * controllability_map(u1, p8) + controllability_map(u2, p8)
        assert norm_z(lhs - rhs) <= 1e-10 * max(1.0, norm_z(rhs))

    @pytest.mark.parametrize("t0", [0.0, 0.3])
    def test_gramian_set_response_is_the_map_bitwise(self, p8, rng, t0):
        # The set's table is the one the map tabulates for a control on its
        # grid, so reading it gives the same bytes, marks included.
        gs = build_gramian_set(t0, 1.0, p8, 400)
        for marks in ({}, {150: rng.normal(size=8)}):
            u = ControlSignal(t0, 1.0, rng.normal(size=(401, 8)), marks)
            got, want = gs.response(u), controllability_map(u, p8)
            assert np.array_equal(got.w, want.w) and np.array_equal(got.y, want.y)
        with pytest.raises(ValueError, match="grid"):
            gs.response(ControlSignal(t0, 1.0, rng.normal(size=(201, 8))))


class TestMinimumEnergyControl:
    def test_zero_target(self, p8):
        gs = build_gramian_set(0.0, 1.0, p8, 1000)
        u = minimum_energy_control(zero_state(8), gs, p8)
        assert not u.values.any()

    def test_right_inverse_mode_one(self, p8):
        # Millisecond control grid, per the documented tolerance.
        gs = build_gramian_set(0.0, 1.0, p8, 1000)
        xi = StateZ(np.eye(8)[0], np.zeros(8))
        u = minimum_energy_control(xi, gs, p8)
        assert norm_z(controllability_map(u, p8) - xi) <= 1e-6 * norm_z(xi)

    def test_right_inverse_random_targets(self, p8, rng):
        gs = build_gramian_set(0.0, 1.0, p8, 2000)
        for _ in range(20):
            xi = random_state(rng, 8)
            u = minimum_energy_control(xi, gs, p8)
            assert norm_z(controllability_map(u, p8) - xi) <= 1e-6 * norm_z(xi)

    def test_ill_conditioned_names_the_mode(self, p8):
        gs = build_gramian_set(0.0, 2e-7, p8, 16)
        assert gs.cond.max() > 1e12
        with pytest.raises(NumericalError, match="mode"):
            minimum_energy_control(random_state(np.random.default_rng(0), 8), gs, p8)

    def test_minimum_energy_among_reaching_controls(self, p8, rng):
        gs = build_gramian_set(0.0, 1.0, p8, 2000)
        xi = random_state(rng, 8)
        u_star = minimum_energy_control(xi, gs, p8)
        for _ in range(5):
            v = ControlSignal(0.0, 1.0, rng.normal(size=(2001, 8)))
            reach_v = controllability_map(v, p8)
            cancel = minimum_energy_control(StateZ(-reach_v.w, -reach_v.y), gs, p8)
            kernel = control_sum(v, cancel)
            assert norm_z(controllability_map(kernel, p8)) <= 1e-9
            alt = control_sum(u_star, kernel)
            assert norm_z(controllability_map(alt, p8) - xi) <= 1e-6 * norm_z(xi)
            assert u_star.l2_norm() <= alt.l2_norm() + 1e-6

    def test_gamma_norm_refinement(self, p8):
        # The applied operator's norm settles as the control grid refines,
        # onto the sampled norm of the continuous (reference) operator.
        coarse = gamma_norm_estimate(build_gramian_set(0.0, 1.0, p8, 2000), p8)
        fine = gamma_norm_estimate(build_gramian_set(0.0, 1.0, p8, 20000), p8)
        assert abs(coarse - fine) <= 1e-3 * fine
        assert abs(sampled_gamma_norm(0.0, 1.0, p8, 20000) - fine) <= 1e-3 * fine

    @pytest.mark.parametrize(
        "c, d, t0, n_steps",
        [
            pytest.param(1.0, 1.0, 0.0, 2000, id="p8"),
            pytest.param(1.0, 1.0, 0.9, 200, id="p8-tail"),
            pytest.param(30.0, 4.0, 0.0, 400, id="d4-c30"),
            pytest.param(200.0, 0.5, 0.0, 400, id="overdamped"),
        ],
    )
    def test_gamma_norm_is_the_sup_between_nodes(self, c, d, t0, n_steps):
        # The control is linear between nodes, so the sup over a ten times
        # finer interpolation is the maximum over the nodes.
        p = ModelParams(c=c, d=d, k=1.0, n_modes=8, T=1.0, r=0.3)
        gs = build_gramian_set(t0, 1.0, p, n_steps)
        got = gamma_norm_estimate(gs, p)
        assert got == pytest.approx(interpolated_gamma_norm(gs, p, refine=10), rel=1e-14)

    def test_gamma_norm_ill_conditioned_names_the_mode(self, p8):
        gs = build_gramian_set(0.0, 2e-7, p8, 16)
        with pytest.raises(NumericalError, match="mode"):
            gamma_norm_estimate(gs, p8)


class TestSteering:
    def test_free_flight_needs_no_control(self, p8, rng):
        z0 = random_state(rng, 8)
        zstar = apply_semigroup(z0, 1.0, p8)
        u = steering_control(z0, zstar, 0.0, 1.0, p8, 1000)
        assert np.abs(u.values).max() <= 1e-10

    def test_mode_one_closed_loop_rk4(self, p8):
        zstar = StateZ(np.eye(8)[0], np.zeros(8))
        n_steps = 10000
        u = steering_control(zero_state(8), zstar, 0.0, 1.0, p8, n_steps)
        a = mode_matrix(1, p8)
        z_end = rk4_forced_response(
            a, np.array([0.0, 1.0]), lambda t: control_value(u, t)[0], 1.0, np.zeros(2), 2 * n_steps
        )
        err = np.hypot(np.pi**2 * (z_end[0] - 1.0), z_end[1])
        assert err <= 1e-6 * norm_z(zstar)

    def test_scaling_linearity(self, p8):
        zstar = StateZ(np.eye(8)[2] * 0.4, np.zeros(8))
        u1 = steering_control(zero_state(8), zstar, 0.0, 1.0, p8, 1000)
        u2 = steering_control(zero_state(8), 2.0 * zstar, 0.0, 1.0, p8, 1000)
        assert np.abs(u2.values - 2.0 * u1.values).max() <= 1e-12 * np.abs(u2.values).max()

    def test_simulated_closed_loop(self, p8, rng):
        z0 = random_state(rng, 8)
        zstar = random_state(rng, 8)
        u = steering_control(z0, zstar, 0.0, 1.0, p8, 2000)
        zT = StateZ.from_pair(integrate_linear(z0, u, p8))
        assert norm_z(zT - zstar) <= 1e-9 * norm_z(zstar)

    @pytest.mark.parametrize("n_nodes", [2, 3, 255, 256, 257, 511, 512, 2001])
    def test_terminal_state_is_the_full_march_bitwise(self, p8, rng, n_nodes):
        # integrate_linear marches through a buffer of _LINEAR_BLOCK = 256 rows
        # whose last row starts the next block; the node counts straddle that
        # size, and a switch node gives the left and right limits apart.
        z0 = random_state(rng, 8)
        for marks in ({}, {n_nodes // 2: rng.normal(size=8)} if n_nodes > 2 else {}):
            u = ControlSignal(0.0, 1.0, rng.normal(size=(n_nodes, 8)), marks)
            last = integrate_linear(z0, u, p8)
            assert last.shape == (2, 8)
            np.testing.assert_array_equal(last, linear_states(z0, u, p8)[-1])


class TestControlSignal:
    def test_interpolation_and_marks(self):
        values = np.array([[0.0], [1.0], [2.0]])
        u = ControlSignal(0.0, 1.0, values, {1: np.array([10.0])})
        assert control_value(u, 0.25)[0] == pytest.approx(5.0)  # toward the left limit
        assert control_value(u, 0.5)[0] == 1.0  # right limit at the mark
        assert control_value(u, 0.75)[0] == pytest.approx(1.5)

    def test_l2_norm_matches_manual_trapezoid(self, rng):
        values = rng.normal(size=(11, 3))
        u = ControlSignal(0.0, 1.0, values)
        sq = np.sum(values**2, axis=1)
        manual = np.sqrt(0.1 * (np.sum(sq) - 0.5 * (sq[0] + sq[-1])))
        assert u.l2_norm() == pytest.approx(manual, rel=1e-14)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            ControlSignal(0.0, 0.0, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            ControlSignal(0.0, 1.0, np.zeros((1, 2)))

    def test_boundary_marks_rejected(self):
        with pytest.raises(ValueError, match="interior"):
            ControlSignal(0.0, 1.0, np.zeros((3, 2)), {0: np.zeros(2)})
