import numpy as np
import pytest

from beamctl import dynamics
from beamctl.catalogs import ImpulseEvent, make_forcing, make_impulse_map, make_nonlinearity
from beamctl.control import ControlSignal
from beamctl.dynamics import (
    ProblemSpec,
    Segment,
    history_segment,
    integrate_mild,
    nonlocal_combination,
    segment_at,
    source_term,
)
from beamctl.errors import ConfigError, NumericalError
from beamctl.semigroup import ModelParams, apply_semigroup
from beamctl.spectral import SpatialGrid, StateZ, eigenvalues, norm_z, pair_norm, project

from oracles import implicit_trapezoid_sweep, method_of_steps_rk4


def tiny_cable(n_modes=4, T=1.0, r=0.25):
    """Parameters with a negligible cable force (the k > 0 invariant holds)."""
    return ModelParams(c=1.0, d=1.0, k=1e-15, n_modes=n_modes, T=T, r=r)


def constant_segment(p, w=(), y=(), n_nodes=201):
    return history_segment("modal_constant", p, n_nodes, {"w": list(w), "y": list(y)})


def random_segment(rng, p, n_nodes=51):
    step = p.r / (n_nodes - 1)
    return Segment(step, rng.normal(size=(n_nodes, 2, p.n_modes)))


class TestSourceTerm:
    def test_zero_when_position_nonpositive(self, grid129):
        p = ModelParams(c=1.0, d=1.0, k=5.0, n_modes=4, T=1.0, r=0.25)
        spec = ProblemSpec(params=p, grid=grid129, n_steps=100)
        seg = constant_segment(p, w=[-1.0], n_nodes=11)  # -sin(pi x) <= 0
        out = source_term(0.3, seg, None, spec)
        assert norm_z(out) <= 1e-12

    def test_static_load_minus_cable_force(self, grid129, rng):
        p = ModelParams(c=1.0, d=1.0, k=2.0, n_modes=4, T=1.0, r=0.25)
        # load sin(pi x) = (1/sqrt(2)) * basis function 1
        forcing = make_forcing("harmonic", 4, {"coeffs": [2 ** -0.5]})
        spec = ProblemSpec(params=p, grid=grid129, n_steps=100, forcing=forcing)
        w = rng.normal(size=4)
        seg = Segment(p.r / 10, np.broadcast_to(np.vstack([w, np.zeros(4)]), (11, 2, 4)).copy())
        out = source_term(0.0, seg, None, spec)
        # assembly oracle: dense quadrature of the load, cable force on the
        # operating grid (its own grid convergence is covered elsewhere)
        fine = SpatialGrid(2590)
        load_coeffs = project(np.sin(np.pi * fine.nodes), 4, fine)
        from beamctl.spectral import positive_part

        oracle = load_coeffs - p.k * positive_part(w, grid129)
        assert np.abs(out.y - oracle).max() < 1e-8
        assert not out.w.any()

    def test_growth_envelope_of_delayed_saturation(self, grid129, rng):
        p = tiny_cable()
        nl = make_nonlinearity("delayed_saturation", 4, {"amp": 0.3})
        spec = ProblemSpec(params=p, grid=grid129, n_steps=100, nonlinearity=nl)
        lam = eigenvalues(4)
        for _ in range(100):
            seg = random_segment(rng, p)
            out = source_term(0.5, seg, None, spec)
            anchor = pair_norm(seg.value(-p.r), lam)
            bound = nl.alpha1 * nl.envelope(anchor) + nl.beta1
            assert norm_z(out) <= bound + 1e-9

    def test_unknown_catalog_entry(self):
        with pytest.raises(ConfigError, match="unknown"):
            make_nonlinearity("warp_drive", 4)
        with pytest.raises(ConfigError, match="unknown"):
            make_forcing("warp_drive", 4)
        with pytest.raises(ConfigError, match="unknown"):
            make_impulse_map("warp_drive", 4)


class TestNonlocalCombination:
    def _spec(self, grid, gammas):
        p = tiny_cable()
        return ProblemSpec(
            params=p, grid=grid, n_steps=100, lags=(0.1, 0.2)[: len(gammas)], gammas=gammas
        )

    def test_zero_coefficients(self, grid129, rng):
        p = tiny_cable()
        spec = self._spec(grid129, (0.0, 0.0))
        segs = [random_segment(rng, p), random_segment(rng, p)]
        out = nonlocal_combination(segs, spec)
        assert not out.values.any()

    def test_identity_combination(self, grid129, rng):
        p = tiny_cable()
        spec = self._spec(grid129, (1.0,))
        seg = random_segment(rng, p)
        out = nonlocal_combination([seg], spec)
        assert np.array_equal(out.values, seg.values)

    def test_lipschitz_bound(self, grid129, rng):
        p = tiny_cable()
        spec = self._spec(grid129, (0.07, -0.04))
        lam = eigenvalues(4)
        L = spec.L_q
        for _ in range(100):
            y = [random_segment(rng, p, 21), random_segment(rng, p, 21)]
            v = [random_segment(rng, p, 21), random_segment(rng, p, 21)]
            gy = nonlocal_combination(y, spec)
            gv = nonlocal_combination(v, spec)
            node = int(rng.integers(0, 21))
            lhs = pair_norm(gy.values[node] - gv.values[node], lam)
            rhs = L * sum(
                pair_norm(a.values[node] - b.values[node], lam) for a, b in zip(y, v)
            )
            assert lhs <= rhs + 1e-12

    def test_grid_mismatch_rejected(self, grid129, rng):
        p = tiny_cable()
        spec = self._spec(grid129, (0.1, 0.1))
        with pytest.raises(ValueError, match="grids"):
            nonlocal_combination([random_segment(rng, p, 21), random_segment(rng, p, 31)], spec)


class TestSegmentAt:
    def test_initial_window_is_history(self, grid129):
        p = tiny_cable()
        hist = constant_segment(p, w=[0.5], y=[0.1])
        spec = ProblemSpec(params=p, grid=grid129, n_steps=500, history=hist)
        traj = integrate_mild(spec).trajectory
        seg = segment_at(traj, 0.0)
        assert np.array_equal(seg.values, traj.values[: traj.n_history + 1])

    def test_constant_trajectory_gives_constant_segment(self, grid129):
        p = tiny_cable()
        spec = ProblemSpec(params=p, grid=grid129, n_steps=500)
        traj = integrate_mild(spec).trajectory  # identically zero
        seg = segment_at(traj, 0.7)
        assert not seg.values.any()

    def test_impulse_mark_carried_with_exact_jump(self, grid129):
        p = tiny_cable()
        imp = ImpulseEvent(0.5, make_impulse_map("constant_kick", 4, {"coeffs": [0.0, 0.25]}))
        hist = constant_segment(p, w=[0.3])
        spec = ProblemSpec(params=p, grid=grid129, n_steps=1000, impulses=(imp,), history=hist)
        traj = integrate_mild(spec).trajectory
        seg = segment_at(traj, 0.6)
        # window [0.35, 0.6]; the jump sits at theta = -0.1
        local = int(round((0.5 - 0.6 + p.r) / traj.step))
        assert local in seg.left_values
        seg_jump = seg.values[local] - seg.left_values[local]
        node = traj.node_index(0.5)
        traj_jump = traj.values[node] - traj.left_values[node]
        assert np.abs(seg_jump - traj_jump).max() <= 1e-12

    def test_outside_domain_rejected(self, grid129):
        p = tiny_cable()
        spec = ProblemSpec(params=p, grid=grid129, n_steps=100)
        traj = integrate_mild(spec).trajectory
        with pytest.raises(ValueError):
            segment_at(traj, -0.05)
        with pytest.raises(ValueError):
            segment_at(traj, 1.1)


class TestIntegrateMild:
    def test_homogeneous_matches_group(self, grid129):
        p = tiny_cable()
        hist = constant_segment(p, w=[0.5, 0.2], y=[0.1, -0.3])
        spec = ProblemSpec(params=p, grid=grid129, n_steps=2000, history=hist)
        res = integrate_mild(spec)
        z0 = StateZ(np.array([0.5, 0.2, 0, 0.0]), np.array([0.1, -0.3, 0, 0.0]))
        for t in (0.25, 0.7, 1.0):
            expected = apply_semigroup(z0, t, p)
            got = res.trajectory.state(t)
            assert norm_z(got - expected) <= 1e-8

    def test_impulse_jump_identity_bookkept(self, grid129, rng):
        p = ModelParams(c=1.0, d=1.0, k=1.0, n_modes=4, T=1.0, r=0.25)
        imap = make_impulse_map("saturating_kick", 4, {"amp": 0.4})
        spec = ProblemSpec(
            params=p,
            grid=grid129,
            n_steps=1000,
            impulses=(ImpulseEvent(0.5, imap),),
            history=constant_segment(p, w=[0.4], y=[0.2]),
        )
        traj = integrate_mild(spec).trajectory
        node = traj.node_index(0.5)
        left = traj.left_values[node]
        right = traj.values[node]
        expected_jump = imap.velocity_jump(0.5, left, None)
        assert np.abs((right[1] - left[1]) - expected_jump).max() <= 1e-12
        assert np.array_equal(right[0], left[0])

    def test_full_system_against_method_of_steps(self, grid129):
        p = ModelParams(c=1.0, d=1.0, k=1.0, n_modes=4, T=1.0, r=0.3)
        spec = ProblemSpec(
            params=p,
            grid=grid129,
            n_steps=1000,
            impulses=(ImpulseEvent(0.5, make_impulse_map("saturating_kick", 4, {"amp": 0.05})),),
            lags=(0.12, 0.24),
            gammas=(0.1, 0.05),
            forcing=make_forcing("harmonic", 4, {"coeffs": [2 ** -0.5], "omega": 3.0}),
            nonlinearity=make_nonlinearity("delayed_saturation", 4, {"amp": 0.2}),
            history=constant_segment(p, w=[0.4, 0.15], y=[0.0, 0.1]),
        )
        oracle = method_of_steps_rk4(spec, refine=8)
        lam = p.lam
        got = integrate_mild(spec).trajectory.values[-1]
        rel = pair_norm(got - oracle[-1], lam) / pair_norm(oracle[-1], lam)
        assert rel <= 1e-4

    def test_history_residual_below_tolerance(self, grid129):
        p = tiny_cable()
        spec = ProblemSpec(
            params=p,
            grid=grid129,
            n_steps=1000,
            lags=(0.1, 0.2),
            gammas=(0.1, 0.05),
            history=constant_segment(p, w=[0.4], y=[0.1]),
            picard_tol=1e-10,
        )
        res = integrate_mild(spec)
        assert res.history_residual <= 1e-10
        # recompute the residual from the returned trajectory
        traj = res.trajectory
        n_r = traj.n_history
        lam = p.lam
        gvals = np.zeros((n_r + 1, 2, 4))
        for g, tau in zip(spec.gammas, spec.lags):
            off = traj.node_index(tau) - n_r
            gvals += g * traj.values[off : off + n_r + 1]
        rho = np.stack([spec.history.value(-p.r + traj.step * i) for i in range(n_r + 1)])
        resid = traj.values[: n_r + 1] + gvals - rho
        worst = max(pair_norm(resid[i], lam) for i in range(n_r + 1))
        assert worst <= 1e-10

    def test_picard_contraction_ratio(self, grid129):
        p = tiny_cable(T=1.0, r=0.25)
        spec = ProblemSpec(
            params=p,
            grid=grid129,
            n_steps=1000,
            lags=(0.1, 0.2),
            gammas=(0.2, 0.1),  # L_q * q = 0.4
            history=constant_segment(p, w=[0.5, 0.2], y=[0.3]),
            picard_tol=1e-12,
        )
        res = integrate_mild(spec)
        diffs = res.picard_sup_diffs
        assert len(diffs) >= 3
        bound = spec.L_q * spec.q + 0.05
        for a, b in zip(diffs[1:], diffs[2:]):
            assert b / a <= bound

    def test_step_halving_improves_terminal_error(self, grid129):
        # Smooth impulse-free problem; the stepping is second order.
        p = ModelParams(c=1.0, d=1.0, k=1.0, n_modes=4, T=1.0, r=0.25)
        kwargs = dict(
            params=p,
            grid=grid129,
            lags=(0.1,),
            gammas=(0.1,),
            nonlinearity=make_nonlinearity("delayed_saturation", 4, {"amp": 0.2}),
            history=constant_segment(p, w=[0.4, 0.15], y=[0.0, 0.1]),
        )
        spec_h = ProblemSpec(n_steps=500, **kwargs)
        spec_h2 = ProblemSpec(n_steps=1000, **kwargs)
        oracle = method_of_steps_rk4(spec_h2, refine=8)[-1]
        lam = p.lam
        err_h = pair_norm(integrate_mild(spec_h).trajectory.values[-1] - oracle, lam)
        err_h2 = pair_norm(integrate_mild(spec_h2).trajectory.values[-1] - oracle, lam)
        assert err_h / err_h2 >= 3.0

    def test_continuity_away_from_jumps(self, grid129):
        # Node-to-node changes stay O(h) except across the marked nodes.
        p = ModelParams(c=1.0, d=1.0, k=1.0, n_modes=4, T=1.0, r=0.25)
        imap = make_impulse_map("constant_kick", 4, {"coeffs": [0.0, 2.0]})
        spec = ProblemSpec(
            params=p,
            grid=grid129,
            n_steps=1000,
            impulses=(ImpulseEvent(0.5, imap),),
            history=constant_segment(p, w=[0.4], y=[0.2]),
        )
        traj = integrate_mild(spec).trajectory
        lam = p.lam
        jump_node = traj.node_index(0.5)
        rate = np.empty(traj.n_nodes - 1)
        for i in range(1, traj.n_nodes):
            prev = traj.left_values.get(i, traj.values[i])
            rate[i - 1] = pair_norm(prev - traj.values[i - 1], lam) / traj.step
        assert rate.max() <= 200.0  # bounded difference quotients
        # while the jump itself is O(1), far above C*h
        jump_size = pair_norm(
            traj.values[jump_node] - traj.left_values[jump_node], lam
        )
        assert jump_size > 10.0 * rate.max() * traj.step

    def test_causality_is_bitwise(self, grid129, rng):
        p = ModelParams(c=1.0, d=1.0, k=1.0, n_modes=4, T=1.0, r=0.25)
        spec = ProblemSpec(
            params=p,
            grid=grid129,
            n_steps=500,
            lags=(0.1, 0.2),
            gammas=(0.1, 0.05),
            nonlinearity=make_nonlinearity("delayed_saturation", 4, {"amp": 0.2}),
            history=constant_segment(p, w=[0.4], y=[0.1]),
        )
        base = rng.normal(size=(501, 4))
        u1 = ControlSignal(0.0, 1.0, base)
        t_prime = 0.6
        cut = 300
        tampered = base.copy()
        tampered[cut + 1 :] += rng.normal(size=(200, 4))
        u2 = ControlSignal(0.0, 1.0, tampered)
        t1 = integrate_mild(spec, u1).trajectory
        t2 = integrate_mild(spec, u2).trajectory
        upto = t1.node_index(t_prime)
        assert np.array_equal(t1.values[: upto + 1], t2.values[: upto + 1])
        assert not np.array_equal(t1.values, t2.values)


def _kick(kind, amp=0.3):
    params = {"coeffs": [0.0, 0.25]} if kind == "constant_kick" else {"amp": amp}
    return make_impulse_map(kind, 4, params)


def _marked_control(rng, n_steps, marks=(40, 130)):
    values = rng.normal(size=(n_steps + 1, 4))
    return ControlSignal(0.0, 1.0, values, {i: rng.normal(size=4) for i in marks})


# Each case: (problem keyword arguments, whether the run takes a control with
# left-limit marks).  Together they cover every forcing, nonlinearity and
# impulse catalog entry.
SWEEP_CASES = {
    "harmonic+delayed_saturation+saturating_kick": (
        dict(
            forcing=make_forcing("harmonic", 4, {"coeffs": [2 ** -0.5], "omega": 3.0}),
            nonlinearity=make_nonlinearity("delayed_saturation", 4, {"amp": 0.2}),
            impulses=(ImpulseEvent(0.5, _kick("saturating_kick")),),
        ),
        False,
    ),
    "bounded_wave+constant_kick": (
        dict(
            nonlinearity=make_nonlinearity("bounded_wave", 4, {"amp": 0.5, "omega": 2.0}),
            impulses=(ImpulseEvent(0.4, _kick("constant_kick")),),
        ),
        False,
    ),
    "velocity_kick+marked_control": (
        dict(impulses=(ImpulseEvent(0.3, _kick("velocity_kick")),)),
        True,
    ),
    "control_saturation+control_kick+marked_control": (
        dict(
            nonlinearity=make_nonlinearity("control_saturation", 4, {"amp": 0.3}),
            impulses=(
                ImpulseEvent(0.2, _kick("control_kick", 0.1)),
                ImpulseEvent(0.65, _kick("control_kick", -0.2)),
            ),
        ),
        True,
    ),
}


class TestExplicitSweep:
    """The explicit sweep against the implicit-endpoint sweep it replaced."""

    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_matches_implicit_sweep_bitwise(self, case, grid129, rng, monkeypatch):
        kwargs, marked = SWEEP_CASES[case]
        p = ModelParams(c=1.0, d=1.0, k=1.0, n_modes=4, T=1.0, r=0.25)
        spec = ProblemSpec(
            params=p,
            grid=grid129,
            n_steps=200,
            lags=(0.1, 0.2),
            gammas=(0.1, 0.05),
            history=constant_segment(p, w=[0.4, 0.15], y=[0.0, 0.1]),
            **kwargs,
        )
        u = _marked_control(rng, spec.n_steps) if marked else None
        explicit = integrate_mild(spec, u)
        monkeypatch.setattr(
            dynamics, "_sweep", lambda spec, step, *rest: implicit_trapezoid_sweep(spec, *rest)
        )
        implicit = integrate_mild(spec, u)
        a, b = explicit.trajectory, implicit.trajectory
        assert explicit.picard_iterations == implicit.picard_iterations >= 2
        assert np.array_equal(a.values, b.values)
        assert sorted(a.left_values) == sorted(b.left_values)
        assert a.left_values, "the case exercises no jump marks"
        for i in a.left_values:
            assert np.array_equal(a.left_values[i], b.left_values[i])
        assert explicit.picard_sup_diffs == implicit.picard_sup_diffs
        assert explicit.history_residual == implicit.history_residual

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("amps", [(1e300,), (1e308, 1e308)])
    def test_non_finite_state_raises_naming_time(self, grid129, amps):
        # 1e300 overflows only the energy norm; a second 1e308 kick
        # overflows the state itself.  Either way: one error, no warning.
        p = ModelParams(c=1.0, d=1.0, k=1.0, n_modes=4, T=1.0, r=0.25)
        kicks = tuple(
            ImpulseEvent(t, _kick("velocity_kick", a)) for t, a in zip((0.5, 0.6), amps)
        )
        spec = ProblemSpec(
            params=p,
            grid=grid129,
            n_steps=200,
            impulses=kicks,
            history=constant_segment(p, w=[0.4], y=[0.2]),
        )
        with pytest.raises(NumericalError, match=r"not finite at t = 0\.5 "):
            integrate_mild(spec)

    def test_diverging_history_stops_early(self, grid129, monkeypatch):
        p = ModelParams(c=1.0, d=1.0, k=1.0, n_modes=4, T=1.0, r=0.25)
        spec = ProblemSpec(
            params=p,
            grid=grid129,
            n_steps=200,
            lags=(0.1,),
            gammas=(1.5,),
            history=constant_segment(p, w=[0.4], y=[0.2]),
        )
        sweeps = []
        real_sweep = dynamics._sweep

        def counted(*args):
            sweeps.append(1)
            return real_sweep(*args)

        monkeypatch.setattr(dynamics, "_sweep", counted)
        with pytest.raises(NumericalError, match="diverging"):
            integrate_mild(spec)
        # Three growing ratios need four differences, i.e. five sweeps.
        assert len(sweeps) == 5 < spec.picard_max_iter

    def test_control_on_other_grid_rejected(self, grid129, rng):
        p = tiny_cable()
        spec = ProblemSpec(params=p, grid=grid129, n_steps=200)
        coarse = _marked_control(rng, 100, marks=(40,))
        with pytest.raises(ValueError, match="trajectory grid"):
            integrate_mild(spec, coarse)


class TestHistoryCatalog:
    def test_file_history_round_trip(self, tmp_path, rng):
        from beamctl.dynamics import history_segment

        p = tiny_cable()
        n = 41
        ts = np.linspace(-p.r, 0.0, n)
        data = rng.normal(size=(n, 8))
        lines = ["t," + ",".join(f"w_{i}" for i in range(1, 5)) + "," + ",".join(f"y_{i}" for i in range(1, 5))]
        for i in range(n):
            lines.append(",".join(f"{v:.17g}" for v in [ts[i], *data[i]]))
        path = tmp_path / "history.csv"
        path.write_text("\n".join(lines) + "\n")
        seg = history_segment("file", p, n, {"path": str(path)})
        assert seg.n_nodes == n
        assert np.abs(seg.values[:, 0, :] - data[:, :4]).max() == 0.0
        assert np.abs(seg.values[:, 1, :] - data[:, 4:]).max() == 0.0

    def test_file_history_must_cover_delay_span(self, tmp_path):
        from beamctl.dynamics import history_segment

        p = tiny_cable()
        path = tmp_path / "history.csv"
        path.write_text("t,w_1,w_2,w_3,w_4,y_1,y_2,y_3,y_4\n-0.1,0,0,0,0,0,0,0,0\n0,0,0,0,0,0,0,0,0\n")
        with pytest.raises(ConfigError, match="exactly"):
            history_segment("file", p, 2, {"path": str(path)})


class TestProblemSpecValidation:
    def test_lag_ordering_enforced(self, grid129):
        p = tiny_cable()
        with pytest.raises(ConfigError, match="tau_1 < ... < tau_q < r"):
            ProblemSpec(params=p, grid=grid129, n_steps=100, lags=(0.25,), gammas=(0.1,))

    def test_impulse_time_must_sit_on_grid(self, grid129):
        p = tiny_cable()
        imp = ImpulseEvent(0.5001234, make_impulse_map("velocity_kick", 4, {"amp": 0.1}))
        with pytest.raises(ConfigError, match="grid"):
            ProblemSpec(params=p, grid=grid129, n_steps=1000, impulses=(imp,))

    def test_dealiasing_enforced(self):
        p = tiny_cable(n_modes=8)
        with pytest.raises(ConfigError, match="de-alias"):
            ProblemSpec(params=p, grid=SpatialGrid(15), n_steps=100)

    def test_history_span_must_match_delay(self, grid129):
        p = tiny_cable()
        bad = Segment(0.1 / 10, np.zeros((11, 2, 4)))  # span 0.1 != r
        with pytest.raises(ConfigError, match="history"):
            ProblemSpec(params=p, grid=grid129, n_steps=100, history=bad)
