import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from beamctl import dynamics
from beamctl.catalogs import ImpulseEvent, make_forcing, make_impulse_map, make_nonlinearity
from beamctl.config import parse_config
from beamctl.control import ControlSignal
from beamctl.dynamics import ProblemSpec, history_segment, integrate_mild
from beamctl.errors import ConfigError, NumericalError
from beamctl.semigroup import ModelParams, apply_semigroup
from beamctl.spectral import (
    SpatialGrid,
    StateZ,
    eigenvalues,
    energy_norms,
    norm_z,
    pair_norm,
)

from oracles import (
    Segment,
    full_history_integrate,
    history_left_limits,
    implicit_trapezoid_sweep,
    left_limits,
    method_of_steps_rk4,
    node_index,
    nonlocal_combination,
    one_node_sources,
    per_node_sources,
    positive_part,
    project,
    resample_history,
    segment_at,
    source_term,
    switched_full_run,
    trajectory_state,
)


CONFIGS = Path(__file__).parents[1] / "configs"


def tiny_cable(n_modes=4, T=1.0, r=0.25):
    """Parameters with a negligible cable force (the k > 0 invariant holds)."""
    return ModelParams(c=1.0, d=1.0, k=1e-15, n_modes=n_modes, T=T, r=r)


def constant_history(p, n_steps, w=(), y=()):
    """A modal-constant history at the nodes of [-r, 0] of the grid with n_steps steps."""
    n_r = int(round(p.r * n_steps / p.T))
    return history_segment("modal_constant", p, n_r + 1, {"w": list(w), "y": list(y)})


def random_segment(rng, p, n_nodes=51):
    step = p.r / (n_nodes - 1)
    return Segment(step, rng.normal(size=(n_nodes, 2, p.n_modes)))


class TestSourceTerm:
    def test_node_sources_without_terms_are_zero_rows(self, grid129):
        # No load and no catalog term: a block of zero rows, which reads no
        # node (the buffer holds NaN), for a block and for a block of one.
        p = ModelParams(c=1.0, d=1.0, k=5.0, n_modes=4, T=1.0, r=0.25)
        spec = ProblemSpec(params=p, grid=grid129, n_steps=200)
        block = dynamics.node_sources(spec, np.full((spec.n_r + 201, 2, 4), np.nan))
        for first, n in ((spec.n_r + 10, 7), (spec.n_r + 3, 1)):
            assert np.array_equal(block(first, n, None), np.zeros((n, 4)))

    def test_zero_when_position_nonpositive(self, grid129):
        p = ModelParams(c=1.0, d=1.0, k=5.0, n_modes=4, T=1.0, r=0.25)
        spec = ProblemSpec(params=p, grid=grid129, n_steps=100)
        # -sin(pi x) <= 0
        seg = Segment(p.r / 10, history_segment("modal_constant", p, 11, {"w": [-1.0]}))
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
        hist = constant_history(p, 500, w=[0.5], y=[0.1])
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
        hist = constant_history(p, 1000, w=[0.3])
        spec = ProblemSpec(params=p, grid=grid129, n_steps=1000, impulses=(imp,), history=hist)
        traj = integrate_mild(spec).trajectory
        seg = segment_at(traj, 0.6)
        # window [0.35, 0.6]; the jump sits at theta = -0.1
        local = int(round((0.5 - 0.6 + p.r) / traj.step))
        assert local in seg.left_values
        seg_jump = seg.values[local] - seg.left_values[local]
        node = node_index(traj, 0.5)
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
        hist = constant_history(p, 2000, w=[0.5, 0.2], y=[0.1, -0.3])
        spec = ProblemSpec(params=p, grid=grid129, n_steps=2000, history=hist)
        res = integrate_mild(spec)
        z0 = StateZ(np.array([0.5, 0.2, 0, 0.0]), np.array([0.1, -0.3, 0, 0.0]))
        for t in (0.25, 0.7, 1.0):
            expected = apply_semigroup(z0, t, p)
            got = trajectory_state(res.trajectory, t)
            assert norm_z(got - expected) <= 1e-8

    def test_impulse_jump_identity_bookkept(self, grid129, rng):
        p = ModelParams(c=1.0, d=1.0, k=1.0, n_modes=4, T=1.0, r=0.25)
        imap = make_impulse_map("saturating_kick", 4, {"amp": 0.4})
        spec = ProblemSpec(
            params=p,
            grid=grid129,
            n_steps=1000,
            impulses=(ImpulseEvent(0.5, imap),),
            history=constant_history(p, 1000, w=[0.4], y=[0.2]),
        )
        traj = integrate_mild(spec).trajectory
        node = node_index(traj, 0.5)
        left = traj.left_values[node]
        right = traj.values[node]
        expected_jump = imap.velocity_jump(left, None)
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
            history=constant_history(p, 1000, w=[0.4, 0.15], y=[0.0, 0.1]),
        )
        oracle = method_of_steps_rk4(spec, refine=8)
        lam = p.lam
        got = integrate_mild(spec).trajectory.values[-1]
        rel = pair_norm(got - oracle[-1], lam) / pair_norm(oracle[-1], lam)
        assert rel <= 1e-4

    def test_method_of_steps_stop_at_the_last_lag_is_bitwise(self, grid129):
        # The oracle's history sweeps stop at the largest lag and the
        # converged history is swept once more to T; sweeping to T every
        # time gives the same array.
        p = ModelParams(c=1.0, d=1.0, k=1.0, n_modes=4, T=0.5, r=0.2)
        spec = ProblemSpec(
            params=p,
            grid=grid129,
            n_steps=50,
            impulses=(ImpulseEvent(0.3, make_impulse_map("saturating_kick", 4, {"amp": 0.05})),),
            lags=(0.05, 0.1),
            gammas=(0.1, 0.05),
            forcing=make_forcing("harmonic", 4, {"coeffs": [2 ** -0.5], "omega": 3.0}),
            nonlinearity=make_nonlinearity("delayed_saturation", 4, {"amp": 0.2}),
            history=constant_history(p, 50, w=[0.4, 0.15], y=[0.0, 0.1]),
        )
        stopped = method_of_steps_rk4(spec, refine=2)
        full = method_of_steps_rk4(spec, refine=2, full_sweeps=True)
        assert np.array_equal(stopped, full)

    def test_history_residual_below_tolerance(self, grid129):
        p = tiny_cable()
        spec = ProblemSpec(
            params=p,
            grid=grid129,
            n_steps=1000,
            lags=(0.1, 0.2),
            gammas=(0.1, 0.05),
            history=constant_history(p, 1000, w=[0.4], y=[0.1]),
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
            off = node_index(traj, tau) - n_r
            gvals += g * traj.values[off : off + n_r + 1]
        resid = traj.values[: n_r + 1] + gvals - spec.history
        worst = max(pair_norm(resid[i], lam) for i in range(n_r + 1))
        assert worst <= 1e-10

    def test_picard_contraction_ratio(self, grid129):
        # Plain Picard contracts by about the nonlocal term's size, at most
        # L_q * q.  The chord inverts that linear part, which is the whole
        # history map here (the cable is 1e-15): one correction meets the
        # residual, and the next sweep confirms it.
        p = tiny_cable(T=1.0, r=0.25)
        spec = ProblemSpec(
            params=p,
            grid=grid129,
            n_steps=1000,
            lags=(0.1, 0.2),
            gammas=(0.2, 0.1),  # L_q * q = 0.4
            history=constant_history(p, 1000, w=[0.5, 0.2], y=[0.3]),
            picard_tol=1e-12,
        )
        plain = full_history_integrate(spec, chord=False)
        diffs = plain.picard_sup_diffs
        assert len(diffs) >= 3
        bound = spec.L_q * spec.q + 0.05
        for a, b in zip(diffs[1:], diffs[2:]):
            assert b / a <= bound
        res = integrate_mild(spec)
        assert res.picard_iterations == 2
        assert res.history_residual <= spec.picard_tol

    def test_step_halving_improves_terminal_error(self, grid129):
        # Smooth impulse-free problem; the stepping is second order.
        p = ModelParams(c=1.0, d=1.0, k=1.0, n_modes=4, T=1.0, r=0.25)
        kwargs = dict(
            params=p,
            grid=grid129,
            lags=(0.1,),
            gammas=(0.1,),
            nonlinearity=make_nonlinearity("delayed_saturation", 4, {"amp": 0.2}),
        )
        spec_h, spec_h2 = (
            ProblemSpec(
                n_steps=n, history=constant_history(p, n, w=[0.4, 0.15], y=[0.0, 0.1]), **kwargs
            )
            for n in (500, 1000)
        )
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
            history=constant_history(p, 1000, w=[0.4], y=[0.2]),
        )
        traj = integrate_mild(spec).trajectory
        lam = p.lam
        jump_node = node_index(traj, 0.5)
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
            history=constant_history(p, 500, w=[0.4], y=[0.1]),
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
        upto = node_index(t1, t_prime)
        assert np.array_equal(t1.values[: upto + 1], t2.values[: upto + 1])
        assert not np.array_equal(t1.values, t2.values)


def diverging_spec(grid, gammas, amp=0.3):
    """One lag at 0.1 and a velocity kick at 0.05, which marks the history window."""
    p = ModelParams(c=1.0, d=1.0, k=1.0, n_modes=4, T=1.0, r=0.25)
    return ProblemSpec(
        params=p,
        grid=grid,
        n_steps=200,
        impulses=(ImpulseEvent(0.05, _kick("velocity_kick", amp)),),
        lags=(0.1,),
        gammas=gammas,
        history=constant_history(p, 200, w=[0.4], y=[0.2]),
    )


def _kick(kind, amp=0.3):
    params = {"coeffs": [0.0, 0.25]} if kind == "constant_kick" else {"amp": amp}
    return make_impulse_map(kind, 4, params)


def _control(rng, n_steps):
    return ControlSignal(0.0, 1.0, rng.normal(size=(n_steps + 1, 4)))


# Each case: (problem keyword arguments, whether the run takes a control).
# Together they cover every forcing, nonlinearity and impulse catalog entry.
# In an id, `marked_control` names a case that takes a control; the tail
# tests mark it at their switch, and the full runs take it unmarked.
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

    @staticmethod
    def _case(case, grid, rng, lags=(0.1, 0.2), gammas=(0.1, 0.05), r=0.25):
        kwargs, controlled = SWEEP_CASES[case]
        p = ModelParams(c=1.0, d=1.0, k=1.0, n_modes=4, T=1.0, r=r)
        spec = ProblemSpec(
            params=p,
            grid=grid,
            n_steps=200,
            lags=lags,
            gammas=gammas,
            history=constant_history(p, 200, w=[0.4, 0.15], y=[0.0, 0.1]),
            **kwargs,
        )
        return spec, _control(rng, spec.n_steps) if controlled else None

    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_matches_implicit_sweep_bitwise(self, case, grid129, rng, monkeypatch):
        spec, u = self._case(case, grid129, rng)
        explicit = integrate_mild(spec, u)

        def implicit_sweep(spec, kernel, u, prefix, marks, *_, last=None, where):
            # The implicit sweep always runs from the history in `prefix` to T
            # (a continuation repeats the converged sweep) and records no
            # source rows.
            n_r = spec.n_r
            hist_marks = {i: v for i, v in marks.items() if i <= n_r}
            values, marks = implicit_trapezoid_sweep(
                spec, u, u, (), prefix[: n_r + 1], hist_marks, n_r
            )
            return values, marks, np.full((spec.n_steps + 1, spec.params.n_modes), np.nan)

        monkeypatch.setattr(dynamics, "_sweep", implicit_sweep)
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

    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_recorded_sources_are_node_sources_bitwise(self, case, grid129, rng, monkeypatch):
        # `steering_target` sums these rows in place of evaluating them again.
        # The sweep evaluates the load and the catalog term in blocks of up
        # to r/h nodes: with r three steps long a run crosses a block edge
        # every third step, and the tail starts at t = 121*h, inside a block
        # of the nominal's continuation (which starts after the largest lag,
        # at 40*h or 2*h).  Every run must equal one that evaluates node by
        # node.
        h = 1.0 / 200
        for r_steps, lags in ((50, (0.1, 0.2)), (3, (h, 2 * h))):
            spec, u = self._case(case, grid129, rng, lags=lags, r=r_steps * h)
            assert len(spec.history) - 1 == r_steps
            nominal = integrate_mild(spec, u)
            u_s = TestIntegrateTail._switched(spec, u, 121, rng)
            tail = dynamics.integrate_tail(spec, nominal, u_s)
            # The tail's row at the switch is the nominal's, at the left limit.
            rows = np.zeros((201, 4)) if u is None else u.values
            for res, u_rows in ((nominal, rows), (tail, left_limits(u_s))):
                assert np.array_equal(res.sources, one_node_sources(spec, res.trajectory, u_rows))

            with monkeypatch.context() as m:
                m.setattr(dynamics, "node_sources", per_node_sources)
                one_by_one = integrate_mild(spec, u)
                tail_one_by_one = dynamics.integrate_tail(spec, one_by_one, u_s)
            assert nominal.picard_iterations == one_by_one.picard_iterations
            for res, ref in ((nominal, one_by_one), (tail, tail_one_by_one)):
                a, b = res.trajectory, ref.trajectory
                assert np.array_equal(a.values, b.values)
                assert np.array_equal(res.sources, ref.sources)
                assert sorted(a.left_values) == sorted(b.left_values)
                for i in a.left_values:
                    assert np.array_equal(a.left_values[i], b.left_values[i])

    @pytest.mark.parametrize("n_points", [65, 129, 257])
    @pytest.mark.parametrize("n_modes", [1, 4, 8, 16, 48])
    def test_block_cable_rows_are_one_node_products_bitwise(self, n_modes, n_points, rng):
        # A sweep closes a block's source rows in one `_cable_rows` call; a
        # restart node and `one_node_sources` take the 1-row product of one
        # node's samples.  With OpenBLAS, numpy sends that 1-row product to
        # gemv, which rounds differently from the rows of an (n >= 2, G)
        # gemm.  Should a numpy or BLAS change break the stacked product,
        # this fails here, and not only through the recorded source rows.
        # P is built as `positive_projector` builds it, column-major as
        # `_sweep_kernel` stores it; that function also rejects 48 modes on
        # 65 points, which this product does not need.
        grid = SpatialGrid(n_points)
        S = grid.basis(n_modes)
        P = np.asfortranarray(S * (-0.5 * 5e-4 * grid.weight))
        m = np.maximum(np.dot(rng.normal(size=(70, n_modes)), S.T), 0.0)
        one_by_one = np.array([np.dot(row, P) for row in m])
        for rows in (slice(0, 1), slice(3, 5), slice(5, 69), slice(0, 70)):
            got = np.empty((rows.stop - rows.start, n_modes))
            dynamics._cable_rows(m[rows], P, got)
            assert np.array_equal(got, one_by_one[rows])

    def test_only_restart_nodes_step_from_the_closed_node(self, grid129, rng, monkeypatch):
        # The step matrix F steps from a closed node and its reopened source
        # only after the start, an impulse and the largest lag; every other
        # node takes K from the open row.  This case has lags (0.1, 0.2) and
        # impulses at nodes 40 and 130, so each history sweep (to node 40)
        # takes F once, and the continuation from node 40 takes it there and
        # at node 130.
        # The sweep binds `F.dot` and `K.dot`, so the step matrices are
        # handed to it as views whose `dot` records the call.
        spec, u = self._case("control_saturation+control_kick+marked_control", grid129, rng)
        F, K, S, P = dynamics._sweep_kernel(spec)
        steps = []

        class Counted(np.ndarray):
            def dot(self, *args, **kwargs):
                steps.append(self.label)
                return super().dot(*args, **kwargs)

        F, K = F.view(Counted), K.view(Counted)
        F.label, K.label = "F", "K"
        monkeypatch.setattr(dynamics, "_sweep_kernel", lambda spec: (F, K, S, P))
        res = integrate_mild(spec, u)
        monkeypatch.undo()
        sweeps = res.picard_iterations
        assert sweeps >= 2
        assert steps.count("F") == sweeps + 2
        assert len(steps) == sweeps * 40 + (spec.n_steps - 40)

    def test_cable_clip_goes_through_positive_part(self, grid129, rng):
        # The clip that test_spectral checks (and its strict xfail) through
        # `positive_part` is, to rounding, the one the sweep's kernel runs at
        # every node: h/2 times the cable force -k*w+ of the node's position.
        # The recorded rows are the kernel's one-node evaluation bitwise
        # (test_recorded_sources_are_node_sources_bitwise).
        spec, u = self._case("harmonic+delayed_saturation+saturating_kick", grid129, rng)
        traj = integrate_mild(spec, u).trajectory
        _, _, S, P = dynamics._sweep_kernel(spec)
        scale = -0.5 * spec.h * spec.params.k
        n_points = spec.grid.n_points
        # Both sides differ only in where the weight and the scale are
        # multiplied in: each G-term dot product is off by at most
        # G*eps*(|samples| @ |basis|) (Higham, Accuracy and Stability, 3.1),
        # and the four scalings by at most eps each.
        eps = np.finfo(float).eps
        clipped_nodes = 0
        for w in traj.values[traj.n_history :, 0]:
            samples = np.maximum(np.dot(S, w), 0.0)
            got = np.dot(samples, P)
            ref = scale * positive_part(w, spec.grid)
            magnitude = abs(scale) * spec.grid.weight * (samples @ np.abs(S))
            assert np.all(np.abs(got - ref) <= (2 * n_points + 4) * eps * magnitude)
            clipped_nodes += bool(0.0 < samples.max() and (np.dot(S, w) < 0.0).any())
        # The clip is active (neither the identity nor zero) at a good part
        # of the nodes: 72 of 201 on this case.
        assert clipped_nodes > spec.n_steps // 4

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "amps, lags, gammas",
        [
            pytest.param(amps, lags, gammas, id=f"amps{i}{suffix}")
            for lags, gammas, suffix in (((), (), ""), ((0.1, 0.2), (0.1, 0.05), "-lags"))
            for i, amps in enumerate([(1e300,), (1e308, 1e308)])
        ],
    )
    def test_non_finite_state_raises_naming_time(self, grid129, amps, lags, gammas):
        # 1e300 overflows only the energy norm; a second 1e308 kick
        # overflows the state itself.  Either way: one error, no warning.
        # With lags, both kicks lie past the largest lag, where only the
        # continuation of the converged history sweep reaches, and the error
        # names it.
        p = ModelParams(c=1.0, d=1.0, k=1.0, n_modes=4, T=1.0, r=0.25)
        kicks = tuple(
            ImpulseEvent(t, _kick("velocity_kick", a)) for t, a in zip((0.5, 0.6), amps)
        )
        spec = ProblemSpec(
            params=p,
            grid=grid129,
            n_steps=200,
            impulses=kicks,
            lags=lags,
            gammas=gammas,
            history=constant_history(p, 200, w=[0.4], y=[0.2]),
        )
        where = "history sweep 1"
        if lags:
            where = r"continuation from t = 0\.2 after history sweep \d+"
        with pytest.raises(NumericalError, match=rf"not finite at t = 0\.5 \({where}\)$"):
            integrate_mild(spec)

    def test_finite_state_above_the_guard_bound_passes(self, grid129):
        # The sweep is positively homogeneous, so a history scaled by 2**503
        # scales every node exactly.  Its values pass the guard's bound
        # (about 1e151 for N = 4) while every energy norm stays finite: the
        # guard computes the norms and raises nothing.
        p = ModelParams(c=1.0, d=1.0, k=1.0, n_modes=4, T=1.0, r=0.25)
        unit = constant_history(p, 200, w=[0.4], y=[0.2])
        specs = [
            ProblemSpec(params=p, grid=grid129, n_steps=200, history=scale * unit)
            for scale in (1.0, 2.0**503)
        ]
        small, large = (integrate_mild(spec).trajectory.values for spec in specs)
        assert np.abs(large).max() > math.sqrt(1e307 / (4 * (p.lam[-1] + 1.0)))
        np.testing.assert_array_equal(large, 2.0**503 * small)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_control_names_the_pass_it_reaches(self, grid129):
        # A control of 1e300 after t = 0.6, past the only lag 0.1: the
        # history sweeps stop at 0.1 and stay finite, so the continuation
        # after the last of them meets the overflow, as does a tail
        # integrated from a switch at 0.6.
        p = ModelParams(c=1.0, d=1.0, k=1.0, n_modes=4, T=1.0, r=0.25)
        spec = ProblemSpec(
            params=p,
            grid=grid129,
            n_steps=200,
            lags=(0.1,),
            gammas=(0.05,),
            history=constant_history(p, 200, w=[0.4], y=[0.2]),
        )
        values = np.zeros((201, 4))
        values[121:] = 1e300
        nominal = integrate_mild(spec)
        where = rf"continuation from t = 0\.1 after history sweep {nominal.picard_iterations}"
        with pytest.raises(NumericalError, match=rf"not finite at t = 0\.605 \({where}\)$"):
            integrate_mild(spec, ControlSignal(0.0, 1.0, values))
        switched = ControlSignal(0.0, 1.0, values, {120: np.zeros(4)})
        where = r"tail from t = 0\.6"
        with pytest.raises(NumericalError, match=rf"not finite at t = 0\.605 \({where}\)$"):
            dynamics.integrate_tail(spec, nominal, switched)

    def test_diverging_history_stops_early(self, grid129, monkeypatch):
        # The chord's P leaves the kicks out, and with gamma = 1.5 its P^-1
        # amplifies a kick of amplitude 3 at 0.05: the sweep differences grow
        # by about 1.8.  (With amplitude 0.3 the chord solves it in 16 sweeps.)
        spec = diverging_spec(grid129, gammas=(1.5,), amp=3.0)
        sweeps = []
        real_sweep = dynamics._sweep

        def counted(*args, **kwargs):
            sweeps.append(1)
            return real_sweep(*args, **kwargs)

        monkeypatch.setattr(dynamics, "_sweep", counted)
        with pytest.raises(NumericalError, match="diverging"):
            integrate_mild(spec)
        # Three growing ratios need four differences, i.e. five sweeps.
        assert len(sweeps) == 5 < spec.picard_max_iter

    def test_control_on_other_grid_rejected(self, grid129, rng):
        p = tiny_cable()
        spec = ProblemSpec(params=p, grid=grid129, n_steps=200)
        coarse = _control(rng, 100)
        with pytest.raises(ValueError, match="trajectory grid"):
            integrate_mild(spec, coarse)

    def test_marked_control_rejected(self, grid129, rng):
        # The sweep reads one value per node; a left limit would be dropped.
        spec = ProblemSpec(params=tiny_cable(), grid=grid129, n_steps=200)
        marked = ControlSignal(0.0, 1.0, rng.normal(size=(201, 4)), {120: np.zeros(4)})
        with pytest.raises(ValueError, match=r"^integrate_mild \(.*integrate_tail\) reads no left"):
            integrate_mild(spec, marked)


class TestHistorySweepStop:
    """History sweeps that stop at the largest lag, against sweeps over [0, T]."""

    @pytest.mark.parametrize(
        "case, lags, gammas",
        [(case, (0.1, 0.2), (0.1, 0.05)) for case in sorted(SWEEP_CASES)]
        + [
            ("harmonic+delayed_saturation+saturating_kick", (0.15,), (0.2,)),
            ("control_saturation+control_kick+marked_control", (), ()),
        ],
    )
    def test_matches_full_history_sweeps_bitwise(self, case, lags, gammas, grid129, rng):
        # With lags (0.1, 0.2) the sweeps stop at t = 0.2, where the
        # control_saturation case has an impulse.
        spec, u = TestExplicitSweep._case(case, grid129, rng, lags, gammas)
        got = integrate_mild(spec, u)
        ref = full_history_integrate(spec, u)
        a, b = got.trajectory, ref.trajectory
        assert np.array_equal(a.values, b.values)
        assert sorted(a.left_values) == sorted(b.left_values)
        for i in a.left_values:
            assert np.array_equal(a.left_values[i], b.left_values[i])
        assert np.array_equal(got.sources, ref.sources)
        assert got.picard_iterations == ref.picard_iterations
        assert got.history_residual == ref.history_residual

    def test_guard_reads_no_unfilled_rows(self, grid129, rng, monkeypatch):
        # Rows a truncated sweep leaves unfilled hold NaN here: the guard,
        # the sup-diffs and the result must never read them.
        spec, u = TestExplicitSweep._case("bounded_wave+constant_kick", grid129, rng)
        clean = integrate_mild(spec, u)
        real_empty, real_sweep = np.empty, dynamics._sweep
        unfilled = []

        def nan_empty(*args, **kwargs):
            out = real_empty(*args, **kwargs)
            if out.dtype.kind == "f":
                out.fill(np.nan)
            return out

        def recorded(*args, **kwargs):
            values, marks, sources = real_sweep(*args, **kwargs)
            unfilled.append(bool(np.isnan(values[-1]).all()))
            return values, marks, sources

        monkeypatch.setattr(dynamics.np, "empty", nan_empty)
        monkeypatch.setattr(dynamics, "_sweep", recorded)
        poisoned = integrate_mild(spec, u)
        assert unfilled == [True] * clean.picard_iterations + [False]
        assert np.array_equal(poisoned.trajectory.values, clean.trajectory.values)
        assert np.array_equal(poisoned.sources, clean.sources)
        assert poisoned.picard_sup_diffs == clean.picard_sup_diffs
        assert poisoned.history_residual == clean.history_residual


class TestWarmStart:
    """History iterations that start from another run's converged history."""

    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_converged_warm_start_takes_one_sweep_bitwise(self, case, grid129, rng):
        spec, u = TestExplicitSweep._case(case, grid129, rng)
        cold = integrate_mild(spec, u)
        warm = integrate_mild(spec, u, warm=cold)
        assert cold.picard_iterations >= 2
        assert warm.picard_iterations == 1
        assert warm.picard_sup_diffs == ()
        a, b = warm.trajectory, cold.trajectory
        assert np.array_equal(a.values, b.values)
        assert sorted(a.left_values) == sorted(b.left_values)
        for i in a.left_values:
            assert np.array_equal(a.left_values[i], b.left_values[i])
        assert np.array_equal(warm.sources, cold.sources)
        assert warm.history_residual == cold.history_residual

    def test_warm_start_under_another_control_meets_the_residual(self, grid129, rng):
        spec, u = TestExplicitSweep._case("velocity_kick+marked_control", grid129, rng)
        cold = integrate_mild(spec, u)
        warm = integrate_mild(spec, u, warm=integrate_mild(spec, None))
        assert warm.picard_iterations < cold.picard_iterations
        assert warm.history_residual <= spec.picard_tol
        lam = spec.params.lam
        scale = energy_norms(cold.trajectory.values, lam).max()
        assert cold.trajectory.sup_diff(warm.trajectory) <= 1e-9 * scale

    def test_warm_start_on_other_grid_rejected(self, grid129):
        p = tiny_cable()
        spec = ProblemSpec(params=p, grid=grid129, n_steps=200)
        coarse = integrate_mild(ProblemSpec(params=p, grid=grid129, n_steps=100))
        with pytest.raises(ValueError, match="trajectory grid"):
            integrate_mild(spec, warm=coarse)

    def test_diverging_history_stops_with_a_warm_start(self, grid129, monkeypatch):
        converged = integrate_mild(diverging_spec(grid129, gammas=(0.1,), amp=3.0))
        spec = diverging_spec(grid129, gammas=(1.5,), amp=3.0)
        sweeps = []
        real_sweep = dynamics._sweep

        def counted(*args, **kwargs):
            sweeps.append(1)
            return real_sweep(*args, **kwargs)

        monkeypatch.setattr(dynamics, "_sweep", counted)
        with pytest.raises(NumericalError, match="diverging"):
            integrate_mild(spec, warm=converged)
        assert len(sweeps) < spec.picard_max_iter


# History windows that carry jump marks: every sweep case with lags
# (0.3, 0.6) and r = 0.7, each with an impulse at or before tau_q, and the
# kick at 0.05 before the one lag 0.1 with gamma = 0.5.
MARKED_WINDOWS = [*sorted(SWEEP_CASES), "kick-before-the-lag"]


def marked_window_case(case, grid, rng):
    if case == "kick-before-the-lag":
        return diverging_spec(grid, gammas=(0.5,)), None
    return TestExplicitSweep._case(case, grid, rng, lags=(0.3, 0.6), r=0.7)


class TestChordIteration:
    """The history iteration's chord steps against plain Picard."""

    @pytest.mark.parametrize(
        "config, modes, gammas, most_sweeps",
        [
            ("simulate_demo", None, None, 5),
            ("approx_bounded", None, None, 2),
            ("exact_benchmark", None, None, 4),
            # perfbench's history-heavy workload: simulate_demo at N = 16
            # with a strong coupling, 39 plain Picard sweeps.
            ("simulate_demo", 16, [0.4, 0.3], 8),
        ],
    )
    def test_matches_plain_picard(self, config, modes, gammas, most_sweeps, tmp_path):
        data = yaml.safe_load((CONFIGS / f"{config}.yaml").read_text())
        if modes is not None:
            data["model"]["n_modes"], data["nonlocal"]["gammas"] = modes, gammas
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(data))
        spec = parse_config(path).problem
        chord = integrate_mild(spec)
        plain = full_history_integrate(spec, chord=False)
        assert chord.picard_iterations <= most_sweeps < plain.picard_iterations
        assert chord.history_residual <= spec.picard_tol
        scale = energy_norms(plain.trajectory.values, spec.params.lam).max()
        assert chord.trajectory.sup_diff(plain.trajectory) <= 1e-9 * scale

    @pytest.mark.parametrize("case", MARKED_WINDOWS)
    def test_marked_window_matches_plain_picard(self, case, grid129, rng):
        spec, u = marked_window_case(case, grid129, rng)
        chord = integrate_mild(spec, u)
        plain = full_history_integrate(spec, u, chord=False)
        assert chord.picard_iterations < plain.picard_iterations
        assert chord.history_residual <= spec.picard_tol
        lam = spec.params.lam
        scale = energy_norms(plain.trajectory.values, lam).max()
        assert chord.trajectory.sup_diff(plain.trajectory) <= 1e-9 * scale
        a, b = chord.trajectory.left_values, plain.trajectory.left_values
        assert sorted(a) == sorted(b)
        assert any(i <= spec.n_r for i in a), "the case marks no history node"
        for i in a:
            assert pair_norm(a[i] - b[i], lam) <= 1e-9 * scale

    @pytest.mark.parametrize("case", MARKED_WINDOWS)
    def test_history_marks_are_the_substitution_bitwise(self, case, grid129, rng):
        # x(theta-) = rho(theta) - sum_j gamma_j z((theta + tau_j)-), read
        # off the returned trajectory node by node: the identity holds
        # exactly, with no marks left over from an earlier sweep.
        spec, u = marked_window_case(case, grid129, rng)
        traj = integrate_mild(spec, u).trajectory
        got = {i: v for i, v in traj.left_values.items() if i <= spec.n_r}
        want = history_left_limits(spec, traj.values, traj.left_values)
        assert got and sorted(got) == sorted(want)
        for i in got:
            assert np.array_equal(got[i], want[i])

    def test_strong_negative_coupling_converges(self, grid129):
        # gamma = -0.9 with the kick before the lag: plain Picard stalls at a
        # contraction ratio about 1.05, the chord converges.
        spec = diverging_spec(grid129, gammas=(-0.9,))
        with pytest.raises(NumericalError, match="did not reach"):
            full_history_integrate(spec, chord=False)
        res = integrate_mild(spec)
        assert res.picard_iterations < spec.picard_max_iter
        assert res.history_residual <= spec.picard_tol


class TestIntegrateTail:
    """A run switched off a converged nominal run, integrated from the switch only."""

    @staticmethod
    def _switched(spec, u, start, rng):
        # Nominal control before `start`, its value as the left limit there,
        # a fresh control from `start` on.
        values = np.zeros((spec.n_steps + 1, 4)) if u is None else u.values.copy()
        marks = {start: values[start].copy()}
        values[start:] = rng.normal(size=values[start:].shape)
        return ControlSignal(0.0, 1.0, values, marks)

    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_matches_integrate_mild_bitwise(self, case, grid129, rng):
        # Switch at t = 0.6: past both lags; one case has an impulse after it.
        # `integrate_mild` takes no marked control, so the full run under the
        # switched one is `switched_full_run`: its own history iteration, then
        # the implicit sweep.  On the nominal's control it gives the nominal run.
        spec, u = TestExplicitSweep._case(case, grid129, rng)
        nominal = integrate_mild(spec, u)
        u_none = ControlSignal(0.0, 1.0, np.zeros((spec.n_steps + 1, 4)))
        full, _ = switched_full_run(spec, u_none if u is None else u)
        assert np.array_equal(full.values, nominal.trajectory.values)
        u_s = self._switched(spec, u, 120, rng)
        tail = dynamics.integrate_tail(spec, nominal, u_s)
        a, (b, head) = tail.trajectory, switched_full_run(spec, u_s)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, nominal.trajectory.values)
        assert sorted(a.left_values) == sorted(b.left_values)
        for i in a.left_values:
            assert np.array_equal(a.left_values[i], b.left_values[i])
        assert np.array_equal(tail.sources[:121], nominal.sources[:121])
        assert tail.picard_iterations == head.picard_iterations
        assert tail.history_residual == head.history_residual

    def test_impulse_at_the_switch_rejected(self, grid129, rng):
        # The jump at t_start would read the nominal's control there.
        spec, u = TestExplicitSweep._case("bounded_wave+constant_kick", grid129, rng)
        nominal = integrate_mild(spec, u)
        with pytest.raises(ValueError, match=r"impulse sits at t_start = 0\.4$"):
            dynamics.integrate_tail(spec, nominal, self._switched(spec, u, 80, rng))

    def test_lag_past_the_switch_rejected(self, grid129, rng):
        spec, u = TestExplicitSweep._case("velocity_kick+marked_control", grid129, rng)
        nominal = integrate_mild(spec, u)
        with pytest.raises(ValueError, match="lag reaches past"):
            dynamics.integrate_tail(spec, nominal, self._switched(spec, u, 30, rng))

    def test_control_without_one_mark_rejected(self, grid129, rng):
        # The switch is the control's one mark: with none or two there is no
        # node to start from.
        spec, u = TestExplicitSweep._case("velocity_kick+marked_control", grid129, rng)
        nominal = integrate_mild(spec, u)
        u_s = self._switched(spec, u, 120, rng)
        for marks in ({}, {**u_s.left_values, 150: np.zeros(4)}):
            with pytest.raises(ValueError, match=r"needs one control mark, its switch; got \["):
                dynamics.integrate_tail(spec, nominal, ControlSignal(0.0, 1.0, u_s.values, marks))


def write_history_file(path, ts, data):
    """A history CSV with columns t, w_1..w_N, y_1..y_N; data holds the (w, y) rows."""
    n_modes = data.shape[1] // 2
    names = [f"w_{i}" for i in range(1, n_modes + 1)] + [f"y_{i}" for i in range(1, n_modes + 1)]
    lines = ["t," + ",".join(names)]
    for t, row in zip(ts, data):
        lines.append(",".join(f"{v:.17g}" for v in [t, *row]))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestHistoryCatalog:
    def test_file_history_round_trip(self, tmp_path, rng):
        p = tiny_cable()
        n = 41
        data = rng.normal(size=(n, 8))
        path = write_history_file(tmp_path / "history.csv", np.linspace(-p.r, 0.0, n), data)
        hist = history_segment("file", p, n, {"path": path})
        assert hist.shape[0] == n
        assert np.abs(hist[:, 0, :] - data[:, :4]).max() == 0.0
        assert np.abs(hist[:, 1, :] - data[:, 4:]).max() == 0.0

    @pytest.mark.parametrize(
        "T, n_steps, n_r, rows",
        [(1.0, 300, 77, 37), (0.3, 500, 210, 2), (1.5, 700, 210, 211), (0.3, 700, 77, 500)],
    )
    def test_file_history_matches_the_former_resample(
        self, tmp_path, rng, grid129, T, n_steps, n_r, rows
    ):
        # Interpolated once at load, a uniform file gives bitwise the nodes
        # that the former per-integration resample of its rows gave.
        h = T / n_steps
        p = ModelParams(c=1.0, d=1.0, k=1.0, n_modes=4, T=T, r=n_r * h)
        data = rng.normal(size=(rows, 8))
        path = write_history_file(tmp_path / "history.csv", np.linspace(-p.r, 0.0, rows), data)
        hist = history_segment("file", p, n_r + 1, {"path": path})
        spec = ProblemSpec(params=p, grid=grid129, n_steps=n_steps, history=hist)
        pairs = np.stack([data[:, :4], data[:, 4:]], axis=1)
        reference = resample_history(Segment(p.r / (rows - 1), pairs), spec)
        assert np.array_equal(spec.history, reference)

    def test_non_uniform_file_history_rejected(self, tmp_path):
        p = tiny_cable()
        data = np.zeros((3, 8))
        data[:, 0] = [1.0, 0.8, 0.0]
        path = write_history_file(tmp_path / "history.csv", [-0.25, -0.05, 0.0], data)
        with pytest.raises(ConfigError, match="uniform") as err:
            history_segment("file", p, 26, {"path": path})
        assert err.value.key == "params.path"

    def test_file_history_must_cover_delay_span(self, tmp_path):
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
        # r/h = 25 steps: the history needs (26, 2, 4) nodes.
        p = tiny_cable()
        for shape in ((11, 2, 4), (26, 2, 3)):
            with pytest.raises(ConfigError, match="history"):
                ProblemSpec(params=p, grid=grid129, n_steps=100, history=np.zeros(shape))
