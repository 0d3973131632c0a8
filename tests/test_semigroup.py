import numpy as np
import pytest

from beamctl.semigroup import (
    ModelParams,
    _branch_coefficients,
    apply_semigroup,
    force_column,
    operator_norm_bound,
    propagator_entries_for,
)
from beamctl.spectral import StateZ, eigenvalue, eigenvalues, norm_z

from oracles import (
    apply_adjoint_semigroup,
    expm2,
    mode_adjoint_matrix,
    mode_matrix,
    rk4_matrix_exp,
    sampled_operator_norm,
    semigroup_blocks,
    taylor_expm,
    where_branch_coefficients,
)


def weighted_ip(a: StateZ, b: StateZ, lam) -> float:
    return float(np.sum(lam * a.w * b.w) + np.sum(a.y * b.y))


class TestModeMatrices:
    def test_generator_block(self, p8):
        a = mode_matrix(1, p8)
        assert a[0, 0] == 0.0 and a[0, 1] == 1.0
        assert a[1, 0] == pytest.approx(-97.40909103400243, rel=1e-14)
        assert a[1, 1] == -1.0

    def test_damping_must_be_positive(self):
        with pytest.raises(ValueError, match="damping"):
            ModelParams(c=0.0, d=1.0, k=1.0, n_modes=4, T=1.0, r=0.3)

    def test_stiffness_scales_force_entry(self, p8):
        p2 = ModelParams(c=1.0, d=2.0, k=1.0, n_modes=8, T=1.0, r=0.3)
        assert mode_matrix(1, p2)[1, 0] == pytest.approx(2 * mode_matrix(1, p8)[1, 0])

    def test_adjoint_block(self, p8):
        a = mode_adjoint_matrix(1, p8)
        assert a[0, 0] == 0.0 and a[0, 1] == -1.0
        assert a[1, 0] == pytest.approx(97.40909103400243, rel=1e-14)
        assert a[1, 1] == -1.0

    def test_adjoint_identity_on_random_pairs(self, p8, rng):
        # <A z, z'>_D == <z, A* z'>_D with D = diag(lambda_n, 1)
        for n in (1, 3, 8):
            lam = eigenvalue(n)
            a = mode_matrix(n, p8)
            astar = mode_adjoint_matrix(n, p8)
            d = np.diag([lam, 1.0])
            for _ in range(10):
                z = rng.normal(size=2)
                zp = rng.normal(size=2)
                lhs = (a @ z) @ d @ zp
                rhs = z @ d @ (astar @ zp)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_adjoint_is_involution(self, p8):
        n = 2
        lam = eigenvalue(n)
        astar = mode_adjoint_matrix(n, p8)
        d = np.diag([lam, 1.0])
        double = np.linalg.inv(d) @ astar.T @ d
        assert np.allclose(double, mode_matrix(n, p8), rtol=1e-13, atol=1e-13)

    def test_invalid_mode_index(self, p8):
        with pytest.raises(ValueError):
            mode_matrix(0, p8)
        with pytest.raises(ValueError):
            mode_adjoint_matrix(-1, p8)


class TestExpm2:
    def test_identity_at_zero(self, p8):
        assert np.array_equal(expm2(mode_matrix(3, p8), 0.0), np.eye(2))

    def test_critical_damping_branch_against_taylor(self):
        # c^2 = 4 d lambda: repeated root, the limit formula must match a
        # scaled Taylor evaluation.
        lam = eigenvalue(1)
        d = 1.0
        c = 2.0 * np.sqrt(d * lam)
        a = np.array([[0.0, 1.0], [-d * lam, -c]])
        for t in (0.05, 0.3, -0.2):
            assert np.abs(expm2(a, t) - taylor_expm(a, t)).max() < 1e-10

    def test_near_critical_threshold_stability(self):
        # Inside the repeated-root guard the limit formula replaces the true
        # branch; its error is bounded by |disc| * t^2 / 8 at the band edge.
        lam = eigenvalue(1)
        d = 1.0
        c = 2.0 * np.sqrt(d * lam) * (1.0 + 3e-10)
        a = np.array([[0.0, 1.0], [-d * lam, -c]])
        assert np.abs(expm2(a, 0.3) - taylor_expm(a, 0.3)).max() < 1e-8

    def test_generic_block_against_rk4(self, p8):
        a = mode_matrix(1, p8)
        assert np.abs(expm2(a, 0.3) - rk4_matrix_exp(a, 0.3, step=1e-5)).max() < 1e-8

    def test_overdamped_branch_against_taylor(self):
        a = np.array([[0.0, 1.0], [-0.5, -3.0]])  # c^2 > 4 d lambda
        for t in (0.7, -0.4):
            assert np.abs(expm2(a, t) - taylor_expm(a, t)).max() < 1e-12

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            expm2(np.zeros((3, 3)), 1.0)

    def test_nilpotent_block(self):
        # q = shift^2 - det = 0 under a zero threshold: exp(Mt) = I + tM.
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        for t in (0.3, -0.2):
            assert np.array_equal(expm2(a, t), np.array([[1.0, t], [0.0, 1.0]]))


def _branch_cases():
    """(shift, det, t) for every branch, its edges and the broadcasting shapes."""
    t = np.linspace(-1.0, 1.0, 201)[:, None]
    lam = eigenvalues(48)[None, :]
    # Oscillatory (c/d = 1/1, 30/4), overdamped low modes (200/1, 500/0.01,
    # 60/0.001), exactly critical mode 1 (2 pi^2/1), and nearly undamped.
    for c, d in [(1.0, 1.0), (30.0, 4.0), (200.0, 1.0), (2 * np.pi**2, 1.0),
                 (1e-3, 1.0), (500.0, 0.01), (60.0, 0.001)]:
        yield pytest.param(-0.5 * c, d * lam, t, id=f"c={c:.6g},d={d:g}")
    # Relative offsets of c around critical damping of mode 1, on both sides
    # of the repeated-root threshold 1e-9.
    lam1 = eigenvalue(1)
    for rel in (0.0, 1e-12, -1e-12, 1e-10, -1e-10, 1e-9, -1e-9, 1e-8, -1e-8):
        yield pytest.param(-np.sqrt(lam1) * (1.0 + rel), lam1, t[:, 0], id=f"critical{rel:+g}")
    yield pytest.param(-0.5, 2.0, 0.3, id="scalar")
    b_shift, b_det = np.array([-1.0, 0.0, 2.0]), np.array([[1.0], [3.0]])
    yield pytest.param(b_shift, b_det, np.array(0.7), id="broadcast")


@pytest.mark.parametrize("shift,det,t", _branch_cases())
def test_branch_matches_the_where_formula_bitwise(shift, det, t):
    # Each entry runs the same sqrt, product and libm call as the formula
    # that evaluated every branch everywhere, so the bytes agree.
    got = _branch_coefficients(shift, det, t)
    ref = where_branch_coefficients(shift, det, t)
    for g, r in zip(got, ref):
        assert g.shape == r.shape
        assert g.tobytes() == r.tobytes()


# (c, d) of the force-column cases at N = 48: every mode oscillatory,
# overdamped low modes, mode 1 exactly critical, and both branches in one
# table (modes 1-3 overdamped).
FORCE_CASES = {
    "oscillatory": (1.0, 1.0),
    "overdamped-low-modes": (500.0, 0.01),
    "repeated-root-mode-1": (2 * np.pi**2, 1.0),
    "mixed-branches": (200.0, 1.0),
}


@pytest.mark.parametrize("case", FORCE_CASES)
@pytest.mark.parametrize("ts", [np.linspace(1.0, 0.0, 201), 0.3], ids=["array", "scalar"])
def test_force_column_is_the_entries_bitwise(case, ts):
    # The steering tables read only (e01, e11); they must be the bytes the
    # full propagator gives, whichever branch each entry takes.
    c, d = FORCE_CASES[case]
    lam = eigenvalues(48)
    got = force_column(ts, lam, c, d)
    _, e01, _, e11 = propagator_entries_for(ts, lam, c, d)
    assert got[0].shape == got[1].shape == (np.size(ts), 48)
    assert np.array_equal(got[0], e01) and np.array_equal(got[1], e11)


def test_force_column_cases_reach_their_branches():
    quarter = {case: (0.5 * c) ** 2 - d * eigenvalues(48) for case, (c, d) in FORCE_CASES.items()}
    assert (quarter["oscillatory"] < 0).all()
    assert (quarter["overdamped-low-modes"][:4] > 0).all()
    assert abs(quarter["repeated-root-mode-1"][0]) <= 1e-9 * eigenvalue(1)
    assert (quarter["mixed-branches"][:3] > 0).all() and (quarter["mixed-branches"][3:] < 0).all()


class TestGroup:
    def test_no_op_at_zero(self, p8, rng):
        z = StateZ(rng.normal(size=8), rng.normal(size=8))
        assert apply_semigroup(z, 0.0, p8) is z

    def test_group_law(self, p8, rng):
        for _ in range(100):
            z = StateZ(rng.normal(size=8), rng.normal(size=8))
            s, t = rng.uniform(-1.0, 1.0, size=2)
            once = apply_semigroup(z, s + t, p8)
            twice = apply_semigroup(apply_semigroup(z, s, p8), t, p8)
            assert norm_z(twice - once) <= 1e-10 * norm_z(z)

    def test_group_inverse(self, p8, rng):
        for _ in range(20):
            z = StateZ(rng.normal(size=8), rng.normal(size=8))
            t = rng.uniform(-1.0, 1.0)
            back = apply_semigroup(apply_semigroup(z, t, p8), -t, p8)
            assert norm_z(back - z) <= 1e-9 * norm_z(z)

    def test_long_time_decay(self, p8, rng):
        for _ in range(10):
            z = StateZ(rng.normal(size=8), rng.normal(size=8))
            assert norm_z(apply_semigroup(z, 10.0, p8)) < norm_z(z)

    def test_determinant_identity(self, p8, rng):
        # det exp(A_n t) = exp(trace(A_n) t) = exp(-c t)
        for t in rng.uniform(-1.0, 1.0, size=10):
            blocks = semigroup_blocks(float(t), p8)
            dets = blocks[:, 0, 0] * blocks[:, 1, 1] - blocks[:, 0, 1] * blocks[:, 1, 0]
            assert np.abs(dets - np.exp(-p8.c * t)).max() <= 1e-10

    def test_adjoint_consistency(self, p8, rng):
        lam = eigenvalues(8)
        for _ in range(20):
            z = StateZ(rng.normal(size=8), rng.normal(size=8))
            zp = StateZ(rng.normal(size=8), rng.normal(size=8))
            t = rng.uniform(-1.0, 1.0)
            lhs = weighted_ip(apply_semigroup(z, t, p8), zp, lam)
            rhs = weighted_ip(z, apply_adjoint_semigroup(zp, t, p8), lam)
            assert abs(lhs - rhs) <= 1e-10 * norm_z(z) * norm_z(zp)


class TestOperatorNormBound:
    def test_at_least_one(self, p8):
        assert operator_norm_bound(p8) >= 1.0

    def test_single_mode_grid_refinement(self):
        # The sampled norm settles as its grid refines, below the bound.
        p = ModelParams(c=1.0, d=2.0, k=1.0, n_modes=1, T=1.0, r=0.3)
        coarse = sampled_operator_norm(p, p.T / 2000.0)
        fine = sampled_operator_norm(p, p.T / 20000.0)
        assert abs(coarse - fine) <= 1e-3 * fine
        assert fine <= operator_norm_bound(p)

    def test_nonincreasing_in_damping(self):
        # Checked numerically on a stiffness where the sampled norm exceeds
        # one; this is an observation about these parameters, not a theorem.
        # The bound does not depend on the damping and covers all three.
        ms = [
            sampled_operator_norm(ModelParams(c=c, d=3.0, k=1.0, n_modes=8, T=1.0, r=0.3))
            for c in (0.5, 1.0, 2.0)
        ]
        assert ms[0] >= ms[1] >= ms[2] > 1.0
        assert ms[0] <= operator_norm_bound(ModelParams(c=1.0, d=3.0, k=1.0, n_modes=8, T=1.0, r=0.3))

    @pytest.mark.parametrize("c", [0.1, 1.0, 5.0, 30.0, 200.0])
    @pytest.mark.parametrize("d", [0.05, 0.25, 0.5, 1.0, 2.0, 4.0, 16.0])
    def test_bound_covers_the_refined_samples(self, c, d):
        # Sampled on a grid ten times finer than the former default (T/2000).
        # The samples' propagator entries at lambda_8 = (8 pi)^4 carry
        # relative rounding of about 1e-11; at c = 0.1, d = 1 the samples
        # sit that far above the exact sup, 1.
        p = ModelParams(c=c, d=d, k=1.0, n_modes=8, T=1.0, r=0.3)
        assert sampled_operator_norm(p, p.T / 20000.0) <= operator_norm_bound(p) * (1.0 + 1e-10)

    def test_stiff_damped_beam_bound_is_two(self):
        # At d = 4, c = 30 the samples stop short of the bound: 1.863 <= 2.
        p = ModelParams(c=30.0, d=4.0, k=0.024, n_modes=4, T=1.0, r=0.25)
        assert operator_norm_bound(p) == 2.0
        assert 1.86 < sampled_operator_norm(p, p.T / 20000.0) < 1.87

    def test_matched_weight_gives_unit_bound(self, p8):
        # With d = 1 the energy norm is non-increasing along the flow, so
        # the bound is S(0) = I's norm, exactly.
        assert operator_norm_bound(p8) == 1.0
