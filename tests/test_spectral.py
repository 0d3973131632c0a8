import numpy as np
import pytest

from beamctl.spectral import (
    SpatialGrid,
    StateZ,
    eigenvalue,
    eigenvalues,
    energy_norms,
    norm_z,
    reconstruct,
    zero_state,
)

from oracles import norm_half, positive_part, project, sine_coefficients_simpson


class TestEigenvalues:
    def test_first_mode(self):
        assert eigenvalue(1) == pytest.approx(97.40909103400243, rel=1e-14)

    def test_second_mode(self):
        assert eigenvalue(2) == pytest.approx(1558.5454565440388, rel=1e-14)

    def test_quartic_scaling(self):
        assert eigenvalue(2) / eigenvalue(1) == pytest.approx(16.0, rel=1e-14)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            eigenvalue(0)
        with pytest.raises(ValueError):
            eigenvalues(0)


class TestProjectReconstruct:
    def test_first_basis_function(self):
        grid = SpatialGrid(33)
        samples = np.sqrt(2.0) * np.sin(np.pi * grid.nodes)
        coeffs = project(samples, 8, grid)
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.abs(coeffs - expected).max() < 1e-12

    def test_linearity_on_second_mode(self):
        grid = SpatialGrid(33)
        samples = 3.0 * np.sqrt(2.0) * np.sin(2 * np.pi * grid.nodes)
        coeffs = project(samples, 8, grid)
        expected = np.zeros(8)
        expected[1] = 3.0
        assert np.abs(coeffs - expected).max() < 1e-12

    def test_parabola_against_dense_simpson(self):
        grid = SpatialGrid(255)
        samples = grid.nodes * (1.0 - grid.nodes)
        coeffs = project(samples, 8, grid)
        xs = np.linspace(0.0, 1.0, 2561)
        oracle = sine_coefficients_simpson(xs * (1.0 - xs), xs, 8)
        assert np.abs(coeffs - oracle).max() < 1e-8

    def test_grid_too_coarse(self):
        with pytest.raises(ValueError, match="too coarse"):
            project(np.zeros(15), 8, SpatialGrid(15))

    def test_reconstruct_basis(self):
        grid = SpatialGrid(17)
        c = np.zeros(4)
        c[0] = 1.0
        assert np.abs(reconstruct(c, grid) - np.sqrt(2) * np.sin(np.pi * grid.nodes)).max() < 1e-14

    def test_reconstruct_zero(self):
        grid = SpatialGrid(17)
        assert not reconstruct(np.zeros(4), grid).any()

    def test_round_trip(self, rng):
        grid = SpatialGrid(33)
        for _ in range(5):
            c = rng.normal(size=8)
            assert np.abs(project(reconstruct(c, grid), 8, grid) - c).max() < 1e-12

    def test_parseval(self, rng):
        grid = SpatialGrid(33)
        for _ in range(10):
            c = rng.normal(size=8)
            f = reconstruct(c, grid)
            grid_l2 = np.sqrt(grid.weight * np.sum(f**2))
            assert abs(grid_l2 - np.linalg.norm(c)) < 1e-8


class TestPositivePart:
    def test_nonnegative_function_unchanged(self):
        grid = SpatialGrid(65)
        c = np.zeros(8)
        c[0] = 1.0  # sin(pi x) >= 0 on (0, 1)
        assert np.abs(positive_part(c, grid) - c).max() < 1e-12

    def test_nonpositive_function_clipped(self):
        grid = SpatialGrid(65)
        c = np.zeros(8)
        c[0] = -1.0
        assert np.abs(positive_part(c, grid)).max() < 1e-12

    def test_half_wave_rectification_against_dense_quadrature(self):
        grid = SpatialGrid(2049)
        c = np.zeros(8)
        c[1] = 1.0 / np.sqrt(2.0)  # sin(2 pi x)
        coarse = positive_part(c, grid)
        fine = SpatialGrid(20499)
        oracle = fine.weight * (np.maximum(reconstruct(c, fine), 0.0) @ fine.basis(8))
        assert np.abs(coarse - oracle).max() < 1e-6

    def test_lipschitz_on_grid_functions(self, rng):
        grid = SpatialGrid(65)
        for _ in range(20):
            cu = rng.normal(size=8)
            cv = rng.normal(size=8)
            du = positive_part(cu, grid) - positive_part(cv, grid)
            assert np.linalg.norm(du) <= np.linalg.norm(cu - cv) + 1e-12

    def test_idempotent_on_sign_definite_inputs(self, rng):
        # When the reconstruction does not change sign the clip is the
        # identity (or zero), so a second application changes nothing.
        grid = SpatialGrid(65)
        c = np.zeros(8)
        c[0] = 2.0
        c1 = positive_part(c, grid)
        assert np.abs(positive_part(c1, grid) - c1).max() < 1e-12
        c[0] = -2.0
        c1 = positive_part(c, grid)
        assert np.abs(positive_part(c1, grid) - c1).max() < 1e-12

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the 8-mode truncation of a clipped function re-dips negative by "
            "O(1e-1) for generic inputs, so a second clip moves coefficients "
            "far beyond 1e-6; the bound only holds for sign-definite inputs"
        ),
    )
    def test_idempotent_at_stated_tolerance(self, rng):
        grid = SpatialGrid(65)
        worst = 0.0
        for _ in range(20):
            c = rng.normal(size=8)
            c1 = positive_part(c, grid)
            c2 = positive_part(c1, grid)
            worst = max(worst, float(np.abs(c2 - c1).max()))
        assert worst <= 1e-6


class TestNorms:
    def test_norm_half_first_mode(self):
        w = np.zeros(4)
        w[0] = 1.0
        assert norm_half(w) == pytest.approx(np.pi**2, rel=1e-14)

    def test_norm_z_zero(self):
        assert norm_z(zero_state(6)) == 0.0

    def test_norm_z_velocity_only(self, rng):
        y = rng.normal(size=6)
        assert norm_z(StateZ(np.zeros(6), y)) == pytest.approx(np.linalg.norm(y), rel=1e-14)

    def test_energy_norms_stack_matches_each_pair(self, rng):
        lam = eigenvalues(8)
        stack = rng.normal(size=(5, 3, 2, 8))
        norms = energy_norms(stack, lam)
        assert norms.shape == (5, 3)
        for idx in np.ndindex(5, 3):
            pair = stack[idx]
            z = StateZ.from_pair(pair)
            assert norms[idx] == norm_z(z)
            assert norms[idx] == pytest.approx(
                np.sqrt(norm_half(pair[0]) ** 2 + pair[1] @ pair[1]), rel=1e-14
            )

    def test_state_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            StateZ(np.zeros(3), np.zeros(4))

    def test_state_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            StateZ(np.array([np.nan, 0.0]), np.zeros(2))
