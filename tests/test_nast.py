import numpy as np
import pytest

from adiaconn.models import constant_model
from adiaconn.nast import (
    lasso_holonomy,
    maurer_cartan_flatness,
    nast_residual,
    surface_ordered_product,
)
from adiaconn.geometry import planar_patch, su2_cap_patch, su2_triangle_loop
from adiaconn.transport import holonomy

from conftest import random_polynomial_model

SZ = np.diag([1.0, -1.0]).astype(complex)


class TestLasso:
    def test_single_cell_grid_equals_cell_holonomy(self, su2_half):
        patch = su2_cap_patch(0.8, grid=(1, 1))
        lasso = lasso_holonomy(su2_half, patch, (0, 0))
        product = surface_ordered_product(su2_half, patch)
        assert np.allclose(lasso.value.matrix, product.operator.matrix)

    def test_constant_model_trivial(self):
        model = constant_model(np.diag([0.0, 1.0]).astype(complex), n_params=2)
        patch = planar_patch([0.0, 0.0], [1.0, 0.0], [0.0, 1.0], grid=(3, 3))
        lasso = lasso_holonomy(model, patch, (2, 1))
        assert np.linalg.norm(lasso.value.matrix - np.eye(2)) < 1e-12

    @pytest.mark.parametrize("edge_refinement", [0, -3, 2.7, 2.0])
    def test_non_integer_or_non_positive_edge_refinement_rejected(self, su2_half,
                                                                  edge_refinement):
        patch = su2_cap_patch(0.8, grid=(2, 2))
        for build in (lambda: lasso_holonomy(su2_half, patch, (1, 1),
                                             edge_refinement=edge_refinement),
                      lambda: surface_ordered_product(su2_half, patch,
                                                      edge_refinement=edge_refinement),
                      lambda: nast_residual(su2_half, patch, edge_refinement=edge_refinement)):
            with pytest.raises(ValueError, match="edge_refinement"):
                build()

    def test_cell_outside_grid_rejected(self, su2_half):
        patch = su2_cap_patch(0.8, grid=(2, 2))
        with pytest.raises(ValueError, match="outside"):
            lasso_holonomy(su2_half, patch, (2, 0))

    @pytest.mark.parametrize("cell", [(1.5, 0), (True, 1), (0, False), (1,), (0, 1, 1), 1])
    def test_cell_not_two_integers_rejected(self, su2_half, cell):
        patch = su2_cap_patch(0.8, grid=(2, 2))
        with pytest.raises(ValueError, match="two integer indices"):
            lasso_holonomy(su2_half, patch, cell)

    def test_cell_accepts_numpy_integers(self, su2_half):
        patch = su2_cap_patch(0.8, grid=(2, 2))
        got = lasso_holonomy(su2_half, patch, (np.int64(1), np.int32(0)))
        assert got.cell == (1, 0)
        assert np.array_equal(got.value.matrix, lasso_holonomy(su2_half, patch, (1, 0)).value.matrix)

    def test_diagonal_action(self, su2_half):
        # in the base eigenbasis a lasso is phase-diagonal up to O(cell^3),
        # and its phases carry the cell's curvature flux
        from adiaconn.curvature import berry_curvature_at

        n = 12
        omega_cap = 1.3
        patch = su2_cap_patch(omega_cap, grid=(n, n))
        spec = su2_half.spectral_at(patch.point(0.0, 0.0))
        v = spec.frame.matrix
        theta_max = np.arccos(1 - omega_cap / (2 * np.pi))
        cell_area = (theta_max / n) * (2 * np.pi / n)
        for cell in [(3, 4), (7, 1), (10, 9)]:
            lasso = lasso_holonomy(su2_half, patch, cell)
            w = v.conj().T @ lasso.value.matrix @ v
            off = np.max(np.abs(w - np.diag(np.diag(w))))
            assert off < 5e-4
            table = berry_curvature_at(su2_half, lasso.center)
            for level in range(2):
                flux = table.value(level, 1, 2) * cell_area
                assert np.angle(w[level, level]) == pytest.approx(flux, abs=3e-4)


class TestSurfaceOrderedProduct:
    def test_cap_matches_triangle_phases(self, su2_half):
        product = surface_ordered_product(su2_half, su2_cap_patch(np.pi / 2, grid=(50, 50)))
        w = product.operator.matrix
        expected = np.diag(np.exp(1j * np.array([np.pi / 4, -np.pi / 4])))
        assert np.linalg.norm(w - expected) <= 1e-3
        assert product.cell_count == 2500

    def test_agreement_with_boundary_on_random_model(self, rng):
        model = random_polynomial_model(rng)
        patch = planar_patch([0.0, 0.0], [0.45, 0.0], [0.0, 0.35], grid=(40, 40))
        product = surface_ordered_product(model, patch)
        boundary = holonomy(model, patch.boundary_path(refinement=8))
        assert np.linalg.norm(product.operator.matrix - boundary.operator.matrix) <= 1e-3

    def test_reordering_changes_little(self, su2_half):
        # swapping two adjacent factors perturbs the product only at the
        # discretization scale, because every lasso is near-diagonal in
        # the shared base eigenbasis
        from adiaconn.nast import _grid_edges, _lassos

        n = 16
        patch = su2_cap_patch(1.1, grid=(n, n))
        lassos = _lassos(*_grid_edges(su2_half, patch, 2))

        def product(order):
            total = np.eye(2, dtype=complex)
            for i, j in order:
                total = total @ lassos[i][j]
            return total

        fishbone = [(i, j) for i in range(n) for j in reversed(range(n))]
        swapped = list(fishbone)
        swapped[100], swapped[101] = swapped[101], swapped[100]
        assert np.linalg.norm(product(fishbone) - product(swapped)) < 1e-6


class TestNastResidual:
    def test_constant_model_exact(self):
        model = constant_model(np.diag([0.0, 1.0, 2.5]).astype(complex), n_params=2)
        patch = planar_patch([0.0, 0.0], [1.0, 0.0], [0.0, 1.0], grid=(10, 10))
        assert nast_residual(model, patch) < 1e-12

    def test_su2_cap_converges(self, su2_half):
        r50 = nast_residual(su2_half, su2_cap_patch(np.pi / 2, grid=(50, 50)))
        assert r50 <= 1e-3
        r100 = nast_residual(su2_half, su2_cap_patch(np.pi / 2, grid=(100, 100)))
        assert r50 / r100 >= 3.0

    def test_l1_small_cap(self, su2_one):
        assert nast_residual(su2_one, su2_cap_patch(0.6, grid=(50, 50))) <= 1e-3


class TestFlatness:
    def test_zero_time_exact(self, su2_half):
        loop = su2_triangle_loop(np.pi / 2, refinement=50)
        assert maurer_cartan_flatness(su2_half, loop, t=0.0) == pytest.approx(0.0, abs=1e-15)

    def test_triangle_residual_small(self, su2_half):
        loop = su2_triangle_loop(np.pi / 2, refinement=4000)
        assert maurer_cartan_flatness(su2_half, loop, t=1.7) <= 1e-4

    def test_refinement_doubling(self, su2_half):
        r1 = maurer_cartan_flatness(su2_half, su2_triangle_loop(np.pi / 2, refinement=500), t=1.7)
        r2 = maurer_cartan_flatness(su2_half, su2_triangle_loop(np.pi / 2, refinement=1000), t=1.7)
        assert r1 / r2 >= 3.0

    def test_contrast_with_averaged_connection(self, su2_half):
        # same loop, averaged connection: non-trivial phases survive
        loop = su2_triangle_loop(np.pi / 2, refinement=500)
        flat = maurer_cartan_flatness(su2_half, loop, t=1.7)
        averaged = holonomy(su2_half, loop)
        assert flat < 1e-3
        assert np.min(np.abs(averaged.phases)) > 0.7

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_is_named(self, su2_half, t):
        loop = su2_triangle_loop(np.pi / 2, refinement=50)
        with pytest.raises(ValueError, match="t must be finite"):
            maurer_cartan_flatness(su2_half, loop, t=t)

    def test_requires_closed_loop(self, su2_half):
        from adiaconn.transport import PathSpec

        path = PathSpec(np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]))
        with pytest.raises(ValueError, match="closed"):
            maurer_cartan_flatness(su2_half, path, t=1.0)
