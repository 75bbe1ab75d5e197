import re

import numpy as np
import pytest

from adiaconn.curvature import (
    BerryCurvatureTable,
    CurvatureTwoForm,
    GridTooCoarseError,
    SmallLoopReport,
    SurfacePatch,
    berry_curvature_at,
    berry_curvature_levels,
    berry_phase_surface,
    diagonality_residual,
    small_loop_check,
    yang_mills_curvature,
)
from adiaconn.models import OscillatorModel, ParametricHamiltonian, Su2Model, constant_model
from adiaconn.geometry import (
    cap_polar_angle,
    planar_patch,
    planar_rectangle_loop,
    su2_cap_patch,
    su2_circle_loop,
    su2_wedge_patch,
)
from adiaconn.reference import su2_analytic_curvature, su2_berry_curvature
from adiaconn import transport
from adiaconn.nast import _grid_edges
from adiaconn.transport import holonomy

from conftest import random_polynomial_model

SZ = np.diag([1.0, -1.0]).astype(complex)


class TestYangMills:
    def test_su2_closed_form(self, su2_half):
        lam = [1.0, np.pi / 3, 0.7]
        f = yang_mills_curvature(su2_half, lam)
        ref = su2_analytic_curvature(0.5, *lam[1:])
        for pair in f.pairs:
            assert np.linalg.norm(f.component(*pair) - ref.component(*pair)) < 1e-6

    def test_constant_model_flat(self):
        model = constant_model(SZ, n_params=2)
        f = yang_mills_curvature(model, [0.3, -0.1])
        assert np.linalg.norm(f.component(0, 1)) < 1e-14

    def test_antisymmetry_of_accessor(self, su2_half):
        f = yang_mills_curvature(su2_half, [1.0, 1.2, 0.3])
        assert np.allclose(f.component(2, 1), -f.component(1, 2))
        assert np.linalg.norm(f.component(1, 1)) == 0.0

    def test_finite_difference_order(self, su2_half):
        # against the closed form, halving a coarse step divides the
        # derivative-term error by about four
        lam = [1.0, 1.05, 0.4]
        ref = su2_analytic_curvature(0.5, *lam[1:]).component(1, 2)
        errs = []
        for h in (2e-2, 1e-2):
            f = yang_mills_curvature(su2_half, lam, step=h)
            errs.append(np.linalg.norm(f.component(1, 2) - ref))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    @pytest.mark.parametrize("step", [0.0, -1e-5, np.nan, np.inf, 1e-300])
    def test_step_must_move_the_point(self, su2_half, step):
        # 1e-300 is positive but leaves B = 1 and theta = 1 where they are:
        # the stencil would difference a point with itself
        with pytest.raises(ValueError, match="step"):
            yang_mills_curvature(su2_half, [1.0, 1.0, 0.3], step=step)

    def test_stencil_domain_guard(self, oscillator):
        from adiaconn.models import DomainViolationError

        with pytest.raises(DomainViolationError):
            yang_mills_curvature(oscillator, [1.0, 0.0, 1e-7])

    def test_oscillator_matches_analytic_on_certified_block(self, oscillator):
        from adiaconn.reference import oscillator_analytic_curvature

        lam = [2.0, 0.5, 1.5]
        k = oscillator.certified_vector_levels(lam)
        f = yang_mills_curvature(oscillator, lam)
        ref = oscillator_analytic_curvature(*lam, oscillator.nmax)
        for pair in f.pairs:
            diff = f.component(*pair)[:k, :k] - ref.component(*pair)[:k, :k]
            assert np.max(np.abs(diff)) < 1e-4


class TestBerryCurvatureLevels:
    def test_su2_half_levels(self, su2_half):
        lam = [1.0, 0.9, 0.2]
        table = berry_curvature_at(su2_half, lam)
        expected = su2_berry_curvature(0.5, 0.9)  # -m sin(theta), ascending m
        got = [table.value(n, 1, 2) for n in range(2)]
        assert np.allclose(got, expected, atol=1e-12)

    def test_su2_one_middle_level_vanishes(self, su2_one):
        table = berry_curvature_at(su2_one, [1.0, 1.3, 0.5])
        assert table.value(1, 1, 2) == pytest.approx(0.0, abs=1e-12)

    def test_oscillator_level_three(self, oscillator):
        # certified value -(n + 1/2) X / (4 omega^3) at n = 3
        lam = [2.0, 0.5, 1.5]
        omega = np.sqrt(2.75)
        table = berry_curvature_at(oscillator, lam)
        expected = -3.5 * 2.0 / (4.0 * omega**3)
        assert table.value(3, 1, 2) == pytest.approx(expected, rel=1e-9)

    def test_matches_field_strength_diagonal(self, su2_one):
        lam = [1.2, 1.0, 0.8]
        spec = su2_one.spectral_at(lam)
        table = berry_curvature_levels(spec, su2_one.grad_h(lam))
        f = yang_mills_curvature(su2_one, lam)
        diag = np.real(np.diag(spec.to_eigenbasis(f.component(1, 2))))
        got = [table.value(n, 1, 2) for n in range(3)]
        assert np.allclose(diag, got, atol=1e-6)

    def test_antisymmetric_accessor(self, su2_half):
        table = berry_curvature_at(su2_half, [1.0, 1.0, 0.0])
        assert table.value(0, 2, 1) == -table.value(0, 1, 2)
        assert table.value(0, 1, 1) == 0.0

    def test_unstored_pair_is_named(self, su2_half):
        # one lookup for the table and the field strength: an index past
        # the parameters names the pair, in either order
        lam = [1.0, 1.0, 0.0]
        table = berry_curvature_at(su2_half, lam)
        f = yang_mills_curvature(su2_half, lam)
        for lookup in (lambda mu, nu: table.value(0, mu, nu), f.component):
            for mu, nu in ((0, 5), (5, 0)):
                with pytest.raises(ValueError, match=re.escape(f"pair ({mu}, {nu})")):
                    lookup(mu, nu)
        assert table.pairs == tuple(f.pairs)

    def test_empty_field_strength_names_the_pair(self):
        with pytest.raises(ValueError, match=re.escape("pair (0, 0)")):
            CurvatureTwoForm({}).component(0, 0)
        # with nothing stored a table still reads 0 on the diagonal
        assert BerryCurvatureTable((), np.zeros((2, 0))).value(1, 0, 0) == 0.0

    @pytest.mark.parametrize("n", [-1, 3, 1.0, np.float64(1.0), True])
    def test_level_outside_the_table_is_named(self, su2_one, n):
        # -1 would index the top level from the end; 1.0 and True are no level index
        table = berry_curvature_at(su2_one, [1.0, 1.0, 0.3])
        message = re.escape(f"level index {n} out of range for dim 3")
        for mu, nu in ((1, 2), (1, 1)):
            with pytest.raises(ValueError, match=message):
                table.value(n, mu, nu)
        assert table.value(np.int64(2), 1, 2) == table.value(2, 1, 2)


class TestDiagonality:
    def test_su2_half(self, su2_half):
        lam = [1.0, np.pi / 3, 0.0]
        f = yang_mills_curvature(su2_half, lam)
        assert diagonality_residual(f, su2_half.spectral_at(lam)) <= 1e-6

    def test_su2_three_halves_random_points(self, rng):
        model = Su2Model(1.5)
        for _ in range(5):
            lam = [rng.uniform(0.6, 1.8), rng.uniform(0.3, 2.8), rng.uniform(0, 6)]
            f = yang_mills_curvature(model, lam)
            assert diagonality_residual(f, model.spectral_at(lam)) <= 1e-5

    def test_constant_model_zero(self):
        model = constant_model(np.diag([0.0, 1.0, 3.0]).astype(complex), n_params=2)
        f = yang_mills_curvature(model, [0.1, 0.2])
        assert diagonality_residual(f, model.spectral_at([0.1, 0.2])) == 0.0

    def test_oscillator_certified_block(self, oscillator):
        lam = [2.0, 0.5, 1.5]
        f = yang_mills_curvature(oscillator, lam)
        spec = oscillator.spectral_at(lam)
        k = oscillator.certified_vector_levels(lam)
        assert k >= 1  # levels=0 is refused, so the check below cannot pass on nothing
        assert diagonality_residual(f, spec, levels=k) <= 1e-5

    @pytest.mark.parametrize("levels", [-1, 0, 4, 2.5, True, np.float64(2.0), "2"])
    def test_levels_outside_one_to_dim_rejected(self, su2_one, levels):
        # -1 used to drop the top level, 0 to read nothing and 4 to read all 3
        lam = [1.0, 1.0, 0.3]
        f = yang_mills_curvature(su2_one, lam)
        with pytest.raises(ValueError, match=r"levels must be None or an integer in \[1, 3\]"):
            diagonality_residual(f, su2_one.spectral_at(lam), levels=levels)

    def test_levels_one_to_dim_accepted(self, su2_one):
        lam = [1.0, 1.0, 0.3]
        f = yang_mills_curvature(su2_one, lam)
        spec = su2_one.spectral_at(lam)
        assert diagonality_residual(f, spec, levels=np.int64(3)) == diagonality_residual(f, spec)
        assert diagonality_residual(f, spec, levels=1) == 0.0


class TestSmallLoop:
    def test_su2_difference_and_scaling(self, su2_half):
        report = small_loop_check(su2_half, [1.0, np.pi / 3, 0.0], 1, 2, eps=1e-2)
        assert report.difference <= 1e-5
        assert report.ratio >= 6.0

    def test_constant_model_exact(self):
        model = constant_model(SZ, n_params=2)
        report = small_loop_check(model, [0.0, 0.0], 0, 1, eps=1e-2)
        assert report.difference < 1e-13
        assert report.halved_difference < 1e-13
        for mu, nu in [(-1, 1), (0, 2), (1, 1), (0.0, 1), (True, 0), (np.int64(1), 1)]:
            with pytest.raises(ValueError, match="distinct parameter indices"):
                small_loop_check(model, [0.0, 0.0], mu, nu, eps=1e-2)

    @pytest.mark.parametrize("eps", [0.0, -1e-3, np.nan, np.inf])
    def test_eps_finite_and_positive(self, su2_half, eps):
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            small_loop_check(su2_half, [1.0, 0.8, 0.3], 1, 2, eps=eps)


    def test_ratio_of_an_exact_halved_loop(self):
        # an exact eps/2 loop makes the scaling ratio infinite, not a division by zero
        assert SmallLoopReport(1e-2, 1e-9, 0.0).ratio == np.inf
        assert SmallLoopReport(1e-2, 8e-9, 2e-9).ratio == 4.0


class TestGeometryGuards:
    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: su2_circle_loop(0.0), "theta0 must lie strictly between the poles"),
            (lambda: su2_circle_loop(np.pi), "theta0 must lie strictly between the poles"),
            (lambda: su2_wedge_patch(0.0), "azimuthal span must lie in (0, 2*pi)"),
            (lambda: su2_wedge_patch(2 * np.pi), "azimuthal span must lie in (0, 2*pi)"),
            (lambda: cap_polar_angle(0.0), "solid angle must lie in (0, 4*pi)"),
            (lambda: su2_cap_patch(4 * np.pi), "solid angle must lie in (0, 4*pi)"),
        ],
        ids=["circle-pole", "circle-south-pole", "wedge-empty", "wedge-full-turn",
             "cap-empty", "cap-full-sphere"],
    )
    def test_out_of_range_shape_refused(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


class TestSurfaceIntegrals:
    def test_cap_phase_matches_solid_angle(self, su2_half):
        omega = np.pi / 2
        patch = su2_cap_patch(omega, grid=(200, 200))
        phase = berry_phase_surface(su2_half, patch, level=1)
        assert phase == pytest.approx(-omega / 2, abs=1e-4)

    def test_degenerate_patch_zero(self, su2_half):
        # collinear edges span zero area, so the pullback vanishes cellwise
        collinear = planar_patch([1.0, 0.5, 0.0], [0.0, 0.4, 0.0], [0.0, 0.8, 0.0],
                                 grid=(8, 8))
        assert berry_phase_surface(su2_half, collinear, level=0) == pytest.approx(0.0, abs=1e-15)

    def test_tangents_are_the_exact_edges(self, monkeypatch):
        # on this grid the half-cell central differences of the parallelogram
        # round away from its edges
        model = random_polynomial_model(np.random.default_rng(5))
        edge_u, edge_v = [0.3, 0.1], [-0.1, 0.7]
        patch = planar_patch([0.1, -0.2], edge_u, edge_v, grid=(7, 5))
        kernel_batch, handed = model._kernel_batch, []

        def spy(lams, directions):
            handed.append(np.array(directions))
            return kernel_batch(lams, directions)

        monkeypatch.setattr(model, "_kernel_batch", spy)
        berry_phase_surface(model, patch, [0, 1])
        directions = np.concatenate(handed)
        assert directions.shape == (35, 2, 2)
        assert np.array_equal(directions[:, 0], np.broadcast_to(edge_u, (35, 2)))
        assert np.array_equal(directions[:, 1], np.broadcast_to(edge_v, (35, 2)))

    def test_l1_cap_per_level(self, su2_one):
        omega = 1.2
        patch = su2_cap_patch(omega, grid=(120, 120))
        for level, m in ((0, -1.0), (1, 0.0), (2, 1.0)):
            phase = berry_phase_surface(su2_one, patch, level=level)
            assert phase == pytest.approx(-m * omega, abs=2e-4)

    def test_grid_doubling_guard(self, su2_half):
        patch = su2_cap_patch(np.pi / 2, grid=(3, 3))
        with pytest.raises(GridTooCoarseError):
            berry_phase_surface(su2_half, patch, level=0, refine_check_tol=1e-9)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0])
    def test_check_tol_finite_and_non_negative(self, su2_half, tol):
        patch = su2_cap_patch(np.pi / 2, grid=(3, 3))
        with pytest.raises(ValueError, match="refine_check_tol"):
            berry_phase_surface(su2_half, patch, level=0, refine_check_tol=tol)

    def test_degenerate_level_is_named(self):
        # level 2 ties with levels 1 and 3 at gap 0: the first of them,
        # level 1, is the one named, with the gap and threshold it missed
        from adiaconn.operator_core import DegenerateSpectrumError, default_gap_tol

        evals = np.array([1.0, 2.0, 2.0, 2.0])
        model = constant_model(np.diag(evals).astype(complex), n_params=2)
        patch = planar_patch([0.0, 0.0], [1.0, 0.0], [0.0, 1.0], grid=(2, 3))
        with pytest.raises(DegenerateSpectrumError) as err:
            berry_phase_surface(model, patch, level=[0, 2])
        assert (err.value.level, err.value.gap) == (1, 0.0)
        assert err.value.threshold == default_gap_tol(evals)

    def test_degenerate_level_guard(self):
        from adiaconn.operator_core import DegenerateSpectrumError

        model = constant_model(np.diag([1.0, 1.0, 2.0]).astype(complex), n_params=2)
        patch = planar_patch([0.0, 0.0], [1.0, 0.0], [0.0, 1.0], grid=(2, 2))
        with pytest.raises(DegenerateSpectrumError):
            berry_phase_surface(model, patch, level=0)

    def test_non_finite_hamiltonian_raises(self):
        def eval_fn(lam):
            h = np.array([[1.0, 0.3 * lam[1]], [0.3 * lam[1], -1.0 + lam[0]]], dtype=complex)
            return h * np.nan if lam[0] > 0.55 else h

        model = ParametricHamiltonian(2, 2, eval_fn=eval_fn)
        patch = planar_patch([0.0, 0.0], [1.0, 0.0], [0.0, 1.0], grid=(4, 4))
        with pytest.raises(ValueError, match="non-finite"):
            berry_phase_surface(model, patch, level=0)
        with pytest.raises(ValueError):
            berry_curvature_at(model, [0.625, 0.125])
        loop = planar_rectangle_loop([0.0, 0.0], [1.0, 0.0], [0.0, 1.0], refinement=4)
        for phases in (holonomy, transport.wilson_loop_phases):
            with pytest.raises(ValueError):
                phases(model, loop)

    @pytest.mark.parametrize("level", [2, -1, [0, 2], 1.5, 1.0, [0, 1.5]])
    def test_level_out_of_range(self, su2_half, level):
        patch = su2_cap_patch(1.0, grid=(4, 4))
        with pytest.raises(ValueError, match="out of range"):
            berry_phase_surface(su2_half, patch, level=level)

    @pytest.mark.parametrize("model, origin, edge_u, edge_v", [
        (Su2Model(1.0), [1.0, 0.9, 0.2], [0.1, 0.2, 0.05], [0.05, -0.1, 0.3]),
        (OscillatorModel(14, 4), [2.0, 0.3, 1.4], [0.1, 0.2, 0.0], [0.0, 0.05, 0.25]),
        (random_polynomial_model(np.random.default_rng(7)), [0.1, -0.2], [0.3, 0.05],
         [-0.1, 0.25]),
    ], ids=["su2_one", "oscillator14", "polynomial"])
    def test_point_table_matches_surface_integrand(self, model, origin, edge_u, edge_v):
        # one midpoint cell: the integral is the integrand at the centre
        patch = planar_patch(origin, edge_u, edge_v, grid=(1, 1))
        levels = list(range(model.dim))
        surface = berry_phase_surface(model, patch, level=levels)
        table = berry_curvature_at(model, patch.point(0.5, 0.5))
        e_u, e_v = np.asarray(edge_u), np.asarray(edge_v)
        expected = [
            sum(table.value(n, mu, nu) * (e_u[mu] * e_v[nu] - e_v[mu] * e_u[nu])
                for mu, nu in table.pairs)
            for n in levels
        ]
        assert np.allclose(surface, expected, rtol=0.0, atol=1e-12)

    def test_stokes_consistency_su2(self, su2_half):
        omega = 0.9
        patch = su2_wedge_patch(omega, grid=(120, 120))
        surf = berry_phase_surface(su2_half, patch, level=1)
        hol = holonomy(su2_half, patch.boundary_path(refinement=12)).phases[1]
        assert surf == pytest.approx(hol, abs=2e-4)

    def test_stokes_consistency_oscillator(self, oscillator):
        origin = [2.0, 0.3, 1.4]
        edge_u = [0.0, 0.25, 0.0]
        edge_v = [0.0, 0.0, 0.25]
        patch = planar_patch(origin, edge_u, edge_v, grid=(60, 60))
        loop = planar_rectangle_loop(origin, edge_u, edge_v, refinement=400)
        hol = holonomy(oscillator, loop)
        surf = berry_phase_surface(oscillator, patch, level=[0, 1, 2, 3])
        assert np.allclose(surf, hol.phases[:4], atol=2e-4)


class TestSurfacePatch:
    def test_grid_validation(self):
        with pytest.raises(ValueError, match="grid"):
            SurfacePatch([0.0, 0.0], [1.0, 0.0], [0.0, 1.0], grid=(0, 3))
        for grid in [(2.5, 2), (2, -1), (True, 2), (2,)]:
            with pytest.raises(ValueError, match="grid"):
                SurfacePatch([0.0, 0.0], [1.0, 0.0], [0.0, 1.0], grid=grid)

    @pytest.mark.parametrize("origin, edge_u, edge_v, match", [
        ([1.0, 0.5], [0.0, 0.0], [0.0, 0.8], r"edge_u must be nonzero, got \[0.0, 0.0\]"),
        ([1.0, 0.5], [0.3, 0.0], [-0.0, 0.0], "edge_v must be nonzero"),
        ([1.0, 0.5], [0.3, 0.0], [0.0, 0.8, 0.0], "1-D vectors of one length"),
        (1.0, 0.3, 0.8, "1-D vectors of one length"),
    ])
    def test_vectors_validated(self, origin, edge_u, edge_v, match):
        with pytest.raises(ValueError, match=match):
            planar_patch(origin, edge_u, edge_v, grid=(2, 2))

    def test_cap_boundary_dedupes_pole_edge(self, su2_half):
        patch = su2_cap_patch(1.0, grid=(4, 4))
        path = patch.boundary_path()
        assert path.closed
        deltas = np.diff(path.samples, axis=0)
        assert np.min(np.linalg.norm(deltas, axis=1)) > 0

    def test_points_are_the_broadcast_chart_bit_for_bit(self):
        # one column per coordinate along the stack: the same products and
        # sums, in the same order, as origin + u edge_u + v edge_v broadcast
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            scales = 10.0 ** rng.integers(-3, 4, 3)[:, None]
            origin, edge_u, edge_v = rng.normal(size=(3, n)) * scales
            patch = SurfacePatch(origin, edge_u, edge_v, (3, 4))
            shape = [(), (int(rng.integers(1, 40)),), (5, int(rng.integers(1, 9)))][rng.integers(3)]
            uv = rng.uniform(-0.5, 1.5, size=shape + (2,))
            ref = uv[..., :1] * patch.edge_u
            ref += patch.origin
            ref += uv[..., 1:] * patch.edge_v
            got = patch.points(uv)
            assert got.shape == ref.shape and np.array_equal(got, ref)
            if not shape:
                assert np.array_equal(patch.point(*uv), ref)

    def test_chart_called_once_per_chunk(self, monkeypatch):
        monkeypatch.setattr(transport, "CHUNK_MATRICES", 7)
        calls = []
        points = SurfacePatch.points

        def counted(self, uv):
            calls.append(np.shape(uv))
            return points(self, uv)

        monkeypatch.setattr(SurfacePatch, "points", counted)
        patch = planar_patch([0.0, 0.0], [0.3, 0.0], [0.0, 0.25], grid=(4, 5))
        model = random_polynomial_model(np.random.default_rng(3))
        berry_phase_surface(model, patch, [0, 1])
        # 20 cells in chunks of 7: the centres of all of them in one call
        assert calls == [(20, 2)]
        calls.clear()
        _grid_edges(model, patch, 2)
        # 4 * 6 + 5 * 5 = 49 edges, five points per edge, all in one call
        assert calls == [(49, 5, 2)]
