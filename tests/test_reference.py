import numpy as np
import pytest

from adiaconn.connection import connection_spectral
from adiaconn.curvature import yang_mills_curvature
from adiaconn.models import OscillatorModel, Su2Model
from adiaconn.reference import (
    oscillator_analytic_connection,
    oscillator_analytic_curvature,
    oscillator_berry_levels,
    oscillator_symplectic_qp,
    sp2r_generators,
    su2_analytic_connection,
    su2_berry_curvature,
    su2_spherical_triple,
    su2_triangle_phases,
)


class TestSphericalAlgebra:
    @pytest.mark.parametrize("l", [0.5, 1.0, 1.5])
    def test_rotated_triple_closes_su2(self, rng, l):
        theta, phi = rng.uniform(0.1, 3.0), rng.uniform(0.0, 2 * np.pi)
        j_n, j_t, j_p = su2_spherical_triple(l, theta, phi)
        assert np.linalg.norm(j_n @ j_t - j_t @ j_n - 1j * j_p) < 1e-12
        assert np.linalg.norm(j_p @ j_n - j_n @ j_p - 1j * j_t) < 1e-12
        assert np.linalg.norm(j_t @ j_p - j_p @ j_t - 1j * j_n) < 1e-12


class TestSu2Reference:
    def test_field_component_always_zero(self, rng):
        for l in (0.5, 1.0, 1.5):
            lam = [rng.uniform(0.5, 2), rng.uniform(0.1, 3.0), rng.uniform(0, 6)]
            a = su2_analytic_connection(l, *lam[1:])
            assert np.linalg.norm(a.components[0]) == 0.0

    @pytest.mark.parametrize("l", [0.5, 1.0, 1.5])
    def test_matches_spectral_connection(self, rng, l):
        model = Su2Model(l)
        for _ in range(17):
            lam = [rng.uniform(0.5, 2.0), rng.uniform(0.2, np.pi - 0.2),
                   rng.uniform(0.0, 2 * np.pi)]
            spec = model.spectral_at(lam)
            numeric = connection_spectral(spec, model.grad_h(lam))
            analytic = su2_analytic_connection(l, *lam[1:])
            for got, want in zip(numeric.components, analytic.components):
                assert np.linalg.norm(got - want) < 1e-10

    def test_berry_values(self):
        assert np.allclose(su2_berry_curvature(0.5, 0.9),
                           [0.5 * np.sin(0.9), -0.5 * np.sin(0.9)])
        assert np.allclose(su2_berry_curvature(1.0, 1.2)[1], 0.0)

    def test_triangle_phases_half(self):
        phases = su2_triangle_phases(0.5, np.pi / 2)
        assert phases[0] == pytest.approx(+np.pi / 4)   # m = -1/2
        assert phases[1] == pytest.approx(-np.pi / 4)   # m = +1/2

    def test_triangle_phases_small_angle_limit(self):
        assert np.allclose(su2_triangle_phases(1.5, 1e-12), 0.0, atol=1e-11)

    def test_triangle_phases_l1(self):
        phases = su2_triangle_phases(1.0, np.pi / 2)
        assert np.allclose(phases, [np.pi / 2, 0.0, -np.pi / 2])

    def test_triangle_phases_wrap(self):
        # m = -3/2 at omega = 3 pi / 2 wraps around the branch cut
        phases = su2_triangle_phases(1.5, 1.5 * np.pi)
        assert np.all(phases > -np.pi) and np.all(phases <= np.pi)
        assert phases[0] == pytest.approx(np.angle(np.exp(1.5j * 1.5 * np.pi)))

    def test_rejects_bad_solid_angle(self):
        with pytest.raises(ValueError):
            su2_triangle_phases(0.5, 7.0)


class TestOscillatorReference:
    def test_symplectic_pair_is_canonical(self):
        q, p, omega = oscillator_symplectic_qp(2.0, 0.5, 1.5, 40)
        comm = q @ p - p @ q
        block = comm[:-2, :-2]
        assert np.linalg.norm(block - 1j * np.eye(38), np.inf) < 1e-10
        assert omega == pytest.approx(np.sqrt(2.75))

    def test_normal_form_diagonalizes_h(self, oscillator):
        x, y, z = 2.0, 0.5, 1.5
        q, p, omega = oscillator_symplectic_qp(x, y, z, oscillator.nmax)
        h_normal = 0.5 * omega * (q @ q + p @ p)
        h = oscillator.eval_h([x, y, z])
        k = oscillator.trust_levels
        assert np.max(np.abs(h_normal[:k, :k] - h[:k, :k])) < 1e-10

    def test_reference_point_components(self, oscillator):
        # at (1, 0, 1): A_X = (qp+pq)/8, A_Y = (p^2-q^2)/4, A_Z = -A_X
        a = oscillator_analytic_connection(1.0, 0.0, 1.0, oscillator.nmax)
        q, p = oscillator.q, oscillator.p
        k = oscillator.trust_levels
        qp_pq = (q @ p + p @ q)[:k, :k]
        assert np.allclose(a.components[0][:k, :k], qp_pq / 8.0, atol=1e-12)
        assert np.allclose(a.components[1][:k, :k],
                           ((p @ p - q @ q) / 4.0)[:k, :k], atol=1e-12)
        assert np.allclose(a.components[2][:k, :k], -qp_pq / 8.0, atol=1e-12)

    @pytest.mark.parametrize("point", [(1.0, 0.0, 1.0), (2.0, 0.5, 1.5)])
    def test_connection_matches_spectral(self, oscillator, point):
        k = oscillator.certified_vector_levels(point)
        spec = oscillator.spectral_at(point)
        numeric = connection_spectral(spec, oscillator.grad_h(point))
        analytic = oscillator_analytic_connection(*point, oscillator.nmax)
        for got, want in zip(numeric.components, analytic.components):
            assert np.max(np.abs(got[:k, :k] - want[:k, :k])) < 1e-6

    def test_curvature_reference_point(self, oscillator):
        f = oscillator_analytic_curvature(1.0, 0.0, 1.0, oscillator.nmax)
        # (Y, Z) component diagonal at level 0: -(0 + 1/2) / (4 omega^3) * X
        w0 = f.component(1, 2)[0, 0]
        assert w0 == pytest.approx(-0.125)
        # (Z, X) component is proportional to Y = 0
        assert np.linalg.norm(f.component(2, 0)) == 0.0

    def test_curvature_matches_numeric(self, oscillator):
        point = (2.0, 0.5, 1.5)
        k = oscillator.certified_vector_levels(point)
        numeric = yang_mills_curvature(oscillator, point)
        analytic = oscillator_analytic_curvature(*point, oscillator.nmax)
        for pair in numeric.pairs:
            diff = numeric.component(*pair)[:k, :k] - analytic.component(*pair)[:k, :k]
            assert np.max(np.abs(diff)) < 1e-4

    def test_berry_levels_table(self):
        table = oscillator_berry_levels(2.0, 0.5, 1.5, levels=10)
        omega = np.sqrt(2.75)
        assert table.value(3, 1, 2) == pytest.approx(-3.5 * 2.0 / (4 * omega**3))
        assert table.value(3, 0, 2) == pytest.approx(+3.5 * 0.5 / (4 * omega**3))
        assert table.value(3, 0, 1) == pytest.approx(-3.5 * 1.5 / (4 * omega**3))

    def test_domain_guard(self):
        with pytest.raises(ValueError, match="unbound"):
            oscillator_analytic_connection(1.0, 2.0, 1.0, 20)

    def test_symplectic_algebra_closure(self, oscillator):
        q, p, _ = oscillator_symplectic_qp(2.0, 0.5, 1.5, oscillator.nmax)
        k1, k2, k0 = sp2r_generators(q, p)
        k = oscillator.trust_levels
        c12 = (k1 @ k2 - k2 @ k1 + 1j * k0)[:k, :k]
        c01 = (k0 @ k1 - k1 @ k0 - 1j * k2)[:k, :k]
        c20 = (k2 @ k0 - k0 @ k2 - 1j * k1)[:k, :k]
        for resid in (c12, c01, c20):
            assert np.max(np.abs(resid)) < 1e-8

    def test_connection_lives_in_k1_k2_plane(self, oscillator):
        # every component is a combination of K1 and K2 alone
        x, y, z = 1.7, -0.4, 1.3
        a = oscillator_analytic_connection(x, y, z, oscillator.nmax)
        q, p, omega = oscillator_symplectic_qp(x, y, z, oscillator.nmax)
        k1, k2, _ = sp2r_generators(q, p)
        k = oscillator.trust_levels
        coeffs = {
            0: (-np.sqrt(z / x) / (2 * omega), -np.sqrt(z / x) * y / (2 * omega**2)),
            1: (0.0, np.sqrt(x * z) / omega**2),
            2: (np.sqrt(x / z) / (2 * omega), -np.sqrt(x / z) * y / (2 * omega**2)),
        }
        for idx, (c1, c2) in coeffs.items():
            rebuilt = c1 * k1 + c2 * k2
            assert np.max(np.abs(a.components[idx][:k, :k] - rebuilt[:k, :k])) < 1e-10