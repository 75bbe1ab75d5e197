import numpy as np
import pytest

from adiaconn.models import (
    DomainViolationError,
    ModelFileError,
    ModelSpec,
    OscillatorModel,
    Su2Model,
    angular_momentum,
    constant_model,
    parse_model_file,
    serialize_model_spec,
    spherical_axes,
)
from adiaconn.geometry import su2_circle_loop
from adiaconn.transport import holonomy, wilson_loop_phases

from conftest import random_hermitian, random_polynomial_model

SZ = np.diag([1.0, -1.0]).astype(complex)


class TestAngularMomentum:
    @pytest.mark.parametrize("l", [0.5, 1.0, 1.5, 2.0])
    def test_commutators(self, l):
        jx, jy, jz = angular_momentum(l)
        assert np.linalg.norm(jx @ jy - jy @ jx - 1j * jz) < 1e-12
        assert np.linalg.norm(jy @ jz - jz @ jy - 1j * jx) < 1e-12
        assert np.linalg.norm(jz @ jx - jx @ jz - 1j * jy) < 1e-12

    def test_casimir(self):
        jx, jy, jz = angular_momentum(1.5)
        j2 = jx @ jx + jy @ jy + jz @ jz
        assert np.allclose(j2, 1.5 * 2.5 * np.eye(4))

    def test_jz_ascending(self):
        _, _, jz = angular_momentum(1.0)
        assert np.allclose(np.diag(jz), [-1.0, 0.0, 1.0])

    def test_rejects_bad_l(self):
        with pytest.raises(ValueError):
            angular_momentum(0.7)

    @pytest.mark.parametrize("l", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_l(self, l):
        with pytest.raises(ValueError, match="half-integer"):
            angular_momentum(l)


class TestSu2Model:
    def test_north_pole_hamiltonian(self, su2_half):
        # B Jz in the ascending-m basis: diag(-1/2, +1/2)
        h = su2_half.eval_h([1.0, 0.0, 0.3])
        assert np.allclose(h, np.diag([-0.5, 0.5]))

    def test_north_pole_frame_identity(self, su2_half):
        spec = su2_half.spectral_at([1.0, 0.0, 0.0])
        assert np.allclose(spec.eigenvalues, [-0.5, 0.5])
        assert np.allclose(spec.frame.matrix, np.eye(2), atol=1e-14)

    def test_l1_equally_spaced(self, su2_one):
        spec = su2_one.spectral_at([1.7, 0.9, 2.2])
        assert np.allclose(spec.eigenvalues, [-1.7, 0.0, 1.7], atol=1e-12)

    def test_phi_periodicity(self, su2_half, rng):
        lam = np.array([1.2, rng.uniform(0.1, 3.0), rng.uniform(0, 2 * np.pi)])
        shifted = lam + np.array([0.0, 0.0, 2 * np.pi])
        assert np.linalg.norm(su2_half.eval_h(lam) - su2_half.eval_h(shifted)) < 1e-12

    def test_grad_b_direction(self, su2_half):
        lam = [2.0, 1.1, 0.4]
        n_hat, _, _ = spherical_axes(1.1, 0.4)
        expected = su2_half.j_dot(n_hat)
        assert np.allclose(su2_half.grad_h(lam)[0], expected, atol=1e-13)

    def test_grad_theta_closed_form(self, su2_half):
        # at phi = 0 the polar tangent direction is cos(theta) Jx - sin(theta) Jz
        theta = 0.8
        jx, _, jz = angular_momentum(0.5)
        expected = np.cos(theta) * jx - np.sin(theta) * jz
        assert np.allclose(su2_half.grad_h([1.0, theta, 0.0])[1], expected, atol=1e-13)

    def test_analytic_grad_matches_central_difference(self, su2_half, rng):
        for _ in range(5):
            lam = [rng.uniform(0.5, 2), rng.uniform(0.3, 2.8), rng.uniform(0, 6)]
            exact = su2_half.grad_h(lam, scheme="analytic")
            fd = su2_half.grad_h(lam, scheme="central")
            for a, b in zip(exact, fd):
                scale = max(np.linalg.norm(a), 1.0)
                assert np.linalg.norm(a - b) / scale < 1e-6

    def test_fd_order_two(self, su2_half):
        # with a coarse step the truncation term dominates and halving the
        # step divides the error by about four
        lam = np.array([1.0, 1.1, 0.7])
        exact = su2_half.grad_h(lam, scheme="analytic")[1]
        errs = []
        for h in (1e-3, 5e-4):
            fd = su2_half.grad_h(lam, scheme="central", step=h)[1]
            errs.append(np.linalg.norm(fd - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)

    @pytest.mark.parametrize("l", [0.5, 1.0, 1.5])
    def test_batch_matches_per_point_closed_form(self, l, rng):
        model = Su2Model(l, mu=0.7)
        lams = np.column_stack([rng.uniform(0.5, 2.0, 5), rng.uniform(0.0, np.pi, 5),
                                rng.uniform(0.0, 2 * np.pi, 5)])
        directions = rng.normal(size=(5, 2, 3))
        h, g = model.eval_batch(lams, directions)
        for k, (b, theta, phi) in enumerate(lams):
            # a few roundings of entries no larger than B * mu * 2l
            tol = 8 * np.finfo(float).eps * max(b, 1.0) * 2.0 * l
            n_hat, theta_hat, phi_hat = spherical_axes(theta, phi)
            grads = [0.7 * model.j_dot(n_hat), b * 0.7 * model.j_dot(theta_hat),
                     b * 0.7 * np.sin(theta) * model.j_dot(phi_hat)]
            assert np.max(np.abs(h[k] - b * 0.7 * model.j_dot(n_hat))) <= tol
            for m, row in enumerate(directions[k]):
                expected = sum(d * g_mu for d, g_mu in zip(row, grads))
                assert np.max(np.abs(g[k, m] - expected)) <= tol * np.sum(np.abs(row))

    def test_domain_rejects_nonpositive_field(self, su2_half):
        with pytest.raises(DomainViolationError):
            su2_half.eval_h([0.0, 1.0, 0.0])


class FlippedCap(Su2Model):
    """-H, restricted to the polar cap theta <= 1, through the batch hooks only."""

    def _domain_batch(self, lams):
        return super()._domain_batch(lams) & (lams[:, 1] <= 1.0)

    def _evaluate_batch(self, lams, directions):
        h, g = super()._evaluate_batch(lams, directions)
        return -h, -g


class TestBatchHookOverrides:
    def test_every_entry_point_sees_the_override(self, su2_half):
        model = FlippedCap(0.5)
        lam, outside = [1.3, 0.7, 0.4], [1.3, 1.5, 0.4]
        assert np.array_equal(model.eval_h(lam), -su2_half.eval_h(lam))
        for got, base in zip(model.grad_h(lam), su2_half.grad_h(lam)):
            assert np.array_equal(got, -base)
        assert model.domain_check(lam) and not model.domain_check(outside)
        for entry_point in (model.eval_h, model.grad_h, model.spectral_at):
            with pytest.raises(DomainViolationError):
                entry_point(outside)
        # -H has the same spectrum with the levels' eigenvectors swapped
        flipped, base = model.spectral_at(lam), su2_half.spectral_at(lam)
        assert np.allclose(flipped.eigenvalues, base.eigenvalues, atol=1e-14)
        overlap = np.vdot(flipped.frame.matrix[:, 0], base.frame.matrix[:, 1])
        assert abs(overlap) == pytest.approx(1.0, abs=1e-14)

    def test_holonomy_matches_wilson_loop(self, su2_half):
        model = FlippedCap(0.5)
        loop = su2_circle_loop(0.8, refinement=400)
        result = holonomy(model, loop)
        assert result.reliable
        assert np.max(np.abs(result.phases - wilson_loop_phases(model, loop))) < 1e-4
        # flipping H relabels the levels and leaves the connection alone
        assert np.allclose(result.phases, holonomy(su2_half, loop).phases[::-1], atol=1e-12)


class TestOscillatorModel:
    def test_reference_point_spectrum(self, oscillator):
        spec = oscillator.spectral_at([1.0, 0.0, 1.0])
        n = np.arange(oscillator.trust_levels)
        assert np.allclose(spec.eigenvalues[: len(n)], n + 0.5, atol=1e-12)

    def test_unbound_point_rejected(self, oscillator):
        with pytest.raises(DomainViolationError):
            oscillator.eval_h([1.0, 2.0, 1.0])

    def test_canonical_commutator_below_edge(self, oscillator):
        comm = oscillator.q @ oscillator.p - oscillator.p @ oscillator.q
        block = comm[:-1, :-1]
        assert np.linalg.norm(block - 1j * np.eye(oscillator.nmax - 1), np.inf) < 1e-10

    def test_squeezed_point_frequency(self, oscillator):
        lam = [2.0, 0.5, 1.5]
        omega = np.sqrt(2.75)
        k = oscillator.certified_levels(lam, tol=1e-8)
        assert k >= 20
        spec = oscillator.spectral_at(lam)
        n = np.arange(k)
        assert np.max(np.abs(spec.eigenvalues[:k] - omega * (n + 0.5))) < 1e-8

    def test_truncation_confinement(self, oscillator):
        # mild squeezing keeps the whole trusted window accurate
        assert oscillator.certified_levels([1.1, 0.05, 0.95]) == oscillator.trust_levels

    def test_vector_certification_is_stricter(self, oscillator):
        lam = [2.0, 0.5, 1.5]
        assert oscillator.certified_vector_levels(lam) <= oscillator.certified_levels(lam)
        assert oscillator.certified_vector_levels(lam) >= 12

    def test_grad_is_constant_and_hermitian(self, oscillator):
        g1 = oscillator.grad_h([1.0, 0.0, 1.0])
        g2 = oscillator.grad_h([2.0, 0.5, 1.5])
        for a, b in zip(g1, g2):
            assert np.allclose(a, b)
            assert np.allclose(a, a.conj().T)

    def test_fd_step_shrinks_near_boundary(self):
        osc = OscillatorModel(12, 4)
        # ZX - Y^2 = 4e-6 at this point; the default step crosses the edge
        lam = np.array([1.0, 0.0, 4e-6])
        grads = osc.grad_h(lam, scheme="central")
        assert all(np.all(np.isfinite(g.view(float))) for g in grads)

    def test_fd_step_errors_when_shrink_insufficient(self):
        osc = OscillatorModel(12, 4)
        # even the shrunk step crosses the domain edge here
        with pytest.raises(DomainViolationError, match="shrinking"):
            osc.grad_h(np.array([1.0, 0.0, 1e-8]), scheme="central")


class TestPolynomialModels:
    def test_gradients_match_finite_differences(self, rng):
        model = random_polynomial_model(rng)
        lam = [0.3, -0.2]
        exact = model.grad_h(lam, scheme="analytic")
        fd = model.grad_h(lam, scheme="central")
        for a, b in zip(exact, fd):
            assert np.linalg.norm(a - b) < 1e-6

    def test_high_exponents_match_closed_form(self, rng):
        exponents = [(0, 0, 0), (7, 0, 0), (2, 3, 1), (0, 7, 2), (1, 1, 1), (3, 0, 5), (0, 0, 7)]
        m = [random_hermitian(rng, 3) for _ in exponents]
        model = ModelSpec(3, ("a", "b", "c"), tuple(zip(exponents, m))).to_model()
        lams = rng.uniform(-1.2, 1.2, size=(20, 3))
        h, _ = model.eval_batch(lams)
        for (a, b, c), h_k in zip(lams, h):
            expected = (m[0] + a**7 * m[1] + a**2 * b**3 * c * m[2] + b**7 * c**2 * m[3]
                        + a * b * c * m[4] + a**3 * c**5 * m[5] + c**7 * m[6])
            assert np.max(np.abs(h_k - expected)) <= 1e-13 * np.max(np.abs(expected))
        for lam in lams[:5]:
            exact = model.grad_h(lam, scheme="analytic")
            fd = model.grad_h(lam, scheme="central")
            for a, b in zip(exact, fd):
                assert np.linalg.norm(a - b) < 1e-6 * max(np.linalg.norm(a), 1.0)

    def test_constant_model(self):
        model = constant_model(SZ, n_params=2)
        assert np.allclose(model.eval_h([0.4, -1.0]), SZ)
        assert all(np.allclose(g, 0) for g in model.grad_h([0.4, -1.0]))


GOOD_FILE = """
# comment line
dim = 2
params = a b

term 0 0
1 0
0 -1

term 1 0
0 0.5-0.25i
0.5+0.25i 0

term 0 2
0.25 2i
-2i -0.25
"""


class TestModelFiles:
    def test_parse_and_evaluate(self):
        spec = parse_model_file(GOOD_FILE)
        assert spec.dim == 2
        assert spec.param_names == ("a", "b")
        assert len(spec.terms) == 3
        model = spec.to_model()
        h = model.eval_h([2.0, 1.0])
        expected = (
            np.diag([1.0, -1.0])
            + 2.0 * np.array([[0, 0.5 - 0.25j], [0.5 + 0.25j, 0]])
            + np.array([[0.25, 2j], [-2j, -0.25]])
        )
        assert np.allclose(h, expected)

    def test_round_trip(self):
        spec = parse_model_file(GOOD_FILE)
        again = parse_model_file(serialize_model_spec(spec))
        assert again.dim == spec.dim
        assert again.param_names == spec.param_names
        for (ea, ma), (eb, mb) in zip(again.terms, spec.terms):
            assert ea == eb
            assert np.array_equal(ma, mb)

    def test_row_width_mismatch_reports_line(self):
        bad = "dim = 2\nparams = a\nterm 0\n1 0 0\n0 1\n"
        with pytest.raises(ModelFileError, match="line 4"):
            parse_model_file(bad)

    def test_extra_rows_rejected(self):
        bad = "dim = 2\nparams = a\nterm 0\n1 0\n0 1\n0 0\n"
        with pytest.raises(ModelFileError, match="unrecognized"):
            parse_model_file(bad)

    def test_non_hermitian_term_rejected(self):
        bad = "dim = 2\nparams = a\nterm 1\n0 1\n0 0\n"
        with pytest.raises(ModelFileError, match="Hermitian"):
            parse_model_file(bad)

    def test_exponent_cap(self):
        bad = "dim = 1\nparams = a\nterm 99\n1\n"
        with pytest.raises(ModelFileError, match="cap"):
            parse_model_file(bad)

    def test_negative_exponent_rejected(self):
        bad = "dim = 1\nparams = a\nterm -1\n1\n"
        with pytest.raises(ModelFileError, match="non-negative"):
            parse_model_file(bad)

    def test_missing_headers(self):
        with pytest.raises(ModelFileError, match="dim"):
            parse_model_file("params = a\nterm 0\n1\n")

    @pytest.mark.parametrize(
        "token,value",
        [
            ("3", 3.0),
            ("-2.5", -2.5),
            ("i", 1j),
            ("-i", -1j),
            ("+i", 1j),
            ("2i", 2j),
            ("1+2i", 1 + 2j),
            ("1-2i", 1 - 2j),
            ("1.5e-3+2e1i", 1.5e-3 + 20j),
            ("1+i", 1 + 1j),
            (".5-.25i", 0.5 - 0.25j),
        ],
    )
    def test_complex_tokens(self, token, value):
        from adiaconn.models import _parse_complex

        assert _parse_complex(token, line=1) == value

    @pytest.mark.parametrize("token", ["foo", "1+", "--2", "1i2", "2+3"])
    def test_garbage_tokens(self, token):
        from adiaconn.models import _parse_complex

        with pytest.raises(ModelFileError, match="complex entry"):
            _parse_complex(token, line=7)

    def test_garbage_entry_in_file(self):
        with pytest.raises(ModelFileError, match="line 4"):
            parse_model_file("dim = 1\nparams = a\nterm 0\nfoo\n")
