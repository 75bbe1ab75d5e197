import re
import warnings

import numpy as np
import pytest

from adiaconn import operator_core
from adiaconn.models import (
    DomainViolationError,
    ModelFileError,
    ModelSpec,
    OscillatorModel,
    ParametricHamiltonian,
    Su2Model,
    angular_momentum,
    constant_model,
    parse_model_file,
    serialize_model_spec,
)
from adiaconn.geometry import su2_circle_loop
from adiaconn.reference import su2_spherical_triple
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

    @pytest.mark.parametrize("l", [0.5, 1.0, 1.5])
    def test_pole_frame_is_exactly_the_identity(self, l):
        # the spin-1/2 closed form turns diag(-B/2, B/2) by exactly pi/2
        assert np.array_equal(Su2Model(l).spectral_at([1.0, 0.0, 0.0]).frame.matrix,
                              np.eye(int(2 * l + 1)))

    def test_l1_equally_spaced(self, su2_one):
        spec = su2_one.spectral_at([1.7, 0.9, 2.2])
        assert np.allclose(spec.eigenvalues, [-1.7, 0.0, 1.7], atol=1e-12)

    def test_spin1_tied_level_gets_one_frame_from_both_routes(self, su2_one):
        # level m = 0 of spin 1 has two entries of exactly equal magnitude,
        # sin(theta)/sqrt(2), at every point: the one-point route and the
        # stack route reach them with different roundoff, and the phase
        # rule must still anchor both on the same entry
        lams = np.column_stack([np.ones(2001), np.linspace(0.3, 1.3, 2001), np.full(2001, 0.7)])
        blocks, hs, _ = su2_one._kernel_batch(lams)
        stack = operator_core.decompose_blocks(blocks, hs).frames()
        worst = max(np.max(np.abs(su2_one.spectral_at(lam).frame.matrix
                                  - operator_core.fix_phase(f).matrix))
                    for lam, f in zip(lams, stack))
        assert worst <= 1e-14

    def test_phi_periodicity(self, su2_half, rng):
        lam = np.array([1.2, rng.uniform(0.1, 3.0), rng.uniform(0, 2 * np.pi)])
        shifted = lam + np.array([0.0, 0.0, 2 * np.pi])
        assert np.linalg.norm(su2_half.eval_h(lam) - su2_half.eval_h(shifted)) < 1e-12

    def test_grad_b_direction(self, su2_half):
        lam = [2.0, 1.1, 0.4]
        expected = su2_spherical_triple(0.5, 1.1, 0.4)[0]
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
            exact = su2_half.grad_h(lam)
            fd = su2_half._central_difference(np.array(lam), None)
            for a, b in zip(exact, fd):
                scale = max(np.linalg.norm(a), 1.0)
                assert np.linalg.norm(a - b) / scale < 1e-6

    def test_fd_order_two(self, su2_half):
        # with a coarse step the truncation term dominates and halving the
        # step divides the error by about four
        lam = np.array([1.0, 1.1, 0.7])
        exact = su2_half.grad_h(lam)[1]
        errs = []
        for h in (1e-3, 5e-4):
            fd = su2_half._central_difference(lam, h)[1]
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
            j_n, j_theta, j_phi = su2_spherical_triple(l, theta, phi)
            grads = [0.7 * j_n, b * 0.7 * j_theta, b * 0.7 * np.sin(theta) * j_phi]
            assert np.max(np.abs(h[k] - b * 0.7 * j_n)) <= tol
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


class TestSpectralAt:
    """spectral_at is the one-point case of the kernels' block
    decomposition: it agrees with its row of any chunk."""

    @staticmethod
    def assert_rows(model, lams, tol):
        blocks, hs, _ = model._kernel_batch(lams)
        system = operator_core.decompose_blocks(blocks, hs)
        for lam, evals, frame in zip(lams, system.evals, system.frames()):
            spec = model.spectral_at(lam)
            assert np.max(np.abs(spec.eigenvalues - evals)) <= tol
            assert np.max(np.abs(spec.frame.matrix - operator_core.fix_phase(frame).matrix)) <= tol

    @pytest.mark.parametrize("l", [0.5, 1.0, 1.5])
    def test_spin_point_is_its_row_of_a_chunk(self, l, rng):
        lams = np.column_stack([rng.uniform(0.5, 2.0, 37), rng.uniform(0.0, np.pi, 37),
                                rng.uniform(0.0, 2 * np.pi, 37)])
        lams[:3, 1:] = [[0.0, 0.4], [np.pi, 1.1], [0.8, 0.0]]  # both poles, and phi = 0
        self.assert_rows(Su2Model(l), lams, 0.0)

    def test_oscillator_point_is_its_row_of_a_chunk(self, oscillator, rng):
        # LAPACK may take another path for a stack of 37 than for one matrix
        lams = [2.0, 0.3, 1.4] + rng.uniform(-0.2, 0.2, (37, 3))
        self.assert_rows(oscillator, lams, 1e-13)


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
        k = oscillator.certified_levels(lam)
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
        grads = osc._central_difference(lam, None)
        assert all(np.all(np.isfinite(g.view(float))) for g in grads)

    def test_fd_step_errors_when_shrink_insufficient(self):
        osc = OscillatorModel(12, 4)
        # even the shrunk step crosses the domain edge here
        with pytest.raises(DomainViolationError, match="shrinking"):
            osc._central_difference(np.array([1.0, 0.0, 1e-8]), None)

    @pytest.mark.parametrize(
        "nmax,buffer,message",
        [
            # the buffer check passes; the ladder operators need two levels
            (1, 0, "need at least two Fock levels"),
            (5, 5, "buffer must satisfy 0 <= buffer < nmax"),
            (5, -1, "buffer must satisfy 0 <= buffer < nmax"),
        ],
        ids=["one-level", "buffer-equals-nmax", "negative-buffer"],
    )
    def test_truncation_refused(self, nmax, buffer, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            OscillatorModel(nmax, buffer=buffer)

    def test_frequency_refuses_unbound_point(self, oscillator):
        with pytest.raises(DomainViolationError, match="unbound oscillator"):
            oscillator.omega([1.0, 2.0, 1.0])


class TestPolynomialModels:
    def test_gradients_match_finite_differences(self, rng):
        model = random_polynomial_model(rng)
        lam = [0.3, -0.2]
        exact = model.grad_h(lam)
        fd = model._central_difference(np.array(lam), None)
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
            exact = model.grad_h(lam)
            fd = model._central_difference(lam, None)
            for a, b in zip(exact, fd):
                assert np.linalg.norm(a - b) < 1e-6 * max(np.linalg.norm(a), 1.0)

    @pytest.mark.parametrize("exponents, matrix, message", [
        ((0,), [[0, 1], [0, 0]], "term matrix is not Hermitian"),
        ((0,), 9e290 * np.array([[0, 1], [0, 0]]), "term matrix is not Hermitian"),
        ((-1,), np.eye(2), "exponents must be non-negative"),
        ((17,), np.eye(2), "exponent exceeds the cap 16"),
        ((0.5,), np.eye(2), "exponents must be integers"),
        ((1, 2), np.eye(2), "term needs 1 exponents, got 2"),
        ((0,), [[np.nan, 0], [0, 1]], "term matrix has non-finite entries"),
        ((0,), np.eye(3), "term matrix must be 2 x 2, got shape (3, 3)"),
    ], ids=["non-hermitian", "non-hermitian-near-overflow", "negative-exponent",
            "exponent-cap", "fractional-exponent", "exponent-count", "nan", "shape"])
    def test_spec_refuses_a_bad_term(self, exponents, matrix, message):
        # a spec built in code meets the checks of a model file, naming the term
        with pytest.raises(ValueError, match=f"^{re.escape('term 1: ' + message)}$"):
            ModelSpec(2, ("a",), (((0,), SZ), (exponents, np.asarray(matrix))))

    def test_constant_model_refuses_a_non_hermitian_matrix(self):
        with pytest.raises(ValueError, match="term 0: term matrix is not Hermitian"):
            constant_model(np.array([[0, 1], [0, 0]]))

    def test_spec_keeps_terms_near_the_float_limit(self):
        # the kernels' own magnitude guards are reached through such specs
        sx, sy = np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]])
        ModelSpec(2, ("l1",), (((0,), SZ), ((16,), 9e290 * sx)))
        ModelSpec(2, ("x", "y"), (((0, 0), SZ), ((16, 0), 9e290 * sx), ((0, 1), sy)))

    def test_spec_takes_a_transposed_term(self):
        # a Hermitian term handed over as a strided view is judged like its copy
        sy = np.array([[0, -1j], [1j, 0]])
        model = ModelSpec(2, ("a",), (((0,), SZ), ((1,), sy.T.conj()))).to_model()
        assert np.array_equal(model.eval_h([2.0]), SZ + 2.0 * sy)

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


class TestPointGuards:
    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda m: m.eval_h([1.0, 1.0]), "expected 3 parameters ('B', 'theta', 'phi'), got shape (2,)"),
            (lambda m: m.eval_h([1.0, np.nan, 0.0]), "parameter point has non-finite entries"),
            (lambda m: m.eval_batch([1.0, 1.0, 0.0]),
             "expected (K, 3) parameter points ('B', 'theta', 'phi'), got shape (3,)"),
            (lambda m: m.eval_batch([[1.0, np.inf, 0.0]]), "parameter point has non-finite entries"),
        ],
        ids=["point-shape", "point-non-finite", "batch-shape", "batch-non-finite"],
    )
    def test_refused_points(self, su2_half, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(su2_half)

    def test_param_names_must_match(self):
        with pytest.raises(ValueError, match="^param_names length must match n_params$"):
            ParametricHamiltonian(dim=2, n_params=2, param_names=("a",))

    def test_family_needs_an_evaluation(self):
        # neither a function nor declared terms: nothing can evaluate H
        with pytest.raises(NotImplementedError):
            ParametricHamiltonian(dim=2, n_params=1).eval_h([0.0])


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

    @pytest.mark.parametrize("token", ["foo", "1+", "--2", "1i2", "2+3",
                                       # Python's own float and complex syntax is not the file's
                                       "nan", "inf", "1_0", "(1+2i)", "1j", "0x1", "+", "1-2"])
    def test_garbage_tokens(self, token):
        from adiaconn.models import _parse_complex

        with pytest.raises(ModelFileError,
                           match=rf"^line 7: cannot parse complex entry '{re.escape(token)}'$"):
            _parse_complex(token, line=7)

    @pytest.mark.parametrize("token", ["1e999", "-1e999i", "1e999+1i", "1e999i"])
    def test_non_finite_entry_rejected(self, token):
        # float() reads an overflowing literal as inf; the entry is named,
        # before any Hermiticity arithmetic on it can warn
        text = f"dim = 2\nparams = a\nterm 0\n1 0\n0 {token}\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelFileError,
                               match=rf"^line 5: non-finite complex entry '{re.escape(token)}'$"):
                parse_model_file(text)

    def test_garbage_entry_in_file(self):
        with pytest.raises(ModelFileError, match="line 4"):
            parse_model_file("dim = 1\nparams = a\nterm 0\nfoo\n")

    @pytest.mark.parametrize(
        "token,value",
        [
            ("-0", complex(-0.0, 0.0)),
            ("-0i", complex(0.0, -0.0)),
            ("-0-0i", complex(-0.0, -0.0)),
            ("+i", complex(0.0, 1.0)),
            ("1-i", complex(1.0, -1.0)),
            ("5.i", complex(0.0, 5.0)),
            ("-.5e-3+.25e2i", complex(-0.0005, 25.0)),
        ],
    )
    def test_complex_token_bits(self, token, value):
        # bit for bit: a signed zero is a different entry from its twin
        from adiaconn.models import _parse_complex

        got = _parse_complex(token, line=1)
        assert np.array_equal(np.array([got]).view(np.uint64), np.array([value]).view(np.uint64))

    @pytest.mark.parametrize(
        "text,message",
        [
            # each row is checked and parsed before the next is read
            ("dim = 2\nparams = a\nterm 0\n1 foo\n0\n",
             "line 4: cannot parse complex entry 'foo'"),
            # blank and comment lines count: the file's last line is named
            ("dim = 2\nparams = a\nterm 0\n1 0\n\n# end\n",
             "line 6: term matrix truncated: need 2 rows"),
            ("dim = 2\nparams = a\nterm 0\n1 0\n# next\nterm 0\n1 0\n0 1\n",
             "line 6: term matrix truncated: need 2 rows"),
            ("dim = 2\nparams = a\nterm 0\n1 0\ndim = 2\n",
             "line 5: term matrix truncated: need 2 rows"),
        ],
        ids=["bad-entry-before-short-row", "truncated-at-end", "term-inside-matrix",
             "dim-inside-matrix"],
    )
    def test_error_order(self, text, message):
        with pytest.raises(ModelFileError, match=f"^{re.escape(message)}$"):
            parse_model_file(text)

    @pytest.mark.parametrize(
        "text,lineno",
        [
            ("dimension = 1\nparams = a\nterm 0\n1\n", 1),
            ("dim = 1\nparamsX = x\nterm 0\n1\n", 2),
            ("dim = 1\nparams = a\nterms 0\n1\n", 3),
        ],
        ids=["dimension", "paramsX", "terms"],
    )
    def test_header_keywords_match_exactly(self, text, lineno):
        message = f"line {lineno}: unrecognized line {text.splitlines()[lineno - 1]!r}"
        with pytest.raises(ModelFileError, match=f"^{re.escape(message)}$"):
            parse_model_file(text)

    def test_headers_without_spaces(self):
        spec = parse_model_file("dim=1\nparams=a\nterm 0\n1\n")
        assert (spec.dim, spec.param_names, spec.terms[0][0]) == (1, ("a",), (0,))

    @pytest.mark.parametrize(
        "text,message",
        [
            # int() reads these; the file's integers are ASCII [+-]?[0-9]+ only
            ("# c\ndim = 1_0\nparams = a\nterm 0\n1\n", "line 2: bad dim value '1_0'"),
            ("dim = \u0663\nparams = a\nterm 0\n1\n", "line 1: bad dim value '\u0663'"),
            ("dim = \uff12\nparams = a\nterm 0\n1\n", "line 1: bad dim value '\uff12'"),
            ("dim = 1\nparams = a b\n\nterm 0 0_1\n1\n", "line 4: exponents must be integers"),
            ("dim = 1\nparams = a\nterm \u0661\n1\n", "line 3: exponents must be integers"),
            ("dim = 1.0\nparams = a\nterm 0\n1\n", "line 1: bad dim value '1.0'"),
            # the range checks keep their messages
            ("dim = 0\nparams = a\nterm 0\n1\n", "line 1: dim must be positive"),
            ("dim = -2\nparams = a\nterm 0\n1\n", "line 1: dim must be positive"),
            ("dim = 1\nparams = a b\nterm 0 -1\n1\n", "line 3: exponents must be non-negative"),
        ],
        ids=["dim-underscore", "dim-arabic-indic", "dim-fullwidth", "exponent-underscore",
             "exponent-arabic-indic", "dim-float", "dim-zero", "dim-negative",
             "exponent-negative"],
    )
    def test_integers_are_ascii_digits(self, text, message):
        with pytest.raises(ModelFileError, match=f"^{re.escape(message)}$"):
            parse_model_file(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("dim = 1\ndim = 1\nparams = a\nterm 0\n1\n", "line 2: duplicate dim header"),
            ("dim = 1\nparams = a\nparams = b\nterm 0\n1\n", "line 3: duplicate params header"),
            ("dim 1\nparams = a\nterm 0\n1\n", "line 1: expected 'dim = <int>'"),
            ("dim = 1\nparams =\nterm 0\n1\n",
             "line 2: expected 'params = <name1> <name2> ...'"),
            ("dim = 1\nparams = a b\nterm 0\n1\n", "line 3: term needs 2 exponents, got 1"),
            ("params = a\n", "line 1: missing 'dim = <int>' header"),
            ("dim = 1\n", "line 1: missing 'params = ...' header"),
            # the last line of the file is named, comment or not
            ("dim = 1\nparams = a\n\n# no terms\n", "line 4: model defines no terms"),
        ],
        ids=["duplicate-dim", "duplicate-params", "dim-without-equals", "empty-params",
             "exponent-count", "missing-dim", "missing-params", "no-terms"],
    )
    def test_header_refusals(self, text, message):
        with pytest.raises(ModelFileError, match=f"^{re.escape(message)}$"):
            parse_model_file(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            # complex() reads these digits; an entry is ASCII like dim and the exponents
            ("dim = 2\nparams = a\nterm 0\n1 0\n0 \u0663\n",
             "line 5: cannot parse complex entry '\u0663'"),
            ("dim = 2\nparams = a\nterm 0\n\uff13 0\n0 1\n",
             "line 4: cannot parse complex entry '\uff13'"),
            ("dim = 2\nparams = a\nterm 0\n1 0\n0 1+\u0662i\n",
             "line 5: cannot parse complex entry '1+\u0662i'"),
        ],
        ids=["entry-arabic-indic", "entry-fullwidth", "imaginary-arabic-indic"],
    )
    def test_entries_are_ascii_digits(self, text, message):
        with pytest.raises(ModelFileError, match=f"^{re.escape(message)}$"):
            parse_model_file(text)

    def test_signed_integers_parse(self):
        spec = parse_model_file("dim = +1\nparams = a b\nterm +1 -0\n1\n")
        assert (spec.dim, spec.terms[0][0]) == (1, (1, 0))
