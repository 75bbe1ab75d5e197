import numpy as np
import pytest

from adiaconn.connection import (
    TimeAverageConfig,
    _maurer_cartan_kernel,
    connection_spectral,
    connection_time_average,
    connection_weight,
    contract_stack,
    gauge_transform,
    maurer_cartan_sample,
    shift_operator,
)
from adiaconn.curvature import yang_mills_curvature
from adiaconn.models import OscillatorModel, constant_model
from adiaconn.operator_core import SpectralDecomposition, UnitaryOperator, expm_hermitian
from adiaconn.reference import su2_analytic_connection

from conftest import (
    expm_hermitian_derivative,
    random_hermitian,
    random_polynomial_model,
    spectral_connection,
)

SZ = np.diag([1.0, -1.0]).astype(complex)


def _su2_point(rng):
    return np.array([rng.uniform(0.5, 2.0), rng.uniform(0.2, np.pi - 0.2),
                     rng.uniform(0.0, 2 * np.pi)])


def test_connection_weight_is_the_masked_reciprocal_bit_for_bit(rng):
    # the form it replaced: a boolean gather of the nonzero differences
    # and a scatter of their reciprocals
    evals = np.sort(rng.normal(size=(64, 3)), axis=-1)
    evals[::4, 1] = evals[::4, 0]  # exact zeros off the diagonal too
    delta = evals[..., :, None] - evals[..., None, :]
    inv = np.zeros(delta.shape)
    mask = delta != 0.0
    inv[mask] = 1.0 / delta[mask]
    got = connection_weight(delta)
    assert np.count_nonzero(~mask) > 64 * 3
    assert got.dtype == complex and np.array_equal(got, 1j * inv)


class TestSpectralConnection:
    @pytest.mark.parametrize("l", [0.5, 1.0, 1.5])
    def test_matches_closed_form(self, rng, l):
        from adiaconn.models import Su2Model

        model = Su2Model(l)
        for _ in range(10):
            lam = _su2_point(rng)
            spec = model.spectral_at(lam)
            a = connection_spectral(spec, model.grad_h(lam))
            ref = su2_analytic_connection(l, *lam[1:])
            for got, want in zip(a.components, ref.components):
                assert np.linalg.norm(got - want) < 1e-10

    def test_nan_gap_rejected(self, su2_half):
        # SpectralDecomposition is public, so a hand-built one can carry
        # any min_gap; a NaN gap must not pass as non-degenerate
        lam = [1.0, 0.7, 0.2]
        spec = su2_half.spectral_at(lam)
        broken = SpectralDecomposition(spec.eigenvalues, spec.frame, float("nan"))
        with pytest.raises(ValueError, match="non-degenerate"):
            connection_spectral(broken, su2_half.grad_h(lam))

    def test_no_gradients_give_an_empty_form(self, su2_half):
        a = connection_spectral(su2_half.spectral_at([1.0, 0.7, 0.2]), [])
        assert a.components == () and a.n_params == 0

    def test_constant_model_vanishes(self):
        model = constant_model(SZ, n_params=2)
        a, _ = spectral_connection(model, [0.1, 0.2])
        assert all(np.linalg.norm(c) == 0.0 for c in a.components)

    def test_zero_diagonal(self, su2_half, oscillator, rng):
        for model, lam in [
            (su2_half, _su2_point(rng)),
            (oscillator, [1.4, -0.2, 1.1]),
        ]:
            spec = model.spectral_at(lam)
            a = connection_spectral(spec, model.grad_h(lam))
            for c in a.components:
                diag = np.abs(np.diag(spec.to_eigenbasis(c)))
                assert np.max(diag) <= 1e-10 * max(np.linalg.norm(c), 1e-300)

    def test_oscillator_reference_point(self, oscillator):
        # at (1, 0, 1) the middle component reduces to (p^2 - q^2)/4
        lam = [1.0, 0.0, 1.0]
        spec = oscillator.spectral_at(lam)
        a = connection_spectral(spec, oscillator.grad_h(lam))
        expected = (oscillator.p @ oscillator.p - oscillator.q @ oscillator.q) / 4.0
        k = oscillator.trust_levels
        assert np.max(np.abs(a.components[1][:k, :k] - expected[:k, :k])) < 1e-10

    def test_defining_commutator(self, su2_half, oscillator, rng):
        # i [H, A_mu] + dH_mu = D_mu at every evaluated point
        for model, lam in [
            (su2_half, _su2_point(rng)),
            (oscillator, [2.0, 0.5, 1.5]),
        ]:
            h = model.eval_h(lam)
            spec = model.spectral_at(lam)
            grads = model.grad_h(lam)
            a = connection_spectral(spec, grads)
            d = shift_operator(spec, grads)
            for a_mu, g_mu, d_mu in zip(a.components, grads, d.components):
                resid = 1j * (h @ a_mu - a_mu @ h) + g_mu - d_mu
                assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(g_mu)

    def test_phase_convention_independence(self, su2_one, rng):
        # every eigenvector takes its own random unit phase
        lam = _su2_point(rng)
        spec = su2_one.spectral_at(lam)
        phases = np.exp(2j * np.pi * rng.random(spec.dim))
        rephased = SpectralDecomposition(spec.eigenvalues,
                                         UnitaryOperator(spec.frame.matrix * phases), spec.min_gap)
        a1 = connection_spectral(spec, su2_one.grad_h(lam))
        a2 = connection_spectral(rephased, su2_one.grad_h(lam))
        for c1, c2 in zip(a1.components, a2.components):
            assert np.linalg.norm(c1 - c2) < 1e-12


class TestShiftOperator:
    def test_su2_field_slopes(self, su2_half):
        # dE_m/dB = mu * m for the two levels
        lam = [1.3, 0.9, 0.2]
        spec = su2_half.spectral_at(lam)
        d = shift_operator(spec, su2_half.grad_h(lam))
        slopes = d.level_shifts(spec)[:, 0]
        assert np.allclose(slopes, [-0.5, 0.5], atol=1e-12)

    def test_constant_model_vanishes(self):
        model = constant_model(SZ, n_params=1)
        spec = model.spectral_at([0.0])
        d = shift_operator(spec, model.grad_h([0.0]))
        assert np.linalg.norm(d.components[0]) == 0.0

    def test_commutes_with_hamiltonian(self, oscillator):
        lam = [1.5, -0.3, 1.2]
        h = oscillator.eval_h(lam)
        spec = oscillator.spectral_at(lam)
        d = shift_operator(spec, oscillator.grad_h(lam))
        for d_mu in d.components:
            assert np.linalg.norm(d_mu @ h - h @ d_mu) < 1e-8 * np.linalg.norm(d_mu)

    @staticmethod
    def prediction_error(model, lam, direction, step):
        spec = model.spectral_at(lam)
        slopes = shift_operator(spec, model.grad_h(lam)).level_shifts(spec)
        moved = model.spectral_at(lam + step * direction)
        predicted = spec.eigenvalues + slopes @ (step * direction)
        return np.max(np.abs(moved.eigenvalues - predicted))

    def test_su2_prediction_is_exact(self, su2_half, rng):
        # the spin spectrum m*mu*B is linear in every parameter, so the
        # first-order prediction has no quadratic remainder at all
        lam = np.array([1.0, 1.1, 0.7])
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        assert self.prediction_error(su2_half, lam, direction, 2e-2) < 1e-12

    @pytest.mark.parametrize("model_name", ["polynomial", "oscillator"])
    def test_first_order_energy_prediction_order(self, oscillator, rng, model_name):
        if model_name == "polynomial":
            model = random_polynomial_model(rng)
            lam = np.array([0.1, -0.2])
        else:
            model = oscillator
            lam = np.array([1.3, 0.1, 1.1])
        direction = rng.normal(size=model.n_params)
        direction /= np.linalg.norm(direction)
        e1 = self.prediction_error(model, lam, direction, 2e-2)
        e2 = self.prediction_error(model, lam, direction, 1e-2)
        assert np.log2(e1 / e2) >= 1.9


class TestTimeAverage:
    def test_converges_to_spectral(self, su2_half):
        lam = [1.0, 1.1, 0.4]
        a_exact, spec = spectral_connection(su2_half, lam)
        cfg = TimeAverageConfig.for_spectrum(spec, horizon=200.0)
        a_hat = connection_time_average(su2_half, lam, cfg)
        # polar component of the closed form is -J_phi
        assert np.linalg.norm(a_hat.components[1] - a_exact.components[1]) <= 0.05

    def test_constant_model_exact_zero(self):
        model = constant_model(SZ, n_params=1)
        cfg = TimeAverageConfig(horizon=3.0, samples=64)
        a_hat = connection_time_average(model, [0.0], cfg)
        assert np.linalg.norm(a_hat.components[0]) == 0.0

    def test_hermitian_components(self, su2_one, rng):
        lam = _su2_point(rng)
        a_hat = connection_time_average(su2_one, lam)
        for c in a_hat.components:
            assert np.linalg.norm(c - c.conj().T) < 1e-12

    def test_error_estimate_recorded(self, su2_half):
        a_hat = connection_time_average(su2_half, [1.0, 1.0, 0.0])
        assert a_hat.error_estimate is not None and a_hat.error_estimate > 0

    def test_error_estimate_bounds_the_deviation(self, su2_one, rng):
        # the deviation as the time-average command reports it: the
        # largest Frobenius norm of a component's difference
        cases = [(OscillatorModel(60, 20), [2.0, 0.5, 1.5], None),
                 (OscillatorModel(60, 20), [1.0, 0.0, 1.0], None),
                 (su2_one, [1.0, 1.1, 0.4], None)]
        cases += [(random_polynomial_model(rng, dim=dim), [0.15, -0.1], horizon)
                  for dim, horizon in [(3, 40.0), (4, 60.0), (5, None)]]
        for model, lam, horizon in cases:
            a_exact, spec = spectral_connection(model, lam)
            a_hat = connection_time_average(
                model, lam, TimeAverageConfig.for_spectrum(spec, horizon=horizon))
            deviation = max(np.linalg.norm(h - e)
                            for h, e in zip(a_hat.components, a_exact.components))
            assert deviation > 0.0
            assert a_hat.error_estimate >= deviation

    def test_envelope_decreases_under_doubling(self, rng):
        model = random_polynomial_model(rng)
        lam = [0.15, -0.1]
        a_exact, spec = spectral_connection(model, lam)

        def error_at(horizon):
            cfg = TimeAverageConfig.for_spectrum(spec, horizon=horizon)
            a_hat = connection_time_average(model, lam, cfg)
            return max(
                np.linalg.norm(h - e)
                for h, e in zip(a_hat.components, a_exact.components)
            )

        # compare envelope maxima over [T, 1.5T] against [2T, 3T]
        for t0 in (40.0, 120.0):
            env = max(error_at(t) for t in np.linspace(t0, 1.5 * t0, 5))
            env2 = max(error_at(t) for t in np.linspace(2 * t0, 3 * t0, 5))
            assert env2 <= 0.75 * env

    def test_nyquist_guard(self, su2_half):
        with pytest.raises(ValueError, match="spacing"):
            connection_time_average(
                su2_half, [1.0, 1.0, 0.0], TimeAverageConfig(horizon=50.0, samples=3)
            )

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            TimeAverageConfig(horizon=-1.0, samples=10)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            TimeAverageConfig(horizon=1.0, samples=1)

    @pytest.mark.parametrize("horizon", [np.nan, np.inf, -np.inf, 0.0])
    def test_non_finite_horizon_rejected(self, su2_half, horizon):
        spec = su2_half.spectral_at([1.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="horizon"):
            TimeAverageConfig(horizon=horizon, samples=10)
        with pytest.raises(ValueError, match="horizon"):
            TimeAverageConfig.for_spectrum(spec, horizon=horizon)

    def test_one_level_spectrum_needs_a_horizon(self):
        # one level has no gap, so 50 / min_gap gives no horizon; one passed works
        model = constant_model(np.array([[2.0]], dtype=complex), n_params=1)
        spec = model.spectral_at([0.0])
        with pytest.raises(ValueError, match=r"no gap to set the default averaging horizon.*"
                                             r"horizon \(--horizon\)"):
            TimeAverageConfig.for_spectrum(spec)
        with pytest.raises(ValueError, match="no gap"):
            connection_time_average(model, [0.0])
        a = connection_time_average(model, [0.0], TimeAverageConfig.for_spectrum(spec, 2.0))
        assert a.error_estimate == 0.0 and not np.any(a.components[0])

    @pytest.mark.parametrize("samples", [2.5, 10.0, True, "10"])
    def test_non_integer_samples_rejected(self, samples):
        with pytest.raises(ValueError, match="samples"):
            TimeAverageConfig(horizon=1.0, samples=samples)

    def test_matches_explicit_grid_sum(self, su2_one, rng):
        # the trapezoid means summed over the sample grid, as the closed
        # form replaces them
        poly = random_polynomial_model(rng)
        for model, lam, horizon in [(su2_one, _su2_point(rng), None),
                                    (poly, [0.15, -0.1], 60.0),
                                    (OscillatorModel(14, 4), [1.2, 0.3, 0.9], 20.0)]:
            spec = model.spectral_at(lam)
            cfg = TimeAverageConfig.for_spectrum(spec, horizon=horizon)
            t = np.linspace(-cfg.horizon, cfg.horizon, cfg.samples)
            weights = np.full(t.shape, cfg.spacing)
            weights[0] = weights[-1] = 0.5 * cfg.spacing
            weights /= weights.sum()
            grads = np.asarray(model.grad_h(lam), dtype=complex)
            delta = spec.eigenvalues[:, None] - spec.eigenvalues[None, :]
            mean_osc = np.einsum("k,kmn->mn", weights, np.exp(-1j * t[:, None, None] * delta))
            mean_t = float(weights @ t)
            ref = contract_stack(spec.eigenvalues, spec.frame.matrix, grads,
                                 lambda d: _maurer_cartan_kernel(d, mean_osc, mean_t))
            got = connection_time_average(model, lam, cfg).components
            assert np.max(np.abs(np.asarray(got) - ref)) <= 1e-12


class TestMaurerCartanSamples:
    def test_zero_at_time_zero(self, su2_one, rng):
        lam = _su2_point(rng)
        for w in maurer_cartan_sample(su2_one, lam, 0.0):
            assert np.linalg.norm(w) == 0.0

    def test_components_hermitian(self, su2_one, rng):
        lam = _su2_point(rng)
        for w in maurer_cartan_sample(su2_one, lam, 2.3):
            assert np.linalg.norm(w - w.conj().T) < 1e-12

    def test_non_finite_time_is_named(self, su2_half):
        with pytest.raises(ValueError, match="t must be finite"):
            maurer_cartan_sample(su2_half, [1.0, 0.9, 0.3], np.nan)

    def test_su2_polar_component_diagonal_free(self, su2_half, rng):
        # the polar gradient has no diagonal in the eigenbasis, so the
        # sampled 1-form keeps a zero diagonal at every t
        lam = _su2_point(rng)
        spec = su2_half.spectral_at(lam)
        for t in (0.7, 3.1, 11.0):
            w = maurer_cartan_sample(su2_half, lam, t)[1]
            assert np.max(np.abs(np.diag(spec.to_eigenbasis(w)))) < 1e-12

    def test_matches_group_derivative(self, su2_half):
        # i e^{-itH} d(e^{itH}) recomputed through the generic derivative
        lam = np.array([1.0, 0.9, 0.3])
        t = 1.9
        h = su2_half.eval_h(lam)
        grads = su2_half.grad_h(lam)
        sampled = maurer_cartan_sample(su2_half, lam, t)
        u_inv = expm_hermitian(h, -t).matrix
        for g_mu, w_mu in zip(grads, sampled):
            direct = 1j * u_inv @ expm_hermitian_derivative(h, g_mu, t)
            assert np.linalg.norm(direct - w_mu) < 1e-11

    def test_fluctuation_commutator_average(self, su2_half):
        # time average of [dw_theta, dw_phi] equals -i F_theta_phi
        lam = [1.0, 1.1, 0.4]
        a_exact, spec = spectral_connection(su2_half, lam)
        f = yang_mills_curvature(su2_half, lam)
        cfg = TimeAverageConfig.for_spectrum(spec, horizon=200.0)
        grid = np.linspace(-cfg.horizon, cfg.horizon, cfg.samples)
        weights = np.full(grid.shape, cfg.spacing)
        weights[0] = weights[-1] = 0.5 * cfg.spacing
        weights /= weights.sum()
        acc = np.zeros((2, 2), dtype=complex)
        for t_k, w_k in zip(grid, weights):
            w = maurer_cartan_sample(su2_half, lam, t_k)
            d_th = w[1] - a_exact.components[1]
            d_ph = w[2] - a_exact.components[2]
            acc += w_k * (d_th @ d_ph - d_ph @ d_th)
        assert np.linalg.norm(acc + 1j * f.component(1, 2)) <= 0.05


class TestGaugeTransform:
    def test_identity_gauge(self, su2_half, rng):
        lam = _su2_point(rng)
        a, _ = spectral_connection(su2_half, lam)
        zero = [np.zeros((2, 2), dtype=complex)] * 3
        a2 = gauge_transform(a, np.eye(2), zero)
        for c1, c2 in zip(a.components, a2.components):
            assert np.allclose(c1, c2)

    def test_global_rotation_conjugates(self, su2_half, rng):
        lam = _su2_point(rng)
        a, _ = spectral_connection(su2_half, lam)
        u = expm_hermitian(random_hermitian(rng, 2), 1.0).matrix
        zero = [np.zeros((2, 2), dtype=complex)] * 3
        a2 = gauge_transform(a, u, zero)
        for c1, c2 in zip(a.components, a2.components):
            assert np.linalg.norm(c2 - u @ c1 @ u.conj().T) < 1e-12

    def test_rejects_wrong_number_of_du_components(self, su2_half):
        a, _ = spectral_connection(su2_half, [1.0, 0.7, 0.2])
        with pytest.raises(ValueError, match="need one dU component per parameter direction"):
            gauge_transform(a, np.eye(2), [np.zeros((2, 2))] * 2)

    def test_rejects_non_unitary(self, su2_half, rng):
        lam = _su2_point(rng)
        a, _ = spectral_connection(su2_half, lam)
        with pytest.raises(ValueError, match="unitary"):
            gauge_transform(a, 2.0 * np.eye(2), [np.zeros((2, 2))] * 3)

    @pytest.mark.parametrize("u, du_0, match", [
        (np.full((2, 2), np.nan), np.zeros((2, 2)), "non-finite"),
        (np.eye(2), np.full((2, 2), np.nan), "non-finite"),
        (np.eye(2), np.ones((2, 3)), "square"),
    ], ids=["nan u", "nan dU", "non-square dU"])
    def test_rejects_non_finite_or_non_square(self, su2_half, u, du_0, match):
        a, _ = spectral_connection(su2_half, [1.0, 0.7, 0.2])
        with pytest.raises(ValueError, match=match):
            gauge_transform(a, u, [du_0, np.zeros((2, 2)), np.zeros((2, 2))])

    def test_leaves_u_writable(self, su2_half):
        a, _ = spectral_connection(su2_half, [1.0, 0.7, 0.2])
        u = np.eye(2, dtype=complex)
        gauge_transform(a, u, [np.zeros((2, 2))] * 3)
        assert u.flags.writeable

    def test_offdiagonal_covariance(self, su2_half, rng):
        # rotated family: off-diagonal parts of the transformed connection
        # reproduce the spectral connection of U H U^dag
        from adiaconn.models import ParametricHamiltonian

        for _ in range(3):
            lam = _su2_point(rng)
            gens = [random_hermitian(rng, 2, scale=0.4) for _ in range(4)]

            def u_of(lam_):
                x = gens[0] + lam_[0] * gens[1] + lam_[1] * gens[2] + lam_[2] * gens[3]
                return expm_hermitian(x, 1.0).matrix

            def du_of(lam_):
                x = gens[0] + lam_[0] * gens[1] + lam_[1] * gens[2] + lam_[2] * gens[3]
                return [expm_hermitian_derivative(x, g, 1.0) for g in gens[1:]]

            rotated = ParametricHamiltonian(
                2, 3,
                eval_fn=lambda lam_: u_of(lam_) @ su2_half.eval_h(lam_) @ u_of(lam_).conj().T,
                param_names=("B", "theta", "phi"),
            )
            a, _ = spectral_connection(su2_half, lam)
            transformed = gauge_transform(a, u_of(lam), du_of(lam))
            direct, spec_rot = spectral_connection(rotated, lam)
            v = spec_rot.frame.matrix
            for c_t, c_d in zip(transformed.components, direct.components):
                w_t = v.conj().T @ c_t @ v
                w_d = v.conj().T @ c_d @ v
                off_t = w_t - np.diag(np.diag(w_t))
                off_d = w_d - np.diag(np.diag(w_d))
                assert np.max(np.abs(off_t - off_d)) < 1e-6
