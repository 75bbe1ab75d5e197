"""Acceptance suite: one test per release criterion, each printing a
PASS line with its headline numbers when it holds.

Closed-form targets follow the certified conventions of the reference
module (see its docstring): field-strength components are pinned by the
spin-1/2 anchor F_theta_phi = -sin(theta) J_n, i.e. per-level curvature
-m sin(theta) for the spin and -(n + 1/2) {X, Y, Z} / (4 omega^3) for the
oscillator; oscillator comparisons run on the truncation-certified
subspace of the 60-level default model.
"""

import time

import numpy as np
import pytest

from adiaconn.connection import (
    TimeAverageConfig,
    connection_spectral,
    connection_time_average,
    gauge_transform,
    shift_operator,
)
from adiaconn.curvature import (
    berry_curvature_at,
    berry_phase_surface,
    diagonality_residual,
    yang_mills_curvature,
)
from adiaconn.geometry import (
    cap_polar_angle,
    planar_patch,
    planar_rectangle_loop,
    su2_cap_patch,
    su2_triangle_loop,
    su2_wedge_patch,
)
from adiaconn.models import ParametricHamiltonian, Su2Model
from adiaconn.nast import maurer_cartan_flatness, nast_residual
from adiaconn.operator_core import expm_hermitian
from adiaconn.reference import (
    oscillator_analytic_connection,
    su2_analytic_connection,
    su2_berry_curvature,
)
from adiaconn.transport import (
    counterdiabatic_evolve,
    holonomy,
    linear_schedule,
    wilson_loop_phases,
)

from conftest import (
    expm_hermitian_derivative,
    random_hermitian,
    random_polynomial_model,
    spectral_connection,
)


def passed(num, message):
    print(f"\n[criterion {num:02d}] PASS  {message}")


def su2_random_point(rng):
    return np.array(
        [rng.uniform(0.5, 2.0), rng.uniform(0.2, np.pi - 0.2), rng.uniform(0.0, 2 * np.pi)]
    )


def test_criterion_01_su2_golden_connection(rng):
    started = time.perf_counter()
    worst = 0.0
    for l in (0.5, 1.0, 1.5):
        model = Su2Model(l)
        for _ in range(50):
            lam = su2_random_point(rng)
            spec = model.spectral_at(lam)
            numeric = connection_spectral(spec, model.grad_h(lam))
            analytic = su2_analytic_connection(l, *lam[1:])
            for got, want in zip(numeric.components, analytic.components):
                worst = max(worst, float(np.linalg.norm(got - want)))
    elapsed = time.perf_counter() - started
    assert worst < 1e-10
    assert elapsed < 1.0
    passed(1, f"spin connection vs closed form: max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_triangle_loop_phases(su2_half):
    started = time.perf_counter()
    worst_phase = 0.0
    worst_off = 0.0
    for omega in (np.pi / 4, np.pi / 2, 1.0):
        res = holonomy(su2_half, su2_triangle_loop(omega, refinement=2000))
        # ascending energy = ascending m: level 0 is m = -1/2
        worst_phase = max(
            worst_phase,
            abs(res.phases[0] - omega / 2),
            abs(res.phases[1] + omega / 2),
        )
        worst_off = max(worst_off, res.offdiag_residual)
    elapsed = time.perf_counter() - started
    assert worst_phase < 1e-6
    assert worst_off < 1e-6
    assert elapsed < 10.0
    passed(2, f"triangle Berry phases: max error {worst_phase:.2e}, "
              f"offdiag {worst_off:.2e}, {elapsed:.1f}s")


def test_criterion_03_curvature_diagonality(rng, su2_half, oscillator):
    worst_resid = 0.0
    worst_su2 = 0.0
    for _ in range(20):
        lam = su2_random_point(rng)
        f = yang_mills_curvature(su2_half, lam)
        spec = su2_half.spectral_at(lam)
        worst_resid = max(worst_resid, diagonality_residual(f, spec))
        diag = np.real(np.diag(spec.to_eigenbasis(f.component(1, 2))))
        worst_su2 = max(worst_su2, float(np.max(np.abs(diag - su2_berry_curvature(0.5, lam[1])))))
    assert worst_su2 < 1e-6

    osc_point = np.array([2.0, 0.5, 1.5])
    k = oscillator.certified_vector_levels(osc_point)
    omega = np.sqrt(2.75)
    n_half = np.arange(k) + 0.5
    targets = {
        (0, 1): -1.5 * n_half / (4 * omega**3),
        (0, 2): +0.5 * n_half / (4 * omega**3),
        (1, 2): -2.0 * n_half / (4 * omega**3),
    }
    worst_osc = 0.0
    for i in range(20):
        lam = osc_point if i == 0 else np.array(
            [rng.uniform(1.2, 2.2), rng.uniform(-0.4, 0.4), rng.uniform(1.0, 1.8)]
        )
        f = yang_mills_curvature(oscillator, lam)
        spec = oscillator.spectral_at(lam)
        k_i = oscillator.certified_vector_levels(lam)
        worst_resid = max(worst_resid, diagonality_residual(f, spec, levels=k_i))
        if i == 0:
            for pair, want in targets.items():
                diag = np.real(np.diag(spec.to_eigenbasis(f.component(*pair))))[:k]
                worst_osc = max(worst_osc, float(np.max(np.abs(diag - want))))
    assert worst_resid <= 1e-5
    assert worst_osc < 1e-4
    passed(3, f"diagonality residual {worst_resid:.2e}; diagonal values vs closed forms: "
              f"spin {worst_su2:.2e}, oscillator {worst_osc:.2e} on {k} certified levels")


def test_criterion_04_nast_equality(su2_half):
    started = time.perf_counter()
    r50 = nast_residual(su2_half, su2_cap_patch(np.pi / 2, grid=(50, 50)))
    r100 = nast_residual(su2_half, su2_cap_patch(np.pi / 2, grid=(100, 100)))
    elapsed = time.perf_counter() - started
    assert r50 <= 1e-3
    assert r50 / r100 >= 3.0
    assert elapsed < 60.0
    passed(4, f"surface-ordered vs boundary: residual {r50:.2e} at 50x50, "
              f"ratio {r50 / r100:.1f} under halving, {elapsed:.1f}s")


def test_criterion_05_oracle_triangulation(su2_half, su2_one, oscillator):
    cases = []
    for omega in (np.pi / 4, 1.0, np.pi / 2):
        cases.append((su2_half, su2_triangle_loop(omega, refinement=900),
                      su2_wedge_patch(omega, grid=(110, 110)), [0, 1], 700))
    for omega in (2.0,):
        cases.append((su2_half, su2_cap_patch(omega, grid=(110, 110)).boundary_path(8),
                      su2_cap_patch(omega, grid=(110, 110)), [0, 1], None))
    theta0 = 0.8
    solid = 2 * np.pi * (1 - np.cos(theta0))
    assert cap_polar_angle(solid) == pytest.approx(theta0)
    cases.append((su2_half, su2_cap_patch(solid, grid=(110, 110)).boundary_path(8),
                  su2_cap_patch(solid, grid=(110, 110)), [0, 1], None))
    cases.append((su2_one, su2_triangle_loop(np.pi / 2, refinement=900),
                  su2_wedge_patch(np.pi / 2, grid=(110, 110)), [0, 1, 2], 700))
    cases.append((su2_one, su2_cap_patch(1.2, grid=(110, 110)).boundary_path(8),
                  su2_cap_patch(1.2, grid=(110, 110)), [0, 1, 2], None))
    cases.append((Su2Model(1.5), su2_triangle_loop(0.9, refinement=900),
                  su2_wedge_patch(0.9, grid=(110, 110)), [0, 1, 2, 3], 700))
    for origin, edge_u, edge_v in [
        ([2.0, 0.3, 1.4], [0.0, 0.25, 0.0], [0.0, 0.0, 0.25]),
        ([1.6, 0.1, 1.5], [0.5, 0.0, 0.0], [0.0, 0.18, 0.0]),
    ]:
        cases.append((oscillator, planar_rectangle_loop(origin, edge_u, edge_v, refinement=500),
                      planar_patch(origin, edge_u, edge_v, grid=(60, 60)), [0, 1, 2, 3], 500))
    assert len(cases) == 10

    worst = 0.0
    for model, loop, patch, levels, wilson_ref in cases:
        if wilson_ref is not None and loop.refinement != wilson_ref:
            wilson_loop = type(loop)(loop.samples, closed=True, refinement=wilson_ref)
        else:
            wilson_loop = loop
        hol = holonomy(model, loop).phases[levels]
        wil = wilson_loop_phases(model, wilson_loop)[levels]
        surf = np.asarray(berry_phase_surface(model, patch, level=levels))
        worst = max(
            worst,
            float(np.max(np.abs(hol - wil))),
            float(np.max(np.abs(hol - surf))),
            float(np.max(np.abs(wil - surf))),
        )
    assert worst <= 2e-4
    passed(5, f"holonomy / overlap product / surface integral: "
              f"max pairwise gap {worst:.2e} over 10 loops")


def test_criterion_06_flatness_vs_averaged(su2_half):
    loop = su2_triangle_loop(np.pi / 2, refinement=4000)
    residual = maurer_cartan_flatness(su2_half, loop, t=1.7)
    averaged = holonomy(su2_half, loop)
    assert residual <= 1e-4
    assert averaged.phases[0] == pytest.approx(+np.pi / 4, abs=1e-6)
    assert averaged.phases[1] == pytest.approx(-np.pi / 4, abs=1e-6)
    passed(6, f"fixed-time 1-form holonomy residual {residual:.2e}; "
              f"averaged connection keeps phases +-pi/4")


def _envelope_slope(model, lam, horizons):
    a_exact, spec = spectral_connection(model, lam)

    def error_at(t):
        cfg = TimeAverageConfig.for_spectrum(spec, horizon=t)
        a_hat = connection_time_average(model, lam, cfg)
        return max(
            np.linalg.norm(h - e) for h, e in zip(a_hat.components, a_exact.components)
        )

    errors = np.array([error_at(t) for t in horizons])
    bins = np.array_split(np.arange(len(horizons)), 5)
    env_t = np.array([np.exp(np.mean(np.log(horizons[idx]))) for idx in bins])
    env_e = np.array([errors[idx].max() for idx in bins])
    slope = np.polyfit(np.log(env_t), np.log(env_e), 1)[0]
    return slope


def test_criterion_07_time_average_convergence(rng):
    horizons = np.geomspace(12.0, 1800.0, 20)
    slope_spin = _envelope_slope(Su2Model(0.5), [1.0, 1.1, 0.4], horizons)
    model3 = random_polynomial_model(rng)
    slope_poly = _envelope_slope(model3, [0.15, -0.1], horizons)
    for slope in (slope_spin, slope_poly):
        assert -1.3 <= slope <= -0.7
    passed(7, f"estimator envelope slopes: spin {slope_spin:.2f}, "
              f"3-level {slope_poly:.2f} (target -1 +- 0.3)")


def test_criterion_08_gauge_covariance(rng, su2_half):
    worst = 0.0
    for _ in range(10):
        lam = su2_random_point(rng)
        gens = [random_hermitian(rng, 2, scale=0.5) for _ in range(4)]

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
            off = (w_t - np.diag(np.diag(w_t))) - (w_d - np.diag(np.diag(w_d)))
            worst = max(worst, float(np.max(np.abs(off))))
    assert worst < 1e-6
    passed(8, f"gauge-transformed vs directly computed connection: "
              f"max off-diagonal gap {worst:.2e} over 10 rotations")


def test_criterion_09_transitionless_driving(su2_half):
    sched = linear_schedule([1.0, 0.0, 0.0], [1.0, np.pi / 2, 0.0], 1.0)
    driven = counterdiabatic_evolve(su2_half, sched, n0=1, dt=1e-4)
    fast = linear_schedule([1.0, 0.0, 0.0], [1.0, np.pi / 2, 0.0], 0.1)
    control = counterdiabatic_evolve(su2_half, fast, n0=1, dt=1e-4, include_cd=False)
    assert driven.min_fidelity >= 1 - 1e-6
    assert control.min_fidelity < 0.99
    passed(9, f"driven fidelity 1-{1 - driven.min_fidelity:.1e}; "
              f"diabatic control dips to {control.min_fidelity:.3f}")


def test_criterion_10_shift_first_order(rng, su2_half, oscillator):
    def prediction_error(model, lam, direction, step):
        spec = model.spectral_at(lam)
        slopes = shift_operator(spec, model.grad_h(lam)).level_shifts(spec)
        moved = model.spectral_at(lam + step * direction)
        predicted = spec.eigenvalues + slopes @ (step * direction)
        return np.max(np.abs(moved.eigenvalues - predicted))

    # the spin spectrum is exactly linear in its parameters: the remainder
    # vanishes identically instead of scaling quadratically
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    spin_err = prediction_error(su2_half, np.array([1.0, 1.1, 0.7]), direction, 2e-2)
    assert spin_err < 1e-12

    orders = []
    for model, lam in ((oscillator, np.array([1.3, 0.1, 1.1])),
                       (random_polynomial_model(rng), np.array([0.1, -0.2]))):
        direction = rng.normal(size=model.n_params)
        direction /= np.linalg.norm(direction)
        e1 = prediction_error(model, lam, direction, 2e-2)
        e2 = prediction_error(model, lam, direction, 1e-2)
        orders.append(np.log2(e1 / e2))
    assert all(order >= 1.9 for order in orders)
    passed(10, f"first-order energy prediction: spin remainder {spin_err:.1e} (exact), "
               f"observed orders {orders[0]:.2f}/{orders[1]:.2f}")


def test_criterion_11_oscillator_analytic_connection(oscillator):
    worst = {}
    for point in ((1.0, 0.0, 1.0), (2.0, 0.5, 1.5)):
        k = oscillator.certified_vector_levels(point)
        assert k >= 12
        spec = oscillator.spectral_at(point)
        numeric = connection_spectral(spec, oscillator.grad_h(point))
        analytic = oscillator_analytic_connection(*point, oscillator.nmax)
        for name, got, want in zip("XYZ", numeric.components, analytic.components):
            gap = float(np.max(np.abs(got[:k, :k] - want[:k, :k])))
            worst[name] = max(worst.get(name, 0.0), gap)
    assert worst["Y"] < 1e-6
    assert worst["X"] < 1e-6 and worst["Z"] < 1e-6
    passed(11, "oscillator closed forms vs spectral construction on certified levels: "
               + ", ".join(f"A_{n} {v:.1e}" for n, v in worst.items())
               + " (certified corrected coefficients, see reference module docs)")
