import numpy as np
import pytest

from adiaconn import operator_core, transport
from adiaconn.models import ParametricHamiltonian, constant_model
from adiaconn.operator_core import DegenerateSpectrumError
from adiaconn.transport import (
    PathSpec,
    Schedule,
    StepSizeError,
    counterdiabatic_evolve,
    holonomy,
    linear_schedule,
    transport_operator,
    wilson_loop_phases,
)
from adiaconn.geometry import su2_circle_loop, su2_triangle_loop

from conftest import isospectral_model, random_polynomial_model


class TestPathSpec:
    def test_rejects_repeated_samples(self):
        with pytest.raises(ValueError, match="distinct"):
            PathSpec(np.array([[0.0, 0.0], [0.0, 0.0]]))

    def test_rejects_open_marked_closed(self):
        with pytest.raises(ValueError, match="closed"):
            PathSpec(np.array([[0.0, 0.0], [1.0, 0.0]]), closed=True)

    def test_refined_points_count(self):
        path = PathSpec(np.array([[0.0], [1.0], [3.0]]), refinement=4)
        pts = path.refined_points()
        assert len(pts) == 9
        assert pts[0] == pytest.approx(0.0)
        assert pts[-1] == pytest.approx(3.0)

    def test_steps_cover_segments(self):
        path = PathSpec(np.array([[0.0], [1.0]]), refinement=5)
        mids, deltas = path.step_arrays()
        assert len(mids) == 5
        assert np.allclose(np.sum(deltas, axis=0), [1.0])

    @pytest.mark.parametrize("refinement", [2.5, 2.0, 0, -3, True])
    def test_rejects_non_integer_or_non_positive_refinement(self, refinement):
        with pytest.raises(ValueError, match="refinement"):
            PathSpec(np.array([[0.0], [1.0]]), refinement=refinement)

    def test_rejects_three_dimensional_samples(self):
        with pytest.raises(ValueError, match=r"path samples must be a \(K\+1, N\) array"):
            PathSpec(np.zeros((2, 2, 3)))

    def test_accepts_numpy_integer_refinement(self):
        path = PathSpec(np.array([[0.0], [1.0]]), refinement=np.int64(3))
        assert len(path.refined_points()) == 4


class TestTransport:
    def test_rejects_path_of_another_dimension(self, su2_half):
        path = PathSpec(np.array([[1.0, 0.7], [1.0, 0.8]]))
        with pytest.raises(ValueError, match="path dimensionality does not match the model"):
            transport_operator(su2_half, path)

    def test_single_point_path_is_identity(self, su2_half):
        path = PathSpec(np.array([[1.0, 0.7, 0.2]]), closed=True, refinement=10)
        result = transport_operator(su2_half, path)
        assert np.allclose(result.operator.matrix, np.eye(2))
        assert result.conjugation_residual < 1e-15

    def test_great_circle_closed_form(self, su2_half):
        # polar descent at fixed azimuth: half-angle rotation mixing the
        # two levels; written in the ascending-m basis (down, up)
        theta_star, phi = 1.1, 0.6
        path = PathSpec(
            np.array([[1.0, 0.0, phi], [1.0, theta_star, phi]]), refinement=500
        )
        u = transport_operator(su2_half, path).operator.matrix
        c, s = np.cos(theta_star / 2), np.sin(theta_star / 2)
        expected = np.array(
            [[c, np.exp(1j * phi) * s], [-np.exp(-1j * phi) * s, c]]
        )
        assert np.linalg.norm(u - expected) < 1e-6

    def test_transport_matches_eigenvectors(self, su2_half):
        theta_star, phi = 1.1, 0.6
        path = PathSpec(
            np.array([[1.0, 0.0, phi], [1.0, theta_star, phi]]), refinement=800
        )
        result = transport_operator(su2_half, path)
        frame = result.transported_frame.matrix
        h_end = su2_half.eval_h([1.0, theta_star, phi])
        rayleigh = np.real(np.einsum("in,in->n", frame.conj(), h_end @ frame))
        resid = np.linalg.norm(h_end @ frame - frame * rayleigh, axis=0)
        assert np.max(resid) < 1e-6
        assert np.allclose(np.sort(rayleigh), [-0.5, 0.5], atol=1e-6)

    def test_unitarity_budget(self, rng):
        model = random_polynomial_model(rng)
        path = PathSpec(np.array([[0.0, 0.0], [0.4, 0.1], [0.3, 0.4]]), refinement=120)
        u = transport_operator(model, path).operator.matrix
        assert np.linalg.norm(u.conj().T @ u - np.eye(3)) <= 1e-8

    def test_reversal_inverts(self, rng):
        model = random_polynomial_model(rng)
        path = PathSpec(np.array([[0.0, 0.0], [0.35, 0.2]]), refinement=200)
        u = transport_operator(model, path).operator.matrix
        u_back = transport_operator(model, path.reversed()).operator.matrix
        assert np.linalg.norm(u_back - u.conj().T) < 1e-8

    def test_path_independence_up_to_phases(self, rng):
        model = random_polynomial_model(rng)
        a = PathSpec(np.array([[0.0, 0.0], [0.4, 0.0], [0.4, 0.3]]), refinement=600)
        b = PathSpec(np.array([[0.0, 0.0], [0.0, 0.3], [0.4, 0.3]]), refinement=600)
        fa = transport_operator(model, a).transported_frame.matrix
        fb = transport_operator(model, b).transported_frame.matrix
        overlaps = np.abs(np.einsum("in,in->n", fa.conj(), fb))
        assert np.allclose(overlaps, 1.0, atol=1e-6)

    def test_eigenvector_property_random_model(self, rng):
        model = random_polynomial_model(rng)
        path = PathSpec(np.array([[0.0, 0.0], [0.45, 0.25]]), refinement=1000)
        result = transport_operator(model, path)
        frame = result.transported_frame.matrix
        h_end = model.eval_h(path.end)
        rayleigh = np.real(np.einsum("in,in->n", frame.conj(), h_end @ frame))
        resid = np.linalg.norm(h_end @ frame - frame * rayleigh, axis=0)
        assert np.max(resid) < 1e-6

    def test_conjugation_residual_isospectral_second_order(self, rng):
        # constant-spectrum family: the conjugation identity holds in the
        # continuum and the discretized residual decays at second order
        model = isospectral_model(rng)
        samples = np.array([[0.0, 0.0], [0.5, 0.3]])
        residuals = [
            transport_operator(model, PathSpec(samples, refinement=r)).conjugation_residual
            for r in (25, 50, 100)
        ]
        assert residuals[0] / residuals[1] == pytest.approx(4.0, rel=0.25)
        assert residuals[1] / residuals[2] == pytest.approx(4.0, rel=0.25)

    def test_degenerate_spectrum_propagates(self):
        model = constant_model(np.diag([1.0, 1.0, 2.0]).astype(complex), n_params=1)
        path = PathSpec(np.array([[0.0], [1.0]]), refinement=3)
        with pytest.raises(DegenerateSpectrumError):
            transport_operator(model, path)


class TestHolonomy:
    def test_requires_closed_loop(self, su2_half):
        path = PathSpec(np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]))
        with pytest.raises(ValueError, match="closed"):
            holonomy(su2_half, path)

    @pytest.mark.parametrize("omega", [np.pi / 4, 1.0])
    def test_triangle_phases_by_level(self, su2_half, omega):
        res = holonomy(su2_half, su2_triangle_loop(omega, refinement=400))
        # ascending energy = ascending m: level 0 is m=-1/2
        assert res.phases[0] == pytest.approx(+omega / 2, abs=1e-6)
        assert res.phases[1] == pytest.approx(-omega / 2, abs=1e-6)
        assert res.offdiag_residual < 1e-6
        assert res.reliable

    def test_zero_area_loop(self, su2_half):
        out_and_back = PathSpec(
            np.array([[1.0, 0.2, 0.1], [1.0, 1.2, 0.9], [1.0, 0.2, 0.1]]),
            closed=True,
            refinement=300,
        )
        res = holonomy(su2_half, out_and_back)
        assert np.max(np.abs(res.phases)) < 1e-8
        assert res.offdiag_residual < 1e-10

    def test_l1_circle_solid_angle(self, su2_one):
        theta0 = 0.8
        res = holonomy(su2_one, su2_circle_loop(theta0, refinement=1500))
        solid = 2 * np.pi * (1 - np.cos(theta0))
        expected = np.angle(np.exp(-1j * np.array([-1.0, 0.0, 1.0]) * solid))
        assert np.allclose(res.phases, expected, atol=1e-5)
        assert res.offdiag_residual < 1e-6

    def test_phases_are_the_angles_in_the_base_frame(self, oscillator, su2_one):
        # phases and residual are read from V^dag U V in the base eigenframe,
        # np.angle bit for bit: np.angle already lies in [-pi, pi]
        from adiaconn.geometry import planar_rectangle_loop

        loops = [(oscillator, planar_rectangle_loop([1.0, 0.05, 1.0], [0.0, 0.2, 0.0],
                                                    [0.0, 0.0, 0.2], refinement=60))]
        loops += [(su2_one, su2_circle_loop(theta, refinement=200)) for theta in (0.3, 0.8, 1.9)]
        for model, loop in loops:
            res = holonomy(model, loop)
            v0 = model.spectral_at(loop.start).frame.matrix
            w = v0.conj().T @ res.operator.matrix @ v0
            assert np.array_equal(res.phases, np.angle(np.diag(w)))
            assert res.offdiag_residual == np.max(np.abs(w - np.diag(np.diag(w))))


class TestWilson:
    def test_requires_closed_loop(self, su2_half):
        path = PathSpec(np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]))
        with pytest.raises(ValueError, match="wilson_loop_phases requires a closed loop"):
            wilson_loop_phases(su2_half, path)

    def test_triangle_matches_closed_form(self, su2_half):
        phases = wilson_loop_phases(su2_half, su2_triangle_loop(np.pi / 2, refinement=800))
        assert phases[0] == pytest.approx(+np.pi / 4, abs=1e-6)
        assert phases[1] == pytest.approx(-np.pi / 4, abs=1e-6)

    def test_zero_area_loop(self, su2_half):
        loop = PathSpec(
            np.array([[1.0, 0.3, 0.0], [1.0, 1.0, 0.5], [1.0, 0.3, 0.0]]),
            closed=True,
            refinement=200,
        )
        assert np.max(np.abs(wilson_loop_phases(su2_half, loop))) < 1e-8

    @pytest.mark.parametrize("l_name", ["half", "one"])
    def test_agrees_with_holonomy_on_random_loops(self, su2_half, su2_one, rng, l_name):
        model = su2_half if l_name == "half" else su2_one
        for _ in range(10):
            b = rng.uniform(0.6, 1.6)
            th = rng.uniform(0.4, 2.3)
            ph = rng.uniform(0.0, 2 * np.pi)
            dth, dph = rng.uniform(0.05, 0.25, size=2)
            square = PathSpec(
                np.array(
                    [
                        [b, th, ph],
                        [b, th + dth, ph],
                        [b, th + dth, ph + dph],
                        [b, th, ph + dph],
                        [b, th, ph],
                    ]
                ),
                closed=True,
                refinement=220,
            )
            hol = holonomy(model, square).phases
            wil = wilson_loop_phases(model, square)
            assert np.max(np.abs(hol - wil)) < 1e-6

    def test_independent_of_phase_convention(self, su2_half, monkeypatch):
        # every eigenvector the loop decomposes gets its own random phase;
        # the closing overlap must reuse the first node's vectors to cancel it.
        # Chunks of 256 nodes put the pole edge in a chunk of its own.
        monkeypatch.setattr(transport, "CHUNK_MATRICES", 256)
        loop = su2_triangle_loop(0.9, refinement=250)
        default = wilson_loop_phases(su2_half, loop)
        rng = np.random.default_rng(11)
        eigh, calls = operator_core.eigh_block, []

        def rephased(stack, block):
            evals, vecs, gauge = eigh(stack, block)
            calls.append(len(vecs) * len(block.index))
            phase = np.exp(2j * np.pi * rng.random((len(vecs), 1, vecs.shape[-1])))
            return evals, vecs * phase, gauge

        monkeypatch.setattr(operator_core, "eigh_block", rephased)
        alt = wilson_loop_phases(su2_half, loop)
        # every basis index of every node went through the patch once;
        # the chunk on the pole edge, where H is diagonal, splits in two
        assert sum(calls) == (len(loop.refined_points()) - 1) * su2_half.dim
        assert len(calls) > 3
        assert np.max(np.abs(np.angle(np.exp(1j * (alt - default))))) <= 1e-12

    def test_near_orthogonal_guard(self, su2_half):
        # a 2-sample sweep across the whole sphere at refinement 1 hops
        # between nearly orthogonal frames
        loop = PathSpec(
            np.array([[1.0, 0.0, 0.0], [1.0, 3.1, 0.0], [1.0, 0.0, 0.0]]),
            closed=True,
            refinement=1,
        )
        with pytest.raises(ValueError, match="refine"):
            wilson_loop_phases(su2_half, loop)


class TestCounterdiabatic:
    def test_frozen_schedule_keeps_fidelity(self, su2_half):
        frozen = linear_schedule([1.0, 0.8, 0.0], [1.0, 0.8, 0.0], 0.5)
        res = counterdiabatic_evolve(su2_half, frozen, n0=0, dt=1e-3)
        assert res.min_fidelity > 1 - 1e-12

    def test_transitionless_sweep(self, su2_half):
        sched = linear_schedule([1.0, 0.0, 0.0], [1.0, np.pi / 2, 0.0], 1.0)
        res = counterdiabatic_evolve(su2_half, sched, n0=1, dt=1e-3)
        assert res.min_fidelity >= 1 - 1e-9
        assert np.max(res.norm_drifts) < 1e-10

    def test_diabatic_control_loses_fidelity(self, su2_half):
        fast = linear_schedule([1.0, 0.0, 0.0], [1.0, np.pi / 2, 0.0], 0.1)
        res = counterdiabatic_evolve(su2_half, fast, n0=1, dt=1e-4, include_cd=False)
        assert res.min_fidelity < 0.99

    def test_dynamical_phase_of_frozen_state(self, su2_half):
        # stationary level 0 at the pole only accumulates exp(-i E t)
        frozen = linear_schedule([1.0, 0.0, 0.0], [1.0, 0.0, 0.0], 2.0)
        res = counterdiabatic_evolve(su2_half, frozen, n0=0, dt=1e-3)
        assert res.final_phase == pytest.approx(+0.5 * 2.0, abs=1e-8)

    def test_step_size_rejection(self, su2_half):
        sched = linear_schedule([1.0, 0.0, 0.0], [1.0, np.pi / 2, 0.0], 1.0)
        with pytest.raises(StepSizeError):
            counterdiabatic_evolve(su2_half, sched, n0=0, dt=0.9)

    def test_non_finite_stage_raises(self):
        # H is NaN at every half-step x = 0.05, 0.15, ... and finite at
        # every whole step, where the fidelity is recorded
        def eval_fn(lam):
            h = np.array([[1.0, lam[0]], [lam[0], -1.0]], dtype=complex)
            return h * np.nan if abs(lam[0] % 0.1 - 0.05) < 1e-9 else h

        model = ParametricHamiltonian(2, 1, eval_fn=eval_fn)
        sched = linear_schedule([0.0], [1.0], 1.0)
        with pytest.raises(ValueError, match="not finite"):
            counterdiabatic_evolve(model, sched, n0=0, dt=0.1, include_cd=False)

    @pytest.mark.parametrize("total_time", [0.0, -1.0, np.inf, np.nan])
    def test_schedule_duration_finite_and_positive(self, total_time):
        with pytest.raises(ValueError, match="duration"):
            Schedule(position=lambda t: np.zeros(3), velocity=lambda t: np.zeros(3),
                     total_time=total_time)
        with pytest.raises(ValueError, match="duration"):
            linear_schedule([1.0, 0.0, 0.0], [1.0, 1.0, 0.0], total_time)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, np.inf, np.nan])
    def test_dt_finite_and_positive(self, su2_half, dt):
        # an infinite dt used to run one step over the whole sweep
        sched = linear_schedule([1.0, 0.0, 0.0], [1.0, 1.0, 0.0], 1.0)
        with pytest.raises(ValueError, match="dt"):
            counterdiabatic_evolve(su2_half, sched, n0=0, dt=dt)

    def test_bad_level_rejected(self, su2_half):
        sched = linear_schedule([1.0, 0.0, 0.0], [1.0, 1.0, 0.0], 1.0)
        with pytest.raises(ValueError, match="level"):
            counterdiabatic_evolve(su2_half, sched, n0=5, dt=1e-3)
        for n0 in (1.5, 1.0, True, -1):
            with pytest.raises(ValueError, match="level index"):
                counterdiabatic_evolve(su2_half, sched, n0=n0, dt=1e-3)
