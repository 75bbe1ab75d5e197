import ast
import importlib
import inspect
import pkgutil
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import adiaconn
from adiaconn import operator_core, transport
from adiaconn.curvature import berry_phase_surface
from adiaconn.geometry import planar_patch, planar_rectangle_loop, su2_triangle_loop
from adiaconn.models import OscillatorModel, Su2Model
from adiaconn.operator_core import (
    DegenerateSpectrumError,
    UnitaryOperator,
    expm_hermitian,
    fix_phase,
    hermitian_part,
    hermiticity_defect,
    spectral_decompose,
    wrap_phase,
)

from conftest import expm_hermitian_derivative, one_block, random_hermitian, record_eigh_calls

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


class TestUnitaryOperator:
    def test_leaves_the_callers_array_writeable(self):
        u = np.eye(2, dtype=complex)
        op = UnitaryOperator(u)
        assert u.flags.writeable and not op.matrix.flags.writeable
        u[0, 0] = 5.0
        assert op.matrix[0, 0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            op.matrix[0, 0] = 5.0


class TestHermitianPart:
    def test_hermitian_input_unchanged(self):
        m = np.array([[1.0, 1j], [-1j, 2.0]])
        assert np.allclose(hermitian_part(m), m)

    def test_symmetrization(self):
        out = hermitian_part(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(out, [[0.0, 0.5], [0.5, 0.0]])

    def test_output_exactly_hermitian(self, rng):
        m = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
        out = hermitian_part(m)
        assert np.array_equal(out, out.conj().swapaxes(-1, -2))
        assert np.array_equal(hermitian_part(m[2]), out[2])


class TestHermiticityRule:
    def test_one_matrix_and_stack_agree(self, rng):
        # relative defects on both sides of HERMITICITY_TOL, and at scales
        # below and above the norm floor of 1
        h = np.stack([random_hermitian(rng, 3, scale=s) for s in (0.01, 0.01, 50.0, 50.0)])
        for k, rel in enumerate((0.5, 2.0, 0.5, 2.0)):
            scale = max(np.linalg.norm(h[k]), 1.0)
            h[k, 0, 1] += rel * operator_core.HERMITICITY_TOL * scale / np.sqrt(2)
        defect, miss = hermiticity_defect(h)
        assert miss.tolist() == [False, True, False, True]
        for k in range(len(h)):
            one = hermiticity_defect(h[k])
            assert one[1] == miss[k]
            assert one[0] == pytest.approx(defect[k], rel=1e-12)

    def test_nan_misses(self):
        h = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
        assert hermiticity_defect(h)[1]
        assert hermiticity_defect(h[None])[1].tolist() == [True]


class TestSpectralDecompose:
    def test_diagonal(self):
        spec = spectral_decompose(np.diag([1.0, 2.0]).astype(complex))
        assert np.allclose(spec.eigenvalues, [1.0, 2.0])
        assert np.allclose(spec.frame.matrix, np.eye(2))

    def test_pauli_x(self):
        spec = spectral_decompose(0.5 * SX)
        assert np.allclose(spec.eigenvalues, [-0.5, 0.5])
        assert spec.min_gap == pytest.approx(1.0)

    def test_gap_threshold_raises(self):
        # the default rule: 1e-8 * (1 + spectral radius), so about 1e-8 here
        with pytest.raises(DegenerateSpectrumError) as err:
            spectral_decompose(np.diag([0.0, 1e-9]))
        assert err.value.gap == pytest.approx(1e-9)
        assert err.value.level == 0
        assert err.value.threshold == pytest.approx(1e-8)
        assert spectral_decompose(np.diag([0.0, 3e-8])).min_gap == pytest.approx(3e-8)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("dim", [2, 4, 7])
    def test_reassembly(self, rng, dim):
        h = random_hermitian(rng, dim)
        spec = spectral_decompose(h)
        v = spec.frame.matrix
        rebuilt = v @ np.diag(spec.eigenvalues) @ v.conj().T
        assert np.linalg.norm(rebuilt - h) <= 1e-12 * np.linalg.norm(h) * dim

    def test_eigenvalues_ascending(self, rng):
        spec = spectral_decompose(random_hermitian(rng, 6))
        assert np.all(np.diff(spec.eigenvalues) > 0)

    def test_raw_matrix_is_not_split(self, oscillator, monkeypatch):
        # a raw matrix goes to eigh whole; a model point is split by its
        # model's block layout instead (spectral_at)
        h = oscillator.eval_h([2.0, 0.3, 1.4])
        calls = record_eigh_calls(monkeypatch)
        spectral_decompose(h, check_levels=oscillator.check_levels)
        assert calls == [((60, 60), np.complex128)]

    def test_single_level(self):
        spec = spectral_decompose(np.array([[2.0]], dtype=complex))
        assert spec.min_gap == np.inf

    @pytest.mark.parametrize("check_levels", [0, -1, True, 1.5, np.float64(2.0), "2"])
    def test_check_levels_must_be_a_positive_integer(self, check_levels):
        # 0 and True used to check no gap at all, so the degenerate pair passed
        with pytest.raises(ValueError, match="check_levels must be None or a positive integer"):
            spectral_decompose(np.diag([0.0, 0.0, 1.0]), check_levels=check_levels)
        with pytest.raises(ValueError, match="check_levels"):
            operator_core.spectral_gaps(np.array([[0.0, 1.0]] * 3), check_levels)

    def test_check_levels_one_checks_no_gap(self):
        assert spectral_decompose(np.diag([0.0, 0.0, 1.0]), check_levels=1).min_gap == np.inf
        with pytest.raises(DegenerateSpectrumError):
            spectral_decompose(np.diag([0.0, 0.0, 1.0]), check_levels=np.int64(2))

    def test_nan_gap_fails_closed(self):
        # nan < threshold is False, so a NaN gap must be caught explicitly
        with pytest.raises(DegenerateSpectrumError):
            operator_core.spectral_gaps(np.array([0.0, np.nan, 1.0]))


class TestExpm:
    def test_zero_time_is_identity(self, rng):
        h = random_hermitian(rng, 4)
        assert np.allclose(expm_hermitian(h, 0.0).matrix, np.eye(4))

    def test_pauli_y_half_turn(self):
        # closed form cos(s/2) I + i sin(s/2) sigma_y at s = pi
        u = expm_hermitian(0.5 * SY, np.pi).matrix
        assert np.allclose(u, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-14)

    def test_group_inverse(self, rng):
        h = random_hermitian(rng, 5)
        s = 0.73
        prod = expm_hermitian(h, s).matrix @ expm_hermitian(h, -s).matrix
        assert np.linalg.norm(prod - np.eye(5)) < 1e-12

    @pytest.mark.parametrize("entry", [1.0, 5.0])
    def test_rejects_non_hermitian(self, entry):
        # eigh reads the lower triangle, all zero here; the Taylor route
        # (1-norm 1) and the eigenbasis route (1-norm 5) both refuse, and
        # name the input: a caller of the one-matrix function passed no steps
        reason = {1.0: "||U^dag U - I|| = 1.732e+00",
                  5.0: "its generator is not Hermitian, ||H - H^dag|| = 7.071e+00"}[entry]
        message = f"exp(i s H) of the expm_hermitian input is not unitary: {reason}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            expm_hermitian([[0.0, entry], [0.0, 0.0]])

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="expm_hermitian input has non-finite entries"):
            expm_hermitian([[np.nan, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_time(self, s):
        # named up front, for a Hermitian H, with no warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^s must be finite, got {s!r}$"):
                expm_hermitian(np.eye(2), s)

    @pytest.mark.parametrize("s,t", [(0.3, 1.1), (-2.0, 0.7)])
    def test_one_parameter_group(self, rng, s, t):
        h = random_hermitian(rng, 4)
        lhs = expm_hermitian(h, s).matrix @ expm_hermitian(h, t).matrix
        rhs = expm_hermitian(h, s + t).matrix
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * 4


def hermitian_stack(rng, k, dim, theta):
    """k random Hermitian matrices whose largest 1-norm is ``theta``."""
    h = np.stack([random_hermitian(rng, dim) for _ in range(k)])
    return h * (theta / np.max(np.abs(h).sum(axis=-2)))


class TestExpmStack:
    """The step exponential: a Taylor series up to TAYLOR_MAX_NORM, the
    eigenbasis above it."""

    @pytest.mark.parametrize("dim", [2, 30, 60])
    @pytest.mark.parametrize("theta", [0.0, 1e-6, 1e-3, 0.007, 0.03,
                                       operator_core.TAYLOR_MAX_NORM * (1 - 1e-6),
                                       operator_core.TAYLOR_MAX_NORM * (1 + 1e-6)])
    def test_agrees_with_the_eigenbasis(self, rng, monkeypatch, dim, theta):
        h = hermitian_stack(rng, 5, dim, 1.0) * theta if theta else np.zeros((5, dim, dim), complex)
        ref = operator_core._expm_eig(h)
        calls = record_eigh_calls(monkeypatch)
        got = operator_core.expm_hermitian_stack(h)
        assert np.max(np.abs(got - ref)) <= 1e-14
        # only the stack above the threshold is decomposed
        assert bool(calls) == (theta > operator_core.TAYLOR_MAX_NORM)

    def test_zero_stack_is_exactly_the_identity(self):
        for dim in (1, 2, 7):
            u = operator_core.expm_hermitian_stack(np.zeros((4, dim, dim), dtype=complex))
            assert np.array_equal(u, np.broadcast_to(np.eye(dim), (4, dim, dim)))

    def test_zero_factor_in_a_stack_is_exactly_the_identity(self, rng):
        h = hermitian_stack(rng, 4, 3, 0.05)
        h[2] = 0.0
        u = operator_core.expm_hermitian_stack(h)
        assert np.array_equal(u[2], np.eye(3))
        assert not np.array_equal(u[1], np.eye(3))

    def test_pole_edge_factors_are_exactly_the_identity(self, su2_half):
        # the last edge of the triangle runs along theta = 0, where the
        # gradient along phi vanishes: those steps sit in one chunk with
        # the others and must still give the identity bit for bit
        mids, deltas = su2_triangle_loop(1.1, refinement=30).step_arrays()
        factors = transport.ordered_products(su2_half, mids, deltas, np.ones(len(mids), int))
        pole = mids[:, 1] == 0.0
        assert pole.sum() == 30
        for u in factors[pole]:
            assert np.array_equal(u, np.eye(2))
        assert not any(np.array_equal(u, np.eye(2)) for u in factors[~pole])

    def test_non_hermitian_step_is_named(self, rng):
        h = hermitian_stack(rng, 6, 4, 0.02)
        h[3, 0, 1] += 1e-3  # no longer Hermitian
        with pytest.raises(ValueError, match="step 3 is not unitary"):
            operator_core.expm_hermitian_stack(h)

    def test_non_hermitian_2x2_step_is_named(self, rng):
        # 2x2 factors take the unrolled products; the guard still fires
        h = hermitian_stack(rng, 6, 2, 0.02)
        h[3, 0, 1] += 1e-3
        with pytest.raises(ValueError, match="step 3 is not unitary"):
            operator_core.expm_hermitian_stack(h)

    def test_non_hermitian_coarse_step_is_named(self, rng):
        # above TAYLOR_MAX_NORM the eigenbasis route reads one triangle of
        # H, so the Hermiticity of every generator is checked before it
        h = hermitian_stack(rng, 6, 4, 2.0 * operator_core.TAYLOR_MAX_NORM)
        h[3, 0, 1] += 1e-3
        with pytest.raises(ValueError, match="step 3 is not unitary"):
            operator_core.expm_hermitian_stack(h)


def ref_unitarity_defects(u):
    """||U^dag U - I|| of every factor by the matmul route."""
    return np.linalg.norm(operator_core.matmul(u.conj().swapaxes(-1, -2), u) - np.eye(u.shape[-1]),
                          axis=(-2, -1))


def ref_unitarity_refusal(u):
    """The refusal text of the matmul route for a factor stack."""
    defect = ref_unitarity_defects(u)
    bad = np.flatnonzero(~(defect <= operator_core.UNITARITY_TOL * u.shape[-1]))
    return f"step {bad[0]} is not unitary: ||U^dag U - I|| = {defect[bad[0]]:.3e}"


def near_unitary_stack(rng, k, eps):
    q = np.linalg.qr(rng.normal(size=(k, 2, 2)) + 1j * rng.normal(size=(k, 2, 2)))[0]
    return q + eps * (rng.normal(size=q.shape) + 1j * rng.normal(size=q.shape))


class TestUnitarityDefect2x2:
    """The 2x2 defect built from the four entries against the matmul route,
    bit for bit, and the refusals that it gives."""

    @pytest.mark.parametrize("k", [1, 3, 255, 256, 2048])
    def test_bit_identical_to_matmul_route(self, rng, k):
        # below and above the entrywise threshold of matmul
        for eps in (0.0, 1e-16, 1e-13, 1e-10, 1e-3):
            u = near_unitary_stack(rng, k, eps)
            assert np.array_equal(operator_core._unitarity_defects(u), ref_unitarity_defects(u))

    def refused(self, u):
        with pytest.raises(ValueError) as refusal:
            operator_core._check_unitary_steps(u)
        return str(refusal.value)

    def test_nan_factor(self, rng):
        u = near_unitary_stack(rng, 300, 1e-13)
        u[41, 1, 0] = np.nan
        u[90, 0, 0] = np.nan
        assert self.refused(u) == ref_unitarity_refusal(u)
        assert self.refused(u).startswith("step 41 is not unitary")

    def test_scaled_factor(self, rng):
        u = near_unitary_stack(rng, 300, 1e-13)
        u[7] *= 1.0 + 1e-11  # within the budget
        u[12] *= 1.0 + 1e-9
        u[200] *= 2.0
        assert self.refused(u) == ref_unitarity_refusal(u)
        assert self.refused(u).startswith("step 12 is not unitary")

    def test_non_hermitian_taylor_generator(self, rng, monkeypatch):
        h = hermitian_stack(rng, 6, 2, 0.02)
        h[3, 0, 1] += 1e-3
        seen, check = [], operator_core._check_unitary_steps
        monkeypatch.setattr(operator_core, "_check_unitary_steps",
                            lambda u: seen.append(u) or check(u))
        with pytest.raises(ValueError) as refusal:
            operator_core.expm_hermitian_stack(h)
        assert str(refusal.value) == ref_unitarity_refusal(seen[0])
        assert str(refusal.value).startswith("step 3 is not unitary")


def random_array(rng, shape, kind):
    a = rng.normal(size=shape)
    return a + 1j * rng.normal(size=shape) if kind is complex else a


class TestMatmul:
    """The product helper: a contraction of length 2 unrolled, ``@`` for
    every other inner size."""

    KINDS = [(complex, complex), (float, complex), (complex, float), (float, float)]

    @pytest.mark.parametrize("kinds", KINDS)
    @pytest.mark.parametrize("shapes", [
        ((7, 2, 2), (7, 2, 2)),
        ((5, 1, 3, 2), (5, 2, 2, 2)),  # level bras against two gradients
        ((5, 2, 3, 2), (5, 1, 2, 2)),  # the kets against the block vectors
        ((4, 3, 2), (2, 5)),
        ((2, 2), (3, 2, 2)),
    ])
    def test_length_two_matches_matmul(self, rng, shapes, kinds):
        a, b = (random_array(rng, shape, kind) for shape, kind in zip(shapes, kinds))
        got, ref = operator_core.matmul(a, b), a @ b
        assert got.shape == ref.shape and got.dtype == ref.dtype
        bound = 8 * np.finfo(float).eps * np.max(np.abs(a)) * np.max(np.abs(b))
        assert np.max(np.abs(got - ref)) <= bound

    @pytest.mark.parametrize("kinds", KINDS)
    @pytest.mark.parametrize("shapes", [
        ((6, 2, 1), (6, 1, 2)),
        ((6, 2, 3), (6, 3, 2)),
        ((6, 3, 3), (6, 3, 3)),
        ((6, 1, 4, 4), (6, 2, 4, 4)),
        ((3, 30, 30), (3, 30, 30)),
    ])
    def test_other_inner_sizes_are_matmul_itself(self, rng, shapes, kinds):
        a, b = (random_array(rng, shape, kind) for shape, kind in zip(shapes, kinds))
        got, ref = operator_core.matmul(a, b), a @ b
        assert got.dtype == ref.dtype and np.array_equal(got, ref)

    @pytest.mark.parametrize("kinds", [(complex, complex), (float, complex), (complex, float)])
    @pytest.mark.parametrize("shapes", [
        ((2048, 2, 2), (2048, 2, 2)),
        ((9, 1, 1, 2), (9, 2, 2, 2)),  # the level bras of _level_curvature, R = 1, 2, 3
        ((9, 1, 2, 2), (9, 2, 2, 2)),
        ((9, 1, 3, 2), (9, 2, 2, 2)),
        ((9, 2, 2, 2), (9, 1, 2, 2)),
        # below ENTRYWISE_MIN_STACK = 256 matrices matmul is the broadcast form
        ((1, 2, 2), (1, 2, 2)),
        ((7, 2, 2), (7, 2, 2)),
        ((199, 2, 2), (199, 2, 2)),
        ((256, 2, 2), (256, 2, 2)),
        ((2, 128, 2, 2), (1, 2, 2)),  # 256 matrices by broadcasting
    ])
    def test_length_two_is_the_broadcast_product_bit_for_bit(self, rng, shapes, kinds):
        # the entry-by-entry product makes the same two products and one
        # sum per entry as the broadcast rows-times-columns form it replaced
        a, b = (random_array(rng, shape, kind) for shape, kind in zip(shapes, kinds))
        ref = a[..., :, 0, None] * b[..., None, 0, :]
        ref += a[..., :, 1, None] * b[..., None, 1, :]
        got = operator_core.matmul(a, b)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


class TestShortAxisFirst:
    """The short axis moved to the front: reductions over axis 0 of the
    copy give exactly the reductions over that axis."""

    @staticmethod
    def tied(rng, d):
        # few distinct values, so that most rows tie on their extremes
        x = rng.integers(0, 3, size=(40, d, d)).astype(float)
        x[0] = 1.0  # every entry tied
        return x

    @pytest.mark.parametrize("reduce", [np.max, np.min, np.argmin])
    @pytest.mark.parametrize("axis", [-1, -2])
    @pytest.mark.parametrize("d", [2, 3, 4, 30])
    def test_max_min_argmin_are_exact(self, rng, d, axis, reduce):
        x = self.tied(rng, d)
        got = reduce(operator_core._short_axis_first(x, axis), axis=0)
        ref = reduce(x, axis=axis)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)

    @pytest.mark.parametrize("d", [2, 3, 4, 30])
    def test_sums_in_order(self, rng, d):
        # a sum over a non-last axis adds its terms in order, as the copy
        # does; a last axis only for length 2
        x = rng.normal(size=(40, d, d)) * 10.0 ** rng.integers(-8, 8, size=(40, d, d))
        assert np.array_equal(operator_core._short_axis_first(x, -2).sum(axis=0), x.sum(axis=-2))
        if d == 2:
            assert np.array_equal(operator_core._short_axis_first(x).sum(axis=0), x.sum(axis=-1))

    @pytest.mark.parametrize("shape", [(50, 2), (6, 5, 4), (3, 30)])
    def test_gap_tolerance_of_a_stack_is_that_of_each_spectrum(self, rng, shape):
        evals = np.sort(rng.normal(size=shape), axis=-1).reshape(-1, shape[-1])
        rows = [operator_core.default_gap_tol(e) for e in evals]
        got = operator_core.default_gap_tol(evals.reshape(shape))
        assert np.array_equal(got.ravel(), rows)

    def test_gaps_of_a_stack_are_those_of_each_spectrum(self, rng):
        evals = np.sort(rng.normal(size=(50, 4)), axis=-1)
        gaps = operator_core.spectral_gaps(evals)
        assert np.array_equal(gaps, [operator_core.spectral_gaps(e) for e in evals])
        evals[7, 2:] = evals[7, 1]  # two zero gaps: the first names the level
        evals[30, 3] = evals[30, 2]
        with pytest.raises(DegenerateSpectrumError) as err:
            operator_core.spectral_gaps(evals)
        assert (err.value.level, err.value.gap) == (1, 0.0)
        assert err.value.threshold == operator_core.default_gap_tol(evals[7])


class TestGaugePhase:
    @pytest.mark.parametrize("shape", [(2048, 2), (5, 3, 2), (7, 3)])
    def test_is_the_broadcast_outer_product_bit_for_bit(self, rng, shape):
        gauge = np.exp(1j * rng.uniform(-np.pi, np.pi, size=shape))
        ref = gauge.conj()[..., :, None] * gauge[..., None, :]
        got = operator_core.gauge_phase(gauge)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


def symmetric_2x2(a, b, c) -> np.ndarray:
    h = np.empty((len(a), 2, 2))
    h[:, 0, 0], h[:, 1, 1] = a, c
    h[:, 0, 1] = h[:, 1, 0] = b
    return h


class TestClosedForm2x2:
    """The closed-form eigensystem of a two-node tree block [[a, b], [b, c]]
    with b >= 0, against ``numpy.linalg.eigh``."""

    EPS = np.finfo(float).eps

    def check(self, a, b, c):
        """Ascending eigenvalues within 4 eps ||H|| of numpy's, and
        ||HV - VE|| <= 4 eps ||H||, ||V^T V - I|| <= 4 eps per matrix;
        returns the eigensystem."""
        a, b, c = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, dtype=float))
                                        for x in (a, b, c)))
        evals, vecs = operator_core._eigh_2x2(a, b, c)
        assert np.all(evals[:, 0] <= evals[:, 1])
        # each matrix scaled by a power of two above its largest entry, so
        # that the norms of entries near 1e300 do not overflow
        h = symmetric_2x2(a, b, c)
        scale = np.ldexp(1.0, np.frexp(np.abs(h).max(axis=(-2, -1)))[1])[:, None]
        h, scaled = h / scale[..., None], evals / scale
        norm = np.linalg.norm(h, axis=(-2, -1))
        resid = np.linalg.norm(h @ vecs - vecs * scaled[:, None, :], axis=(-2, -1))
        assert np.all(resid <= 4 * self.EPS * norm)
        ortho = np.linalg.norm(vecs.swapaxes(-1, -2) @ vecs - np.eye(2), axis=(-2, -1))
        assert np.all(ortho <= 4 * self.EPS)
        ref = np.linalg.eigh(h)[0]
        assert np.all(np.abs(scaled - ref) <= 4 * self.EPS * norm[:, None])
        return evals, vecs

    def test_random_stacks(self, rng):
        a, c = rng.normal(size=(2, 5000))
        self.check(a, np.abs(rng.normal(size=5000)), c)
        # entries spread over 16 decades, and a large common diagonal
        spread = 10.0 ** rng.uniform(-8, 8, size=(3, 5000))
        a, b, c = rng.normal(size=(3, 5000)) * spread
        self.check(a, np.abs(b), c)
        mean = 10.0 ** rng.uniform(0, 8, size=5000)
        a, b, c = rng.normal(size=(3, 5000))
        self.check(mean + a, np.abs(b), mean + c)

    @pytest.mark.parametrize("a, c", [(-0.3, 1.2), (1.2, -0.3)])
    def test_uncoupled(self, a, c):
        evals, vecs = self.check(a, 0.0, c)
        assert np.allclose(evals, [[min(a, c), max(a, c)]], rtol=0, atol=4 * self.EPS)
        # the lower level sits on the smaller diagonal entry
        assert np.argmax(np.abs(vecs[0, :, 0])) == int(c < a)

    def test_exact_degeneracy_meets_the_gap_rule(self):
        # two coupled matrices and one uncoupled with a = c: the stack is
        # one tree block, and the degenerate member still raises
        stack = np.zeros((3, 2, 2), dtype=complex)
        stack[:, 0, 0], stack[:, 1, 1] = [0.4, 0.7, -1.0], [1.1, 0.7, 2.0]
        stack[:, 0, 1] = [0.2 + 0.1j, 0.0, -0.5j]
        stack[:, 1, 0] = stack[:, 0, 1].conj()
        system = operator_core.decompose_blocks(operator_core.split_blocks(stack), [stack])
        assert system.evals[1, 0] == system.evals[1, 1] == 0.7
        with pytest.raises(DegenerateSpectrumError) as caught:
            operator_core.spectral_gaps(system.evals)
        assert caught.value.gap == 0.0

    @pytest.mark.parametrize("size", [1e300, 1e-300])
    def test_extreme_scales(self, rng, size):
        a, b, c = rng.normal(size=(3, 1000)) * size
        self.check(a, np.abs(b), c)
        self.check(size, size, -size)


class TestExpmDerivative:
    def test_small_s_limit(self, rng):
        h = random_hermitian(rng, 3)
        dh = random_hermitian(rng, 3)
        s = 1e-7
        d = expm_hermitian_derivative(h, dh, s)
        assert np.linalg.norm(d - 1j * s * dh) < 1e-12

    def test_matches_finite_difference(self, rng):
        h = random_hermitian(rng, 4)
        dh = random_hermitian(rng, 4)
        s = 0.9
        eps = 1e-6
        fd = (
            expm_hermitian(h + eps * dh, s).matrix
            - expm_hermitian(h - eps * dh, s).matrix
        ) / (2 * eps)
        assert np.linalg.norm(expm_hermitian_derivative(h, dh, s) - fd) < 1e-8

    @pytest.mark.parametrize("gap", [0.0, 1e-12])
    def test_repeated_eigenvalue_takes_the_confluent_limit(self, gap):
        h = np.diag([1.0, 1.0 + gap, 2.0]).astype(complex)
        dh = np.zeros((3, 3), dtype=complex)
        dh[0, 1] = dh[1, 0] = 1.0
        s, eps = 0.7, 1e-6
        fd = (
            expm_hermitian(h + eps * dh, s).matrix
            - expm_hermitian(h - eps * dh, s).matrix
        ) / (2 * eps)
        d = expm_hermitian_derivative(h, dh, s)
        assert np.all(np.isfinite(d))
        assert np.linalg.norm(d - fd) < 1e-8
        assert d[0, 1] == pytest.approx(-0.4510 + 0.5354j, abs=1e-4)


def hidden_block_stack(rng, sizes, k=4):
    """A (k, d, d) Hermitian stack, block diagonal with the given block
    sizes under one random permutation of the basis; also the block of
    every basis index."""
    dim = sum(sizes)
    h = np.zeros((k, dim, dim), dtype=complex)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    start = 0
    for n in sizes:
        for j in range(k):
            h[j, start:start + n, start:start + n] = random_hermitian(rng, n, scale=3.0)
        start += n
    perm = rng.permutation(dim)
    return h[:, perm[:, None], perm], owner[perm]


def record_eigh_shapes(monkeypatch):
    shapes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return shapes


def tree_block_stack(rng, kinds, k=5):
    """A (k, d, d) Hermitian stack, block diagonal under one random
    permutation of the basis, each block coupled along a tree: a chain,
    a star or a random tree of the given size.  Some tree edges are
    exactly 0 in some members of the stack (never in all).  Also returns
    the block of every basis index."""
    dim = sum(n for _, n in kinds)
    h = np.zeros((k, dim, dim), dtype=complex)
    owner = np.repeat(np.arange(len(kinds)), [n for _, n in kinds])
    start = 0
    for kind, n in kinds:
        child = np.arange(1, n)
        parent = {"chain": child - 1, "star": 0 * child,
                  "tree": np.array([rng.integers(0, c) for c in child], dtype=int)}[kind]
        link = rng.normal(size=(k, n - 1)) + 1j * rng.normal(size=(k, n - 1))
        link[1:][rng.random(size=(k - 1, n - 1)) < 0.3] = 0.0
        p, c = start + parent, start + child
        h[:, p, c] = link
        h[:, c, p] = link.conj()
        h[:, start + np.arange(n), start + np.arange(n)] = rng.normal(scale=2.0, size=(k, n))
        start += n
    perm = rng.permutation(dim)
    return h[:, perm[:, None], perm], owner[perm]


def split_and_decompose(h):
    """The kernels' block decomposition of a (K, d, d) Hermitian stack,
    split by its own nonzero pattern: ascending eigenvalues (K, d) and
    dense eigenvector stacks (K, d, d)."""
    blocks = operator_core.split_blocks(h)
    system = operator_core.decompose_blocks(blocks, [block.take(h) for block in blocks])
    return system.evals, system.frames()


def squaring_pattern_blocks(pattern: bytes, dim: int):
    """Blocks of a nonzero pattern found another way, as the reference
    for ``operator_core._pattern_blocks``: components by squaring the
    reachability matrix until it stops growing, then parents by a
    breadth-first walk from each component's lowest index, kept only
    when the component has n - 1 couplings, a tree."""
    adjacent = np.frombuffer(pattern, dtype=bool).reshape(dim, dim)
    adjacent = (adjacent | adjacent.T) & ~np.eye(dim, dtype=bool)
    reach = (adjacent | np.eye(dim, dtype=bool)).astype(float)
    while True:
        grown = np.minimum(reach @ reach, 1.0)
        if np.array_equal(grown, reach):
            break
        reach = grown
    label = np.argmax(reach, axis=0)
    blocks = []
    for first in np.unique(label):
        idx = np.flatnonzero(label == first)
        local = adjacent[idx[:, None], idx]
        n = len(idx)
        parent = None
        if np.count_nonzero(np.triu(local, 1)) == n - 1:
            parent = np.full(n, -1)
            parent[0] = 0
            frontier = [0]
            while frontier:
                reached = [(p, c) for p in frontier for c in np.flatnonzero(local[p])
                           if parent[c] < 0]
                for p, c in reached:
                    parent[c] = p
                frontier = [c for _, c in reached]
        blocks.append((idx, parent))
    return blocks


def random_pattern(rng, dim):
    """A (dim, dim) nonzero pattern whose components, in a shuffled basis,
    are random trees, some with extra couplings (cycles), and single
    nodes; each coupling is entered in one triangle or in both."""
    pattern = np.diag(rng.random(dim) < 0.5)
    cuts = np.sort(rng.choice(np.arange(1, dim), size=rng.integers(0, dim), replace=False))
    for nodes in np.split(rng.permutation(dim), cuts):
        edges = [(nodes[i], nodes[rng.integers(i)]) for i in range(1, len(nodes))]
        if len(nodes) > 2 and rng.random() < 0.5:
            extra = rng.integers(1, 3)
            edges += [tuple(rng.choice(nodes, 2, replace=False)) for _ in range(extra)]
        for a, b in edges:
            pattern[a, b] = True
            pattern[b, a] |= rng.random() < 0.5
    return pattern


class TestPatternBlocks:
    """The components of a nonzero pattern and their trees, against
    :func:`squaring_pattern_blocks`: the same indices and the same
    parents, since every tree gauge is built from those parents."""

    @staticmethod
    def assert_same_blocks(pattern: bytes, dim: int):
        got = operator_core._pattern_blocks(pattern, dim)
        want = squaring_pattern_blocks(pattern, dim)
        assert len(got) == len(want)
        for block, (idx, parent) in zip(got, want):
            assert np.array_equal(block.index, idx)
            assert (block.parent is None) == (parent is None)
            assert parent is None or np.array_equal(block.parent, parent)
        return got

    @pytest.mark.parametrize("model", [Su2Model(0.5), Su2Model(1.0), Su2Model(1.5),
                                       OscillatorModel(60, 20)],
                             ids=["spin-1/2", "spin-1", "spin-3/2", "oscillator-60"])
    def test_model_patterns(self, model):
        blocks = self.assert_same_blocks(model._pattern, model.dim)
        assert all(block.parent is not None for block in blocks)

    def test_random_patterns(self):
        rng = np.random.default_rng(20)
        seen = {"tree": 0, "cycle": 0, "single": 0, "several": 0}
        for _ in range(300):
            dim = int(rng.integers(1, 15))
            blocks = self.assert_same_blocks(random_pattern(rng, dim).tobytes(), dim)
            seen["several"] += len(blocks) > 1
            for block in blocks:
                if block.parent is None:
                    seen["cycle"] += 1
                else:
                    seen["tree" if len(block.index) > 1 else "single"] += 1
        assert min(seen.values()) > 20


class TestBlockEigh:
    """``eigh`` block by block: :func:`decompose_blocks` over the blocks
    that :func:`split_blocks` finds, as the kernels and
    :meth:`ParametricHamiltonian.spectral_at` run it."""

    @pytest.mark.parametrize("sizes", [(3, 1, 4), (2, 5), (1, 1, 3), (4, 4)])
    def test_hidden_blocks(self, rng, sizes):
        h, owner = hidden_block_stack(rng, sizes)
        evals, vecs = split_and_decompose(h)
        ref = np.linalg.eigh(h)[0]
        norm = np.linalg.norm(h, ord=2, axis=(-2, -1))
        assert np.all(np.abs(evals - ref) <= 1e-13 * (1 + norm[:, None]))
        assert np.all(np.diff(evals, axis=-1) >= 0)
        resid = np.linalg.norm(h @ vecs - vecs * evals[:, None, :], axis=(-2, -1))
        assert np.all(resid <= 1e-13 * (1 + norm))
        eye = np.eye(h.shape[-1])
        assert np.all(np.linalg.norm(vecs.conj().swapaxes(-1, -2) @ vecs - eye,
                                     axis=(-2, -1)) < 1e-13)
        for j in range(len(h)):
            for n in range(h.shape[-1]):
                support = np.flatnonzero(vecs[j, :, n])
                assert len(set(owner[support])) == 1
                assert np.all(vecs[j, owner != owner[support[0]], n] == 0)

    def test_one_block_per_eigh_call(self, rng, monkeypatch):
        h, _ = hidden_block_stack(rng, (3, 1, 4), k=5)
        shapes = record_eigh_shapes(monkeypatch)
        split_and_decompose(h)
        assert sorted(shapes) == [(5, 1, 1), (5, 3, 3), (5, 4, 4)]

    def test_connected_union_is_one_block(self, rng, monkeypatch):
        # neither matrix couples level 0 to level 2, but their union does
        h = np.zeros((2, 3, 3), dtype=complex)
        h[0, :2, :2] = random_hermitian(rng, 2)
        h[1, 1:, 1:] = random_hermitian(rng, 2)
        shapes = record_eigh_shapes(monkeypatch)
        evals, vecs = split_and_decompose(h)
        assert shapes == [(2, 3, 3)]
        assert np.allclose(h @ vecs, vecs * evals[:, None, :], atol=1e-13)

    def test_single_split_matrix(self, rng):
        # the one-point case, as spectral_at decomposes
        h, _ = hidden_block_stack(rng, (2, 3), k=1)
        evals, vecs = split_and_decompose(h)
        assert evals.shape == (1, 5) and vecs.shape == (1, 5, 5)
        assert np.allclose(evals[0], np.linalg.eigh(h[0])[0], atol=1e-13)
        assert np.allclose(h[0] @ vecs[0], vecs[0] * evals[0], atol=1e-12)

    def test_oscillator_splits_into_parity_sectors(self, oscillator, monkeypatch):
        lams = np.array([2.0, 0.3, 1.4]) + 0.1 * np.eye(3)
        h, _ = oscillator.eval_batch(lams)
        shapes = record_eigh_shapes(monkeypatch)
        evals, vecs = split_and_decompose(h)
        assert shapes == [(3, 30, 30), (3, 30, 30)]
        even = np.any(vecs[:, 0::2] != 0, axis=1)
        odd = np.any(vecs[:, 1::2] != 0, axis=1)
        assert np.all(even ^ odd)
        assert np.all(even.sum(axis=-1) == 30)

    def test_empty_stack_adds_nothing_to_the_split(self, oscillator):
        # a (K, 0, d, d) gradient stack, as a kernel asks for no direction
        h, _ = oscillator.eval_batch(np.array([[2.0, 0.3, 1.4], [2.1, 0.3, 1.4]]))
        empty = np.empty((len(h), 0) + h.shape[1:], dtype=complex)
        got, want = operator_core.split_blocks(h, empty), operator_core.split_blocks(h)
        assert len(want) == 2
        assert [(b.index.tolist(), b.parent.tolist()) for b in got] == \
            [(b.index.tolist(), b.parent.tolist()) for b in want]

    def test_oscillator_phases_match_the_dense_path(self, oscillator, monkeypatch):
        corner = ([2.0, 0.3, 1.4], [0.0, 0.25, 0.0], [0.0, 0.0, 0.25])
        patch = planar_patch(*corner, (12, 12))
        loop = planar_rectangle_loop(*corner, refinement=40)

        def phases():
            return (transport.holonomy(oscillator, loop).phases,
                    transport.wilson_loop_phases(oscillator, loop),
                    berry_phase_surface(oscillator, patch, [0, 1, 2, 3]))

        blocked = phases()
        ran_as_one_block = one_block(monkeypatch, oscillator)
        dense = phases()
        assert ran_as_one_block()
        for b, d in zip(blocked, dense):
            assert np.max(np.abs(b - d)) < 1e-12

    @pytest.mark.parametrize("kinds", [
        (("chain", 6), ("star", 5), ("tree", 7)),
        (("tree", 9), ("chain", 2), ("tree", 1), ("star", 4)),
        (("chain", 12), ("tree", 12)),
    ])
    def test_tree_blocks(self, rng, kinds):
        h, owner = tree_block_stack(rng, kinds)
        evals, vecs = split_and_decompose(h)
        norm = np.linalg.norm(h, ord=2, axis=(-2, -1))
        assert np.all(np.abs(evals - np.linalg.eigh(h)[0]) <= 1e-13 * (1 + norm[:, None]))
        resid = np.linalg.norm(h @ vecs - vecs * evals[:, None, :], axis=(-2, -1))
        assert np.all(resid <= 1e-13 * (1 + norm))
        eye = np.eye(h.shape[-1])
        assert np.all(np.linalg.norm(vecs.conj().swapaxes(-1, -2) @ vecs - eye,
                                     axis=(-2, -1)) < 1e-13)
        for j in range(len(h)):
            for n in range(h.shape[-1]):
                inside = owner == owner[np.flatnonzero(vecs[j, :, n])[0]]
                assert np.all(vecs[j, ~inside, n] == 0)

    def test_tree_blocks_reach_eigh_real(self, rng, monkeypatch):
        h, _ = tree_block_stack(rng, (("chain", 4), ("star", 5)), k=3)
        cycle = random_hermitian(rng, 3)
        cycle[0, 1], cycle[1, 2], cycle[2, 0] = 1.0, 1.0, np.exp(0.7j)  # flux 0.7
        cycle[1, 0], cycle[2, 1], cycle[0, 2] = 1.0, 1.0, np.exp(-0.7j)
        stack = np.zeros((3, 12, 12), dtype=complex)
        stack[:, :9, :9] = h
        stack[:, 9:, 9:] = cycle
        ref = np.linalg.eigh(stack)[0]
        calls = record_eigh_calls(monkeypatch)
        evals, _ = split_and_decompose(stack)
        assert sorted(calls) == [((3, 3, 3), np.complex128), ((3, 4, 4), np.float64),
                                 ((3, 5, 5), np.float64)]
        assert np.max(np.abs(evals - ref)) <= 1e-13 * (1 + np.max(np.abs(ref)))

    def test_only_operator_core_calls_eigh(self):
        src = Path(__file__).resolve().parents[1] / "src" / "adiaconn"
        offenders = []
        for path in sorted(src.glob("*.py")):
            if path.name == "operator_core.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("linalg.eigh") \
                        or isinstance(node, ast.ImportFrom) and any(
                            alias.name == "eigh" for alias in node.names):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []

    def test_only_operator_core_holds_the_hermiticity_rule(self):
        # one Hermiticity rule, in hermiticity_defect: no other module
        # compares against its tolerance
        src = Path(__file__).resolve().parents[1] / "src" / "adiaconn"
        offenders = []
        for path in sorted(src.glob("*.py")):
            if path.name == "operator_core.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and node.id == "HERMITICITY_TOL" \
                        or isinstance(node, ast.Attribute) and node.attr == "HERMITICITY_TOL" \
                        or isinstance(node, ast.ImportFrom) and any(
                            alias.name == "HERMITICITY_TOL" for alias in node.names):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []

    def test_only_eigh_block_takes_the_closed_form(self):
        # every 2x2 decomposition meets the one degeneracy rule through
        # eigh_block, its only caller: no other name refers to the form
        src = Path(__file__).resolve().parents[1] / "src" / "adiaconn"
        refs = []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text())
            scope = {}
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for inner in ast.walk(node):
                        scope[inner] = node.name  # innermost function wins
            for node in ast.walk(tree):
                named = (node.id if isinstance(node, ast.Name)
                         else node.attr if isinstance(node, ast.Attribute)
                         else None)
                if named == "_eigh_2x2" or isinstance(node, ast.ImportFrom) and any(
                        alias.name == "_eigh_2x2" for alias in node.names):
                    refs.append((path.name, scope.get(node)))
        assert refs == [("operator_core.py", "eigh_block")]

    def test_no_public_callable_takes_removed_knobs(self):
        # one degeneracy rule, one overlap guard, one drift budget and one
        # eigenvector phase rule: no caller can loosen or swap them; no
        # gradient scheme, edge-cache hook or base point rides on a public
        # signature
        removed = {"gap_tol", "min_overlap", "norm_drift_tol", "scheme", "_edges", "base_point",
                   "convention"}
        modules = [importlib.import_module(f"adiaconn.{m.name}")
                   for m in pkgutil.iter_modules(adiaconn.__path__)]
        offenders = []
        for module in [adiaconn, *modules]:
            for name, obj in vars(module).items():
                owner = getattr(obj, "__module__", None) or ""
                if name.startswith("_") or not owner.startswith("adiaconn"):
                    continue
                members = [(name, obj)]
                if inspect.isclass(obj):  # its own methods, the constructor included
                    members = [(f"{name}.{attr}", f) for attr, f in vars(obj).items()
                               if inspect.isfunction(f)
                               and (attr == "__init__" or not attr.startswith("_"))]
                for label, fn in members:
                    if callable(fn) and removed & set(inspect.signature(fn).parameters):
                        offenders.append(f"{module.__name__}.{label}")
        assert len(modules) >= 9
        assert offenders == []


class TestFixPhase:
    def test_pure_imaginary_column(self):
        frame = np.array([[0.0, 1.0], [1j, 0.0]])
        fixed = fix_phase(frame).matrix
        assert np.allclose(fixed[:, 0], [0.0, 1.0])

    def test_tie_breaks_to_lowest_index(self):
        col = np.exp(1j * np.pi / 3) * np.array([1.0, 1.0]) / np.sqrt(2)
        frame = np.column_stack([col, np.exp(1j * np.pi / 3) * np.array([1.0, -1.0]) / np.sqrt(2)])
        fixed = fix_phase(frame).matrix
        assert np.allclose(fixed[:, 0], np.array([1.0, 1.0]) / np.sqrt(2))
        # anchor is index 0 for the second column as well
        assert fixed[0, 1].imag == pytest.approx(0.0, abs=1e-15)
        assert fixed[0, 1].real > 0

    @pytest.mark.parametrize("spread, anchor", [(4e-16, 0), (-4e-16, 0), (1e-9, 1)])
    def test_roundoff_does_not_break_a_tie(self, spread, anchor):
        # magnitudes within PHASE_TIE_TOL of the largest count as tied;
        # a wider spread is a real largest entry
        high = 0.6 * (1 + spread)
        col = np.array([0.6 * np.exp(0.3j), high * np.exp(-1.1j), np.sqrt(0.64 - high**2)])
        frame = np.linalg.qr(np.column_stack([col, np.eye(3)[:, 1:]]))[0]
        frame[:, 0] = col  # the orthonormal complement, with the column exactly as built
        fixed = fix_phase(frame).matrix[:, 0]
        assert abs(np.angle(fixed[anchor])) <= 1e-15
        assert abs(np.angle(fixed[1 - anchor])) > 1.0

    def test_idempotent_on_random_unitaries(self, rng):
        for _ in range(5):
            u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
            once = fix_phase(u).matrix
            twice = fix_phase(once).matrix
            assert np.allclose(once, twice, atol=1e-14)

    def test_preserves_physical_content(self, rng):
        u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        fixed = fix_phase(u).matrix
        overlaps = np.abs(np.einsum("in,in->n", u.conj(), fixed))
        assert np.allclose(overlaps, 1.0, atol=1e-12)

    def test_zero_column_rejected(self):
        frame = np.zeros((2, 2), dtype=complex)
        with pytest.raises(ValueError, match="zero"):
            fix_phase(frame)


def test_wrap_phase_range():
    angles = np.array([-4 * np.pi + 0.1, -np.pi, 0.0, np.pi, 5.5 * np.pi])
    wrapped = wrap_phase(angles)
    assert np.all(wrapped > -np.pi - 1e-15)
    assert np.all(wrapped <= np.pi + 1e-15)
    assert wrap_phase(np.pi) == pytest.approx(np.pi)
    assert wrap_phase(3 * np.pi) == pytest.approx(np.pi)
