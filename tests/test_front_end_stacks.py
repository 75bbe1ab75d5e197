"""The chunk front end along the stack, held bit for bit to the forms it
replaced.

Each ``ref_*`` below is the earlier form of one step of a chunk's front
end: the spin coefficients from a nested-list ``np.array`` and a
(3, K, M, 3) broadcast, the polynomial coefficients with the parameters
innermost and a contraction one direction at a time, the two-node tree
block through the general tree path's gathered copies, and the gap rule
over short-axis copies.  The library now runs every one of these
elementwise along the stack, with the same operations in the same order,
so the two must agree under ``np.array_equal`` and under ``tobytes``,
which also tells the signs of zeros apart.
"""

import numpy as np
import pytest

from adiaconn import ParametricHamiltonian, Su2Model
from adiaconn.models import ModelSpec, spherical_axes
from adiaconn.operator_core import (
    Block,
    DegenerateSpectrumError,
    _eigh_2x2,
    default_gap_tol,
    eigh_block,
    spectral_gaps,
)

from conftest import random_hermitian

STACKS = [0, 1, 2048]
DIRECTIONS = [0, 1, 2]


def same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
            and got.tobytes() == want.tobytes())


# -- the earlier forms --------------------------------------------------------


def ref_spherical_axes(theta, phi):
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    return np.array([[st * cp, st * sp, ct], [ct * cp, ct * sp, -st],
                     [-sp, cp, np.zeros_like(sp)]])


def ref_su2_coefficients(model, lams, directions):
    b, theta, phi = lams.T
    scale = b * model.mu
    n_hat, theta_hat, phi_hat = ref_spherical_axes(theta, phi)
    h_coeff = (scale * n_hat).T
    if not directions.shape[1]:
        return h_coeff, np.zeros((len(lams), 0, 3))
    jacobian = np.array([model.mu * n_hat, scale * theta_hat,
                         scale * np.sin(theta) * phi_hat]).transpose(0, 2, 1)
    g_coeff = np.add.reduce(directions.transpose(2, 0, 1)[..., None] * jacobian[:, :, None],
                            axis=0, initial=0.0)
    return h_coeff, g_coeff


def ref_contract(grads, directions):
    k, n_dirs, n_params = directions.shape
    g = np.zeros((k, n_dirs, *grads.shape[2:]), dtype=grads.dtype)
    for mu in range(n_params):
        for m in range(n_dirs):
            d = directions[:, m, mu].reshape((k,) + (1,) * (grads.ndim - 2))
            g[:, m] += np.where(d != 0.0, d * grads[:, mu], 0.0)
    return g


def ref_polynomial_coefficients(spec, lams, directions):
    exps = np.array([e for e, _ in spec.terms], dtype=int)
    powers = lams[:, None, :] ** exps
    coeff = np.prod(powers, axis=-1)
    if not directions.shape[1]:
        return coeff, np.zeros((len(lams), 0, len(exps)))
    lowered = lams[:, None, :] ** np.maximum(exps - 1, 0)
    diag = np.eye(spec.n_params, dtype=bool)
    d_coeff = exps * np.prod(np.where(diag, lowered[:, :, None], powers[:, :, None]), axis=-1)
    return coeff, ref_contract(d_coeff.swapaxes(1, 2), directions)


def ref_pattern_values(model, c, c_dirs):
    """H and G slots from coefficient rows, the gradient rows point by
    point, (K M, T)."""
    g = c_dirs.reshape(-1, c_dirs.shape[-1]) @ model._term_values
    return c @ model._term_values, g.reshape(c_dirs.shape[:-1] + g.shape[-1:])


def ref_eigh_block(stack, block):
    """The general tree path, gathered links and diagonal, for a tree
    block; the closed form for two nodes."""
    parent = block.parent
    local = np.arange(len(parent))
    child = np.flatnonzero(parent != local)
    link = stack[:, parent[child], child]
    size = np.abs(link)
    unit = np.ones_like(link)
    np.divide(link.conj(), size, out=unit, where=size > 0)
    gauge = np.ones((len(stack), len(parent)), dtype=complex)
    gauge[:, child] = unit
    up = parent
    while np.any(up):
        gauge = gauge * gauge[:, up]
        up = up[up]
    diag = stack[:, local, local].real
    if len(parent) == 2:
        return (*_eigh_2x2(diag[:, 0], size[:, 0], diag[:, 1]), gauge)
    real = np.zeros(stack.shape, dtype=float)
    real[:, local, local] = diag
    real[:, parent[child], child] = size
    real[:, child, parent[child]] = size
    return (*np.linalg.eigh(real), gauge)


def ref_short_axis_first(x, axis=-1):
    return np.ascontiguousarray(np.moveaxis(x, axis, 0))


def ref_default_gap_tol(eigenvalues):
    radius = np.abs(np.asarray(eigenvalues, dtype=float))
    if radius.ndim > 1:
        radius = ref_short_axis_first(radius)
    return 1e-8 * (1.0 + np.max(radius, axis=0, initial=0.0))


def ref_spectral_gaps(evals, check_levels=None):
    evals = np.asarray(evals, dtype=float)
    gaps = np.diff(evals[..., :check_levels], axis=-1)
    if gaps.shape[-1] == 0:
        return np.full(evals.shape[:-1], np.inf)
    min_gap = np.min(ref_short_axis_first(gaps) if gaps.ndim > 1 else gaps, axis=0)
    threshold = np.broadcast_to(ref_default_gap_tol(evals), min_gap.shape)
    bad = np.flatnonzero(~(min_gap >= threshold))
    if bad.size:
        k = bad[0]
        worst = np.argmin(gaps.reshape(-1, gaps.shape[-1])[k])
        raise DegenerateSpectrumError(int(worst), float(min_gap.flat[k]),
                                      float(threshold.flat[k]))
    return min_gap


# -- inputs ---------------------------------------------------------------------


def spin_points(rng, k):
    """(B, theta, phi) with theta at both poles and phi = 0 among them."""
    lams = np.column_stack([rng.uniform(0.3, 3.0, k), rng.uniform(0.0, np.pi, k),
                            rng.uniform(-np.pi, np.pi, k)])
    lams[0::4, 1], lams[1::4, 1], lams[2::4, 2] = 0.0, np.pi, 0.0
    lams[3::8, 2] = -0.0
    return lams


def directions_for(rng, k, m, n):
    """Random directions with some exactly zero entries and some rows of
    zeros, which the contraction must skip or add alike."""
    d = rng.normal(size=(k, m, n))
    d[rng.random(d.shape) < 0.3] = 0.0
    d[::5] = 0.0
    return d


def polynomial_spec(rng):
    """Three parameters, exponents up to 3: every derivative factor,
    lowered or not, takes part."""
    exponents = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 2, 1), (3, 0, 2)]
    terms = [(e, random_hermitian(rng, 3, scale=0.3)) for e in exponents]
    return ModelSpec(3, ("a", "b", "c"), tuple(terms))


# -- spin coefficients --------------------------------------------------------------


class TestSpinCoefficients:
    @pytest.mark.parametrize("l, mu", [(0.5, 1.0), (1.0, -0.7), (1.5, 2.5)])
    @pytest.mark.parametrize("k", STACKS)
    @pytest.mark.parametrize("m", DIRECTIONS)
    def test_rows_match_the_broadcast(self, rng, l, mu, k, m):
        model = Su2Model(l, mu)
        lams, dirs = spin_points(rng, k), directions_for(rng, k, m, 3)
        got, want = model._coefficients(lams, dirs), ref_su2_coefficients(model, lams, dirs)
        assert same(got[0], want[0]) and same(got[1], want[1])
        got, want = model._pattern_values(lams, dirs), ref_pattern_values(model, *want)
        assert same(got[0], want[0]) and same(got[1], want[1])

    @pytest.mark.parametrize("k", STACKS)
    def test_spherical_axes_match_the_nested_list(self, rng, k):
        lams = spin_points(rng, k)
        theta, phi = lams[:, 1], lams[:, 2]
        assert same(spherical_axes(theta, phi), ref_spherical_axes(theta, phi))
        for theta, phi in [(0.0, 0.0), (np.pi, 0.0), (0.7, -2.1)]:
            assert same(spherical_axes(theta, phi), ref_spherical_axes(theta, phi))

    def test_overflowing_field_is_refused_alike(self, rng, monkeypatch):
        """B mu overflows to inf: the same refusal with either form."""
        model = Su2Model(0.5, 10.0)
        lams, dirs = np.array([[1e308, 0.4, 0.2], [1.0, 0.5, 0.3]]), np.ones((2, 1, 3))
        with pytest.raises(ValueError) as got:
            model._kernel_batch(lams, dirs)
        monkeypatch.setattr(Su2Model, "_coefficients", ref_su2_coefficients)
        with pytest.raises(ValueError) as want:
            model._kernel_batch(lams, dirs)
        assert str(got.value) == str(want.value) == "Hamiltonian has non-finite entries"


# -- polynomial coefficients ----------------------------------------------------------


class TestPolynomialCoefficients:
    @pytest.mark.parametrize("k", STACKS)
    @pytest.mark.parametrize("m", DIRECTIONS + [3])
    def test_rows_match_the_point_by_point_contraction(self, rng, k, m):
        spec = polynomial_spec(rng)
        model = spec.to_model()
        lams = rng.uniform(-1.5, 1.5, size=(k, 3))
        lams[::3, 1] = 0.0  # a zero base under a lowered exponent of 0
        dirs = directions_for(rng, k, m, 3)
        # a^3 overflows: a zero direction entry for a skips its non-finite
        # derivative, where adding 0 * inf would give NaN
        lams[1::7, 0], dirs[1::7, :, 0] = 1e120, 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            got = model._coefficients(lams, dirs)
            want = ref_polynomial_coefficients(spec, lams, dirs)
            assert same(got[0], want[0]) and same(got[1], want[1])
            got, want = model._pattern_values(lams, dirs), ref_pattern_values(model, *want)
        assert same(got[0], want[0]) and same(got[1], want[1])

    def test_one_point_values_match(self, rng):
        spec = polynomial_spec(rng)
        model = spec.to_model()
        lam = np.array([0.4, -0.3, 0.0])
        want = ref_pattern_values(model, *ref_polynomial_coefficients(spec, lam[None],
                                                                      np.eye(3)[None]))
        assert same(model.eval_h(lam), model._scatter(want[0])[0])
        assert same(np.array(model.grad_h(lam)), model._scatter(want[1])[0])

    @pytest.mark.parametrize("m", DIRECTIONS)
    def test_functional_gradients_match(self, rng, m):
        g1, g2 = random_hermitian(rng, 2), random_hermitian(rng, 2)
        model = ParametricHamiltonian(2, 2, eval_fn=lambda lam: np.diag([0.0, 2.0])
                                      + lam[0] * g1 + lam[1] ** 2 * g2)
        lams, dirs = rng.uniform(-0.5, 0.5, size=(5, 2)), directions_for(rng, 5, m, 2)
        grads = (np.array([model._central_difference(lam, None) for lam in lams])
                 if m else np.empty((5, 0, 2, 2), complex))
        assert same(model.eval_batch(lams, dirs)[1], ref_contract(grads, dirs))


# -- two-node tree blocks ------------------------------------------------------------


def two_level_stack(rng, k):
    """Hermitian 2x2 stacks: generic, real-linked, unlinked with either
    diagonal order, and exactly degenerate."""
    a, c = rng.normal(size=k), rng.normal(size=k)
    link = rng.normal(size=k) + 1j * rng.normal(size=k)
    link[1::5] = link[1::5].real
    link[2::5] = 0.0
    link[3::5] = 0.0
    a[3::5], c[3::5] = np.maximum(a[3::5], c[3::5]), np.minimum(a[3::5], c[3::5])
    c[4::5] = a[4::5]
    stack = np.empty((k, 2, 2), dtype=complex)
    stack[:, 0, 0], stack[:, 1, 1] = a, c
    stack[:, 0, 1], stack[:, 1, 0] = link, link.conj()
    return stack


@pytest.mark.parametrize("k", STACKS)
def test_two_node_block_matches_the_tree_path(rng, k):
    stack = two_level_stack(rng, k)
    block = Block(np.arange(2), np.array([0, 0]))
    for got, want in zip(eigh_block(stack, block), ref_eigh_block(stack, block)):
        assert same(got, want)
    # a non-contiguous stack reads the same entries
    wide = np.repeat(stack, 2, axis=0)[::2]
    for got, want in zip(eigh_block(wide, block), ref_eigh_block(stack, block)):
        assert same(got, want)


def test_longer_trees_keep_the_tree_path(rng):
    h = np.stack([random_hermitian(rng, 4) for _ in range(6)])
    h[:, 0, 2:] = h[:, 2:, 0] = h[:, 1, 3] = h[:, 3, 1] = 0.0
    block = Block(np.arange(4), np.array([0, 0, 1, 2]))  # the chain 0-1-2-3
    for got, want in zip(eigh_block(h, block), ref_eigh_block(h, block)):
        assert same(got, want)


# -- the gap rule ----------------------------------------------------------------------


def ascending(rng, shape):
    return np.cumsum(rng.uniform(0.1, 1.0, size=shape), axis=-1) - shape[-1] / 2


GAP_SHAPES = [(2,), (1,), (60,), (0, 2), (1, 2), (2048, 2), (2048, 1), (2048, 3),
              (36, 60), (0, 60), (4, 5, 2), (3, 4, 7)]


class TestGapRule:
    @pytest.mark.parametrize("shape", GAP_SHAPES)
    @pytest.mark.parametrize("check_levels", [None, 1, 2, 41])
    def test_gaps_and_thresholds_match(self, rng, shape, check_levels):
        evals = ascending(rng, shape)
        got, want = spectral_gaps(evals, check_levels), ref_spectral_gaps(evals, check_levels)
        assert type(got) is type(want) and same(got, want)
        got, want = default_gap_tol(evals), ref_default_gap_tol(evals)
        assert type(got) is type(want) and same(got, want)

    @pytest.mark.parametrize("shape", [(2,), (2048, 2), (36, 60), (4, 5, 7)])
    @pytest.mark.parametrize("flaw", ["degenerate", "nan", "nan_top"])
    def test_refusals_give_the_same_text(self, rng, shape, flaw):
        evals = ascending(rng, shape)
        flat = evals.reshape(-1, shape[-1])
        k = len(flat) // 2
        if flaw == "degenerate":
            flat[k, 1] = flat[k, 0] + 1e-12
        else:
            flat[k, -1 if flaw == "nan_top" else 0] = np.nan
        with pytest.raises(DegenerateSpectrumError) as got:
            spectral_gaps(evals)
        with pytest.raises(DegenerateSpectrumError) as want:
            ref_spectral_gaps(evals)
        assert str(got.value) == str(want.value)
        assert (got.value.level, got.value.gap, got.value.threshold) == pytest.approx(
            (want.value.level, want.value.gap, want.value.threshold), nan_ok=True)
        assert same(default_gap_tol(evals), ref_default_gap_tol(evals))
