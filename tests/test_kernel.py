"""The chunked step kernel against per-step references.

Every entry point that runs on the kernel (transport, holonomy, Wilson
loop, surface integral, NAST edges, flatness) is compared with a
straightforward per-step implementation kept here, one eigendecomposition
and one exponential per step, as the library computed them before the
kernel existed.  The ``tiny_chunks`` fixture shrinks the chunk size so
that small paths cross many chunk seams.
"""

import numpy as np
import pytest

from adiaconn import operator_core, transport
from adiaconn.connection import connection_spectral
from adiaconn.curvature import GridTooCoarseError, SurfacePatch, berry_phase_surface
from adiaconn.geometry import (
    planar_patch,
    planar_rectangle_loop,
    su2_cap_patch,
    su2_triangle_loop,
    su2_wedge_patch,
)
from adiaconn.models import DomainViolationError, ModelSpec, OscillatorModel, Su2Model
from adiaconn.nast import (
    _EdgeCache,
    lasso_holonomy,
    maurer_cartan_flatness,
    nast_residual,
    surface_ordered_product,
)
from adiaconn.operator_core import (
    DegenerateSpectrumError,
    PhaseConvention,
    default_gap_tol,
    expm_hermitian,
    fix_phase,
    frobenius,
    spectral_decompose,
)
from adiaconn.transport import (
    PathSpec,
    holonomy,
    linear_schedule,
    counterdiabatic_evolve,
    transport_operator,
    wilson_loop_phases,
)

from conftest import isospectral_model, random_polynomial_model, record_eigh_calls

TOL = 1e-12
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


# ---------------------------------------------------------------------------
# Per-step references
# ---------------------------------------------------------------------------


def ref_contracted_gradient(model, lam, delta):
    g_delta = np.zeros((model.dim, model.dim), dtype=complex)
    for g, d in zip(model.grad_h(lam), delta):
        if d != 0.0:
            g_delta += d * g
    return g_delta


def ref_step(model, mid, delta, gap_tol=None):
    spec = model.spectral_at(mid, gap_tol=gap_tol)
    gen = connection_spectral(spec, [ref_contracted_gradient(model, mid, delta)]).components[0]
    return expm_hermitian(gen, 1.0).matrix


def ref_transport(model, path, gap_tol=None):
    u = np.eye(model.dim, dtype=complex)
    for mid, delta in path.steps():
        u = ref_step(model, mid, delta, gap_tol) @ u
    return u


def ref_holonomy_phases(model, loop):
    v0 = model.spectral_at(loop.start).frame.matrix
    w = v0.conj().T @ ref_transport(model, loop) @ v0
    return np.angle(np.diag(w))


def ref_wilson(model, loop, gap_tol=None, min_overlap=0.1):
    nodes = loop.refined_points()
    if len(nodes) > 1:
        nodes = nodes[:-1]
    frames = [model.spectral_at(p, gap_tol=gap_tol).frame.matrix for p in nodes]
    product = np.ones(model.dim, dtype=complex)
    for k in range(len(frames)):
        overlaps = np.einsum("in,in->n", frames[k].conj(), frames[(k + 1) % len(frames)])
        small = np.abs(overlaps) < min_overlap
        if np.any(small):
            level = int(np.nonzero(small)[0][0])
            raise ValueError(
                f"consecutive eigenvectors nearly orthogonal at node {k} "
                f"(level {level}, |overlap| = {np.abs(overlaps[level]):.3f}); "
                "refine the loop"
            )
        product *= overlaps
    return -np.angle(product)


def ref_level_rows(model, lam, levels, pairs, gap_tol):
    evals, vecs = np.linalg.eigh(model.eval_h(lam))
    if gap_tol is None:
        gap_tol = default_gap_tol(evals)
    grads = model.grad_h(lam)
    out = np.empty((len(levels), len(pairs)))
    for row, n in enumerate(levels):
        delta = evals[n] - evals
        delta[n] = np.inf
        nearest = float(np.min(np.abs(delta)))
        if nearest < gap_tol:
            raise DegenerateSpectrumError(min(n, int(np.argmin(np.abs(delta)))), nearest, gap_tol)
        rows = [(vecs[:, n].conj() @ g) @ vecs for g in grads]
        inv2 = 1.0 / delta**2
        inv2[n] = 0.0
        for col, (mu, nu) in enumerate(pairs):
            out[row, col] = -2.0 * float(np.sum(np.imag(rows[mu] * rows[nu].conj()) * inv2))
    return out


def ref_surface_integral(model, patch, levels, nu_grid, nv_grid, gap_tol=None):
    n = model.n_params
    all_pairs = [(mu, nu) for mu in range(n) for nu in range(mu + 1, n)]
    du, dv = 1.0 / nu_grid, 1.0 / nv_grid
    total = np.zeros(len(levels))
    for i in range(nu_grid):
        u = (i + 0.5) * du
        for j in range(nv_grid):
            v = (j + 0.5) * dv
            t_u = (patch.point(u + 0.5 * du, v) - patch.point(u - 0.5 * du, v)) / du
            t_v = (patch.point(u, v + 0.5 * dv) - patch.point(u, v - 0.5 * dv)) / dv
            jac = [t_u[mu] * t_v[nu] - t_v[mu] * t_u[nu] for mu, nu in all_pairs]
            live = [k for k, j_k in enumerate(jac) if j_k != 0.0]
            if not live:
                continue
            w = ref_level_rows(model, patch.point(u, v), levels,
                               [all_pairs[k] for k in live], gap_tol)
            total += (w @ np.asarray([jac[k] for k in live])) * (du * dv)
    return total


class RefEdges:
    def __init__(self, model, patch, r=2):
        self.model, self.patch, self.r = model, patch, r
        self.nu, self.nv = patch.grid

    def edge(self, uv_from, uv_to):
        u = np.eye(self.model.dim, dtype=complex)
        uv_from, uv_to = np.asarray(uv_from, dtype=float), np.asarray(uv_to, dtype=float)
        for k in range(self.r):
            a = self.patch.point(*(uv_from + (uv_to - uv_from) * (k / self.r)))
            b = self.patch.point(*(uv_from + (uv_to - uv_from) * ((k + 1) / self.r)))
            if np.linalg.norm(b - a) == 0.0:
                continue
            mid = self.patch.point(*(uv_from + (uv_to - uv_from) * ((k + 0.5) / self.r)))
            u = ref_step(self.model, mid, b - a) @ u
        return u

    def horizontal(self, i, j):
        return self.edge((i / self.nu, j / self.nv), ((i + 1) / self.nu, j / self.nv))

    def vertical(self, i, j):
        return self.edge((i / self.nu, j / self.nv), (i / self.nu, (j + 1) / self.nv))

    def cell_loop(self, i, j):
        return (self.vertical(i, j).conj().T @ self.horizontal(i, j + 1).conj().T
                @ self.vertical(i + 1, j) @ self.horizontal(i, j))

    def tail(self, i, j):
        u = np.eye(self.model.dim, dtype=complex)
        for k in range(i):
            u = self.horizontal(k, 0) @ u
        for k in range(j):
            u = self.vertical(i, k) @ u
        return u


def ref_surface_ordered_product(model, patch):
    edges = RefEdges(model, patch)
    total = np.eye(model.dim, dtype=complex)
    for i in range(edges.nu):
        strip = np.eye(model.dim, dtype=complex)
        for j in range(edges.nv):
            tail = edges.tail(i, j)
            strip = tail.conj().T @ edges.cell_loop(i, j) @ tail @ strip
        total = total @ strip
    return total


def ref_ordered_products(model, mids, deltas, lengths):
    out, step = [], 0
    for n in lengths:
        u = np.eye(model.dim, dtype=complex)
        for k in range(step, step + n):
            u = ref_step(model, mids[k], deltas[k]) @ u
        out.append(u)
        step += n
    return np.array(out)


def ref_fishbone(edges):
    """The fishbone product and every lasso of an edge cache, one cell at
    a time."""
    h, v = edges._h, edges._v
    eye = np.eye(h.shape[-1], dtype=complex)
    lassos = np.empty((edges.nu, edges.nv) + eye.shape, dtype=complex)
    total, bottom = eye, eye
    for i in range(edges.nu):
        tail, strip = bottom, eye
        for j in range(edges.nv):
            loop = v[i, j].conj().T @ h[i, j + 1].conj().T @ v[i + 1, j] @ h[i, j]
            lassos[i, j] = tail.conj().T @ loop @ tail
            strip = lassos[i, j] @ strip
            tail = v[i, j] @ tail
        total = total @ strip
        bottom = h[i, 0] @ bottom
    return total, lassos


def ref_flatness(model, loop, t):
    u = np.eye(model.dim, dtype=complex)
    for mid, delta in loop.steps():
        spec = model.spectral_at(mid)
        g_eig = spec.to_eigenbasis(ref_contracted_gradient(model, mid, delta))
        d_e = spec.eigenvalues[:, None] - spec.eigenvalues[None, :]
        kernel = np.zeros_like(g_eig)
        mask = d_e != 0.0
        kernel[mask] = 1j * (1.0 - np.exp(-1j * t * d_e[mask])) / d_e[mask]
        omega = g_eig * kernel
        np.fill_diagonal(omega, -t * np.real(np.diag(g_eig)))
        u = expm_hermitian(spec.from_eigenbasis(omega), 1.0).matrix @ u
    return frobenius(u - np.eye(model.dim))


def ref_fix_phase(frame):
    v = np.array(frame, dtype=complex)
    for n in range(v.shape[1]):
        col = v[:, n]
        z = col[int(np.argmax(np.abs(col)))]
        v[:, n] = col * (z.conjugate() / abs(z))
    return v


def wrapped(a, b):
    return np.max(np.abs(np.angle(np.exp(1j * (np.asarray(a) - np.asarray(b))))))


# ---------------------------------------------------------------------------
# Models and geometry
# ---------------------------------------------------------------------------


@pytest.fixture
def tiny_chunks(monkeypatch):
    monkeypatch.setattr(transport, "CHUNK_MATRICES", 7)


OSC_ORIGIN = np.array([2.0, 0.3, 1.4])
OSC_EDGES = (np.array([0.0, 0.25, 0.0]), np.array([0.0, 0.0, 0.25]))


def small_oscillator():
    return OscillatorModel(14, 4)


def crossing_model():
    """H = l1 sz + l2 sx: degenerate at the origin only."""
    return ModelSpec(dim=2, param_names=("l1", "l2"),
                     terms=(((1, 0), SZ), ((0, 1), SX))).to_model()


def loop_cases(rng):
    """(model, closed loop) pairs covering the vectorized models, the
    per-point fallback and finite-difference gradients."""
    return [
        (Su2Model(0.5), su2_triangle_loop(1.1, refinement=25)),
        (Su2Model(1.0), su2_triangle_loop(0.8, refinement=11)),
        (small_oscillator(), planar_rectangle_loop(OSC_ORIGIN, *OSC_EDGES, refinement=6)),
        (random_polynomial_model(rng),
         planar_rectangle_loop([0.0, 0.0], [0.3, 0.0], [0.0, 0.25], refinement=9)),
        (isospectral_model(rng),
         planar_rectangle_loop([0.1, 0.0], [0.2, 0.0], [0.0, 0.2], refinement=5)),
    ]


def patch_cases(rng):
    return [
        (Su2Model(0.5), su2_wedge_patch(1.2, grid=(9, 7))),
        (Su2Model(1.0), su2_cap_patch(0.9, grid=(6, 8))),
        (small_oscillator(), planar_patch(OSC_ORIGIN, *OSC_EDGES, grid=(5, 4))),
        (random_polynomial_model(rng), planar_patch([0.0, 0.0], [0.3, 0.0], [0.0, 0.25], grid=(6, 5))),
        (isospectral_model(rng), planar_patch([0.1, 0.0], [0.2, 0.0], [0.0, 0.2], grid=(4, 3))),
    ]


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("tiny_chunks")
class TestPathEquivalence:
    def test_transport_operator(self, rng):
        for model, loop in loop_cases(rng):
            open_path = PathSpec(loop.samples[:3], refinement=loop.refinement)
            result = transport_operator(model, open_path)
            assert np.max(np.abs(result.operator.matrix - ref_transport(model, open_path))) <= TOL

    def test_holonomy(self, rng):
        for model, loop in loop_cases(rng):
            got = holonomy(model, loop)
            assert np.max(np.abs(got.operator.matrix - ref_transport(model, loop))) <= TOL
            assert wrapped(got.phases, ref_holonomy_phases(model, loop)) <= TOL

    def test_wilson_loop_phases(self, rng):
        for model, loop in loop_cases(rng):
            assert wrapped(wilson_loop_phases(model, loop), ref_wilson(model, loop)) <= TOL

    def test_wilson_closes_across_a_seam(self, su2_half):
        # 4 * 7 = 28 nodes fill four chunks exactly, 4 * 8 = 32 do not: the
        # closing overlap pairs the last chunk with the first frame
        for refinement in (7, 8):
            loop = su2_triangle_loop(1.0, refinement=refinement)
            assert wrapped(wilson_loop_phases(su2_half, loop), ref_wilson(su2_half, loop)) <= TOL

    def test_flatness(self, rng):
        for model, loop in loop_cases(rng)[:2] + loop_cases(rng)[3:4]:
            assert abs(maurer_cartan_flatness(model, loop, 1.7) - ref_flatness(model, loop, 1.7)) <= TOL

    def test_zero_step_path(self, su2_half):
        point = PathSpec(np.array([[1.0, 0.7, 0.2]]), closed=True, refinement=10)
        assert np.array_equal(transport_operator(su2_half, point).operator.matrix, np.eye(2))
        assert np.max(np.abs(holonomy(su2_half, point).phases)) <= TOL
        assert np.array_equal(wilson_loop_phases(su2_half, point), ref_wilson(su2_half, point))


@pytest.mark.usefixtures("tiny_chunks")
class TestSurfaceEquivalence:
    def test_berry_phase_surface(self, rng):
        for model, patch in patch_cases(rng):
            levels = list(range(min(model.dim, 3)))
            got = berry_phase_surface(model, patch, levels)
            want = ref_surface_integral(model, patch, levels, *patch.grid)
            assert np.max(np.abs(got - want)) <= TOL

    def test_refine_check(self, su2_half):
        patch = su2_wedge_patch(1.2, grid=(5, 4))
        finer = ref_surface_integral(su2_half, patch, [1], 10, 8)
        got = berry_phase_surface(su2_half, patch, 1, refine_check_tol=1.0)
        assert abs(got - finer[0]) <= TOL
        with pytest.raises(GridTooCoarseError):
            berry_phase_surface(su2_half, patch, 1, refine_check_tol=1e-12)

    def test_surface_ordered_product(self, rng):
        for model, patch in patch_cases(rng):
            got = surface_ordered_product(model, patch).operator.matrix
            assert np.max(np.abs(got - ref_surface_ordered_product(model, patch))) <= TOL

    def test_lasso_holonomy(self, rng):
        for model, patch in patch_cases(rng)[:2] + patch_cases(rng)[3:]:
            edges = RefEdges(model, patch)
            for cell in [(0, 0), (patch.grid[0] - 1, patch.grid[1] - 1), (2, 1)]:
                tail = edges.tail(*cell)
                want = tail.conj().T @ edges.cell_loop(*cell) @ tail
                got = lasso_holonomy(model, patch, cell).value.matrix
                assert np.max(np.abs(got - want)) <= TOL

    def test_nast_residual(self, rng):
        for model, patch in patch_cases(rng)[:2] + patch_cases(rng)[3:4]:
            boundary = ref_transport(model, patch.boundary_path(3))
            want = frobenius(ref_surface_ordered_product(model, patch) - boundary)
            assert abs(nast_residual(model, patch, boundary_refinement=3) - want) <= TOL


class TestFixPhase:
    def test_bit_identical_to_column_loop(self, rng):
        for dim in (2, 3, 5, 60):
            for _ in range(20):
                frame = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
                assert np.array_equal(fix_phase(frame).matrix, ref_fix_phase(frame))

    def test_ties_keep_the_lowest_index(self):
        frame = np.exp(0.4j) * np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        assert np.array_equal(fix_phase(frame).matrix, ref_fix_phase(frame))

    def test_zero_column_named(self):
        frame = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="column 1 is zero"):
            fix_phase(frame)
        with pytest.raises(ValueError, match="column 1 is zero"):
            fix_phase(frame, PhaseConvention(rule="first-nonzero-real-positive"))


# ---------------------------------------------------------------------------
# Error parity on the batched path
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("tiny_chunks")
class TestErrorParity:
    def test_degeneracy_mid_path(self):
        model = crossing_model()
        # the midpoint of step 13 (of 27) sits exactly on the crossing
        path = PathSpec(np.array([[-1.0, 0.0], [1.0, 0.0]]), refinement=27)
        with pytest.raises(DegenerateSpectrumError) as batched:
            transport_operator(model, path)
        with pytest.raises(DegenerateSpectrumError) as reference:
            ref_transport(model, path)
        assert (batched.value.level, batched.value.gap) == (reference.value.level,
                                                             reference.value.gap)

    def test_degenerate_wilson_node(self):
        model = crossing_model()
        loop = PathSpec(np.array([[-1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [-1.0, 0.0]]),
                        closed=True, refinement=10)
        with pytest.raises(DegenerateSpectrumError):
            wilson_loop_phases(model, loop)

    def test_leaving_the_domain(self, su2_half, oscillator):
        path = PathSpec(np.array([[0.5, 1.0, 0.0], [-0.5, 1.0, 0.0]]), refinement=20)
        with pytest.raises(DomainViolationError):
            transport_operator(su2_half, path)
        squeeze = PathSpec(np.array([[1.0, 0.0, 1.0], [1.0, 0.0, -1.0], [1.0, 0.0, 1.0]]),
                           closed=True, refinement=20)
        with pytest.raises(DomainViolationError):
            wilson_loop_phases(oscillator, squeeze)

    def test_oscillator_clustering_above_trusted_levels(self):
        class ClusteredTop(OscillatorModel):
            """Top Fock level pulled down onto the one below it."""

            shift = np.diag([0.0] * 11 + [-1.0])

            def _evaluate_batch(self, lams, directions):
                h, g = super()._evaluate_batch(lams, directions)
                return h + self.shift, g

        model = ClusteredTop(12, 4)
        gap_tol = 1e-3
        loop = planar_rectangle_loop([1.0, 0.0, 1.0], [0.0, 1e-5, 0.0], [0.0, 0.0, 1e-5],
                                     refinement=4)
        with pytest.raises(DegenerateSpectrumError):
            spectral_decompose(model.eval_h(loop.start), gap_tol=gap_tol)
        holonomy(model, loop, gap_tol=gap_tol)
        wilson_loop_phases(model, loop, gap_tol=gap_tol, min_overlap=0.0)
        assert model.spectral_at(loop.start, gap_tol=gap_tol).min_gap > 0.5

    def test_wilson_guard_skips_untrusted_levels(self):
        class ClusteredTop(OscillatorModel):
            """Top Fock level pulled down onto the one below it."""

            shift = np.diag([0.0] * 11 + [-1.0])

            def _evaluate_batch(self, lams, directions):
                h, g = super()._evaluate_batch(lams, directions)
                return h + self.shift, g

        model = ClusteredTop(12, 4)
        loop = planar_rectangle_loop([1.0, 0.0, 1.0], [0.0, 1e-5, 0.0], [0.0, 0.0, 1e-5],
                                     refinement=4)
        # default min_overlap: the mixing levels 10 and 11 lie above check_levels
        phases = wilson_loop_phases(model, loop, gap_tol=1e-3)
        trusted = holonomy(model, loop, gap_tol=1e-3).phases[:model.trust_levels]
        assert np.max(np.abs(phases[:model.trust_levels] - trusted)) <= 1e-14
        assert np.all(trusted < 0.0)

    def test_surface_skips_cells_without_jacobian(self, su2_half):
        wedge = su2_wedge_patch(1.0)

        def chart(u, v):
            # the left half collapses onto a point outside the model domain
            return np.where(u <= 0.5, [-1.0, 0.0, 0.0], wedge.chart(u, v))

        patch = SurfacePatch(chart=chart, grid=(4, 6))
        got = berry_phase_surface(su2_half, patch, [0, 1])
        assert np.max(np.abs(got - ref_surface_integral(su2_half, patch, [0, 1], 4, 6))) <= TOL
        assert np.all(got != 0.0)

    @pytest.mark.parametrize("thetas", [[0.01, 0.02, 0.03, 0.05, 3.1],  # seam pair 3 -> 4
                                        [0.05, 0.04, 0.03, 0.02, 0.01, 0.02, 3.1]])
    def test_near_orthogonal_wilson_step(self, su2_half, thetas, monkeypatch):
        monkeypatch.setattr(transport, "CHUNK_MATRICES", 4)
        samples = np.array([[1.0, th, 0.3] for th in thetas + thetas[:1]])
        loop = PathSpec(samples, closed=True, refinement=1)
        with pytest.raises(ValueError) as reference:
            ref_wilson(su2_half, loop)
        with pytest.raises(ValueError) as batched:
            wilson_loop_phases(su2_half, loop)
        assert str(batched.value) == str(reference.value)


def test_spectral_decompose_check_levels():
    h = np.diag([0.0, 1.0, 3.0, 3.0])
    with pytest.raises(DegenerateSpectrumError) as err:
        spectral_decompose(h)
    assert err.value.level == 2
    assert spectral_decompose(h, check_levels=3).min_gap == 1.0


def test_drive_reuses_decompositions():
    class Counting(Su2Model):
        calls = 0

        def spectral_at(self, lam, gap_tol=None, convention=PhaseConvention()):
            Counting.calls += 1
            return super().spectral_at(lam, gap_tol, convention)

    sched = linear_schedule([1.0, 0.0, 0.4], [1.0, 1.2, 0.4], 0.5)
    counterdiabatic_evolve(Counting(0.5), sched, n0=1, dt=5e-3)
    # 100 steps: two fresh points per step, plus the first point of a step
    # whenever it differs in the last bit from the end of the step before;
    # without reuse there were four per step
    assert 2 * 100 + 1 <= Counting.calls <= 3 * 100 + 1


class TestBlockKernel:
    """The step kernel splits by the joint nonzero pattern of H and the
    step-contracted gradient, one block at a time."""

    def test_diagonal_h_with_coupling_step(self):
        # at the origin H is diagonal, but the step along l1 couples
        # levels 0 and 1: the joint blocks are {0, 1} and {2}, while H
        # alone would split into three 1x1 blocks and miss the rotation
        m01 = np.zeros((3, 3), dtype=complex)
        m01[0, 1], m01[1, 0] = 0.4 - 0.3j, 0.4 + 0.3j
        m12 = np.zeros((3, 3), dtype=complex)
        m12[1, 2], m12[2, 1] = 0.2j, -0.2j
        model = ModelSpec(dim=3, param_names=("l1", "l2"), terms=(
            ((0, 0), np.diag([0.0, 1.0, 2.5]).astype(complex)),
            ((1, 0), m01), ((0, 1), m12))).to_model()
        mid, delta = np.zeros((1, 2)), np.array([[0.05, 0.0]])
        h, g = model.eval_batch(mid, delta[:, None])
        assert len(operator_core.split_blocks(h)) == 3
        assert [list(b.index) for b in operator_core.split_blocks(h, g[:, 0])] == [[0, 1], [2]]
        got = transport.ordered_products(model, mid, delta, [1])[0]
        ref = ref_step(model, mid[0], delta[0])
        assert np.max(np.abs(got - ref)) <= TOL
        assert abs(got[0, 1]) > 1e-3 and got[0, 2] == 0 and got[1, 2] == 0

    def test_oscillator_matches_dense_path(self, oscillator, monkeypatch):
        loop = planar_rectangle_loop(OSC_ORIGIN, *OSC_EDGES, refinement=6)
        patch = planar_patch(OSC_ORIGIN, *OSC_EDGES, grid=(2, 2))

        def outputs():
            return (transport_operator(oscillator, loop).operator.matrix,
                    nast_residual(oscillator, patch, boundary_refinement=2),
                    maurer_cartan_flatness(oscillator, loop, 1.7))

        blocked = outputs()
        monkeypatch.setattr(operator_core, "_pattern_blocks", lambda pattern, dim: None)
        dense = outputs()
        for b, d in zip(blocked, dense):
            assert np.max(np.abs(b - d)) <= TOL

    def test_one_eigh_per_block_per_chunk(self, oscillator, tiny_chunks, monkeypatch):
        mids, deltas = planar_rectangle_loop(OSC_ORIGIN, *OSC_EDGES, refinement=3).step_arrays()
        calls = record_eigh_calls(monkeypatch)
        transport.ordered_products(oscillator, mids, deltas, [len(mids)])
        # 12 steps in chunks of 7 and 5; per chunk each parity sector is
        # decomposed once as a real tree block and exponentiated once
        assert calls == [((k, 30, 30), dtype) for k in (7, 5)
                         for dtype in (np.float64, np.float64, np.complex128, np.complex128)]


@pytest.mark.usefixtures("tiny_chunks")
class TestOrderedProducts:
    """Segments reduced by levels within each chunk, against a sequential
    product of per-step factors."""

    @staticmethod
    def lengths(steps):
        # zero-length segments first, in the middle and last; segments of
        # length 1; one segment across two or more chunks of 7
        return [0, 1, 3, 0, 0, steps - 12, 1, 2, 5, 0]

    def test_segments_against_sequential_steps(self, rng):
        for model, loop in loop_cases(rng):
            mids, deltas = loop.step_arrays()
            lengths = self.lengths(len(mids))
            got = transport.ordered_products(model, mids, deltas, lengths)
            assert np.max(np.abs(got - ref_ordered_products(model, mids, deltas, lengths))) <= TOL
            for s in np.flatnonzero(np.array(lengths) == 0):
                assert np.array_equal(got[s], np.eye(model.dim))

    @pytest.mark.parametrize("lengths", [[1.9, 1.9], [0.5, 1.5], [3, -1], [3], [1, 1, 1]])
    def test_rejects_bad_lengths(self, su2_half, lengths):
        mids, deltas = su2_triangle_loop(1.0, refinement=1).step_arrays()
        with pytest.raises(ValueError, match="segment lengths"):
            transport.ordered_products(su2_half, mids[:2], deltas[:2], lengths)

    def test_split_oscillator_against_dense_path(self, oscillator, monkeypatch):
        mids, deltas = planar_rectangle_loop(OSC_ORIGIN, *OSC_EDGES, refinement=6).step_arrays()
        lengths = self.lengths(len(mids))
        blocked = transport.ordered_products(oscillator, mids, deltas, lengths)
        # levels of opposite Fock parity stay exactly uncoupled
        assert not np.any(blocked[:, ::2, 1::2]) and not np.any(blocked[:, 1::2, ::2])
        monkeypatch.setattr(operator_core, "_pattern_blocks", lambda pattern, dim: None)
        dense = transport.ordered_products(oscillator, mids, deltas, lengths)
        assert np.max(np.abs(blocked - dense)) <= TOL

    def test_surface_ordered_product_against_cell_loop(self, su2_half, su2_one):
        for model, patch, exact in [
                (su2_half, su2_wedge_patch(1.2, grid=(9, 7)), True),
                (su2_one, su2_cap_patch(0.9, grid=(6, 8)), True),
                (small_oscillator(), planar_patch(OSC_ORIGIN, *OSC_EDGES, grid=(5, 4)), False)]:
            total, lassos = ref_fishbone(_EdgeCache(model, patch))
            got = surface_ordered_product(model, patch).operator.matrix
            lasso = lasso_holonomy(model, patch, (2, 3)).value.matrix
            if exact:
                assert np.array_equal(got, total) and np.array_equal(lasso, lassos[2, 3])
            else:
                assert np.max(np.abs(got - total)) <= TOL
                assert np.max(np.abs(lasso - lassos[2, 3])) <= TOL
