"""The chunked step kernel against per-step references.

Every entry point that runs on the kernel (transport, holonomy, Wilson
loop, surface integral, NAST edges, flatness) is compared with a
straightforward per-step implementation kept here, one eigendecomposition
and one exponential per step, as the library computed them before the
kernel existed.  The ``tiny_chunks`` fixture shrinks the chunk size so
that small paths cross many chunk seams.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from adiaconn import operator_core, transport
from adiaconn.connection import connection_spectral, connection_weight, contract_stack
from adiaconn.curvature import GridTooCoarseError, SurfacePatch, berry_phase_surface
from adiaconn.geometry import (
    planar_patch,
    planar_rectangle_loop,
    su2_cap_patch,
    su2_triangle_loop,
    su2_wedge_patch,
)
from adiaconn.models import (
    DomainViolationError,
    ModelFileError,
    ModelSpec,
    OscillatorModel,
    Su2Model,
    parse_model_file,
)
from adiaconn.nast import (
    _grid_edges,
    lasso_holonomy,
    maurer_cartan_flatness,
    nast_residual,
    surface_ordered_product,
)
from adiaconn.operator_core import (
    DegenerateSpectrumError,
    default_gap_tol,
    expm_hermitian,
    fix_phase,
    frobenius,
    matmul,
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

from conftest import (
    isospectral_model,
    one_block,
    random_hermitian,
    random_polynomial_model,
    record_eigh_calls,
)

TOL = 1e-12
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
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


def ref_step(model, mid, delta):
    spec = model.spectral_at(mid)
    gen = connection_spectral(spec, [ref_contracted_gradient(model, mid, delta)]).components[0]
    return expm_hermitian(gen, 1.0).matrix


def ref_transport(model, path):
    u = np.eye(model.dim, dtype=complex)
    for mid, delta in zip(*path.step_arrays()):
        u = ref_step(model, mid, delta) @ u
    return u


def ref_holonomy_phases(model, loop):
    v0 = model.spectral_at(loop.start).frame.matrix
    w = v0.conj().T @ ref_transport(model, loop) @ v0
    return np.angle(np.diag(w))


def ref_wilson(model, loop):
    nodes = loop.refined_points()
    if len(nodes) > 1:
        nodes = nodes[:-1]
    frames = [model.spectral_at(p).frame.matrix for p in nodes]
    product = np.ones(model.dim, dtype=complex)
    for k in range(len(frames)):
        overlaps = np.einsum("in,in->n", frames[k].conj(), frames[(k + 1) % len(frames)])
        small = np.abs(overlaps) < 0.1
        if np.any(small):
            level = int(np.nonzero(small)[0][0])
            raise ValueError(
                f"consecutive eigenvectors nearly orthogonal at node {k} "
                f"(level {level}, |overlap| = {np.abs(overlaps[level]):.3f}); "
                "refine the loop"
            )
        product *= overlaps
    return -np.angle(product)


def ref_level_rows(model, lam, levels, pairs):
    evals, vecs = np.linalg.eigh(model.eval_h(lam))
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


def ref_surface_integral(model, patch, levels, nu_grid, nv_grid):
    n = model.n_params
    all_pairs = [(mu, nu) for mu in range(n) for nu in range(mu + 1, n)]
    t_u, t_v = patch.edge_u, patch.edge_v
    jac = [t_u[mu] * t_v[nu] - t_v[mu] * t_u[nu] for mu, nu in all_pairs]
    live = [k for k, j_k in enumerate(jac) if j_k != 0.0]
    du, dv = 1.0 / nu_grid, 1.0 / nv_grid
    total = np.zeros(len(levels))
    for i in range(nu_grid):
        u = (i + 0.5) * du
        for j in range(nv_grid):
            v = (j + 0.5) * dv
            w = ref_level_rows(model, patch.point(u, v), levels,
                               [all_pairs[k] for k in live])
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


def ref_run_products(factors, lengths):
    """The ordered product of every run by a gather reduction: each level
    gathers the pairs of every run by index arrays, multiplies them and
    compresses the stack."""
    lengths = np.asarray(lengths)
    while len(factors) > len(lengths):
        pairs, odd = np.divmod(lengths, 2)
        left = 2 * np.arange(pairs.sum()) + np.repeat(np.cumsum(odd) - odd, pairs)
        factors[left] = matmul(factors[left + 1], factors[left])
        keep = np.ones(len(factors), dtype=bool)
        keep[left + 1] = False
        factors, lengths = factors[keep], pairs + odd
    return factors


def ref_fishbone(h, v):
    """The fishbone product and every lasso of the grid edges ``h`` and
    ``v``, one cell at a time.  The lassos use the library's product
    (unrolled for 2x2 matrices, ``@`` otherwise), so that the stacked
    lassos can be held to them bit for bit."""
    nu, nv = v.shape[0] - 1, v.shape[1]
    eye = np.eye(h.shape[-1], dtype=complex)
    lassos = np.empty((nu, nv) + eye.shape, dtype=complex)
    total, bottom = eye, eye
    for i in range(nu):
        tail, strip = bottom, eye
        for j in range(nv):
            loop = matmul(matmul(matmul(v[i, j].conj().T, h[i, j + 1].conj().T),
                                 v[i + 1, j]), h[i, j])
            lassos[i, j] = matmul(matmul(tail.conj().T, loop), tail)
            strip = lassos[i, j] @ strip
            tail = matmul(v[i, j], tail)
        total = total @ strip
        bottom = h[i, 0] @ bottom
    return total, lassos


def ref_flatness(model, loop, t):
    u = np.eye(model.dim, dtype=complex)
    for mid, delta in zip(*loop.step_arrays()):
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

    def test_non_hermitian_override_is_refused(self):
        class UpperEntry(Su2Model):
            """An extra entry above the diagonal only: not Hermitian."""

            def _evaluate_batch(self, lams, directions):
                h, g = super()._evaluate_batch(lams, directions)
                h[:, 0, 1] += 0.3
                return h, g

        model = UpperEntry(0.5)
        loop = planar_rectangle_loop([1.0, 0.6, 0.2], [0.0, 0.5, 0.0], [0.0, 0.0, 0.7],
                                     refinement=10)
        patch = planar_patch([1.0, 0.6, 0.2], [0.0, 0.5, 0.0], [0.0, 0.0, 0.7], grid=(4, 4))
        for run in (lambda: model.spectral_at(loop.start), lambda: holonomy(model, loop),
                    lambda: wilson_loop_phases(model, loop),
                    lambda: berry_phase_surface(model, patch, 0)):
            with pytest.raises(ValueError, match="Hamiltonian is not Hermitian at"):
                run()

    def test_non_hermitian_gradient_is_refused(self, su2_half):
        class UpperGradient(Su2Model):
            """An extra entry above the diagonal of every gradient only."""

            def _evaluate_batch(self, lams, directions):
                h, g = super()._evaluate_batch(lams, directions)
                g[..., 0, 1] += 0.3
                return h, g

        model = UpperGradient(0.5)
        loop = planar_rectangle_loop([1.0, 0.6, 0.2], [0.0, 0.5, 0.0], [0.0, 0.0, 0.7],
                                     refinement=10)
        cap = su2_cap_patch(1.0, grid=(4, 4))
        first_mid = loop.step_arrays()[0][0]
        with pytest.raises(ValueError) as err:
            holonomy(model, loop)
        assert str(err.value) == f"Hamiltonian gradient is not Hermitian at {first_mid.tolist()}"
        first_centre = cap.point(0.125, 0.125)
        with pytest.raises(ValueError) as err:
            berry_phase_surface(model, cap, [0, 1])
        assert str(err.value) == f"Hamiltonian gradient is not Hermitian at {first_centre.tolist()}"
        # the Wilson loop reads no gradient: the phases of the honest model
        assert np.array_equal(wilson_loop_phases(model, loop), wilson_loop_phases(su2_half, loop))

    def test_path_and_surface_share_one_degeneracy_rule(self):
        # levels 1 and 2 tie everywhere: the surface refuses the patch even
        # for level 0, as the path kernels refuse its boundary
        from adiaconn.models import constant_model

        evals = np.array([1.0, 2.0, 2.0])
        model = constant_model(np.diag(evals).astype(complex), n_params=2)
        patch = planar_patch([0.0, 0.0], [1.0, 0.0], [0.0, 1.0], grid=(2, 2))
        loop = patch.boundary_path()
        runs = (lambda: berry_phase_surface(model, patch, 0),
                lambda: holonomy(model, loop).phases, lambda: wilson_loop_phases(model, loop))
        for run in runs:
            with pytest.raises(DegenerateSpectrumError) as err:
                run()
            assert ((err.value.level, err.value.gap, err.value.threshold)
                    == (1, 0.0, default_gap_tol(evals)))
        model.check_levels = 2  # the tie now lies above the checked levels, and
        # levels above them are not guarded on the surface either
        for run in runs[1:] + (lambda: berry_phase_surface(model, patch, [0, 1, 2]),):
            assert np.all(run() == 0.0)

    def test_one_sweep_decomposes_every_chunk(self):
        # every chunked kernel evaluates and decomposes through one sweep,
        # which applies the degeneracy rule; spectral_at is the one-point case
        src = Path(__file__).resolve().parents[1] / "src" / "adiaconn"
        callers = []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text())
            scope = {}
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for inner in ast.walk(node):
                        scope[inner] = node.name  # innermost function wins
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    if name in ("_kernel_batch", "decompose_blocks"):
                        callers.append((name, path.name, scope.get(node)))
        assert sorted(callers) == [
            ("_kernel_batch", "models.py", "spectral_at"),
            ("_kernel_batch", "transport.py", "_decomposed_chunks"),
            ("decompose_blocks", "models.py", "spectral_at"),
            ("decompose_blocks", "transport.py", "_decomposed_chunks"),
        ]

    def test_oscillator_clustering_above_trusted_levels(self):
        class ClusteredTop(OscillatorModel):
            """Top Fock level pulled down onto the one below it."""

            shift = np.diag([0.0] * 11 + [-1.0])

            def _evaluate_batch(self, lams, directions):
                h, g = super()._evaluate_batch(lams, directions)
                return h + self.shift, g

        model = ClusteredTop(12, 4)
        loop = planar_rectangle_loop([1.0, 0.0, 1.0], [0.0, 1e-5, 0.0], [0.0, 0.0, 1e-5],
                                     refinement=4)
        with pytest.raises(DegenerateSpectrumError):
            spectral_decompose(model.eval_h(loop.start))
        holonomy(model, loop)
        wilson_loop_phases(model, loop)
        assert model.spectral_at(loop.start).min_gap > 0.5

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
        # the mixing levels 10 and 11 lie above check_levels
        phases = wilson_loop_phases(model, loop)
        trusted = holonomy(model, loop).phases[:model.trust_levels]
        assert np.max(np.abs(phases[:model.trust_levels] - trusted)) <= 1e-14
        assert np.all(trusted < 0.0)

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


@pytest.mark.parametrize("chunk", [7, 2048])
def test_non_finite_connection_names_its_point(su2_half, monkeypatch, chunk):
    # a weight that is NaN wherever the level spacing B exceeds 1.5: the
    # first such midpoint, mid-chunk for chunks of 7, is the one named
    monkeypatch.setattr(transport, "CHUNK_MATRICES", chunk)
    path = PathSpec(np.array([[1.0, 0.7, 0.3], [2.0, 0.7, 0.3]]), refinement=40)
    mids, deltas = path.step_arrays()

    def weight(delta):
        return np.where(np.abs(delta) > 1.5, np.nan, connection_weight(delta))

    first = mids[np.argmax(mids[:, 0] > 1.5)]
    with pytest.raises(ValueError) as err:
        transport.ordered_products(su2_half, mids, deltas, [len(mids)], weight=weight)
    assert str(err.value) == f"non-finite connection at {first.tolist()}"


class InfiniteCoupling(Su2Model):
    """Spin 1/2 with a finite H and an infinite gradient entry."""

    def _evaluate_batch(self, lams, directions):
        h, g = super()._evaluate_batch(lams, directions)
        g[..., 0, 1] = np.inf
        return h, g


class TestNonFiniteGradient:
    """A non-finite gradient fails closed with a named ValueError, before
    any arithmetic on it can warn or return NaN."""

    def test_surface(self):
        patch = SurfacePatch([1.0, 0.0, 0.0], [0.0, np.pi / 2, 0.0], [0.0, 0.0, 1.0], grid=(4, 4))
        with pytest.raises(ValueError, match="Hamiltonian gradient has non-finite entries"):
            berry_phase_surface(InfiniteCoupling(0.5), patch, [0, 1])

    def test_holonomy(self):
        with pytest.raises(ValueError, match="Hamiltonian gradient has non-finite entries"):
            holonomy(InfiniteCoupling(0.5), su2_triangle_loop(1.0, refinement=10))

    def test_connection_spectral(self):
        model, lam = InfiniteCoupling(0.5), [1.0, 1.0, 0.3]
        with pytest.raises(ValueError, match="connection_spectral requires finite gradients"):
            connection_spectral(model.spectral_at(lam), model.grad_h(lam))


def test_spectral_decompose_check_levels():
    h = np.diag([0.0, 1.0, 3.0, 3.0])
    with pytest.raises(DegenerateSpectrumError) as err:
        spectral_decompose(h)
    assert err.value.level == 2
    assert spectral_decompose(h, check_levels=3).min_gap == 1.0


def test_drive_reuses_decompositions(monkeypatch):
    evaluations, decompositions = [], []
    eval_batch, decompose = Su2Model.eval_batch, transport.spectral_decompose

    def evaluating(self, lams, directions=None):
        evaluations.append(len(lams))
        return eval_batch(self, lams, directions)

    def decomposing(h, check_levels=None):
        decompositions.append(check_levels)
        return decompose(h, check_levels=check_levels)

    monkeypatch.setattr(Su2Model, "eval_batch", evaluating)
    monkeypatch.setattr(transport, "spectral_decompose", decomposing)
    sched = linear_schedule([1.0, 0.0, 0.4], [1.0, 1.2, 0.4], 0.5)
    counterdiabatic_evolve(Su2Model(0.5), sched, n0=1, dt=5e-3)
    # 100 steps: two fresh points per step, plus the first point of a step
    # whenever it differs in the last bit from the end of the step before;
    # without reuse there were four per step.  H is evaluated once per RK4
    # stage and once for the start frame: the record after a step
    # decomposes the H of the step's last stage.
    assert 2 * 100 + 1 <= len(decompositions) <= 3 * 100 + 1
    assert len(evaluations) == 3 * 100 + 1
    del evaluations[:], decompositions[:]
    counterdiabatic_evolve(Su2Model(0.5), sched, n0=1, dt=5e-3, include_cd=False)
    # without the connection only the records decompose
    assert len(decompositions) == 100 + 1
    assert 2 * 100 + 1 <= len(evaluations) <= 3 * 100 + 1


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
        ran_as_one_block = one_block(monkeypatch, oscillator)
        dense = outputs()
        assert ran_as_one_block()
        for b, d in zip(blocked, dense):
            assert np.max(np.abs(b - d)) <= TOL

    def test_one_eigh_per_block_per_chunk(self, oscillator, tiny_chunks, monkeypatch):
        mids, deltas = planar_rectangle_loop(OSC_ORIGIN, *OSC_EDGES, refinement=3).step_arrays()
        calls = record_eigh_calls(monkeypatch)
        transport.ordered_products(oscillator, mids, deltas, [len(mids)])
        # 12 steps in chunks of 7 and 5; per chunk each parity sector is
        # decomposed once as a real tree block, and the step exponential
        # takes no decomposition
        assert calls == [((k, 30, 30), np.float64) for k in (7, 5) for _ in range(2)]


class TestTreeRoute:
    """Spin stacks are connected trees (spin 1/2 a two-level pair, higher
    spins tridiagonal chains): they are decomposed as real matrices and
    contracted in their tree gauge, and match the dense complex route."""

    SPINS = [0.5, 1.0, 1.5]
    LOOP = planar_rectangle_loop([1.0, 0.6, 0.2], [0.0, 0.5, 0.0], [0.0, 0.0, 0.7],
                                 refinement=40)
    PATCH = planar_patch([1.0, 0.6, 0.2], [0.0, 0.5, 0.0], [0.0, 0.0, 0.7], grid=(12, 10))

    @pytest.mark.parametrize("spin", SPINS)
    def test_real_eigh_on_every_chunk(self, spin, monkeypatch):
        model = Su2Model(spin)
        dim = model.dim
        h = model.eval_batch(self.LOOP.samples)[0]
        assert len(operator_core.split_blocks(h)) == 1
        calls = record_eigh_calls(monkeypatch)
        closed = []
        eigh_2x2 = operator_core._eigh_2x2

        def recording(a, b, c):
            closed.append(len(a))
            return eigh_2x2(a, b, c)

        monkeypatch.setattr(operator_core, "_eigh_2x2", recording)
        holonomy(model, self.LOOP)
        # the base point's frame is a one-point chunk: a two-level chunk
        # takes the closed form, a longer chain a real eigh
        chunks = [((1, dim, dim), np.float64), ((160, dim, dim), np.float64)]
        assert calls == (chunks if dim > 2 else [])
        del calls[:]
        wilson_loop_phases(model, self.LOOP)
        berry_phase_surface(model, self.PATCH, [0, 1])
        chunks = [((160, dim, dim), np.float64), ((120, dim, dim), np.float64)]
        assert calls == (chunks if dim > 2 else [])
        assert closed == ([1, 160, 160, 120] if dim == 2 else [])

    @pytest.mark.parametrize("spin", SPINS)
    def test_matches_the_dense_complex_route(self, spin, monkeypatch):
        model = Su2Model(spin)
        cap = su2_cap_patch(1.1, grid=(8, 8))
        wedge = su2_wedge_patch(1.1, grid=(14, 12))
        triangle = su2_triangle_loop(1.1, refinement=60)

        def outputs():
            return (holonomy(model, self.LOOP).operator.matrix,
                    holonomy(model, triangle).operator.matrix,
                    wilson_loop_phases(model, self.LOOP),
                    wilson_loop_phases(model, triangle),
                    berry_phase_surface(model, self.PATCH, range(model.dim)),
                    berry_phase_surface(model, wedge, range(model.dim)),
                    nast_residual(model, cap, boundary_refinement=4))

        tree = outputs()
        ran_as_one_block = one_block(monkeypatch, model)
        dense = outputs()
        assert ran_as_one_block()
        for t, d in zip(tree, dense):
            assert np.max(np.abs(t - d)) <= 1e-13


def crossing_block_model():
    """Two blocks, {0, 1} and {2}, whose levels cross: H = sz + l1 sx
    + l2 sy on the first and 1 + l1 on the second.  Level 1 is the
    second block's where l1 < l2^2 / 2 and the first block's upper level
    elsewhere; at the origin the two are degenerate."""
    sx = np.zeros((3, 3), dtype=complex)
    sx[[0, 1], [1, 0]] = 1.0
    sx[2, 2] = 1.0
    sy = np.zeros((3, 3), dtype=complex)
    sy[0, 1], sy[1, 0] = -1j, 1j
    return ModelSpec(dim=3, param_names=("l1", "l2"), terms=(
        ((0, 0), np.diag([1.0, -1.0, 1.0]).astype(complex)),
        ((1, 0), sx), ((0, 1), sy))).to_model()


class TestBlockSweeps:
    """The surface sweep and the Wilson loop work block by block; with
    the block split switched off everything runs as one block."""

    @pytest.mark.parametrize("chunk", [7, 256])
    @pytest.mark.parametrize("sizes", [(60, 20), (14, 4)])
    def test_oscillator_against_dense_path(self, sizes, chunk, monkeypatch):
        monkeypatch.setattr(transport, "CHUNK_MATRICES", chunk)
        model = OscillatorModel(*sizes)
        patch = planar_patch(OSC_ORIGIN, *OSC_EDGES, grid=(6, 5))
        loop = planar_rectangle_loop(OSC_ORIGIN, *OSC_EDGES, refinement=30)
        assert len(operator_core.split_blocks(model.eval_batch(loop.samples)[0])) == 2

        def phases():
            return (berry_phase_surface(model, patch, [0, 1, 2, 3]),
                    wilson_loop_phases(model, loop))

        blocked = phases()
        ran_as_one_block = one_block(monkeypatch, model)
        for b, d in zip(blocked, phases()):
            assert np.max(np.abs(b - d)) <= 1e-13
        assert ran_as_one_block()

    def test_level_changing_block_on_the_surface(self, monkeypatch):
        model = crossing_block_model()
        patch = planar_patch([-0.3, 0.2], [0.6, 0.0], [0.0, 0.4], grid=(7, 5))
        centres = patch.points(np.stack(np.meshgrid((np.arange(7) + 0.5) / 7,
                                                    (np.arange(5) + 0.5) / 5), axis=-1))
        blocks, hs, _ = model._kernel_batch(centres.reshape(-1, 2),
                                            np.eye(2)[None].repeat(35, axis=0))
        system = operator_core.decompose_blocks(blocks, hs)
        assert len(system.blocks) == 2
        assert set(system.order[:, 1] >= 2) == {False, True}  # level 1 in either block
        blocked = berry_phase_surface(model, patch, [0, 1, 2])
        ran_as_one_block = one_block(monkeypatch, model)
        dense = berry_phase_surface(model, patch, [0, 1, 2])
        assert ran_as_one_block()
        assert np.max(np.abs(blocked - dense)) <= 1e-13
        assert np.all(blocked != 0.0)

    @pytest.mark.parametrize("chunk", [7, 256])
    def test_wilson_guard_where_a_level_changes_block(self, chunk, monkeypatch):
        monkeypatch.setattr(transport, "CHUNK_MATRICES", chunk)
        loop = planar_patch([-0.3, 0.2], [0.6, 0.0], [0.0, 0.4], (1, 1)).boundary_path(29)
        model = crossing_block_model()
        with pytest.raises(ValueError, match=r"level 1, \|overlap\| = 0.000") as blocked:
            wilson_loop_phases(model, loop)
        ran_as_one_block = one_block(monkeypatch, model)
        with pytest.raises(ValueError) as dense:
            wilson_loop_phases(model, loop)
        assert ran_as_one_block()
        assert str(blocked.value) == str(dense.value)

    def test_overlaps_where_levels_change_column(self, rng):
        # the single level of the second block drops past both levels of
        # the first between nodes 1 and 2: level 1 keeps its block but
        # changes column, levels 0 and 2 change block
        h = np.zeros((4, 3, 3), dtype=complex)
        for k, b in enumerate([2.0, 1.5, -1.5, -2.0]):
            h[k, :2, :2] = np.diag([-1.0, 1.0]) + 0.2 * random_hermitian(rng, 2)
            h[k, 2, 2] = b
        blocks = operator_core.split_blocks(h)
        system = operator_core.decompose_blocks(blocks, [h[:, b.index[:, None], b.index]
                                                         for b in blocks])
        assert len(system.blocks) == 2
        assert list(system.order[1]) == [0, 1, 2] and list(system.order[2]) == [2, 0, 1]
        frames = system.frames()
        dense = np.einsum("kin,kin->kn", frames[:-1].conj(), frames[1:])
        got = transport._block_overlaps(system)
        assert np.max(np.abs(got - dense)) <= 1e-15
        assert got[1, 0] == 0 and got[1, 2] == 0 and abs(got[1, 1]) > 1e-3

    def test_near_degenerate_pair_across_blocks(self, monkeypatch):
        # the middle cell is centred on the origin, where level 1 (second
        # block) and level 2 (first block) meet
        patch = planar_patch([-0.05, -0.05], [0.1, 0.0], [0.0, 0.1], grid=(3, 3))
        model = crossing_block_model()
        with pytest.raises(DegenerateSpectrumError) as blocked:
            berry_phase_surface(model, patch, [1])
        assert blocked.value.level == 1
        ran_as_one_block = one_block(monkeypatch, model)
        with pytest.raises(DegenerateSpectrumError) as dense:
            berry_phase_surface(model, patch, [1])
        assert ran_as_one_block()
        assert (blocked.value.level, blocked.value.gap) == (dense.value.level, dense.value.gap)


def planted_block_spec(rng, sizes=(3, 3, 2, 1)):
    """A random 2-parameter polynomial family, H0 + l1 M1 + l2 M2 + l1 l2
    M3, whose terms share a planted block structure in a permuted basis:
    the first block dense (a cycle), the second a chain (a tree), then a
    pair and a single level.  Returns its ModelSpec and the planted blocks
    as sorted index lists."""
    dim = sum(sizes)
    perm = rng.permutation(dim)
    groups = np.split(np.arange(dim), np.cumsum(sizes)[:-1])

    def term(scale):
        m = np.zeros((dim, dim), dtype=complex)
        for b, idx in enumerate(groups):
            block = random_hermitian(rng, len(idx), scale)
            if b == 1:  # keep only the chain's couplings
                block = np.triu(np.tril(block, 1), -1)
            m[np.ix_(idx, idx)] = block
        return m[np.ix_(np.argsort(perm), np.argsort(perm))]

    h0 = term(0.08) + np.diag(1.5 * np.arange(dim))[np.ix_(np.argsort(perm), np.argsort(perm))]
    spec = ModelSpec(dim=dim, param_names=("l1", "l2"), terms=(
        ((0, 0), h0), ((1, 0), term(0.25)), ((0, 1), term(0.25)), ((1, 1), term(0.1)),
    ))
    return spec, sorted(sorted(perm[idx].tolist()) for idx in groups)


class TestTermPattern:
    """Term families evaluate H and the gradients on the fixed nonzero
    pattern of their terms and hand its blocks to the kernels; every
    other family, and any subclass that overrides ``_evaluate_batch``,
    is split chunk by chunk."""

    @staticmethod
    def same_blocks(got, want):
        want = want or (operator_core.Block(np.arange(len(got[0].index)), None),)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a.index, b.index)
            assert (a.parent is None) == (b.parent is None)
            assert a.parent is None or np.array_equal(a.parent, b.parent)

    def test_blocks_are_those_of_the_term_stack(self, rng):
        from adiaconn.models import angular_momentum

        planted, groups = planted_block_spec(rng)
        dense = ModelSpec(dim=3, param_names=("l1", "l2"), terms=tuple(
            (e, random_hermitian(rng, 3)) for e in [(0, 0), (1, 0), (0, 1)]))
        cases = [(Su2Model(l), np.stack(angular_momentum(l)), [1.1, 0.7, 0.3])
                 for l in (0.5, 1.0, 1.5)]
        for osc in (OscillatorModel(60, 20), OscillatorModel(14, 4)):
            # H is linear in (X, Y, Z): its gradients are the terms
            cases.append((osc, np.array(osc.grad_h([1.0, 0.0, 1.0])), [2.0, 0.3, 1.4]))
        for spec in (planted, dense):
            cases.append((spec.to_model(), np.array([m for _, m in spec.terms]), [0.1, -0.2]))
        found = []
        for model, terms, point in cases:
            found.append(model._kernel_batch(np.array([point]))[0])
            self.same_blocks(found[-1], operator_core.split_blocks(terms))
        # the oscillators split into their parity sectors, the planted model into four blocks
        assert [len(b) for b in found] == [1, 1, 1, 2, 2, 4, 1]
        assert [b.index.tolist() for b in found[5]] == groups
        assert sum(b.parent is None for b in found[5]) == 1  # only the dense block has a cycle

    @pytest.mark.parametrize("chunk", [7, 2048])
    def test_planted_blocks_match_the_dense_route(self, rng, chunk, monkeypatch):
        monkeypatch.setattr(transport, "CHUNK_MATRICES", chunk)
        loop = planar_rectangle_loop([-0.1, -0.1], [0.2, 0.0], [0.0, 0.2], refinement=15)
        patch = planar_patch([-0.1, -0.1], [0.2, 0.0], [0.0, 0.2], grid=(6, 5))
        models = [planted_block_spec(rng)[0].to_model() for _ in range(3)]

        def outputs():
            return [(holonomy(m, loop).operator.matrix, wilson_loop_phases(m, loop),
                     berry_phase_surface(m, patch, range(m.dim))) for m in models]

        blocked = outputs()
        ran_as_one_block = one_block(monkeypatch, *models)
        for got, want in zip(blocked, outputs()):
            for b, d in zip(got, want):
                assert np.max(np.abs(b - d)) <= TOL
        assert ran_as_one_block()

    def test_override_coupling_the_parity_sectors(self, monkeypatch):
        class Coupled(OscillatorModel):
            """The top two Fock levels, of opposite parity, coupled in H;
            at the reference point (1, 0, 1) they form a block of their
            own, so the certified levels are those of the oscillator."""

            def _evaluate_batch(self, lams, directions):
                h, g = super()._evaluate_batch(lams, directions)
                coupling = np.zeros((self.dim, self.dim), dtype=complex)
                coupling[-2, -1], coupling[-1, -2] = 0.3j, -0.3j
                return h + coupling, g

        model = Coupled(14, 4)
        loop = planar_rectangle_loop(OSC_ORIGIN, *OSC_EDGES, refinement=6)
        patch = planar_patch(OSC_ORIGIN, *OSC_EDGES, grid=(3, 2))
        blocks, hs, _ = model._kernel_batch(loop.samples)
        assert len(blocks) == 1 and len(operator_core.split_blocks(hs[0])) == 1

        def outputs():
            return (holonomy(model, loop).operator.matrix, wilson_loop_phases(model, loop),
                    berry_phase_surface(model, patch, [0, 1, 2]))

        coupled = outputs()
        # the coupling moves the results away from the split oscillator's
        plain = OscillatorModel(14, 4)
        assert np.max(np.abs(coupled[0] - holonomy(plain, loop).operator.matrix)) > 1e-6
        ran_as_one_block = one_block(monkeypatch, model)
        for c, d in zip(coupled, outputs()):
            assert np.max(np.abs(c - d)) <= TOL
        assert ran_as_one_block()

    def test_no_built_in_family_overrides_the_evaluation(self):
        from adiaconn import models

        families = [c for c in vars(models).values() if isinstance(c, type)
                    and issubclass(c, models.ParametricHamiltonian)
                    and c is not models.ParametricHamiltonian]
        assert {c.__name__ for c in families} == {"Su2Model", "OscillatorModel",
                                                 "_PolynomialModel"}
        for family in families:
            assert "_evaluate_batch" not in vars(family)
            assert "_coefficients" in vars(family)

    def test_block_stacks_are_the_blocks_of_the_dense_stacks(self, rng):
        from adiaconn.models import constant_model

        cases = [(Su2Model(l), np.column_stack([rng.uniform(0.5, 2.0, 5),
                                                rng.uniform(0.0, np.pi, 5),
                                                rng.uniform(0.0, 2 * np.pi, 5)]))
                 for l in (0.5, 1.0, 1.5)]
        for osc in (OscillatorModel(60, 20), OscillatorModel(14, 4)):
            cases.append((osc, [2.0, 0.3, 1.4] + rng.uniform(-0.2, 0.2, (5, 3))))
        for model in (planted_block_spec(rng)[0].to_model(), random_polynomial_model(rng),
                      constant_model(random_hermitian(rng, 3), n_params=2)):
            cases.append((model, rng.uniform(-0.3, 0.3, (5, 2))))
        for model, lams in cases:
            directions = rng.normal(size=(len(lams), 2, model.n_params))
            blocks, hs, gs = model._kernel_batch(lams, directions)
            h, g = model.eval_batch(lams, directions)
            inside = np.zeros((model.dim, model.dim), dtype=bool)
            for b, hb, gb in zip(blocks, hs, gs):
                assert np.array_equal(hb, b.take(h)) and np.array_equal(gb, b.take(g))
                inside[np.ix_(b.index, b.index)] = True
            assert np.all(h[:, ~inside] == 0) and np.all(g[..., ~inside] == 0)

    def test_only_the_model_takes_blocks(self):
        # the kernels carry each block's own stacks from the model on: no
        # other code cuts a block out of a dense stack
        src = Path(__file__).resolve().parents[1] / "src" / "adiaconn"
        takers = set()
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text())
            scope = {}
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for inner in ast.walk(node):
                        scope[inner] = node.name  # innermost function wins
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "take"):
                    takers.add((path.name, scope.get(node)))
        assert takers == {("models.py", "_kernel_batch")}

    def test_overflowing_coefficient_is_non_finite(self):
        model = ModelSpec(dim=2, param_names=("l1", "l2"), terms=(
            ((0, 0), SZ), ((16, 0), SX), ((0, 1), SX))).to_model()
        # l1^16 overflows near l1 = 1e20; H is finite at the base point
        loop = planar_rectangle_loop([0.0, 0.0], [1e20, 0.0], [0.0, 1.0], refinement=2)
        patch = planar_patch([0.0, 0.0], [1e20, 0.0], [0.0, 1.0], grid=(2, 2))
        for run in (lambda: holonomy(model, loop), lambda: wilson_loop_phases(model, loop),
                    lambda: berry_phase_surface(model, patch, 0)):
            # the power overflows, and the overflow is named, not warned of
            with pytest.raises(ValueError, match="Hamiltonian has non-finite entries"):
                run()

    def test_overflowing_gradient_is_non_finite(self):
        # at l1 = 12 the term 9e290 l1^16 is finite and its derivative is not
        model = ModelSpec(dim=2, param_names=("l1",), terms=(
            ((0,), SZ), ((16,), 9e290 * SX))).to_model()
        lam = np.array([[12.0]])
        assert np.isfinite(model.eval_h(lam[0])).all()
        with pytest.raises(ValueError, match="Hamiltonian gradient has non-finite entries"):
            model._kernel_batch(lam, np.ones((1, 1, 1)))

    def test_hamiltonian_near_the_float_limit_is_named(self):
        # 9e290 x^16 is finite up to x = 12, but the squares that every
        # Frobenius norm sums are not: the Hermiticity rule and the
        # unitarity checks would read inf, and a transport the identity
        model = ModelSpec(dim=2, param_names=("x", "y"), terms=(
            ((0, 0), SZ), ((16, 0), 9e290 * SX), ((0, 1), SY))).to_model()
        path = PathSpec(np.array([[11.9, 0.0], [12.0, 0.0]]), refinement=10)
        loop = planar_rectangle_loop([11.9, 0.0], [0.1, 0.0], [0.0, 0.1], refinement=4)
        patch = planar_patch([11.9, 0.0], [0.1, 0.0], [0.0, 0.1], grid=(2, 2))
        for run in (lambda: spectral_decompose(model.eval_h([12.0, 0.0])),
                    lambda: transport_operator(model, path), lambda: holonomy(model, loop),
                    lambda: wilson_loop_phases(model, loop),
                    lambda: berry_phase_surface(model, patch, 0)):
            with pytest.raises(ValueError, match="has an entry of magnitude 1.[0-9]*e\\+308, "
                                                 "at or above the limit"):
                run()
        with pytest.raises(ModelFileError, match="line 3: term matrix has an entry"):
            parse_model_file("dim = 2\nparams = x\nterm 1\n0 9e290\n9e290 0\n")


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

    @pytest.mark.parametrize("lengths, steps", [
        ([1.9, 1.9], 2), ([0.5, 1.5], 2), ([3, -1], 2), ([3], 2), ([1, 1, 1], 2),
        # refused before any cast: no warning, and a bool or a whole float is no count
        ([np.inf], 2), ([np.nan], 2), ([True], 1), ([3.0], 3)])
    def test_rejects_bad_lengths(self, su2_half, lengths, steps):
        mids, deltas = su2_triangle_loop(1.0, refinement=1).step_arrays()
        with pytest.raises(ValueError, match="segment lengths"):
            transport.ordered_products(su2_half, mids[:steps], deltas[:steps], lengths)

    def test_no_segments_for_no_steps(self, su2_half):
        no_steps = np.empty((0, 3))
        assert transport.ordered_products(su2_half, no_steps, no_steps, []).shape == (0, 2, 2)

    RUN_MIXES = {
        "one run": [12],
        "equal runs": [4, 4, 4, 4, 4],
        "ragged runs": [3, 1, 6, 2, 5, 8],
        "odd lengths": [5, 5, 5],
        "ragged odd lengths": [7, 3, 1, 5],
        "all ones": [1] * 9,
        "long equal runs": [257, 257],  # the 2x2 products go entry by entry
    }

    @pytest.mark.parametrize("mix", sorted(RUN_MIXES))
    @pytest.mark.parametrize("dim", [1, 2, 3, 30])
    def test_run_products_bit_identical_to_gather_reduction(self, rng, mix, dim):
        lengths = np.array(self.RUN_MIXES[mix])
        if dim == 30 and lengths.sum() > 100:
            lengths = lengths // 8
        shape = (lengths.sum(), dim, dim)
        factors = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))[0]
        got = transport._run_products(factors.copy(), lengths)
        assert np.array_equal(got, ref_run_products(factors.copy(), lengths))

    def test_segments_bit_identical_to_gather_reduction(self, rng, monkeypatch):
        # runs of 7 fill chunks of 7; runs of 2, 3 and the mixed ones are
        # cut by the seams, so chunks hold equal and ragged runs
        for model, loop in loop_cases(rng):
            mids, deltas = loop.step_arrays()
            k = len(mids)
            for lengths in ([k], [7] * (k // 7) + [k % 7], [2] * (k // 2) + [k % 2],
                            [3] * (k // 3) + [k % 3], self.lengths(k), [1] * k):
                got = transport.ordered_products(model, mids, deltas, lengths)
                with monkeypatch.context() as patch:
                    patch.setattr(transport, "_run_products", ref_run_products)
                    want = transport.ordered_products(model, mids, deltas, lengths)
                assert np.array_equal(got, want)

    def test_split_oscillator_against_dense_path(self, oscillator, monkeypatch):
        mids, deltas = planar_rectangle_loop(OSC_ORIGIN, *OSC_EDGES, refinement=6).step_arrays()
        lengths = self.lengths(len(mids))
        blocked = transport.ordered_products(oscillator, mids, deltas, lengths)
        # levels of opposite Fock parity stay exactly uncoupled
        assert not np.any(blocked[:, ::2, 1::2]) and not np.any(blocked[:, 1::2, ::2])
        ran_as_one_block = one_block(monkeypatch, oscillator)
        dense = transport.ordered_products(oscillator, mids, deltas, lengths)
        assert ran_as_one_block()
        assert np.max(np.abs(blocked - dense)) <= TOL

    def test_surface_ordered_product_against_cell_loop(self, su2_half, su2_one):
        for model, patch, exact in [
                (su2_half, su2_wedge_patch(1.2, grid=(9, 7)), True),
                (su2_one, su2_cap_patch(0.9, grid=(6, 8)), True),
                (small_oscillator(), planar_patch(OSC_ORIGIN, *OSC_EDGES, grid=(5, 4)), False)]:
            total, lassos = ref_fishbone(*_grid_edges(model, patch, 2))
            got = surface_ordered_product(model, patch).operator.matrix
            lasso = lasso_holonomy(model, patch, (2, 3)).value.matrix
            if exact:
                assert np.array_equal(got, total) and np.array_equal(lasso, lassos[2, 3])
            else:
                assert np.max(np.abs(got - total)) <= TOL
                assert np.max(np.abs(lasso - lassos[2, 3])) <= TOL


def ref_sliced_edges(model, patch, r):
    """The grid edges of ``patch`` in whole-edge slices of chunk // r edges,
    one kernel call per slice, so that no edge straddles a chunk seam; the
    points are those of the single sweep."""
    nu, nv = patch.grid
    i_h, j_h = (a.ravel() for a in np.meshgrid(np.arange(nu), np.arange(nv + 1), indexing="ij"))
    i_v, j_v = (a.ravel() for a in np.meshgrid(np.arange(nu + 1), np.arange(nv), indexing="ij"))
    uv_from = np.concatenate([np.column_stack([i_h / nu, j_h / nv]),
                              np.column_stack([i_v / nu, j_v / nv])])
    uv_to = np.concatenate([np.column_stack([(i_h + 1) / nu, j_h / nv]),
                            np.column_stack([i_v / nu, (j_v + 1) / nv])])
    frac = np.concatenate([np.arange(r + 1) / r, (np.arange(r) + 0.5) / r])
    edges = np.empty((len(uv_from), model.dim, model.dim), dtype=complex)
    size = max(transport._chunk_size(model.dim) // r, 1)
    for start in range(0, len(edges), size):
        chunk = slice(start, start + size)
        points = patch.points(
            uv_from[chunk, None] + (uv_to - uv_from)[chunk, None] * frac[None, :, None])
        mids = points[:, r + 1:].reshape(-1, points.shape[-1])
        deltas = (points[:, 1:r + 1] - points[:, :r]).reshape(-1, points.shape[-1])
        edges[chunk] = transport.ordered_products(model, mids, deltas, np.full(len(points), r))
    return edges[:nu * (nv + 1)], edges[nu * (nv + 1):]


def test_only_transport_knows_the_chunk_size():
    # callers hand the step kernel all their steps, so the chunking is
    # decided in one module: no other one names the size or its limits
    names = {"_chunk_size", "CHUNK_MATRICES", "CHUNK_BYTES"}
    src = Path(__file__).resolve().parents[1] / "src" / "adiaconn"
    users = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            named = {node.id} if isinstance(node, ast.Name) else \
                {node.attr} if isinstance(node, ast.Attribute) else \
                {alias.name for alias in node.names} if isinstance(node, ast.ImportFrom) else set()
            if named & names:
                users.add(path.name)
    assert users == {"transport.py"}


@pytest.mark.parametrize("case", ["spin-half", "oscillator"])
def test_one_edge_sweep_against_whole_edge_slices(su2_half, case):
    # spin 1/2 chunks hold 2048 steps, OscillatorModel(14, 4) chunks 668:
    # r = 2 divides both, so every edge stays inside one chunk; r = 3 and
    # r = 5 leave edges across a seam, whose pieces are multiplied apart
    model, patch, straddling = {
        "spin-half": (su2_half, su2_cap_patch(1.1, grid=(24, 24)), 3),
        "oscillator": (small_oscillator(), planar_patch(OSC_ORIGIN, *OSC_EDGES, grid=(13, 13)), 5),
    }[case]
    for r in (2, straddling):
        steps = r * 2 * patch.grid[0] * (patch.grid[0] + 1)
        assert steps > transport._chunk_size(model.dim)  # more than one chunk
        h, v = _grid_edges(model, patch, r)
        ref_h, ref_v = ref_sliced_edges(model, patch, r)
        got = np.concatenate([h.reshape(ref_h.shape), v.reshape(ref_v.shape)])
        ref = np.concatenate([ref_h, ref_v])
        if r == 2:
            assert np.array_equal(got, ref)
        else:
            assert transport._chunk_size(model.dim) % r
            assert np.max(np.abs(got - ref)) <= 1e-13


# ---------------------------------------------------------------------------
# Two-level closed forms
# ---------------------------------------------------------------------------


PAIR = operator_core.Block(np.arange(2), np.array([0, 0]))

# Three blocks in one model file: a pair {0, 1}, a chain {2, 3, 4} and a
# single level {5}, every coupling complex.
SPLIT_MODEL_FILE = """\
dim = 6
params = a b
term 0 0
0 0.1+0.05i 0 0 0 0
0.1-0.05i 1.5 0 0 0 0
0 0 3 0.2i 0 0
0 0 -0.2i 4.5 0.1 0
0 0 0 0.1 6 0
0 0 0 0 0 7.5
term 1 0
0.3 0.2-0.4i 0 0 0 0
0.2+0.4i -0.3 0 0 0 0
0 0 0.2 0.1+0.1i 0 0
0 0 0.1-0.1i 0 0.3i 0
0 0 0 -0.3i -0.2 0
0 0 0 0 0 0.1
term 0 1
-0.2 0.5i 0 0 0 0
-0.5i 0.2 0 0 0 0
0 0 0 0.2 0 0
0 0 0.2 0.1 -0.1+0.2i 0
0 0 0 -0.1-0.2i 0 0
0 0 0 0 0 -0.1
term 1 1
0 -0.3+0.1i 0 0 0 0
-0.3-0.1i 0 0 0 0 0
0 0 0.1 0 0 0
0 0 0 0 0.2 0
0 0 0 0.2 0.1 0
0 0 0 0 0 0
"""


def pair_eigensystem(rng, k, gap):
    """The tree-gauge eigensystem of K random two-level Hermitian
    matrices whose spacing is about ``gap``, with couplings of random
    phase, so that no gauge is trivial."""
    h = np.zeros((k, 2, 2), dtype=complex)
    mean, split = rng.normal(size=k), 0.5 * gap * rng.uniform(-1.0, 1.0, k)
    h[:, 0, 0], h[:, 1, 1] = mean + split, mean - split
    h[:, 0, 1] = 0.5 * gap * rng.uniform(0.2, 1.0, k) * np.exp(1j * rng.uniform(-np.pi, np.pi, k))
    h[:, 1, 0] = h[:, 0, 1].conj()
    e, v, gauge = operator_core.eigh_block(h, PAIR)
    assert gauge is not None and v.dtype == float
    return e, v, gauge


def gradient_stack(rng, k, m, scale):
    g = rng.normal(size=(k, m, 2, 2)) + 1j * rng.normal(size=(k, m, 2, 2))
    return scale * (g + g.conj().swapaxes(-1, -2))


def record_closed_forms(monkeypatch):
    """Stack lengths of every two-level step factor, two-level curvature
    and general step exponential, in call order."""
    from adiaconn import curvature

    calls = {"factors": [], "curvature": [], "series": []}

    def recording(module, name, key, length):
        original = getattr(module, name)

        def wrapped(*args):
            calls[key].append(length(*args))
            return original(*args)

        monkeypatch.setattr(module, name, wrapped)

    recording(transport, "_two_level_factors", "factors", lambda m, v, gauge: len(m))
    recording(curvature, "_two_level_element", "curvature", lambda v, gauge, g: len(v))
    recording(transport, "expm_hermitian_stack", "series", lambda w: len(w))
    return calls


class TestTwoLevelClosedForm:
    """A two-node tree block takes its step factor and its level
    curvature from the one eigenbasis element x = <0|G|1>; both agree with
    the general route, contraction plus series and the sum over states,
    per factor and per cell.  A flipped sign of m or of the curvature, or
    a dropped gauge phase, moves them by the size of the step or of the
    curvature, far above the tolerances here."""

    @pytest.mark.parametrize("gap", [1.0, 1e-6])
    @pytest.mark.parametrize("scale", [1e-3, 0.3, 2.0])
    def test_factors_match_contraction_and_series(self, rng, gap, scale):
        e, v, gauge = pair_eigensystem(rng, 300, gap)
        g = gradient_stack(rng, 300, 1, scale * gap)  # |m| about scale
        m = connection_weight(e[:, 0] - e[:, 1]) * operator_core._two_level_element(v, gauge, g)[0]
        closed = transport._two_level_factors(m, v, gauge)
        general = operator_core.expm_hermitian_stack(
            contract_stack(e, v, g[:, 0], connection_weight, gauge))
        assert np.max(np.abs(np.angle(gauge[:, 1]))) > 3.0  # gauges of every phase
        assert np.max(np.abs(closed - general)) <= 1e-13

    @pytest.mark.parametrize("gap", [1.0, 1e-6])
    def test_curvature_matches_the_sum_over_states(self, rng, gap):
        from adiaconn.curvature import _level_curvature

        e, v, gauge = pair_eigensystem(rng, 300, gap)
        g = gradient_stack(rng, 300, 2, gap)
        order = np.arange(2)[None].repeat(300, 0)
        levels = [1, 0, 1]
        closed = _level_curvature(operator_core.BlockSystem((PAIR,), ((e, v, gauge),), e, order),
                                  (g,), levels)
        dense = operator_core.BlockSystem((operator_core.Block(np.arange(2), None),),
                                          ((e, gauge[:, :, None] * v, None),), e, order)
        general = _level_curvature(dense, (g,), levels)
        assert closed.shape == general.shape == (300, 3)
        assert np.max(np.abs(closed - general)) <= 1e-13 * np.max(np.abs(general))
        assert np.array_equal(closed[:, 0], -closed[:, 1])

    def test_equal_eigenvalues_contribute_nothing(self, rng):
        from adiaconn.curvature import _level_curvature

        e, v, gauge = pair_eigensystem(rng, 4, 1.0)
        e[2] = e[2, 0]  # an exact tie at row 2
        g = gradient_stack(rng, 4, 2, 1.0)
        system = operator_core.BlockSystem((PAIR,), ((e, v, gauge),), e, np.zeros((4, 2), int))
        w = _level_curvature(system, (g,), [0])
        assert w[2, 0] == 0.0 and np.all(w[[0, 1, 3], 0] != 0.0)

    def test_split_model_file_per_factor_and_per_cell(self, rng, monkeypatch):
        from adiaconn.curvature import _level_curvature

        model = parse_model_file(SPLIT_MODEL_FILE).to_model()
        points = rng.uniform(-0.2, 0.2, size=(40, 2))
        tangents = rng.normal(size=(40, 2, 2))
        levels = [5, 0, 1, 3, 2, 4, 1]

        def outputs():
            factors = transport.ordered_products(model, points, 0.05 * tangents[:, 0],
                                                 np.ones(len(points), int))
            cells = np.concatenate([_level_curvature(system, gs, levels) for _, _, system, gs
                                    in transport._decomposed_chunks(model, points, tangents)])
            return factors, cells

        calls = record_closed_forms(monkeypatch)
        blocked = outputs()
        blocks = model._kernel_batch(points[:1])[0]
        assert [b.index.tolist() for b in blocks] == [[0, 1], [2, 3, 4], [5]]
        # the pair takes both closed forms; the chain and the single level the series
        assert calls == {"factors": [40], "curvature": [40], "series": [40, 40]}
        ran_as_one_block = one_block(monkeypatch, model)
        dense = outputs()
        assert ran_as_one_block()
        assert np.max(np.abs(blocked[0] - dense[0])) <= 1e-13
        assert np.max(np.abs(blocked[1] - dense[1])) <= 1e-12 * np.max(np.abs(dense[1]))

    @pytest.mark.parametrize("model, closed", [
        (Su2Model(0.5), True), (Su2Model(1.0), False), (Su2Model(1.5), False),
        (OscillatorModel(14, 4), False)])
    def test_only_two_level_blocks_take_the_closed_form(self, model, closed, monkeypatch):
        if model.dim == 14:
            loop = planar_rectangle_loop(OSC_ORIGIN, *OSC_EDGES, refinement=10)
            patch = planar_patch(OSC_ORIGIN, *OSC_EDGES, grid=(6, 5))
        else:
            loop, patch = TestTreeRoute.LOOP, TestTreeRoute.PATCH
        calls = record_closed_forms(monkeypatch)
        holonomy(model, loop)
        berry_phase_surface(model, patch, [0, 1])
        steps, cells = 4 * loop.refinement, np.prod(patch.grid)
        if closed:
            assert calls == {"factors": [steps], "curvature": [cells], "series": []}
        else:  # the oscillator's two parity sectors each take the series
            assert calls == {"factors": [], "curvature": [],
                             "series": [steps] * len(model._kernel_batch(loop.samples[:1])[0])}

    def test_spin_half_benchmark_phases_keep_sign_and_value(self, su2_half):
        # -m Omega for m = -1/2, +1/2; the values are those of the general
        # route (contraction, series and sum over states) before the closed
        # forms, to which the closed forms agree to roundoff
        omega = 1.2
        exact = np.array([0.5 * omega, -0.5 * omega])
        hol = holonomy(su2_half, su2_triangle_loop(omega, refinement=900)).phases
        surf = berry_phase_surface(su2_half, su2_wedge_patch(omega, grid=(110, 110)), [0, 1])
        assert np.max(np.abs(hol - [0.5999999999999999, -0.5999999999999999])) <= 1e-13
        assert np.max(np.abs(surf - [0.6000050979664787, -0.6000050979664787])) <= 1e-13
        assert np.max(np.abs(hol - exact)) <= 1e-12 and np.max(np.abs(surf - exact)) <= 1e-5
