"""Parallel transport of eigenframes along parameter-space paths.

The transport operator is the path-ordered exponential of the connection,
discretized as an ordered product of exponentials with the connection
evaluated at segment midpoints (second-order accurate).  Closed loops give
holonomies, whose diagonality in the starting eigenbasis encodes one Berry
phase per level; a discrete Wilson-loop overlap product provides an
independent, phase-convention-free oracle for the same phases.  The module
also integrates driven dynamics in which the connection acts as the
counterdiabatic term that keeps a state locked to an instantaneous
eigenvector.

Every path-ordered product in the library -- transport and holonomy here,
the grid edges and the fixed-time flatness loop of :mod:`adiaconn.nast` --
runs through one step kernel, :func:`ordered_products`.  All step points
are known up front, so the kernel works a chunk of steps at a time: the
model evaluates H and the step-contracted gradient as stacked arrays, one
stacked decomposition of H handles them, and the connection is contracted
in the eigenbasis and exponentiated as a stack by a Taylor series
(:func:`~adiaconn.operator_core.expm_hermitian_stack`), with no second
decomposition.  A two-node tree block (spin 1/2) skips both: its step
generator W = m v_0 v_1^dag + h.c. squares to |m|^2, so its factor is
cos|m| I + i sinc|m| W, from one eigenbasis element per step
(:func:`_two_level_factors`).  The ordered product is a pairwise
reduction (:func:`_run_products`): adjacent factors of the same segment
are multiplied as one stacked product per level, ceil(log2 k) levels for
k steps, on strided views of the stack when the chunk's runs have one
length, and each chunk's first piece is multiplied onto the product
carried over from the chunk before.  Chunks hold at most 2048 matrices
and about 2 MB per stacked array; only this module knows the chunk
size, and callers hand over all their steps at once, every NAST grid
edge in one call.  A loop operator is read in its base eigenframe by
one constructor, :meth:`HolonomyResult.in_base_frame`.  The Wilson loop
and the surface integral of :mod:`adiaconn.curvature` share the chunk
sweep, :func:`_decomposed_chunks`, and its one degeneracy rule: an
adjacent gap among the lowest ``check_levels`` levels below
:func:`~adiaconn.operator_core.default_gap_tol` raises, on either side.

The kernel splits by blocks of the joint nonzero pattern of H and the
step-contracted gradient (:func:`~adiaconn.operator_core.decompose_blocks`).
It has to be the joint pattern: where H alone splits further than the
step (H diagonal at a pole while the step couples the levels), the
connection couples levels that H does not.  Over the joint blocks the
connection, the step generator and its exponential are all block
diagonal, so each block is decomposed, contracted, checked, exponentiated
and reduced on its own; only the per-segment pieces are written to dense
matrices, with exact zeros between blocks.  The oscillator's two
Fock-parity sectors run as two 30x30 kernels.  A connected joint pattern
is the one-block case.  A block whose pattern is a tree, each parity
sector and every spin stack, is decomposed as a real matrix in its tree
gauge (see :mod:`adiaconn.operator_core`), and the connection is
contracted in that gauge with real matrix products.  The Wilson loop
works on the blocks of H in the same way: overlaps are taken within each
block, and only the frames at chunk seams and at the base point are
written densely.  The model hands over the blocks with each block's own
stacks of H and G (:meth:`ParametricHamiltonian._kernel_batch`); for a
term family (every built-in model) no chunk is scanned and no dense
stack is built: the blocks are those of the union pattern of its terms,
which covers H and every gradient at every point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .operator_core import (
    SpectralDecomposition,
    UnitaryOperator,
    _check_unitary_steps,
    _is_int,
    _two_level_element,
    decompose_blocks,
    expm_hermitian_stack,
    frobenius,
    matmul,
    spectral_decompose,
    spectral_gaps,
    wrap_phase,
)
from .models import ParametricHamiltonian
from .connection import connection_spectral, connection_weight, contract_stack

__all__ = [
    "PathSpec",
    "TransportResult",
    "HolonomyResult",
    "Schedule",
    "StepSizeError",
    "transport_operator",
    "ordered_products",
    "holonomy",
    "wilson_loop_phases",
    "counterdiabatic_evolve",
    "linear_schedule",
    "DrivingResult",
]

UNRELIABLE_OFFDIAG = 1e-3
MIN_OVERLAP = 0.1
NORM_DRIFT_TOL = 1e-8
CHUNK_MATRICES = 2048
CHUNK_BYTES = 2 << 20


def _check_count(value, what: str) -> None:
    """Raise ValueError unless ``value`` is a positive integer."""
    if not (_is_int(value) and value >= 1):
        raise ValueError(f"{what} must be a positive integer, got {value!r}")


def _check_level(n, dim: int) -> None:
    """Raise ValueError unless ``n`` is an integer level index in [0, dim)."""
    if not (_is_int(n) and 0 <= n < dim):
        raise ValueError(f"level index {n} out of range for dim {dim}")


class StepSizeError(Exception):
    """Integrator step too large for the requested norm-drift budget."""


@dataclass(frozen=True)
class PathSpec:
    """A polyline in parameter space with a per-segment refinement count.

    ``samples`` is a (K+1, N) array of parameter points; each of the K
    segments is split into ``refinement`` equal steps when transported.
    """

    samples: np.ndarray
    closed: bool = False
    refinement: int = 100

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if pts.ndim != 2:
            raise ValueError("path samples must be a (K+1, N) array")
        _check_count(self.refinement, "refinement")
        deltas = np.diff(pts, axis=0)
        if len(pts) > 1 and np.any(np.linalg.norm(deltas, axis=1) == 0.0):
            raise ValueError("consecutive path samples must be distinct")
        if self.closed and len(pts) > 1:
            if np.linalg.norm(pts[-1] - pts[0]) > 1e-12:
                raise ValueError("closed path must end where it starts")
        pts.setflags(write=False)
        object.__setattr__(self, "samples", pts)

    @property
    def n_params(self) -> int:
        return self.samples.shape[1]

    @property
    def start(self) -> np.ndarray:
        return self.samples[0]

    @property
    def end(self) -> np.ndarray:
        return self.samples[-1]

    def step_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Midpoints and deltas of every refined step in path order, as
        two (K, N) arrays."""
        a, b = self.samples[:-1, None, :], self.samples[1:, None, :]
        k = (np.arange(self.refinement) + 0.5)[None, :, None]
        mids = a + k * (b - a) / self.refinement
        deltas = np.broadcast_to((b - a) / self.refinement, mids.shape)
        return mids.reshape(-1, self.n_params), deltas.reshape(-1, self.n_params)

    def refined_points(self) -> np.ndarray:
        """All refined nodes from start to end inclusive."""
        a, b = self.samples[:-1, None, :], self.samples[1:, None, :]
        k = np.arange(1, self.refinement + 1)[None, :, None]
        inner = (a + k * (b - a) / self.refinement).reshape(-1, self.n_params)
        return np.concatenate([self.samples[:1], inner])

    def reversed(self) -> "PathSpec":
        return PathSpec(self.samples[::-1].copy(), closed=self.closed, refinement=self.refinement)


@dataclass(frozen=True)
class TransportResult:
    """Ordered-exponential transport along a path.

    ``operator`` maps the eigenframe at the start point onto the
    transported frame; ``conjugation_residual`` measures how far
    U H(start) U^dag falls from H(end).  It vanishes (up to
    discretization) only for families with parameter-independent spectra;
    for drifting spectra it is a diagnostic, not an invariant -- the
    transported columns remain eigenvectors of H(end) either way.
    """

    operator: UnitaryOperator
    transported_frame: UnitaryOperator
    conjugation_residual: float
    start_spec: SpectralDecomposition


@dataclass(frozen=True)
class HolonomyResult:
    """Closed-loop transport, reduced to the starting eigenbasis.

    ``phases[n]`` is the argument (``np.angle``) of the n-th diagonal
    entry of the loop operator in the eigenbasis at the base point;
    ``offdiag_residual`` is the largest off-diagonal magnitude there.  A
    residual above 1e-3 marks the phase readout unreliable.
    """

    operator: UnitaryOperator
    phases: np.ndarray
    offdiag_residual: float

    @classmethod
    def in_base_frame(cls, operator: UnitaryOperator, frame: UnitaryOperator) -> "HolonomyResult":
        """The loop operator U read in the eigenframe V at its base point:
        the phases np.angle(diag(V^dag U V)) and the largest off-diagonal
        magnitude of V^dag U V."""
        v0 = frame.matrix
        w = v0.conj().T @ operator.matrix @ v0
        return cls(operator, np.angle(np.diag(w)), float(np.max(np.abs(w - np.diag(np.diag(w))))))

    @property
    def reliable(self) -> bool:
        return self.offdiag_residual <= UNRELIABLE_OFFDIAG


def _chunk_size(dim: int) -> int:
    """Steps per chunk: at most CHUNK_MATRICES matrices and about
    CHUNK_BYTES per stacked complex (K, dim, dim) array."""
    return max(1, min(CHUNK_MATRICES, CHUNK_BYTES // (16 * dim * dim)))


def _decomposed_chunks(model: ParametricHamiltonian, points, directions=None):
    """H at ``points`` (K, N) decomposed block by block, with the gradients
    along ``directions`` ((K, M, N); None: M = 0), a :func:`_chunk_size`
    chunk at a time: the one sweep of every chunked kernel.  Yields
    ``(start, chunk, system, gs)``: the chunk's first index, its points,
    its :class:`~adiaconn.operator_core.BlockSystem` and each block's
    (k, M, b, b) gradient stack, once the chunk has met the one degeneracy
    rule, :func:`~adiaconn.operator_core.spectral_gaps` on the lowest
    ``model.check_levels`` levels."""
    size = _chunk_size(model.dim)
    for start in range(0, len(points), size):
        chunk = points[start:start + size]
        blocks, hs, gs = model._kernel_batch(
            chunk, None if directions is None else directions[start:start + size])
        system = decompose_blocks(blocks, hs)
        spectral_gaps(system.evals, model.check_levels)
        yield start, chunk, system, gs


def _two_level_factors(m: np.ndarray, vecs: np.ndarray, gauge: np.ndarray) -> np.ndarray:
    """exp(i W) for the connection step W = m v_0 v_1^dag + h.c. of a
    two-node tree block, with v_n = D R[:, n] (see
    :func:`~adiaconn.operator_core.eigh_block`): W^2 = |m|^2 I, so
    exp(i W) = cos|m| I + i sinc|m| W.  In the gauge frame W is
    P = R [[0, m], [conj(m), 0]] R^T, and D P D^dag differs from P only
    off the diagonal.  Each factor is held to the unitarity budget of
    every step factor."""
    size = np.abs(m)
    cos, sinc = np.cos(size), np.ones_like(size)
    np.divide(np.sin(size), size, out=sinc, where=size != 0.0)
    r00, r01, r10, r11 = vecs[:, 0, 0], vecs[:, 0, 1], vecs[:, 1, 0], vecs[:, 1, 1]
    twice_real = 2.0 * m.real
    upper = ((r00 * r11) * m + (r01 * r10) * m.conj()) * (gauge[:, 0] * gauge[:, 1].conj())
    u = np.empty(m.shape + (2, 2), dtype=complex)
    u.real[:, 0, 0] = u.real[:, 1, 1] = cos
    u.imag[:, 0, 0] = sinc * (r00 * r01) * twice_real
    u.imag[:, 1, 1] = sinc * (r10 * r11) * twice_real
    u[:, 0, 1] = 1j * (sinc * upper)
    u[:, 1, 0] = 1j * (sinc * upper.conj())
    return _check_unitary_steps(u)


def _step_factors(model: ParametricHamiltonian, mids, deltas, weight):
    """exp(i W(mid_k) . delta_k) for every step, yielded one chunk at a time.

    W is the connection for the default weight; the gradient is contracted
    with the step before the change of basis, so each step costs one
    decomposition of H, whatever the number of parameters.  W and its
    exponential are block diagonal over the blocks of the joint nonzero
    pattern of H and the contracted gradient, so every block is
    decomposed, contracted and exponentiated on its own.  Each chunk comes
    with the index of its first step, as a list of (index, factors) pairs:
    the basis indices of a block (all of them when the chunk does not
    split) and its (k, b, b) factor stack; the factors are exactly zero
    outside the blocks.

    A two-node tree block under the default weight takes its factor in
    closed form from one eigenbasis element per step
    (:func:`_two_level_factors`), with no contraction and no series;
    every other block is contracted by :func:`contract_stack` and
    exponentiated by :func:`~adiaconn.operator_core.expm_hermitian_stack`.
    Both routes name the first point whose connection is not finite.
    """
    for start, mid, system, gs in _decomposed_chunks(model, mids, deltas[:, None]):
        # a two-level block carries m, one number per step; any other its (k, b, b) W
        gens = [connection_weight(e[:, 0] - e[:, 1]) * _two_level_element(v, gauge, g)[0]
                if weight is connection_weight and gauge is not None and v.shape[-1] == 2
                else contract_stack(e, v, g[:, 0], weight, gauge)
                for g, (e, v, gauge) in zip(gs, system.parts)]
        if not all(np.isfinite(w.view(float)).all() for w in gens):  # rows only to name the point
            finite = np.all([np.isfinite(w.view(float)).reshape(len(w), -1).all(axis=1)
                             for w in gens], axis=0)
            raise ValueError(f"non-finite connection at {mid[np.argmin(finite)].tolist()}")
        yield start, [(b.index, expm_hermitian_stack(w) if w.ndim == 3
                       else _two_level_factors(w, v, gauge))
                      for b, w, (_, v, gauge) in zip(system.blocks, gens, system.parts)]


def _run_products(factors: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Ordered product of every run of consecutive factors of a (K, b, b)
    stack, the later factor on the left; ``lengths`` (each at least 1)
    add up to K.  Returns one matrix per run.

    The runs are reduced by levels: at each level the factors 2m and
    2m + 1 of every run are multiplied as one stacked product, and a run
    with an odd count carries its last factor up unpaired, so a run of L
    factors takes ceil(log2 L) levels.  Each level is one
    :func:`~adiaconn.operator_core.matmul`, unrolled for 2x2 factors.
    Runs of one length (a path's one run per chunk, grid edges whose
    refinement divides the chunk) are an (S, L, b, b) view, and a level
    multiplies its odd entries onto its even ones by strided views, with
    no gather of the stack.  Ragged runs take the pairs from index
    arrays and overwrite ``factors``: one level for all of them, where
    strided views would need one call per group of runs of one length.
    Both form the same pairs in the same order, so they agree bit for
    bit.
    """
    lengths = np.asarray(lengths)
    # most ragged mixes already fail the first, constant-time test
    if len(factors) == lengths[0] * len(lengths) and np.all(lengths == lengths[0]):
        runs = factors.reshape((len(lengths), -1) + factors.shape[1:])
        while runs.shape[1] > 1:
            pairs, odd = divmod(runs.shape[1], 2)
            product = matmul(runs[:, 1:2 * pairs:2], runs[:, 0:2 * pairs:2])
            runs = np.concatenate([product, runs[:, -1:]], axis=1) if odd else product
        return runs[:, 0]
    while len(factors) > len(lengths):
        pairs, odd = np.divmod(lengths, 2)
        # the first factor of every pair: each run with an odd length
        # leaves one factor over, which shifts the pairs after it
        left = 2 * np.arange(pairs.sum()) + np.repeat(np.cumsum(odd) - odd, pairs)
        factors[left] = matmul(factors[left + 1], factors[left])
        keep = np.ones(len(factors), dtype=bool)
        keep[left + 1] = False
        factors, lengths = factors[keep], pairs + odd
    return factors


def ordered_products(
    model: ParametricHamiltonian,
    mids,
    deltas,
    lengths,
    weight=connection_weight,
) -> np.ndarray:
    """Path-ordered exponentials over consecutive runs of midpoint steps.

    The K steps (``mids`` and ``deltas``, both (K, N)) split into
    consecutive segments of the given ``lengths``; segment s gives
    prod_k exp(i sum_mu W_mu(mid_k) delta_k,mu) with its first step acting
    first, and a segment of length 0 gives the identity.  ``weight`` is
    the eigenbasis weight handed to :func:`contract_stack`; the default
    makes W the connection.  Returns an (S, d, d) array.

    ``lengths`` must be integers: a bool or float array is refused, as
    every other count in the library is, before any cast.

    Within a chunk of steps, the steps of each segment are multiplied by
    :func:`_run_products`, one block at a time when the chunk splits.  A
    chunk's runs start where the segment label of its steps changes; the
    labels ascend, so no sort is needed, and segments of length 0 hold
    no step.  A segment that began in an earlier chunk takes the chunk's
    piece on the left of its product so far.
    """
    mids, deltas = np.asarray(mids, dtype=float), np.asarray(deltas, dtype=float)
    lengths = np.asarray(lengths).reshape(-1)
    if not lengths.size:  # [] reads as a float array
        lengths = lengths.astype(int)
    if (deltas.shape != mids.shape or lengths.dtype.kind not in "iu" or np.any(lengths < 0)
            or lengths.sum() != len(mids)):
        raise ValueError("need one delta per midpoint and segment lengths: non-negative "
                         "integers adding up to the steps")
    out = np.empty((len(lengths), model.dim, model.dim), dtype=complex)
    out[lengths == 0] = np.eye(model.dim)
    segment = np.repeat(np.arange(len(lengths)), lengths)
    begun = np.cumsum(lengths) - lengths  # first step of every segment
    for start, chunk in _step_factors(model, mids, deltas, weight):
        labels = segment[start:start + len(chunk[0][1])]
        bounds = np.concatenate(([0], np.flatnonzero(labels[1:] != labels[:-1]) + 1,
                                 [len(labels)]))
        runs, counts = labels[bounds[:-1]], np.diff(bounds)
        if len(chunk) == 1:  # one block holds every level
            pieces = _run_products(chunk[0][1], counts)
        else:
            pieces = np.zeros((len(runs), model.dim, model.dim), dtype=complex)
            for index, factors in chunk:
                pieces[:, index[:, None], index] = _run_products(factors, counts)
        if begun[runs[0]] < start:
            pieces[0] = pieces[0] @ out[runs[0]]
        out[runs] = pieces
    return out


def transport_operator(model: ParametricHamiltonian, path: PathSpec) -> TransportResult:
    """Path-ordered exponential of the connection along ``path``.

    U = prod_k exp(i sum_mu A_mu(midpoint_k) delta_k,mu), ordered so the
    first step acts first.  The transported frame is U applied to the
    phase-fixed eigenframe at the start point.
    """
    if path.n_params != model.n_params:
        raise ValueError("path dimensionality does not match the model")
    start_spec = model.spectral_at(path.start)
    mids, deltas = path.step_arrays()
    u = ordered_products(model, mids, deltas, [len(mids)])[0]
    h_start = model.eval_h(path.start)
    h_end = model.eval_h(path.end)
    residual = frobenius(h_end - u @ h_start @ u.conj().T) / max(frobenius(h_start), 1e-300)
    return TransportResult(
        operator=UnitaryOperator(u, tol=1e-8),
        transported_frame=UnitaryOperator(u @ start_spec.frame.matrix, tol=1e-8),
        conjugation_residual=float(residual),
        start_spec=start_spec,
    )


def holonomy(model: ParametricHamiltonian, loop: PathSpec) -> HolonomyResult:
    """Loop holonomy with per-level phase extraction.

    For a non-degenerate family the loop operator is diagonal in the
    eigenbasis of the base point (up to discretization error), with the
    Berry phase of each level on the diagonal.
    """
    if not loop.closed:
        raise ValueError("holonomy requires a closed loop")
    result = transport_operator(model, loop)
    return HolonomyResult.in_base_frame(result.operator, result.start_spec.frame)


def _block_overlaps(system) -> np.ndarray:
    """<n(k)|n(k+1)> for every level n and every pair of consecutive
    matrices k, k+1 of a :class:`~adiaconn.operator_core.BlockSystem`, as
    a (K-1, d) array.

    A level that keeps its column keeps its block, and its overlap is
    taken within the block.  For a tree block the overlap of D_k R_k and
    D_k+1 R_k+1 is the sum over i of conj(D_k,i) D_k+1,i R_k,i R_k+1,i,
    one stacked row-times-matrix product, and no gauged eigenvector stack
    is built.  A level that changes column is taken from the dense frames
    of both matrices, exactly zero outside each vector's block, so the
    overlap is exactly 0 where the level changes block.
    """
    now, later = system.order[:-1], system.order[1:]
    aligned = []
    for _, v, gauge in system.parts:
        if gauge is None:
            aligned.append(np.einsum("kic,kic->kc", v[:-1].conj(), v[1:]))
        else:
            phase = gauge[:-1].conj() * gauge[1:]
            aligned.append((phase[:, None, :] @ (v[:-1].conj() * v[1:]))[:, 0])
    if len(aligned) == 1:  # one block: every level keeps its column
        return aligned[0]
    overlaps = np.take_along_axis(np.concatenate(aligned, axis=-1), now, axis=-1)
    k, n = np.nonzero(now != later)  # levels that changed column
    rows, at = np.unique(k, return_inverse=True)  # one dense frame per matrix
    overlaps[k, n] = np.einsum("pi,pi->p", system.frames(rows)[at, :, n].conj(),
                               system.frames(rows + 1)[at, :, n])
    return overlaps


def wilson_loop_phases(model: ParametricHamiltonian, loop: PathSpec) -> np.ndarray:
    """Discrete Wilson-loop Berry phases, one per level.

    phi_n = -arg prod_k <n(lambda_k)|n(lambda_{k+1})>, with the final
    overlap closing onto the very same eigenvector objects used at the
    start, so the product is exactly independent of the eigenvector phase
    convention.  Consecutive overlaps below MIN_OVERLAP in magnitude
    abort with a refinement hint instead of returning garbage.  The guard
    covers the lowest ``model.check_levels`` levels (all when None), the
    ones the degeneracy check covers; higher levels may cluster and mix,
    so their phases are returned unguarded and are not to be trusted.

    Each chunk of nodes is decomposed block by block; overlaps within a
    chunk are taken per block (:func:`_block_overlaps`), and those across
    a chunk seam and the closing one between dense frames of the two
    nodes.
    """
    if not loop.closed:
        raise ValueError("wilson_loop_phases requires a closed loop")
    nodes = loop.refined_points()
    if len(nodes) > 1:
        nodes = nodes[:-1]  # closing node coincides with the first

    def overlap_product(overlaps, first_node):
        # overlaps[k] pairs node first_node + k with its successor
        small = np.abs(overlaps[:, :model.check_levels]) < MIN_OVERLAP
        if np.any(small):
            k, level = (int(i[0]) for i in np.nonzero(small))
            raise ValueError(
                f"consecutive eigenvectors nearly orthogonal at node {first_node + k} "
                f"(level {level}, |overlap| = {np.abs(overlaps[k, level]):.3f}); "
                "refine the loop"
            )
        return np.prod(overlaps, axis=0)

    def seam(f_now, f_next):
        return np.einsum("kin,kin->kn", f_now.conj(), f_next)

    product = np.ones(model.dim, dtype=complex)
    for start, _, system, _ in _decomposed_chunks(model, nodes):
        ends = system.frames([0, -1])
        overlaps = _block_overlaps(system)
        if start == 0:
            first = ends[:1]
        else:
            overlaps = np.concatenate([seam(last, ends[:1]), overlaps])
        product *= overlap_product(overlaps, max(start - 1, 0))
        last = ends[1:]
    product *= overlap_product(seam(last, first), len(nodes) - 1)
    return wrap_phase(-np.angle(product))


# ---------------------------------------------------------------------------
# Counterdiabatic driving
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    """Time-dependent parameter sweep lambda(t) on [0, total_time]."""

    position: Callable[[float], np.ndarray]
    velocity: Callable[[float], np.ndarray]
    total_time: float

    def __post_init__(self):
        if not (np.isfinite(self.total_time) and self.total_time > 0.0):
            raise ValueError(f"schedule duration must be finite and positive, "
                             f"got {self.total_time!r}")


def linear_schedule(start, end, total_time: float) -> Schedule:
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    # Schedule checks the duration before the rate divides by it
    schedule = Schedule(
        position=lambda t: start + rate * t,
        velocity=lambda t: rate,
        total_time=total_time,
    )
    rate = (end - start) / total_time
    return schedule


@dataclass(frozen=True)
class DrivingResult:
    """Trajectory report of a driven evolution.

    ``fidelities[k]`` is |<n0(lambda(t_k))|psi(t_k)>|^2 against the
    instantaneous eigenvector of the tracked level; ``final_phase`` is the
    argument of that overlap at the end (dynamical plus geometric, gauge
    fixed by the phase convention).

    ``phases`` inherit that gauge.  The phase rule anchors each
    eigenvector on its largest-magnitude entry, and entries of equal
    magnitude tie to the lowest index, but where two entries trade places
    as the largest along the sweep the anchor moves, and ``phases`` jump
    by the relative phase of the two entries (for spin 1, level m = 0,
    by phi where cos(theta) falls below sin(theta)/sqrt(2), at
    theta = 0.955).  Fidelities do not depend on the gauge.
    """

    times: np.ndarray
    fidelities: np.ndarray
    phases: np.ndarray
    norm_drifts: np.ndarray
    final_phase: float
    counterdiabatic: bool

    @property
    def min_fidelity(self) -> float:
        return float(np.min(self.fidelities))


def counterdiabatic_evolve(
    model: ParametricHamiltonian,
    schedule: Schedule,
    n0: int,
    dt: float,
    include_cd: bool = True,
) -> DrivingResult:
    """Integrate i dpsi/dt = [H(lambda(t)) - sum_mu d(lambda_mu)/dt A_mu] psi.

    Fixed-step 4th-order Runge-Kutta from psi(0) = |n0(lambda(0))>.  With
    the connection term included the evolution is transitionless: the
    fidelity against the instantaneous eigenvector stays at 1 up to
    integrator error, at any sweep rate.  The sign of the extra term is
    fixed by the transport convention d|n> = +i A |n>: a state riding
    |n(lambda(t))> needs the generator H - lambdadot . A, which for the
    polar sweep of a spin-1/2 reproduces the familiar counterdiabatic
    field +(thetadot/2) sigma_y.  ``include_cd=False`` drops the term for
    diabatic control runs.

    Raises :class:`StepSizeError` when the norm drifts more than
    NORM_DRIFT_TOL per unit time, which signals that ``dt`` is too
    large for the spectral scale of the generator, and ValueError when
    the state stops being finite (a non-finite H at a Runge-Kutta stage).
    """
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    _check_level(n0, model.dim)

    # The last RK4 stage of one step and the record after it, and usually
    # the first stage of the next step, share lambda bit for bit, so the
    # last point's H, and its decomposition once asked for, are kept.
    memo = {}

    def point(lam: np.ndarray, h=None) -> list:
        """[H, decomposition or None] at lam; H is evaluated unless given."""
        key = lam.tobytes()
        if key not in memo:
            memo.clear()
            memo[key] = [model.eval_h(lam) if h is None else h, None]
        return memo[key]

    def spectral(lam) -> SpectralDecomposition:
        entry = point(np.asarray(lam, dtype=float))
        if entry[1] is None:
            entry[1] = spectral_decompose(entry[0], check_levels=model.check_levels)
        return entry[1]

    def generator(t: float) -> np.ndarray:
        lam = np.asarray(schedule.position(t), dtype=float)
        if not include_cd:
            return point(lam)[0]
        vel = np.asarray(schedule.velocity(t), dtype=float)
        h, g_vel = model.eval_batch(lam[None], vel[None, None])
        point(lam, h[0])
        return h[0] - connection_spectral(spectral(lam), [g_vel[0, 0]]).components[0]

    n_steps = max(int(round(schedule.total_time / dt)), 1)
    dt = schedule.total_time / n_steps
    spec0 = spectral(schedule.position(0.0))
    psi = spec0.frame.matrix[:, n0].copy()

    times = np.empty(n_steps + 1)
    fidelities = np.empty(n_steps + 1)
    phases = np.empty(n_steps + 1)
    drifts = np.empty(n_steps + 1)

    def record(k: int, t: float):
        times[k] = t
        target = spectral(schedule.position(t)).frame.matrix[:, n0]
        overlap = np.vdot(target, psi)
        fidelities[k] = np.abs(overlap) ** 2
        phases[k] = np.angle(overlap)
        drifts[k] = abs(np.linalg.norm(psi) - 1.0)

    record(0, 0.0)
    for k in range(n_steps):
        t = k * dt
        h1 = generator(t)
        h2 = generator(t + 0.5 * dt)
        h4 = generator(t + dt)
        k1 = -1j * (h1 @ psi)
        k2 = -1j * (h2 @ (psi + 0.5 * dt * k1))
        k3 = -1j * (h2 @ (psi + 0.5 * dt * k2))
        k4 = -1j * (h4 @ (psi + dt * k3))
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        record(k + 1, t + dt)
        # fail closed: a NaN drift compares False with any budget
        if not drifts[k + 1] <= NORM_DRIFT_TOL * max(t + dt, 1.0):
            if not np.isfinite(drifts[k + 1]):
                raise ValueError(f"state is not finite at t = {t + dt:.4g}: the generator "
                                 "is not finite within the step, or dt is far too large")
            raise StepSizeError(
                f"norm drift {drifts[k + 1]:.3e} at t = {t + dt:.4g} exceeds budget; "
                f"reduce dt below {dt:.3e}"
            )

    return DrivingResult(
        times=times,
        fidelities=fidelities,
        phases=phases,
        norm_drifts=drifts,
        final_phase=float(phases[-1]),
        counterdiabatic=include_cd,
    )
