"""Dense complex linear algebra substrate.

Certified unitary values, the one symmetrizer and the one Hermiticity
rule, the one bound on the size of an entry, spectral decomposition with
degeneracy detection, Hermitian matrix exponentials, and the one
eigenvector phase rule (:func:`fix_phase`).  The
degeneracy check, the Hermiticity rule and the exponential also work on
stacks of matrices (leading batch axes), which is how the path kernel in
:mod:`adiaconn.transport` decomposes and exponentiates a whole chunk of
steps in one call.  Everything here is a pure function on immutable
values; nothing mutates its inputs.

The step exponential exp(iW) of a stack is a truncated Taylor series,
evaluated Paterson-Stockmeyer style (Higham, SIAM J. Matrix Anal. Appl.
26 (2005) 1179; Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011) 488).
Transport steps have generators far below norm 1, so a few stacked matrix
products replace a second eigendecomposition per step; above
``TAYLOR_MAX_NORM`` the exponential goes through the eigenbasis.

Every eigendecomposition in the library goes through this module, which
is also the one place that finds blocks.  :func:`split_blocks` takes the
union of the exactly nonzero entries of one or more stacks; its
connected components (a conserved symmetry such as the oscillator's Fock
parity) are the blocks, and a connected pattern, with or without a
cycle, is one block.  The kernels carry each block's own (K, b, b)
stacks, as the model hands them over; :func:`decompose_blocks`
decomposes each by :func:`eigh_block` and ranks the merged eigenvalues,
so that callers can work block by block and still see the whole
spectrum.  A model's decomposition at one point is the one-point case
of the same route; :func:`spectral_decompose`, for a raw matrix, takes
``numpy.linalg.eigh`` as it is, unsplit.  Both end in one shared tail:
the phase rule, then the degeneracy rule.

A block whose coupling graph is a tree is decomposed as a real symmetric
matrix.  A diagonal unitary D changes the phase of every coupling H_ab
but leaves the product H_ab H_bc ... H_za around any closed cycle of the
coupling graph unchanged; those cycle products, a discrete flux, are the
only phases a change of eigenvector gauge cannot remove, much as a
holonomy comes from curvature and not from the gauge of the connection.
A tree has no cycle, so all its coupling phases are pure gauge: one D,
built by walking the tree from its root, removes them all, D^dag H D is
real, and a real ``eigh`` of it costs roughly half the complex one.
:func:`eigh_block` finds D and the real matrix from one pass over the
tree's couplings and returns the block's eigensystem as one record: its
eigenvalues, the real R of that ``eigh``, and D, so that callers can
rotate into the eigenbasis with real matrix products.  The 60-level
oscillator couples level n only to n +- 2, so each parity sector is a
chain and takes the real path; so does a connected tree, such as spin
1/2 (two levels) and the tridiagonal higher spins.

Spin 1/2 makes every stacked matrix 2x2, where ``eigh`` and stacked
``matmul`` cost mostly per-matrix call overhead.  A two-node tree block
is therefore decomposed in closed form from one rotation angle, and
:func:`matmul` writes a product whose contraction has length 2 entry by
entry, each term one elementwise product along the whole stack, for
stacks long enough to repay the entry views (a short stack takes the
broadcast product); every other size goes to LAPACK and ``@``.  For two
levels the sum-over-states formulas need one number per point, the
eigenbasis element x = <0|G|1> (:func:`_two_level_element`): the
transport kernel builds the spin-1/2 step factor from it, and the
surface integrand the level curvature, with no contraction of whole
matrices and no series.  Every step factor, by series, eigenbasis or
closed form, meets one unitarity check (:func:`_check_unitary_steps`).
For the same reason a reduction
over a short axis of a stack (a spectral radius, a 1-norm, a nearest
gap) runs over a copy with that axis in front (:func:`_short_axis_first`),
so that NumPy's inner loops run along the stack and not along the
axis, once per matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
# Largest max 1-norm of a stack that expm_hermitian_stack exponentiates by
# its Taylor series (degree 23 there); larger stacks take the eigenbasis.
TAYLOR_MAX_NORM = 2.0
# Fewest matrices for which matmul writes a 2x2 contraction entry by
# entry; below it the broadcast product costs less.
ENTRYWISE_MIN_STACK = 256
# Relative spread of entry magnitudes that fix_phase treats as a tie.
PHASE_TIE_TOL = 1e-12
_SQRT_FLOAT_MAX = math.sqrt(np.finfo(float).max)

__all__ = [
    "HERMITICITY_TOL",
    "UNITARITY_TOL",
    "DegenerateSpectrumError",
    "UnitaryOperator",
    "SpectralDecomposition",
    "as_matrix",
    "frobenius",
    "wrap_phase",
    "hermitian_part",
    "hermiticity_defect",
    "Block",
    "BlockSystem",
    "split_blocks",
    "eigh_block",
    "gauge_phase",
    "matmul",
    "sandwich",
    "decompose_blocks",
    "spectral_decompose",
    "spectral_gaps",
    "default_gap_tol",
    "expm_hermitian",
    "expm_hermitian_stack",
    "fix_phase",
]


class DegenerateSpectrumError(Exception):
    """Adjacent eigenvalue spacing fell below :func:`default_gap_tol`;
    ``threshold`` is the value it missed."""

    def __init__(self, level: int, gap: float, threshold: float):
        self.level = level
        self.gap = gap
        self.threshold = threshold
        super().__init__(
            f"eigenvalues {level} and {level + 1} are degenerate within "
            f"tolerance: gap {gap:.3e} < threshold {threshold:.3e}"
        )


def as_matrix(value) -> np.ndarray:
    """Accept a raw ndarray or one of the operator wrappers below."""
    m = getattr(value, "matrix", value)
    return np.asarray(m, dtype=complex)


def frobenius(m) -> float:
    return float(np.linalg.norm(as_matrix(m)))


def wrap_phase(phi):
    """Wrap angle(s) to (-pi, pi]."""
    return np.angle(np.exp(1j * np.asarray(phi)))


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_magnitude(largest: float, dim: int, what: str) -> None:
    """ValueError when ``largest``, the largest real or imaginary part of
    the entries of a d x d matrix or stack, reaches sqrt(float max) / (4 d).
    Frobenius norms sum the squares of the entries, so above that bound a
    norm, and with it the Hermiticity rule and the unitarity checks,
    overflows to inf and no longer checks anything."""
    limit = _SQRT_FLOAT_MAX / (4 * max(dim, 1))
    if largest >= limit:
        raise ValueError(f"{what} has an entry of magnitude {largest:.3e}, at or above "
                         f"the limit {limit:.3e} for dimension {dim}")


def _check_square_finite(m: np.ndarray, what: str) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {m.shape}")
    largest = np.abs(m.view(float)).max(initial=0.0)
    if not math.isfinite(largest):
        raise ValueError(f"{what} has non-finite entries")
    _check_magnitude(largest, m.shape[0], what)


@dataclass(frozen=True)
class UnitaryOperator:
    """A certified unitary matrix (columns orthonormal within tolerance).

    ``tol`` is the per-dimension unitarity budget; ordered products of
    many factors accumulate roundoff and are certified against a looser
    budget by their producers.
    """

    matrix: np.ndarray
    tol: float = UNITARITY_TOL

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)  # a copy: the caller's array stays writeable
        _check_square_finite(m, "UnitaryOperator")
        defect = np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0]))
        if defect > self.tol * m.shape[0]:
            raise ValueError(f"matrix is not unitary: ||U^dag U - I|| = {defect:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues with a phase-fixed orthonormal eigenframe.

    ``frame.matrix[:, n]`` is the eigenvector of level ``n``; ``min_gap`` is
    the smallest spacing between adjacent eigenvalues (``inf`` for dim 1).
    """

    eigenvalues: np.ndarray
    frame: UnitaryOperator
    min_gap: float

    def __post_init__(self):
        e = np.asarray(self.eigenvalues, dtype=float)
        e.setflags(write=False)
        object.__setattr__(self, "eigenvalues", e)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.eigenvalues)))

    def to_eigenbasis(self, m) -> np.ndarray:
        """Matrix elements of ``m`` between eigenvectors, ``<m|M|n>``."""
        v = self.frame.matrix
        return v.conj().T @ as_matrix(m) @ v

    def from_eigenbasis(self, m) -> np.ndarray:
        v = self.frame.matrix
        return v @ as_matrix(m) @ v.conj().T


def hermitian_part(m) -> np.ndarray:
    """(M + M^dag)/2 of a matrix or of every matrix of a stack: the
    library's one symmetrizer."""
    m = np.asarray(m, dtype=complex)
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def hermiticity_defect(h):
    """||H - H^dag|| of a matrix, or of every matrix of a (K, d, d) stack,
    and whether it misses the library's one Hermiticity rule

        ||H - H^dag|| <= HERMITICITY_TOL * max(||H||, 1)   (Frobenius norms);

    a NaN misses it.  One matrix takes the plain ``numpy.linalg.norm``,
    which costs less than a norm over axes for a small matrix, as in
    :func:`spectral_decompose`; a stack is checked in one call, as the
    kernels check every chunk of a family that hands over dense H.
    """
    if h.ndim == 2:
        defect = np.linalg.norm(h - h.conj().T)
        return defect, not defect <= HERMITICITY_TOL * max(np.linalg.norm(h), 1.0)
    defect = np.linalg.norm(h - h.conj().swapaxes(-1, -2), axis=(-2, -1))
    scale = np.maximum(np.linalg.norm(h, axis=(-2, -1)), 1.0)
    return defect, ~(defect <= HERMITICITY_TOL * scale)


def _short_axis_first(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """``x`` with its short ``axis`` moved to the front, as a contiguous
    copy.  Reducing the copy over axis 0 runs every step of the reduction
    along the whole stack, where reducing ``x`` over ``axis`` runs one
    inner loop of that axis's length per matrix.  Max, min and argmin
    (first index on ties) give exactly the same values; a sum adds its
    terms in order, which is NumPy's order for a length of 2 or a
    non-last axis, but not for a last axis of 3 or more."""
    return np.ascontiguousarray(np.moveaxis(x, axis, 0))


def default_gap_tol(eigenvalues: np.ndarray):
    """Scale-aware degeneracy threshold: 1e-8 * (1 + spectral radius).

    Eigenvalues of a stack of matrices (leading batch axes) give one
    threshold per matrix.
    """
    radius = np.abs(np.asarray(eigenvalues, dtype=float))
    if radius.ndim > 1:
        radius = _short_axis_first(radius)
    return 1e-8 * (1.0 + np.max(radius, axis=0, initial=0.0))


def spectral_gaps(evals, check_levels: int | None = None):
    """Smallest adjacent eigenvalue gap among the lowest ``check_levels``
    levels (all when None), one per matrix of a stack.

    Raises :class:`DegenerateSpectrumError` for the first matrix whose
    smallest gap falls below its :func:`default_gap_tol`, the library's one
    degeneracy rule; a degenerate spectrum invalidates every construction
    downstream that divides by eigenvalue differences.  A NaN gap misses
    the rule too.  Fewer than two checked levels give an infinite gap.
    ``check_levels`` must be None or a positive integer, else ValueError.
    """
    if check_levels is not None and not (_is_int(check_levels) and check_levels >= 1):
        raise ValueError(f"check_levels must be None or a positive integer, got {check_levels!r}")
    evals = np.asarray(evals, dtype=float)
    gaps = np.diff(evals[..., :check_levels], axis=-1)
    if gaps.shape[-1] == 0:
        return np.full(evals.shape[:-1], np.inf)
    min_gap = np.min(_short_axis_first(gaps) if gaps.ndim > 1 else gaps, axis=0)
    threshold = np.broadcast_to(default_gap_tol(evals), min_gap.shape)
    bad = np.flatnonzero(~(min_gap >= threshold))
    if bad.size:
        k = bad[0]
        worst = np.argmin(gaps.reshape(-1, gaps.shape[-1])[k])
        raise DegenerateSpectrumError(int(worst), float(min_gap.flat[k]),
                                      float(threshold.flat[k]))
    return min_gap


def fix_phase(frame) -> UnitaryOperator:
    """Make each column's largest-magnitude entry real and positive, ties
    going to the lowest index: the library's one eigenvector phase rule.
    Idempotent.

    Magnitudes within a relative ``PHASE_TIE_TOL`` of the column's
    largest count as tied, so that entries of exactly equal magnitude
    (spin 1, level m = 0: the entries for m = -1 and m = +1) do not let
    roundoff pick the anchor.  Where two entries trade places as the
    largest by more than that, the anchor still jumps, and with it the
    phase of the column."""
    v = as_matrix(frame)
    magnitude = np.abs(v)
    largest = magnitude.max(axis=0, initial=0.0)
    zero = np.flatnonzero(largest == 0.0)
    if zero.size:
        raise ValueError(f"column {zero[0]} is zero; cannot phase-fix")
    anchor = np.argmax(magnitude >= (1.0 - PHASE_TIE_TOL) * largest, axis=0)
    z = v[anchor, np.arange(v.shape[1])]
    # hypot rounds like abs() of a single complex number; np.abs of an
    # array may differ in the last bit
    modulus = np.hypot(z.real, z.imag)
    return UnitaryOperator(v * (z.conj() / modulus))


class Block(NamedTuple):
    """One block of a split nonzero pattern: its ascending basis indices,
    and, when its coupling graph is a tree, the local index of every
    node's parent along that tree (the root, local node 0, is its own
    parent); ``parent`` is None for a block with a cycle."""

    index: np.ndarray
    parent: np.ndarray | None

    def take(self, stack: np.ndarray) -> np.ndarray:
        """The block's diagonal sub-stack of a (..., d, d) stack."""
        return stack[..., self.index[:, None], self.index]


@lru_cache(maxsize=64)
def _pattern_blocks(pattern: bytes, dim: int):
    """Connected components of a (dim, dim) boolean nonzero pattern, each
    a :class:`Block` with its tree when it has one; a connected pattern is
    one block.  One breadth-first search per component, started from its
    lowest index, reaches every node from a parent; a component with
    n - 1 couplings is a tree, and those are its parents along the tree."""
    adjacent = np.frombuffer(pattern, dtype=bool).reshape(dim, dim)
    adjacent = (adjacent | adjacent.T) & ~np.eye(dim, dtype=bool)
    neighbours = [np.flatnonzero(row).tolist() for row in adjacent]
    parent = np.full(dim, -1)
    blocks = []
    for root in range(dim):
        if parent[root] >= 0:
            continue
        parent[root], members = root, [root]
        for p in members:  # the queue: nodes are appended as they are reached
            for c in neighbours[p]:
                if parent[c] < 0:
                    parent[c] = p
                    members.append(c)
        idx = np.sort(members)
        tree = sum(len(neighbours[p]) for p in members) == 2 * (len(idx) - 1)
        blocks.append(Block(idx, np.searchsorted(idx, parent[idx]) if tree else None))
    return tuple(blocks)


def split_blocks(*stacks):
    """Blocks of the union of the exactly nonzero entries of one or more
    (..., d, d) stacks, as a tuple of :class:`Block`; a connected union is
    one block, and an empty stack adds no entry to the union."""
    dim = stacks[0].shape[-1]
    pattern = False
    for s in stacks:
        s = s.reshape(-1, dim, dim)
        if len(s) == 0:
            continue
        if np.count_nonzero(s[0]) == dim * dim:
            pattern = True  # one dense matrix makes the union dense
            break
        # real and imaginary parts compared as one float array: faster
        # than a complex comparison
        nonzero = np.any(np.ascontiguousarray(s).view(s.real.dtype) != 0, axis=0)
        pattern = pattern | nonzero.reshape(dim, dim, -1).any(axis=-1)
    return _pattern_blocks(np.broadcast_to(pattern, (dim, dim)).tobytes(), dim)


def _eigh_2x2(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Closed-form ``eigh`` of the real symmetric stack [[a, b], [b, c]]
    with b >= 0: ascending eigenvalues mean -+ hypot((a - c)/2, b), and
    the eigenvectors of the rotation by half the angle atan2(b, (a - c)/2),
    which lies in [0, pi].  Halving a and c before they are combined keeps
    every intermediate finite whenever the eigenvalues are.  A diagonal
    matrix with a < c turns by exactly pi/2: the cosine of the rounded
    half angle, 6.1e-17, is set to 0."""
    mean, half = 0.5 * a + 0.5 * c, 0.5 * a - 0.5 * c
    radius = np.hypot(half, b)
    angle = 0.5 * np.arctan2(b, half)
    cos, sin = np.cos(angle), np.sin(angle)
    cos[(b == 0.0) & (half < 0.0)] = 0.0
    vecs = np.stack([-sin, cos, cos, sin], axis=-1).reshape(len(a), 2, 2)
    return np.stack([mean - radius, mean + radius], axis=-1), vecs


def eigh_block(stack: np.ndarray, block: Block):
    """``eigh`` of a block's own (K, b, b) Hermitian stack, in the block's
    tree gauge: ``(evals, vecs, gauge)``, where the block's eigenvectors
    are ``gauge[..., :, None] * vecs``, or ``vecs`` when ``gauge`` is None.

    A block whose coupling graph is a tree carries no gauge-invariant
    flux.  Its gauge D, a (K, b) array of unit phases, is propagated from
    the root so that D_c = D_p conj(H_pc)/|H_pc| along every tree edge
    p -> c (1 where H_pc is exactly 0); then D^dag H D is real symmetric,
    with the entries |H_pc| along the tree edges.  That real matrix is
    decomposed instead, and ``vecs`` are its real eigenvectors R.  A
    two-node tree block, [[a, |H_01|], [|H_01|, c]], is decomposed in
    closed form from one rotation angle (:func:`_eigh_2x2`), the only
    caller of that form, so its eigenvalues meet the same degeneracy rule
    as every other block's.  A block with a cycle, and any real input,
    takes ``numpy.linalg.eigh`` as it is, with ``gauge`` None.
    """
    parent = block.parent
    if parent is None or not np.iscomplexobj(stack):
        return (*np.linalg.eigh(stack), None)
    local = np.arange(len(parent))
    child = np.flatnonzero(parent != local)
    link = stack[:, parent[child], child]  # H_pc of every child c, (K, children)
    size = np.abs(link)
    unit = np.ones_like(link)
    np.divide(link.conj(), size, out=unit, where=size > 0)
    gauge = np.ones((len(stack), len(parent)), dtype=complex)
    gauge[:, child] = unit
    up = parent
    while np.any(up):  # pointer jumping: products along each path to the root
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


def _two_level_element(vecs: np.ndarray, gauge: np.ndarray, g: np.ndarray) -> np.ndarray:
    """x = <0|G|1> = (R^T D^dag G D R)_01 of a two-node tree block, from its
    (K, 2, 2) real eigenvectors R and (K, 2) gauge D (see
    :func:`eigh_block`), for a (K, M, 2, 2) Hermitian G, as (M, K) with M
    in front so that every product runs along the stack.  For two levels
    the connection and the level curvature need only x.  Only the real
    diagonal and the upper triangle of G are read, which is why the
    kernels hold every dense gradient to the Hermiticity rule."""
    g = np.moveaxis(g, 1, 0)
    upper = g[..., 0, 1] * (gauge[:, 0].conj() * gauge[:, 1])
    r00, r01, r10, r11 = vecs[:, 0, 0], vecs[:, 0, 1], vecs[:, 1, 0], vecs[:, 1, 1]
    return ((r00 * r01) * g[..., 0, 0].real + (r10 * r11) * g[..., 1, 1].real
            + (r00 * r11) * upper + (r10 * r01) * upper.conj())


def gauge_phase(gauge: np.ndarray) -> np.ndarray:
    """conj(D_m) D_n for a (..., d) stack of gauge diagonals D, as
    (..., d, d): the elementwise factor that takes G to D^dag G D."""
    return gauge.conj()[..., :, None] * gauge[..., None, :]


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks; a contraction of length 2 is a sum of two
    products, out[..., i, j] = a[..., i, 0] b[..., 0, j] + a[..., i, 1]
    b[..., 1, j].  For a stack of at least ``ENTRYWISE_MIN_STACK``
    matrices each entry is written on its own, each term one elementwise
    product of strided entry views over the whole stack: a stacked
    ``matmul`` of 2x2 matrices, or a broadcast product of their rows and
    columns, spends most of its time in inner loops of length 2, one per
    matrix.  A shorter stack is that broadcast product, whose fixed cost
    is a quarter of the entrywise form's; both add the same two products
    per entry, so they agree bit for bit.  Every other inner size is
    ``a @ b`` itself."""
    if a.shape[-1] != 2 or b.shape[-2] != 2:
        return a @ b
    rows, cols = a.shape[-2], b.shape[-1]
    stack = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    if math.prod(stack) < ENTRYWISE_MIN_STACK:
        out = a[..., :, 0, None] * b[..., None, 0, :]
        out += a[..., :, 1, None] * b[..., None, 1, :]
        return out
    out = np.empty(stack + (rows, cols), dtype=np.result_type(a, b))
    for i in range(rows):
        for j in range(cols):
            out[..., i, j] = a[..., i, 0] * b[..., 0, j] + a[..., i, 1] * b[..., 1, j]
    return out


def sandwich(a, x, b) -> np.ndarray:
    """a @ x @ b for stacks; with real a and b, the real and imaginary
    parts of x are multiplied as real matrices, several times faster than
    a complex product for small matrices, and no complex copy of a or b
    is made.  A 2x2 x (d = 2) is multiplied by :func:`matmul` instead,
    real by complex, with no split and no complex re-assembly."""
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        return a @ x @ b
    if x.shape[-1] == 2:
        return matmul(matmul(a, x), b)
    return (a @ x.real @ b) + 1j * (a @ x.imag @ b)


class BlockSystem(NamedTuple):
    """Eigensystems of a (K, d, d) stack, one per block of its pattern.

    ``parts[b]`` is the ``(evals, vecs, gauge)`` that :func:`eigh_block`
    returns for ``blocks[b]``.  ``evals`` (K, d) merges the block
    eigenvalues in ascending order, and ``order[k, n]`` is the column of
    the block eigenvalues, concatenated in block order, that holds level
    n of matrix k.
    """

    blocks: tuple
    parts: tuple
    evals: np.ndarray
    order: np.ndarray

    def vectors(self, b: int, which=slice(None)) -> np.ndarray:
        """Eigenvectors of block ``b`` of the selected matrices, gauge
        applied."""
        _, v, gauge = self.parts[b]
        return v[which] if gauge is None else gauge[which][..., :, None] * v[which]

    def frames(self, which=slice(None)) -> np.ndarray:
        """Dense eigenvector stacks of the selected matrices, levels in
        ascending order, each vector exactly zero outside its block."""
        if len(self.blocks) == 1:
            return self.vectors(0, which)
        rank = np.argsort(self.order[which], axis=-1)  # column -> level
        picked = [self.vectors(b, which) for b in range(len(self.blocks))]
        vecs = np.zeros((len(rank),) + (self.evals.shape[-1],) * 2, dtype=np.result_type(*picked))
        batch = np.arange(len(rank))[:, None, None]
        start = 0
        for block, v in zip(self.blocks, picked):
            stop = start + len(block.index)
            vecs[batch, block.index[None, :, None], rank[:, None, start:stop]] = v
            start = stop
        return vecs


def decompose_blocks(blocks, stacks) -> BlockSystem:
    """Decompose a (K, d, d) Hermitian stack block by block: ``stacks[b]``
    is the (K, b, b) stack of ``blocks[b]``, the blocks of a pattern that
    covers every entry.  Each block is decomposed once by
    :func:`eigh_block`, and the eigenvalues are merged in ascending order
    by a stable sort, so exact ties keep block order.
    """
    parts = tuple(eigh_block(s, block) for block, s in zip(blocks, stacks))
    if len(parts) == 1:  # eigh's eigenvalues ascend already
        evals = parts[0][0]
        return BlockSystem(blocks, parts, evals,
                           np.arange(evals.shape[-1])[None].repeat(len(evals), 0))
    evals = np.concatenate([w for w, _, _ in parts], axis=-1)
    order = np.argsort(evals, axis=-1, kind="stable")
    return BlockSystem(blocks, parts, np.take_along_axis(evals, order, axis=-1), order)


def _spectral(evals: np.ndarray, vecs: np.ndarray,
              check_levels: int | None) -> SpectralDecomposition:
    """The decomposition of one matrix from its ascending eigenvalues and
    eigenvectors: the phase-fixed frame, then the degeneracy check on the
    lowest ``check_levels`` levels."""
    return SpectralDecomposition(eigenvalues=evals, frame=fix_phase(vecs),
                                 min_gap=float(spectral_gaps(evals, check_levels)))


def spectral_decompose(h, check_levels: int | None = None) -> SpectralDecomposition:
    """Diagonalize a Hermitian matrix with degeneracy detection.

    Raises :class:`DegenerateSpectrumError` when an adjacent gap among the
    lowest ``check_levels`` levels (all when None) falls below
    :func:`default_gap_tol`; see :func:`spectral_gaps`.  ``min_gap``
    covers the same levels.  The matrix goes to ``numpy.linalg.eigh`` as
    it is, unsplit.
    """
    m = as_matrix(h)
    _check_square_finite(m, "spectral_decompose input")
    if hermiticity_defect(m)[1]:
        raise ValueError("spectral_decompose requires a Hermitian matrix")
    return _spectral(*np.linalg.eigh(m), check_levels)


def _expm_eig(h: np.ndarray) -> np.ndarray:
    """exp(i H) through the eigenbasis, for one matrix or a stack."""
    evals, vecs = np.linalg.eigh(h)
    phases = np.exp(1j * evals)
    return (vecs * phases[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def expm_hermitian(h, s: float = 1.0) -> UnitaryOperator:
    """exp(i s H) for Hermitian H: the one-matrix case of
    :func:`expm_hermitian_stack`, whose unitarity and Hermiticity checks
    refuse a non-Hermitian H; their errors name the input, not a step.
    ValueError unless the time ``s`` is finite."""
    if not np.isfinite(s):
        raise ValueError(f"s must be finite, got {s!r}")
    m = as_matrix(h)
    _check_square_finite(m, "expm_hermitian input")
    try:
        u = expm_hermitian_stack(s * m[None])[0]
    except ValueError as err:  # the stack's step 0 is this one input
        what = "exp(i s H) of the expm_hermitian input"
        raise ValueError(str(err).replace("step 0", what, 1)) from None
    return UnitaryOperator(u)


def _taylor_degree(theta: float) -> int:
    """Smallest m with theta^(m+1) / (m+1)! <= 2^-53: the first omitted
    term of the exponential series at norm ``theta``."""
    m, term = 0, theta
    while term > 2.0 ** -53:
        m += 1
        term *= theta / (m + 1)
    return m


def _taylor_exp(x: np.ndarray, m: int) -> np.ndarray:
    """sum_{k<=m} x^k / k! for a (K, d, d) stack, Paterson-Stockmeyer style.

    With s = isqrt(m), the powers x^2..x^s cost s - 1 products; the
    series is then Horner's rule in y = x^s over blocks of s
    coefficients, one product per block below the top one (none for a
    top block that is a bare constant).  Degree 6 takes three products.
    An all-zero matrix gives exactly the identity.
    """
    if m == 0:
        return np.broadcast_to(np.eye(x.shape[-1], dtype=x.dtype), x.shape).copy()
    coef = [1.0 / math.factorial(k) for k in range(m + 1)]
    diag = np.arange(x.shape[-1])
    s = math.isqrt(m)
    powers = [None, x]
    for _ in range(s - 1):
        powers.append(matmul(powers[-1], x))

    def add_block(acc, j):  # acc + sum_{i < s, js + i <= m} coef[js + i] x^i
        for i in range(1, min(s, m - j * s + 1)):
            acc += coef[j * s + i] * powers[i]
        acc[..., diag, diag] += coef[j * s]
        return acc

    top = m // s
    if top * s == m:  # the top block is coef[m] alone: a scalar times y
        top -= 1
        acc = add_block(coef[m] * powers[s], top)
    else:
        acc = add_block(np.zeros_like(x), top)
    for j in range(top - 1, -1, -1):
        acc = add_block(matmul(powers[s], acc), j)
    return acc


def expm_hermitian_stack(h: np.ndarray) -> np.ndarray:
    """exp(i H_k) for a (K, d, d) stack of Hermitian matrices.

    With theta the largest 1-norm in the stack (for Hermitian H an upper
    bound on the spectral norm), the exponential is the Taylor series of
    the smallest degree m with theta^(m+1) / (m+1)! <= 2^-53, evaluated
    by :func:`_taylor_exp`; an all-zero H gives exactly the identity.
    Above ``TAYLOR_MAX_NORM`` it goes through the eigenbasis instead.
    Every factor is held to the same unitarity budget as
    :class:`UnitaryOperator`, and the first one that misses it raises; a
    non-Hermitian H on the Taylor route misses it.  ``eigh`` reads one
    triangle and would exponentiate a non-Hermitian H as if it were
    Hermitian, so on the eigenbasis route every H is held to the
    Hermiticity rule of :func:`hermiticity_defect` first, and the same
    error names the first step that misses it.
    """
    h = np.asarray(h)
    theta = float(np.max(_short_axis_first(np.abs(h), -2).sum(axis=0), initial=0.0))
    if theta <= TAYLOR_MAX_NORM:
        u = _taylor_exp(1j * h, _taylor_degree(theta))
    else:
        asym, miss = hermiticity_defect(h)
        bad = np.flatnonzero(miss)
        if bad.size:
            raise ValueError(f"step {bad[0]} is not unitary: its generator is not Hermitian, "
                             f"||H - H^dag|| = {asym[bad[0]]:.3e}")
        u = _expm_eig(h)
    return _check_unitary_steps(u)


def _unitarity_defects(u: np.ndarray) -> np.ndarray:
    """||U^dag U - I||, the Frobenius norm, for every factor of a (K, d, d)
    stack.

    For 2x2 factors it is built from the four entries of U: each entry of
    U^dag U - I is a (K,) array from the same two complex products that
    :func:`matmul` adds, in the same order, and the four squares are
    added in the order of numpy.linalg.norm: the defect of
    ``numpy.linalg.norm(matmul(U^dag, U) - I)`` bit for bit, with no
    transposed copy, identity stack or (K, 4) copy of the squares.  Real
    arithmetic would not keep that: where NumPy's complex product fuses
    a multiply and an add, the imaginary part of conj(z) z is not 0."""
    dim = u.shape[-1]
    if dim != 2:
        return np.linalg.norm(matmul(u.conj().swapaxes(-1, -2), u) - np.eye(dim), axis=(-2, -1))
    c = u.conj()
    squares = []
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        off = c[:, 0, i] * u[:, 0, j] + c[:, 1, i] * u[:, 1, j]
        if i == j:
            off -= 1.0
        squares.append((off.conj() * off).real)
    return np.sqrt(sum(squares[1:], squares[0]))


def _check_unitary_steps(u: np.ndarray) -> np.ndarray:
    """``u``, a (K, d, d) stack of step factors, once every factor meets
    the unitarity budget of :class:`UnitaryOperator`, a defect
    (:func:`_unitarity_defects`) of at most ``UNITARITY_TOL`` * d;
    ValueError naming the first step that misses it (a NaN misses it)."""
    defect = _unitarity_defects(u)
    bad = np.flatnonzero(~(defect <= UNITARITY_TOL * u.shape[-1]))
    if bad.size:
        raise ValueError(f"step {bad[0]} is not unitary: ||U^dag U - I|| = {defect[bad[0]]:.3e}")
    return u
