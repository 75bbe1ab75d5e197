"""Curvature of the adiabatic connection.

The non-Abelian field strength F_mu_nu = dA_nu/dmu - dA_mu/dnu
- i [A_mu, A_nu] is, for this connection, diagonal in the instantaneous
eigenbasis; its diagonal entries are the per-level Berry curvatures, whose
surface integrals are Berry phases.  This module computes the field
strength by central differences of the spectral connection, the
diagonality residual, the small-loop holonomy consistency check, and
surface integrals over parallelogram patches.  One routine,
:func:`_level_curvature`, evaluates the exact sum-over-states formula for
the per-level curvature on a stack of eigensystems; both the point table
(:func:`berry_curvature_levels`) and the integrand of the surface sweep
go through it, so the two sides of the Stokes comparison share one
formula.  On a two-node tree block (spin 1/2) the sum has one term, from
one eigenbasis element per direction, the same element the transport
kernel builds its spin-1/2 step factors from.  The surface sweep runs on
the chunk sweep of the path kernels
(:func:`adiaconn.transport._decomposed_chunks`), block by block over the
joint nonzero pattern of H and the two tangent gradients: each requested
level is contracted against its own block's gradient stack and
eigenvectors only, since the gradients couple no two blocks.  So the
surface refuses the points the path refuses, by the one degeneracy rule:
an adjacent gap among the lowest ``check_levels`` levels below
:func:`~adiaconn.operator_core.default_gap_tol`.  A :class:`SurfacePatch`
is the parallelogram origin + u edge_u + v edge_v, so its two edges are
the exact tangents of every cell: the sweep evaluates the model at the
cell centres only, all from one :meth:`SurfacePatch.points` call, and
contracts the gradients with the edges.  The small-loop square is the
boundary of a one-cell patch.

Sign and factor conventions are pinned by the spin-1/2 anchor: stored
components satisfy F_theta_phi = -sin(theta) J_n, so the per-level value
is W^(m) = -m sin(theta) and the phase of a loop is the plain double
integral of W over the enclosed patch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operator_core import (
    Block,
    BlockSystem,
    SpectralDecomposition,
    _two_level_element,
    expm_hermitian,
    frobenius,
    gauge_phase,
    hermitian_part,
    sandwich,
)
from .models import FD_STEP_SCALE, DomainViolationError, ParametricHamiltonian
from .connection import connection_spectral
from .transport import PathSpec, _check_level, _decomposed_chunks, _is_int, holonomy

__all__ = [
    "CurvatureTwoForm",
    "BerryCurvatureTable",
    "SurfacePatch",
    "GridTooCoarseError",
    "yang_mills_curvature",
    "berry_curvature_levels",
    "berry_curvature_at",
    "diagonality_residual",
    "small_loop_check",
    "SmallLoopReport",
    "berry_phase_surface",
]

SMALL_LOOP_REFINEMENT = 50


class GridTooCoarseError(Exception):
    """Surface grid failed the doubling self-consistency estimate."""


def _pair_lookup(pairs, mu, nu) -> tuple[int, int]:
    """The index k of the stored pair behind the antisymmetric F_mu_nu and
    the sign s with F_mu_nu = s F_pairs[k]: +1 for a stored (mu, nu), -1
    for a stored (nu, mu).  ValueError naming (mu, nu) when neither is
    stored."""
    pairs = list(pairs)
    for sign, pair in ((1, (mu, nu)), (-1, (nu, mu))):
        if pair in pairs:
            return pairs.index(pair), sign
    raise ValueError(f"no component stored for the pair ({mu}, {nu}); stored pairs: {pairs}")


@dataclass(frozen=True)
class CurvatureTwoForm:
    """Hermitian components F_mu_nu stored for mu < nu at one point."""

    components: dict

    def component(self, mu: int, nu: int) -> np.ndarray:
        """F_mu_nu with antisymmetry applied for reversed index order, zero
        on the diagonal; ValueError for a pair stored in neither order."""
        pairs = self.pairs
        if mu == nu and pairs:
            return np.zeros_like(self.components[pairs[0]])
        k, sign = _pair_lookup(pairs, mu, nu)
        return self.components[pairs[k]] if sign > 0 else -self.components[pairs[k]]

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self.components.keys())


@dataclass(frozen=True)
class BerryCurvatureTable:
    """Real per-level curvature values W^(n)_mu_nu at one point.

    ``table[n, k]`` corresponds to ``pairs[k]``; the value for a reversed
    index pair flips sign.
    """

    pairs: tuple[tuple[int, int], ...]
    table: np.ndarray

    def value(self, n: int, mu: int, nu: int) -> float:
        """W^(n)_mu_nu; ValueError for a pair not stored in either order."""
        if mu == nu:
            return 0.0
        k, sign = _pair_lookup(self.pairs, mu, nu)
        return sign * float(self.table[n, k])


def yang_mills_curvature(
    model: ParametricHamiltonian,
    lam,
    step: float | None = None,
) -> CurvatureTwoForm:
    """Field strength at a point by central differences of the connection.

    The derivative terms use a two-sided stencil of half-width
    ``step`` (default 1e-5 * (1 + |lambda_mu|) per direction); the
    commutator term is exact.  Degeneracy anywhere inside the stencil
    propagates as an error.  ValueError unless ``step`` is finite and
    positive and moves every lambda_mu.
    """
    lam = np.asarray(lam, dtype=float)
    n = model.n_params

    def connection_at(point):
        spec = model.spectral_at(point)
        return np.asarray(connection_spectral(spec, model.grad_h(point)).components)

    a_center = connection_at(lam)
    derivs = []  # derivs[mu][nu] = dA_nu / dlambda_mu
    for mu in range(n):
        h_mu = step if step is not None else FD_STEP_SCALE * (1.0 + abs(lam[mu]))
        if not (np.isfinite(h_mu) and lam[mu] - h_mu < lam[mu] < lam[mu] + h_mu):
            raise ValueError(f"step must be finite and positive and move "
                             f"{model.param_names[mu]} = {float(lam[mu])!r}, got {h_mu!r}")
        e = np.zeros(n)
        e[mu] = 1.0
        plus, minus = lam + h_mu * e, lam - h_mu * e
        if not (model.domain_check(plus) and model.domain_check(minus)):
            raise DomainViolationError(
                f"curvature stencil leaves the domain at {lam.tolist()} along "
                f"{model.param_names[mu]}"
            )
        derivs.append((connection_at(plus) - connection_at(minus)) / (2.0 * h_mu))

    mu, nu = np.triu_indices(n, 1)
    a, d = a_center, np.asarray(derivs)
    f = hermitian_part(d[mu, nu] - d[nu, mu] - 1j * (a[mu] @ a[nu] - a[nu] @ a[mu]))
    return CurvatureTwoForm(components=dict(zip(zip(mu.tolist(), nu.tolist()), f)))


def _level_curvature(system: BlockSystem, gs, levels) -> np.ndarray:
    """Per-level curvature along two directions at a stack of eigensystems.

    ``system`` holds the eigensystems of the stack (any phase: the value is
    phase-free), block by block, and ``gs[b]`` (K, 2, b, b) the gradients
    dH_u, dH_v along the two directions on block b, in its local indices;
    one row per stack entry, one column per entry of ``levels``:

    W^(n)_uv = -2 sum_{n' != n} Im(<n|dH_u|n'><n'|dH_v|n>) / (E_n - E_{n'})^2,

    the diagonal entry <n|F_uv|n> of the field strength.  Exactly equal
    eigenvalues contribute 0.  The gradients couple no two blocks, so the
    sum over n' runs over the block of level n only: each block takes the
    rows of the levels that lie in it at that stack entry.  Tree blocks
    keep their eigenvectors as D R (see
    :class:`~adiaconn.operator_core.BlockSystem`), so the elements are
    R^T (D^dag dH D) R, with R multiplied as a real matrix
    (:func:`~adiaconn.operator_core.sandwich`).  A two-node tree block
    has one term per level, from the one element x = <0|dH|1> along each
    direction (:func:`~adiaconn.operator_core._two_level_element`):
    W^(0) = -W^(1) = -2 Im(x_u conj(x_v)) / (E_0 - E_1)^2.
    """
    levels = np.asarray(levels)
    column = system.order[:, levels]  # [k, row]: concatenated column of the level
    rows = system.evals[:, levels]
    batch, dim = np.arange(len(column))[:, None], system.evals.shape[-1]
    out, start = 0.0, 0
    for (e, v, gauge), g in zip(system.parts, gs):
        local = column - start
        start += e.shape[-1]
        inside = (local >= 0) & (local < e.shape[-1])
        if gauge is not None and e.shape[-1] == 2:
            x_u, x_v = _two_level_element(v, gauge, g)
            gap = e[:, 0] - e[:, 1]
            inv2 = np.zeros_like(gap)
            np.divide(1.0, gap**2, out=inv2, where=gap != 0.0)
            sign = np.where(inside, 1 - 2 * local, 0)  # +1 for level 0, -1 for level 1
            # rows in front, so that the product runs along the stack
            out = out - 2.0 * (sign.T * (np.imag(x_u * x_v.conj()) * inv2)).T
            continue
        delta = rows[:, :, None] - e[:, None, :]  # [k, row, n']
        keep = delta != 0.0
        if e.shape[-1] < dim:  # a row whose level is in another block reads column 0, counts 0
            local = np.where(inside, local, 0)
            keep &= inside[..., None]
        if gauge is not None:
            g = g * gauge_phase(gauge)[:, None]
        elements = sandwich(v[batch, :, local].conj()[:, None], g, v[:, None])  # <n|dH|n'>
        inv2 = np.zeros_like(delta)
        np.divide(1.0, delta**2, out=inv2, where=keep)
        terms = np.imag(elements[:, 0] * elements[:, 1].conj()) * inv2
        out = out - 2.0 * np.sum(terms, axis=-1)
    return out


def berry_curvature_levels(
    spec: SpectralDecomposition, grad_h: list[np.ndarray]
) -> BerryCurvatureTable:
    """Exact per-level curvature W^(n)_mu_nu of every level for every
    parameter pair mu < nu, by the sum-over-states formula of
    :func:`_level_curvature`; exactly equal eigenvalues contribute 0."""
    mu, nu = np.triu_indices(len(grad_h), 1)
    g = np.asarray(grad_h)[np.stack([mu, nu], axis=1)]
    dim = spec.dim
    system = BlockSystem((Block(np.arange(dim), None),),
                         ((spec.eigenvalues[None], spec.frame.matrix[None], None),),
                         spec.eigenvalues[None], np.arange(dim)[None])
    w = _level_curvature(system, (g,), np.arange(dim))
    return BerryCurvatureTable(pairs=tuple(zip(mu.tolist(), nu.tolist())), table=w.T)


def berry_curvature_at(model: ParametricHamiltonian, lam) -> BerryCurvatureTable:
    """:func:`berry_curvature_levels` of a model at a point."""
    return berry_curvature_levels(model.spectral_at(lam), model.grad_h(lam))


def diagonality_residual(
    f: CurvatureTwoForm, spec: SpectralDecomposition, levels: int | None = None
) -> float:
    """Largest off-diagonal magnitude of any component in the eigenbasis,
    relative to the largest component Frobenius norm (0/0 counts as 0).

    Normalizing against the overall field-strength scale rather than each
    component separately keeps identically-vanishing components (pure
    finite-difference noise) from polluting the ratio.  ``levels``
    restricts the check to the leading block, which is the honest
    comparison for truncated families whose edge levels are artifacts;
    it must be None or an integer in [1, dim], else ValueError.
    """
    if levels is not None and not (_is_int(levels) and 1 <= levels <= spec.dim):
        raise ValueError(f"levels must be None or an integer in [1, {spec.dim}], got {levels!r}")
    stack = np.reshape(list(f.components.values()), (len(f.components),) + (spec.dim,) * 2)
    w = spec.to_eigenbasis(stack)[:, :levels, :levels]
    # one norm per component: a norm over the stack's axes sums in another order
    scale = max((frobenius(m) for m in w), default=0.0)
    off = np.where(np.eye(w.shape[-1], dtype=bool), 0.0, np.abs(w))
    return float(np.max(off)) / scale if scale else 0.0


@dataclass(frozen=True)
class SmallLoopReport:
    """Holonomy of an eps-square against exp(i eps^2 F), at eps and eps/2."""

    eps: float
    difference: float
    halved_difference: float

    @property
    def ratio(self) -> float:
        if self.halved_difference == 0.0:
            return np.inf
        return self.difference / self.halved_difference


def _square_loop(lam, mu, nu, eps, n_params) -> PathSpec:
    e = eps * np.eye(n_params)
    c = np.asarray(lam, dtype=float) - 0.5 * (e[mu] + e[nu])
    return SurfacePatch(c, e[mu], e[nu], (1, 1)).boundary_path(SMALL_LOOP_REFINEMENT)


def small_loop_check(
    model: ParametricHamiltonian,
    lam,
    mu: int,
    nu: int,
    eps: float,
) -> SmallLoopReport:
    """Compare the holonomy of a centred eps-square in the (mu, nu) plane
    with exp(i eps^2 F_mu_nu).

    The two agree to O(eps^3), so halving eps should shrink the
    difference by about 8 (at least ~6 in practice; discretization keeps
    the floor well below the cubic term at SMALL_LOOP_REFINEMENT steps
    per side).
    ``mu`` and ``nu`` must be distinct parameter indices in
    ``[0, n_params)`` and ``eps`` finite and positive; anything else
    raises ValueError.
    """
    if not all(_is_int(i) and 0 <= i < model.n_params for i in (mu, nu)) or mu == nu:
        raise ValueError(f"mu and nu must be distinct parameter indices in "
                         f"[0, {model.n_params}), got {mu!r} and {nu!r}")
    if not (np.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    lam = np.asarray(lam, dtype=float)
    f = yang_mills_curvature(model, lam)

    def deviation(e: float) -> float:
        loop = _square_loop(lam, mu, nu, e, model.n_params)
        u = holonomy(model, loop).operator.matrix
        w = expm_hermitian(f.component(mu, nu), e * e).matrix
        return frobenius(u - w)

    return SmallLoopReport(
        eps=eps,
        difference=deviation(eps),
        halved_difference=deviation(0.5 * eps),
    )


# ---------------------------------------------------------------------------
# Surfaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SurfacePatch:
    """The parallelogram lambda(u, v) = origin + u * edge_u + v * edge_v,
    (u, v) in [0,1]^2, with a grid of cells.

    ``origin``, ``edge_u`` and ``edge_v`` are stored as read-only float
    copies.  ValueError if they are not 1-D vectors of one length, if an
    edge is all zero, or if ``grid`` is not a positive integer cell count
    per axis.  Collinear edges are legal and span zero area.  The edges
    are the exact tangents of every cell.  The boundary is traversed
    counterclockwise in (u, v) starting from (0, 0).
    """

    origin: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    grid: tuple[int, int]

    def __post_init__(self):
        for name in ("origin", "edge_u", "edge_v"):
            vector = np.array(getattr(self, name), dtype=float)
            vector.setflags(write=False)
            object.__setattr__(self, name, vector)
        origin, edge_u, edge_v, grid = self.origin, self.edge_u, self.edge_v, self.grid
        if origin.ndim != 1 or not origin.shape == edge_u.shape == edge_v.shape:
            raise ValueError("origin, edge_u and edge_v must be 1-D vectors of one length, got "
                             f"shapes {origin.shape}, {edge_u.shape} and {edge_v.shape}")
        for name, edge in (("edge_u", edge_u), ("edge_v", edge_v)):
            if not np.any(edge):
                raise ValueError(f"{name} must be nonzero, got {edge.tolist()}")
        if len(grid) != 2 or not all(_is_int(n) and n >= 1 for n in grid):
            raise ValueError(f"grid must have a positive integer cell count per axis, got {grid!r}")

    def point(self, u: float, v: float) -> np.ndarray:
        return self.points([u, v])

    def points(self, uv) -> np.ndarray:
        """The points at an (..., 2) array of (u, v) pairs, as (..., N):
        (u a + o) + v b per coordinate, each coordinate one column along
        the whole stack, not one inner loop of length N per point."""
        uv = np.asarray(uv, dtype=float)
        u, v = uv[..., 0], uv[..., 1]
        out = np.empty(uv.shape[:-1] + self.origin.shape)
        for n, (a, o, b) in enumerate(zip(self.edge_u, self.origin, self.edge_v)):
            column = out[..., n]
            np.multiply(u, a, out=column)
            column += o
            column += v * b
        return out

    def boundary_nodes(self) -> np.ndarray:
        """Grid-resolution boundary polyline, counterclockwise from (0, 0)."""
        nu, nv = self.grid
        return self.points(
            [(i / nu, 0.0) for i in range(nu)]
            + [(1.0, j / nv) for j in range(nv)]
            + [(i / nu, 1.0) for i in range(nu, 0, -1)]
            + [(0.0, j / nv) for j in range(nv, 0, -1)]
            + [(0.0, 0.0)]
        )

    def boundary_path(self, refinement: int = 1) -> PathSpec:
        return PathSpec(self.boundary_nodes(), closed=True, refinement=refinement)


def berry_phase_surface(
    model: ParametricHamiltonian,
    patch: SurfacePatch,
    level,
    refine_check_tol: float | None = None,
):
    """Surface-integrated Berry phase over a patch, per level.

    Midpoint rule over the patch's (u, v) grid; the integrand is the per-level
    curvature at each cell centre contracted with the patch's two edges,
    which are its exact tangents.  ``level`` may be an int or a sequence
    of ints (one grid sweep either way), each in ``[0, dim)``; anything
    else, floats and bools included, raises ValueError.  The returned
    phase(s) are not wrapped.

    Every cell centre meets the rule of the path kernels, whatever
    ``level`` is: an adjacent gap among the lowest ``model.check_levels``
    levels below :func:`~adiaconn.operator_core.default_gap_tol` raises
    :class:`~adiaconn.operator_core.DegenerateSpectrumError`; higher levels
    are not guarded.

    With ``refine_check_tol`` set, the integral is recomputed on a doubled
    grid; disagreement above the tolerance raises
    :class:`GridTooCoarseError`, otherwise the finer value is returned.
    The tolerance must be finite and non-negative; anything else raises
    ValueError.
    """
    levels = [level] if np.isscalar(level) else list(level)
    for n in levels:
        _check_level(n, model.dim)
    if refine_check_tol is not None and not (np.isfinite(refine_check_tol)
                                             and refine_check_tol >= 0.0):
        raise ValueError(f"refine_check_tol must be finite and non-negative, "
                         f"got {refine_check_tol!r}")
    nu_grid, nv_grid = patch.grid

    def integrate(nu_grid: int, nv_grid: int) -> np.ndarray:
        du, dv = 1.0 / nu_grid, 1.0 / nv_grid
        centres = patch.points(  # no (u, v) array outlives the call
            (np.stack(np.divmod(np.arange(nu_grid * nv_grid), nv_grid), axis=-1) + 0.5) * [du, dv])
        edges = np.broadcast_to(np.stack([patch.edge_u, patch.edge_v]),
                                (len(centres), 2, len(patch.origin)))
        total = np.zeros(len(levels))
        for _, _, system, gs in _decomposed_chunks(model, centres, edges):
            total += np.sum(_level_curvature(system, gs, levels), axis=0) * (du * dv)
        return total

    phase = integrate(nu_grid, nv_grid)
    if refine_check_tol is not None:
        finer = integrate(2 * nu_grid, 2 * nv_grid)
        if np.max(np.abs(finer - phase)) > refine_check_tol:
            raise GridTooCoarseError(
                f"grid-doubling moved the integral by {np.max(np.abs(finer - phase)):.3e} "
                f"(> {refine_check_tol:.3e}); refine the surface grid"
            )
        phase = finer
    if np.isscalar(level):
        return float(phase[0])
    return phase
