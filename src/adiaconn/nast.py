"""Surface-ordered products: the constructive side of the non-Abelian
Stokes identity.

A lasso is a tail-conjugated elementary cell holonomy
U_tail^-1 * U_cell * U_tail, with the tail running along grid lines from
the patch base point S(0,0) to the cell anchor.  Composed in fishbone
order -- cells bottom-to-top within a column, columns left-to-right --
every interior edge transport cancels against its neighbour in exact
arithmetic, telescoping the product onto the boundary loop.  Cell
holonomies are built from the four edge transports directly (never from
the curvature), so agreement with the boundary holonomy and with
curvature-based predictions are genuine cross-checks.

The non-averaged 1-form sampled at a fixed group time is flat: its loop
transport collapses to the identity under refinement, which isolates the
time averaging as the ingredient that makes the holonomy non-trivial.

Both constructions run on the path kernel of :mod:`adiaconn.transport`:
the edge cache transports the substeps of all grid edges when it is
built, a chunk of edges at a time, and the flatness loop passes the
fixed-time Maurer-Cartan weight in place of the connection's.  The cell
loops and their tail conjugations are stacked products over the whole
grid; the tails and the column strips are recurrences up the columns,
all columns at once; only the product of the strips is a loop over the
columns.  Every matrix is still the product of the same factors in the
same order as in a cell-by-cell fishbone.  The loop that the
surface-ordered product is compared with is the patch's own
``boundary_path``, the same construction the ready-made loops of
:mod:`adiaconn.geometry` use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .operator_core import UnitaryOperator, frobenius
from .models import ParametricHamiltonian
from .connection import maurer_cartan_weight
from .transport import PathSpec, _check_count, _chunk_size, _is_int, holonomy, ordered_products
from .curvature import SurfacePatch

__all__ = [
    "Lasso",
    "SurfaceOrderedProduct",
    "lasso_holonomy",
    "surface_ordered_product",
    "nast_residual",
    "maurer_cartan_flatness",
]


@dataclass(frozen=True)
class Lasso:
    """One tail-conjugated cell holonomy on a surface grid."""

    cell: tuple[int, int]
    center: np.ndarray
    area_uv: float
    value: UnitaryOperator


@dataclass(frozen=True)
class SurfaceOrderedProduct:
    operator: UnitaryOperator
    ordering: str
    cell_count: int


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


class _EdgeCache:
    """Transports along the grid edges of a patch.

    Shared between tails and cell loops so that edges traversed in both
    directions cancel exactly.  ``edge_refinement`` substeps per edge
    sharpen every transport without disturbing that cancellation.  All
    edges are transported on construction, a chunk of edges per kernel
    call; substeps that the chart collapses to a point carry no transport
    and are skipped.
    """

    def __init__(
        self,
        model: ParametricHamiltonian,
        patch: SurfacePatch,
        gap_tol=None,
        edge_refinement: int = 2,
    ):
        self.dim = model.dim
        self.nu, self.nv = nu, nv = patch.grid
        _check_count(edge_refinement, "edge_refinement")
        r = edge_refinement
        i_h, j_h = (a.ravel() for a in np.meshgrid(np.arange(nu), np.arange(nv + 1), indexing="ij"))
        i_v, j_v = (a.ravel() for a in np.meshgrid(np.arange(nu + 1), np.arange(nv), indexing="ij"))
        uv_from = np.concatenate([np.column_stack([i_h / nu, j_h / nv]),
                                  np.column_stack([i_v / nu, j_v / nv])])
        uv_to = np.concatenate([np.column_stack([(i_h + 1) / nu, j_h / nv]),
                                np.column_stack([i_v / nu, (j_v + 1) / nv])])
        # r + 1 nodes then r midpoints along every edge
        frac = np.concatenate([np.arange(r + 1) / r, (np.arange(r) + 0.5) / r])
        edges = np.empty((len(uv_from), model.dim, model.dim), dtype=complex)
        size = max(_chunk_size(model.dim) // r, 1)
        for start in range(0, len(edges), size):
            chunk = slice(start, start + size)
            points = patch.points(
                uv_from[chunk, None] + (uv_to - uv_from)[chunk, None] * frac[None, :, None])
            deltas = points[:, 1:r + 1] - points[:, :r]
            moves = np.linalg.norm(deltas, axis=-1) != 0.0
            edges[chunk] = ordered_products(model, points[:, r + 1:][moves], deltas[moves],
                                            moves.sum(axis=1), gap_tol)
        edges.setflags(write=False)
        self._h = edges[:nu * (nv + 1)].reshape(nu, nv + 1, *edges.shape[1:])
        self._v = edges[nu * (nv + 1):].reshape(nu + 1, nv, *edges.shape[1:])

    @cached_property
    def lassos(self) -> np.ndarray:
        """Tail-conjugated holonomies of all cells, an (nu, nv, d, d) array.

        Cell (i, j) has the counterclockwise loop anchored at its
        lower-left node, and the tail runs from the base (0, 0) along the
        bottom row, then up column i.  The tails are one recurrence over j
        for all columns at once, and the loops and their conjugation are
        stacked products over the whole grid.
        """
        dim = self.dim
        tails = np.empty((self.nu, self.nv, dim, dim), dtype=complex)
        bottom = np.eye(dim, dtype=complex)
        for i in range(self.nu):
            tails[i, 0] = bottom
            bottom = self._h[i, 0] @ bottom
        for j in range(1, self.nv):
            tails[:, j] = self._v[:-1, j - 1] @ tails[:, j - 1]
        loops = _dagger(self._v[:-1]) @ _dagger(self._h[:, 1:]) @ self._v[1:] @ self._h[:, :-1]
        lassos = _dagger(tails) @ loops @ tails
        lassos.setflags(write=False)
        return lassos


def lasso_holonomy(
    model: ParametricHamiltonian,
    patch: SurfacePatch,
    cell: tuple[int, int],
    base=None,
    gap_tol: float | None = None,
    edge_refinement: int = 2,
    _edges: _EdgeCache | None = None,
) -> Lasso:
    """Tail-conjugated holonomy of one grid cell.

    The base point is always the patch origin S(0, 0); an explicit
    ``base`` argument is validated against it.  The cell loop is the
    ordered product of its four edge transports; the lassos of all cells
    are built together, once per edge cache.
    """
    nu, nv = patch.grid
    if not (np.shape(cell) == (2,) and all(map(_is_int, cell))):
        raise ValueError(f"cell must be two integer indices, got {cell!r}")
    i, j = (int(c) for c in cell)
    if not (0 <= i < nu and 0 <= j < nv):
        raise ValueError(f"cell {cell} outside grid {patch.grid}")
    if base is not None:
        if np.linalg.norm(np.asarray(base, dtype=float) - patch.node(0, 0)) > 1e-12:
            raise ValueError("lasso base point must be the patch origin S(0,0)")
    edges = _edges if _edges is not None else _EdgeCache(model, patch, gap_tol, edge_refinement)
    return Lasso(
        cell=(i, j),
        center=patch.point((i + 0.5) / nu, (j + 0.5) / nv),
        area_uv=1.0 / (nu * nv),
        value=UnitaryOperator(edges.lassos[i, j].copy(), tol=1e-8),
    )


def surface_ordered_product(
    model: ParametricHamiltonian,
    patch: SurfacePatch,
    gap_tol: float | None = None,
    edge_refinement: int = 2,
) -> SurfaceOrderedProduct:
    """Fishbone-ordered product of all lassos of the patch grid.

    Within column i the factors are lasso(i, nv-1) ... lasso(i, 0) (bottom
    cell acts first); whole columns combine left to right.  With shared
    edge transports the interior contributions telescope, so the product
    reproduces the boundary holonomy up to floating-point noise -- the
    discrete form of trading a loop integral for a surface of elementary
    fluxes.
    """
    edges = _EdgeCache(model, patch, gap_tol, edge_refinement)
    eye = np.eye(model.dim, dtype=complex)
    strips = np.broadcast_to(eye, (edges.nu, *eye.shape))
    for j in range(edges.nv):  # every column at once, bottom cell first
        strips = edges.lassos[:, j] @ strips
    total = eye
    for strip in strips:
        total = total @ strip
    return SurfaceOrderedProduct(
        operator=UnitaryOperator(total, tol=1e-8),
        ordering="fishbone: columns left-to-right, cells bottom-first",
        cell_count=edges.nu * edges.nv,
    )


def nast_residual(
    model: ParametricHamiltonian,
    patch: SurfacePatch,
    boundary_refinement: int = 8,
    gap_tol: float | None = None,
    edge_refinement: int = 2,
) -> float:
    """Frobenius distance between the surface-ordered product and the
    directly transported boundary holonomy.

    The boundary is the patch's grid-resolution polyline, sub-refined by
    ``boundary_refinement`` steps per edge so the comparison exposes the
    surface side's discretization error rather than sharing it.
    """
    surface = surface_ordered_product(model, patch, gap_tol=gap_tol,
                                      edge_refinement=edge_refinement)
    boundary = holonomy(model, patch.boundary_path(boundary_refinement), gap_tol=gap_tol)
    return frobenius(surface.operator.matrix - boundary.operator.matrix)


def maurer_cartan_flatness(
    model: ParametricHamiltonian, loop: PathSpec, t: float, gap_tol: float | None = None
) -> float:
    """Deviation from identity of the loop transport generated by the
    non-averaged 1-form at fixed group time ``t``.

    The 1-form is pure gauge at every fixed t, so the exact transport
    around any closed loop is the identity; the returned Frobenius
    residual is purely discretization error and vanishes under refinement.
    """
    if not loop.closed:
        raise ValueError("flatness check requires a closed loop")
    mids, deltas = loop.step_arrays()
    u = ordered_products(model, mids, deltas, [len(mids)], gap_tol,
                         weight=maurer_cartan_weight(t))[0]
    return frobenius(u - np.eye(model.dim))
