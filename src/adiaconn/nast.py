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
the substeps of all grid edges are one call of the kernel, which chunks
them as it chunks any path.  A :class:`~adiaconn.curvature.SurfacePatch`
is a parallelogram with nonzero edges, so every substep is a step along
one of them and each grid edge takes the same number of steps.  The
flatness loop passes the fixed-time Maurer-Cartan weight in place of the
connection's.  The cell loops and their tail conjugations are stacked
products over the whole grid; the tails and the column strips are recurrences up the columns,
all columns at once; only the product of the strips is a loop over the
columns.  Every matrix is still the product of the same factors in the
same order as in a cell-by-cell fishbone.  The loop that the
surface-ordered product is compared with is the patch's own
``boundary_path``, the same construction the ready-made loops of
:mod:`adiaconn.geometry` use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operator_core import UnitaryOperator, frobenius, matmul
from .models import ParametricHamiltonian
from .connection import maurer_cartan_weight
from .transport import PathSpec, _check_count, _is_int, holonomy, ordered_products
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
    value: UnitaryOperator


@dataclass(frozen=True)
class SurfaceOrderedProduct:
    operator: UnitaryOperator
    ordering: str
    cell_count: int


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _grid_edges(model: ParametricHamiltonian, patch: SurfacePatch, r: int):
    """Transports along the grid edges of a patch, ``r`` substeps each:
    ``h`` (nu, nv + 1, d, d) from node (i, j) to (i + 1, j), and ``v``
    (nu + 1, nv, d, d) from (i, j) to (i, j + 1), all from one
    :func:`~adiaconn.transport.ordered_products` call.

    Tails and cell loops share them, so that edges traversed in both
    directions cancel exactly; more substeps sharpen every transport
    without disturbing that cancellation.
    """
    nu, nv = patch.grid
    _check_count(r, "edge_refinement")
    i_h, j_h = (a.ravel() for a in np.meshgrid(np.arange(nu), np.arange(nv + 1), indexing="ij"))
    i_v, j_v = (a.ravel() for a in np.meshgrid(np.arange(nu + 1), np.arange(nv), indexing="ij"))
    uv_from = np.concatenate([np.column_stack([i_h / nu, j_h / nv]),
                              np.column_stack([i_v / nu, j_v / nv])])
    uv_to = np.concatenate([np.column_stack([(i_h + 1) / nu, j_h / nv]),
                            np.column_stack([i_v / nu, (j_v + 1) / nv])])
    # r + 1 nodes then r midpoints along every edge
    frac = np.concatenate([np.arange(r + 1) / r, (np.arange(r) + 0.5) / r])
    points = patch.points(uv_from[:, None] + (uv_to - uv_from)[:, None] * frac[None, :, None])
    n = points.shape[-1]
    mids = points[:, r + 1:].reshape(-1, n)
    deltas = (points[:, 1:r + 1] - points[:, :r]).reshape(-1, n)
    edges = ordered_products(model, mids, deltas, np.full(len(points), r))
    return (edges[:nu * (nv + 1)].reshape(nu, nv + 1, *edges.shape[1:]),
            edges[nu * (nv + 1):].reshape(nu + 1, nv, *edges.shape[1:]))


def _lassos(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Tail-conjugated holonomies of all cells, an (nu, nv, d, d) array,
    from the edge transports of :func:`_grid_edges`.

    Cell (i, j) has the counterclockwise loop anchored at its lower-left
    node, and the tail runs from the base (0, 0) along the bottom row,
    then up column i.  The tails are one recurrence over j for all
    columns at once, and the loops and their conjugation are stacked
    products over the whole grid (:func:`~adiaconn.operator_core.matmul`,
    unrolled for 2x2).
    """
    nu, nv, dim = h.shape[0], v.shape[1], h.shape[-1]
    tails = np.empty((nu, nv, dim, dim), dtype=complex)
    bottom = np.eye(dim, dtype=complex)
    for i in range(nu):
        tails[i, 0] = bottom
        bottom = h[i, 0] @ bottom
    for j in range(1, nv):
        tails[:, j] = matmul(v[:-1, j - 1], tails[:, j - 1])
    loops = matmul(matmul(matmul(_dagger(v[:-1]), _dagger(h[:, 1:])), v[1:]), h[:, :-1])
    return matmul(matmul(_dagger(tails), loops), tails)


def lasso_holonomy(
    model: ParametricHamiltonian,
    patch: SurfacePatch,
    cell: tuple[int, int],
    edge_refinement: int = 2,
) -> Lasso:
    """Tail-conjugated holonomy of one grid cell.

    The base point is always the patch origin S(0, 0).  The cell loop is the
    ordered product of its four edge transports; the lassos of all cells
    are built together, from one sweep over the grid edges.
    """
    nu, nv = patch.grid
    if not (np.shape(cell) == (2,) and all(map(_is_int, cell))):
        raise ValueError(f"cell must be two integer indices, got {cell!r}")
    i, j = (int(c) for c in cell)
    if not (0 <= i < nu and 0 <= j < nv):
        raise ValueError(f"cell {cell} outside grid {patch.grid}")
    lassos = _lassos(*_grid_edges(model, patch, edge_refinement))
    return Lasso(
        cell=(i, j),
        center=patch.point((i + 0.5) / nu, (j + 0.5) / nv),
        value=UnitaryOperator(lassos[i, j], tol=1e-8),
    )


def surface_ordered_product(
    model: ParametricHamiltonian, patch: SurfacePatch, edge_refinement: int = 2
) -> SurfaceOrderedProduct:
    """Fishbone-ordered product of all lassos of the patch grid.

    Within column i the factors are lasso(i, nv-1) ... lasso(i, 0) (bottom
    cell acts first); whole columns combine left to right.  With shared
    edge transports the interior contributions telescope, so the product
    reproduces the boundary holonomy up to floating-point noise -- the
    discrete form of trading a loop integral for a surface of elementary
    fluxes.
    """
    nu, nv = patch.grid
    lassos = _lassos(*_grid_edges(model, patch, edge_refinement))
    eye = np.eye(model.dim, dtype=complex)
    strips = np.broadcast_to(eye, (nu, *eye.shape))
    for j in range(nv):  # every column at once, bottom cell first
        strips = lassos[:, j] @ strips
    total = eye
    for strip in strips:
        total = total @ strip
    return SurfaceOrderedProduct(
        operator=UnitaryOperator(total, tol=1e-8),
        ordering="fishbone: columns left-to-right, cells bottom-first",
        cell_count=nu * nv,
    )


def nast_residual(
    model: ParametricHamiltonian,
    patch: SurfacePatch,
    boundary_refinement: int = 8,
    edge_refinement: int = 2,
) -> float:
    """Frobenius distance between the surface-ordered product and the
    directly transported boundary holonomy.

    The boundary is the patch's grid-resolution polyline, sub-refined by
    ``boundary_refinement`` steps per edge so the comparison exposes the
    surface side's discretization error rather than sharing it.
    """
    surface = surface_ordered_product(model, patch, edge_refinement=edge_refinement)
    return _boundary_residual(model, patch, surface, boundary_refinement)


def _boundary_residual(model, patch, surface: SurfaceOrderedProduct,
                       boundary_refinement: int) -> float:
    """The residual of :func:`nast_residual` for a surface-ordered product
    already built on ``patch``."""
    boundary = holonomy(model, patch.boundary_path(boundary_refinement))
    return frobenius(surface.operator.matrix - boundary.operator.matrix)


def maurer_cartan_flatness(model: ParametricHamiltonian, loop: PathSpec, t: float) -> float:
    """Deviation from identity of the loop transport generated by the
    non-averaged 1-form at fixed group time ``t``.

    The 1-form is pure gauge at every fixed t, so the exact transport
    around any closed loop is the identity; the returned Frobenius
    residual is purely discretization error and vanishes under refinement.
    """
    if not loop.closed:
        raise ValueError("flatness check requires a closed loop")
    mids, deltas = loop.step_arrays()
    u = ordered_products(model, mids, deltas, [len(mids)], weight=maurer_cartan_weight(t))[0]
    return frobenius(u - np.eye(model.dim))
