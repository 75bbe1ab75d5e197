"""Ready-made loops and surface patches for the built-in models.

Spherical builders work in the (B, theta, phi) chart of the spin model;
planar builders produce flat patches/loops for any model (the oscillator's
(X, Y, Z) space in particular).  Every patch is the parallelogram
origin + u*edge_u + v*edge_v of :func:`planar_patch` (see
:class:`SurfacePatch`); the spherical ones are parallelograms in
(B, theta, phi).  Every loop is the boundary of its patch:
the builder makes the patch on a one-cell grid and returns its
``boundary_path``, so a loop and the surface it bounds cannot drift apart.
Loops that pass through the polar axis close there, along an azimuthal
leg on the pole that keeps paths coordinate-closed.  The leg carries no
transport (every step factor on it is exactly the identity), but it is
an edge of the boundary like the others, and its points are evaluated
and decomposed like any other: the triangle and the circle (the wedge
and cap boundaries) spend a quarter of their points there.
``su2_triangle_loop(1.2, refinement=900)`` has 902 of its 3601 points
on the pole.
"""

from __future__ import annotations

import numpy as np

from .transport import PathSpec
from .curvature import SurfacePatch

__all__ = [
    "su2_triangle_loop",
    "su2_circle_loop",
    "su2_wedge_patch",
    "su2_cap_patch",
    "planar_patch",
    "planar_rectangle_loop",
    "cap_polar_angle",
]


def su2_triangle_loop(omega: float, b: float = 1.0, refinement: int = 2000) -> PathSpec:
    """Geodesic triangle: pole -> equator at phi=0 -> along the equator by
    ``omega`` -> back to the pole, closed along the polar axis.

    It is the boundary of :func:`su2_wedge_patch` with the same arguments;
    the enclosed solid angle is ``omega``.
    """
    return su2_wedge_patch(omega, b, (1, 1)).boundary_path(refinement)


def su2_circle_loop(theta0: float, b: float = 1.0, refinement: int = 500) -> PathSpec:
    """Full circle of colatitude ``theta0``, anchored at the pole.

    Realized as the boundary of the enclosed cap (meridian down, circle
    around, meridian back), so the path is coordinate-closed; the solid
    angle is 2*pi*(1 - cos(theta0)).
    """
    if not 0.0 < theta0 < np.pi:
        raise ValueError("theta0 must lie strictly between the poles")
    return planar_patch([b, 0, 0], [0, theta0, 0], [0, 0, 2.0 * np.pi], (1, 1)).boundary_path(
        refinement)


def su2_wedge_patch(omega: float, b: float = 1.0,
                    grid: tuple[int, int] = (50, 50)) -> SurfacePatch:
    """Spherical wedge theta in [0, pi/2], phi in [0, omega].

    Its boundary is :func:`su2_triangle_loop`; the enclosed solid angle is
    ``omega``.
    """
    if not 0.0 < omega < 2.0 * np.pi:
        raise ValueError("azimuthal span must lie in (0, 2*pi)")
    return planar_patch([b, 0, 0], [0, np.pi / 2, 0], [0, 0, omega], grid)


def cap_polar_angle(omega: float) -> float:
    """Colatitude of the cap enclosing solid angle ``omega``."""
    if not 0.0 < omega < 4.0 * np.pi:
        raise ValueError("solid angle must lie in (0, 4*pi)")
    return float(np.arccos(1.0 - omega / (2.0 * np.pi)))


def su2_cap_patch(omega: float, b: float = 1.0, grid: tuple[int, int] = (50, 50)) -> SurfacePatch:
    """Polar cap of solid angle ``omega``: theta in [0, arccos(1 - omega/2pi)],
    phi over the full turn."""
    return planar_patch([b, 0, 0], [0, cap_polar_angle(omega), 0], [0, 0, 2.0 * np.pi], grid)


def planar_patch(origin, edge_u, edge_v, grid: tuple[int, int] = (50, 50)) -> SurfacePatch:
    """Flat parallelogram patch lambda(u, v) = origin + u*edge_u + v*edge_v.

    ``origin``, ``edge_u`` and ``edge_v`` must be 1-D vectors of one
    length, and neither edge may be zero; anything else raises ValueError.
    """
    return SurfacePatch(origin, edge_u, edge_v, grid)


def planar_rectangle_loop(origin, edge_u, edge_v, refinement: int = 500) -> PathSpec:
    """Boundary of :func:`planar_patch`, counterclockwise from the origin."""
    return planar_patch(origin, edge_u, edge_v, (1, 1)).boundary_path(refinement)
