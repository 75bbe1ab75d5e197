"""Closed-form oracles for the two built-in families.

These are the independent analytic results the numerical machinery is
regression-tested against: spherical-chart connection and curvature for
the spin model, and Fock-basis connection and curvature for the
generalized oscillator.

Conventions and certification
-----------------------------
All coefficients below are certified against the spectral sum-over-states
construction (``connection_spectral`` / ``berry_curvature_levels``), which
is the defining object.  Two anchors pin every sign:

* spin-1/2: A_theta = -J_phi, A_phi = sin(theta) J_theta, and the field
  strength component F_theta_phi = -sin(theta) J_n, so level m carries
  Berry curvature -m sin(theta) and a loop of solid angle Omega the phase
  -m Omega;
* oscillator: A_Y = -sqrt(XZ)/(4 omega^2) (QP + PQ).

Quoted closed forms for the oscillator components circulate with other
normalizations (off by a factor -1/2 overall, and with one frequency
power misplaced in the quadratic terms of A_X and A_Z).  The forms below
are the ones that reproduce the spectral construction to near machine
precision on the trusted levels; the cross-check lives in the test suite.
"""

from __future__ import annotations

import numpy as np

from .models import angular_momentum, ladder_operators, spherical_axes
from .connection import ConnectionOneForm
from .curvature import BerryCurvatureTable, CurvatureTwoForm
from .operator_core import wrap_phase

__all__ = [
    "su2_spherical_triple",
    "su2_analytic_connection",
    "su2_analytic_curvature",
    "su2_berry_curvature",
    "su2_triangle_phases",
    "oscillator_symplectic_qp",
    "oscillator_analytic_connection",
    "oscillator_analytic_curvature",
    "oscillator_berry_levels",
    "sp2r_generators",
]


# ---------------------------------------------------------------------------
# Spin in a magnetic field
# ---------------------------------------------------------------------------


def su2_spherical_triple(l: float, theta: float, phi: float):
    """(J_n, J_theta, J_phi): spin matrices along the spherical axes.

    They close the same algebra as (J_z, J_x, J_y):
    [J_n, J_theta] = i J_phi and cyclic.
    """
    jx, jy, jz = angular_momentum(l)
    n_hat, theta_hat, phi_hat = spherical_axes(theta, phi)

    def along(direction):
        return direction[0] * jx + direction[1] * jy + direction[2] * jz

    return along(n_hat), along(theta_hat), along(phi_hat)


def su2_analytic_connection(l: float, theta: float, phi: float) -> ConnectionOneForm:
    """Connection components in parameter order (B, theta, phi):

    A_B = 0, A_theta = -J_phi, A_phi = sin(theta) J_theta.

    Independent of B and of the coupling strength.  The phi component
    vanishes at the poles, which is why transport may touch them even
    though the phi chart degenerates there.
    """
    j_n, j_theta, j_phi = su2_spherical_triple(l, theta, phi)
    dim = j_n.shape[0]
    return ConnectionOneForm(
        components=(
            np.zeros((dim, dim), dtype=complex),
            -j_phi,
            np.sin(theta) * j_theta,
        ),
    )


def su2_analytic_curvature(l: float, theta: float, phi: float) -> CurvatureTwoForm:
    """Field strength: the only non-zero component is
    F_theta_phi = -sin(theta) J_n."""
    j_n, _, _ = su2_spherical_triple(l, theta, phi)
    dim = j_n.shape[0]
    zero = np.zeros((dim, dim), dtype=complex)
    return CurvatureTwoForm(
        components={(0, 1): zero, (0, 2): zero.copy(), (1, 2): -np.sin(theta) * j_n},
    )


def su2_berry_curvature(l: float, theta: float) -> np.ndarray:
    """Per-level values of F_theta_phi: -m sin(theta), ascending m."""
    m = -l + np.arange(round(2 * l) + 1)
    return -m * np.sin(theta)


def su2_triangle_phases(l: float, omega: float) -> np.ndarray:
    """Holonomy phases of a loop enclosing solid angle ``omega``:
    phi_m = -m * omega wrapped to (-pi, pi], ordered by ascending m
    (equivalently ascending energy for positive field)."""
    if not 0.0 < omega < 2.0 * np.pi:
        raise ValueError("solid angle must lie in (0, 2*pi)")
    m = -l + np.arange(round(2 * l) + 1)
    return wrap_phase(-m * omega)


# ---------------------------------------------------------------------------
# Generalized oscillator
# ---------------------------------------------------------------------------


def _oscillator_domain(x: float, y: float, z: float) -> float:
    disc = z * x - y * y
    if disc <= 0.0:
        raise ValueError(f"unbound oscillator: Z*X - Y^2 = {disc:.6g} <= 0")
    return float(np.sqrt(disc))


def oscillator_symplectic_qp(x: float, y: float, z: float, nmax: int):
    """Normal-mode quadratures (Q, P) as truncated Fock-basis matrices.

    The symplectic change of variables diagonalizing
    (X q^2 + Y(pq+qp) + Z p^2)/2 into omega (P^2 + Q^2)/2:

        Q = (-p (Z/X)^{1/4} + q (X/Z)^{1/4}) / sqrt(2) / r
        P = ( p (Z/X)^{1/4} + q (X/Z)^{1/4}) / sqrt(2) * r

    with r = ((sqrt(XZ) + Y)/(sqrt(XZ) - Y))^{1/4}.  [Q, P] = i holds
    below the truncation edge.
    """
    omega = _oscillator_domain(x, y, z)
    a, adag = ladder_operators(nmax)
    q = (a + adag) / np.sqrt(2.0)
    p = 1j * (adag - a) / np.sqrt(2.0)
    alpha = (z / x) ** 0.25
    beta = (x / z) ** 0.25
    root_xz = np.sqrt(x * z)
    r = ((root_xz + y) / (root_xz - y)) ** 0.25
    big_q = (-p * alpha + q * beta) / np.sqrt(2.0) / r
    big_p = (p * alpha + q * beta) / np.sqrt(2.0) * r
    return big_q, big_p, omega


def oscillator_analytic_connection(
    x: float, y: float, z: float, nmax: int
) -> ConnectionOneForm:
    """Connection components (A_X, A_Y, A_Z) in the truncated Fock basis.

    With K-type quadratic combinations of the normal-mode quadratures,

        A_X = sqrt(Z/X) [ Y (QP+PQ) / (8 omega^2) - (Q^2 - P^2) / (8 omega) ]
        A_Y = -sqrt(XZ) (QP+PQ) / (4 omega^2)
        A_Z = sqrt(X/Z) [ Y (QP+PQ) / (8 omega^2) + (Q^2 - P^2) / (8 omega) ]

    certified against the spectral construction (see module docstring);
    valid on the trusted levels of the truncation.
    """
    big_q, big_p, omega = oscillator_symplectic_qp(x, y, z, nmax)
    q2_p2 = big_q @ big_q - big_p @ big_p
    qp_pq = big_q @ big_p + big_p @ big_q
    a_x = np.sqrt(z / x) * (y * qp_pq / (8.0 * omega**2) - q2_p2 / (8.0 * omega))
    a_y = -np.sqrt(x * z) * qp_pq / (4.0 * omega**2)
    a_z = np.sqrt(x / z) * (y * qp_pq / (8.0 * omega**2) + q2_p2 / (8.0 * omega))
    return ConnectionOneForm(components=(a_x, a_y, a_z))


def oscillator_analytic_curvature(
    x: float, y: float, z: float, nmax: int
) -> CurvatureTwoForm:
    """Field strength components, each proportional to the Hamiltonian:

        F_YZ = -X H / (4 omega^4),  F_ZX = -Y H / (4 omega^4),
        F_XY = -Z H / (4 omega^4),

    stored for ascending index pairs (so the (X, Z) entry is +Y H /
    (4 omega^4)).  Diagonal in the eigenbasis with per-level values
    -(n + 1/2) {X, Y, Z} / (4 omega^3).
    """
    omega = _oscillator_domain(x, y, z)
    a, adag = ladder_operators(nmax)
    q = (a + adag) / np.sqrt(2.0)
    p = 1j * (adag - a) / np.sqrt(2.0)
    h = 0.5 * (x * q @ q + y * (p @ q + q @ p) + z * p @ p)
    scale = 1.0 / (4.0 * omega**4)
    return CurvatureTwoForm(
        components={
            (0, 1): -z * scale * h,
            (0, 2): y * scale * h,
            (1, 2): -x * scale * h,
        },
    )


def oscillator_berry_levels(x: float, y: float, z: float, levels: int) -> BerryCurvatureTable:
    """Per-level curvature values for pairs ((X,Y), (X,Z), (Y,Z)):
    -(n + 1/2)/(4 omega^3) times (Z, -Y, X); the middle sign flips because
    the cyclic pair is (Z, X) while storage uses (X, Z)."""
    omega = _oscillator_domain(x, y, z)
    n_half = np.arange(levels) + 0.5
    coeff = -n_half / (4.0 * omega**3)
    table = np.column_stack([z * coeff, -y * coeff, x * coeff])
    return BerryCurvatureTable(
        pairs=((0, 1), (0, 2), (1, 2)),
        table=table,
    )


def sp2r_generators(big_q: np.ndarray, big_p: np.ndarray):
    """Symplectic-algebra generators built from the normal-mode quadratures:

        K_1 = (Q^2 - P^2)/4,  K_2 = -(QP + PQ)/4,  K_0 = (Q^2 + P^2)/4,

    closing [K_1, K_2] = -i K_0, [K_0, K_1] = i K_2, [K_2, K_0] = i K_1
    on the trusted block.  The connection components are combinations of
    K_1 and K_2; the field strength is a function of K_0 alone.
    """
    k1 = (big_q @ big_q - big_p @ big_p) / 4.0
    k2 = -(big_q @ big_p + big_p @ big_q) / 4.0
    k0 = (big_q @ big_q + big_p @ big_p) / 4.0
    return k1, k2, k0
