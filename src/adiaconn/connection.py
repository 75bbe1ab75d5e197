"""Adiabatic connection and shift operator at a parameter point.

Two independent routes to the connection are provided: the spectral
sum-over-states formula (exact, given an eigen-decomposition) and a
finite-horizon time average of the Maurer-Cartan 1-form of the unitary
group generated by the instantaneous Hamiltonian, which converges to the
spectral result as the horizon grows.  Both routes, and the path kernel
in :mod:`adiaconn.transport`, contract gradients in the eigenbasis through
one routine, :func:`contract_stack`, which works on stacks of points and
differs between them only in its eigenvalue-difference weight; the shift
operator, the part of dH commuting with H, takes the weight 1 on the
diagonal and 0 off it.  The components of a point quantity are one stack,
rotated and transformed by stacked products.  Gauge transformations of
the connection are also implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operator_core import (SpectralDecomposition, UnitaryOperator, _check_square_finite, _is_int,
                            as_matrix, gauge_phase, hermitian_part, sandwich)
from .models import ParametricHamiltonian

__all__ = [
    "ConnectionOneForm",
    "ShiftOperator",
    "TimeAverageConfig",
    "connection_spectral",
    "connection_weight",
    "maurer_cartan_weight",
    "contract_stack",
    "shift_operator",
    "maurer_cartan_sample",
    "connection_time_average",
    "gauge_transform",
]


@dataclass(frozen=True)
class ConnectionOneForm:
    """Per-direction Hermitian connection components A_mu at one point.

    In the eigenbasis of H at that point every component has zero
    diagonal: the connection only rotates eigenvectors into one another,
    never rephases one against itself.
    """

    components: tuple[np.ndarray, ...]
    error_estimate: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(np.asarray(c) for c in self.components))

    @property
    def n_params(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class ShiftOperator:
    """Diagonal-in-eigenbasis components D_mu; first-order level shifts.

    Each D_mu commutes with H at the point and <n|D_mu|n> is the first
    derivative of E_n along lambda_mu.
    """

    components: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(np.asarray(c) for c in self.components))

    def level_shifts(self, spec: SpectralDecomposition) -> np.ndarray:
        """dE_n/dlambda_mu as an (n_levels, n_params) real array."""
        d = np.reshape(self.components, (len(self.components),) + (spec.dim,) * 2)
        return np.diagonal(spec.to_eigenbasis(d), axis1=-2, axis2=-1).real.T


def connection_weight(delta: np.ndarray) -> np.ndarray:
    """Eigenbasis weight of the connection: i / (E_m - E_n) off the
    diagonal, 0 on it and wherever the difference vanishes."""
    inv = np.zeros(delta.shape)
    np.divide(1.0, delta, out=inv, where=delta != 0.0)
    return 1j * inv


def _maurer_cartan_kernel(delta: np.ndarray, osc: np.ndarray, t_diag: float) -> np.ndarray:
    """i (1 - osc) / (E_m - E_n) off the diagonal, -t_diag on it."""
    kernel = np.zeros(delta.shape, dtype=complex)
    mask = delta != 0.0
    kernel[mask] = 1j * (1.0 - osc[mask]) / delta[mask]
    diag = np.arange(delta.shape[-1])
    kernel[..., diag, diag] = -t_diag
    return kernel


def maurer_cartan_weight(t: float):
    """Eigenbasis weight of the Maurer-Cartan 1-form at group time ``t``;
    ValueError unless ``t`` is finite."""
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    return lambda delta: _maurer_cartan_kernel(delta, np.exp(-1j * t * delta), t)


def contract_stack(evals, vecs, g, weight=connection_weight, gauge=None) -> np.ndarray:
    """V (W * V^dag G V) V^dag for one eigensystem or a stack of them.

    ``evals`` (..., d) and ``vecs`` (..., d, d) broadcast against the
    Hermitian ``g`` (..., d, d).  ``weight`` maps eigenvalue differences
    E_m - E_n to the kernel W; on the diagonal W multiplies the real part
    of <n|G|n>.  With the default weight the result is the connection
    contracted with whatever direction G is the gradient along.

    With a ``gauge`` D (..., d) of unit phases, as a tree block keeps it
    (see :func:`~adiaconn.operator_core.eigh_block`), the eigenvectors
    are V = D ``vecs``: G is rephased to D^dag G D, contracted against
    ``vecs`` and rephased back.  Real ``vecs`` rotate with real matrix
    products only.
    """
    if gauge is not None:
        phase = gauge_phase(gauge)
        return contract_stack(evals, vecs, g * phase, weight) * phase.conj()
    vh = vecs.conj().swapaxes(-1, -2)
    g_eig = sandwich(vh, g, vecs)
    kernel = weight(evals[..., :, None] - evals[..., None, :])
    out = g_eig * kernel
    diag = np.arange(evals.shape[-1])
    out[..., diag, diag] = kernel[..., diag, diag] * g_eig[..., diag, diag].real
    return sandwich(vecs, out, vh)


def connection_spectral(
    spec: SpectralDecomposition, grad_h: list[np.ndarray]
) -> ConnectionOneForm:
    """Sum-over-states connection components.

    A_mu = i * sum_{m != n} |m><m| dH/dlambda_mu |n><n| / (E_m - E_n),
    assembled in the eigenbasis and rotated back.  Requires a
    non-degenerate decomposition and finite gradients.
    """
    if spec.dim > 1 and not spec.min_gap > 0.0:  # a NaN gap fails too
        raise ValueError("connection_spectral requires a non-degenerate spectrum")
    if not len(grad_h):
        return ConnectionOneForm(())
    g = np.asarray(grad_h, dtype=complex)
    if not np.isfinite(g).all():
        raise ValueError("connection_spectral requires finite gradients")
    a = contract_stack(spec.eigenvalues, spec.frame.matrix, g)
    return ConnectionOneForm(tuple(a))


def shift_operator(spec: SpectralDecomposition, grad_h: list[np.ndarray]) -> ShiftOperator:
    """D_mu = sum_n <n|dH/dlambda_mu|n> |n><n|: the part of dH commuting with H,
    :func:`contract_stack` with the weight 1 on the diagonal and 0 off it."""
    if not len(grad_h):
        return ShiftOperator(())
    d = contract_stack(spec.eigenvalues, spec.frame.matrix, np.asarray(grad_h, dtype=complex),
                       lambda delta: np.eye(delta.shape[-1]))
    return ShiftOperator(tuple(d))


def _check_horizon(horizon) -> None:
    if not (np.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"averaging horizon must be finite and positive, got {horizon!r}")


@dataclass(frozen=True)
class TimeAverageConfig:
    """Finite-horizon trapezoid average over t in [-T, T].

    The sample spacing must resolve the fastest transition frequency of
    the spectrum; the guard refuses spacings above pi / (4 * spectral
    radius).
    """

    horizon: float
    samples: int

    def __post_init__(self):
        _check_horizon(self.horizon)
        if not (_is_int(self.samples) and self.samples >= 2):
            raise ValueError(f"need an integer count of at least two time samples, "
                             f"got {self.samples!r}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.horizon / (self.samples - 1)

    @classmethod
    def for_spectrum(cls, spec: SpectralDecomposition, horizon: float | None = None):
        """Defaults: T = 50/min_gap, spacing = pi/(8 * spectral radius).
        ValueError for the default T of a spectrum with no gap (one
        level, or one checked level): pass ``horizon``."""
        if horizon is None:
            if not np.isfinite(spec.min_gap):
                raise ValueError("the spectrum has no gap to set the default averaging horizon; "
                                 "give one with horizon (--horizon)")
            horizon = 50.0 / spec.min_gap
        _check_horizon(horizon)
        radius = max(spec.spectral_radius, 1e-12)
        spacing = np.pi / (8.0 * radius)
        samples = max(int(np.ceil(2.0 * horizon / spacing)) + 1, 2)
        return cls(horizon=float(horizon), samples=samples)


def maurer_cartan_sample(model: ParametricHamiltonian, lam, t: float) -> list[np.ndarray]:
    """Components omega_mu(lambda, t) = i e^{-itH} d/dlambda_mu e^{itH}.

    Evaluated exactly through the eigenbasis: off-diagonal elements are
    i <m|dH|n> (1 - e^{-it(E_m - E_n)})/(E_m - E_n) and the diagonal is
    -t <n|dH|n>.  All components vanish at t = 0 and are Hermitian.
    """
    lam = np.asarray(lam, dtype=float)
    spec = model.spectral_at(lam)
    grads = np.asarray(model.grad_h(lam), dtype=complex)
    return list(contract_stack(spec.eigenvalues, spec.frame.matrix, grads,
                               maurer_cartan_weight(t)))


def connection_time_average(
    model: ParametricHamiltonian,
    lam,
    cfg: TimeAverageConfig | None = None,
) -> ConnectionOneForm:
    """Estimate the connection as the trapezoid time average of the
    Maurer-Cartan form over [-T, T].

    It converges to :func:`connection_spectral` as T grows.  In the
    eigenbasis the deviation of each component is exactly
    G_eig * (-i osc / delta), with osc the trapezoid mean of
    e^{-it delta} and delta = E_m - E_n; since |osc| <= env =
    min(1, (1/|sin(h delta / 2)| + 1) / (n - 1)) for n samples at spacing
    h, ``error_estimate`` = max over components of
    || |G_eig| * env / |delta| ||_F bounds the Frobenius norm of every
    component's deviation.
    """
    lam = np.asarray(lam, dtype=float)
    spec = model.spectral_at(lam)
    grads = np.asarray(model.grad_h(lam), dtype=complex)
    if cfg is None:
        cfg = TimeAverageConfig.for_spectrum(spec)
    nyquist = np.pi / (4.0 * max(spec.spectral_radius, 1e-12))
    if cfg.spacing >= nyquist:
        raise ValueError(
            f"sample spacing {cfg.spacing:.3e} too coarse for spectral radius "
            f"{spec.spectral_radius:.3e}; need below {nyquist:.3e}"
        )
    delta = spec.eigenvalues[:, None] - spec.eigenvalues[None, :]
    # Trapezoid mean of e^{-it delta} over the grid in closed form: the
    # grid is symmetric about 0, so the mean of t is exactly 0 and that of
    # e^{-it delta} is the Dirichlet sum of cos(t delta) less half of each
    # end, over n - 1.  The guard above keeps h |delta| / 2 below pi / 4.
    n, half = cfg.samples, 0.5 * cfg.spacing * delta
    mean_osc = np.ones(delta.shape)
    moving = delta != 0.0
    mean_osc[moving] = (np.sin(n * half[moving]) / np.sin(half[moving])
                        - np.cos(cfg.horizon * delta[moving])) / (n - 1)
    components = contract_stack(spec.eigenvalues, spec.frame.matrix, grads,
                                lambda d: _maurer_cartan_kernel(d, mean_osc, 0.0))
    envelope = np.minimum(1.0, (1.0 / np.abs(np.sin(half[moving])) + 1.0) / (n - 1))
    terms = np.abs(spec.to_eigenbasis(grads))[:, moving] * envelope / np.abs(delta[moving])
    # one norm per component: a norm over the stack's axes sums in another order
    bound = max((float(np.linalg.norm(t)) for t in terms), default=0.0)
    return ConnectionOneForm(tuple(components), error_estimate=bound)


def gauge_transform(a: ConnectionOneForm, u, du: list[np.ndarray]) -> ConnectionOneForm:
    """Transform the connection under H -> U H U^dag.

    A'_mu = U A_mu U^dag + i U (dU/dlambda_mu)^dag, symmetrized to kill
    numerical anti-Hermitian residue (i U dU^dag is Hermitian exactly when
    d(U U^dag) = 0).  The result is a valid connection for the rotated
    family up to a term diagonal in the rotated eigenbasis, which only
    rephases eigenvectors.  ``u`` is held to a unitarity budget of 1e-8
    per dimension; ValueError for a ``u`` that misses it, or for a
    non-square or non-finite ``u`` or dU.
    """
    u = UnitaryOperator(as_matrix(u), tol=1e-8).matrix
    if len(du) != a.n_params:
        raise ValueError("need one dU component per parameter direction")
    du = [as_matrix(du_mu) for du_mu in du]
    for du_mu in du:
        _check_square_finite(du_mu, "dU component")
    a_mu = np.reshape(a.components, (len(du),) + u.shape)
    du_dag = np.reshape(du, a_mu.shape).conj().swapaxes(-1, -2)
    return ConnectionOneForm(tuple(hermitian_part(u @ a_mu @ u.conj().T + 1j * u @ du_dag)))
