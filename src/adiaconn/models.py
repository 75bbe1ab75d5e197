"""Parametric Hamiltonian families H(lambda).

Provides the model abstraction, the two built-in families -- a spin in a
magnetic field over spherical parameters (B, theta, phi) and a
generalized oscillator over quadratic-form coefficients (X, Y, Z) in a
truncated Fock basis -- and a text model-file format for user-defined
polynomial families H(lambda) = sum_k c_k(lambda) M_k with monomial
coefficients.  A model evaluates H, its parameter gradients and its
domain on a stack of points through batch hooks; every per-point call is
a one-point batch.  Every built-in family is a term family, H(lambda) =
sum_t c_t(lambda) M_t with fixed matrices M_t, and supplies only the
real coefficients c_t and their gradients.  A term family hands its
values to the chunked kernels block by block, in one layout per model
that its first kernel call finds and keeps.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass

import numpy as np

from . import operator_core
from .operator_core import (
    SpectralDecomposition,
    as_matrix,
    hermitian_part,
    hermiticity_defect,
)

__all__ = [
    "DomainViolationError",
    "ModelFileError",
    "ParametricHamiltonian",
    "Su2Model",
    "OscillatorModel",
    "ModelSpec",
    "constant_model",
    "angular_momentum",
    "spherical_axes",
    "ladder_operators",
    "parse_model_file",
    "serialize_model_spec",
    "FD_STEP_SCALE",
    "MAX_EXPONENT",
]

FD_STEP_SCALE = 1e-5
MAX_EXPONENT = 16
CERTIFIED_DRIFT = 1e-8
CERTIFIED_TAIL = 1e-7


class DomainViolationError(Exception):
    """The parameter point lies outside the model's validity domain."""


class ModelFileError(Exception):
    """Model file failed to parse; carries the offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class ParametricHamiltonian:
    """A smooth family of Hermitian matrices over N real parameters.

    Every evaluation runs through :meth:`eval_batch`; :meth:`domain_check`,
    :meth:`eval_h` and :meth:`grad_h` are one-point calls of it.  A family
    supplies ``_domain_batch(lams)`` (a boolean per point; the default
    accepts every point) and one of two evaluation hooks:

    * A term family, H(lambda) = sum_t c_t(lambda) M_t with fixed matrices
      M_t, declares its (T, d, d) term stack once with
      :meth:`_declare_terms` and implements ``_coefficients(lams,
      directions)``, which returns the real coefficient rows of H, (K, T),
      and of the direction-contracted gradients, (K, M, T).  The terms are
      made exactly Hermitian once, and their union nonzero pattern fixes
      the entries H and G can ever hold and the blocks that the chunked
      kernels decompose over.  Only those entries are written, each from
      real products of the coefficients with the real and imaginary parts
      of the terms.
    * Any other family overrides ``_evaluate_batch(lams, directions)`` and
      returns the dense H and direction-contracted gradients, all
      Hermitian; the default calls the functional constructor's
      ``eval_fn`` point by point, with central-difference gradients of
      per-direction step 1e-5 * (1 + |lambda_mu|).  The kernels find the
      blocks of every chunk from its entries.  So does a subclass of a
      term family that overrides ``_evaluate_batch``: the base class
      cannot know which entries the override adds.
    """

    # Degeneracy checks cover the gaps among the lowest ``check_levels``
    # levels (all when None), in spectral_at and in the path kernel alike.
    check_levels: int | None = None
    # Set by _declare_terms for a term family: the real and imaginary
    # parts of the terms at the float slots of a flattened complex (d, d)
    # matrix that some term fills, as a (T, S) array.
    _term_values: np.ndarray | None = None
    # A term family's kernel layout, (blocks, packed slots) of _pack, found
    # on its first _kernel_batch call: construction does not pay for it.
    _layout: tuple | None = None

    def __init__(
        self,
        dim: int,
        n_params: int,
        eval_fn=None,
        param_names: tuple[str, ...] | None = None,
    ):
        self.dim = int(dim)
        self.n_params = int(n_params)
        self._eval_fn = eval_fn
        if param_names is None:
            param_names = tuple(f"lambda_{i + 1}" for i in range(n_params))
        if len(param_names) != n_params:
            raise ValueError("param_names length must match n_params")
        self.param_names = tuple(param_names)

    # -- public API -------------------------------------------------------

    def _as_point(self, lam) -> np.ndarray:
        p = np.atleast_1d(np.asarray(lam, dtype=float))
        if p.shape != (self.n_params,):
            raise ValueError(
                f"expected {self.n_params} parameters {self.param_names}, got shape {p.shape}"
            )
        if not np.all(np.isfinite(p)):
            raise ValueError("parameter point has non-finite entries")
        return p

    def domain_check(self, lam) -> bool:
        return bool(self._domain_batch(self._as_point(lam)[None])[0])

    def eval_h(self, lam) -> np.ndarray:
        """Hermitian matrix H(lambda); raises DomainViolationError outside the domain."""
        return self.eval_batch(self._as_point(lam)[None])[0][0]

    def grad_h(self, lam) -> list[np.ndarray]:
        """Parameter gradients dH/dlambda_mu as Hermitian matrices."""
        lam = self._as_point(lam)
        return list(self.eval_batch(lam[None], np.eye(self.n_params)[None])[1][0])

    def _central_difference(self, lam: np.ndarray, step: float | None) -> list[np.ndarray]:
        """Central-difference gradients with the given step (None: 1e-5 *
        (1 + |lambda_mu|) per direction): the gradients of a functional
        model, and the reference that analytic gradients are tested
        against."""
        grads = []
        for mu in range(self.n_params):
            h_mu = step if step is not None else FD_STEP_SCALE * (1.0 + abs(lam[mu]))
            e = np.zeros_like(lam)
            e[mu] = 1.0
            # One shrink is allowed when the stencil crosses the domain edge.
            for attempt in range(2):
                plus, minus = lam + h_mu * e, lam - h_mu * e
                if self.domain_check(plus) and self.domain_check(minus):
                    break
                h_mu *= 0.1
            else:
                raise DomainViolationError(
                    f"finite-difference stencil for {self.param_names[mu]} leaves the "
                    f"domain at {lam.tolist()} even after shrinking the step"
                )
            grads.append(hermitian_part((self.eval_h(plus) - self.eval_h(minus)) / (2.0 * h_mu)))
        return grads

    def spectral_at(self, lam) -> SpectralDecomposition:
        """Eigen-decomposition of H(lambda) with degeneracy detection on
        the lowest ``check_levels`` levels: the one-point case of the
        kernels' block decomposition."""
        blocks, stacks, _ = self._kernel_batch(self._as_point(lam)[None])
        system = operator_core.decompose_blocks(blocks, stacks)
        return operator_core._spectral(system.evals[0], system.frames()[0], self.check_levels)

    # -- batches ----------------------------------------------------------

    def eval_batch(self, lams, directions=None) -> tuple[np.ndarray, np.ndarray]:
        """H and direction-contracted gradients at a stack of points.

        ``lams`` is (K, N) and ``directions`` is (K, M, N) (None: M = 0).
        Returns H as a (K, d, d) array and G as a (K, M, d, d) array with
        G[k, m] = sum_mu directions[k, m, mu] dH/dlambda_mu at lams[k],
        all Hermitian.  Raises DomainViolationError for the first point
        outside the domain.
        """
        return self._evaluate_batch(*self._checked_points(lams, directions))

    def _checked_points(self, lams, directions):
        """``lams`` and ``directions`` as float arrays, (K, N) and
        (K, M, N), once every point is finite and inside the domain."""
        lams = np.asarray(lams, dtype=float)
        if lams.ndim != 2 or lams.shape[1] != self.n_params:
            raise ValueError(
                f"expected (K, {self.n_params}) parameter points {self.param_names}, "
                f"got shape {lams.shape}"
            )
        if directions is None:
            directions = np.zeros((len(lams), 0, self.n_params))
        directions = np.asarray(directions, dtype=float)
        if not np.isfinite(lams).all():
            raise ValueError("parameter point has non-finite entries")
        inside = self._domain_batch(lams)
        if not inside.all():
            raise DomainViolationError(
                f"{type(self).__name__}: point {lams[np.argmin(inside)].tolist()} "
                "outside model domain"
            )
        return lams, directions

    def _kernel_batch(self, lams, directions=None):
        """:meth:`eval_batch` for the chunked kernels, block by block: the
        blocks to decompose over, as a tuple of
        :class:`~adiaconn.operator_core.Block`, and each block's own H and
        G stacks, (K, b, b) and (K, M, b, b).  ValueError when H or G has
        a non-finite entry, or H an entry too large for the norms
        downstream, which no decomposition or contraction would report.

        A term family that keeps the base ``_evaluate_batch`` is checked
        on its pattern entries only, and writes the blocks of its term
        pattern from its pattern values into one zeroed buffer per chunk,
        whose views the stacks are; its layout is found on the first call
        and kept on the model.  Every other family splits its dense H and
        G by their joint pattern, once every H and every G meets the
        Hermiticity rule (ValueError otherwise, naming the first point:
        ``eigh`` reads one triangle of H, and the two-level closed forms
        one triangle of G).
        """
        lams, directions = self._checked_points(lams, directions)
        if self._term_values is None or (
                type(self)._evaluate_batch is not ParametricHamiltonian._evaluate_batch):
            h, g = self._evaluate_batch(lams, directions)
            _check_entries(h.view(float), g, self.dim)
            for what, stack in (("Hamiltonian", h), ("Hamiltonian gradient", g)):
                miss = hermiticity_defect(stack)[1]  # (K,) for H, (K, M) for G
                miss = np.flatnonzero(miss.any(axis=tuple(range(1, miss.ndim))))
                if miss.size:
                    raise ValueError(f"{what} is not Hermitian at {lams[miss[0]].tolist()}")
            blocks = operator_core.split_blocks(h, g)
            return blocks, [b.take(h) for b in blocks], [b.take(g) for b in blocks]
        with np.errstate(over="ignore", invalid="ignore"):  # named below, not warned of
            h, g = self._pattern_values(lams, directions)
        _check_entries(h, g, self.dim)
        if self._layout is None:
            self._layout = self._pack(operator_core._pattern_blocks(self._pattern, self.dim))
        blocks, slots = self._layout
        # one buffer, not one per block: the chunk's largest allocation then
        # keeps glibc from trimming and refaulting the heap after every chunk
        sizes = [len(b.index) for b in blocks]
        packed = np.zeros((len(h), 1 + g.shape[1], 2 * sum(n * n for n in sizes)))
        packed[:, 0, slots], packed[:, 1:, slots] = h, g
        parts = ([packed] if len(sizes) == 1 else
                 np.split(packed, 2 * np.cumsum(np.square(sizes))[:-1], axis=-1))
        stacks = [p.view(complex).reshape(p.shape[:2] + (n, n)) for p, n in zip(parts, sizes)]
        return blocks, [s[:, 0] for s in stacks], [s[:, 1:] for s in stacks]

    def _domain_batch(self, lams: np.ndarray) -> np.ndarray:
        return np.ones(len(lams), dtype=bool)

    def _evaluate_batch(self, lams: np.ndarray, directions: np.ndarray):
        if self._term_values is not None:
            h, g = self._pattern_values(lams, directions)
            return self._scatter(h), self._scatter(g)
        if self._eval_fn is None:
            raise NotImplementedError
        h = hermitian_part(np.array([self._eval_fn(lam) for lam in lams], dtype=complex))
        grads = (np.array([self._central_difference(lam, None) for lam in lams])
                 if directions.shape[1] else np.empty((len(lams), 0, self.dim, self.dim), complex))
        return h, _contract(grads, directions)

    # -- term families ----------------------------------------------------

    def _declare_terms(self, terms) -> None:
        """Fix the (T, d, d) term matrices M_t of H = sum_t c_t M_t.

        The terms are made exactly Hermitian ((M + M^dag)/2, which leaves
        an exactly Hermitian term as it is), so that real coefficients give
        an exactly Hermitian H.  Their union nonzero pattern is kept for
        the block lookup, and the real and imaginary parts of the terms at
        every float slot that some term fills, for the products of
        :meth:`_pattern_values`.
        """
        parts = hermitian_part(terms).reshape(len(terms), -1).view(float)  # (re, im) pairs
        filled = np.any(parts != 0.0, axis=0)
        self._slots = np.flatnonzero(filled)
        self._term_values = np.ascontiguousarray(parts[:, self._slots])
        self._pattern = filled.reshape(-1, 2).any(axis=1).tobytes()

    def _pattern_values(self, lams: np.ndarray, directions: np.ndarray):
        """The filled float slots of H, (K, S), and of G, (K, M, S): the
        coefficient rows of :meth:`_coefficients` times the real and
        imaginary parts of the terms, real products only.  Each is one
        two-dimensional matrix product, so that every row rounds alike,
        one point or a stack, one direction or several."""
        c, c_dirs = self._coefficients(lams, directions)
        g = c_dirs.reshape(-1, c_dirs.shape[-1]) @ self._term_values
        return c @ self._term_values, g.reshape(c_dirs.shape[:-1] + g.shape[-1:])

    def _scatter(self, values: np.ndarray) -> np.ndarray:
        """Complex (..., d, d) matrices from their filled float slots
        (..., S), exactly zero elsewhere."""
        lead = values.shape[:-1]
        out = np.zeros(lead + (2 * self.dim * self.dim,))
        out[..., self._slots] = values
        return out.view(complex).reshape(lead + (self.dim, self.dim))

    def _pack(self, blocks) -> tuple:
        """The kernel layout of ``blocks``: the blocks, and where every
        filled float slot lies when their flattened complex (b, b)
        matrices follow one another.  Every filled entry lies in exactly
        one block."""
        position, start = np.zeros((self.dim, self.dim), dtype=int), 0  # complex entries
        for b in blocks:
            n = len(b.index)
            position[np.ix_(b.index, b.index)] = start + np.arange(n * n).reshape(n, n)
            start += n * n
        return blocks, 2 * position.ravel()[self._slots // 2] + self._slots % 2


def _check_entries(h: np.ndarray, g: np.ndarray, dim: int) -> None:
    """ValueError when the Hamiltonian values ``h`` or the gradient values
    ``g`` of a chunk have a non-finite entry, H first, or when an entry of
    H is too large for the norms downstream
    (:func:`~adiaconn.operator_core._check_magnitude`)."""
    largest = np.max(np.abs(h), initial=0.0)
    if not np.isfinite(largest):
        raise ValueError("Hamiltonian has non-finite entries")
    if not np.isfinite(g).all():
        raise ValueError("Hamiltonian gradient has non-finite entries")
    operator_core._check_magnitude(largest, dim, "Hamiltonian")


def _contract(grads: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """G[k, m] = sum_mu directions[k, m, mu] grads[k, mu], accumulated in
    parameter order and skipping zero direction entries; grads[k, mu] is
    a matrix, or a row of term coefficients."""
    k, n_dirs, n_params = directions.shape
    g = np.zeros((k, n_dirs, *grads.shape[2:]), dtype=grads.dtype)
    for mu in range(n_params):
        for m in range(n_dirs):
            d = directions[:, m, mu].reshape((k,) + (1,) * (grads.ndim - 2))
            g[:, m] += np.where(d != 0.0, d * grads[:, mu], 0.0)
    return g


def constant_model(matrix, n_params: int = 1) -> ParametricHamiltonian:
    """A parameter-independent family; every gradient is zero."""
    m = as_matrix(matrix)
    names = tuple(f"lambda_{i + 1}" for i in range(n_params))
    return ModelSpec(m.shape[0], names, (((0,) * n_params, m),)).to_model()


# ---------------------------------------------------------------------------
# SU(2): spin in a magnetic field, spherical parameters (B, theta, phi)
# ---------------------------------------------------------------------------


def angular_momentum(l: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standard spin-l matrices (Jx, Jy, Jz), basis ordered by ascending m."""
    twice = round(2 * l) if np.isfinite(l) else 0
    if twice < 1 or abs(2 * l - twice) > 1e-12:
        raise ValueError(f"l must be a positive half-integer, got {l}")
    dim = twice + 1
    m = -l + np.arange(dim)
    jz = np.diag(m.astype(complex))
    # <m+1| J+ |m> = sqrt(l(l+1) - m(m+1)); ascending-m basis puts it one
    # row below the diagonal.
    raising = np.sqrt(l * (l + 1) - m[:-1] * (m[:-1] + 1))
    jp = np.zeros((dim, dim), dtype=complex)
    jp[np.arange(1, dim), np.arange(dim - 1)] = raising
    jm = jp.conj().T
    jx = 0.5 * (jp + jm)
    jy = -0.5j * (jp - jm)
    return jx, jy, jz


def spherical_axes(theta, phi) -> np.ndarray:
    """Orthonormal radial/polar/azimuthal unit vectors at (theta, phi),
    stacked as the rows (n_hat, theta_hat, phi_hat) of one array.

    Arrays of angles give a (3, 3, ...) array of components.
    """
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    return np.array([[st * cp, st * sp, ct], [ct * cp, ct * sp, -st],
                     [-sp, cp, np.zeros_like(sp)]])


class Su2Model(ParametricHamiltonian):
    """Spin-l magnetic interaction H = B * mu * (J . n_hat(theta, phi)).

    Parameters are (B, theta, phi) in that order.  The spectrum is
    m * B * mu for m = -l..l, so it is non-degenerate whenever B > 0.
    theta may touch the coordinate poles 0 and pi; curvature maps should
    stay in the open interval since the phi chart degenerates there.
    H and its gradients are coefficient rows in the spherical axes
    (n_hat, theta_hat, phi_hat) of the terms (Jx, Jy, Jz).
    """

    def __init__(self, l: float, mu: float = 1.0):
        terms = np.stack(angular_momentum(l))
        super().__init__(dim=terms.shape[1], n_params=3, param_names=("B", "theta", "phi"))
        self._declare_terms(terms)
        self.l = l
        self.mu = float(mu)

    def _domain_batch(self, lams):
        b, theta = lams[:, 0], lams[:, 1]
        return (b > 0.0) & (theta >= -1e-12) & (theta <= np.pi + 1e-12)

    def _coefficients(self, lams, directions):
        b, theta, phi = lams.T
        scale = b * self.mu
        n_hat, theta_hat, phi_hat = spherical_axes(theta, phi)
        h_coeff = (scale * n_hat).T
        if not directions.shape[1]:
            return h_coeff, np.zeros((len(lams), 0, 3))
        # (Jx, Jy, Jz) coefficients of dH/dB, dH/dtheta, dH/dphi, as (mu, K, 3)
        jacobian = np.array([self.mu * n_hat, scale * theta_hat,
                             scale * np.sin(theta) * phi_hat]).transpose(0, 2, 1)
        # summed over mu in parameter order from 0, the roundings of a plain
        # Python sum of the three products
        g_coeff = np.add.reduce(directions.transpose(2, 0, 1)[..., None] * jacobian[:, :, None],
                                axis=0, initial=0.0)
        return h_coeff, g_coeff


# ---------------------------------------------------------------------------
# Generalized oscillator in a truncated Fock basis, parameters (X, Y, Z)
# ---------------------------------------------------------------------------


def ladder_operators(nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation/creation operators truncated to nmax Fock levels."""
    if nmax < 2:
        raise ValueError("need at least two Fock levels")
    a = np.diag(np.sqrt(np.arange(1, nmax)).astype(complex), 1)
    return a, a.conj().T


class OscillatorModel(ParametricHamiltonian):
    """Generalized oscillator H = (X q^2 + Y (pq + qp) + Z p^2) / 2.

    Bound states require Z*X - Y^2 > 0; the frequency is
    omega = sqrt(Z*X - Y^2) and the exact spectrum is omega * (n + 1/2).
    The family is realized on ``nmax`` Fock levels of the (q, p)
    reference oscillator, so only the lowest levels are faithful: results
    should be read on ``trust_levels = nmax - buffer`` levels at most, and
    :meth:`certified_levels` measures, per parameter point, how many
    levels actually meet an eigenvalue-drift tolerance.  Construction
    self-checks the canonical commutator and the drift at the reference
    point (1, 0, 1), where the truncation is exact.  H is linear in
    (X, Y, Z): its terms are the halved quadratics, its coefficients the
    parameters, and the gradient coefficients the directions.
    """

    def __init__(self, nmax: int = 60, buffer: int = 20):
        if buffer < 0 or buffer >= nmax:
            raise ValueError("buffer must satisfy 0 <= buffer < nmax")
        super().__init__(dim=nmax, n_params=3, param_names=("X", "Y", "Z"))
        self.nmax = nmax
        self.buffer = buffer
        self.trust_levels = nmax - buffer
        a, adag = ladder_operators(nmax)
        self.q = (a + adag) / np.sqrt(2.0)
        self.p = 1j * (adag - a) / np.sqrt(2.0)
        # Quadratics are truncations of the exact infinite-dimensional
        # matrices (a a^dag rewritten as a^dag a + 1 first); truncating the
        # operator products instead would plant a spurious corner eigenvalue
        # in the middle of the spectrum.
        a2 = a @ a
        adag2 = adag @ adag
        number_term = 2.0 * (adag @ a) + np.eye(nmax)
        q2 = 0.5 * (a2 + adag2 + number_term)
        p2 = 0.5 * (-a2 - adag2 + number_term)
        qp_pq = 1j * (adag2 - a2)
        # Halving is exact, so H = sum_mu lambda_mu (Q_mu / 2).
        self._declare_terms(0.5 * np.stack([q2, qp_pq, p2]))
        # The artificial top of the truncated spectrum may cluster; gaps
        # there are not meaningful and must not abort a computation whose
        # conclusions are read off the trusted subspace.
        self.check_levels = min(self.trust_levels + 1, nmax)
        self._startup_validation()

    def _startup_validation(self):
        comm = self.q @ self.p - self.p @ self.q
        block = comm[: self.nmax - 1, : self.nmax - 1]
        if np.linalg.norm(block - 1j * np.eye(self.nmax - 1), ord=np.inf) > 1e-10:
            raise AssertionError("truncated [q, p] deviates from i*I below the edge level")
        if self.certified_levels((1.0, 0.0, 1.0)) < self.trust_levels:
            raise AssertionError("eigenvalue drift at the reference point exceeds tolerance")

    def omega(self, lam) -> float:
        x, y, z = self._as_point(lam)
        disc = z * x - y * y
        if disc <= 0.0:
            raise DomainViolationError(
                f"unbound oscillator: Z*X - Y^2 = {disc:.6g} <= 0 at (X,Y,Z)={lam}"
            )
        return float(np.sqrt(disc))

    def _domain_batch(self, lams):
        x, y, z = lams.T
        return z * x - y * y > 0.0

    def _coefficients(self, lams, directions):
        return lams, directions

    # The base method, with the gap check on the lowest check_levels =
    # trust_levels + 1 levels; named on the class for the per-class
    # tracing in benchmarks/bench_trace.py.
    spectral_at = ParametricHamiltonian.spectral_at

    def certified_levels(self, lam) -> int:
        """Largest count c <= trust_levels with |E_n - omega (n+1/2)| <
        CERTIFIED_DRIFT for n < c.

        Truncation error grows with the squeezing between (q, p) and the
        normal mode at lambda, so the certified count depends on the point.
        """
        omega = self.omega(lam)
        evals = np.linalg.eigvalsh(self.eval_h(lam))
        exact = omega * (np.arange(self.nmax) + 0.5)
        return self._first_failing(np.abs(evals - exact) >= CERTIFIED_DRIFT)

    def certified_vector_levels(self, lam) -> int:
        """Levels whose eigenvectors carry less than CERTIFIED_TAIL amplitude
        in the top buffer//2 Fock rows.

        Eigenvalue drift certifies the spectrum but is quadratically
        insensitive to eigenvector pollution; matrix-element comparisons
        (connection, curvature entries) need this stricter vector-level
        certificate.
        """
        spec = self.spectral_at(lam)
        edge = max(self.buffer // 2, 1)
        tails = np.linalg.norm(spec.frame.matrix[-edge:, :], axis=0)
        return self._first_failing(tails >= CERTIFIED_TAIL)

    def _first_failing(self, failing: np.ndarray) -> int:
        """The first level flagged in ``failing`` (one flag per level), or
        trust_levels when no level below it is flagged."""
        first = np.flatnonzero(failing[:self.trust_levels])
        return int(first[0]) if first.size else self.trust_levels


# ---------------------------------------------------------------------------
# Model files: polynomial families from text
# ---------------------------------------------------------------------------


def _check_exponents(exponents, n_params: int) -> None:
    """ValueError unless a term's ``exponents`` are ``n_params`` integers
    in [0, MAX_EXPONENT]."""
    if len(exponents) != n_params:
        raise ValueError(f"term needs {n_params} exponents, got {len(exponents)}")
    if not all(map(operator_core._is_int, exponents)):
        raise ValueError("exponents must be integers")
    if any(e < 0 for e in exponents):
        raise ValueError("exponents must be non-negative")
    if any(e > MAX_EXPONENT for e in exponents):
        raise ValueError(f"exponent exceeds the cap {MAX_EXPONENT}")


def _check_matrix(matrix, dim: int) -> None:
    """ValueError unless a term's ``matrix`` is a finite (dim, dim) matrix
    that meets the Hermiticity rule
    (:func:`~adiaconn.operator_core.hermiticity_defect`).  A term with an
    entry above 1 is judged scaled to a largest entry of 1, the same rule
    with norms that cannot overflow."""
    # view(float) below needs a contiguous last axis; a transposed term has none
    matrix = np.ascontiguousarray(matrix, dtype=complex)
    if matrix.shape != (dim, dim):
        raise ValueError(f"term matrix must be {dim} x {dim}, got shape {matrix.shape}")
    largest = np.abs(matrix.view(float)).max(initial=0.0)
    if not np.isfinite(largest):
        raise ValueError("term matrix has non-finite entries")
    if hermiticity_defect(matrix / max(largest, 1.0))[1]:
        raise ValueError("term matrix is not Hermitian")


@dataclass(frozen=True)
class ModelSpec:
    """A polynomial family H(lambda) = sum_k monomial_k(lambda) M_k; every
    term is checked on construction (ValueError naming the term index)."""

    dim: int
    param_names: tuple[str, ...]
    terms: tuple[tuple[tuple[int, ...], np.ndarray], ...]

    def __post_init__(self):
        for t, (exponents, matrix) in enumerate(self.terms):
            try:
                _check_exponents(exponents, self.n_params)
                _check_matrix(matrix, self.dim)
            except ValueError as err:
                raise ValueError(f"term {t}: {err}") from None

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    def to_model(self) -> ParametricHamiltonian:
        return _PolynomialModel(self)


class _PolynomialModel(ParametricHamiltonian):
    """The family of a :class:`ModelSpec`; the monomial coefficients of a
    whole stack come from one power product of the exponent table."""

    def __init__(self, spec: ModelSpec):
        super().__init__(spec.dim, spec.n_params, param_names=spec.param_names)
        self._exponents = np.array([e for e, _ in spec.terms], dtype=int)
        self._declare_terms(np.array([m for _, m in spec.terms], dtype=complex))

    def _coefficients(self, lams, directions):
        exps = self._exponents
        powers = lams[:, None, :] ** exps  # [k, term, mu]
        coeff = np.prod(powers, axis=-1)
        if not directions.shape[1]:
            return coeff, np.zeros((len(lams), 0, len(exps)))
        # d/dlambda_mu of a term: e_mu times its powers with lambda_mu's lowered by one
        lowered = lams[:, None, :] ** np.maximum(exps - 1, 0)
        diag = np.eye(self.n_params, dtype=bool)
        d_coeff = exps * np.prod(np.where(diag, lowered[:, :, None], powers[:, :, None]), axis=-1)
        return coeff, _contract(d_coeff.swapaxes(1, 2), directions)


_COMPLEX_RE = re.compile(
    r"^(?P<real>[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)?"
    r"(?P<imag>[+-](?:[0-9]+\.?[0-9]*|\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)?"
    r"(?P<unit>i)?$"
)
# a header's keyword is a whole word: "dim=1" is a header, "dimension = 1" is not
_HEADER_RE = re.compile(r"(dim|params|term)(?=[\s=]|$)")
# the dim value and the exponents; int() alone also reads "1_0" and other scripts' digits
_INT_RE = re.compile(r"[+-]?[0-9]+")


def _parse_complex(token: str, line: int) -> complex:
    # the gate keeps Python's own syntax out: nan, inf, 1_0, (1+2j), 1j, 0x1,
    # and the digits of other scripts, which complex() also reads
    if not _COMPLEX_RE.match(token):
        raise ModelFileError(line, f"cannot parse complex entry {token!r}")
    try:
        value = complex(token.replace("i", "j"))
    except ValueError:  # a dangling sign: "+", "1+", "1-2"
        raise ModelFileError(line, f"cannot parse complex entry {token!r}") from None
    # complex() reads an overflowing literal such as 1e999 as inf
    if not cmath.isfinite(value):
        raise ModelFileError(line, f"non-finite complex entry {token!r}")
    return value


def _format_complex(z: complex) -> str:
    re_part, im_part = float(z.real), float(z.imag)
    if im_part == 0.0:
        return repr(re_part)
    if re_part == 0.0:
        return f"{im_part!r}i"
    sign = "+" if im_part >= 0 else "-"
    return f"{re_part!r}{sign}{abs(im_part)!r}i"


def parse_model_file(text: str) -> ModelSpec:
    """Parse the model-file grammar into a validated :class:`ModelSpec`.

    Format: header lines ``dim = <int>`` and ``params = <name> ...``, then
    repeated blocks ``term <e1> ... <eN>`` (non-negative monomial
    exponents) followed by dim rows of dim whitespace-separated complex
    entries written like ``1.5``, ``2i`` or ``0.5-0.25i``.  Lines starting
    with ``#`` are comments.  Every term matrix must be Hermitian.
    """
    lines = text.splitlines()
    numbered = ((n, s) for n, s in enumerate(map(str.strip, lines), 1)
                if s and not s.startswith("#"))
    dim: int | None = None
    names: tuple[str, ...] | None = None
    terms: list[tuple[tuple[int, ...], np.ndarray]] = []
    for lineno, line in numbered:
        header = _HEADER_RE.match(line)
        keyword = header[1] if header else None
        parts = line.split("=")
        if keyword == "dim":
            if dim is not None:
                raise ModelFileError(lineno, "duplicate dim header")
            if len(parts) != 2:
                raise ModelFileError(lineno, "expected 'dim = <int>'")
            if not _INT_RE.fullmatch(parts[1].strip()):
                raise ModelFileError(lineno, f"bad dim value {parts[1].strip()!r}")
            dim = int(parts[1])
            if dim < 1:
                raise ModelFileError(lineno, "dim must be positive")
        elif keyword == "params":
            if names is not None:
                raise ModelFileError(lineno, "duplicate params header")
            if len(parts) != 2 or not parts[1].split():
                raise ModelFileError(lineno, "expected 'params = <name1> <name2> ...'")
            names = tuple(parts[1].split())
        elif keyword == "term":
            if dim is None or names is None:
                raise ModelFileError(lineno, "term block before dim/params headers")
            # a token that is not an ASCII integer stays a string, which the check refuses
            exponents = tuple(int(t) if _INT_RE.fullmatch(t) else t for t in line.split()[1:])
            try:
                _check_exponents(exponents, len(names))
            except ValueError as err:
                raise ModelFileError(lineno, str(err)) from None
            rows = []
            for _ in range(dim):  # each row is checked and parsed before the next is read
                row_no, row = next(numbered, (len(lines), None))
                if row is None or _HEADER_RE.match(row):
                    raise ModelFileError(row_no, f"term matrix truncated: need {dim} rows")
                entries = row.split()
                if len(entries) != dim:
                    raise ModelFileError(row_no, f"row needs {dim} entries, got {len(entries)}")
                rows.append([_parse_complex(tok, row_no) for tok in entries])
            matrix = np.array(rows, dtype=complex)
            try:  # a file's entries also stay below the kernels' magnitude bound
                operator_core._check_magnitude(np.abs(matrix.view(float)).max(), dim, "term matrix")
                _check_matrix(matrix, dim)
            except ValueError as err:
                raise ModelFileError(lineno, str(err)) from None
            matrix.setflags(write=False)
            terms.append((exponents, matrix))
        else:
            raise ModelFileError(lineno, f"unrecognized line {line!r}")

    if dim is None:
        raise ModelFileError(1, "missing 'dim = <int>' header")
    if names is None:
        raise ModelFileError(1, "missing 'params = ...' header")
    if not terms:
        raise ModelFileError(len(lines) or 1, "model defines no terms")
    return ModelSpec(dim=dim, param_names=names, terms=tuple(terms))


def serialize_model_spec(spec: ModelSpec) -> str:
    """Write a ModelSpec back to text; parse(serialize(s)) reproduces s."""
    out = [f"dim = {spec.dim}", "params = " + " ".join(spec.param_names), ""]
    for exponents, matrix in spec.terms:
        out.append("term " + " ".join(str(e) for e in exponents))
        for row in matrix:
            out.append(" ".join(_format_complex(z) for z in row))
        out.append("")
    return "\n".join(out)
