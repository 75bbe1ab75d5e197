"""Parametric Hamiltonian families H(lambda).

Provides the model abstraction, the two built-in families -- a spin in a
magnetic field over spherical parameters (B, theta, phi) and a
generalized oscillator over quadratic-form coefficients (X, Y, Z) in a
truncated Fock basis -- and a text model-file format for user-defined
polynomial families H(lambda) = sum_k c_k(lambda) M_k with monomial
coefficients.  A model evaluates H, its parameter gradients and its
domain on a stack of points through two batch hooks; every per-point
call is a one-point batch.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .operator_core import (
    HERMITICITY_TOL,
    PhaseConvention,
    DEFAULT_PHASE_CONVENTION,
    SpectralDecomposition,
    as_matrix,
    spectral_decompose,
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


class DomainViolationError(Exception):
    """The parameter point lies outside the model's validity domain."""


class ModelFileError(Exception):
    """Model file failed to parse; carries the offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class ParametricHamiltonian:
    """A smooth family of Hermitian matrices over N real parameters.

    Every evaluation runs through :meth:`eval_batch` and its two hooks,
    ``_domain_batch(lams)`` (a boolean per point) and
    ``_evaluate_batch(lams, directions)`` (H and the direction-contracted
    gradients, all Hermitian).  :meth:`domain_check`, :meth:`eval_h` and
    :meth:`grad_h` are one-point calls of it, so a subclass overrides the
    two hooks and nothing else.  The default hooks accept every point and
    call the functional constructor's ``eval_fn`` point by point; its
    gradients are central finite differences with a per-direction step
    1e-5 * (1 + |lambda_mu|).
    """

    # Degeneracy checks cover the gaps among the lowest ``check_levels``
    # levels (all when None), in spectral_at and in the path kernel alike.
    check_levels: int | None = None

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

    def grad_h(self, lam, scheme: str = "auto", step: float | None = None) -> list[np.ndarray]:
        """Parameter gradients dH/dlambda_mu as Hermitian matrices.

        scheme: "auto" takes the model's gradients, "analytic" refuses a
        functional model (its gradients are finite differences), "central"
        forces finite differences (optionally with an explicit ``step``).
        """
        lam = self._as_point(lam)
        if scheme not in ("auto", "analytic", "central"):
            raise ValueError(f"unknown gradient scheme {scheme!r}")
        if scheme == "central":
            return self._central_difference(lam, step)
        if scheme == "analytic" and self._eval_fn is not None:
            raise ValueError("model provides no analytic gradient")
        return list(self.eval_batch(lam[None], np.eye(self.n_params)[None])[1][0])

    def _central_difference(self, lam: np.ndarray, step: float | None) -> list[np.ndarray]:
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
            grads.append(_hermitian((self.eval_h(plus) - self.eval_h(minus)) / (2.0 * h_mu)))
        return grads

    def spectral_at(
        self,
        lam,
        gap_tol: float | None = None,
        convention: PhaseConvention = DEFAULT_PHASE_CONVENTION,
    ) -> SpectralDecomposition:
        """Eigen-decomposition of H(lambda) with degeneracy detection on
        the lowest ``check_levels`` levels."""
        return spectral_decompose(self.eval_h(lam), gap_tol=gap_tol, convention=convention,
                                  check_levels=self.check_levels)

    # -- batches ----------------------------------------------------------

    def eval_batch(self, lams, directions=None) -> tuple[np.ndarray, np.ndarray]:
        """H and direction-contracted gradients at a stack of points.

        ``lams`` is (K, N) and ``directions`` is (K, M, N) (None: M = 0).
        Returns H as a (K, d, d) array and G as a (K, M, d, d) array with
        G[k, m] = sum_mu directions[k, m, mu] dH/dlambda_mu at lams[k],
        all Hermitian.  Raises DomainViolationError for the first point
        outside the domain.
        """
        lams = np.asarray(lams, dtype=float)
        if lams.ndim != 2 or lams.shape[1] != self.n_params:
            raise ValueError(
                f"expected (K, {self.n_params}) parameter points {self.param_names}, "
                f"got shape {lams.shape}"
            )
        if directions is None:
            directions = np.zeros((len(lams), 0, self.n_params))
        directions = np.asarray(directions, dtype=float)
        if not np.all(np.isfinite(lams)):
            raise ValueError("parameter point has non-finite entries")
        outside = np.flatnonzero(~self._domain_batch(lams))
        if outside.size:
            raise DomainViolationError(
                f"{type(self).__name__}: point {lams[outside[0]].tolist()} outside model domain"
            )
        return self._evaluate_batch(lams, directions)

    def _domain_batch(self, lams: np.ndarray) -> np.ndarray:
        return np.ones(len(lams), dtype=bool)

    def _evaluate_batch(self, lams: np.ndarray, directions: np.ndarray):
        if self._eval_fn is None:
            raise NotImplementedError
        h = _hermitian(np.array([self._eval_fn(lam) for lam in lams], dtype=complex))
        grads = (np.array([self._central_difference(lam, None) for lam in lams])
                 if directions.shape[1] else np.empty((len(lams), 0, self.dim, self.dim)))
        return h, _contract(grads, directions)


def _hermitian(m) -> np.ndarray:
    """Hermitian part of a matrix or of a stack of matrices."""
    m = np.asarray(m, dtype=complex)
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def _contract(grads: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """G[k, m] = sum_mu directions[k, m, mu] grads[k, mu], accumulated in
    parameter order and skipping zero direction entries."""
    k, n_dirs, n_params = directions.shape
    g = np.zeros((k, n_dirs, *grads.shape[2:]), dtype=complex)
    for mu in range(n_params):
        for m in range(n_dirs):
            d = directions[:, m, mu, None, None]
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


def spherical_axes(theta, phi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal radial/polar/azimuthal unit vectors at (theta, phi).

    Arrays of angles give (3, ...) arrays of components.
    """
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    n_hat = np.array([st * cp, st * sp, ct])
    theta_hat = np.array([ct * cp, ct * sp, -st])
    phi_hat = np.array([-sp, cp, np.zeros_like(sp)])
    return n_hat, theta_hat, phi_hat


class Su2Model(ParametricHamiltonian):
    """Spin-l magnetic interaction H = B * mu * (J . n_hat(theta, phi)).

    Parameters are (B, theta, phi) in that order.  The spectrum is
    m * B * mu for m = -l..l, so it is non-degenerate whenever B > 0.
    theta may touch the coordinate poles 0 and pi; curvature maps should
    stay in the open interval since the phi chart degenerates there.
    H and its gradients are coefficient rows in the spherical axes
    (n_hat, theta_hat, phi_hat) times the stack ``j`` = (Jx, Jy, Jz).
    """

    def __init__(self, l: float, mu: float = 1.0):
        self.j = np.stack(angular_momentum(l))
        super().__init__(dim=self.j.shape[1], n_params=3, param_names=("B", "theta", "phi"))
        self.l = l
        self.mu = float(mu)

    def j_dot(self, direction: np.ndarray) -> np.ndarray:
        jx, jy, jz = self.j
        return direction[0] * jx + direction[1] * jy + direction[2] * jz

    def _domain_batch(self, lams):
        b, theta = lams[:, 0], lams[:, 1]
        return (b > 0.0) & (theta >= -1e-12) & (theta <= np.pi + 1e-12)

    def _evaluate_batch(self, lams, directions):
        b, theta, phi = lams.T
        scale = b * self.mu
        n_hat, theta_hat, phi_hat = spherical_axes(theta, phi)
        # (Jx, Jy, Jz) coefficients of dH/dB, dH/dtheta, dH/dphi, point-major
        jacobian = (self.mu * n_hat.T, (scale * theta_hat).T,
                    (scale * np.sin(theta) * phi_hat).T)
        g_coeff = sum(directions[:, :, mu, None] * jacobian[mu][:, None] for mu in range(3))
        j = self.j.reshape(3, -1)
        h, g = (scale * n_hat).T @ j, g_coeff @ j
        return h.reshape(-1, self.dim, self.dim), g.reshape(*g.shape[:2], self.dim, self.dim)


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
    (X, Y, Z): one product of the parameters with the stacked halved
    quadratics, and the gradients are the quadratics themselves.
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
        # Halving is exact, so H = sum_mu lambda_mu (Q_mu / 2) is one matrix
        # product for a whole stack of points.
        self._half_quadratics = 0.5 * np.stack([q2, qp_pq, p2])
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

    def _evaluate_batch(self, lams, directions):
        return (np.tensordot(lams, self._half_quadratics, axes=1),
                np.tensordot(directions, self._half_quadratics, axes=1))

    # The base method, with the gap check on the lowest check_levels =
    # trust_levels + 1 levels; named on the class for the per-class
    # tracing in benchmarks/bench_trace.py.
    spectral_at = ParametricHamiltonian.spectral_at

    def certified_levels(self, lam, tol: float = 1e-8) -> int:
        """Largest count c <= trust_levels with |E_n - omega (n+1/2)| < tol for n < c.

        Truncation error grows with the squeezing between (q, p) and the
        normal mode at lambda, so the certified count depends on the point.
        """
        omega = self.omega(lam)
        evals = np.linalg.eigvalsh(self.eval_h(lam))
        exact = omega * (np.arange(self.nmax) + 0.5)
        drift = np.abs(evals - exact)
        bad = np.nonzero(drift >= tol)[0]
        first_bad = int(bad[0]) if bad.size else self.nmax
        return min(first_bad, self.trust_levels)

    def certified_vector_levels(self, lam, tail_tol: float = 1e-7) -> int:
        """Levels whose eigenvectors carry less than ``tail_tol`` amplitude
        in the top buffer//2 Fock rows.

        Eigenvalue drift certifies the spectrum but is quadratically
        insensitive to eigenvector pollution; matrix-element comparisons
        (connection, curvature entries) need this stricter vector-level
        certificate.
        """
        spec = self.spectral_at(lam)
        edge = max(self.buffer // 2, 1)
        tails = np.linalg.norm(spec.frame.matrix[-edge:, :], axis=0)
        bad = np.nonzero(tails >= tail_tol)[0]
        first_bad = int(bad[0]) if bad.size else self.nmax
        return min(first_bad, self.trust_levels)


# ---------------------------------------------------------------------------
# Model files: polynomial families from text
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """A validated polynomial family H(lambda) = sum_k monomial_k(lambda) M_k."""

    dim: int
    param_names: tuple[str, ...]
    terms: tuple[tuple[tuple[int, ...], np.ndarray], ...]

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
        self._matrices = np.array([m for _, m in spec.terms], dtype=complex)

    def _evaluate_batch(self, lams, directions):
        exps = self._exponents
        powers = lams[:, None, :] ** exps  # [k, term, mu]
        coeff = np.prod(powers, axis=-1)
        h = np.zeros((len(lams), self.dim, self.dim), dtype=complex)
        for t, matrix in enumerate(self._matrices):
            h += coeff[:, t, None, None] * matrix
        if not directions.shape[1]:
            return _hermitian(h), np.zeros((len(lams), 0, self.dim, self.dim), dtype=complex)
        # d/dlambda_mu of a term: e_mu times its powers with lambda_mu's lowered by one
        lowered = lams[:, None, :] ** np.maximum(exps - 1, 0)
        diag = np.eye(self.n_params, dtype=bool)
        d_coeff = exps * np.prod(np.where(diag, lowered[:, :, None], powers[:, :, None]), axis=-1)
        grads = np.zeros((len(lams), self.n_params, self.dim, self.dim), dtype=complex)
        for t, matrix in enumerate(self._matrices):
            for mu in np.flatnonzero(exps[t]):
                grads[:, mu] += d_coeff[:, t, mu, None, None] * matrix
        return _hermitian(h), _contract(_hermitian(grads), directions)


_COMPLEX_RE = re.compile(
    r"^(?P<real>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?"
    r"(?P<imag>[+-](?:\d+\.?\d*|\.\d+)?(?:[eE][+-]?\d+)?)?"
    r"(?P<unit>i)?$"
)


def _parse_complex(token: str, line: int) -> complex:
    m = _COMPLEX_RE.match(token)
    if not m:
        raise ModelFileError(line, f"cannot parse complex entry {token!r}")
    real_s, imag_s, unit = m.group("real"), m.group("imag"), m.group("unit")
    try:
        if unit is None:
            # purely real; a dangling sign group means garbage like "1+"
            if real_s is None or imag_s is not None:
                raise ValueError
            return complex(float(real_s), 0.0)
        if imag_s is None:
            # "i", "2i", "-1.5i": any sign/digits were captured as real_s
            return complex(0.0, 1.0 if real_s is None else float(real_s))
        if real_s is None:
            # "+i" / "-i"
            if imag_s not in ("+", "-"):
                raise ValueError
            return complex(0.0, float(imag_s + "1"))
        imag = float(imag_s + "1") if imag_s in ("+", "-") else float(imag_s)
        return complex(float(real_s), imag)
    except ValueError:
        raise ModelFileError(line, f"cannot parse complex entry {token!r}") from None


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
    dim: int | None = None
    names: tuple[str, ...] | None = None
    terms: list[tuple[tuple[int, ...], np.ndarray]] = []

    def content(idx):
        stripped = lines[idx].strip()
        return None if not stripped or stripped.startswith("#") else stripped

    i = 0
    n = len(lines)
    while i < n:
        line = content(i)
        if line is None:
            i += 1
            continue
        lineno = i + 1
        if line.startswith("dim"):
            parts = line.split("=")
            if dim is not None:
                raise ModelFileError(lineno, "duplicate dim header")
            if len(parts) != 2:
                raise ModelFileError(lineno, "expected 'dim = <int>'")
            try:
                dim = int(parts[1].strip())
            except ValueError:
                raise ModelFileError(lineno, f"bad dim value {parts[1].strip()!r}") from None
            if dim < 1:
                raise ModelFileError(lineno, "dim must be positive")
            i += 1
        elif line.startswith("params"):
            parts = line.split("=")
            if names is not None:
                raise ModelFileError(lineno, "duplicate params header")
            if len(parts) != 2 or not parts[1].split():
                raise ModelFileError(lineno, "expected 'params = <name1> <name2> ...'")
            names = tuple(parts[1].split())
            i += 1
        elif line.startswith("term"):
            if dim is None or names is None:
                raise ModelFileError(lineno, "term block before dim/params headers")
            tokens = line.split()[1:]
            if len(tokens) != len(names):
                raise ModelFileError(
                    lineno, f"term needs {len(names)} exponents, got {len(tokens)}"
                )
            try:
                exponents = tuple(int(t) for t in tokens)
            except ValueError:
                raise ModelFileError(lineno, "exponents must be integers") from None
            if any(e < 0 for e in exponents):
                raise ModelFileError(lineno, "exponents must be non-negative")
            if any(e > MAX_EXPONENT for e in exponents):
                raise ModelFileError(lineno, f"exponent exceeds the cap {MAX_EXPONENT}")
            i += 1
            rows = []
            while len(rows) < dim:
                while i < n and content(i) is None:
                    i += 1
                if i >= n:
                    raise ModelFileError(n, f"term matrix truncated: need {dim} rows")
                row_line = content(i)
                if row_line.startswith(("term", "dim", "params")):
                    raise ModelFileError(i + 1, f"term matrix truncated: need {dim} rows")
                entries = row_line.split()
                if len(entries) != dim:
                    raise ModelFileError(i + 1, f"row needs {dim} entries, got {len(entries)}")
                rows.append([_parse_complex(tok, i + 1) for tok in entries])
                i += 1
            matrix = np.array(rows, dtype=complex)
            scale = max(np.linalg.norm(matrix), 1.0)
            if np.linalg.norm(matrix - matrix.conj().T) > HERMITICITY_TOL * scale:
                raise ModelFileError(lineno, "term matrix is not Hermitian")
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
