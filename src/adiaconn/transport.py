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
stacked decomposition handles them, and the connection is contracted in
the eigenbasis and exponentiated as a stack.  The ordered product is a
pairwise reduction: adjacent factors of the same segment are multiplied
as one stacked product per level, ceil(log2 k) levels for k steps, and
each chunk's first piece is multiplied onto the product carried over from
the chunk before.  Chunks hold at most 256 matrices and about 4 MB per
stacked array.  The Wilson loop shares the chunked evaluation and
decomposition (:func:`~adiaconn.operator_core.block_eigh`).

The kernel splits by blocks of the joint nonzero pattern of H and the
step-contracted gradient (:func:`~adiaconn.operator_core.split_blocks`).
It has to be the joint pattern: where H alone splits further than the
step (H diagonal at a pole while the step couples the levels), the
connection couples levels that H does not.  Over the joint blocks the
connection, the step generator and its exponential are all block
diagonal, so each block is decomposed, contracted, checked, exponentiated
and reduced on its own; only the per-segment pieces are written to dense
matrices, with exact zeros between blocks.  The oscillator's two
Fock-parity sectors run as two 30x30 kernels, each decomposed as a real
tree block (see :mod:`adiaconn.operator_core`).  A connected joint
pattern takes the dense path unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .operator_core import (
    SpectralDecomposition,
    UnitaryOperator,
    block_eigh,
    eigh_block,
    expm_hermitian_stack,
    frobenius,
    spectral_gaps,
    split_blocks,
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
CHUNK_MATRICES = 256
CHUNK_BYTES = 4 << 20


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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

    def steps(self):
        """Iterate (midpoint, delta) over every refined step, in path order."""
        return zip(*self.step_arrays())

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

    ``phases[n]`` is the argument of the n-th diagonal entry of the loop
    operator in the eigenbasis at the base point, in (-pi, pi];
    ``offdiag_residual`` is the largest off-diagonal magnitude there.  A
    residual above 1e-3 marks the phase readout unreliable.
    """

    operator: UnitaryOperator
    eigenbasis_operator: np.ndarray
    phases: np.ndarray
    offdiag_residual: float

    @property
    def reliable(self) -> bool:
        return self.offdiag_residual <= UNRELIABLE_OFFDIAG


def _chunk_size(dim: int) -> int:
    """Steps per chunk: at most CHUNK_MATRICES matrices and about
    CHUNK_BYTES per stacked complex (K, dim, dim) array."""
    return max(1, min(CHUNK_MATRICES, CHUNK_BYTES // (16 * dim * dim)))


def _hamiltonians(model: ParametricHamiltonian, lams, directions=None):
    """H at ``lams`` and the gradients contracted with ``directions`` (see
    :meth:`ParametricHamiltonian.eval_batch`); ValueError when H has a
    non-finite entry, which no decomposition downstream would report."""
    h, g = model.eval_batch(lams, directions)
    if not np.all(np.isfinite(h.view(float))):
        raise ValueError("Hamiltonian has non-finite entries")
    return h, g


def _step_factors(model: ParametricHamiltonian, mids, deltas, gap_tol, weight):
    """exp(i W(mid_k) . delta_k) for every step, yielded one chunk at a time.

    W is the connection for the default weight; the gradient is contracted
    with the step before the change of basis, so each step costs one
    decomposition of H and one of the generator, whatever the number of
    parameters.  When the joint nonzero pattern of H and the contracted
    gradient splits into blocks, W and its exponential are block diagonal
    over them, so every block is decomposed, contracted and exponentiated
    on its own.  Each chunk is a list of (index, factors) pairs: the basis
    indices of a block (all of them when the chunk does not split) and its
    (k, b, b) factor stack; the factors are exactly zero outside the blocks.
    """
    size = _chunk_size(model.dim)
    for start in range(0, len(mids), size):
        mid = mids[start:start + size]
        h, g = _hamiltonians(model, mid, deltas[start:start + size, None])
        g = g[:, 0]
        blocks = split_blocks(h, g)
        if blocks is None:
            index, systems = [np.arange(model.dim)], [(*block_eigh(h), g)]
        else:
            index = [b.index for b in blocks]
            systems = [(*eigh_block(h, b), g[:, b.index[:, None], b.index]) for b in blocks]
        evals = np.sort(np.concatenate([e for e, _, _ in systems], axis=-1), axis=-1)
        min_gap = spectral_gaps(evals, gap_tol, model.check_levels)
        if model.dim > 1 and np.any(min_gap <= 0.0):
            raise ValueError("the connection requires a non-degenerate spectrum")
        gens = [contract_stack(e, v, gb, weight) for e, v, gb in systems]
        finite = np.all([np.isfinite(w.view(float)).reshape(len(w), -1).all(axis=1)
                         for w in gens], axis=0)
        if not finite.all():
            raise ValueError(f"non-finite connection at {mid[np.argmin(finite)].tolist()}")
        yield [(i, expm_hermitian_stack(w)) for i, w in zip(index, gens)]


def _run_products(factors: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Ordered product of every run of consecutive factors of a (K, b, b)
    stack, the later factor on the left; ``lengths`` (each at least 1)
    add up to K.  Returns one matrix per run; ``factors`` is overwritten.

    The runs are reduced by levels: at each level the factors 2m and
    2m + 1 of every run are multiplied as one stacked product, so a run
    of L factors takes ceil(log2 L) levels.
    """
    lengths = np.asarray(lengths)
    while len(factors) > len(lengths):
        pairs, odd = np.divmod(lengths, 2)
        # the first factor of every pair: each run with an odd length
        # leaves one factor over, which shifts the pairs after it
        left = 2 * np.arange(pairs.sum()) + np.repeat(np.cumsum(odd) - odd, pairs)
        factors[left] = factors[left + 1] @ factors[left]
        keep = np.ones(len(factors), dtype=bool)
        keep[left + 1] = False
        factors, lengths = factors[keep], pairs + odd
    return factors


def ordered_products(
    model: ParametricHamiltonian,
    mids,
    deltas,
    lengths,
    gap_tol: float | None = None,
    weight=connection_weight,
) -> np.ndarray:
    """Path-ordered exponentials over consecutive runs of midpoint steps.

    The K steps (``mids`` and ``deltas``, both (K, N)) split into
    consecutive segments of the given ``lengths``; segment s gives
    prod_k exp(i sum_mu W_mu(mid_k) delta_k,mu) with its first step acting
    first, and a segment of length 0 gives the identity.  ``weight`` is
    the eigenbasis weight handed to :func:`contract_stack`; the default
    makes W the connection.  Returns an (S, d, d) array.

    Within a chunk of steps, the steps of each segment are multiplied by
    :func:`_run_products`, one block at a time when the chunk splits; a
    segment that began in an earlier chunk takes the chunk's piece on the
    left of its product so far.
    """
    mids, deltas = np.asarray(mids, dtype=float), np.asarray(deltas, dtype=float)
    given = np.asarray(lengths).reshape(-1)
    lengths = given.astype(int)
    if (deltas.shape != mids.shape or np.any(lengths != given) or np.any(lengths < 0)
            or lengths.sum() != len(mids)):
        raise ValueError("need one delta per midpoint and segment lengths: non-negative "
                         "integers adding up to the steps")
    out = np.empty((len(lengths), model.dim, model.dim), dtype=complex)
    out[lengths == 0] = np.eye(model.dim)
    segment = np.repeat(np.arange(len(lengths)), lengths)
    begun = np.cumsum(lengths) - lengths  # first step of every segment
    start = 0
    for chunk in _step_factors(model, mids, deltas, gap_tol, weight):
        stop = start + len(chunk[0][1])
        runs, counts = np.unique(segment[start:stop], return_counts=True)
        pieces = np.zeros((len(runs), model.dim, model.dim), dtype=complex)
        for index, factors in chunk:
            pieces[:, index[:, None], index] = _run_products(factors, counts)
        if begun[runs[0]] < start:
            pieces[0] = pieces[0] @ out[runs[0]]
        out[runs] = pieces
        start = stop
    return out


def transport_operator(
    model: ParametricHamiltonian, path: PathSpec, gap_tol: float | None = None
) -> TransportResult:
    """Path-ordered exponential of the connection along ``path``.

    U = prod_k exp(i sum_mu A_mu(midpoint_k) delta_k,mu), ordered so the
    first step acts first.  The transported frame is U applied to the
    phase-fixed eigenframe at the start point.
    """
    if path.n_params != model.n_params:
        raise ValueError("path dimensionality does not match the model")
    start_spec = model.spectral_at(path.start, gap_tol=gap_tol)
    mids, deltas = path.step_arrays()
    u = ordered_products(model, mids, deltas, [len(mids)], gap_tol)[0]
    h_start = model.eval_h(path.start)
    h_end = model.eval_h(path.end)
    residual = frobenius(h_end - u @ h_start @ u.conj().T) / max(frobenius(h_start), 1e-300)
    return TransportResult(
        operator=UnitaryOperator(u, tol=1e-8),
        transported_frame=UnitaryOperator(u @ start_spec.frame.matrix, tol=1e-8),
        conjugation_residual=float(residual),
        start_spec=start_spec,
    )


def holonomy(
    model: ParametricHamiltonian, loop: PathSpec, gap_tol: float | None = None
) -> HolonomyResult:
    """Loop holonomy with per-level phase extraction.

    For a non-degenerate family the loop operator is diagonal in the
    eigenbasis of the base point (up to discretization error), with the
    Berry phase of each level on the diagonal.
    """
    if not loop.closed:
        raise ValueError("holonomy requires a closed loop")
    result = transport_operator(model, loop, gap_tol=gap_tol)
    v0 = result.start_spec.frame.matrix
    w = v0.conj().T @ result.operator.matrix @ v0
    off = w - np.diag(np.diag(w))
    offdiag_residual = float(np.max(np.abs(off))) if w.shape[0] > 1 else 0.0
    phases = wrap_phase(np.angle(np.diag(w)))
    return HolonomyResult(
        operator=result.operator,
        eigenbasis_operator=w,
        phases=phases,
        offdiag_residual=offdiag_residual,
    )


def wilson_loop_phases(
    model: ParametricHamiltonian,
    loop: PathSpec,
    gap_tol: float | None = None,
    min_overlap: float = 0.1,
) -> np.ndarray:
    """Discrete Wilson-loop Berry phases, one per level.

    phi_n = -arg prod_k <n(lambda_k)|n(lambda_{k+1})>, with the final
    overlap closing onto the very same eigenvector objects used at the
    start, so the product is exactly independent of the eigenvector phase
    convention.  Consecutive overlaps below ``min_overlap`` in magnitude
    abort with a refinement hint instead of returning garbage.  The guard
    covers the lowest ``model.check_levels`` levels (all when None), the
    ones the degeneracy check covers; higher levels may cluster and mix,
    so their phases are returned unguarded and are not to be trusted.
    """
    if not loop.closed:
        raise ValueError("wilson_loop_phases requires a closed loop")
    nodes = loop.refined_points()
    if len(nodes) > 1:
        nodes = nodes[:-1]  # closing node coincides with the first
    def overlap_product(f_now, f_next, first_node):
        # overlaps[k] pairs node first_node + k with its successor
        overlaps = np.einsum("kin,kin->kn", f_now.conj(), f_next)
        small = np.abs(overlaps[:, :model.check_levels]) < min_overlap
        if np.any(small):
            k, level = (int(i[0]) for i in np.nonzero(small))
            raise ValueError(
                f"consecutive eigenvectors nearly orthogonal at node {first_node + k} "
                f"(level {level}, |overlap| = {np.abs(overlaps[k, level]):.3f}); "
                "refine the loop"
            )
        return np.prod(overlaps, axis=0)

    product = np.ones(model.dim, dtype=complex)
    size = _chunk_size(model.dim)
    for start in range(0, len(nodes), size):
        evals, frames = block_eigh(_hamiltonians(model, nodes[start:start + size])[0])
        spectral_gaps(evals, gap_tol, model.check_levels)
        if start == 0:
            first = frames[:1]
        else:
            frames = np.concatenate([last, frames])
        product *= overlap_product(frames[:-1], frames[1:], max(start - 1, 0))
        last = frames[-1:]
    product *= overlap_product(last, first, len(nodes) - 1)
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
    norm_drift_tol: float = 1e-8,
    gap_tol: float | None = None,
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
    ``norm_drift_tol`` per unit time, which signals that ``dt`` is too
    large for the spectral scale of the generator, and ValueError when
    the state stops being finite (a non-finite H at a Runge-Kutta stage).
    """
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    _check_level(n0, model.dim)

    memo = {}

    def spectral(lam) -> SpectralDecomposition:
        # The last RK4 stage of one step and the record after it, and
        # usually the first stage of the next step, share lambda bit for bit.
        key = np.asarray(lam, dtype=float).tobytes()
        if key not in memo:
            memo.clear()
            memo[key] = model.spectral_at(lam, gap_tol=gap_tol)
        return memo[key]

    def generator(t: float) -> np.ndarray:
        lam = np.asarray(schedule.position(t), dtype=float)
        if not include_cd:
            return model.eval_h(lam)
        vel = np.asarray(schedule.velocity(t), dtype=float)
        h, g_vel = model.eval_batch(lam[None], vel[None, None])
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
        if not drifts[k + 1] <= norm_drift_tol * max(t + dt, 1.0):
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
