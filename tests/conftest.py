import numpy as np
import pytest

from adiaconn import (
    OscillatorModel,
    ParametricHamiltonian,
    Su2Model,
    connection_spectral,
    operator_core,
)
from adiaconn.models import ModelSpec
from adiaconn.operator_core import Block, as_matrix, expm_hermitian


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(scope="session")
def su2_half():
    return Su2Model(0.5)


@pytest.fixture(scope="session")
def su2_one():
    return Su2Model(1.0)


@pytest.fixture(scope="session")
def oscillator():
    return OscillatorModel(60, 20)


def random_hermitian(rng, dim, scale=1.0):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (m + m.conj().T)


def random_polynomial_model(rng, dim=3, spread=1.5):
    """Random smooth 2-parameter family with a well-separated spectrum
    near the origin: H = H0 + l1*M1 + l2*M2 + l1*l2*M3."""
    h0 = np.diag(np.arange(dim) * spread).astype(complex)
    h0 += random_hermitian(rng, dim, scale=0.08)
    terms = (
        ((0, 0), h0),
        ((1, 0), random_hermitian(rng, dim, scale=0.25)),
        ((0, 1), random_hermitian(rng, dim, scale=0.25)),
        ((1, 1), random_hermitian(rng, dim, scale=0.1)),
    )
    return ModelSpec(dim=dim, param_names=("l1", "l2"), terms=terms).to_model()


def isospectral_model(rng, dim=3):
    """Family with parameter-independent eigenvalues:
    H(l) = V(l) E0 V(l)^dag with V = exp(i(l1 G1 + l2 G2))."""
    e0 = np.diag(np.arange(dim, dtype=float) * 1.3)
    g1 = random_hermitian(rng, dim, scale=0.6)
    g2 = random_hermitian(rng, dim, scale=0.6)

    def eval_fn(lam):
        v = expm_hermitian(lam[0] * g1 + lam[1] * g2, 1.0).matrix
        return v @ e0 @ v.conj().T

    return ParametricHamiltonian(dim, 2, eval_fn=eval_fn, param_names=("l1", "l2"))


def spectral_connection(model, lam):
    """The spectral connection of a model at a point, and the
    decomposition it was built from."""
    spec = model.spectral_at(lam)
    return connection_spectral(spec, model.grad_h(lam)), spec


def record_eigh_calls(monkeypatch):
    """Shape and dtype of every ``numpy.linalg.eigh`` input, in call order."""
    calls = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        calls.append((np.shape(a), np.asarray(a).dtype))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return calls


def one_block(monkeypatch, *models):
    """Switch the block split off, for the dense route that the split is
    checked against: each term-family model's kernel layout becomes one
    block over every level, without a tree, and so does every split of a
    dense stack.  Returns a check that kernel batches of the models'
    classes have run since, and each handed over that one block."""
    seen = []
    monkeypatch.setattr(operator_core, "split_blocks",
                        lambda *stacks: (Block(np.arange(stacks[0].shape[-1]), None),))
    for model in models:
        monkeypatch.setattr(model, "_layout", model._pack((Block(np.arange(model.dim), None),)))
    for family in {type(model) for model in models}:
        kernel = family._kernel_batch

        def recording(self, lams, directions=None, kernel=kernel):
            out = kernel(self, lams, directions)
            seen.append(out[0])
            return out

        monkeypatch.setattr(family, "_kernel_batch", recording)
    return lambda: bool(seen) and all(len(b) == 1 and b[0].parent is None for b in seen)


def expm_hermitian_derivative(h, dh, s=1.0):
    """Directional derivative of H -> exp(i s H) along the Hermitian dH:
    the reference that the kernels' derivatives are compared against.

    Exact first-order variation via the eigenbasis divided-difference
    kernel: between eigenvectors m, n of H,

        <m| d exp(isH) |n> = <m|dH|n> * (e^{isE_m} - e^{isE_n})/(E_m - E_n)

    evaluated as i s e^{is(E_m + E_n)/2} sinc(s (E_m - E_n)/2), which has
    no cancellation for close eigenvalues and takes the confluent limit
    i s e^{isE_n} wherever E_m = E_n (the diagonal and any repeated
    eigenvalue).  The denominator never carries an extra i, which is
    fixed by the small-s limit d exp(isH) -> i s dH.
    """
    evals, vecs = np.linalg.eigh(as_matrix(h))
    g = vecs.conj().T @ as_matrix(dh) @ vecs
    mean = 0.5 * (evals[:, None] + evals[None, :])
    delta = evals[:, None] - evals[None, :]
    kernel = 1j * s * np.exp(1j * s * mean) * np.sinc(s * delta / (2 * np.pi))
    return vecs @ (g * kernel) @ vecs.conj().T
