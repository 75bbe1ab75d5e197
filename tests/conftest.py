import numpy as np
import pytest

from adiaconn import OscillatorModel, ParametricHamiltonian, Su2Model, connection_spectral
from adiaconn.models import ModelSpec
from adiaconn.operator_core import expm_hermitian


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
