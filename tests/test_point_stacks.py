"""Point quantities as one-point stacks, held bit for bit to the
per-component loops they replaced.

Each ``ref_*`` below is the earlier form: one matrix at a time, in a
Python loop.  The library now rotates, transforms and reads out every
component of a point quantity as one stack; a stacked ``@`` rounds every
matrix as the loop did, so the two must agree under ``np.array_equal``
(and under ``tobytes``, which also tells the signs of zeros apart).
"""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from adiaconn import OscillatorModel, Su2Model
from adiaconn.cli import main, matrix_pairs
from adiaconn.connection import (
    TimeAverageConfig,
    _maurer_cartan_kernel,
    connection_spectral,
    connection_time_average,
    contract_stack,
    gauge_transform,
    shift_operator,
)
from adiaconn.curvature import (
    _square_loop,
    berry_curvature_at,
    diagonality_residual,
    small_loop_check,
    yang_mills_curvature,
)
from adiaconn.models import FD_STEP_SCALE
from adiaconn.operator_core import as_matrix, expm_hermitian, frobenius, hermitian_part
from adiaconn.transport import holonomy

from conftest import random_hermitian, random_polynomial_model

FAMILIES = ["spin1/2", "spin1", "spin3/2", "osc20", "poly3"]
POINTS = 4


def family(name, rng):
    """A model of the named family and a function drawing points on it."""
    if name.startswith("spin"):
        l = {"spin1/2": 0.5, "spin1": 1.0, "spin3/2": 1.5}[name]
        return Su2Model(l), lambda: np.array(
            [rng.uniform(0.5, 2.0), rng.uniform(0.2, 2.9), rng.uniform(-3.0, 3.0)])
    if name == "osc20":
        return OscillatorModel(20, 5), lambda: np.array(
            [rng.uniform(1.2, 2.2), rng.uniform(-0.4, 0.4), rng.uniform(1.0, 1.8)])
    return random_polynomial_model(rng), lambda: rng.uniform(-0.3, 0.3, size=2)


def same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and np.array_equal(got, want)
            and got.tobytes() == want.tobytes())


# -- the per-component loops --------------------------------------------------


def ref_shift_operator(spec, grad_h):
    components = []
    for g in grad_h:
        diag = np.real(np.diag(spec.to_eigenbasis(g)))
        components.append(spec.from_eigenbasis(np.diag(diag.astype(complex))))
    return components


def ref_level_shifts(spec, components):
    return np.column_stack([np.real(np.diag(spec.to_eigenbasis(d))) for d in components])


def ref_connection_time_average(model, lam):
    """Components and error estimate, the bound one component at a time."""
    spec = model.spectral_at(lam)
    grads = model.grad_h(lam)
    cfg = TimeAverageConfig.for_spectrum(spec)
    delta = spec.eigenvalues[:, None] - spec.eigenvalues[None, :]
    n, half = cfg.samples, 0.5 * cfg.spacing * delta
    mean_osc = np.ones(delta.shape)
    moving = delta != 0.0
    mean_osc[moving] = (np.sin(n * half[moving]) / np.sin(half[moving])
                        - np.cos(cfg.horizon * delta[moving])) / (n - 1)
    components = contract_stack(spec.eigenvalues, spec.frame.matrix,
                                np.asarray(grads, dtype=complex),
                                lambda d: _maurer_cartan_kernel(d, mean_osc, 0.0))
    envelope = np.minimum(1.0, (1.0 / np.abs(np.sin(half[moving])) + 1.0) / (n - 1))
    bound = 0.0
    for g in grads:
        g_eig = np.abs(spec.to_eigenbasis(g))[moving]
        bound = max(bound, float(np.linalg.norm(g_eig * envelope / np.abs(delta[moving]))))
    return list(components), bound


def ref_gauge_transform(a, u, du):
    components = []
    for a_mu, du_mu in zip(a.components, du):
        du_mu = as_matrix(du_mu)
        components.append(hermitian_part(u @ a_mu @ u.conj().T + 1j * u @ du_mu.conj().T))
    return components


def ref_yang_mills_curvature(model, lam):
    """The field strength by the stencil, one pair of components at a time."""
    lam = np.asarray(lam, dtype=float)
    n = model.n_params

    def connection_at(point):
        return connection_spectral(model.spectral_at(point), model.grad_h(point)).components

    a_center = connection_at(lam)
    derivs = []
    for mu in range(n):
        h_mu = FD_STEP_SCALE * (1.0 + abs(lam[mu]))
        e = np.zeros(n)
        e[mu] = 1.0
        a_plus, a_minus = connection_at(lam + h_mu * e), connection_at(lam - h_mu * e)
        derivs.append([(p - m) / (2.0 * h_mu) for p, m in zip(a_plus, a_minus)])
    components = {}
    for mu in range(n):
        for nu in range(mu + 1, n):
            comm = a_center[mu] @ a_center[nu] - a_center[nu] @ a_center[mu]
            f = derivs[mu][nu] - derivs[nu][mu] - 1j * comm
            components[(mu, nu)] = hermitian_part(f)
    return components


def ref_component(components, mu, nu):
    if mu == nu:
        return np.zeros_like(next(iter(components.values())))
    if (mu, nu) in components:
        return components[(mu, nu)]
    return -components[(nu, mu)]


def ref_value(table, n, mu, nu):
    if mu == nu:
        return 0.0
    if (mu, nu) in table.pairs:
        return float(table.table[n, table.pairs.index((mu, nu))])
    return -float(table.table[n, table.pairs.index((nu, mu))])


def ref_diagonality_residual(components, spec, levels=None):
    worst_off = 0.0
    scale = 0.0
    for pair in sorted(components):
        w = spec.to_eigenbasis(components[pair])
        if levels is not None:
            w = w[:levels, :levels]
        scale = max(scale, float(np.linalg.norm(w)))
        off = w - np.diag(np.diag(w))
        if off.size:
            worst_off = max(worst_off, float(np.max(np.abs(off))))
    if scale == 0.0:
        return 0.0
    return worst_off / scale


def ref_small_loop(model, lam, mu, nu, eps):
    components = ref_yang_mills_curvature(model, lam)

    def deviation(e):
        u = holonomy(model, _square_loop(lam, mu, nu, e, model.n_params)).operator.matrix
        return frobenius(u - expm_hermitian(ref_component(components, mu, nu), e * e).matrix)

    return deviation(eps), deviation(0.5 * eps)


def ref_matrix_pairs(m):
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


# -- the stacks against the loops ---------------------------------------------


@pytest.mark.parametrize("name", FAMILIES)
class TestAgainstComponentLoops:
    def test_shift_operator_and_level_shifts(self, name, rng):
        model, draw = family(name, rng)
        for _ in range(POINTS):
            lam = draw()
            spec, grads = model.spectral_at(lam), model.grad_h(lam)
            d = shift_operator(spec, grads)
            want = ref_shift_operator(spec, grads)
            assert len(d.components) == model.n_params
            assert all(same(got, w) for got, w in zip(d.components, want))
            assert same(d.level_shifts(spec), ref_level_shifts(spec, want))

    def test_time_average_components_and_bound(self, name, rng):
        model, draw = family(name, rng)
        for _ in range(POINTS):
            lam = draw()
            got = connection_time_average(model, lam)
            components, bound = ref_connection_time_average(model, lam)
            assert all(same(c, w) for c, w in zip(got.components, components))
            assert got.error_estimate == bound and type(got.error_estimate) is float

    def test_gauge_transform(self, name, rng):
        model, draw = family(name, rng)
        for _ in range(POINTS):
            lam = draw()
            a = connection_spectral(model.spectral_at(lam), model.grad_h(lam))
            u = expm_hermitian(random_hermitian(rng, model.dim), 1.0).matrix
            du = [random_hermitian(rng, model.dim) + 1j * random_hermitian(rng, model.dim)
                  for _ in range(model.n_params)]
            got = gauge_transform(a, u, du).components
            assert all(same(c, w) for c, w in zip(got, ref_gauge_transform(a, u, du)))

    def test_field_strength_components_and_diagonality(self, name, rng):
        model, draw = family(name, rng)
        n = model.n_params
        for _ in range(POINTS):
            lam = draw()
            f = yang_mills_curvature(model, lam)
            want = ref_yang_mills_curvature(model, lam)
            assert list(f.components) == list(want)
            assert all(same(f.components[p], want[p]) for p in want)
            for mu in range(n):
                for nu in range(n):
                    assert same(f.component(mu, nu), ref_component(want, mu, nu))
            spec = model.spectral_at(lam)
            for levels in (None, 1, 2, model.dim // 2, model.dim):
                got = diagonality_residual(f, spec, levels=levels)
                assert got == ref_diagonality_residual(want, spec, levels)

    def test_berry_table_value(self, name, rng):
        model, draw = family(name, rng)
        table = berry_curvature_at(model, draw())
        n = model.n_params
        for level in range(model.dim):
            for mu in range(n):
                for nu in range(n):
                    got, want = table.value(level, mu, nu), ref_value(table, level, mu, nu)
                    assert got == want and np.signbit(got) == np.signbit(want)

    def test_small_loop_check(self, name, rng):
        model, draw = family(name, rng)
        lam = draw()
        report = small_loop_check(model, lam, 0, model.n_params - 1, 1e-2)
        assert (report.difference, report.halved_difference) == ref_small_loop(
            model, lam, 0, model.n_params - 1, 1e-2)


def test_no_gradients_give_an_empty_shift_operator(su2_half):
    spec = su2_half.spectral_at([1.0, 1.0, 0.3])
    d = shift_operator(spec, [])
    assert d.components == ()
    assert d.level_shifts(spec).shape == (2, 0)


def test_matrix_pairs_of_a_stack_are_the_pairs_of_each_matrix(rng):
    stack = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    stack[0, 1, 2] = complex(-0.0, 0.0)
    stack[1, 0, 0] = complex(0.0, -0.0)
    got = matrix_pairs(stack)
    assert json.dumps(got) == json.dumps([ref_matrix_pairs(m) for m in stack])
    assert json.dumps(matrix_pairs(stack[2])) == json.dumps(ref_matrix_pairs(stack[2]))
    assert '-0.0' in json.dumps(got)


@pytest.mark.parametrize("args", [
    ["--l", "1", "--at", "1.7,2.2,-1.1"],
    ["--model", "oscillator", "--nmax", "20", "--buffer", "5", "--at", "1.5,-0.3,1.2"],
])
def test_point_read_outs_match_the_component_loops(tmp_path, args):
    """The CLI's stacked read-outs of connection, shift, time-average and
    curvature against the loops they replaced, through report.json."""
    runner = CliRunner()
    reports = {}
    for command in ("connection", "shift", "time-average", "curvature"):
        out = tmp_path / command
        result = runner.invoke(main, [command, *args, "--out", str(out)],
                               catch_exceptions=False)
        assert result.exit_code == 0, result.output
        reports[command] = json.loads((out / "report.json").read_text())["results"]
    cfg_model = (Su2Model(1.0) if args[0] == "--l" else OscillatorModel(20, 5))
    lam = np.array([float(x) for x in args[-1].split(",")])
    names = cfg_model.param_names
    spec, grads = cfg_model.spectral_at(lam), cfg_model.grad_h(lam)

    a = connection_spectral(spec, grads)
    resid = max(float(np.max(np.abs(np.diag(spec.to_eigenbasis(c)))))
                / max(np.linalg.norm(c), 1e-300) for c in a.components)
    want = {name: ref_matrix_pairs(c) for name, c in zip(names, a.components)}
    assert reports["connection"]["components"] == want
    assert reports["connection"]["zero_diagonal_residual"] == resid

    d = ref_shift_operator(spec, grads)
    assert reports["shift"]["components"] == {n: ref_matrix_pairs(c) for n, c in zip(names, d)}
    assert reports["shift"]["level_slopes"] == [
        list(map(float, row)) for row in ref_level_shifts(spec, d)]

    components, bound = ref_connection_time_average(cfg_model, lam)
    deviation = max(float(np.linalg.norm(e - s)) for e, s in zip(components, a.components))
    assert reports["time-average"]["deviation_from_spectral"] == deviation
    assert reports["time-average"]["error_estimate"] == bound

    f = ref_yang_mills_curvature(cfg_model, lam)
    labels = {pair: f"{names[pair[0]]}_{names[pair[1]]}" for pair in f}
    assert reports["curvature"]["components"] == {
        labels[pair]: ref_matrix_pairs(c) for pair, c in f.items()}
    assert reports["curvature"]["diagonality_residual"] == ref_diagonality_residual(f, spec)
