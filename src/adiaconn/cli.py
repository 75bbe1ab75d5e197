"""Batch experiment front end.

Every subcommand builds a model, runs one computation, and writes a
machine-readable JSON report (plus CSV files for bulk grids and
trajectories) into the output directory.  Reports echo the fully resolved
configuration, so identical configs on the same version produce
byte-identical reports apart from the wall-time field.

Every input has one spelling, shared by the commands that take it: a
parameter point is ``--at``, a loop is ``--loop`` (:func:`loop_options`),
a surface is ``--surface`` with ``--omega`` and ``--b``
(:func:`surface_options`), and an su2 meridian sweep is ``--sweep-theta``
(:func:`meridian_sweep`).

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
failure (degeneracy, non-convergence, integrator rejection).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from .operator_core import DegenerateSpectrumError, frobenius
from .models import (
    DomainViolationError,
    ModelFileError,
    OscillatorModel,
    Su2Model,
    parse_model_file,
    serialize_model_spec,
)
from .connection import (
    TimeAverageConfig,
    connection_spectral,
    connection_time_average,
    shift_operator,
)
from .transport import (
    HolonomyResult,
    PathSpec,
    StepSizeError,
    counterdiabatic_evolve,
    holonomy,
    linear_schedule,
    transport_operator,
    wilson_loop_phases,
)
from .curvature import (
    GridTooCoarseError,
    berry_curvature_at,
    berry_curvature_levels,
    berry_phase_surface,
    diagonality_residual,
    yang_mills_curvature,
)
from .nast import _boundary_residual, maurer_cartan_flatness, surface_ordered_product
from .geometry import (
    planar_patch,
    su2_cap_patch,
    su2_circle_loop,
    su2_triangle_loop,
    su2_wedge_patch,
)

NUMERICAL_ERRORS = (
    DegenerateSpectrumError,
    DomainViolationError,
    GridTooCoarseError,
    StepSizeError,
)


class CliError(click.ClickException):
    """Configuration problem; exits with code 2."""

    exit_code = 2


def matrix_pairs(m) -> list:
    """Row-major nested [re, im] pairs of a matrix, or of every matrix of
    a stack, for JSON serialization."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def named_pairs(names, stack) -> dict:
    """``{name: matrix_pairs(matrix)}`` for a stack of matrices and their names."""
    return dict(zip(names, matrix_pairs(stack)))


def _floats(values) -> list:
    return [float(v) for v in np.asarray(values).ravel()]


def parse_point(value, n: int, what: str = "point") -> np.ndarray:
    """A point given as text ("1,2,3" or "1 2 3") or as a list of numbers,
    the form in which reports echo it."""
    tokens = value.replace(",", " ").split() if isinstance(value, str) else value
    try:
        vals = [float(tok) for tok in tokens]
    except (TypeError, ValueError):
        raise CliError(f"cannot parse {what} {value!r}") from None
    if len(vals) != n:
        raise CliError(f"{what} needs {n} components, got {len(vals)}")
    return np.asarray(vals)


def read_model_file(source: str):
    path = Path(source)
    if not path.exists():
        raise CliError(f"model file {path} does not exist")
    try:
        return parse_model_file(path.read_text())
    except ModelFileError as exc:
        raise CliError(f"model file {path}: {exc}") from None


def build_model(model: str, l: float, mu: float, nmax: int, buffer: int):
    if model == "su2":
        return Su2Model(l, mu=mu)
    if model == "oscillator":
        return OscillatorModel(nmax=nmax, buffer=buffer)
    if model.startswith("file:"):
        return read_model_file(model[5:]).to_model()
    raise CliError(f"unknown model {model!r}; use su2, oscillator, or file:<path>")


def write_report(out: str, command: str, config: dict, results: dict, started: float) -> Path:
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    report = {
        "command": command,
        "config": {k: v for k, v in sorted(config.items())},
        "results": results,
        "status": "ok",
        "version": __version__,
        "wall_time_s": round(time.time() - started, 6),
    }
    path = outdir / "report.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    click.echo(f"report: {path}")
    return path


@contextlib.contextmanager
def csv_output(name: str, header: list):
    """CSV writer on ``name`` in the running command's --out directory,
    header already written; yields the file path and the writer."""
    outdir = Path(click.get_current_context().params["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        yield path, writer


def model_options(f):
    f = click.option("--model", default="su2", show_default=True,
                     help="su2 | oscillator | file:<path>")(f)
    f = click.option("--l", "l", type=float, default=0.5, show_default=True,
                     help="spin quantum number (su2)")(f)
    f = click.option("--mu", type=float, default=1.0, show_default=True,
                     help="coupling strength (su2)")(f)
    f = click.option("--nmax", type=int, default=60, show_default=True,
                     help="Fock truncation (oscillator)")(f)
    f = click.option("--buffer", type=int, default=20, show_default=True,
                     help="untrusted edge levels (oscillator)")(f)
    return f


def run_options(f):
    f = click.option("--out", default="adiaconn-out", show_default=True,
                     help="output directory")(f)
    f = click.option("--config", "config_path", default=None,
                     help="JSON file whose keys override flags")(f)
    return f


point_option = click.option(
    "--at", default=None,
    help="parameter point, comma separated (default: su2 1,1,0 / oscillator 1,0,1)",
)


def loop_options(f):
    """The loop generator and its shape, as read by :func:`build_loop`."""
    f = click.option("--b", type=float, default=1.0, show_default=True)(f)
    f = click.option("--theta0", type=float, default=np.pi / 3, show_default=True,
                     help="colatitude of the circle loop")(f)
    f = click.option("--omega", type=float, default=np.pi / 2, show_default=True,
                     help="azimuthal span of the triangle loop")(f)
    f = click.option("--loop", default="triangle", show_default=True,
                     help="triangle | circle | file:<path>")(f)
    return f


def surface_options(f):
    """The surface generator and its shape, as read by :func:`build_surface`."""
    f = click.option("--b", type=float, default=1.0, show_default=True)(f)
    f = click.option("--omega", type=float, default=np.pi / 2, show_default=True,
                     help="solid angle of the cap, azimuthal span of the wedge")(f)
    f = click.option("--surface", default="cap", show_default=True,
                     help="cap | wedge | file:<path>")(f)
    return f


def default_point(model_name: str, model, at) -> np.ndarray:
    if at is not None:
        return parse_point(at, model.n_params, "--at")
    if model_name == "su2":
        return np.array([1.0, 1.0, 0.0])
    if model_name == "oscillator":
        return np.array([1.0, 0.0, 1.0])
    raise CliError("file models need an explicit --at point")


def meridian_sweep(cfg: dict) -> tuple[list, list]:
    """End points ``[b, a, phi]`` and ``[b, a', phi]`` of the su2 sweep
    ``--sweep-theta a,a'`` along the meridian at ``--phi``."""
    if cfg["model"] != "su2":
        raise CliError("--sweep-theta is specific to the su2 model")
    a, bb = parse_point(cfg["sweep_theta"], 2, "--sweep-theta")
    return [cfg["b"], a, cfg["phi"]], [cfg["b"], bb, cfg["phi"]]


def load_path(source: str, steps: int, closed: bool) -> PathSpec:
    """Polyline from a JSON file ``{"samples": [[...], ...], "closed": bool}``;
    ``closed`` applies when the file does not say."""
    try:
        data = json.loads(Path(source).read_text())
        return PathSpec(np.asarray(data["samples"], dtype=float),
                        closed=bool(data.get("closed", closed)), refinement=steps)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"cannot load path from {source}: {exc}") from None


def build_loop(cfg: dict) -> PathSpec:
    loop, steps = cfg["loop"], cfg["steps"]
    if loop in ("triangle", "circle") and cfg["model"] != "su2":
        raise CliError(f"the {loop} loop generator is specific to the su2 model")
    if loop == "triangle":
        return su2_triangle_loop(cfg["omega"], b=cfg["b"], refinement=steps)
    if loop == "circle":
        return su2_circle_loop(cfg["theta0"], b=cfg["b"], refinement=steps)
    if loop.startswith("file:"):
        return load_path(loop[5:], steps, closed=True)
    raise CliError(f"unknown loop {loop!r}; use triangle, circle, or file:<path>")


def build_surface(cfg: dict):
    surface, omega, b, grid = cfg["surface"], cfg["omega"], cfg["b"], cfg["grid"]
    if surface in ("cap", "wedge") and cfg["model"] != "su2":
        raise CliError(f"the {surface} surface generator is specific to the su2 model")
    if surface == "cap":
        return su2_cap_patch(omega, b=b, grid=(grid, grid))
    if surface == "wedge":
        return su2_wedge_patch(omega, b=b, grid=(grid, grid))
    if surface.startswith("file:"):
        path = Path(surface[5:])
        try:
            data = json.loads(path.read_text())
            return planar_patch(data["origin"], data["edge_u"], data["edge_v"],
                                grid=(grid, grid))
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise CliError(f"cannot load surface from {path}: {exc}") from None
    raise CliError(f"unknown surface {surface!r}; use cap, wedge, or file:<path>")


@click.group()
@click.version_option(__version__)
def main():
    """Adiabatic connection toolkit: connections, transport, curvature,
    holonomy, and counterdiabatic driving for parametric Hermitian
    families."""


def command(name: str, *, model: bool = True, point: bool = False):
    """Register subcommand ``name`` around a body that turns
    ``(cfg, model[, point])`` into the report's results.

    The config holds one key per option: the long flag name with ``-`` read
    as ``_``; --out and --config are not keys.  Keys of the --config JSON file
    override flags; each value goes through its option's type as the same
    text on the command line would (``at`` also takes the list that reports
    echo), so a report's ``config`` block can be fed back.  The body runs
    with ValueError mapped to exit 2 and ``NUMERICAL_ERRORS`` to exit 3.
    """

    def decorate(body):
        @functools.wraps(body)
        def run(out, config_path, **cfg):
            started = time.time()
            if config_path:
                try:
                    overrides = json.loads(Path(config_path).read_text())
                except (OSError, ValueError) as exc:
                    raise CliError(f"cannot read config {config_path}: {exc}") from None
                if not isinstance(overrides, dict):
                    raise CliError("config file must hold a JSON object")
                unknown = sorted(set(overrides) - set(cfg))
                if unknown:
                    raise CliError(f"unknown config keys: {', '.join(unknown)}")
                ctx = click.get_current_context()
                options = {p.name: p for p in ctx.command.params}
                for key, value in overrides.items():
                    if value is None and options[key].required:
                        raise CliError(f"config key {key!r} must not be null")
                    if value is not None and key != "at":
                        text = value if isinstance(value, str) else json.dumps(value)
                        try:
                            value = options[key].type_cast_value(ctx, text)
                        except click.BadParameter as exc:
                            raise CliError(f"config key {key!r}: {exc.format_message()}") from None
                    cfg[key] = value
            try:
                args = []
                if model:
                    args.append(build_model(cfg["model"], cfg["l"], cfg["mu"],
                                            cfg["nmax"], cfg["buffer"]))
                if point:
                    args.append(default_point(cfg["model"], args[0], cfg["at"]))
                    cfg["at"] = _floats(args[1])
                results = body(cfg, *args)
            except NUMERICAL_ERRORS as exc:
                click.echo(f"numerical failure: {exc}", err=True)
                sys.exit(3)
            except ValueError as exc:
                raise CliError(str(exc)) from None
            write_report(out, name, cfg, results, started)

        # the option applied last is listed first, so --help reads model,
        # run and point options, then the command's own
        if point:
            run = point_option(run)
        run = run_options(run)
        if model:
            run = model_options(run)
        return main.command(name=name)(run)

    return decorate


@command("connection", point=True)
def connection(cfg, mdl, lam):
    """Spectral connection components at a point."""
    spec = mdl.spectral_at(lam)
    a = np.asarray(connection_spectral(spec, mdl.grad_h(lam)).components)
    peaks = np.max(np.abs(np.diagonal(spec.to_eigenbasis(a), axis1=-2, axis2=-1)), axis=-1)
    norms = [max(np.linalg.norm(c), 1e-300) for c in a]  # per matrix, as in the library
    return {
        "components": named_pairs(mdl.param_names, a),
        "eigenvalues": _floats(spec.eigenvalues),
        "min_gap": float(spec.min_gap) if np.isfinite(spec.min_gap) else None,
        "zero_diagonal_residual": float(np.max(peaks / norms)),
    }


@command("shift", point=True)
def shift(cfg, mdl, lam):
    """Shift-operator components and first-order level slopes."""
    spec = mdl.spectral_at(lam)
    d = shift_operator(spec, mdl.grad_h(lam))
    return {
        "components": named_pairs(mdl.param_names, d.components),
        "level_slopes": d.level_shifts(spec).tolist(),
        "eigenvalues": _floats(spec.eigenvalues),
    }


@command("time-average", point=True)
@click.option("--horizon", type=float, default=None, help="averaging horizon T")
@click.option("--samples", type=int, default=None, help="trapezoid sample count")
def time_average(cfg, mdl, lam):
    """Finite-horizon time-average estimate of the connection."""
    spec = mdl.spectral_at(lam)
    tcfg = TimeAverageConfig.for_spectrum(spec, horizon=cfg["horizon"])
    if cfg["samples"] is not None:
        tcfg = TimeAverageConfig(horizon=tcfg.horizon, samples=cfg["samples"])
    estimate = connection_time_average(mdl, lam, tcfg)
    exact = connection_spectral(spec, mdl.grad_h(lam))
    cfg["horizon"], cfg["samples"] = tcfg.horizon, tcfg.samples
    deviation = np.asarray(estimate.components) - np.asarray(exact.components)
    return {
        "components": named_pairs(mdl.param_names, estimate.components),
        "deviation_from_spectral": max(map(frobenius, deviation)),  # per matrix, as above
        "error_estimate": estimate.error_estimate,
    }


@command("transport")
@click.option("--path-file", default=None, help="JSON path file with 'samples'")
@click.option("--sweep-theta", default=None, help="su2 polar sweep 'a,b'")
@click.option("--b", type=float, default=1.0, show_default=True)
@click.option("--phi", type=float, default=0.0, show_default=True)
@click.option("--steps", type=int, default=1000, show_default=True)
def transport(cfg, mdl):
    """Parallel transport along an open path."""
    if cfg["path_file"]:
        path = load_path(cfg["path_file"], cfg["steps"], closed=False)
    elif cfg["sweep_theta"]:
        path = PathSpec(np.array(meridian_sweep(cfg)), closed=False, refinement=cfg["steps"])
    else:
        raise CliError("provide --path-file or --sweep-theta")
    result = transport_operator(mdl, path)
    end_spec = mdl.spectral_at(path.end)
    h_end = mdl.eval_h(path.end)
    frame = result.transported_frame.matrix
    rayleigh = np.real(np.einsum("in,in->n", frame.conj(), h_end @ frame))
    eig_resid = float(
        np.max(np.linalg.norm(h_end @ frame - frame * rayleigh, axis=0))
    )
    return {
        "operator": matrix_pairs(result.operator.matrix),
        "conjugation_residual": result.conjugation_residual,
        "transported_eigenvector_residual": eig_resid,
        "end_eigenvalues": _floats(end_spec.eigenvalues),
    }


@command("holonomy")
@loop_options
@click.option("--steps", type=int, default=2000, show_default=True)
def holonomy_command(cfg, mdl):
    """Loop holonomy phases via path-ordered transport."""
    res = holonomy(mdl, build_loop(cfg))
    return {
        "phases": _floats(res.phases),
        "offdiag_residual": res.offdiag_residual,
        "reliable": res.reliable,
        "operator": matrix_pairs(res.operator.matrix),
    }


@command("wilson")
@loop_options
@click.option("--steps", type=int, default=2000, show_default=True)
def wilson(cfg, mdl):
    """Loop Berry phases via the discrete overlap product."""
    return {"phases": _floats(wilson_loop_phases(mdl, build_loop(cfg)))}


@command("curvature", point=True)
@click.option("--fd-step", type=float, default=None, help="stencil half-width")
def curvature(cfg, mdl, lam):
    """Field-strength components and per-level curvature at a point."""
    f = yang_mills_curvature(mdl, lam, step=cfg["fd_step"])
    spec = mdl.spectral_at(lam)
    table = berry_curvature_levels(spec, mdl.grad_h(lam))
    names = mdl.param_names
    labels = [f"{names[mu_]}_{names[nu_]}" for mu_, nu_ in f.pairs]  # table.pairs too
    return {
        "components": named_pairs(labels, [f.components[pair] for pair in f.pairs]),
        "diagonality_residual": diagonality_residual(f, spec),
        "berry_levels": dict(zip(labels, table.table.T.tolist())),
    }


@command("curvature-map", point=True)
@click.option("--axes", default=None, help="two parameter names, e.g. 'theta,phi'")
@click.option("--u-range", default=None, help="'a,b' range for the first axis")
@click.option("--v-range", default=None, help="'a,b' range for the second axis")
@click.option("--grid", default="40x1", show_default=True, help="NUxNV grid")
@click.option("--level", type=int, default=None, help="restrict to one level")
def curvature_map(cfg, mdl, base):
    """Per-level curvature over a 2D parameter slice, written as CSV."""
    if not cfg["axes"]:
        raise CliError("curvature-map needs --axes (two parameter names)")
    names = list(mdl.param_names)
    try:
        mu_idx, nu_idx = (names.index(s.strip()) for s in cfg["axes"].split(","))
    except ValueError:
        raise CliError(f"--axes must name two of {names}") from None
    if cfg["u_range"] is None or cfg["v_range"] is None:
        raise CliError("curvature-map needs --u-range and --v-range")
    u_lo, u_hi = parse_point(cfg["u_range"], 2, "--u-range")
    v_lo, v_hi = parse_point(cfg["v_range"], 2, "--v-range")
    try:
        n_u, n_v = (int(s) for s in cfg["grid"].lower().split("x"))
    except ValueError:
        raise CliError("--grid must look like 40x20") from None
    if n_u < 1 or n_v < 1:
        raise CliError("--grid needs at least one cell per axis")
    if cfg["level"] is None:
        levels = range(mdl.dim)
    elif 0 <= cfg["level"] < mdl.dim:
        levels = [cfg["level"]]
    else:
        raise CliError(f"--level must lie in [0, {mdl.dim}) for this model")

    n_done = 0
    n_degenerate = 0
    header = (["u", "v"] + [f"lambda_{i + 1}" for i in range(mdl.n_params)]
              + ["level", "W", "status"])
    with csv_output("curvature_map.csv", header) as (csv_path, writer):
        for i in range(n_u):
            u = u_lo + (u_hi - u_lo) * ((i + 0.5) / n_u)
            for j in range(n_v):
                v = v_lo + (v_hi - v_lo) * ((j + 0.5) / n_v)
                lam = base.copy()
                lam[mu_idx] = u
                lam[nu_idx] = v
                coords = [f"{u:.12g}", f"{v:.12g}", *(f"{x:.12g}" for x in lam)]
                try:
                    table = berry_curvature_at(mdl, lam)
                    cells = [(f"{table.value(n, mu_idx, nu_idx):.15g}", "ok") for n in levels]
                    n_done += 1
                except (DegenerateSpectrumError, DomainViolationError) as exc:
                    cells = [("", type(exc).__name__)] * len(levels)
                    n_degenerate += 1
                for n, (w, status) in zip(levels, cells):
                    writer.writerow(coords + [n, w, status])
    return {
        "csv": str(csv_path),
        "cells_ok": n_done,
        "cells_flagged": n_degenerate,
        "axes": [names[mu_idx], names[nu_idx]],
    }


@command("berry-surface")
@surface_options
@click.option("--grid", type=int, default=100, show_default=True)
@click.option("--level", type=int, default=0, show_default=True)
@click.option("--check-tol", type=float, default=None,
              help="grid-doubling self-check tolerance")
def berry_surface(cfg, mdl):
    """Surface-integrated Berry phase of one level."""
    patch = build_surface(cfg)
    phase = berry_phase_surface(mdl, patch, cfg["level"], refine_check_tol=cfg["check_tol"])
    return {"phase": float(phase), "level": cfg["level"]}


@command("nast-check")
@surface_options
@click.option("--grid", type=int, default=50, show_default=True)
@click.option("--boundary-refinement", type=int, default=8, show_default=True)
def nast_check(cfg, mdl):
    """Surface-ordered product versus direct boundary holonomy.

    The product's phases and off-diagonal residual are read in the
    eigenframe at the patch origin, as holonomy reads its loop operator.
    """
    patch = build_surface(cfg)
    product = surface_ordered_product(mdl, patch)
    residual = _boundary_residual(mdl, patch, product, cfg["boundary_refinement"])
    read = HolonomyResult.in_base_frame(product.operator, mdl.spectral_at(patch.origin).frame)
    return {
        "nast_residual": float(residual),
        "cell_count": product.cell_count,
        "ordering": product.ordering,
        "surface_phases": _floats(read.phases),
        "surface_offdiag": read.offdiag_residual,
    }


@command("flatness")
@loop_options
@click.option("--time", type=float, default=1.7, show_default=True,
              help="fixed group time t of the sampled 1-form")
@click.option("--steps", type=int, default=4000, show_default=True)
def flatness(cfg, mdl):
    """Loop residual of the non-averaged 1-form at fixed group time."""
    path = build_loop(cfg)
    residual = maurer_cartan_flatness(mdl, path, cfg["time"])
    averaged = holonomy(mdl, path)
    return {
        "flatness_residual": float(residual),
        "averaged_connection_phases": _floats(averaged.phases),
    }


@command("drive")
@click.option("--sweep-theta", default="0,1.5707963267948966", show_default=True,
              help="su2 polar sweep 'a,b'")
@click.option("--b", type=float, default=1.0, show_default=True)
@click.option("--phi", type=float, default=0.0, show_default=True)
@click.option("--tau", type=float, default=1.0, show_default=True,
              help="sweep duration")
@click.option("--dt", type=float, default=1e-4, show_default=True)
@click.option("--level", type=int, default=0, show_default=True)
@click.option("--no-cd", is_flag=True, default=False,
              help="drop the counterdiabatic term (control run)")
@click.option("--stride", type=click.IntRange(min=1), default=10, show_default=True,
              help="CSV row stride")
def drive(cfg, mdl):
    """Driven evolution along a schedule; trajectory written as CSV.

    The phase column is the argument of the overlap with the tracked
    eigenvector, whose phase is fixed by making its largest-magnitude
    entry real and positive (ties to the lowest index).  Where two
    entries trade places as the largest along the sweep, the phase jumps
    by their relative phase; the fidelity does not.
    """
    schedule = linear_schedule(*meridian_sweep(cfg), cfg["tau"])
    result = counterdiabatic_evolve(
        mdl, schedule, cfg["level"], cfg["dt"], include_cd=not cfg["no_cd"]
    )
    n = len(result.times)
    with csv_output("trajectory.csv", ["t", "fidelity", "phase", "norm_drift"]) as (csv_path, writer):
        # every stride-th row, and the last row always
        for k in sorted({*range(0, n, cfg["stride"]), n - 1}):
            writer.writerow(
                [f"{result.times[k]:.12g}", f"{result.fidelities[k]:.15g}",
                 f"{result.phases[k]:.15g}", f"{result.norm_drifts[k]:.3e}"]
            )
    return {
        "csv": str(csv_path),
        "min_fidelity": result.min_fidelity,
        "final_phase": result.final_phase,
        "max_norm_drift": float(np.max(result.norm_drifts)),
        "counterdiabatic": result.counterdiabatic,
    }


@command("validate-model", model=False)
@click.option("--file", required=True, help="model file to validate")
def validate_model(cfg):
    """Parse and validate a model file; report its structure."""
    spec = read_model_file(cfg["file"])
    round_trip = parse_model_file(serialize_model_spec(spec))
    round_trip_ok = (
        round_trip.dim == spec.dim
        and round_trip.param_names == spec.param_names
        and all(
            ea == eb and np.array_equal(ma, mb)
            for (ea, ma), (eb, mb) in zip(round_trip.terms, spec.terms)
        )
    )
    return {
        "dim": spec.dim,
        "params": list(spec.param_names),
        "n_terms": len(spec.terms),
        "exponents": [list(e) for e, _ in spec.terms],
        "round_trip_ok": round_trip_ok,
    }


if __name__ == "__main__":
    main()
