"""The three adiaconn benchmark workloads.

Each workload turns a seed into inputs (loop geometry inside fixed
ranges; step counts and grids never depend on the seed), builds the
model and geometry through the library (the timed set-up), and exposes a
fixed list of operations.  Every operation returns the library's raw
result, which its check compares with a closed form computed here,
independently of ``adiaconn.reference``.

Tolerances come from the acceptance criteria of the library's test
suite: 2e-4 rad for the holonomy / Wilson / surface triangulation
(criterion 5), 1e-3 for the NAST boundary residual (criterion 4), and
min fidelity >= 1 - 1e-6 with the counterdiabatic term and < 0.99
without it (criterion 9).
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

PHASE_TOL = 2e-4
NAST_TOL = 1e-3
DRIVE_FIDELITY_LOSS_TOL = 1e-6
DRIVE_PHASE_TOL = 1e-6
CONTROL_FIDELITY_MAX = 0.99

# Full sizes are the workload definition; the smoke sizes exist only for
# the benchmark's self-tests.
SU2_SIZES = {"holonomy_refinement": 900, "wilson_refinement": 700,
             "surface_grid": 110, "nast_grid": 50}
OSC_SIZES = {"refinement": 500, "surface_grid": 60}
DRIVE_SIZES = {"dt": 1e-4, "tau": 1.0, "control_tau": 0.1}
SMOKE_SIZES = {
    "su2-loops": {"holonomy_refinement": 20, "wilson_refinement": 20,
                  "surface_grid": 30, "nast_grid": 30},
    "osc60-loops": {"refinement": 40, "surface_grid": 6},
    "su2-drive": {"dt": 1e-3, "tau": 0.2, "control_tau": 0.1},
}

NAST_EDGE_REFINEMENT = 2
NAST_BOUNDARY_REFINEMENT = 8
OSC_NMAX, OSC_BUFFER, OSC_LEVELS = 60, 20, 4
OSC_CENTER = np.array([2.0, 0.3, 1.4])
OSC_JITTER = 0.1
OSC_EDGE = 0.25
DRIVE_LEVEL = 1  # m = +1/2 of the spin-1/2 model, energy +B*mu/2
DRIVE_STRIDE = 10


def wrapped_gap(a, b) -> float:
    """Largest |a - b| with each difference wrapped to (-pi, pi]."""
    d = np.angle(np.exp(1j * (np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))
    return float(np.max(np.abs(d)))


def import_program(src: Path, with_cli: bool):
    """Import adiaconn afresh from ``src`` (earlier imports are dropped)."""
    for name in [m for m in sys.modules if m == "adiaconn" or m.startswith("adiaconn.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    ac = importlib.import_module("adiaconn")
    if not Path(ac.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"adiaconn was imported from {ac.__file__}, not from {src}")
    if with_cli:
        importlib.import_module("adiaconn.cli")
    return ac


@dataclass
class Check:
    name: str
    value: float
    limit: str
    passed: bool


@dataclass
class Op:
    """One closed-loop operation: ``run`` calls the library, ``check``
    compares its result with the closed form and returns the checks plus
    the raw oracle errors to report."""

    name: str
    points: int
    run: Callable[[], object]
    check: Callable[[object], tuple]


@dataclass
class Prepared:
    ops: list
    describe: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# su2-loops
# ---------------------------------------------------------------------------


def su2_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {"omega": float(rng.uniform(np.pi / 4, np.pi / 2))}


def su2_build(ac, inputs: dict, sizes: dict, scratch: Path) -> Prepared:
    omega = inputs["omega"]
    model = ac.models.Su2Model(0.5)
    tri_h = ac.geometry.su2_triangle_loop(omega, refinement=sizes["holonomy_refinement"])
    tri_w = ac.geometry.su2_triangle_loop(omega, refinement=sizes["wilson_refinement"])
    g = sizes["surface_grid"]
    wedge = ac.geometry.su2_wedge_patch(omega, grid=(g, g))
    n = sizes["nast_grid"]
    cap = ac.geometry.su2_cap_patch(omega, grid=(n, n))
    # -m * Omega for m = -1/2, +1/2 (ascending energy)
    exact = np.array([0.5 * omega, -0.5 * omega])

    def phase_check(label):
        def check(phases):
            err = wrapped_gap(np.asarray(phases)[:2], exact)
            return [Check(f"{label} |phase - (-m*Omega)|", err, f"<= {PHASE_TOL:g}",
                          err <= PHASE_TOL)], {f"{label}_err_rad": err}
        return check

    def holonomy_check(result):
        checks, errors = phase_check("holonomy")(result.phases)
        checks.append(Check("holonomy off-diagonal residual", result.offdiag_residual,
                            "<= 1e-3 (reliable)", bool(result.reliable)))
        return checks, errors

    def nast_check(residual):
        residual = float(residual)
        return [Check("nast residual", residual, f"<= {NAST_TOL:g}",
                      residual <= NAST_TOL)], {"nast_residual": residual}

    boundary = cap.boundary_path(NAST_BOUNDARY_REFINEMENT)
    nast_points = (NAST_EDGE_REFINEMENT * 2 * n * (n + 1)
                   + (len(boundary.samples) - 1) * boundary.refinement)
    ops = [
        Op("holonomy", (len(tri_h.samples) - 1) * tri_h.refinement,
           lambda: ac.transport.holonomy(model, tri_h), holonomy_check),
        Op("wilson", (len(tri_w.samples) - 1) * tri_w.refinement,
           lambda: ac.transport.wilson_loop_phases(model, tri_w), phase_check("wilson")),
        Op("surface", g * g,
           lambda: ac.curvature.berry_phase_surface(model, wedge, level=[0, 1]),
           phase_check("surface")),
        Op("nast", nast_points,
           lambda: ac.nast.nast_residual(
               model, cap, boundary_refinement=NAST_BOUNDARY_REFINEMENT,
               edge_refinement=NAST_EDGE_REFINEMENT),
           nast_check),
    ]
    return Prepared(ops, {"omega": omega})


# ---------------------------------------------------------------------------
# osc60-loops
# ---------------------------------------------------------------------------


def osc_curvature_yz(lam, levels: int) -> np.ndarray:
    """Per-level Berry curvature W_YZ = -(n + 1/2) X / (4 omega^3)."""
    x, y, z = lam
    omega = np.sqrt(z * x - y * y)
    return -(np.arange(levels) + 0.5) * x / (4.0 * omega**3)


def osc_flux(origin, edge: float, levels: int, nodes: int = 16) -> np.ndarray:
    """Gauss-Legendre flux of W_YZ over the (Y, Z) square at ``origin``."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    flux = np.zeros(levels)
    for tu, wu in zip(t, w):
        for tv, wv in zip(t, w):
            lam = origin + edge * np.array([0.0, tu, tv])
            flux += wu * wv * osc_curvature_yz(lam, levels)
    return flux * edge * edge


def osc_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    origin = OSC_CENTER + rng.uniform(-OSC_JITTER, OSC_JITTER, size=3)
    return {"origin": origin, "flux": osc_flux(origin, OSC_EDGE, OSC_LEVELS)}


def osc_build(ac, inputs: dict, sizes: dict, scratch: Path) -> Prepared:
    origin, flux = inputs["origin"], inputs["flux"]
    model = ac.models.OscillatorModel(OSC_NMAX, OSC_BUFFER)
    edge_u = np.array([0.0, OSC_EDGE, 0.0])
    edge_v = np.array([0.0, 0.0, OSC_EDGE])
    loop = ac.geometry.planar_rectangle_loop(origin, edge_u, edge_v,
                                             refinement=sizes["refinement"])
    g = sizes["surface_grid"]
    patch = ac.geometry.planar_patch(origin, edge_u, edge_v, grid=(g, g))
    levels = list(range(OSC_LEVELS))

    def phase_check(label):
        def check(phases):
            err = wrapped_gap(np.asarray(phases)[:OSC_LEVELS], flux)
            return [Check(f"{label} |phase - flux|", err, f"<= {PHASE_TOL:g}",
                          err <= PHASE_TOL)], {f"{label}_err_rad": err}
        return check

    def holonomy_check(result):
        checks, errors = phase_check("holonomy")(result.phases)
        checks.append(Check("holonomy off-diagonal residual", result.offdiag_residual,
                            "<= 1e-3 (reliable)", bool(result.reliable)))
        return checks, errors

    steps = (len(loop.samples) - 1) * loop.refinement
    ops = [
        Op("holonomy", steps, lambda: ac.transport.holonomy(model, loop), holonomy_check),
        Op("wilson", steps, lambda: ac.transport.wilson_loop_phases(model, loop),
           phase_check("wilson")),
        Op("surface", g * g,
           lambda: ac.curvature.berry_phase_surface(model, patch, level=levels),
           phase_check("surface")),
    ]
    return Prepared(ops, {"origin": [float(v) for v in origin],
                          "flux": [float(v) for v in flux]})


# ---------------------------------------------------------------------------
# su2-drive
# ---------------------------------------------------------------------------


def drive_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {"theta_end": float(rng.uniform(np.pi / 3, np.pi / 2)),
            "phi": float(rng.uniform(np.pi / 8, 3 * np.pi / 8))}


def run_cli(ac, args: list) -> str:
    """Run the adiaconn command in-process; non-zero exits raise."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        try:
            ac.cli.main(args=args, standalone_mode=False)
        except SystemExit as exc:
            if exc.code not in (0, None):
                raise RuntimeError(f"adiaconn {args[0]} exited with code {exc.code}: "
                                   f"{captured.getvalue().strip()}") from None
    return captured.getvalue()


def read_drive_outputs(out: Path) -> dict:
    report = json.loads((out / "report.json").read_text())
    with (out / "trajectory.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {"report": report, "rows": rows}


def drive_build(ac, inputs: dict, sizes: dict, scratch: Path) -> Prepared:
    theta_end, phi = inputs["theta_end"], inputs["phi"]
    dt, tau, control_tau = sizes["dt"], sizes["tau"], sizes["control_tau"]
    sweep = f"0,{theta_end!r}"
    # Below the equator the phase-fixed frame of level m = +1/2 is
    # (e^{i phi} sin(theta/2), cos(theta/2)): its Berry connection along a
    # meridian vanishes, so the tracked state only picks up the dynamical
    # phase -E*tau.  Off phi = 0 a different phase convention moves the
    # reported phase, which is why phi is not 0.
    energy = 0.5  # m = +1/2, B = 1, mu = 1
    n_steps = int(round(tau / dt))
    n_control = int(round(control_tau / dt))

    def drive_args(out: Path, sweep_tau: float, no_cd: bool) -> list:
        args = ["drive", "--model", "su2", "--l", "0.5", "--sweep-theta", sweep,
                "--phi", repr(phi), "--tau", repr(sweep_tau), "--dt", repr(dt), "--level", str(DRIVE_LEVEL),
                "--stride", str(DRIVE_STRIDE), "--out", str(out)]
        return args + (["--no-cd"] if no_cd else [])

    def run_drive(out: Path, sweep_tau: float, no_cd: bool) -> Path:
        shutil.rmtree(out, ignore_errors=True)
        run_cli(ac, drive_args(out, sweep_tau, no_cd))
        return out

    def trajectory_check(label, outputs, steps):
        report, rows = outputs["report"], outputs["rows"]
        expected_rows = steps // DRIVE_STRIDE + 1 + (1 if steps % DRIVE_STRIDE else 0)
        last = rows[-1] if rows else {}
        consistent = (
            report.get("status") == "ok"
            and len(rows) == expected_rows
            and abs(float(last.get("phase", "nan")) - report["results"]["final_phase"]) <= 1e-12
            # the CSV holds 15 significant digits, so allow for its rounding
            and (min(float(r["fidelity"]) for r in rows)
                 >= report["results"]["min_fidelity"] - 1e-14)
        )
        return Check(f"{label} report.json / trajectory.csv consistent", float(len(rows)),
                     f"{expected_rows} rows, final phase and min fidelity agree", consistent)

    def cd_check(out: Path):
        outputs = read_drive_outputs(out)
        res = outputs["report"]["results"]
        loss = 1.0 - res["min_fidelity"]
        phase_err = wrapped_gap(res["final_phase"], -energy * tau)
        return [
            Check("drive 1 - min fidelity", loss, f"<= {DRIVE_FIDELITY_LOSS_TOL:g}",
                  loss <= DRIVE_FIDELITY_LOSS_TOL),
            Check("drive |final phase - (-E*tau)|", phase_err, f"<= {DRIVE_PHASE_TOL:g}",
                  phase_err <= DRIVE_PHASE_TOL),
            trajectory_check("drive", outputs, n_steps),
        ], {"fidelity_loss": loss, "drive_phase_err_rad": phase_err}

    def control_check(out: Path):
        outputs = read_drive_outputs(out)
        fid = outputs["report"]["results"]["min_fidelity"]
        return [
            Check("control min fidelity (no CD)", fid, f"< {CONTROL_FIDELITY_MAX:g}",
                  fid < CONTROL_FIDELITY_MAX),
            trajectory_check("control", outputs, n_control),
        ], {"control_fidelity_loss": 1.0 - fid}

    ops = [
        Op("drive", n_steps, lambda: run_drive(scratch / "drive", tau, False), cd_check),
        Op("control", n_control, lambda: run_drive(scratch / "control", control_tau, True),
           control_check),
    ]
    return Prepared(ops, {"theta_end": theta_end, "phi": phi})


@dataclass(frozen=True)
class Workload:
    """``build(ac, inputs, sizes, scratch)`` makes the model, geometry and
    operations; ``scratch`` is a directory the operations may write to."""

    name: str
    inputs: Callable[[int], dict]
    build: Callable[..., Prepared]
    sizes: dict
    matrix_dim: int
    uses_cli: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("su2-loops", su2_inputs, su2_build, SU2_SIZES, 2),
        Workload("osc60-loops", osc_inputs, osc_build, OSC_SIZES, OSC_NMAX),
        Workload("su2-drive", drive_inputs, drive_build, DRIVE_SIZES, 2, uses_cli=True),
    )
}
