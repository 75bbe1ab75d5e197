import csv
import json
import shlex
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from adiaconn.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def _reject_constant(name):
    raise ValueError(f"report.json holds {name}, which is not valid JSON")


def load_report(outdir):
    return json.loads((outdir / "report.json").read_text(), parse_constant=_reject_constant)


def as_complex(pairs):
    return np.array([[complex(re, im) for re, im in row] for row in pairs])


TOY_MODEL = """
dim = 2
params = a
term 0
1 0
0 -1
term 1
0 0.5
0.5 0
"""

CONSTANT_MODEL = """
dim = 2
params = a
term 0
1 0
0 -1
"""


class TestHolonomyCommand:
    def test_triangle_report(self, runner, tmp_path):
        run_ok(runner, [
            "holonomy", "--model", "su2", "--l", "0.5", "--loop", "triangle",
            "--omega", "1.5707963", "--steps", "2000", "--out", str(tmp_path),
        ])
        report = load_report(tmp_path)
        phases = sorted(report["results"]["phases"])
        assert phases[0] == pytest.approx(-0.785398, abs=1e-5)
        assert phases[1] == pytest.approx(+0.785398, abs=1e-5)
        assert report["results"]["offdiag_residual"] < 1e-6
        assert report["status"] == "ok"

    def test_determinism_modulo_wall_time(self, runner, tmp_path):
        args = ["holonomy", "--loop", "triangle", "--omega", "0.8",
                "--steps", "300"]
        run_ok(runner, args + ["--out", str(tmp_path / "a")])
        run_ok(runner, args + ["--out", str(tmp_path / "b")])
        ra = load_report(tmp_path / "a")
        rb = load_report(tmp_path / "b")
        ra.pop("wall_time_s"), rb.pop("wall_time_s")
        assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)

    def test_config_echo_includes_defaults(self, runner, tmp_path):
        run_ok(runner, ["holonomy", "--loop", "triangle", "--steps", "200",
                        "--out", str(tmp_path)])
        config = load_report(tmp_path)["config"]
        for key in ("model", "l", "mu", "omega", "theta0", "b", "steps"):
            assert key in config
        assert "seed" not in config


class TestConnectionCommand:
    def test_matches_reference(self, runner, tmp_path):
        from adiaconn.reference import su2_analytic_connection

        run_ok(runner, ["connection", "--model", "su2", "--l", "0.5",
                        "--at", "1.0,1.0,0.3", "--out", str(tmp_path)])
        report = load_report(tmp_path)
        ref = su2_analytic_connection(0.5, 1.0, 0.3)
        for name, want in zip(("B", "theta", "phi"), ref.components):
            got = as_complex(report["results"]["components"][name])
            assert np.linalg.norm(got - want) < 1e-10
        assert report["results"]["zero_diagonal_residual"] < 1e-10

    def test_coordinate_flags(self, runner, tmp_path):
        # a point is given by --at alone; without it each built-in model has
        # its default, echoed in the report like a given one
        for model, point in (("su2", [1.0, 1.0, 0.0]), ("oscillator", [1.0, 0.0, 1.0])):
            run_ok(runner, ["connection", "--model", model, "--nmax", "12", "--buffer", "4",
                            "--out", str(tmp_path)])
            assert load_report(tmp_path)["config"]["at"] == point

    def test_mismatched_coordinate_flags_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["connection", "--model", "oscillator",
                                      "--theta", "1.0", "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "--theta" in result.output

    def test_file_model(self, runner, tmp_path):
        model_path = tmp_path / "toy.model"
        model_path.write_text(TOY_MODEL)
        run_ok(runner, ["connection", "--model", f"file:{model_path}",
                        "--at", "0.4", "--out", str(tmp_path)])
        report = load_report(tmp_path)
        assert report["results"]["min_gap"] > 0

    def test_degenerate_point_exits_3(self, runner, tmp_path):
        model_path = tmp_path / "toy.model"
        model_path.write_text(TOY_MODEL)
        # at a = +-2/sqrt(3)... the toy family H = diag(1,-1) + a*sx/1 has
        # gap 2*sqrt(1+a^2/4) > 0 everywhere; use the constant matrix at
        # its degenerate limit instead: scale a=0 with equal diagonal
        deg = tmp_path / "deg.model"
        deg.write_text("dim = 2\nparams = a\nterm 0\n1 0\n0 1\n")
        result = runner.invoke(main, ["connection", "--model", f"file:{deg}",
                                      "--at", "0.0", "--out", str(tmp_path)])
        assert result.exit_code == 3
        assert "degenerate" in result.output.lower() or "numerical" in result.output.lower()


class TestConfigHandling:
    def test_config_overrides_flags(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega": 0.5}))
        run_ok(runner, ["holonomy", "--loop", "triangle", "--omega", "2.0",
                        "--steps", "300", "--config", str(cfg),
                        "--out", str(tmp_path)])
        report = load_report(tmp_path)
        assert report["config"]["omega"] == 0.5
        assert sorted(report["results"]["phases"])[1] == pytest.approx(0.25, abs=1e-5)

    def test_unknown_config_key_rejected(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        result = runner.invoke(main, ["holonomy", "--config", str(cfg),
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "unknown config key" in result.output

    def test_bad_flag_value_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["holonomy", "--steps", "not-a-number",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("key, value", [("steps", "abc"), ("model", 5)])
    def test_config_value_typed_like_flag(self, runner, tmp_path, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        result = runner.invoke(main, ["holonomy", "--config", str(cfg),
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert key in result.output and str(value) in result.output

    @pytest.mark.parametrize("args", [
        ["connection", "--at", "1,0.7,0.3"],
        ["curvature-map", "--axes", "theta,phi", "--u-range", "0.1,3.0",
         "--v-range", "0,0", "--grid", "5x1", "--level", "1"],
        ["nast-check", "--surface", "wedge", "--omega", "1.2", "--grid", "6"],
    ])
    def test_report_config_feeds_back(self, runner, tmp_path, args):
        out = tmp_path / "out"
        run_ok(runner, args + ["--out", str(out)])
        first = load_report(out)
        csv_before = {p.name: p.read_bytes() for p in out.glob("*.csv")}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(first["config"]))
        run_ok(runner, [args[0], "--config", str(cfg), "--out", str(out)])
        second = load_report(out)
        assert second["config"] == first["config"]
        assert json.dumps(second["results"]) == json.dumps(first["results"])
        assert {p.name: p.read_bytes() for p in out.glob("*.csv")} == csv_before


class TestCurvatureMap:
    def test_su2_polar_profile(self, runner, tmp_path):
        run_ok(runner, [
            "curvature-map", "--model", "su2", "--l", "0.5",
            "--axes", "theta,phi", "--u-range", "0.1,3.0", "--v-range", "0,0",
            "--grid", "10x1", "--level", "1", "--out", str(tmp_path),
        ])
        with (tmp_path / "curvature_map.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        for row in rows:
            theta = float(row["lambda_2"])
            assert row["status"] == "ok"
            assert float(row["W"]) == pytest.approx(-0.5 * np.sin(theta), abs=1e-6)

    def test_constant_family_zero_map(self, runner, tmp_path):
        model_path = tmp_path / "const.model"
        model_path.write_text(CONSTANT_MODEL)
        run_ok(runner, [
            "curvature-map", "--model", f"file:{model_path}", "--at", "0",
            "--axes", "a,a", "--u-range", "0,1", "--v-range", "0,1",
            "--grid", "3x3", "--out", str(tmp_path),
        ])
        with (tmp_path / "curvature_map.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["W"]) == 0.0 for r in rows if r["status"] == "ok")

    def test_oscillator_level_ratios(self, runner, tmp_path):
        run_ok(runner, [
            "curvature-map", "--model", "oscillator", "--at", "2,0,1",
            "--axes", "Y,Z", "--u-range", "0.2,0.6", "--v-range", "1.2,1.6",
            "--grid", "3x3", "--out", str(tmp_path),
        ])
        with (tmp_path / "curvature_map.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        by_cell = {}
        for row in rows:
            by_cell.setdefault((row["u"], row["v"]), {})[int(row["level"])] = float(row["W"])
        for values in by_cell.values():
            for n in range(1, 12):
                assert values[n] / values[0] == pytest.approx(2 * n + 1, abs=1e-4)

    def test_degenerate_cells_flagged(self, runner, tmp_path):
        model_path = tmp_path / "toy.model"
        model_path.write_text(TOY_MODEL)
        # a sweep crossing no degeneracy plus a constant family row at the
        # degenerate point: use the oscillator domain edge instead
        run_ok(runner, [
            "curvature-map", "--model", "oscillator", "--at", "1,0,1",
            "--axes", "Y,Z", "--u-range", "0,2", "--v-range", "0.5,0.5",
            "--grid", "4x1", "--level", "0", "--out", str(tmp_path),
        ])
        with (tmp_path / "curvature_map.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        statuses = {row["status"] for row in rows}
        assert "DomainViolationError" in statuses  # Y too large for Z*X
        assert "ok" in statuses


class TestDrive:
    def test_frozen_schedule_constant_fidelity(self, runner, tmp_path):
        run_ok(runner, ["drive", "--sweep-theta", "0.8,0.8", "--tau", "0.2",
                        "--dt", "0.001", "--out", str(tmp_path)])
        with (tmp_path / "trajectory.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["fidelity"]) > 1 - 1e-10 for r in rows)

    def test_no_cd_control_loses_fidelity(self, runner, tmp_path):
        run_ok(runner, ["drive", "--sweep-theta", "0,1.5707963", "--tau", "0.1",
                        "--dt", "0.0001", "--level", "1", "--no-cd",
                        "--out", str(tmp_path)])
        report = load_report(tmp_path)
        assert report["results"]["min_fidelity"] < 0.99

    def test_cd_holds_fidelity(self, runner, tmp_path):
        run_ok(runner, ["drive", "--sweep-theta", "0,1.5707963", "--tau", "1.0",
                        "--dt", "0.001", "--level", "1", "--out", str(tmp_path)])
        report = load_report(tmp_path)
        assert report["results"]["min_fidelity"] >= 1 - 1e-6


class TestOtherCommands:
    def test_validate_model(self, runner, tmp_path):
        model_path = tmp_path / "toy.model"
        model_path.write_text(TOY_MODEL)
        run_ok(runner, ["validate-model", "--file", str(model_path),
                        "--out", str(tmp_path)])
        report = load_report(tmp_path)
        assert report["results"]["dim"] == 2
        assert report["results"]["round_trip_ok"] is True

    def test_validate_model_bad_file_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("dim = 2\nparams = a\nterm 0\n1 0 0\n0 1 0\n")
        result = runner.invoke(main, ["validate-model", "--file", str(bad),
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "line" in result.output

    def test_nast_check(self, runner, tmp_path):
        run_ok(runner, ["nast-check", "--model", "su2", "--l", "0.5",
                        "--surface", "cap", "--omega", "1.5707963", "--grid", "30",
                        "--out", str(tmp_path)])
        report = load_report(tmp_path)
        assert report["results"]["nast_residual"] <= 1e-3

    @pytest.mark.parametrize("l", ["0.5", "1"])
    @pytest.mark.parametrize("surface", ["cap", "wedge"])
    def test_nast_check_reads_pole_patches_as_before(self, runner, tmp_path, surface, l):
        # a patch from the pole starts where the eigenframe is exactly the
        # computational basis, for spin 1/2 as for spin 1: the read-out in
        # that frame is the plain diagonal of the product, bit for bit
        from adiaconn.geometry import su2_cap_patch, su2_wedge_patch
        from adiaconn.models import Su2Model
        from adiaconn.nast import surface_ordered_product

        run_ok(runner, ["nast-check", "--model", "su2", "--l", l, "--surface", surface,
                        "--omega", "1.1", "--grid", "8", "--out", str(tmp_path)])
        patch = {"cap": su2_cap_patch, "wedge": su2_wedge_patch}[surface](1.1, grid=(8, 8))
        w = surface_ordered_product(Su2Model(float(l)), patch).operator.matrix
        results = load_report(tmp_path)["results"]
        assert results["surface_phases"] == np.angle(np.diag(w)).tolist()
        assert results["surface_offdiag"] == np.max(np.abs(w - np.diag(np.diag(w))))

    def test_nast_check_reads_the_product_as_holonomy_does(self, runner, tmp_path):
        # off the pole the base frame is not the computational basis; the
        # product is read by the same constructor as a loop holonomy
        from adiaconn.curvature import SurfacePatch
        from adiaconn.models import Su2Model
        from adiaconn.nast import surface_ordered_product
        from adiaconn.transport import HolonomyResult

        path = tmp_path / "patch.json"
        path.write_text(json.dumps({"origin": [1.0, 0.4, 0.1], "edge_u": [0.0, 0.5, 0.0],
                                    "edge_v": [0.0, 0.0, 0.6]}))
        run_ok(runner, ["nast-check", "--surface", f"file:{path}", "--grid", "10",
                        "--out", str(tmp_path)])
        model = Su2Model(0.5)
        patch = SurfacePatch([1.0, 0.4, 0.1], [0.0, 0.5, 0.0], [0.0, 0.0, 0.6], (10, 10))
        read = HolonomyResult.in_base_frame(surface_ordered_product(model, patch).operator,
                                            model.spectral_at(patch.origin).frame)
        results = load_report(tmp_path)["results"]
        assert results["surface_phases"] == read.phases.tolist()
        assert results["surface_offdiag"] == read.offdiag_residual

    def test_flatness(self, runner, tmp_path):
        run_ok(runner, ["flatness", "--loop", "triangle", "--omega", "1.5707963",
                        "--time", "1.7", "--steps", "1500", "--out", str(tmp_path)])
        report = load_report(tmp_path)
        assert report["results"]["flatness_residual"] < 1e-4
        phases = sorted(report["results"]["averaged_connection_phases"])
        assert phases[1] == pytest.approx(np.pi / 4, abs=1e-5)

    def test_berry_surface(self, runner, tmp_path):
        run_ok(runner, ["berry-surface", "--surface", "cap", "--omega",
                        "1.5707963", "--grid", "80", "--level", "1",
                        "--out", str(tmp_path)])
        report = load_report(tmp_path)
        assert report["results"]["phase"] == pytest.approx(-np.pi / 4, abs=1e-3)

    def test_time_average(self, runner, tmp_path):
        run_ok(runner, ["time-average", "--model", "su2", "--at", "1,1.1,0.4",
                        "--horizon", "150", "--out", str(tmp_path)])
        report = load_report(tmp_path)
        assert report["results"]["deviation_from_spectral"] < 0.05

    def test_transport_sweep(self, runner, tmp_path):
        run_ok(runner, ["transport", "--sweep-theta", "0,1.1", "--steps", "400",
                        "--out", str(tmp_path)])
        report = load_report(tmp_path)
        assert report["results"]["transported_eigenvector_residual"] < 1e-6

    def test_shift(self, runner, tmp_path):
        run_ok(runner, ["shift", "--model", "su2", "--at", "1.3,0.9,0.2",
                        "--out", str(tmp_path)])
        report = load_report(tmp_path)
        slopes = np.array(report["results"]["level_slopes"])
        assert np.allclose(slopes[:, 0], [-0.5, 0.5], atol=1e-10)

    def test_missing_loop_file_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["holonomy", "--loop", "file:/nope.json",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [["holonomy", "--loop"], ["transport", "--path-file"],
                                      ["nast-check", "--surface"]])
    def test_geometry_file_not_an_object_exits_2(self, runner, tmp_path, args):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        source = str(bad) if args[0] == "transport" else f"file:{bad}"
        result = runner.invoke(main, args + [source, "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "cannot load" in result.output

    @pytest.mark.parametrize("surface", [
        {"origin": 2.0, "edge_u": 0.25, "edge_v": 0.25},
        {"origin": [2.0, 0.3, 1.4], "edge_u": [0, 0.25, 0], "edge_v": [[0, 0, 0.1]]},
        {"origin": [2.0, 0.3, 1.4], "edge_u": [0, 0.25, 0], "edge_v": [0, 0, 0]},
    ])
    def test_surface_file_without_vectors_exits_2(self, runner, tmp_path, surface):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(surface))
        result = runner.invoke(main, ["berry-surface", "--model", "oscillator", "--surface",
                                      f"file:{path}", "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert f"cannot load surface from {path}" in result.output


CMAP = ["curvature-map", "--axes", "theta,phi", "--u-range", "0,1", "--v-range", "0,0"]


@pytest.mark.parametrize("args", [
    ["holonomy", "--steps", "0"],
    ["nast-check", "--surface", "cap", "--omega", "1", "--grid", "0"],
    ["drive", "--level", "5"],
    ["drive", "--stride", "0"],
    ["drive", "--stride", "-3"],
    ["drive", "--tau", "inf"],
    ["drive", "--tau", "nan"],
    ["drive", "--tau", "0"],
    ["drive", "--dt", "inf"],
    ["drive", "--dt", "nan"],
    ["drive", "--l", "inf"],
    ["curvature", "--l", "inf"],
    ["curvature", "--fd-step", "0"],
    ["curvature", "--fd-step", "nan"],
    ["curvature", "--fd-step", "1e-300"],
    ["flatness", "--time", "nan"],
    ["berry-surface", "--level", "5"],
    CMAP + ["--level", "7"],
    CMAP + ["--grid", "0x2"],
    ["time-average", "--horizon", "inf"],
    ["time-average", "--horizon", "nan"],
    ["time-average", "--horizon", "0"],
    ["time-average", "--samples", "1"],
    ["berry-surface", "--check-tol", "nan"],
    ["berry-surface", "--check-tol", "inf"],
    ["berry-surface", "--check-tol", "-1"],
])
def test_out_of_range_input_exits_2(runner, tmp_path, args):
    result = runner.invoke(main, args + ["--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert "Error:" in result.output


@pytest.mark.parametrize("args", [
    ["connection", "--theta", "1.0"],
    ["shift", "--b", "1.0"],
    ["time-average", "--phi", "0.3"],
    ["curvature", "--model", "oscillator", "--x", "1.0"],
    ["curvature-map", "--model", "oscillator", "--y", "0.1"],
    ["connection", "--model", "oscillator", "--z", "1.0"],
    ["holonomy", "--seed", "1"],
    ["validate-model", "--seed", "1"],
    ["nast-check", "--cap", "1.0"],
    ["nast-check", "--wedge", "1.0"],
], ids=lambda args: f"{args[0]}{args[-2]}")
def test_removed_spelling_exits_2(runner, tmp_path, args):
    # one spelling per input: --at for points, --surface/--omega for surfaces
    result = runner.invoke(main, args + ["--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert "No such option" in result.output and args[-2] in result.output


REFUSALS = [
    # args ({dir} holds toy.model and list.json), exit code, message
    (["connection", "--at", "1,2"], 2, "--at needs 3 components, got 2"),
    (["connection", "--at", "1,x,0"], 2, "cannot parse --at '1,x,0'"),
    (["connection", "--model", "file:{dir}/none.model", "--at", "0"], 2,
     "model file {dir}/none.model does not exist"),
    (["connection", "--model", "file:{dir}/toy.model"], 2, "file models need an explicit --at point"),
    (["holonomy", "--model", "oscillator"], 2,
     "the triangle loop generator is specific to the su2 model"),
    (["wilson", "--model", "oscillator", "--loop", "circle"], 2,
     "the circle loop generator is specific to the su2 model"),
    (["berry-surface", "--model", "oscillator"], 2,
     "the cap surface generator is specific to the su2 model"),
    (["nast-check", "--model", "oscillator", "--surface", "wedge"], 2,
     "the wedge surface generator is specific to the su2 model"),
    (["holonomy", "--loop", "square"], 2,
     "unknown loop 'square'; use triangle, circle, or file:<path>"),
    (["nast-check", "--surface", "disk"], 2,
     "unknown surface 'disk'; use cap, wedge, or file:<path>"),
    (["holonomy", "--config", "{dir}/none.json"], 2, "cannot read config {dir}/none.json"),
    (["holonomy", "--config", "{dir}/list.json"], 2, "config file must hold a JSON object"),
    (["validate-model", "--file", "{dir}/toy.model", "--config", "{dir}/null-file.json"], 2,
     "config key 'file' must not be null"),
    (["curvature-map"], 2, "curvature-map needs --axes (two parameter names)"),
    (["curvature-map", "--axes", "theta,psi"], 2, "--axes must name two of ['B', 'theta', 'phi']"),
    (["curvature-map", "--axes", "theta"], 2, "--axes must name two of ['B', 'theta', 'phi']"),
    (["curvature-map", "--axes", "theta,phi", "--u-range", "0,1"], 2,
     "curvature-map needs --u-range and --v-range"),
    (CMAP[:3] + ["--u-range", "0,1,2", "--v-range", "0,0"], 2, "--u-range needs 2 components, got 3"),
    (CMAP + ["--grid", "40by20"], 2, "--grid must look like 40x20"),
    (["transport"], 2, "provide --path-file or --sweep-theta"),
    (["transport", "--model", "oscillator", "--sweep-theta", "0,1"], 2,
     "--sweep-theta is specific to the su2 model"),
    (["drive", "--model", "oscillator"], 2, "--sweep-theta is specific to the su2 model"),
    (["drive", "--sweep-theta", "0"], 2, "--sweep-theta needs 2 components, got 1"),
    # numerical failures: an unbound oscillator point, a sweep through the field zero
    (["curvature", "--model", "oscillator", "--at", "1,2,1"], 3,
     "numerical failure: OscillatorModel: point [1.0, 2.0, 1.0] outside model domain"),
    (["transport", "--path-file", "{dir}/through-zero.json", "--steps", "4"], 3,
     "numerical failure:"),
]


@pytest.mark.parametrize("args, code, message", REFUSALS,
                         ids=[f"{i:02d}-{r[0][0]}" for i, r in enumerate(REFUSALS)])
def test_refusal_names_its_cause(runner, tmp_path, args, code, message):
    (tmp_path / "toy.model").write_text(TOY_MODEL)
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "null-file.json").write_text('{"file": null}')
    (tmp_path / "through-zero.json").write_text('{"samples": [[-1, 1, 0], [1, 1, 0]]}')
    args = [a.replace("{dir}", str(tmp_path)) for a in args]
    result = runner.invoke(main, args + ["--out", str(tmp_path / "out")])
    assert result.exit_code == code, result.output
    assert message.replace("{dir}", str(tmp_path)) in result.output
    assert not (tmp_path / "out" / "report.json").exists()


def test_circle_loop(runner, tmp_path):
    from adiaconn.reference import su2_triangle_phases

    theta0 = 0.7
    run_ok(runner, ["holonomy", "--l", "1", "--loop", "circle", "--theta0", str(theta0),
                    "--steps", "1500", "--out", str(tmp_path)])
    phases = load_report(tmp_path)["results"]["phases"]
    # the circle encloses the solid angle 2 pi (1 - cos theta0)
    want = su2_triangle_phases(1.0, 2 * np.pi * (1 - np.cos(theta0)))
    assert np.max(_wrapped(phases, want)) < 1e-5


def test_wedge_surface(runner, tmp_path):
    from adiaconn.reference import su2_triangle_phases

    run_ok(runner, ["berry-surface", "--l", "1", "--surface", "wedge", "--omega", "1.2",
                    "--grid", "60", "--level", "2", "--out", str(tmp_path)])
    # the wedge is the surface of the triangle loop of the same span
    assert abs(load_report(tmp_path)["results"]["phase"] - su2_triangle_phases(1.0, 1.2)[2]) < 1e-4


def test_file_surface_on_both_sides_of_stokes(runner, tmp_path):
    # the patch theta in [0.4, 0.9], phi in [0.1, 0.7] of the (B, theta, phi) chart
    path = tmp_path / "patch.json"
    path.write_text(json.dumps({"origin": [1.0, 0.4, 0.1], "edge_u": [0, 0.5, 0],
                                "edge_v": [0, 0, 0.6]}))
    surface = f"file:{path}"
    run_ok(runner, ["berry-surface", "--surface", surface, "--grid", "30", "--level", "1",
                    "--out", str(tmp_path / "surface")])
    run_ok(runner, ["nast-check", "--surface", surface, "--grid", "30",
                    "--out", str(tmp_path / "nast")])
    run_ok(runner, ["berry-surface", "--surface", surface, "--grid", "30", "--level", "0",
                    "--out", str(tmp_path / "surface0")])
    # level m = +1/2 has curvature -m sin(theta)
    flux = -0.5 * (np.cos(0.4) - np.cos(0.9)) * 0.6
    assert abs(load_report(tmp_path / "surface")["results"]["phase"] - flux) < 1e-5
    nast = load_report(tmp_path / "nast")["results"]
    assert nast["nast_residual"] <= 1e-3
    # the product is read out in the eigenframe at the patch origin, as
    # the holonomy is, so both sides of the comparison give each level's
    # flux (the computational basis read +-0.0828 against +-0.0898)
    fluxes = [load_report(tmp_path / d)["results"]["phase"] for d in ("surface0", "surface")]
    assert np.max(np.abs(np.array(nast["surface_phases"]) - fluxes)) < 1e-5
    assert nast["surface_offdiag"] < 1e-5


def test_path_files(runner, tmp_path):
    # the triangle loop, written out as a polyline file, gives the triangle's holonomy
    from adiaconn.geometry import su2_triangle_loop

    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps({"samples": su2_triangle_loop(1.2).samples.tolist()}))
    run_ok(runner, ["holonomy", "--loop", f"file:{loop}", "--steps", "200",
                    "--out", str(tmp_path / "file")])
    run_ok(runner, ["holonomy", "--omega", "1.2", "--steps", "200",
                    "--out", str(tmp_path / "triangle")])
    phases = [load_report(tmp_path / d)["results"]["phases"] for d in ("file", "triangle")]
    assert np.max(_wrapped(*phases)) < 1e-12
    run_ok(runner, ["transport", "--path-file", str(loop), "--steps", "50",
                    "--out", str(tmp_path / "open")])
    assert load_report(tmp_path / "open")["results"]["conjugation_residual"] < 1e-9


def test_module_runs_as_script():
    import subprocess
    import sys

    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-m", "adiaconn.cli", "--version"],
                          capture_output=True, text=True, env={"PYTHONPATH": str(src)})
    assert done.returncode == 0 and "version" in done.stdout


def readme_cli_examples():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    lines = section.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("adiaconn ")]


def test_readme_cli_examples_parse():
    examples = readme_cli_examples()
    assert sorted(args[0] for args in examples) == sorted(main.commands)
    for args in examples:
        # parse only: make_context converts every flag but runs nothing
        with main.make_context("adiaconn", list(args)) as ctx:
            name, cmd, rest = main.resolve_command(ctx, args)
            cmd.make_context(name, rest, parent=ctx)


def _wrapped(a, b):
    return np.abs(np.angle(np.exp(1j * (np.asarray(a) - np.asarray(b)))))


def _check_connection(results, out):
    from adiaconn.reference import su2_analytic_connection

    ref = su2_analytic_connection(1.0, 1.0, 0.3)
    for name, want in zip(("B", "theta", "phi"), ref.components):
        assert np.linalg.norm(as_complex(results["components"][name]) - want) < 1e-10


def _check_shift(results, out):
    # E_m = m B mu: dE/dB = m, and the angles leave the levels unchanged
    m = np.array([-1.0, 0.0, 1.0])
    assert np.allclose(results["level_slopes"], np.column_stack([m, 0 * m, 0 * m]),
                       rtol=0, atol=1e-12)
    assert np.allclose(results["eigenvalues"], 1.3 * m, rtol=0, atol=1e-12)


def _check_time_average(results, out):
    from adiaconn.reference import su2_analytic_connection

    ref = su2_analytic_connection(0.5, 1.1, 0.4)
    for name, want in zip(("B", "theta", "phi"), ref.components):
        got = as_complex(results["components"][name])
        assert np.linalg.norm(got - want) <= results["error_estimate"]


def _check_transport(results, out):
    from adiaconn.operator_core import expm_hermitian
    from adiaconn.reference import su2_analytic_connection

    # along the phi = 0 meridian A_theta = -J_phi is constant, so the
    # transport is exp(i A_theta * (1.1 - 0.2)) exactly
    a_theta = su2_analytic_connection(1.0, 0.5, 0.0).components[1]
    want = expm_hermitian(a_theta, 0.9).matrix
    assert np.max(np.abs(as_complex(results["operator"]) - want)) < 1e-12
    assert results["transported_eigenvector_residual"] < 1e-12


def _check_loop_phases(key):
    def check(results, out):
        from adiaconn.reference import su2_triangle_phases

        assert np.max(_wrapped(results[key], su2_triangle_phases(1.0, 1.2))) < 1e-9
    return check


def _check_holonomy(results, out):
    _check_loop_phases("phases")(results, out)
    assert results["reliable"] and results["offdiag_residual"] < 1e-9


def _check_curvature(results, out):
    from adiaconn.reference import su2_analytic_curvature, su2_berry_curvature

    ref = su2_analytic_curvature(1.0, 1.0, 0.3)
    # the components come from a central stencil with noise near 1e-10
    for key, pair in (("B_theta", (0, 1)), ("B_phi", (0, 2)), ("theta_phi", (1, 2))):
        assert np.max(np.abs(as_complex(results["components"][key]) - ref.components[pair])) < 1e-8
    assert results["diagonality_residual"] < 1e-8
    levels = results["berry_levels"]
    assert np.allclose(levels["theta_phi"], su2_berry_curvature(1.0, 1.0), rtol=0, atol=1e-12)
    assert np.allclose([levels["B_theta"], levels["B_phi"]], 0.0, rtol=0, atol=1e-12)


def _check_curvature_map(results, out):
    from adiaconn.reference import su2_berry_curvature

    with (out / "curvature_map.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6 * 3 and results["cells_ok"] == 6
    for row in rows:
        want = su2_berry_curvature(1.0, float(row["lambda_2"]))[int(row["level"])]
        assert row["status"] == "ok" and abs(float(row["W"]) - want) < 1e-9


def _check_berry_surface(results, out):
    from adiaconn.reference import su2_triangle_phases

    # a cap of solid angle 1.2 encloses the triangle's flux
    assert abs(results["phase"] - su2_triangle_phases(1.0, 1.2)[2]) < 1e-4


def _check_nast(results, out):
    from adiaconn.reference import su2_triangle_phases

    assert results["nast_residual"] <= 1e-3
    assert np.max(_wrapped(results["surface_phases"], su2_triangle_phases(0.5, 1.2))) <= 1e-3


def _check_flatness(results, out):
    from adiaconn.reference import su2_triangle_phases

    assert results["flatness_residual"] < 1e-4
    assert np.max(_wrapped(results["averaged_connection_phases"],
                           su2_triangle_phases(1.0, 1.2))) < 1e-9


def _check_drive(results, out):
    # level 1 of spin 1/2 rides E = +B mu / 2 for tau = 0.5: no geometric
    # phase along a meridian, so the phase is the dynamical -E tau
    assert results["min_fidelity"] >= 1 - 1e-6
    assert _wrapped(results["final_phase"], -0.25) < 1e-9
    assert (out / "trajectory.csv").stat().st_size > 0


def _check_validate_model(results, out):
    assert results == {"dim": 2, "params": ["a"], "n_terms": 2, "exponents": [[0], [1]],
                       "round_trip_ok": True}


LOOP = ["--l", "1", "--omega", "1.2"]
SUCCESS_RUNS = {
    "connection": (["--l", "1", "--at", "1,1,0.3"], _check_connection),
    "shift": (["--l", "1", "--at", "1.3,0.9,0.2"], _check_shift),
    "time-average": (["--at", "1,1.1,0.4", "--horizon", "150"], _check_time_average),
    "transport": (["--l", "1", "--sweep-theta", "0.2,1.1", "--steps", "200"], _check_transport),
    "holonomy": (LOOP + ["--steps", "200"], _check_holonomy),
    "wilson": (LOOP + ["--steps", "200"], _check_loop_phases("phases")),
    "curvature": (["--l", "1", "--at", "1,1,0.3"], _check_curvature),
    "curvature-map": (["--l", "1", "--axes", "theta,phi", "--u-range", "0.1,3",
                       "--v-range", "0,0", "--grid", "6x1"], _check_curvature_map),
    "berry-surface": (["--l", "1", "--surface", "cap", "--omega", "1.2", "--grid", "40",
                       "--level", "2"], _check_berry_surface),
    "nast-check": (["--surface", "cap", "--omega", "1.2", "--grid", "30"], _check_nast),
    "flatness": (LOOP + ["--steps", "300"], _check_flatness),
    "drive": (["--tau", "0.5", "--dt", "0.001", "--level", "1"], _check_drive),
    "validate-model": ([], _check_validate_model),
}


@pytest.mark.parametrize("name", sorted(main.commands))
def test_every_command_runs_to_success(runner, tmp_path, name):
    # a command added without an entry here fails this test
    assert sorted(SUCCESS_RUNS) == sorted(main.commands) and len(main.commands) == 13
    args, check = SUCCESS_RUNS[name]
    if name == "validate-model":
        model_path = tmp_path / "toy.model"
        model_path.write_text(TOY_MODEL)
        args = ["--file", str(model_path)]
    out = tmp_path / "out"
    run_ok(runner, [name, *args, "--out", str(out)])
    report = load_report(out)
    assert report["command"] == name and report["status"] == "ok"
    check(report["results"], out)
