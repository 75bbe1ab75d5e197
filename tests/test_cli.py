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


def load_report(outdir):
    return json.loads((outdir / "report.json").read_text())


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
        for key in ("model", "l", "mu", "omega", "theta0", "b", "steps", "seed"):
            assert key in config


class TestConnectionCommand:
    def test_matches_reference(self, runner, tmp_path):
        from adiaconn.reference import su2_analytic_connection

        run_ok(runner, ["connection", "--model", "su2", "--l", "0.5",
                        "--at", "1.0,1.0,0.3", "--out", str(tmp_path)])
        report = load_report(tmp_path)
        ref = su2_analytic_connection(0.5, 1.0, 1.0, 0.3)
        for name, want in zip(("B", "theta", "phi"), ref.components):
            got = as_complex(report["results"]["components"][name])
            assert np.linalg.norm(got - want) < 1e-10
        assert report["results"]["zero_diagonal_residual"] < 1e-10

    def test_coordinate_flags(self, runner, tmp_path):
        run_ok(runner, ["connection", "--model", "su2", "--l", "0.5",
                        "--theta", "1.0", "--phi", "0.3", "--out", str(tmp_path)])
        report = load_report(tmp_path)
        assert report["config"]["at"] == [1.0, 1.0, 0.3]

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
        ["connection", "--theta", "0.7", "--phi", "0.3"],
        ["curvature-map", "--axes", "theta,phi", "--u-range", "0.1,3.0",
         "--v-range", "0,0", "--grid", "5x1", "--level", "1"],
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
                        "--cap", "1.5707963", "--grid", "30",
                        "--out", str(tmp_path)])
        report = load_report(tmp_path)
        assert report["results"]["nast_residual"] <= 1e-3

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
    ["nast-check", "--cap", "1", "--grid", "0"],
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
    ["berry-surface", "--level", "5"],
    CMAP + ["--level", "7"],
    CMAP + ["--grid", "0x2"],
])
def test_out_of_range_input_exits_2(runner, tmp_path, args):
    result = runner.invoke(main, args + ["--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert "Error:" in result.output


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
