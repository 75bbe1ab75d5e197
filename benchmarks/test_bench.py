"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import bench_trace
import bench_workloads as bw
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


@pytest.fixture(scope="module")
def ac():
    return bw.import_program(SRC, with_cli=True)


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] -> a [1, 4], b [5, 9] -> c [6, 7]; a and b share a layer.
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    layer = [0, 1, 1, 2]
    totals = bench_trace.layer_totals(start, end, parent, layer, 3, n3=[0, 8, 8, 0])
    assert totals["calls"].tolist() == [1, 2, 1]
    assert totals["total_s"].tolist() == [10.0, 7.0, 1.0]
    assert totals["self_s"].tolist() == [3.0, 6.0, 1.0]
    assert totals["n3"].tolist() == [0.0, 16.0, 0.0]


def test_tracer_records_nested_wrapped_calls():
    class Host:
        @staticmethod
        def inner():
            time.sleep(0.001)

        @staticmethod
        def outer():
            Host.inner()
            Host.inner()

    tracer = bench_trace.Tracer()
    outer_id, inner_id = tracer.layer_id("outer"), tracer.layer_id("inner")
    Host.inner = staticmethod(tracer._wrapper(Host.inner, inner_id, "plain"))
    Host.outer = staticmethod(tracer._wrapper(Host.outer, outer_id, "plain"))
    tracer.begin_pass()
    with tracer.span("op.test"):
        Host.outer()
    tracer.end_pass()
    totals = bench_trace.pass_totals(tracer, tracer.passes[0])
    assert totals["outer"]["calls"] == 1 and totals["inner"]["calls"] == 2
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["total_s"] - totals["inner"]["total_s"])
    assert list(tracer.op) == [0, 0, 0, 0]


def test_missing_layer_is_reported_absent(ac, monkeypatch):
    monkeypatch.delattr(ac.nast, "nast_residual")
    tracer = bench_trace.Tracer()
    tracer.install()
    tracer.uninstall()
    assert any(a.startswith("nast.nast_residual") for a in tracer.absent)


def test_oscillator_flux_oracle_matches_criterion_5_holonomy(ac):
    origin = bw.OSC_CENTER
    flux = bw.osc_flux(origin, bw.OSC_EDGE, bw.OSC_LEVELS)
    model = ac.models.OscillatorModel(bw.OSC_NMAX, bw.OSC_BUFFER)
    reference = ac.reference.oscillator_berry_levels(*origin, bw.OSC_LEVELS)
    assert np.allclose(bw.osc_curvature_yz(origin, bw.OSC_LEVELS),
                       reference.table[:, reference.pairs.index((1, 2))], rtol=1e-14)
    loop = ac.geometry.planar_rectangle_loop(
        origin, [0.0, bw.OSC_EDGE, 0.0], [0.0, 0.0, bw.OSC_EDGE], refinement=500)
    phases = ac.transport.holonomy(model, loop).phases[: bw.OSC_LEVELS]
    assert bw.wrapped_gap(phases, flux) < 1e-12


@pytest.mark.parametrize("name", sorted(bw.WORKLOADS))
def test_smoke_pass_meets_every_check(ac, name, tmp_path):
    workload = bw.WORKLOADS[name]
    prepared = workload.build(ac, workload.inputs(3), bw.SMOKE_SIZES[name], tmp_path)
    result = run.run_pass(prepared)
    assert [o.name for o in result.ops] == [op.name for op in prepared.ops]
    for op in result.ops:
        assert op.message == ""
        assert op.checks and all(c.passed for c in op.checks), op.checks


def test_inputs_depend_on_seed_only():
    for workload in bw.WORKLOADS.values():
        a, b = workload.inputs(7), workload.inputs(7)
        assert json.dumps(a, default=str) == json.dumps(b, default=str)
        assert json.dumps(a, default=str) != json.dumps(workload.inputs(8), default=str)


def test_traced_counts_repeat_and_cover_layer_metrics(ac, tmp_path):
    workload = bw.WORKLOADS["su2-drive"]
    inputs = workload.inputs(1)

    def traced_counts():
        prepared = workload.build(ac, inputs, bw.SMOKE_SIZES["su2-drive"], tmp_path)
        _, passes, tracer, per_pass, _ = run.traced_run(
            prepared, lambda: prepared, 0.0, time.monotonic(), bench_trace)
        assert tracer.absent == []
        assert all(op.ok for p in passes for op in p.ops)
        return per_pass

    first, second = traced_counts(), traced_counts()
    assert run.count_keys(first[0]) == run.count_keys(first[1]) == run.count_keys(second[0])
    missing = set(run.PER_LAYER) - set(first[0]) - {"trace.overhead_frac"}
    assert {m for m in missing if not m.startswith("oracle.")} == set()
    assert first[0]["operator_core.eigh.calls"] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == list(run.PER_LAYER.values())
    assert [w["name"] for w in spec["workloads"]] == list(bw.WORKLOADS)


def test_refuses_to_run_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "su2-loops",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
