#!/usr/bin/env python3
"""adiaconn benchmark: one workload, one seed, one closed-loop client.

    python3 benchmarks/run.py --workload su2-loops --seed 1 --seconds 22 --trace 0

Run from a checkout of the repository: the library is imported from
``src/`` of the same checkout, never from an installed copy.  The
benchmark pins the BLAS thread count before NumPy loads, builds the
workload's inputs from the seed, times the set-up several times, then
repeats whole passes over the workload's operations until ``--seconds``
have elapsed.  Every operation's output is checked against a closed form.
A probe process on the same CPU (``bench_probe.py``) tracks the machine's
speed; operation timings are CPU time scaled by it (see README.md).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then wraps the library's public names (see
``bench_trace.LAYERS``) and reports per-layer counts and self times.

The human-readable report goes to standard output first; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller record (environment, per-operation timings, every
check, every traced layer) is written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

BLAS_THREADS_MAX = 1
WARMUP_S = 1.0
SETUP_REPS = 5
MIN_TRACED_PASSES = 2
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Layer metrics reported in the final JSON of a traced run.  Self times of
# layers that some workload never enters (transport.holonomy,
# curvature.*, nast.*, geometry, cli.*) are printed and written to the
# trace record instead, since on those workloads they are a constant 0.
PER_LAYER = {
    "operator_core.eigh.calls": "count",
    "operator_core.eigh.s": "s",
    "operator_core.eigh.n3": "count",
    "operator_core.fix_phase.calls": "count",
    "operator_core.fix_phase.s": "s",
    "operator_core.expm_hermitian.calls": "count",
    "operator_core.unitary_check.calls": "count",
    "operator_core.unitary_check.s": "s",
    "models.eval_h.calls": "count",
    "models.eval_h.s": "s",
    "models.grad_h.calls": "count",
    "models.grad_h.s": "s",
    "models.spectral_at.calls": "count",
    "models.spectral_at.s": "s",
    "models.spectral_at.distinct_frac": "1",
    "connection.connection_spectral.calls": "count",
    "connection.connection_spectral.s": "s",
    "transport.s": "s",
    "curvature.patch_point.calls": "count",
    "points": "count",
    "trace.overhead_frac": "1",
    "oracle.holonomy_err_rad": "rad",
    "oracle.wilson_err_rad": "rad",
    "oracle.surface_err_rad": "rad",
    "oracle.nast_residual": "1",
    "oracle.fidelity_loss": "1",
    "oracle.drive_phase_err_rad": "rad",
    "oracle.control_fidelity_loss": "1",
}

# Per-pass counts recorded in reference_counts.json for some seeds; a
# traced run with a recorded seed prints any difference.
REFERENCE_COUNTS = (
    "points",
    "operator_core.eigh.calls",
    "operator_core.eigh.n3",
    "models.spectral_at.calls",
    "models.spectral_at.distinct_frac",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("su2-loops", "osc60-loops", "su2-drive"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def pin_process() -> tuple:
    """Keep the process on one CPU and fix the BLAS thread count; both
    must happen before NumPy is imported.

    On a shared virtual machine the CPUs can run at different speeds at
    the same moment; letting the scheduler move the process between them
    makes timings jump by tens of percent.
    """
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[0]
    os.sched_setaffinity(0, {cpu})
    threads = max(1, min(BLAS_THREADS_MAX, len(allowed)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads, cpu


def blas_runtime_threads():
    """Thread count reported by the OpenBLAS bundled with NumPy, if found."""
    import ctypes
    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(threads: int, cpu, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # NumPy < 1.25 prints its configuration only
        blas = {}
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "adiaconn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_pinned": threads,
        "blas_threads_runtime": blas_runtime_threads(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    name: str
    start: float  # time.monotonic()
    seconds: float  # wall clock
    cpu_seconds: float  # CPU time of this process
    points: int
    ok: bool
    checks: list
    errors: dict
    message: str = ""
    speed: float = 1.0  # machine speed during the operation (bench_probe)

    @property
    def calibrated_seconds(self) -> float:
        return self.cpu_seconds * self.speed


@dataclass
class PassResult:
    ops: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(o.seconds for o in self.ops)

    @property
    def calibrated_seconds(self) -> float:
        return sum(o.calibrated_seconds for o in self.ops)

    @property
    def points(self) -> int:
        return sum(o.points for o in self.ops)


def run_pass(prepared, tracer=None) -> PassResult:
    """Run every operation once, each starting when the previous ends."""
    result = PassResult()
    for op in prepared.ops:
        checks, errors, message = [], {}, ""
        t0, c0 = time.monotonic(), time.process_time()
        try:
            if tracer is None:
                value = op.run()
            else:
                with tracer.span(f"op.{op.name}"):
                    value = op.run()
            elapsed, cpu = time.monotonic() - t0, time.process_time() - c0
            checks, errors = op.check(value)
            ok = all(c.passed for c in checks)
        # A failing operation is counted and reported; the run goes on.
        except (Exception, SystemExit):
            elapsed, cpu = time.monotonic() - t0, time.process_time() - c0
            ok, message = False, traceback.format_exc()
        result.ops.append(OpResult(op.name, t0, elapsed, cpu, op.points, ok, checks, errors,
                                   message))
    return result


def tail_percentile(samples):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(samples)
    for q in PERCENTILES:
        if n * (1.0 - q / 100.0) >= 10:
            ordered = sorted(samples)
            return f"p{q:g}", ordered[min(n - 1, int(round(q / 100.0 * (n - 1))))]
    return None, None


def timing_row(name, samples, unit):
    label, value = tail_percentile(samples)
    return {"name": name, "value": statistics.median(samples), "unit": unit,
            "tail": label, "tail_value": value, "n": len(samples)}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def summarize_checks(passes):
    """Per check: passes that met it, passes run, worst value, limit."""
    merged = {}
    for ps in passes:
        for op in ps.ops:
            if op.message:
                entry = merged.setdefault(f"{op.name} completes",
                                          {"ok": 0, "n": 0,
                                           "worst": op.message.strip().splitlines()[-1],
                                           "limit": "must not raise or exit non-zero"})
                entry["n"] += 1
            for c in op.checks:
                entry = merged.setdefault(c.name, {"ok": 0, "n": 0, "worst": c.value,
                                                   "limit": c.limit})
                entry["n"] += 1
                entry["ok"] += int(c.passed)
                entry["worst"] = max(entry["worst"], c.value)
    return merged


def print_table(rows):
    print(f"{'metric':<40} {'median':>14} {'unit':<6} {'tail':>7} {'tail value':>14} {'n':>6}")
    for r in rows:
        tail_value = "n/a" if r["tail_value"] is None else f"{r['tail_value']:.6g}"
        print(f"{r['name']:<40} {r['value']:>14.6g} {r['unit']:<6} {r['tail'] or 'n/a':>7} "
              f"{tail_value:>14} {r['n']:>6}")


def print_checks(merged):
    print("checks:")
    for name, e in merged.items():
        verdict = "PASS" if e["n"] and e["ok"] == e["n"] else "FAIL"
        worst = e["worst"]
        shown = f"{worst:.3e}" if isinstance(worst, float) else str(worst)
        print(f"  {verdict} {name}: worst {shown} ({e['limit']}), "
              f"{e['ok']}/{e['n']} passes")


def count_ops(passes):
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(1 for p in passes for o in p.ops if not o.ok)
    return attempted, failed


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def layer_metrics(tracer, pass_range, pass_result, bench_trace) -> dict:
    totals = bench_trace.pass_totals(tracer, pass_range)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "n3": 0.0}
    out = {}
    for name in tracer.layer_names:
        if name.startswith("op.") or name == "setup":
            continue
        t = totals.get(name, zero)
        out[f"{name}.calls"] = int(t["calls"])
        out[f"{name}.s"] = float(t["self_s"])
    eigh = totals.get("operator_core.eigh", zero)
    out["operator_core.eigh.n3"] = float(eigh["n3"])
    spectral_calls = int(totals.get("models.spectral_at", zero)["calls"])
    out["models.spectral_at.distinct_frac"] = (
        pass_range.distinct_points / spectral_calls if spectral_calls else 0.0)
    out["transport.s"] = float(sum(t["self_s"] for n, t in totals.items()
                                   if n.startswith("transport.")))
    out["points"] = pass_result.points
    for op in pass_result.ops:
        for key, value in op.errors.items():
            out[f"oracle.{key}"] = float(value)
    return out


def traced_run(prepared, rebuild, seconds, start, bench_trace):
    reference = run_pass(prepared)
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        with tracer.span("setup"):
            prepared = rebuild()
        traced = []
        while len(traced) < MIN_TRACED_PASSES or time.monotonic() - start < seconds:
            tracer.begin_pass()
            traced.append(run_pass(prepared, tracer))
            tracer.end_pass()
    finally:
        tracer.uninstall()
    setup_end = tracer.passes[0].first
    setup_totals = bench_trace.layer_totals(
        tracer.start[:setup_end], tracer.end[:setup_end], tracer.parent[:setup_end],
        tracer.layer[:setup_end], len(tracer.layer_names))
    per_pass = [layer_metrics(tracer, r, p, bench_trace) for r, p in zip(tracer.passes, traced)]
    geometry_id = tracer.layer_names.index("geometry") if "geometry" in tracer.layer_names else None
    setup_geometry_s = float(setup_totals["self_s"][geometry_id]) if geometry_id is not None else 0.0
    return reference, traced, tracer, per_pass, setup_geometry_s


def count_keys(metrics: dict):
    return {k: v for k, v in metrics.items()
            if k.endswith(".calls") or k in ("points", "operator_core.eigh.n3",
                                            "models.spectral_at.distinct_frac")}


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "adiaconn" / "__init__.py").is_file():
        print(f"error: library source {SRC / 'adiaconn'} not found; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    threads, cpu = pin_process()

    import numpy as np  # noqa: F401  (loaded after the thread pin)
    import click  # noqa: F401  (dependency; imported before the timed set-up)
    import bench_probe
    import bench_trace
    import bench_workloads as bw

    workload = bw.WORKLOADS[args.workload]
    env = environment(threads, cpu, args.seed)
    inputs = workload.inputs(args.seed)
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"scratch-{os.getpid()}"

    speed_trace = bench_probe.SpeedTrace(cpu, workload.matrix_dim)
    try:
        setup_times = []

        def set_up():
            t0 = time.monotonic()
            ac = bw.import_program(SRC, workload.uses_cli)
            prepared = workload.build(ac, inputs, workload.sizes, scratch)
            setup_times.append(time.monotonic() - t0)
            return ac, prepared

        for _ in range(SETUP_REPS):
            ac, prepared = set_up()
        # Warm-up at smoke size until WARMUP_S has passed: loads LAPACK
        # paths and lazy imports, and lets the CPU clock settle.
        warm = workload.build(ac, inputs, bw.SMOKE_SIZES[workload.name], scratch / "warm")
        warm_start = time.monotonic()
        while time.monotonic() - warm_start < WARMUP_S:
            run_pass(warm)

        start = time.monotonic()
        if args.trace:
            reference, passes, tracer, per_pass, geometry_s = traced_run(
                prepared, lambda: workload.build(ac, inputs, workload.sizes, scratch),
                args.seconds, start, bench_trace)
            all_passes = [reference] + passes
        else:
            passes = []
            while not passes or time.monotonic() - start < args.seconds:
                passes.append(run_pass(prepared))
                # One more set-up after every pass samples set-up time
                # across the run, not only at its start.
                ac, prepared = set_up()
            all_passes = passes
    finally:
        speed_trace.close()
        shutil.rmtree(scratch, ignore_errors=True)

    for p in all_passes:
        for o in p.ops:
            o.speed = speed_trace.speed(o.start, o.start + o.seconds)

    attempted, failed = count_ops(all_passes)
    merged = summarize_checks(all_passes)

    print(f"adiaconn benchmark: workload {workload.name}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("env:", json.dumps(env, sort_keys=True))
    print("inputs:", json.dumps(prepared.describe, sort_keys=True))
    print("load: closed loop, 1 client; each operation starts when the previous one ends")
    print("wait metrics: none; no layer waits on a queue, a lock or another process")

    op_names = [op.name for op in prepared.ops]
    # Set-up is wall-clock time: it is import work, which the probe's kernel
    # does not represent, and too short for CPU-time accounting.  Operation
    # timings are this process's CPU time scaled to the nominal machine
    # speed (bench_probe), so neither the probe, which shares the CPU, nor
    # the host's speed changes enter them; raw wall-clock figures follow.
    rows = [timing_row("setup_s", setup_times, "s")]
    for name in op_names:
        rows.append(timing_row(f"{name}_s", [o.calibrated_seconds for p in passes
                                              for o in p.ops if o.name == name], "s"))
    rows.append(timing_row("pass_s", [p.calibrated_seconds for p in passes], "s"))
    rows.append(timing_row("points_per_s",
                           [p.points / p.calibrated_seconds for p in passes], "1/s"))
    rows.append(timing_row("raw_pass_s", [p.seconds for p in passes], "s"))
    rows.append(timing_row("raw_points_per_s", [p.points / p.seconds for p in passes], "1/s"))
    rows.append(timing_row("machine_speed", [o.speed for p in passes for o in p.ops], "1"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = {}
    for p in all_passes:
        for o in p.ops:
            for key, value in o.errors.items():
                errors[key] = max(errors.get(key, 0.0), value)

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "inputs": prepared.describe,
              "timings": rows, "oracle": errors, "checks": merged,
              "attempted": attempted, "failed": failed, "peak_rss_mb": peak_rss_mb}

    print("timings (traced passes):" if args.trace else "timings:")
    print_table(rows + [{"name": "peak_rss_mb", "value": peak_rss_mb, "unit": "MB",
                         "tail": None, "tail_value": None, "n": 1}])
    if args.trace:
        counts = [count_keys(m) for m in per_pass]
        repeat = all(c == counts[0] for c in counts)
        reference_path = Path(__file__).resolve().parent / "reference_counts.json"
        expected = json.loads(reference_path.read_text()).get(workload.name, {}).get(
            str(args.seed))
        observed = {k: per_pass[0].get(k, 0) for k in REFERENCE_COUNTS}
        diff = None if expected is None else {
            k: [observed[k], expected.get(k)] for k in REFERENCE_COUNTS
            if expected.get(k) != observed[k]}
        layer_values = {}
        for key in per_pass[0]:
            values = [m.get(key, 0) for m in per_pass]
            layer_values[key] = statistics.median(values) if key.endswith(".s") else values[0]
        layer_values["geometry.setup.s"] = geometry_s
        overhead = (statistics.median(p.calibrated_seconds for p in passes)
                    / reference.calibrated_seconds - 1.0)
        layer_values["trace.overhead_frac"] = overhead
        layer_record = {"layers": layer_values, "absent": tracer.absent,
                        "counts_repeat_across_passes": repeat, "reference_diff": diff}
        record["trace_record"] = layer_record
        trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.npz"
        tracer.save(trace_path)
        print(f"traced passes: {len(passes)} (+1 untraced reference pass); "
              f"spans: {len(tracer.start)} written to {trace_path.relative_to(ROOT)}")
        print(f"{'layer metric':<44} {'value':>14}")
        for key in sorted(layer_values):
            print(f"{key:<44} {layer_values[key]:>14.6g}")
        print("absent layers:", ", ".join(tracer.absent) if tracer.absent else "none")
        print("counts repeat across traced passes:", "yes" if repeat else "NO")
        print("counts vs reference_counts.json:",
              f"no reference for seed {args.seed}" if diff is None
              else "match" if not diff else json.dumps(diff, sort_keys=True))
        metrics = {name: {"value": float(layer_values.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        by_name = {r["name"]: r["value"] for r in rows}
        by_name["peak_rss_mb"] = peak_rss_mb
        metrics = {name: {"value": float(by_name[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}

    print("oracle errors:", json.dumps(errors, sort_keys=True))
    print(f"error_rate: {failed}/{attempted} = {failed / attempted:.4g}")
    print_checks(merged)
    for p in all_passes:
        for o in p.ops:
            if o.message:
                print(f"  error in {o.name}:\n{o.message}")
    record_path = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
