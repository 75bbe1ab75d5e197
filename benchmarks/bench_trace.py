"""In-memory span tracer for the adiaconn benchmark.

The tracer wraps public names of the library from outside: it replaces a
function or method object wherever callers look it up (the defining
module, every ``adiaconn`` module that imported it, and ``numpy.linalg``
for ``eigh``) with a thin wrapper that records one span per call.  Spans
are kept in flat arrays (start, end, parent, layer, op) and written out
when the run ends; per-layer self time is a span's duration minus the
durations of its direct children.

A layer whose name no longer exists is reported as absent instead of
failing the run, so the same benchmark file can trace later commits.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

# (layer name, owner, attribute).  An owner is "module:<dotted name>" for a
# module-level function or "class:<module>.<Class>" for a method defined on
# that class.  Module-level functions are wrapped in every adiaconn module
# that holds the same object, which covers ``from .x import f`` callers.
LAYERS = (
    ("operator_core.eigh", "module:numpy.linalg", "eigh"),
    ("operator_core.fix_phase", "module:adiaconn.operator_core", "fix_phase"),
    ("operator_core.expm_hermitian", "module:adiaconn.operator_core", "expm_hermitian"),
    ("operator_core.unitary_check", "class:adiaconn.operator_core.UnitaryOperator", "__post_init__"),
    ("models.eval_h", "class:adiaconn.models.ParametricHamiltonian", "eval_h"),
    ("models.grad_h", "class:adiaconn.models.ParametricHamiltonian", "grad_h"),
    ("models.spectral_at", "class:adiaconn.models.ParametricHamiltonian", "spectral_at"),
    ("models.spectral_at", "class:adiaconn.models.OscillatorModel", "spectral_at"),
    ("connection.connection_spectral", "module:adiaconn.connection", "connection_spectral"),
    ("transport.holonomy", "module:adiaconn.transport", "holonomy"),
    ("transport.wilson_loop_phases", "module:adiaconn.transport", "wilson_loop_phases"),
    ("transport.counterdiabatic_evolve", "module:adiaconn.transport", "counterdiabatic_evolve"),
    ("curvature.berry_phase_surface", "module:adiaconn.curvature", "berry_phase_surface"),
    ("curvature.patch_point", "class:adiaconn.curvature.SurfacePatch", "point"),
    ("nast.surface_ordered_product", "module:adiaconn.nast", "surface_ordered_product"),
    ("nast.nast_residual", "module:adiaconn.nast", "nast_residual"),
    ("geometry", "module:adiaconn.geometry", "su2_triangle_loop"),
    ("geometry", "module:adiaconn.geometry", "su2_wedge_patch"),
    ("geometry", "module:adiaconn.geometry", "su2_cap_patch"),
    ("geometry", "module:adiaconn.geometry", "planar_patch"),
    ("geometry", "module:adiaconn.geometry", "planar_rectangle_loop"),
    ("cli", "module:adiaconn.cli", "main"),
    ("cli.write_report", "module:adiaconn.cli", "write_report"),
)

ROOT = -1


def _split_owner(owner: str) -> tuple:
    """("module:a.b") -> ("a.b", None); ("class:a.b.C") -> ("a.b", "C")."""
    kind, dotted = owner.split(":", 1)
    if kind == "module":
        return dotted, None
    module_name, _, class_name = dotted.rpartition(".")
    return module_name, class_name


def _lookup_sites(owner_obj, attr: str, original):
    """Every (namespace, name) through which callers reach ``original``."""
    if isinstance(owner_obj, type):
        return [(owner_obj, attr)]
    sites = [(owner_obj, attr)]
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "adiaconn" or name.startswith("adiaconn.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original and (module, key) not in sites:
                sites.append((module, key))
    return sites


@dataclass
class PassRange:
    """Span index range [first, last) and distinct spectral points of one pass."""

    first: int
    last: int = -1
    distinct_points: int = 0


@dataclass
class Tracer:
    """Collects spans from wrapped library names.

    Spans are appended when a call starts, so a parent always precedes its
    children; ``parent`` holds the index of the enclosing span or -1, and
    ``op`` the index of the root span (one benchmark operation) it serves.
    """

    layer_names: list = field(default_factory=list)
    start: array = field(default_factory=lambda: array("d"))
    end: array = field(default_factory=lambda: array("d"))
    parent: array = field(default_factory=lambda: array("q"))
    layer: array = field(default_factory=lambda: array("q"))
    op: array = field(default_factory=lambda: array("q"))
    n3: array = field(default_factory=lambda: array("d"))
    passes: list = field(default_factory=list)
    absent: list = field(default_factory=list)
    _stack: list = field(default_factory=lambda: [ROOT])
    _op: int = ROOT
    _points: set = field(default_factory=set)
    _restore: list = field(default_factory=list)

    def layer_id(self, name: str) -> int:
        if name not in self.layer_names:
            self.layer_names.append(name)
        return self.layer_names.index(name)

    # -- span recording ---------------------------------------------------

    def open(self, layer_id: int, n3: float = 0.0) -> int:
        idx = len(self.start)
        parent = self._stack[-1]
        if parent == ROOT:
            self._op = idx
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(parent)
        self.layer.append(layer_id)
        self.op.append(self._op)
        self.n3.append(n3)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one operation."""
        idx = self.open(self.layer_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def begin_pass(self) -> None:
        self._points = set()
        self.passes.append(PassRange(first=len(self.start)))

    def end_pass(self) -> None:
        current = self.passes[-1]
        current.last = len(self.start)
        current.distinct_points = len(self._points)

    # -- wrapping ---------------------------------------------------------

    def _wrapper(self, fn, layer_id: int, kind: str):
        open_, close, tracer = self.open, self.close, self

        if kind == "eigh":
            def wrapper(a, *args, **kwargs):
                shape = np.shape(a)
                idx = open_(layer_id, float(math.prod(shape[:-2]) * shape[-1] ** 3))
                try:
                    return fn(a, *args, **kwargs)
                finally:
                    close(idx)
        elif kind == "spectral_at":
            def wrapper(model, lam, *args, **kwargs):
                tracer._points.add(np.asarray(lam, dtype=float).tobytes())
                idx = open_(layer_id)
                try:
                    return fn(model, lam, *args, **kwargs)
                finally:
                    close(idx)
        else:
            def wrapper(*args, **kwargs):
                idx = open_(layer_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap every layer name that exists; record the rest as absent."""
        for name, owner, attr in LAYERS:
            module_name, class_name = _split_owner(owner)
            module = sys.modules.get(module_name)
            if module is None:
                continue  # this workload never imports the module
            if class_name is None:
                owner_obj, original = module, getattr(module, attr, None)
            else:
                owner_obj = getattr(module, class_name, None)
                original = vars(owner_obj).get(attr) if isinstance(owner_obj, type) else None
            if not callable(original):
                self.absent.append(f"{name} ({owner.split(':', 1)[1]}.{attr})")
                continue
            kind = attr if attr in ("eigh", "spectral_at") else "plain"
            wrapped = self._wrapper(original, self.layer_id(name), kind)
            for site, key in _lookup_sites(owner_obj, attr, original):
                self._restore.append((site, key, vars(site)[key]))
                setattr(site, key, wrapped)

    def uninstall(self) -> None:
        for site, key, original in reversed(self._restore):
            setattr(site, key, original)
        self._restore.clear()

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "layer": np.frombuffer(self.layer, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "n3": np.frombuffer(self.n3, dtype=float).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, layer_names=np.asarray(self.layer_names), **self.arrays())


def layer_totals(start, end, parent, layer, n_layers: int, n3=None) -> dict:
    """Per-layer calls, inclusive seconds, self seconds and Σ n3 over a
    set of complete span trees (indices local to the arrays passed)."""
    start, end = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
    parent, layer = np.asarray(parent, dtype=np.int64), np.asarray(layer, dtype=np.int64)
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    n3 = np.zeros(len(dur)) if n3 is None else np.asarray(n3, dtype=float)
    return {
        "calls": np.bincount(layer, minlength=n_layers).astype(int),
        "total_s": np.bincount(layer, weights=dur, minlength=n_layers),
        "self_s": np.bincount(layer, weights=self_time, minlength=n_layers),
        "n3": np.bincount(layer, weights=n3, minlength=n_layers),
    }


def pass_totals(tracer: Tracer, rng: PassRange) -> dict:
    """Layer totals of one traced pass, keyed by layer name."""
    a = tracer.arrays()
    sl = slice(rng.first, rng.last)
    parent = a["parent"][sl]
    local_parent = np.where(parent >= 0, parent - rng.first, -1)
    totals = layer_totals(a["start"][sl], a["end"][sl], local_parent, a["layer"][sl],
                          len(tracer.layer_names), a["n3"][sl])
    return {
        name: {key: values[i] for key, values in totals.items()}
        for i, name in enumerate(tracer.layer_names)
    }
