"""Spans around the calls into each capdrop layer, for the traced run.

The tracer replaces the names each caller looks up (``capdrop.solver.flow_step``,
the names ``solver`` imports from ``curvature``, ``wetting`` and ``remesh``,
the ``WettingOperator`` methods, ``capdrop.analytic.jet_fit`` and so on) with
wrappers that record a span: name, start, end, parent span, operation id and
phase, plus the exception type when the call raised.  Spans stay in memory
until the run ends.  A name that is missing in the library is recorded as not
measured instead of failing the run.

A call of a layer made from inside a call of the same layer (for example
``WettingOperator.volume_term`` calling ``area``) is part of the outer span
and is not recorded again.  The run is single-threaded, so a span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

import capdrop
import capdrop.analytic
import capdrop.closure
import capdrop.curvature
import capdrop.mesh
import capdrop.remesh
import capdrop.shapes
import capdrop.solver
import capdrop.spatial
import capdrop.wetting

_OPERATOR_METHODS = ("area", "area_gradient", "z_cubed_flux",
                     "z_cubed_flux_gradient", "volume_term",
                     "volume_term_gradient", "z_moment_term",
                     "z_moment_term_gradient")


def _n_items(args, kwargs, position: int, keyword: str):
    """len() of the argument at ``position``/``keyword``, or None."""
    value = kwargs.get(keyword, args[position] if len(args) > position else None)
    return None if value is None else len(value)


def _jet_vertices(args, kwargs):
    n = _n_items(args, kwargs, 1, "indices")
    return args[0].n_vertices if n is None else n


def _probes(args, kwargs):
    return _n_items(args, kwargs, 1, "points")


def _remesh_edits(result):
    """1 when a remesh cycle edited the mesh (it returns (mesh, edits))."""
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], int):
        return int(result[1] > 0)
    return None


# (owner, attribute, span name, items-per-call, outcome-of-result)
TARGETS = [
    (capdrop.solver, "flow_step", "solver.flow_step", None, None),
    (capdrop.solver, "splu", "solver.precond_factor", None, None),
    (capdrop.solver, "cotangent_area_gradient", "curvature.cotangent_area_gradient", None, None),
    (capdrop.solver, "mixed_voronoi_areas", "curvature.mixed_voronoi_areas", None, None),
    (capdrop.solver, "surface_volume_gradient", "wetting.surface_volume_gradient", None, None),
    (capdrop.solver, "make_wetting_operator", "wetting.make_wetting_operator", None, None),
    (capdrop.solver, "_remesh_with_stats", "remesh.cycle", None, _remesh_edits),
    (capdrop.solver, "min_quality", "remesh.min_quality", None, None),
    (capdrop.solver, "contact_angle", "analytic.contact_angle", None, None),
    (capdrop.wetting, "make_wetting_operator", "wetting.make_wetting_operator", None, None),
    (capdrop.wetting, "close_with_spherical_patch", "closure.close_with_spherical_patch", None, None),
    (capdrop.analytic, "contact_angle", "analytic.contact_angle", None, None),
    (capdrop.analytic, "jet_fit", "curvature.jet_fit", _jet_vertices, None),
    (capdrop.analytic, "spherical_cap_mesh", "shapes.spherical_cap_mesh", None, None),
    (capdrop.curvature, "jet_fit", "curvature.jet_fit", _jet_vertices, None),
    (capdrop.closure, "close_with_spherical_patch", "closure.close_with_spherical_patch", None, None),
    (capdrop.closure, "signed_containment", "closure.signed_containment", _probes, None),
    (capdrop.closure, "winding_numbers", "spatial.winding_numbers", None, None),
    (capdrop.spatial.MeshDistanceQuery, "__init__", "spatial.mesh_distance", None, None),
    (capdrop.spatial.MeshDistanceQuery, "distance", "spatial.mesh_distance", None, None),
    (capdrop.remesh, "build_mesh", "mesh.build_mesh", None, None),
    (capdrop.shapes, "spherical_cap_mesh", "shapes.spherical_cap_mesh", None, None),
] + [(capdrop.WettingOperator, m, "wetting.operator_eval", None, None)
     for m in _OPERATOR_METHODS]

# wrapped to count calls only: it runs on every energy evaluation
COUNTED = [(capdrop.mesh.TriMesh, "with_vertices", "mesh.with_vertices")]


class Tracer:
    """Records spans while installed; ``op_id`` and ``phase`` are set by the
    benchmark around each operation and each part of the run."""

    def __init__(self):
        # each span: [name, start, end, parent index, op_id, phase, error type]
        self.spans: list = []
        # keyed by (phase, name): items handled (e.g. vertices fitted),
        # useful results, and calls of the counted-only names
        self.items: Counter = Counter()
        self.outcomes: Counter = Counter()
        self.counts: Counter = Counter()
        self.not_measured: list = []
        self.op_id = None
        self.phase = "setup"
        self._stack: list = []
        self._open: Counter = Counter()
        self._saved: list = []

    def install(self) -> None:
        for owner, attr, name, items, outcome in TARGETS:
            self._patch(owner, attr, self._span_wrapper(
                getattr(owner, attr, None), name, items, outcome), name)
        for owner, attr, name in COUNTED:
            self._patch(owner, attr, self._count_wrapper(
                getattr(owner, attr, None), name), name)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _patch(self, owner, attr, wrapper, name) -> None:
        if wrapper is None:
            self.not_measured.append(f"{owner.__name__}.{attr} ({name})")
            return
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _count_wrapper(self, fn, name):
        if fn is None:
            return None
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[tracer.phase, name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span_wrapper(self, fn, name, items, outcome):
        if fn is None:
            return None
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._open[name]:
                return fn(*args, **kwargs)
            if items is not None:
                n = items(args, kwargs)
                if n is not None:
                    tracer.items[tracer.phase, name] += n
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end(span, type(exc).__name__)
                raise
            tracer.end(span)
            if outcome is not None:
                useful = outcome(result)
                if useful is not None:
                    tracer.outcomes[tracer.phase, name] += useful
            return result
        return wrapper

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.op_id, self.phase, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        self._open[name] += 1
        return index

    def end(self, index: int, error: str | None = None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[6] = error
        self._stack.pop()
        self._open[span[0]] -= 1

    def layer_totals(self, phase: str) -> dict:
        """Per span name in ``phase``: calls, busy seconds, self seconds and
        errors by exception type."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict = {}
        for i, (name, start, end, _, _, ph, error) in enumerate(self.spans):
            if ph != phase:
                continue
            t = totals.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                         "self_s": 0.0, "errors": Counter()})
            t["calls"] += 1
            t["busy_s"] += end - start
            t["self_s"] += end - start - child_time[i]
            if error:
                t["errors"][error] += 1
        return totals

    def write(self, path) -> None:
        """All spans as JSON lines."""
        keys = ("name", "start", "end", "parent", "op", "phase", "error")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
