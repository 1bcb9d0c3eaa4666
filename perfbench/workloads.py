"""Seeded inputs and operation lists of the three benchmark workloads.

oracle_1k
    The ROADMAP oracle solves at about 1k vertices, each with a fixed
    iteration budget: interior drops on the unit sphere (contact polar angle
    55 deg, gamma 40/70/110 deg), one exterior drop, one kappa > 0 height-law
    drop, and the unit circle pinned with a volume target and with an H
    target.  Small meshes let per-call overhead dominate (wetting line
    integrals, remesh's Python edit loop), and the free boundary exercises
    make_wetting_operator, closure and contact_angle after every remesh.
dirichlet_16k
    One pinned-boundary spherical cap with a volume target from a flat disk
    of about 12.5k vertices: wetting, closure and contact_angle are bypassed,
    and scatters, cotangent assembly, splu and remesh at scale dominate.  It
    converges today, so its pass time is a time to solution.
verify_4k
    Read-only oracle checks on exact interior and exterior drops of about 4k
    vertices: contact_angle, interior jet_mean_curvature, the wetting
    operator's area and volume, the spherical-patch closure's volume and
    signed_containment of probe points.  No solver runs, so a solver-side
    change must leave it unchanged.

The seed drives a normal perturbation of the solvers' initial surfaces (a
fixed fraction of the mean edge length) and verify_4k's draws of rho, contact
polar angle and gamma, or the exterior carrier.  Those draws are stratified:
each drop is drawn in a narrow band around a fixed case, so which checks fail
does not depend on the seed, only the exact numbers do.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import capdrop
import capdrop.analytic
import capdrop.remesh
import capdrop.shapes
import capdrop.solver
from capdrop.mesh import TriMesh

from oracle import (DROP_CHECKS, OracleBroken, Target, containment_probes,
                    drop_errors, inspect_drop, measure_errors, solve_tolerances)

WORKLOADS = ("oracle_1k", "dirichlet_16k", "verify_4k")

# normal perturbation of the solvers' initial surfaces, in mean edge lengths
PERTURBATION = 0.05

# (vertices, solver iteration budget, probes per drop) per size; "tiny" is
# for the benchmark's self-test only
SIZES = {
    "full": {"oracle": 1000, "oracle_disk": (112, 18), "iterations": 100,
             "dirichlet_disk": (376, 66),
             "dirichlet_iterations": 200, "verify": 4000, "probes": 48},
    "tiny": {"oracle": 150, "oracle_disk": (24, 4), "iterations": 8,
             "dirichlet_disk": (40, 6),
             "dirichlet_iterations": 60, "verify": 300, "probes": 8},
}


@dataclass
class Op:
    """One benchmark operation: a timed library call and its oracle check.

    ``run`` is the timed part.  ``judge`` takes its result and returns the
    errors against the closed form and their tolerances, one per name in
    ``checks``.
    """

    name: str
    run: Callable[[], Any]
    judge: Callable[[Any], tuple]
    checks: tuple


@dataclass
class Workload:
    name: str
    seed: int
    ops: list


def result_key(result) -> str:
    """Digest of a solve's output surface, so repeated passes that return the
    same surface are judged once."""
    mesh = result[0]
    h = hashlib.sha1(mesh.vertices.tobytes())
    h.update(mesh.faces.tobytes())
    return h.hexdigest()


def _fresh(mesh: TriMesh) -> Callable[[], TriMesh]:
    """Rebuild the mesh per pass so no cached geometry carries over."""
    v, f = mesh.vertices.copy(), mesh.faces.copy()
    return lambda: TriMesh(v.copy(), f.copy(), validate=False)


def _near_count(make: Callable[[int], TriMesh], target: int) -> TriMesh:
    """The mesh from ``make(n_angular)`` whose vertex count is nearest
    ``target``; vertex counts grow about as n_angular squared."""
    tried: dict[int, TriMesh] = {}

    def build(na):
        na = max(8, 2 * round(na / 2))
        if na not in tried:
            tried[na] = make(na)
        return na, tried[na]

    na, m = build(32)
    for _ in range(3):
        na, m = build(na * math.sqrt(target / m.n_vertices))
    for step in (-2, 2):
        build(na + step)
    return min(tried.values(), key=lambda m: abs(m.n_vertices - target))


def _perturbed(mesh: TriMesh, rng: np.random.Generator) -> TriMesh:
    amp = PERTURBATION * capdrop.remesh.mean_edge_length(mesh)
    return capdrop.shapes.perturb_normal(mesh, amp, rng, keep_boundary=True)


def _solve_op(name: str, solve: Callable[[TriMesh], Any], init: TriMesh,
              exact: TriMesh, target: Target,
              exact_target: Target | None = None) -> Op:
    """A solver op judged against ``target`` with tolerances from the exact
    surface ``exact`` (measured against ``exact_target``, default the same)."""
    fresh = _fresh(init)
    tolerances: dict = {}

    def judge(result):
        if not tolerances:
            try:
                exact_errors = measure_errors(exact, exact_target or target)
            except Exception as exc:
                raise OracleBroken(f"{name}: exact surface: {exc!r}") from exc
            tolerances.update(solve_tolerances(exact_errors))
        return measure_errors(result[0], target), tolerances

    return Op(name, lambda: solve(fresh()), judge, target.quantities())


def _capillary_ops(rng, size) -> list:
    S = capdrop.Sphere(np.zeros(3), 1.0)
    iters = size["iterations"]
    ops = []

    def capillary(params):
        cfg = capdrop.solver.SolveConfig(mode="capillary", params=params,
                                         substrate=S, max_iterations=iters)
        return lambda m: capdrop.solver.solve_capillary(S, params, m, cfg)

    drops = [(f"interior_g{g}", capdrop.analytic.interior_drop_cap(
        1.0, math.radians(55.0), math.radians(g))) for g in (40, 70, 110)]
    drops.append(("exterior", capdrop.analytic.exterior_drop_cap(1.0, 1.2, 0.6)))
    for name, drop in drops:
        exact = _near_count(drop.free_surface_mesh, size["oracle"])
        params = capdrop.CapillaryParams(gamma=drop.gamma, side=drop.side,
                                         target_volume=drop.volume)
        target = Target(drop.carrier, drop.mean_curvature_toward_drop,
                        drop.volume, drop.energy(), drop.gamma, drop.substrate,
                        drop.side)
        ops.append(_solve_op(name, capillary(params), _perturbed(exact, rng),
                             exact, target))

    # height law H = kappa z + mu from the gamma = 70 deg cap's volume; no
    # closed form, so the law's residual spread is checked, with tolerances
    # from the kappa = 0 cap (the estimator's own spread on an exact surface)
    drop = capdrop.analytic.interior_drop_cap(1.0, math.radians(55.0),
                                              math.radians(70.0))
    kappa = 0.5
    params = capdrop.CapillaryParams(gamma=drop.gamma, kappa=kappa,
                                     target_volume=drop.volume)
    cfg = capdrop.solver.SolveConfig(mode="prescribed_height_curvature",
                                     params=params, substrate=S,
                                     max_iterations=iters)
    exact = _near_count(drop.free_surface_mesh, size["oracle"])
    target = Target(None, None, drop.volume, None, drop.gamma, S, "interior",
                    kappa)
    ops.append(_solve_op(
        "height_law_k0.5",
        lambda m: capdrop.solver.solve_prescribed_height_curvature(S, params, m, cfg),
        _perturbed(exact, rng), exact, target,
        dataclasses.replace(target, kappa=0.0)))
    return ops


def _dirichlet_ops(rng, disk: tuple, iters: int, both_targets: bool) -> list:
    """Unit circle pinned; the H = 2/3 small cap is the closed form."""
    flat = capdrop.shapes.flat_disk(1.0, *disk)
    init = _perturbed(flat, rng)
    cap, _ = capdrop.analytic.spherical_caps_for_circle(1.0, 2.0 / 3.0)
    exact = cap.mesh(*disk)
    target = Target(cap.carrier, cap.mean_curvature, cap.dome_volume, cap.area)
    boundary = flat.vertices[flat.boundary_vertex_mask]
    cfg = capdrop.solver.SolveConfig(mode="dirichlet_cmc", max_iterations=iters)

    def by_volume(m):
        return capdrop.solver.solve_dirichlet_cmc(
            boundary, m, cfg, target_volume=cap.dome_volume)

    def by_curvature(m):
        return capdrop.solver.solve_dirichlet_cmc(
            boundary, m, cfg, target_mean_curvature=cap.mean_curvature)

    ops = [_solve_op("dirichlet_volume", by_volume, init, exact, target)]
    if both_targets:
        ops.append(_solve_op("dirichlet_curvature", by_curvature,
                             _perturbed(flat, rng), exact, target))
    return ops


def _verify_ops(rng, size) -> list:
    strata = [("interior_g40", 40.0), ("interior_g70", 70.0),
              ("interior_g110", 110.0), ("exterior", None)]
    ops = []
    for name, gamma_deg in strata:
        rho = rng.uniform(0.8, 1.25)
        if gamma_deg is None:
            drop = capdrop.analytic.exterior_drop_cap(
                rho, rho * rng.uniform(1.15, 1.25), rho * rng.uniform(0.55, 0.65))
        else:
            drop = capdrop.analytic.interior_drop_cap(
                rho, math.radians(55.0 + rng.uniform(-2.0, 2.0)),
                math.radians(gamma_deg + rng.uniform(-2.0, 2.0)))
        mesh = _near_count(drop.free_surface_mesh, size["verify"])
        probes = containment_probes(drop, mesh, size["probes"], rng)
        fresh = _fresh(mesh)
        ops.append(Op(
            name,
            lambda d=drop, f=fresh, p=probes: inspect_drop(d, f(), p),
            lambda seen, d=drop, p=probes: drop_errors(d, p, seen),
            DROP_CHECKS))
    return ops


def build(name: str, seed: int, size: str = "full") -> Workload:
    """Build a workload's inputs from its seed; same seed, same inputs."""
    s = SIZES[size]
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "oracle_1k":
        ops = _capillary_ops(rng, s) + _dirichlet_ops(
            rng, s["oracle_disk"], s["iterations"], both_targets=True)
    elif name == "dirichlet_16k":
        ops = _dirichlet_ops(rng, s["dirichlet_disk"],
                             s["dirichlet_iterations"], both_targets=False)
    elif name == "verify_4k":
        ops = _verify_ops(rng, s)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return Workload(name, seed, ops)


__all__ = ["WORKLOADS", "SIZES", "Op", "Workload", "build", "result_key"]
