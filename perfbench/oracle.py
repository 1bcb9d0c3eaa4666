"""Closed-form oracle checks for capdrop results.

Nothing here trusts ``SolveReport.converged``: a solve passes only when the
surface it returns matches the closed-form cap or drop it should have reached.
Each operation yields one error per measured quantity and one check per error;
an operation passes when all its checks pass.

Solver results are judged with tolerances derived from the exact analytic
surface meshed at the same resolution as the solve's initial surface: each
quantity may be off by at most ``SOLVE_TOL_MULTIPLE`` times the error that
exact surface shows, so discretisation error alone never fails a solve and an
unconverged or wrong surface does.  The read-only checks on exact drops use
fixed tolerances, each taken from the library's own acceptance terms (named
next to each constant).

Every library call goes through its module attribute (``capdrop.curvature.jet_fit``
and so on) so that the traced run's wrappers see it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import capdrop.analytic
import capdrop.closure
import capdrop.curvature
import capdrop.wetting

# a solve may be off by this multiple of the exact surface's own error
SOLVE_TOL_MULTIPLE = 4.0
# floors on the exact surface's error, so an exact mesh that happens to hit a
# quantity to round-off does not demand round-off from the solve
FLOORS = {"shape": 1e-6, "h_median": 1e-4, "h_p90": 1e-4, "h_law_p90": 1e-4,
          "volume": 1e-6, "energy": 1e-6, "angle_mean": 1e-4, "angle_dev": 1e-4}

# read-only checks on exact drops (verify_4k)
ANGLE_TOL = math.radians(1.0)   # SolveConfig.angle_tol default
H_REL_TOL = 1e-2                # jet H within 1% of |H| + 1/rho
WET_AREA_REL_TOL = 2e-3         # tier-1 wetting tests
WET_VOLUME_REL_TOL = 3e-3       # tier-1 wetting tests
CLOSURE_VOLUME_REL_TOL = 5e-3   # tier-1 closure tests
DROP_CHECKS = ("angle_mean", "angle_dev", "h", "wetted_area", "volume",
               "closure_volume", "containment_misses")

# at most this many interior vertices enter a jet-fit curvature check
H_SAMPLE = 2000


@dataclass(frozen=True)
class Target:
    """Closed-form equilibrium one solve should reach.

    ``mean_curvature`` is in the toward-the-drop convention (a convex drop
    has H > 0).  For the height law H = kappa z + mu there is no closed-form
    surface: ``carrier``, ``mean_curvature`` and ``energy`` are None and the
    law's residual is checked instead.  ``substrate``/``side``/``gamma`` are
    None for a pinned boundary.
    """

    carrier: object
    mean_curvature: float | None
    volume: float
    energy: float | None
    gamma: float | None = None
    substrate: object = None
    side: str | None = None
    kappa: float = 0.0

    def quantities(self) -> tuple:
        names = []
        if self.carrier is not None:
            names.append("shape")
        names += (["h_law_p90"] if self.mean_curvature is None
                  else ["h_median", "h_p90"])
        names.append("volume")
        if self.energy is not None:
            names.append("energy")
        if self.substrate is not None:
            names += ["angle_mean", "angle_dev"]
        return tuple(names)


class OracleBroken(Exception):
    """The closed-form reference itself could not be evaluated."""


def _interior_sample(mesh) -> np.ndarray:
    interior = np.flatnonzero(~mesh.boundary_vertex_mask)
    if len(interior) <= H_SAMPLE:
        return interior
    pick = np.linspace(0, len(interior) - 1, H_SAMPLE).round().astype(np.int64)
    return interior[np.unique(pick)]


def measure_errors(mesh, target: Target) -> dict[str, float]:
    """Errors of a surface against its closed-form target.

    ``shape`` is the largest distance of a vertex or face centroid from the
    carrier sphere, over its radius.  ``h_median`` and ``h_p90`` are the
    median jet-fit mean curvature's error and the 90th percentile of the
    pointwise error over (a sample of) the interior vertices; for the height
    law ``h_law_p90`` is the 90th percentile of H - kappa z about its median.
    ``volume`` and ``energy`` are relative; ``angle_mean``/``angle_dev`` are
    the contact angle's mean error and its largest deviation from that mean,
    in radians.
    """
    errors: dict[str, float] = {}
    x = mesh.vertices
    if target.carrier is not None:
        pts = np.concatenate([x, x[mesh.faces].mean(axis=1)])
        dist = np.linalg.norm(pts - target.carrier.center, axis=1)
        errors["shape"] = float(np.max(np.abs(dist - target.carrier.radius))
                                / target.carrier.radius)

    idx = _interior_sample(mesh)
    _, h = capdrop.curvature.jet_fit(mesh, idx)
    h_toward = -h  # meshes are wound out of the drop
    if target.mean_curvature is None:
        residual = h_toward - target.kappa * x[idx, 2]
        errors["h_law_p90"] = float(np.quantile(
            np.abs(residual - np.median(residual)), 0.9))
    else:
        errors["h_median"] = abs(float(np.median(h_toward)) - target.mean_curvature)
        errors["h_p90"] = float(np.quantile(
            np.abs(h_toward - target.mean_curvature), 0.9))

    volume = mesh.divergence_volume()
    wetted = 0.0
    if target.substrate is not None:
        op = capdrop.wetting.make_wetting_operator(mesh, target.substrate,
                                                   side=target.side)
        volume += op.volume_term(x)
        wetted = op.area(x)
        rep = capdrop.analytic.contact_angle(mesh, target.substrate,
                                             side=target.side)
        errors["angle_mean"] = abs(rep.mean - target.gamma)
        errors["angle_dev"] = rep.max_deviation
    errors["volume"] = abs(volume - target.volume) / abs(target.volume)
    if target.energy is not None:
        energy = mesh.surface_area()
        if target.gamma is not None:
            energy -= math.cos(target.gamma) * wetted
        errors["energy"] = abs(energy - target.energy) / abs(target.energy)
    return errors


def solve_tolerances(exact_errors: dict[str, float]) -> dict[str, float]:
    """Per-quantity tolerances from the exact surface's own errors."""
    return {k: SOLVE_TOL_MULTIPLE * max(v, FLOORS[k])
            for k, v in exact_errors.items()}


def misses(errors: dict[str, float], tolerances: dict[str, float]) -> list:
    """Every quantity over its tolerance, as ``name=error>tolerance``."""
    return [f"{k}={errors[k]:.3g}>{tol:.3g}" for k, tol in tolerances.items()
            if not errors[k] <= tol]  # NaN misses too


# -- exact drops: analytic membership and the read-only check -------------------


def drop_contains(drop, points: np.ndarray) -> np.ndarray:
    """Whether each point lies in the drop region W of an analytic CapDrop."""
    r_sub = np.linalg.norm(points - drop.substrate.center, axis=1)
    r_car = np.linalg.norm(points - drop.carrier.center, axis=1)
    in_sub = r_sub < drop.substrate.radius
    in_car = r_car < drop.carrier.radius
    above = points[:, 2] > drop.contact_height
    if drop.side == "exterior":
        return in_car & ~in_sub
    if drop.piece == "lower":
        return (in_sub & above) | (in_car & ~above)
    return in_sub & above & ~in_car


def containment_probes(drop, mesh, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` points in the drop's bounding box, none within one mean boundary
    edge of the substrate or carrier sphere, where a discretised surface and
    the exact one may legitimately disagree."""
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    lo = np.minimum(lo, drop.substrate.center + np.array(
        [-drop.contact_radius, -drop.contact_radius, drop.contact_height]))
    hi = np.maximum(hi, drop.substrate.center + np.array(
        [drop.contact_radius, drop.contact_radius, drop.substrate.radius]))
    pad = 0.1 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    b = mesh.vertices[mesh.boundary_loops()[0]]
    margin = float(np.linalg.norm(b - np.roll(b, 1, axis=0), axis=1).mean())
    out = []
    while sum(len(o) for o in out) < n:
        p = rng.uniform(lo, hi, size=(4 * n, 3))
        d_sub = np.abs(np.linalg.norm(p - drop.substrate.center, axis=1)
                       - drop.substrate.radius)
        d_car = np.abs(np.linalg.norm(p - drop.carrier.center, axis=1)
                       - drop.carrier.radius)
        out.append(p[(d_sub > margin) & (d_car > margin)])
    return np.concatenate(out)[:n]


def inspect_drop(drop, mesh, probes: np.ndarray) -> dict:
    """The read-only library calls on one exact drop (the timed operation)."""
    sub = drop.substrate
    rep = capdrop.analytic.contact_angle(mesh, sub, side=drop.side)
    h = capdrop.curvature.jet_mean_curvature(mesh)
    op = capdrop.wetting.make_wetting_operator(mesh, sub, side=drop.side)
    x = mesh.vertices
    region = capdrop.closure.close_with_spherical_patch(mesh, sub, side="near")
    if region.signed_volume < 0.0:
        region = capdrop.closure.close_with_spherical_patch(mesh, sub, side="far")
    labels = capdrop.closure.signed_containment(region, probes)
    return {
        "angle_mean": rep.mean,
        "angle_dev": rep.max_deviation,
        "h_interior": -h[~mesh.boundary_vertex_mask],
        "wetted_area": op.area(x),
        "volume": mesh.divergence_volume() + op.volume_term(x),
        "closure_volume": region.volume,
        "labels": labels,
    }


def drop_errors(drop, probes: np.ndarray, seen: dict) -> tuple[dict, dict]:
    """Errors of ``inspect_drop`` output against the closed form, and the
    fixed tolerances they are held to."""
    inside = drop_contains(drop, probes)
    expected = np.where(inside, int(capdrop.closure.Containment.INSIDE),
                        int(capdrop.closure.Containment.OUTSIDE))
    h_scale = abs(drop.mean_curvature_toward_drop) + 1.0 / drop.substrate.radius
    errors = {
        "angle_mean": abs(seen["angle_mean"] - drop.gamma),
        "angle_dev": seen["angle_dev"],
        "h": float(np.max(np.abs(seen["h_interior"]
                                 - drop.mean_curvature_toward_drop))),
        "wetted_area": abs(seen["wetted_area"] / drop.wetted_area - 1.0),
        "volume": abs(seen["volume"] / drop.volume - 1.0),
        "closure_volume": abs(seen["closure_volume"] / drop.volume - 1.0),
        "containment_misses": float(np.count_nonzero(seen["labels"] != expected)),
    }
    tolerances = {
        "angle_mean": ANGLE_TOL,
        "angle_dev": ANGLE_TOL,
        "h": H_REL_TOL * h_scale,
        "wetted_area": WET_AREA_REL_TOL,
        "volume": WET_VOLUME_REL_TOL,
        "closure_volume": CLOSURE_VOLUME_REL_TOL,
        "containment_misses": 0.0,
    }
    return errors, tolerances
