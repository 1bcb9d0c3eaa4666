"""Closed-form cap and drop families, and contact-angle measurement.

Every construction here is exact (up to floating point), which makes this
module the oracle layer for the mesh-based solver and verifier: cap radii,
dome volumes, wetted areas and contact angles all come from elementary
sphere geometry.

Orientation conventions used throughout the package:

* free-surface meshes are wound so the vertex normals point out of the
  liquid region W;
* the contact angle gamma is the dihedral angle between the free surface
  and the substrate sphere along the contact line, measured through W.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import jet_fit
from .errors import (
    BoundaryOffSphereError,
    CurvatureTooLargeError,
    DegenerateConfigurationError,
    ZeroCurvatureError,
)
from .geometry import Sphere, unit
from .mesh import TriMesh
from .shapes import spherical_cap_mesh

__all__ = [
    "SphericalCapSpec",
    "spherical_caps_for_circle",
    "cap_volume",
    "CapDrop",
    "interior_drop_cap",
    "exterior_drop_cap",
    "CapillaryParams",
    "ContactAngleReport",
    "contact_angle",
]


def cap_volume(radius: float, height: float) -> float:
    """Volume of a spherical dome of the given carrier radius and height."""
    if not 0.0 <= height <= 2.0 * radius:
        raise ValueError("dome height must lie in [0, 2R]")
    return math.pi * height * height * (3.0 * radius - height) / 3.0


@dataclass(frozen=True)
class SphericalCapSpec:
    """One of the two spherical caps spanning a given circle.

    ``axis`` points from the carrier center toward the cap apex and
    ``polar_angle`` is the opening half-angle at the carrier center, so the
    cap is { c + R u : angle(u, axis) <= polar_angle }.
    """

    carrier: Sphere
    axis: np.ndarray
    polar_angle: float
    circle_radius: float
    height: float
    mean_curvature: float

    @property
    def area(self) -> float:
        return 2.0 * math.pi * self.carrier.radius * self.height

    @property
    def dome_volume(self) -> float:
        """Volume between the cap and the plane of its rim circle."""
        return cap_volume(self.carrier.radius, self.height)

    def mesh(self, n_angular: int = 64, n_rings: int | None = None) -> TriMesh:
        """Triangulation, wound outward with respect to the carrier sphere."""
        return spherical_cap_mesh(self.carrier, self.axis, self.polar_angle,
                                  n_angular=n_angular, n_rings=n_rings)


def spherical_caps_for_circle(
    radius: float,
    curvature: float,
    center: np.ndarray | tuple = (0.0, 0.0, 0.0),
    normal: np.ndarray | tuple = (0.0, 0.0, 1.0),
) -> tuple[SphericalCapSpec, SphericalCapSpec]:
    """The two constant-curvature caps bounded by a circle.

    The circle has the given radius, center and plane normal; ``curvature``
    is the target mean-curvature magnitude 1/R.  Returns (small, large)
    caps on a common carrier sphere; the small cap bulges toward +normal.
    Raises CurvatureTooLargeError when |curvature| * radius > 1 and
    ZeroCurvatureError when the curvature vanishes (use a flat disk).
    """
    if radius <= 0:
        raise ValueError("circle radius must be positive")
    if curvature == 0.0:
        raise ZeroCurvatureError(
            "zero mean curvature: no spherical cap spans the circle, use a flat disk")
    big_r = 1.0 / abs(curvature)
    gap = big_r * big_r - radius * radius
    if gap < -1e-12 * radius * radius:
        raise CurvatureTooLargeError(
            f"|H| r = {abs(curvature) * radius:.6g} > 1: cap radius 1/|H| "
            f"smaller than the circle")
    offset = math.sqrt(max(gap, 0.0))
    n = unit(np.asarray(normal, dtype=float))
    c = np.asarray(center, dtype=float)
    carrier = Sphere(c - offset * n, big_r)
    cos_small = min(offset / big_r, 1.0)
    small = SphericalCapSpec(
        carrier=carrier, axis=n, polar_angle=math.acos(cos_small),
        circle_radius=radius, height=big_r - offset,
        mean_curvature=abs(curvature))
    large = SphericalCapSpec(
        carrier=carrier, axis=-n, polar_angle=math.acos(-cos_small),
        circle_radius=radius, height=big_r + offset,
        mean_curvature=abs(curvature))
    return small, large


# --------------------------------------------------------------------------
# analytic drop families on a spherical substrate


@dataclass(frozen=True)
class CapDrop:
    """Analytic equilibrium drop on a spherical substrate.

    The free surface is one piece of a carrier sphere centered on the
    substrate axis; the wetted region is the polar patch of the substrate
    above the contact circle.  ``piece`` records which carrier piece forms
    the free surface: "lower" (apex below the contact plane, the drop bulges
    away from the wall) or "upper" (apex between the contact plane and the
    pole, the drop is a shallow meniscus caving toward the wall).
    """

    substrate: Sphere
    carrier: Sphere
    side: str
    piece: str
    gamma: float
    contact_polar_angle: float
    contact_radius: float
    contact_height: float
    mean_curvature_toward_drop: float
    volume: float
    free_area: float
    wetted_area: float

    def energy(self, gamma: float | None = None) -> float:
        """Interfacial energy: free area minus cos(gamma) times wetted area."""
        g = self.gamma if gamma is None else gamma
        return self.free_area - math.cos(g) * self.wetted_area

    def free_surface_mesh(self, n_angular: int = 128,
                          n_rings: int | None = None) -> TriMesh:
        """Triangulated free surface, wound with normals out of the drop."""
        d = self.carrier.center[2]
        big_r = self.carrier.radius
        if self.piece == "lower":
            cos_apex = (d - self.contact_height) / big_r
            axis = np.array([0.0, 0.0, -1.0])
        else:
            cos_apex = (self.contact_height - d) / big_r
            axis = np.array([0.0, 0.0, 1.0])
        polar = math.acos(max(-1.0, min(1.0, cos_apex)))
        m = spherical_cap_mesh(self.carrier, axis, polar,
                               n_angular=n_angular, n_rings=n_rings)
        out_of_drop_is_carrier_outward = {
            ("interior", "lower"): True,
            ("interior", "upper"): False,
            ("exterior", "upper"): True,
        }[(self.side, self.piece)]
        return m if out_of_drop_is_carrier_outward else m.flipped()


def _wall_dome_volume(rho: float, z_c: float) -> float:
    return cap_volume(rho, rho - z_c)


def interior_drop_cap(rho: float, contact_polar_angle: float,
                      gamma: float) -> CapDrop:
    """Interior drop attached to the polar patch of a substrate sphere.

    The substrate is the sphere of radius rho about the origin; the drop
    sits inside it, wetting the polar patch above the contact circle at
    polar angle theta = ``contact_polar_angle``, and its free surface meets
    the substrate at contact angle ``gamma`` (measured through the drop).

    The carrier sphere's centre (0, 0, d) and radius R follow from the law
    of sines in the meridian triangle (origin, contact point, carrier
    centre):

        d = rho sin(gamma) / sin(gamma - theta),
        R = rho sin(theta) / |sin(gamma - theta)|.

    gamma > theta gives the lower carrier piece (a bulge), gamma < theta the
    upper one (a meniscus); gamma == theta would require a flat free
    surface and raises DegenerateConfigurationError.
    """
    if rho <= 0:
        raise ValueError("substrate radius must be positive")
    if not 0.0 < contact_polar_angle < math.pi:
        raise ValueError("contact polar angle must lie in (0, pi)")
    if not 0.0 < gamma < math.pi:
        raise ValueError("gamma must lie in (0, pi) for a spherical free surface")
    theta = contact_polar_angle
    z_c = rho * math.cos(theta)
    r_c = rho * math.sin(theta)
    if abs(gamma - theta) < 1e-12:
        raise DegenerateConfigurationError(
            "gamma equals the contact polar angle: the free surface is a "
            "flat disk, not a spherical cap")
    s = math.sin(gamma - theta)
    d = rho * math.sin(gamma) / s
    big_r = r_c / abs(s)

    v_wall = _wall_dome_volume(rho, z_c)
    if s > 0:
        piece = "lower"
        h_f = z_c - (d - big_r)
        volume = v_wall + cap_volume(big_r, h_f)
        h_toward = 1.0 / big_r
    else:
        piece = "upper"
        h_f = (d + big_r) - z_c
        volume = v_wall - cap_volume(big_r, h_f)
        h_toward = -1.0 / big_r
    return CapDrop(
        substrate=Sphere(np.zeros(3), rho),
        carrier=Sphere(np.array([0.0, 0.0, d]), big_r),
        side="interior",
        piece=piece,
        gamma=gamma,
        contact_polar_angle=theta,
        contact_radius=r_c,
        contact_height=z_c,
        mean_curvature_toward_drop=h_toward,
        volume=volume,
        free_area=2.0 * math.pi * big_r * h_f,
        wetted_area=2.0 * math.pi * rho * (rho - z_c),
    )


def exterior_drop_cap(rho: float, carrier_center_height: float,
                      carrier_radius: float) -> CapDrop:
    """Exterior sessile drop: carrier piece outside the substrate sphere.

    The drop occupies the region outside the substrate ball of radius rho,
    inside the carrier sphere centered at (0, 0, carrier_center_height);
    the wetted region is the substrate polar patch.  The contact angle is
    derived rather than prescribed.
    """
    d, big_r = carrier_center_height, carrier_radius
    if rho <= 0 or big_r <= 0 or d <= 0:
        raise ValueError("radii and carrier height must be positive")
    if not abs(rho - big_r) < d < rho + big_r:
        raise DegenerateConfigurationError(
            "carrier sphere does not intersect the substrate in a circle")
    z_c = (rho * rho + d * d - big_r * big_r) / (2.0 * d)
    if not -rho < z_c < rho:
        raise DegenerateConfigurationError("contact circle misses the substrate")
    if d + big_r <= rho:
        raise DegenerateConfigurationError("carrier apex is not outside the ball")
    r_c = math.sqrt(rho * rho - z_c * z_c)
    cg = (rho * rho - z_c * d) / (big_r * rho)
    gamma = math.acos(max(-1.0, min(1.0, cg)))
    h_f = (d + big_r) - z_c
    h_w = rho - z_c
    volume = cap_volume(big_r, h_f) - cap_volume(rho, h_w)
    return CapDrop(
        substrate=Sphere(np.zeros(3), rho),
        carrier=Sphere(np.array([0.0, 0.0, d]), big_r),
        side="exterior",
        piece="upper",
        gamma=gamma,
        contact_polar_angle=math.acos(z_c / rho),
        contact_radius=r_c,
        contact_height=z_c,
        mean_curvature_toward_drop=1.0 / big_r,
        volume=volume,
        free_area=2.0 * math.pi * big_r * h_f,
        wetted_area=2.0 * math.pi * rho * h_w,
    )


# --------------------------------------------------------------------------
# capillary problem parameters


@dataclass(frozen=True)
class CapillaryParams:
    """Parameters of a capillary equilibrium problem.

    gamma is the contact angle in radians; kappa is the slope of the
    prescribed curvature law H = kappa z + mu used by the height-dependent
    solver mode (kappa = 0 means uniform curvature); its constant mu
    emerges from the solve.  side selects whether
    the drop lives inside or outside the substrate ball.  Exactly one of
    target_volume / target_curvature must be set: the former fixes the
    enclosed volume; the latter, with kappa = 0, fixes the cap drop of that
    mean curvature, whose volume the solver then holds (the height law
    takes a volume target only).
    """

    gamma: float
    kappa: float = 0.0
    side: str = "interior"
    target_volume: float | None = None
    target_curvature: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= math.pi:
            raise ValueError("gamma must lie in [0, pi]")
        if self.side not in ("interior", "exterior"):
            raise ValueError("side must be 'interior' or 'exterior'")
        if (self.target_volume is None) == (self.target_curvature is None):
            raise ValueError(
                "exactly one of target_volume / target_curvature must be set")
        if self.target_volume is not None and self.target_volume <= 0:
            raise ValueError("target volume must be positive")


# --------------------------------------------------------------------------
# contact-angle measurement

# contact_angle needs every boundary vertex within this many radii of the sphere
CONTACT_BOUNDARY_TOL = 1e-6


@dataclass(frozen=True)
class ContactAngleReport:
    """Per-boundary-vertex contact angles plus constancy statistics."""

    angles: np.ndarray
    loops: list
    loop_angles: list
    mean: float
    max_deviation: float
    side: str


def _drop_side(mesh: TriMesh, sphere: Sphere, side: str) -> str:
    """``side`` checked, with "auto" resolved from the sign of the mean
    signed distance of the mesh's interior vertices to the sphere."""
    if side == "auto":
        interior_mask = ~mesh.boundary_vertex_mask
        probe = mesh.vertices[interior_mask] if interior_mask.any() else mesh.vertices
        side = "interior" if float(
            np.mean(sphere.signed_distance(probe))) <= 0.0 else "exterior"
    if side not in ("interior", "exterior"):
        raise ValueError("side must be 'auto', 'interior' or 'exterior'")
    return side


def contact_angle(mesh: TriMesh, sphere: Sphere,
                  side: str = "auto") -> ContactAngleReport:
    """Contact angle along each boundary loop of a surface on a sphere.

    The angle at a boundary vertex is the dihedral angle between the
    surface and the substrate sphere measured through the drop region W,
    computed as the angle between the surface normal pointing into W and
    the substrate normal pointing out of W.  The mesh winding must point
    out of the drop (the package-wide convention).  ``side`` selects where
    W lies relative to the substrate ball ("interior" / "exterior"); with
    "auto" it is inferred from the sign of the mean signed distance of the
    interior vertices.

    The surface normals come from :func:`jet_fit` on its ``JET_RINGS``-ring
    starting stencil; boundary vertices see their rings from one side only,
    and their stencils grow a ring at a time until they hold
    ``JET_MIN_SAMPLES`` neighbours.  Where the connected component is too
    small for that, the winding vertex normal stands in for the fitted one.

    Raises BoundaryOffSphereError when a boundary vertex is farther than
    ``CONTACT_BOUNDARY_TOL`` * radius from the sphere.
    """
    loops = mesh.boundary_loops()
    if not loops:
        raise BoundaryOffSphereError("mesh has no boundary")
    rho = sphere.radius
    all_bnd = np.concatenate(loops)
    dist = np.abs(sphere.signed_distance(mesh.vertices[all_bnd]))
    worst = float(dist.max())
    if worst > CONTACT_BOUNDARY_TOL * rho:
        raise BoundaryOffSphereError(
            f"boundary vertex off the sphere by {worst:.3g} "
            f"(tolerance {CONTACT_BOUNDARY_TOL * rho:.3g})")

    side = _drop_side(mesh, sphere, side)
    wall_sign = 1.0 if side == "interior" else -1.0

    normals_fit, _ = jet_fit(mesh, all_bnd)
    loop_angles = []
    pos = 0
    for loop in loops:
        n_fit = normals_fit[pos:pos + len(loop)]
        pos += len(loop)
        # into-drop surface normal: winding points out of the drop
        into_drop = -n_fit
        out_of_drop_wall = wall_sign * sphere.outward_normals(mesh.vertices[loop])
        cosg = np.clip(np.sum(into_drop * out_of_drop_wall, axis=1), -1.0, 1.0)
        loop_angles.append(np.arccos(cosg))
    angles = np.concatenate(loop_angles)
    mean = float(angles.mean())
    return ContactAngleReport(
        angles=angles,
        loops=[np.asarray(l) for l in loops],
        loop_angles=loop_angles,
        mean=mean,
        max_deviation=float(np.abs(angles - mean).max()),
        side=side,
    )
