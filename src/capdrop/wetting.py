"""Differentiable wetted-patch functionals.

The capillary energy and the volume constraint need the area, the enclosed
volume and the z-moment of the drop region W, whose boundary is the free
surface plus a patch of the substrate sphere.  Meshing that patch every
iteration would be slow and non-differentiable, so the patch contributions
are evaluated as line integrals over the free-surface boundary loops using
vector potentials of the relevant surface densities:

* area:      G(p) = rho (-y, x, 0) / (rho + z) in a frame whose +z axis is
             a chosen pole; (curl G) . n = 1 on the sphere.  Singular only
             at the antipode of the pole, which calibration keeps off-patch.
* z^3 flux:  A(z) (-y, x, 0) with A(z) = rho (z^2 + rho^2) / 4, giving
             (curl .) . n = z^3; smooth on the whole sphere.  The z-moment
             of W over the patch is z^3 flux / (2 rho) up to the side sign.

Circulations are computed on the boundary polygon with two-point Gauss
quadrature per chord, and all functionals come with analytic gradients with
respect to the loop vertex positions.  Everything assumes the substrate
sphere is centered at the origin; callers translate first.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .closure import close_with_spherical_patch
from .errors import LoopsNotInHemisphereError, WettingCalibrationError
from .geometry import (Sphere, cross3, open_hemisphere_pole, rotation_between,
                       unit)
from .mesh import TriMesh

__all__ = [
    "WettingOperator",
    "make_wetting_operator",
    "surface_volume_gradient",
    "surface_z_moment",
    "surface_z_moment_gradient",
]

_GAUSS_OFF = 0.5 / math.sqrt(3.0)


def _gauss_points(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mid = 0.5 * (a + b)
    off = _GAUSS_OFF * (b - a)
    return mid - off, mid + off


def _area_field(p: np.ndarray, rho: float) -> np.ndarray:
    denom = rho + p[:, 2]
    out = np.zeros_like(p)
    out[:, 0] = -rho * p[:, 1] / denom
    out[:, 1] = rho * p[:, 0] / denom
    return out


def _area_field_jac(p: np.ndarray, rho: float) -> np.ndarray:
    denom = rho + p[:, 2]
    jac = np.zeros((len(p), 3, 3))
    jac[:, 0, 1] = -rho / denom
    jac[:, 0, 2] = rho * p[:, 1] / denom ** 2
    jac[:, 1, 0] = rho / denom
    jac[:, 1, 2] = -rho * p[:, 0] / denom ** 2
    return jac


def _z3_field(p: np.ndarray, rho: float) -> np.ndarray:
    alpha = rho * (p[:, 2] ** 2 + rho * rho) / 4.0
    out = np.zeros_like(p)
    out[:, 0] = -alpha * p[:, 1]
    out[:, 1] = alpha * p[:, 0]
    return out


def _z3_field_jac(p: np.ndarray, rho: float) -> np.ndarray:
    alpha = rho * (p[:, 2] ** 2 + rho * rho) / 4.0
    dalpha = rho * p[:, 2] / 2.0
    jac = np.zeros((len(p), 3, 3))
    jac[:, 0, 1] = -alpha
    jac[:, 0, 2] = -dalpha * p[:, 1]
    jac[:, 1, 0] = alpha
    jac[:, 1, 2] = dalpha * p[:, 0]
    return jac


def _next(loop_pts: np.ndarray) -> np.ndarray:
    """Each loop vertex's successor (``np.roll(loop_pts, -1, axis=0)``)."""
    return np.concatenate([loop_pts[1:], loop_pts[:1]])


def _pole_rotation(pole: np.ndarray) -> np.ndarray | None:
    """Rotation taking ``pole`` to +z; None when it already is +z."""
    if abs(pole[2] - 1.0) < 1e-15:
        return None
    return rotation_between(pole, np.array([0.0, 0.0, 1.0]))


def _circulation(loop_pts: np.ndarray, rho: float, field, rot: np.ndarray | None):
    """2-point Gauss circulation of a field over a closed polygon."""
    a = loop_pts
    b = _next(loop_pts)
    if rot is not None:
        a = a @ rot.T
        b = b @ rot.T
    q1, q2 = _gauss_points(a, b)
    e = b - a
    vals = 0.5 * (field(q1, rho) + field(q2, rho))
    return float(np.sum(vals * e))


def _circulation_gradient(loop_pts: np.ndarray, rho: float, field, field_jac,
                          rot: np.ndarray | None) -> np.ndarray:
    """Gradient of the circulation with respect to each loop vertex."""
    a = loop_pts
    b = _next(loop_pts)
    if rot is not None:
        a = a @ rot.T
        b = b @ rot.T
    q1, q2 = _gauss_points(a, b)
    e = b - a
    g1, g2 = field(q1, rho), field(q2, rho)
    j1, j2 = field_jac(q1, rho), field_jac(q2, rho)
    # d(circ)/dq at the two Gauss nodes: J(q)^T e
    jte1 = np.einsum("mij,mi->mj", j1, e)
    jte2 = np.einsum("mij,mi->mj", j2, e)
    half_sum = 0.5 * (g1 + g2)
    # chain rule through q1 = m - off, q2 = m + off, e = b - a
    ca1, ca2 = 0.5 + _GAUSS_OFF, 0.5 - _GAUSS_OFF
    grad_a = 0.5 * (ca1 * jte1 + ca2 * jte2) - half_sum
    grad_b = 0.5 * (ca2 * jte1 + ca1 * jte2) + half_sum
    # vertex i is the end b of chord i - 1
    grad = grad_a
    grad[1:] += grad_b[:-1]
    grad[0] += grad_b[-1]
    if rot is not None:
        grad = grad @ rot
    return grad


def _require_origin_centered(sphere: Sphere) -> None:
    if np.linalg.norm(sphere.center) > 1e-12 * sphere.radius:
        raise ValueError("wetting operator requires an origin-centered substrate")


@dataclass(frozen=True)
class WettingOperator:
    """Patch functionals of one wetted region, bound to fixed boundary loops.

    ``loops`` index into the owning mesh's vertex array; ``sign`` is the
    circulation orientation fixed at calibration time; ``side_sign`` is +1
    when the drop is inside the substrate ball (patch normal out of W points
    out of the ball) and -1 outside.  ``rot`` takes ``pole`` to +z (None if
    it already is); it is computed once, on construction.  Valid until the
    mesh connectivity changes; rebuild after remeshing.
    """

    sphere: Sphere
    loops: tuple
    sign: float
    side_sign: float
    pole: np.ndarray
    rot: np.ndarray | None = dataclass_field(init=False, repr=False,
                                             compare=False)

    def __post_init__(self):
        _require_origin_centered(self.sphere)
        object.__setattr__(self, "rot", _pole_rotation(self.pole))

    def area(self, vertices: np.ndarray) -> float:
        rho = self.sphere.radius
        rot = self.rot
        return self.sign * sum(
            _circulation(vertices[l], rho, _area_field, rot) for l in self.loops)

    def area_gradient(self, vertices: np.ndarray) -> np.ndarray:
        rho = self.sphere.radius
        rot = self.rot
        grad = np.zeros_like(vertices)
        for l in self.loops:
            grad[l] += self.sign * _circulation_gradient(
                vertices[l], rho, _area_field, _area_field_jac, rot)
        return grad

    def z_cubed_flux(self, vertices: np.ndarray) -> float:
        """Integral of z^3 over the patch (orientation-corrected)."""
        rho = self.sphere.radius
        return self.sign * sum(
            _circulation(vertices[l], rho, _z3_field, None) for l in self.loops)

    def z_cubed_flux_gradient(self, vertices: np.ndarray) -> np.ndarray:
        rho = self.sphere.radius
        grad = np.zeros_like(vertices)
        for l in self.loops:
            grad[l] += self.sign * _circulation_gradient(
                vertices[l], rho, _z3_field, _z3_field_jac, None)
        return grad

    # -- contributions of the patch to the functionals of W -------------------

    def volume_term(self, vertices: np.ndarray) -> float:
        return self.side_sign * self.sphere.radius / 3.0 * self.area(vertices)

    def z_moment_term(self, vertices: np.ndarray) -> float:
        return self.side_sign / (2.0 * self.sphere.radius) * self.z_cubed_flux(vertices)

    def z_moment_term_gradient(self, vertices: np.ndarray) -> np.ndarray:
        return self.side_sign / (2.0 * self.sphere.radius) * \
            self.z_cubed_flux_gradient(vertices)


def _loop_axis(pts: np.ndarray) -> np.ndarray:
    """Projected-area axis of a closed polygon; robust for great circles."""
    axis = 0.5 * cross3(pts, _next(pts)).sum(axis=0)
    n = np.linalg.norm(axis)
    if n < 1e-30:
        raise LoopsNotInHemisphereError(
            "cannot orient the wetted patch: degenerate boundary loops")
    return axis / n


def make_wetting_operator(mesh: TriMesh, sphere: Sphere,
                          side: str = "auto") -> WettingOperator:
    """Bind a WettingOperator to the boundary loops of a free surface.

    The circulation orientation is forced by the winding convention: with
    the free surface wound out of the drop, the patch boundary (induced by
    the patch's own out-of-drop winding) runs opposite to the mesh loops,
    so the orientation sign is -1 for interior drops and +1 for exterior
    ones.  Only the area-field pole needs calibrating: of the two
    candidates, the valid one yields a positive patch area not exceeding
    the sphere area.  When a meshed closure exists it cross-checks the
    result.
    """
    _require_origin_centered(sphere)
    loops = tuple(np.asarray(l) for l in mesh.boundary_loops())
    if not loops:
        raise ValueError("mesh has no boundary to wet")

    if side == "auto":
        interior_mask = ~mesh.boundary_vertex_mask
        probe = mesh.vertices[interior_mask] if interior_mask.any() else mesh.vertices
        side = "interior" if float(
            np.mean(sphere.signed_distance(probe))) <= 0.0 else "exterior"
    if side not in ("interior", "exterior"):
        raise ValueError("side must be 'auto', 'interior' or 'exterior'")
    side_sign = 1.0 if side == "interior" else -1.0
    sign = -side_sign

    pts = np.concatenate([mesh.vertices[l] for l in loops])
    lp = open_hemisphere_pole(pts / np.linalg.norm(pts, axis=1, keepdims=True))
    base_pole = unit(lp[0]) if lp is not None else _loop_axis(pts)

    rho = sphere.radius
    sphere_area = 4.0 * math.pi * rho * rho
    best = None
    for pole in (base_pole, -base_pole):
        rot = _pole_rotation(pole)
        circ = sum(_circulation(mesh.vertices[l], rho, _area_field, rot)
                   for l in loops)
        a_est = sign * circ
        if a_est <= 1e-12 * rho * rho or a_est > sphere_area * (1.0 + 1e-3):
            continue
        if best is None or a_est < best[0]:
            best = (a_est, pole)
    if best is None:
        raise WettingCalibrationError(
            "wetted-patch calibration failed: no pole gives a positive patch "
            "area; is the mesh wound with normals out of the drop?")
    a_est, pole = best

    try:
        region = close_with_spherical_patch(mesh, sphere, side="near")
        if region.signed_volume < 0.0:
            region = close_with_spherical_patch(mesh, sphere, side="far")
        area_true = region.patch_area()
        if region.signed_volume < 0.0 or \
                abs(a_est - area_true) > 0.05 * max(area_true, rho * rho):
            raise WettingCalibrationError(
                f"wetted-patch calibration failed: line-integral area "
                f"{a_est:.6g} against meshed patch area {area_true:.6g}")
    except LoopsNotInHemisphereError:
        pass  # near-hemisphere patch: the closure cannot mesh it, skip the check
    return WettingOperator(sphere=sphere, loops=loops, sign=sign,
                           side_sign=side_sign, pole=pole)


# -- surface-side contributions (over the free-surface mesh itself) -----------


def surface_volume_gradient(mesh: TriMesh) -> np.ndarray:
    """Gradient of the divergence-theorem volume sum over the mesh faces."""
    v, f = mesh.vertices, mesh.faces
    a, b, c = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    return mesh.scatter(np.stack([cross3(b, c) / 6.0, cross3(c, a) / 6.0,
                                  cross3(a, b) / 6.0]))


def surface_z_moment(vertices: np.ndarray, faces: np.ndarray) -> float:
    """Flux of (0, 0, z^2/2) through the mesh: the surface part of the
    z-moment of the enclosed region."""
    a, b, c = vertices[faces[:, 0]], vertices[faces[:, 1]], vertices[faces[:, 2]]
    avec_z = 0.5 * cross3(b - a, c - a)[:, 2]
    za, zb, zc = a[:, 2], b[:, 2], c[:, 2]
    zsum = za * za + zb * zb + zc * zc + za * zb + za * zc + zb * zc
    return float(np.sum(avec_z * zsum) / 12.0)


def surface_z_moment_gradient(mesh: TriMesh) -> np.ndarray:
    """Gradient of :func:`surface_z_moment` with respect to the vertices."""
    v, f = mesh.vertices, mesh.faces
    a, b, c = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    avec_z = 0.5 * cross3(b - a, c - a)[:, 2]
    za, zb, zc = a[:, 2], b[:, 2], c[:, 2]
    zsum = za * za + zb * zb + zc * zc + za * zb + za * zc + zb * zc
    zhat = np.array([0.0, 0.0, 1.0])
    # area-vector z-component varies with vertex positions ...
    ga = 0.5 * cross3(zhat, c - b) * zsum[:, None]
    gb = 0.5 * cross3(zhat, a - c) * zsum[:, None]
    gc = 0.5 * cross3(zhat, b - a) * zsum[:, None]
    # ... and the z-quadratic varies through each vertex's z
    ga[:, 2] += avec_z * (2.0 * za + zb + zc)
    gb[:, 2] += avec_z * (2.0 * zb + za + zc)
    gc[:, 2] += avec_z * (2.0 * zc + za + zb)
    return mesh.scatter(np.stack([ga / 12.0, gb / 12.0, gc / 12.0]))
