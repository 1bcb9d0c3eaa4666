"""Differentiable wetted-patch functionals.

The capillary energy and the volume constraint need the area, the enclosed
volume and the z-moment of the drop region W, whose boundary is the free
surface plus a patch of the substrate sphere.  Meshing that patch every
iteration would be slow and non-differentiable, so the patch contributions
are evaluated as line integrals over the free-surface boundary loops.  Both
densities are circulations of one family of potentials, alpha(z) (-y, x, 0),
and each is given by its profile, alpha and alpha':

* area:      alpha = rho / (rho + z) in a frame whose +z axis is a chosen
             pole; (curl .) . n = 1 on the sphere.  Singular only at the
             antipode of the pole, which calibration keeps off-patch.
* z^3 flux:  alpha = rho (z^2 + rho^2) / 4 in the world frame, giving
             (curl .) . n = z^3; smooth on the whole sphere.  The z-moment
             of W over the patch is z^3 flux / (2 rho) up to the side sign.

Circulations are computed on the boundary polygon with two-point Gauss
quadrature per chord.  At a node q of a chord e the integrand is
alpha (x e_y - y e_x); its gradient is (alpha e_y, -alpha e_x,
alpha' (x e_y - y e_x)) in q and the potential itself in e, so every
functional has a closed-form gradient with respect to the loop vertex
positions.  Everything assumes the substrate sphere is centered at the
origin; callers translate first.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .analytic import _drop_side
from .closure import close_with_spherical_patch
from .errors import LoopsNotInHemisphereError, WettingCalibrationError
from .geometry import Sphere, cross3, open_hemisphere_pole, rotation_between
from .mesh import TriMesh
from .spatial import winding_numbers

__all__ = [
    "WettingOperator",
    "make_wetting_operator",
    "surface_volume_gradient",
    "surface_z_moment",
    "surface_z_moment_gradient",
]

# the two Gauss nodes of a chord a -> b sit at (a + b) / 2 -+ off (b - a);
# each node's weight toward a (toward b it is 1 - weight)
_GAUSS_OFF = 0.5 / math.sqrt(3.0)
_GAUSS_STEPS = np.array([-_GAUSS_OFF, _GAUSS_OFF])[:, None, None]
_GAUSS_WEIGHTS = 0.5 - _GAUSS_STEPS


def _area_profile(z: np.ndarray, rho: float):
    """alpha and alpha' of the area potential, in the pole frame."""
    alpha = rho / (rho + z)
    return alpha, -alpha / (rho + z)


def _z3_profile(z: np.ndarray, rho: float):
    """alpha and alpha' of the z^3-flux potential, in the world frame."""
    return rho * (z * z + rho * rho) / 4.0, rho * z / 2.0


def _next(loop_pts: np.ndarray) -> np.ndarray:
    """Each loop vertex's successor (``np.roll(loop_pts, -1, axis=0)``)."""
    return np.concatenate([loop_pts[1:], loop_pts[:1]])


def _chord_nodes(loop_pts: np.ndarray, rot: np.ndarray | None):
    """Each chord of a closed polygon, in the frame ``rot`` takes it to:
    its vector e = b - a, shape (m, 3), and its two Gauss nodes, shape
    (2, m, 3), the one nearer a first."""
    a = loop_pts
    b = _next(loop_pts)
    if rot is not None:
        a = a @ rot.T
        b = b @ rot.T
    e = b - a
    return e, 0.5 * (a + b) + _GAUSS_STEPS * e


def _circulation(vertices: np.ndarray, loops, rho: float, profile,
                 rot: np.ndarray | None) -> float:
    """2-point Gauss circulation of alpha(z) (-y, x, 0) over closed
    polygons: at each node, alpha (x e_y - y e_x)."""
    total = 0.0
    for l in loops:
        e, q = _chord_nodes(vertices[l], rot)
        alpha, _ = profile(q[..., 2], rho)
        total += float(np.sum(alpha * (q[..., 0] * e[:, 1]
                                       - q[..., 1] * e[:, 0])))
    return 0.5 * total


def _circulation_gradient(vertices: np.ndarray, loops, rho: float, profile,
                          rot: np.ndarray | None) -> np.ndarray:
    """Gradient of the circulation with respect to every vertex."""
    grad = np.zeros_like(vertices)
    for l in loops:
        e, q = _chord_nodes(vertices[l], rot)
        alpha, dalpha = profile(q[..., 2], rho)
        x, y = q[..., 0], q[..., 1]
        # gradient of alpha (x e_y - y e_x) in the node (J^T e) and in e
        # (the field itself), chained through the node's weights toward a, b
        jte = np.stack([alpha * e[:, 1], -alpha * e[:, 0],
                        dalpha * (x * e[:, 1] - y * e[:, 0])], axis=-1)
        fld = np.stack([-alpha * y, alpha * x, np.zeros_like(x)], axis=-1)
        grad_a = (_GAUSS_WEIGHTS * jte - fld).sum(axis=0)
        grad_b = ((1.0 - _GAUSS_WEIGHTS) * jte + fld).sum(axis=0)
        # vertex i is the end b of chord i - 1
        grad_l = 0.5 * (grad_a + np.roll(grad_b, 1, axis=0))
        grad[l] = grad_l if rot is None else grad_l @ rot
    return grad


def _require_origin_centered(sphere: Sphere) -> None:
    if np.linalg.norm(sphere.center) > 1e-12 * sphere.radius:
        raise ValueError("wetting operator requires an origin-centered substrate")


@dataclass(frozen=True)
class WettingOperator:
    """Patch functionals of one wetted region, bound to fixed boundary loops.

    ``sphere`` is the substrate.  ``loops`` index into the owning mesh's
    vertex array.  ``side_sign`` is +1 when the drop is inside the substrate
    ball (patch normal out of W points out of the ball) and -1 outside; the
    patch boundary runs against the mesh loops, so every circulation is
    taken with the orientation ``-side_sign``.  ``rot`` takes ``pole`` to +z
    (None if it already is); it is computed once, on construction.  Valid
    until the mesh connectivity changes; rebuild after remeshing.
    """

    sphere: Sphere
    loops: tuple
    side_sign: float
    pole: np.ndarray
    rot: np.ndarray | None = dataclass_field(init=False, repr=False,
                                             compare=False)

    def __post_init__(self):
        _require_origin_centered(self.sphere)
        rot = (None if abs(self.pole[2] - 1.0) < 1e-15 else
               rotation_between(self.pole, np.array([0.0, 0.0, 1.0])))
        object.__setattr__(self, "rot", rot)

    @property
    def side(self) -> str:
        """"interior" or "exterior": the drop's side of the substrate."""
        return "interior" if self.side_sign > 0 else "exterior"

    def area(self, vertices: np.ndarray) -> float:
        return -self.side_sign * _circulation(
            vertices, self.loops, self.sphere.radius, _area_profile, self.rot)

    def area_gradient(self, vertices: np.ndarray) -> np.ndarray:
        return -self.side_sign * _circulation_gradient(
            vertices, self.loops, self.sphere.radius, _area_profile, self.rot)

    # -- contributions of the patch to the functionals of W -------------------

    def volume_term(self, vertices: np.ndarray) -> float:
        return self.side_sign * self.sphere.radius / 3.0 * self.area(vertices)

    def z_moment_term(self, vertices: np.ndarray) -> float:
        """The patch's part of the z-moment of W: its z^3 flux over 2 rho.
        The flux is taken with the orientation -side_sign, so the side sign
        cancels."""
        rho = self.sphere.radius
        return -1.0 / (2.0 * rho) * _circulation(
            vertices, self.loops, rho, _z3_profile, None)

    def z_moment_term_gradient(self, vertices: np.ndarray) -> np.ndarray:
        rho = self.sphere.radius
        return -1.0 / (2.0 * rho) * _circulation_gradient(
            vertices, self.loops, rho, _z3_profile, None)


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
    so the orientation is -side_sign: -1 for interior drops and +1 for
    exterior ones.  Only the area-field pole needs calibrating: of the loops'
    max-margin pole (:func:`open_hemisphere_pole`) and its antipode, the
    valid one yields a positive patch area not exceeding the sphere area.
    When a meshed closure exists it cross-checks the result: the closure of
    the drop is the one with positive volume for an interior drop, and the
    one that leaves out the substrate centre for an exterior drop.
    """
    _require_origin_centered(sphere)
    loops = tuple(np.asarray(l) for l in mesh.boundary_loops())
    if not loops:
        raise ValueError("mesh has no boundary to wet")

    side = _drop_side(mesh, sphere, side)
    side_sign = 1.0 if side == "interior" else -1.0

    pts = np.concatenate([mesh.vertices[l] for l in loops])
    found = open_hemisphere_pole(pts / np.linalg.norm(pts, axis=1, keepdims=True))
    base_pole = found[0] if found is not None else _loop_axis(pts)

    rho = sphere.radius
    sphere_area = 4.0 * math.pi * rho * rho
    candidates = []
    for pole in (base_pole, -base_pole):
        op = WettingOperator(sphere=sphere, loops=loops, side_sign=side_sign,
                             pole=pole)
        a_est = op.area(mesh.vertices)
        if 1e-12 * rho * rho < a_est <= sphere_area * (1.0 + 1e-3):
            candidates.append((a_est, op))
    if not candidates:
        raise WettingCalibrationError(
            "wetted-patch calibration failed: no pole gives a positive patch "
            "area; is the mesh wound with normals out of the drop?")
    a_est, op = min(candidates, key=lambda pair: pair[0])

    try:
        region = close_with_spherical_patch(mesh, sphere, side="near")
        # an exterior drop closed by the patch it does not wet encloses the
        # substrate ball as well, again with positive volume
        holds_other = (region.signed_volume < 0.0 if side == "interior" else
                       abs(winding_numbers(sphere.center[None], region.mesh)[0]) > 0.5)
        if holds_other:
            region = close_with_spherical_patch(mesh, sphere, side="far")
        area_true = region.patch_area()
        if region.signed_volume < 0.0 or \
                abs(a_est - area_true) > 0.05 * max(area_true, rho * rho):
            raise WettingCalibrationError(
                f"wetted-patch calibration failed: line-integral area "
                f"{a_est:.6g} against meshed patch area {area_true:.6g}")
    except LoopsNotInHemisphereError:
        pass  # near-hemisphere patch: the closure cannot mesh it, skip the check
    return op


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
