"""Closing a surface against its supporting sphere, and containment queries.

A surface whose boundary loops sit on a sphere can be closed by filling each
loop with a triangulated patch of the sphere.  The closed result bounds the
region used for volume bookkeeping and for inside/outside tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np
from scipy.optimize import nnls

from .errors import (
    AlreadyClosedError,
    BoundaryOffSphereError,
    LoopsNotInHemisphereError,
    SelfIntersectingPatchError,
)
from .geometry import Sphere, rotation_between
from .mesh import TriMesh
from .spatial import MeshDistanceQuery, winding_numbers

__all__ = ["ClosedRegion", "close_with_spherical_patch", "signed_containment", "Containment"]


class Containment(IntEnum):
    OUTSIDE = -1
    ON_BOUNDARY = 0
    INSIDE = 1


@dataclass
class ClosedRegion:
    """A closed oriented mesh split into source faces and spherical patch faces.

    ``mesh`` is the watertight union; ``patch_face_mask`` flags the faces that
    triangulate the sphere patches.  ``signed_volume`` is the divergence
    volume under the mesh's own winding (positive when wound outward).
    """

    mesh: TriMesh
    patch_face_mask: np.ndarray
    sphere: Sphere
    side: str
    signed_volume: float = field(init=False)

    def __post_init__(self):
        self.signed_volume = self.mesh.enclosed_volume()

    @property
    def volume(self) -> float:
        """Unsigned enclosed volume."""
        return abs(self.signed_volume)

    def patch_area(self) -> float:
        return float(self.mesh.face_areas[self.patch_face_mask].sum())


def _max_margin_pole(q: np.ndarray) -> np.ndarray | None:
    """Unit ``w`` maximising ``min_i dot(w, q_i)`` over the unit rows ``q``.

    ``w`` points at the point of the convex hull of ``q`` nearest the origin,
    found by one non-negative least-squares solve over ``q`` and a sum-to-one
    row (Lawson & Hanson's least-distance program).  Unlike the LP vertex of
    ``open_hemisphere_pole``, it lies inside a small loop.  Returns None when
    the margin is at most 1e-9: no open hemisphere holds the rows.
    """
    e = np.vstack([q.T, np.ones(len(q))])
    f = np.array([0.0, 0.0, 0.0, 1.0])
    lam, _ = nnls(e, f)
    r = e @ lam - f
    # with p the nearest point, r = (p, -|p|^2) / (1 + |p|^2)
    norm = float(np.linalg.norm(r[:3]))
    if norm < 1e-300:
        return None
    w = r[:3] / norm
    if float((q @ w).min()) <= 1e-9:
        return None
    return w


def _loop_patch(loop_pts: np.ndarray, sphere: Sphere, toward_pole: bool,
                target_edge: float) -> tuple[np.ndarray, np.ndarray]:
    """Triangulate the spherical domain bounded by one loop.

    Returns (new_vertices, faces) where faces index first into the loop (0..k-1)
    and then into the new vertices (k, k+1, ...).  ``toward_pole`` picks the
    domain on the side of the loop's max-margin pole; otherwise its complement.
    """
    k = len(loop_pts)
    q = (loop_pts - sphere.center) / sphere.radius
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    pole = _max_margin_pole(q)
    if pole is None:
        raise LoopsNotInHemisphereError("boundary loop is not contained in an open hemisphere")
    if not toward_pole:
        pole = -pole

    rot = rotation_between(pole, np.array([0.0, 0.0, 1.0]))
    local = q @ rot.T
    theta = np.arccos(np.clip(local[:, 2], -1.0, 1.0))
    phi = np.arctan2(local[:, 1], local[:, 0])
    if np.any(theta < 1e-9) or np.any(theta > np.pi - 1e-9):
        raise SelfIntersectingPatchError("loop passes through the patch apex")
    # star-shapedness about the pole: azimuths must wind exactly once, monotonically
    dphi = np.diff(np.concatenate([phi, phi[:1]]))
    dphi = (dphi + np.pi) % (2.0 * np.pi) - np.pi
    total = dphi.sum()
    if abs(abs(total) - 2.0 * np.pi) > 1e-6:
        raise SelfIntersectingPatchError(
            f"loop winds {total / (2 * np.pi):.3f} times around the patch apex; need exactly one turn"
        )
    if not (np.all(dphi > 1e-12) or np.all(dphi < -1e-12)):
        raise SelfIntersectingPatchError(
            "loop azimuths are not monotone around the patch apex; patch columns would cross"
        )

    theta_max = float(theta.max())
    n_rings = max(1, int(np.ceil(theta_max * sphere.radius / max(target_edge, 1e-12))))
    apex_world = sphere.center + sphere.radius * pole

    # the apex is new vertex k; interior rings r = n_rings-1, ..., 1 follow it,
    # k vertices each, at the fraction r / n_rings of each loop vertex's polar
    # angle; ring n_rings is the loop itself (indices 0..k-1)
    th = (np.arange(n_rings - 1, 0, -1) / n_rings)[:, None] * theta
    pts_local = np.stack([np.sin(th) * np.cos(phi), np.sin(th) * np.sin(phi),
                          np.cos(th)], axis=-1).reshape(-1, 3)
    new_pts = np.concatenate([apex_world[None, :],
                              (pts_local @ rot) * sphere.radius + sphere.center])

    r = np.arange(1, n_rings + 1)
    ring = np.where(r == n_rings, 0, k + 1 + (n_rings - 1 - r) * k)[:, None] + np.arange(k)
    ring_next = np.roll(ring, -1, axis=1)

    # Winding rule: every ring edge is traversed forward by the fan/strip
    # beneath it and backward by the strip above it; the outermost (loop) ring
    # is traversed backward only, which pairs with the source surface's own
    # forward traversal so the stitched mesh is consistently oriented.
    fan = np.column_stack([np.full(k, k), ring_next[0], ring[0]])
    a0, a1, b0, b1 = ring[:-1], ring_next[:-1], ring[1:], ring_next[1:]
    strips = np.stack([np.stack([a0, b1, b0], axis=-1),
                       np.stack([a0, a1, b1], axis=-1)], axis=2)
    return new_pts, np.concatenate([fan, strips.reshape(-1, 3)]).astype(np.int64)


def close_with_spherical_patch(mesh: TriMesh, sphere: Sphere, side: str = "near",
                               boundary_tol: float | None = None) -> ClosedRegion:
    """Close every boundary loop of ``mesh`` with a patch of ``sphere``.

    Each loop must lie on the sphere (within ``boundary_tol``, default
    ``1e-3 * radius``) and inside an open hemisphere.  ``side="near"`` fills
    the spherical domain around each loop's own hemisphere pole; ``side="far"``
    fills the complementary domain (single-loop meshes only, since the far
    domains of several loops overlap).  The patch is wound so the closed mesh
    is consistently oriented, and patch triangles are refined until their
    edges are no longer than the mean boundary edge of the source surface.

    Raises
    ------
    AlreadyClosedError, BoundaryOffSphereError, LoopsNotInHemisphereError,
    SelfIntersectingPatchError
    """
    if side not in ("near", "far"):
        raise ValueError("side must be 'near' or 'far'")
    loops = mesh.boundary_loops()
    if not loops:
        raise AlreadyClosedError("mesh is closed; nothing to close")
    if side == "far" and len(loops) > 1:
        raise ValueError("side='far' is only defined for a single boundary loop")
    if boundary_tol is None:
        boundary_tol = 1e-3 * sphere.radius
    all_bnd = np.concatenate(loops)
    dist = np.abs(sphere.signed_distance(mesh.vertices[all_bnd]))
    if dist.max() > boundary_tol:
        raise BoundaryOffSphereError(
            f"boundary vertex at distance {dist.max():.3e} from the sphere exceeds tolerance {boundary_tol:.3e}"
        )

    vertices = mesh.vertices.copy()
    # snap boundary loops onto the sphere exactly before patching
    vertices[all_bnd] = sphere.project(vertices[all_bnd])
    faces = [mesh.faces.copy()]
    patch_sizes = []

    bnd_edge_lengths = np.linalg.norm(
        vertices[mesh.boundary_directed_edges[:, 0]] - vertices[mesh.boundary_directed_edges[:, 1]],
        axis=1,
    )
    target_edge = float(bnd_edge_lengths.mean())

    for loop in loops:
        new_pts, patch_faces = _loop_patch(vertices[loop], sphere, side == "near", target_edge)
        base = len(vertices)
        remap = np.concatenate([loop, base + np.arange(len(new_pts))])
        faces.append(remap[patch_faces])
        vertices = np.concatenate([vertices, new_pts], axis=0)
        patch_sizes.append(len(patch_faces))

    all_faces = np.concatenate(faces, axis=0)
    mask = np.zeros(len(all_faces), dtype=bool)
    mask[len(mesh.faces):] = True
    closed = TriMesh(vertices, all_faces, validate=True)
    return ClosedRegion(mesh=closed, patch_face_mask=mask, sphere=sphere, side=side)


def signed_containment(region: ClosedRegion | TriMesh, points: np.ndarray,
                       tol: float | None = None,
                       distance_query: MeshDistanceQuery | None = None) -> np.ndarray:
    """Classify points against a closed region: inside, outside, or on-boundary.

    Points within ``tol`` of the surface (default ``1e-6`` times the bounding
    box diagonal) are ``ON_BOUNDARY``; elsewhere the generalized winding
    number decides.  Winding parity is evaluated against the region's own
    volume sign, so the classification does not depend on whether the region
    was handed over wound outward or inward.
    """
    mesh = region.mesh if isinstance(region, ClosedRegion) else region
    sign = 1.0
    if isinstance(region, ClosedRegion):
        sign = 1.0 if region.signed_volume >= 0 else -1.0
    else:
        vol = mesh.enclosed_volume()
        sign = 1.0 if vol >= 0 else -1.0
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if tol is None:
        tol = 1e-6 * mesh.bbox_diagonal()
    w = winding_numbers(points, mesh) * sign
    labels = np.where(w > 0.5, int(Containment.INSIDE), int(Containment.OUTSIDE))
    q = distance_query if distance_query is not None else MeshDistanceQuery(mesh)
    d = q.distance(points)
    labels = np.where(d <= tol, int(Containment.ON_BOUNDARY), labels)
    return labels.astype(np.int64)
