"""Closing a surface against its supporting sphere, and containment queries.

A surface whose boundary loops sit on a sphere can be closed by filling each
loop with a triangulated patch of the sphere.  The closed result bounds the
region used for volume bookkeeping and for inside/outside tests.

The patch is graded to the loop's resolution: rings about the patch apex
are spaced by the surface's mean boundary edge, and each ring's vertex count
follows its circumference (the loop's k times sin(t theta) / sin(theta) at
polar fraction t, at least 6 and at most k), so its edges stay near the
loop's instead of crowding toward the apex.  Containment takes the winding
number over the closed mesh and an on-boundary test that culls faces by
point-vertex distances, with no search structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import (
    AlreadyClosedError,
    BoundaryOffSphereError,
    LoopsNotInHemisphereError,
    SelfIntersectingPatchError,
)
from .geometry import Sphere, open_hemisphere_pole, rotation_between
from .mesh import TriMesh
from .shapes import _join_rings
from .spatial import WINDING_BLOCK_PAIRS, _point_triangle_distance_sq, winding_numbers

__all__ = ["ClosedRegion", "close_with_spherical_patch", "signed_containment", "Containment"]

# a loop to close lies within PATCH_BOUNDARY_TOL sphere radii of the sphere
PATCH_BOUNDARY_TOL = 1e-3
# a point within ON_BOUNDARY_TOL bbox diagonals of a region is on its boundary
ON_BOUNDARY_TOL = 1e-6


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


def _loop_patch(loop_pts: np.ndarray, sphere: Sphere, toward_pole: bool,
                target_edge: float) -> tuple[np.ndarray, np.ndarray]:
    """Triangulate the spherical domain bounded by one loop.

    The apex is the loop's max-margin pole (:func:`open_hemisphere_pole`)
    when ``toward_pole`` is set, and its antipode otherwise, which fills the
    complementary domain.  With theta the loop's largest polar angle about
    the apex, ``n = ceil(theta * radius / target_edge)`` rings join the apex
    to the loop: ring r (1 innermost) sits at the fraction t = r/n of each
    loop point's polar angle, and ring n is the loop itself.  An interior
    ring gets ``round(k * sin(t * theta) / sin(theta))`` vertices, at least
    6 and at most the loop's k, so its edges stay near the loop's; its
    vertex i sits at the fractional loop index i*k/m, with azimuth and polar
    angle interpolated between the two loop points around it.  The loop must
    be star-shaped about the apex.  Consecutive rings are joined by the
    stable two-pointer merge of :func:`shapes._join_rings`.  Returns
    (new_vertices, faces) where faces index first into the loop (0..k-1),
    then the apex (k), then the interior rings from the innermost out.
    """
    k = len(loop_pts)
    q = (loop_pts - sphere.center) / sphere.radius
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    found = open_hemisphere_pole(q)
    if found is None:
        raise LoopsNotInHemisphereError("boundary loop is not contained in an open hemisphere")
    pole = found[0]
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

    t = np.arange(1, n_rings) / n_rings
    counts = np.clip(np.rint(k * np.sin(t * theta_max) / np.sin(theta_max)),
                     6, k).astype(np.int64)
    # vertex i of a ring of m sits at loop index s = i*k/m = j + f
    ring = np.repeat(np.arange(n_rings - 1), counts)
    first = np.cumsum(counts) - counts
    s = (np.arange(len(ring)) - first[ring]) * k / counts[ring]
    j = s.astype(np.int64)
    f = s - j
    ph = phi[j] + f * dphi[j]
    th = t[ring] * (theta[j] + f * (theta[(j + 1) % k] - theta[j]))
    pts_local = np.column_stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                                 np.cos(th)])
    new_pts = np.concatenate([apex_world[None, :],
                              (pts_local @ rot) * sphere.radius + sphere.center])

    # Winding rule: every ring edge is traversed forward by the fan/strip
    # beneath it and backward by the strip above it; the outermost (loop) ring
    # is traversed backward only, which pairs with the source surface's own
    # forward traversal so the stitched mesh is consistently oriented.  The
    # joins are wound as a disk's seen from the apex, so their last two
    # columns swap.
    offsets = np.append(k + 1 + first, 0)
    sizes = np.append(counts, k)
    m0 = np.arange(sizes[0])
    faces = [np.column_stack([np.full(sizes[0], k), offsets[0] + (m0 + 1) % sizes[0],
                              offsets[0] + m0])]
    for r in range(n_rings - 1):
        faces.append(_join_rings(offsets[r], sizes[r],
                                 offsets[r + 1], sizes[r + 1])[:, [0, 2, 1]])
    return new_pts, np.concatenate(faces).astype(np.int64)


def close_with_spherical_patch(mesh: TriMesh, sphere: Sphere,
                               side: str = "near") -> ClosedRegion:
    """Close every boundary loop of ``mesh`` with a patch of ``sphere``.

    Each loop must lie on the sphere (within ``PATCH_BOUNDARY_TOL`` times
    its radius) and inside an open hemisphere.  ``side="near"`` fills
    the spherical domain around each loop's own hemisphere pole; ``side="far"``
    fills the complementary domain (single-loop meshes only, since the far
    domains of several loops overlap).  The patch is wound so the closed mesh
    is consistently oriented.  Its rings about the apex are spaced by at most
    the mean boundary edge of the source surface, and each holds about as
    many vertices as that edge fits around it (at least 6, at most the
    loop's count; see :func:`_loop_patch`), so patch edges stay near the
    boundary edge.  A ring longer than the loop, past the equator, keeps the
    loop's count, and its edges grow with its circumference.

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
    boundary_tol = PATCH_BOUNDARY_TOL * sphere.radius
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


def signed_containment(region: ClosedRegion | TriMesh,
                       points: np.ndarray) -> np.ndarray:
    """Classify points against a closed region: inside, outside, or on-boundary.

    Points within ``ON_BOUNDARY_TOL`` times the bounding box diagonal of the
    surface are ``ON_BOUNDARY``; elsewhere the generalized winding
    number decides.  Winding parity is evaluated against the region's own
    volume sign, so the classification does not depend on whether the region
    was handed over wound outward or inward.

    The on-boundary test needs no search structure.  If a face comes within
    tol of a point p at q, then q lies within the longest edge at each
    corner v of the face (q is in the triangle), so |p - v| <= tol +
    reach(v), with reach(v) the longest edge at v.  One pass over
    point-vertex distances keeps the vertices that meet this bound; the
    exact point-triangle distance then runs on the faces around them, which
    include every face within tol of the point.  The label is the one an
    exact distance to every face would give.
    """
    mesh = region.mesh if isinstance(region, ClosedRegion) else region
    sign = 1.0
    if isinstance(region, ClosedRegion):
        sign = 1.0 if region.signed_volume >= 0 else -1.0
    else:
        vol = mesh.enclosed_volume()
        sign = 1.0 if vol >= 0 else -1.0
    points = np.atleast_2d(np.asarray(points, dtype=float))
    tol = ON_BOUNDARY_TOL * mesh.bbox_diagonal()
    w = winding_numbers(points, mesh) * sign
    labels = np.where(w > 0.5, int(Containment.INSIDE), int(Containment.OUTSIDE))
    labels = np.where(_within(points, mesh, tol), int(Containment.ON_BOUNDARY), labels)
    return labels.astype(np.int64)


def _within(points: np.ndarray, mesh: TriMesh, tol: float) -> np.ndarray:
    """Whether each point lies within ``tol`` of a face of ``mesh``.

    Only faces around a vertex v with |p - v| <= tol + reach(v) can (see
    :func:`signed_containment`); the points go against the vertices in
    blocks of at most ``WINDING_BLOCK_PAIRS`` pairs.
    """
    v, faces = mesh.vertices, mesh.faces
    edges = mesh.directed_edges
    edge_vec = v[edges[:, 0]] - v[edges[:, 1]]
    edge_sq = np.einsum("ij,ij->i", edge_vec, edge_vec)
    reach_sq = np.zeros(len(v))
    np.maximum.at(reach_sq, edges[:, 0], edge_sq)
    np.maximum.at(reach_sq, edges[:, 1], edge_sq)
    # the relative slack keeps rounding in |p - v| from dropping a vertex
    # that meets the bound exactly
    bound = ((tol + np.sqrt(reach_sq)) * (1.0 + 1e-9)) ** 2
    vx, vy, vz = np.ascontiguousarray(v.T)
    hit_p, hit_v = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    step = max(1, WINDING_BLOCK_PAIRS // max(len(v), 1))
    for s in range(0, len(points), step):
        px, py, pz = points[s:s + step].T[:, :, None]
        dx, dy, dz = vx - px, vy - py, vz - pz
        hit = dx * dx + dy * dy + dz * dz <= bound
        if hit.any():
            i, j = np.nonzero(hit)
            hit_p.append(s + i)
            hit_v.append(j)
    hit_p, hit_v = np.concatenate(hit_p), np.concatenate(hit_v)
    near = np.zeros(len(points), dtype=bool)
    if hit_p.size == 0:
        return near
    # the faces around each kept vertex, through a vertex-to-corner index
    corner = np.argsort(faces.ravel(), kind="stable")
    count = np.bincount(faces.ravel(), minlength=len(v))
    n = count[hit_v]
    rank = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    face = corner[np.repeat((np.cumsum(count) - count)[hit_v], n) + rank] // 3
    pair = np.unique(np.repeat(hit_p, n) * len(faces) + face)
    p, f = np.divmod(pair, len(faces))
    dsq = _point_triangle_distance_sq(points[p], v[faces[f, 0]], v[faces[f, 1]],
                                      v[faces[f, 2]])
    near[p[np.sqrt(dsq) <= tol]] = True
    return near
