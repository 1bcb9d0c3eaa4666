"""Mesh generators: icospheres, surfaces of revolution, flat disks and spherical caps.

All generators produce outward-wound meshes (positive enclosed volume for the
closed ones).  Flip with ``mesh.flipped()`` when a toward-region winding is
needed.
"""

from __future__ import annotations

import numpy as np

from .errors import AxisSingularityError
from .geometry import Sphere, rotation_between
from .mesh import TriMesh

__all__ = [
    "icosphere",
    "revolve",
    "flat_disk",
    "spherical_cap_mesh",
    "perturb_normal",
]

_POLE_TOL = 1e-12


def icosphere(subdivisions: int = 3, radius: float = 1.0, center=(0.0, 0.0, 0.0)) -> TriMesh:
    """Geodesic sphere: subdivided icosahedron projected to the sphere.

    Outward winding; subdivision ``k`` has ``20 * 4**k`` faces.
    """
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts[0])
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)

    for _ in range(subdivisions):
        edge_mid: dict[tuple[int, int], int] = {}
        new_verts = [verts]
        next_index = len(verts)

        def midpoint(a: int, b: int) -> int:
            nonlocal next_index
            key = (a, b) if a < b else (b, a)
            if key in edge_mid:
                return edge_mid[key]
            m = verts[a] + verts[b]
            m /= np.linalg.norm(m)
            new_verts.append(m[None, :])
            edge_mid[key] = next_index
            next_index += 1
            return edge_mid[key]

        new_faces = []
        for a, b, c in faces:
            ab = midpoint(a, b)
            bc = midpoint(b, c)
            ca = midpoint(c, a)
            new_faces.extend([[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]])
        verts = np.concatenate(new_verts, axis=0)
        faces = np.asarray(new_faces, dtype=np.int64)

    verts = verts * radius + np.asarray(center, dtype=float)
    return TriMesh(verts, faces, validate=False)


def revolve(profile_x: np.ndarray, profile_z: np.ndarray, n_angular: int = 64) -> TriMesh:
    """Surface of revolution of the meridian ``(x(s), 0, z(s))`` about the z-axis.

    Profile rows with x = 0 are allowed only at the ends and become pole
    vertices.  Winding follows the meridian direction: a profile traversed
    with the enclosed region on its left (e.g. a half circle from the south
    to the north pole at x >= 0) comes out outward-wound.  Rotational
    invariance: rotating the result about z by any multiple of 2*pi/n_angular
    permutes vertices exactly.

    Raises
    ------
    AxisSingularityError
        If an interior profile row touches the axis.
    ValueError
        If fewer than 8 angular samples or 2 profile rows are requested.
    """
    x = np.asarray(profile_x, dtype=float)
    z = np.asarray(profile_z, dtype=float)
    if x.ndim != 1 or x.shape != z.shape or len(x) < 2:
        raise ValueError("profile must be two equal-length 1-d arrays with at least 2 rows")
    if n_angular < 8:
        raise ValueError("n_angular must be at least 8")
    scale = max(np.abs(x).max(), np.abs(z).max(), 1.0)
    on_axis = np.abs(x) <= _POLE_TOL * scale
    if np.any(on_axis[1:-1]):
        raise AxisSingularityError("interior profile row lies on the axis of revolution")
    if np.any(x < -_POLE_TOL * scale):
        raise ValueError("profile x must be nonnegative")

    start_pole = bool(on_axis[0])
    end_pole = bool(on_axis[-1])
    rows = np.arange(len(x))[~on_axis]
    if len(rows) < 1 or (len(rows) < 2 and not (start_pole or end_pole)):
        raise ValueError("profile has too few off-axis rows")

    phi = 2.0 * np.pi * np.arange(n_angular) / n_angular
    cphi, sphi = np.cos(phi), np.sin(phi)
    ring_verts = []
    for i in rows:
        ring_verts.append(np.column_stack([x[i] * cphi, x[i] * sphi, np.full(n_angular, z[i])]))
    verts = np.concatenate(ring_verts, axis=0)
    idx = lambda i, j: i * n_angular + (j % n_angular)  # noqa: E731

    faces = []
    for i in range(len(rows) - 1):
        for j in range(n_angular):
            a = idx(i, j)
            b = idx(i, j + 1)
            c = idx(i + 1, j + 1)
            d = idx(i + 1, j)
            faces.append([a, b, c])
            faces.append([a, c, d])
    extra = []
    if start_pole:
        p0 = len(verts)
        extra.append([0.0, 0.0, z[0]])
        for j in range(n_angular):
            faces.append([p0, idx(0, j + 1), idx(0, j)])
    if end_pole:
        p1 = len(verts) + len(extra)
        extra.append([0.0, 0.0, z[-1]])
        last = len(rows) - 1
        for j in range(n_angular):
            faces.append([p1, idx(last, j), idx(last, j + 1)])
    if extra:
        verts = np.concatenate([verts, np.asarray(extra)], axis=0)
    return TriMesh(verts, np.asarray(faces, dtype=np.int64), validate=False)


def _graded_disk_topology(ring_r: np.ndarray, ring_z: np.ndarray, apex_z: float,
                          n_angular: int) -> TriMesh:
    """Disk-type surface of revolution with per-ring vertex counts scaled by
    ring radius, so triangles stay near-isotropic all the way to the apex.

    Rings run from innermost to the boundary; the boundary ring always gets
    exactly ``n_angular`` vertices.  Winding is counterclockwise seen from
    +z.  Rings of unequal counts are joined by an angular two-pointer sweep
    (:func:`_join_rings`).
    """
    r_bnd = float(ring_r[-1])
    counts = [max(6, int(round(n_angular * r / r_bnd))) for r in ring_r]
    counts[-1] = n_angular
    if len(counts) >= 2:
        # a full-count ring next to the boundary keeps boundary vertex
        # stencils regular (curvature and angle fits sample two rings)
        counts[-2] = n_angular
    verts = [np.array([[0.0, 0.0, apex_z]])]
    offsets = []
    total = 1
    for r, z, n in zip(ring_r, ring_z, counts):
        phi = 2.0 * np.pi * np.arange(n) / n
        verts.append(np.column_stack([r * np.cos(phi), r * np.sin(phi),
                                      np.full(n, float(z))]))
        offsets.append(total)
        total += n
    n0, o0 = counts[0], offsets[0]
    j = np.arange(n0)
    faces = [np.column_stack([np.zeros_like(j), o0 + j, o0 + (j + 1) % n0])]
    for k in range(len(counts) - 1):
        faces.append(_join_rings(offsets[k], counts[k],
                                 offsets[k + 1], counts[k + 1]))
    return TriMesh(np.concatenate(verts, axis=0), np.concatenate(faces),
                   validate=False)


def _join_rings(oa: int, na: int, ob: int, nb: int) -> np.ndarray:
    """The ``na + nb`` triangles between ring a (``na`` vertices from index
    ``oa``) and ring b (``nb`` from ``ob``), whose vertex i sits at the
    fraction i/n of its ring's turn; counterclockwise seen from +z when a is
    the inner ring and the rings turn counterclockwise.

    The two-pointer sweep advances ring a at key (ia+1)*nb and ring b at key
    (ib+1)*na, a first on a tie: a stable merge of the two key runs, built
    in one array pass.
    """
    keys = np.concatenate([np.arange(1, na + 1) * nb,
                           np.arange(1, nb + 1) * na])
    adv_a = np.argsort(keys, kind="stable") < na
    ia = np.cumsum(adv_a) - adv_a  # a-steps taken before this one
    ib = np.cumsum(~adv_a) - ~adv_a
    return np.column_stack([
        oa + ia % na, ob + ib % nb,
        np.where(adv_a, oa + (ia + 1) % na, ob + (ib + 1) % nb)])


def flat_disk(radius: float = 1.0, n_angular: int = 64, n_rings: int = 8,
              center=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0)) -> TriMesh:
    """Flat triangulated disk; winding counterclockwise seen from ``normal``."""
    rs = radius * np.arange(1, n_rings + 1) / n_rings
    m = _graded_disk_topology(rs, np.zeros(n_rings), 0.0, n_angular)
    rot = rotation_between(np.array([0.0, 0.0, 1.0]), np.asarray(normal, dtype=float))
    return m.transformed(rotation=rot, translation=np.asarray(center, dtype=float))


def spherical_cap_mesh(sphere: Sphere, axis, polar_angle: float,
                       n_angular: int = 64, n_rings: int | None = None) -> TriMesh:
    """Cap of ``sphere`` around the ``axis`` direction, out to ``polar_angle``.

    The cap apex is ``center + radius * axis``; the boundary circle sits at
    polar angle ``polar_angle`` from the axis (pi for all but a point of the
    sphere).  Outward winding.  Boundary vertices lie on the circle exactly,
    with ``n_angular`` of them; interior rings are graded so the triangles
    stay near-isotropic up to the apex.
    """
    if not 0.0 < polar_angle < np.pi:
        raise ValueError("polar_angle must be in (0, pi)")
    if n_rings is None:
        # aim for roughly isotropic triangles at the boundary
        n_rings = max(2, int(round(polar_angle * n_angular / (2.0 * np.pi * np.sin(polar_angle) + 1e-9))))
    theta = polar_angle * np.arange(1, n_rings + 1) / n_rings
    m = _graded_disk_topology(sphere.radius * np.sin(theta),
                              sphere.radius * np.cos(theta),
                              sphere.radius, n_angular)
    rot = rotation_between(np.array([0.0, 0.0, 1.0]), np.asarray(axis, dtype=float))
    return m.transformed(rotation=rot, translation=sphere.center)


def perturb_normal(mesh: TriMesh, amplitude: float, rng: np.random.Generator,
                   keep_boundary: bool = True) -> TriMesh:
    """Random offset along vertex normals; used to break symmetry in tests."""
    offsets = amplitude * rng.uniform(-1.0, 1.0, size=mesh.n_vertices)
    if keep_boundary:
        offsets[mesh.boundary_vertex_mask] = 0.0
    v = mesh.vertices + offsets[:, None] * mesh.vertex_normals
    return TriMesh(v, mesh.faces.copy(), validate=False)
