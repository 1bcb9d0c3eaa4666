"""Incremental isotropic remeshing for meshes deformed by a flow.

The classic split / collapse / flip / smooth cycle: edges much longer than
the target length are split at their midpoint, much shorter ones are
collapsed, interior edges are flipped toward regular vertex valence, and
vertices are relaxed tangentially.  The cycle is conservative by design: any
operation that would break the link condition, flip a face, or drop quality
below a floor is skipped, and if the edited mesh fails validation the
original mesh is returned unchanged.

Boundary handling has two modes.  With ``preserve_boundary_edges=True`` the
boundary polyline is left untouched (pinned boundaries).  Otherwise boundary
edges may be split and collapsed like any others; when ``boundary_sphere``
is given, boundary vertices created or moved by the cycle are projected back
onto that sphere so a free boundary stays on its substrate.

The cycle is deterministic: the same mesh and arguments give the same
output, bit for bit.  Each pass visits edges in a fixed order (lengths
sorted by ``np.argsort`` over the edges listed in order of first appearance
over the live faces), faces are numbered in the order they are added, and
the per-vertex face sets are edited in a fixed sequence, so set iteration
picks the same face first every time.  The scalar tests run on Python
floats; each is the same IEEE double operation it would be on numpy float64
scalars, so every comparison has the same outcome.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MeshError
from .geometry import cross3
from .mesh import TriMesh, build_mesh

__all__ = ["remesh", "triangle_quality", "min_quality", "mean_edge_length"]

EDIT_QUALITY_FLOOR = 0.05  # no edit may leave a face of lower quality
SMOOTHING_WEIGHT = 0.5     # fraction of the way to the tangential centroid


def triangle_quality(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Per-face quality 4*sqrt(3)*area / sum of squared edge lengths.

    Equals 1 for an equilateral triangle and tends to 0 as a face
    degenerates; scale invariant.
    """
    a, b, c = vertices[faces[:, 0]], vertices[faces[:, 1]], vertices[faces[:, 2]]
    area2 = np.linalg.norm(cross3(b - a, c - a), axis=1)
    l2 = ((b - a) ** 2).sum(1) + ((c - b) ** 2).sum(1) + ((a - c) ** 2).sum(1)
    with np.errstate(invalid="ignore", divide="ignore"):
        q = 2.0 * np.sqrt(3.0) * area2 / l2
    return np.where(l2 > 0, q, 0.0)


def min_quality(mesh: TriMesh) -> float:
    return float(triangle_quality(mesh.vertices, mesh.faces).min())


def mean_edge_length(mesh: TriMesh) -> float:
    de = mesh.directed_edges
    keep = de[:, 0] < de[:, 1]
    seg = mesh.vertices[de[keep, 0]] - mesh.vertices[de[keep, 1]]
    return float(np.linalg.norm(seg, axis=1).mean())


class _EditMesh:
    """Mutable face soup with adjacency bookkeeping for local edits.

    Positions are tuples of Python floats and faces tuples of Python ints:
    the scalar tests of the edit loop run on them without numpy's per-scalar
    overhead, and every one is the IEEE double operation it would be on
    float64 scalars.  ``vfaces[u]`` holds the live faces around ``u``.
    """

    def __init__(self, mesh: TriMesh):
        self.v = [tuple(p) for p in mesh.vertices.tolist()]
        self.faces = [tuple(f) for f in mesh.faces.tolist()]
        self.alive = [True] * len(self.faces)
        self.vfaces = [set() for _ in self.v]
        for i, f in enumerate(self.faces):
            for u in f:
                self.vfaces[u].add(i)
        self.boundary = set(mesh.boundary_directed_edges.ravel().tolist())

    def neighbors(self, u: int) -> set:
        out = set()
        for fi in self.vfaces[u]:
            out.update(self.faces[fi])
        out.discard(u)
        return out

    def edge_faces(self, u: int, w: int) -> list:
        return list(self.vfaces[u] & self.vfaces[w])

    def add_vertex(self, p: tuple) -> int:
        self.v.append(p)
        self.vfaces.append(set())
        return len(self.v) - 1

    def add_face(self, f: tuple) -> int:
        self.faces.append(f)
        self.alive.append(True)
        fi = len(self.faces) - 1
        for u in f:
            self.vfaces[u].add(fi)
        return fi

    def drop_face(self, fi: int) -> None:
        self.alive[fi] = False
        for u in self.faces[fi]:
            self.vfaces[u].discard(fi)

    def live_faces(self) -> np.ndarray:
        faces = np.array(self.faces, dtype=np.int64).reshape(-1, 3)
        return faces[np.array(self.alive, dtype=bool)]

    def undirected_edges(self) -> np.ndarray:
        """(k, 2) array of each live edge once as (low, high), in order of
        first appearance over the live faces and their corners.  The passes
        sort edges with the unstable ``np.argsort``, so ties follow this
        order."""
        f = self.live_faces()
        e = np.stack([f, np.roll(f, -1, axis=1)], axis=2).reshape(-1, 2)
        e.sort(axis=1)
        _, first = np.unique(e[:, 0] * len(self.v) + e[:, 1],
                             return_index=True)
        first.sort()
        return e[first]

    def face_quality(self, f: tuple) -> float:
        # scalar arithmetic: called hundreds of thousands of times per pass
        a, b, c = self.v[f[0]], self.v[f[1]], self.v[f[2]]
        ux, uy, uz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
        wx, wy, wz = c[0] - a[0], c[1] - a[1], c[2] - a[2]
        nx = uy * wz - uz * wy
        ny = uz * wx - ux * wz
        nz = ux * wy - uy * wx
        area2 = math.sqrt(nx * nx + ny * ny + nz * nz)
        vx, vy, vz = c[0] - b[0], c[1] - b[1], c[2] - b[2]
        l2 = (ux * ux + uy * uy + uz * uz + vx * vx + vy * vy + vz * vz
              + wx * wx + wy * wy + wz * wz)
        return 2.0 * math.sqrt(3.0) * area2 / l2 if l2 > 0 else 0.0

    def face_normal(self, f: tuple) -> tuple:
        a, b, c = self.v[f[0]], self.v[f[1]], self.v[f[2]]
        ux, uy, uz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
        wx, wy, wz = c[0] - a[0], c[1] - a[1], c[2] - a[2]
        return (uy * wz - uz * wy, uz * wx - ux * wz, ux * wy - uy * wx)

    def compact(self) -> TriMesh:
        used, tri = np.unique(self.live_faces(), return_inverse=True)
        verts = np.array(self.v, dtype=np.float64)[used]
        return build_mesh(verts, tri.reshape(-1, 3))


def _mid(p: tuple, q: tuple) -> tuple:
    return (0.5 * (p[0] + q[0]), 0.5 * (p[1] + q[1]), 0.5 * (p[2] + q[2]))


def _project(sphere, p: tuple) -> tuple:
    return tuple(sphere.project(np.array([p]))[0].tolist())


def _edge_lengths(em: _EditMesh, edges: np.ndarray) -> np.ndarray:
    V = np.array(em.v, dtype=np.float64)
    return np.linalg.norm(V[edges[:, 0]] - V[edges[:, 1]], axis=1)


def _split_pass(em: _EditMesh, high: float, preserve_boundary: bool,
                sphere) -> int:
    edges = em.undirected_edges()
    lengths = _edge_lengths(em, edges)
    order = np.argsort(lengths)[::-1]
    edges, lengths = edges.tolist(), lengths.tolist()
    dirty = set()
    n_split = 0
    for k in order.tolist():
        if lengths[k] <= high:
            break
        u, w = edges[k]
        fids = em.edge_faces(u, w)
        if not fids or any(fi in dirty for fi in fids):
            continue
        on_boundary = len(fids) == 1
        if on_boundary and preserve_boundary:
            continue
        mid = _mid(em.v[u], em.v[w])
        if on_boundary and sphere is not None:
            mid = _project(sphere, mid)
        m = em.add_vertex(mid)
        if on_boundary:
            em.boundary.add(m)
        for fi in fids:
            f = em.faces[fi]
            # rotate so the split edge is (f[0], f[1]) in winding order
            for _ in range(3):
                if {f[0], f[1]} == {u, w}:
                    break
                f = (f[1], f[2], f[0])
            em.drop_face(fi)
            dirty.add(em.add_face((f[0], m, f[2])))
            dirty.add(em.add_face((m, f[1], f[2])))
        n_split += 1
    return n_split


def _collapse_ok(em: _EditMesh, u: int, w: int, pos: tuple,
                 high: float, floor: float) -> bool:
    """Check post-collapse geometry and link condition for collapsing w into
    u.  Both checks are pure; the geometry goes first because it rejects
    almost every candidate a cycle meets."""
    fids = em.edge_faces(u, w)
    high2 = high * high
    for fi in (em.vfaces[u] | em.vfaces[w]):
        if fi in fids:
            continue
        f = em.faces[fi]
        new_f = tuple(u if x == w else x for x in f)
        old_n = em.face_normal(f)
        saved = em.v[u]
        em.v[u] = pos
        new_n = em.face_normal(new_f)
        q = em.face_quality(new_f)
        a, b, c = em.v[new_f[0]], em.v[new_f[1]], em.v[new_f[2]]
        long2 = max(
            (a[0]-b[0])**2 + (a[1]-b[1])**2 + (a[2]-b[2])**2,
            (b[0]-c[0])**2 + (b[1]-c[1])**2 + (b[2]-c[2])**2,
            (c[0]-a[0])**2 + (c[1]-a[1])**2 + (c[2]-a[2])**2,
        )
        em.v[u] = saved
        dot = (new_n[0]*old_n[0] + new_n[1]*old_n[1] + new_n[2]*old_n[2])
        nn = math.sqrt((new_n[0]**2 + new_n[1]**2 + new_n[2]**2)
                       * (old_n[0]**2 + old_n[1]**2 + old_n[2]**2))
        if q < floor or long2 > high2 or nn == 0:
            return False
        if dot < 0.2 * nn:
            return False
    opposite = {x for fi in fids for x in em.faces[fi]} - {u, w}
    return em.neighbors(u) & em.neighbors(w) == opposite


def _collapse_pass(em: _EditMesh, low: float, high: float, floor: float,
                   preserve_boundary: bool, sphere) -> int:
    edges = em.undirected_edges()
    lengths = _edge_lengths(em, edges)
    order = np.argsort(lengths)
    edges, lengths = edges.tolist(), lengths.tolist()
    dirty_verts = set()
    n_collapsed = 0
    for k in order.tolist():
        if lengths[k] >= low:
            break
        u, w = edges[k]
        if u in dirty_verts or w in dirty_verts:
            continue
        fids = em.edge_faces(u, w)
        if not fids:
            continue
        ub, wb = u in em.boundary, w in em.boundary
        if preserve_boundary and (ub or wb):
            continue
        if ub and wb and len(fids) != 1:
            continue  # interior chord between boundary vertices: would pinch
        # keep the boundary vertex; collapse the interior one into it
        if wb and not ub:
            u, w = w, u
            ub, wb = wb, ub
        if ub and wb:
            pos = _mid(em.v[u], em.v[w])
            if sphere is not None:
                pos = _project(sphere, pos)
        elif ub:
            pos = em.v[u]
        else:
            pos = _mid(em.v[u], em.v[w])
        if not _collapse_ok(em, u, w, pos, high, floor):
            continue
        em.v[u] = pos
        for fi in list(em.vfaces[w]):
            f = em.faces[fi]
            em.drop_face(fi)
            if u not in f:
                em.add_face(tuple(u if x == w else x for x in f))
        dirty_verts.add(u)
        dirty_verts.add(w)
        dirty_verts.update(em.neighbors(u))
        n_collapsed += 1
    return n_collapsed


def _flip_pass(em: _EditMesh, floor: float) -> int:
    edges = em.undirected_edges()
    # valence = number of distinct neighbours; each live edge is listed once,
    # and a flip changes exactly four of them (u, w lose one; a, b gain one)
    valence = np.bincount(edges.ravel(), minlength=len(em.v)).tolist()
    n_flipped = 0
    for u, w in edges.tolist():
        fids = em.edge_faces(u, w)
        if len(fids) != 2:
            continue
        f1, f2 = em.faces[fids[0]], em.faces[fids[1]]
        # the apex is the corner that is neither u nor w
        a = f1[0] + f1[1] + f1[2] - u - w
        b = f2[0] + f2[1] + f2[2] - u - w
        if a == b or not em.vfaces[a].isdisjoint(em.vfaces[b]):
            continue
        tu = 4 if u in em.boundary else 6
        tw = 4 if w in em.boundary else 6
        ta = 4 if a in em.boundary else 6
        tb = 4 if b in em.boundary else 6
        vu, vw, va, vb = valence[u], valence[w], valence[a], valence[b]
        before = ((vu - tu) ** 2 + (vw - tw) ** 2
                  + (va - ta) ** 2 + (vb - tb) ** 2)
        after = ((vu - 1 - tu) ** 2 + (vw - 1 - tw) ** 2
                 + (va + 1 - ta) ** 2 + (vb + 1 - tb) ** 2)
        if after >= before:
            continue
        # orient the new pair consistently with f1's winding
        i = f1.index(u)
        if f1[(i + 1) % 3] == w:
            nf1, nf2 = (u, b, a), (w, a, b)
        else:
            nf1, nf2 = (u, a, b), (w, b, a)
        n1 = em.face_normal(f1)
        n2 = em.face_normal(f2)
        ox, oy, oz = n1[0] + n2[0], n1[1] + n2[1], n1[2] + n2[2]
        if (em.face_quality(nf1) < floor or em.face_quality(nf2) < floor):
            continue
        m1 = em.face_normal(nf1)
        m2 = em.face_normal(nf2)
        if (m1[0] * ox + m1[1] * oy + m1[2] * oz <= 0
                or m2[0] * ox + m2[1] * oy + m2[2] * oz <= 0):
            continue
        em.drop_face(fids[0])
        em.drop_face(fids[1])
        em.add_face(nf1)
        em.add_face(nf2)
        valence[u] -= 1
        valence[w] -= 1
        valence[a] += 1
        valence[b] += 1
        n_flipped += 1
    return n_flipped


def _smooth(mesh: TriMesh, preserve_boundary: bool, sphere) -> np.ndarray:
    v = mesh.vertices
    adj = mesh.vertex_adjacency
    deg = np.asarray(adj.sum(axis=1)).ravel()
    centroid = adj @ v / np.maximum(deg, 1.0)[:, None]
    n = mesh.vertex_normals
    d = centroid - v
    d -= n * (d * n).sum(1)[:, None]
    new = v + SMOOTHING_WEIGHT * d
    bmask = mesh.boundary_vertex_mask
    if preserve_boundary or sphere is None:
        new[bmask] = v[bmask]
    else:
        # relax boundary vertices toward their loop neighbors, then re-project
        new[bmask] = v[bmask]
        for loop in mesh.boundary_loops():
            pts = v[loop]
            mid = 0.5 * (np.roll(pts, 1, axis=0) + np.roll(pts, -1, axis=0))
            new[loop] = pts + SMOOTHING_WEIGHT * 0.5 * (mid - pts)
        new[bmask] = sphere.project(new[bmask])
    return new


def remesh(mesh: TriMesh, target_edge_length: float, *,
           preserve_boundary_edges: bool = False,
           boundary_sphere=None) -> TriMesh:
    """One split / collapse / flip / smooth cycle toward the target length.

    No edit leaves a face below ``EDIT_QUALITY_FLOOR``, and one smoothing
    pass moves each vertex ``SMOOTHING_WEIGHT`` of the way to the tangential
    centroid of its neighbours.

    Returns a new validated mesh, or the input mesh unchanged if the edited
    triangulation fails validation (every individual edit is guarded, so
    this is rare and always safe).
    """
    out, _ = _remesh_with_stats(
        mesh, target_edge_length,
        preserve_boundary_edges=preserve_boundary_edges,
        boundary_sphere=boundary_sphere)
    return out


def _remesh_with_stats(mesh: TriMesh, target_edge_length: float, *,
                       preserve_boundary_edges: bool = False,
                       boundary_sphere=None) -> tuple[TriMesh, int]:
    """remesh() plus the number of topological edits actually performed."""
    if target_edge_length <= 0:
        raise ValueError("target edge length must be positive")
    high = 4.0 / 3.0 * target_edge_length
    low = 0.8 * target_edge_length
    em = _EditMesh(mesh)
    ops = _split_pass(em, high, preserve_boundary_edges, boundary_sphere)
    ops += _collapse_pass(em, low, high, EDIT_QUALITY_FLOOR,
                          preserve_boundary_edges, boundary_sphere)
    ops += _flip_pass(em, EDIT_QUALITY_FLOOR)
    try:
        out = em.compact()
    except MeshError:
        return mesh, 0
    return out.with_vertices(
        _smooth(out, preserve_boundary_edges, boundary_sphere)), ops
