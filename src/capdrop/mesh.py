"""Triangle mesh type with validation, measures, and derived meshes.

The mesh is indexed: ``vertices`` is an (n, 3) float64 array and ``faces`` an
(m, 3) integer array.  Face winding is counterclockwise with respect to the
chosen surface normal, so the winding fixes the orientation.  Construction
validates manifoldness (every edge in at most two faces, no pinched boundary
vertices), orientation consistency (no directed edge repeats), and rejects
degenerate faces.  Boundary edges must chain into disjoint simple closed
loops.

Derived quantities are cached in two dicts.  Position-dependent ones (face
areas, normals) belong to one mesh and are dropped by
``invalidate_geometry``.  Connectivity ones (edges, boundary loops,
adjacency, scatter matrices) live in a topology dict that
``with_vertices`` hands to the new mesh by reference, so a cache built on
any mesh over the same faces serves all of them; faces are never edited in
place.

``TriMesh.scatter`` sums per-corner face values into the vertices.  Its
values come in blocks of one row per face, each block tied to one corner of
the faces, and every vertex adds its rows block by block, in face order
within a block: the order in which ``np.add.at`` over the blocks in turn
would add them, so the sums match it bit for bit.
"""

from __future__ import annotations

import logging

import numpy as np
from scipy import sparse

from .errors import (
    DegenerateFaceError,
    InconsistentOrientationError,
    NonManifoldError,
    OpenMeshError,
)
from .geometry import cross3

logger = logging.getLogger(__name__)

__all__ = ["TriMesh", "build_mesh"]


class TriMesh:
    """Oriented triangle mesh.

    Parameters
    ----------
    vertices : array_like
        (n, 3) vertex positions.
    faces : array_like
        (m, 3) vertex indices, counterclockwise w.r.t. the surface normal.
    validate : bool
        Run manifold/orientation/degeneracy checks (default True).  Internal
        callers that have already validated may pass False.
    area_floor : float
        Faces with area below ``area_floor * (bbox diagonal)**2`` are
        reported as degenerate.
    """

    def __init__(self, vertices, faces, validate: bool = True, area_floor: float = 1e-14):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        self.faces = np.ascontiguousarray(faces, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must be an (n, 3) array")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise ValueError("faces must be an (m, 3) array")
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= len(self.vertices)):
            raise ValueError("face index out of range")
        self._cache: dict = {}
        self._topology: dict = {}
        if validate:
            self._validate(area_floor)

    # -- construction/validation ------------------------------------------------

    def _validate(self, area_floor: float) -> None:
        f = self.faces
        if f.size == 0:
            raise ValueError("mesh has no faces")
        same = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 2] == f[:, 0])
        if np.any(same):
            raise DegenerateFaceError(f"faces with repeated vertices: {np.nonzero(same)[0][:8].tolist()}")
        areas = self.face_areas
        floor = area_floor * max(self.bbox_diagonal(), 1e-30) ** 2
        bad = np.nonzero(areas <= floor)[0]
        if bad.size:
            raise DegenerateFaceError(f"zero-area faces: {bad[:8].tolist()}")

        de = self.directed_edges
        # duplicate directed edge => either >2 faces on the edge or same-direction traversal
        order = np.lexsort((de[:, 1], de[:, 0]))
        sde = de[order]
        dup = np.all(sde[1:] == sde[:-1], axis=1)
        # undirected multiplicity
        ue = np.sort(de, axis=1)
        uorder = np.lexsort((ue[:, 1], ue[:, 0]))
        sue = ue[uorder]
        same_run = np.all(sue[1:] == sue[:-1], axis=1)
        # count run lengths of identical undirected edges
        run_id = np.concatenate([[0], np.cumsum(~same_run)])
        counts = np.bincount(run_id)
        if counts.max(initial=0) > 2:
            first = sue[np.searchsorted(run_id, np.argmax(counts >= 3))]
            raise NonManifoldError(f"edge {tuple(first.tolist())} is shared by more than two faces")
        if np.any(dup):
            first = sde[1:][dup][0]
            raise InconsistentOrientationError(
                f"directed edge {tuple(first.tolist())} is traversed twice; flip the winding of one face"
            )
        # boundary loops must be simple: each boundary vertex has exactly one
        # outgoing and one incoming boundary edge
        be = self.boundary_directed_edges
        if be.size:
            out_counts = np.bincount(be[:, 0], minlength=len(self.vertices))
            in_counts = np.bincount(be[:, 1], minlength=len(self.vertices))
            pinched = np.nonzero((out_counts > 1) | (in_counts > 1))[0]
            if pinched.size:
                raise NonManifoldError(f"pinched boundary vertices: {pinched[:8].tolist()}")
        loops = self.boundary_loops()
        logger.debug("mesh built: %d vertices, %d faces, %d boundary loop(s)",
                     len(self.vertices), len(self.faces), len(loops))

    # -- cached derived quantities ----------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def directed_edges(self) -> np.ndarray:
        """(3m, 2) array of directed edges in face order."""
        if "directed_edges" not in self._topology:
            f = self.faces
            self._topology["directed_edges"] = np.concatenate(
                [f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]], axis=0
            )
        return self._topology["directed_edges"]

    @property
    def boundary_directed_edges(self) -> np.ndarray:
        """Directed edges whose reverse is not present, in face winding order."""
        if "boundary_directed_edges" not in self._topology:
            de = self.directed_edges
            n = self.n_vertices
            keys = np.sort(de[:, 0] * n + de[:, 1])
            rkeys = de[:, 1] * n + de[:, 0]
            # edge i has a reverse when its reversed key is among the keys
            pos = np.searchsorted(keys, rkeys)
            has_reverse = keys[np.minimum(pos, len(keys) - 1)] == rkeys
            self._topology["boundary_directed_edges"] = de[~has_reverse]
        return self._topology["boundary_directed_edges"]

    @property
    def boundary_vertex_mask(self) -> np.ndarray:
        if "boundary_vertex_mask" not in self._topology:
            mask = np.zeros(self.n_vertices, dtype=bool)
            be = self.boundary_directed_edges
            if be.size:
                mask[be.ravel()] = True
            self._topology["boundary_vertex_mask"] = mask
        return self._topology["boundary_vertex_mask"]

    @property
    def is_closed(self) -> bool:
        return self.boundary_directed_edges.size == 0

    @property
    def face_cross(self) -> np.ndarray:
        """Unnormalized face normals (cross products); norm is twice the face area."""
        v = self.vertices
        f = self.faces
        return cross3(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])

    @property
    def face_areas(self) -> np.ndarray:
        if "face_areas" not in self._cache:
            self._cache["face_areas"] = 0.5 * np.linalg.norm(self.face_cross, axis=1)
        return self._cache["face_areas"]

    @property
    def face_normals(self) -> np.ndarray:
        if "face_normals" not in self._cache:
            c = self.face_cross
            n = np.linalg.norm(c, axis=1, keepdims=True)
            self._cache["face_normals"] = c / np.maximum(n, 1e-300)
        return self._cache["face_normals"]

    @property
    def vertex_normals(self) -> np.ndarray:
        """Area-weighted vertex normals following the face winding."""
        if "vertex_normals" not in self._cache:
            c = self.face_cross
            vn = self.scatter(np.stack([c, c, c]))
            norms = np.linalg.norm(vn, axis=1, keepdims=True)
            self._cache["vertex_normals"] = vn / np.maximum(norms, 1e-300)
        return self._cache["vertex_normals"]

    @property
    def vertex_adjacency(self) -> sparse.csr_matrix:
        """Symmetric vertex adjacency (1 where an edge connects two vertices)."""
        if "vertex_adjacency" not in self._topology:
            de = self.directed_edges
            n = self.n_vertices
            a = sparse.csr_matrix(
                (np.ones(len(de)), (de[:, 0], de[:, 1])), shape=(n, n)
            )
            a = a + a.T
            a.data[:] = 1.0
            self._topology["vertex_adjacency"] = a
        return self._topology["vertex_adjacency"]

    def scatter(self, values: np.ndarray, corners: tuple = (0, 1, 2)) -> np.ndarray:
        """Sum per-corner face values into the vertices.

        ``values`` has shape ``(len(corners), n_faces)`` or
        ``(len(corners), n_faces, d)``: row j of block b belongs to vertex
        ``faces[j, corners[b]]``.  Each vertex sums its rows block by block
        and in face order within a block, as one ``np.add.at`` per block
        would; a masked row is passed as 0.0, which adds exactly.

        Vector rows go through a 0/1 CSR matrix built once per connectivity
        and ``corners`` pattern.  Scalar rows go through ``np.bincount``,
        which adds in input order too and is as fast as the matrix for them,
        so no matrix is kept for a scalar pattern.
        """
        if values.ndim == 2:
            return np.bincount(self.faces[:, list(corners)].T.ravel(),
                               weights=values.ravel(), minlength=self.n_vertices)
        key = ("scatter", corners)
        mat = self._topology.get(key)
        if mat is None:
            owner = self.faces[:, list(corners)].T.ravel()
            counts = np.bincount(owner, minlength=self.n_vertices)
            mat = sparse.csr_matrix(
                (np.ones(len(owner)), np.argsort(owner, kind="stable"),
                 np.concatenate([[0], np.cumsum(counts)])),
                shape=(self.n_vertices, len(owner)))
            self._topology[key] = mat
        return mat @ values.reshape((mat.shape[1],) + values.shape[2:])

    def surface_area(self) -> float:
        """Total surface area."""
        return float(self.face_areas.sum())

    def bbox_diagonal(self) -> float:
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    def divergence_volume(self) -> float:
        """Signed divergence-theorem volume sum (no closedness check).

        Equals the enclosed volume for a closed outward-oriented mesh; for an
        open mesh the value depends on the position of the origin and is only
        meaningful in differences.
        """
        v = self.vertices
        f = self.faces
        return float(np.einsum("ij,ij->i", v[f[:, 0]], cross3(v[f[:, 1]], v[f[:, 2]])).sum() / 6.0)

    def enclosed_volume(self) -> float:
        """Signed enclosed volume; positive for outward orientation.

        Raises
        ------
        OpenMeshError
            If the mesh has boundary edges.
        """
        if not self.is_closed:
            raise OpenMeshError(
                f"enclosed_volume needs a closed mesh; {len(self.boundary_directed_edges)} boundary edges present"
            )
        return self.divergence_volume()

    def boundary_loops(self) -> list[np.ndarray]:
        """Boundary loops as vertex index arrays, ordered with the face winding.

        Each loop is a closed cycle (the last vertex connects back to the first).
        """
        if "boundary_loops" in self._topology:
            return self._topology["boundary_loops"]
        be = self.boundary_directed_edges
        loops: list[np.ndarray] = []
        if be.size:
            succ = {int(a): int(b) for a, b in be}
            while succ:
                start, nxt = succ.popitem()
                loop = [start]
                while nxt != start:
                    loop.append(nxt)
                    nxt = succ.pop(nxt)
                loops.append(np.asarray(loop, dtype=np.int64))
        loops.sort(key=len, reverse=True)
        self._topology["boundary_loops"] = loops
        return loops

    def invalidate_geometry(self) -> None:
        """Drop cached position-dependent quantities.

        Must be called after mutating ``vertices`` in place; connectivity
        caches (boundary structure, adjacency, scatter matrices) survive
        since the faces are untouched.
        """
        self._cache.clear()

    # -- derived meshes ----------------------------------------------------------

    def copy(self) -> "TriMesh":
        return TriMesh(self.vertices.copy(), self.faces.copy(), validate=False)

    def with_vertices(self, vertices: np.ndarray) -> "TriMesh":
        """New mesh over the same faces, sharing this mesh's topology caches
        by reference: a connectivity cache built on either serves both."""
        m = TriMesh(np.asarray(vertices, dtype=float), self.faces, validate=False)
        m._topology = self._topology
        return m

    def flipped(self) -> "TriMesh":
        """Same geometry with reversed winding (normal flipped)."""
        return TriMesh(self.vertices.copy(), self.faces[:, [0, 2, 1]].copy(), validate=False)

    def transformed(self, rotation: np.ndarray | None = None, translation=None) -> "TriMesh":
        """Apply a rigid motion ``x -> R x + t``."""
        v = self.vertices
        if rotation is not None:
            v = v @ np.asarray(rotation, dtype=float).T
        if translation is not None:
            v = v + np.asarray(translation, dtype=float)
        return TriMesh(v, self.faces.copy(), validate=False)

    def submesh(self, face_mask: np.ndarray) -> "TriMesh":
        """Sub-mesh of the selected faces with compacted vertex indexing."""
        face_mask = np.asarray(face_mask)
        if face_mask.dtype == bool:
            fsel = self.faces[face_mask]
        else:
            fsel = self.faces[np.asarray(face_mask, dtype=np.int64)]
        used = np.unique(fsel)
        remap = np.full(self.n_vertices, -1, dtype=np.int64)
        remap[used] = np.arange(len(used))
        return TriMesh(self.vertices[used], remap[fsel], validate=False)


def build_mesh(vertices, faces) -> TriMesh:
    """Validate and build a :class:`TriMesh` from raw arrays.

    Raises the specific mesh errors (``NonManifoldError``,
    ``InconsistentOrientationError``, ``DegenerateFaceError``) instead of a
    generic failure so callers can distinguish repairable inputs.
    """
    return TriMesh(vertices, faces, validate=True)
