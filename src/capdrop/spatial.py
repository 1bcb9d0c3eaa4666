"""Spatial queries: winding numbers and point-to-surface distance.

These kernels serve the containment tests.  The winding number takes the
points in blocks of at most ``WINDING_BLOCK_PAIRS`` point-face pairs (one
point per block when the mesh has more faces), so its memory does not grow
with the number of points.  Its block arithmetic runs in buffers allocated
once per call, one ufunc at a time in the order of the formula's expression
form, so it is bit-identical to that form and allocates nothing per block.
``MeshDistanceQuery`` gives exact point-to-mesh distances; containment's
on-boundary test does not build it.  scipy's k-d tree is imported when one
is built, so importing the package does not load it.
"""

from __future__ import annotations

import numpy as np

from .mesh import TriMesh

__all__ = ["winding_numbers", "MeshDistanceQuery"]

# point-face pairs per block of the winding kernel, which keeps about 20
# temporaries of this size; of 2^15 to 2^20, 2^15 was the fastest on the
# closed ~4k-vertex drops of the benchmark
WINDING_BLOCK_PAIRS = 1 << 15

# faces whose exact distances seed the search radius of a distance query
SEED_FACES = 8


def winding_numbers(points: np.ndarray, mesh: TriMesh) -> np.ndarray:
    """Generalized winding number of each point w.r.t. the oriented surface.

    For a closed outward-oriented mesh the value is ~1 inside, ~0 outside.
    Computed as the sum of signed solid angles of the faces (van Oosterom &
    Strackee), so it is exact up to rounding and needs no ray casting.

    The face corners are gathered once, one ``(3, F)`` array per corner, and
    the points are taken in blocks of ``max(1, WINDING_BLOCK_PAIRS // F)``,
    so memory does not grow with the number of points.  Each block's
    arithmetic runs in buffers allocated once, one ufunc at a time in the
    order the formula's expression form evaluates, so the result is the
    same to the bit.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    # corner, coordinate, face: each coordinate row of a corner is contiguous
    # (the strided rows of a plain gather made the kernel about 1.5x slower)
    corners = np.ascontiguousarray(mesh.vertices[mesh.faces].transpose(1, 2, 0))
    out = np.empty(len(points))
    step = max(1, WINDING_BLOCK_PAIRS // max(mesh.n_faces, 1))
    shape = (min(step, len(points)), mesh.n_faces)
    # corner minus point (corner, coordinate, point, face), then the corner
    # distances, the numerator, the denominator and two temporaries
    rel = np.empty((3, 3) + shape)
    buffers = np.empty((7,) + shape)
    for s in range(0, len(points), step):
        m = min(step, len(points) - s)
        np.subtract(corners[:, :, None, :], points[s:s + m].T[None, :, :, None],
                    out=rel[:, :, :m])
        a, b, c = rel[:, :, :m]
        la, lb, lc, num, den, t, u = buffers[:, :m]
        for x, length in ((a, la), (b, lb), (c, lc)):
            np.sqrt(_dot(x, x, length, u), out=length)
        # num = a . (b x c), one component of the sum at a time
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            term = num if i == 0 else t
            np.multiply(b[j], c[k], out=term)
            np.multiply(b[k], c[j], out=u)
            np.subtract(term, u, out=term)
            np.multiply(a[i], term, out=term)
            if i:
                np.add(num, t, out=num)
        # den = la lb lc + (a . b) lc + (b . c) la + (a . c) lb
        np.multiply(la, lb, out=den)
        np.multiply(den, lc, out=den)
        for x, y, length in ((a, b, lc), (b, c, la), (a, c, lb)):
            np.multiply(_dot(x, y, t, u), length, out=t)
            np.add(den, t, out=den)
        np.arctan2(num, den, out=t)
        out[s:s + m] = t.sum(axis=1) / (2.0 * np.pi)
    return out


def _dot(x: np.ndarray, y: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """x[0] y[0] + x[1] y[1] + x[2] y[2] into ``out``, summed left to right."""
    np.multiply(x[0], y[0], out=out)
    for i in (1, 2):
        np.multiply(x[i], y[i], out=tmp)
        np.add(out, tmp, out=out)
    return out


def _point_triangle_distance_sq(p: np.ndarray, a, b, c) -> np.ndarray:
    """Squared distances from points p[i] to triangles (a[i], b[i], c[i]) (paired)."""
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    closest = np.empty_like(p)
    done = np.zeros(len(p), dtype=bool)

    m = (d1 <= 0) & (d2 <= 0)
    closest[m] = a[m]
    done |= m
    m = (~done) & (d3 >= 0) & (d4 <= d3)
    closest[m] = b[m]
    done |= m
    m = (~done) & (d6 >= 0) & (d5 <= d6)
    closest[m] = c[m]
    done |= m

    vc = d1 * d4 - d3 * d2
    m = (~done) & (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    t = np.where(np.abs(d1 - d3) > 1e-300, d1 / np.where(np.abs(d1 - d3) > 1e-300, d1 - d3, 1.0), 0.0)
    closest[m] = a[m] + t[m, None] * ab[m]
    done |= m

    vb = d5 * d2 - d1 * d6
    m = (~done) & (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    t = np.where(np.abs(d2 - d6) > 1e-300, d2 / np.where(np.abs(d2 - d6) > 1e-300, d2 - d6, 1.0), 0.0)
    closest[m] = a[m] + t[m, None] * ac[m]
    done |= m

    va = d3 * d6 - d5 * d4
    m = (~done) & (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)
    denom = (d4 - d3) + (d5 - d6)
    t = np.where(np.abs(denom) > 1e-300, (d4 - d3) / np.where(np.abs(denom) > 1e-300, denom, 1.0), 0.0)
    closest[m] = b[m] + t[m, None] * (c[m] - b[m])
    done |= m

    m = ~done
    if np.any(m):
        denom = va + vb + vc
        denom = np.where(np.abs(denom) > 1e-300, denom, 1.0)
        v_ = vb / denom
        w_ = vc / denom
        closest[m] = a[m] + v_[m, None] * ab[m] + w_[m, None] * ac[m]
    d = p - closest
    return np.einsum("ij,ij->i", d, d)


class MeshDistanceQuery:
    """Reusable point-to-mesh distance structure (KD-tree culled, exact result).

    Candidate faces are found through a KD-tree over face centroids: the
    nearest ``SEED_FACES`` faces bound the distance, and the exact
    point-triangle distance is then evaluated for every face whose centroid
    lies within the proven search radius, so results are exact, not nearest-
    centroid approximations.
    """

    def __init__(self, mesh: TriMesh):
        from scipy.spatial import cKDTree

        self.mesh = mesh
        v = mesh.vertices
        f = mesh.faces
        self._corners = (v[f[:, 0]], v[f[:, 1]], v[f[:, 2]])
        self._centroids = v[f].mean(axis=1)
        # max distance from a centroid to its triangle's far corner
        r = np.linalg.norm(v[f] - self._centroids[:, None, :], axis=2).max(axis=1)
        self._face_radius = float(r.max()) if len(r) else 0.0
        self._tree = cKDTree(self._centroids)

    def distance(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        d_seed, idx_seed = self._tree.query(points, k=min(SEED_FACES, len(self._centroids)))
        if d_seed.ndim == 1:
            d_seed = d_seed[:, None]
            idx_seed = idx_seed[:, None]
        a, b, c = self._corners
        # upper bound from seed faces
        best = np.full(len(points), np.inf)
        for k in range(d_seed.shape[1]):
            fi = idx_seed[:, k]
            dsq = _point_triangle_distance_sq(points, a[fi], b[fi], c[fi])
            best = np.minimum(best, dsq)
        upper = np.sqrt(best)
        # gather every face whose centroid might beat the bound
        radii = upper + self._face_radius + 1e-12
        neighborhoods = self._tree.query_ball_point(points, radii)
        out = np.empty(len(points))
        for i, cand in enumerate(neighborhoods):
            if not cand:
                out[i] = upper[i]
                continue
            fi = np.asarray(cand, dtype=np.int64)
            p_rep = np.repeat(points[i][None, :], len(fi), axis=0)
            dsq = _point_triangle_distance_sq(p_rep, a[fi], b[fi], c[fi])
            out[i] = min(np.sqrt(dsq.min()), upper[i])
        return out

