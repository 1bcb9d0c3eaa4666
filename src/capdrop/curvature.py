"""Discrete mean curvature.

``cotangent_area_gradient`` is the gradient of the surface area in cotangent
form and ``mixed_voronoi_areas`` gives the mixed Voronoi vertex areas; the
flow's preconditioner is built from the face cotangents and those areas.
The flow measures curvature variationally, from its energy gradient against
its volume gradient, not with an estimator from this module.
``jet_mean_curvature`` fits a local cubic height field over a two-ring
stencil, grown a ring at a time where it holds fewer than
``JET_MIN_SAMPLES`` neighbours (boundary vertices see their rings from one
side only); it also yields values at boundary vertices, so
verification-grade curvature laws are checked against it.
Stencils are built for the requested vertices only, and all their fits are
solved by one stacked SVD with the singular-value cutoff of
``np.linalg.lstsq``.

Sign convention: with K the cotangent area-gradient vector at a vertex
(pointing outward on a convex surface regardless of winding) and N the
winding vertex normal, the scalar is H = dot(K, -N) / 2.  A sphere of radius
R wound with N toward the enclosed region has H = +1/R; flipping the winding
flips the sign.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .geometry import cross3
from .mesh import TriMesh

__all__ = ["jet_mean_curvature", "cotangent_area_gradient", "mixed_voronoi_areas"]

_COT_CLAMP = 1e6

# Least-squares samples a jet stencil must hold: the cubic has 9 unknowns, and
# a stencil of 10 or 11 one-sided samples at a boundary vertex is too
# ill-conditioned to trust (Cazals & Pouget 2003).
JET_MIN_SAMPLES = 12


def _face_cotangents(mesh: TriMesh) -> np.ndarray:
    """Per-face cotangents of the angle at each corner, clamped to +-1e6."""
    v = mesh.vertices
    f = mesh.faces
    cots = np.empty((len(f), 3))
    for k in range(3):
        a = v[f[:, (k + 1) % 3]] - v[f[:, k]]
        b = v[f[:, (k + 2) % 3]] - v[f[:, k]]
        cross = np.linalg.norm(cross3(a, b), axis=1)
        dot = np.einsum("ij,ij->i", a, b)
        cots[:, k] = dot / np.maximum(cross, 1e-300)
    return np.clip(cots, -_COT_CLAMP, _COT_CLAMP)


# scatter blocks of the edge terms: for corner k, the two ends (k+1, k+2) of
# the opposite edge
_EDGE_ENDS = (1, 2, 2, 0, 0, 1)


def mixed_voronoi_areas(mesh: TriMesh,
                        cots: np.ndarray | None = None) -> np.ndarray:
    """Mixed Voronoi vertex areas (Voronoi cells, clipped for obtuse triangles).

    ``cots``, if given, must be ``_face_cotangents(mesh)``; a caller that
    already holds them saves computing them again.
    """
    v = mesh.vertices
    f = mesh.faces
    if cots is None:
        cots = _face_cotangents(mesh)
    areas = mesh.face_areas
    obtuse_corner = np.argmin(cots, axis=1)
    is_obtuse = cots[np.arange(len(f)), obtuse_corner] < 0.0

    vals = np.empty((9, len(f)))
    # Voronoi contribution: for corner k the opposite edge is (k+1, k+2); the
    # cell area at vertex j gets |e|^2 * cot(angle opposite e) / 8 for each
    # edge e incident to j.
    for k in range(3):
        d = v[f[:, (k + 1) % 3]] - v[f[:, (k + 2) % 3]]
        e2 = np.einsum("ij,ij->i", d, d)
        vals[2 * k] = vals[2 * k + 1] = np.where(is_obtuse, 0.0,
                                                 e2 * cots[:, k] / 8.0)
    # obtuse triangles: half the area at the obtuse corner, quarter elsewhere
    for k in range(3):
        share = np.where(obtuse_corner == k, 0.5, 0.25)
        vals[6 + k] = np.where(is_obtuse, share * areas, 0.0)
    return mesh.scatter(vals, _EDGE_ENDS + (0, 1, 2))


def cotangent_area_gradient(mesh: TriMesh) -> np.ndarray:
    """Per-vertex gradient of total area: 0.5 * sum_j (cot a + cot b)(x_i - x_j)."""
    v = mesh.vertices
    f = mesh.faces
    cots = _face_cotangents(mesh)
    vals = np.empty((6, len(f), 3))
    for k in range(3):
        d = v[f[:, (k + 1) % 3]] - v[f[:, (k + 2) % 3]]
        w = 0.5 * cots[:, k]
        vals[2 * k] = w[:, None] * d
        vals[2 * k + 1] = -w[:, None] * d
    return mesh.scatter(vals, _EDGE_ENDS)


def _stencils(mesh: TriMesh, indices: np.ndarray, rings: int):
    """Jet stencils of the vertices ``indices``, built for those rows only.

    Row selections of the identity are widened by ``reach + reach @ adj``
    ``rings`` times; rows holding fewer than ``JET_MIN_SAMPLES`` other
    vertices widen again, by whole rings, until they do.  Returns the
    positions in ``indices`` that got a stencil and the CSR rows of their
    stencils, the vertex itself still included; a row whose connected
    component runs out first is dropped.
    """
    adj = mesh.vertex_adjacency
    rows = np.arange(len(indices))
    reach = sparse.identity(mesh.n_vertices, format="csr")[indices]
    for _ in range(rings):
        reach = reach + reach @ adj
    kept_rows, kept = [], []
    while True:
        count = np.diff(reach.indptr)
        short = count - 1 < JET_MIN_SAMPLES
        kept_rows.append(rows[~short])
        kept.append(reach[~short])
        if not short.any():
            break
        reach = reach[short]
        rows = rows[short]
        reach = reach + reach @ adj
        growing = np.diff(reach.indptr) > count[short]
        reach = reach[growing]
        rows = rows[growing]
    return np.concatenate(kept_rows), sparse.vstack(kept, format="csr")


def jet_fit(mesh: TriMesh, indices: np.ndarray | None = None,
            rings: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Local cubic height-field fit at the requested vertices.

    For each vertex a frame is built from the winding vertex normal, the
    k-ring neighborhood is expressed as heights over the tangent plane, and a
    cubic polynomial through the origin is fit by least squares.

    The stencil starts as the ``rings``-ring of the vertex.  Where that holds
    fewer than ``JET_MIN_SAMPLES`` (12) neighbours, which happens at boundary
    vertices whose rings are one-sided, it grows by one ring at a time until
    it does; the 9-unknown cubic is then over-determined with a margin.
    Stencils are built for the requested vertices only.  All fits are solved
    at once: the column-scaled design matrices are zero-padded to the largest
    stencil (zero rows leave a least-squares solution unchanged) and go
    through one stacked SVD, whose singular values are cut below
    ``eps * max(m, 9) * s_max`` for a stencil of m samples, the cutoff of
    ``np.linalg.lstsq``.  A rank-deficient stencil so gets the minimum-norm
    fit.

    Returns
    -------
    normals : (len(indices), 3) array
        Fitted surface normals, co-oriented with the winding vertex normals;
        the winding vertex normal itself where ``h`` is NaN.
    h : (len(indices),) array
        Mean curvature of the fit, under the module's sign convention; NaN
        where the vertex's connected component has fewer than
        ``JET_MIN_SAMPLES`` other vertices, so the stencil cannot grow to the
        minimum.
    """
    v = mesh.vertices
    normals0 = mesh.vertex_normals
    if indices is None:
        indices = np.arange(mesh.n_vertices)
    indices = np.asarray(indices, dtype=np.int64)
    n_out = normals0[indices].copy()
    h_out = np.full(len(indices), np.nan)
    rows, reach = _stencils(mesh, indices, rings)
    if len(rows) == 0:
        return n_out, h_out

    # gather each stencil into a row of a padded (rows, m_max) index table;
    # padding repeats the centre vertex, whose offset and so design row is 0
    centre = indices[rows]
    count = np.diff(reach.indptr)
    own = reach.indices == np.repeat(centre, count)
    m = count - 1
    m_max = int(m.max())
    table = np.repeat(centre[:, None], m_max, axis=1)
    table[np.arange(m_max) < m[:, None]] = reach.indices[~own]

    n = normals0[centre]
    t1 = cross3(n, [1.0, 0.0, 0.0])
    along_x = np.einsum("ij,ij->i", t1, t1) < 1e-12
    t1[along_x] = cross3(n[along_x], [0.0, 1.0, 0.0])
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = cross3(n, t1)
    d = v[table] - v[centre][:, None, :]
    x = np.einsum("rkj,rj->rk", d, t1)
    y = np.einsum("rkj,rj->rk", d, t2)
    w = np.einsum("rkj,rj->rk", d, n)
    # cubic jet through the origin: 2 linear + 3 quadratic + 4 cubic terms
    a_mat = np.stack([
        x, y, x * x, x * y, y * y,
        x ** 3, x * x * y, x * y * y, y ** 3,
    ], axis=2)
    scale = np.maximum(np.maximum(np.abs(x).max(axis=1),
                                  np.abs(y).max(axis=1)), 1e-30)[:, None]
    col_scale = scale ** np.array([1, 1, 2, 2, 2, 3, 3, 3, 3])
    u, s, vt = np.linalg.svd(a_mat / col_scale[:, None, :],
                             full_matrices=False)
    cutoff = np.finfo(float).eps * np.maximum(m, 9) * s[:, 0]
    keep = s > cutoff[:, None]
    s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    uw = np.einsum("rki,rk->ri", u, w) * s_inv
    coef = np.einsum("rij,ri->rj", vt, uw) / col_scale
    fx, fy = coef[:, 0], coef[:, 1]
    fxx, fxy, fyy = 2.0 * coef[:, 2], coef[:, 3], 2.0 * coef[:, 4]
    e_ = 1.0 + fx * fx
    f_ = fx * fy
    g_ = 1.0 + fy * fy
    denom = np.sqrt(1.0 + fx * fx + fy * fy)
    l_ = fxx / denom
    m_ = fxy / denom
    nn_ = fyy / denom
    # mean curvature of the graph w.r.t. the +n side of the frame; a graph
    # curving away from +n (convex vertex, outward winding) gives a
    # negative value, matching H = dot(K, -N)/2 < 0 for outward winding
    h_out[rows] = (e_ * nn_ - 2.0 * f_ * m_ + g_ * l_) / (2.0 * (e_ * g_ - f_ * f_))
    n_fit = -fx[:, None] * t1 - fy[:, None] * t2 + n
    n_out[rows] = n_fit / np.linalg.norm(n_fit, axis=1, keepdims=True)
    return n_out, h_out


def jet_mean_curvature(mesh: TriMesh, rings: int = 2) -> np.ndarray:
    """Mean curvature from the local cubic fit at every vertex (boundary included)."""
    return jet_fit(mesh, None, rings)[1]
