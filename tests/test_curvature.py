import math

import numpy as np
import pytest

from capdrop.curvature import (
    JET_MIN_SAMPLES, cotangent_area_gradient, jet_fit, jet_mean_curvature,
    mixed_voronoi_areas,
)
from capdrop.analytic import interior_drop_cap
from capdrop.shapes import (flat_disk, icosphere, perturb_normal,
                            spherical_cap_mesh)
from capdrop.geometry import Sphere
from capdrop.mesh import TriMesh

# Sign convention used throughout the package: h is measured against the
# winding normal, so a sphere wound outward reads h = -1/R and the same
# sphere wound inward reads h = +1/R.


def test_mixed_voronoi_areas_partition_surface():
    m = icosphere(2)
    va = mixed_voronoi_areas(m)
    assert va.sum() == pytest.approx(m.surface_area(), rel=1e-10)
    assert np.all(va > 0.0)


def test_area_gradient_matches_finite_differences(rng):
    m = flat_disk(0.5, n_angular=16, n_rings=3)
    v = m.vertices.copy()
    v[:, 2] += 0.05 * np.sin(3 * v[:, 0]) * np.cos(2 * v[:, 1])
    m = m.with_vertices(v)
    g = cotangent_area_gradient(m)
    eps = 1e-6
    for _ in range(5):
        d = rng.normal(size=v.shape)
        ap = m.with_vertices(v + eps * d).surface_area()
        am = m.with_vertices(v - eps * d).surface_area()
        fd = (ap - am) / (2 * eps)
        an = float(np.sum(g * d))
        assert an == pytest.approx(fd, rel=1e-5, abs=1e-10)


def test_inplace_mutation_after_invalidate():
    m = flat_disk(0.5, n_angular=12, n_rings=2)
    a0 = m.surface_area()
    m.vertices[:, 2] += np.linspace(0.0, 0.3, m.n_vertices)
    m.invalidate_geometry()
    assert m.surface_area() > a0


def test_jet_fit_sphere_curvature_and_normal():
    # the curvature estimate carries an O(h^2) bias; check the level at two
    # resolutions and the expected factor-4 reduction per subdivision
    b3 = abs(np.mean(jet_fit(icosphere(3))[1]) + 1.0)
    m = icosphere(4)
    normals, h = jet_fit(m)
    b4 = abs(np.mean(h) + 1.0)
    assert b4 < 7e-3
    assert b3 / b4 == pytest.approx(4.0, rel=0.2)
    assert np.std(h) < 1e-3
    # fitted normals agree with the exact sphere normals
    dots = np.einsum("ij,ij->i", normals, m.vertices / np.linalg.norm(
        m.vertices, axis=1, keepdims=True))
    assert dots.min() > 1.0 - 1e-5


def test_jet_fit_subset_matches_full():
    m = icosphere(2)
    idx = np.array([0, 5, 17])
    n_sub, h_sub = jet_fit(m, idx)
    n_all, h_all = jet_fit(m)
    assert np.allclose(h_sub, h_all[idx])
    assert np.allclose(n_sub, n_all[idx])


def test_jet_fit_boundary_vertices_usable():
    # jet fit works at boundary vertices, unlike the cotangent estimate; the
    # one-sided stencil keeps the fitted normal tight even though the local
    # curvature value degrades there
    s = Sphere((0.0, 0.0, 0.0), 1.0)
    cap = spherical_cap_mesh(s, np.array([0.0, 0.0, 1.0]), math.radians(60.0),
                             n_angular=64, n_rings=32)
    (loop,) = cap.boundary_loops()
    normals, h = jet_fit(cap, loop)
    assert np.all(np.isfinite(h))
    assert np.abs(h + 1.0).max() < 0.2
    exact = cap.vertices[loop]
    dots = np.einsum("ij,ij->i", normals, exact)
    assert dots.min() > 1.0 - 1e-5


def test_jet_fit_thin_boundary_stencil_grows_one_ring():
    # one-sided 2-rings at the boundary hold 10 or 11 samples, under the
    # minimum; one more ring is the 3-ring, so the fits agree with rings=3
    s = Sphere((0.0, 0.0, 0.0), 1.0)
    cap = spherical_cap_mesh(s, np.array([0.0, 0.0, 1.0]), math.radians(60.0),
                             n_angular=64, n_rings=32)
    (loop,) = cap.boundary_loops()
    n2, h2 = jet_fit(cap, loop)
    n3, h3 = jet_fit(cap, loop, rings=3)
    assert np.allclose(h2, h3, rtol=0.0, atol=1e-12)
    assert np.allclose(n2, n3, rtol=0.0, atol=1e-12)


def _grid2x2():
    """The 3 x 3-vertex square grid of 2 x 2 cells, two faces per cell."""
    gx, gy = np.meshgrid(np.arange(3.0), np.arange(3.0), indexing="ij")
    v = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(9)])
    a = np.array([0, 1, 3, 4])  # lower-left corner of each cell
    faces = np.concatenate([np.column_stack([a, a + 3, a + 4]),
                            np.column_stack([a, a + 4, a + 1])])
    return TriMesh(v, faces)


@pytest.mark.parametrize("mesh", [flat_disk(n_angular=8, n_rings=1),
                                  _grid2x2()], ids=["disk8", "grid2x2"])
def test_jet_fit_nan_when_component_too_small(mesh):
    # 9 vertices: no stencil can reach JET_MIN_SAMPLES, so the growth loop
    # stops at the edge of the mesh and every value is NaN
    assert mesh.n_vertices - 1 < JET_MIN_SAMPLES
    normals, h = jet_fit(mesh)
    assert np.all(np.isnan(h))
    assert np.allclose(normals, mesh.vertex_normals)


def _next_ring(adj, reached: set) -> set:
    return {int(k) for j in reached
            for k in adj.indices[adj.indptr[j]:adj.indptr[j + 1]]} - reached


def _lstsq_jet_reference(mesh, rings=2):
    """One np.linalg.lstsq per vertex: the fit that jet_fit batches.

    Also returns each fit's rank, so a test can tell that a rank-deficient
    stencil was exercised.
    """
    v, normals0, adj = mesh.vertices, mesh.vertex_normals, mesh.vertex_adjacency
    n_out = normals0.copy()
    h_out = np.full(mesh.n_vertices, np.nan)
    ranks = np.zeros(mesh.n_vertices, dtype=int)
    for i in range(mesh.n_vertices):
        reached = {i}
        for _ in range(rings):
            reached |= _next_ring(adj, reached)
        while len(reached) - 1 < JET_MIN_SAMPLES:
            grown = _next_ring(adj, reached)
            if not grown:
                break
            reached |= grown
        if len(reached) - 1 < JET_MIN_SAMPLES:
            continue
        n = normals0[i]
        t1 = np.cross(n, [1.0, 0.0, 0.0])
        if np.dot(t1, t1) < 1e-12:
            t1 = np.cross(n, [0.0, 1.0, 0.0])
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(n, t1)
        d = v[sorted(reached - {i})] - v[i]
        x, y, w = d @ t1, d @ t2, d @ n
        a = np.column_stack([x, y, x * x, x * y, y * y,
                             x ** 3, x * x * y, x * y * y, y ** 3])
        scale = np.abs(np.concatenate([x, y])).max() ** np.array(
            [1, 1, 2, 2, 2, 3, 3, 3, 3])
        coef, _, ranks[i], _ = np.linalg.lstsq(a / scale, w, rcond=None)
        fx, fy, fxx, fxy, fyy = coef[:5] / scale[:5] * [1, 1, 2, 1, 2]
        e, f, g = 1.0 + fx * fx, fx * fy, 1.0 + fy * fy
        root = np.sqrt(1.0 + fx * fx + fy * fy)
        h_out[i] = (e * fyy - 2.0 * f * fxy + g * fxx) / (
            2.0 * root * (e * g - f * f))
        n_fit = n - fx * t1 - fy * t2
        n_out[i] = n_fit / np.linalg.norm(n_fit)
    return n_out, h_out, ranks


def _perturbed_drop():
    drop = interior_drop_cap(1.0, math.radians(55.0), math.radians(110.0))
    mesh = drop.free_surface_mesh(n_angular=48, n_rings=24)
    return perturb_normal(mesh, 0.01, np.random.default_rng(7))


@pytest.mark.parametrize("mesh", [
    icosphere(3),
    spherical_cap_mesh(Sphere((0.0, 0.0, 0.0), 1.0), np.array([0.0, 0.0, 1.0]),
                       math.radians(60.0), n_angular=64, n_rings=32),
    _perturbed_drop(),
], ids=["icosphere3", "cap60", "perturbed_drop"])
def test_jet_fit_matches_per_vertex_lstsq(mesh):
    n_ref, h_ref, _ = _lstsq_jet_reference(mesh)
    normals, h = jet_fit(mesh)
    assert np.array_equal(np.isnan(h), np.isnan(h_ref))
    assert np.allclose(h, h_ref, rtol=0.0, atol=1e-12, equal_nan=True)
    assert np.allclose(normals, n_ref, rtol=0.0, atol=1e-12)


def test_jet_fit_cap_covers_grown_and_rank_deficient_stencils():
    # the parametrised comparison above only means something on the cap if
    # the cap has both kinds of stencil: thin boundary rings that grow, and
    # an apex whose samples lie on circles about it (rank below 9)
    cap = spherical_cap_mesh(Sphere((0.0, 0.0, 0.0), 1.0),
                             np.array([0.0, 0.0, 1.0]), math.radians(60.0),
                             n_angular=64, n_rings=32)
    _, _, ranks = _lstsq_jet_reference(cap)
    assert ranks.min() < 9
    two_ring = cap.vertex_adjacency @ cap.vertex_adjacency + cap.vertex_adjacency
    assert (np.diff(two_ring.tocsr().indptr) - 1 < JET_MIN_SAMPLES).any()


def test_jet_fit_empty_indices():
    normals, h = jet_fit(icosphere(1), np.array([], dtype=np.int64))
    assert normals.shape == (0, 3)
    assert h.shape == (0,)


def test_jet_mean_curvature_saddle():
    # z = (x^2 - y^2)/2 has zero mean curvature at the origin
    m = flat_disk(1.0, n_angular=48, n_rings=6)
    v = m.vertices
    v[:, 2] = 0.5 * (v[:, 0] ** 2 - v[:, 1] ** 2)
    h = jet_mean_curvature(m)
    i = int(np.argmin(np.linalg.norm(v[:, :2], axis=1)))
    assert abs(h[i]) < 5e-3
