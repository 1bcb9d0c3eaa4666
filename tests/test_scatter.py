"""The face-to-vertex scatter against np.add.at, the shared topology caches,
and the flow's face pass against the public kernels.

Every scatter of the public kernels must add the same terms in the same
order as one ``np.add.at`` per block did, so those comparisons are exact.
The face pass writes the area gradient with face normals instead of
cotangents, so it matches them to round-off.
"""
import math

import numpy as np
import pytest

from capdrop.analytic import interior_drop_cap
from capdrop.curvature import (_face_cotangents, cotangent_area_gradient,
                               mixed_voronoi_areas)
from capdrop.geometry import cross3, rotation_between, rotation_from_axis_angle
from capdrop import solver
from capdrop.remesh import mean_edge_length, min_quality
from capdrop.shapes import icosphere, perturb_normal
from capdrop.wetting import (make_wetting_operator, surface_volume_gradient,
                             surface_z_moment_gradient)


def add_at(n, terms):
    """Sum ``(vertex indices, values)`` terms into n rows with np.add.at, in
    the order given."""
    out = np.zeros((n,) + terms[0][1].shape[1:])
    for idx, vals in terms:
        np.add.at(out, idx, vals)
    return out


@pytest.fixture(scope="module")
def drop():
    return interior_drop_cap(1.0, math.radians(55.0), math.radians(110.0))


@pytest.fixture(scope="module")
def bumpy(drop):
    """A drop whose normal perturbation leaves obtuse faces."""
    mesh = drop.free_surface_mesh(n_angular=48)
    rng = np.random.default_rng(7)
    mesh = perturb_normal(mesh, 0.4 * mean_edge_length(mesh), rng)
    assert (_face_cotangents(mesh) < 0.0).any()
    return mesh


@pytest.fixture(params=["bumpy", "sphere"])
def mesh(request, bumpy):
    return bumpy if request.param == "bumpy" else icosphere(3)


def test_cross3_equals_np_cross(rng):
    a = rng.normal(size=(200, 3))
    b = rng.normal(size=(200, 3))
    assert np.array_equal(cross3(a, b), np.cross(a, b))
    assert np.array_equal(cross3([0.0, 0.0, 1.0], b),
                          np.cross(np.broadcast_to([0.0, 0.0, 1.0], b.shape), b))
    assert np.array_equal(cross3(a[0], b[0]), np.cross(a[0], b[0]))


def test_vertex_normals(mesh):
    c = np.cross(mesh.vertices[mesh.faces[:, 1]] - mesh.vertices[mesh.faces[:, 0]],
                 mesh.vertices[mesh.faces[:, 2]] - mesh.vertices[mesh.faces[:, 0]])
    vn = add_at(mesh.n_vertices, [(mesh.faces[:, k], c) for k in range(3)])
    vn /= np.maximum(np.linalg.norm(vn, axis=1, keepdims=True), 1e-300)
    assert np.array_equal(mesh.vertex_normals, vn)


def test_mixed_voronoi_areas(mesh):
    v, f = mesh.vertices, mesh.faces
    cots = _face_cotangents(mesh)
    corner = np.argmin(cots, axis=1)
    obtuse = cots[np.arange(len(f)), corner] < 0.0
    terms = []
    for k in range(3):
        j1, j2 = f[:, (k + 1) % 3], f[:, (k + 2) % 3]
        e2 = np.einsum("ij,ij->i", v[j1] - v[j2], v[j1] - v[j2])
        contrib = e2 * cots[:, k] / 8.0
        terms += [(j1[~obtuse], contrib[~obtuse]), (j2[~obtuse], contrib[~obtuse])]
    for k in range(3):
        share = np.where(corner[obtuse] == k, 0.5, 0.25)
        terms.append((f[obtuse, k], share * mesh.face_areas[obtuse]))
    assert np.array_equal(mixed_voronoi_areas(mesh),
                          add_at(mesh.n_vertices, terms))


def test_cotangent_area_gradient(mesh):
    v, f = mesh.vertices, mesh.faces
    cots = _face_cotangents(mesh)
    terms = []
    for k in range(3):
        j1, j2 = f[:, (k + 1) % 3], f[:, (k + 2) % 3]
        w = 0.5 * cots[:, k]
        terms += [(j1, w[:, None] * (v[j1] - v[j2])),
                  (j2, -w[:, None] * (v[j1] - v[j2]))]
    assert np.array_equal(cotangent_area_gradient(mesh),
                          add_at(mesh.n_vertices, terms))


def test_surface_volume_gradient(mesh):
    f = mesh.faces
    a, b, c = (mesh.vertices[f[:, k]] for k in range(3))
    ref = add_at(mesh.n_vertices, [(f[:, 0], np.cross(b, c) / 6.0),
                                   (f[:, 1], np.cross(c, a) / 6.0),
                                   (f[:, 2], np.cross(a, b) / 6.0)])
    assert np.array_equal(surface_volume_gradient(mesh), ref)


def test_surface_z_moment_gradient(mesh):
    f = mesh.faces
    a, b, c = (mesh.vertices[f[:, k]] for k in range(3))
    avec_z = 0.5 * np.cross(b - a, c - a)[:, 2]
    za, zb, zc = a[:, 2], b[:, 2], c[:, 2]
    zsum = za * za + zb * zb + zc * zc + za * zb + za * zc + zb * zc
    zhat = np.broadcast_to([0.0, 0.0, 1.0], a.shape)
    parts = []
    for p, q, z0, z1, z2 in ((c, b, za, zb, zc), (a, c, zb, za, zc),
                             (b, a, zc, za, zb)):
        g = 0.5 * np.cross(zhat, p - q) * zsum[:, None]
        g[:, 2] += avec_z * (2.0 * z0 + z1 + z2)
        parts.append(g / 12.0)
    ref = add_at(mesh.n_vertices, [(f[:, k], parts[k]) for k in range(3)])
    assert np.array_equal(surface_z_moment_gradient(mesh), ref)


def test_scatter_shapes():
    m = icosphere(1)
    ones = np.ones((3, m.n_faces))
    # every vertex gets one term per incident face
    counts = np.bincount(m.faces.ravel(), minlength=m.n_vertices)
    assert np.array_equal(m.scatter(ones), counts.astype(float))
    assert m.scatter(np.ones((2, m.n_faces, 3)), (0, 0)).shape == (m.n_vertices, 3)


def test_topology_cache_shared_with_siblings():
    parent = icosphere(2)
    child = parent.with_vertices(2.0 * parent.vertices)
    adjacency = child.vertex_adjacency
    assert parent.vertex_adjacency is adjacency
    cotangent_area_gradient(child)
    assert any(key[0] == "scatter" for key in parent._topology
               if isinstance(key, tuple))
    grandchild = child.with_vertices(parent.vertices)
    assert grandchild._topology is parent._topology
    # position-dependent caches stay with their own mesh
    assert child.face_areas == pytest.approx(4.0 * parent.face_areas)


def test_operator_rotation_is_computed_for_its_pole(drop):
    tilt = rotation_from_axis_angle(np.array([1.0, 0.4, 0.0]), 0.7)
    mesh = drop.free_surface_mesh(n_angular=48).transformed(rotation=tilt)
    op = make_wetting_operator(mesh, drop.substrate)
    assert abs(op.pole[2] - 1.0) > 1e-3
    assert np.array_equal(op.rot,
                          rotation_between(op.pole, np.array([0.0, 0.0, 1.0])))
    upright = make_wetting_operator(drop.free_surface_mesh(n_angular=48),
                                    drop.substrate)
    if abs(upright.pole[2] - 1.0) < 1e-15:
        assert upright.rot is None


def _face_pass(mesh):
    """The flow's values at ``mesh`` for a pinned solve: no wetting terms,
    so the energy is the area and the volume the divergence volume."""
    state = solver.init_flow_state(mesh, solver.SolveConfig(mode="dirichlet_cmc"))
    return state, solver._at(mesh, state, energy=True, volume=True, c=True,
                             g=True)


def _close(a, b, rel=1e-12):
    return np.abs(a - b).max() <= rel * np.abs(b).max()


def test_face_pass_matches_public_kernels(mesh):
    _, p = _face_pass(mesh)
    assert _close(p.g, cotangent_area_gradient(mesh))
    assert _close(p.c, surface_volume_gradient(mesh))
    assert p.energy == p.area == pytest.approx(mesh.surface_area(), rel=1e-12)
    assert p.volume == pytest.approx(mesh.divergence_volume(), rel=1e-12)
    assert p.quality == pytest.approx(min_quality(mesh), rel=1e-12)


def test_face_pass_gradients_fd(mesh, rng):
    """Both gradients against four-point central differences, each
    position evaluated on its own mesh (the values are cached per mesh)."""
    state, p = _face_pass(mesh)
    eps = 1e-4
    for _ in range(4):
        d = rng.normal(size=mesh.vertices.shape)

        def at(t):
            q = solver._at(mesh.with_vertices(mesh.vertices + t * d), state,
                           energy=True, volume=True)
            return np.array([q.area, q.volume])

        fd = (8.0 * (at(eps) - at(-eps)) - (at(2 * eps) - at(-2 * eps))) / (12 * eps)
        an = np.array([np.sum(p.g * d), np.sum(p.c * d)])
        assert np.all(np.abs(fd - an) <= 5e-7 * np.maximum(np.abs(fd), np.abs(an)))
