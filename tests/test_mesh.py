import math

import numpy as np
import pytest

from capdrop.errors import (
    DegenerateFaceError, InconsistentOrientationError, NonManifoldError,
    OpenMeshError,
)
from capdrop.mesh import TriMesh, build_mesh
from capdrop.analytic import interior_drop_cap
from capdrop.shapes import flat_disk, icosphere, revolve

TETRA_V = np.array([
    [0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
])
# outward winding
TETRA_F = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])


def test_tetra_area_volume():
    m = TriMesh(TETRA_V, TETRA_F)
    area = 1.5 + math.sqrt(3) / 2
    assert m.surface_area() == pytest.approx(area, rel=1e-14)
    assert m.enclosed_volume() == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert m.is_closed


def test_flipped_negates_volume():
    m = TriMesh(TETRA_V, TETRA_F)
    assert m.flipped().enclosed_volume() == pytest.approx(-1.0 / 6.0)


def test_divergence_volume_translation_invariant_when_closed():
    m = icosphere(2)
    shifted = m.transformed(translation=np.array([3.0, -2.0, 5.0]))
    assert shifted.divergence_volume() == pytest.approx(
        m.divergence_volume(), rel=1e-12)


def test_enclosed_volume_requires_closed():
    disk = flat_disk(1.0, n_angular=16, n_rings=3)
    with pytest.raises(OpenMeshError):
        disk.enclosed_volume()


def test_nonmanifold_edge_rejected():
    v = np.vstack([TETRA_V, [[0.5, 0.5, 1.0]]])
    f = np.vstack([TETRA_F, [[1, 2, 4]]])  # third face on edge 1-2
    with pytest.raises(NonManifoldError):
        TriMesh(v, f)


def test_inconsistent_orientation_rejected():
    f = TETRA_F.copy()
    f[3] = f[3][::-1]
    with pytest.raises(InconsistentOrientationError):
        TriMesh(TETRA_V, f)


def test_degenerate_face_rejected():
    v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(DegenerateFaceError):
        TriMesh(v, np.array([[0, 1, 2]]))


def test_duplicate_vertex_face_rejected():
    with pytest.raises(DegenerateFaceError):
        TriMesh(TETRA_V, np.array([[0, 1, 1]]))


def test_validate_off_allows_raw():
    m = TriMesh(TETRA_V, np.array([[0, 1, 1]]), validate=False)
    assert m.n_faces == 1


def test_icosphere_volume_convergence():
    # inscribed triangulation underestimates the ball volume; error is O(h^2)
    v3 = abs(icosphere(3).enclosed_volume() - 4 * math.pi / 3)
    v4 = abs(icosphere(4).enclosed_volume() - 4 * math.pi / 3)
    assert v4 < v3 / 3.5
    assert v4 / (4 * math.pi / 3) < 3e-3


def test_boundary_loops_disk_and_annulus():
    disk = flat_disk(1.0, n_angular=24, n_rings=4)
    loops = disk.boundary_loops()
    assert len(loops) == 1
    assert len(loops[0]) == 24
    ann = revolve(np.linspace(1.0, 0.5, 4), np.zeros(4), n_angular=24)
    loops = ann.boundary_loops()
    assert len(loops) == 2
    lens = sorted(len(l) for l in loops)
    assert lens == [24, 24]


def test_boundary_loops_ordered_consecutively():
    disk = flat_disk(1.0, n_angular=16, n_rings=2)
    (loop,) = disk.boundary_loops()
    pts = disk.vertices[loop]
    steps = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    # consecutive boundary vertices are one edge apart
    assert steps.max() < 2.5 * steps.min()


def _boundary_edges_reference(mesh):
    """Directed edges (a, b) whose reverse (b, a) is absent, in face order."""
    edges = [tuple(e) for e in mesh.directed_edges.tolist()]
    present = set(edges)
    kept = [e for e in edges if (e[1], e[0]) not in present]
    return np.array(kept, dtype=np.int64).reshape(-1, 2)


def test_boundary_directed_edges_match_set_reference(two_loop_band):
    drop = interior_drop_cap(1.0, math.radians(55.0), math.radians(110.0))
    meshes = [flat_disk(1.0, n_angular=32, n_rings=5),
              drop.free_surface_mesh(n_angular=40, n_rings=16),
              two_loop_band, icosphere(1)]
    for m in meshes:
        assert np.array_equal(m.boundary_directed_edges,
                              _boundary_edges_reference(m))
    assert len(two_loop_band.boundary_directed_edges) == 96
    assert icosphere(1).boundary_directed_edges.shape == (0, 2)


def test_boundary_vertex_mask():
    disk = flat_disk(1.0, n_angular=12, n_rings=2)
    mask = disk.boundary_vertex_mask
    r = np.linalg.norm(disk.vertices, axis=1)
    assert np.array_equal(mask, r > 1.0 - 1e-9)


def test_vertex_normals_unit_and_outward():
    m = icosphere(2)
    n = m.vertex_normals
    assert np.allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-12)
    assert np.all(np.sum(n * m.vertices, axis=1) > 0.9)


def test_submesh_keeps_referenced_vertices():
    m = icosphere(1)
    upper = m.face_normals[:, 2] > 0.0
    sub = m.submesh(upper)
    assert sub.n_faces == int(upper.sum())
    assert not sub.is_closed
    assert sub.n_vertices < m.n_vertices


def test_build_mesh_roundtrip():
    m = build_mesh(TETRA_V.tolist(), TETRA_F.tolist())
    assert isinstance(m, TriMesh)
    assert m.n_vertices == 4


def test_transformed_rigid_preserves_area():
    from capdrop.geometry import rotation_from_axis_angle
    m = icosphere(2)
    R = rotation_from_axis_angle(np.array([1.0, 0.3, -0.2]), 1.1)
    t = m.transformed(rotation=R, translation=np.array([0.1, 0.2, 0.3]))
    assert t.surface_area() == pytest.approx(m.surface_area(), rel=1e-12)
