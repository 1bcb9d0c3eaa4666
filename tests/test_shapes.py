import math

import numpy as np
import pytest

from capdrop.geometry import Sphere
from capdrop.shapes import flat_disk, icosphere, revolve, spherical_cap_mesh


def test_icosphere_vertices_on_sphere():
    m = icosphere(3, radius=2.0, center=(1.0, 0.0, 0.0))
    r = np.linalg.norm(m.vertices - np.array([1.0, 0.0, 0.0]), axis=1)
    assert np.allclose(r, 2.0, atol=1e-12)
    assert m.is_closed


def test_icosphere_counts():
    # subdividing multiplies faces by 4
    assert icosphere(0).n_faces == 20
    assert icosphere(2).n_faces == 320


def test_revolve_cone_winding():
    # profile running toward the axis while z rises: lateral cone surface
    # wound with normals pointing away from the axis
    m = revolve(np.array([1.0, 0.0]), np.array([0.0, 1.0]), n_angular=32)
    c = m.vertices[m.faces].mean(axis=1)
    radial = c - np.array([0.0, 0.0, 1.0]) * c[:, 2:3]
    assert np.all(np.sum(m.face_normals * radial, axis=1) > 0.0)


def test_revolve_axis_touch_merges_pole():
    m = revolve(np.array([1.0, 0.5, 0.0]), np.array([0.0, 0.0, 0.0]), n_angular=16)
    # single apex vertex, not a ring of duplicates
    on_axis = np.linalg.norm(m.vertices[:, :2], axis=1) < 1e-12
    assert int(on_axis.sum()) == 1


def test_flat_disk_matches_normal_argument():
    for nz in (1.0, -1.0):
        d = flat_disk(1.0, n_angular=24, n_rings=3, normal=(0.0, 0.0, nz))
        assert np.allclose(d.face_normals[:, 2], nz, atol=1e-12)


def test_flat_disk_area():
    d = flat_disk(2.0, n_angular=256, n_rings=8)
    assert d.surface_area() == pytest.approx(math.pi * 4.0, rel=1e-3)


def test_spherical_cap_mesh_geometry():
    s = Sphere((0.0, 0.0, 0.0), 1.5)
    theta = math.radians(70.0)
    cap = spherical_cap_mesh(s, np.array([0.0, 0.0, 1.0]), theta,
                             n_angular=96, n_rings=48)
    assert np.allclose(np.linalg.norm(cap.vertices, axis=1), 1.5, atol=1e-9)
    (loop,) = cap.boundary_loops()
    z = cap.vertices[loop][:, 2]
    assert np.allclose(z, 1.5 * math.cos(theta), atol=1e-9)
    # outward winding
    c = cap.vertices[cap.faces].mean(axis=1)
    assert np.all(np.sum(cap.face_normals * c, axis=1) > 0.0)
    area = 2 * math.pi * 1.5 * (1.5 - 1.5 * math.cos(theta))
    assert cap.surface_area() == pytest.approx(area, rel=1e-3)


def test_spherical_cap_mesh_rejects_full_sphere():
    s = Sphere((0.0, 0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        spherical_cap_mesh(s, np.array([0.0, 0.0, 1.0]), math.pi)
