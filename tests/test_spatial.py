import math

import numpy as np
import pytest

from capdrop.analytic import interior_drop_cap
from capdrop.closure import close_with_spherical_patch
from capdrop.shapes import flat_disk, icosphere
from capdrop.spatial import (
    WINDING_BLOCK_PAIRS, MeshDistanceQuery, point_mesh_distance,
    winding_numbers,
)


def winding_reference(points, mesh):
    """Sum of van Oosterom-Strackee solid angles, one face at a time."""
    v = mesh.vertices
    total = np.zeros(len(points))
    for fa, fb, fc in mesh.faces:
        a, b, c = v[fa] - points, v[fb] - points, v[fc] - points
        la, lb, lc = (np.linalg.norm(x, axis=1) for x in (a, b, c))
        num = np.einsum("ij,ij->i", a, np.cross(b, c))
        den = (la * lb * lc + np.einsum("ij,ij->i", a, b) * lc
               + np.einsum("ij,ij->i", b, c) * la
               + np.einsum("ij,ij->i", a, c) * lb)
        total += np.arctan2(num, den)
    return total / (2.0 * np.pi)


def test_winding_numbers_ball(rng):
    m = icosphere(2)
    inside = rng.normal(size=(40, 3))
    inside = 0.8 * inside / np.linalg.norm(inside, axis=1, keepdims=True)
    inside *= rng.uniform(0.0, 1.0, size=(40, 1)) ** (1 / 3)
    outside = 1.5 * rng.normal(size=(40, 3))
    outside /= np.linalg.norm(outside, axis=1, keepdims=True)
    outside *= rng.uniform(1.2, 3.0, size=(40, 1))
    w_in = winding_numbers(inside, m)
    w_out = winding_numbers(outside, m)
    assert np.all(np.abs(w_in - 1.0) < 1e-6)
    assert np.all(np.abs(w_out) < 1e-6)


def test_winding_sign_flips_with_orientation():
    m = icosphere(1)
    p = np.array([[0.0, 0.0, 0.0]])
    assert winding_numbers(p, m)[0] == pytest.approx(1.0, abs=1e-9)
    assert winding_numbers(p, m.flipped())[0] == pytest.approx(-1.0, abs=1e-9)


def test_distance_query_matches_brute_force(rng):
    m = icosphere(2, radius=1.3)
    pts = rng.normal(size=(25, 3)) * 1.5
    q = MeshDistanceQuery(m)
    fast = q.distance(pts)
    slow = point_mesh_distance(pts, m)
    assert np.allclose(fast, slow, atol=1e-12)
    # the inscribed polyhedron hugs the sphere of radius 1.3 to within its sag
    radial = np.abs(np.linalg.norm(pts, axis=1) - 1.3)
    assert np.all(np.abs(fast - radial) < 0.05)


def test_winding_numbers_match_face_loop_on_closed_drop(rng, unit_sphere):
    drop = interior_drop_cap(1.0, math.radians(50.0), math.radians(70.0))
    region = close_with_spherical_patch(
        drop.free_surface_mesh(n_angular=24, n_rings=12), unit_sphere)
    n = 3 * WINDING_BLOCK_PAIRS // region.mesh.n_faces + 5  # several blocks
    pts = rng.uniform(-1.2, 1.2, size=(n, 3))
    got = winding_numbers(pts, region.mesh)
    assert np.allclose(got, winding_reference(pts, region.mesh), rtol=0.0,
                       atol=1e-12)
    assert np.any(np.abs(got) > 0.5)


def test_winding_numbers_match_face_loop_on_small_mesh(rng):
    m = icosphere(0)
    assert m.n_faces == 20  # all 100 points fit in one block
    pts = 1.5 * rng.normal(size=(100, 3))
    assert np.allclose(winding_numbers(pts, m), winding_reference(pts, m),
                       rtol=0.0, atol=1e-12)


def test_winding_numbers_match_face_loop_on_open_mesh(rng):
    m = flat_disk(1.0, n_angular=32, n_rings=6)
    pts = rng.uniform(-1.5, 1.5, size=(60, 3))
    got = winding_numbers(pts, m)
    assert np.allclose(got, winding_reference(pts, m), rtol=0.0, atol=1e-12)
    assert np.all(np.abs(got) < 0.5)  # an open disk: half a turn at most


def test_spatial_queries_of_no_points():
    m = icosphere(1)
    assert winding_numbers(np.zeros((0, 3)), m).shape == (0,)
    assert MeshDistanceQuery(m).distance(np.zeros((0, 3))).shape == (0,)
