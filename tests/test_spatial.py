import numpy as np
import pytest

from capdrop.shapes import icosphere
from capdrop.spatial import (
    MeshDistanceQuery, point_mesh_distance, ray_hit_counts, winding_numbers,
)


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


def test_ray_hit_counts_parity():
    m = icosphere(2)
    # direction chosen away from mesh vertices and edges; +x would exit
    # exactly through a vertex and graze its whole fan
    d = np.array([1.0, 0.3, 0.2])
    d /= np.linalg.norm(d)
    origins = np.array([
        [0.0, 0.0, 0.0],  # center: 1 hit
        2.0 * d,          # outside, pointing away: 0 hits
        -2.0 * d,         # outside, crossing the ball: 2 hits
    ])
    hits, grazing = ray_hit_counts(origins, d, m)
    assert hits[0] == 1
    assert hits[1] == 0
    assert hits[2] == 2
    assert not grazing.any()


def test_ray_hit_counts_flags_grazing():
    m = icosphere(2)
    hits, grazing = ray_hit_counts(np.zeros((1, 3)), np.array([1.0, 0.0, 0.0]), m)
    assert grazing[0]
