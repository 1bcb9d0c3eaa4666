import math

import numpy as np
import pytest

from capdrop.geometry import (
    Sphere, open_hemisphere_pole, rotation_between, rotation_from_axis_angle,
    unit,
)


def test_unit_normalizes():
    v = unit(np.array([3.0, 0.0, 4.0]))
    assert np.allclose(v, [0.6, 0.0, 0.8])


def test_unit_rejects_zero():
    with pytest.raises(ValueError):
        unit(np.zeros(3))


def test_rotation_from_axis_angle_orthogonal():
    R = rotation_from_axis_angle(np.array([1.0, 2.0, -1.0]), 0.7)
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-14)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-14)


def test_rotation_between_maps_a_to_b(rng):
    for _ in range(20):
        a = unit(rng.normal(size=3))
        b = unit(rng.normal(size=3))
        R = rotation_between(a, b)
        assert np.allclose(R @ a, b, atol=1e-13)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_rotation_between_antiparallel():
    a = np.array([0.0, 0.0, 1.0])
    R = rotation_between(a, -a)
    assert np.allclose(R @ a, -a, atol=1e-13)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_sphere_signed_distance_and_project():
    s = Sphere((1.0, 0.0, 0.0), 2.0)
    pts = np.array([[1.0, 0.0, 0.0], [4.0, 0.0, 0.0], [1.0, 2.0, 0.0]])
    d = s.signed_distance(pts)
    assert np.allclose(d, [-2.0, 1.0, 0.0])
    proj = s.project(pts[1:])
    assert np.allclose(np.linalg.norm(proj - s.center, axis=1), 2.0)


def test_sphere_outward_normals():
    s = Sphere((0.0, 0.0, 0.0), 3.0)
    n = s.outward_normals(np.array([[0.0, 3.0, 0.0]]))
    assert np.allclose(n, [[0.0, 1.0, 0.0]])


def test_sphere_rejects_bad_radius():
    with pytest.raises(ValueError):
        Sphere((0, 0, 0), -1.0)


def test_open_hemisphere_pole_cluster():
    # the max-margin pole of a regular loop is its axis; scipy's nnls
    # returned a loop vertex on the 32-point loop at polar angle 1/3
    for n, polar in ((40, math.asin(0.3)), (32, 1.0 / 3.0)):
        th = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        pts = np.stack([np.sin(polar) * np.cos(th), np.sin(polar) * np.sin(th),
                        np.cos(polar) * np.ones_like(th)], axis=1)
        res = open_hemisphere_pole(pts)
        assert res is not None
        pole, margin = res
        assert np.allclose(pole, [0.0, 0.0, 1.0], rtol=0.0, atol=1e-12)
        assert margin == pytest.approx(math.cos(polar), rel=1e-12)


def test_open_hemisphere_pole_equator_fails():
    # a full great circle is in no open hemisphere
    th = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    pts = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=1)
    assert open_hemisphere_pole(pts) is None
