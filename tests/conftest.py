import math

import numpy as np
import pytest

from capdrop.geometry import Sphere
from capdrop.shapes import spherical_cap_mesh


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture
def unit_sphere():
    return Sphere((0.0, 0.0, 0.0), 1.0)


@pytest.fixture
def two_loop_band(unit_sphere):
    """Equatorial band of the unit sphere: two boundary loops with disjoint
    near caps."""
    cap = spherical_cap_mesh(unit_sphere, np.array([0.0, 0.0, 1.0]),
                             math.radians(120.0), n_angular=48, n_rings=48)
    mid = cap.vertices[cap.faces].mean(axis=1)[:, 2] < math.cos(
        math.radians(60.0))
    return cap.submesh(mid)
