import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capdrop.delaunay import (
    classify_delaunay, clip_profile_to_sphere, delaunay_profile,
    first_integral, surface_of_revolution,
)
from capdrop.errors import AxisSingularityError, DegenerateConfigurationError
from capdrop.geometry import Sphere


def test_classification_table():
    assert classify_delaunay(0.0, 0.0) == "plane"
    assert classify_delaunay(1.0, 0.0) == "sphere"
    assert classify_delaunay(0.0, 0.7) == "catenoid"
    assert classify_delaunay(0.5, 0.5) == "cylinder"  # 4hc = 1
    assert classify_delaunay(0.5, 0.3) == "unduloid"
    assert classify_delaunay(1.0, -0.2) == "nodoid"
    # negative h is normalized by flipping both parameters
    assert classify_delaunay(-0.5, -0.3) == "unduloid"
    assert classify_delaunay(-1.0, 0.2) == "nodoid"
    with pytest.raises(DegenerateConfigurationError):
        classify_delaunay(1.0, 0.3)  # 4hc > 1


def test_sphere_profile_closes():
    # seeded at the equator, both legs terminate at the poles: full meridian
    prof = delaunay_profile(1.0, 0.0, s_span=(-10.0, 10.0), step=0.005)
    assert prof.surface_class == "sphere"
    assert prof.s[-1] - prof.s[0] == pytest.approx(math.pi, abs=1e-7)
    assert prof.x[0] < 1e-6 and prof.x[-1] < 1e-6
    assert np.max(prof.x) == pytest.approx(1.0, abs=1e-5)
    # z spans a diameter
    assert abs(prof.z[-1] - prof.z[0]) == pytest.approx(2.0, abs=1e-7)


def test_catenoid_matches_cosh():
    c = 0.8
    prof = delaunay_profile(0.0, c, s_span=(-2.0, 2.0), step=0.01)
    assert prof.surface_class == "catenoid"
    # catenary: x = c cosh(z / c), z measured from the neck
    z0 = prof.z[np.argmin(prof.x)]
    ref = c * np.cosh((prof.z - z0) / c)
    assert np.max(np.abs(prof.x - ref)) < 1e-8


def test_cylinder_profile_constant_radius():
    prof = delaunay_profile(0.5, 0.5, s_span=(-3.0, 3.0), step=0.01)
    assert prof.surface_class == "cylinder"
    assert np.max(np.abs(prof.x - 1.0)) < 1e-9


def test_unduloid_radius_oscillates_between_roots():
    h, c = 0.5, 0.3
    prof = delaunay_profile(h, c, s_span=(-12.0, 12.0), step=0.01)
    assert prof.surface_class == "unduloid"
    # x sin(psi) - h x^2 = c at psi = pi/2 gives the two neck/bulge radii
    disc = math.sqrt(1.0 - 4.0 * h * c)
    x_lo = (1.0 - disc) / (2.0 * h)
    x_hi = (1.0 + disc) / (2.0 * h)
    # sampled extrema undershoot the true ones by O(step^2)
    assert prof.x.min() == pytest.approx(x_lo, abs=1e-4)
    assert prof.x.max() == pytest.approx(x_hi, abs=1e-4)
    assert prof.x.min() > x_lo - 1e-9


def test_nodoid_stays_off_axis():
    prof = delaunay_profile(1.0, -0.2, s_span=(-8.0, 8.0), step=0.01)
    assert prof.surface_class == "nodoid"
    assert prof.x.min() > 0.05


def test_first_integral_drift_long_run():
    for h, c in ((0.5, 0.3), (1.0, -0.2), (0.0, 0.7), (0.7, 0.05)):
        prof = delaunay_profile(h, c, s_span=(-50.0, 50.0), step=0.05)
        assert prof.max_first_integral_drift < 1e-8, (h, c)


@settings(max_examples=12, deadline=None)
@given(h=st.floats(0.1, 2.0), q=st.floats(-1.0, 0.95))
@example(h=1.0, q=1e-9)
@example(h=1.0, q=-1e-9)
@example(h=1.0, q=4e-9)
def test_first_integral_conserved_property(h, q):
    # q parametrizes c through 4hc = q, keeping away from the degenerate line
    c = q / (4.0 * h)
    prof = delaunay_profile(h, c, s_span=(-5.0, 5.0), step=0.02)
    assert prof.max_first_integral_drift < 1e-8


def test_evaluate_matches_samples():
    prof = delaunay_profile(0.5, 0.3, s_span=(-4.0, 4.0), step=0.01)
    x, z, psi = prof.evaluate(prof.s[::7])
    assert np.allclose(x, prof.x[::7], atol=1e-12)
    assert np.allclose(z, prof.z[::7], atol=1e-12)
    assert np.allclose(psi, prof.psi[::7], atol=1e-12)


def test_seed_consistency_enforced():
    # explicit seed must reproduce the requested first integral
    with pytest.raises(ValueError):
        delaunay_profile(0.5, 0.3, x0=1.0, psi0=0.0)


def test_first_integral_function():
    x = np.array([1.0, 2.0])
    psi = np.array([math.pi / 2, math.pi / 6])
    f = first_integral(x, psi, 0.25)
    assert f[0] == pytest.approx(1.0 - 0.25)
    assert f[1] == pytest.approx(2 * 0.5 - 0.25 * 4)


def test_clip_profile_to_sphere_endpoints_on_sphere():
    prof = delaunay_profile(0.5, 0.3, s_span=(-12.0, 12.0), step=0.01)
    # sphere centered at a neck so the profile pierces it
    z_neck = prof.z[int(np.argmin(prof.x))]
    sphere = Sphere((0.0, 0.0, z_neck), 1.0)
    pieces = clip_profile_to_sphere(prof, sphere, keep="inside")
    assert pieces
    for piece in pieces:
        for s_end in (piece.s[0], piece.s[-1]):
            x, z, _ = prof.evaluate(np.array([s_end]))
            p = np.array([x[0], 0.0, z[0]])
            assert abs(np.linalg.norm(p - sphere.center) - 1.0) < 1e-10
        # interior of the piece is inside
        xm, zm, _ = prof.evaluate(
            np.array([0.5 * (piece.s[0] + piece.s[-1])]))
        assert math.hypot(xm[0], zm[0] - sphere.center[2]) < 1.0


def test_clip_inside_outside_complementary():
    prof = delaunay_profile(0.5, 0.3, s_span=(-10.0, 10.0), step=0.01)
    z_neck = prof.z[int(np.argmin(prof.x))]
    sphere = Sphere((0.0, 0.0, z_neck), 1.5)
    inner = clip_profile_to_sphere(prof, sphere, keep="inside")
    outer = clip_profile_to_sphere(prof, sphere, keep="outside")
    total = sum(p.s[-1] - p.s[0] for p in inner + outer)
    assert total == pytest.approx(prof.s[-1] - prof.s[0], abs=1e-8)


def test_profile_and_clip_reach_scipy_at_call_time(monkeypatch):
    # the integrator and the root finder are imported by the calls that use
    # them, not by the module, so a patched scipy attribute is what they run
    import scipy.integrate
    import scipy.optimize
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scipy.integrate, "solve_ivp",
                        counted("solve_ivp", scipy.integrate.solve_ivp))
    monkeypatch.setattr(scipy.optimize, "brentq",
                        counted("brentq", scipy.optimize.brentq))
    prof = delaunay_profile(0.5, 0.3, s_span=(-3.0, 3.0), step=0.02)
    assert calls.count("solve_ivp") == 2  # one per leg
    calls.clear()
    z_neck = prof.z[int(np.argmin(prof.x))]
    assert clip_profile_to_sphere(prof, Sphere((0.0, 0.0, z_neck), 1.0))
    assert calls and set(calls) == {"brentq"}


def test_surface_of_revolution_valid_mesh():
    prof = delaunay_profile(0.5, 0.3, s_span=(-3.0, 3.0), step=0.02)
    m = surface_of_revolution(prof, n_angular=48)
    assert m.n_faces > 0
    assert len(m.boundary_loops()) == 2
    # revolved CMC surface: all vertices at profile radii
    r = np.linalg.norm(m.vertices[:, :2], axis=1)
    assert r.min() == pytest.approx(prof.x.min(), abs=1e-9)
    assert r.max() == pytest.approx(prof.x.max(), abs=1e-9)


def test_surface_of_revolution_rejects_an_interior_axis_row():
    # only the profile's end rows may lie on the axis, where they become poles
    prof = delaunay_profile(0.5, 0.3, s_span=(-3.0, 3.0), step=0.02)
    x = prof.x.copy()
    x[len(x) // 2] = 0.0
    with pytest.raises(AxisSingularityError, match="interior profile row"):
        surface_of_revolution(dataclasses.replace(prof, x=x))
