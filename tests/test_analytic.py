import math

import numpy as np
import pytest

from capdrop.analytic import (
    CapillaryParams, cap_volume, contact_angle, exterior_drop_cap,
    interior_drop_cap, spherical_caps_for_circle,
)
from capdrop.errors import (
    BoundaryOffSphereError, CurvatureTooLargeError,
    DegenerateConfigurationError, ZeroCurvatureError,
)
from capdrop.geometry import Sphere, rotation_from_axis_angle
from capdrop.shapes import flat_disk


def test_cap_volume_closed_forms():
    # hemisphere and full ball
    assert cap_volume(1.0, 1.0) == pytest.approx(2 * math.pi / 3)
    assert cap_volume(1.0, 2.0) == pytest.approx(4 * math.pi / 3)


def test_caps_for_unit_circle_curvature_half():
    small, large = spherical_caps_for_circle(1.0, 0.5)
    # carrier radius 2, center offset sqrt(3) below the circle plane
    assert small.carrier.radius == pytest.approx(2.0)
    assert small.height == pytest.approx(2.0 - math.sqrt(3.0), rel=1e-12)
    assert large.height == pytest.approx(2.0 + math.sqrt(3.0), rel=1e-12)
    assert small.circle_radius == pytest.approx(1.0)
    # both caps share the carrier and pass through the circle
    assert np.allclose(small.carrier.center, large.carrier.center)
    m = small.mesh(n_angular=16)
    pts = m.vertices[m.boundary_loops()[0]]
    assert np.allclose(np.linalg.norm(pts[:, :2], axis=1), 1.0, atol=1e-12)
    assert np.allclose(pts[:, 2], 0.0, atol=1e-12)


def test_caps_area_volume_match_mesh():
    small, large = spherical_caps_for_circle(0.8, 0.9)
    for cap in (small, large):
        m = cap.mesh(n_angular=128)
        assert m.surface_area() == pytest.approx(cap.area, rel=2e-3)
        assert cap.area == pytest.approx(
            2 * math.pi * cap.carrier.radius * cap.height, rel=1e-12)


def test_caps_for_circle_bad_curvature():
    with pytest.raises(ZeroCurvatureError):
        spherical_caps_for_circle(1.0, 0.0)
    with pytest.raises(CurvatureTooLargeError):
        spherical_caps_for_circle(1.0, 1.0 + 1e-6)
    # curvature exactly 1/r: hemisphere pair, both caps equal
    small, large = spherical_caps_for_circle(1.0, 1.0)
    assert small.height == pytest.approx(1.0)
    assert large.height == pytest.approx(1.0)


# (theta, gamma) grid over (0, pi)^2, away from the flat case gamma = theta
_GRID = [(t, g) for t in np.linspace(0.05, math.pi - 0.05, 61)
         for g in np.linspace(0.05, math.pi - 0.05, 61) if abs(g - t) >= 0.05]


def _angle_law_residual(drop, rho):
    """|sigma (rho^2 - z_c d) / (R rho) - cos(gamma)|: the contact angle
    between carrier and substrate, sigma = -1 for the lower piece."""
    d = drop.carrier.center[2]
    sigma = -1.0 if drop.piece == "lower" else 1.0
    return abs(sigma * (rho * rho - drop.contact_height * d)
               / (drop.carrier.radius * rho) - math.cos(drop.gamma))


def test_interior_bulge_drop_relations():
    rho, theta, gamma = 1.0, math.radians(55.0), math.radians(110.0)
    drop = interior_drop_cap(rho, theta, gamma)
    assert drop.piece == "lower"
    assert drop.side == "interior"
    d = drop.carrier.center[2]
    R = drop.carrier.radius
    z_c = drop.contact_height
    # contact circle lies on both spheres
    assert R * R == pytest.approx(rho * rho - 2 * z_c * d + d * d, rel=1e-12)
    # drop bulges below the contact plane and stays inside the ball
    apex = d - R
    assert -rho < apex < z_c
    assert drop.mean_curvature_toward_drop == pytest.approx(1.0 / R)
    assert drop.volume > 0
    assert drop.wetted_area == pytest.approx(
        2 * math.pi * rho * (rho - z_c), rel=1e-12)
    # every gamma > theta is a bulge inside the ball meeting the angle law
    for theta, gamma in _GRID:
        if gamma > theta:
            drop = interior_drop_cap(rho, theta, gamma)
            assert drop.piece == "lower"
            assert -rho < drop.carrier.center[2] - drop.carrier.radius < \
                drop.contact_height
            assert _angle_law_residual(drop, rho) <= 2e-14


def test_interior_meniscus_drop_relations():
    drop = interior_drop_cap(1.0, math.radians(55.0), math.radians(40.0))
    assert drop.piece == "upper"
    d = drop.carrier.center[2]
    R = drop.carrier.radius
    apex = d + R
    assert drop.contact_height < apex < 1.0
    assert drop.mean_curvature_toward_drop == pytest.approx(-1.0 / R)
    # meniscus volume is the wall dome minus the free dome
    assert 0 < drop.volume < cap_volume(1.0, 1.0 - drop.contact_height)
    # every gamma < theta is a meniscus inside the ball meeting the angle law
    for theta, gamma in _GRID:
        if gamma < theta:
            drop = interior_drop_cap(1.0, theta, gamma)
            assert drop.piece == "upper"
            assert drop.contact_height < \
                drop.carrier.center[2] + drop.carrier.radius < 1.0
            assert _angle_law_residual(drop, 1.0) <= 2e-14


def test_interior_drop_measured_contact_angle():
    for gamma_deg in (40.0, 70.0, 110.0):
        gamma = math.radians(gamma_deg)
        drop = interior_drop_cap(1.0, math.radians(55.0), gamma)
        mesh = drop.free_surface_mesh(n_angular=128, n_rings=64)
        rep = contact_angle(mesh, drop.substrate)
        assert rep.side == "interior"
        assert abs(rep.mean - gamma) < math.radians(0.1)
        assert rep.max_deviation < math.radians(0.1)


def test_interior_drop_contact_angle_near_closed():
    # gamma near pi: the free surface is most of a sphere and the boundary
    # circle is comparatively tiny, the hardest case for the boundary fit
    gamma = math.radians(150.0)
    drop = interior_drop_cap(1.0, math.radians(55.0), gamma)
    mesh = drop.free_surface_mesh(n_angular=256, n_rings=128)
    rep = contact_angle(mesh, drop.substrate)
    assert abs(rep.mean - gamma) < math.radians(0.3)


def test_interior_drop_orthogonal_case():
    drop = interior_drop_cap(1.0, math.radians(55.0), math.pi / 2)
    d = drop.carrier.center[2]
    R = drop.carrier.radius
    # orthogonality of the two spheres
    assert d * d == pytest.approx(1.0 + R * R, rel=1e-9)


def test_interior_drop_degenerate_flat():
    with pytest.raises(DegenerateConfigurationError):
        interior_drop_cap(1.0, math.radians(55.0), math.radians(55.0))


def test_interior_drop_rejects_bad_arguments():
    with pytest.raises(ValueError):
        interior_drop_cap(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        interior_drop_cap(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        interior_drop_cap(1.0, 1.0, math.pi)


def test_exterior_drop_relations():
    drop = exterior_drop_cap(1.0, 1.3, 0.7)
    assert drop.side == "exterior"
    z_c = drop.contact_height
    assert z_c == pytest.approx((1.0 + 1.3 ** 2 - 0.7 ** 2) / 2.6)
    # contact circle on the substrate
    assert drop.contact_radius == pytest.approx(math.sqrt(1 - z_c * z_c))
    assert drop.mean_curvature_toward_drop == pytest.approx(1.0 / 0.7)
    assert drop.volume > 0
    mesh = drop.free_surface_mesh(n_angular=128, n_rings=64)
    rep = contact_angle(mesh, drop.substrate)
    assert rep.side == "exterior"
    assert abs(rep.mean - drop.gamma) < math.radians(0.15)


def test_exterior_drop_rejects_disjoint_spheres():
    with pytest.raises(DegenerateConfigurationError):
        exterior_drop_cap(1.0, 5.0, 0.5)
    with pytest.raises(DegenerateConfigurationError):
        exterior_drop_cap(1.0, 0.2, 0.1)


def test_drop_energy_uses_youngs_angle():
    drop = interior_drop_cap(1.0, math.radians(55.0), math.radians(110.0))
    e = drop.energy()
    assert e == pytest.approx(
        drop.free_area - math.cos(drop.gamma) * drop.wetted_area)
    assert drop.energy(math.pi / 2) == pytest.approx(drop.free_area)


def test_contact_angle_flat_disk_against_arccos():
    # disk of radius 0.8 at height 0.6 inside the unit ball, drop above
    s = Sphere((0.0, 0.0, 0.0), 1.0)
    disk = flat_disk(0.8, n_angular=96, n_rings=24, center=(0.0, 0.0, 0.6),
                     normal=(0.0, 0.0, -1.0))
    rep = contact_angle(disk, s)
    assert rep.side == "interior"
    assert rep.mean == pytest.approx(math.acos(0.6), abs=1e-10)
    # flipping the winding means the drop is below the disk instead
    rep2 = contact_angle(disk.flipped(), s)
    assert rep2.mean == pytest.approx(math.pi - math.acos(0.6), abs=1e-10)


def test_contact_angle_rotation_invariant():
    drop = interior_drop_cap(1.0, math.radians(55.0), math.radians(110.0))
    mesh = drop.free_surface_mesh(n_angular=96, n_rings=48)
    rep = contact_angle(mesh, drop.substrate)
    R = rotation_from_axis_angle(np.array([1.0, 0.2, 0.1]), 1.2)
    rep_rot = contact_angle(mesh.transformed(rotation=R), drop.substrate)
    assert rep_rot.mean == pytest.approx(rep.mean, abs=1e-9)


def test_contact_angle_requires_boundary_on_sphere():
    s = Sphere((0.0, 0.0, 0.0), 1.0)
    disk = flat_disk(0.5, n_angular=32, n_rings=4, center=(0.0, 0.0, 0.6))
    with pytest.raises(BoundaryOffSphereError):
        contact_angle(disk, s)


def test_contact_angle_report_loops():
    drop = interior_drop_cap(1.0, math.radians(55.0), math.radians(110.0))
    mesh = drop.free_surface_mesh(n_angular=64, n_rings=32)
    rep = contact_angle(mesh, drop.substrate)
    assert len(rep.loops) == 1
    assert np.mean(rep.loop_angles[0]) == pytest.approx(rep.mean)
    assert len(rep.angles) == len(rep.loops[0])


def test_capillary_params_validation():
    p = CapillaryParams(gamma=math.pi / 3, target_volume=1.0)
    assert p.side == "interior"
    with pytest.raises(ValueError):
        CapillaryParams(gamma=-0.1, target_volume=1.0)
    with pytest.raises(ValueError):
        CapillaryParams(gamma=1.0, side="above", target_volume=1.0)
    with pytest.raises(ValueError):
        CapillaryParams(gamma=1.0)  # no target at all
    with pytest.raises(ValueError):
        CapillaryParams(gamma=1.0, target_volume=1.0, target_curvature=1.0)
    with pytest.raises(ValueError):
        CapillaryParams(gamma=1.0, target_volume=-2.0)
