import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from capdrop import solver
from capdrop.analytic import (CapillaryParams, exterior_drop_cap,
                              interior_drop_cap)
from capdrop.closure import close_with_spherical_patch
from capdrop.errors import GeometryError, WettingCalibrationError
from capdrop.geometry import Sphere, rotation_from_axis_angle
from capdrop.shapes import flat_disk
from capdrop.wetting import (
    make_wetting_operator, surface_volume_gradient, surface_z_moment,
    surface_z_moment_gradient,
)


def fd_directional(mesh, f, grad, rng, eps=1e-4, n=4):
    """Worst relative error of grad against four-point central differences.

    The stencil (8[f(e) - f(-e)] - [f(2e) - f(-2e)]) / 12e has O(e^4)
    truncation error and is exact up to round-off on cubics such as the
    divergence volume; the two-point stencil's e^2/6 f''' error alone can
    exceed the 5e-7 bound there.
    """
    g = grad()
    worst = 0.0
    for _ in range(n):
        d = rng.normal(size=mesh.vertices.shape)
        bnd = mesh.boundary_vertex_mask
        p = mesh.vertices[bnd]
        r = p / np.linalg.norm(p, axis=1, keepdims=True)
        d[bnd] -= r * np.sum(d[bnd] * r, axis=1, keepdims=True)
        v0 = mesh.vertices.copy()

        def at(t):
            mesh.vertices[:] = v0 + t * d
            return f()

        fd = (8.0 * (at(eps) - at(-eps)) - (at(2 * eps) - at(-2 * eps))) / (12 * eps)
        mesh.vertices[:] = v0
        an = float(np.sum(g * d))
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-9))
    return worst


@pytest.fixture(scope="module")
def bulge():
    drop = interior_drop_cap(1.0, math.radians(55.0), math.radians(110.0))
    mesh = drop.free_surface_mesh(n_angular=96, n_rings=48)
    op = make_wetting_operator(mesh, drop.substrate)
    return drop, mesh, op


def test_interior_orientation_and_area(bulge):
    drop, mesh, op = bulge
    assert op.side_sign == 1.0
    assert op.side == "interior"
    assert op.area(mesh.vertices) == pytest.approx(drop.wetted_area, rel=2e-3)


def test_interior_volume_from_flux(bulge):
    drop, mesh, op = bulge
    vol = mesh.divergence_volume() + op.volume_term(mesh.vertices)
    assert vol == pytest.approx(drop.volume, rel=3e-3)


def test_dimple_volume_from_flux():
    drop = interior_drop_cap(1.0, math.radians(55.0), math.radians(40.0))
    mesh = drop.free_surface_mesh(n_angular=96, n_rings=48)
    op = make_wetting_operator(mesh, drop.substrate)
    vol = mesh.divergence_volume() + op.volume_term(mesh.vertices)
    assert vol == pytest.approx(drop.volume, rel=3e-3)


def test_exterior_orientation_and_volume():
    drop = exterior_drop_cap(1.0, 1.3, 0.7)
    mesh = drop.free_surface_mesh(n_angular=96, n_rings=48)
    op = make_wetting_operator(mesh, drop.substrate)
    assert op.side_sign == -1.0
    assert op.side == "exterior"
    assert op.area(mesh.vertices) == pytest.approx(drop.wetted_area, rel=2e-3)
    vol = mesh.divergence_volume() + op.volume_term(mesh.vertices)
    assert vol == pytest.approx(drop.volume, rel=3e-3)


@pytest.mark.parametrize("theta", [1.6, 1.8, 2.0])
def test_exterior_drop_past_the_equator(unit_sphere, theta):
    # the closure of the near patch holds drop and ball together, also with
    # positive volume; the cross-check once compared the line integral with
    # that complementary patch and refused every theta >= 1.6
    drop = solver._exterior_drop_at(1.0, theta, 0.6)
    mesh = drop.free_surface_mesh(n_angular=48)
    op = make_wetting_operator(mesh, unit_sphere)
    assert op.area(mesh.vertices) == pytest.approx(drop.wetted_area, rel=1e-2)
    params = CapillaryParams(gamma=drop.gamma, side="exterior",
                             target_volume=drop.volume)
    cfg = solver.SolveConfig(mode="capillary", params=params,
                             substrate=unit_sphere, max_iterations=5)
    _, report = solver.solve_capillary(unit_sphere, params, mesh, cfg)
    assert report.iterations == 5


def test_wetted_area_turns_with_the_drop(unit_sphere):
    # the loop's max-margin pole turns with the loop, so the line-integral
    # area is the same up to round-off in any frame; an LP vertex pole once
    # moved it by 7.2e-6 relative on the exterior drop
    drops = [interior_drop_cap(1.0, math.radians(55.0), math.radians(g))
             for g in (40.0, 110.0)] + [exterior_drop_cap(1.0, 1.2, 0.6)]
    for drop in drops:
        mesh = drop.free_surface_mesh(n_angular=48)
        upright = make_wetting_operator(mesh, unit_sphere).area(mesh.vertices)
        for axis in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 1.0),
                     (0.3, 0.1, 1.0)):
            turned = mesh.transformed(
                rotation=rotation_from_axis_angle(np.array(axis), 0.9))
            area = make_wetting_operator(turned, unit_sphere).area(
                turned.vertices)
            assert area == pytest.approx(upright, rel=1e-12)
    # a wide meniscus whose turned loop once calibrated against the wrong
    # patch (line-integral area 1.76 against 12.0)
    drop = interior_drop_cap(1.0, 2.75, 1.28)
    turned = drop.free_surface_mesh(32).transformed(
        rotation=rotation_from_axis_angle(np.array((0.3, 0.1, 1.0)), 1.5))
    op = make_wetting_operator(turned, unit_sphere)
    assert op.area(turned.vertices) == pytest.approx(drop.wetted_area,
                                                     rel=1e-2)


@settings(max_examples=40, deadline=None)
@given(side=st.sampled_from(["interior", "exterior"]),
       rho=st.floats(0.5, 2.0), theta=st.floats(0.2, 2.9),
       gamma=st.floats(0.2, 2.9),
       axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
       angle=st.floats(-math.pi, math.pi))
# a symmetric loop on which scipy's nnls missed the max-margin pole
@example(side="exterior", rho=1.0, theta=1.0 / 3.0, gamma=0.5,
         axis=(0.0, 0.0, 1.0), angle=0.0)
def test_wetting_operator_calibrates_in_any_frame(side, rho, theta, gamma,
                                                  axis, angle):
    if side == "interior":
        assume(abs(gamma - theta) >= 0.1)
        drop = interior_drop_cap(rho, theta, gamma)
    else:
        assume(gamma <= math.pi - theta - 0.1)
        drop = solver._exterior_drop_at(rho, theta, gamma)
    assume(np.linalg.norm(axis) >= 0.1)
    mesh = drop.free_surface_mesh(n_angular=32)
    turned = mesh.transformed(
        rotation=rotation_from_axis_angle(np.array(axis), angle))
    areas = [make_wetting_operator(m, drop.substrate).area(m.vertices)
             for m in (mesh, turned)]
    assert areas[1] == pytest.approx(areas[0], rel=1e-12)
    for area in areas:
        assert area == pytest.approx(drop.wetted_area, rel=1e-2)


def test_equatorial_disk_hemisphere_patch(unit_sphere):
    # great-circle boundary: no meshed closure exists, so this exercises the
    # winding-only calibration path
    disk = flat_disk(1.0, n_angular=128, n_rings=64, normal=(0.0, 0.0, -1.0))
    op = make_wetting_operator(disk, unit_sphere)
    assert op.area(disk.vertices) == pytest.approx(2 * math.pi, rel=2e-3)
    vol = disk.divergence_volume() + op.volume_term(disk.vertices)
    assert vol == pytest.approx(2 * math.pi / 3, rel=2e-3)
    assert op.pole[2] > 0.0


def test_equatorial_disk_flipped_drop(unit_sphere):
    disk = flat_disk(1.0, n_angular=128, n_rings=64, normal=(0.0, 0.0, 1.0))
    op = make_wetting_operator(disk, unit_sphere)
    vol = disk.divergence_volume() + op.volume_term(disk.vertices)
    assert vol == pytest.approx(2 * math.pi / 3, rel=2e-3)
    assert op.pole[2] < 0.0


def test_flipped_winding_selects_complement(unit_sphere):
    # the winding defines the drop: flipping it makes the complementary
    # region inside the ball the drop, wetting the far patch
    drop = interior_drop_cap(1.0, math.radians(55.0), math.radians(110.0))
    mesh = drop.free_surface_mesh(n_angular=96, n_rings=48).flipped()
    op = make_wetting_operator(mesh, unit_sphere)
    assert op.area(mesh.vertices) == pytest.approx(
        4 * math.pi - drop.wetted_area, rel=2e-3)
    vol = mesh.divergence_volume() + op.volume_term(mesh.vertices)
    assert vol == pytest.approx(4 * math.pi / 3 - drop.volume, rel=3e-3)


def test_side_mismatch_detected(unit_sphere):
    # declaring the wrong side flips the expected circulation orientation,
    # so no pole yields a positive patch area
    drop = interior_drop_cap(1.0, math.radians(55.0), math.radians(110.0))
    mesh = drop.free_surface_mesh(n_angular=48, n_rings=24)
    with pytest.raises(ValueError):
        make_wetting_operator(mesh, unit_sphere, side="exterior")


def test_offcenter_substrate_rejected():
    drop = interior_drop_cap(1.0, math.radians(55.0), math.radians(110.0))
    mesh = drop.free_surface_mesh(n_angular=48, n_rings=24)
    with pytest.raises(ValueError):
        make_wetting_operator(mesh, Sphere((0.5, 0.0, 0.0), 1.0))


def test_area_quadrature_second_order(unit_sphere):
    errs = []
    for n in (32, 64, 128):
        drop = interior_drop_cap(1.0, math.radians(55.0), math.radians(110.0))
        mesh = drop.free_surface_mesh(n_angular=n, n_rings=16)
        op = make_wetting_operator(mesh, drop.substrate)
        errs.append(abs(op.area(mesh.vertices) - drop.wetted_area))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)


def test_z_moment_matches_meshed_closure(bulge):
    drop, mesh, op = bulge
    region = close_with_spherical_patch(mesh, drop.substrate, side="near")
    assert region.signed_volume > 0
    m_ref = surface_z_moment(region.mesh.vertices, region.mesh.faces)
    m_op = surface_z_moment(mesh.vertices, mesh.faces) + op.z_moment_term(
        mesh.vertices)
    assert m_op == pytest.approx(m_ref, rel=2e-3)


def test_z_moment_of_ball_centered_at_height():
    # closed surface: moment is volume * centroid height
    from capdrop.shapes import icosphere
    m = icosphere(3, radius=0.4, center=(0.0, 0.0, 0.55))
    vol = m.enclosed_volume()
    mz = surface_z_moment(m.vertices, m.faces)
    assert mz == pytest.approx(vol * 0.55, rel=1e-6)


@pytest.fixture(scope="module", params=["upright", "tilted"])
def bulge_in_frame(request, bulge):
    """The bulge, and the bulge turned off +z, whose area circulation runs
    in a rotated pole frame."""
    drop, mesh, op = bulge
    if request.param == "upright":
        return drop, mesh, op
    turned = mesh.transformed(rotation=rotation_from_axis_angle(
        np.array((1.0, 0.4, 0.0)), 0.7))
    op = make_wetting_operator(turned, drop.substrate)
    assert op.rot is not None
    return drop, turned, op


def test_area_gradient_fd(bulge_in_frame, rng):
    drop, mesh, op = bulge_in_frame
    w = fd_directional(mesh, lambda: op.area(mesh.vertices),
                       lambda: op.area_gradient(mesh.vertices), rng)
    assert w < 5e-7


def test_z_moment_term_gradient_fd(bulge_in_frame, rng):
    drop, mesh, op = bulge_in_frame
    w = fd_directional(mesh, lambda: op.z_moment_term(mesh.vertices),
                       lambda: op.z_moment_term_gradient(mesh.vertices), rng)
    assert w < 5e-7


def test_surface_volume_gradient_fd(bulge, rng):
    drop, mesh, op = bulge
    w = fd_directional(mesh, mesh.divergence_volume,
                       lambda: surface_volume_gradient(mesh), rng)
    assert w < 5e-7


def test_surface_z_moment_gradient_fd(bulge, rng):
    drop, mesh, op = bulge
    w = fd_directional(
        mesh, lambda: surface_z_moment(mesh.vertices, mesh.faces),
        lambda: surface_z_moment_gradient(mesh), rng)
    assert w < 5e-7


def test_calibration_failure_has_its_own_type(unit_sphere):
    # the input of test_side_mismatch_detected; the type is both a
    # GeometryError, which the solver's remesh catches, and a ValueError
    drop = interior_drop_cap(1.0, math.radians(55.0), math.radians(110.0))
    mesh = drop.free_surface_mesh(n_angular=48, n_rings=24)
    with pytest.raises(WettingCalibrationError) as info:
        make_wetting_operator(mesh, unit_sphere, side="exterior")
    assert isinstance(info.value, GeometryError)
    assert isinstance(info.value, ValueError)


def test_a_loop_off_the_substrate_fails_the_winding_test(unit_sphere):
    # the faces' solid angle at the centre hardly moves when the contact
    # loop is pulled in to 0.9 rho, but the circulation does: the drop and
    # its patch then wind -0.034 times about the centre, against a
    # tolerance of 0.0105
    drop = interior_drop_cap(1.0, math.radians(55.0), math.radians(110.0))
    mesh = drop.free_surface_mesh(n_angular=48, n_rings=24)
    v = mesh.vertices.copy()
    v[mesh.boundary_vertex_mask] *= 0.9
    with pytest.raises(WettingCalibrationError, match="not a whole number"):
        make_wetting_operator(mesh.with_vertices(v), unit_sphere)


def test_an_inside_out_drop_fails_the_volume_test(unit_sphere):
    # the gamma = 150 deg drop reflected through its contact plane keeps its
    # winding, so it bounds the region with the patch inside out
    drop = interior_drop_cap(1.0, math.radians(55.0), math.radians(150.0))
    mesh = drop.free_surface_mesh(n_angular=48, n_rings=24)
    inner = ~mesh.boundary_vertex_mask
    z0 = mesh.vertices[~inner, 2].mean()
    v = mesh.vertices.copy()
    v[inner, 2] = 2.0 * z0 - v[inner, 2]
    with pytest.raises(WettingCalibrationError, match="volume .* is negative"):
        make_wetting_operator(mesh.with_vertices(v), unit_sphere,
                              side="interior")
