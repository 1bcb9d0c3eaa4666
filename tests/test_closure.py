import math

import numpy as np
import pytest

from capdrop.analytic import interior_drop_cap
from capdrop.closure import (
    Containment, _loop_patch, close_with_spherical_patch, signed_containment,
)
from capdrop.errors import (
    AlreadyClosedError, BoundaryOffSphereError, LoopsNotInHemisphereError,
    SelfIntersectingPatchError,
)
from capdrop.geometry import open_hemisphere_pole, rotation_between
from capdrop.shapes import flat_disk, icosphere, spherical_cap_mesh


def cap_partition_surfaces(unit_sphere):
    drop = interior_drop_cap(1.0, math.radians(50.0), math.radians(115.0))
    return drop, drop.free_surface_mesh(n_angular=96, n_rings=48)


def test_near_and_far_closures_partition_ball(unit_sphere):
    drop, free = cap_partition_surfaces(unit_sphere)
    near = close_with_spherical_patch(free, unit_sphere, side="near")
    far = close_with_spherical_patch(free, unit_sphere, side="far")
    ball = 4 * math.pi / 3
    assert near.volume + far.volume == pytest.approx(ball, rel=5e-3)
    # patch areas partition the sphere
    assert near.patch_area() + far.patch_area() == pytest.approx(
        4 * math.pi, rel=5e-3)
    assert near.mesh.is_closed and far.mesh.is_closed


def test_drop_closure_matches_analytic_volume(unit_sphere):
    drop, free = cap_partition_surfaces(unit_sphere)
    near = close_with_spherical_patch(free, unit_sphere, side="near")
    region = near
    if region.signed_volume < 0:
        region = close_with_spherical_patch(free, unit_sphere, side="far")
    assert region.signed_volume > 0
    assert region.volume == pytest.approx(drop.volume, rel=5e-3)


def test_closure_patch_face_mask_splits_mesh(unit_sphere):
    drop, free = cap_partition_surfaces(unit_sphere)
    near = close_with_spherical_patch(free, unit_sphere, side="near")
    assert near.patch_face_mask.sum() > 0
    assert (~near.patch_face_mask).sum() == free.n_faces
    # patch faces sit on the substrate sphere
    centers = near.mesh.vertices[near.mesh.faces[near.patch_face_mask]].mean(axis=1)
    assert np.abs(np.linalg.norm(centers, axis=1) - 1.0).max() < 5e-3


def test_closure_rejects_closed_mesh(unit_sphere):
    with pytest.raises(AlreadyClosedError):
        close_with_spherical_patch(icosphere(1), unit_sphere)


def test_closure_rejects_boundary_off_sphere(unit_sphere):
    disk = flat_disk(0.8, n_angular=32, n_rings=4)  # radius 0.8 at z=0
    with pytest.raises(BoundaryOffSphereError):
        close_with_spherical_patch(disk, unit_sphere)


def test_closure_rejects_great_circle_loop(unit_sphere):
    disk = flat_disk(1.0, n_angular=64, n_rings=8)
    with pytest.raises(LoopsNotInHemisphereError):
        close_with_spherical_patch(disk, unit_sphere, side="near")


def test_closure_far_rejects_multiple_loops(unit_sphere, two_loop_band):
    band = two_loop_band
    assert len(band.boundary_loops()) == 2
    near = close_with_spherical_patch(band, unit_sphere, side="near")
    assert near.mesh.is_closed
    with pytest.raises(ValueError):
        close_with_spherical_patch(band, unit_sphere, side="far")


def _cap_faces_where(unit_sphere, keep):
    """Faces of a polar-angle-0.6 cap about +z kept by ``keep(azimuth,
    polar)`` of their centroids."""
    cap = spherical_cap_mesh(unit_sphere, np.array([0.0, 0.0, 1.0]), 0.6,
                             n_angular=64, n_rings=12)
    c = cap.vertices[cap.faces].mean(axis=1)
    azimuth = np.mod(np.arctan2(c[:, 1], c[:, 0]), 2.0 * np.pi)
    polar = np.arccos(np.clip(c[:, 2] / np.linalg.norm(c, axis=1), -1.0, 1.0))
    return cap.submesh(keep(azimuth, polar))


def test_closure_rejects_loop_not_around_the_pole(unit_sphere):
    # a C-shaped band: one loop in an open hemisphere that does not go
    # around its pole
    crescent = _cap_faces_where(
        unit_sphere, lambda az, pol: (az < math.radians(300.0)) & (pol > 0.25))
    assert len(crescent.boundary_loops()) == 1
    with pytest.raises(SelfIntersectingPatchError, match=r"winds -?0\.000 times"):
        close_with_spherical_patch(crescent, unit_sphere, side="near")


def test_closure_rejects_loop_with_backtracking_azimuth(unit_sphere):
    # a notch cut in from the rim: the loop turns once about the pole but
    # runs backward along the notch's sides
    notched = _cap_faces_where(
        unit_sphere, lambda az, pol: ~((az < math.radians(60.0)) & (pol > 0.3)))
    assert len(notched.boundary_loops()) == 1
    with pytest.raises(SelfIntersectingPatchError, match="not monotone"):
        close_with_spherical_patch(notched, unit_sphere, side="near")


@pytest.mark.parametrize("polar_angle", [0.05, 0.2, 0.6])
def test_small_caps_close_about_any_axis(unit_sphere, polar_angle):
    # the patch apex sits at the max-margin pole, inside the loop, so a
    # small cap closes about an axis off the coordinate axes; the patch is
    # the z-axis cap's, rotated
    def close(axis):
        return close_with_spherical_patch(spherical_cap_mesh(
            unit_sphere, np.array(axis), polar_angle, n_angular=32),
            unit_sphere)

    ref = close([0.0, 0.0, 1.0])
    for axis in ([1.0, 1.0, 1.0], [1.0, 2.0, 3.0], [0.3, 0.1, 1.0]):
        region = close(axis)
        assert region.mesh.is_closed
        assert region.mesh.n_vertices == ref.mesh.n_vertices
        assert region.patch_area() == pytest.approx(ref.patch_area(),
                                                    rel=1e-12)


def _loop_patch_reference(loop_pts, sphere, toward_pole, target_edge):
    """``_loop_patch``'s build as a double loop over rings and loop vertices,
    for well-formed loops (no guards)."""
    k = len(loop_pts)
    q = (loop_pts - sphere.center) / sphere.radius
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    pole, _ = open_hemisphere_pole(q)
    if not toward_pole:
        pole = -pole
    rot = rotation_between(pole, np.array([0.0, 0.0, 1.0]))
    local = q @ rot.T
    theta = np.arccos(np.clip(local[:, 2], -1.0, 1.0))
    phi = np.arctan2(local[:, 1], local[:, 0])
    n_rings = max(1, int(np.ceil(float(theta.max()) * sphere.radius
                                 / max(target_edge, 1e-12))))

    def ring_index(r, j):
        if r == n_rings:
            return j % k
        return k + 1 + (n_rings - 1 - r) * k + (j % k)

    new_pts = [sphere.center + sphere.radius * pole]
    for r in range(n_rings - 1, 0, -1):
        th = theta * (r / n_rings)
        pts_local = np.column_stack([
            np.sin(th) * np.cos(phi), np.sin(th) * np.sin(phi), np.cos(th)])
        new_pts.extend((pts_local @ rot) * sphere.radius + sphere.center)
    faces = []
    for j in range(k):
        faces.append([k, ring_index(1, j + 1), ring_index(1, j)])
    for r in range(1, n_rings):
        for j in range(k):
            a0, a1 = ring_index(r, j), ring_index(r, j + 1)
            b0, b1 = ring_index(r + 1, j), ring_index(r + 1, j + 1)
            faces.append([a0, b1, b0])
            faces.append([a0, a1, b1])
    return np.asarray(new_pts), np.asarray(faces, dtype=np.int64)


@pytest.mark.parametrize("target_edge", [10.0, 0.05, 0.013])
@pytest.mark.parametrize("toward_pole", [True, False])
def test_loop_patch_matches_double_loop(unit_sphere, target_edge, toward_pole):
    _, free = cap_partition_surfaces(unit_sphere)
    loop = free.vertices[free.boundary_loops()[0]]
    got = _loop_patch(loop, unit_sphere, toward_pole, target_edge)
    ref = _loop_patch_reference(loop, unit_sphere, toward_pole, target_edge)
    if target_edge == 10.0:
        assert len(got[0]) == 1  # n_rings == 1: the apex only
    else:
        assert len(got[0]) > 10 * len(loop)
    assert np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1], ref[1])


def test_signed_containment_of_no_points(unit_sphere):
    _, free = cap_partition_surfaces(unit_sphere)
    region = close_with_spherical_patch(free, unit_sphere, side="near")
    labels = signed_containment(region, np.zeros((0, 3)))
    assert labels.shape == (0,)


def test_signed_containment_labels(unit_sphere):
    drop, free = cap_partition_surfaces(unit_sphere)
    region = close_with_spherical_patch(free, unit_sphere, side="near")
    if region.signed_volume < 0:
        region = close_with_spherical_patch(free, unit_sphere, side="far")
    apex = drop.carrier.center + drop.carrier.radius * np.array([0, 0, -1.0])
    inside = 0.5 * (apex + np.array([0.0, 0.0, drop.contact_height]))
    below = np.array([0.0, 0.0, 0.5 * (apex[2] - 1.0)])
    pts = np.array([
        inside,
        below,                      # inside ball, below the drop
        [2.0, 0.0, 0.0],            # outside everything
        apex,                       # on the free surface
    ])
    labels = signed_containment(region, pts)
    assert labels[0] == Containment.INSIDE
    assert labels[1] == Containment.OUTSIDE
    assert labels[2] == Containment.OUTSIDE
    assert labels[3] == Containment.ON_BOUNDARY


def test_signed_containment_winding_independent():
    m = icosphere(2)
    pts = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    a = signed_containment(m, pts)
    b = signed_containment(m.flipped(), pts)
    assert np.array_equal(a, b)
    assert a[0] == Containment.INSIDE and a[1] == Containment.OUTSIDE
