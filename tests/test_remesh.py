"""Invariants of one remesh cycle, and the edit loop against loop references.

The flip pass keeps vertex valences by bookkeeping and the edge list comes
from a vectorised pass over the faces; both are compared exactly with the
straightforward loops they replace.
"""
import math

import numpy as np
import pytest

import capdrop.remesh
from capdrop.analytic import interior_drop_cap, spherical_caps_for_circle
from capdrop.errors import MeshError
from capdrop.remesh import (_collapse_pass, _EditMesh, _flip_pass,
                            _remesh_with_stats, _split_pass,
                            mean_edge_length, remesh)
from capdrop.shapes import perturb_normal

# the floor the remesh cycle gives its collapse and flip passes
FLOOR = capdrop.remesh.EDIT_QUALITY_FLOOR


@pytest.fixture(scope="module")
def drop():
    return interior_drop_cap(1.0, math.radians(55.0), math.radians(110.0))


@pytest.fixture(scope="module")
def bumpy(drop):
    """The gamma = 110 deg drop, perturbed along its normals; its graded
    rings give edges on both sides of the split and collapse limits."""
    mesh = drop.free_surface_mesh(n_angular=32)
    rng = np.random.default_rng(11)
    return perturb_normal(mesh, 0.3 * mean_edge_length(mesh), rng)


def edited(mesh, target, sphere=None):
    """An _EditMesh after the split and collapse passes, and their counts."""
    em = _EditMesh(mesh)
    n_split = _split_pass(em, 4.0 / 3.0 * target, sphere)
    n_collapse = _collapse_pass(em, 0.8 * target, 4.0 / 3.0 * target, FLOOR,
                                sphere)
    return em, n_split, n_collapse


def dot3(p, q):
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def reference_flip_pass(em, floor):
    """The flip pass with every valence recounted from the face sets."""
    n_flipped = 0
    for u, w in em.undirected_edges().tolist():
        fids = em.edge_faces(u, w)
        if len(fids) != 2:
            continue
        f1, f2 = em.faces[fids[0]], em.faces[fids[1]]
        a = next(x for x in f1 if x not in (u, w))
        b = next(x for x in f2 if x not in (u, w))
        if a == b or b in em.neighbors(a):
            continue
        quad = (u, w, a, b)
        target = [4 if x in em.boundary else 6 for x in quad]
        valence = [len(em.neighbors(x)) for x in quad]
        change = (-1, -1, 1, 1)
        before = sum((v - t) ** 2 for v, t in zip(valence, target))
        after = sum((v + d - t) ** 2
                    for v, d, t in zip(valence, change, target))
        if after >= before:
            continue
        i = f1.index(u)
        if f1[(i + 1) % 3] == w:
            nf1, nf2 = (u, b, a), (w, a, b)
        else:
            nf1, nf2 = (u, a, b), (w, b, a)
        o = [p + q for p, q in zip(em.face_normal(f1), em.face_normal(f2))]
        if em.face_quality(nf1) < floor or em.face_quality(nf2) < floor:
            continue
        if (dot3(em.face_normal(nf1), o) <= 0
                or dot3(em.face_normal(nf2), o) <= 0):
            continue
        em.drop_face(fids[0])
        em.drop_face(fids[1])
        em.add_face(nf1)
        em.add_face(nf2)
        n_flipped += 1
    return n_flipped


def test_free_boundary_stays_on_sphere(drop, bumpy):
    sphere = drop.substrate
    target = mean_edge_length(bumpy)
    em, n_split, n_collapse = edited(bumpy, target, sphere)
    n_flip = _flip_pass(em, FLOOR)
    assert n_split > 0 and n_collapse > 0 and n_flip > 0

    out, ops = _remesh_with_stats(bumpy, target, boundary_sphere=sphere)
    assert out is not bumpy
    assert ops == n_split + n_collapse + n_flip
    assert out.n_vertices != bumpy.n_vertices
    b = out.vertices[out.boundary_vertex_mask]
    r = np.linalg.norm(b - sphere.center, axis=1)
    assert np.abs(r - sphere.radius).max() <= 1e-12 * sphere.radius
    # the winding, and with it the outward side, is kept
    assert np.sign(out.divergence_volume()) == np.sign(bumpy.divergence_volume())

    again, ops_again = _remesh_with_stats(bumpy, target,
                                          boundary_sphere=sphere)
    assert ops_again == ops
    assert np.array_equal(again.vertices, out.vertices)
    assert np.array_equal(again.faces, out.faces)


def test_pinned_boundary_and_volume():
    cap, _ = spherical_caps_for_circle(1.0, 2.0 / 3.0)
    mesh = cap.mesh(n_angular=48)
    mesh = perturb_normal(mesh, 0.2 * mean_edge_length(mesh),
                          np.random.default_rng(2))
    target = mean_edge_length(mesh)
    out, ops = _remesh_with_stats(mesh, target)
    assert ops > 0

    (loop_in,), (loop_out,) = mesh.boundary_loops(), out.boundary_loops()
    pts_in, pts_out = mesh.vertices[loop_in], out.vertices[loop_out]
    assert len(pts_out) == len(pts_in)
    start = np.flatnonzero((pts_out == pts_in[0]).all(axis=1))
    assert len(start) == 1
    assert np.array_equal(np.roll(pts_out, -start[0], axis=0), pts_in)

    # the rim lies in z = 0 through the origin, so the divergence sum is the
    # volume under the cap
    v_in, v_out = mesh.divergence_volume(), out.divergence_volume()
    assert abs(v_out - v_in) < 1e-3 * v_in


def test_flip_pass_matches_recounted_valences(drop, bumpy):
    # a short target splits most edges, which leaves many valences to mend
    target = 0.7 * mean_edge_length(bumpy)
    em, _, _ = edited(bumpy, target, drop.substrate)
    ref, _, _ = edited(bumpy, target, drop.substrate)
    assert ref.faces == em.faces

    n_flip = _flip_pass(em, FLOOR)
    n_ref = reference_flip_pass(ref, FLOOR)
    assert n_flip == n_ref > 0
    assert em.faces == ref.faces
    assert em.alive == ref.alive
    assert em.vfaces == ref.vfaces


def test_undirected_edges_first_appearance_order(drop, bumpy):
    em, _, _ = edited(bumpy, mean_edge_length(bumpy), drop.substrate)
    assert not all(em.alive)

    seen, expected = set(), []
    for f, alive in zip(em.faces, em.alive):
        if not alive:
            continue
        for k in range(3):
            key = tuple(sorted((f[k], f[(k + 1) % 3])))
            if key not in seen:
                seen.add(key)
                expected.append(list(key))
    assert em.undirected_edges().tolist() == expected


def test_failed_compaction_returns_input(monkeypatch, drop, bumpy):
    def reject(vertices, faces):
        raise MeshError("rejected")

    monkeypatch.setattr(capdrop.remesh, "build_mesh", reject)
    target = mean_edge_length(bumpy)
    out, ops = _remesh_with_stats(bumpy, target, boundary_sphere=drop.substrate)
    assert out is bumpy and ops == 0
    assert remesh(bumpy, target, boundary_sphere=drop.substrate) is bumpy
