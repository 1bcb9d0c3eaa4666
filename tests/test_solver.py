import json
import math

import numpy as np
import pytest

from capdrop import solver
from capdrop.analytic import (CapillaryParams, contact_angle,
                              interior_drop_cap)
from capdrop.errors import SelfIntersectingPatchError, SolverError
from capdrop.geometry import Sphere
from capdrop.shapes import flat_disk
from capdrop.wetting import make_wetting_operator


@pytest.mark.parametrize("gamma_deg, volume", [(110.0, 0.3), (40.0, 0.1)])
def test_exterior_default_init_meets_gamma_and_volume(unit_sphere, gamma_deg,
                                                      volume):
    params = CapillaryParams(gamma=math.radians(gamma_deg), side="exterior",
                             target_volume=volume)
    mesh = solver._default_capillary_init(unit_sphere, params)
    rep = contact_angle(mesh, unit_sphere, side="exterior")
    assert abs(rep.mean - params.gamma) < math.radians(0.15)
    # the init is the closed-form drop meshed at 96 angular samples; its mesh
    # volume carries that discretisation error (3.0e-3 relative at 40 deg)
    op = make_wetting_operator(mesh, unit_sphere)
    vol = mesh.divergence_volume() + op.volume_term(mesh.vertices)
    assert vol == pytest.approx(volume, rel=1e-2)


def test_exterior_default_init_from_curvature(unit_sphere):
    params = CapillaryParams(gamma=math.radians(110.0), side="exterior",
                             target_curvature=1.5)
    mesh = solver._default_capillary_init(unit_sphere, params)
    rep = contact_angle(mesh, unit_sphere, side="exterior")
    assert abs(rep.mean - params.gamma) < math.radians(0.15)


def test_exterior_drop_at_rejects_unreachable_gamma():
    with pytest.raises(solver.DegenerateConfigurationError):
        solver._exterior_drop_at(1.0, math.radians(80.0), math.radians(110.0))


OFF_CENTRE = Sphere((0.0, 0.0, 0.5), 1.0)


def test_solve_capillary_rejects_off_centre_substrate(monkeypatch):
    def no_init(*args, **kwargs):
        raise AssertionError("a mesh was built before the substrate check")

    monkeypatch.setattr(solver, "_default_capillary_init", no_init)
    params = CapillaryParams(gamma=math.radians(70.0), target_volume=0.3)
    with pytest.raises(ValueError, match="origin-centered substrate"):
        solver.solve_capillary(OFF_CENTRE, params)


def test_solve_height_curvature_rejects_off_centre_substrate(monkeypatch):
    def no_init(*args, **kwargs):
        raise AssertionError("a mesh was built before the substrate check")

    monkeypatch.setattr(solver, "_default_capillary_init", no_init)
    params = CapillaryParams(gamma=math.radians(70.0), kappa=0.5,
                             target_volume=0.3)
    with pytest.raises(ValueError, match="origin-centered substrate"):
        solver.solve_prescribed_height_curvature(OFF_CENTRE, params)


def test_rising_energy_raises_solver_error(monkeypatch):
    energies = iter(range(10))

    def rising_step(mesh, config, state):
        return mesh, {"step": 1.0, "energy": float(next(energies)),
                      "gradNorm": math.inf}

    monkeypatch.setattr(solver, "flow_step", rising_step)
    disk = flat_disk(1.0, n_angular=16, n_rings=4)
    boundary = disk.vertices[disk.boundary_vertex_mask]
    cfg = solver.SolveConfig(mode="dirichlet_cmc", max_iterations=5,
                             remesh_every=0)
    with pytest.raises(SolverError, match="energy increased"):
        solver.solve_dirichlet_cmc(boundary, disk, cfg, target_volume=0.1)


def test_restore_keeps_free_boundary_on_sphere(unit_sphere):
    # the restore's Newton moves slide the boundary along substrate tangents;
    # a large first correction (the gamma = 70 deg drop pushed to 20 deg)
    # once left it 1.2e-6 off the sphere, past contact_angle's 1e-6
    init = solver._default_capillary_init(
        unit_sphere, CapillaryParams(gamma=math.radians(70.0),
                                     target_volume=0.3))
    params = CapillaryParams(gamma=math.radians(20.0), target_volume=0.3)
    cfg = solver.SolveConfig(mode="capillary", params=params,
                             substrate=unit_sphere, max_iterations=3,
                             remesh_every=0)
    mesh, report = solver.solve_capillary(unit_sphere, params, init, cfg)
    b = mesh.vertices[mesh.boundary_vertex_mask]
    assert np.abs(np.linalg.norm(b, axis=1) - 1.0).max() <= 1e-12
    assert report.iterations == 3


def test_missed_curvature_target_is_not_converged():
    # the flat disk is critical at every volume the tuner tries from zero,
    # so the multiplier stays at 0 and never reaches the target 2/3
    disk = flat_disk(1.0, n_angular=112, n_rings=18)
    boundary = disk.vertices[disk.boundary_vertex_mask]
    _, report = solver.solve_dirichlet_cmc(boundary, disk,
                                           target_mean_curvature=2.0 / 3.0)
    assert not report.converged
    assert "missed curvature target 0.666667" in report.message


class _InitBuilt(Exception):
    pass


FREE_BOUNDARY_SOLVERS = [
    ("capillary", solver.solve_capillary),
    ("prescribed_height_curvature", solver.solve_prescribed_height_curvature),
]


@pytest.mark.parametrize("mode, solve", FREE_BOUNDARY_SOLVERS,
                         ids=[mode for mode, _ in FREE_BOUNDARY_SOLVERS])
def test_config_must_agree_with_arguments(monkeypatch, unit_sphere, mode,
                                          solve):
    def init_built(*args, **kwargs):
        raise _InitBuilt

    monkeypatch.setattr(solver, "_default_capillary_init", init_built)
    params = CapillaryParams(gamma=math.radians(70.0), kappa=0.5,
                             target_volume=0.3)
    other = CapillaryParams(gamma=math.radians(70.0), kappa=0.5,
                            target_volume=0.4)

    def config(p, s):
        return solver.SolveConfig(mode=mode, params=p, substrate=s)

    with pytest.raises(ValueError, match="config.params differs"):
        solve(unit_sphere, params, config=config(other, unit_sphere))
    with pytest.raises(ValueError, match="config.substrate differs"):
        solve(unit_sphere, params,
              config=config(params, Sphere((0.0, 0.0, 0.0), 2.0)))
    # an equal sphere that is another object agrees
    with pytest.raises(_InitBuilt):
        solve(unit_sphere, params,
              config=config(params, Sphere(np.zeros(3), 1.0)))


def _mesh_volume(mesh, sphere):
    op = make_wetting_operator(mesh, sphere, side="interior")
    return mesh.divergence_volume() + op.volume_term(mesh.vertices)


def _diagnostics(path):
    lines = path.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert all({"iteration", "energy", "volume", "gradNorm"} <= r.keys()
               for r in records)
    return records


def test_dirichlet_entry_point(tmp_path):
    disk = flat_disk(1.0, n_angular=24, n_rings=4)
    boundary = disk.vertices[disk.boundary_vertex_mask]
    path = tmp_path / "dirichlet.jsonl"
    cfg = solver.SolveConfig(mode="dirichlet_cmc", max_iterations=40,
                             remesh_every=10, diagnostics_path=str(path))
    mesh, report = solver.solve_dirichlet_cmc(boundary, disk, cfg,
                                              target_volume=0.3)
    assert mesh.divergence_volume() == pytest.approx(0.3, rel=1e-10)
    # the pinned loop comes back bit for bit, whatever the remesh did inside
    out = mesh.vertices[mesh.boundary_vertex_mask]
    assert np.array_equal(np.unique(out, axis=0), np.unique(boundary, axis=0))
    assert len(_diagnostics(path)) == report.iterations > 0


@pytest.mark.parametrize("mode, solve", FREE_BOUNDARY_SOLVERS,
                         ids=[mode for mode, _ in FREE_BOUNDARY_SOLVERS])
def test_free_boundary_entry_points(tmp_path, mode, solve):
    sphere = Sphere((0.0, 0.0, 0.0), 1.3)
    drop = interior_drop_cap(sphere.radius, math.radians(55.0),
                             math.radians(70.0))
    init = drop.free_surface_mesh(16)
    kappa = 0.5 if mode == "prescribed_height_curvature" else 0.0
    params = CapillaryParams(gamma=math.radians(60.0), kappa=kappa,
                             target_volume=drop.volume)
    path = tmp_path / f"{mode}.jsonl"
    cfg = solver.SolveConfig(mode=mode, params=params, substrate=sphere,
                             max_iterations=40, remesh_every=10,
                             diagnostics_path=str(path))
    mesh, report = solve(sphere, params, init, cfg)
    assert _mesh_volume(mesh, sphere) == pytest.approx(drop.volume, rel=1e-10)
    b = mesh.vertices[mesh.boundary_vertex_mask]
    assert (np.abs(np.linalg.norm(b, axis=1) - sphere.radius).max()
            <= 1e-12 * sphere.radius)
    assert len(_diagnostics(path)) == report.iterations > 0


def test_height_law_energy_gradients_fd(rng):
    """The face pass with every wetting term on (gamma, kappa and the patch
    volume) against four-point central differences."""
    sphere = Sphere((0.0, 0.0, 0.0), 1.3)
    drop = interior_drop_cap(sphere.radius, math.radians(55.0),
                             math.radians(70.0))
    mesh = drop.free_surface_mesh(16)
    params = CapillaryParams(gamma=math.radians(60.0), kappa=0.5,
                             target_volume=drop.volume)
    cfg = solver.SolveConfig(mode="prescribed_height_curvature",
                             params=params, substrate=sphere)
    state = solver.init_flow_state(mesh, cfg)
    p = solver._at(mesh, state, c=True, g=True)
    eps = 1e-4
    for _ in range(4):
        d = rng.normal(size=mesh.vertices.shape)

        def at(t):
            q = solver._at(mesh.with_vertices(mesh.vertices + t * d), state,
                           energy=True, volume=True)
            return np.array([q.energy, q.volume])

        fd = (8.0 * (at(eps) - at(-eps)) - (at(2 * eps) - at(-2 * eps))) / (12 * eps)
        an = np.array([np.sum(p.g * d), np.sum(p.c * d)])
        assert np.all(np.abs(fd - an) <= 5e-7 * np.maximum(np.abs(fd), np.abs(an)))


def _same_result(a, b):
    return (np.array_equal(a[0].vertices, b[0].vertices)
            and repr(a[1]) == repr(b[1]))


def test_init_mesh_values_are_not_shared_between_solves(unit_sphere):
    # the flow caches its values on every mesh it evaluates, the caller's
    # init included; a second solve with another gamma must not read them
    drop = interior_drop_cap(1.0, math.radians(55.0), math.radians(70.0))
    init = drop.free_surface_mesh(16)

    def config(gamma_deg):
        params = CapillaryParams(gamma=math.radians(gamma_deg),
                                 target_volume=drop.volume)
        return params, solver.SolveConfig(mode="capillary", params=params,
                                          substrate=unit_sphere,
                                          max_iterations=20, remesh_every=10)

    def step(mesh, gamma_deg):
        _, cfg = config(gamma_deg)
        return solver.flow_step(mesh, cfg, solver.init_flow_state(mesh, cfg))

    def solve(mesh, gamma_deg):
        params, cfg = config(gamma_deg)
        return solver.solve_capillary(unit_sphere, params, mesh, cfg)

    for run in (step, solve):
        shared = [run(init, gamma) for gamma in (60.0, 80.0)]
        fresh = [run(init.copy(), gamma) for gamma in (60.0, 80.0)]
        assert not _same_result(shared[0], shared[1])
        assert all(_same_result(s, f) for s, f in zip(shared, fresh))


# the 67-vertex gamma = 70 deg drop of the two tests below
def _small_drop():
    drop = interior_drop_cap(1.0, math.radians(55.0), math.radians(70.0))
    return drop, drop.free_surface_mesh(24)


def test_height_law_stop_and_report_agree(unit_sphere):
    # the early "measured" stop once judged the law about the mean of the
    # pointwise ratio and the report about the multiplier: this solve
    # stopped at step 20 and reported converged=False
    drop, init = _small_drop()
    params = CapillaryParams(gamma=math.radians(70.0), kappa=0.5,
                             target_volume=drop.volume)
    cfg = solver.SolveConfig(mode="prescribed_height_curvature",
                             params=params, substrate=unit_sphere,
                             max_iterations=120, remesh_every=10)
    _, report = solver.solve_prescribed_height_curvature(unit_sphere, params,
                                                         init, cfg)
    assert report.message == "measured"
    assert report.converged
    assert report.iterations < 120


def test_remesh_with_unwettable_boundary_is_rejected(unit_sphere):
    # a remesh of this solve leaves boundary loops whose closure would
    # self-intersect; the rebuild of the wetting operator once raised
    # SelfIntersectingPatchError out of the solve
    _, init = _small_drop()
    params = CapillaryParams(gamma=math.radians(70.0), target_curvature=0.4)
    cfg = solver.SolveConfig(mode="capillary", params=params,
                             substrate=unit_sphere, max_iterations=120,
                             remesh_every=10)
    mesh, report = solver.solve_capillary(unit_sphere, params, init, cfg)
    assert isinstance(report, solver.SolveReport)
    b = mesh.vertices[mesh.boundary_vertex_mask]
    assert np.abs(np.linalg.norm(b, axis=1) - 1.0).max() <= 1e-12


def test_failed_wetting_rebuild_keeps_the_old_mesh(monkeypatch, unit_sphere):
    drop, init = _small_drop()
    params = CapillaryParams(gamma=math.radians(70.0),
                             target_volume=drop.volume)
    cfg = solver.SolveConfig(mode="capillary", params=params,
                             substrate=unit_sphere)
    state = solver.init_flow_state(init, cfg)
    mesh, _ = solver.flow_step(init, cfg, state)
    kept = (state.operator, state.pinned, state._precond)
    assert kept[2] is not None

    rebuilds = []

    def unwettable(*args, **kwargs):
        rebuilds.append(args)
        raise SelfIntersectingPatchError("loop azimuths are not monotone")

    monkeypatch.setattr(solver, "make_wetting_operator", unwettable)
    # a cycle at half the edge length is sure to edit the mesh
    state.target_edge *= 0.5
    state.needs_remesh = True
    out, state = solver._do_remesh(mesh, cfg, state)
    assert len(rebuilds) == 1
    assert out is mesh
    assert all(now is then for now, then in
               zip((state.operator, state.pinned, state._precond), kept))
    assert not state.needs_remesh and state.disp_since_remesh == 0.0
