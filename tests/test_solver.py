import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from capdrop import solver
from capdrop.analytic import (CapillaryParams, contact_angle,
                              interior_drop_cap, spherical_caps_for_circle)
from capdrop.curvature import jet_mean_curvature
from capdrop.errors import (GeometryError, MeshDegeneracyError,
                            SelfIntersectingPatchError, SideViolationError,
                            SolverError, StepCollapseError)
from capdrop.geometry import Sphere
from capdrop.remesh import mean_edge_length
from capdrop.shapes import flat_disk, perturb_normal
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


def test_exterior_drop_at_round_trips_gamma_and_theta():
    # the carrier from the law of sines, read back through exterior_drop_cap
    for rho in (0.5, 1.0, 2.0):
        for theta in np.linspace(0.2, 2.9, 28):
            for gamma in np.linspace(0.2, 2.9, 28):
                if gamma > math.pi - theta - 0.1:
                    continue
                drop = solver._exterior_drop_at(rho, theta, gamma)
                assert abs(drop.gamma - gamma) <= 1e-13
                assert abs(drop.contact_polar_angle - theta) <= 1e-13


@pytest.mark.parametrize("gamma_deg", [40.0, 70.0, 110.0])
@pytest.mark.parametrize("target", [1.5, -1.5])
def test_default_init_from_curvature_keeps_its_sign(unit_sphere, gamma_deg,
                                                     target):
    # a positive target is a bulge, a negative one a meniscus; matching only
    # |H| once gave gamma = 40 deg, +1.5 a meniscus and 110 deg, -1.5 a bulge
    params = CapillaryParams(gamma=math.radians(gamma_deg),
                             target_curvature=target)
    mesh = solver._default_capillary_init(unit_sphere, params)
    # jet_fit's H is negative on a convex surface wound outward
    h = -np.median(jet_mean_curvature(mesh)[~mesh.boundary_vertex_mask])
    assert h == pytest.approx(target, rel=0.02)
    rep = contact_angle(mesh, unit_sphere, side="interior")
    assert abs(rep.mean - params.gamma) < math.radians(0.15)


@pytest.mark.parametrize("target", [0.0, -1.5])
def test_default_exterior_init_rejects_nonpositive_curvature(unit_sphere,
                                                             target):
    # every exterior cap drop has H = 1/R > 0
    params = CapillaryParams(gamma=math.radians(110.0), side="exterior",
                             target_curvature=target)
    with pytest.raises(solver.DegenerateConfigurationError):
        solver._default_capillary_init(unit_sphere, params)


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


def _measure_passes(monkeypatch, passed):
    """Make every measurement pass, or fail so that no solve stops
    "measured"."""
    measure = solver._measure
    monkeypatch.setattr(solver, "_measure", lambda mesh, state: {
        **measure(mesh, state), "pass": passed})


def test_rising_energy_raises_solver_error(monkeypatch):
    energies = iter(range(10))

    def rising_step(mesh, state):
        state.iteration += 1
        return mesh, {"step": 1.0, "energy": float(next(energies)),
                      "gradNorm": math.inf}

    monkeypatch.setattr(solver, "flow_step", rising_step)
    _measure_passes(monkeypatch, False)
    disk = flat_disk(1.0, n_angular=16, n_rings=4)
    boundary = disk.vertices[disk.boundary_vertex_mask]
    cfg = solver.SolveConfig(mode="dirichlet_cmc", max_iterations=5)
    with pytest.raises(SolverError, match="energy increased"):
        solver.solve_dirichlet_cmc(boundary, disk, cfg, target_volume=0.1)


def test_a_restore_past_the_substrate_is_not_feasible(unit_sphere):
    # one interior vertex of the small drop pushed out of the ball: the
    # restore meets the volume, but the position crosses the substrate, so
    # no line-search trial, remesh or entry may take it
    drop, init = _small_drop()
    params = CapillaryParams(gamma=drop.gamma, target_volume=drop.volume)
    state = solver.init_flow_state(init, solver.SolveConfig(
        mode="capillary", params=params, substrate=unit_sphere))
    out, ok = solver._restore_volume(init, state)
    assert ok and out is init
    x = init.vertices.copy()
    k = np.flatnonzero(~init.boundary_vertex_mask)[0]
    x[k] *= 1.05 / np.linalg.norm(x[k])
    out, ok = solver._restore_volume(init.with_vertices(x), state)
    assert solver._at(out, state).volume == pytest.approx(
        state.volume_target, rel=1e-12)
    assert np.linalg.norm(out.vertices[k]) > 1.0 + 1e-3
    assert not ok


def _volume_never_met(mesh, state, *args, **kwargs):
    return mesh, False


def test_line_search_without_a_restored_trial_collapses(monkeypatch, rng):
    # the flat disk is critical; a bumped one is not, so the step searches
    disk = perturb_normal(flat_disk(1.0, n_angular=16, n_rings=4), 0.05, rng)
    cfg = solver.SolveConfig(mode="dirichlet_cmc")
    state = solver.init_flow_state(disk, cfg)
    monkeypatch.setattr(solver, "_restore_volume", _volume_never_met)
    with pytest.raises(StepCollapseError, match="line search failed"):
        solver.flow_step(disk, state)


def test_a_critical_point_is_a_fixed_point(monkeypatch, rng):
    # under the stopping threshold the step returns its own mesh, unmoved,
    # and still counts itself
    monkeypatch.setattr(solver, "GRAD_TOL_FACTOR", 1e3)
    disk = perturb_normal(flat_disk(1.0, n_angular=16, n_rings=4), 0.05, rng)
    state = solver.init_flow_state(disk, solver.SolveConfig(mode="dirichlet_cmc"))
    state.iteration = 7
    out, diag = solver.flow_step(disk, state)
    assert out is disk
    assert (diag["step"], diag["iteration"], state.iteration) == (0.0, 7, 8)


def test_unreachable_entry_volume_is_a_degenerate_mesh(monkeypatch):
    disk = flat_disk(1.0, n_angular=16, n_rings=4)
    boundary = disk.vertices[disk.boundary_vertex_mask]
    monkeypatch.setattr(solver, "_restore_volume", _volume_never_met)
    with pytest.raises(MeshDegeneracyError, match="target volume"):
        solver.solve_dirichlet_cmc(boundary, disk, target_volume=0.1)


def test_restore_keeps_free_boundary_on_sphere(unit_sphere):
    # the restore's Newton moves slide the boundary along substrate tangents;
    # a large first correction (the gamma = 70 deg drop pushed to 20 deg)
    # once left it 1.2e-6 off the sphere, past contact_angle's 1e-6
    init = solver._default_capillary_init(
        unit_sphere, CapillaryParams(gamma=math.radians(70.0),
                                     target_volume=0.3))
    params = CapillaryParams(gamma=math.radians(20.0), target_volume=0.3)
    cfg = solver.SolveConfig(mode="capillary", params=params,
                             substrate=unit_sphere, max_iterations=3)
    mesh, report = solver.solve_capillary(unit_sphere, params, init, cfg)
    b = mesh.vertices[mesh.boundary_vertex_mask]
    assert np.abs(np.linalg.norm(b, axis=1) - 1.0).max() <= 1e-12
    assert report.iterations == 3


def _unit_disk():
    """The 1071-vertex flat disk of the ``oracle_1k`` solves, its pinned unit
    circle and the H = 2/3 small cap over that circle."""
    flat = flat_disk(1.0, n_angular=112, n_rings=18)
    cap, _ = spherical_caps_for_circle(1.0, 2.0 / 3.0)
    return flat, flat.vertices[flat.boundary_vertex_mask], cap


def test_pinned_curvature_target_reaches_the_small_cap_from_a_flat_disk(rng):
    # the exact flat disk is critical at every volume, so a volume tuner
    # started from it never moved; the flow on A - 2 H V leaves it at once
    flat, boundary, cap = _unit_disk()
    bumped = perturb_normal(flat, 0.05 * mean_edge_length(flat), rng,
                            keep_boundary=True)
    for init in (flat, bumped):
        _, report = solver.solve_dirichlet_cmc(
            boundary, init, target_mean_curvature=cap.mean_curvature)
        assert report.converged
        assert report.volume == pytest.approx(cap.dome_volume, rel=1e-2)
        assert report.multiplier == pytest.approx(cap.mean_curvature,
                                                  rel=1e-2)
        # the report gives the area, not A - 2 H V
        assert report.final_energy == pytest.approx(cap.area, rel=1e-2)


def test_pinned_zero_curvature_target_gives_the_flat_disk(rng):
    flat, boundary, _ = _unit_disk()
    init = perturb_normal(flat, 0.05 * mean_edge_length(flat), rng,
                          keep_boundary=True)
    mesh, report = solver.solve_dirichlet_cmc(boundary, init,
                                              target_mean_curvature=0.0)
    assert report.converged
    assert np.abs(mesh.vertices[:, 2]).max() <= 1e-5
    assert report.final_energy == pytest.approx(math.pi, rel=1e-2)


def test_pinned_negative_curvature_target_gives_the_mirror_cap(rng):
    # the init's winding fixes which side is up: -H lands on the small cap
    # reflected through the boundary plane
    flat, boundary, cap = _unit_disk()
    init = perturb_normal(flat, 0.05 * mean_edge_length(flat), rng,
                          keep_boundary=True)
    mesh, report = solver.solve_dirichlet_cmc(
        boundary, init, target_mean_curvature=-cap.mean_curvature)
    assert report.converged
    assert report.volume == pytest.approx(-cap.dome_volume, rel=1e-2)
    assert mesh.vertices[:, 2].max() <= 1e-6 < -mesh.vertices[:, 2].min()


def test_pinned_curvature_target_with_no_small_cap_runs_away():
    # no cap over the unit circle has H = 1.2 > 1, and the flow on
    # A - 2 H V grows without bound: 2034 vertices and V = 249 by step 50
    # before the stop; it ends once the area passes the sphere's 4 pi / H^2
    flat, boundary, _ = _unit_disk()
    cfg = solver.SolveConfig(mode="dirichlet_cmc", max_iterations=50)
    mesh, report = solver.solve_dirichlet_cmc(boundary, flat, cfg,
                                              target_mean_curvature=1.2)
    assert (report.message, report.converged) == ("runaway", False)
    assert report.iterations < 50
    assert mesh.n_vertices == flat.n_vertices
    assert report.final_energy * 1.2 ** 2 > 4.0 * math.pi


def test_a_collapsed_step_has_its_own_stop(monkeypatch):
    # a collapse is named as such, and it may still converge, here on the
    # critical flat disk
    def collapse(mesh, state):
        raise StepCollapseError("no descent direction at current iterate")

    monkeypatch.setattr(solver, "flow_step", collapse)
    disk = flat_disk(1.0, n_angular=16, n_rings=4)
    boundary = disk.vertices[disk.boundary_vertex_mask]
    _, report = solver.solve_dirichlet_cmc(boundary, disk,
                                           target_mean_curvature=0.0)
    assert (report.message, report.converged) == ("collapsed", True)


@pytest.mark.parametrize("passed", [True, False])
def test_the_gradient_stop_converges_on_the_measurement(
        monkeypatch, unit_sphere, passed):
    # a step that does not move (flow_step's fixed point, with a zero
    # residual) stops "gradient", which converges exactly when the final
    # mesh's measurement passes
    def flat_step(mesh, state):
        state.iteration += 1
        return mesh, {"step": 0.0, "energy": 0.0, "gradNorm": 0.0}

    monkeypatch.setattr(solver, "flow_step", flat_step)
    _measure_passes(monkeypatch, passed)
    drop, init = _small_drop()
    params = CapillaryParams(gamma=drop.gamma, target_volume=drop.volume)
    _, report = solver.solve_capillary(unit_sphere, params, init)
    assert (report.message, report.converged) == ("gradient", passed)
    assert report.iterations == 1


def _sagged_disk(depth):
    # the flat disk with its interior pushed to z = -depth (1 - r^2): a
    # volume of sign opposite to depth, as a perturbed flat init may have
    disk = flat_disk(1.0, n_angular=24, n_rings=4)
    v = disk.vertices.copy()
    v[:, 2] = -depth * (1.0 - (v[:, :2] ** 2).sum(axis=1))
    return disk, disk.with_vertices(v)


def test_pinned_curvature_target_is_reached_from_the_other_side_of_zero():
    # the tuner's secant never crosses zero volume; from this init it once
    # shrank the negative volume for 24 rounds and missed the target
    disk, init = _sagged_disk(1e-3)
    assert init.divergence_volume() < 0.0
    boundary = disk.vertices[disk.boundary_vertex_mask]
    _, report = solver.solve_dirichlet_cmc(boundary, init,
                                           target_mean_curvature=2.0 / 3.0)
    assert report.converged
    assert report.volume > 0.0
    assert report.multiplier == pytest.approx(2.0 / 3.0, rel=1e-2)


def _theta55_target(gamma_deg):
    """The drop of contact angle ``gamma_deg`` at contact polar angle 55 deg,
    and a curvature target at its H."""
    drop = interior_drop_cap(1.0, math.radians(55.0), math.radians(gamma_deg))
    return drop, CapillaryParams(gamma=drop.gamma,
                                 target_curvature=drop.mean_curvature_toward_drop)


def test_free_curvature_target_holds_the_closed_form_cap_volume(monkeypatch,
                                                                unit_sphere):
    # H and gamma fix one stable cap: a caller's init at another volume (the
    # theta = 45 deg drop) is moved to that cap's volume and flows once
    runs = []
    run = solver._run_flow

    def counting_run(*args, **kwargs):
        runs.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(solver, "_run_flow", counting_run)
    drop, params = _theta55_target(40.0)
    init = interior_drop_cap(1.0, math.radians(45.0),
                             drop.gamma).free_surface_mesh(64)
    _, report = solver.solve_capillary(unit_sphere, params, init)
    assert len(runs) == 1
    assert (report.message, report.converged) == ("measured", True)
    assert report.iterations <= 100
    assert report.volume == pytest.approx(drop.volume, rel=1e-10)


def test_default_init_curvature_target_keeps_its_own_volume(unit_sphere):
    # the default init is the cap of H meshed, so the solve holds the mesh's
    # volume, which misses the closed form's by its discretization
    drop, params = _theta55_target(70.0)
    init = solver._default_capillary_init(unit_sphere, params)
    own = (init.divergence_volume()
           + make_wetting_operator(init, unit_sphere).volume_term(init.vertices))
    assert own != pytest.approx(drop.volume, rel=1e-6)
    _, report = solver.solve_capillary(unit_sphere, params)
    assert report.converged
    assert report.volume == pytest.approx(own, rel=1e-10)


def test_missed_free_curvature_target_is_not_converged(unit_sphere):
    # this flow passes its measured stop at step 50, but the multiplier of
    # the 64-sample init's cap, 0.3148, misses H = 0.31596 by more than
    # MULTIPLIER_TOL_FACTOR allows
    drop, params = _theta55_target(70.0)
    init = interior_drop_cap(1.0, math.radians(45.0),
                             drop.gamma).free_surface_mesh(64)
    _, report = solver.solve_capillary(unit_sphere, params, init)
    assert not report.converged
    assert "missed curvature target" in report.message
    assert "'measured'" in report.message


def test_height_law_rejects_a_curvature_target(unit_sphere):
    # the law constant mu fixes no closed-form volume to hold
    params = CapillaryParams(gamma=math.radians(70.0), kappa=0.5,
                             target_curvature=0.05)
    with pytest.raises(ValueError, match="needs target_volume"):
        solver.SolveConfig(mode="prescribed_height_curvature", params=params,
                           substrate=unit_sphere)
    with pytest.raises(ValueError, match="needs target_volume"):
        solver.solve_prescribed_height_curvature(unit_sphere, params)


@pytest.mark.parametrize("kappa", [0.0, -0.5])
def test_height_law_needs_a_positive_kappa(unit_sphere, kappa):
    params = CapillaryParams(gamma=math.radians(70.0), kappa=kappa,
                             target_volume=0.3)
    with pytest.raises(ValueError, match="needs kappa > 0"):
        solver.SolveConfig(mode="prescribed_height_curvature", params=params,
                           substrate=unit_sphere)
    with pytest.raises(ValueError, match="needs kappa > 0"):
        solver.solve_prescribed_height_curvature(unit_sphere, params)


def test_solve_config_rejects_bad_counts():
    with pytest.raises(ValueError, match="max_iterations"):
        solver.SolveConfig(mode="dirichlet_cmc", max_iterations=0)


def _flipped_drop_mesh():
    # the small drop mirrored through z = 0: its contact loop lies in the
    # lower hemisphere
    _, init = _small_drop()
    return init.with_vertices(init.vertices * np.array([1.0, 1.0, -1.0]))


_DISK = flat_disk(1.0, n_angular=16, n_rings=4)
_CIRCLE = _DISK.vertices[_DISK.boundary_vertex_mask]
_SUB = Sphere(np.zeros(3), 1.0)
_PARAMS = CapillaryParams(gamma=1.0, target_volume=0.3)
INPUT_CHECKS = {
    "unknown mode": (lambda: solver.SolveConfig(mode="pinned"),
                     "mode must be one of"),
    "free without substrate": (
        lambda: solver.SolveConfig(mode="capillary", params=_PARAMS),
        "capillary mode needs a substrate sphere"),
    "free without params": (
        lambda: solver.SolveConfig(mode="capillary", substrate=_SUB),
        "capillary mode needs CapillaryParams"),
    "config of another mode": (
        lambda: solver.solve_dirichlet_cmc(
            _CIRCLE, _DISK, solver.SolveConfig(
                mode="capillary", params=_PARAMS, substrate=_SUB),
            target_volume=0.3),
        "config.mode must be 'dirichlet_cmc'"),
    "both targets": (
        lambda: solver.solve_dirichlet_cmc(_CIRCLE, _DISK, target_volume=0.3,
                                           target_mean_curvature=0.5),
        "exactly one of target_volume / target_mean_curvature"),
    "boundary count": (
        lambda: solver.solve_dirichlet_cmc(_CIRCLE[:-1], _DISK,
                                           target_volume=0.3),
        "init mesh boundary has 16 vertices, the prescribed curve has 15"),
    "boundary off the curve": (
        lambda: solver.solve_dirichlet_cmc(1.01 * _CIRCLE, _DISK,
                                           target_volume=0.3),
        "does not lie on the prescribed curve"),
    "boundary below the equator": (
        lambda: solver.solve_prescribed_height_curvature(
            _SUB, CapillaryParams(gamma=1.0, kappa=0.5, target_volume=0.3),
            _flipped_drop_mesh()),
        "upper open hemisphere"),
}


@pytest.mark.parametrize("case", list(INPUT_CHECKS))
def test_solver_input_checks_name_the_fault(case):
    call, message = INPUT_CHECKS[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_pinned_boundary_check_memory_is_linear(monkeypatch):
    # the check once built (n_b, n_b, 3) temporaries: 128 MB at 2,000
    # boundary vertices, before any solve started
    monkeypatch.setattr(solver, "_solve", lambda *args: "solved")
    disk = flat_disk(1.0, n_angular=2000, n_rings=3)
    boundary = disk.vertices[disk.boundary_vertex_mask]
    tracemalloc.start()
    try:
        out = solver.solve_dirichlet_cmc(boundary, disk, target_volume=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == "solved"
    assert peak < 16 * 2 ** 20


def test_solve_config_rejects_free_boundary_fields_when_pinned():
    # a pinned solve reads neither field, so setting one is an error, not a
    # value silently dropped
    sub = Sphere(np.zeros(3), 5.0)
    params = CapillaryParams(gamma=1.0, kappa=3.0, target_volume=1.0)
    for kwargs in ({"substrate": sub}, {"params": params},
                   {"substrate": sub, "params": params}):
        with pytest.raises(ValueError, match="takes no params or substrate"):
            solver.SolveConfig(mode="dirichlet_cmc", **kwargs)


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
    # the capillary mode takes no height law
    kappa = 0.5 if mode == "prescribed_height_curvature" else 0.0
    params = CapillaryParams(gamma=math.radians(70.0), kappa=kappa,
                             target_volume=0.3)
    other = CapillaryParams(gamma=math.radians(70.0), kappa=kappa,
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


def _finite(x):
    return isinstance(x, float) and math.isfinite(x)


def _diagnostics(path, free_boundary):
    lines = path.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert all({"iteration", "energy", "volume", "gradNorm", "maxHdev",
                "maxAngleDev"} <= r.keys() for r in records)
    assert all(_finite(r["maxHdev"]) for r in records)
    # a pinned boundary has no contact angle: NaN, written as null
    assert all(_finite(r["maxAngleDev"]) if free_boundary
               else r["maxAngleDev"] is None for r in records)
    return records


def test_dirichlet_entry_point(tmp_path):
    disk = flat_disk(1.0, n_angular=24, n_rings=4)
    boundary = disk.vertices[disk.boundary_vertex_mask]
    path = tmp_path / "dirichlet.jsonl"
    cfg = solver.SolveConfig(mode="dirichlet_cmc", max_iterations=40,
                             diagnostics_path=str(path))
    mesh, report = solver.solve_dirichlet_cmc(boundary, disk, cfg,
                                              target_volume=0.3)
    assert mesh.divergence_volume() == pytest.approx(0.3, rel=1e-10)
    # the pinned loop comes back bit for bit
    out = mesh.vertices[mesh.boundary_vertex_mask]
    assert np.array_equal(np.unique(out, axis=0), np.unique(boundary, axis=0))
    assert len(_diagnostics(path, False)) == report.iterations > 0


def _counted(monkeypatch, name, record) -> list:
    """A list that gets ``record(*args)`` on every call of ``solver.name``."""
    calls = []
    fn = getattr(solver, name)

    def counted(*args, **kwargs):
        calls.append(record(*args))
        return fn(*args, **kwargs)

    monkeypatch.setattr(solver, name, counted)
    return calls


def _remesh_calls(monkeypatch) -> list:
    """A list that grows by one on every remesh a solve runs."""
    return _counted(monkeypatch, "_remesh_with_stats", lambda *a: None)


def _squashed_disk(factor):
    """The 24 x 4 flat disk with its interior squeezed along x by
    ``factor``, and its pinned unit circle."""
    disk = flat_disk(1.0, n_angular=24, n_rings=4)
    v = disk.vertices.copy()
    v[~disk.boundary_vertex_mask, 0] *= factor
    return disk.with_vertices(v), disk.vertices[disk.boundary_vertex_mask]


def test_a_budget_that_ends_on_a_cadence_step_tries_the_stop():
    # a pinned solve tries the measured check after every step, and this one
    # first passes it at step 199; a budget of 199 once ended before that
    # step's check, on "budget" and unconverged
    init, boundary = _squashed_disk(0.05)
    (short, r_short), (long, r_long) = (
        solver.solve_dirichlet_cmc(
            boundary, init,
            solver.SolveConfig(mode="dirichlet_cmc", max_iterations=budget),
            target_volume=0.5)
        for budget in (199, 2000))
    assert r_short.message == r_long.message == "measured"
    assert r_short.converged and r_short.iterations == r_long.iterations == 199
    assert np.array_equal(short.vertices, long.vertices)


def test_quality_trigger_remeshes_a_pinned_solve(monkeypatch):
    # the squeezed faces start at quality 0.024, below QUALITY_FLOOR; a
    # pinned solve has no cadence remesh, so only the trigger can remesh it
    calls = _remesh_calls(monkeypatch)
    init, boundary = _squashed_disk(0.02)
    mesh, report = solver.solve_dirichlet_cmc(boundary, init,
                                              target_volume=0.5)
    assert len(calls) >= 1
    assert report.converged
    assert mesh.divergence_volume() == pytest.approx(0.5, rel=1e-10)
    out = mesh.vertices[mesh.boundary_vertex_mask]
    assert np.array_equal(np.unique(out, axis=0), np.unique(boundary, axis=0))


def test_a_remesh_the_remesher_rejects_waits_for_displacement(monkeypatch):
    # a remesh that the remesher rejects itself once left the displacement
    # uncounted, so the poor faces of this disk asked again every step:
    # 21 attempts in 30 steps
    calls = []

    def rejected(mesh, *args, **kwargs):
        calls.append(mesh)
        return mesh, 0

    monkeypatch.setattr(solver, "_remesh_with_stats", rejected)
    init, boundary = _squashed_disk(0.02)
    cfg = solver.SolveConfig(mode="dirichlet_cmc", max_iterations=30)
    _, report = solver.solve_dirichlet_cmc(boundary, init, cfg,
                                           target_volume=0.5)
    assert report.iterations == 30
    assert 1 <= len(calls) <= 2


def test_only_free_boundaries_remesh_on_the_cadence(monkeypatch, rng,
                                                    unit_sphere):
    # the 1071-vertex disk to the H = 2/3 cap: a cadence remesh at step 25
    # once held its stop back to step 50 and ended at jet h_p90 0.055, and
    # a stop tried on the cadence alone held it back to step 25
    calls = _remesh_calls(monkeypatch)
    flat = flat_disk(1.0, n_angular=112, n_rings=18)
    init = perturb_normal(flat, 0.05 * mean_edge_length(flat), rng,
                          keep_boundary=True)
    cap, _ = spherical_caps_for_circle(1.0, 2.0 / 3.0)
    mesh, report = solver.solve_dirichlet_cmc(
        flat.vertices[flat.boundary_vertex_mask], init,
        target_volume=cap.dome_volume)
    assert calls == []
    assert (report.message, report.iterations) == ("measured", 5)
    assert report.converged
    # meshes are wound out of the drop
    h = -jet_mean_curvature(mesh)[~mesh.boundary_vertex_mask]
    assert np.quantile(np.abs(h - cap.mean_curvature), 0.9) <= 0.02

    # a free contact line keeps the cadence: with a cadence longer than
    # its budget this solve does not remesh at all
    drop, init = _small_drop()
    params = CapillaryParams(gamma=drop.gamma, target_volume=drop.volume)
    cfg = solver.SolveConfig(mode="capillary", params=params,
                             substrate=unit_sphere, max_iterations=40)
    for every, remeshes in ((10, True), (41, False)):
        calls.clear()
        monkeypatch.setattr(solver, "REMESH_EVERY", every)
        solver.solve_capillary(unit_sphere, params, init, cfg)
        assert bool(calls) == remeshes


def test_the_pinned_stop_check_costs_no_face_pass(monkeypatch):
    # the check reads the gradients the next step computes at the same
    # position, so stopping "measured" at step k costs what a k-step budget
    # does
    passes = _counted(monkeypatch, "_face_pass", lambda *a: None)
    disk = flat_disk(1.0, n_angular=32, n_rings=6)
    boundary = disk.vertices[disk.boundary_vertex_mask]

    def solve(cfg):
        passes.clear()
        mesh, report = solver.solve_dirichlet_cmc(boundary, disk.copy(), cfg,
                                                  target_volume=0.5)
        return mesh, report, len(passes)

    stopped, r_stopped, n_stopped = solve(None)
    assert r_stopped.message == "measured" and r_stopped.converged
    _measure_passes(monkeypatch, False)
    ran, r_ran, n_ran = solve(solver.SolveConfig(
        mode="dirichlet_cmc", max_iterations=r_stopped.iterations))
    assert r_ran.message == "budget"
    assert n_ran == n_stopped
    assert np.array_equal(ran.vertices, stopped.vertices)


def test_a_step_asks_for_gradients_once_at_its_start(monkeypatch):
    # the gradients are needed only where the step starts; each trial of
    # its line search and each restore iterate asks for values only
    disk = flat_disk(1.0, n_angular=24, n_rings=6)
    x = disk.vertices.copy()
    x[:, 2] = 0.2 * (1.0 - (x[:, :2] ** 2).sum(1)) * (1.0 + 0.5 * x[:, 0])
    mesh = disk.with_vertices(x)
    state = solver.init_flow_state(mesh, solver.SolveConfig(
        mode="dirichlet_cmc"), volume_target=0.3)
    mesh, ok = solver._restore_volume(mesh, state)
    assert ok
    passes = _counted(monkeypatch, "_face_pass",
                      lambda m, state, p, energy, grads: (m, grads))
    for _ in range(5):
        passes.clear()
        start = mesh
        mesh, diag = solver.flow_step(mesh, state)
        assert diag["step"] > 0.0
        assert [m is start for m, grads in passes if grads] == [True]
        assert sum(not grads for _, grads in passes) >= 2


def test_free_boundaries_try_the_stop_on_the_cadence_only(monkeypatch,
                                                          unit_sphere):
    # a free solve tries the measured stop on every cadence step that does
    # not remesh; this one runs to its budget, remeshing on the cadence and
    # on the quality trigger
    monkeypatch.setattr(solver, "REMESH_EVERY", 10)
    tries = _counted(monkeypatch, "_measure", lambda m, state:
                     state.iteration)
    remeshes = _counted(monkeypatch, "_do_remesh", lambda m, state:
                        state.iteration)
    drop, init = _small_drop()
    params = CapillaryParams(gamma=math.radians(80.0),
                             target_volume=drop.volume)
    cfg = solver.SolveConfig(mode="capillary", params=params,
                             substrate=unit_sphere, max_iterations=120)
    _, report = solver.solve_capillary(unit_sphere, params, init, cfg)
    assert report.message == "budget"
    assert any(step % 10 for step in remeshes)
    # the last measurement is the report's
    assert tries[-1] == 120
    assert tries[:-1] == [step for step in range(10, 121, 10)
                          if step not in remeshes]


def test_a_free_budget_that_ends_on_a_cadence_step_tries_the_stop(
        monkeypatch, unit_sphere):
    # at the budget's end no remesh runs, so the first cadence step tries
    # the stop; the free stop once waited for 2 * REMESH_EVERY steps, and
    # this solve ended on "budget"
    monkeypatch.setattr(solver, "REMESH_EVERY", 10)
    _measure_passes(monkeypatch, True)
    drop, init = _small_drop()
    params = CapillaryParams(gamma=drop.gamma, target_volume=drop.volume)
    cfg = solver.SolveConfig(mode="capillary", params=params,
                             substrate=unit_sphere, max_iterations=10)
    _, report = solver.solve_capillary(unit_sphere, params, init, cfg)
    assert (report.message, report.iterations) == ("measured", 10)


def test_a_measured_stop_measures_its_mesh_once(monkeypatch, unit_sphere):
    # the stop check and the report once measured the final mesh apart, and
    # so ran contact_angle on it twice
    monkeypatch.setattr(solver, "REMESH_EVERY", 10)
    meshes = _counted(monkeypatch, "contact_angle", lambda m, *a: m)
    drop, init = _small_drop()
    params = CapillaryParams(gamma=drop.gamma, target_volume=drop.volume)
    cfg = solver.SolveConfig(mode="capillary", params=params,
                             substrate=unit_sphere, max_iterations=120)
    mesh, report = solver.solve_capillary(unit_sphere, params, init, cfg)
    assert report.message == "measured" and report.converged
    assert sum(m is mesh for m in meshes) == 1


@pytest.mark.parametrize("mode, solve", FREE_BOUNDARY_SOLVERS,
                         ids=[mode for mode, _ in FREE_BOUNDARY_SOLVERS])
def test_free_boundary_entry_points(monkeypatch, tmp_path, mode, solve):
    monkeypatch.setattr(solver, "REMESH_EVERY", 10)
    sphere = Sphere((0.0, 0.0, 0.0), 1.3)
    drop = interior_drop_cap(sphere.radius, math.radians(55.0),
                             math.radians(70.0))
    init = drop.free_surface_mesh(16)
    kappa = 0.5 if mode == "prescribed_height_curvature" else 0.0
    params = CapillaryParams(gamma=math.radians(60.0), kappa=kappa,
                             target_volume=drop.volume)
    path = tmp_path / f"{mode}.jsonl"
    cfg = solver.SolveConfig(mode=mode, params=params, substrate=sphere,
                             max_iterations=40, diagnostics_path=str(path))
    mesh, report = solve(sphere, params, init, cfg)
    assert _mesh_volume(mesh, sphere) == pytest.approx(drop.volume, rel=1e-10)
    b = mesh.vertices[mesh.boundary_vertex_mask]
    assert (np.abs(np.linalg.norm(b, axis=1) - sphere.radius).max()
            <= 1e-12 * sphere.radius)
    assert len(_diagnostics(path, True)) == report.iterations > 0


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
    p = solver._at(mesh, state, grads=True)
    eps = 1e-4
    for _ in range(4):
        d = rng.normal(size=mesh.vertices.shape)

        def at(t):
            q = solver._at(mesh.with_vertices(mesh.vertices + t * d), state,
                           energy=True)
            return np.array([q.energy, q.volume])

        fd = (8.0 * (at(eps) - at(-eps)) - (at(2 * eps) - at(-2 * eps))) / (12 * eps)
        an = np.array([np.sum(p.g * d), np.sum(p.c * d)])
        assert np.all(np.abs(fd - an) <= 5e-7 * np.maximum(np.abs(fd), np.abs(an)))


def _same_result(a, b):
    return (np.array_equal(a[0].vertices, b[0].vertices)
            and repr(a[1]) == repr(b[1]))


def test_init_mesh_values_are_not_shared_between_solves(monkeypatch,
                                                        unit_sphere):
    # the flow caches its values on every mesh it evaluates, the caller's
    # init included; a second solve with another gamma must not read them
    monkeypatch.setattr(solver, "REMESH_EVERY", 10)
    drop = interior_drop_cap(1.0, math.radians(55.0), math.radians(70.0))
    init = drop.free_surface_mesh(16)

    def config(gamma_deg):
        params = CapillaryParams(gamma=math.radians(gamma_deg),
                                 target_volume=drop.volume)
        return params, solver.SolveConfig(mode="capillary", params=params,
                                          substrate=unit_sphere,
                                          max_iterations=20)

    def step(mesh, gamma_deg):
        _, cfg = config(gamma_deg)
        return solver.flow_step(mesh, solver.init_flow_state(mesh, cfg))

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


def test_height_law_stop_and_report_agree(monkeypatch, unit_sphere):
    # the early "measured" stop once judged the law about the mean of the
    # pointwise ratio and the report about the multiplier: this solve
    # stopped at step 20 and reported converged=False
    monkeypatch.setattr(solver, "REMESH_EVERY", 10)
    drop, init = _small_drop()
    params = CapillaryParams(gamma=math.radians(70.0), kappa=0.5,
                             target_volume=drop.volume)
    cfg = solver.SolveConfig(mode="prescribed_height_curvature",
                             params=params, substrate=unit_sphere,
                             max_iterations=120)
    _, report = solver.solve_prescribed_height_curvature(unit_sphere, params,
                                                         init, cfg)
    assert report.message == "measured"
    assert report.converged
    assert report.iterations < 120


def test_remesh_with_unwettable_boundary_is_rejected(monkeypatch,
                                                     unit_sphere):
    # remeshes of this coarse drop leave boundary loops the wetting operator
    # cannot be built on (here WettingCalibrationError, from step 60 on); a
    # failed rebuild once raised out of the solve
    monkeypatch.setattr(solver, "REMESH_EVERY", 10)
    drop = interior_drop_cap(1.0, math.radians(55.0), math.radians(70.0))
    init = drop.free_surface_mesh(12)
    rejected = []
    build = solver.make_wetting_operator

    def counting_build(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except GeometryError as err:
            rejected.append(err)
            raise

    monkeypatch.setattr(solver, "make_wetting_operator", counting_build)
    params = CapillaryParams(gamma=math.radians(70.0),
                             target_volume=drop.volume)
    cfg = solver.SolveConfig(mode="capillary", params=params,
                             substrate=unit_sphere, max_iterations=80)
    mesh, report = solver.solve_capillary(unit_sphere, params, init, cfg)
    assert rejected
    assert isinstance(report, solver.SolveReport)
    b = mesh.vertices[mesh.boundary_vertex_mask]
    assert np.abs(np.linalg.norm(b, axis=1) - 1.0).max() <= 1e-12


def _rejected_remesh(monkeypatch, unit_sphere, stub_name, stub):
    """Run one remesh cycle of the small drop, one step in, with
    ``solver.stub_name`` replaced by ``stub``, and check that the old mesh,
    operator and factor come back."""
    drop, init = _small_drop()
    params = CapillaryParams(gamma=math.radians(70.0),
                             target_volume=drop.volume)
    cfg = solver.SolveConfig(mode="capillary", params=params,
                             substrate=unit_sphere)
    state = solver.init_flow_state(init, cfg)
    mesh, _ = solver.flow_step(init, state)
    kept = (state.operator, state._precond)
    assert kept[1] is not None
    monkeypatch.setattr(solver, stub_name, stub)
    # a cycle at half the edge length is sure to edit the mesh
    state.target_edge *= 0.5
    assert solver._do_remesh(mesh, state) is mesh
    assert all(now is then for now, then in
               zip((state.operator, state._precond), kept))
    assert state.disp_since_remesh == 0.0


def test_failed_wetting_rebuild_keeps_the_old_mesh(monkeypatch, unit_sphere):
    rebuilds = []

    def unwettable(*args, **kwargs):
        rebuilds.append(args)
        raise SelfIntersectingPatchError("loop azimuths are not monotone")

    _rejected_remesh(monkeypatch, unit_sphere, "make_wetting_operator",
                     unwettable)
    assert len(rebuilds) == 1


def test_failed_remesh_restore_keeps_the_old_mesh(monkeypatch, unit_sphere):
    # a remesh whose volume restore failed was once kept, off its target
    restores = []

    def never_met(mesh, state, *args):
        restores.append(mesh)
        return _volume_never_met(mesh, state)

    _rejected_remesh(monkeypatch, unit_sphere, "_restore_volume", never_met)
    assert len(restores) == 1


def test_a_diverging_remesh_restore_is_a_named_error(monkeypatch,
                                                     unit_sphere):
    # twice the volume of this coarse drop: after the step-25 remesh the
    # restore's chord iterates once grew until they overflowed, and on a
    # 10-step cadence splu's "Factor is exactly singular" escaped; later the
    # flow took 50 crossing steps before it gave up.  The entry restore
    # already meets the volume only past the substrate, so the solve ends
    # there, before any step
    def no_step(mesh, state):
        raise AssertionError("a flow step ran")

    monkeypatch.setattr(solver, "flow_step", no_step)
    drop = interior_drop_cap(1.0, math.radians(80.0), math.radians(110.0))
    params = CapillaryParams(gamma=drop.gamma, target_volume=2 * drop.volume)
    cfg = solver.SolveConfig(mode="capillary", params=params,
                             substrate=unit_sphere, max_iterations=120)
    with pytest.raises(SideViolationError,
                       match="at the target volume crosses the substrate"):
        solver.solve_capillary(unit_sphere, params,
                               drop.free_surface_mesh(12), cfg)


class _CountingLU:
    """A SuperLU factor that records the shape of every right-hand side."""

    def __init__(self, lu, solves):
        self._lu, self._solves = lu, solves

    def __getattr__(self, name):
        return getattr(self._lu, name)

    def solve(self, rhs):
        self._solves.append(rhs.shape)
        return self._lu.solve(rhs)


@pytest.mark.parametrize("case", ["bumped_disk", "capillary_drop"])
def test_flow_step_makes_one_solve(monkeypatch, rng, unit_sphere, case):
    # the step's solve gives the descent direction and the field every
    # trial is restored along; no restore solves again
    solves = []
    factor = solver.splu
    monkeypatch.setattr(solver, "splu",
                        lambda *a, **k: _CountingLU(factor(*a, **k), solves))
    if case == "bumped_disk":
        mesh = perturb_normal(flat_disk(1.0, n_angular=16, n_rings=4), 0.05,
                              rng)
        cfg = solver.SolveConfig(mode="dirichlet_cmc")
    else:
        drop, mesh = _small_drop()
        params = CapillaryParams(gamma=math.radians(60.0),
                                 target_volume=drop.volume)
        cfg = solver.SolveConfig(mode="capillary", params=params,
                                 substrate=unit_sphere)
    state = solver.init_flow_state(mesh, cfg)
    out, diag = solver.flow_step(mesh, state)
    assert diag["step"] > 0.0
    assert solves == [(mesh.n_vertices, 6)]
    assert solver._at(out, state).volume == pytest.approx(
        state.volume_target, rel=1e-12)


def test_on_target_restore_makes_no_solve_and_no_factorization(monkeypatch,
                                                                rng):
    # the mesh sits on its own volume, so the restore has nothing to move;
    # deriving its direction first once cost a face pass, a factorization
    # and a solve on every tuner round and flow entry
    factors, solves = [], []
    factor = solver.splu

    def counting_splu(*a, **k):
        factors.append(1)
        return _CountingLU(factor(*a, **k), solves)

    monkeypatch.setattr(solver, "splu", counting_splu)
    mesh = perturb_normal(flat_disk(1.0, n_angular=16, n_rings=4), 0.05, rng)
    state = solver.init_flow_state(mesh, solver.SolveConfig(mode="dirichlet_cmc"))
    out, ok = solver._restore_volume(mesh, state)
    assert ok and out is mesh
    assert factors == [] and solves == []
    assert mesh._cache["flow"].c is None


def test_solve_capillary_rejects_a_height_law(monkeypatch, unit_sphere):
    # a nonzero kappa was once dropped and a constant-H drop reported
    def no_init(*args, **kwargs):
        raise AssertionError("a mesh was built before the kappa check")

    monkeypatch.setattr(solver, "_default_capillary_init", no_init)
    params = CapillaryParams(gamma=math.radians(70.0), kappa=0.5,
                             target_volume=0.3)
    with pytest.raises(ValueError, match="capillary mode needs kappa = 0"):
        solver.solve_capillary(unit_sphere, params)
    with pytest.raises(ValueError, match="capillary mode needs kappa = 0"):
        solver.SolveConfig(mode="capillary", params=params,
                           substrate=unit_sphere)


def test_diagnostics_carry_the_reports_spreads(tmp_path, unit_sphere):
    # the line of step k + 1 is measured at the mesh a k-step solve reports
    # on; its spreads once came from vertex normals, not from contact_angle
    drop, init = _small_drop()
    params = CapillaryParams(gamma=math.radians(60.0),
                             target_volume=drop.volume)

    def solve(steps, path=None):
        cfg = solver.SolveConfig(mode="capillary", params=params,
                                 substrate=unit_sphere, max_iterations=steps,
                                 diagnostics_path=path)
        return solver.solve_capillary(unit_sphere, params, init.copy(), cfg)

    _, report = solve(3)
    path = tmp_path / "capillary.jsonl"
    solve(4, str(path))
    line = _diagnostics(path, True)[3]
    assert line["maxHdev"] == report.h_max_deviation
    assert line["maxAngleDev"] == report.contact_angle_max_deviation


def test_height_law_diagnostics_give_the_law_residual(unit_sphere):
    # the residual is taken about the position's own law constant mu
    drop, mesh = _small_drop()
    params = CapillaryParams(gamma=math.radians(70.0), kappa=0.5,
                             target_volume=drop.volume)
    state = solver.init_flow_state(mesh, solver.SolveConfig(
        mode="prescribed_height_curvature", params=params,
        substrate=unit_sphere))
    _, diag = solver.flow_step(mesh, state)
    sink = io.StringIO()
    solver._write_diag(sink, diag, mesh, state)
    line = json.loads(sink.getvalue())
    p = solver._at(mesh, state, grads=True)
    q, _ = solver._pointwise_multiplier(p.g, p.c, ~mesh.boundary_vertex_mask)
    assert line["maxHdev"] == float(np.abs(q - diag["multiplier"]).max())
    assert line["maxHdev"] != float(np.abs(q - q.mean()).max())


@pytest.mark.parametrize("mode", solver.MODES)
def test_report_describes_the_returned_mesh(monkeypatch, rng, unit_sphere,
                                            mode):
    # the multiplier and residual norm were once those of the last step's
    # start position, one step before the mesh the solve returns
    states = []
    init_state = solver.init_flow_state

    def kept_state(*args, **kwargs):
        states.append(init_state(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(solver, "init_flow_state", kept_state)
    if mode == "dirichlet_cmc":
        disk = flat_disk(1.0, n_angular=16, n_rings=4)
        init = perturb_normal(disk, 0.05, rng, keep_boundary=True)
        mesh, report = solver.solve_dirichlet_cmc(
            disk.vertices[disk.boundary_vertex_mask], init,
            solver.SolveConfig(mode=mode, max_iterations=3),
            target_volume=0.3)
    else:
        drop, init = _small_drop()
        params = CapillaryParams(gamma=math.radians(60.0),
                                 kappa=0.5 if mode != "capillary" else 0.0,
                                 target_volume=drop.volume)
        cfg = solver.SolveConfig(mode=mode, params=params,
                                 substrate=unit_sphere, max_iterations=3)
        solve = (solver.solve_capillary if mode == "capillary"
                 else solver.solve_prescribed_height_curvature)
        mesh, report = solve(unit_sphere, params, init, cfg)
    assert report.message == "budget"
    _, diag = solver.flow_step(mesh, states[0])
    assert (report.multiplier, report.grad_norm) == (diag["multiplier"],
                                                     diag["gradNorm"])
