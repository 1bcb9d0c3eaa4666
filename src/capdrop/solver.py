"""Constrained gradient descent for capillary equilibrium surfaces.

The solver minimizes the interfacial energy

    E = area(S) - cos(gamma) * area(wetted patch) - 2 kappa * Mz(W)

over vertex positions at fixed enclosed volume, where Mz(W) is the z-moment
of the drop region (the kappa term makes equilibria satisfy the linear
height law H = kappa z + const instead of constant H).  Steps are Sobolev
(H1) preconditioned projected gradients: the raw gradient is smoothed by a
screened cotangent Laplacian, the volume-changing component is removed, a
backtracking line search enforces descent, and the volume is restored
after every trial by a chord iteration along the step's own preconditioned
volume gradient, so the constraint drifts only at round-off.  One linear
solve per step gives both the descent direction and that field; each
restore iterate needs only its volume.  A restore succeeds only at a
feasible position, with the volume met and no interior vertex past the
substrate; that one test gates every trial, remesh and the flow's entry.
A pinned boundary with a curvature target H minimizes A - 2 H V with
neither projection nor restore: below the hemisphere the small cap is a
strict local minimum of it.

Every position the flow visits is evaluated by one face pass
(``_face_pass``): the face corners are gathered once, and their cross
products give the area, the divergence volume, the worst face quality and,
on demand, the area gradient (half the unit face normal crossed with the
edge opposite each corner: the cotangent formula, written with the normal
the area needs anyway) and the volume gradient, which leave through one
scatter.  The wetting operator's circulations run once per position too.
The values are kept with the mesh of that position, tagged with the flow
state, so each is computed at most once; the per-face arrays are not kept.
The multiplier and residual norm of a position come from its own gradients
(``_residual``), so the step, the stop check and the report agree.  The
Sobolev preconditioner M + alpha L is symmetric positive definite and
is factored with a symmetric ordering and diagonal pivots.

Three modes share the engine.  ``dirichlet_cmc`` pins the boundary polyline
and drops the wetting terms; ``capillary`` (kappa = 0) lets boundary
vertices slide tangentially on the substrate sphere;
``prescribed_height_curvature`` adds the kappa term and requires the
boundary in the upper open hemisphere.  The three ``solve_*`` entry points
check their own arguments and then take one shared path that runs the flow
once.  A pinned curvature target flows on A - 2 H V.  A free boundary's
curvature target with kappa = 0 is a volume target: the stable capillary
surfaces in a ball are caps (Ros & Souam 1997, Wang & Xia 2019), so H and
gamma fix one cap and its volume in closed form, and the final multiplier
is judged against H.  Past ``init_flow_state`` the flow reads the problem
from its state alone (see ``FlowState``).

``SolveConfig`` holds what a caller may set.  Step sizes, tolerances, the
quality floor and the free boundary's remesh cadence are the module
constants below; the remesher's edge length, the Sobolev length (a quarter
of the bounding-box diagonal) and the H tolerance scale come from the init
mesh and are fixed for the solve.

Mean curvature is reported in the toward-the-drop convention (a convex
drop has H > 0); the Lagrange multiplier is reported as lambda/2, which
equals that H at an equilibrium with kappa = 0.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .analytic import (CapillaryParams, contact_angle, exterior_drop_cap,
                       interior_drop_cap)
from .curvature import _face_cotangents, mixed_voronoi_areas
from .errors import (DegenerateConfigurationError, GeometryError,
                     MeshDegeneracyError, SideViolationError, SolverError,
                     StepCollapseError)
from .geometry import Sphere, cross3
from .mesh import TriMesh
from .remesh import _remesh_with_stats, mean_edge_length
from .wetting import (WettingOperator, _require_origin_centered,
                      make_wetting_operator, surface_z_moment,
                      surface_z_moment_gradient)

__all__ = ["MODES", "SolveConfig", "SolveReport", "FlowState",
           "init_flow_state", "flow_step", "solve_dirichlet_cmc",
           "solve_capillary", "solve_prescribed_height_curvature"]

MODES = ("dirichlet_cmc", "capillary", "prescribed_height_curvature")


# fixed knobs of the flow
INITIAL_STEP = 1.0
BACKTRACK_FACTOR = 0.5
MIN_STEP = 1e-14
GRAD_TOL_FACTOR = 1e-8         # stop when |proj grad| <= factor * area
H_DEV_FACTOR = 1e-3            # H constancy: factor * (|H| + H scale)
ANGLE_TOL = math.radians(1.0)
MULTIPLIER_TOL_FACTOR = 5e-4   # free curvature targets: factor * (|H| + H scale)
QUALITY_FLOOR = 0.08           # a step below this quality asks for a remesh
REMESH_EVERY = 25              # free boundaries: remesh and stop-check cadence
RESTORE_REL_TOL = 1e-12        # volume restore: factor * max(1, |target|)
RESTORE_MAX_ITER = 30          # chord iterations of one volume restore


@dataclass
class SolveConfig:
    """Knobs of one solve; every field has a sane default except ``mode``.

    ``params`` and ``substrate`` are required outside ``dirichlet_cmc``,
    which rejects them.  A free boundary remeshes and tries the early
    "measured" stop every ``REMESH_EVERY`` steps; a pinned boundary tries
    that stop after every step and remeshes only when a face falls under the
    quality floor.  ``diagnostics_path`` gets one JSON line per flow step.
    Capillary mode needs kappa = 0 and the height law kappa > 0; the height
    law takes a volume target only: its law constant mu fixes no closed-form
    volume.
    """

    mode: str
    params: CapillaryParams | None = None
    substrate: Sphere | None = None
    max_iterations: int = 2000
    diagnostics_path: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.mode == "dirichlet_cmc":
            if self.params is not None or self.substrate is not None:
                raise ValueError("dirichlet_cmc mode takes no params or "
                                 "substrate: the boundary is pinned")
        elif self.substrate is None:
            raise ValueError(f"{self.mode} mode needs a substrate sphere")
        elif self.params is None:
            raise ValueError(f"{self.mode} mode needs CapillaryParams")
        elif self.mode == "capillary" and self.params.kappa != 0.0:
            raise ValueError(
                "capillary mode needs kappa = 0; the height law H = "
                "kappa z + mu is prescribed_height_curvature mode")
        elif self.mode == "prescribed_height_curvature":
            if self.params.kappa <= 0.0:
                raise ValueError(
                    "prescribed_height_curvature mode needs kappa > 0")
            if self.params.target_curvature is not None:
                raise ValueError(
                    "prescribed_height_curvature mode needs target_volume: "
                    "the law constant mu fixes no closed-form volume")


@dataclass
class SolveReport:
    """Outcome of a solve.

    ``h_mean`` / ``h_max_deviation`` use the variational curvature estimator
    (energy gradient against volume gradient) in the toward-the-drop
    convention; in prescribed-height-curvature mode the deviation is the
    residual of the law H = kappa z + mu instead of the spread about the
    mean, and for a pinned curvature target it is taken about the target H.
    ``final_energy`` leaves out a pinned target's pressure term (so it is
    the area).  ``multiplier`` (lambda/2, plus a pinned target's H) and
    ``grad_norm`` (the projected residual's norm) are those of the returned
    mesh, as ``flow_step`` would give them there.  ``message`` names the
    stop: "measured", "gradient" (a step found the residual under its
    threshold and did not move), "stalled" (20 steps without an energy
    drop) or "collapsed" (no descent step), which converge if the deviation
    fields passed their tolerances, or "budget" or "runaway" (a pinned
    target's area passed that of the sphere of curvature H), which do not.
    A free-boundary curvature target whose final multiplier is off H by more
    than ``MULTIPLIER_TOL_FACTOR`` does not converge either, and its message
    names the miss and the stop.
    """

    converged: bool
    iterations: int
    final_energy: float
    h_mean: float
    h_max_deviation: float
    volume: float
    multiplier: float
    contact_angle_mean: float | None = None
    contact_angle_max_deviation: float | None = None
    grad_norm: float = math.nan
    message: str = ""


@dataclass
class FlowState:
    """Mutable per-solve scratch carried between flow steps.

    ``operator`` is the wetting operator of a free boundary, None when the
    boundary is pinned; its ``sphere`` is the substrate and its
    ``side_sign`` the drop's side.  ``kappa`` is nonzero only under the
    height law.  ``pressure`` is the target H of a pinned curvature target:
    the flow then minimizes A - 2 H V and ``volume_target`` is unused.
    ``h_scale`` is the curvature scale of the H tolerances: 1 / R on a free
    boundary, 2 / (the init's bounding-box diagonal) on a pinned one.
    ``iteration`` counts the flow steps; values of a position live on it."""

    volume_target: float
    gamma: float
    kappa: float
    operator: WettingOperator | None
    target_edge: float
    sobolev_alpha: float
    h_scale: float
    step: float
    iteration: int = 0
    disp_since_remesh: float = math.inf
    pressure: float | None = None
    _precond: object = None
    _precond_stale: float = math.inf
    # tags the values this state computed at a position (see _Position)
    _key: object = field(default_factory=object, repr=False, compare=False)


# --------------------------------------------------------------------------
# the face pass


class _Position:
    """The flow's functionals at one position, each computed at most once.

    It lives in the position cache of the mesh it describes (so
    ``invalidate_geometry`` drops it) and carries the key of the flow state
    that computed it: a mesh evaluated by one solve never serves another
    solve's operator, gamma or kappa.  Only scalars, vertex gradients and
    ``_measure``'s result are kept, never the per-face arrays of the pass.
    """

    __slots__ = ("key", "area", "energy", "volume", "quality", "c", "g",
                 "wet", "wet_grad", "measured")

    def __init__(self, key):
        self.key = key
        self.area = self.energy = self.volume = self.quality = None
        self.c = self.g = self.wet = self.wet_grad = None
        self.measured = None  # _measure's dict


def _at(m: TriMesh, state: FlowState, *, energy: bool = False,
        volume: bool = False, c: bool = False, g: bool = False) -> _Position:
    """The flow's values at ``m``'s positions, computing in one face pass
    whichever of the requested ones are not known yet: ``energy`` (with the
    surface area and the worst face quality), ``volume``, and the volume
    and energy gradients ``c`` and ``g``."""
    p = m._cache.get("flow")
    if p is None or p.key is not state._key:
        p = m._cache["flow"] = _Position(state._key)
    if state.pressure is not None:
        # the pressure term -2 H V reads the volume and its gradient
        volume, c = volume or energy, c or g
    energy = energy and p.energy is None
    volume = volume and p.volume is None
    c = c and p.c is None
    g = g and p.g is None
    if energy or volume or c or g:
        _face_pass(m, state, p, energy, volume, c, g)
    return p


def _face_pass(m: TriMesh, state: FlowState, p: _Position, energy: bool,
               volume: bool, want_c: bool, want_g: bool) -> None:
    """Fill the requested fields of ``p`` from one gather of the corners.

    Per face, with corners a, b, c and the edge e_k opposite corner k:
    n = (b - a) x (c - a) gives the area |n|/2, the quality
    2 sqrt(3) |n| / sum |e_k|^2 and the area gradient n/|n| x e_k / 2 at
    corner k (the cotangent formula, written with the normal the area needs
    anyway); b x c gives the divergence volume a . (b x c) / 6 and, with
    c x a and a x b, its gradient.  Both gradients leave through one
    scatter.  The wetting terms come from one circulation per position.
    A pinned target's pressure term takes 2 H V off the energy and 2 H c
    off its gradient.
    """
    v, f = m.vertices, m.faces
    a, b, c = (np.take(v, f[:, k], axis=0) for k in range(3))
    op = state.operator
    cosg = math.cos(state.gamma)
    if energy or want_g:
        edges = (c - b, a - c, b - a)
        n = cross3(edges[1], edges[2])  # = (b - a) x (c - a)
        nn = np.sqrt(np.einsum("ij,ij->i", n, n))
    if volume or want_c:
        bc = cross3(b, c)
    if op is not None:
        vol_per_wet = op.side_sign * op.sphere.radius / 3.0
        if p.wet is None and (volume or (energy and cosg != 0.0)):
            p.wet = op.area(v)
        if p.wet_grad is None and (want_c or (want_g and cosg != 0.0)):
            p.wet_grad = op.area_gradient(v)

    if volume:
        vol = float(np.einsum("ij,ij->i", a, bc).sum() / 6.0)
        if op is not None:
            vol += vol_per_wet * p.wet
        p.volume = vol
    if energy:
        p.area = e = 0.5 * float(nn.sum())
        l2 = sum(np.einsum("ij,ij->i", d, d) for d in edges)
        p.quality = float((2.0 * math.sqrt(3.0) * nn / l2).min())
        if op is not None:
            if cosg != 0.0:
                e -= cosg * p.wet
            if state.kappa != 0.0:
                e -= 2.0 * state.kappa * (surface_z_moment(v, f)
                                          + op.z_moment_term(v))
        if state.pressure is not None:
            e -= 2.0 * state.pressure * p.volume
        p.energy = e
    if not (want_c or want_g):
        return

    # per corner: volume gradient in columns 0-2, area gradient after it
    block = np.empty((3, len(f), 3 * (want_c + want_g)))
    if want_c:
        block[0, :, :3] = bc
        cross3(c, a, out=block[1, :, :3])
        cross3(a, b, out=block[2, :, :3])
        block[:, :, :3] /= 6.0
    if want_g:
        nhat = n / nn[:, None]
        for k in range(3):
            cross3(nhat, edges[k], out=block[k, :, -3:])
        block[:, :, -3:] *= 0.5
    grads = m.scatter(block)
    if want_c:
        p.c = grads[:, :3]
        if op is not None:
            p.c = p.c + vol_per_wet * p.wet_grad
    if want_g:
        gr = grads[:, -3:]
        if op is not None:
            if cosg != 0.0:
                gr = gr - cosg * p.wet_grad
            if state.kappa != 0.0:
                gr = gr - 2.0 * state.kappa * (surface_z_moment_gradient(m)
                                               + op.z_moment_term_gradient(v))
        if state.pressure is not None:
            gr = gr - 2.0 * state.pressure * p.c
        p.g = gr
    # every later request at this position gets these same arrays
    for arr in (p.c, p.g, p.wet_grad):
        if arr is not None:
            arr.flags.writeable = False


# --------------------------------------------------------------------------
# constraint plumbing


def _project_rows(arr: np.ndarray, m: TriMesh, state: FlowState) -> np.ndarray:
    out = arr.copy()
    bmask = m.boundary_vertex_mask
    if state.operator is None:
        out[bmask] = 0.0
    else:
        n = state.operator.sphere.outward_normals(m.vertices[bmask])
        rows = out[bmask]
        out[bmask] = rows - n * (rows * n).sum(1)[:, None]
    return out


def _restore_direction(m: TriMesh, state: FlowState, pc: np.ndarray | None = None
                       ) -> tuple[np.ndarray, float]:
    """Field ``u`` along which volume corrections are applied at ``m``, and
    the volume's slope ``c . u`` along it, with ``c`` the volume gradient at
    ``m``.

    ``u`` is the preconditioner solved against the projected volume
    gradient, projected again: smooth on the preconditioner's length scale
    and fading toward pinned vertices.  Correcting along the raw
    (mass-weighted) gradient instead imprints the mesh density pattern onto
    the surface as high-frequency normal noise, and any field with a hard
    zero at a pinned boundary kinks the first interior ring, on every single
    projection.  A caller that has already solved for it passes the solve
    ``pc``, and then no solve runs here.
    """
    c = _at(m, state, volume=True, c=True).c
    if pc is None:
        pc = _preconditioner(m, state).solve(_project_rows(c, m, state))
    u = _project_rows(pc, m, state)
    return u, float((c * u).sum())


def _volume_met(m: TriMesh, state: FlowState) -> bool:
    target = state.volume_target
    return (abs(target - _at(m, state, volume=True).volume)
            <= RESTORE_REL_TOL * max(1.0, abs(target)))


def _crosses(m: TriMesh, state: FlowState) -> bool:
    """Whether an interior vertex of ``m`` lies more than 1e-7 R past the
    substrate, on the side away from the drop."""
    op = state.operator
    if op is None:
        return False
    d = op.sphere.signed_distance(m.vertices[~m.boundary_vertex_mask])
    return bool((d * op.side_sign > 1e-7 * op.sphere.radius).any())


def _restore_volume(m: TriMesh, state: FlowState,
                    direction: tuple[np.ndarray, float] | None = None
                    ) -> tuple[TriMesh, bool]:
    """Chord iteration along a fixed field onto the volume constraint;
    returns the corrected mesh and whether it is feasible: the constraint
    met to ``RESTORE_REL_TOL`` within ``RESTORE_MAX_ITER`` moves, and no
    interior vertex past the substrate (``_crosses``).  An iterate that
    does not shrink the volume miss fails the restore: the chord diverges.

    A mesh already on target is returned before any direction is derived.
    ``direction`` is the ``(u, slope)`` of ``_restore_direction``: a flow
    step passes the one it solved for at its start position, every other
    caller has it derived at ``m``.  The slope stays fixed, so an iterate
    asks only for its volume, and an iterate reached by a move asks for its
    energy in the same face pass, where the line search's Armijo test finds
    it.

    A free boundary moves along tangents of the substrate, which leave it
    at second order, so every iterate is snapped back onto it.  A pressure
    flow has no volume constraint, and every mesh is returned as it is."""
    if state.pressure is not None or _volume_met(m, state):
        return m, not _crosses(m, state)
    u, slope = _restore_direction(m, state) if direction is None else direction
    if slope <= 0.0:
        return m, False
    r = state.volume_target - _at(m, state).volume
    for _ in range(RESTORE_MAX_ITER):
        m = m.with_vertices(
            _snap_boundary(m.vertices + (r / slope) * u, m, state))
        p = _at(m, state, energy=True, volume=True)
        miss, r = abs(r), state.volume_target - p.volume
        if _volume_met(m, state) or not abs(r) < miss:
            break
    return m, _volume_met(m, state) and not _crosses(m, state)


def _snap_boundary(x: np.ndarray, conn: TriMesh, state: FlowState) -> np.ndarray:
    if state.operator is not None:
        bmask = conn.boundary_vertex_mask
        x = x.copy()
        x[bmask] = state.operator.sphere.project(x[bmask])
    return x


def _cotan_laplacian(m: TriMesh, cots: np.ndarray) -> sparse.csr_matrix:
    f = m.faces
    n = m.n_vertices
    rows, cols, vals = [], [], []
    for k in range(3):
        j1 = f[:, (k + 1) % 3]
        j2 = f[:, (k + 2) % 3]
        w = 0.5 * cots[:, k]
        rows.extend([j1, j2, j1, j2])
        cols.extend([j2, j1, j1, j2])
        vals.extend([-w, -w, w, w])
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))


def _preconditioner(m: TriMesh, state: FlowState):
    cached = state._precond
    if (cached is not None
            and state._precond_stale < 0.25 * state.target_edge
            and cached.shape[0] == m.n_vertices):
        return cached
    cots = _face_cotangents(m)
    L = _cotan_laplacian(m, cots)
    M = sparse.diags(np.maximum(mixed_voronoi_areas(m, cots), 1e-300))
    A = (M + state.sobolev_alpha * L).tocsr()
    pinned = m.boundary_vertex_mask
    if state.operator is None and pinned.any():
        free = sparse.diags((~pinned).astype(float))
        A = free @ A @ free + sparse.diags(pinned.astype(float))
    # A is symmetric positive definite: a symmetric ordering and diagonal
    # pivots give a sparser factor than the default column ordering
    state._precond = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                          diag_pivot_thresh=0.001,
                          options={"SymmetricMode": True})
    state._precond_stale = 0.0
    return state._precond


# --------------------------------------------------------------------------
# diagnostics helpers


def _residual(m: TriMesh, state: FlowState):
    """The projected KKT residual at ``m`` from the gradients cached there:
    the projected energy and volume gradients, the multiplier (lambda/2,
    plus a pinned target's H) and the residual norm, |g_p - lambda c_p|, or
    |g_p| under a pressure, whose flow has no constraint."""
    p = _at(m, state, c=True, g=True)
    g_proj = _project_rows(p.g, m, state)
    c_proj = _project_rows(p.c, m, state)
    cc = float((c_proj * c_proj).sum())
    lam = float((g_proj * c_proj).sum()) / cc if cc > 0 else 0.0
    h = state.pressure
    grad_norm = float(np.linalg.norm(g_proj if h is not None
                                     else g_proj - lam * c_proj))
    return g_proj, c_proj, 0.5 * lam + (h or 0.0), grad_norm


def _pointwise_multiplier(g: np.ndarray, c: np.ndarray,
                          interior: np.ndarray):
    """Variational curvature estimate from the assembled gradients.

    For interior vertices the energy gradient is 2(H - kappa z - P) m n,
    with P a pinned target's pressure, and the volume gradient is m n, so
    their pointwise ratio is constant at any equilibrium of any mode (it
    equals the multiplier).  Returns that ratio and the mask, over the
    interior vertices, where it is defined.
    """
    cn2 = (c[interior] ** 2).sum(1)
    ok = cn2 > 1e-300
    return (g[interior][ok] * c[interior][ok]).sum(1) / (2.0 * cn2[ok]), ok


# --------------------------------------------------------------------------
# state construction and the step


def init_flow_state(mesh: TriMesh, config: SolveConfig,
                    volume_target: float | None = None) -> FlowState:
    """Bind a flow state to a mesh: the wetting operator of a free boundary,
    the remesher's edge length, the Sobolev length and the H scale."""
    operator, gamma, kappa = None, math.pi / 2.0, 0.0
    diagonal = mesh.bbox_diagonal()
    h_scale = 2.0 / diagonal
    if config.mode != "dirichlet_cmc":
        p = config.params
        gamma, kappa = p.gamma, p.kappa
        operator = make_wetting_operator(mesh, config.substrate, side=p.side)
        h_scale = 1.0 / operator.sphere.radius
    state = FlowState(volume_target=0.0, gamma=gamma, kappa=kappa,
                      operator=operator, target_edge=mean_edge_length(mesh),
                      sobolev_alpha=(0.25 * diagonal) ** 2, h_scale=h_scale,
                      step=INITIAL_STEP)
    if volume_target is None:
        volume_target = _at(mesh, state, volume=True).volume
    state.volume_target = float(volume_target)
    return state


def flow_step(mesh: TriMesh, state: FlowState) -> tuple[TriMesh, dict]:
    """One descent step, volume-preserving unless ``state.pressure`` is set;
    returns the new mesh and a JSON-ready diagnostics dict.

    Everything the step reads is in ``state``: the boundary is pinned when
    ``state.operator`` is None and slides on ``state.operator.sphere``
    otherwise.  The dict holds ``iteration``, ``gradNorm`` and
    ``multiplier`` at the start position (``_residual``'s) and ``energy``,
    ``volume``, ``step`` and ``displacement`` of the accepted one.  The
    diagnostics file adds the report's spreads ``maxHdev`` and
    ``maxAngleDev`` at the start position (see ``_write_diag``).

    One preconditioner solve gives the descent direction and the field
    along which every trial of the line search is restored to the volume;
    a trial counts only if its restore is feasible (``_restore_volume``).
    A critical point is a fixed point: when the projected gradient norm is
    under ``GRAD_TOL_FACTOR`` times the area, the mesh itself is returned
    with ``step`` 0, and only then.  Either way ``state.iteration`` counts
    the step.  Raises StepCollapseError when backtracking cannot find a
    feasible descent away from a critical point.
    """
    x0 = mesh.vertices
    p = _at(mesh, state, energy=True, volume=True, c=True, g=True)
    area, e0, v0, g = p.area, p.energy, p.volume, p.g
    g_proj, c_proj, multiplier, grad_norm = _residual(mesh, state)

    diag = {"iteration": state.iteration, "energy": e0, "volume": v0,
            "multiplier": multiplier, "gradNorm": grad_norm,
            "step": 0.0, "displacement": 0.0}
    if grad_norm <= GRAD_TOL_FACTOR * area:
        state.iteration += 1
        return mesh, diag

    lu = _preconditioner(mesh, state)
    if state.pressure is not None:
        # no constraint: nothing is projected out and no trial is restored
        d, restore = -lu.solve(g_proj), None
    else:
        sol = lu.solve(np.hstack([g_proj, c_proj]))
        pg, pc = sol[:, :3], sol[:, 3:]
        # every restore of this step moves along the start position's field
        restore = _restore_direction(mesh, state, pc)
        denom = float((c_proj * pc).sum())
        lam_pre = float((c_proj * pg).sum()) / denom if denom != 0 else 0.0
        # volume-neutral by construction: c_proj . d = 0 through lam_pre, so
        # the restore after each trial is a second-order correction
        d = -(pg - lam_pre * pc)
    d = _project_rows(d, mesh, state)
    # in the A^-1 inner product (A = M + alpha L is symmetric positive
    # definite) the slope is -(|g_p|^2 - <c_p, g_p>^2 / |c_p|^2): negative by
    # Cauchy-Schwarz unless g_p is parallel to c_p, when the residual is zero
    slope = float((g * d).sum())
    if slope >= 0.0:
        raise StepCollapseError("no descent direction at current iterate")

    # guard against absurd first trials; Armijo handles the rest
    d_max = float(np.linalg.norm(d, axis=1).max())
    t = min(INITIAL_STEP, state.step / BACKTRACK_FACTOR,
            2.0 * state.target_edge / max(d_max, 1e-300))
    if state.iteration % 5 == 4:
        # a step parked at the line-search optimum leaves transverse modes
        # ringing at the edge of stability; a periodic half step damps
        # them hard at negligible cost to the slow directions
        t = min(t, 0.5 * state.step)
    while t >= MIN_STEP:
        x = _snap_boundary(x0 + t * d, mesh, state)
        m, ok = _restore_volume(mesh.with_vertices(x), state, restore)
        if ok and _at(m, state, energy=True).energy <= e0 + 1e-4 * t * slope:
            break
        t *= BACKTRACK_FACTOR
    else:
        raise StepCollapseError(
            f"line search failed below step {MIN_STEP:g} "
            f"(grad norm {grad_norm:.3e})")

    e_t = _at(m, state, energy=True).energy
    # when the realized decrease is curvature-limited, the step is riding
    # the stability boundary of the stiffest mode and plain backtracking
    # lets that mode ring; one quadratic interpolation lands near the
    # parabola vertex instead
    gain = (e0 - e_t) / max(t * (-slope), 1e-300)
    if gain < 0.49:
        t_ref = t / (2.0 * (1.0 - gain))
        x_ref = _snap_boundary(x0 + t_ref * d, mesh, state)
        m_ref, ok = _restore_volume(mesh.with_vertices(x_ref), state,
                                    restore)
        if ok and _at(m_ref, state, energy=True).energy < e_t:
            m, t = m_ref, t_ref
    state.step = t
    state.iteration += 1
    disp = float(np.linalg.norm(m.vertices - x0, axis=1).max())
    state._precond_stale += disp
    state.disp_since_remesh += disp
    p = _at(m, state, energy=True, volume=True)
    diag.update(step=t, displacement=disp, energy=p.energy, volume=p.volume)
    return m, diag


# --------------------------------------------------------------------------
# the shared engine


def _do_remesh(mesh: TriMesh, state: FlowState) -> TriMesh:
    """Remesh, rewet and restore the volume.  A remesh whose boundary loops
    cannot be wetted or whose restore is infeasible is rejected: the old
    mesh, operator and factor are kept.  Either way the displacement is
    counted afresh, so a rejected remesh is not retried every step."""
    op = state.operator
    new, _ = _remesh_with_stats(
        mesh, state.target_edge,
        boundary_sphere=None if op is None else op.sphere)
    if new is mesh:
        return mesh
    kept = (op, state._precond, state._precond_stale)
    state.disp_since_remesh = 0.0
    if op is not None:
        try:
            state.operator = make_wetting_operator(new, op.sphere, side=op.side)
        except GeometryError:
            return mesh
    # the restore's first volume and its gradient, in one face pass
    _at(new, state, volume=True, c=True)
    # the two resets do different jobs: the first keeps the old faces' factor
    # from serving the new faces (a remesh can keep the vertex count); the
    # second drops the restore's factor, taken before the correction moved
    # the mesh, so the next step refactors at the restored positions
    state._precond = None
    state._precond_stale = math.inf
    new, ok = _restore_volume(new, state)
    if not ok:
        state.operator, state._precond, state._precond_stale = kept
        return mesh
    state._precond = None
    state._precond_stale = math.inf
    return new


def _write_diag(sink, diag: dict, mesh: TriMesh, state: FlowState) -> None:
    """One JSON line per step; a non-finite or missing value is null.

    The line adds to ``flow_step``'s fields the report's spreads at
    ``mesh``, the step's start position: ``maxHdev`` (the law residual
    under the height law) and ``maxAngleDev`` (null on a pinned boundary).
    Nothing computes them without a sink.
    """
    if sink is None:
        return
    m = _measure(mesh, state)
    diag = dict(diag, maxHdev=m["h_dev"], maxAngleDev=m["angle_dev"])
    diag = {k: (None if isinstance(v, float) and not math.isfinite(v)
                else v) for k, v in diag.items()}
    sink.write(json.dumps(diag, sort_keys=True, allow_nan=False,
                          default=float) + "\n")


def _run_flow(mesh: TriMesh, config: SolveConfig, state: FlowState,
              sink=None) -> tuple[TriMesh, str]:
    """Drive flow_step to a stop; returns the mesh and the stop's name."""
    budget = config.max_iterations
    x = _snap_boundary(mesh.vertices.copy(), mesh, state)
    mesh, ok = _restore_volume(mesh.with_vertices(x), state)
    if not ok and not _volume_met(mesh, state):
        raise MeshDegeneracyError(
            "could not push the initial surface to the target volume")
    if not ok:
        raise SideViolationError(
            "the initial surface at the target volume crosses the substrate")
    # the entry correction can move vertices a long way
    state._precond_stale = math.inf
    stop = "budget"
    prev_e = None
    recent: list = []
    pinned = state.operator is None
    while True:
        cadence = state.iteration > 0 and state.iteration % REMESH_EVERY == 0
        # a face of the accepted position under the quality floor asks for
        # a remesh; a free contact line drifts at fixed connectivity, so a
        # free solve also remeshes on the cadence (on a pinned one that only
        # raised the pointwise H error).  A remesh waits until the mesh has
        # moved a fifth of an edge since the last (or a rejected) one; at
        # the budget's end no remesh runs
        poor = (state.iteration > 0
                and _at(mesh, state, energy=True).quality < QUALITY_FLOOR)
        if (state.iteration < budget and (poor or (cadence and not pinned))
                and state.disp_since_remesh > 0.2 * state.target_edge):
            mesh = _do_remesh(mesh, state)
            prev_e = None
            recent.clear()
        elif ((pinned and state.iteration > 0)
              or (cadence and state.iteration >= 2 * REMESH_EVERY)):
            # see if the measured physics already passes before grinding out
            # the last tangential modes.  A pinned solve tries after every
            # step: the check reads the gradients the next step computes
            # here anyway.  A free one tries on the cadence, once one
            # cadence remesh has settled
            if _measure(mesh, state)["pass"]:
                stop = "measured"
                break
        if state.iteration >= budget:
            break
        start = mesh
        try:
            mesh, diag = flow_step(mesh, state)
        except StepCollapseError:
            stop = "collapsed"
            break
        _write_diag(sink, diag, start, state)
        if diag["step"] == 0.0:  # flow_step's fixed point
            stop = "gradient"
            break
        if (prev_e is not None
                and diag["energy"] > prev_e + 1e-9 * (abs(prev_e) + 1)):
            raise SolverError(
                "energy increased across an accepted step; this is a bug")
        prev_e = diag["energy"]
        # past the area of the whole sphere of curvature H, 4 pi / H^2, the
        # pressure flow has left every cap behind and grows without bound
        if (state.pressure is not None and _at(mesh, state, energy=True).area
                * state.pressure ** 2 > 4.0 * math.pi):
            stop = "runaway"
            break
        recent.append(diag["energy"])
        if len(recent) > 20:
            recent.pop(0)
            if recent[0] - recent[-1] <= 1e-13 * (abs(recent[-1]) + 1.0):
                stop = "stalled"
                break
    return mesh, stop


def _measure(mesh: TriMesh, state: FlowState) -> dict:
    """Equilibrium measurement against which the converged flag is judged.

    Mean curvature comes from the variational estimator (energy gradient
    against volume gradient, pointwise): for this discrete energy that is
    the quantity which is exactly constant at a discrete equilibrium, so
    its spread measures distance from equilibrium without the 1/h^2 noise
    a stencil-fit estimator picks up from benign discretization wiggle.
    Under the height law (kappa != 0) the estimator already subtracts
    kappa z, so the deviation is the law residual about the position's own
    multiplier, the law constant mu; h_mean still reports the achieved mean
    of H itself.  Under a pinned target's pressure the deviation is taken
    about that H.  The result is kept on the position, so the stop check,
    the diagnostics line and the report there share it (callers must not
    change it).
    """
    p = _at(mesh, state, c=True, g=True)
    if p.measured is not None:
        return p.measured
    interior = ~mesh.boundary_vertex_mask
    q, ok = _pointwise_multiplier(p.g, p.c, interior)
    if q.size == 0:
        h_dev = h_mean = math.nan
    elif state.kappa != 0.0:
        h_dev = float(np.abs(q - _residual(mesh, state)[2]).max())
        h_mean = float((q + state.kappa * mesh.vertices[interior, 2][ok]).mean())
    elif state.pressure is not None:
        h_dev = float(np.abs(q).max())
        h_mean = float(q.mean()) + state.pressure
    else:
        h_mean = float(q.mean())
        h_dev = float(np.abs(q - h_mean).max())
    h_tol = H_DEV_FACTOR * (abs(h_mean) + state.h_scale)
    passed = h_dev <= h_tol
    angle_mean = angle_dev = None
    op = state.operator
    if op is not None:
        rep = contact_angle(mesh, op.sphere, side=op.side)
        angle_mean, angle_dev = rep.mean, rep.max_deviation
        passed = passed and angle_dev <= ANGLE_TOL
    p.measured = {"h_mean": h_mean, "h_dev": h_dev, "h_tol": h_tol,
                  "angle_mean": angle_mean, "angle_dev": angle_dev,
                  "pass": passed}
    return p.measured


def _config_for(mode: str, config: SolveConfig | None,
                sphere: Sphere | None = None,
                params: CapillaryParams | None = None) -> SolveConfig:
    """The config a solve in ``mode`` runs with: the caller's, checked
    against the mode and the solver's arguments, or the default one.

    The flow state is built from the config's substrate and parameters, so
    a config that disagrees with the arguments would solve another problem than the
    one whose init was built and whose substrate was checked.
    """
    if config is None:
        return SolveConfig(mode=mode, params=params, substrate=sphere)
    if config.mode != mode:
        raise ValueError(f"config.mode must be {mode!r}")
    if mode != "dirichlet_cmc":
        if config.params != params:
            raise ValueError("config.params differs from the params argument")
        if config.substrate != sphere:
            raise ValueError("config.substrate differs from the sphere argument")
    return config


def _solve(init: TriMesh, config: SolveConfig, target_volume: float | None,
           target_curvature: float | None) -> tuple[TriMesh, SolveReport]:
    """The path every solve takes once its arguments are checked: one flow.

    A pinned curvature target flows on A - 2 H V.  On a free boundary the
    volume is held, ``target_volume`` or the init's own when None, and a
    curvature target there only judges the final multiplier: a miss by more
    than ``MULTIPLIER_TOL_FACTOR`` replaces the stop with a message naming
    it, which does not converge."""
    state = init_flow_state(init, config, volume_target=target_volume)
    if target_curvature is not None and state.operator is None:
        state.pressure = float(target_curvature)
    with (contextlib.nullcontext() if config.diagnostics_path is None
          else open(config.diagnostics_path, "w")) as sink:
        mesh, stop = _run_flow(init, config, state, sink)
    p = _at(mesh, state, energy=True, volume=True)
    m = _measure(mesh, state)
    _, _, mu, grad_norm = _residual(mesh, state)
    if target_curvature is not None and state.operator is not None:
        tol = MULTIPLIER_TOL_FACTOR * (abs(target_curvature) + state.h_scale)
        if not abs(mu - target_curvature) <= tol:
            stop = (f"missed curvature target {target_curvature:.6g}: "
                    f"multiplier {mu:.6g} at stop {stop!r}")
    return mesh, SolveReport(
        converged=stop in ("gradient", "stalled", "collapsed", "measured")
        and m["pass"],
        iterations=state.iteration,
        final_energy=p.area if state.operator is None else p.energy,
        h_mean=m["h_mean"],
        h_max_deviation=m["h_dev"],
        volume=p.volume,
        multiplier=mu,
        contact_angle_mean=m["angle_mean"],
        contact_angle_max_deviation=m["angle_dev"],
        grad_norm=grad_norm,
        message=stop,
    )


# --------------------------------------------------------------------------
# the three public solvers


def solve_dirichlet_cmc(boundary: np.ndarray, init: TriMesh,
                        config: SolveConfig | None = None, *,
                        target_volume: float | None = None,
                        target_mean_curvature: float | None = None
                        ) -> tuple[TriMesh, SolveReport]:
    """Constant-H surface spanning the pinned polyline ``boundary``.

    Exactly one of target_volume / target_mean_curvature selects the
    problem: either the enclosed (divergence) volume is fixed, or the flow
    minimizes A - 2 H V, unconstrained, and finds the small (stable) surface:
    on a circle of radius rho that needs |H| < 1 / rho, and a larger target
    ends unconverged on "runaway".  The init mesh's winding fixes which side
    is up, and its boundary vertices must be ``boundary``; they never move.
    """
    config = _config_for("dirichlet_cmc", config)
    if (target_volume is None) == (target_mean_curvature is None):
        raise ValueError(
            "exactly one of target_volume / target_mean_curvature is required")
    boundary = np.asarray(boundary, dtype=float)
    bpts = init.vertices[init.boundary_vertex_mask]
    scale = max(init.bbox_diagonal(), 1e-30)
    if len(bpts) != len(boundary):
        raise ValueError(
            f"init mesh boundary has {len(bpts)} vertices, the prescribed "
            f"curve has {len(boundary)}; the init mesh must span the curve")
    d2 = ((boundary[:, None, :] - bpts[None, :, :]) ** 2).sum(-1)
    if math.sqrt(float(d2.min(axis=1).max())) > 1e-8 * scale:
        raise ValueError("init mesh boundary does not lie on the prescribed "
                         "curve; the init mesh must span it")
    return _solve(init, config, target_volume, target_mean_curvature)


def _exterior_drop_at(rho: float, theta: float, gamma: float):
    """Exterior drop meeting the substrate at contact polar angle ``theta``
    with contact angle ``gamma``.

    The carrier's centre (0, 0, d) and radius R follow from the law of
    sines in the meridian triangle (origin, contact point, carrier centre):
    d = rho sin(gamma) / sin(theta + gamma) and R = rho sin(theta) /
    sin(theta + gamma), so a carrier exists for 0 < gamma < pi - theta.
    """
    if not 0.0 < gamma < math.pi - theta:
        raise DegenerateConfigurationError(
            "an exterior drop at this contact polar angle needs a contact "
            "angle in (0, pi - contact polar angle)")
    s = math.sin(theta + gamma)
    return exterior_drop_cap(rho, rho * math.sin(gamma) / s,
                             rho * math.sin(theta) / s)


def _cap_drop(sphere: Sphere, params: CapillaryParams):
    """The closed-form cap drop with the requested volume or mean curvature.

    A volume target bisects the contact polar angle theta.  A curvature
    target H inverts R = 1/|H| for theta, with k = R/rho: theta = atan2(k sin
    gamma, 1 + k cos gamma) for an interior bulge (H > 0), atan2(k sin gamma,
    k cos gamma - 1) for an interior meniscus (H < 0) and atan2(k sin gamma,
    1 - k cos gamma) for an exterior drop, whose H = 1/R is always positive.
    """
    rho, gamma = sphere.radius, params.gamma

    def drop_at(theta):
        if params.side == "interior":
            return interior_drop_cap(rho, theta, gamma)
        return _exterior_drop_at(rho, theta, gamma)

    if params.target_volume is not None:
        lo, hi = 0.05, math.pi - 0.05
        if params.side == "exterior":
            # the drop's volume grows without bound as the contact polar
            # angle nears pi - gamma, where the carrier flattens to a plane
            hi = min(hi, math.pi - gamma)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            try:
                if drop_at(mid).volume < params.target_volume:
                    lo = mid
                else:
                    hi = mid
            except DegenerateConfigurationError:
                lo = mid
        return drop_at(0.5 * (lo + hi))
    h = params.target_curvature
    if h == 0.0 or (h < 0.0 and params.side == "exterior"):
        raise DegenerateConfigurationError(
            f"no {params.side} cap drop has mean curvature {h:g}")
    k_sin = math.sin(gamma) / (abs(h) * rho)
    k_cos = math.cos(gamma) / (abs(h) * rho)
    if params.side == "exterior":
        theta = math.atan2(k_sin, 1.0 - k_cos)
    elif h > 0.0:
        theta = math.atan2(k_sin, 1.0 + k_cos)
    else:
        theta = math.atan2(k_sin, k_cos - 1.0)
    return drop_at(theta)


def _default_capillary_init(sphere: Sphere, params: CapillaryParams,
                            n_angular: int = 96) -> TriMesh:
    """``_cap_drop`` meshed with ``n_angular`` samples on its contact loop."""
    return _cap_drop(sphere, params).free_surface_mesh(n_angular)


def solve_capillary(sphere: Sphere, params: CapillaryParams,
                    init: TriMesh | None = None,
                    config: SolveConfig | None = None
                    ) -> tuple[TriMesh, SolveReport]:
    """Fixed-volume drop on a sphere; the contact angle emerges from the
    minimization rather than being enforced.

    The boundary slides tangentially on the substrate.  A
    ``target_curvature`` H with the contact angle fixes one cap, the stable
    capillary surface, so the solve holds that cap's volume: the default
    init is the cap meshed and keeps its own volume, a caller's init is
    moved to the closed-form one.  The report's multiplier (= mean
    curvature) is then judged against H.
    """
    _require_origin_centered(sphere)
    config = _config_for("capillary", config, sphere, params)
    volume = params.target_volume
    if init is None:
        init = _default_capillary_init(sphere, params)
    elif volume is None:
        volume = _cap_drop(sphere, params).volume
    return _solve(init, config, volume, params.target_curvature)


def solve_prescribed_height_curvature(sphere: Sphere, params: CapillaryParams,
                                      init: TriMesh | None = None,
                                      config: SolveConfig | None = None
                                      ) -> tuple[TriMesh, SolveReport]:
    """Equilibrium under the height-linear curvature law H = kappa z + mu.

    Requires kappa > 0, a ``target_volume`` and the initial boundary
    strictly inside the upper open hemisphere of the substrate.  The law
    constant mu emerges and is reported as the multiplier; a
    ``target_curvature`` is rejected, since mu fixes no closed-form volume.
    """
    _require_origin_centered(sphere)
    config = _config_for("prescribed_height_curvature", config, sphere, params)
    if init is None:
        init = _default_capillary_init(sphere, params)
    bz = init.vertices[init.boundary_vertex_mask, 2]
    if not (bz > 1e-12 * sphere.radius).all():
        raise ValueError("the boundary must lie in the upper open hemisphere "
                         "of the substrate")
    return _solve(init, config, params.target_volume, None)
