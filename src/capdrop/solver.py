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
restore iterate needs only its volume.

Every position the flow visits is evaluated by one face pass
(``_face_pass``): the face corners are gathered once, and their cross
products give the area, the divergence volume, the worst face quality and,
on demand, the area gradient (half the unit face normal crossed with the
edge opposite each corner: the cotangent formula, written with the normal
the area needs anyway) and the volume gradient, which leave through one
scatter.  The wetting operator's circulations run once per position too.
The values are kept with the mesh of that position, tagged with the flow
state, so each is computed at most once; the per-face arrays are not kept.
The Sobolev preconditioner M + alpha L is symmetric positive definite and
is factored with a symmetric ordering and diagonal pivots.

Three modes share the engine.  ``dirichlet_cmc`` pins the boundary polyline
and drops the wetting terms; ``capillary`` lets boundary vertices slide
tangentially on the substrate sphere; ``prescribed_height_curvature`` adds
the kappa term and requires the boundary in the upper open hemisphere.
The three ``solve_*`` entry points check their own arguments and then take
one shared path: a fixed volume runs the flow once, a curvature target runs
a secant on the volume around it.

``SolveConfig`` holds what a caller may set: ``mode``, ``params`` and
``substrate`` (both required outside ``dirichlet_cmc``), ``max_iterations``,
``remesh_every`` (0 turns off the periodic remesh and the early measured
stop; a remesh still runs when quality demands it) and ``diagnostics_path``
(one JSON line per flow step).  Step sizes, tolerances and the quality floor
are the module constants below; the remesher's target edge length and the
Sobolev length (a quarter of the bounding-box diagonal, fixed for the
solve) come from the init mesh.

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

__all__ = [
    "MODES",
    "SolveConfig",
    "SolveReport",
    "FlowState",
    "init_flow_state",
    "flow_step",
    "solve_dirichlet_cmc",
    "solve_capillary",
    "solve_prescribed_height_curvature",
]

MODES = ("dirichlet_cmc", "capillary", "prescribed_height_curvature")


# fixed knobs of the flow
INITIAL_STEP = 1.0
BACKTRACK_FACTOR = 0.5
MIN_STEP = 1e-14
GRAD_TOL_FACTOR = 1e-8         # stop when |proj grad| <= factor * area
H_DEV_FACTOR = 1e-3            # H constancy: factor * (|H| + H scale)
ANGLE_TOL = math.radians(1.0)
MULTIPLIER_TOL_FACTOR = 5e-4   # curvature targets: factor * (|H| + H scale)
QUALITY_FLOOR = 0.08           # a step below this quality asks for a remesh


@dataclass
class SolveConfig:
    """Knobs of one solve; every field has a sane default except ``mode``."""

    mode: str
    params: CapillaryParams | None = None
    substrate: Sphere | None = None
    max_iterations: int = 2000
    remesh_every: int = 25
    diagnostics_path: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.remesh_every < 0:
            raise ValueError("remesh_every must be at least 0")
        if self.mode != "dirichlet_cmc":
            if self.substrate is None:
                raise ValueError(f"{self.mode} mode needs a substrate sphere")
            if self.params is None:
                raise ValueError(f"{self.mode} mode needs CapillaryParams")


@dataclass
class SolveReport:
    """Outcome of a solve.

    ``h_mean`` / ``h_max_deviation`` use the variational curvature estimator
    (energy gradient against volume gradient) in the toward-the-drop
    convention; in prescribed-height-curvature mode the deviation is the
    residual of the law H = kappa z + mu instead of the spread about the
    mean.  ``multiplier`` is lambda/2 from the final iterate.  If
    ``converged`` is true the deviation fields passed their tolerances.
    """

    converged: bool
    iterations: int
    final_energy: float
    h_mean: float
    h_max_deviation: float
    volume: float
    multiplier: float
    multiplier_history: list = field(default_factory=list)
    contact_angle_mean: float | None = None
    contact_angle_max_deviation: float | None = None
    grad_norm: float = math.nan
    message: str = ""


@dataclass
class FlowState:
    """Mutable per-solve scratch carried between flow steps."""

    volume_target: float
    gamma: float
    kappa: float
    operator: WettingOperator | None
    substrate: Sphere | None
    pinned: np.ndarray
    free_boundary: bool
    side_sign: int
    target_edge: float
    sobolev_alpha: float
    step: float
    iteration: int = 0
    multiplier: float = math.nan
    multiplier_history: list = field(default_factory=list)
    needs_remesh: bool = False
    side_violation_streak: int = 0
    disp_since_remesh: float = math.inf
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
    solve's operator, gamma or kappa.  Only scalars and vertex gradients are
    kept, never the per-face arrays of the pass.
    """

    __slots__ = ("key", "area", "energy", "volume", "quality", "c", "g",
                 "wet", "wet_grad")

    def __init__(self, key):
        self.key = key
        self.area = self.energy = self.volume = self.quality = None
        self.c = self.g = self.wet = self.wet_grad = None


def _at(m: TriMesh, state: FlowState, *, energy: bool = False,
        volume: bool = False, c: bool = False, g: bool = False) -> _Position:
    """The flow's values at ``m``'s positions, computing in one face pass
    whichever of the requested ones are not known yet: ``energy`` (with the
    surface area and the worst face quality), ``volume``, and the volume
    and energy gradients ``c`` and ``g``."""
    p = m._cache.get("flow")
    if p is None or p.key is not state._key:
        p = m._cache["flow"] = _Position(state._key)
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
        p.energy = e
    if volume:
        vol = float(np.einsum("ij,ij->i", a, bc).sum() / 6.0)
        if op is not None:
            vol += vol_per_wet * p.wet
        p.volume = vol
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
        p.g = gr
    # every later request at this position gets these same arrays
    for arr in (p.c, p.g, p.wet_grad):
        if arr is not None:
            arr.flags.writeable = False


def _energy_volume(m: TriMesh, state: FlowState) -> tuple[float, float]:
    p = _at(m, state, energy=True, volume=True)
    return p.energy, p.volume


# --------------------------------------------------------------------------
# constraint plumbing


def _project_rows(arr: np.ndarray, m: TriMesh, state: FlowState) -> np.ndarray:
    out = arr.copy()
    out[state.pinned] = 0.0
    if state.free_boundary:
        bmask = m.boundary_vertex_mask
        n = state.substrate.outward_normals(m.vertices[bmask])
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


def _restore_volume(m: TriMesh, state: FlowState,
                    direction: tuple[np.ndarray, float] | None = None,
                    rel_tol: float = 1e-12,
                    max_iter: int = 30) -> tuple[TriMesh, bool]:
    """Chord iteration along a fixed field onto the volume constraint;
    returns the corrected mesh and whether the constraint was met.

    ``direction`` is the ``(u, slope)`` of ``_restore_direction``: a flow
    step passes the one it solved for at its start position, every other
    caller has it derived at ``m``.  The slope stays fixed, so an iterate
    asks only for its volume, and an iterate reached by a move asks for its
    energy in the same face pass, where the line search's Armijo test finds
    it.

    A free boundary moves along tangents of the substrate, which leave it
    at second order, so every iterate is snapped back onto it."""
    u, slope = _restore_direction(m, state) if direction is None else direction
    if slope <= 0.0:
        return m, False
    tol = rel_tol * max(1.0, abs(state.volume_target))
    p = _at(m, state, volume=True)
    for _ in range(max_iter):
        r = state.volume_target - p.volume
        if abs(r) <= tol:
            return m, True
        m = m.with_vertices(
            _snap_boundary(m.vertices + (r / slope) * u, m, state))
        p = _at(m, state, energy=True, volume=True)
    return m, abs(state.volume_target - p.volume) <= tol


def _snap_boundary(x: np.ndarray, conn: TriMesh, state: FlowState) -> np.ndarray:
    if state.free_boundary:
        bmask = conn.boundary_vertex_mask
        x = x.copy()
        x[bmask] = state.substrate.project(x[bmask])
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
    L = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))
    return L


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
    if state.pinned.any():
        free = sparse.diags((~state.pinned).astype(float))
        A = free @ A @ free + sparse.diags(state.pinned.astype(float))
    # A is symmetric positive definite: a symmetric ordering and diagonal
    # pivots give a sparser factor than the default column ordering
    state._precond = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                          diag_pivot_thresh=0.001,
                          options={"SymmetricMode": True})
    state._precond_stale = 0.0
    return state._precond


# --------------------------------------------------------------------------
# diagnostics helpers


def _pointwise_multiplier(g: np.ndarray, c: np.ndarray,
                          interior: np.ndarray):
    """Variational curvature estimate from the assembled gradients.

    For interior vertices the energy gradient is 2(H - kappa z) m n and the
    volume gradient is m n, so their pointwise ratio is constant at any
    equilibrium of any mode (it equals the multiplier).  Returns that ratio
    and the mask, over the interior vertices, where it is defined.
    """
    cn2 = (c[interior] ** 2).sum(1)
    ok = cn2 > 1e-300
    return (g[interior][ok] * c[interior][ok]).sum(1) / (2.0 * cn2[ok]), ok


def _cheap_angle_stats(m: TriMesh, state: FlowState):
    if not state.free_boundary:
        return math.nan
    bmask = m.boundary_vertex_mask
    n = m.vertex_normals[bmask]
    s = state.substrate.outward_normals(m.vertices[bmask]) * state.side_sign
    ang = np.arccos(np.clip(-(n * s).sum(1), -1.0, 1.0))
    return float(np.abs(ang - ang.mean()).max())


# --------------------------------------------------------------------------
# state construction and the step


def init_flow_state(mesh: TriMesh, config: SolveConfig,
                    volume_target: float | None = None) -> FlowState:
    """Bind a flow state to a mesh: wetting operator, masks, preconditioner."""
    dirichlet = config.mode == "dirichlet_cmc"
    operator = None
    side_sign = 1
    gamma = math.pi / 2.0
    kappa = 0.0
    if not dirichlet:
        p = config.params
        gamma = p.gamma
        side_sign = 1 if p.side == "interior" else -1
        operator = make_wetting_operator(mesh, config.substrate, side=p.side)
        if config.mode == "prescribed_height_curvature":
            kappa = p.kappa
    pinned = (mesh.boundary_vertex_mask.copy()
              if dirichlet else np.zeros(mesh.n_vertices, dtype=bool))
    state = FlowState(
        volume_target=0.0,
        gamma=gamma,
        kappa=kappa,
        operator=operator,
        substrate=config.substrate,
        pinned=pinned,
        free_boundary=not dirichlet,
        side_sign=side_sign,
        target_edge=mean_edge_length(mesh),
        sobolev_alpha=(0.25 * mesh.bbox_diagonal()) ** 2,
        step=INITIAL_STEP,
    )
    if volume_target is None:
        volume_target = _at(mesh, state, volume=True).volume
    state.volume_target = float(volume_target)
    return state


def flow_step(mesh: TriMesh, config: SolveConfig,
              state: FlowState) -> tuple[TriMesh, dict]:
    """One volume-preserving descent step; returns the new mesh and a
    JSON-ready diagnostics dict.

    The dict holds ``iteration``, ``gradNorm`` and ``multiplier`` at the
    start position and ``energy``, ``volume``, ``step``, ``displacement``
    and ``sideViolations`` of the accepted one (``step`` 0 when the step
    did not move).  The diagnostics file adds the spreads ``maxHdev`` and
    ``maxAngleDev`` at the start position (see ``_write_diag``).

    One preconditioner solve gives the descent direction and the field
    along which every trial of the line search is restored to the volume.
    A critical point is a fixed point: when the projected gradient norm is
    already below the stopping threshold the mesh is returned unchanged.
    Raises StepCollapseError when backtracking cannot find descent away
    from a critical point.
    """
    x0 = mesh.vertices
    p = _at(mesh, state, energy=True, volume=True, c=True, g=True)
    area, e0, v0, g, c = p.area, p.energy, p.volume, p.g, p.c
    g_proj = _project_rows(g, mesh, state)
    c_proj = _project_rows(c, mesh, state)
    cc = float((c_proj * c_proj).sum())
    lam = float((g_proj * c_proj).sum()) / cc if cc > 0 else 0.0
    grad_norm = float(np.linalg.norm(g_proj - lam * c_proj))
    state.multiplier = 0.5 * lam
    state.multiplier_history.append(state.multiplier)

    diag = {
        "iteration": state.iteration,
        "energy": e0,
        "volume": v0,
        "multiplier": state.multiplier,
        "gradNorm": grad_norm,
        "step": 0.0,
        "displacement": 0.0,
        "sideViolations": 0,
    }
    if grad_norm <= GRAD_TOL_FACTOR * area:
        state.iteration += 1
        return mesh, diag

    lu = _preconditioner(mesh, state)
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
    accepted = None
    while t >= MIN_STEP:
        x = _snap_boundary(x0 + t * d, mesh, state)
        m, ok = _restore_volume(mesh.with_vertices(x), state, restore)
        if ok:
            e_t, v_t = _energy_volume(m, state)
            if e_t <= e0 + 1e-4 * t * slope:
                accepted = (m, e_t, v_t, t)
                break
        t *= BACKTRACK_FACTOR
    if accepted is None:
        raise StepCollapseError(
            f"line search failed below step {MIN_STEP:g} "
            f"(grad norm {grad_norm:.3e})")

    m, e_t, v_t, t = accepted
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
        if ok:
            e_ref, v_ref = _energy_volume(m_ref, state)
            if e_ref < e_t:
                m, e_t, v_t, t = m_ref, e_ref, v_ref, t_ref
    state.step = t
    state.iteration += 1

    violations = 0
    if state.free_boundary:
        interior = ~mesh.boundary_vertex_mask
        x = m.vertices
        sd = state.substrate.signed_distance(x[interior]) * state.side_sign
        bad = sd > 1e-7 * state.substrate.radius
        violations = int(bad.sum())
        if violations:
            idx = np.where(interior)[0][bad]
            pull = state.substrate.project(x[idx])
            centered = pull - state.substrate.center
            x = x.copy()
            x[idx] = (state.substrate.center
                      + centered * (1.0 - state.side_sign * 1e-9))
            m, _ = _restore_volume(mesh.with_vertices(x), state, restore)
            e_t, v_t = _energy_volume(m, state)
        state.side_violation_streak = (state.side_violation_streak + 1
                                       if violations else 0)

    if _at(m, state, energy=True).quality < QUALITY_FLOOR:
        state.needs_remesh = True

    disp = float(np.linalg.norm(m.vertices - x0, axis=1).max())
    state._precond_stale += disp
    state.disp_since_remesh += disp
    diag.update(step=t, displacement=disp, energy=e_t, volume=v_t,
                sideViolations=violations)
    return m, diag


# --------------------------------------------------------------------------
# the shared engine


def _do_remesh(mesh: TriMesh, config: SolveConfig,
               state: FlowState) -> tuple[TriMesh, FlowState]:
    dirichlet = not state.free_boundary
    new, _ = _remesh_with_stats(
        mesh, state.target_edge,
        preserve_boundary_edges=dirichlet,
        boundary_sphere=None if dirichlet else state.substrate)
    if new is mesh:
        state.needs_remesh = False
        return mesh, state
    if state.operator is not None:
        try:
            state.operator = make_wetting_operator(new, config.substrate,
                                                   side=config.params.side)
        except GeometryError:
            # the new boundary loops cannot be wetted (for example their
            # closure would self-intersect): keep the old mesh, operator,
            # pinned mask and factor, and count the displacement afresh so
            # the remesh is not retried every step
            state.needs_remesh = False
            state.disp_since_remesh = 0.0
            return mesh, state
    if dirichlet:
        state.pinned = new.boundary_vertex_mask.copy()
    else:
        state.pinned = np.zeros(new.n_vertices, dtype=bool)
    # evaluate the restore's first position before the old factor is
    # dropped, so the new faces' gradient scatter is built while that factor
    # still holds its memory: where long-lived arrays land between
    # factorizations moves the peak memory of a 16k-vertex solve under glibc
    # malloc (by up to 25% in earlier measurements)
    _at(new, state, volume=True, c=True)
    # the two resets do different jobs: the first keeps the old faces' factor
    # from serving the new faces (a remesh can keep the vertex count) and
    # frees it before the restore factors anew; the second drops the
    # restore's factor, taken before the correction moved the mesh, so the
    # next step refactors at the restored positions
    state._precond = None
    state._precond_stale = math.inf
    new, _ = _restore_volume(new, state)
    state.needs_remesh = False
    state.disp_since_remesh = 0.0
    state._precond = None
    state._precond_stale = math.inf
    return new, state


def _write_diag(sink, diag: dict, mesh: TriMesh, state: FlowState) -> None:
    """One JSON line per step; a non-finite value is written as null.

    The line adds to ``flow_step``'s fields the spreads at ``mesh``, the
    step's start position, read from the gradients the step left there:
    ``maxHdev`` of the pointwise multiplier over the interior vertices and,
    on a free boundary, ``maxAngleDev`` of the normals' angles to the
    substrate (NaN on a pinned one).  Nothing computes them without a sink.
    """
    if sink is None:
        return
    p = _at(mesh, state, c=True, g=True)
    q, _ = _pointwise_multiplier(p.g, p.c, ~mesh.boundary_vertex_mask)
    h_dev = float(np.abs(q - q.mean()).max()) if q.size else math.nan
    diag = dict(diag, maxHdev=h_dev, maxAngleDev=_cheap_angle_stats(mesh, state))
    diag = {k: (None if isinstance(v, float) and not math.isfinite(v)
                else v) for k, v in diag.items()}
    sink.write(json.dumps(diag, sort_keys=True, allow_nan=False,
                          default=float) + "\n")


def _run_flow(mesh: TriMesh, config: SolveConfig, state: FlowState,
              sink=None, iteration_budget: int | None = None) -> tuple[TriMesh, dict]:
    """Drive flow_step to convergence; returns the mesh and a stop record."""
    budget = iteration_budget or config.max_iterations
    x = _snap_boundary(mesh.vertices.copy(), mesh, state)
    mesh, ok = _restore_volume(mesh.with_vertices(x), state)
    if not ok:
        raise MeshDegeneracyError(
            "could not push the initial surface to the target volume")
    # the entry correction can move vertices a long way
    state._precond_stale = math.inf
    area = _at(mesh, state, energy=True).area
    grad_norm = math.inf
    stop = "budget"
    steps = 0
    prev_e = None
    recent: list = []
    while steps < budget:
        cadence = (config.remesh_every > 0 and steps > 0
                   and steps % config.remesh_every == 0)
        # a remesh, asked for by the cadence or by a poor face, waits until
        # the mesh has moved a fifth of an edge since the last one (or since
        # a rejected one), so a rejected remesh is not retried every step
        if ((cadence or state.needs_remesh)
                and state.disp_since_remesh > 0.2 * state.target_edge):
            mesh, state = _do_remesh(mesh, config, state)
            area = _at(mesh, state, energy=True).area
            prev_e = None
            recent.clear()
        elif cadence and steps >= 2 * config.remesh_every:
            # the mesh has settled; see if the measured physics already
            # passes before grinding out the last tangential modes, judging
            # the height law about the flow's own multiplier, as the report
            # of a fixed-volume solve does
            if _measure(mesh, config, state, state.multiplier)["pass"]:
                stop = "measured"
                break
        start = mesh
        try:
            mesh, diag = flow_step(mesh, config, state)
        except StepCollapseError:
            stop = "stalled"
            break
        steps += 1
        grad_norm = diag["gradNorm"]
        _write_diag(sink, diag, start, state)
        if (prev_e is not None and diag["step"] > 0
                and diag["energy"] > prev_e + 1e-9 * (abs(prev_e) + 1)):
            raise SolverError(
                "energy increased across an accepted step; this is a bug")
        prev_e = diag["energy"]
        if grad_norm <= GRAD_TOL_FACTOR * area:
            stop = "gradient"
            break
        recent.append(diag["energy"])
        if len(recent) > 20:
            recent.pop(0)
            if recent[0] - recent[-1] <= 1e-13 * (abs(recent[-1]) + 1.0):
                stop = "stalled"
                break
        if state.free_boundary and state.side_violation_streak > 50:
            raise SideViolationError(
                "surface kept crossing the substrate sphere for more than "
                "50 consecutive steps")
    return mesh, {"stop": stop, "steps": steps, "grad_norm": grad_norm}


def _h_scale(state: FlowState, mesh: TriMesh) -> float:
    if state.substrate is not None:
        return 1.0 / state.substrate.radius
    return 2.0 / mesh.bbox_diagonal()


def _measure(mesh: TriMesh, config: SolveConfig, state: FlowState,
             mu_for_law: float) -> dict:
    """Equilibrium measurement against which the converged flag is judged.

    Mean curvature comes from the variational estimator (energy gradient
    against volume gradient, pointwise): for this discrete energy that is
    the quantity which is exactly constant at a discrete equilibrium, so
    its spread measures distance from equilibrium without the 1/h^2 noise
    a stencil-fit estimator picks up from benign discretization wiggle.
    In the height-law mode the estimator already subtracts kappa z, so the
    deviation is the law residual about the law constant ``mu_for_law``
    (the other modes ignore it); h_mean still reports the achieved mean of
    H itself.
    """
    x = mesh.vertices
    p = _at(mesh, state, c=True, g=True)
    g, c = p.g, p.c
    interior = ~mesh.boundary_vertex_mask
    q, ok = _pointwise_multiplier(g, c, interior)
    if q.size == 0:
        q_mean, h_dev, h_mean = math.nan, math.nan, math.nan
    else:
        q_mean = float(q.mean())
        if config.mode == "prescribed_height_curvature":
            h_dev = float(np.abs(q - mu_for_law).max())
            h_mean = float((q + state.kappa
                            * x[interior, 2][ok]).mean())
        else:
            h_dev = float(np.abs(q - q_mean).max())
            h_mean = q_mean
    h_tol = H_DEV_FACTOR * (abs(h_mean) + _h_scale(state, mesh))
    passed = h_dev <= h_tol
    angle_mean = angle_dev = None
    if state.free_boundary:
        rep = contact_angle(mesh, state.substrate, side=config.params.side)
        angle_mean = rep.mean
        angle_dev = rep.max_deviation
        passed = passed and angle_dev <= ANGLE_TOL
    return {"h_mean": h_mean, "h_dev": h_dev, "h_tol": h_tol,
            "angle_mean": angle_mean, "angle_dev": angle_dev, "pass": passed}


def _final_report(mesh: TriMesh, config: SolveConfig, state: FlowState,
                  info: dict, mu_for_law: float) -> SolveReport:
    e, vol = _energy_volume(mesh, state)
    m = _measure(mesh, config, state, mu_for_law)
    converged = info["stop"] in ("gradient", "stalled", "measured") and m["pass"]
    return SolveReport(
        converged=converged,
        iterations=state.iteration,
        final_energy=e,
        h_mean=m["h_mean"],
        h_max_deviation=m["h_dev"],
        volume=vol,
        multiplier=state.multiplier,
        multiplier_history=list(state.multiplier_history),
        contact_angle_mean=m["angle_mean"],
        contact_angle_max_deviation=m["angle_dev"],
        grad_norm=info["grad_norm"],
        message=info["stop"],
    )


def _tune_volume(mesh: TriMesh, config: SolveConfig, state: FlowState,
                 target: float, sink) -> tuple[TriMesh, dict]:
    """Outer secant on the volume target until lambda/2 matches ``target``.

    A solve that ends with the multiplier off the target stops on a message
    naming the missed target, not on what the last inner flow stopped on."""
    tol = MULTIPLIER_TOL_FACTOR * (abs(target) + _h_scale(state, mesh))
    inner = max(50, config.max_iterations // 10)
    total = 0
    v_prev = m_prev = None
    v_cur = state.volume_target
    info = {"stop": "budget", "steps": 0, "grad_norm": math.inf}
    for _ in range(24):
        state.volume_target = v_cur
        mesh, _ = _restore_volume(mesh, state)
        budget = min(inner, config.max_iterations - total)
        if budget <= 0:
            break
        mesh, info = _run_flow(mesh, config, state, sink, budget)
        total += info["steps"]
        m_cur = state.multiplier
        if abs(m_cur - target) <= tol and info["stop"] != "budget":
            info["stop"] = "gradient"
            return mesh, info
        if m_prev is None or m_cur == m_prev:
            # growing a negative volume's magnitude lowers the volume
            grow = (m_cur < target) == (v_cur > 0)
            v_next = v_cur * (1.06 if grow else 1.0 / 1.06)
        else:
            v_next = v_cur + (target - m_cur) * (v_cur - v_prev) / (m_cur - m_prev)
            lo, hi = sorted((0.4 * v_cur, 2.5 * v_cur))
            v_next = min(max(v_next, lo), hi)
        v_prev, m_prev = v_cur, m_cur
        v_cur = v_next
    if not abs(state.multiplier - target) <= tol:
        info["stop"] = (f"missed curvature target {target:.6g}: multiplier "
                        f"{state.multiplier:.6g} after inner stop "
                        f"{info['stop']!r}")
    return mesh, info


def _config_for(mode: str, config: SolveConfig | None,
                sphere: Sphere | None = None,
                params: CapillaryParams | None = None) -> SolveConfig:
    """The config a solve in ``mode`` runs with: the caller's, checked
    against the mode and the solver's arguments, or the default one.

    The flow reads the substrate and parameters from the config, so a config
    that disagrees with the arguments would solve another problem than the
    one whose init was built and whose substrate was checked.
    """
    if config is None:
        return SolveConfig(mode=mode, params=params, substrate=sphere)
    if config.mode != mode:
        raise ValueError(f"config.mode must be {mode!r}")
    if mode != "dirichlet_cmc":
        if config.params != params:
            raise ValueError("config.params differs from the params argument")
        # not Sphere ==, which raises on the ndarray centres
        sub = config.substrate
        if not (sub.radius == sphere.radius
                and np.array_equal(sub.center, sphere.center)):
            raise ValueError("config.substrate differs from the sphere argument")
    return config


def _solve(init: TriMesh, config: SolveConfig, target_volume: float | None,
           target_curvature: float | None) -> tuple[TriMesh, SolveReport]:
    """The path every solve takes once its arguments are checked: a fixed
    volume runs the flow once, a curvature target runs the volume tuner
    around it."""
    state = init_flow_state(init, config, volume_target=target_volume)
    with (contextlib.nullcontext() if config.diagnostics_path is None
          else open(config.diagnostics_path, "w")) as sink:
        if target_curvature is None:
            mesh, info = _run_flow(init, config, state, sink)
        else:
            mesh, info = _tune_volume(init, config, state, target_curvature,
                                      sink)
    # only the height-law mode reads the law constant: the target when one
    # is set, else the multiplier the flow ended on
    mu_for_law = (state.multiplier if target_curvature is None
                  else target_curvature)
    return mesh, _final_report(mesh, config, state, info, mu_for_law)


# --------------------------------------------------------------------------
# the three public solvers


def solve_dirichlet_cmc(boundary: np.ndarray, init: TriMesh,
                        config: SolveConfig | None = None, *,
                        target_volume: float | None = None,
                        target_mean_curvature: float | None = None
                        ) -> tuple[TriMesh, SolveReport]:
    """Constant-H surface spanning the pinned polyline ``boundary``.

    Exactly one of target_volume / target_mean_curvature selects the
    constraint: either the enclosed (divergence) volume is fixed, or the
    volume is tuned until the equilibrium multiplier matches the target H.
    The init mesh must have ``boundary`` as its boundary vertex set; those
    vertices never move.
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

    The carrier passes through the contact circle, so its radius follows
    from its centre height d; the contact angle rises monotonically from 0
    to pi - theta as d grows from 0, and d is found by bisection.
    """
    if not 0.0 < gamma < math.pi - theta:
        raise DegenerateConfigurationError(
            "an exterior drop at this contact polar angle needs a contact "
            "angle in (0, pi - contact polar angle)")

    def drop(d):
        return exterior_drop_cap(
            rho, d, math.hypot(rho * math.sin(theta), d - rho * math.cos(theta)))

    lo, hi = 0.0, rho
    while drop(hi).gamma < gamma:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if drop(mid).gamma < gamma:
            lo = mid
        else:
            hi = mid
    return drop(0.5 * (lo + hi))


def _default_capillary_init(sphere: Sphere, params: CapillaryParams,
                            n_angular: int = 96):
    """Analytic cap roughly matching the requested volume or curvature."""
    def drop_at(theta):
        if params.side == "interior":
            return interior_drop_cap(sphere.radius, theta, params.gamma)
        return _exterior_drop_at(sphere.radius, theta, params.gamma)

    if params.target_volume is not None:
        lo, hi = 0.05, math.pi - 0.05
        if params.side == "exterior":
            # the drop's volume grows without bound as the contact polar
            # angle nears pi - gamma, where the carrier flattens to a plane
            hi = min(hi, math.pi - params.gamma)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            try:
                if drop_at(mid).volume < params.target_volume:
                    lo = mid
                else:
                    hi = mid
            except DegenerateConfigurationError:
                lo = mid
        drop = drop_at(0.5 * (lo + hi))
    else:
        target_r = 1.0 / max(abs(params.target_curvature), 1e-9)
        best, best_err = None, math.inf
        for theta in np.linspace(0.08, math.pi - 0.08, 120):
            try:
                d = drop_at(theta)
            except DegenerateConfigurationError:
                continue
            err = abs(d.carrier.radius - target_r)
            if err < best_err:
                best, best_err = d, err
        drop = best
    return drop.free_surface_mesh(n_angular)


def solve_capillary(sphere: Sphere, params: CapillaryParams,
                    init: TriMesh | None = None,
                    config: SolveConfig | None = None
                    ) -> tuple[TriMesh, SolveReport]:
    """Fixed-volume drop on a sphere; the contact angle emerges from the
    minimization rather than being enforced.

    The boundary slides tangentially on the substrate.  With
    ``target_curvature`` set, the volume is tuned until the equilibrium
    multiplier (= mean curvature) matches.
    """
    _require_origin_centered(sphere)
    config = _config_for("capillary", config, sphere, params)
    if init is None:
        init = _default_capillary_init(sphere, params)
    return _solve(init, config, params.target_volume, params.target_curvature)


def solve_prescribed_height_curvature(sphere: Sphere, params: CapillaryParams,
                                      init: TriMesh | None = None,
                                      config: SolveConfig | None = None
                                      ) -> tuple[TriMesh, SolveReport]:
    """Equilibrium under the height-linear curvature law H = kappa z + mu.

    Requires kappa > 0 and the initial boundary strictly inside the upper
    open hemisphere of the substrate.  With ``target_curvature`` set it is
    the law constant mu and the volume is tuned until the equilibrium
    multiplier matches it; with ``target_volume`` the constant emerges and
    is reported as the multiplier.
    """
    if params.kappa <= 0.0:
        raise ValueError("prescribed height-curvature mode requires kappa > 0")
    _require_origin_centered(sphere)
    config = _config_for("prescribed_height_curvature", config, sphere, params)
    if init is None:
        init = _default_capillary_init(sphere, params)
    bz = init.vertices[init.boundary_vertex_mask, 2]
    if not (bz > 1e-12 * sphere.radius).all():
        raise ValueError("the boundary must lie in the upper open hemisphere "
                         "of the substrate")
    return _solve(init, config, params.target_volume, params.target_curvature)
