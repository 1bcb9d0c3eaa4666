"""Rotational constant-mean-curvature profiles.

A surface of revolution about the z-axis with constant mean curvature H has
a meridian (x(s), z(s)) parametrized by arclength satisfying

    dx/ds = cos(psi),  dz/ds = sin(psi),  dpsi/ds = 2 H - sin(psi) / x,

where psi is the tangent angle.  The quantity F = x sin(psi) - H x^2 is a
first integral; its constant c, together with H, indexes the classical
family: sphere (c = 0), cylinder (4Hc = 1), unduloid (0 < 4Hc < 1), nodoid
(Hc < 0), catenoid (H = 0, c != 0) and plane (H = c = 0).  Conservation of
F along generated profiles is the fidelity metric for the integrator.

scipy's integrator and root finder are imported by the calls that use them
(``delaunay_profile`` and ``clip_profile_to_sphere``), so importing the
package does not load them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AxisSingularityError, DegenerateConfigurationError
from .geometry import Sphere
from .mesh import TriMesh
from .shapes import revolve

__all__ = [
    "DelaunayProfile",
    "first_integral",
    "classify_delaunay",
    "delaunay_profile",
    "clip_profile_to_sphere",
    "surface_of_revolution",
]


def first_integral(x: np.ndarray, psi: np.ndarray, h: float) -> np.ndarray:
    """F = x sin(psi) - H x^2, constant along every meridian."""
    x = np.asarray(x, dtype=float)
    return x * np.sin(psi) - h * x * x


def classify_delaunay(h: float, c: float, tol: float = 1e-12) -> str:
    """Surface class from the curvature H and first-integral constant c."""
    # (H, c) and (-H, -c) generate mirror-image meridians of the same surface
    if h < 0.0:
        h, c = -h, -c
    if abs(h) <= tol and abs(c) <= tol:
        return "plane"
    if abs(c) <= tol:
        return "sphere"
    if abs(h) <= tol:
        return "catenoid"
    p = 4.0 * h * c
    if abs(p - 1.0) <= tol:
        return "cylinder"
    if 0.0 < p < 1.0:
        return "unduloid"
    if p < 0.0:
        return "nodoid"
    raise DegenerateConfigurationError(
        f"no rotational profile exists for 4 H c = {p:.6g} > 1")


@dataclass(frozen=True)
class DelaunayProfile:
    """Sampled meridian of a rotational CMC surface.

    ``s`` is arclength; ``x`` stays positive away from axis touch points;
    ``psi`` is the tangent angle.  ``vertical_tangent_s`` lists arclengths
    where the meridian is vertical (x extrema: necks and bulges).
    """

    h: float
    c: float
    surface_class: str
    s: np.ndarray
    x: np.ndarray
    z: np.ndarray
    psi: np.ndarray
    vertical_tangent_s: np.ndarray = field(default_factory=lambda: np.empty(0))
    _legs: tuple = field(default=(), repr=False, compare=False)

    @property
    def first_integral_values(self) -> np.ndarray:
        return first_integral(self.x, self.psi, self.h)

    @property
    def max_first_integral_drift(self) -> float:
        """Max |F - c| over the samples, relative to max(|c|, max x)."""
        scale = max(abs(self.c), float(self.x.max()))
        return float(np.abs(self.first_integral_values - self.c).max()) / scale

    def evaluate(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dense-output evaluation of (x, z, psi) at arbitrary arclengths."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if not self._legs:
            xs = np.interp(s, self.s, self.x)
            zs = np.interp(s, self.s, self.z)
            ps = np.interp(s, self.s, self.psi)
            return xs, zs, ps
        out = np.empty((3, len(s)))
        done = np.zeros(len(s), dtype=bool)
        for lo, hi, sol in self._legs:
            pick = (~done) & (s >= lo - 1e-12) & (s <= hi + 1e-12)
            if pick.any():
                out[:, pick] = sol(np.clip(s[pick], lo, hi))
                done |= pick
        if not done.all():
            raise ValueError("arclength outside the integrated span")
        return out[0], out[1], out[2]

    def restricted(self, s_lo: float, s_hi: float, step: float) -> "DelaunayProfile":
        """Sub-profile on [s_lo, s_hi], re-sampled at roughly the given step."""
        if not (self.s[0] - 1e-12 <= s_lo < s_hi <= self.s[-1] + 1e-12):
            raise ValueError("restriction interval outside the profile span")
        n = max(int(math.ceil((s_hi - s_lo) / step)), 2)
        ss = np.linspace(s_lo, s_hi, n + 1)
        xs, zs, ps = self.evaluate(ss)
        vt = self.vertical_tangent_s
        vt = vt[(vt >= s_lo) & (vt <= s_hi)]
        return DelaunayProfile(self.h, self.c, self.surface_class,
                               ss, xs, zs, ps, vt, self._legs)


def _rhs(_s, y, h):
    x, _, psi = y
    return (math.cos(psi), math.sin(psi), 2.0 * h - math.sin(psi) / x)


def _default_seed(h: float, c: float) -> tuple[float, float]:
    """Seed point (x0, psi0) with a vertical tangent, from F(x0, psi0) = c."""
    if abs(h) <= 1e-14:
        if abs(c) <= 1e-14:
            return 1.0, 0.0  # plane: horizontal meridian, x0 arbitrary
        return abs(c), math.copysign(math.pi / 2, c)
    disc = 1.0 - 4.0 * h * c
    if disc < 0.0:
        raise DegenerateConfigurationError(
            f"no rotational profile exists for 4 H c = {4 * h * c:.6g} > 1")
    x0 = (1.0 + math.sqrt(disc)) / (2.0 * h)
    if x0 <= 0.0:
        x0 = (1.0 - math.sqrt(disc)) / (2.0 * h)
    if x0 <= 0.0:
        raise DegenerateConfigurationError("no positive seed radius exists")
    return x0, math.pi / 2


def delaunay_profile(
    h: float,
    c: float,
    s_span: tuple[float, float] = (-5.0, 5.0),
    step: float = 0.01,
    x0: float | None = None,
    z0: float = 0.0,
    psi0: float | None = None,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> DelaunayProfile:
    """Integrate the meridian ODE from a seed at arclength s = 0.

    The default seed is a vertical-tangent point consistent with the first
    integral (the outer bulge radius when two exist); pass x0 / psi0 / z0 to
    start elsewhere.  ``s_span`` may extend to either side of 0; the two
    legs are integrated separately and stitched.  Integration stops early on
    an axis touch (x -> 0), which is regular only for the sphere family; a
    non-tangential axis approach raises AxisSingularityError.
    """
    from scipy.integrate import solve_ivp

    if step <= 0.0:
        raise ValueError("step must be positive")
    s_lo, s_hi = float(s_span[0]), float(s_span[1])
    if not s_lo < s_hi:
        raise ValueError("empty arclength span")
    s_lo, s_hi = min(s_lo, 0.0), max(s_hi, 0.0)

    if x0 is None or psi0 is None:
        seed_x, seed_psi = _default_seed(h, c)
        x0 = seed_x if x0 is None else float(x0)
        psi0 = seed_psi if psi0 is None else float(psi0)
    if x0 <= 0.0:
        raise ValueError("seed must start off the axis (x0 > 0)")
    c_seed = float(first_integral(np.array([x0]), np.array([psi0]), h)[0])
    if abs(c_seed - c) > 1e-9 * max(abs(c), x0):
        raise ValueError(
            f"seed (x0, psi0) has first integral {c_seed:.9g}, expected {c:.9g}")

    # The axis event must not fire mid-turn at the neck of a near-sphere
    # unduloid or nodoid, the narrowest radius the meridian turns at:
    # x_neck = 2|c| / (1 + sqrt(1 - 4Hc)), from F = c at sin(psi) = sign(c).
    # A neck above the floor is resolved, with the floor far below it; one
    # too thin to resolve is treated as a pole, with the floor far above it,
    # where sin(psi) ~ x_neck / x_floor reads as a regular touch.
    x_floor = 1e-9 * x0
    x_neck = 2.0 * abs(c) / (1.0 + math.sqrt(max(1.0 - 4.0 * h * c, 0.0)))
    if x_neck >= x_floor:
        x_floor = 1e-9 * x_neck
    elif x_neck > 1e-2 * x_floor:
        x_floor = 1e2 * x_neck

    def axis_event(_s, y, _h):
        return y[0] - x_floor
    axis_event.terminal = True
    axis_event.direction = -1.0

    def vertical_event(_s, y, _h):
        return math.cos(y[2])
    vertical_event.terminal = False

    legs = []
    vertical_s = []
    for s_end in (s_lo, s_hi):
        if s_end == 0.0:
            continue
        sol = solve_ivp(
            _rhs, (0.0, s_end), (x0, z0, psi0), args=(h,), method="RK45",
            rtol=rtol, atol=atol, dense_output=True,
            events=(axis_event, vertical_event))
        if sol.status < 0:
            raise AxisSingularityError(f"meridian integration failed: {sol.message}")
        reached = float(sol.t[-1])
        if sol.status == 1:  # axis touch
            y_end = sol.y[:, -1]
            # a regular touch caps the surface: the meridian crosses the axis
            # perpendicular to it, cos(psi) -> +-1 (sphere poles); a cone
            # point would keep |sin psi| of order one.  The singular
            # sin(psi)/x term contaminates psi by ~1e-2 in the last steps
            # before the floor, hence the loose threshold.
            if abs(math.sin(y_end[2])) > 0.1:
                raise AxisSingularityError(
                    "meridian reached the axis with a non-horizontal tangent")
        lo, hi = (reached, 0.0) if s_end < 0 else (0.0, reached)
        legs.append((lo, hi, sol.sol))
        vertical_s.extend(sol.t_events[1].tolist())

    lo = min(l[0] for l in legs) if legs else 0.0
    hi = max(l[1] for l in legs) if legs else 0.0
    n = max(int(math.ceil((hi - lo) / step)), 2)
    ss = np.linspace(lo, hi, n + 1)
    prof = DelaunayProfile(
        h=h, c=c, surface_class=classify_delaunay(h, c),
        s=ss, x=np.empty(0), z=np.empty(0), psi=np.empty(0),
        vertical_tangent_s=np.sort(np.asarray(vertical_s)),
        _legs=tuple(legs))
    xs, zs, ps = prof.evaluate(ss)
    object.__setattr__(prof, "x", xs)
    object.__setattr__(prof, "z", zs)
    object.__setattr__(prof, "psi", ps)
    return prof


def clip_profile_to_sphere(profile: DelaunayProfile, sphere: Sphere,
                           keep: str = "inside",
                           step: float | None = None) -> list[DelaunayProfile]:
    """Maximal sub-profiles inside (or outside) a sphere centered on the axis.

    Crossing arclengths are refined by root finding on the dense output, so
    piece endpoints lie on the sphere to integrator accuracy.  Returns the
    pieces in increasing arclength order.
    """
    from scipy.optimize import brentq

    if keep not in ("inside", "outside"):
        raise ValueError("keep must be 'inside' or 'outside'")
    cx, cy, cz = sphere.center
    if abs(cx) > 1e-12 * sphere.radius or abs(cy) > 1e-12 * sphere.radius:
        raise ValueError("clipping sphere must be centered on the z-axis")
    if step is None:
        step = float(profile.s[1] - profile.s[0]) if len(profile.s) > 1 else 0.01

    sign = 1.0 if keep == "inside" else -1.0

    def g(s):
        # negative where the point should be kept
        xs, zs, _ = profile.evaluate(np.atleast_1d(s))
        val = xs ** 2 + (zs - cz) ** 2 - sphere.radius ** 2
        return sign * val

    ss = profile.s
    vals = g(ss)
    crossings = []
    for i in range(len(ss) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            crossings.append(float(ss[i]))
        elif a * b < 0.0:
            crossings.append(float(brentq(lambda t: g(t)[0], ss[i], ss[i + 1],
                                          xtol=1e-13, rtol=1e-15)))
    if vals[-1] == 0.0:
        crossings.append(float(ss[-1]))

    # walk the sign pattern to collect kept intervals
    edges = [float(ss[0])] + crossings + [float(ss[-1])]
    pieces = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo < step:
            continue
        mid = 0.5 * (lo + hi)
        if g(mid)[0] < 0.0:
            pieces.append(profile.restricted(lo, hi, step))
    return pieces


def surface_of_revolution(profile: DelaunayProfile, n_angular: int = 64) -> TriMesh:
    """Revolve a profile about the z-axis into a triangle mesh."""
    return revolve(profile.x, profile.z, n_angular)
