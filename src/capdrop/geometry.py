"""Geometric primitives: spheres, planes, lines, and small linear-algebra helpers.

All primitives are immutable dataclasses over float64 numpy arrays.  Planes
store a unit normal and a scalar offset, so the plane is
``{x : dot(normal, x) = offset}``; the constructor normalizes and rejects
near-zero normals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Sphere", "Plane", "Line", "unit", "cross3", "rotation_from_axis_angle",
    "rotation_between", "open_hemisphere_pole",
]

_UNIT_TOL = 1e-12


def unit(v: np.ndarray) -> np.ndarray:
    """Return ``v`` normalized to unit length.

    Raises
    ------
    ValueError
        If ``v`` has (numerically) zero norm.
    """
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n < 1e-14:
        raise ValueError("cannot normalize a zero vector")
    return v / n


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the last axis of two broadcastable (..., 3) arrays.

    Each component is one product minus another, as in ``np.cross``, so the
    result equals ``np.cross(a, b)`` bit for bit; it skips ``np.cross``'s
    argument handling, which dominates on the small arrays of a flow step.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def rotation_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotation matrix about ``axis`` by ``angle`` (Rodrigues)."""
    k = unit(axis)
    kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + np.sin(angle) * kx + (1.0 - np.cos(angle)) * (kx @ kx)


def rotation_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rotation matrix taking unit direction ``a`` to unit direction ``b``."""
    a = unit(a)
    b = unit(b)
    c = float(np.dot(a, b))
    if c > 1.0 - 1e-14:
        return np.eye(3)
    if c < -1.0 + 1e-14:
        # pick any axis orthogonal to a
        helper = np.array([1.0, 0.0, 0.0])
        if abs(a[0]) > 0.9:
            helper = np.array([0.0, 1.0, 0.0])
        axis = unit(cross3(a, helper))
        return rotation_from_axis_angle(axis, np.pi)
    axis = cross3(a, b)
    s = np.linalg.norm(axis)
    return rotation_from_axis_angle(axis, float(np.arctan2(s, c)))


@dataclass(frozen=True)
class Sphere:
    """Round sphere given by center and radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float).reshape(3))
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius > 0.0:
            raise ValueError("sphere radius must be positive")

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        """Distance to the sphere surface, negative inside the ball."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.linalg.norm(points - self.center, axis=1) - self.radius

    def project(self, points: np.ndarray) -> np.ndarray:
        """Radially project points onto the sphere surface."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        d = points - self.center
        r = np.linalg.norm(d, axis=1, keepdims=True)
        if np.any(r < 1e-14):
            raise ValueError("cannot project the sphere center onto the sphere")
        return self.center + self.radius * d / r

    def outward_normals(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        d = points - self.center
        return d / np.linalg.norm(d, axis=1, keepdims=True)


@dataclass(frozen=True)
class Plane:
    """Oriented plane ``{x : dot(normal, x) = offset}`` with unit normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float).reshape(3)
        norm = float(np.linalg.norm(n))
        if norm < 1e-14:
            raise ValueError("plane normal must be nonzero")
        if abs(norm - 1.0) > _UNIT_TOL:
            # normalize, rescaling the offset to keep the same point set
            object.__setattr__(self, "normal", n / norm)
            object.__setattr__(self, "offset", float(self.offset) / norm)
        else:
            object.__setattr__(self, "normal", n)
            object.__setattr__(self, "offset", float(self.offset))

    @classmethod
    def from_point_normal(cls, point: np.ndarray, normal: np.ndarray) -> "Plane":
        n = unit(normal)
        return cls(n, float(np.dot(n, np.asarray(point, dtype=float))))

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return points @ self.normal - self.offset

    def reflect_points(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        d = self.signed_distance(points)
        return points - 2.0 * d[:, None] * self.normal

    def anchor(self) -> np.ndarray:
        """A point on the plane (the foot of the origin)."""
        return self.offset * self.normal

    def angle_to(self, other: "Plane") -> float:
        """Angle between the two planes in radians, in [0, pi/2]."""
        c = abs(float(np.dot(self.normal, other.normal)))
        return float(np.arccos(np.clip(c, -1.0, 1.0)))


@dataclass(frozen=True)
class Line:
    """Straight line through ``point`` with unit ``direction``."""

    point: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float).reshape(3))
        object.__setattr__(self, "direction", unit(self.direction))

    def distance(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        d = points - self.point
        along = d @ self.direction
        perp = d - np.outer(along, self.direction)
        return np.linalg.norm(perp, axis=1)

    def angle_to_direction(self, direction: np.ndarray) -> float:
        """Angle between this line and a direction, in [0, pi/2]."""
        c = abs(float(np.dot(self.direction, unit(direction))))
        return float(np.arccos(np.clip(c, -1.0, 1.0)))


def open_hemisphere_pole(unit_points: np.ndarray, margin_tol: float = 1e-9):
    """Pole direction certifying that unit vectors sit in one open hemisphere.

    Solves the feasibility program ``dot(w, q_i) >= 1`` (an LP in w, bounded
    through an l1 objective); any solution, normalized, is a pole ``w`` with
    ``dot(w, q_i) > 0`` for all i.  Returns ``(w, margin)`` with
    ``margin = min_i dot(w, q_i)``, or ``None`` when no open hemisphere
    contains the points (margin below ``margin_tol``), e.g. for a great
    circle.
    """
    from scipy.optimize import linprog

    q = np.atleast_2d(np.asarray(unit_points, dtype=float))
    if len(q) == 0:
        raise ValueError("need at least one point")
    # variables: w = u - v with u, v >= 0; minimize sum(u + v) s.t. q (u - v) >= 1
    a_ub = np.concatenate([-q, q], axis=1)
    b_ub = -np.ones(len(q))
    c = np.ones(6)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * 6, method="highs")
    if not res.success:
        return None
    w = res.x[:3] - res.x[3:]
    norm = float(np.linalg.norm(w))
    if norm < 1e-14:
        return None
    w = w / norm
    margin = float((q @ w).min())
    if margin <= margin_tol:
        return None
    return w, margin
