"""Geometric primitives: the round sphere, rotations, an open-hemisphere
certificate, and small linear-algebra helpers.

``Sphere`` is an immutable dataclass over float64 numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Sphere", "unit", "cross3", "rotation_from_axis_angle",
    "rotation_between", "open_hemisphere_pole",
]


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


def cross3(a: np.ndarray, b: np.ndarray,
           out: np.ndarray | None = None) -> np.ndarray:
    """Cross product over the last axis of two broadcastable (..., 3) arrays.

    Each component is one product minus another, as in ``np.cross``, so the
    result equals ``np.cross(a, b)`` bit for bit; it skips ``np.cross``'s
    argument handling, which dominates on the small arrays of a flow step.
    ``out``, if given, receives the result (it may be a strided view).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if out is None:
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


@dataclass(frozen=True, eq=False)
class Sphere:
    """Round sphere given by center and radius.

    The center is a read-only copy of the caller's array, so spheres compare
    and hash by value: equal radii and equal centers (-0.0 equals 0.0).
    """

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.array(self.center, dtype=float).reshape(3)
        center.flags.writeable = False
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius > 0.0:
            raise ValueError("sphere radius must be positive")

    def __eq__(self, other):
        if not isinstance(other, Sphere):
            return NotImplemented
        return (self.radius == other.radius
                and np.array_equal(self.center, other.center))

    def __hash__(self):
        return hash((self.radius, *self.center.tolist()))

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


def open_hemisphere_pole(unit_points: np.ndarray):
    """Max-margin pole of unit vectors: the unit ``w`` maximising
    ``min_i dot(w, q_i)``.

    ``w`` points at the point of the convex hull of the ``q_i`` nearest the
    origin, found by one non-negative least-squares solve over the ``q_i``
    and a sum-to-one row (Lawson & Hanson's least-distance program).  It
    lies inside a small loop and turns with the points under a rotation.
    The solve is BVLS: scipy's ``nnls`` (1.17) stops at a wrong vertex on
    some loops with exactly tied columns, e.g. 32 points at polar angle 1/3.
    Returns ``(w, margin)`` with ``margin = min_i dot(w, q_i)``, or ``None``
    when the margin is at most 1e-9: no open hemisphere contains the points,
    e.g. for a great circle.
    """
    from scipy.optimize import lsq_linear

    q = np.atleast_2d(np.asarray(unit_points, dtype=float))
    if len(q) == 0:
        raise ValueError("need at least one point")
    e = np.vstack([q.T, np.ones(len(q))])
    f = np.array([0.0, 0.0, 0.0, 1.0])
    r = lsq_linear(e, f, bounds=(0.0, np.inf), method="bvls").fun
    # with p the nearest point, r = (p, -|p|^2) / (1 + |p|^2)
    w = r[:3] / (np.linalg.norm(r[:3]) or 1.0)
    margin = float((q @ w).min())
    if margin <= 1e-9:
        return None
    return w, margin
