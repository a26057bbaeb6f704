"""Small planar geometry helpers: polygon area, convex hull, ellipse sampling."""

from __future__ import annotations

import numpy as np


def shoelace_area(xy: np.ndarray) -> float:
    """Absolute area of a closed polygon given as an (n, 2) vertex array."""
    pts = np.asarray(xy, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("expected an (n, 2) array of vertices")
    x = pts[:, 0]
    y = pts[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


# Support points in these directions span the hull that prunes interior
# points; the margin keeps every point the chain's rounding could still keep.
_PREFILTER_ANGLES = np.arange(16) * (2.0 * np.pi / 16)
_PREFILTER_DIRECTIONS = np.column_stack(
    [np.cos(_PREFILTER_ANGLES), np.sin(_PREFILTER_ANGLES)]
)
_PREFILTER_MARGIN = 1e-9


def _monotone_chain(pts: np.ndarray) -> np.ndarray:
    uniq = sorted({(float(p[0]), float(p[1])) for p in pts})
    if len(uniq) <= 2:
        return np.array(uniq, dtype=float).reshape(-1, 2)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in uniq:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(uniq):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # all points collinear
        return np.array([uniq[0], uniq[-1]], dtype=float)
    return np.array(hull, dtype=float)


def _drop_interior(pts: np.ndarray) -> np.ndarray:
    """Points not strictly inside the hull of the fixed-direction support
    points by the margin, in input order."""
    support = np.unique(np.argmax(_PREFILTER_DIRECTIONS @ pts.T, axis=1))
    inner = _monotone_chain(pts[support])
    if len(inner) < 3:
        return pts
    tol = _PREFILTER_MARGIN * float(np.abs(pts).max())
    x = pts[:, 0]
    y = pts[:, 1]
    inside = np.ones(len(pts), dtype=bool)
    for (ax, ay), (bx, by) in zip(inner, np.roll(inner, -1, axis=0)):
        ex = bx - ax
        ey = by - ay
        inside &= ex * (y - ay) - ey * (x - ax) > tol * np.hypot(ex, ey)
    return pts[~inside]


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Convex hull of 2-D points via the monotone chain, counter-clockwise.

    Interior points are pruned before the chain: every point that lies inside
    the hull of the support points in 16 fixed directions, by more than 1e-9
    of the largest absolute coordinate, is dropped. The chain decides every
    vertex among the rest. Collinear points on hull edges are dropped.
    Degenerate inputs return fewer than 3 vertices (a point or a segment).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("expected an (n, 2) array of points")
    if len(pts):
        pts = _drop_interior(pts)
    return _monotone_chain(pts)


def ellipse_points(center, axis1, axis2, n: int = 64) -> np.ndarray:
    """Sample a parametric ellipse given its center and two semi-axis vectors."""
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    c = np.asarray(center, dtype=float)
    a1 = np.asarray(axis1, dtype=float)
    a2 = np.asarray(axis2, dtype=float)
    return c[None, :] + np.outer(np.cos(t), a1) + np.outer(np.sin(t), a2)
