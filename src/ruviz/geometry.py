"""Small planar geometry helpers: convex hull, ellipse sampling."""

from __future__ import annotations

import numpy as np


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Convex hull of 2-D points via the monotone chain, counter-clockwise.

    Collinear points on hull edges are dropped. Degenerate inputs return
    fewer than 3 vertices (a point or a segment).
    """
    pts = np.asarray(points, dtype=float)
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


def ellipse_points(center, axis1, axis2, n: int = 64) -> np.ndarray:
    """Sample a parametric ellipse given its center and two semi-axis vectors."""
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    c = np.asarray(center, dtype=float)
    a1 = np.asarray(axis1, dtype=float)
    a2 = np.asarray(axis2, dtype=float)
    return c[None, :] + np.outer(np.cos(t), a1) + np.outer(np.sin(t), a2)
