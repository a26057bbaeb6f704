"""Strong Pareto dominance, composite 2-D front, knee point, reference rays.

Dominance is tolerance-free: approach i dominates approach j when i is at
least as good on every measure (utility no lower, risk no higher) and
strictly better on at least one. Only the strong notion is implemented.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import Block, NormalizedMatrix

_SLOPE_EPS = 1e-12
_KNEE_MIN_DISTANCE = 1e-9


@dataclass(frozen=True)
class DominanceResult:
    """Pairwise dominance over all rows plus the non-dominated candidate set."""

    labels: tuple[str, ...]
    matrix: np.ndarray  # matrix[i, j] == True iff row i dominates row j
    pareto_ids: frozenset[str]


def pareto_set(nm: NormalizedMatrix) -> DominanceResult:
    """Full-vector Pareto set over all normalized measures.

    Reference (original) rows are never candidates: each is a benchmark,
    not a release candidate. The dominance matrix still covers every row
    pair.
    """
    util = nm.block_values(Block.UTILITY)
    risk = nm.block_values(Block.RISK)
    labels = nm.labels
    u_i, u_j = util[:, None], util[None]
    r_i, r_j = risk[:, None], risk[None]
    no_worse = (u_i >= u_j).all(axis=2) & (r_i <= r_j).all(axis=2)
    better = (u_i > u_j).any(axis=2) | (r_i < r_j).any(axis=2)
    matrix = no_worse & better
    candidates = np.flatnonzero([not r.is_reference for r in nm.rows])
    dominated = matrix[np.ix_(candidates, candidates)].any(axis=0)
    pareto = frozenset(labels[i] for i, d in zip(candidates, dominated) if not d)
    matrix.setflags(write=False)
    return DominanceResult(labels=labels, matrix=matrix, pareto_ids=pareto)


@dataclass(frozen=True)
class FrontPoint:
    id: str
    utility: float
    risk: float


@dataclass(frozen=True)
class FrontEdge:
    """Step between consecutive front points; slope is the marginal risk cost."""

    src: str
    dst: str
    d_utility: float
    d_risk: float
    slope: float | None  # None when d_utility is numerically zero


@dataclass(frozen=True)
class CompositeFront:
    points: tuple[FrontPoint, ...]  # sorted by (utility, risk, id)
    edges: tuple[FrontEdge, ...]

    @property
    def ids(self) -> frozenset[str]:
        return frozenset(p.id for p in self.points)


def composite_front(points: Iterable[tuple[str, float, float]]) -> CompositeFront:
    """Non-dominated subset of composite (utility, risk) points, with edges.

    Points re-enter the dominance check in 2-D composite space, independently
    of the full-vector Pareto set. The front is sorted by utility ascending;
    its risk values are then non-decreasing (staircase property).
    """
    pts = [FrontPoint(str(i), float(u), float(r)) for i, u, r in points]
    # Scan from the highest utility down. A point survives when its risk is
    # the lowest of its equal-utility group (exact duplicates all survive)
    # and strictly below every risk seen at higher utility.
    front: list[FrontPoint] = []
    best_risk = math.inf
    by_utility = sorted(pts, key=lambda p: (-p.utility, p.risk))
    for _, group in itertools.groupby(by_utility, key=lambda p: p.utility):
        group = list(group)
        low = group[0].risk
        if low < best_risk:
            front += [p for p in group if p.risk == low]
            best_risk = low
    front.sort(key=lambda p: (p.utility, p.risk, p.id))
    edges = []
    for a, b in zip(front, front[1:]):
        du = b.utility - a.utility
        dr = b.risk - a.risk
        slope = dr / du if du > _SLOPE_EPS else None
        edges.append(FrontEdge(src=a.id, dst=b.id, d_utility=du, d_risk=dr, slope=slope))
    return CompositeFront(points=tuple(front), edges=tuple(edges))


@dataclass(frozen=True)
class KneePoint:
    """Front point of maximal perpendicular distance from the extreme chord.

    `concave` is True when the knee bows toward the low-risk side of the
    chord, the shape under which the heuristic is meaningful; a knee on a
    front bowing the other way is still reported, tagged concave=False.
    """

    id: str
    distance: float
    concave: bool


def knee_point(front: CompositeFront) -> KneePoint | None:
    """Knee of a composite front; None for fewer than 3 points or near-flat fronts."""
    pts = front.points  # sorted by (utility, risk, id)
    if len(pts) < 3:
        return None
    a, b = pts[0], pts[-1]
    chord = math.hypot(b.utility - a.utility, b.risk - a.risk)
    if chord < _SLOPE_EPS:
        return None
    best: tuple[float, float, str] | None = None  # (-distance, risk, id)
    best_cross = 0.0
    for p in pts[1:-1]:
        cross = (b.utility - a.utility) * (p.risk - a.risk) - (b.risk - a.risk) * (
            p.utility - a.utility
        )
        dist = abs(cross) / chord
        key = (-dist, p.risk, p.id)
        if best is None or key < best:
            best = key
            best_cross = cross
    assert best is not None
    distance = -best[0]
    if distance < _KNEE_MIN_DISTANCE:
        return None
    # cross > 0 puts the point on the high-risk side of the low-to-high chord
    return KneePoint(id=best[2], distance=distance, concave=best_cross < 0.0)


@dataclass(frozen=True)
class Ray:
    """Slope and straight-line distance from one approach to the reference."""

    id: str
    utility: float
    risk: float
    slope: float | None  # None when the utility displacement is ~0
    l2: float


def rays_to_reference(
    points: Iterable[tuple[str, float, float]], reference: tuple[float, float]
) -> tuple[Ray, ...]:
    """Per approach: (risk delta)/(utility delta) and L2 distance to the reference."""
    u0, r0 = float(reference[0]), float(reference[1])
    rays = []
    for pid, u, r in points:
        du = float(u) - u0
        dr = float(r) - r0
        slope = dr / du if abs(du) >= _SLOPE_EPS else None
        rays.append(
            Ray(id=str(pid), utility=float(u), risk=float(r), slope=slope,
                l2=math.hypot(du, dr))
        )
    return tuple(rays)


@dataclass(frozen=True)
class ParetoResult:
    """Aggregate of the full-vector set, composite front, knee, and rays.

    `rays_by_reference` pairs each reference row's (label, utility, risk),
    in row order, with the rays of its dataset's candidates.
    """

    dominance: DominanceResult
    front: CompositeFront
    knee: KneePoint | None
    rays_by_reference: tuple[tuple[tuple[str, float, float], tuple[Ray, ...]], ...]

    @property
    def rays(self) -> tuple[Ray, ...]:
        return tuple(ray for _, rays in self.rays_by_reference for ray in rays)

    @property
    def reference_label(self) -> str | None:
        """The first reference's label; None when the study has no reference."""
        return self.rays_by_reference[0][0][0] if self.rays_by_reference else None
