"""Strong Pareto dominance, composite 2-D front, knee point, reference rays.

Dominance is tolerance-free: approach i dominates approach j when i is at
least as good on every measure (utility no lower, risk no higher) and
strictly better on at least one. Only the strong notion is implemented.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import Block, NormalizedMatrix

_SLOPE_EPS = 1e-12
_KNEE_MIN_DISTANCE = 1e-9


@dataclass(frozen=True, eq=False)
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
    candidates = np.flatnonzero(~nm.approaches.is_reference)
    dominated = matrix[np.ix_(candidates, candidates)].any(axis=0)
    pareto = frozenset(labels[i] for i, d in zip(candidates, dominated) if not d)
    matrix.setflags(write=False)
    return DominanceResult(labels=labels, matrix=matrix, pareto_ids=pareto)


@dataclass(frozen=True, eq=False)
class CompositeFront:
    """The non-dominated points in (utility, risk, id) order, and the steps
    between consecutive points: `slope[i]` is the marginal risk cost of step
    i, NaN when its utility step is numerically zero."""

    labels: tuple[str, ...]
    utility: np.ndarray
    risk: np.ndarray
    d_utility: np.ndarray
    d_risk: np.ndarray
    slope: np.ndarray

    @property
    def ids(self) -> frozenset[str]:
        return frozenset(self.labels)


def _slopes(d_risk: np.ndarray, d_utility: np.ndarray, defined: np.ndarray) -> np.ndarray:
    """`d_risk / d_utility` where `defined`, else NaN; the quotients that
    are dropped (0/0 among them) raise no warning."""
    with np.errstate(all="ignore"):
        return np.where(defined, d_risk / d_utility, np.nan)


def composite_front(labels: Sequence[str], utility: Sequence[float],
                    risk: Sequence[float]) -> CompositeFront:
    """Non-dominated subset of the composite points (`utility[i]`, `risk[i]`)
    named `labels[i]`, with edges.

    Points re-enter the dominance check in 2-D composite space, independently
    of the full-vector Pareto set. The front is sorted by utility ascending;
    its risk values are then non-decreasing (staircase property).
    """
    pts = sorted(zip(map(float, utility), map(float, risk), labels))
    # Scan from the highest utility down. A point survives when its risk is
    # the lowest of its equal-utility group (exact duplicates all survive)
    # and strictly below every risk seen at higher utility.
    front: list[tuple[float, float, str]] = []
    best_risk = math.inf
    for _, group in itertools.groupby(reversed(pts), key=lambda p: p[0]):
        group = list(group)
        low = group[-1][1]
        if low < best_risk:
            front += [p for p in group if p[1] == low]
            best_risk = low
    front.reverse()
    utility = np.array([p[0] for p in front])
    risk = np.array([p[1] for p in front])
    du, dr = np.diff(utility), np.diff(risk)
    return CompositeFront(labels=tuple(p[2] for p in front), utility=utility, risk=risk,
                          d_utility=du, d_risk=dr, slope=_slopes(dr, du, du > _SLOPE_EPS))


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
    if len(front.labels) < 3:
        return None
    u, r = front.utility, front.risk
    du, dr = float(u[-1] - u[0]), float(r[-1] - r[0])
    chord = math.hypot(du, dr)
    if chord < _SLOPE_EPS:
        return None
    cross = du * (r[1:-1] - r[0]) - dr * (u[1:-1] - u[0])
    # the inner point of greatest distance, then lowest risk, then id
    neg_distance, _, knee, knee_cross = min(zip(
        (-np.abs(cross) / chord).tolist(), r[1:-1].tolist(), front.labels[1:-1],
        cross.tolist()))
    if -neg_distance < _KNEE_MIN_DISTANCE:
        return None
    # cross > 0 puts the point on the high-risk side of the low-to-high chord
    return KneePoint(id=knee, distance=-neg_distance, concave=knee_cross < 0.0)


@dataclass(frozen=True, eq=False)
class Rays:
    """Slope and straight-line distance from each approach to its reference,
    grouped by reference: ray i runs to reference k = `reference[i]`, named
    `reference_labels[k]` at (utility, risk) `origin[k]`. `slope` is NaN where
    the utility displacement is ~0."""

    ids: tuple[str, ...]
    utility: np.ndarray
    risk: np.ndarray
    slope: np.ndarray
    l2: np.ndarray
    reference: np.ndarray
    reference_labels: tuple[str, ...]
    origin: np.ndarray


def rays_to_reference(
    labels: Sequence[str], utility: Sequence[float], risk: Sequence[float],
    reference: Sequence[int], reference_labels: Sequence[str], origin: Sequence,
) -> Rays:
    """Per approach: (risk delta)/(utility delta) and L2 distance to its
    reference, the (utility, risk) row `origin[reference[i]]` for point i."""
    utility, risk = np.array(utility, dtype=float), np.array(risk, dtype=float)
    reference = np.array(reference, dtype=np.intp)
    origin = np.array(origin, dtype=float).reshape(-1, 2)
    du, dr = utility - origin[reference, 0], risk - origin[reference, 1]
    return Rays(ids=tuple(labels), utility=utility, risk=risk,
                slope=_slopes(dr, du, np.abs(du) >= _SLOPE_EPS),
                l2=np.array([math.hypot(a, b) for a, b in zip(du.tolist(), dr.tolist())]),
                reference=reference, reference_labels=tuple(reference_labels), origin=origin)


@dataclass(frozen=True)
class ParetoResult:
    """Aggregate of the full-vector set, composite front, knee, and rays."""

    dominance: DominanceResult
    front: CompositeFront
    knee: KneePoint | None
    rays: Rays
