"""Agglomerative hierarchical clustering for heatmap row ordering."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LINKAGES = ("complete", "average", "single")


@dataclass(frozen=True)
class Merge:
    """One agglomeration step; `left` < `right` are cluster indices.

    Original rows are clusters 0..n-1; the merge at step t creates cluster
    n + t.
    """

    left: int
    right: int
    height: float
    size: int


@dataclass(frozen=True)
class Dendrogram:
    merges: tuple[Merge, ...]
    leaf_order: tuple[int, ...]
    linkage: str


def _leaf_order(n: int, merges: tuple[Merge, ...]) -> tuple[int, ...]:
    """Depth-first leaf order, shallower subtree first, smaller index on ties."""
    heights = [0.0] * n + [m.height for m in merges]
    order: list[int] = []
    stack = [n + len(merges) - 1]
    while stack:
        c = stack.pop()
        if c < n:
            order.append(c)
            continue
        m = merges[c - n]
        first, second = sorted((m.left, m.right), key=lambda x: (heights[x], x))
        stack += (second, first)
    return tuple(order)


def hclust(points: np.ndarray, linkage: str = "complete") -> Dendrogram:
    """Agglomerative clustering on Euclidean distances, via scipy's `linkage`.

    The merge sequence is scipy's. When candidate merges tie exactly, scipy
    decides which comes first, not the smallest (left, right) index pair, so
    inputs with duplicate rows or equal distances may merge in a different
    order (and, for complete linkage, into a different tree) than a naive
    agglomeration would. Average-linkage heights can differ from a direct
    recomputation in the last bit. Leaf order comes from a depth-first walk
    that visits the shallower subtree first, smaller index first at equal
    heights.
    """
    # imported here: scipy.cluster loads scipy.spatial, most of a cold start
    # for the subcommands that never cluster
    from scipy.cluster.hierarchy import linkage as scipy_linkage

    if linkage not in LINKAGES:
        raise ValueError(f"linkage must be one of {LINKAGES}, got '{linkage}'")
    X = np.asarray(points, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("clustering requires an n x p matrix with n >= 2")
    n = X.shape[0]

    # condensed distances one row at a time, so memory stays O(n^2), not
    # O(n^2 p); same pair order and arithmetic as an all-pairs difference array
    rows = (X[a] - X[a + 1:] for a in range(n - 1))
    dist = np.concatenate([np.sqrt(np.vecdot(d, d)) for d in rows])
    Z = scipy_linkage(dist, method=linkage)
    merges = tuple(
        Merge(left=int(a), right=int(b), height=float(h), size=int(s))
        for a, b, h, s in Z
    )
    return Dendrogram(merges=merges, leaf_order=_leaf_order(n, merges),
                      linkage=linkage)
