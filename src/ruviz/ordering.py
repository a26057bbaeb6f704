"""Agglomerative hierarchical clustering for heatmap row ordering."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Dendrogram:
    """The merges as columns, one entry per agglomeration step: merge t joins
    clusters `left[t]` < `right[t]` at `height[t]` into cluster n + t of
    `size[t]` rows, where the original rows are clusters 0..n-1."""

    left: np.ndarray
    right: np.ndarray
    height: np.ndarray
    size: np.ndarray
    leaf_order: tuple[int, ...]
    linkage: str


def _leaf_order(left: np.ndarray, right: np.ndarray,
                height: np.ndarray) -> tuple[int, ...]:
    """Depth-first leaf order, shallower subtree first, smaller index on ties."""
    n = len(left) + 1
    heights = [0.0] * n + height.tolist()
    children = list(zip(left.tolist(), right.tolist()))
    order: list[int] = []
    stack = [2 * n - 2]
    while stack:
        c = stack.pop()
        if c < n:
            order.append(c)
            continue
        first, second = sorted(children[c - n], key=lambda x: (heights[x], x))
        stack += (second, first)
    return tuple(order)


def _nn_chain(D: np.ndarray, linkage: str) -> np.ndarray:
    """Complete or average linkage by scipy 1.17's nearest-neighbour chain.

    `D` holds the distances with inf on the diagonal and is overwritten.
    Returns the (x, y, height) of each merge in merge order, in slot indices:
    the merged cluster takes slot y > x, and slot x is retired by setting its
    row and column to inf, so each step is one `argmin` and one row update.
    """
    n = D.shape[0]
    size = np.ones(n, dtype=np.intp)
    Z = np.empty((n - 1, 3))
    chain: list[int] = []
    for k in range(n - 1):
        if not chain:
            chain.append(int(np.flatnonzero(size)[0]))
        while True:
            x = chain[-1]
            y = int(D[x].argmin())
            # on ties scipy keeps the previous link, so the chain cannot cycle
            if len(chain) > 1 and D[x, chain[-2]] == D[x, y]:
                y = chain[-2]
                break
            chain.append(y)
        del chain[-2:]
        x, y = min(x, y), max(x, y)
        nx, ny = int(size[x]), int(size[y])
        Z[k] = x, y, D[x, y]
        row = D[y]
        if linkage == "complete":
            np.maximum(D[x], row, out=row)
        else:
            row[:] = (nx * D[x] + ny * row) / (nx + ny)
        D[:, y] = row
        D[x] = D[:, x] = np.inf
        size[x] = 0
        size[y] = nx + ny
    return Z


def _mst_single(D: np.ndarray) -> np.ndarray:
    """Single linkage by scipy 1.17's minimum spanning tree: (x, y, height)
    per merge in tree order, in point indices. `D` holds the distances with
    inf on the diagonal and is overwritten."""
    n = D.shape[0]
    Z = np.empty((n - 1, 3))
    near = np.full(n, np.inf)  # each point's distance to the tree so far
    x = 0
    for k in range(n - 1):
        D[:, x] = near[x] = np.inf  # x joins the tree
        np.minimum(near, D[x], out=near)
        y = int(near.argmin())
        Z[k] = x, y, near[y]
        x = y
    return Z


def _label(Z: np.ndarray, n: int) -> np.ndarray:
    """scipy's `label`: the (left, right, size) columns of the merges of
    height-sorted (x, y, height) rows, with slot indices turned into cluster
    ids (n + t for the t-th merge), by an iterative union-find with path
    compression."""
    parent = list(range(2 * n - 1))
    size = [1] * (2 * n - 1)

    def find(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    merges = []
    for t, (x, y) in enumerate(Z[:, :2].astype(np.intp).tolist()):
        a, b = sorted((find(x), find(y)))
        parent[a] = parent[b] = n + t
        size[n + t] = size[a] + size[b]
        merges.append((a, b, size[n + t]))
    return np.array(merges, dtype=np.intp).reshape(-1, 3).T


def hclust(points: np.ndarray, linkage: str) -> Dendrogram:
    """Agglomerative clustering on Euclidean distances, merge for merge as
    scipy 1.17's `linkage`.

    Complete and average linkage follow scipy's nearest-neighbour chain and
    single linkage its minimum spanning tree, then the merges are stably
    sorted by height and relabelled as scipy does. The pairs, heights (to the
    bit) and sizes are scipy's, ties included: when candidate merges tie
    exactly, scipy's order decides, not the smallest (left, right) index
    pair, so inputs with duplicate rows or equal distances may merge in a
    different order (and, for complete linkage, into a different tree) than
    a naive agglomeration would. Average-linkage heights can differ from a
    direct recomputation in the last bit. Leaf order comes from a
    depth-first walk that visits the shallower subtree first, smaller index
    first at equal heights.
    """
    X = np.asarray(points, dtype=float)
    n = X.shape[0]

    # one row of pairs at a time, so memory stays O(n^2), not O(n^2 p), with
    # the same arithmetic as an all-pairs difference array
    D = np.empty((n, n))
    for a in range(n - 1):
        d = X[a] - X[a + 1:]
        D[a, a + 1:] = D[a + 1:, a] = np.sqrt(np.vecdot(d, d))
    np.fill_diagonal(D, np.inf)
    if np.count_nonzero(np.isfinite(D)) != n * (n - 1):
        raise ValueError("clustering requires finite distances between rows")
    Z = _mst_single(D) if linkage == "single" else _nn_chain(D, linkage)
    Z = Z[np.argsort(Z[:, 2], kind="stable")]
    left, right, size = _label(Z, n)
    height = Z[:, 2].copy()
    return Dendrogram(left=left, right=right, height=height, size=size,
                      leaf_order=_leaf_order(left, right, height), linkage=linkage)
