import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import linkage as scipy_linkage
from scipy.spatial.distance import pdist

from ruviz.ordering import Merge, _label, _leaf_order, hclust

from conftest import oracle_hclust


class TestHclust:
    def test_identical_rows_merge_first_at_zero(self):
        rng = np.random.default_rng(1)
        X = rng.random((5, 3))
        X[3] = X[1]
        dend = hclust(X, "complete")
        first = dend.merges[0]
        assert first.height == 0.0
        assert (first.left, first.right) == (1, 3)

    @pytest.mark.parametrize("linkage,merges", [
        ("complete", [(0, 2), (1, 3), (4, 6), (7, 8), (5, 9)]),
        ("average", [(0, 2), (1, 3), (4, 6), (7, 8), (5, 9)]),
        # scipy's order among the three zero-height merges, not the
        # smallest (left, right) pair first: (1, 3) would precede (4, 6)
        ("single", [(0, 2), (4, 6), (1, 3), (7, 8), (5, 9)]),
    ])
    def test_duplicate_rows_merge_order_is_pinned(self, linkage, merges):
        X = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0],
                      [0.0, 0.0], [1.0, 1.0], [3.0, 3.0]])
        dend = hclust(X, linkage)
        assert [(m.left, m.right) for m in dend.merges] == merges
        assert [m.height for m in dend.merges[:3]] == [0.0, 0.0, 0.0]

    def test_two_rows_single_merge(self):
        X = np.array([[0.0, 0.0], [3.0, 4.0]])
        dend = hclust(X, "average")
        assert len(dend.merges) == 1
        assert dend.merges[0].height == pytest.approx(5.0)
        assert sorted(dend.leaf_order) == [0, 1]

    @pytest.mark.parametrize("linkage", ["complete", "average", "single"])
    def test_matches_naive_oracle(self, linkage):
        rng = np.random.default_rng(100)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            X = rng.random((n, 4))
            dend = hclust(X, linkage)
            expected = oracle_hclust(X, linkage)
            got = [(m.left, m.right, m.height) for m in dend.merges]
            assert [(a, b) for a, b, _ in got] == [(a, b) for a, b, _ in expected]
            np.testing.assert_allclose(
                [h for *_, h in got], [h for *_, h in expected],
                rtol=1e-9, atol=1e-12,
            )

    @pytest.mark.parametrize("linkage", ["complete", "average"])
    def test_monotone_heights(self, linkage):
        rng = np.random.default_rng(8)
        for _ in range(25):
            X = rng.random((7, 3))
            dend = hclust(X, linkage)
            heights = [m.height for m in dend.merges]
            assert heights == sorted(heights)

    def test_leaf_order_is_permutation(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 9):
            dend = hclust(rng.random((n, 4)), "complete")
            assert sorted(dend.leaf_order) == list(range(n))

    def test_permutation_gives_same_height_multiset(self):
        rng = np.random.default_rng(9)
        X = rng.random((8, 3))
        perm = rng.permutation(8)
        h1 = sorted(m.height for m in hclust(X, "complete").merges)
        h2 = sorted(m.height for m in hclust(X[perm], "complete").merges)
        np.testing.assert_allclose(h1, h2, rtol=1e-12)

    def test_merge_count_and_sizes(self):
        rng = np.random.default_rng(2)
        X = rng.random((6, 2))
        dend = hclust(X, "single")
        assert len(dend.merges) == 5
        assert dend.merges[-1].size == 6

    @pytest.mark.parametrize("linkage", ["complete", "average", "single"])
    def test_row_by_row_distances_match_all_pairs(self, linkage):
        # coarse values and duplicate rows give tied distances, where a
        # last-bit difference in the distances would reorder merges
        rng = np.random.default_rng(30)
        X = np.round(rng.random((320, 10)), 1)
        X[300:] = X[:20]
        i, j = np.triu_indices(len(X), 1)
        d = X[i] - X[j]
        Z = scipy_linkage(np.sqrt(np.vecdot(d, d)), method=linkage)
        expected = [Merge(int(a), int(b), float(h), int(s)) for a, b, h, s in Z]
        assert list(hclust(X, linkage).merges) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                      min_size=1, max_size=10),
        p=st.integers(1, 3),
        copies=st.lists(st.integers(0, 9), max_size=6),
        linkage=st.sampled_from(["complete", "average", "single"]),
    )
    def test_equals_scipy_linkage_with_duplicate_rows(self, rows, p, copies,
                                                      linkage):
        # integer coordinates give exact squared distances, so scipy's own
        # pdist yields the same distances and the comparison can be bitwise
        X = np.array(rows, dtype=float)[:, :p]
        X = np.vstack([X, X[[c % len(X) for c in copies]]])
        if len(X) < 2:
            X = np.vstack([X, X])
        Z = scipy_linkage(pdist(X), method=linkage)
        merges = hclust(X, linkage).merges
        assert [(m.left, m.right, m.size) for m in merges] == [
            (int(a), int(b), int(s)) for a, b, _, s in Z]
        assert np.array([m.height for m in merges]).tobytes() == Z[:, 2].tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e200])
    def test_non_finite_distances_raise(self, value):
        # 1e200 is finite, but its distance to -1e200 overflows to inf
        X = np.array([[0.0, 1.0], [1.0, 0.0], [value, -value]])
        with pytest.raises(ValueError, match="finite"):
            hclust(X, "complete")

    @pytest.mark.parametrize("linkage", ["complete", "average", "single"])
    def test_long_monotone_chain(self, linkage):
        # points 0, 1, 3, 6, ... on a line, each gap one longer than the
        # last: single linkage joins each point to the cluster built so far,
        # a dendrogram 1,099 merges deep, past the default recursion limit
        n = 1100
        t = np.arange(n, dtype=float)
        X = (t * (t + 1) / 2)[:, None]
        Z = scipy_linkage(X, method=linkage)
        expected = [Merge(int(a), int(b), float(h), int(s)) for a, b, h, s in Z]
        assert list(hclust(X, linkage).merges) == expected
        if linkage == "single":
            assert expected[1:] == [Merge(k + 1, n + k - 1, float(k + 1), k + 2)
                                    for k in range(1, n - 1)]

    def test_unknown_linkage(self):
        with pytest.raises(ValueError, match="linkage"):
            hclust(np.eye(3), "ward")

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="n >= 2"):
            hclust(np.ones((1, 3)))


class TestLeafOrder:
    def test_deep_chain_does_not_recurse(self):
        # leaf t + 1 joins the cluster built so far at every step: a
        # dendrogram 1,099 merges deep. Each leaf is shallower than its
        # sibling cluster and comes first; leaves 0 and 1 tie at height 0.
        n = 1100
        merges = (Merge(0, 1, 0.0, 2),) + tuple(
            Merge(t + 1, n + t - 1, float(t), t + 2) for t in range(1, n - 1)
        )
        assert _leaf_order(n, merges) == tuple(range(n - 1, 1, -1)) + (0, 1)


def test_relabelling_a_deep_chain_is_linear():
    # every merge joins the cluster held in slot n - 1, so the cluster's
    # union-find path grows by one each merge; without path compression
    # relabelling would walk about n^2 / 2 parent links
    n = 1100
    Z = np.array([(t, n - 1, float(t)) for t in range(n - 1)])
    lines = 0

    def count_lines(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return count_lines

    def trace_find(frame, event, arg):
        return count_lines if frame.f_code.co_name == "find" else None

    previous = sys.gettrace()
    sys.settrace(trace_find)
    try:
        merges = _label(Z, n)
    finally:
        sys.settrace(previous)
    assert merges[0] == Merge(0, n - 1, 0.0, 2)
    assert merges[1:] == [Merge(t, n + t - 1, float(t), t + 2)
                          for t in range(1, n - 1)]
    assert lines < 30 * n
