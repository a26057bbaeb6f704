"""Cross-checks against established third-party implementations.

These complement the hand-rolled oracles. `hclust` is a numpy port of
scipy's linkage and no longer calls it, so scipy here is an independent
oracle for the merges; scikit-learn's PCA was written independently, so
agreement there guards against a shared blind spot between `pca_fit` and its
test oracle.
"""

import numpy as np
import pytest
from scipy.cluster import hierarchy as scipy_hierarchy

from ruviz.multivariate import pca_fit
from ruviz.ordering import hclust


@pytest.fixture()
def sklearn_decomposition():
    return pytest.importorskip("sklearn.decomposition")


class TestAgainstScipyLinkage:
    @pytest.mark.parametrize("linkage", ["complete", "average", "single"])
    def test_merge_heights_and_pairs(self, linkage):
        rng = np.random.default_rng(2718)
        for _ in range(25):
            n = int(rng.integers(3, 10))
            X = rng.random((n, 4))
            ours = hclust(X, linkage)
            Z = scipy_hierarchy.linkage(X, method=linkage)
            got = [tuple(sorted((m.left, m.right))) + (m.height,)
                   for m in ours.merges]
            expected = [tuple(sorted((int(a), int(b)))) + (float(d),)
                        for a, b, d, _ in Z]
            assert [g[:2] for g in got] == [e[:2] for e in expected]
            np.testing.assert_allclose([g[2] for g in got],
                                       [e[2] for e in expected],
                                       rtol=1e-9, atol=1e-12)

    def test_merge_sizes_match(self):
        rng = np.random.default_rng(5)
        X = rng.random((8, 3))
        ours = hclust(X, "average")
        Z = scipy_hierarchy.linkage(X, method="average")
        assert [m.size for m in ours.merges] == [int(s) for *_, s in Z]


class TestAgainstSklearnPca:
    def test_eigenvalues_ratios_and_components(self, sklearn_decomposition):
        rng = np.random.default_rng(161)
        for _ in range(10):
            n = int(rng.integers(5, 15))
            p = int(rng.integers(2, 6))
            X = rng.normal(size=(n, p))
            k = min(n - 1, p)
            ours = pca_fit(X, k)
            ref = sklearn_decomposition.PCA(n_components=k).fit(X)
            np.testing.assert_allclose(ours.eigenvalues,
                                       ref.explained_variance_, rtol=1e-9)
            np.testing.assert_allclose(ours.explained_variance_ratio,
                                       ref.explained_variance_ratio_,
                                       rtol=1e-9)
            np.testing.assert_allclose(np.abs(ours.loadings),
                                       np.abs(ref.components_.T), atol=1e-9)

    def test_scores_match_transform(self, sklearn_decomposition):
        rng = np.random.default_rng(99)
        X = rng.normal(size=(10, 4))
        ours = pca_fit(X, 3)
        ref = sklearn_decomposition.PCA(n_components=3).fit(X)
        np.testing.assert_allclose(np.abs(ours.scores),
                                   np.abs(ref.transform(X)), atol=1e-9)
