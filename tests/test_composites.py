import numpy as np
import pytest

from ruviz.composites import (
    ALPHA_THRESHOLD,
    composite_scores,
    cronbach_alpha,
    mcdonald_omega,
    one_factor_loadings,
    reliability_report,
)
from ruviz.errors import AnalysisError

from conftest import make_nm, sample_with_exact_cov


def exchangeable(k: int, rho: float) -> np.ndarray:
    return (1.0 - rho) * np.eye(k) + rho * np.ones((k, k))


class TestCompositeScores:
    def test_simple_means_and_sd(self):
        vals = np.array([[0.5, 0.2, 0.4, 0.6]])  # 1 risk + 3 utility
        nm = make_nm(np.vstack([vals, vals]), 1)
        sc = composite_scores(nm)
        assert sc.utility[0] == pytest.approx(0.4)
        assert sc.utility_sd[0] == pytest.approx(0.2)
        assert sc.risk[0] == pytest.approx(0.5)
        assert sc.risk_sd[0] == 0.0  # single-measure block

    def test_random_against_manual_recomputation(self):
        rng = np.random.default_rng(21)
        vals = rng.random((7, 6))
        nm = make_nm(vals, 2)
        sc = composite_scores(nm)
        for i in range(7):
            risk_items = vals[i, :2]
            util_items = vals[i, 2:]
            assert sc.risk[i] == pytest.approx(sum(risk_items) / 2, abs=1e-12)
            assert sc.utility[i] == pytest.approx(sum(util_items) / 4, abs=1e-12)
            mean_u = sum(util_items) / 4
            sd_u = (sum((x - mean_u) ** 2 for x in util_items) / 3) ** 0.5
            assert sc.utility_sd[i] == pytest.approx(sd_u, abs=1e-12)

    def test_shift_invariance_of_dispersion(self):
        rng = np.random.default_rng(2)
        vals = rng.random((5, 5)) * 0.5
        nm = make_nm(vals, 2)
        shifted = vals.copy()
        shifted[:, 2:] += 0.25
        nm2 = make_nm(shifted, 2)
        s1, s2 = composite_scores(nm), composite_scores(nm2)
        np.testing.assert_allclose(s2.utility, s1.utility + 0.25, atol=1e-12)
        np.testing.assert_allclose(s2.utility_sd, s1.utility_sd, atol=1e-12)

    def test_block_shift_preserves_composite_pareto_membership(self):
        from ruviz.pareto import composite_front

        rng = np.random.default_rng(14)
        vals = rng.random((8, 5)) * 0.5
        nm = make_nm(vals, 2)
        shifted = vals.copy()
        shifted[:, 2:] += 0.3
        nm2 = make_nm(shifted, 2)
        s1, s2 = composite_scores(nm), composite_scores(nm2)
        assert (composite_front(s1.labels, s1.utility, s1.risk).ids
                == composite_front(s2.labels, s2.utility, s2.risk).ids)


class TestCronbachAlpha:
    def test_identical_two_items_exactly_one(self):
        x = np.array([0.13, 0.77, 0.31, 0.92, 0.55])
        alpha = cronbach_alpha(np.column_stack([x, x]))
        assert alpha == 1.0

    def test_identical_integer_items_exactly_one(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 7.0, 11.0])
        alpha = cronbach_alpha(np.column_stack([x] * 5))
        assert alpha == 1.0

    def test_uncorrelated_equal_variance_is_zero(self):
        # 4-row construction with exactly zero sample covariance
        a = np.array([1.0, 1.0, -1.0, -1.0])
        b = np.array([1.0, -1.0, 1.0, -1.0])
        assert float(np.cov(a, b, ddof=1)[0, 1]) == 0.0
        assert cronbach_alpha(np.column_stack([a, b])) == 0.0

    def test_zero_total_variance_nan(self):
        items = np.array([[1.0, -1.0], [2.0, -2.0], [3.0, -3.0]])
        with pytest.warns(UserWarning, match="zero total variance"):
            assert np.isnan(cronbach_alpha(items))

    def test_requires_two_items(self):
        with pytest.raises(ValueError):
            cronbach_alpha(np.ones((4, 1)))

    def test_permutation_and_scale_invariance(self):
        rng = np.random.default_rng(33)
        items = rng.random((8, 4))
        alpha = cronbach_alpha(items)
        perm = rng.permutation(4)
        assert cronbach_alpha(items[:, perm]) == pytest.approx(alpha, abs=1e-12)
        assert cronbach_alpha(items * 3.7) == pytest.approx(alpha, abs=1e-12)


class TestOmega:
    def test_exact_copies_give_one(self):
        x = np.array([0.2, 0.9, 0.4, 0.6, 0.1])
        omega = mcdonald_omega(np.column_stack([x, x, x]))
        assert omega == pytest.approx(1.0, abs=1e-10)

    def test_equal_loadings_formula(self):
        # exchangeable correlation 0.64 -> loadings 0.8 each, omega per formula
        X = sample_with_exact_cov(60, exchangeable(3, 0.64), seed=4)
        lam = one_factor_loadings(np.corrcoef(X, rowvar=False))
        np.testing.assert_allclose(lam, [0.8, 0.8, 0.8], atol=1e-7)
        omega = mcdonald_omega(X)
        assert omega == pytest.approx(5.76 / (5.76 + 3 * 0.36), abs=1e-7)

    def test_uncorrelated_items_near_zero(self):
        X = sample_with_exact_cov(80, np.eye(4), seed=8)
        omega = mcdonald_omega(X)
        assert abs(omega) < 1e-6

    def test_recovers_known_loadings(self):
        lam_true = np.array([0.9, 0.8, 0.7, 0.6, 0.5])
        cov = np.outer(lam_true, lam_true) + np.diag(1.0 - lam_true**2)
        X = sample_with_exact_cov(500, cov, seed=15)
        lam = one_factor_loadings(np.corrcoef(X, rowvar=False))
        np.testing.assert_allclose(lam, lam_true, atol=1e-6)
        expected = lam_true.sum() ** 2 / (
            lam_true.sum() ** 2 + (1.0 - lam_true**2).sum()
        )
        assert mcdonald_omega(X) == pytest.approx(expected, abs=1e-6)

    def test_tau_equivalent_omega_matches_alpha(self):
        X = sample_with_exact_cov(40, exchangeable(4, 0.6), seed=23)
        alpha = cronbach_alpha(X)
        omega = mcdonald_omega(X)
        assert omega == pytest.approx(alpha, abs=1e-6)

    def test_constant_item_rejected(self):
        X = np.column_stack([np.ones(6), np.arange(6.0)])
        with pytest.raises(AnalysisError, match="constant item"):
            mcdonald_omega(X)

    def test_requires_three_rows(self):
        with pytest.raises(ValueError):
            mcdonald_omega(np.random.default_rng(0).random((2, 3)))


class TestReliabilityReport:
    def test_verdict_thresholds(self):
        # strongly consistent utility block, incoherent risk block
        rng = np.random.default_rng(17)
        base = rng.random(12)
        util = np.column_stack([base + rng.normal(0, 0.03, 12) for _ in range(3)])
        util = (util - util.min()) / (util.max() - util.min())
        risk = rng.random((12, 2))
        nm = make_nm(np.column_stack([risk, util]).clip(0, 1), 2)
        rep = reliability_report(nm)
        assert rep.utility.alpha >= ALPHA_THRESHOLD
        assert rep.utility.verdict == "acceptable"
        assert rep.utility.n_items == 3
        assert "approaches" in rep.caveat

    def test_alpha_just_above_threshold_acceptable(self):
        # calibrated exchangeable block: alpha = k*rho / (1 + (k-1)*rho)
        rho = 0.375  # k=4 -> alpha = 1.5/2.125 = 0.70588...
        X = sample_with_exact_cov(30, exchangeable(4, rho), seed=5)
        X = (X - X.min()) / (X.max() - X.min())
        nm = make_nm(np.column_stack([np.linspace(0, 1, 30), X]), 1)
        rep = reliability_report(nm)
        assert 0.70 <= rep.utility.alpha <= 0.72
        assert rep.utility.verdict == "acceptable"

    def test_questionable_below_threshold(self):
        X = sample_with_exact_cov(30, exchangeable(3, 0.1), seed=6)
        X = (X - X.min()) / (X.max() - X.min())
        nm = make_nm(np.column_stack([np.linspace(0, 1, 30), X]), 1)
        rep = reliability_report(nm)
        assert rep.utility.alpha < ALPHA_THRESHOLD
        assert rep.utility.verdict == "questionable"
