import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ruviz.errors import AnalysisError
from ruviz import multivariate
from ruviz.model import Block
from ruviz.multivariate import (
    OutlierFlag,
    PcaModel,
    alignment,
    blockwise_pca,
    classify_sd_od,
    group_summaries,
    orient,
    pca_fit,
    project_acceptance_region,
    robust_pca,
    _chi2_ppf,
    _direction_pairs,
    _normal_ppf,
    _stahel_donoho_outlyingness,
    sd_od,
)

from conftest import (
    chi2_quantile_even_df,
    gift_wrap_hull,
    make_nm,
    make_specs,
    oracle_acceptance_vertices,
    oracle_outlyingness,
    point_in_convex_polygon,
    sample_with_exact_cov,
)


class TestPcaFit:
    def test_rank_one_data_pc1_explains_everything(self):
        t = np.linspace(-2, 2, 9)
        data = np.column_stack([t, 3 * t])
        with pytest.warns(UserWarning, match="rank-deficient"):
            model = pca_fit(data, 2)
        assert model.k == 1
        assert model.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-12)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(42)
        data = rng.random((8, 5))
        model = pca_fit(data, 5)
        recon = model.reconstruct(model.scores)
        assert np.abs(recon - data).max() < 1e-10

    def test_eigenvalues_match_covariance_oracle(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(8, 5))
        model = pca_fit(data, 5)
        oracle = np.sort(np.linalg.eigvalsh(np.cov(data, rowvar=False)))[::-1]
        np.testing.assert_allclose(model.eigenvalues, oracle[:5], rtol=1e-8)

    def test_orthonormal_loadings_and_centered_scores(self):
        rng = np.random.default_rng(3)
        data = rng.random((10, 6))
        model = pca_fit(data, 4)
        gram = model.loadings.T @ model.loadings
        assert np.abs(gram - np.eye(4)).max() < 1e-10
        assert np.abs(model.scores.mean(axis=0)).max() < 1e-10

    def test_evr_sums_to_one_at_full_rank(self):
        rng = np.random.default_rng(11)
        model = pca_fit(rng.random((7, 4)), 4)
        assert model.explained_variance_ratio.sum() == pytest.approx(1.0, abs=1e-10)

    def test_sign_convention(self):
        rng = np.random.default_rng(19)
        model = pca_fit(rng.random((9, 5)), 3)
        for j in range(3):
            col = model.loadings[:, j]
            assert col[np.argmax(np.abs(col))] >= 0.0

    def test_k_out_of_range(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="k must be"):
            pca_fit(rng.random((5, 3)), 5)
        with pytest.raises(ValueError, match="k must be"):
            pca_fit(rng.random((5, 3)), 0)

    def test_reconstruction_residual_orthogonal_to_span(self):
        rng = np.random.default_rng(8)
        data = rng.random((9, 5))
        model = pca_fit(data, 2)
        resid = data - model.reconstruct(model.scores)
        assert np.abs(resid @ model.loadings).max() < 1e-10


class TestOrient:
    def _model_with_neg_corr(self):
        rng = np.random.default_rng(5)
        data = rng.random((8, 4))
        model = pca_fit(data, 2)
        util = -model.scores[:, 0] + rng.normal(0, 0.05, 8)
        risk = model.scores[:, 1] + rng.normal(0, 0.05, 8)
        return model, util, risk

    def test_flip_restores_positive_correlation(self):
        model, util, risk = self._model_with_neg_corr()
        assert np.corrcoef(model.scores[:, 0], util)[0, 1] < 0
        fixed = orient(model, util, risk, enabled=True)
        assert np.corrcoef(fixed.scores[:, 0], util)[0, 1] > 0
        assert np.corrcoef(fixed.scores[:, 1], -risk)[0, 1] >= 0

    def test_disabled_returns_same_object(self):
        model, util, risk = self._model_with_neg_corr()
        assert orient(model, util, risk, enabled=False) is model

    def test_idempotent(self):
        model, util, risk = self._model_with_neg_corr()
        once = orient(model, util, risk, enabled=True)
        twice = orient(once, util, risk, enabled=True)
        np.testing.assert_array_equal(once.scores, twice.scores)
        np.testing.assert_array_equal(once.loadings, twice.loadings)

    def test_loadings_flip_with_scores(self):
        model, util, risk = self._model_with_neg_corr()
        fixed = orient(model, util, risk, enabled=True)
        # scores must still equal the projection under the flipped loadings
        rng_data = fixed.reconstruct(fixed.scores)
        np.testing.assert_allclose(
            fixed.transform(rng_data), fixed.scores, atol=1e-10
        )


class TestAlignment:
    def test_perfect_alignment(self):
        rng = np.random.default_rng(31)
        util = rng.random(8)
        # build data whose first component is exactly the centered utility
        direction = np.array([1.0, 0.0, 0.0])
        data = np.outer(util, direction) + 0.001 * np.outer(
            rng.standard_normal(8), np.array([0.0, 1.0, 0.0])
        )
        model = pca_fit(data, 2)
        risk = rng.random(8)
        rep = alignment(model, util, risk)
        assert abs(rep.corr_utility) == pytest.approx(1.0, abs=1e-9)
        assert rep.r2_joint == pytest.approx(1.0, abs=1e-9)

    def test_r2_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(13)
        data = rng.random((9, 5))
        model = pca_fit(data, 2)
        util = rng.random(9)
        risk = rng.random(9)
        rep = alignment(model, util, risk)
        # explicit 3x3 normal equations
        X = np.column_stack([np.ones(9), util, risk])
        beta = np.linalg.inv(X.T @ X) @ X.T @ model.scores[:, 0]
        resid = model.scores[:, 0] - X @ beta
        t1 = model.scores[:, 0]
        r2 = 1.0 - float(resid @ resid) / float(((t1 - t1.mean()) ** 2).sum())
        assert rep.r2_joint == pytest.approx(r2, abs=1e-10)

    def test_r2_never_below_individual_correlations(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            data = rng.random((int(rng.integers(4, 10)), 4))
            model = pca_fit(data, 2)
            util = rng.random(data.shape[0])
            risk = rng.random(data.shape[0])
            rep = alignment(model, util, risk)
            assert rep.r2_joint >= max(rep.r2_utility, rep.r2_risk) - 1e-10

    def test_collinear_flagged(self):
        rng = np.random.default_rng(1)
        data = rng.random((8, 4))
        model = pca_fit(data, 2)
        util = rng.random(8)
        rep = alignment(model, util, 2.0 * util + 1.0)
        assert rep.collinear
        assert np.isfinite(rep.r2_joint)

    def test_needs_four_rows(self):
        rng = np.random.default_rng(2)
        data = rng.random((3, 4))
        model = pca_fit(data, 2)
        with pytest.raises(ValueError, match="at least 4"):
            alignment(model, np.ones(3), np.ones(3))


class TestBlockwise:
    def test_contributions_from_loadings(self):
        # two-measure block engineered to loadings (0.6, 0.8)
        rng = np.random.default_rng(4)
        f = rng.standard_normal(400)
        block = np.column_stack([0.6 * f, 0.8 * f])
        model = pca_fit(block, 1)
        lam = model.loadings[:, 0]
        np.testing.assert_allclose(np.abs(lam), [0.6, 0.8], atol=1e-12)
        contrib = lam**2 / (lam**2).sum()
        np.testing.assert_allclose(contrib, [0.36, 0.64], atol=1e-12)

    def test_contribution_sums_and_sign_invariance(self):
        rng = np.random.default_rng(44)
        nm = make_nm(rng.random((8, 6)), 3)
        bw = blockwise_pca(nm)
        for axis in (bw.utility, bw.risk):
            assert axis.contributions.sum() == pytest.approx(1.0, abs=1e-12)
            flipped = (-axis.loadings) ** 2 / ((axis.loadings**2).sum())
            np.testing.assert_allclose(axis.contributions, flipped, atol=1e-15)

    def test_perfectly_correlated_block(self):
        base = np.linspace(0.0, 1.0, 9)
        vals = np.column_stack([base, base, base, 1.0 - base])  # 3 risk + 1 util
        with pytest.warns(UserWarning, match="single measure"):
            bw = blockwise_pca(make_nm(vals, 3))
        assert bw.risk.explained_variance_ratio == pytest.approx(1.0, abs=1e-12)
        signs = np.sign(bw.risk.loadings)
        assert np.all(signs == signs[0])
        assert bw.utility.fallback
        np.testing.assert_allclose(bw.utility.contributions, [1.0])
        np.testing.assert_array_equal(bw.utility.scores, vals[:, 3])


class TestSdOd:
    def test_point_at_center_zero_distances(self):
        rng = np.random.default_rng(10)
        data = rng.random((8, 4))
        model = pca_fit(data, 2)
        diag = sd_od(model, np.vstack([data, model.center]))
        assert diag.sd[-1] == pytest.approx(0.0, abs=1e-10)
        assert diag.od[-1] == pytest.approx(0.0, abs=1e-10)
        assert diag.flags[-1] is OutlierFlag.REGULAR

    def test_sd_cutoff_matches_chi2_oracle(self):
        rng = np.random.default_rng(12)
        data = rng.random((9, 5))
        model = pca_fit(data, 2)
        diag = sd_od(model, data)
        oracle = math.sqrt(chi2_quantile_even_df(0.975, 2))
        assert diag.sd_cutoff == pytest.approx(oracle, abs=1e-4)
        assert diag.sd_cutoff == pytest.approx(2.71620, abs=1e-4)

    def test_quadrant_classification_exhaustive(self):
        cases = {
            (False, False): OutlierFlag.REGULAR,
            (True, False): OutlierFlag.GOOD_LEVERAGE,
            (False, True): OutlierFlag.ORTHOGONAL,
            (True, True): OutlierFlag.BAD_LEVERAGE,
        }
        sd_cut, od_cut = 2.0, 1.0
        for (high_sd, high_od), expected in cases.items():
            sd = 3.0 if high_sd else 1.0
            od = 2.0 if high_od else 0.5
            assert classify_sd_od(sd, od, sd_cut, od_cut) is expected

    def test_flags_consistent_with_cutoffs(self):
        rng = np.random.default_rng(3)
        data = rng.random((12, 5))
        model = pca_fit(data, 2)
        diag = sd_od(model, data)
        for s, o, f in zip(diag.sd, diag.od, diag.flags):
            assert f is classify_sd_od(float(s), float(o), diag.sd_cutoff,
                                       diag.od_cutoff)

    def test_orthogonal_residual_exact(self):
        # 2-D data on the x axis, k=1: a probe at (0, d) has OD exactly d
        xs = np.linspace(-3, 3, 7)
        data = np.column_stack([xs, np.zeros(7)])
        model = pca_fit(data, 1)
        d = 1.7
        diag = sd_od(model, np.vstack([data, [0.0, d]]))
        assert diag.od[-1] == pytest.approx(d, abs=1e-12)

    def test_all_od_zero_degenerate(self):
        xs = np.linspace(-2, 2, 8)
        data = np.column_stack([xs, 2 * xs + 1])
        with pytest.warns(UserWarning, match="rank-deficient"):
            model = pca_fit(data, 2)
        diag = sd_od(model, data)  # k reduced to 1, all points in subspace
        assert diag.od_cutoff == pytest.approx(0.0, abs=1e-12)
        assert all(
            f in (OutlierFlag.REGULAR, OutlierFlag.GOOD_LEVERAGE)
            for f in diag.flags
        )

    def test_literal_mode_cutoff(self):
        rng = np.random.default_rng(31)
        data = rng.random((10, 4))
        model = pca_fit(data, 2)
        diag = sd_od(model, data, od_cut_mode="literal")
        od = diag.od
        med = float(np.median(od))
        madn = 1.4826 * float(np.median(np.abs(od - med)))
        z = 1.959963984540054
        assert diag.od_cutoff == pytest.approx(med + z * madn, abs=1e-9)

    def test_unknown_mode_rejected(self):
        rng = np.random.default_rng(0)
        model = pca_fit(rng.random((6, 3)), 2)
        with pytest.raises(ValueError, match="od_cut_mode"):
            sd_od(model, rng.random((6, 3)), od_cut_mode="nope")


def _rank2_cloud_with_outlier(seed: int, n: int = 30):
    """Rank-2 clean cloud in 4-D plus one gross off-subspace outlier.

    The first in-plane direction dominates (8:1 spread) so the clean PC1 is
    well identified at n = 30; the outlier sits at 100x scale, half inside
    and half orthogonal to the clean plane.
    """
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    plane = basis[:, :2].T  # 2 x 4, orthonormal rows
    off = basis[:, 2]
    scores = rng.standard_normal((n, 2)) * np.array([8.0, 1.0])
    clean = scores @ plane
    outlier = 100.0 * (plane[0] + off) / math.sqrt(2.0)
    return clean, np.vstack([clean, outlier])


class TestQuantiles:
    def test_special_functions_equal_scipy_stats(self):
        assert _normal_ppf(0.975) == stats.norm.ppf(0.975)
        assert _chi2_ppf(0.95, 2) == stats.chi2.ppf(0.95, df=2)
        for df in range(1, 40):
            assert _chi2_ppf(0.975, df) == stats.chi2.ppf(0.975, df=df)

    def test_pinned_quantiles_equal_scipy_stats(self):
        # the four quantiles the k = 2 pipeline uses, kept as literals
        assert multivariate._NORMAL_PPF == {0.975: stats.norm.ppf(0.975)}
        assert multivariate._CHI2_PPF == {
            (q, df): stats.chi2.ppf(q, df=df)
            for q, df in [(0.95, 2), (0.975, 1), (0.975, 2)]
        }


class TestOutlyingness:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(4, 70),
        dims=st.integers(1, 4),
        grid=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_one_direction_at_a_time(self, n, dims, grid, seed):
        rng = np.random.default_rng(seed)
        if grid:  # many tied projections and zero-MAD directions
            Y = rng.integers(-2, 3, size=(n, dims)).astype(float)
        else:
            Y = rng.standard_normal((n, dims))
        pairs = _direction_pairs(n, seed)
        try:
            expected = oracle_outlyingness(Y, pairs)
        except AnalysisError as exc:
            with pytest.raises(AnalysisError, match=str(exc)):
                _stahel_donoho_outlyingness(Y, pairs)
            return
        got = _stahel_donoho_outlyingness(Y, pairs)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("Y", [
        np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [4.0, 5.0]]),  # zero MAD
        np.ones((5, 2)),  # no direction at all
    ])
    def test_all_degenerate_raises_like_oracle(self, Y):
        pairs = _direction_pairs(len(Y), 0)
        with pytest.raises(AnalysisError, match="every projection direction"):
            oracle_outlyingness(Y, pairs)
        with pytest.raises(AnalysisError, match="every projection direction"):
            _stahel_donoho_outlyingness(Y, pairs)


class TestRobustPca:
    @pytest.mark.parametrize("fit", [pca_fit, robust_pca])
    def test_constant_data_has_no_components(self, fit):
        with pytest.raises(AnalysisError,
                           match="^PCA undefined: data matrix has no variation$"):
            fit(np.full((6, 3), 0.5), 2)

    def test_resists_gross_outlier(self):
        hits = 0
        for seed in range(30):
            clean, data = _rank2_cloud_with_outlier(seed)
            clean_pc1 = pca_fit(clean, 2).loadings[:, 0]
            rmodel = robust_pca(data, 2, seed=seed)
            cosang = abs(float(rmodel.loadings[:, 0] @ clean_pc1))
            diag = sd_od(rmodel, data)
            if cosang >= math.cos(math.radians(5.0)) and (
                diag.flags[-1] is OutlierFlag.BAD_LEVERAGE
            ):
                hits += 1
        assert hits >= 29

    def test_classical_fit_deviates_more(self):
        clean, data = _rank2_cloud_with_outlier(0)
        clean_pc1 = pca_fit(clean, 2).loadings[:, 0]
        robust_pc1 = robust_pca(data, 2, seed=0).loadings[:, 0]
        classical_pc1 = pca_fit(data, 2).loadings[:, 0]
        ang = lambda v: math.degrees(math.acos(min(abs(float(v @ clean_pc1)), 1.0)))
        assert ang(classical_pc1) > ang(robust_pc1)
        assert ang(classical_pc1) > 5.0

    def test_clean_data_agrees_with_classical(self):
        rng = np.random.default_rng(77)
        data = rng.standard_normal((40, 4)) * np.array([3.0, 2.0, 1.0, 0.5])
        classical = pca_fit(data, 2)
        robust = robust_pca(data, 2, seed=1)
        for j in range(2):
            a = classical.loadings[:, j]
            b = robust.loadings[:, j]
            if float(a @ b) < 0:
                b = -b
            assert np.abs(a - b).max() < 0.15

    def test_scores_cover_all_rows(self):
        _, data = _rank2_cloud_with_outlier(3)
        model = robust_pca(data, 2, seed=3)
        assert model.scores.shape == (len(data), 2)

    def test_relabeling_invariance(self):
        _, data = _rank2_cloud_with_outlier(5)
        perm = np.random.default_rng(5).permutation(len(data))
        m1 = robust_pca(data, 2, seed=5)
        m2 = robust_pca(data[perm], 2, seed=5)
        np.testing.assert_allclose(np.abs(m1.loadings), np.abs(m2.loadings),
                                   atol=1e-8)

    def test_needs_four_rows(self):
        with pytest.raises(ValueError, match="at least 4"):
            robust_pca(np.eye(3), 1)

    def test_all_degenerate_directions_rejected(self):
        # three identical rows and one distinct: every usable pair direction
        # has zero MAD, so outlyingness is undefined
        row_a = np.array([1.0, 2.0, 3.0])
        row_b = np.array([4.0, 5.0, 6.0])
        data = np.vstack([row_a, row_a, row_a, row_b])
        with pytest.raises(AnalysisError, match="outlyingness undefined"):
            robust_pca(data, 1)

    def test_duplicating_central_row_acts_only_through_subset_size(self):
        # a duplicated non-outlying observation changes the fit only via the
        # trimmed-subset size (h grows by one); it must not register as an
        # outlier or swing the leading direction
        rng = np.random.default_rng(21)
        data = rng.standard_normal((30, 4)) * np.array([6.0, 2.0, 1.0, 0.5])
        central = data[np.argmin(np.linalg.norm(data - data.mean(0), axis=1))]
        extended = np.vstack([data, central])
        model_a = robust_pca(data, 2, seed=0)
        model_b = robust_pca(extended, 2, seed=0)
        a = model_a.loadings[:, 0]
        b = model_b.loadings[:, 0]
        assert abs(float(a @ b)) > math.cos(math.radians(6.0))
        diag = sd_od(model_b, extended)
        assert diag.flags[-1] is OutlierFlag.REGULAR

    @pytest.mark.parametrize("n", [51, 60, 200])
    def test_sampled_pairs_match_listed_selection(self, n, monkeypatch):
        def listed_pairs(n, seed):
            # draws ranks into the full list of pairs, then looks them up
            all_pairs = list(itertools.combinations(range(n), 2))
            rng = np.random.default_rng(seed)
            chosen = rng.choice(len(all_pairs), size=min(250, len(all_pairs)),
                                replace=False)
            return [all_pairs[int(c)] for c in sorted(chosen)]

        for seed in (0, 42, 9001):
            assert _direction_pairs(n, seed) == listed_pairs(n, seed)
        data = np.random.default_rng(n).standard_normal((n, 4))
        model = robust_pca(data, 2, seed=7)
        monkeypatch.setattr(multivariate, "_direction_pairs", listed_pairs)
        expected = robust_pca(data, 2, seed=7)
        for field in dataclasses.fields(model):
            np.testing.assert_array_equal(getattr(model, field.name),
                                          getattr(expected, field.name))


class TestAcceptanceRegion:
    def _fit_model(self, seed=2, n=9, n_risk=2, n_util=3):
        rng = np.random.default_rng(seed)
        vals = rng.random((n, n_risk + n_util))
        nm = make_nm(vals, n_risk)
        return pca_fit(vals, 2), nm

    def test_full_range_box_contains_all_scores(self):
        model, nm = self._fit_model()
        thresholds = {f"r{i}": 1.0 for i in range(2)}
        thresholds.update({f"u{i}": 0.0 for i in range(3)})
        poly = project_acceptance_region(model, nm.specs, thresholds)
        for score in model.scores[:, :2]:
            assert point_in_convex_polygon(score, poly.vertices, tol=1e-7)

    def test_identity_loadings_box_is_translated_box(self):
        center = np.array([0.3, 0.4])
        model = PcaModel(
            center=center,
            loadings=np.eye(2),
            eigenvalues=np.array([1.0, 0.5]),
            explained_variance_ratio=np.array([2 / 3, 1 / 3]),
            scores=np.zeros((2, 2)),
            total_variance=1.5,
        )
        specs = make_specs(1, 1)  # r0 risk, u0 utility
        poly = project_acceptance_region(model, specs, {"r0": 0.6, "u0": 0.2})
        # box risk [0, 0.6] x utility [0.2, 1.0], translated by -center
        expected = {
            (0.0 - 0.3, 0.2 - 0.4),
            (0.0 - 0.3, 1.0 - 0.4),
            (0.6 - 0.3, 0.2 - 0.4),
            (0.6 - 0.3, 1.0 - 0.4),
        }
        got = {(round(x, 12), round(y, 12)) for x, y in poly.vertices}
        assert got == expected

    def test_hull_matches_gift_wrap_oracle(self):
        model, nm = self._fit_model(seed=9)
        thresholds = {"r0": 0.5, "r1": 0.7, "u0": 0.3, "u1": 0.2, "u2": 0.6}
        poly = project_acceptance_region(model, nm.specs, thresholds)
        # independent route: enumerate all 32 corners, gift-wrap the hull
        import itertools

        intervals = []
        for spec in nm.specs:
            c = thresholds[spec.id]
            intervals.append((0.0, c) if spec.block is Block.RISK else (c, 1.0))
        corners = np.array(list(itertools.product(*intervals)))
        projected = (corners - model.center) @ model.loadings[:, :2]
        oracle = gift_wrap_hull(projected)
        got = {(float(x), float(y)) for x, y in poly.vertices}
        assert len(got) == len(oracle)
        for gx, gy in got:
            assert any(abs(gx - ox) < 1e-9 and abs(gy - oy) < 1e-9
                       for ox, oy in oracle)

    def test_feasible_points_project_inside(self):
        model, nm = self._fit_model(seed=30)
        thresholds = {"r0": 0.8, "r1": 0.9, "u0": 0.1, "u1": 0.15, "u2": 0.05}
        poly = project_acceptance_region(model, nm.specs, thresholds)
        rng = np.random.default_rng(1)
        intervals = []
        for spec in nm.specs:
            c = thresholds[spec.id]
            intervals.append((0.0, c) if spec.block is Block.RISK else (c, 1.0))
        for _ in range(300):
            x = np.array([rng.uniform(lo, hi) for lo, hi in intervals])
            t = (x - model.center) @ model.loadings[:, :2]
            assert point_in_convex_polygon(t, poly.vertices, tol=1e-7)

    def test_more_than_30_measures_accepted(self):
        rng = np.random.default_rng(0)
        vals = rng.random((40, 31))
        model = pca_fit(vals, 2)
        specs = make_specs(16, 15)
        poly = project_acceptance_region(model, specs, {})
        assert 3 <= len(poly.vertices) <= 2 * 31

    def test_large_p_contains_feasible_points(self):
        rng = np.random.default_rng(14)
        vals = rng.random((40, 18))
        model = pca_fit(vals, 2)
        specs = make_specs(9, 9)
        thresholds = {s.id: 0.7 if s.block is Block.RISK else 0.2 for s in specs}
        poly = project_acceptance_region(model, specs, thresholds)
        intervals = [
            (0.0, 0.7) if s.block is Block.RISK else (0.2, 1.0) for s in specs
        ]
        for _ in range(200):
            x = np.array([rng.uniform(lo, hi) for lo, hi in intervals])
            t = (x - model.center) @ model.loadings[:, :2]
            assert point_in_convex_polygon(t, poly.vertices, tol=1e-6)

    @pytest.mark.parametrize("p", [17, 20, 24, 30, 40])
    def test_support_matches_box_for_any_p(self, p):
        # the polygon reaches as far as the box in every direction
        rng = np.random.default_rng(p)
        model = pca_fit(rng.random((40, p)), 2)
        specs = make_specs(p // 2, p - p // 2)
        thresholds = {s.id: float(rng.uniform(0.3, 0.7)) for s in specs}
        poly = project_acceptance_region(model, specs, thresholds)
        risk = np.array([s.block is Block.RISK for s in specs])
        cut = np.array([thresholds[s.id] for s in specs])
        lo = np.where(risk, 0.0, cut) - model.center
        hi = np.where(risk, cut, 1.0) - model.center
        for t in np.arange(64) * (2.0 * np.pi / 64):
            u = np.array([math.cos(t), math.sin(t)])
            au = model.loadings[:, :2] @ u
            support = float(np.maximum(lo * au, hi * au).sum())
            assert abs(float(np.max(poly.vertices @ u)) - support) < 1e-12
        assert len(poly.vertices) == 2 * p

    @settings(max_examples=150, deadline=None)
    @given(
        p=st.integers(1, 12),
        data=st.data(),
        zero_row=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_corner_enumeration_oracle(self, p, data, zero_row, seed):
        # cutoffs on a tied grid; risk 0 and utility 1 give zero-width intervals
        n_risk = data.draw(st.integers(0, p))
        specs = make_specs(n_risk, p - n_risk)
        grid = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
        thresholds = {s.id: data.draw(grid) for s in specs}
        rng = np.random.default_rng(seed)
        loadings = rng.normal(size=(p, 2))
        if zero_row:
            loadings[rng.integers(p)] = 0.0
        model = PcaModel(
            center=rng.random(p),
            loadings=loadings,
            eigenvalues=np.array([1.0, 0.5]),
            explained_variance_ratio=np.array([2 / 3, 1 / 3]),
            scores=np.zeros((2, 2)),
            total_variance=1.5,
        )
        got = project_acceptance_region(model, specs, thresholds).vertices
        expected = oracle_acceptance_vertices(model, specs, thresholds)
        assert got.shape == expected.shape
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)

    def test_unknown_threshold_id(self):
        model, nm = self._fit_model()
        with pytest.raises(ValueError, match="unknown measure"):
            project_acceptance_region(model, nm.specs, {"zz": 0.5})


class TestGroupSummaries:
    def test_identical_points_centroid_only(self):
        pts = np.tile([[0.3, 0.7]], (4, 1))
        (summary,) = group_summaries(pts, ["g"] * 4)
        np.testing.assert_allclose(summary.centroid, [0.3, 0.7])
        assert summary.ellipse_axes is None
        assert summary.kind in ("point", "hull")

    def test_two_groups_centroids_are_means(self):
        rng = np.random.default_rng(8)
        a = rng.random((5, 2))
        b = rng.random((4, 2)) + 2.0
        pts = np.vstack([a, b])
        labels = ["a"] * 5 + ["b"] * 4
        summaries = {s.label: s for s in group_summaries(pts, labels)}
        np.testing.assert_allclose(summaries["a"].centroid, a.mean(axis=0))
        np.testing.assert_allclose(summaries["b"].centroid, b.mean(axis=0))

    def test_isotropic_group_axes_nearly_equal(self):
        pts = sample_with_exact_cov(200, np.eye(2), seed=3)
        (summary,) = group_summaries(pts, ["g"] * 200)
        assert summary.ellipse_axes is not None
        lens = np.linalg.norm(summary.ellipse_axes, axis=1)
        assert abs(lens[0] - lens[1]) / lens.max() < 0.10

    def test_pair_group_gets_hull(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        (summary,) = group_summaries(pts, ["g", "g"])
        assert summary.kind == "hull"
        assert summary.hull is not None and len(summary.hull) == 2

    def test_ellipse_covers_95_percent_of_large_sample(self):
        rng = np.random.default_rng(123)
        pts = rng.multivariate_normal([0, 0], [[2.0, 0.6], [0.6, 1.0]], size=4000)
        (summary,) = group_summaries(pts, ["g"] * 4000)
        axes = summary.ellipse_axes
        inv = np.linalg.inv(np.stack([axes[0], axes[1]]).T)
        rel = (pts - summary.centroid) @ inv.T
        inside = (np.linalg.norm(rel, axis=1) <= 1.0).mean()
        assert 0.93 <= inside <= 0.97
