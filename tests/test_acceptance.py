"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is pinned here; no expected value is asserted that was not
computed by an independent oracle or verified by construction.
"""

import json
import math
import shutil
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from ruviz.cli import main as cli_main
from ruviz.composites import cronbach_alpha, mcdonald_omega
from ruviz.model import harmonize_and_normalize, ingest
from ruviz.multivariate import (
    OutlierFlag,
    alignment,
    classify_sd_od,
    pca_fit,
    robust_pca,
    sd_od,
)
from ruviz.ordering import hclust
from ruviz.pareto import composite_front, knee_point, pareto_set
from ruviz.profiles import origami_profiles, ranked_areas

from conftest import (
    build_origami,
    columns,
    chi2_quantile_even_df,
    make_nm,
    oracle_front_ids,
    oracle_hclust,
    oracle_pareto_ids,
    reconstruct,
    row_ids,
    sample_with_exact_cov,
)

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {num:2d}: {description}")
        raise
    print(f"PASS  criterion {num:2d}: {description}")


def test_criterion_01_pareto_oracle_equivalence():
    with criterion(1, "pareto_set and composite_front match brute-force "
                      "oracles on 1000 random matrices in < 5 s"):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        for _ in range(1000):
            n = int(rng.integers(2, 11))
            p_risk = int(rng.integers(1, 7))
            p_util = int(rng.integers(1, 13 - p_risk))
            vals = rng.random((n, p_risk + p_util))
            nm = make_nm(vals, p_risk)
            got = pareto_set(nm).pareto_ids
            expected = oracle_pareto_ids(
                [list(row[p_risk:]) for row in vals],
                [list(row[:p_risk]) for row in vals],
            )
            assert got == {f"a{i}" for i in expected}

            pts = [(f"a{i}", float(u), float(r))
                   for i, (u, r) in enumerate(rng.random((n, 2)))]
            front = composite_front(*columns(pts))
            assert front.ids == oracle_front_ids(pts)
            assert (np.diff(front.risk) >= 0).all()
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_02_knee_correctness():
    with criterion(2, "knee of constructed fronts is the known max-distance "
                      "point within 1e-9"):
        front = composite_front(*columns([("a", 0.0, 0.0), ("b", 0.5, 0.9),
                                          ("c", 1.0, 1.0)]))
        knee = knee_point(front)
        assert knee is not None and knee.id == "b"
        assert abs(knee.distance - 0.4 / math.sqrt(2.0)) < 1e-9

        # parabola front: risk = utility^2, max chord distance at utility 0.5
        ts = np.linspace(0.0, 1.0, 21)  # includes 0.5 exactly
        front2 = composite_front(*columns([(f"p{i}", float(t), float(t * t))
                                           for i, t in enumerate(ts)]))
        assert len(front2.labels) == 21
        knee2 = knee_point(front2)
        assert knee2 is not None
        assert knee2.id == "p10"
        assert abs(knee2.distance - 0.25 / math.sqrt(2.0)) < 1e-9
        assert knee2.concave is True  # bows toward low risk

        # degenerate cases: collinear front and 2-point front have no knee
        assert knee_point(composite_front(*columns([("a", 0.0, 0.0), ("b", 0.5, 0.5),
                                                    ("c", 1.0, 1.0)]))) is None
        assert knee_point(composite_front(*columns([("a", 0.1, 0.2),
                                                    ("b", 0.9, 0.9)]))) is None


def test_criterion_03_reliability():
    with criterion(3, "alpha exact on identical items; omega matches alpha "
                      "(tau-equivalence, 1e-6) and known loadings (1e-3)"):
        x = np.array([0.13, 0.77, 0.31, 0.92, 0.55])
        assert cronbach_alpha(np.column_stack([x, x])) == 1.0
        ints = np.array([1.0, 2.0, 3.0, 4.0, 7.0, 11.0])
        assert cronbach_alpha(np.column_stack([ints] * 5)) == 1.0

        rho, k = 0.6, 4
        exch = (1 - rho) * np.eye(k) + rho * np.ones((k, k))
        X = sample_with_exact_cov(40, exch, seed=101)
        assert abs(mcdonald_omega(X) - cronbach_alpha(X)) < 1e-6

        lam = np.array([0.9, 0.8, 0.7, 0.6, 0.5])
        cov = np.outer(lam, lam) + np.diag(1.0 - lam**2)
        X500 = sample_with_exact_cov(500, cov, seed=202)
        expected = lam.sum() ** 2 / (lam.sum() ** 2 + (1.0 - lam**2).sum())
        assert abs(mcdonald_omega(X500) - expected) < 1e-3


def test_criterion_04_pca_numerics():
    with criterion(4, "PCA reconstruction < 1e-10, EVR sums to 1 +- 1e-10, "
                      "orthonormal loadings, eigenvalues match covariance "
                      "oracle within 1e-8 relative"):
        rng = np.random.default_rng(33)
        for _ in range(25):
            n = int(rng.integers(4, 12))
            p = int(rng.integers(2, 7))
            data = rng.normal(size=(n, p))
            k = min(n - 1, p)
            model = pca_fit(data, k)
            if model.k < k:  # rank-deficient draw, exceedingly unlikely
                continue
            recon = reconstruct(model, model.scores)
            assert np.abs(recon - data).max() < 1e-10
            assert abs(model.explained_variance_ratio.sum() - 1.0) < 1e-10
            gram = model.loadings.T @ model.loadings
            assert np.abs(gram - np.eye(k)).max() < 1e-10
            oracle = np.sort(np.linalg.eigvalsh(np.cov(data, rowvar=False)))[::-1]
            np.testing.assert_allclose(model.eigenvalues, oracle[:k], rtol=1e-8)


def test_criterion_05_sd_od():
    with criterion(5, "center point has SD = OD = 0; sd_cut(k=2) = 2.71620 "
                      "+- 1e-4 (chi-square oracle); quadrant flags exhaustive"):
        rng = np.random.default_rng(44)
        data = rng.random((9, 5))
        model = pca_fit(data, 2)
        probed = np.vstack([data, model.center])
        diag = sd_od(model, probed, "hubert", row_ids(len(probed)))
        assert abs(diag.sd[-1]) < 1e-10
        assert abs(diag.od[-1]) < 1e-10

        oracle_cut = math.sqrt(chi2_quantile_even_df(0.975, 2))
        assert abs(diag.sd_cutoff - oracle_cut) < 1e-4
        assert abs(diag.sd_cutoff - 2.71620) < 1e-4

        expected = {
            (False, False): OutlierFlag.REGULAR,
            (True, False): OutlierFlag.GOOD_LEVERAGE,
            (False, True): OutlierFlag.ORTHOGONAL,
            (True, True): OutlierFlag.BAD_LEVERAGE,
        }
        for (hi_sd, hi_od), flag in expected.items():
            sd = 5.0 if hi_sd else 0.5
            od = 3.0 if hi_od else 0.1
            assert classify_sd_od(sd, od, 2.0, 1.0) is flag


def test_criterion_06_robust_pca_trials():
    with criterion(6, "robust PC1 within 5 deg of clean PC1 and outlier "
                      "flagged bad leverage in >= 95% of 200 seeded trials"):
        cos5 = math.cos(math.radians(5.0))
        passes = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            basis, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            plane = basis[:, :2].T
            off = basis[:, 2]
            scores = rng.standard_normal((30, 2)) * np.array([8.0, 1.0])
            clean = scores @ plane
            outlier = 100.0 * (plane[0] + off) / math.sqrt(2.0)
            data = np.vstack([clean, outlier])

            clean_pc1 = pca_fit(clean, 2).loadings[:, 0]
            rmodel = robust_pca(data, 2, seed=seed)
            cosang = abs(float(rmodel.loadings[:, 0] @ clean_pc1))
            diag = sd_od(rmodel, data, "hubert", row_ids(len(data)))
            if cosang >= cos5 and diag.flags[-1] is OutlierFlag.BAD_LEVERAGE:
                passes += 1
        assert passes >= 190, f"only {passes}/200 trials passed"


def test_criterion_07_alignment():
    with criterion(7, "corr(PC1, utility) = 1 and joint R2 = 1 within 1e-9 "
                      "on aligned data; R2 >= max(rho^2) - 1e-10 always"):
        rng = np.random.default_rng(55)
        util = rng.random(9)
        data = np.outer(util, [1.0, 0.0, 0.0]) + 1e-3 * np.outer(
            rng.standard_normal(9), [0.0, 1.0, 0.0]
        )
        model = pca_fit(data, 2)
        rep = alignment(model, util, rng.random(9))
        assert abs(abs(rep.corr_utility) - 1.0) < 1e-9
        assert abs(rep.r2_joint - 1.0) < 1e-9

        for _ in range(100):
            n = int(rng.integers(4, 11))
            model = pca_fit(rng.random((n, 4)), 2)
            rep = alignment(model, rng.random(n), rng.random(n))
            assert rep.r2_joint >= max(rep.r2_utility, rep.r2_risk) - 1e-10


def test_criterion_08_origami_areas():
    with criterion(8, "all-ones profile area = 1 +- 1e-12; rotation-invariant "
                      "within 1e-9; fan-triangulation oracle within 1e-10 on "
                      "500 random profiles"):
        ids6 = tuple(f"m{i}" for i in range(6))
        ones = build_origami("x", np.ones(6), ids6, r_aux=0.1)
        assert abs(ones.area_normalized[0] - 1.0) < 1e-12

        rng = np.random.default_rng(66)
        for _ in range(500):
            m = int(rng.integers(3, 10))
            ids = tuple(f"m{i}" for i in range(m))
            vals = rng.random(m)
            r_aux = float(rng.uniform(0.05, 0.5))
            prof = build_origami("x", vals, ids, r_aux=r_aux)
            radii, area = prof.radii[0], prof.area_raw[0]

            # independent oracle: fan triangulation about the center
            k = 2 * m
            dtheta = 2.0 * math.pi / k
            fan = sum(
                0.5 * radii[i] * radii[(i + 1) % k] * math.sin(dtheta)
                for i in range(k)
            )
            assert abs(area - fan) < 1e-10

            shift = int(rng.integers(0, m))
            rotated = build_origami("x", np.roll(vals, shift), ids, r_aux=r_aux)
            assert abs(rotated.area_raw[0] - area) < 1e-9


def test_criterion_09_clustering_oracle():
    with criterion(9, "merge sequences equal the naive recomputation oracle "
                      "on 200 random matrices for all three linkages"):
        rng = np.random.default_rng(77)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            X = rng.random((n, int(rng.integers(2, 5))))
            for linkage in ("complete", "average", "single"):
                dend = hclust(X, linkage)
                expected = oracle_hclust(X, linkage)
                got_pairs = list(zip(dend.left.tolist(), dend.right.tolist()))
                assert got_pairs == [(a, b) for a, b, _ in expected]
                np.testing.assert_allclose(
                    dend.height,
                    [h for *_, h in expected],
                    rtol=1e-9, atol=1e-12,
                )


def test_criterion_10_end_to_end_determinism(tmp_path):
    with criterion(10, "two report runs produce byte-identical manifests on "
                       "the 9x10 fixture in < 10 s"):
        args = ["report", "--config", str(DATA / "study.json"),
                "--data", str(DATA / "measures.csv")]
        start = time.perf_counter()
        assert cli_main([*args, "--out", str(tmp_path / "r1")]) == 0
        assert cli_main([*args, "--out", str(tmp_path / "r2")]) == 0
        elapsed = time.perf_counter() - start
        m1 = (tmp_path / "r1" / "manifest.json").read_bytes()
        m2 = (tmp_path / "r2" / "manifest.json").read_bytes()
        assert m1 == m2
        entries = json.loads(m1)["artifacts"]
        assert [e["sha256"] for e in entries] == [
            e["sha256"] for e in json.loads(m2)["artifacts"]
        ]
        assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_criterion_11_fixture_study_smoke(tmp_path):
    with criterion(11, "bundled 9x10 fixture: composite Pareto set non-empty, "
                       "8 well-formed SVGs, ranked areas shaped like a "
                       "9-row table with the original first at 1.00"):
        config_path = DATA / "study.json"
        csv_path = DATA / "measures.csv"
        out = tmp_path / "smoke"
        assert cli_main(["report", "--config", str(config_path),
                         "--data", str(csv_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        svgs = [e["name"] for e in manifest["artifacts"]
                if e["name"].endswith(".svg")]
        assert len(svgs) == 8
        for name in svgs:
            ET.fromstring((out / name).read_text())

        pareto_doc = json.loads((out / "pareto.json").read_text())
        assert len(pareto_doc["pareto_composite"]) >= 1

        profiles_doc = json.loads((out / "profiles.json").read_text())
        areas = profiles_doc["areas"]
        assert len(areas) == 9
        assert areas[0]["id"] == "original"
        assert areas[0]["display"] == "1.00"
        values = [a["area"] for a in areas]
        assert values == sorted(values, reverse=True)

        # cross-check the pipeline objects directly
        from ruviz.config import StudyConfig

        cfg = StudyConfig.from_file(config_path)
        nm = harmonize_and_normalize(ingest(csv_path.read_bytes(), cfg), False)
        table = ranked_areas(origami_profiles(nm, r_aux=0.1))
        assert list(table.ids) == [a["id"] for a in areas]
