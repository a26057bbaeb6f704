import dataclasses
import errno
import functools
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.cluster.hierarchy import cut_tree

from ruviz import pipeline
from ruviz.__about__ import VERSION
from ruviz.cli import main
from ruviz.config import LINKAGES, OD_CUT_MODES, StudyConfig, StudyOptions
from ruviz.errors import AnalysisError, RuvizError, ValidationError
from ruviz.model import Approaches, Block, Direction, MeasureMatrix, MeasureSpec, ingest
from ruviz.multivariate import OutlierFlag, orient, pca_fit
from ruviz.pareto import pareto_set
from ruviz.pipeline import (
    FIGURE_BUILDERS,
    JSON_BUILDERS,
    STAGES,
    StudyResult,
    _atomic_write,
    artifact_jsons,
    render_all,
    render_plot,
    run_study,
    write_report,
)
from ruviz.render import ROW_BUDGET, per_row
from ruviz.svg import Line, Rect, Text

from conftest import (
    assert_in_bounds,
    batch_rows,
    generated_study,
    json_text,
    oracle_dominance,
    overlapping_boxes,
    svg_elements,
    text_boxes,
    title_of,
)

DATA = Path(__file__).parent / "data"
README = Path(__file__).parents[1] / "README.md"


FOUR_MEASURES = {
    "measures": [
        {"id": "r0", "block": "risk", "direction": "lower"},
        {"id": "r1", "block": "risk", "direction": "lower"},
        {"id": "u0", "block": "utility", "direction": "lower"},
        {"id": "u1", "block": "utility", "direction": "lower"},
    ],
    "reference": "orig",
}

# thresholds, column clustering, robust PCA and orientation all on
MULTI_DATASET_OPTIONS = {
    "thresholds": {"r0": 0.8, "r1": 0.7, "u0": 0.4, "u1": 0.3},
    "cluster_columns": True, "robust": True, "orient": True,
}


def _inputs(config_doc, csv):
    config = StudyConfig.from_json(json.dumps(config_doc))
    return ingest(csv, config), config


def _documents(result):
    """The JSON documents as a consumer reads them: written, then parsed."""
    return {name: json.loads(json_text(doc)) for name, doc in artifact_jsons(result).items()}


def multi_dataset_csv():
    rng = np.random.default_rng(12)
    lines = ["approach,dataset,r0,r1,u0,u1"]
    for ds in ("d1", "d2"):
        lines.append(f"orig,{ds},1.0,1.0,0.0,0.0")
        for name in ("m1", "m2", "m3", "m4"):
            vals = rng.uniform(0.1, 0.9, 4)
            lines.append(f"{name},{ds}," + ",".join(f"{v:.4f}" for v in vals))
    return "\n".join(lines) + "\n"


def multi_dataset_inputs():
    return _inputs(FOUR_MEASURES, multi_dataset_csv())


# two datasets whose reference rows differ, so their rays do too
TWO_REFERENCE_CSV = """approach,dataset,r0,r1,u0,u1
orig,d1,1.0,1.0,0.0,0.0
m1,d1,0.5,0.6,0.3,0.2
m2,d1,0.3,0.2,0.6,0.5
m3,d1,0.7,0.8,0.2,0.1
orig,d2,0.8,0.7,0.1,0.2
m1,d2,0.4,0.3,0.4,0.5
m2,d2,0.2,0.1,0.8,0.7
m3,d2,0.6,0.4,0.3,0.35
"""


def two_reference_inputs():
    return _inputs(FOUR_MEASURES, TWO_REFERENCE_CSV)


TWO_MEASURES = {
    "measures": [
        {"id": "r0", "block": "risk", "direction": "lower"},
        {"id": "u0", "block": "utility", "direction": "higher"},
    ],
    "reference": "orig",
}


def two_measure_csv():
    rng = np.random.default_rng(7)
    lines = ["approach,r0,u0"]
    lines.append("orig,1.0,1.0")
    for i in range(5):
        v = rng.uniform(0.0, 0.9, 2)
        lines.append(f"m{i},{v[0]:.3f},{v[1]:.3f}")
    return "\n".join(lines) + "\n"


class TestMultiDataset:
    def test_groups_and_rays_per_dataset(self):
        matrix, config = multi_dataset_inputs()
        result = run_study(matrix, config)
        assert result.groups is not None
        assert sorted(g.label for g in result.groups) == ["d1", "d2"]
        # rays exist for every candidate, computed against its own reference
        rays = result.pareto.rays
        assert len(rays.ids) == 8
        assert {i.split("@")[1] for i in rays.ids} == {"d1", "d2"}
        assert [rays.reference_labels[k].split("@")[1] for k in rays.reference] == [
            i.split("@")[1] for i in rays.ids]

    def test_labels_carry_dataset(self):
        matrix, config = multi_dataset_inputs()
        result = run_study(matrix, config)
        assert "m1@d1" in result.nm.labels
        doc = _documents(result)["pca"]
        assert "groups" in doc
        kinds = {g["kind"] for g in doc["groups"]}
        assert kinds <= {"ellipse", "hull", "point"}

    def test_rays_plot_ends_each_ray_at_its_own_reference(self):
        matrix, config = two_reference_inputs()
        result = run_study(matrix, config)
        doc = render_plot(result, "rays")
        assert_in_bounds(doc)
        refs = {cols["title"]: (v[0] + v[2] / 2, v[1] + v[3] / 2)
                for v, cols in batch_rows(doc, Rect) if cols.get("title")}
        assert sorted(refs) == ["orig@d1", "orig@d2"]
        assert refs["orig@d1"] != refs["orig@d2"]
        texts = {e.text for e in svg_elements(doc, "text")}
        assert {"orig@d1", "orig@d2"} <= texts
        ends = [(v[2], v[3]) for v, _ in
                batch_rows(doc, Line, stroke="#c8c8c8", stroke_width=1.0)]
        expected = [refs["orig@" + i.split("@")[1]] for i in result.pareto.rays.ids]
        assert ends == [pytest.approx(e) for e in expected]

    def test_reference_only_dataset_has_an_empty_ray_group(self, tmp_path):
        # d2 holds its reference row and no candidates
        matrix, config = _inputs(FOUR_MEASURES, TWO_REFERENCE_CSV.split("m1,d2")[0])
        result = run_study(matrix, config)
        rays = result.pareto.rays
        assert list(rays.reference_labels) == ["orig@d1", "orig@d2"]
        assert rays.reference.tolist() == [0, 0, 0]
        doc = render_plot(result, "rays")
        assert "orig@d2" in {title_of(e) for e in svg_elements(doc, "rect")}
        write_report(result, tmp_path)
        assert hashlib.sha256((tmp_path / "pareto.json").read_bytes()).hexdigest() == (
            "e681c6b7e283fbd79175ae6917994e4f62d98e072d6791a0362bb38c5307e8e0")

    def test_biplot_renders_with_groups(self):
        matrix, config = multi_dataset_inputs()
        result = run_study(matrix, config)
        doc = render_all(result)["biplot"]
        assert_in_bounds(doc)


class TestOptions:
    def test_exclude_reference_from_range(self, study_config, study_csv_bytes):
        options = replace(study_config.options, exclude_reference_from_range=True)
        cfg = replace(study_config, options=options)
        matrix = ingest(study_csv_bytes, cfg)
        result = run_study(matrix, cfg)
        # candidates span [0, 1]; the clamped reference still sits at 1
        ref_row = result.nm.labels.index("original")
        assert result.nm.values[ref_row].max() == 1.0

    def test_pca_exclude_reference(self, study_config, study_csv_bytes):
        cfg = replace(study_config,
                      options=replace(study_config.options, pca_exclude_reference=True))
        matrix = ingest(study_csv_bytes, cfg)
        result = run_study(matrix, cfg)
        assert "original" not in result.pca_labels
        assert result.pca.scores.shape[0] == 8
        doc = _documents(result)["pca"]
        assert doc["alignment"]["includes_reference"] is False

    def test_orient_enabled(self, study_config, study_csv_bytes):
        cfg = replace(study_config,
                      options=replace(study_config.options, orient=True))
        matrix = ingest(study_csv_bytes, cfg)
        result = run_study(matrix, cfg)
        assert result.align.corr_utility >= 0.0

    def test_orient_disabled_keeps_the_plain_fit(self, study_config, study_csv_bytes):
        assert study_config.options.orient is False
        result = run_study(ingest(study_csv_bytes, study_config), study_config)
        plain = pca_fit(result.nm.values, k=2)
        assert result.pca.scores.tobytes() == plain.scores.tobytes()
        assert result.pca.loadings.tobytes() == plain.loadings.tobytes()
        # orienting flips the fixture's second component
        flipped = orient(plain, result.scores.utility, result.scores.risk)
        assert flipped.scores.tobytes() != plain.scores.tobytes()

    def test_robust_option_flows_to_diagnostics(self, study_config,
                                                study_csv_bytes):
        cfg = replace(study_config,
                      options=replace(study_config.options, robust=True))
        matrix = ingest(study_csv_bytes, cfg)
        result = run_study(matrix, cfg)
        doc = _documents(result)["pca"]
        assert doc["sd_od"]["robust"] is True

    def test_cluster_columns_reorders_within_blocks(self, study_config,
                                                    study_csv_bytes):
        cfg = replace(study_config,
                      options=replace(study_config.options, cluster_columns=True))
        matrix = ingest(study_csv_bytes, cfg)
        result = run_study(matrix, cfg)
        assert result.column_order is not None
        risk_ids = {s.id for s in result.nm.specs[:5]}
        ordered_ids = [result.nm.specs[j].id for j in result.column_order]
        # blocks stay contiguous, risk first
        assert set(ordered_ids[:5]) == risk_ids
        doc = _documents(result)["normalized"]
        assert doc["column_order"] == ordered_ids
        assert_in_bounds(render_plot(result, "heatmap"))

    def test_columns_in_declared_order_by_default(self, study_config,
                                                  study_csv_bytes):
        matrix = ingest(study_csv_bytes, study_config)
        result = run_study(matrix, study_config)
        assert result.column_order is None
        doc = _documents(result)["normalized"]
        assert doc["column_order"] is None

    def test_warnings_recorded(self):
        config = StudyConfig.from_json(json.dumps({
            "measures": [
                {"id": "r0", "block": "risk", "direction": "lower"},
                {"id": "r1", "block": "risk", "direction": "lower"},
                {"id": "u0", "block": "utility", "direction": "higher"},
                {"id": "u1", "block": "utility", "direction": "higher"},
            ],
            "reference": "orig",
        }))
        rows = ["approach,r0,r1,u0,u1"]
        rng = np.random.default_rng(5)
        rows.append("orig,0.5,1.0,1.0,1.0")
        for i in range(5):
            v = rng.uniform(0.1, 0.9, 3)
            rows.append(f"m{i},0.5,{v[0]:.3f},{v[1]:.3f},{v[2]:.3f}")
        matrix = ingest("\n".join(rows) + "\n", config)
        result = run_study(matrix, config)
        assert any("constant" in w for w in result.warnings)
        doc = _documents(result)["normalized"]
        assert any("constant" in w for w in doc["warnings"])

    def test_two_measure_study_degrades_cleanly(self, tmp_path):
        matrix, config = _inputs(TWO_MEASURES, two_measure_csv())
        result = run_study(matrix, config)
        # radial profiles are undefined below 3 measures but everything else
        # stays available
        assert result.profiles is None
        assert any("radial profiles skipped" in w for w in result.warnings)
        assert len(result.pareto.front.ids) >= 1
        assert_in_bounds(render_plot(result, "heatmap"))
        assert_in_bounds(render_plot(result, "pcp"))
        with pytest.raises(AnalysisError, match="origami"):
            render_plot(result, "origami")
        with pytest.raises(AnalysisError, match="origami"):
            render_all(result)

    def test_warnings_follow_stage_order_not_read_order(self):
        matrix, config = _inputs(TWO_MEASURES, two_measure_csv())
        lazy = StudyResult(matrix, config)
        assert lazy.profiles is None
        assert lazy.warnings == (
            "radial profiles skipped: they need at least 3 measures",)
        lazy.blockwise  # an earlier stage, read later
        assert lazy.warnings == run_study(matrix, config).warnings
        assert len(lazy.warnings) == 3

    def test_too_few_rows_is_analysis_error(self):
        config = StudyConfig.from_json(json.dumps({
            "measures": [
                {"id": "r0", "block": "risk", "direction": "lower"},
                {"id": "u0", "block": "utility", "direction": "higher"},
            ],
            "reference": "orig",
        }))
        matrix = ingest("approach,r0,u0\norig,1,2\nm1,3,4\nm2,5,6\n", config)
        with pytest.raises(AnalysisError, match="at least 4"):
            run_study(matrix, config)


class TestMatrixAgreesWithConfig:
    """A result refuses a matrix and a configuration that disagree; each of
    the two checks its own fields when it is built."""

    def test_thresholds_name_a_measure_the_matrix_lacks(self):
        three = {**FOUR_MEASURES, "measures": FOUR_MEASURES["measures"][:3]}
        matrix, _ = _inputs(three, "approach,r0,r1,u0\norig,1,1,0\nm1,0.5,0.6,0.3\n"
                                   "m2,0.3,0.2,0.6\nm3,0.6,0.4,0.3\nm4,0.2,0.1,0.8\n")
        config = StudyConfig.from_json(json.dumps(
            {**FOUR_MEASURES, "options": {"thresholds": {"u1": 0.3}}}))
        with pytest.raises(ValidationError, match=r"^matrix: measure\(s\) \['u1'\] "
                                                  r"differ from the config's declarations$"):
            StudyResult(matrix, config)

    def test_reference_flags_disagree_with_the_config(self, study_config, study_matrix):
        config = replace(study_config, reference_id="base")
        with pytest.raises(ValidationError, match=r"^matrix: the reference flag of row "
                                                  r"'original' disagrees with "
                                                  r"config.reference 'base'$"):
            StudyResult(study_matrix, config)

    def test_measures_in_declared_order_are_accepted(self, study_config, study_matrix):
        # `ingest` puts the risk block first; a matrix built in code need not
        m = study_matrix
        order = m.block_indices(Block.UTILITY) + m.block_indices(Block.RISK)
        matrix = MeasureMatrix(tuple(m.specs[j] for j in order), m.approaches,
                               m.values[:, order])
        result, expected = run_study(matrix, study_config), run_study(m, study_config)
        assert result.pareto.front.ids == expected.pareto.front.ids
        assert result.reference_labels == expected.reference_labels == {"original"}


@st.composite
def code_built_studies(draw):
    """A matrix and a configuration built in code, as their own checks allow:
    2 to 12 rows in 1 to 3 datasets, each with or without its reference, 2
    to 8 measures in any order, constant columns, duplicate rows, and any
    options."""
    specs = [MeasureSpec(f"{block.value[0]}{i}", f"{block.value} {i}", block,
                         draw(st.sampled_from(Direction)))
             for block in Block for i in range(draw(st.integers(1, 4)))]
    n, p = draw(st.integers(2, 12)), len(specs)
    names = draw(st.sampled_from([(None,), ("d1", "d2"), ("d1", "d2", "d3")]))
    datasets = draw(st.lists(st.sampled_from(names), min_size=n, max_size=n))
    ids, with_reference = [], set()
    for i, (dataset, reference) in enumerate(zip(datasets, draw(
            st.lists(st.booleans(), min_size=n, max_size=n)))):
        if reference and dataset not in with_reference:
            with_reference.add(dataset)
            ids.append("orig")
        else:
            ids.append(f"m{i}")
    values = draw(hnp.arrays(float, (n, p), elements=st.floats(-1e3, 1e3)))
    if draw(st.booleans()):
        values[-1] = values[0]
    if draw(st.booleans()):
        values[:, draw(st.integers(0, p - 1))] = 0.5
    options = draw(st.builds(
        StudyOptions, exclude_reference_from_range=st.booleans(), orient=st.booleans(),
        od_cut_mode=st.sampled_from(OD_CUT_MODES), r_aux=st.floats(0.01, 0.99),
        linkage=st.sampled_from(LINKAGES), seed=st.integers(0, 2**32 - 1),
        robust=st.booleans(), pca_exclude_reference=st.booleans(),
        cluster_columns=st.booleans(),
        thresholds=st.none() | st.dictionaries(st.sampled_from([s.id for s in specs]),
                                               st.floats(0.0, 1.0))))
    matrix = MeasureMatrix(tuple(draw(st.permutations(specs))),
                           Approaches(tuple(ids), tuple(datasets), [i == "orig" for i in ids]),
                           values)
    return matrix, StudyConfig(tuple(specs), "orig", options)


@settings(max_examples=100, deadline=None)
@given(code_built_studies())
def test_code_built_studies_keep_the_error_contract(study):
    # every document and figure is written, or a RuvizError says why not
    result = StudyResult(*study)
    for build in JSON_BUILDERS.values():
        try:
            json_text(build(result))
        except RuvizError:
            pass
    for kind in FIGURE_BUILDERS:
        try:
            render_plot(result, kind).to_svg()
        except RuvizError:
            pass


# SHA-256 of every artifact of the fixture report (tests/data). A refactor
# must leave these unchanged; only a deliberate output change may edit them.
FIXTURE_SHA256 = {
    "biplot.svg": "46513795512730545376a93cd3ccf96172237dd6ed9d18cc7e2f928a69b99238",
    "blockwise.svg": "474068fc82361f58434c85ae940d66e9fa4fe057667bef5cc89c7e19da5aedf4",
    "composite.json": "50fcade282284d9bcd8d1b67d39f4a391e0bd3fedc9ba6a6ce97032a3c6a4e28",
    "composite_ru.svg": "6fdafb5c6e0422e876d07ed714a36f15e3d48d03e5a18c308e35f994238a6700",
    "dotplot.svg": "bf81217c96013911dd075687d02b90da72e37c029cd17baf3cb90276d47c09aa",
    "heatmap.svg": "7819f88fe087019211d7996da22bbc0ddfb187dfc6621fcd2d3305dece9b2e35",
    "normalized.json": "e470cc013e13ba7f2bc47daf193c00dc2a57ca8dbe1e29161158e1273c1e0b46",
    "origami.svg": "6debd97d401c966143675ede6f8761192ef23c3d3a4b64836dc6febb64f491bc",
    "pareto.json": "b1bd662642062d582c0e82ec02f32bf1fbfd8577814d496781119ef29598ffcb",
    "pca.json": "0707b24c6133cdf4c19f3c7d4430af3472d4ad1ce6a99d1d5f15f0640383636d",
    "pcp.svg": "8e705b573b3308680a925e344806183b311c7f01bb8c5b3387659d64c1e619a9",
    "profiles.json": "b0e37fb350e5c51216c9e1dd5c34cfb7c674502df885fc937efca353d244736f",
    "sdod.svg": "761694d38406e71a23c0fed063dbce54b8e05a680f2b8a0ecd76cd6beaa22abb",
}

# The same for the two-dataset study with thresholds, column clustering,
# robust PCA and orientation on, which reaches the biplot group outlines,
# the acceptance polygon and the per-dataset references that the fixture
# never does.
MULTI_DATASET_SHA256 = {
    "biplot.svg": "86721b57ba6d3acc7250a91adab7afd22f1bc8fbf392482df9363ecf7d05a425",
    "blockwise.svg": "463f8cb9d78341ea03f190cf253ed5245345882cfcc4ca41b86ebaefa2088751",
    "composite.json": "7845e0a5275641cef22c8540e95c1cf1a6ea7c32a9953646d1995354e0820234",
    "composite_ru.svg": "f48f3039d92c3470d78cebda5dd92d3866efa77ecbd110e9e37f76578573c39a",
    "dotplot.svg": "9491f9f97cd7220fd80abbdd5a65b6e96e53bedf415244f3d51f7f384d2fcb9b",
    "heatmap.svg": "8893cebe21de55fc66e0e72b84d0d26e6a69e23f25d95904e40910b9d4c39f40",
    "normalized.json": "a6031bac847f7b0b223f1b86b0295b51eeab6a8dd5416fa606dae0bf725ae8ee",
    "origami.svg": "431ef438b4c1591f77a634338e0f306afe74f33a8033f27b23b4532bf6297e6a",
    "pareto.json": "c5498daabfbd5497041df44b0bcab7bb73a6d8eaf0e3ad3b3a6317d35d274927",
    "pca.json": "e096a75f936ddeb9ce39cbee39e26f008b6b354dbaff0e5668273f8ce016ed72",
    "pcp.svg": "87f77ab9de49df5832dbd62bbb0cafc2faf3c4de8dbee95ef82417474f4ab68a",
    "profiles.json": "4533c2d3d05fbf260df11ca6f470906186c2210cdf85bfc131a6257768b4d4b5",
    "sdod.svg": "1eadcb037ca9b134233454bd008ef7027b7a4bee5fe1954fe7ede859e391bb03",
}


# The same for the 13 artifacts of the 60-row generated study
# (conftest.generated_study): enough rows that the figures' per-row marks,
# their escaping, the profiles' arrays, the 60x60 dominance matrix and the
# documents' other grids are pinned at a size the fixture does not reach,
# and past the row budget, so the heat map and dot plot draw bands and the
# scatter views label only their marked points.
GENERATED_SHA256 = {
    "biplot.svg": "2fd5675547357e733b8c711e63d3766f7113f4b4f32ea073a0ba625355eed399",
    "blockwise.svg": "9e5688309a87394015d7b883164bb0094874796563388807384e035bd5c00057",
    "composite.json": "ca122ce7c7d7bc736ee730021cebc67efd3121b98d043f342490c61bfb4336e9",
    "composite_ru.svg": "af291719f7e9dacdc20aaa9d390b14fee05bb16040ed69ca333f70e5feab8371",
    "dotplot.svg": "babee2c610bd2ca544ad7b815b6994121226846f88edd495cd349439adf7aca6",
    "heatmap.svg": "b65112644ed1f7a297f6c78edd0b3284d550aea44b0abc1d5edf7cad16f06263",
    "normalized.json": "d2cd436ceba109f95fb3135570d39cacbe38d56dd0bc8bef8c4ec9bdcb81a512",
    "origami.svg": "8e9b92bc072042282a11846564002a8c5e72ddb52b4c0c8eca9b3c43435ec9e2",
    "pareto.json": "ce44c63cdcd436568f33c895534a5c8599ef35c9f49235588b93441480a905d1",
    "pca.json": "d174a8f8c87b38022443eccd8c6c40d85dd04a6d4886890baa9d399cfec2e9d4",
    "pcp.svg": "cb7243bdd254e117a3b2ad272b79209fad64b5b67e7f1746cdbfec12bc0e591d",
    "profiles.json": "54ab450937b57ef82e846270e96727238e818ff56c6ed05eb9db5cf7bd45a969",
    "sdod.svg": "1680c526d09617117acd119b8c26a4b3d47fd290e68a70413981fd958778ec91",
}

# `pca.json` of the same study with `"options": {"robust": true}`
GENERATED_ROBUST_PCA_SHA256 = (
    "188f9b3c9f4883688a4a24943bf7ba2fe56df58b4c7226e6fd20898c6557228e")

# A two-measure study whose documents reach the branches that neither study
# above reaches: single-item blocks (null alpha, omega and explained variance,
# the blockwise fallback), no radial profiles, no knee, and a candidate whose
# utility equals its reference's, so its ray has no slope.
DEGENERATE_CSV = """approach,r0,u0
orig,1.0,0.5
m0,0.2,0.5
m1,0.5,0.8
m2,0.3,0.3
m3,0.7,0.6
m4,0.9,0.1
"""

DEGENERATE_SHA256 = {
    "normalized": "6d0b01778efad8356df390c3033a005a3ae335522d988937872f59d6635bfee7",
    "pareto": "75ce02faa76ebd4242cb7aba8a4339f7a6480b9e8625ccd61b088b16f242ab50",
    "composite": "7003e16efb7b9ad31e9b30c766e13abe402a2806b46c96f6711477563e86d74f",
    "pca": "ae5dbe7e70607ede7fc7740d3203a16857db0dee7c7046eb966eb363070499db",
    "profiles": "e6619b825f41059644359d670391207570575bc558585952f0939bc1e39a3680",
}

# m2 and m3 are exact duplicates on the composite front, so the first edge
# has no utility step and no slope
DUPLICATE_FRONT_CSV = """approach,r0,r1,u0,u1
orig,1.0,1.0,0.0,0.0
m1,0.5,0.6,0.3,0.2
m2,0.3,0.2,0.6,0.5
m3,0.3,0.2,0.6,0.5
m4,0.7,0.8,0.2,0.1
m5,0.2,0.4,0.7,0.6
"""

DUPLICATE_FRONT_SHA256 = {
    "normalized.json": "2d8883b5142b510d222b3eae113bc998fa00b1b3d9659a6cc2a0ea098c3f774c",
    "pareto.json": "614e8f723862b73365eb0a81db69778b362f0896e80a5a8477a3c29d1844cd0d",
    "composite_ru.svg": "30b57c31fe06c61ef5acfb7a9d75a59862a537661c17e5625b562954da2067ab",
}

# `plot rays` writes the one figure that the report leaves out
RAYS_SHA256 = {
    "fixture": "6087fbd62a938a3c04a3c05def84992d3a758e27e27533784c35853d1b070c0c",
    "two_reference": "7aefa014d5ec8fcfd45209cf8aeba5c4b6aedbcbd6c5c8f6bb47655006ed9c1a",
}


def _artifact_hashes(result, out_dir):
    manifest = write_report(result, out_dir)
    listed = {e["name"]: e["sha256"] for e in manifest["artifacts"]}
    written = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
               for name in listed}
    assert written == listed
    return listed


class TestArtifacts:
    def test_fixture_report_matches_pinned_hashes(self, tmp_path, study_config,
                                                  study_csv_bytes):
        matrix = ingest(study_csv_bytes, study_config)
        result = run_study(matrix, study_config)
        assert _artifact_hashes(result, tmp_path) == FIXTURE_SHA256

    def test_multi_dataset_report_matches_pinned_hashes(self, tmp_path):
        matrix, config = _inputs({**FOUR_MEASURES, "options": MULTI_DATASET_OPTIONS},
                                 multi_dataset_csv())
        result = run_study(matrix, config)
        assert result.acceptance is not None and result.groups is not None
        assert _artifact_hashes(result, tmp_path) == MULTI_DATASET_SHA256

    def test_generated_study_figures_match_pinned_hashes(self, tmp_path):
        csv, config_doc = generated_study()
        matrix, config = _inputs(config_doc, csv)
        assert _artifact_hashes(run_study(matrix, config), tmp_path) == GENERATED_SHA256

    def test_generated_study_robust_pca_matches_pinned_hash(self):
        # past 50 rows the robust fit draws 250 seeded pairs and takes its
        # outlyingness medians over (250, 60) arrays
        csv, config_doc = generated_study()
        matrix, config = _inputs({**config_doc, "options": {"robust": True}}, csv)
        text = json_text(artifact_jsons(run_study(matrix, config))["pca"])
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GENERATED_ROBUST_PCA_SHA256

    def test_undefined_front_slope_matches_pinned_hashes(self, tmp_path):
        matrix, config = _inputs(FOUR_MEASURES, DUPLICATE_FRONT_CSV)
        result = run_study(matrix, config)
        pareto = _documents(result)["pareto"]
        assert [p["id"] for p in pareto["front"]] == ["m2", "m3", "m1", "m4"]
        assert pareto["edges"][0]["slope"] is None
        hashes = _artifact_hashes(result, tmp_path)
        assert {name: hashes[name] for name in DUPLICATE_FRONT_SHA256} == DUPLICATE_FRONT_SHA256

    def test_undefined_front_slope_adds_no_warning(self):
        # 0/0 on the duplicate edge must not reach normalized.json's warnings
        matrix, config = _inputs(FOUR_MEASURES, DUPLICATE_FRONT_CSV)
        assert _documents(run_study(matrix, config))["normalized"]["warnings"] == []

    def test_degenerate_study_documents_match_pinned_hashes(self):
        matrix, config = _inputs(TWO_MEASURES, DEGENERATE_CSV)
        result = run_study(matrix, config)
        docs = _documents(result)
        risk = docs["composite"]["reliability"]["risk"]
        assert risk["alpha"] is risk["omega"] is None
        assert docs["pca"]["blockwise"]["utility"]["fallback_single_measure"] is True
        assert docs["profiles"]["profiles"] == []
        assert docs["pareto"]["knee"] is None
        assert [r["slope_defined"] for r in docs["pareto"]["rays"]].count(False) == 1
        assert {name: hashlib.sha256(json_text(doc).encode("utf-8")).hexdigest()
                for name, doc in artifact_jsons(result).items()} == DEGENERATE_SHA256

    def test_report_writes_manifest_and_files(self, tmp_path, study_config,
                                              study_csv_bytes):
        matrix = ingest(study_csv_bytes, study_config)
        result = run_study(matrix, study_config)
        manifest = write_report(result, tmp_path)
        assert len(manifest["artifacts"]) == 13
        names = {e["name"] for e in manifest["artifacts"]}
        assert {"normalized.json", "pareto.json", "composite.json",
                "pca.json", "profiles.json"} <= names
        assert sum(1 for n in names if n.endswith(".svg")) == 8

    def test_a_non_finite_figure_number_writes_no_file(self, tmp_path, monkeypatch,
                                                       study_config, study_csv_bytes):
        draw = FIGURE_BUILDERS["sdod"]

        def with_nan(result):
            doc = draw(result)
            doc.add(Line(0.0, 0.0, 1.0, float("nan")))
            return doc

        monkeypatch.setitem(FIGURE_BUILDERS, "sdod", with_nan)
        result = run_study(ingest(study_csv_bytes, study_config), study_config)
        with pytest.raises(ValueError, match="non-finite"):
            write_report(result, tmp_path / "out")
        assert list((tmp_path / "out").iterdir()) == []

    def test_a_document_that_cannot_be_encoded_writes_no_file(
            self, tmp_path, monkeypatch, study_config, study_csv_bytes):
        # pca.json comes after nine other artifacts, already in their temporary files
        build = JSON_BUILDERS["pca"]
        monkeypatch.setitem(JSON_BUILDERS, "pca", lambda r: {**build(r), "bad": {5: "five"}})
        result = run_study(ingest(study_csv_bytes, study_config), study_config)
        with pytest.raises(TypeError):
            write_report(result, tmp_path / "out")
        assert list((tmp_path / "out").iterdir()) == []

    def test_a_failing_manifest_write_leaves_the_directory_as_it_was(
            self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        write_report(study_result("fixture"), out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        pieces = pipeline._json_pieces

        def no_space(doc):
            yield from pieces(doc)
            if "artifacts" in doc:  # the manifest
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(pipeline, "_json_pieces", no_space)
        with pytest.raises(OSError, match="No space"):
            write_report(study_result("multi_dataset"), out)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_a_figure_analysis_error_writes_no_file(self, tmp_path, capsys):
        args = _study_args(tmp_path, TWO_MEASURES, two_measure_csv())
        assert main(["report", *args, "--out", str(tmp_path / "out")]) == 2
        assert "origami" in capsys.readouterr().err
        # README: a failure leaves the output directory as it was, so a
        # missing one stays missing
        assert not (tmp_path / "out").exists()

    def test_write_peaks_below_the_artifacts_it_writes(self, tmp_path):
        # each artifact is streamed to its file and dropped before the next;
        # measured: a 0.96 MB peak for 3.60 MB of artifacts (the largest,
        # pareto.json, 1.87 MB), where writing whole texts peaked at 9.72 MB
        # and every heat-map row drawn (5.02 MB of artifacts) at 4.42 MB
        result = run_study(*_generated_inputs(400))
        write_report(result, tmp_path / "warm")  # the caches of the first write
        tracemalloc.start()
        try:
            manifest = write_report(result, tmp_path / "out")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < sum(entry["bytes"] for entry in manifest["artifacts"])

    def test_atomic_write_streams_chunks_through_the_hash(self, tmp_path):
        pieces = ["a" * 70000, "é€", "", "b" * 65536, "\n"]
        digest, size = _atomic_write(tmp_path / "x.txt", iter(pieces))
        data = (tmp_path / "x.txt").read_bytes()
        assert data == "".join(pieces).encode("utf-8")
        assert (digest, size) == (hashlib.sha256(data).hexdigest(), len(data))
        assert [p.name for p in tmp_path.iterdir()] == ["x.txt"]

    def test_render_plot_unknown_kind(self, study_config, study_csv_bytes):
        from ruviz.errors import ValidationError

        matrix = ingest(study_csv_bytes, study_config)
        result = run_study(matrix, study_config)
        with pytest.raises(ValidationError, match="unknown plot kind"):
            render_plot(result, "sparkline")

    def test_normalized_json_schema(self, study_config, study_csv_bytes):
        matrix = ingest(study_csv_bytes, study_config)
        result = run_study(matrix, study_config)
        doc = _documents(result)["normalized"]
        assert len(doc["approaches"]) == 9
        assert len(doc["measures"]) == 10
        assert len(doc["values"]) == 9
        assert doc["scales"]["RepU"]["flipped"] is False
        assert doc["scales"]["Proximity"]["flipped"] is True
        assert sorted(doc["row_order"]["leaf_order"]) == list(range(9))

    def test_composite_json_schema(self, study_config, study_csv_bytes):
        matrix = ingest(study_csv_bytes, study_config)
        result = run_study(matrix, study_config)
        doc = _documents(result)["composite"]
        assert len(doc["scores"]) == 9
        for block in ("risk", "utility"):
            rel = doc["reliability"][block]
            assert rel["n_items"] == 5
            assert rel["verdict"] in ("acceptable", "questionable")
        assert "caveat" in doc["reliability"]

    def test_degenerate_reliability_serializes_as_null(self):
        # risk items summing to a constant give zero total variance: the
        # alpha is undefined and must reach JSON as null, never NaN
        config = StudyConfig.from_json(json.dumps({
            "measures": [
                {"id": "r0", "block": "risk", "direction": "lower"},
                {"id": "r1", "block": "risk", "direction": "lower"},
                {"id": "u0", "block": "utility", "direction": "higher"},
                {"id": "u1", "block": "utility", "direction": "higher"},
            ],
            "reference": "orig",
        }))
        rng = np.random.default_rng(3)
        lines = ["approach,r0,r1,u0,u1"]
        xs = np.linspace(1.0, 4.0, 5)
        for i, x in enumerate(xs):
            name = "orig" if i == len(xs) - 1 else f"m{i}"
            u = rng.uniform(0.1, 0.9, 2)
            lines.append(f"{name},{x},{5.0 - x},{u[0]:.3f},{u[1]:.3f}")
        matrix = ingest("\n".join(lines) + "\n", config)
        result = run_study(matrix, config)
        doc = _documents(result)["composite"]
        assert doc["reliability"]["risk"]["alpha"] is None  # written, so never NaN

    def test_manifest_options_omit_out_dir(self, tmp_path, study_config,
                                           study_csv_bytes):
        matrix = ingest(study_csv_bytes, study_config)
        result = run_study(matrix, study_config)
        manifest = write_report(result, tmp_path)
        assert "out_dir" not in manifest["options"]


def wide_measure_inputs():
    """A reference and 11 candidates over 15 risk and 15 utility measures."""
    ids = [f"r{j}" for j in range(15)] + [f"u{j}" for j in range(15)]
    config_doc = {"measures": [
        {"id": i, "block": "risk" if i[0] == "r" else "utility", "direction": "lower"}
        for i in ids], "reference": "orig"}
    rng = np.random.default_rng(15)
    lines = ["approach," + ",".join(ids), "orig," + ",".join(["1"] * 15 + ["0"] * 15)]
    lines += [f"m{i}," + ",".join(f"{v:.4f}" for v in rng.uniform(0.05, 0.95, 30))
              for i in range(11)]
    return _inputs(config_doc, "\n".join(lines) + "\n")


def _generated_inputs(n_rows):
    csv, config_doc = generated_study(n_rows)
    return _inputs(config_doc, csv)


# studies whose figures must stay on their canvas, with the pinned ones among them
CANVAS_STUDIES = {
    "fixture": lambda: _inputs(json.loads((DATA / "study.json").read_text()),
                               (DATA / "measures.csv").read_bytes()),
    "multi_dataset": lambda: _inputs({**FOUR_MEASURES, "options": MULTI_DATASET_OPTIONS},
                                     multi_dataset_csv()),
    "generated_60": lambda: _generated_inputs(60),
    "generated_400": lambda: _generated_inputs(400),
    "generated_2000": lambda: _generated_inputs(2000),
    "wide_measures": wide_measure_inputs,
}


@functools.cache
def study_result(name):
    """The result of one of `CANVAS_STUDIES`, run once."""
    return run_study(*CANVAS_STUDIES[name]())


@pytest.fixture(scope="module", params=list(CANVAS_STUDIES))
def canvas_study(request):
    return study_result(request.param)


@pytest.mark.parametrize("kind", list(FIGURE_BUILDERS))
def test_every_figure_stays_on_its_canvas(canvas_study, kind):
    assert_in_bounds(FIGURE_BUILDERS[kind](canvas_study))


def _short_label(label):
    return label if len(label) <= 14 else label[:13] + "…"


class TestRowBudget:
    """Past `ROW_BUDGET` rows the heat map and dot plot draw bands and the
    scatter views label only their marked points (README, "Figures at any
    size")."""

    @pytest.mark.parametrize("kind", ["heatmap", "dotplot"])
    @pytest.mark.parametrize("study", ["fixture", "generated_60", "generated_400",
                                       "generated_2000"])
    def test_row_labels_do_not_overlap(self, study, kind):
        doc = FIGURE_BUILDERS[kind](study_result(study))
        boxes = text_boxes(doc, 11.0)  # the row labels
        assert len(boxes) == min(len(study_result(study).nm.labels), ROW_BUDGET)
        assert overlapping_boxes(boxes) == []

    def test_per_row_figures_stay_under_their_byte_bound(self):
        # README: at most 150,000 bytes each at any n; measured: about 65 kB
        # each at 2,000 and 5,000 rows, where drawing every row wrote 3.5 and
        # 8.7 MB for the heat map and 3.4 and 8.5 MB for the dot plot
        for n in (2000, 5000):
            result = StudyResult(*_generated_inputs(n))
            for kind in ("heatmap", "dotplot"):
                doc = FIGURE_BUILDERS[kind](result)
                assert len(doc.to_svg().encode("utf-8")) < 150_000, (n, kind)
            del result

    def test_bands_are_the_finest_leaf_order_cut_within_the_budget(self):
        result = study_result("generated_400")
        nm, dend = result.nm, result.dendrogram
        drawn = per_row(nm, dend, result.pareto.front.ids, range(len(nm.labels)))
        members = [m.tolist() for m in drawn.members]
        assert len(members) <= ROW_BUDGET
        assert sum(members, []) == list(dend.leaf_order)
        ref = nm.approaches.is_reference
        assert all(len(m) == 1 for m in members if ref[m].any())

        # scipy's cut into k clusters; a run of leaf order ends where the
        # cluster changes or a reference starts or ends
        Z = np.column_stack([dend.left, dend.right, dend.height, dend.size]).astype(float)
        clusters = cut_tree(Z, n_clusters=range(1, 101))
        leaves = np.array(dend.leaf_order)

        def runs(k):
            c, r = clusters[leaves, k - 1], ref[leaves]
            ends = (c[1:] != c[:-1]) | r[1:] | r[:-1]
            return np.split(leaves, np.flatnonzero(ends) + 1)

        finest = next(k for k in range(1, 101) if len(runs(k)) > ROW_BUDGET) - 1
        assert [m.tolist() for m in runs(finest)] == members

    def test_a_band_draws_the_mean_of_its_rows(self):
        result = study_result("generated_400")
        nm, front = result.nm, result.pareto.front.ids
        drawn = per_row(nm, result.dendrogram, front, result.dendrogram.leaf_order)
        assert any(len(m) > 1 for m in drawn.members)
        for rows, values, text, title in zip(drawn.members, drawn.values,
                                             drawn.labels, drawn.titles):
            assert np.array_equal(values, nm.values[rows].mean(axis=0))
            labels = [nm.labels[i] for i in rows]
            if len(rows) > 1:
                assert text == f"{len(rows)} rows, {sum(l in front for l in labels)} on front"
                assert title == f"{labels[0]} … {labels[-1]}"
        cells = [cols["content"] for _, cols in batch_rows(
            FIGURE_BUILDERS["heatmap"](result), Text, size=9, anchor="middle")]
        assert cells == [f"{v:.2f}" for v in drawn.values.ravel().tolist()]

    @pytest.mark.parametrize("kind", ["composite_ru", "rays", "biplot", "blockwise", "sdod"])
    def test_scatter_views_label_only_their_marked_points(self, kind):
        result = study_result("generated_400")
        if kind == "sdod":
            diag = result.diagnostics
            marked = [l for l, f in zip(diag.labels, diag.flags)
                      if f is not OutlierFlag.REGULAR]
        else:
            points = {"composite_ru": result.nm.labels, "rays": result.pareto.rays.ids,
                      "biplot": result.pca_labels, "blockwise": result.nm.labels}[kind]
            marked = [l for l in points
                      if l in result.pareto.front.ids or l in result.reference_labels]
            marked += list(result.pareto.rays.reference_labels) if kind == "rays" else []
        doc = FIGURE_BUILDERS[kind](result)
        labels = [cols["content"] for fill in ("#333333", "#000000")
                  for _, cols in batch_rows(doc, Text, size=9.0, fill=fill)]
        assert 0 < len(labels) < len(result.nm.labels)
        assert sorted(labels) == sorted(map(_short_label, marked))


@pytest.mark.parametrize("name", ["generated_400", "generated_60"])
def test_dominance_equals_the_dense_broadcast(name):
    nm = study_result(name).nm
    oracle = oracle_dominance(nm.block_values(Block.UTILITY), nm.block_values(Block.RISK))
    assert np.array_equal(pareto_set(nm).matrix, oracle)


@settings(max_examples=50, deadline=None)
@given(code_built_studies())
def test_code_built_dominance_equals_the_dense_broadcast(study):
    matrix, config = study
    if config.options.exclude_reference_from_range and matrix.approaches.is_reference.all():
        with pytest.raises(ValidationError, match="no candidate rows"):
            StudyResult(*study).nm
        return
    nm = StudyResult(*study).nm
    oracle = oracle_dominance(nm.block_values(Block.UTILITY), nm.block_values(Block.RISK))
    assert np.array_equal(pareto_set(nm).matrix, oracle)


def products(value):
    """Every dataclass object in `value`, in its fields, lists and dicts."""
    if dataclasses.is_dataclass(value):
        yield value
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from products(item)


ARRAY_PRODUCTS = {
    "Approaches", "MeasureMatrix", "NormalizedMatrix", "CompositeScores",
    "DominanceResult", "CompositeFront", "Rays", "Dendrogram", "PcaModel", "BlockAxis",
    "SdOdDiagnostics", "AcceptancePolygon", "GroupSummary", "RadialProfiles", "AreaTable",
}


@pytest.mark.parametrize("study", ["fixture", "multi_dataset"])
def test_products_compare_and_hash(study):
    first, second = (run_study(*CANVAS_STUDIES[study]()) for _ in range(2))
    ones, others = ([r.matrix, *(getattr(r, name) for name in STAGES)]
                    for r in (first, second))
    pairs = list(zip(products(ones), products(others), strict=True))
    for one, other in pairs:
        assert one == one and not one != one
        assert (one == other) in (True, False)
        hash(one)
    kinds = {type(one).__name__ for one, _ in pairs}
    assert {"ParetoResult", "BlockwisePca"} <= kinds
    assert ARRAY_PRODUCTS - kinds == (
        set() if study == "multi_dataset" else {"AcceptancePolygon", "GroupSummary"})
    # an array product is equal to itself only, never to its equal-valued twin
    assert all(one != other for one, other in pairs
               if type(one).__name__ in ARRAY_PRODUCTS)


ROOT_NAMES = {"__version__", "StudyConfig", "StudyResult", "ingest", "run_study",
              "write_report", "RuvizError", "ValidationError", "AnalysisError",
              "ConvergenceError"}


class TestPackage:
    def test_root_exports_exactly_the_library_names(self):
        import ruviz

        assert sorted(ruviz.__all__) == sorted(ROOT_NAMES)
        for name in ruviz.__all__:
            assert getattr(ruviz, name) is not None

    def test_import_loads_neither_numpy_nor_the_pipeline(self):
        # `python -m ruviz` imports the package before its entry sets up the
        # process, and a caller that only wants the version pays for nothing
        code = ("import sys, ruviz; ruviz.__version__; print(sorted(m for m in "
                "sys.modules if m.split('.')[0] == 'numpy' or m == 'ruviz.pipeline'))")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize("name", sorted(ROOT_NAMES))
    def test_each_root_name_imports_from_the_package(self, name):
        namespace = {}
        exec(f"from ruviz import {name}", namespace)
        value = namespace[name]
        assert value == VERSION if name == "__version__" else value.__name__ == name

    def test_dir_lists_the_root_names(self):
        import ruviz

        assert set(ruviz.__all__) <= set(dir(ruviz))

    def test_readme_library_snippet_writes_the_fixture_report(self, tmp_path):
        library = README.read_text(encoding="utf-8").split("## Library")[1]
        snippet = library.split("```python\n")[1].split("```")[0]
        for literal, path in (("study.json", DATA / "study.json"),
                              ("measures.csv", DATA / "measures.csv"), ("out", tmp_path)):
            assert f'"{literal}"' in snippet
            snippet = snippet.replace(f'"{literal}"', repr(str(path)))
        exec(snippet, {})
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert {e["name"]: e["sha256"] for e in manifest["artifacts"]} == FIXTURE_SHA256


# the report file each analysis subcommand prints
PRINTED = {"normalize": "normalized.json", "pareto": "pareto.json",
           "composite": "composite.json", "pca": "pca.json",
           "profiles": "profiles.json"}


def _study_args(tmp_path, config_doc, csv):
    (tmp_path / "study.json").write_text(json.dumps(config_doc))
    (tmp_path / "measures.csv").write_text(csv)
    return ["--config", str(tmp_path / "study.json"),
            "--data", str(tmp_path / "measures.csv")]


class TestPrintedDocuments:
    @pytest.mark.parametrize("study", ["fixture", "two_reference", "multi_dataset"])
    def test_each_subcommand_prints_its_report_file(self, tmp_path, capsys, study):
        if study == "fixture":
            args = ["--config", str(DATA / "study.json"),
                    "--data", str(DATA / "measures.csv")]
            pinned = FIXTURE_SHA256
        elif study == "two_reference":
            args = _study_args(tmp_path, FOUR_MEASURES, TWO_REFERENCE_CSV)
            pinned = None
        else:
            args = _study_args(tmp_path, {**FOUR_MEASURES, "options": MULTI_DATASET_OPTIONS},
                               multi_dataset_csv())
            pinned = MULTI_DATASET_SHA256
        out = tmp_path / "out"
        assert main(["report", *args, "--out", str(out)]) == 0
        capsys.readouterr()
        if pinned is not None:
            assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in pinned} == pinned
        for cmd, name in PRINTED.items():
            assert main([cmd, *args]) == 0
            assert capsys.readouterr().out.encode("utf-8") == (out / name).read_bytes()

    @pytest.mark.parametrize("study", sorted(RAYS_SHA256))
    def test_rays_plot_matches_pinned_hash(self, tmp_path, capsys, study):
        if study == "fixture":
            args = ["--config", str(DATA / "study.json"),
                    "--data", str(DATA / "measures.csv")]
        else:
            args = _study_args(tmp_path, FOUR_MEASURES, TWO_REFERENCE_CSV)
        assert main(["plot", "rays", *args, "--out", str(tmp_path / "out")]) == 0
        svg = (tmp_path / "out" / "rays.svg").read_bytes()
        assert hashlib.sha256(svg).hexdigest() == RAYS_SHA256[study]

    def test_subcommand_prints_only_the_warnings_of_its_stages(self, tmp_path, capsys):
        args = _study_args(tmp_path, TWO_MEASURES, two_measure_csv())
        assert main(["normalize", *args]) == 0
        printed = json.loads(capsys.readouterr().out)["warnings"]
        assert not any("radial profiles skipped" in w for w in printed)
        matrix, config = _inputs(TWO_MEASURES, two_measure_csv())
        reported = _documents(run_study(matrix, config))["normalized"]["warnings"]
        assert any("radial profiles skipped" in w for w in reported)

    def test_report_lists_every_warning_however_the_result_was_made(self, tmp_path):
        # the single utility measure warns only in the blockwise PCA stage
        config_doc = {
            "measures": [
                {"id": "r0", "block": "risk", "direction": "lower"},
                {"id": "r1", "block": "risk", "direction": "lower"},
                {"id": "u0", "block": "utility", "direction": "higher"},
            ],
            "reference": "orig",
        }
        csv = ("approach,r0,r1,u0\norig,1,1,1\nm0,.2,.8,.3\nm1,.5,.4,.9\n"
               "m2,.7,.3,.6\nm3,.4,.6,.2\nm4,.9,.1,.5\n")
        matrix, config = _inputs(config_doc, csv)
        lazy = StudyResult(matrix, config)
        assert lazy.nm is not None and lazy.warnings == ()
        write_report(lazy, tmp_path / "lazy")
        write_report(run_study(matrix, config), tmp_path / "full")
        doc = (tmp_path / "lazy" / "normalized.json").read_bytes()
        assert doc == (tmp_path / "full" / "normalized.json").read_bytes()
        assert "utility block has a single measure" in doc.decode()
