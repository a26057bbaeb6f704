import dataclasses
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruviz.config import StudyConfig, StudyOptions
from ruviz.errors import ValidationError
from ruviz.model import (
    Approaches,
    Block,
    ColumnScale,
    Direction,
    MeasureMatrix,
    MeasureSpec,
    harmonize_and_normalize,
    ingest,
)

from conftest import make_approaches, make_nm, oracle_validate_rows


def two_measure_doc() -> dict:
    return {"measures": [
        {"id": "r0", "block": "risk", "direction": "lower"},
        {"id": "u0", "block": "utility", "direction": "higher"},
    ], "reference": "orig"}


def small_config(n_risk=1, n_utility=1, directions=None, reference="orig"):
    specs = []
    for i in range(n_risk):
        d = directions[i] if directions else "lower"
        specs.append({"id": f"r{i}", "block": "risk", "direction": d})
    for i in range(n_utility):
        d = directions[n_risk + i] if directions else "higher"
        specs.append({"id": f"u{i}", "block": "utility", "direction": d})
    import json

    return StudyConfig.from_json(
        json.dumps({"measures": specs, "reference": reference})
    )


class TestIngest:
    def test_fixture_csv(self, study_config, study_csv_bytes):
        m = ingest(study_csv_bytes, study_config)
        assert len(m.labels) == 9
        assert len(m.specs) == 10
        assert len(m.block_indices(Block.RISK)) == 5
        assert len(m.block_indices(Block.UTILITY)) == 5
        # risk block declared first, retained in order
        assert [s.id for s in m.specs[:5]] == ["RepU", "DiSCO", "DCAP", "TCAP", "RAPID"]
        a = m.approaches
        assert [i for i, ref in zip(a.ids, a.is_reference) if ref] == ["original"]

    def test_columns_reordered_to_config(self, study_config, study_csv_bytes):
        # shuffle CSV columns; the matrix must come back in config order
        text = study_csv_bytes.decode()
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        order = [0] + [len(header) - 1 - i for i in range(len(header) - 1)]
        shuffled = "\n".join(
            ",".join(row.split(",")[i] for i in order) for row in lines
        )
        m1 = ingest(study_csv_bytes, study_config)
        m2 = ingest(shuffled, study_config)
        assert [s.id for s in m1.specs] == [s.id for s in m2.specs]
        np.testing.assert_array_equal(m1.values, m2.values)

    def test_single_row_rejected(self):
        cfg = small_config()
        with pytest.raises(ValidationError, match="at least 2 rows"):
            ingest("approach,r0,u0\norig,1,2\n", cfg)

    def test_nan_cell_rejected_naming_row_and_column(self):
        cfg = small_config()
        with pytest.raises(ValidationError, match=r"row 'b', column 'u0'"):
            ingest("approach,r0,u0\norig,1,2\nb,3,NaN\n", cfg)

    def test_non_numeric_cell(self):
        cfg = small_config()
        with pytest.raises(ValidationError, match=r"row 'orig', column 'r0'"):
            ingest("approach,r0,u0\norig,x,2\nb,3,4\n", cfg)

    def test_missing_column(self):
        cfg = small_config(n_utility=2)
        with pytest.raises(ValidationError, match=r"missing measure column.*u1"):
            ingest("approach,r0,u0\norig,1,2\nb,3,4\n", cfg)

    def test_extra_column(self):
        cfg = small_config()
        with pytest.raises(ValidationError, match=r"undeclared measure column.*zz"):
            ingest("approach,r0,u0,zz\norig,1,2,3\nb,4,5,6\n", cfg)

    def test_duplicate_row(self):
        cfg = small_config()
        with pytest.raises(ValidationError, match="duplicate approach row 'b'"):
            ingest("approach,r0,u0\norig,1,2\nb,3,4\nb,5,6\n", cfg)

    def test_missing_reference(self):
        cfg = small_config(reference="nope")
        with pytest.raises(ValidationError, match="reference approach 'nope'"):
            ingest("approach,r0,u0\na,1,2\nb,3,4\n", cfg)

    def test_dataset_column(self):
        cfg = small_config()
        m = ingest(
            "approach,dataset,r0,u0\n"
            "orig,d1,1,2\na,d1,3,4\norig,d2,5,6\na,d2,7,8\n",
            cfg,
        )
        assert list(m.labels) == ["orig@d1", "a@d1", "orig@d2", "a@d2"]
        assert m.approaches.is_reference.sum() == 2

    def test_bad_header(self):
        cfg = small_config()
        with pytest.raises(ValidationError, match="first CSV column"):
            ingest("id,r0,u0\na,1,2\nb,3,4\n", cfg)

    def test_block_with_zero_measures_rejected_in_config(self):
        import json

        with pytest.raises(ValidationError, match="at least one risk and one utility"):
            StudyConfig.from_json(
                json.dumps(
                    {
                        "measures": [
                            {"id": "u0", "block": "utility", "direction": "higher"}
                        ],
                        "reference": "orig",
                    }
                )
            )


class TestStudyConfig:
    @pytest.mark.parametrize("value", ["Risk", 1, ["risk"], {"risk": "lower"}, None])
    @pytest.mark.parametrize("key,allowed", [
        ("block", "'risk' or 'utility'"),
        ("direction", "'higher' or 'lower'"),
    ])
    def test_kind_outside_its_words_is_named(self, key, allowed, value):
        doc = two_measure_doc()
        doc["measures"][1][key] = value
        if value is None:
            del doc["measures"][1][key]
        message = f"config.measures[1].{key}: must be {allowed}, got {value!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            StudyConfig.from_json(json.dumps(doc))

    def test_duplicate_id_is_reported_before_a_bad_option(self):
        doc = two_measure_doc()
        doc["measures"][1]["id"] = "r0"
        doc["options"] = {"r_aux": 7}
        with pytest.raises(ValidationError, match="^measures: duplicate id 'r0'$"):
            StudyConfig.from_json(json.dumps(doc))

    @pytest.mark.parametrize("obj,name", [
        *[("config", f.name) for f in dataclasses.fields(StudyConfig)],
        *[("options", f.name) for f in dataclasses.fields(StudyOptions)],
    ])
    def test_fields_cannot_be_assigned(self, obj, name):
        config = StudyConfig.from_json(json.dumps(two_measure_doc()))
        target = config if obj == "config" else config.options
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(target, name, getattr(target, name))

    def test_replace_checks_the_new_configuration(self):
        config = StudyConfig.from_json(json.dumps(two_measure_doc()))
        with pytest.raises(ValidationError, match=r"^options\.r_aux: "):
            dataclasses.replace(config.options, r_aux=7.0)
        with pytest.raises(ValidationError, match=r"unknown measure id\(s\) \['x'\]"):
            dataclasses.replace(config, options=StudyOptions(thresholds={"x": 0.5}))
        robust = dataclasses.replace(
            config, options=dataclasses.replace(config.options, robust=True))
        assert robust.options.robust and not config.options.robust

    def test_thresholds_are_read_only_and_the_configuration_hashable(self):
        doc = {**two_measure_doc(), "options": {"thresholds": {"r0": 0.5}}}
        config = StudyConfig.from_json(json.dumps(doc))
        with pytest.raises(TypeError):
            config.options.thresholds["nope"] = 1
        assert hash(config) == hash(dataclasses.replace(config))
        robust = dataclasses.replace(config.options, robust=True)
        assert robust.thresholds == {"r0": 0.5}


class TestCodeBuiltInputs:
    """A configuration or matrix built in code is checked as from_json and
    ingest check theirs, less the location prefix."""

    def test_measure_display_name_must_suit_xml(self):
        with pytest.raises(ValidationError, match=r"^display_name holds U\+0001, "):
            MeasureSpec("r0", "Replicated\x01uniques", Block.RISK, Direction.LOWER)

    def test_approach_id_must_suit_xml(self):
        with pytest.raises(ValidationError, match=r"^approach id holds U\+000B, "):
            make_approaches(["Di\x0bSCO"])
        with pytest.raises(ValidationError, match=r"^dataset holds U\+FFFF, "):
            make_approaches(["a"], ["d\uffff"])
        with pytest.raises(ValidationError, match="^empty approach id$"):
            make_approaches([""])

    @pytest.mark.parametrize("ids, datasets, flags, message", [
        ((5,), (None,), (False,), r"^approach id: must be a string, got 5$"),
        (("a",), (3,), (False,), r"^dataset: must be a non-empty string or None, got 3$"),
        (("a",), ("",), (False,), r"^dataset: must be a non-empty string or None, got ''$"),
        (("a",), (None,), ("yes",), r"^is_reference: must be a bool, got 'yes'$"),
        (("a", "b"), (None,), (False, False),
         r"^approaches: ids, datasets and is_reference differ in length \(2, 1, 2\)$"),
    ])
    def test_approach_fields_are_checked(self, ids, datasets, flags, message):
        with pytest.raises(ValidationError, match=message):
            Approaches(ids, datasets, flags)

    def test_empty_dataset_cell_is_no_dataset(self):
        m = ingest("approach,dataset,r0,u0\norig,,1,2\na, ,3,4\n", small_config())
        assert m.approaches.datasets == (None, None)
        assert m.labels == ("orig", "a")

    def test_block_and_direction_given_by_value(self):
        spec = MeasureSpec("x", "x", "risk", "higher")
        assert spec.block is Block.RISK and spec.direction is Direction.HIGHER
        assert spec == MeasureSpec("x", "x", Block.RISK, Direction.HIGHER)
        config = StudyConfig((spec, MeasureSpec("y", "y", "utility", "lower")), "orig")
        assert config.measure_ids == ("x", "y")
        with pytest.raises(ValidationError, match=r"^block: must be 'risk' or 'utility', got 'Risk'$"):
            MeasureSpec("x", "x", "Risk", "higher")

    @pytest.mark.parametrize("reference", [5, "", None])
    def test_reference_must_be_a_non_empty_string(self, reference):
        specs = (MeasureSpec("r", "r", Block.RISK, Direction.LOWER),
                 MeasureSpec("u", "u", Block.UTILITY, Direction.HIGHER))
        with pytest.raises(ValidationError, match=r"^config\.reference: required string"):
            StudyConfig(specs, reference)

    def test_reference_fault_is_reported_before_option_faults(self):
        doc = {**two_measure_doc(), "reference": 5, "options": []}
        with pytest.raises(ValidationError, match=r"^config\.reference: required string"):
            StudyConfig.from_json(json.dumps(doc))

    def test_row_fault_is_reported_before_its_cells(self):
        with pytest.raises(ValidationError,
                           match=r"^data line 3: approach id holds U\+0001, "):
            ingest("approach,r0,u0\norig,1,2\na\x01,x,4\n", small_config())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["a", "b", "a@x", "orig"]),
                          st.sampled_from([None, "x", "y", "x@y"]), st.booleans()),
                max_size=8))
def test_approaches_agree_with_the_row_oracle(rows):
    ids, datasets, flags = (tuple(column) for column in zip(*rows)) if rows else ((),) * 3
    try:
        oracle_validate_rows(ids, datasets, flags)
    except ValidationError as want:
        with pytest.raises(ValidationError) as got:
            Approaches(ids, datasets, flags)
        assert str(got.value) == str(want)
        return
    a = Approaches(ids, datasets, flags)
    assert a.labels == tuple(i if d is None else f"{i}@{d}" for i, d in zip(ids, datasets))
    assert [a.dataset_names[k] for k in a.dataset_index] == list(datasets)
    assert list(a.dataset_names) == [None] * (None in datasets) + sorted(set(datasets) - {None})
    assert a.is_reference.tolist() == list(flags) and not a.is_reference.flags.writeable


def matrix_of(values, directions, n_risk=1, reference_index=None):
    """Build a MeasureMatrix with given raw values and per-column directions."""
    values = np.asarray(values, dtype=float)
    n, p = values.shape
    specs = []
    for j in range(p):
        block = Block.RISK if j < n_risk else Block.UTILITY
        specs.append(
            MeasureSpec(f"m{j}", f"m{j}", block, Direction(directions[j]))
        )
    approaches = make_approaches([f"a{i}" for i in range(n)], reference_index=reference_index)
    return MeasureMatrix(specs=tuple(specs), approaches=approaches, values=values)


class TestHarmonizeNormalize:
    def test_utility_lower_is_better_two_points(self):
        # raw {0.1, 0.3} with lower better flips to {1, 0}
        m = matrix_of([[0.0, 0.1], [1.0, 0.3]], ["lower", "lower"])
        nm = harmonize_and_normalize(m)
        np.testing.assert_allclose(nm.values[:, 1], [1.0, 0.0])

    def test_affine_map_higher_is_better(self):
        m = matrix_of(
            [[0.0, 2.0], [0.5, 4.0], [1.0, 6.0]], ["lower", "higher"]
        )
        nm = harmonize_and_normalize(m)
        np.testing.assert_allclose(nm.values[:, 1], [0.0, 0.5, 1.0])

    def test_risk_higher_is_better_flips(self):
        # risk with higher-is-better raw ends up inverted: higher = riskier
        m = matrix_of([[10.0, 0.0], [30.0, 1.0]], ["higher", "higher"])
        nm = harmonize_and_normalize(m)
        np.testing.assert_allclose(nm.values[:, 0], [1.0, 0.0])

    def test_random_matrix_against_column_oracle(self):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=(6, 4)) * 10 + 3
        directions = ["lower", "higher", "lower", "higher"]
        m = matrix_of(vals, directions, n_risk=2)
        nm = harmonize_and_normalize(m)
        # independent column-wise oracle using sorting to find extremes
        for j in range(4):
            ordered = sorted(vals[:, j])
            lo, hi = ordered[0], ordered[-1]
            scaled = (vals[:, j] - lo) / (hi - lo)
            block = m.specs[j].block
            d = m.specs[j].direction
            flip = (block is Block.UTILITY and d is Direction.LOWER) or (
                block is Block.RISK and d is Direction.HIGHER
            )
            expected = 1.0 - scaled if flip else scaled
            np.testing.assert_allclose(nm.values[:, j], expected, atol=1e-15)

    def test_constant_column_maps_to_half_with_warning(self):
        m = matrix_of([[5.0, 1.0], [5.0, 2.0]], ["lower", "higher"])
        with pytest.warns(UserWarning, match="constant"):
            nm = harmonize_and_normalize(m)
        np.testing.assert_array_equal(nm.values[:, 0], [0.5, 0.5])
        assert nm.scales[0].constant

    def test_nonconstant_columns_attain_0_and_1(self):
        rng = np.random.default_rng(11)
        m = matrix_of(rng.normal(size=(5, 3)), ["lower", "higher", "lower"], 1)
        nm = harmonize_and_normalize(m)
        for j in range(3):
            assert nm.values[:, j].min() == 0.0
            assert nm.values[:, j].max() == 1.0

    def test_exclude_reference_from_range_clamps(self):
        m = matrix_of(
            [[100.0, 0.0], [10.0, 1.0], [20.0, 3.0]],
            ["lower", "higher"],
            reference_index=0,
        )
        nm = harmonize_and_normalize(m, exclude_reference_from_range=True)
        # reference risk above candidate max clamps to 1 (risk, lower=better)
        assert nm.values[0, 0] == 1.0
        # candidates span the full range
        np.testing.assert_allclose(sorted(nm.values[1:, 0]), [0.0, 1.0])
        assert nm.values.min() >= 0.0 and nm.values.max() <= 1.0

    @pytest.mark.parametrize("exclude", [False, True])
    def test_overflowing_range_names_the_measure(self, exclude):
        m = matrix_of(
            [[0.5, 0.0], [1.7e308, 1.0], [-1.7e308, 3.0]],
            ["lower", "higher"],
            reference_index=0,
        )
        with pytest.raises(ValidationError, match="^measure 'm0': range "):
            harmonize_and_normalize(m, exclude_reference_from_range=exclude)

    def test_reference_past_the_float_range_clamps_without_warning(self):
        # the reference's distance to the candidates' minimum overflows to inf
        m = matrix_of(
            [[1e308, 1.0], [-1e308, 0.5], [-1.1e308, 0.2], [-1e308, 0.3]],
            ["lower", "higher"],
            reference_index=0,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            nm = harmonize_and_normalize(m, exclude_reference_from_range=True)
        assert [str(w.message) for w in caught] == []
        assert nm.values[0].tolist() == [1.0, 1.0]

    def test_reference_in_range_by_default(self):
        m = matrix_of(
            [[100.0, 0.0], [10.0, 1.0], [20.0, 3.0]],
            ["lower", "higher"],
            reference_index=0,
        )
        nm = harmonize_and_normalize(m)
        assert nm.values[0, 0] == 1.0  # reference is the risk max
        assert 0.0 < nm.values[2, 0] < 1.0

    @pytest.mark.parametrize("bad", [-0.1, 1.5, 1.0 + 1e-6])
    def test_normalized_matrix_rejects_values_outside_unit_range(self, bad):
        values = np.full((3, 4), 0.5)
        values[2, 1] = bad
        with pytest.raises(ValidationError,
                           match=r"^normalized values: entry outside \[0, 1\]$"):
            make_nm(values, 2)

    def test_normalized_matrix_accepts_rounding_above_one(self):
        values = np.full((3, 4), 0.5)
        values[2, 1] = 1.0 + 1e-10
        assert make_nm(values, 2).values[2, 1] == 1.0 + 1e-10


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def raw_matrices(draw):
    n = draw(st.integers(2, 7))
    p_risk = draw(st.integers(1, 3))
    p_util = draw(st.integers(1, 3))
    p = p_risk + p_util
    rows = draw(
        st.lists(st.lists(finite, min_size=p, max_size=p), min_size=n, max_size=n)
    )
    directions = draw(
        st.lists(st.sampled_from(["higher", "lower"]), min_size=p, max_size=p)
    )
    return np.array(rows), directions, p_risk


@settings(max_examples=60, deadline=None)
@given(raw_matrices())
def test_property_idempotent_on_normalized(data):
    vals, directions, p_risk = data
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        nm = harmonize_and_normalize(matrix_of(vals, directions, p_risk))
        # re-feed with directions matching the block semantics
        semantic = ["lower"] * p_risk + ["higher"] * (vals.shape[1] - p_risk)
        again = harmonize_and_normalize(matrix_of(nm.values, semantic, p_risk))
    np.testing.assert_allclose(again.values, nm.values, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(raw_matrices(), st.randoms(use_true_random=False))
def test_property_row_permutation_invariance(data, rnd):
    vals, directions, p_risk = data
    import warnings

    perm = list(range(vals.shape[0]))
    rnd.shuffle(perm)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        nm = harmonize_and_normalize(matrix_of(vals, directions, p_risk))
        nm_p = harmonize_and_normalize(matrix_of(vals[perm], directions, p_risk))
    np.testing.assert_array_equal(nm.values[perm], nm_p.values)


@settings(max_examples=60, deadline=None)
@given(raw_matrices())
def test_property_monotone_in_raw_order(data):
    vals, directions, p_risk = data
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        nm = harmonize_and_normalize(matrix_of(vals, directions, p_risk))
    for j in range(p_risk, vals.shape[1]):  # utility columns
        raw = vals[:, j]
        norm = nm.values[:, j]
        for i1 in range(len(raw)):
            for i2 in range(len(raw)):
                if raw[i1] < raw[i2]:
                    if directions[j] == "higher":
                        assert norm[i1] <= norm[i2]
                    else:
                        assert norm[i1] >= norm[i2]


# few distinct values per column, so that ties and constant columns are
# common, with both signed zeros and subnormal ranges among them
special = st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, 1e6])


@st.composite
def scaling_cases(draw):
    # past 8 rows numpy reduces in blocks, which can pick the other zero
    n = draw(st.integers(2, 12))
    p_risk, p_util = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    columns = []
    for _ in range(p_risk + p_util):
        pool = draw(st.lists(st.sampled_from([0.0, -0.0]) | special | finite,
                             min_size=1, max_size=3))
        columns.append(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    directions = draw(st.lists(st.sampled_from(["higher", "lower"]),
                               min_size=len(columns), max_size=len(columns)))
    reference = draw(st.none() | st.integers(0, n - 1))
    return (np.array(columns).T, directions, p_risk, reference, draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(scaling_cases())
def test_property_each_cell_is_its_defining_formula(case):
    vals, directions, p_risk, reference, exclude = case
    m = matrix_of(vals, directions, p_risk, reference_index=reference)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        nm = harmonize_and_normalize(m, exclude_reference_from_range=exclude)
    expected_warnings = []
    for j, spec in enumerate(m.specs):
        column = vals[:, j].tolist()
        pop = [v for i, v in enumerate(column) if not (exclude and i == reference)]
        # Python's min keeps the first of 0.0 and -0.0; the range ends are the
        # column's 1-D numpy reduction, whose pick the cells carry
        lo, hi = float(np.min(pop)), float(np.max(pop))
        flip = (spec.block is Block.UTILITY) == (spec.direction is Direction.LOWER)
        scale = ColumnScale(lo, hi, flipped=flip, constant=lo == hi)
        assert repr(nm.scales[j]) == repr(scale)
        if lo == hi:
            expected_warnings.append(f"measure '{spec.id}' is constant over the "
                                     "scaling population; normalized to 0.5")
        cells = []
        for v in column:
            if lo == hi:
                cells.append(0.5)
                continue
            x = (v - lo) / (hi - lo)
            if exclude:
                x = 0.0 if x < 0.0 else 1.0 if x > 1.0 else x
            cells.append(1.0 - x if flip else x)
        assert [float(c).hex() for c in nm.values[:, j]] == [c.hex() for c in cells]
    assert [str(w.message) for w in caught] == expected_warnings
