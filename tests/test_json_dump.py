"""The report's JSON writer against the stdlib encoder of the element walk."""

import gc
import json
import math
import tracemalloc
from dataclasses import dataclass
from enum import Enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ruviz.pipeline import _Table, _dump_json, _json_pieces

from conftest import oracle_dump_json, oracle_jsonable

# characters the string encoder must escape or pass through untouched
SPECIAL_CHARS = '"\\,:\n\t\r\x00\x1f\x7f é€ü\u2028\U0001d11e'

keys = st.text(st.one_of(st.sampled_from(SPECIAL_CHARS), st.characters()),
               max_size=6)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
numbers = st.one_of(
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    finite_floats,
    st.sampled_from([0.0, -0.0, 1e-300, 1e300, 5e-324, -1.7976931348623157e308]),
)
scalars = st.one_of(
    numbers,
    st.booleans(),
    st.none(),
    keys,
    finite_floats.map(np.float64),
)
documents = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(numbers, max_size=6),
        st.dictionaries(keys, children, max_size=5),
    ),
    max_leaves=40,
)


class TestDumpJson:
    @settings(max_examples=300, deadline=None)
    @given(documents)
    def test_equals_stdlib_indent_layout(self, doc):
        assert _dump_json(doc) == oracle_dump_json(doc)

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(keys, st.lists(st.lists(numbers, max_size=4), max_size=4),
                           max_size=4))
    def test_equals_stdlib_on_numeric_matrices(self, doc):
        assert _dump_json(doc) == oracle_dump_json(doc)

    @pytest.mark.parametrize("doc", [
        {},
        [],
        {"a": {}, "b": [], "c": [[]], "d": [{}]},
        [True, False, 1, 0.5],
        "top-level string",
        -0.0,
    ])
    def test_equals_stdlib_on_edge_documents(self, doc):
        assert _dump_json(doc) == oracle_dump_json(doc)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("wrap", [
        lambda x: x,
        lambda x: [1.0, x, 2.0],
        lambda x: [1, x],
        lambda x: {"a": [[0.5], [x]]},
        lambda x: {"a": x},
        lambda x: [np.float64(x)],
        lambda x: [None, x],
    ])
    def test_non_finite_raises_like_stdlib(self, bad, wrap):
        """Where the stdlib raises on NaN or infinity, `_dump_json` writes
        null, the text of the element walk's None."""
        doc = wrap(bad)
        with pytest.raises(ValueError):
            oracle_dump_json(doc)
        assert _dump_json(doc) == oracle_dump_json(oracle_jsonable(doc))

    @pytest.mark.parametrize("doc", [
        [np.int64(1)],
        [np.array([1.0])],
        {"a": np.float32(0.5), "b": np.uint8(7)},
        (np.int32(-3), np.float64(2.5), np.array(4)),
    ])
    def test_numpy_values_equal_the_element_walk(self, doc):
        assert _dump_json(doc) == oracle_dump_json(oracle_jsonable(doc))

    @pytest.mark.parametrize("doc", [
        {"a": np.bool_(True)},
        {(1, 2): "tuple key"},
        {"a": 1, 2: "mixed keys cannot be sorted"},
        [1j],
        {"a": {1, 2}},
    ])
    def test_unsupported_values_raise_like_stdlib(self, doc):
        with pytest.raises(TypeError):
            oracle_dump_json(doc)
        with pytest.raises(TypeError):
            _dump_json(doc)

    @pytest.mark.parametrize("key", [2, 1.5, True, None])
    def test_non_string_key_raises(self, key):
        with pytest.raises(TypeError):
            _dump_json({key: "value"})


any_floats = st.one_of(
    st.floats(width=64),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)


class TestJsonable:
    """Arrays of 0 to 3 dimensions and numpy scalars, each written as the
    stdlib writes its element walk."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        hnp.arrays(np.float64, shapes, elements=any_floats),
        hnp.arrays(np.float64, shapes, elements=finite_floats),
        hnp.arrays(np.float32, shapes,
                   elements=st.floats(width=32, allow_nan=True, allow_infinity=True)),
        hnp.arrays(np.int64, shapes),
        hnp.arrays(np.uint8, shapes),
        hnp.arrays(np.bool_, shapes),
    ))
    def test_equals_element_walk(self, array):
        for doc in (array, {"a": [array, 1]}):
            assert _dump_json(doc) == oracle_dump_json(oracle_jsonable(doc))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_of_a_vertex_array_becomes_null(self, bad):
        vertices = np.arange(12.0).reshape(6, 2)
        vertices[4, 1] = bad
        text = _dump_json(vertices)
        got = json.loads(text)
        assert got[4] == [8.0, None] and got[:4] == vertices[:4].tolist()
        assert text == oracle_dump_json(oracle_jsonable(vertices))

    def test_finite_array_whose_sum_overflows_is_kept(self):
        array = np.array([1e308, 1e308, -5.0])
        assert _dump_json(array) == oracle_dump_json([1e308, 1e308, -5.0])

    def test_object_array_is_walked(self):
        array = np.array([1.5, None, math.nan, "x"], dtype=object)
        expected = oracle_dump_json([1.5, None, None, "x"])
        assert _dump_json(array) == oracle_dump_json(oracle_jsonable(array)) == expected

    def test_scalars_and_sequences(self):
        value = (np.float64(math.inf), [np.int32(3), math.nan], np.float32(0.5))
        expected = oracle_dump_json([None, [3, None], 0.5])
        assert _dump_json(value) == oracle_dump_json(oracle_jsonable(value)) == expected


grid_shapes = hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6)
grid_floats = st.one_of(
    finite_floats,
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-5, 0.1]),
)
grids = st.one_of(
    hnp.arrays(np.int64, grid_shapes, elements=st.integers(0, 9)),  # as the dominance matrix
    hnp.arrays(np.int64, grid_shapes, elements=st.integers(-9, 9)),
    hnp.arrays(np.int64, grid_shapes),
    hnp.arrays(np.uint8, grid_shapes),
    hnp.arrays(np.uint64, grid_shapes),
    hnp.arrays(np.float64, grid_shapes, elements=grid_floats),
    hnp.arrays(np.float32, grid_shapes,
               elements=st.floats(width=32, allow_nan=False, allow_infinity=False)),
    hnp.arrays(np.bool_, grid_shapes),
)


class TestGrids:
    """2-D arrays, the shape of the dominance matrix and the PCA scores."""

    @settings(max_examples=300, deadline=None)
    @given(grids)
    def test_grid_equals_stdlib(self, array):
        assert _dump_json(array) == oracle_dump_json(array.tolist())

    @settings(max_examples=100, deadline=None)
    @given(st.lists(grids, max_size=3), st.dictionaries(keys, grids, max_size=3))
    def test_grids_nested_in_lists_and_dicts_equal_stdlib(self, in_list, in_dict):
        doc = {"list": in_list, "dict": in_dict, "deep": [[in_dict, 1.5]]}
        assert _dump_json(doc) == oracle_dump_json(oracle_jsonable(doc))

    @pytest.mark.parametrize("array", [
        np.zeros((0, 3), dtype=int),
        np.zeros((3, 0)),
        np.array([[0, 9], [10, 1]]),
        np.array([[-1, 0]]),
        np.array([[-0.0, 5e-324], [1e16, 1e-5]]),
        np.eye(4, dtype=int),
    ])
    def test_edge_grids_equal_stdlib(self, array):
        assert _dump_json({"g": array}) == oracle_dump_json({"g": array.tolist()})


class Colour(str, Enum):
    RED = "red"


@dataclass(frozen=True)
class Leaf:
    name: str
    weight: float


@dataclass(frozen=True)
class Tree:
    colour: Colour
    ratio: float
    values: np.ndarray
    leaves: tuple[Leaf, ...]
    cutoffs: dict[str, float]
    note: str | None = None


class TestDataclasses:
    def test_dataclass_is_plain_dict_with_nulls(self):
        tree = Tree(colour=Colour.RED, ratio=math.nan,
                    values=np.array([[0.5, math.inf], [-1.0, 2.0]]),
                    leaves=(Leaf("a", 1.5), Leaf("b", np.float64(-math.inf))),
                    cutoffs={"a": 0.5, "b": math.nan})
        text = _dump_json(tree)
        assert text == oracle_dump_json(oracle_jsonable(tree))
        assert json.loads(text) == {
            "colour": "red",
            "ratio": None,
            "values": [[0.5, None], [-1.0, 2.0]],
            "leaves": [{"name": "a", "weight": 1.5}, {"name": "b", "weight": None}],
            "cutoffs": {"a": 0.5, "b": None},
            "note": None,
        }


# table cells: the JSON writer's edge floats, NaN and infinities among them
table_floats = st.one_of(
    finite_floats,
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-5, 0.1,
                     math.nan, math.inf, -math.inf]),
)
# keys and strings with characters the template or the encoder must keep
table_text = st.text(st.one_of(st.sampled_from('%"\\é€\U0001d11e'), st.characters()),
                     max_size=6)
table_scalars = st.one_of(
    st.integers(),
    st.booleans(),
    st.none(),
    table_floats,
    table_floats.map(np.float64),
    table_text,
    st.lists(numbers, max_size=3),
)


def table_columns(n: int):
    """One column of n cells: an array (a cell may itself be an array) or a
    list of values, some of them equal in every row."""
    tails = st.sampled_from([(), (3,), (2, 2), (0,)])
    return st.one_of(
        tails.flatmap(lambda tail: hnp.arrays(np.float64, (n, *tail),
                                              elements=table_floats)),
        hnp.arrays(np.float64, (n,), elements=st.sampled_from([0.0, -0.0])),
        hnp.arrays(np.float32, (n, 2),
                   elements=st.floats(width=32, allow_nan=True, allow_infinity=True)),
        hnp.arrays(np.int64, (n,)),
        hnp.arrays(np.uint8, (n, 2)),
        hnp.arrays(np.bool_, (n,)),
        table_floats.map(lambda x: np.full(n, x)),
        st.lists(table_scalars, min_size=n, max_size=n),
        st.lists(st.one_of(st.none(), table_floats), min_size=n, max_size=n),
        table_scalars.map(lambda x: [x] * n),
    )


def tables(max_rows: int):
    return st.integers(0, max_rows).flatmap(
        lambda n: st.dictionaries(table_text, table_columns(n), max_size=4))


def oracle_rows(columns: dict) -> list[dict]:
    """The records of `columns` as the element walk makes them."""
    cells = [oracle_jsonable(column) for column in columns.values()]
    return [dict(zip(columns, row)) for row in zip(*cells)]


class TestTables:
    """Record lists held as columns, which `_dump_json` writes with one
    template per table."""

    def check(self, columns: dict) -> None:
        table = _Table(**columns)
        rows = oracle_rows(columns)
        doc = {"table": table, "nested": [{"deep": table}, 1.5]}
        expected = {"table": rows, "nested": [{"deep": rows}, 1.5]}
        assert _dump_json(doc) == oracle_dump_json(expected)

    @settings(max_examples=300, deadline=None)
    @given(tables(max_rows=5))
    def test_table_equals_stdlib(self, columns):
        self.check(columns)

    @settings(max_examples=30, deadline=None)
    @given(tables(max_rows=300))
    def test_long_table_equals_stdlib(self, columns):
        self.check(columns)

    @pytest.mark.parametrize("columns", [
        {},
        {"x": []},
        {"x": np.array([0.0, -0.0])},
        {"x": np.array([-0.0, -0.0]), "y": np.array([0.0, 0.0])},
        {"x": np.array([1, 1]), "y": [1.0, 1.0], "z": [True, True], "w": [1, True]},
        {"x": np.array([[5e-324, 1e16, 1e-5]] * 3)},
        {"slope": [0.5, None, math.inf, -2.0], "nan": np.full(4, math.nan)},
        {"%s": ["%", "%%"], "%(0)s": ["%d", "%d"], '"q"': ['"', "é€"]},
        {"id": ["a", "b", "c"], "vertices": np.zeros((3, 4, 2)), "e": np.zeros((3, 0))},
    ])
    def test_edge_tables_equal_stdlib(self, columns):
        self.check(columns)

    def test_columns_must_have_one_cell_per_record(self):
        with pytest.raises(ValueError, match="differ in length"):
            _Table(id=["a", "b"], x=np.zeros(3))


# few distinct numbers, so that columns are often constant or mix 0.0 and -0.0
cell_floats = st.sampled_from([0.0, -0.0, 1.5, 5e-324])
cell_shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4)
mixed_items = st.one_of(
    scalars,
    hnp.arrays(np.float64, cell_shapes, elements=cell_floats),
    tables(max_rows=3).map(lambda columns: _Table(**columns)),
)


class TestSequences:
    """Lists, tuples, arrays and tables, each written as n copies of one
    cell template, against the stdlib's writing of the element walk."""

    def check(self, value) -> None:
        for doc in (value, {"a": [value, 1]}):
            assert _dump_json(doc) == oracle_dump_json(oracle_jsonable(doc))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        hnp.arrays(np.float64, cell_shapes, elements=cell_floats),
        hnp.arrays(np.int64, cell_shapes, elements=st.integers(-1, 1)),
    ))
    def test_arrays_of_few_numbers(self, array):
        self.check(array)

    @pytest.mark.parametrize("array", [
        np.array([[1.0, 2.0], [1.0, 3.0], [1.0, -4.0]]),
        np.array([[7, 0], [7, 1]]),
        np.array([[[0.5, 1.0], [2.0, 2.0]], [[0.5, 3.0], [2.0, 2.0]]]),
        np.full(4, 2.5),
        np.full((3, 2), -0.0),
    ])
    def test_constant_columns(self, array):
        self.check(array)

    @pytest.mark.parametrize("array", [
        np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]),
        np.array([-0.0, 0.0]),
        np.array([[[0.0]], [[-0.0]]], dtype=np.float32),
    ])
    def test_signed_zeros_of_one_column_stay_apart(self, array):
        text = _dump_json(array)
        assert text.count("-0.0") == np.signbit(array).sum()
        self.check(array)

    @pytest.mark.parametrize("array", [
        np.array([[1.5, -0.0, 3.0]]),
        np.array([7]),
        np.zeros((1, 2, 2), dtype=np.float32),
        np.array([[np.nan, 1.0]]),
        np.array([[True, False]]),
    ])
    def test_one_row_arrays(self, array):
        self.check(array)

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.bool_, object])
    def test_empty_shapes(self, shape, dtype):
        self.check(np.zeros(shape, dtype=dtype))

    @pytest.mark.parametrize("array", [
        np.array(2.5),
        np.array(-0.0),
        np.array(np.nan),
        np.array(-np.inf, dtype=np.float32),
        np.array(3, dtype=np.uint8),
        np.array(True),
        np.array("text"),
        np.array(None, dtype=object),
    ])
    def test_zero_dimensional_arrays_are_their_item(self, array):
        assert _dump_json(array) == oracle_dump_json(oracle_jsonable(array.item()))
        self.check(array)

    @pytest.mark.parametrize("value", [
        [1, np.array([0.5, -0.0]), _Table(x=[1, 2]), "%s", None],
        (np.zeros((2, 0)), _Table(), [], (), np.array(4.0)),
        [_Table(v=np.eye(2), id=["a", "b"]), _Table(v=np.eye(2), id=["a", "b"])],
        ([np.int64(3), np.float32(0.25)], {"k": _Table(k=[math.nan])}, math.inf),
    ])
    def test_lists_and_tuples_of_mixed_items(self, value):
        self.check(value)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(mixed_items, max_size=5), st.booleans())
    def test_mixed_sequences_equal_the_element_walk(self, items, as_tuple):
        self.check(tuple(items) if as_tuple else items)

    def test_nothing_is_kept_after_a_dump(self):
        _dump_json({"m": np.eye(3, dtype=int)})  # warm up
        tracemalloc.start()
        try:
            text = _dump_json({"m": np.eye(600, dtype=int)})
            del text
            gc.collect()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 64 * 1024


class TestPieces:
    """The pieces the report writer streams, which join to `_dump_json`'s text."""

    @pytest.mark.parametrize("doc", [
        {"m": np.arange(90000).reshape(300, 300) % 3},
        {"t": _Table(id=[f"r{i}" for i in range(10000)], x=np.linspace(0.0, 1.0, 10000)),
         "ids": [f"r{i}" for i in range(10000)]},
        [{"deep": np.zeros((20000, 4))}, np.full((5, 400), 0.5)],
    ])
    def test_pieces_join_to_the_text_and_none_holds_it_whole(self, doc):
        text = _dump_json(doc)
        pieces = list(_json_pieces(doc))
        assert "".join(pieces) == text
        # a piece is a block of about 1024 fields or 64 KiB of cell template
        assert len(text) > 700_000 and max(map(len, pieces)) < 100_000

    def test_a_non_string_key_raises_while_streaming(self):
        with pytest.raises(TypeError):
            list(_json_pieces({"a": np.zeros(3), "b": {5: "five"}}))


def reject(token: str):
    raise AssertionError(f"the JSON text holds {token}")


# documents of every kind of value the writer takes, NaN and infinities among them
non_finite_documents = st.recursive(
    st.one_of(
        scalars,
        table_floats,
        table_floats.map(np.float64),
        hnp.arrays(np.float64, shapes, elements=any_floats),
        tables(max_rows=4).map(lambda columns: _Table(**columns)),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(non_finite_documents)
def test_no_document_holds_nan_or_infinity(doc):
    json.loads(_dump_json(doc), parse_constant=reject)
