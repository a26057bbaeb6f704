import math
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruviz.svg import (
    Batch,
    Circle,
    Line,
    PlotDocument,
    Polygon,
    Polyline,
    Rect,
    Text,
    fmt,
)

from conftest import assert_in_bounds, corners


class TestFormatting:
    def test_two_decimals(self):
        assert fmt(1.005) in ("1.00", "1.01")  # fixed-width, deterministic
        assert fmt(3.14159) == "3.14"
        assert fmt(-0.0) == "0.00"
        assert fmt(-0.001) == "0.00"

    def test_negative_zero_never_emitted(self):
        doc = PlotDocument()
        doc.add(Line(-0.0001, 5, 10, 5))
        assert "-0.00" not in doc.to_svg()


def document(*primitives) -> PlotDocument:
    doc = PlotDocument()
    for p in primitives:
        doc.add(p)
    return doc


# one element of each class, with each number it writes named by its field
ELEMENTS = {
    Rect: (dict(x=1.0, y=2.0, w=3.0, h=4.0, stroke_width=1.0), {}),
    Line: (dict(x1=1.0, y1=2.0, x2=3.0, y2=4.0, stroke_width=1.0), {}),
    Circle: (dict(cx=1.0, cy=2.0, r=3.0, stroke_width=1.0, opacity=0.5), {}),
    Text: (dict(x=1.0, y=2.0, size=9.0, rotate=-30.0), dict(content="a")),
    Polyline: (dict(stroke_width=1.0, opacity=0.5), dict(points=((1.0, 2.0), (3.0, 4.0)))),
    Polygon: (dict(stroke_width=1.0, opacity=0.5), dict(points=((1.0, 2.0), (3.0, 4.0)))),
}
NUMBER_FIELDS = [(cls, name) for cls, (numbers, _) in ELEMENTS.items() for name in numbers]
NON_FINITE = [math.nan, math.inf, -math.inf]


class TestPlotDocument:
    def test_rejects_non_finite_coordinates(self):
        for element in (Circle(math.nan, 10, 3), Line(0, 0, math.inf, 1)):
            doc = document(element)  # `add` checks nothing; writing does
            with pytest.raises(ValueError, match="non-finite"):
                doc.to_svg()

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("cls, name", NUMBER_FIELDS)
    def test_every_written_number_must_be_finite(self, cls, name, bad):
        numbers, other = ELEMENTS[cls]
        assert document(cls(**numbers, **other)).to_svg()
        with pytest.raises(ValueError, match="non-finite"):
            document(cls(**{**numbers, name: bad}, **other)).to_svg()

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("cls", [Polyline, Polygon])
    def test_every_written_vertex_must_be_finite(self, cls, bad):
        numbers, _ = ELEMENTS[cls]
        with pytest.raises(ValueError, match="non-finite"):
            document(cls(points=((1.0, 2.0), (3.0, bad)), **numbers)).to_svg()

    def test_z_order_stable(self):
        doc = PlotDocument()
        a = Rect(0, 0, 1, 1, fill="#111111")
        b = Rect(1, 1, 1, 1, fill="#222222")
        c = Rect(2, 2, 1, 1, fill="#333333")
        doc.add(b, z=1)
        doc.add(a, z=0)
        doc.add(c, z=1)
        assert doc.primitives() == [a, b, c]  # z first, insertion order second

    def test_bounds_check(self):
        doc = PlotDocument()
        doc.add(Circle(950, 630, 5))
        assert_in_bounds(doc)
        doc.add(Circle(50, 640, 5))
        with pytest.raises(ValueError, match="outside canvas"):
            assert_in_bounds(doc)

    def test_text_escaping(self):
        doc = PlotDocument()
        doc.add(Text(10, 10, "a<b & c>\"d\"", title="t&<>"))
        svg = doc.to_svg()
        ET.fromstring(svg)
        assert "a&lt;b &amp; c&gt;" in svg

    @pytest.mark.parametrize("raw", [
        "a<b & c>\"d\" 'e'", "&amp;", "<<&>>", "\"'", "&lt;&#39;", "plain", "",
    ])
    def test_escapes_as_saxutils(self, raw):
        label = raw or "x"  # an empty title is left out, so give it a text
        doc = PlotDocument()
        doc.add(Text(10, 10, raw, title=label))
        doc.add(Rect(1, 1, 2, 2, fill="#000000", title=label))
        svg = doc.to_svg()
        assert f">{escape(raw)}<title>{escape(label)}</title></text>" in svg
        assert f"><title>{escape(label)}</title></rect>" in svg

    def test_shape_titles_escaped(self):
        doc = PlotDocument()
        doc.add(Rect(1, 1, 2, 2, fill="#000000", title="r&d"))
        doc.add(Polygon(points=((1.0, 1.0), (2.0, 1.0), (2.0, 2.0)),
                        fill="#000000", title="<poly>"))
        doc.add(Polyline(points=((1.0, 1.0), (2.0, 2.0)), stroke="#000000",
                         title="a&b"))
        ET.fromstring(doc.to_svg())

    def test_self_contained_svg(self):
        doc = PlotDocument()
        doc.add(Text(10, 20, "hello"))
        svg = doc.to_svg()
        root = ET.fromstring(svg)
        assert root.get("viewBox") == "0 0 960 640"
        assert "http://" not in svg.replace("http://www.w3.org/2000/svg", "")
        assert 'font-family="sans-serif"' in svg

    def test_byte_identical_serialization(self):
        def build():
            doc = PlotDocument()
            for i in range(20):
                doc.add(Circle(10 + i * 3, 40 + (i % 5), 2.5,
                               fill="#2166ac"), z=i % 3)
            return doc.to_svg()

        assert build() == build()


# coordinates around the two-decimal rounding edges, -0.0 among them
coordinate = st.one_of(
    st.floats(-1e4, 1e4, allow_nan=False),
    st.floats(-0.006, 0.006),
    st.sampled_from([-0.0, 0.0, 0.005, -0.005, 0.004999999999999999,
                     -0.004999999999999999, 1.005, -1.005, 2.675]),
)
label = st.text(alphabet="ab &<>\"'{}%", max_size=6)
colour = st.sampled_from(["#000000", "#2166ac", "none", "{0}"])
percent = st.sampled_from(["%", "%s", "%%", "%%s", "%(0)s", "%.2f", "50% & <b>", "{0}%"])


def rows(width: int, min_size: int = 1):
    return st.lists(st.lists(coordinate, min_size=width, max_size=width),
                    min_size=min_size, max_size=6)


def single_and_batch_bytes(batch, singles) -> None:
    assert batch.to_svg() == "\n".join(e.to_svg() for e in singles)


class TestBatch:
    @settings(max_examples=60, deadline=None)
    @given(rows(4), st.data())
    def test_rects_write_the_single_rects_bytes(self, numbers, data):
        n = len(numbers)
        fills = data.draw(st.lists(colour, min_size=n, max_size=n))
        titles = data.draw(st.lists(label, min_size=n, max_size=n))
        batch = Batch(Rect, numbers, fill=fills, stroke="#ffffff", stroke_width=1.0,
                      title=titles)
        single_and_batch_bytes(batch, [
            Rect(*v, fill=f, stroke="#ffffff", stroke_width=1.0, title=t)
            for v, f, t in zip(numbers, fills, titles)])

    @settings(max_examples=60, deadline=None)
    @given(rows(3), st.data(), st.sampled_from([None, 0.9]))
    def test_circles_write_the_single_circles_bytes(self, numbers, data, opacity):
        n = len(numbers)
        fills = data.draw(st.lists(colour, min_size=n, max_size=n))
        titles = data.draw(st.lists(label, min_size=n, max_size=n))
        batch = Batch(Circle, numbers, fill=fills, stroke="#555555",
                      stroke_width=0.6, opacity=opacity, title=titles)
        single_and_batch_bytes(batch, [
            Circle(*v, fill=f, stroke="#555555", stroke_width=0.6, opacity=opacity,
                   title=t)
            for v, f, t in zip(numbers, fills, titles)])

    @settings(max_examples=40, deadline=None)
    @given(rows(4), st.sampled_from([None, "6,3"]))
    def test_lines_write_the_single_lines_bytes(self, numbers, dash):
        batch = Batch(Line, numbers, stroke="#eeeeee", dash=dash)
        single_and_batch_bytes(batch, [Line(*v, stroke="#eeeeee", dash=dash)
                                       for v in numbers])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_polylines_led_by_polylines_write_each_lead_first(self, first, second,
                                                              data):
        heads = data.draw(rows(2 * first))
        n = len(heads)
        lines = data.draw(st.lists(st.lists(coordinate, min_size=2 * second,
                                            max_size=2 * second),
                                   min_size=n, max_size=n))
        strokes = data.draw(st.lists(colour, min_size=n, max_size=n))
        titles = data.draw(st.lists(label, min_size=n, max_size=n))
        style = dict(fill="none", stroke=strokes, stroke_width=1.2, title=titles)
        batch = Batch(Polyline, lines, lead=Batch(Polyline, heads, **style), **style)
        singles = [Polyline(points=tuple(zip(v[0::2], v[1::2])), fill="none", stroke=s,
                            stroke_width=1.2, title=t)
                   for h, l, s, t in zip(heads, lines, strokes, titles) for v in (h, l)]
        assert batch.to_svg() == "\n".join(e.to_svg() for e in singles)

    @settings(max_examples=40, deadline=None)
    @given(rows(8), st.sampled_from([None, "#888888"]))
    def test_polygons_write_the_single_polygons_bytes(self, numbers, fill):
        batch = Batch(Polygon, numbers, fill=fill, stroke="#444444", stroke_width=0.8)
        single_and_batch_bytes(batch, [
            Polygon(points=tuple(zip(v[0::2], v[1::2])), fill=fill, stroke="#444444",
                    stroke_width=0.8)
            for v in numbers])

    @settings(max_examples=60, deadline=None)
    @given(rows(2), st.data(), st.sampled_from([None, -30.0]))
    def test_texts_write_the_single_texts_bytes(self, numbers, data, rotate):
        n = len(numbers)
        contents = data.draw(st.lists(label, min_size=n, max_size=n))
        titles = data.draw(st.lists(label, min_size=n, max_size=n))
        fills = data.draw(st.lists(colour, min_size=n, max_size=n))
        batch = Batch(Text, numbers, size=9, anchor="middle", rotate=rotate,
                      fill=fills, content=contents, title=titles)
        single_and_batch_bytes(batch, [
            Text(*v, c, size=9, anchor="middle", rotate=rotate, fill=f, title=t)
            for v, c, f, t in zip(numbers, contents, fills, titles)])

    def test_shared_strings_with_braces_are_written_as_given(self):
        batch = Batch(Text, [[1.0, 2.0]], content="{x} {0}", title="{}")
        assert batch.to_svg() == Text(1.0, 2.0, "{x} {0}", title="{}").to_svg()

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_rejects_non_finite_coordinates(self, bad, column):
        numbers = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        numbers[1][column] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Batch(Circle, numbers, fill="#000000")

    def test_rejects_non_finite_lead_coordinates(self):
        with pytest.raises(ValueError, match="non-finite"):
            Batch(Rect, [[0, 0, 1, 1]], lead=Batch(Text, [[10.0, math.inf]], content="a"))

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("cls, name, width", [
        (Rect, "stroke_width", 4), (Line, "stroke_width", 4),
        (Circle, "stroke_width", 3), (Circle, "opacity", 3),
        (Text, "size", 2), (Text, "rotate", 2),
        (Polyline, "stroke_width", 4), (Polygon, "opacity", 4),
    ])
    def test_shared_numbers_must_be_finite(self, cls, name, width, bad):
        content = dict(content="a") if cls is Text else {}
        batch = Batch(cls, [[1.0] * width], **content, **{name: bad})
        with pytest.raises(ValueError, match="non-finite"):
            batch.to_svg()
        with pytest.raises(ValueError, match="non-finite"):
            Batch(Rect, [[0, 0, 1, 1]], lead=batch).to_svg()

    def test_corners_are_those_of_the_single_elements(self):
        lead = Batch(Text, [[5.0, 6.0], [7.0, 8.0]], content="t")
        batch = Batch(Circle, [[10, 20, 2], [30, 40, 3]], lead=lead)
        singles = [Text(5.0, 6.0, "t"), Circle(10, 20, 2), Text(7.0, 8.0, "t"),
                   Circle(30, 40, 3)]
        assert corners(document(batch)) == corners(document(*singles))
        assert corners(document(batch))[2:] == [  # after the background
            ("text", 5.0, 6.0), ("circle", 8.0, 18.0), ("circle", 12.0, 22.0),
            ("text", 7.0, 8.0), ("circle", 27.0, 37.0), ("circle", 33.0, 43.0)]

    def test_bounds_check_covers_every_batched_element(self):
        doc = PlotDocument()
        doc.add(Batch(Rect, [[10, 10, 5, 5], [950, 630, 5, 5]]))
        assert_in_bounds(doc)
        doc.add(Batch(Rect, [[10, 10, 5, 5], [956, 50, 5, 5]]))
        with pytest.raises(ValueError, match="outside canvas"):
            assert_in_bounds(doc)

    @settings(max_examples=60, deadline=None)
    @given(rows(2), st.data())
    def test_percent_signs_are_written_as_given(self, numbers, data):
        n = len(numbers)
        shared = data.draw(percent)
        contents = data.draw(st.lists(percent, min_size=n, max_size=n))
        titles = data.draw(st.lists(percent | st.just(""), min_size=n, max_size=n))
        batch = Batch(Text, numbers, fill=shared, weight=shared, content=contents,
                      title=titles)
        single_and_batch_bytes(batch, [
            Text(*v, c, fill=shared, weight=shared, title=t)
            for v, c, t in zip(numbers, contents, titles)])
        shared_text = Batch(Text, numbers, content=shared, title=shared)
        single_and_batch_bytes(shared_text, [Text(*v, shared, title=shared)
                                             for v in numbers])

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_repeated_strings_are_escaped_as_the_single_texts_do(self, data):
        # few distinct strings over many rows, as the figures' measure names
        words = st.sampled_from(["a & b", "<x>", "50% & <b>", "%s", "", "plain"])
        n = data.draw(st.integers(1, 40))
        numbers = [[float(i), 2.0] for i in range(n)]
        contents = data.draw(st.lists(words, min_size=n, max_size=n))
        titles = data.draw(st.lists(words, min_size=n, max_size=n))
        batch = Batch(Text, numbers, size=9, content=contents, title=titles)
        single_and_batch_bytes(batch, [Text(*v, c, size=9, title=t)
                                       for v, c, t in zip(numbers, contents, titles)])

    @settings(max_examples=40, deadline=None)
    @given(rows(4), st.data())
    def test_percent_signs_in_shape_strings(self, numbers, data):
        n = len(numbers)
        shared = data.draw(percent)
        fills = data.draw(st.lists(percent, min_size=n, max_size=n))
        batch = Batch(Rect, numbers, fill=fills, stroke=shared, title=shared)
        single_and_batch_bytes(batch, [Rect(*v, fill=f, stroke=shared, title=shared)
                                       for v, f in zip(numbers, fills)])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.data())
    def test_lead_row_precedes_each_group(self, heads, group, data):
        cells = data.draw(st.lists(st.lists(coordinate, min_size=4, max_size=4),
                                   min_size=heads * group, max_size=heads * group))
        at = data.draw(st.lists(st.lists(coordinate, min_size=2, max_size=2),
                                min_size=heads, max_size=heads))
        titles = data.draw(st.lists(label, min_size=heads, max_size=heads))
        lead = Batch(Text, at, size=11, anchor="end", content=titles, title=titles)
        batch = Batch(Rect, cells, fill="#ffffff", lead=lead)
        singles = []
        for i, (xy, t) in enumerate(zip(at, titles)):
            singles.append(Text(*xy, t, size=11, anchor="end", title=t))
            singles += [Rect(*v, fill="#ffffff")
                        for v in cells[i * group:(i + 1) * group]]
        assert batch.to_svg() == "\n".join(e.to_svg() for e in singles)

    def test_string_array_columns_write_the_list_bytes(self):
        numbers = [[float(i), 2.0 * i, 5.0, 5.0] for i in range(4)]
        fills = ["#2166ac", "#b2182b", "#2166ac", "none"]
        titles = ["a & b", "%s", "{0}", "<c>"]
        from_arrays = Batch(Rect, numbers, fill=np.array(fills),
                            title=np.array(titles), stroke="#ffffff")
        assert from_arrays.columns["fill"] == fills
        assert all(type(s) is str for s in from_arrays.columns["fill"])
        from_lists = Batch(Rect, numbers, fill=fills, title=titles, stroke="#ffffff")
        assert np.array(fills).dtype == "<U7"
        assert from_arrays.to_svg() == from_lists.to_svg()

    @pytest.mark.parametrize("n", [0, 3])
    def test_lead_needs_one_row_per_equal_group(self, n):
        with pytest.raises(ValueError, match="equal group"):
            Batch(Rect, [[0, 0, 1, 1]] * 4, lead=Batch(Text, [[0, 0]] * n))
