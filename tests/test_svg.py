import math
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import pytest

from ruviz.svg import (
    Circle,
    Line,
    PlotDocument,
    Polygon,
    Polyline,
    Rect,
    Text,
    fmt,
)

from conftest import assert_in_bounds


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


class TestPlotDocument:
    def test_rejects_non_finite_coordinates(self):
        doc = PlotDocument()
        with pytest.raises(ValueError, match="non-finite"):
            doc.add(Circle(math.nan, 10, 3))
        with pytest.raises(ValueError, match="non-finite"):
            doc.add(Line(0, 0, math.inf, 1))

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
        doc = PlotDocument(width=100, height=100)
        doc.add(Circle(50, 50, 5))
        assert_in_bounds(doc)
        doc.add(Circle(120, 50, 5))
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
