"""Backend-independent chart description with deterministic SVG serialization.

A PlotDocument is a canvas and an ordered bag of drawing primitives.
Serialization is a pure function of the document: coordinates are emitted
with fixed two-decimal formatting and primitives in stable z-order, so
identical inputs yield byte-identical SVG.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from operator import itemgetter

import numpy as np


def fmt(v: float) -> str:
    s = f"{v:.2f}"
    # the text, not the value, is tested: a template's fields pass here too
    if s in ("nan", "inf", "-inf"):
        raise ValueError(f"non-finite number {s} in an SVG element")
    return "0.00" if s == "-0.00" else s


def _style_attrs(
    fill: str | None,
    stroke: str | None,
    stroke_width: float | None,
    dash: str | None,
    opacity: float | None,
) -> str:
    parts = []
    if fill is not None:
        parts.append(f' fill="{fill}"')
    if stroke is not None:
        parts.append(f' stroke="{stroke}"')
    if stroke_width is not None:
        parts.append(f' stroke-width="{fmt(stroke_width)}"')
    if dash is not None:
        parts.append(f' stroke-dasharray="{dash}"')
    if opacity is not None:
        parts.append(f' opacity="{fmt(opacity)}"')
    return "".join(parts)


def _escape(text: str) -> str:
    """`&`, `<` and `>` as XML entities, as `xml.sax.saxutils.escape` writes
    them, without importing `xml.sax`, which loads `urllib.request`."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _title_child(title: str | None) -> str:
    return f"<title>{_escape(title)}</title>" if title else ""


def _element(tag: str, attrs: str, title: str | None) -> str:
    """`<tag attrs>` with a `<title>` child when titled, else self-closing."""
    inner = _title_child(title)
    return f"<{tag} {attrs}>{inner}</{tag}>" if inner else f"<{tag} {attrs}/>"


@dataclass(frozen=True)
class Rect:
    x: float
    y: float
    w: float
    h: float
    fill: str | None = None
    stroke: str | None = None
    stroke_width: float | None = None
    title: str | None = None

    def to_svg(self) -> str:
        attrs = (
            f'x="{fmt(self.x)}" y="{fmt(self.y)}" '
            f'width="{fmt(self.w)}" height="{fmt(self.h)}"'
            + _style_attrs(self.fill, self.stroke, self.stroke_width, None, None)
        )
        return _element("rect", attrs, self.title)


@dataclass(frozen=True)
class Line:
    x1: float
    y1: float
    x2: float
    y2: float
    stroke: str = "#000000"
    stroke_width: float = 1.0
    dash: str | None = None

    def to_svg(self) -> str:
        return (
            f'<line x1="{fmt(self.x1)}" y1="{fmt(self.y1)}" '
            f'x2="{fmt(self.x2)}" y2="{fmt(self.y2)}"'
            + _style_attrs(None, self.stroke, self.stroke_width, self.dash, None)
            + "/>"
        )


@dataclass(frozen=True)
class PolyBase:
    points: tuple[tuple[float, float], ...]
    fill: str | None = None
    stroke: str | None = None
    stroke_width: float | None = None
    dash: str | None = None
    opacity: float | None = None
    title: str | None = None

    def _svg(self, tag: str, fill: str | None) -> str:
        points = " ".join(f"{fmt(x)},{fmt(y)}" for x, y in self.points)
        attrs = f'points="{points}"' + _style_attrs(
            fill, self.stroke, self.stroke_width, self.dash, self.opacity
        )
        return _element(tag, attrs, self.title)


class Polyline(PolyBase):
    def to_svg(self) -> str:
        return self._svg("polyline", self.fill or "none")


class Polygon(PolyBase):
    def to_svg(self) -> str:
        return self._svg("polygon", self.fill)


@dataclass(frozen=True)
class Circle:
    cx: float
    cy: float
    r: float
    fill: str | None = None
    stroke: str | None = None
    stroke_width: float | None = None
    opacity: float | None = None
    title: str | None = None

    def to_svg(self) -> str:
        attrs = f'cx="{fmt(self.cx)}" cy="{fmt(self.cy)}" r="{fmt(self.r)}"' + (
            _style_attrs(self.fill, self.stroke, self.stroke_width, None,
                         self.opacity)
        )
        return _element("circle", attrs, self.title)


@dataclass(frozen=True)
class Text:
    x: float
    y: float
    content: str
    size: float = 12.0
    anchor: str = "start"  # start | middle | end
    fill: str = "#000000"
    weight: str | None = None
    rotate: float | None = None  # degrees, about (x, y)
    title: str | None = None

    def to_svg(self) -> str:
        attrs = (
            f'x="{fmt(self.x)}" y="{fmt(self.y)}" font-size="{fmt(self.size)}" '
            f'font-family="sans-serif" text-anchor="{self.anchor}" '
            f'fill="{self.fill}"'
        )
        if self.weight is not None:
            attrs += f' font-weight="{self.weight}"'
        if self.rotate is not None:
            attrs += (
                f' transform="rotate({fmt(self.rotate)},{fmt(self.x)},'
                f'{fmt(self.y)})"'
            )
        return f"<text {attrs}>{_escape(self.content)}{_title_child(self.title)}</text>"


class _Field:
    """A number that writes itself as a `%`-field named by its index, so
    that an element built of these writes the template of its own SVG."""

    def __init__(self, index: int):
        self.index = index

    def __format__(self, spec: str) -> str:
        return "%%(%d)%s" % (self.index, spec)


def _instance(cls: type, numbers: list, style: dict):
    """An element of `cls` with `numbers` as its leading fields (for a
    polyline or polygon, its vertices' x0, y0, x1, y1, ...)."""
    if issubclass(cls, PolyBase):
        return cls(tuple(zip(numbers[0::2], numbers[1::2])), **style)
    return cls(*numbers, **style)


# a doubled `%`, or a field named by its index
_FIELD = re.compile(r"%(%|\((\d+)\))")


@functools.lru_cache(maxsize=256)
def _template(cls: type, k: int, style: tuple):
    """One batch row's SVG as a `%`-template, with a field for each of its
    k numbers and each string that `style` gives as a field, and the getter
    that puts a batch's columns in the template's field order."""
    text = _instance(cls, [_Field(i) for i in range(k)], dict(style)).to_svg()
    order = [int(m[2]) for m in _FIELD.finditer(text) if m[2]]
    return _FIELD.sub(lambda m: "%" if m[2] else "%%", text), itemgetter(*order)


class Batch:
    """Many elements of one class, one row of `values` each, written with
    the bytes that the single elements write.

    A row holds an element's leading numbers (x, y, w, h for a `Rect`), or
    x0, y0, x1, y1, ... for a polyline or polygon. The keywords are the
    class's other fields; a sequence under `fill`, `stroke`, `anchor`,
    `title` or `content` gives one string per row. `lead`, a batch with
    one row per equal group of rows, writes each of its rows before its
    group.
    """

    def __init__(self, cls: type, values, lead: Batch | None = None, **style):
        self.cls = cls
        self.values = np.asarray(values, dtype=float)
        if not np.isfinite(self.values).all():
            raise ValueError(f"non-finite number in a batch of {cls.__name__}")
        if lead is not None and (not len(lead.values)
                                 or len(self.values) % len(lead.values)):
            raise ValueError("a lead needs one row per equal group of rows")
        self.lead = lead
        self.columns = {k: v.tolist() if isinstance(v, np.ndarray) else list(v)
                        for k, v in style.items()
                        if k in ("fill", "stroke", "anchor", "title", "content")
                        and not isinstance(v, str | None)}
        self.style = {k: v for k, v in style.items() if k not in self.columns}

    def to_svg(self) -> str:
        lines = self._rows()
        if self.lead is not None:
            heads = self.lead._rows()
            group = len(lines) // len(heads)
            out = [""] * (len(heads) + len(lines))
            out[::group + 1] = heads
            for j in range(group):
                out[j + 1::group + 1] = lines[j::group]
            lines = out
        return "\n".join(lines)

    def _rows(self) -> list[str]:
        """Each row's SVG."""
        k = self.values.shape[1]
        fields = {name: "%%(%d)s" % (k + i) for i, name in enumerate(self.columns)}
        # `fmt` writes the values in (-0.005, -0.0] as 0.00, not -0.00
        v = self.values
        columns = np.where((v <= 0.0) & (v > -0.005), 0.0, v).T.tolist()
        for name, column in self.columns.items():
            if name in ("title", "content"):  # each distinct string escaped once
                escaped = {s: _escape(s) if s else "" for s in set(column)}
                column = list(map(escaped.__getitem__, column))
            columns.append(column)

        def template(**strings):
            # a shared string is written into the template, `%` doubled
            style = {name: value.replace("%", "%%") if isinstance(value, str)
                     else value for name, value in self.style.items()}
            style.update(fields, **strings)
            return _template(self.cls, k, tuple(sorted(style.items())))

        # each template's fields in its own order, one tuple per row
        titled, pick = template()
        if "title" not in self.columns:
            return [titled % row for row in zip(*pick(columns))]
        plain, pick_plain = template(title=None)  # an untitled element self-closes
        return [titled % a if t else plain % b for t, a, b in zip(
            self.columns["title"], zip(*pick(columns)), zip(*pick_plain(columns)))]


class PlotDocument:
    """One chart: a 960 x 640 canvas and ordered primitives."""

    width = 960
    height = 640

    def __init__(self) -> None:
        self._items: list[tuple[int, int, object]] = []

    def add(self, primitive, z: int = 0) -> None:
        if isinstance(primitive, Batch) and not len(primitive.values):
            return  # no elements to draw
        self._items.append((z, len(self._items), primitive))

    def primitives(self) -> list:
        return [p for _, _, p in sorted(self._items, key=lambda t: (t[0], t[1]))]

    def to_svg(self) -> str:
        lines = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            (
                f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                f'width="{self.width}" height="{self.height}" '
                f'viewBox="0 0 {self.width} {self.height}">'
            ),
            (
                f'<rect x="0" y="0" width="{self.width}" height="{self.height}" '
                f'fill="#ffffff"/>'
            ),
        ]
        lines.extend(p.to_svg() for p in self.primitives())
        lines.append("</svg>")
        return "\n".join(lines) + "\n"
