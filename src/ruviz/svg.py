"""Backend-independent chart description with deterministic SVG serialization.

A PlotDocument is an ordered bag of drawing primitives plus legend metadata.
Serialization is a pure function of the document: coordinates are emitted
with fixed two-decimal formatting and primitives in stable z-order, so
identical inputs yield byte-identical SVG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator


class PlotKind(str, Enum):
    HEATMAP = "heatmap"
    DOTPLOT = "dotplot"
    COMPOSITE_RU = "composite_ru"
    RAYS = "rays"
    PCP = "pcp"
    ORIGAMI = "origami"
    BIPLOT = "biplot"
    SD_OD = "sdod"
    BLOCKWISE_RU = "blockwise"


def fmt(v: float) -> str:
    s = f"{v:.2f}"
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

    def coords(self) -> Iterator[tuple[float, float]]:
        yield (self.x, self.y)
        yield (self.x + self.w, self.y + self.h)

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

    def coords(self) -> Iterator[tuple[float, float]]:
        yield (self.x1, self.y1)
        yield (self.x2, self.y2)

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

    def coords(self) -> Iterator[tuple[float, float]]:
        yield from self.points

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

    def coords(self) -> Iterator[tuple[float, float]]:
        yield (self.cx - self.r, self.cy - self.r)
        yield (self.cx + self.r, self.cy + self.r)

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

    def coords(self) -> Iterator[tuple[float, float]]:
        yield (self.x, self.y)

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


@dataclass(frozen=True)
class LegendEntry:
    label: str
    color: str
    marker: str = "swatch"  # swatch | line | dash


class PlotDocument:
    """One chart: canvas, ordered primitives, legend entries."""

    def __init__(self, width: int = 960, height: int = 640):
        self.width = width
        self.height = height
        self.legend: list[LegendEntry] = []
        self._items: list[tuple[int, int, object]] = []

    def add(self, primitive, z: int = 0) -> None:
        for x, y in primitive.coords():
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(
                    f"non-finite coordinate in {type(primitive).__name__}"
                )
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
