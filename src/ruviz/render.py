"""Chart builders: turn analysis results into PlotDocument objects.

Layout is fixed (960x640 canvas, 12pt sans labels) and every builder is a
pure function of its inputs. Styling follows a small shared palette: risk
uses a white-to-red ramp, utility white-to-blue, highlighted approaches a
saturated blue, the reference black.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .composites import CompositeScores, ReliabilityReport
from .geometry import ellipse_points
from .model import Block, MeasureSpec, NormalizedMatrix
from .multivariate import (
    AcceptancePolygon,
    BlockwisePca,
    GroupSummary,
    OutlierFlag,
    PcaModel,
    SdOdDiagnostics,
    median,
)
from .ordering import Dendrogram
from .pareto import CompositeFront, KneePoint, Rays
from .profiles import RadialProfiles
from .svg import (
    Batch,
    Circle,
    Line,
    PlotDocument,
    Polygon,
    Polyline,
    Rect,
    Text,
)

RISK_COLOR = "#b2182b"
UTILITY_COLOR = "#2166ac"
PARETO_COLOR = "#2166ac"
NEUTRAL_COLOR = "#9a9a9a"
REFERENCE_COLOR = "#000000"
KNEE_COLOR = "#e08214"
BLOCK_COLOR = {Block.RISK: RISK_COLOR, Block.UTILITY: UTILITY_COLOR}
PALETTE = ("#2166ac", "#1b7837", "#e08214", "#762a83", "#b2182b", "#35978f",
           "#8c510a", "#c51b7d", "#4393c3", "#5f5f5f")
FLAG_COLORS = {
    OutlierFlag.REGULAR: "#808080",
    OutlierFlag.GOOD_LEVERAGE: "#2166ac",
    OutlierFlag.ORTHOGONAL: "#e08214",
    OutlierFlag.BAD_LEVERAGE: "#b2182b",
}
UNIT_TICKS = (0.0, 0.25, 0.5, 0.75, 1.0)
# the dot plot's row band lies between these margins
DOT_TOP, DOT_BOTTOM = 70, 150
# the per-row views draw at most the rows that a 12 px pitch (an 11 px label
# and a pixel) fits in the dot plot's 420 px band: 35
ROW_BUDGET = (PlotDocument.height - DOT_TOP - DOT_BOTTOM) // 12


@dataclass(frozen=True)
class LegendEntry:
    label: str
    color: str
    marker: str = "swatch"  # swatch | line | dash


# legend entries for the markers that `_approaches` draws
APPROACH_LEGEND = (
    LegendEntry("composite Pareto-optimal", PARETO_COLOR),
    LegendEntry("other approaches", NEUTRAL_COLOR),
    LegendEntry("reference (original)", REFERENCE_COLOR),
)


def _rgb(color: str) -> tuple[int, int, int]:
    return int(color[1:3], 16), int(color[3:5], 16), int(color[5:7], 16)


# the ramp ends, parsed once instead of at every call
WHITE_RGB = np.array(_rgb("#ffffff"))
BLOCK_RGB = {block: np.array(_rgb(color)) for block, color in BLOCK_COLOR.items()}


def block_ramp(block: Block, t):
    """White at t = 0 to the block's colour at t = 1, t clamped to [0, 1].

    A number gives one colour, an array an array of colours of its shape.
    Each channel rounds half to even, as Python's `round` does.
    """
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)[..., None]
    rgb = np.rint(WHITE_RGB + t * (BLOCK_RGB[block] - WHITE_RGB)).astype(int)
    colors = [f"#{c:06x}" for c in (rgb @ (65536, 256, 1)).ravel().tolist()]
    if t.ndim == 1:  # a number
        return colors[0]
    return np.array(colors, dtype="<U7").reshape(t.shape[:-1])


def _short(s: str, n: int = 16) -> str:
    return s if len(s) <= n else s[: n - 1] + "…"


@dataclass(frozen=True)
class Frame:
    """Affine map from data space to a canvas rectangle (y axis flipped)."""

    x0: float
    y0: float
    w: float
    h: float
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def sx(self, v: float) -> float:
        return self.x0 + (v - self.xmin) / (self.xmax - self.xmin) * self.w

    def sy(self, v: float) -> float:
        return self.y0 + self.h - (v - self.ymin) / (self.ymax - self.ymin) * self.h


def _document(title: str) -> PlotDocument:
    """An empty chart with its title drawn."""
    doc = PlotDocument()
    doc.add(Text(doc.width / 2, 24, title, size=14, anchor="middle", weight="bold"))
    return doc


def _axes(
    doc: PlotDocument,
    fr: Frame,
    xlabel: str,
    ylabel: str,
    xticks: Sequence[float],
    yticks: Sequence[float],
) -> None:
    doc.add(Line(fr.x0, fr.y0, fr.x0, fr.y0 + fr.h, stroke="#333333"))
    doc.add(Line(fr.x0, fr.y0 + fr.h, fr.x0 + fr.w, fr.y0 + fr.h, stroke="#333333"))
    for t in xticks:
        x = fr.sx(t)
        doc.add(Line(x, fr.y0 + fr.h, x, fr.y0 + fr.h + 4, stroke="#333333"))
        doc.add(Text(x, fr.y0 + fr.h + 16, f"{t:g}", size=10, anchor="middle"))
    for t in yticks:
        y = fr.sy(t)
        doc.add(Line(fr.x0 - 4, y, fr.x0, y, stroke="#333333"))
        doc.add(Text(fr.x0 - 7, y + 3, f"{t:g}", size=10, anchor="end"))
    doc.add(
        Text(fr.x0 + fr.w / 2, fr.y0 + fr.h + 34, xlabel, size=12, anchor="middle")
    )
    doc.add(
        Text(
            fr.x0 - 48,
            fr.y0 + fr.h / 2,
            ylabel,
            size=12,
            anchor="middle",
            rotate=-90.0,
        )
    )


def _composite_axes(doc: PlotDocument, right: float) -> Frame:
    """Unit-square composite utility (x) vs risk (y) frame, drawn with axes."""
    fr = Frame(x0=90, y0=60, w=doc.width - 90 - right, h=doc.height - 60 - 90,
               xmin=-0.02, xmax=1.02, ymin=-0.02, ymax=1.02)
    _axes(doc, fr, "composite utility", "composite risk", UNIT_TICKS, UNIT_TICKS)
    return fr


def _legend(doc: PlotDocument, entries: Sequence[LegendEntry], x: float, y: float,
            cols: int = 1, col_w: float = 0, width: int = 28) -> None:
    """Draw `entries` from (x, y) in `cols` columns `col_w` apart."""
    for i, entry in enumerate(entries):
        xx = x + (i % cols) * col_w
        yy = y + (i // cols) * 16
        if entry.marker in ("line", "dash"):
            doc.add(Line(xx, yy - 4, xx + 14, yy - 4, stroke=entry.color,
                         stroke_width=2.0,
                         dash="4,3" if entry.marker == "dash" else None))
        elif entry.marker == "swatch":
            doc.add(Rect(xx, yy - 9, 10, 10, fill=entry.color, stroke="#666666",
                         stroke_width=0.5))
        doc.add(Text(xx + 18, yy, _short(entry.label, width), size=10))


def _point_labels(doc: PlotDocument, x: np.ndarray, y: np.ndarray,
                  labels: Sequence[str], marked: Sequence[bool],
                  color: str = "#333333") -> None:
    """Each label right of its point, or left of it where it would run past
    the canvas edge. Past `ROW_BUDGET` points only the `marked` ones are
    labelled."""
    if len(labels) > ROW_BUDGET:
        at = np.flatnonzero(marked)
        x, y, labels = x[at], y[at], [labels[i] for i in at]
    left = x + 6 + 5.5 * np.array([len(s) for s in labels]) > doc.width - 4
    doc.add(Batch(Text, np.column_stack([np.where(left, x - 6, x + 6),
                                         np.maximum(y - 5, 10.0)]),
                  size=9.0, fill=color, anchor=np.where(left, "end", "start"),
                  content=labels))


def _approaches(doc: PlotDocument, x: np.ndarray, y: np.ndarray,
                labels: Sequence[str], pareto_ids: frozenset[str],
                reference_labels: frozenset[str], z: int) -> None:
    """Each approach's marker at layer `z`, then the point labels: a square
    for a reference, a circle for the others, larger when Pareto-optimal."""
    is_reference = [label in reference_labels for label in labels]
    pareto = np.array([label in pareto_ids for label in labels], dtype=bool)
    runs = itertools.groupby(range(len(labels)), is_reference.__getitem__)
    for reference, run in runs:
        at = list(run)
        titles = [labels[i] for i in at]
        if reference:
            doc.add(Batch(Rect, np.column_stack(np.broadcast_arrays(
                x[at] - 4.5, y[at] - 4.5, 9.0, 9.0)), fill=REFERENCE_COLOR,
                title=titles), z=z)
        else:
            radius = np.where(pareto[at], 5.0, 4.0)
            doc.add(Batch(Circle, np.column_stack([x[at], y[at], radius]),
                          fill=np.where(pareto[at], PARETO_COLOR, NEUTRAL_COLOR),
                          title=titles), z=z)
    _point_labels(doc, x, y, [_short(label, 14) for label in labels],
                  pareto | is_reference)


@dataclass(frozen=True, eq=False)
class Rows:
    """The rows a per-row view draws, top to bottom: each a band of study
    rows, one row drawn as itself or several drawn as their column means."""

    members: tuple[np.ndarray, ...]  # each band's study rows
    values: np.ndarray  # each band's normalized values (a mean over its rows)
    labels: list[str]  # a row's short label, or a band's size and front count
    titles: list[str]  # a row's label, or a band's first and last labels
    starred: list[bool]  # a one-row band on the composite front


def _bands(dendrogram: Dendrogram, is_reference: np.ndarray) -> list[np.ndarray]:
    """The finest cut of `dendrogram` into runs of its leaf order that
    leaves at most `ROW_BUDGET` runs, each reference a run of its own (so a
    study with more references than that has more runs)."""
    leaves = np.array(dendrogram.leaf_order)
    n = len(leaves)
    ref = is_reference[leaves]
    # each cluster's first position in leaf order
    start = [0] * (2 * n - 1)
    for pos, leaf in enumerate(leaves.tolist()):
        start[leaf] = pos
    pairs = list(zip(dendrogram.left.tolist(), dendrogram.right.tolist()))
    for t, (a, b) in enumerate(pairs, n):
        start[t] = min(start[a], start[b])
    # undoing a merge, the highest first, cuts where its second child starts;
    # a cut next to a reference adds no run
    cut = np.array([max(start[a], start[b]) for a, b in reversed(pairs)], dtype=np.intp)
    adds = ~ref[cut] & ~ref[cut - 1]
    uncut = np.count_nonzero(ref) + np.count_nonzero(~ref & np.r_[True, ref[:-1]])
    taken = np.searchsorted(uncut + np.cumsum(adds), ROW_BUDGET, side="right")
    around = np.flatnonzero(ref)[:, None] + (0, 1)
    at = np.union1d(cut[:taken], around)
    return np.split(leaves, at[(at > 0) & (at < n)])


def per_row(nm: NormalizedMatrix, dendrogram: Dendrogram, pareto_ids: frozenset[str],
            order: Sequence[int]) -> Rows:
    """Each study row in `order`, up to `ROW_BUDGET` rows; past it, the bands
    of `_bands`, in dendrogram leaf order."""
    labels = nm.labels
    members = ([np.array([i]) for i in order] if len(labels) <= ROW_BUDGET
               else _bands(dendrogram, nm.approaches.is_reference))
    texts, titles, starred = [], [], []
    for rows in map(np.ndarray.tolist, members):
        first, last = labels[rows[0]], labels[rows[-1]]
        one = len(rows) == 1
        front = sum(labels[i] in pareto_ids for i in rows)
        texts.append(_short(first, 20) if one else f"{len(rows)} rows, {front} on front")
        titles.append(first if one else f"{first} … {last}")
        starred.append(one and front == 1)
    values = np.array([nm.values[rows].mean(axis=0) for rows in members])
    return Rows(tuple(members), values, texts, titles, starred)


def _banded(title: str, n: int) -> str:
    """A per-row view's title, which past the budget says what a band shows."""
    return title if n <= ROW_BUDGET else f"{title} ({n} rows; a band shows their means)"


def render_heatmap(
    nm: NormalizedMatrix,
    dendrogram: Dendrogram,
    pareto_ids: frozenset[str],
    column_order: Sequence[int] | None = None,
) -> PlotDocument:
    """Approaches x measures grid, rows in dendrogram leaf order, banded past
    `ROW_BUDGET` rows (see `per_row`).

    Asterisks on row labels mark approaches in the composite Pareto set.
    `column_order` optionally permutes the measure columns (the declared
    order is kept by default).
    """
    doc = _document(_banded("normalized measures by approach", len(nm.labels)))
    drawn = per_row(nm, dendrogram, pareto_ids, dendrogram.leaf_order)
    n = len(drawn.labels)
    p = len(nm.specs)
    columns = list(column_order) if column_order is not None else list(range(p))
    left, top, right, bottom = 160, 96, 30, 88
    grid_w = doc.width - left - right
    grid_h = doc.height - top - bottom
    cell_w = grid_w / p
    cell_h = grid_h / n

    for cidx, col in enumerate(columns):
        spec = nm.specs[col]
        cx = left + (cidx + 0.5) * cell_w
        doc.add(
            Text(cx - 4, top - 10, _short(spec.id, 14), size=10, anchor="start",
                 rotate=-30.0, fill="#222222", title=spec.display_name)
        )
    grid = drawn.values[:, columns]
    fills = np.empty(grid.shape, dtype="<U7")
    for block in Block:
        at = [cidx for cidx, col in enumerate(columns) if nm.specs[col].block is block]
        fills[:, at] = block_ramp(block, grid[:, at])
    x = left + np.arange(p) * cell_w
    y = top + np.arange(n) * cell_h
    cells = np.stack(np.broadcast_arrays(x, y[:, None], cell_w, cell_h), axis=-1)
    # each row's label, then its cells
    labels = Batch(Text, np.column_stack(np.broadcast_arrays(
        left - 8.0, top + (np.arange(n) + 0.5) * cell_h + 4)), size=11,
        anchor="end", title=drawn.titles,
        content=[t + (" *" if s else "") for t, s in zip(drawn.labels, drawn.starred)])
    doc.add(Batch(Rect, cells.reshape(-1, 4), fill=fills.ravel(), stroke="#ffffff",
                  stroke_width=1.0, lead=labels))
    centers = np.broadcast_arrays(x + cell_w / 2, (y + cell_h / 2 + 3)[:, None])
    doc.add(Batch(Text, np.stack(centers, axis=-1).reshape(-1, 2), size=9,
                  anchor="middle",
                  fill=np.where(grid > 0.55, "#ffffff", "#222222").ravel(),
                  content=[f"{v:.2f}" for v in grid.ravel().tolist()]), z=1)

    ly = doc.height - 46
    for block, text_x, ramp_x in ((Block.RISK, 0, 70), (Block.UTILITY, 190, 270)):
        doc.add(Text(left + text_x, ly - 10, f"{block.value} 0 to 1", size=10))
        for i in range(6):
            doc.add(Rect(left + ramp_x + i * 14, ly - 19, 14, 11,
                         fill=block_ramp(block, i / 5)))
    doc.add(Text(left + 400, ly - 10,
                 "* composite Pareto-optimal   rows ordered by "
                 f"{dendrogram.linkage}-linkage clustering", size=10,
                 fill="#444444"))
    return doc


def render_dotplot(nm: NormalizedMatrix, dendrogram: Dendrogram,
                   pareto_ids: frozenset[str]) -> PlotDocument:
    """Per-approach dots on a shared [0, 1] axis, one facet per block, rows
    in input order; past `ROW_BUDGET` rows, the bands of `per_row`."""
    doc = _document(_banded("measure values by approach", len(nm.labels)))
    drawn = per_row(nm, dendrogram, pareto_ids, range(len(nm.labels)))
    n = len(drawn.labels)
    left, top, gap = 150, DOT_TOP, 50
    facet_w = (doc.width - left - 30 - gap) / 2
    plot_h = doc.height - top - DOT_BOTTOM
    band = plot_h / n

    facets = ((Block.RISK, left), (Block.UTILITY, left + facet_w + gap))
    cy = top + (np.arange(n) + 0.5) * band
    ramps = {}
    for block, fx in facets:
        color = BLOCK_COLOR[block]
        idx = nm.block_indices(block)
        k = len(idx)
        block_values = drawn.values[:, list(idx)]
        mx = fx + median(block_values, axis=1) * facet_w
        # one colour per measure position, shared by the rows and the legend
        ramps[block] = block_ramp(block, 0.35 + 0.65 * ((np.arange(k) + 1) / (k + 1)))
        doc.add(Text(fx + facet_w / 2, top - 12, block.value, size=12,
                     anchor="middle", fill=color, weight="bold"))
        doc.add(Line(fx, top + plot_h, fx + facet_w, top + plot_h,
                     stroke="#333333"))
        for t in (0.0, 0.5, 1.0):
            x = fx + t * facet_w
            doc.add(Line(x, top + plot_h, x, top + plot_h + 4, stroke="#333333"))
            doc.add(Text(x, top + plot_h + 16, f"{t:g}", size=10, anchor="middle"))
        doc.add(Batch(Line, np.column_stack(np.broadcast_arrays(
            fx, cy, fx + facet_w, cy)), stroke="#eeeeee"))
        doc.add(Batch(Line, np.column_stack([
            mx, cy - band * 0.32, mx, cy + band * 0.32]), stroke="#888888",
            stroke_width=1.2), z=1)
        doc.add(Batch(Polygon, np.column_stack([
            mx, cy - 5.0, mx + 5.0, cy, mx, cy + 5.0, mx - 5.0, cy]),
            fill="#888888", stroke="#444444", stroke_width=0.8), z=2)
        dots = np.broadcast_arrays(fx + block_values * facet_w, cy[:, None], 4.5)
        doc.add(Batch(Circle, np.stack(dots, axis=-1).reshape(-1, 3),
                      fill=np.tile(ramps[block], n), stroke="#555555",
                      stroke_width=0.6, opacity=0.9,
                      title=[nm.specs[j].id for j in idx] * n), z=3)
    doc.add(Batch(Text, np.column_stack(np.broadcast_arrays(left - 10, cy + 4)),
                  size=11, anchor="end", content=drawn.labels, title=drawn.titles))

    ly = doc.height - 104
    doc.add(Text(left, ly - 6, "diamond = per-approach median", size=10,
                 fill="#444444"))
    for block, fx in facets:
        idx = nm.block_indices(block)
        cols = max(2, math.ceil(len(idx) / 7))  # 7 rows of 14 px fit
        for pos, j in enumerate(idx):
            col = pos % cols
            rowp = pos // cols
            x = fx + col * (facet_w / cols)
            y = ly + 12 + rowp * 14
            doc.add(Circle(x + 5, y - 3, 4.0, fill=ramps[block][pos],
                           stroke="#555555", stroke_width=0.6))
            doc.add(Text(x + 14, y, _short(nm.specs[j].id, 14), size=9))
    return doc


def _slope_text(slope: float) -> str:
    return "∞" if math.isnan(slope) else f"{slope:.2f}"


def render_composite_ru(
    scores: CompositeScores,
    front: CompositeFront,
    knee: KneePoint | None,
    reliability: ReliabilityReport,
    reference_labels: frozenset[str] = frozenset(),
) -> PlotDocument:
    """Composite risk vs utility map with the Pareto front and knee marked."""
    doc = _document("composite risk-utility map")
    fr = _composite_axes(doc, right=260)

    u, r, su, sr = scores.utility, scores.risk, scores.utility_sd, scores.risk_sd
    x, y = fr.sx(u), fr.sy(r)
    # each approach's horizontal and vertical SD bar, drawn where the SD is > 0
    bars = np.stack([
        np.column_stack([fr.sx(np.maximum(u - su, fr.xmin)), y,
                         fr.sx(np.minimum(u + su, fr.xmax)), y]),
        np.column_stack([x, fr.sy(np.maximum(r - sr, fr.ymin)),
                         x, fr.sy(np.minimum(r + sr, fr.ymax))]),
    ], axis=1)
    doc.add(Batch(Line, bars[np.column_stack([su > 0.0, sr > 0.0])],
                  stroke="#bbbbbb", stroke_width=1.0))

    fu, fv = front.utility, front.risk
    if len(front.labels) >= 2:
        doc.add(Polyline(points=tuple(zip(fr.sx(fu).tolist(), fr.sy(fv).tolist())),
                         fill="none", stroke=PARETO_COLOR, stroke_width=2.0), z=1)
    for mx, my, slope in zip(fr.sx((fu[:-1] + fu[1:]) / 2).tolist(),
                             fr.sy((fv[:-1] + fv[1:]) / 2).tolist(), front.slope.tolist()):
        doc.add(Text(mx + 4, my + 10, f"ΔR/ΔU={_slope_text(slope)}",
                     size=9, fill="#555555"), z=2)

    _approaches(doc, x, y, scores.labels, front.ids, reference_labels, z=3)
    if knee is not None and knee.id in scores.labels:
        i = scores.labels.index(knee.id)
        kx, ky = float(x[i]), float(y[i])
        doc.add(Polygon(points=((kx, ky - 9.0), (kx + 9.0, ky), (kx, ky + 9.0),
                                (kx - 9.0, ky)),
                        fill="none", stroke=KNEE_COLOR, stroke_width=2.5), z=4)

    ax = doc.width - 240
    doc.add(Text(ax, 70, "composite reliability", size=11, weight="bold"))
    for i, (name, rel) in enumerate(
        (("risk", reliability.risk), ("utility", reliability.utility))
    ):
        omega = "n/a" if rel.omega is None else f"{rel.omega:.2f}"
        doc.add(Text(ax, 88 + i * 15,
                     f"{name}: α={rel.alpha:.2f} ω={omega} ({rel.verdict})",
                     size=10, fill="#333333"))
    _legend(doc, [
        LegendEntry("composite Pareto-optimal", PARETO_COLOR),
        LegendEntry("dominated", NEUTRAL_COLOR),
        LegendEntry("reference (original)", REFERENCE_COLOR),
        LegendEntry("knee point", KNEE_COLOR, marker="line"),
        LegendEntry("± SD across measures", "#bbbbbb", marker="line"),
    ], ax, 140)
    return doc


def render_rays(rays: Rays, pareto_ids: frozenset[str] = frozenset()) -> PlotDocument:
    """Rays from every approach to its reference, labeled with slope and L2;
    a multi-dataset study has one reference per dataset."""
    doc = _document("marginal trade-off against the reference")
    fr = _composite_axes(doc, right=240)
    start = np.column_stack([fr.sx(rays.utility), fr.sy(rays.risk)])
    refs = np.column_stack([fr.sx(rays.origin[:, 0]), fr.sy(rays.origin[:, 1])])
    end = refs[rays.reference]
    doc.add(Batch(Line, np.hstack([start, end]), stroke="#c8c8c8", stroke_width=1.0))
    doc.add(Batch(Text, (start + end) / 2 + (3, -3), size=8, fill="#666666",
                  content=[f"s={_slope_text(s)} d={d:.2f}"
                           for s, d in zip(rays.slope.tolist(), rays.l2.tolist())]), z=1)
    pareto = np.array([i in pareto_ids for i in rays.ids], dtype=bool)
    doc.add(Batch(Circle, np.column_stack([start, np.full(len(rays.ids), 4.5)]),
                  fill=np.where(pareto, PARETO_COLOR, NEUTRAL_COLOR),
                  title=list(rays.ids)), z=2)
    _point_labels(doc, start[:, 0], start[:, 1], [_short(i, 14) for i in rays.ids],
                  pareto)
    doc.add(Batch(Rect, np.column_stack([refs - 5, np.full(refs.shape, 10.0)]),
                  fill=REFERENCE_COLOR, title=list(rays.reference_labels)), z=3)
    _point_labels(doc, refs[:, 0], refs[:, 1],
                  [_short(l, 14) for l in rays.reference_labels],
                  np.ones(len(refs), dtype=bool), color="#000000")
    _legend(doc, [
        *APPROACH_LEGEND,
        LegendEntry("s = risk change per utility", "#c8c8c8", marker="line"),
    ], doc.width - 225, 70)
    return doc


def render_pcp(nm: NormalizedMatrix, pareto_ids: frozenset[str]) -> PlotDocument:
    """Parallel coordinates with risk and utility in separate facets: axes in
    declared measure order, one polyline per approach and facet."""
    doc = _document("parallel coordinates")
    left, right, top, bottom, gap = 80, 40, 80, 120, 70
    plot_h = doc.height - top - bottom

    risk_idx = nm.block_indices(Block.RISK)
    util_idx = nm.block_indices(Block.UTILITY)
    usable_w = doc.width - left - right - gap
    risk_w = usable_w * len(risk_idx) / len(nm.specs)
    util_w = usable_w - risk_w

    def axis_positions(n_axes: int, x0: float, w: float) -> list[float]:
        if n_axes == 1:
            return [x0 + w / 2]
        return [x0 + w * i / (n_axes - 1) for i in range(n_axes)]

    facets = ((risk_idx, axis_positions(len(risk_idx), left, risk_w)),
              (util_idx, axis_positions(len(util_idx), left + risk_w + gap, util_w)))

    doc.add(Text(left + risk_w / 2, top - 26, "risk (high = more risk)",
                 size=12, anchor="middle", fill=RISK_COLOR, weight="bold"))
    doc.add(Text(left + risk_w + gap + util_w / 2, top - 26,
                 "utility (high = more utility)", size=12, anchor="middle",
                 fill=UTILITY_COLOR, weight="bold"))
    for idx, xs in facets:
        for j, x in zip(idx, xs):
            doc.add(Line(x, top, x, top + plot_h, stroke="#bbbbbb",
                         stroke_width=1.0, dash="2,3"))
            doc.add(Text(x, top - 8, "1", size=8, anchor="middle",
                         fill="#888888"))
            doc.add(Text(x, top + plot_h + 12, "0", size=8, anchor="middle",
                         fill="#888888"))
            doc.add(Text(x + 3, top + plot_h + 26, _short(nm.specs[j].id, 12),
                         size=9, anchor="end", rotate=-30.0))

    def vertices(idx: tuple[int, ...], xs: list[float]) -> np.ndarray:
        """Each line's (x, y) on the facet's axes, a single axis doubled."""
        if len(idx) == 1:
            idx, xs = idx * 2, xs * 2
        ys = top + plot_h - nm.values[:, list(idx)] * plot_h
        return np.stack(np.broadcast_arrays(np.array(xs), ys),
                        axis=-1).reshape(len(nm.labels), -1)

    risk_points, util_points = (vertices(idx, xs) for idx, xs in facets)
    labels = nm.labels
    pareto_labels = sorted(l for l in labels if l in pareto_ids)
    # the lines a full legend cannot list share its last colour
    color_of = {lbl: PALETTE[min(i, 9)] for i, lbl in enumerate(pareto_labels)}
    layer = np.where(nm.approaches.is_reference, 2,
                     np.where([l in pareto_ids for l in labels], 3, 1))
    for z, style in ((1, dict(stroke="#c4c4c4", stroke_width=1.2)),
                     (2, dict(stroke=REFERENCE_COLOR, stroke_width=1.8, dash="6,3")),
                     (3, dict(stroke_width=2.2))):
        at = np.flatnonzero(layer == z)
        if not at.size:  # a lead needs rows; an empty layer draws nothing
            continue
        ids = [labels[i] for i in at]
        if z == 3:
            style["stroke"] = [color_of[i] for i in ids]
        # each line's risk facet, then its utility facet
        lines = dict(fill="none", title=ids, **style)
        doc.add(Batch(Polyline, util_points[at],
                      lead=Batch(Polyline, risk_points[at], **lines), **lines), z=z)

    listed = [LegendEntry(lbl, color_of[lbl], marker="line") for lbl in pareto_labels]
    if len(listed) > 10:  # 3 rows of 4 entries fit: the first 9 and a count
        listed[9:] = [LegendEntry(f"+{len(listed) - 9} more on the front",
                                  PALETTE[9], marker="line")]
    _legend(doc, [*listed,
                  LegendEntry("reference (original)", REFERENCE_COLOR, marker="dash"),
                  LegendEntry("dominated", "#c4c4c4", marker="line")],
            left, doc.height - 40, cols=4, col_w=210, width=24)
    return doc


def render_origami(profiles: RadialProfiles, front: CompositeFront,
                   specs: Sequence[MeasureSpec]) -> PlotDocument:
    """Radial profile panels that overlay the front's approaches: its first
    six pairs, or its one approach."""
    labels = front.labels
    panels = list(itertools.islice(itertools.combinations(labels, 2), 6)) or [labels]
    row_of = {pid: i for i, pid in enumerate(profiles.ids)}
    block_by_measure = {s.id: s.block for s in specs}

    doc = _document("radial measure profiles")
    n_panels = len(panels)
    cols = min(3, n_panels)
    rows = math.ceil(n_panels / cols)
    top, bottom = 60, 30
    cell_w = (doc.width - 40) / cols
    cell_h = (doc.height - top - bottom) / rows

    for pidx, panel in enumerate(panels):
        cx = 20 + (pidx % cols) * cell_w + cell_w / 2
        cy = top + (pidx // cols) * cell_h + cell_h / 2 + 8
        radius = min(cell_w, cell_h) / 2 - 44
        doc.add(Text(cx, cy - radius - 26, _short(" vs ".join(panel), 34),
                     size=11, anchor="middle", weight="bold"))
        ring = tuple((cx + radius * math.cos(ang), cy - radius * math.sin(ang))
                     for ang in profiles.angles)
        doc.add(Polygon(points=ring, fill="none", stroke="#dddddd",
                        stroke_width=1.0, dash="2,3"))
        for mid, ang in zip(profiles.measure_ids, profiles.angles[0::2]):
            ex = cx + radius * math.cos(ang)
            ey = cy - radius * math.sin(ang)
            doc.add(Line(cx, cy, ex, ey, stroke="#e5e5e5", stroke_width=1.0))
            lx = cx + (radius + 10) * math.cos(ang)
            lyy = cy - (radius + 10) * math.sin(ang)
            anchor = "middle"
            if math.cos(ang) > 0.25:
                anchor = "start"
            elif math.cos(ang) < -0.25:
                anchor = "end"
            doc.add(Text(lx, lyy + 3, _short(mid, 12), size=8, anchor=anchor,
                         fill=BLOCK_COLOR[block_by_measure[mid]]))
        for sidx, pid in enumerate(panel):
            pts = tuple(
                (cx + float(x) * radius, cy - float(y) * radius)
                for x, y in profiles.vertices[row_of[pid]]
            )
            color = PALETTE[sidx % len(PALETTE)]
            doc.add(Polygon(points=pts, fill=color, opacity=0.25, title=pid), z=1)
            doc.add(Polygon(points=pts, fill="none", stroke=color,
                            stroke_width=2.0, title=pid), z=2)
            doc.add(Text(cx - radius, cy + radius + 26 + sidx * 12, pid, size=9,
                         fill=color))
    return doc


def _arrow(doc: PlotDocument, x0: float, y0: float, x1: float, y1: float,
           color: str, title: str) -> None:
    doc.add(Line(x0, y0, x1, y1, stroke=color, stroke_width=1.6))
    ang = math.atan2(y1 - y0, x1 - x0)
    size = 7.0
    left = (x1 - size * math.cos(ang - 0.42), y1 - size * math.sin(ang - 0.42))
    right = (x1 - size * math.cos(ang + 0.42), y1 - size * math.sin(ang + 0.42))
    doc.add(Polygon(points=((x1, y1), left, right), fill=color, title=title))


def render_biplot(
    model: PcaModel,
    specs: Sequence[MeasureSpec],
    labels: Sequence[str],
    pareto_ids: frozenset[str] = frozenset(),
    reference_labels: frozenset[str] = frozenset(),
    acceptance: AcceptancePolygon | None = None,
    groups: Sequence[GroupSummary] | None = None,
) -> PlotDocument:
    """Joint-PCA biplot: approach scores plus measure loading arrows."""
    doc = _document("joint PCA biplot")
    scores = model.scores[:, :2]
    span = max(float(np.abs(scores).max()), 1e-9)
    load2 = model.loadings[:, :2]
    # the loading columns are orthonormal, so some row has a norm > 0
    arrow_scale = 0.75 * span / float(np.linalg.norm(load2, axis=1).max())
    lim = 1.25 * span
    extents = [np.abs(load2 * arrow_scale).max()]
    if acceptance is not None and len(acceptance.vertices):
        extents.append(float(np.abs(acceptance.vertices).max()))
    groups = groups or ()
    outlines = [
        ellipse_points(g.centroid, g.ellipse_axes[0], g.ellipse_axes[1])
        if g.ellipse_axes is not None else g.hull
        for g in groups
    ]
    for pts in outlines:
        if pts is not None and len(pts):
            extents.append(float(np.abs(pts).max()))
    lim = max([lim] + [1.12 * e for e in extents])

    side = min(doc.width - 330, doc.height - 150)
    fr = Frame(x0=90, y0=60, w=side, h=side, xmin=-lim, xmax=lim, ymin=-lim,
               ymax=lim)
    evr = model.explained_variance_ratio
    ticks = (round(-lim * 0.8, 2), 0.0, round(lim * 0.8, 2))
    _axes(doc, fr,
          f"PC1 ({evr[0] * 100:.1f}% of variance)",
          f"PC2 ({evr[1] * 100:.1f}% of variance)",
          ticks, ticks)
    doc.add(Line(fr.sx(-lim), fr.sy(0), fr.sx(lim), fr.sy(0), stroke="#e0e0e0"))
    doc.add(Line(fr.sx(0), fr.sy(-lim), fr.sx(0), fr.sy(lim), stroke="#e0e0e0"))

    if acceptance is not None and len(acceptance.vertices) >= 2:
        pts = tuple((fr.sx(float(x)), fr.sy(float(y)))
                    for x, y in acceptance.vertices)
        doc.add(Polygon(points=pts, fill="#4d9221", opacity=0.08), z=1)
        doc.add(Polygon(points=pts, fill="none", stroke="#4d9221",
                        stroke_width=1.5, dash="6,3",
                        title="acceptance region"), z=1)

    for gidx, (g, outline) in enumerate(zip(groups, outlines)):
        color = PALETTE[gidx % len(PALETTE)]
        if outline is not None and len(outline) >= 2:
            doc.add(Polygon(points=tuple((fr.sx(float(x)), fr.sy(float(y)))
                                         for x, y in outline),
                            fill="none", stroke=color, stroke_width=1.2,
                            dash="3,3", title=g.label), z=1)
        cxp, cyp = fr.sx(float(g.centroid[0])), fr.sy(float(g.centroid[1]))
        doc.add(Line(cxp - 5, cyp, cxp + 5, cyp, stroke=color,
                     stroke_width=1.5), z=2)
        doc.add(Line(cxp, cyp - 5, cxp, cyp + 5, stroke=color,
                     stroke_width=1.5), z=2)

    for spec, lrow in zip(specs, load2):
        color = BLOCK_COLOR[spec.block]
        tipx = fr.sx(float(lrow[0]) * arrow_scale)
        tipy = fr.sy(float(lrow[1]) * arrow_scale)
        _arrow(doc, fr.sx(0), fr.sy(0), tipx, tipy, color, spec.id)
        doc.add(Text(min(max(tipx + 4, 12.0), doc.width - 12.0),
                     max(tipy - 4, 12.0), _short(spec.id, 12), size=9,
                     fill=color), z=3)

    _approaches(doc, fr.sx(scores[:, 0]), fr.sy(scores[:, 1]), labels, pareto_ids,
                reference_labels, z=4)

    legend = [
        *APPROACH_LEGEND,
        LegendEntry("risk loading", RISK_COLOR, marker="line"),
        LegendEntry("utility loading", UTILITY_COLOR, marker="line"),
    ]
    if acceptance is not None:
        legend.append(LegendEntry("acceptance region", "#4d9221", marker="dash"))
    if groups:
        legend.append(LegendEntry("dataset summary", "#666666", marker="dash"))
    _legend(doc, legend, doc.width - 230, 70)
    return doc


def render_sdod(diag: SdOdDiagnostics) -> PlotDocument:
    """Score-distance vs orthogonal-distance outlier map with cutoffs."""
    doc = _document("PCA outlier map")
    sd_max = max(float(diag.sd.max()), diag.sd_cutoff) * 1.15  # the cutoff is > 0
    # with 2 measures a 2-component model leaves every OD at 0
    od_max = max(float(diag.od.max()), diag.od_cutoff)
    od_max = od_max * 1.15 if od_max > 0 else 1.0
    fr = Frame(x0=90, y0=60, w=doc.width - 90 - 250, h=doc.height - 60 - 90,
               xmin=0.0, xmax=sd_max, ymin=0.0, ymax=od_max)
    _axes(doc, fr, f"score distance (k={diag.components_used})",
          "orthogonal distance",
          tuple(round(sd_max * f, 2) for f in UNIT_TICKS),
          tuple(round(od_max * f, 2) for f in UNIT_TICKS))

    xcut = fr.sx(diag.sd_cutoff)
    doc.add(Line(xcut, fr.y0, xcut, fr.y0 + fr.h, stroke="#555555",
                 stroke_width=1.2, dash="6,4"))
    doc.add(Text(min(xcut + 4, doc.width - 160.0), fr.y0 + 14,
                 f"SD cutoff={diag.sd_cutoff:.3f}", size=9, fill="#555555"))
    ycut = fr.sy(diag.od_cutoff)
    doc.add(Line(fr.x0, ycut, fr.x0 + fr.w, ycut, stroke="#555555",
                 stroke_width=1.2, dash="6,4"))
    doc.add(Text(fr.x0 + 6, max(ycut - 6, 12.0),
                 f"OD cutoff={diag.od_cutoff:.3f} ({diag.mode})", size=9,
                 fill="#555555"))

    x, y = fr.sx(diag.sd), fr.sy(diag.od)
    doc.add(Batch(Circle, np.column_stack(np.broadcast_arrays(x, y, 5.0)),
                  fill=[FLAG_COLORS[flag] for flag in diag.flags], stroke="#333333",
                  stroke_width=0.6, title=diag.labels), z=2)
    _point_labels(doc, x, y, [_short(label, 14) for label in diag.labels],
                  [flag is not OutlierFlag.REGULAR for flag in diag.flags])

    _legend(doc, [LegendEntry(flag.value.replace("_", " "), color)
                  for flag, color in FLAG_COLORS.items()], doc.width - 235, 70)
    return doc


def _stacked_bar_h(doc, bw_axis, x0, y0, w, h) -> None:
    acc = x0
    k = len(bw_axis.measure_ids)
    for i, mid in enumerate(bw_axis.measure_ids):
        seg_w = float(bw_axis.contributions[i]) * w
        sign_color = "#000000" if float(bw_axis.loadings[i]) >= 0 else RISK_COLOR
        doc.add(Rect(acc, y0, seg_w, h,
                     fill=block_ramp(bw_axis.block, 0.3 + 0.6 * (i + 1) / (k + 1)),
                     stroke=sign_color, stroke_width=1.4, title=mid))
        if bw_axis.contributions[i] >= 0.05:
            doc.add(Text(acc + seg_w / 2, y0 + h / 2 + 3,
                         f"{mid} {bw_axis.contributions[i] * 100:.0f}%",
                         size=8, anchor="middle"), z=1)
        acc += seg_w


def _stacked_bar_v(doc, bw_axis, x0, y0, w, h) -> None:
    acc = y0 + h
    k = len(bw_axis.measure_ids)
    for i, mid in enumerate(bw_axis.measure_ids):
        seg = float(bw_axis.contributions[i]) * h
        sign_color = "#000000" if float(bw_axis.loadings[i]) >= 0 else RISK_COLOR
        doc.add(Rect(x0, acc - seg, w, seg,
                     fill=block_ramp(bw_axis.block, 0.3 + 0.6 * (i + 1) / (k + 1)),
                     stroke=sign_color, stroke_width=1.4, title=mid))
        if bw_axis.contributions[i] >= 0.05:
            doc.add(Text(x0 + w / 2 + 3, acc - seg / 2,
                         f"{mid} {bw_axis.contributions[i] * 100:.0f}%",
                         size=8, anchor="middle", rotate=-90.0), z=1)
        acc -= seg


def render_blockwise(
    bw: BlockwisePca,
    labels: Sequence[str],
    pareto_ids: frozenset[str] = frozenset(),
    reference_labels: frozenset[str] = frozenset(),
) -> PlotDocument:
    """Utility-PC1 vs risk-PC1 scatter with contribution bars per axis."""
    doc = _document("blockwise PCA map")
    ux = np.asarray(bw.utility.scores, dtype=float)
    ry = np.asarray(bw.risk.scores, dtype=float)

    def padded(v: np.ndarray) -> tuple[float, float]:
        lo, hi = float(v.min()), float(v.max())
        pad = (hi - lo) * 0.12 if hi > lo else 0.5
        return lo - pad, hi + pad

    xmin, xmax = padded(ux)
    ymin, ymax = padded(ry)
    fr = Frame(x0=170, y0=60, w=doc.width - 170 - 250, h=doc.height - 60 - 160,
               xmin=xmin, xmax=xmax, ymin=ymin, ymax=ymax)

    def axis_name(axis) -> str:
        if axis.fallback:
            return f"{axis.block.value} (single measure)"
        return (f"{axis.block.value} PC1 "
                f"({axis.explained_variance_ratio * 100:.1f}% of block variance)")

    _axes(doc, fr, axis_name(bw.utility), axis_name(bw.risk),
          tuple(round(xmin + (xmax - xmin) * f, 2) for f in (0.0, 0.5, 1.0)),
          tuple(round(ymin + (ymax - ymin) * f, 2) for f in (0.0, 0.5, 1.0)))

    _approaches(doc, fr.sx(ux), fr.sy(ry), labels, pareto_ids, reference_labels, z=2)

    _stacked_bar_h(doc, bw.utility, fr.x0, doc.height - 84, fr.w, 24)
    doc.add(Text(fr.x0, doc.height - 92, "utility PC1 contributions "
                 "(squared loadings, edge red = negative loading)", size=9,
                 fill="#444444"))
    _stacked_bar_v(doc, bw.risk, 66, fr.y0, 24, fr.h)
    doc.add(Text(66, fr.y0 - 8, "risk PC1", size=9, fill="#444444"))

    _legend(doc, APPROACH_LEGEND, doc.width - 235, 70)
    return doc
