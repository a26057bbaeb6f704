import itertools
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruviz.composites import composite_scores, reliability_report
from ruviz.model import Block, harmonize_and_normalize, ingest
from ruviz.multivariate import blockwise_pca, pca_fit, sd_od
from ruviz.ordering import hclust
from ruviz.pareto import composite_front, knee_point, pareto_set, rays_to_reference
from ruviz.profiles import origami_profiles
from ruviz.render import (
    BLOCK_COLOR,
    PALETTE,
    block_ramp,
    render_biplot,
    render_blockwise,
    render_composite_ru,
    render_dotplot,
    render_heatmap,
    render_origami,
    render_pcp,
    render_rays,
    render_sdod,
)
from ruviz.svg import Circle, Polygon, Polyline, Rect

from conftest import assert_in_bounds, batch_rows, columns, make_nm, svg_elements, title_of


@pytest.fixture(scope="module")
def study(study_config):
    from pathlib import Path

    csv = (Path(__file__).parent / "data" / "measures.csv").read_bytes()
    matrix = ingest(csv, study_config)
    nm = harmonize_and_normalize(matrix, False)
    scores = composite_scores(nm)
    candidate = ~nm.approaches.is_reference
    front = composite_front([l for l, c in zip(nm.labels, candidate) if c],
                            scores.utility[candidate], scores.risk[candidate])
    return nm, scores, front


def well_formed(doc) -> None:
    ET.fromstring(doc.to_svg())
    assert_in_bounds(doc)


def dotplot(nm):
    """The dot plot of `nm`, with no composite front."""
    return render_dotplot(nm, hclust(nm.values, "complete"), frozenset())


def texts(doc) -> list[str]:
    """The content of every text element the document writes, batched or not."""
    return [e.text or "" for e in svg_elements(doc, "text")]


def ramp_oracle(block: Block, t: float) -> str:
    """One colour with Python's `round` per channel (reference for the
    array form of `block_ramp`)."""
    t = min(max(t, 0.0), 1.0)
    end = BLOCK_COLOR[block]
    return "#" + "".join(
        f"{int(round(255 + t * (int(end[i:i + 2], 16) - 255))):02x}" for i in (1, 3, 5))


def _half_way_ts() -> list[float]:
    """Values of t at which a ramp channel is exactly half way between two
    integers, where rounding half to even decides."""
    ts = []
    for color in BLOCK_COLOR.values():
        for end in (int(color[i:i + 2], 16) for i in (1, 3, 5)):
            for k in range(end, 255):
                t = (k + 0.5 - 255) / (end - 255)
                if 255 + t * (end - 255) == k + 0.5:
                    ts.append(t)
    return ts


class TestBlockRamp:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.floats(-0.5, 1.5, allow_nan=False),
                              st.sampled_from(_half_way_ts())),
                    min_size=1, max_size=24))
    def test_array_equals_rounding_each_value(self, ts):
        for block in Block:
            expected = [ramp_oracle(block, t) for t in ts]
            assert block_ramp(block, np.array(ts)).tolist() == expected
            assert block_ramp(block, np.array(ts).reshape(-1, 1)).ravel().tolist() == expected
            assert [block_ramp(block, t) for t in ts] == expected


class TestHeatmap:
    def test_two_by_two_cells_and_ramp_endpoints(self):
        nm = make_nm(np.array([[0.0, 1.0], [1.0, 0.0]]), 1)
        dend = hclust(nm.values, "complete")
        doc = render_heatmap(nm, dend, frozenset())
        cells = [e for e in svg_elements(doc, "rect") if e.get("stroke") == "#ffffff"]
        assert len(cells) == 4
        fills = {c.get("fill") for c in cells}
        assert block_ramp(Block.RISK, 0.0) == "#ffffff"
        assert block_ramp(Block.RISK, 1.0) in fills  # full red
        assert block_ramp(Block.UTILITY, 1.0) in fills  # full blue
        assert "#ffffff" in fills  # value 0 on either ramp
        well_formed(doc)

    def test_pareto_asterisk_on_row_label(self):
        nm = make_nm(np.array([[0.1, 0.9], [0.6, 0.4]]), 1)
        dend = hclust(nm.values, "complete")
        doc = render_heatmap(nm, dend, frozenset({"a0"}))
        labels = texts(doc)
        assert any(t == "a0 *" for t in labels)
        assert all(t != "a1 *" for t in labels)

    def test_primitives_do_not_grow_with_the_rows(self):
        # each row's label and cells are rows of one batch
        counts = []
        for n in (2, 40):
            nm = make_nm(np.random.default_rng(n).random((n, 3)), 1)
            doc = render_heatmap(nm, hclust(nm.values, "complete"), frozenset())
            counts.append(len(doc.primitives()))
        assert counts[0] == counts[1]

    def test_byte_identical_rerender(self, study):
        nm, _, front = study
        dend = hclust(nm.values, "complete")
        a = render_heatmap(nm, dend, front.ids).to_svg()
        b = render_heatmap(nm, dend, front.ids).to_svg()
        assert a == b

    def test_rows_follow_leaf_order_and_completeness(self, study):
        nm, _, front = study
        dend = hclust(nm.values, "complete")
        doc = render_heatmap(nm, dend, front.ids)
        svg_texts = svg_elements(doc, "text")
        cell_values = [
            e.text for e in svg_texts
            if e.text.replace(".", "").isdigit() and len(e.text) == 4
        ]
        assert len(cell_values) == len(nm.labels) * len(nm.specs)
        row_titles = [title_of(e) for e in svg_texts if e.get("font-size") == "11.00"]
        assert row_titles == [nm.labels[i] for i in dend.leaf_order]
        well_formed(doc)


class TestDotplot:
    @staticmethod
    def _diamond_centers(doc):
        return [(v[0], (v[1] + v[5]) / 2) for v, _ in batch_rows(doc, Polygon)
                if len(v) == 8]

    @staticmethod
    def _dots(doc):
        """(cx, cy, measure id) of every titled dot."""
        return [(v[0], v[1], cols["title"]) for v, cols in batch_rows(doc, Circle)
                if cols.get("title") is not None]

    def test_median_marker_positions(self):
        # one approach; risk {0.5}: utility {0.1, 0.5, 0.9} -> median dot at 0.5
        nm = make_nm(np.array([[0.5, 0.1, 0.5, 0.9], [0.4, 0.2, 0.6, 0.8]]), 1)
        doc = dotplot(nm)
        well_formed(doc)
        centers = self._diamond_centers(doc)
        dots = self._dots(doc)
        assert len(centers) == 4  # 2 rows x 2 facets
        # utility facet of row a0: median x must equal the middle dot's x
        row0_y = min(cy for _, cy, _ in dots)
        row0_util = sorted(
            cx for cx, cy, title in dots
            if title in ("u0", "u1", "u2") and abs(cy - row0_y) < 1e-9
        )
        assert any(abs(cx - row0_util[1]) < 1e-9 for cx, _ in centers)

    def test_even_count_median_midpoint(self):
        nm = make_nm(np.array([[0.3, 0.2, 0.4], [0.7, 0.6, 0.8]]), 1)
        doc = dotplot(nm)
        centers = self._diamond_centers(doc)
        dots = [d for d in self._dots(doc) if d[2] in ("u0", "u1")]
        # first row utility dots at 0.2 and 0.4 -> diamond at their midpoint
        row_y = min(cy for _, cy, _ in dots)
        row_dots = sorted(cx for cx, cy, _ in dots if abs(cy - row_y) < 1e-9)
        mid = sum(row_dots) / 2
        assert any(abs(cx - mid) < 1e-9 for cx, _ in centers)

    def test_facet_assignment_matches_blocks(self, study):
        nm, _, _ = study
        doc = dotplot(nm)
        dots = self._dots(doc)
        risk_ids = {nm.specs[j].id for j in nm.block_indices(Block.RISK)}
        risk_x = [cx for cx, _, title in dots if title in risk_ids]
        util_x = [cx for cx, _, title in dots if title not in risk_ids]
        assert max(risk_x) < min(util_x)  # risk facet strictly left
        assert len(dots) == len(nm.labels) * len(nm.specs)

    @pytest.mark.parametrize("k, columns", [(14, 2), (15, 3), (30, 5)])
    def test_measure_legend_stays_on_the_canvas(self, k, columns):
        nm = make_nm(np.random.default_rng(52).random((12, 2 * k)), k)
        doc = dotplot(nm)
        well_formed(doc)
        legend = [e for e in svg_elements(doc, "text") if e.get("font-size") == "9.00"]
        assert sorted(e.text for e in legend) == sorted(s.id for s in nm.specs)
        risk_xs = {e.get("x") for e in legend if e.text.startswith("r")}
        assert len(risk_xs) == columns


class TestCompositeRu:
    def test_front_polyline_edge_labels_and_knee(self, study):
        nm, scores, front = study
        rel = reliability_report(nm)
        knee = knee_point(front)
        doc = render_composite_ru(scores, front, knee, rel,
                                  reference_labels=frozenset({"original"}))
        well_formed(doc)
        slopes = [t for t in texts(doc) if t.startswith("ΔR/ΔU=")]
        assert len(slopes) == len(front.slope) == len(front.labels) - 1
        polylines = [p for p in doc.primitives() if isinstance(p, Polyline)]
        assert any(len(p.points) == len(front.labels) for p in polylines)
        assert any("α=" in t for t in texts(doc))
        # knee diamond present
        assert any(isinstance(p, Polygon) and p.stroke == "#e08214"
                   for p in doc.primitives())

    def test_zero_sd_bars_omitted(self):
        vals = np.array([[0.2, 0.8], [0.5, 0.5], [0.9, 0.1]])
        nm = make_nm(vals, 1)  # single measure per block -> sd 0
        scores = composite_scores(nm)
        front = composite_front(*columns([("a0", 0.8, 0.2), ("a1", 0.5, 0.5)]))
        rel = reliability_report(nm)
        doc = render_composite_ru(scores, front, None, rel)
        bars = [e for e in svg_elements(doc, "line") if e.get("stroke") == "#bbbbbb"
                and e.get("stroke-width") == "1.00"]
        assert bars == []

    def test_every_approach_plotted_once(self, study):
        nm, scores, front = study
        rel = reliability_report(nm)
        doc = render_composite_ru(scores, front, None, rel,
                                  reference_labels=frozenset({"original"}))
        markers = [title_of(e) for e in svg_elements(doc, "circle")
                   + svg_elements(doc, "rect") if title_of(e)]
        assert sorted(markers) == sorted(nm.labels)


class TestRays:
    def test_undefined_slope_labeled_infinity(self):
        doc = render_rays(rays_to_reference(["p"], [1.0], [0.4], [0], ["orig"], [(1.0, 1.0)]))
        assert any("s=∞" in e.text for e in svg_elements(doc, "text"))
        well_formed(doc)

    def test_one_ray_per_approach(self, study):
        nm, scores, front = study
        is_ref = nm.approaches.is_reference
        points = [l for l, ref in zip(nm.labels, is_ref) if not ref]
        rays = rays_to_reference(points, scores.utility[~is_ref], scores.risk[~is_ref],
                                 [0] * len(points), ["original"],
                                 [(scores.utility[is_ref][0], scores.risk[is_ref][0])])
        doc = render_rays(rays, pareto_ids=front.ids)
        ray_lines = [e for e in svg_elements(doc, "line")
                     if e.get("stroke") == "#c8c8c8" and e.get("stroke-width") == "1.00"]
        assert len(ray_lines) == len(points)


def pcp_lines(doc, **style) -> list[tuple[list[float], dict]]:
    """(numbers, string fields) of each PCP line drawn with `style`: its risk
    facet's vertices, which the lead batch writes, then its utility facet's."""
    risk = batch_rows(doc, Polyline, lead=True, **style)
    util = batch_rows(doc, Polyline, **style)
    assert [strings for _, strings in risk] == [strings for _, strings in util]
    return [(r + u, strings) for (r, strings), (u, _) in zip(risk, util)]


class TestPcpRender:
    def test_counts_and_determinism(self, study):
        nm, _, front = study
        doc = render_pcp(nm, front.ids)
        well_formed(doc)
        lines = [e for e in svg_elements(doc, "polyline") if title_of(e) is not None]
        # one polyline per approach per facet
        assert len(lines) == 2 * len(nm.labels)
        assert render_pcp(nm, front.ids).to_svg() == doc.to_svg()

    def test_reference_dashed_pareto_colored(self, study):
        nm, _, front = study
        doc = render_pcp(nm, front.ids)
        polylines = svg_elements(doc, "polyline")
        ref_lines = [e for e in polylines if title_of(e) == "original"]
        assert len(ref_lines) == 2
        assert all(e.get("stroke-dasharray") for e in ref_lines)
        pareto_lines = [e for e in polylines if title_of(e) in front.ids]
        assert len(pareto_lines) == 2 * len(front.ids)
        assert all(e.get("stroke") != "#c4c4c4" for e in pareto_lines)

    def test_axes_in_declared_order_risk_first(self, study):
        nm, _, front = study
        axis_labels = [e for e in svg_elements(render_pcp(nm, front.ids), "text")
                       if e.get("transform")]
        assert [e.text for e in axis_labels] == [s.id for s in nm.specs]
        assert [s.block for s in nm.specs[:5]] == [Block.RISK] * 5
        xs = [float(e.get("x")) for e in axis_labels]
        assert xs == sorted(xs)

    def test_vertices_are_the_normalized_values(self):
        vals = np.random.default_rng(50).random((6, 5))
        doc = render_pcp(make_nm(vals, 2), frozenset())
        rows = pcp_lines(doc)
        assert [strings["title"] for _, strings in rows] == [f"a{i}" for i in range(6)]
        numbers = np.array([n for n, _ in rows])
        # the plot spans y = 520 (value 0) to 80 (value 1)
        np.testing.assert_array_equal(numbers[:, 1::2], 520 - vals * 440)
        assert (numbers[:, 0::2] == numbers[0, 0::2]).all()
        assert np.all(np.diff(numbers[0, 0::2]) > 0)

    def test_flags_and_single_axis_doubled(self):
        vals = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        doc = render_pcp(make_nm(vals, 1, reference_index=1), frozenset({"a0"}))
        pareto = pcp_lines(doc, stroke_width=2.2)
        reference = pcp_lines(doc, dash="6,3")
        assert [(s["title"], s["stroke"], s.get("dash")) for _, s in pareto] == [
            ("a0", PALETTE[0], None)]
        assert [(s["title"], s["stroke"]) for _, s in reference] == [("a1", "#000000")]
        assert pcp_lines(doc, stroke="#c4c4c4") == []
        for (numbers, _), row in zip(pareto + reference, vals):
            # the one risk axis is two vertices at the same x and value
            x0, y0, x1, y1, *util = numbers
            assert x0 == x1 and y0 == y1 == 520 - row[0] * 440
            assert util[1::2] == (520 - row[1:] * 440).tolist()

    @pytest.mark.parametrize("n_front", [6, 10, 11, 24])
    def test_legend_lists_what_fits(self, n_front):
        nm = make_nm(np.random.default_rng(51).random((30, 4)), 2)
        front = sorted(f"a{i}" for i in range(n_front))
        doc = render_pcp(nm, frozenset(front))
        well_formed(doc)
        legend = [e.text for e in svg_elements(doc, "text")
                  if e.get("font-size") == "10.00"]
        if n_front <= 10:
            listed = front
        else:
            listed = [*front[:9], f"+{n_front - 9} more on the front"]
        assert legend == [*listed, "reference (original)", "dominated"]

    @pytest.mark.parametrize("n_front", [6, 10, 11, 24])
    def test_front_lines_take_their_legend_colour(self, n_front):
        nm = make_nm(np.random.default_rng(51).random((30, 4)), 2)
        front = sorted(f"a{i}" for i in range(n_front))
        doc = render_pcp(nm, frozenset(front))
        # every legend entry is a 2-px line mark, then its label
        marks = [e.get("stroke") for e in svg_elements(doc, "line")
                 if e.get("stroke-width") == "2.00"]
        legend = [e.text for e in svg_elements(doc, "text")
                  if e.get("font-size") == "10.00"]
        assert len(marks) == len(legend)
        colour = dict(zip(legend, marks))
        front_marks = marks[:-2]  # less the reference and dominated entries
        assert len(set(front_marks)) == len(front_marks)
        more = colour.get(f"+{n_front - 9} more on the front")
        assert (more is None) == (n_front <= 10)
        strokes = {s["title"]: s["stroke"]
                   for _, s in batch_rows(doc, Polyline, stroke_width=2.2)}
        assert sorted(strokes) == front
        assert all(stroke == colour.get(lbl, more) for lbl, stroke in strokes.items())


class TestOrigamiRender:
    def test_panels_overlay_the_front_pairs(self, study):
        nm, _, front = study
        doc = render_origami(origami_profiles(nm, 0.1), front, nm.specs)
        well_formed(doc)
        outlines = [p.title for p in doc.primitives() if isinstance(p, Polygon)
                    and p.fill == "none" and p.title]
        pairs = list(itertools.combinations(front.labels, 2))[:6]
        assert len(front.labels) == 6 and len(pairs) == 6
        assert outlines == [pid for pair in pairs for pid in pair]
        assert [" vs ".join(pair) for pair in pairs] == [
            e.text for e in svg_elements(doc, "text") if e.get("font-weight") == "bold"][1:]

    def test_one_front_approach_fills_one_panel(self, study):
        nm, _, front = study
        one = composite_front(front.labels[:1], front.utility[:1], front.risk[:1])
        doc = render_origami(origami_profiles(nm, 0.1), one, nm.specs)
        well_formed(doc)
        outlines = [p.title for p in doc.primitives() if isinstance(p, Polygon)
                    and p.fill == "none" and p.title]
        assert outlines == [front.labels[0]]


class TestBiplotRender:
    def test_arrow_count_equals_measures(self, study):
        nm, scores, front = study
        model = pca_fit(nm.values, 2)
        doc = render_biplot(model, nm.specs, nm.labels, front.ids,
                            frozenset({"original"}))
        well_formed(doc)
        heads = [p for p in doc.primitives() if isinstance(p, Polygon)
                 and len(p.points) == 3]
        assert len(heads) == len(nm.specs)
        markers = [title_of(e) for e in svg_elements(doc, "circle")
                   + [r for r in svg_elements(doc, "rect") if r.get("width") == "9.00"]
                   if title_of(e)]
        assert sorted(markers) == sorted(nm.labels)


class TestSdodRender:
    def test_cutoff_line_at_sd_cut(self, study):
        nm, _, _ = study
        model = pca_fit(nm.values, 2)
        diag = sd_od(model, nm.values, "hubert", nm.labels)
        doc = render_sdod(diag)
        well_formed(doc)
        assert any(t.startswith("SD cutoff=2.716") for t in texts(doc))
        dots = [e for e in svg_elements(doc, "circle") if title_of(e)]
        assert len(dots) == len(nm.labels)


class TestBlockwiseRender:
    def test_contribution_labels_follow_5pct_rule(self):
        from ruviz.multivariate import BlockAxis, BlockwisePca

        def axis(block, ids, contributions):
            contributions = np.asarray(contributions, dtype=float)
            return BlockAxis(
                block=block,
                measure_ids=ids,
                loadings=np.sqrt(contributions),
                contributions=contributions,
                scores=np.linspace(-1.0, 1.0, 5),
                explained_variance_ratio=0.9,
                fallback=False,
            )

        bw = BlockwisePca(
            utility=axis(Block.UTILITY, ("u0", "u1"), [0.5, 0.5]),
            risk=axis(Block.RISK, ("r0", "r1", "r2"), [0.04, 0.05, 0.91]),
        )
        doc = render_blockwise(bw, tuple(f"a{i}" for i in range(5)))
        well_formed(doc)
        labels = [t for t in texts(doc) if t.endswith("%")]
        assert any(t.startswith("r1") for t in labels)  # 5% labeled
        assert any(t.startswith("r2") for t in labels)  # 91% labeled
        assert not any(t.startswith("r0") for t in labels)  # 4% unlabeled

    def test_negative_loading_red_edge(self):
        base = np.linspace(0, 1, 12)
        vals = np.column_stack([base, 1 - base, base, base * 0.5 + 0.2])
        nm = make_nm(vals, 2)
        bw = blockwise_pca(nm)
        assert (bw.risk.loadings < 0).any()  # anti-correlated pair
        doc = render_blockwise(bw, nm.labels)
        bars = [p for p in doc.primitives() if isinstance(p, Rect)
                and p.stroke in ("#000000", "#b2182b") and p.title]
        assert any(b.stroke == "#b2182b" for b in bars)
        assert any(b.stroke == "#000000" for b in bars)
