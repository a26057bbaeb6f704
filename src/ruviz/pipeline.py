"""End-to-end study runner: analysis, JSON artifacts, SVG rendering, manifest.

A `StudyResult` computes each analysis product of a measure matrix and a
configuration the first time it is read; `run_study` computes them all, and
`write_report` serializes them to an output directory with a manifest of
content hashes. All outputs are deterministic for fixed inputs and seed;
the seed only picks the direction pairs of a robust PCA fit on more than
50 rows.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import warnings
from enum import Enum
from json.encoder import encode_basestring
from pathlib import Path
from types import MappingProxyType
from typing import Any

import numpy as np

from . import __about__
from .composites import CompositeScores, ReliabilityReport, composite_scores, reliability_report
from .config import StudyConfig
from .errors import AnalysisError, ValidationError
from .model import Block, MeasureMatrix, NormalizedMatrix, harmonize_and_normalize
from .multivariate import (
    AcceptancePolygon,
    AlignmentReport,
    BlockwisePca,
    PcaModel,
    SdOdDiagnostics,
    alignment,
    blockwise_pca,
    group_summaries,
    orient,
    pca_fit,
    project_acceptance_region,
    robust_pca,
    sd_od,
)
from .ordering import Dendrogram, hclust
from .pareto import (
    ParetoResult,
    composite_front,
    knee_point,
    pareto_set,
    rays_to_reference,
)
from .profiles import AreaTable, RadialProfiles, origami_profiles, ranked_areas
from .render import (
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
from .svg import PlotDocument


def _stage(compute):
    """A product computed on first read; its own warnings are kept by name.

    A stage that reads another product computes that stage inside its own
    `catch_warnings` block, which keeps the inner warnings and restores the
    outer block on exit.
    """

    @functools.wraps(compute)
    def run(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = compute(self)
        self._warnings[compute.__name__] = tuple(str(w.message) for w in caught)
        return value

    return functools.cached_property(run)


class StudyResult:
    """Every analysis product of one study, each computed on first read.

    The products are defined below in the order `run_study` computes them,
    which is also the order of `warnings`. The matrix and the config check
    their own fields; a result checks that the two agree, and its stages
    raise `AnalysisError` where a study cannot give a product.
    """

    def __init__(self, matrix: MeasureMatrix, config: StudyConfig) -> None:
        # the same measures, in any order: a matrix built in code may keep
        # the declared order, where `ingest` puts the risk block first
        if differ := set(matrix.specs) ^ set(config.measures):
            raise ValidationError(f"matrix: measure(s) {sorted({s.id for s in differ})} "
                                  "differ from the config's declarations")
        a = matrix.approaches
        for label, i, flag in zip(a.labels, a.ids, a.is_reference.tolist()):
            if (i == config.reference_id) != flag:
                raise ValidationError(f"matrix: the reference flag of row '{label}' "
                                      f"disagrees with config.reference '{config.reference_id}'")
        self.config = config
        self.matrix = matrix
        self._warnings: dict[str, tuple[str, ...]] = {}

    @property
    def warnings(self) -> tuple[str, ...]:
        """The warnings of the stages computed so far, in stage order."""
        return tuple(w for name in STAGES for w in self._warnings.get(name, ()))

    @property
    def reference_labels(self) -> frozenset[str]:
        return frozenset(itertools.compress(self.nm.labels, self.nm.approaches.is_reference))

    @property
    def _fit_mask(self) -> np.ndarray:
        return ~(self.nm.approaches.is_reference & self.config.options.pca_exclude_reference)

    @property
    def pca_labels(self) -> tuple[str, ...]:
        return tuple(itertools.compress(self.nm.labels, self._fit_mask))

    @_stage
    def nm(self) -> NormalizedMatrix:
        return harmonize_and_normalize(
            self.matrix,
            exclude_reference_from_range=self.config.options.exclude_reference_from_range,
        )

    @_stage
    def scores(self) -> CompositeScores:
        return composite_scores(self.nm)

    @_stage
    def reliability(self) -> ReliabilityReport:
        return reliability_report(self.nm)

    @_stage
    def pareto(self) -> ParetoResult:
        a = self.nm.approaches
        labels = np.array(a.labels, dtype=object)
        points = np.column_stack([self.scores.utility, self.scores.risk])
        front = composite_front(labels[~a.is_reference], *points[~a.is_reference].T)
        # each candidate is measured against its own dataset's reference, the
        # k-th in row order (k = -1 for none), and the rays are grouped by k
        refs = np.flatnonzero(a.is_reference)
        ref_of = np.full(len(a.dataset_names), -1)
        ref_of[a.dataset_index[refs]] = np.arange(len(refs))
        k = ref_of[a.dataset_index]
        rows = np.flatnonzero(~a.is_reference & (k >= 0))
        rows = rows[np.argsort(k[rows], kind="stable")]
        rays = rays_to_reference(labels[rows], *points[rows].T, k[rows], labels[refs], points[refs])
        return ParetoResult(dominance=pareto_set(self.nm), front=front,
                            knee=knee_point(front), rays=rays)

    @_stage
    def dendrogram(self) -> Dendrogram:
        return hclust(self.nm.values, linkage=self.config.options.linkage)

    @_stage
    def column_order(self) -> tuple[int, ...] | None:
        if not self.config.options.cluster_columns:
            return None
        # cluster measures within each block; blocks keep their
        # risk-then-utility order
        nm = self.nm
        column_order = []
        for block in (Block.RISK, Block.UTILITY):
            idx = list(nm.block_indices(block))
            if len(idx) < 2:
                column_order.extend(idx)
                continue
            sub = hclust(nm.values[:, idx].T, linkage=self.config.options.linkage)
            column_order.extend(idx[i] for i in sub.leaf_order)
        return tuple(column_order)

    @_stage
    def pca(self) -> PcaModel:
        fit = self._fit_mask
        fit_values = self.nm.values[fit]
        n_fit = len(fit_values)
        if n_fit < 4:  # p >= 2 always: a matrix has a risk and a utility measure
            raise AnalysisError(
                f"the joint PCA pipeline needs at least 4 fitted rows (got {n_fit} rows)"
            )
        model = pca_fit(fit_values, k=2)
        if model.k < 2:
            raise AnalysisError(
                "joint PCA found only one usable component; the biplot and "
                "diagnostics need rank >= 2 data"
            )
        if not self.config.options.orient:
            return model
        return orient(model, self.scores.utility[fit], self.scores.risk[fit])

    @_stage
    def align(self) -> AlignmentReport:
        fit = self._fit_mask
        return alignment(self.pca, self.scores.utility[fit], self.scores.risk[fit])

    @_stage
    def diagnostics(self) -> SdOdDiagnostics:
        opts = self.config.options
        # the joint fit's row and rank checks hold for the robust model too
        diag_model = self.pca
        fit_values = self.nm.values[self._fit_mask]
        if opts.robust:
            diag_model = robust_pca(fit_values, k=2, seed=opts.seed)
        return sd_od(diag_model, fit_values, od_cut_mode=opts.od_cut_mode,
                     labels=self.pca_labels)

    @_stage
    def blockwise(self) -> BlockwisePca:
        return blockwise_pca(self.nm)

    @_stage
    def profiles(self) -> RadialProfiles | None:
        if len(self.nm.specs) >= 3:
            return origami_profiles(self.nm, r_aux=self.config.options.r_aux)
        warnings.warn(
            "radial profiles skipped: they need at least 3 measures",
            UserWarning,
        )
        return None

    @_stage
    def areas(self) -> AreaTable:
        if self.profiles is None:
            return AreaTable(ids=(), areas=np.empty(0))
        return ranked_areas(self.profiles)

    @_stage
    def groups(self) -> tuple | None:
        datasets = list(itertools.compress(self.nm.approaches.datasets, self._fit_mask))
        if len(set(datasets)) < 2:
            return None
        return group_summaries(self.pca.scores[:, :2], [d or "" for d in datasets])

    @_stage
    def acceptance(self) -> AcceptancePolygon | None:
        thresholds = self.config.options.thresholds
        if thresholds is None:
            return None
        return project_acceptance_region(self.pca, self.nm.specs, thresholds)


STAGES = tuple(name for name, attr in vars(StudyResult).items()
               if isinstance(attr, functools.cached_property))


def _compute_all(result: StudyResult) -> None:
    for name in STAGES:
        getattr(result, name)


def run_study(matrix: MeasureMatrix, config: StudyConfig) -> StudyResult:
    """Run the full analysis pipeline over an ingested measure matrix."""
    result = StudyResult(matrix, config)
    _compute_all(result)
    return result


@functools.cache
def _field_names(cls: type, drop: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls) if f.name not in drop)


class _Table:
    """Records as equal-length columns by key, each a list of values or an
    array whose first axis runs over the records, written as its records."""

    def __init__(self, /, **columns):
        self.columns = columns
        if len({len(column) for column in columns.values()}) > 1:
            raise ValueError("table columns differ in length")

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))


def _fields(obj: Any, *drop: str, **extra: Any) -> dict:
    """Dataclass `obj` as a document: its fields under their own names, less
    `drop`, plus the keys of `extra`."""
    return {name: getattr(obj, name) for name in _field_names(type(obj), drop)} | extra


def normalized_json(result: StudyResult) -> dict:
    nm, dend, a = result.nm, result.dendrogram, result.nm.approaches
    return {
        "approaches": _Table(id=a.ids, dataset=a.datasets, is_reference=a.is_reference,
                             label=a.labels),
        "measures": nm.specs,
        "values": nm.values,
        "scales": {s.id: _fields(sc) for s, sc in zip(nm.specs, nm.scales)},
        "row_order": {"leaf_order": dend.leaf_order, "linkage": dend.linkage,
                      "merges": _Table(left=dend.left, right=dend.right,
                                       height=dend.height, size=dend.size)},
        "column_order": (
            None if result.column_order is None
            else [nm.specs[j].id for j in result.column_order]
        ),
        "warnings": list(result.warnings),
    }


def pareto_json(result: StudyResult) -> dict:
    pr = result.pareto
    dom, front, rays = pr.dominance, pr.front, pr.rays
    return {
        "pareto_full": sorted(dom.pareto_ids),
        "pareto_composite": sorted(front.ids),
        "front": _Table(id=list(front.labels), utility=front.utility, risk=front.risk),
        "knee": None if pr.knee is None else pr.knee.id,
        "knee_distance": None if pr.knee is None else pr.knee.distance,
        "knee_concave": None if pr.knee is None else pr.knee.concave,
        "edges": _Table(**{"from": list(front.labels[:-1]), "to": list(front.labels[1:])},
                        d_utility=front.d_utility, d_risk=front.d_risk, slope=front.slope),
        "rays": _Table(id=list(rays.ids), utility=rays.utility, risk=rays.risk,
                       slope=rays.slope, l2=rays.l2, slope_defined=~np.isnan(rays.slope)),
        "reference": rays.reference_labels[0] if rays.reference_labels else None,
        "dominance": _fields(dom, "matrix", "pareto_ids", matrix=dom.matrix.view(np.uint8)),
    }


def composite_json(result: StudyResult) -> dict:
    sc = result.scores
    return {
        "scores": _Table(id=list(sc.labels), **{
            name: getattr(sc, name) for name in _field_names(type(sc), ("labels",))}),
        "reliability": _fields(result.reliability),
    }


def pca_json(result: StudyResult) -> dict:
    model = result.pca
    diag = result.diagnostics
    align = result.align
    opts = result.config.options
    bw = result.blockwise
    doc = {
        "labels": list(result.pca_labels),
        "model": _fields(model, "scores", k=model.k),
        "scores": model.scores,
        "alignment": _fields(align, "collinear", collinear_composites=align.collinear,
                             includes_reference=not opts.pca_exclude_reference),
        "sd_od": _fields(diag, "labels", "sd", "od", "flags", robust=opts.robust,
                         rows=_Table(id=list(diag.labels), sd=diag.sd, od=diag.od,
                                     flag=diag.flags)),
        # each axis sits under its block's name
        "blockwise": {
            axis.block.value: _fields(axis, "block", "fallback",
                                      fallback_single_measure=axis.fallback)
            for axis in (bw.utility, bw.risk)
        },
    }
    if result.acceptance is not None:
        doc["acceptance_polygon"] = _fields(result.acceptance)
    if result.groups is not None:
        doc["groups"] = [_fields(g, kind=g.kind) for g in result.groups]
    return doc


def profiles_json(result: StudyResult) -> dict:
    p, areas = result.profiles, result.areas
    return {
        "r_aux": result.config.options.r_aux,
        "axis_order": [s.id for s in result.nm.specs],
        "profiles": [] if p is None else _Table(
            id=list(p.ids), angles=np.broadcast_to(p.angles, p.radii.shape),
            radii=p.radii, vertices=p.vertices, area_raw=p.area_raw,
            area_normalized=p.area_normalized),
        "areas": _Table(id=list(areas.ids), area=areas.areas,
                        display=[f"{a:.2f}" for a in areas.areas.tolist()]),
        "caveat": areas.caveat,
    }


# the JSON artifacts by name; each builder reads only the products it prints
JSON_BUILDERS = {
    "normalized": normalized_json,
    "pareto": pareto_json,
    "composite": composite_json,
    "pca": pca_json,
    "profiles": profiles_json,
}


def artifact_jsons(result: StudyResult) -> dict[str, dict]:
    return {name: build(result) for name, build in JSON_BUILDERS.items()}


def _render_origami_figure(result: StudyResult) -> PlotDocument:
    if result.profiles is None:
        raise AnalysisError(
            "the origami figure needs at least 3 measures; declare more "
            "measures or use the other views"
        )
    if not result.pareto.front.labels:
        raise AnalysisError("origami plot unavailable: no candidate rows")
    return render_origami(result.profiles, result.pareto.front, result.nm.specs)


def render_rays_plot(result: StudyResult) -> PlotDocument:
    if not result.pareto.rays.ids:
        raise AnalysisError("rays plot unavailable: no candidate rows")
    return render_rays(result.pareto.rays, pareto_ids=result.pareto.front.ids)


# the figures by artifact name, in the order `render_all` builds them; each
# builder reads only the products it draws
FIGURE_BUILDERS = {
    "heatmap": lambda r: render_heatmap(r.nm, r.dendrogram, r.pareto.front.ids,
                                        column_order=r.column_order),
    "dotplot": lambda r: render_dotplot(r.nm, r.dendrogram, r.pareto.front.ids),
    "composite_ru": lambda r: render_composite_ru(
        r.scores, r.pareto.front, r.pareto.knee, r.reliability,
        reference_labels=r.reference_labels),
    "rays": render_rays_plot,
    "pcp": lambda r: render_pcp(r.nm, r.pareto.front.ids),
    "origami": _render_origami_figure,
    "biplot": lambda r: render_biplot(
        r.pca, r.nm.specs, r.pca_labels, pareto_ids=r.pareto.front.ids,
        reference_labels=r.reference_labels, acceptance=r.acceptance, groups=r.groups),
    "sdod": lambda r: render_sdod(r.diagnostics),
    "blockwise": lambda r: render_blockwise(
        r.blockwise, r.nm.labels, pareto_ids=r.pareto.front.ids,
        reference_labels=r.reference_labels),
}

# the report's figures: every one but the rays, which `ruviz plot` draws on request
SVG_ARTIFACTS = tuple(name for name in FIGURE_BUILDERS if name != "rays")


def render_all(result: StudyResult) -> dict[str, PlotDocument]:
    """The eight report figures, keyed by artifact name (rays on request)."""
    return {name: FIGURE_BUILDERS[name](result) for name in SVG_ARTIFACTS}


def render_plot(result: StudyResult, kind: str) -> PlotDocument:
    """One figure by artifact name, including the optional rays view."""
    if kind not in FIGURE_BUILDERS:
        raise ValidationError(
            f"unknown plot kind '{kind}'; expected one of {sorted(FIGURE_BUILDERS)}")
    return FIGURE_BUILDERS[kind](result)


# the JSON text of each scalar type, by exact type (a subclass such as an enum
# or a numpy float64 takes `_pieces`' other branches); NaN and infinity as null
_TEXT = {str: encode_basestring, int: repr, type(None): lambda _: "null",
         float: lambda x: repr(x) if math.isfinite(x) else "null",
         bool: {True: "true", False: "false"}.__getitem__}
# the C encoder, used for one scalar at a time
_encode_scalar = json.JSONEncoder(ensure_ascii=False, allow_nan=False).encode
# about how many fields, or plain items of a list, one piece of a sequence holds
_BLOCK = 1 << 10
# about how many characters are encoded, hashed and written at a time
_CHUNK = 1 << 16


def _json_pieces(doc: Any):
    """`doc` in the layout of `json.dumps(indent=2, sort_keys=True,
    ensure_ascii=False) + "\\n"`, byte for byte, as an iterator of text
    pieces. Each value is written as it stands: a dataclass as the dict of
    its fields, an enum as its value, a numpy scalar or a 0-d array as its
    item, a tuple or an array as a list, a table as its records, and every
    NaN or infinity as null.

    With `indent` set, the stdlib encodes in pure Python, one call per
    element. Here a plain scalar is one lookup in `_TEXT`, a block of cells
    of a sequence is one `%` into copies of its cell template (`_sequence`),
    and every other scalar goes through the C encoder. No container's text
    is built whole or copied into its parent's but a container in a table
    column, and nothing is kept between calls. A key that is not a `str`
    raises `TypeError` (the stdlib converts number, bool and None keys).
    """
    return itertools.chain(_pieces(doc, "\n"), ("\n",))


def _pieces(value: Any, newline: str):
    """The pieces of one value in the indented layout; `newline` ends at the
    value's own indent. A dict's plain entries share one piece; each other
    entry's value gives its own pieces after its `"key": ` prefix."""
    text = _TEXT.get(type(value))
    if text is not None:
        yield text(value)
    elif isinstance(value, (dict, MappingProxyType)):
        if not value:
            yield "{}"
            return
        inner = newline + "  "
        sep, run = "{" + inner, ""
        for key, item in sorted(value.items()):
            text = _TEXT.get(type(item))
            if text is None and isinstance(item, Enum):
                item = item.value
                text = _TEXT.get(type(item))
            if text is None:
                yield f"{run}{sep}{encode_basestring(key)}: "
                yield from _pieces(item, inner)
                run = ""
            else:
                run += f"{sep}{encode_basestring(key)}: {text(item)}"
            sep = "," + inner
        yield run + newline + "}"
    elif isinstance(value, np.ndarray) and not value.ndim:
        yield from _pieces(value.item(), newline)
    elif isinstance(value, (list, tuple, np.ndarray, _Table)):
        yield from _sequence(value, newline) if len(value) else ("[]",)
    elif isinstance(value, Enum):
        yield from _pieces(value.value, newline)
    elif dataclasses.is_dataclass(value):
        yield from _pieces(_fields(value), newline)
    elif isinstance(value, (np.floating, np.integer)) and value.itemsize <= 8:
        yield from _pieces(value.item(), newline)
    else:
        yield _encode_scalar(value)


def _sequence(cells, newline: str):
    """The pieces of a non-empty list, tuple, array or table.

    A table or an array is written a block of about `_BLOCK` fields or
    `_CHUNK` characters of template per piece, with one `%` into copies of
    the cell template of `_slots`. A list or a tuple, or an array whose
    cells are lists, is written item by item: plain items share a piece of
    up to `_BLOCK` of them, and every other item gives its own pieces.
    """
    inner = newline + "  "
    comma = "," + inner
    # only the cells of a wider or an object array can be containers
    if isinstance(cells, np.ndarray) and (cells.ndim > 1 or cells.dtype.kind == "O") \
            and not _finite_numbers(cells):
        cells = cells.tolist()
    if isinstance(cells, (list, tuple)):
        run, sep = "", "[" + inner
        for i, cell in enumerate(cells, 1):
            text = _TEXT.get(type(cell))
            if text is None:
                yield run + sep
                yield from _pieces(cell, inner)
                run = ""
            else:
                run += sep + text(cell)
                if not i % _BLOCK:
                    yield run
                    run = ""
            sep = comma
        yield run + newline + "]"
        return
    template, width, fields = _slots(cells, inner)
    n = len(cells)
    per = max(1, min(_BLOCK // max(1, width), _CHUNK // len(template)))
    block, sep = comma.join([template] * min(per, n)), "[" + inner
    for a in range(0, n, per):
        if n - a < per:
            block = comma.join([template] * (n - a))
        text = block % tuple(fields(a, min(a + per, n)))
        yield sep + text + newline + "]" if a + per >= n else sep + text
        sep = comma


def _finite_numbers(cells) -> bool:
    """Whether `cells` is an int or finite float array of items at most 8
    bytes wide, each of which `tolist` makes an int or a float."""
    return (isinstance(cells, np.ndarray) and cells.dtype.kind in "fiu"
            and cells.itemsize <= 8
            and (cells.dtype.kind != "f" or bool(np.isfinite(cells).all())))


def _layout(shape: tuple[int, ...], newline: str, items) -> str:
    """Nested lists of `shape` in the indented layout, texts taken from `items`."""
    if not shape:
        return next(items)
    inner = newline + "  "
    cells = [_layout(shape[1:], inner, items) for _ in range(shape[0])]
    return "[" + inner + ("," + inner).join(cells) + newline + "]" if cells else "[]"


def _slots(cells, newline: str):
    """The template of each of the n > 0 `cells` of a sequence, at the
    indent `newline`; its number of `%s` fields; and `fields(a, b)`, the
    field values of cells a to b, cell after cell.

    A finite number array's cell is its nested layout, whose fields are its
    numbers in row-major order, converted a block at a time. Where all n
    cells of a 2-d or wider array have the same bits at one place (so 0.0
    and -0.0 stay apart), the repr of that number is baked into the
    template instead. A table's cell
    is its record, whose fields are its columns' fields in key order,
    interleaved once per record. Any other cell is one field, its JSON
    text, and a container cell is written whole.
    """
    if type(cells) is _Table:
        inner = newline + "  "
        parts, columns, width = [], [], 0
        for key in sorted(cells.columns):
            template, w, fields = _slots(cells.columns[key], inner)
            parts.append(encode_basestring(key).replace("%", "%%") + ": " + template)
            if w:
                columns.append((w, fields))
                width += w

        def records(a: int, b: int) -> list:
            out, at = [None] * (width * (b - a)), 0
            for w, fields in columns:
                values = fields(a, b)
                for j in range(w):
                    out[at + j::width] = values[j::w]
                at += w
            return out

        template = "{" + inner + ("," + inner).join(parts) + newline + "}"
        return template, width, records
    if _finite_numbers(cells):
        flat, keep, items = cells.reshape(len(cells), -1), slice(None), itertools.repeat("%s")
        if cells.ndim > 1:
            bits = flat.view(f"u{flat.itemsize}") if flat.dtype.kind == "f" else flat
            same = (bits == bits[0]).all(axis=0)
            if same.any():
                keep = np.flatnonzero(~same)
                items = iter([repr(x) if s else "%s"
                              for x, s in zip(flat[0].tolist(), same.tolist())])
        return (_layout(cells.shape[1:], newline, items), len(flat[0, keep]),
                lambda a, b: flat[a:b, keep].ravel().tolist())
    texts = []
    for cell in cells.tolist() if isinstance(cells, np.ndarray) else cells:
        text = _TEXT.get(type(cell))
        if text is None and isinstance(cell, Enum):
            cell = cell.value
            text = _TEXT.get(type(cell))
        texts.append("".join(_pieces(cell, newline)) if text is None else text(cell))
    return "%s", 1, lambda a, b: texts[a:b]


def _chunks(pieces):
    """`pieces` joined into texts of about `_CHUNK` characters or more."""
    held, size = [], 0
    for piece in pieces:
        held.append(piece)
        size += len(piece)
        if size >= _CHUNK:
            yield "".join(held)
            held, size = [], 0
    if held:
        yield "".join(held)


@contextlib.contextmanager
def _staging(directory: Path):
    """Write files into `directory` under temporary names, and rename them
    all into place when the block ends, in the order they were written.

    Gives `stage(name, pieces)`, which writes the UTF-8 text of `pieces` to
    a new temporary file for `name` through a running SHA-256, a chunk at a
    time, and returns its digest and byte count. The files are written in
    binary mode with mode 0o666 less the umask. If the block or a rename
    raises, every temporary file still there is removed.
    """
    temps: dict[str, str] = {}  # name -> temporary path

    def stage(name: str, pieces) -> tuple[str, int]:
        tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}")
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
        fd = os.open(tmp, flags, 0o666)
        temps[name] = tmp
        digest, size = hashlib.sha256(), 0
        with os.fdopen(fd, "wb") as fh:
            for text in _chunks(pieces):
                data = text.encode("utf-8")
                digest.update(data)
                fh.write(data)
                size += len(data)
        return digest.hexdigest(), size

    try:
        yield stage
        for name, tmp in list(temps.items()):
            os.replace(tmp, os.path.join(directory, name))
            del temps[name]
    except BaseException:
        for tmp in temps.values():
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise


def _atomic_write(path: Path, pieces) -> tuple[str, int]:
    """Replace `path` by a new file of the text of `pieces` (see `_staging`);
    return its SHA-256 and byte count."""
    with _staging(path.parent) as stage:
        return stage(path.name, pieces)


def _options_doc(config: StudyConfig) -> dict:
    # the manifest must not depend on where it is written, so two runs into
    # different directories stay byte-comparable
    return _fields(config.options, "out_dir", reference=config.reference_id,
                   measure_ids=config.measure_ids)


def write_report(result: StudyResult, out_dir: str | Path) -> dict:
    """Write all JSON artifacts and the eight SVGs, plus a hash manifest.

    Every document and figure is built before the output directory is made
    or any file opened. Then each artifact, in manifest order, is serialized
    straight into a temporary file, a JSON document as its pieces and a
    figure as its SVG text, which is dropped before the next. The manifest is
    written last, and all 14 files are renamed into place only after it is,
    so a failure leaves none of them and an earlier report's files as they were.
    """
    # every stage runs first, so normalized.json lists all of their warnings
    _compute_all(result)
    docs = {f"{name}.json": doc for name, doc in artifact_jsons(result).items()}
    plots = {f"{name}.svg": plot for name, plot in render_all(result).items()}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    with _staging(out) as stage:
        for name in sorted(docs.keys() | plots.keys()):
            # the argument is the only reference to its text or pieces
            sha256, size = stage(name, _json_pieces(docs.pop(name)) if name in docs
                                 else (plots.pop(name).to_svg(),))
            entries.append({"name": name, "sha256": sha256, "bytes": size})
        manifest = {
            "tool": {"name": __about__.NAME, "version": __about__.VERSION},
            "options": _options_doc(result.config),
            "artifacts": entries,
        }
        stage("manifest.json", _json_pieces(manifest))
    return manifest
