"""Timing spans recorded from outside the program.

`Tracer.install` rebinds module attributes of the loaded `ruviz` modules
(and two class attributes) to thin wrappers, so the program's own call path
runs unchanged and every call into a listed public function records a span:
its name, start, end, parent span and operation id. Two very frequent calls
are counted instead of spanned. `Tracer.uninstall` puts the originals back.

This module imports only the standard library, so a launcher can import
`ruviz.cli` first and time that import on its own.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute path, layer name); each call records one span
SPAN_TARGETS = (
    ("ruviz.cli", "main", "cli.main"),
    ("ruviz.config", "StudyConfig.from_file", "config.from_file"),
    ("ruviz.model", "ingest", "model.ingest"),
    ("ruviz.model", "harmonize_and_normalize", "model.harmonize_and_normalize"),
    ("ruviz.composites", "composite_scores", "composites.composite_scores"),
    ("ruviz.composites", "reliability_report", "composites.reliability_report"),
    ("ruviz.pareto", "pareto_set", "pareto.pareto_set"),
    ("ruviz.pareto", "composite_front", "pareto.composite_front"),
    ("ruviz.pareto", "knee_point", "pareto.knee_point"),
    ("ruviz.pareto", "rays_to_reference", "pareto.rays_to_reference"),
    ("ruviz.ordering", "hclust", "ordering.hclust"),
    ("ruviz.multivariate", "pca_fit", "multivariate.pca_fit"),
    ("ruviz.multivariate", "orient", "multivariate.orient"),
    ("ruviz.multivariate", "alignment", "multivariate.alignment"),
    ("ruviz.multivariate", "sd_od", "multivariate.sd_od"),
    ("ruviz.multivariate", "blockwise_pca", "multivariate.blockwise_pca"),
    ("ruviz.multivariate", "robust_pca", "multivariate.robust_pca"),
    ("ruviz.multivariate", "project_acceptance_region",
     "multivariate.project_acceptance_region"),
    ("ruviz.multivariate", "group_summaries", "multivariate.group_summaries"),
    ("ruviz.geometry", "convex_hull", "geometry.convex_hull"),
    ("ruviz.profiles", "origami_profiles", "profiles.origami_profiles"),
    ("ruviz.profiles", "ranked_areas", "profiles.ranked_areas"),
    ("ruviz.profiles", "build_pcp", "profiles.build_pcp"),
    ("ruviz.pipeline", "run_study", "pipeline.run_study"),
    ("ruviz.pipeline", "artifact_jsons", "pipeline.artifact_jsons"),
    ("ruviz.pipeline", "render_all", "pipeline.render_all"),
    ("ruviz.pipeline", "write_report", "pipeline.write_report"),
    ("ruviz.render", "render_heatmap", "render.render_heatmap"),
    ("ruviz.render", "render_dotplot", "render.render_dotplot"),
    ("ruviz.render", "render_composite_ru", "render.render_composite_ru"),
    ("ruviz.render", "render_pcp", "render.render_pcp"),
    ("ruviz.render", "render_origami", "render.render_origami"),
    ("ruviz.render", "render_biplot", "render.render_biplot"),
    ("ruviz.render", "render_sdod", "render.render_sdod"),
    ("ruviz.render", "render_blockwise", "render.render_blockwise"),
    ("ruviz.svg", "PlotDocument.to_svg", "svg.PlotDocument.to_svg"),
)

# (module, attribute path, counter name); called too often to span
COUNT_TARGETS = (
    ("ruviz.pareto", "dominates", "pareto.dominates.calls"),
    ("ruviz.svg", "PlotDocument.add", "svg.primitives"),
)

LAYERS = tuple(name for _, _, name in SPAN_TARGETS)
COUNTERS = tuple(name for _, _, name in COUNT_TARGETS)
OP = "op"


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        # (op id, span id, parent span id or None, name, start, end)
        self.spans: list[tuple] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.op = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def begin(self, name: str) -> tuple:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return (sid, parent, name, time.perf_counter())

    def end(self, token: tuple) -> int:
        t1 = time.perf_counter()
        sid, parent, name, t0 = token
        self._stack.pop()
        self.spans.append((self.op, sid, parent, name, t0, t1))
        return sid

    def add(self, name: str, t0: float, t1: float) -> None:
        """Record a span timed elsewhere, under the current open span."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append((self.op, self._next_id, parent, name, t0, t1))
        self._next_id += 1

    def adopt(self, doc: dict, parent: int) -> None:
        """Attach spans that a child process wrote with `write` under `parent`.

        `perf_counter` reads the system's monotonic clock, so the child's
        timestamps share this process's time base.
        """
        remap: dict[int, int] = {}
        for _, sid, _, _, _, _ in doc["spans"]:
            remap[sid] = self._next_id
            self._next_id += 1
        for _, sid, par, name, t0, t1 in doc["spans"]:
            new_parent = parent if par is None else remap[par]
            self.spans.append((self.op, remap[sid], new_parent, name, t0, t1))
        for _, name, n in doc["counts"]:
            self.counts[(self.op, name)] += n

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(token)
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(self.op, name)] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        """Rebind every listed function wherever a `ruviz` module holds it."""
        if self._patches:
            return
        self.missing = []
        for targets, make in ((SPAN_TARGETS, self._span_wrapper),
                              (COUNT_TARGETS, self._count_wrapper)):
            for module_name, path, name in targets:
                try:
                    module = importlib.import_module(module_name)
                    owner_name, _, attr = path.rpartition(".")
                    owner = getattr(module, owner_name) if owner_name else module
                    raw = owner.__dict__[attr] if owner_name else getattr(module, attr)
                except (ImportError, AttributeError, KeyError):
                    # a later refactor may move a function; its metric reads 0
                    self.missing.append(name)
                    continue
                if owner_name:
                    if isinstance(raw, classmethod):
                        patched = classmethod(make(name, raw.__func__))
                    else:
                        patched = make(name, raw)
                    self._patch(owner, attr, patched)
                    continue
                wrapper = make(name, raw)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "ruviz"
                                           or mod_name.startswith("ruviz.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- output ------------------------------------------------------------
    def write(self, path) -> None:
        doc = {
            "spans": [list(s) for s in self.spans],
            "counts": [[op, name, n] for (op, name), n in sorted(self.counts.items())],
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def self_times(spans: list) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Calls on one thread nest strictly, so the children of a span never
    overlap and their durations add up to the time they cover.
    """
    covered: dict[int, float] = defaultdict(float)
    for _, _, par, _, t0, t1 in spans:
        if par is not None:
            covered[par] += t1 - t0
    return {sid: (t1 - t0) - covered[sid] for _, sid, _, _, t0, t1 in spans}


def per_op_layers(spans: list, counts: list) -> dict[int, dict[str, float]]:
    """Per operation: summed self time of each span name, plus call counts."""
    selfs = self_times(spans)
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for op, sid, _, name, _, _ in spans:
        out[op][f"{name}.self_s"] += selfs[sid]
        out[op][f"{name}.calls"] += 1
    for op, name, n in counts:
        out[op][name] += n
    return out


# Run-study stages each analysis subcommand prints; a stage outside its set
# is computed and then thrown away.
NEEDED_STAGES = {
    "normalize": {"model.harmonize_and_normalize", "ordering.hclust"},
    "pareto": {"model.harmonize_and_normalize", "composites.composite_scores",
               "pareto.pareto_set", "pareto.composite_front", "pareto.knee_point",
               "pareto.rays_to_reference"},
    "composite": {"model.harmonize_and_normalize", "composites.composite_scores",
                  "composites.reliability_report"},
    "pca": {"model.harmonize_and_normalize", "composites.composite_scores",
            "multivariate.pca_fit", "multivariate.orient", "multivariate.alignment",
            "multivariate.robust_pca", "multivariate.sd_od",
            "multivariate.blockwise_pca", "multivariate.group_summaries",
            "multivariate.project_acceptance_region"},
    "profiles": {"model.harmonize_and_normalize", "profiles.origami_profiles",
                 "profiles.ranked_areas"},
}


def unneeded_share(spans: list, command: str) -> float:
    """Share of `run_study` time in stages whose output `command` does not print.

    Commands that write the whole report need every stage, so they give 0.
    """
    needed = NEEDED_STAGES.get(command)
    total = 0.0
    unneeded = 0.0
    studies = {sid for _, sid, _, name, _, _ in spans if name == "pipeline.run_study"}
    for _, sid, par, name, t0, t1 in spans:
        if name == "pipeline.run_study":
            total += t1 - t0
        elif par in studies and needed is not None and name not in needed:
            unneeded += t1 - t0
    return unneeded / total if total > 0 else 0.0


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0
