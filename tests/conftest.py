"""Shared fixtures and independent oracle helpers for the test suite."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import xml.etree.ElementTree as ET
from enum import Enum
from pathlib import Path

import numpy as np
import pytest

from ruviz.config import StudyConfig
from ruviz.errors import AnalysisError, ValidationError
from ruviz.model import (
    Approaches,
    Block,
    ColumnScale,
    Direction,
    MeasureSpec,
    NormalizedMatrix,
    ingest,
)
from ruviz.multivariate import _direction_pairs
from ruviz.pipeline import _Table
from ruviz.profiles import origami_profiles
from ruviz.svg import Batch

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def study_config() -> StudyConfig:
    return StudyConfig.from_file(DATA_DIR / "study.json")


@pytest.fixture(scope="session")
def study_csv_bytes() -> bytes:
    return (DATA_DIR / "measures.csv").read_bytes()


@pytest.fixture()
def study_matrix(study_config, study_csv_bytes):
    return ingest(study_csv_bytes, study_config)


def make_specs(n_risk: int, n_utility: int) -> tuple[MeasureSpec, ...]:
    risk = tuple(
        MeasureSpec(f"r{i}", f"risk {i}", Block.RISK, Direction.LOWER)
        for i in range(n_risk)
    )
    util = tuple(
        MeasureSpec(f"u{i}", f"utility {i}", Block.UTILITY, Direction.HIGHER)
        for i in range(n_utility)
    )
    return risk + util


def make_approaches(ids, datasets=None, reference_index=None) -> Approaches:
    """Approaches `ids`, in `datasets` (None throughout by default), with the
    row at `reference_index` as the one reference."""
    return Approaches(tuple(ids), tuple(datasets or [None] * len(ids)),
                      [i == reference_index for i in range(len(ids))])


def columns(points):
    """The (labels, utility, risk) columns of (label, utility, risk) points."""
    return [p[0] for p in points], [p[1] for p in points], [p[2] for p in points]


def make_nm(
    values: np.ndarray,
    n_risk: int,
    reference_index: int | None = None,
    datasets: list[str | None] | None = None,
) -> NormalizedMatrix:
    """Wrap a ready-made [0, 1] value matrix as a NormalizedMatrix."""
    values = np.asarray(values, dtype=float)
    n, p = values.shape
    specs = make_specs(n_risk, p - n_risk)
    approaches = make_approaches([f"a{i}" for i in range(n)], datasets, reference_index)
    scales = tuple(ColumnScale(0.0, 1.0, False, False) for _ in range(p))
    return NormalizedMatrix(specs=specs, approaches=approaches, values=values, scales=scales)


def profiles_nm(ids, values, measure_ids) -> NormalizedMatrix:
    """Rows `ids` of normalized `values` over utility measures `measure_ids`."""
    specs = tuple(MeasureSpec(mid, mid, Block.UTILITY, Direction.HIGHER)
                  for mid in measure_ids)
    return NormalizedMatrix(
        specs=specs, approaches=make_approaches(ids),
        values=np.reshape(values, (len(ids), -1)),
        scales=tuple(ColumnScale(0.0, 1.0, False, False) for _ in specs))


def build_origami(profile_id: str, values, measure_ids, r_aux: float = 0.1):
    """The one-row radial profile product of normalized values; requires at
    least 3 measures and 0 < r_aux < 1."""
    return origami_profiles(profiles_nm((profile_id,), values, measure_ids), r_aux)


def reconstruct(model, scores) -> np.ndarray:
    """Data-space points of `scores` under a PCA model."""
    return model.center + np.asarray(scores, dtype=float) @ model.loadings.T


def generated_study(n_rows: int = 60, seed: int = 2026) -> tuple[str, dict]:
    """CSV text and config document of a seeded single-dataset study.

    Three risk and four utility measures (two of them flipped by their
    direction), a reference row and `n_rows - 1` candidates. Each candidate
    has a privacy level p: its risk and utility fall with p, each measure
    with its own noise, so the study has a real trade-off and a Pareto set
    of several rows. Min-max scaling puts every column's extremes at exactly
    0 and 1. One label holds `&`, `<` and `>` and is longer than the
    figures' label width.
    """
    config = {
        "measures": [
            *({"id": f"r{j}", "display_name": f"risk <{j}> & more",
               "block": "risk", "direction": "lower"} for j in range(3)),
            {"id": "u0", "block": "utility", "direction": "higher"},
            {"id": "u1", "block": "utility", "direction": "higher"},
            {"id": "u2", "block": "utility", "direction": "lower"},
            {"id": "u3", "block": "utility", "direction": "lower"},
        ],
        "reference": "orig",
    }
    rng = np.random.default_rng(seed)
    lines = ["approach,r0,r1,r2,u0,u1,u2,u3", "orig,1,1,1,1,1,0,0"]
    for i in range(1, n_rows):
        p = rng.uniform(0.05, 0.95)
        noise = rng.uniform(0.7, 1.0, 7)
        keep = (1.0 - p) * noise
        vals = [*keep[:5], *(p * noise[5:])]
        label = "k-anon & <l-div> t-close" if i == 7 else f"m{i:02d}"
        lines.append(label + "," + ",".join(f"{v:.4f}" for v in vals))
    return "\n".join(lines) + "\n", config


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def dominates(u_i, r_i, u_j, r_j) -> bool:
    """True when (u_i, r_i) strongly dominates (u_j, r_j).

    Utility vectors compare componentwise >= and risk vectors <=, with at
    least one strict inequality. Comparisons are exact.
    """
    u_i = np.asarray(u_i, dtype=float)
    u_j = np.asarray(u_j, dtype=float)
    r_i = np.asarray(r_i, dtype=float)
    r_j = np.asarray(r_j, dtype=float)
    if u_i.shape != u_j.shape or r_i.shape != r_j.shape:
        raise ValueError("dominance requires equal-length vectors per block")
    no_worse = bool(np.all(u_i >= u_j) and np.all(r_i <= r_j))
    strictly_better = bool(np.any(u_i > u_j) or np.any(r_i < r_j))
    return no_worse and strictly_better


def oracle_pareto_ids(utilities: list[list[float]], risks: list[list[float]]) -> set[int]:
    """Exhaustive pairwise dominance scan in pure Python."""
    n = len(utilities)
    keep = set()
    for i in range(n):
        dominated = False
        for j in range(n):
            if i == j:
                continue
            no_worse = all(uj >= ui for uj, ui in zip(utilities[j], utilities[i])) and all(
                rj <= ri for rj, ri in zip(risks[j], risks[i])
            )
            strict = any(uj > ui for uj, ui in zip(utilities[j], utilities[i])) or any(
                rj < ri for rj, ri in zip(risks[j], risks[i])
            )
            if no_worse and strict:
                dominated = True
                break
        if not dominated:
            keep.add(i)
    return keep


def oracle_front_ids(points: list[tuple[str, float, float]]) -> set[str]:
    """2-D staircase scan: non-dominated (utility up, risk down) points."""
    keep = set()
    for i, (pid, u, r) in enumerate(points):
        dominated = False
        for j, (_, u2, r2) in enumerate(points):
            if j == i:
                continue
            if u2 >= u and r2 <= r and (u2 > u or r2 < r):
                dominated = True
                break
        if not dominated:
            keep.add(pid)
    return keep


def oracle_front(points: list[tuple[str, float, float]]):
    """The composite front record by record, as one loop per point and edge:
    the (id, utility, risk) points in (utility, risk, id) order and the
    (src, dst, d_utility, d_risk, slope) edges, slope None below 1e-12."""
    pts = [(str(i), float(u), float(r)) for i, u, r in points]
    front: list[tuple[str, float, float]] = []
    best_risk = math.inf
    by_utility = sorted(pts, key=lambda p: (-p[1], p[2]))
    for _, group in itertools.groupby(by_utility, key=lambda p: p[1]):
        group = list(group)
        low = group[0][2]
        if low < best_risk:
            front += [p for p in group if p[2] == low]
            best_risk = low
    front.sort(key=lambda p: (p[1], p[2], p[0]))
    edges = []
    for a, b in zip(front, front[1:]):
        du, dr = b[1] - a[1], b[2] - a[2]
        edges.append((a[0], b[0], du, dr, dr / du if du > 1e-12 else None))
    return front, edges


def oracle_knee(front: list[tuple[str, float, float]]):
    """(id, distance, concave) of the inner point farthest from the chord of
    the sorted front, lowest risk then id on ties, or None."""
    if len(front) < 3:
        return None
    (_, au, ar), (_, bu, br) = front[0], front[-1]
    chord = math.hypot(bu - au, br - ar)
    if chord < 1e-12:
        return None
    best = None  # (-distance, risk, id, cross)
    for pid, u, r in front[1:-1]:
        cross = (bu - au) * (r - ar) - (br - ar) * (u - au)
        key = (-(abs(cross) / chord), r, pid, cross)
        if best is None or key[:3] < best[:3]:
            best = key
    if -best[0] < 1e-9:
        return None
    return best[2], -best[0], best[3] < 0.0


def oracle_rays(points: list[tuple[str, float, float]], reference: tuple[float, float]):
    """(id, utility, risk, slope, l2) per point against one reference; slope
    None where the utility displacement is below 1e-12."""
    u0, r0 = float(reference[0]), float(reference[1])
    rays = []
    for pid, u, r in points:
        du, dr = float(u) - u0, float(r) - r0
        rays.append((str(pid), float(u), float(r),
                     dr / du if abs(du) >= 1e-12 else None, math.hypot(du, dr)))
    return rays


def oracle_validate_rows(ids, datasets, is_reference) -> None:
    """Raise the `ValidationError` of the first label two rows share, else of
    the first dataset, by first reference, that holds two references."""

    def row_name(k):
        return ids[k] if datasets[k] is None else f"{ids[k]} in dataset {datasets[k]}"

    by_label: dict[str, int] = {}
    ref_per_dataset: dict[str | None, int] = {}
    for i, (pid, ds, ref) in enumerate(zip(ids, datasets, is_reference)):
        label = pid if ds is None else f"{pid}@{ds}"
        j = by_label.setdefault(label, i)
        if j != i and datasets[j] == ds:
            raise ValidationError(f"data: duplicate approach row '{row_name(i)}'")
        if j != i:
            raise ValidationError(f"data: approach rows '{row_name(j)}' and "
                                  f"'{row_name(i)}' share the label '{label}'")
        if ref:
            ref_per_dataset[ds] = ref_per_dataset.get(ds, 0) + 1
    for ds, count in ref_per_dataset.items():
        if count > 1:
            where = "" if ds is None else f" in dataset '{ds}'"
            raise ValidationError(f"data: more than one reference row{where}")


def chi2_quantile_even_df(q: float, df: int) -> float:
    """Chi-square quantile for even df via the closed-form CDF and bisection.

    For even df the CDF is 1 - exp(-x/2) * sum_{j<df/2} (x/2)^j / j!, which
    needs no special functions; bisection to ~1e-12.
    """
    if df % 2 != 0 or df <= 0:
        raise ValueError("closed form requires positive even df")
    m = df // 2

    def cdf(x: float) -> float:
        half = x / 2.0
        s = sum(half**j / math.factorial(j) for j in range(m))
        return 1.0 - math.exp(-half) * s

    lo, hi = 0.0, 1000.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def oracle_hclust(X: np.ndarray, linkage: str) -> list[tuple[int, int, float]]:
    """Naive agglomeration recomputing every cluster distance from the raw
    pairwise distances at each step."""
    n = X.shape[0]
    base = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            base[i, j] = float(np.linalg.norm(X[i] - X[j]))
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    active = set(range(n))
    merges: list[tuple[int, int, float]] = []
    nxt = n

    def cluster_distance(a: int, b: int) -> float:
        ds = [base[i, j] for i in members[a] for j in members[b]]
        if linkage == "complete":
            return max(ds)
        if linkage == "single":
            return min(ds)
        return sum(ds) / len(ds)

    while len(active) > 1:
        best_pair = None
        best_d = math.inf
        for a in sorted(active):
            for b in sorted(active):
                if a < b:
                    d = cluster_distance(a, b)
                    if d < best_d:
                        best_d = d
                        best_pair = (a, b)
        assert best_pair is not None
        a, b = best_pair
        merges.append((a, b, best_d))
        members[nxt] = members[a] + members[b]
        active.discard(a)
        active.discard(b)
        active.add(nxt)
        nxt += 1
    return merges


def sample_with_exact_cov(n: int, cov: np.ndarray, seed: int) -> np.ndarray:
    """Draw n rows whose sample covariance equals `cov` to machine precision.

    A random Gaussian matrix is centered and orthonormalized, then rotated by
    the Cholesky factor, so the empirical second moments match the target
    exactly while the row configuration stays random.
    """
    cov = np.asarray(cov, dtype=float)
    k = cov.shape[0]
    if n <= k:
        raise ValueError("need n > k")
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(n, k))
    Z -= Z.mean(axis=0)
    Q, _ = np.linalg.qr(Z)
    L = np.linalg.cholesky(cov)
    return math.sqrt(n - 1) * Q[:, :k] @ L.T


SVG_NS = "{http://www.w3.org/2000/svg}"


def _extent(tag: str, element: ET.Element) -> list[tuple[float, float]]:
    """The (x, y) corners of one written element's extent: a text's anchor,
    a circle's bounding box, a shape's vertices or corners."""
    def numbers(*names):
        return [float(element.get(name)) for name in names]

    if tag in ("polyline", "polygon"):
        return [tuple(map(float, p.split(","))) for p in element.get("points").split()]
    if tag == "circle":
        cx, cy, r = numbers("cx", "cy", "r")
        return [(cx - r, cy - r), (cx + r, cy + r)]
    if tag == "line":
        x1, y1, x2, y2 = numbers("x1", "y1", "x2", "y2")
        return [(x1, y1), (x2, y2)]
    if tag == "rect":
        x, y, w, h = numbers("x", "y", "width", "height")
        return [(x, y), (x + w, y + h)]
    return [tuple(numbers("x", "y"))]


def corners(doc) -> list[tuple[str, float, float]]:
    """(tag, x, y) of the corners of every element the document's SVG
    writes, in the order it writes them."""
    tagged = [(el.tag.removeprefix(SVG_NS), el) for el in ET.fromstring(doc.to_svg())]
    return [(tag, x, y) for tag, el in tagged for x, y in _extent(tag, el)]


def assert_in_bounds(doc, slack: float = 0.5) -> None:
    """Raise ValueError when an element of `doc`'s SVG leaves its canvas."""
    for tag, x, y in corners(doc):
        if not (-slack <= x <= doc.width + slack):
            raise ValueError(f"{tag} x={x:.2f} outside canvas 0..{doc.width}")
        if not (-slack <= y <= doc.height + slack):
            raise ValueError(f"{tag} y={y:.2f} outside canvas 0..{doc.height}")


def svg_elements(doc, tag: str) -> list[ET.Element]:
    """The `tag` elements of the document's SVG, in the order it writes them."""
    return list(ET.fromstring(doc.to_svg()).iter(SVG_NS + tag))


def title_of(element: ET.Element) -> str | None:
    title = element.find(SVG_NS + "title")
    return None if title is None else title.text


def batch_rows(doc, cls, lead: bool = False, **style) -> list[tuple[list[float], dict]]:
    """(numbers, string fields) of every row of the `cls` batches in `doc`
    whose shared fields include `style`, in drawing order; with `lead`, of
    those batches' leads."""
    return [
        (numbers, {**b.style, **{name: column[i] for name, column in b.columns.items()}})
        for top in doc.primitives()
        if isinstance(top, Batch) and top.cls is cls
        and all(top.style.get(name) == value for name, value in style.items())
        for b in [top.lead if lead else top]
        for i, numbers in enumerate(b.values.tolist())
    ]


def point_in_convex_polygon(point, vertices: np.ndarray, tol: float = 1e-9) -> bool:
    """Membership test for a counter-clockwise convex polygon."""
    verts = np.asarray(vertices, dtype=float)
    if len(verts) < 3:
        return False
    px, py = float(point[0]), float(point[1])
    for i in range(len(verts)):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % len(verts)]
        if (bx - ax) * (py - ay) - (by - ay) * (px - ax) < -tol:
            return False
    return True


def oracle_monotone_chain(points: np.ndarray) -> np.ndarray:
    """Monotone chain over every input point, counter-clockwise (the byte
    reference for `geometry.convex_hull`)."""
    pts = np.asarray(points, dtype=float)
    uniq = sorted({(float(p[0]), float(p[1])) for p in pts})
    if len(uniq) <= 2:
        return np.array(uniq, dtype=float).reshape(-1, 2)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in uniq:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(uniq):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # all points collinear
        return np.array([uniq[0], uniq[-1]], dtype=float)
    return np.array(hull, dtype=float)


def oracle_acceptance_vertices(model, specs, thresholds) -> np.ndarray:
    """Monotone chain over all 2^p projected corners of the acceptance box,
    for p <= 12 (reference for `multivariate.project_acceptance_region`)."""
    if len(specs) > 12:
        raise ValueError("the corner enumeration is for at most 12 measures")
    intervals = []
    for spec in specs:
        c = float(thresholds.get(spec.id, 1.0 if spec.block is Block.RISK else 0.0))
        intervals.append((0.0, c) if spec.block is Block.RISK else (c, 1.0))
    corners = np.array(list(itertools.product(*intervals)))
    return oracle_monotone_chain((corners - model.center) @ model.loadings[:, :2])


def oracle_outlyingness(Y: np.ndarray, pairs) -> np.ndarray:
    """Stahel-Donoho outlyingness one direction at a time (reference for
    `multivariate._stahel_donoho_outlyingness`)."""

    def madn(x):
        med = float(np.median(x))
        return 1.4826 * float(np.median(np.abs(x - med)))

    out = np.zeros(Y.shape[0])
    used = 0
    for i, j in zip(*pairs):
        d = Y[i] - Y[j]
        norm = float(np.linalg.norm(d))
        if norm < 1e-12:
            continue
        z = Y @ (d / norm)
        med = float(np.median(z))
        mad = madn(z)
        if mad < 1e-12:
            continue
        used += 1
        out = np.maximum(out, np.abs(z - med) / mad)
    if used == 0:
        raise AnalysisError(
            "outlyingness undefined: every projection direction was degenerate"
        )
    return out


def outlyingness_case(n: int, dims: int, kind: str, duplicates: int, seed: int):
    """An n x dims input for the outlyingness kernel and its direction pairs.

    `kind` is "normal" (Gaussian), "grid" (integers -2..2: many tied
    projections and zero-MAD directions) or "tenths" (that grid times 0.1).
    Up to `duplicates` rows are copied onto others, so zero-norm pairs mix
    with usable ones.
    """
    rng = np.random.default_rng(seed)
    if kind == "normal":
        Y = rng.standard_normal((n, dims))
    else:
        Y = rng.integers(-2, 3, size=(n, dims)) * (0.1 if kind == "tenths" else 1.0)
    Y[rng.integers(0, n, duplicates)] = Y[rng.integers(0, n, duplicates)]
    return Y, _direction_pairs(n, seed)


def gift_wrap_hull(points: np.ndarray) -> set[tuple[float, float]]:
    """Jarvis-march convex hull vertex set (oracle for the monotone chain)."""
    pts = [tuple(map(float, p)) for p in points]
    uniq = sorted(set(pts))
    if len(uniq) <= 2:
        return set(uniq)
    hull = []
    start = min(uniq)
    point = start
    while True:
        hull.append(point)
        candidate = uniq[0] if uniq[0] != point else uniq[1]
        for q in uniq:
            if q == point:
                continue
            cross = (candidate[0] - point[0]) * (q[1] - point[1]) - (
                candidate[1] - point[1]
            ) * (q[0] - point[0])
            if cross < 0 or (
                cross == 0
                and math.dist(point, q) > math.dist(point, candidate)
            ):
                candidate = q
        point = candidate
        if point == start:
            break
    return set(hull)


def oracle_dump_json(doc) -> str:
    """The stdlib's indented layout (oracle for `pipeline._dump_json`)."""
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False,
                      allow_nan=False) + "\n"


def oracle_jsonable(value):
    """Element-by-element walk of a document into plain values: a dataclass
    as the dict of its fields, an enum as its value, arrays and sequences as
    lists, a table as the list of its records and each non-finite float as
    None (with `oracle_dump_json`, the oracle for `pipeline._dump_json`)."""
    if isinstance(value, _Table):
        columns = {k: oracle_jsonable(c) for k, c in value.columns.items()}
        return [dict(zip(columns, row)) for row in zip(*columns.values())]
    if dataclasses.is_dataclass(value):
        return {f.name: oracle_jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {k: oracle_jsonable(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return oracle_jsonable(value.tolist())
    if isinstance(value, (list, tuple)):
        return [oracle_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value
