"""Output checks: pinned fixture hashes, report integrity and analysis oracles.

The oracles are written independently of the program: a numpy broadcast
dominance test for the full Pareto set, a sort-and-scan staircase for the
composite front, and scipy's hierarchical clustering for the row-order merge
heights.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from scipy.cluster.hierarchy import linkage

# SHA-256 of each artifact of `ruviz report` on tests/data, as listed in the
# manifest the seed code writes. The fixture report must stay byte-identical.
FIXTURE_SHA256 = {
    "biplot.svg": "46513795512730545376a93cd3ccf96172237dd6ed9d18cc7e2f928a69b99238",
    "blockwise.svg": "474068fc82361f58434c85ae940d66e9fa4fe057667bef5cc89c7e19da5aedf4",
    "composite.json": "50fcade282284d9bcd8d1b67d39f4a391e0bd3fedc9ba6a6ce97032a3c6a4e28",
    "composite_ru.svg": "6fdafb5c6e0422e876d07ed714a36f15e3d48d03e5a18c308e35f994238a6700",
    "dotplot.svg": "bf81217c96013911dd075687d02b90da72e37c029cd17baf3cb90276d47c09aa",
    "heatmap.svg": "7819f88fe087019211d7996da22bbc0ddfb187dfc6621fcd2d3305dece9b2e35",
    "normalized.json": "e470cc013e13ba7f2bc47daf193c00dc2a57ca8dbe1e29161158e1273c1e0b46",
    "origami.svg": "6debd97d401c966143675ede6f8761192ef23c3d3a4b64836dc6febb64f491bc",
    "pareto.json": "b1bd662642062d582c0e82ec02f32bf1fbfd8577814d496781119ef29598ffcb",
    "pca.json": "0707b24c6133cdf4c19f3c7d4430af3472d4ad1ce6a99d1d5f15f0640383636d",
    "pcp.svg": "8e705b573b3308680a925e344806183b311c7f01bb8c5b3387659d64c1e619a9",
    "profiles.json": "b0e37fb350e5c51216c9e1dd5c34cfb7c674502df885fc937efca353d244736f",
    "sdod.svg": "761694d38406e71a23c0fed063dbce54b8e05a680f2b8a0ecd76cd6beaa22abb",
}
REPORT_FILES = tuple(sorted(FIXTURE_SHA256)) + ("manifest.json",)
MERGE_HEIGHT_TOL = 1e-9


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_report(out: Path) -> dict[str, bytes]:
    """Every file a report wrote, by name."""
    return {p.name: p.read_bytes() for p in sorted(Path(out).iterdir()) if p.is_file()}


def report_problems(files: dict[str, bytes]) -> list[str]:
    """The report holds exactly the expected files and matches its manifest."""
    if sorted(files) != sorted(REPORT_FILES):
        return [f"report files {sorted(files)} != {sorted(REPORT_FILES)}"]
    problems = []
    manifest = json.loads(files["manifest.json"])
    for entry in manifest["artifacts"]:
        data = files.get(entry["name"], b"")
        if sha256(data) != entry["sha256"] or len(data) != entry["bytes"]:
            problems.append(f"{entry['name']}: bytes differ from the manifest entry")
    return problems


def fixture_problems(files: dict[str, bytes]) -> list[str]:
    """The fixture report's manifest lists the pinned hashes."""
    manifest = json.loads(files["manifest.json"])
    listed = {e["name"]: e["sha256"] for e in manifest["artifacts"]}
    return [f"{name}: sha256 differs from the pinned fixture report"
            for name in sorted(set(listed) | set(FIXTURE_SHA256))
            if listed.get(name) != FIXTURE_SHA256.get(name)]


def _blocks(normalized: dict) -> tuple[np.ndarray, np.ndarray]:
    values = np.array(normalized["values"], dtype=float)
    blocks = [m["block"] for m in normalized["measures"]]
    util = values[:, [j for j, b in enumerate(blocks) if b == "utility"]]
    risk = values[:, [j for j, b in enumerate(blocks) if b == "risk"]]
    return util, risk


def dominance_oracle(util: np.ndarray, risk: np.ndarray) -> np.ndarray:
    """m[i, j] is True when row i strongly dominates row j."""
    no_worse = (np.all(util[:, None, :] >= util[None, :, :], axis=2)
                & np.all(risk[:, None, :] <= risk[None, :, :], axis=2))
    better = (np.any(util[:, None, :] > util[None, :, :], axis=2)
              | np.any(risk[:, None, :] < risk[None, :, :], axis=2))
    return no_worse & better


def staircase_front(points: list[tuple[str, float, float]]) -> set[str]:
    """Non-dominated (max utility, min risk) points by one sorted scan."""
    front: set[str] = set()
    best_risk = np.inf  # lowest risk among points of strictly higher utility
    ordered = sorted(points, key=lambda p: (-p[1], p[2]))
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j][1] == ordered[i][1]:
            j += 1
        group_min = ordered[i][2]  # the group is sorted by risk
        for pid, _, r in ordered[i:j]:
            if r == group_min and r < best_risk:
                front.add(pid)
        best_risk = min(best_risk, group_min)
        i = j
    return front


def oracle_problems(normalized: dict, pareto: dict, composite: dict) -> list[str]:
    """Check the Pareto set, composite front and merge heights against oracles."""
    problems = []
    labels = [a["label"] for a in normalized["approaches"]]
    is_ref = [a["is_reference"] for a in normalized["approaches"]]
    util, risk = _blocks(normalized)
    dom = dominance_oracle(util, risk)
    if pareto["dominance"]["labels"] != labels or not np.array_equal(
            np.array(pareto["dominance"]["matrix"], dtype=bool), dom):
        problems.append("dominance matrix differs from the broadcast oracle")
    cand = [i for i, r in enumerate(is_ref) if not r]
    sub = dom[np.ix_(cand, cand)]
    full = sorted(labels[c] for k, c in enumerate(cand) if not sub[:, k].any())
    if pareto["pareto_full"] != full:
        problems.append("pareto_full differs from the broadcast oracle")

    refs = {labels[i] for i, r in enumerate(is_ref) if r}
    points = [(s["id"], s["utility"], s["risk"]) for s in composite["scores"]
              if s["id"] not in refs]
    if pareto["pareto_composite"] != sorted(staircase_front(points)):
        problems.append("pareto_composite differs from the staircase scan")

    order = normalized["row_order"]
    heights = np.sort([m["height"] for m in order["merges"]])
    values = np.array(normalized["values"], dtype=float)
    expected = np.sort(linkage(values, method=order["linkage"], metric="euclidean")[:, 2])
    if heights.shape != expected.shape or np.max(np.abs(heights - expected)) > MERGE_HEIGHT_TOL:
        problems.append("row_order merge heights differ from scipy linkage")
    return problems
