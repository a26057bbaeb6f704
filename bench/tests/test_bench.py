"""The benchmark's own tests, at tiny sizes; outside the Tier-1 suite.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

import ruviz.cli  # noqa: E402
import ruviz.config  # noqa: E402
import ruviz.model  # noqa: E402
import ruviz.pipeline  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_reports_every_end_to_end_metric(workload):
    out = _bench(workload, trace=0)
    assert out["correct"] is True
    assert out["attempted"] >= 1 and out["failed"] == 0
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["metrics"][m["name"]]["value"] > 0


def test_traced_run_reports_every_per_layer_metric():
    out = _bench("wide_options", trace=1)
    assert out["correct"] is True
    assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert out["metrics"]["multivariate.project_acceptance_region.self_s"]["value"] > 0
    assert out["metrics"]["ordering.hclust.calls"]["value"] == 3  # rows + 2 blocks


def _report(tmp_path: Path, inputs: dict) -> dict[str, bytes]:
    config = ruviz.config.StudyConfig.from_file(inputs["config"])
    matrix = ruviz.model.ingest(Path(inputs["data"]).read_bytes(), config)
    out = tmp_path / "out"
    ruviz.pipeline.write_report(ruviz.pipeline.run_study(matrix, config), out)
    return checks.read_report(out)


def test_fixture_report_matches_pinned_hashes(tmp_path):
    files = _report(tmp_path, gen.fixture_study(tmp_path / "in"))
    assert checks.report_problems(files) == []
    assert checks.fixture_problems(files) == []


def test_checks_reject_a_corrupted_artifact(tmp_path):
    files = _report(tmp_path, gen.fixture_study(tmp_path / "in"))
    svg = bytearray(files["heatmap.svg"])
    svg[200] ^= 1
    assert checks.report_problems({**files, "heatmap.svg": bytes(svg)})
    manifest = json.loads(files["manifest.json"])
    manifest["artifacts"][0]["sha256"] = "0" * 64
    assert checks.fixture_problems(
        {**files, "manifest.json": json.dumps(manifest).encode()})


def test_oracles_accept_the_program_and_reject_corruptions(tmp_path):
    inputs = gen.scale_study(tmp_path / "in", seed=5, **gen.TINY_SCALE_PARAMS)
    files = _report(tmp_path, inputs)
    docs = {n: json.loads(files[f"{n}.json"]) for n in ("normalized", "pareto", "composite")}
    assert checks.oracle_problems(docs["normalized"], docs["pareto"], docs["composite"]) == []

    bad = json.loads(files["pareto.json"])
    bad["pareto_full"] = bad["pareto_full"][1:]
    assert checks.oracle_problems(docs["normalized"], bad, docs["composite"])

    bad = json.loads(files["pareto.json"])
    bad["pareto_composite"] = sorted(bad["pareto_composite"] + [bad["pareto_full"][0]])
    assert checks.oracle_problems(docs["normalized"], bad, docs["composite"])

    bad = json.loads(files["normalized.json"])
    bad["row_order"]["merges"][0]["height"] += 1e-6
    assert checks.oracle_problems(bad, docs["pareto"], docs["composite"])


def test_staircase_front_matches_pairwise_scan():
    rng = np.random.default_rng(0)
    for _ in range(50):
        # coarse values so that ties in utility, risk and both occur
        pts = [(f"p{i}", float(u), float(r))
               for i, (u, r) in enumerate(rng.integers(0, 5, size=(12, 2)))]
        brute = {a for a, ua, ra in pts
                 if not any(ub >= ua and rb <= ra and (ub > ua or rb < ra)
                            for _, ub, rb in pts)}
        assert checks.staircase_front(pts) == brute


def _assert_spans_nest(recorded: list, op_span) -> None:
    by_id = {s[1]: s for s in recorded}
    for _, sid, parent, name, t0, t1 in recorded:
        assert t1 >= t0
        if parent is not None:
            _, _, _, _, p0, p1 = by_id[parent]
            assert p0 <= t0 and t1 <= p1, f"{name} outside its parent"
    selfs = spans.self_times(recorded)
    assert min(selfs.values()) >= -1e-9
    op_duration = op_span[5] - op_span[4]
    assert sum(selfs.values()) <= op_duration + 1e-9


def test_traced_spans_nest_and_self_times_add_up(tmp_path, capsys):
    wide = gen.wide_study(tmp_path / "wide", seed=2, **gen.TINY_WIDE_PARAMS)
    fixture = gen.fixture_study(tmp_path / "fixture")
    tracer = spans.Tracer()
    tracer.install()
    try:
        token = tracer.begin(spans.OP)
        rc = ruviz.cli.main(["pca", "--config", str(wide["config"]),
                             "--data", str(wide["data"]), "--robust", "--orient",
                             "--thresholds", str(wide["thresholds"])])
        tracer.end(token)
        tracer.op = 1
        token = tracer.begin(spans.OP)
        _report(tmp_path, fixture)
        tracer.end(token)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert rc == 0
    assert tracer.missing == []
    names = {s[3] for s in tracer.spans}
    assert {"cli.main", "pipeline.run_study", "multivariate.robust_pca",
            "multivariate.project_acceptance_region", "geometry.convex_hull",
            "svg.PlotDocument.to_svg"} <= names
    assert tracer.counts[(0, "pareto.dominates.calls")] > 0
    assert tracer.counts[(1, "svg.primitives")] > 0
    for op in (0, 1):
        recorded = [s for s in tracer.spans if s[0] == op]
        _assert_spans_nest(recorded, recorded[-1])
    assert spans.unneeded_share([s for s in tracer.spans if s[0] == 0], "pca") < 0.5
    assert spans.unneeded_share([s for s in tracer.spans if s[0] == 0], "pareto") > 0.5
    # uninstall put the originals back
    assert not hasattr(ruviz.pipeline.run_study, "__wrapped__")
    assert not hasattr(ruviz.cli.main, "__wrapped__")


def test_launcher_spans_nest_under_the_operation(tmp_path):
    inputs = gen.fixture_study(tmp_path / "in")
    spans_file = tmp_path / "spans.json"
    tracer = spans.Tracer()
    token = tracer.begin(spans.OP)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "launch.py"), str(spans_file), "report",
         "--config", str(inputs["config"]), "--data", str(inputs["data"]),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, check=False,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""})
    root = tracer.end(token)
    assert proc.returncode == 0, proc.stderr
    tracer.adopt(json.loads(spans_file.read_text()), parent=root)
    names = {s[3] for s in tracer.spans}
    assert {"cli.import", "cli.main", "pipeline.write_report"} <= names
    op_span = next(s for s in tracer.spans if s[1] == root)
    _assert_spans_nest(tracer.spans, op_span)
