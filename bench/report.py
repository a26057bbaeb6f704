"""Per-layer report of the traced benchmark runs.

    python3 bench/report.py [RESULTS_DIR]

Reads every `*-trace1.json` record under RESULTS_DIR (default
`.bench_out/results`) and prints one markdown row per layer metric per
workload: its value, its share of the run's untraced `op_p50_s`, and the
run's tracing overhead. A second table tests each workload's reason for
being in the benchmark against its traced run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _self(rows: dict, *names: str) -> float:
    return sum(rows[n]["value"] for n in names if n in rows)


def reasons(workload: str, rows: dict, op_p50: float) -> list[tuple[str, float, bool]]:
    """(claim, measured share of op_p50_s, holds) for each workload's reason."""
    def share(v: float) -> float:
        return v / op_p50 if op_p50 > 0 else 0.0

    if workload == "cold_cli":
        s = share(rows["cli.import_s"]["value"])
        return [("cli.import_s is most of op_p50_s", s, s > 0.5)]
    if workload == "scale_report":
        s = share(_self(rows, "ordering.hclust.self_s", "pareto.pareto_set.self_s"))
        return [("hclust + pareto_set self time is most of op_p50_s", s, s > 0.5)]
    if workload == "fixture_report":
        names = [n for n in rows if n.endswith(".self_s")
                 and n.split(".")[0] in ("render", "svg", "pipeline")]
        s = share(_self(rows, *names))
        return [("render.* + svg.* + pipeline.* self time is most of op_p50_s", s, s > 0.5)]
    if workload == "wide_options":
        pair = _self(rows, "multivariate.project_acceptance_region.self_s",
                     "geometry.convex_hull.self_s")
        others = max((r["value"] for n, r in rows.items()
                      if n.endswith(".self_s") and n not in (
                          "multivariate.project_acceptance_region.self_s",
                          "geometry.convex_hull.self_s", "op.self_s")), default=0.0)
        return [("acceptance projection + convex hull is the largest layer",
                 share(pair), pair > others)]
    return []


def main() -> int:
    results = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / ".bench_out" / "results"
    records = [json.loads(p.read_text(encoding="utf-8"))
               for p in sorted(results.glob("*-trace1.json"))]
    if not records:
        print(f"no traced results under {results}", file=sys.stderr)
        return 1
    print("| workload | seed | metric | value | unit | share of op_p50_s | trace overhead (s) |")
    print("|---|---|---|---|---|---|---|")
    for rec in records:
        table = rec["layer_table"]
        for row in table["rows"]:
            share = row["share_of_op_p50"]
            print(f"| {rec['workload']} | {rec['seed']} | {row['metric']} | "
                  f"{row['value']:.6g} | {row['unit']} | "
                  f"{'' if share is None else f'{100 * share:.1f}%'} | "
                  f"{table['trace_overhead_s']:+.4f} |")
    print()
    print("| workload | seed | op_p50_s | reason | share | holds |")
    print("|---|---|---|---|---|---|")
    for rec in records:
        table = rec["layer_table"]
        rows = {r["metric"]: r for r in table["rows"]}
        for claim, share, holds in reasons(rec["workload"], rows, table["op_p50_s"]):
            print(f"| {rec['workload']} | {rec['seed']} | {table['op_p50_s']:.4f} | "
                  f"{claim} | {100 * share:.1f}% | {'yes' if holds else 'no'} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
