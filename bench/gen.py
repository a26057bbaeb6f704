"""Seeded study generators for the benchmark workloads.

Every generator writes real files (a study config JSON, a measures CSV and,
where used, a thresholds JSON) so that the program parses text exactly as a
user's run would. The same seed and parameters always give the same bytes.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "tests" / "data"

# Full-size generator parameters; the benchmark's own tests pass smaller ones.
SCALE_PARAMS = {"n_rows": 400}
WIDE_PARAMS = {"n_datasets": 4, "rows_per_dataset": 12, "n_risk": 8, "n_utility": 8}
TINY_SCALE_PARAMS = {"n_rows": 30}
TINY_WIDE_PARAMS = {"n_datasets": 2, "rows_per_dataset": 8, "n_risk": 8, "n_utility": 8}

# Raw ranges of the fixture's risk measures for the reference row; the
# synthetic candidates scale down from these as their privacy level rises.
_REFERENCE_RISK = {"RepU": 100.0, "DiSCO": 92.0, "DCAP": 0.95, "TCAP": 0.90, "RAPID": 0.82}


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)] + [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def fixture_study(out: Path) -> dict:
    """Copy the committed 9-row fixture into `out`."""
    out.mkdir(parents=True, exist_ok=True)
    config = out / "study.json"
    data = out / "measures.csv"
    shutil.copyfile(FIXTURE_DIR / "study.json", config)
    shutil.copyfile(FIXTURE_DIR / "measures.csv", data)
    return {"config": config, "data": data, "params": {"fixture": "tests/data"}}


def scale_study(out: Path, seed: int, n_rows: int) -> dict:
    """One dataset, the fixture's 10 measures, `n_rows` rows incl. the reference.

    Each candidate has a latent privacy level p in (0.05, 0.95): its risk
    measures fall with p and its utility-loss measures rise with p, each with
    its own multiplicative noise, so risk and utility trade off as in a real
    study while no two rows are equal.
    """
    out.mkdir(parents=True, exist_ok=True)
    config_doc = json.loads((FIXTURE_DIR / "study.json").read_text(encoding="utf-8"))
    measures = config_doc["measures"]
    rng = np.random.default_rng(seed)
    header = ["approach"] + [m["id"] for m in measures]
    rows = []
    ref = [_REFERENCE_RISK.get(m["id"], 0.0) for m in measures]
    rows.append(["original"] + [_fmt(v) for v in ref])
    loss_scale = rng.uniform(0.5, 1.0, size=len(measures))
    for i in range(1, n_rows):
        p = rng.uniform(0.05, 0.95)
        cells = []
        for j, m in enumerate(measures):
            noise = float(np.exp(rng.normal(0.0, 0.15)))
            if m["block"] == "risk":
                v = ref[j] * (1.0 - p) * noise
            else:
                v = loss_scale[j] * p * noise
            cells.append(_fmt(v))
        rows.append([f"s{i:04d}"] + cells)
    config = out / "study.json"
    data = out / "measures.csv"
    config.write_text(json.dumps(config_doc, indent=2) + "\n", encoding="utf-8")
    _write_csv(data, header, rows)
    return {
        "config": config,
        "data": data,
        "params": {"generator": "scale_study", "seed": seed, "n_rows": n_rows,
                   "n_measures": len(measures)},
    }


def wide_study(out: Path, seed: int, n_datasets: int, rows_per_dataset: int,
               n_risk: int, n_utility: int) -> dict:
    """Several datasets, each with its own reference row, and mixed directions.

    Odd-numbered measures are declared "higher" (risk: higher raw is safer;
    utility: higher raw is better) so that harmonisation flips half of the
    columns. Each dataset shifts the latent privacy level, which gives the
    per-dataset groups something to separate. Every measure gets an
    acceptance threshold, written to a separate thresholds file.
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    measures = []
    for j in range(n_risk):
        measures.append({"id": f"R{j + 1:02d}", "display_name": f"Risk measure {j + 1}",
                         "block": "risk", "direction": "higher" if j % 2 else "lower"})
    for j in range(n_utility):
        measures.append({"id": f"U{j + 1:02d}", "display_name": f"Utility measure {j + 1}",
                         "block": "utility", "direction": "higher" if j % 2 else "lower"})
    scale = rng.uniform(0.5, 2.0, size=len(measures))
    header = ["approach", "dataset"] + [m["id"] for m in measures]
    rows = []
    for d in range(n_datasets):
        ds = f"ds{d + 1}"
        shift = rng.uniform(-0.1, 0.1)
        for i in range(rows_per_dataset):
            p = 0.0 if i == 0 else float(np.clip(rng.uniform(0.05, 0.95) + shift, 0.01, 0.99))
            cells = []
            for j, m in enumerate(measures):
                # latent "badness": risk falls and utility loss rises with p
                bad = (1.0 - p) if m["block"] == "risk" else p
                bad = bad + (0.0 if i == 0 else rng.normal(0.0, 0.08))
                v = scale[j] * (bad if m["direction"] == "lower" else 1.5 - bad)
                cells.append(_fmt(v))
            rows.append(["original" if i == 0 else f"m{i:02d}", ds] + cells)
    thresholds = {
        m["id"]: round(float(rng.uniform(0.5, 0.9) if m["block"] == "risk"
                             else rng.uniform(0.1, 0.5)), 2)
        for m in measures
    }
    config_doc = {"measures": measures, "reference": "original",
                  "options": {"cluster_columns": True}}
    config = out / "study.json"
    data = out / "measures.csv"
    thr = out / "thresholds.json"
    config.write_text(json.dumps(config_doc, indent=2) + "\n", encoding="utf-8")
    _write_csv(data, header, rows)
    thr.write_text(json.dumps(thresholds, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {
        "config": config,
        "data": data,
        "thresholds": thr,
        "params": {"generator": "wide_study", "seed": seed, "n_datasets": n_datasets,
                   "rows_per_dataset": rows_per_dataset, "n_risk": n_risk,
                   "n_utility": n_utility},
    }


def make_inputs(workload: str, seed: int, out: Path, tiny: bool = False) -> dict:
    """Write the inputs of one workload into `out` and describe them."""
    if workload in ("cold_cli", "fixture_report"):
        return fixture_study(out)
    if workload == "scale_report":
        return scale_study(out, seed, **(TINY_SCALE_PARAMS if tiny else SCALE_PARAMS))
    if workload == "wide_options":
        return wide_study(out, seed, **(TINY_WIDE_PARAMS if tiny else WIDE_PARAMS))
    raise ValueError(f"unknown workload '{workload}'")
