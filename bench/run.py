"""ruviz benchmark: one workload, one closed-loop client, one fresh worker.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each was chosen):

- cold_cli: a fresh `python -m ruviz report` on the committed fixture per
  operation;
- fixture_report: warm in-process ingest -> run_study -> write_report on the
  fixture;
- scale_report: the same on a seeded 400-row single-dataset study;
- wide_options: warm `ruviz.cli.main` calls rotating through the five
  analysis subcommands on a seeded 4-dataset, 16-measure study with robust
  PCA, orientation, column clustering and a threshold on every measure.

The client starts the worker several times to time set-up, keeps the last
one, runs an untimed checked warm-up, then sends one operation at a time and
times each from outside. Every operation's output is checked outside the
timed region. With --trace 1 every other operation runs with timing wrappers
and the per-layer metrics are printed instead of the end-to-end ones.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The full record, with the environment, goes to
.bench_out/results/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import queue
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("cold_cli", "fixture_report", "scale_report", "wide_options")
# Seconds one operation may take before it counts as failed; several times
# the seed code's time on a 2-core host.
OP_TIMEOUT = {"cold_cli": 30.0, "fixture_report": 10.0, "scale_report": 60.0,
              "wide_options": 20.0}
READY_TIMEOUT = 60.0
SETUP_STARTS = 3  # worker starts per run; setup_s is their median
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
TAIL_BEYOND = 10  # op_tail_s: highest percentile with this many samples beyond
TAIL_CAP = 0.75
# the report's 13 artifact files, as in checks.FIXTURE_SHA256; the client
# itself imports neither numpy nor ruviz
ARTIFACTS = ("biplot.svg", "blockwise.svg", "composite.json", "composite_ru.svg",
             "dotplot.svg", "heatmap.svg", "normalized.json", "origami.svg",
             "pareto.json", "pca.json", "pcp.svg", "profiles.json", "sdod.svg")
IMPORTTIME_RE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s+ruviz\.multivariate$")


class WorkerGone(Exception):
    """The worker exited, or did not answer within its timeout."""


class WorkerProcess:
    """A worker subprocess spoken to in JSON lines."""

    def __init__(self, args, env: dict, work: Path, importtime: bool):
        cmd = [sys.executable]
        if importtime:
            cmd += ["-X", "importtime"]
        cmd += [str(BENCH_DIR / "worker.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--trace", str(args.trace),
                "--dir", str(work), "--op-timeout", str(OP_TIMEOUT[args.workload])]
        if args.tiny:
            cmd.append("--tiny")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, env=env, text=True,
                                     cwd=ROOT)
        self.lines: queue.Queue = queue.Queue()
        self.stderr: list[str] = []
        self._threads = [
            threading.Thread(target=self._pump, args=(self.proc.stdout, self.lines.put),
                             daemon=True),
            threading.Thread(target=self._pump, args=(self.proc.stderr, self.stderr.append),
                             daemon=True),
        ]
        for t in self._threads:
            t.start()

    @staticmethod
    def _pump(stream, sink) -> None:
        for line in stream:
            sink(line)
        sink(None)

    def receive(self, timeout: float) -> dict:
        try:
            line = self.lines.get(timeout=timeout)
        except queue.Empty:
            raise WorkerGone(f"no answer within {timeout:.0f} s") from None
        if line is None:
            self.close()
            tail = "".join(s for s in self.stderr[-5:] if s)
            raise WorkerGone(f"worker exited {self.proc.returncode}: {tail.strip()}")
        return json.loads(line)

    def request(self, doc: dict, timeout: float) -> dict:
        try:
            self.proc.stdin.write(json.dumps(doc) + "\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError):
            pass  # the reader sees the exit and reports it
        return self.receive(timeout)

    def close(self) -> None:
        """Ask the worker to quit, kill it if it does not, and reap it."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write('{"cmd": "quit"}\n')
                self.proc.stdin.flush()
                self.proc.stdin.close()
            except (BrokenPipeError, OSError):
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for t in self._threads:
            t.join(timeout=5)
        for stream in (self.proc.stdin, self.proc.stdout, self.proc.stderr):
            try:
                stream.close()
            except (OSError, ValueError):
                pass

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.close()


def tail_stat(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the run's tail latency.

    The highest percentile with at least TAIL_BEYOND samples beyond it,
    capped at p75 and never below the median: a run with fewer than
    2 * TAIL_BEYOND + 1 samples reports its median. On a shared 2-core host
    the p90 of 35 ms operations moved by 40% from run to run as other
    tenants' load came and went; p75 moved about half as much.
    """
    xs = sorted(samples)
    n = len(xs)
    q = min(TAIL_CAP, (n - TAIL_BEYOND) / n)
    if q <= 0.5:
        return statistics.median(xs), 50.0, n // 2
    k = math.ceil(q * n) - 1  # nearest rank
    return xs[k], 100.0 * q, n - k - 1


def importtime_multivariate(stderr_lines: list) -> float | None:
    for line in stderr_lines:
        m = IMPORTTIME_RE.search((line or "").rstrip())
        if m:
            return int(m.group(1)) / 1e6
    return None


def environment(ready: dict, args) -> dict:
    return {
        **ready["env"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_thread_cap": THREAD_CAPS,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "host_note": ("timings come from a shared host; other tenants' load "
                      "adds noise, so compare medians of several seeded runs"),
    }


def run(args) -> dict | None:
    if not (ROOT / "src" / "ruviz").is_dir() or not (ROOT / "tests" / "data").is_dir():
        print(f"benchmark: {ROOT} has no src/ruviz or tests/data to measure",
              file=sys.stderr)
        return None
    env = dict(os.environ)
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = str(ROOT / "src")
    work_root = OUT_DIR / "work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work_root, ignore_errors=True)
    work_root.mkdir(parents=True)
    timeout = OP_TIMEOUT[args.workload]
    starts: list[WorkerProcess] = []
    try:
        # set-up: start the worker several times, keep the last one
        setup, imports = [], []
        for k in range(SETUP_STARTS):
            # a traced run times the imports of its first start with -X importtime
            worker = WorkerProcess(args, env, work_root / f"w{k}",
                                   importtime=bool(args.trace) and k == 0)
            starts.append(worker)
            try:
                ready = worker.receive(READY_TIMEOUT)
            except WorkerGone as exc:
                print(f"benchmark: worker did not start: {exc}", file=sys.stderr)
                return None
            setup.append(time.perf_counter() - worker.started)
            if not (args.trace and k == 0):
                imports.append(ready["import_s"])
            if k < SETUP_STARTS - 1:
                worker.close()

        attempted = failed = 0
        problems: list[str] = []
        warm_timeout = timeout * (5 if args.workload == "wide_options" else 1) + 60
        try:
            warm = worker.request({"cmd": "warmup"}, warm_timeout)
        except WorkerGone as exc:
            warm = {"ok": False, "problems": [f"warm-up: {exc}"], "meta": {},
                    "artifact_bytes": 0, "artifact_sizes": {}}
            worker.kill()
        if not warm["ok"]:
            problems += warm["problems"]

        latencies: list[float] = []
        traced_latencies: list[float] = []
        ok_ops = 0
        t_begin = time.perf_counter()
        i = 0
        while worker.proc.poll() is None:
            elapsed = time.perf_counter() - t_begin
            if elapsed >= args.seconds and (not args.trace or i >= 2):
                break
            traced = bool(args.trace) and i % 2 == 0
            i += 1
            try:
                worker.request({"cmd": "prep", "traced": traced}, READY_TIMEOUT)
            except WorkerGone as exc:
                problems.append(f"op {i}: {exc}")
                worker.kill()
                break
            attempted += 1
            t0 = time.perf_counter()
            try:
                res = worker.request({"cmd": "run"}, timeout)
            except WorkerGone as exc:
                res = {"ok": False}
                problems.append(f"op {i}: {exc}")
                worker.kill()
            t_last = time.perf_counter()
            (traced_latencies if traced else latencies).append(t_last - t0)
            if not res["ok"] and worker.proc.poll() is not None:
                failed += 1
                break
            chk = worker.request({"cmd": "check"}, READY_TIMEOUT)
            if res["ok"] and chk["ok"]:
                ok_ops += 1
            else:
                failed += 1
                if len(problems) < 5:
                    problems += [p.strip().splitlines()[-1] for p in chk["problems"]]
        window = max(sum(latencies) + sum(traced_latencies), 1e-9)

        stats = {}
        if worker.proc.poll() is None:
            stats = worker.request({"cmd": "stats"}, READY_TIMEOUT)
        worker.close()
        mv_imports = [mv for mv in (importtime_multivariate(w.stderr) for w in starts)
                      if mv is not None]
        peak_rss_mb = stats.get("peak_rss_mb",
                                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
        if attempted == 0:  # the warm-up failed or hung: count it
            attempted = failed = 1
            latencies = [time.perf_counter() - t_begin]
        timed = latencies or traced_latencies
        op_p50 = statistics.median(timed)
        tail, tail_pct, tail_beyond = tail_stat(timed)
        e2e = {
            "op_p50_s": (op_p50, "s"),
            "op_tail_s": (tail, "s"),
            "ops_per_s": (ok_ops / window, "1/s"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "artifact_bytes": (warm["artifact_bytes"], "bytes"),
        }
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted,
            "problems": problems[:10],
            "environment": environment(ready, args),
            "study": warm.get("meta", {}),
            "samples": {"latencies_s": latencies, "traced_latencies_s": traced_latencies,
                        "setup_s": setup, "window_s": window,
                        "op_tail_percentile": tail_pct,
                        "op_tail_samples_beyond": tail_beyond},
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        }
        if args.trace:
            record["per_layer"], record["layer_table"] = per_layer(
                stats, warm, imports, mv_imports, latencies, traced_latencies)
        return record
    finally:
        for w in starts:
            w.close()
        shutil.rmtree(work_root, ignore_errors=True)


def per_layer(stats, warm, imports, mv_imports, latencies, traced_latencies):
    """Per-layer metrics from the traced operations, and the report rows."""
    metrics: dict[str, tuple[float, str]] = {}
    doc = {"spans": [], "counts": [], "missing": []}
    if "spans_file" in stats:
        doc = json.loads(Path(stats["spans_file"]).read_text(encoding="utf-8"))
    ops = spans.per_op_layers(doc["spans"], doc["counts"])
    traced_ops = sorted(ops)
    commands = {int(k): v for k, v in stats.get("commands", {}).items()}

    def med(key: str) -> float:
        return spans.median(ops[o].get(key, 0.0) for o in traced_ops)

    metrics["cli.import_s"] = (spans.median(imports), "s")
    metrics["multivariate.import_s"] = (spans.median(mv_imports), "s")
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = (med(f"{layer}.self_s"), "s")
    metrics["ordering.hclust.calls"] = (med("ordering.hclust.calls"), "count")
    for counter in spans.COUNTERS:
        metrics[counter] = (med(counter), "count")
    by_op: dict[int, list] = {}
    for s in doc["spans"]:
        by_op.setdefault(s[0], []).append(s)
    metrics["pipeline.unneeded_share"] = (spans.median(
        spans.unneeded_share(by_op[o], commands.get(o, "report")) for o in traced_ops),
        "ratio")
    sizes = warm.get("artifact_sizes", {})
    for name in ARTIFACTS:
        metrics[f"pipeline.bytes.{name}"] = (float(sizes.get(name, 0)), "bytes")
    untraced_p50 = spans.median(latencies)
    overhead = (spans.median(traced_latencies) - untraced_p50
                if latencies and traced_latencies else 0.0)
    metrics["trace.overhead_s"] = (overhead, "s")

    rows = []
    extra = {"op.self_s": med("op.self_s"), "cli.import.self_s": med("cli.import.self_s")}
    for name, (value, unit) in list(metrics.items()) + [(k, (v, "s")) for k, v in extra.items()]:
        share = value / untraced_p50 if unit == "s" and untraced_p50 > 0 else None
        rows.append({"metric": name, "value": value, "unit": unit,
                     "share_of_op_p50": share})
    table = {"op_p50_s": untraced_p50, "trace_overhead_s": overhead,
             "traced_ops": len(traced_ops), "missing_targets": doc.get("missing", []),
             "rows": rows}
    return metrics, table


def main() -> int:
    ap = argparse.ArgumentParser(description="ruviz benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small generated studies, for the benchmark's own tests")
    args = ap.parse_args()

    record = run(args)
    if record is None:
        return 1
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    if args.trace:
        metrics = record["per_layer"]
        table = record["layer_table"]
        print(f"{args.workload}: op_p50_s {table['op_p50_s']:.6f}  "
              f"trace overhead {table['trace_overhead_s']:+.6f} s  "
              f"({table['traced_ops']} traced ops)")
        for row in table["rows"]:
            share = row["share_of_op_p50"]
            share_s = f"{100 * share:6.1f}%" if share is not None else "      "
            print(f"  {row['metric']:<46} {row['value']:>14.6f} {row['unit']:<6} {share_s}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        metrics = record["end_to_end"]
        for name, m in metrics.items():
            print(f"{args.workload} {name}: {m['value']:.6g} {m['unit']}")
    for p in record["problems"]:
        print(f"problem: {p}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
