"""Benchmark worker: one fresh process per workload run.

The worker imports ruviz, writes the workload's generated inputs, says
"ready", and then serves one command at a time from its client on stdin,
answering each with one JSON line on stdout:

- ``warmup``: run the untimed first operation(s), check them with the pinned
  hashes or the oracles, and keep their bytes as the run's reference;
- ``prep``: choose the next operation's output directory and switch the
  timing wrappers on or off;
- ``run``: perform one operation (the client times this command);
- ``check``: compare the operation's bytes with the reference, then delete
  its output;
- ``stats``: report peak memory and write the spans file;
- ``quit``.
"""

from __future__ import annotations

import sys
import time

_T0 = time.perf_counter()
import ruviz.cli  # noqa: E402  (timed: a fresh process's import of the CLI)

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

import ruviz.config  # noqa: E402
import ruviz.model  # noqa: E402
import ruviz.pipeline  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
LAUNCHER = BENCH_DIR / "launch.py"
SUBCOMMANDS = ("normalize", "pareto", "composite", "pca", "profiles")
# the CLI prints these documents; their bytes equal the report's files
DOC_FILE = {"normalize": "normalized.json", "pareto": "pareto.json",
            "composite": "composite.json", "pca": "pca.json",
            "profiles": "profiles.json"}


class Op:
    """One operation kind; `run` does the work, `output` collects its bytes."""

    def __init__(self, inputs: dict, work: Path, timeout: float):
        self.inputs = inputs
        self.work = work
        self.timeout = timeout
        self.index = 0
        self.out: Path | None = None

    def prepare(self, index: int) -> None:
        self.index = index
        self.out = self.work / "ops" / f"op{index}"

    def key(self) -> str:
        return "report"

    def output(self) -> dict[str, bytes]:
        return checks.read_report(self.out)

    def cleanup(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


class InProcessReport(Op):
    """ingest -> run_study -> write_report, warm, in this process."""

    def run(self) -> None:
        config = ruviz.config.StudyConfig.from_file(self.inputs["config"])
        raw = Path(self.inputs["data"]).read_bytes()
        matrix = ruviz.model.ingest(raw, config)
        result = ruviz.pipeline.run_study(matrix, config)
        ruviz.pipeline.write_report(result, self.out)


class ColdCli(Op):
    """A fresh `python -m ruviz report` per operation.

    When the operation is traced, the child starts through the benchmark's
    launcher instead, which installs the same wrappers and hands its spans
    back in a file.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.traced = False
        self.child_spans: dict | None = None

    def run(self) -> None:
        argv = ["report", "--config", str(self.inputs["config"]),
                "--data", str(self.inputs["data"]), "--out", str(self.out)]
        spans_file = self.work / f"child-spans-{self.index}.json"
        if self.traced:
            cmd = [sys.executable, "-X", "importtime", str(LAUNCHER),
                   str(spans_file)] + argv
        else:
            cmd = [sys.executable, "-m", "ruviz"] + argv
        self.child_spans = None
        proc = subprocess.run(cmd, capture_output=True, timeout=self.timeout,
                              check=False)
        if proc.returncode != 0:
            tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
            raise RuntimeError(f"ruviz exited {proc.returncode}: {' | '.join(tail)}")
        if self.traced:
            self.child_spans = json.loads(spans_file.read_text(encoding="utf-8"))
            spans_file.unlink()


class WideOptions(Op):
    """`ruviz.cli.main` rotating through the analysis subcommands."""

    def prepare(self, index: int) -> None:
        super().prepare(index)
        self.stdout = b""

    def key(self) -> str:
        return SUBCOMMANDS[self.index % len(SUBCOMMANDS)]

    def run(self) -> None:
        argv = [self.key(), "--config", str(self.inputs["config"]),
                "--data", str(self.inputs["data"]), "--robust", "--orient",
                "--thresholds", str(self.inputs["thresholds"])]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = ruviz.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"ruviz.cli.main returned {rc}")
        self.stdout = buf.getvalue().encode("utf-8")

    def output(self) -> dict[str, bytes]:
        return {DOC_FILE[self.key()]: self.stdout}

    def cleanup(self) -> None:
        self.stdout = b""


def make_op(workload: str, inputs: dict, work: Path, timeout: float) -> Op:
    if workload == "cold_cli":
        return ColdCli(inputs, work, timeout)
    if workload in ("fixture_report", "scale_report"):
        return InProcessReport(inputs, work, timeout)
    return WideOptions(inputs, work, timeout)


class Worker:
    def __init__(self, args):
        self.args = args
        self.work = Path(args.dir)
        self.inputs = gen.make_inputs(args.workload, args.seed, self.work / "inputs",
                                      tiny=args.tiny)
        self.tracer = spans.Tracer() if args.trace else None
        self.op = make_op(args.workload, self.inputs, self.work, args.op_timeout)
        self.reference: dict[str, dict[str, str]] = {}
        self.reference_ok = False
        self.next_index = 0
        self.traced = False
        self.run_error: str | None = None
        self.commands: dict[int, str] = {}

    # -- operations --------------------------------------------------------
    def prep(self, traced: bool) -> dict:
        self.op.prepare(self.next_index)
        self.next_index += 1
        self.run_error = None
        self.traced = bool(traced and self.tracer is not None)
        if self.tracer is not None:
            self.tracer.op = self.op.index
            if isinstance(self.op, ColdCli):
                self.op.traced = self.traced
            elif self.traced:
                self.tracer.install()
            else:
                self.tracer.uninstall()
        return {"ok": True, "index": self.op.index, "traced": self.traced}

    def run(self) -> dict:
        token = self.tracer.begin(spans.OP) if self.traced else None
        try:
            self.op.run()
        except Exception:  # any failure of the program counts as a failed op
            self.run_error = traceback.format_exc(limit=3)
        finally:
            if token is not None:
                root = self.tracer.end(token)
                self.commands[self.op.index] = self.op.key()
                if getattr(self.op, "child_spans", None):
                    self.tracer.adopt(self.op.child_spans, parent=root)
        return {"ok": self.run_error is None}

    def check(self) -> dict:
        if self.run_error is not None:
            self.op.cleanup()
            return {"ok": False, "problems": [self.run_error]}
        try:
            files = self.op.output()
        except OSError as exc:
            self.op.cleanup()
            return {"ok": False, "problems": [f"cannot read output: {exc}"]}
        self.op.cleanup()
        got = {name: checks.sha256(data) for name, data in files.items()}
        problems = []
        if not self.reference_ok:
            problems.append("the run's first operation failed its checks")
        elif got != self.reference.get(self.op.key()):
            problems.append(f"{self.op.key()}: bytes differ from the run's first operation")
        return {"ok": not problems, "problems": problems}

    def warmup(self) -> dict:
        """First operation(s): full checks, then kept as the reference."""
        n = len(SUBCOMMANDS) if isinstance(self.op, WideOptions) else 1
        problems: list[str] = []
        docs: dict[str, bytes] = {}
        sizes: dict[str, int] = {}
        for _ in range(n):
            self.prep(traced=False)
            self.run()
            if self.run_error is not None:
                problems.append(self.run_error)
                self.op.cleanup()
                continue
            files = self.op.output()
            self.op.cleanup()
            if isinstance(self.op, WideOptions):
                docs.update(files)
            else:
                problems += checks.report_problems(files)
                if not problems:
                    docs = files
            sizes.update({name: len(data) for name, data in files.items()})
            self.reference[self.op.key()] = {k: checks.sha256(v) for k, v in files.items()}
        meta: dict = {}
        if not problems:
            if self.args.workload in ("cold_cli", "fixture_report"):
                problems += checks.fixture_problems(docs)
            else:
                normalized, pareto, composite = (
                    json.loads(docs[name]) for name in
                    ("normalized.json", "pareto.json", "composite.json"))
                problems += checks.oracle_problems(normalized, pareto, composite)
                meta = {"n_rows": len(normalized["approaches"]),
                        "n_measures": len(normalized["measures"]),
                        "pareto_full_size": len(pareto["pareto_full"]),
                        "pareto_composite_size": len(pareto["pareto_composite"])}
        self.reference_ok = not problems
        # bytes one operation produces; the analysis commands rotate, so
        # their figure is the mean over one rotation
        op_bytes = sum(sizes.values()) / n
        return {"ok": self.reference_ok, "problems": problems[:5], "meta": meta,
                "artifact_bytes": op_bytes,
                "artifact_sizes": {k: v for k, v in sizes.items() if k != "manifest.json"}}

    def stats(self) -> dict:
        who = (resource.RUSAGE_CHILDREN if self.args.workload == "cold_cli"
               else resource.RUSAGE_SELF)
        doc = {"peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}
        if self.tracer is not None:
            self.tracer.uninstall()
            path = self.work / "spans.json"
            self.tracer.write(path)
            doc["spans_file"] = str(path)
            doc["commands"] = self.commands
        return doc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--op-timeout", type=float, required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    expected = (BENCH_DIR.parent / "src" / "ruviz").resolve()
    if Path(ruviz.cli.__file__).resolve().parent != expected:
        print(f"worker: imported ruviz from {ruviz.cli.__file__}, not {expected}",
              file=sys.stderr)
        return 2
    worker = Worker(args)
    channel = sys.stdout

    def send(doc: dict) -> None:
        channel.write(json.dumps(doc) + "\n")
        channel.flush()

    send({"event": "ready", "import_s": IMPORT_S, "env": {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "generator": worker.inputs["params"]}})
    handlers = {"warmup": lambda cmd: worker.warmup(),
                "prep": lambda cmd: worker.prep(cmd.get("traced", False)),
                "run": lambda cmd: worker.run(),
                "check": lambda cmd: worker.check(),
                "stats": lambda cmd: worker.stats()}
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "quit":
            break
        send(handlers[cmd["cmd"]](cmd))
    return 0


if __name__ == "__main__":
    sys.exit(main())
