"""Command-line interface.

Subcommands: validate, normalize, pareto, composite, pca, profiles,
plot <kind>, report. Analysis subcommands print JSON to stdout; `plot` and
`report` write files. The CLI is stateless: every invocation starts from
--config and --data, and computes only the stages its output needs (`report`
computes all of them). So on a 3-row study `normalize`, `pareto`,
`composite`, `profiles` and every plot but `biplot` and `sdod` succeed, while
`pca`, `plot biplot`, `plot sdod` and `report` exit 2: the joint PCA needs at
least 4 fitted rows. The `warnings` that `normalize` prints come from the
stages it ran; the report's `normalized.json` lists those of every stage.

Exit codes: 0 success, 1 validation or write error, 2 analysis error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields, replace
from pathlib import Path

from .__about__ import NAME, VERSION
from .config import LINKAGES, OD_CUT_MODES, StudyConfig, load_thresholds
from .errors import AnalysisError, ValidationError
from .model import Block, ingest
from .pipeline import (
    FIGURE_BUILDERS,
    JSON_BUILDERS,
    StudyResult,
    _atomic_write,
    _dump_json,
    render_plot,
    run_study,
    write_report,
)

PLOT_KINDS = tuple(FIGURE_BUILDERS)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache  # one parser per process; each parse returns a new namespace
def _build_parser() -> _Parser:
    parser = _Parser(
        prog=NAME,
        description=(
            "Evaluate anonymization approaches across multiple disclosure-risk "
            "and utility measures: Pareto analysis, composite scores, PCA "
            "diagnostics, and deterministic SVG figures."
        ),
    )
    parser.add_argument("--version", action="version", version=f"{NAME} {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="study config JSON file")
        p.add_argument("--data", required=True, help="measures CSV file")
        p.add_argument(
            "--exclude-reference-from-range",
            action="store_true",
            default=None,
            help="drop the reference row from per-measure min/max ranges",
        )
        p.add_argument(
            "--orient",
            action="store_true",
            default=None,
            help="sign-fix PC1 toward utility and PC2 toward low risk",
        )
        p.add_argument("--od-cut", choices=OD_CUT_MODES, default=None,
                       dest="od_cut_mode", help="orthogonal-distance cutoff mode")
        p.add_argument("--r-aux", type=float, default=None,
                       help="auxiliary spoke radius for radial profiles")
        p.add_argument("--linkage", choices=LINKAGES, default=None,
                       help="clustering linkage for heatmap row order")
        p.add_argument("--seed", type=int, default=None, help="random seed")
        p.add_argument("--robust", action="store_true", default=None,
                       help="use the outlier-resistant PCA for diagnostics")
        p.add_argument("--thresholds", default=None,
                       help="JSON file of per-measure acceptance cutoffs")

    for name, descr in (
        ("validate", "check the config and data, print a schema summary"),
        ("normalize", "print the harmonized, normalized matrix as JSON"),
        ("pareto", "print Pareto sets, front, knee, and reference rays as JSON"),
        ("composite", "print composite scores and reliability as JSON"),
        ("pca", "print the PCA model, alignment, SD/OD table, and blockwise "
                "results as JSON"),
        ("profiles", "print radial profiles and ranked areas as JSON"),
    ):
        p = sub.add_parser(name, help=descr)
        add_common(p)

    p_plot = sub.add_parser("plot", help="render one figure as SVG")
    p_plot.add_argument("kind", choices=PLOT_KINDS)
    add_common(p_plot)
    p_plot.add_argument("--out", default=None,
                        help="output directory (default: config out_dir or 'out')")

    p_report = sub.add_parser(
        "report", help="write all JSON artifacts, eight SVGs, and a manifest"
    )
    add_common(p_report)
    p_report.add_argument("--out", default=None,
                          help="output directory (default: config out_dir or 'out')")
    return parser


def _load(args) -> tuple[StudyConfig, "object"]:
    config = StudyConfig.from_file(args.config)
    flags = {f.name: getattr(args, f.name) for f in fields(config.options)
             if getattr(args, f.name, None) is not None}
    if args.thresholds is not None:  # the flag names a file of cutoffs
        flags["thresholds"] = load_thresholds(args.thresholds)
    config = replace(config, options=replace(config.options, **flags))

    data_path = Path(args.data)
    try:
        raw = data_path.read_bytes()
    except OSError as exc:
        raise ValidationError(f"data: cannot read '{data_path}' ({exc})") from None
    matrix = ingest(raw, config)
    return config, matrix


def _cmd_validate(args) -> int:
    config, matrix = _load(args)
    n_risk = len(matrix.block_indices(Block.RISK))
    n_util = len(matrix.block_indices(Block.UTILITY))
    datasets = [d for d in matrix.approaches.dataset_names if d is not None]
    print(f"rows: {len(matrix.labels)}")
    print(f"measures: {len(matrix.specs)} ({n_risk} risk, {n_util} utility)")
    print(f"reference: {config.reference_id}")
    print(f"datasets: {', '.join(datasets) if datasets else '(single)'}")
    print("ok")
    return 0


def _cmd_analysis(args) -> int:
    config, matrix = _load(args)
    key = {"normalize": "normalized"}.get(args.command, args.command)
    sys.stdout.write(_dump_json(JSON_BUILDERS[key](StudyResult(matrix, config))))
    return 0


def _cmd_plot(args) -> int:
    config, matrix = _load(args)
    doc = render_plot(StudyResult(matrix, config), args.kind)
    out = Path(args.out if args.out is not None else config.options.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.kind}.svg"
    _atomic_write(path, doc.to_svg().encode("utf-8"))
    print(f"wrote {path}")
    return 0


def _cmd_report(args) -> int:
    config, matrix = _load(args)
    result = run_study(matrix, config)
    out = args.out if args.out is not None else config.options.out_dir
    manifest = write_report(result, out)
    for entry in manifest["artifacts"]:
        print(f"{entry['sha256'][:12]}  {entry['name']}")
    print(f"wrote {len(manifest['artifacts'])} artifacts to {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {"validate": _cmd_validate, "plot": _cmd_plot,
               "report": _cmd_report}.get(args.command, _cmd_analysis)
    try:
        return handler(args)
    except (ValidationError, OSError) as exc:
        message, code = f"{NAME}: {exc}", 1
    except AnalysisError as exc:
        message, code = f"{NAME}: analysis error: {exc}", 2
    # one line, whatever the input the message quotes holds
    print(message.replace("\r", "\\r").replace("\n", "\\n"), file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
