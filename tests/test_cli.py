import ast
import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ruviz
from ruviz import cli
from ruviz.cli import main
from ruviz.config import StudyOptions
from conftest import generated_study
from test_pipeline import FIXTURE_SHA256

DATA = Path(__file__).parent / "data"


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    return code


def common_args(tmp_path=None):
    return ["--config", str(DATA / "study.json"), "--data", str(DATA / "measures.csv")]


# a thresholds file with one cutoff; the fixture has no thresholds file
THRESHOLDS_BYTES = b'{"RepU": 0.35}\n'


def input_bytes(name):
    """The bytes of one input file: the fixture's, or the thresholds above."""
    return THRESHOLDS_BYTES if name == "thresholds.json" else (DATA / name).read_bytes()


def args_with_file(flag, path):
    """The fixture's arguments with `flag` naming `path`."""
    argv = common_args()
    if flag not in argv:
        return [*argv, flag, str(path)]
    argv[argv.index(flag) + 1] = str(path)
    return argv


class TestValidate:
    def test_ok(self, capsys):
        assert main(["validate", *common_args()]) == 0
        out = capsys.readouterr().out
        assert "rows: 9" in out
        assert "5 risk, 5 utility" in out

    def test_missing_column_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        text = (DATA / "measures.csv").read_text()
        bad.write_text(text.replace("RepU", "RepX"))
        code = main(["validate", "--config", str(DATA / "study.json"),
                     "--data", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert "RepU" in err

    def test_unreadable_file_exit_1(self, capsys):
        code = main(["validate", "--config", str(DATA / "study.json"),
                     "--data", "/nonexistent.csv"])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_unknown_flag_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate", *common_args(), "--frobnicate"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv,line", [
        ([], "ruviz: the following arguments are required: command"),
        (["validate", *common_args(), "--frobnicate"],
         "ruviz: unrecognized arguments: --frobnicate"),
        (["validate"], "ruviz: validate: the following arguments are required: --config, --data"),
        (["validate", *common_args(), "--seed", "x"],
         "ruviz: validate: argument --seed: invalid int value: 'x'"),
        (["plot", "bogus", *common_args()], "ruviz: plot: argument kind: invalid choice: 'bogus'"),
    ], ids=["no-command", "unknown-flag", "no-config-or-data", "bad-seed", "bad-plot-kind"])
    def test_usage_error_prints_one_line_exit_1(self, capsys, argv, line):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(line) and captured.err.count("\n") == 1
        assert captured.err.endswith("\n")

    def test_bad_option_value_exit_1(self, capsys):
        code = main(["validate", *common_args(), "--r-aux", "7"])
        assert code == 1
        assert "r_aux" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("robust", "no"),
        ("exclude_reference_from_range", "false"),
        ("orient", 1),
        ("out_dir", 5),
        ("r_aux", "0.1"),
        ("thresholds", [1]),
        ("thresholds", {"nope": 0.5}),
    ])
    def test_mistyped_config_option_exit_1(self, tmp_path, capsys, field, value):
        cfg = json.loads((DATA / "study.json").read_text())
        cfg["options"][field] = value
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["validate", "--config", str(cfg_path),
                     "--data", str(DATA / "measures.csv")])
        assert code == 1
        assert f"options.{field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["validate", "pareto", "report"])
    def test_unknown_threshold_id_exit_1(self, tmp_path, capsys, cmd):
        tfile = tmp_path / "thresholds.json"
        tfile.write_text(json.dumps({"nope": 0.5}))
        out = tmp_path / "out"
        argv = [cmd, *common_args(), "--thresholds", str(tfile)]
        code = main(argv + (["--out", str(out)] if cmd == "report" else []))
        assert code == 1
        err = capsys.readouterr().err
        assert "options.thresholds: unknown measure id(s) ['nope']" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,name,prefix", [
        ("--config", "study.json", "config"),
        ("--data", "measures.csv", "data"),
        ("--thresholds", "thresholds.json", "thresholds"),
    ])
    def test_utf16_file_exit_1(self, tmp_path, capsys, flag, name, prefix):
        # UTF-16 text, as some Windows editors save it, starts with bytes ff fe
        bad = tmp_path / name
        bad.write_bytes(b"\xff\xfe" + input_bytes(name).decode().encode("utf-16-le"))
        argv = args_with_file(flag, bad)
        assert main(["validate", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ruviz: {prefix}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag,name,prefix", [
        ("--config", "study.json", "config"),
        ("--thresholds", "thresholds.json", "thresholds"),
    ])
    def test_deeply_nested_json_exit_1(self, tmp_path, capsys, flag, name, prefix):
        # the json module recurses once per level, past the interpreter's limit
        deep = tmp_path / name
        deep.write_text("[" * 100_000)
        assert main(["validate", *args_with_file(flag, deep)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ruviz: {prefix}: invalid JSON (")
        assert err.count("\n") == 1

    def test_oversized_csv_cell_exit_1(self, tmp_path, capsys):
        # the csv module reads no field over 131,072 characters by default
        rows = (DATA / "measures.csv").read_text().splitlines()
        rows[2] = "a" * 200_000 + rows[2][rows[2].index(","):]
        data = tmp_path / "measures.csv"
        data.write_text("\n".join(rows) + "\n")
        assert main(["validate", *args_with_file("--data", data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ruviz: data line 3: field larger than field limit")
        assert err.count("\n") == 1

    def test_short_row_names_its_file_line_exit_1(self, tmp_path, capsys):
        # blank lines count: the short row is on file line 5
        header, first, second, *rest = (DATA / "measures.csv").read_text().splitlines()
        data = tmp_path / "measures.csv"
        short = second.rsplit(",", 1)[0]
        data.write_text("\n".join([header, "", "", first, short, *rest]) + "\n")
        assert main(["validate", *args_with_file("--data", data)]) == 1
        assert capsys.readouterr().err == (
            "ruviz: data line 5: expected 11 fields, got 10\n")

    @pytest.mark.parametrize("flag,name", [
        ("--config", "study.json"),
        ("--data", "measures.csv"),
        ("--thresholds", "thresholds.json"),
    ])
    def test_byte_order_mark_accepted(self, tmp_path, capsys, flag, name):
        # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark
        bom = tmp_path / name
        bom.write_bytes(b"\xef\xbb\xbf" + input_bytes(name))
        argv = args_with_file(flag, bom)
        assert main(["validate", *argv]) == 0
        if flag == "--thresholds":
            capsys.readouterr()
            assert main(["pca", *argv]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["acceptance_polygon"]["thresholds"]["RepU"] == 0.35
            return
        out = tmp_path / "report"
        assert main(["report", *argv, "--out", str(out)]) == 0
        assert {n: hashlib.sha256((out / n).read_bytes()).hexdigest()
                for n in FIXTURE_SHA256} == FIXTURE_SHA256


def edited_inputs(tmp_path, config_edit=None, csv_lines_edit=None):
    """Files of the fixture after `config_edit` changes its parsed config
    in place and `csv_lines_edit` maps the list of its CSV lines."""
    cfg = json.loads((DATA / "study.json").read_text())
    if config_edit is not None:
        config_edit(cfg)
    lines = (DATA / "measures.csv").read_text().splitlines()
    if csv_lines_edit is not None:
        lines = csv_lines_edit(lines)
    (tmp_path / "study.json").write_text(json.dumps(cfg))
    (tmp_path / "measures.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ["--config", str(tmp_path / "study.json"),
            "--data", str(tmp_path / "measures.csv")]


def set_measure(index, key, value):
    def edit(cfg):
        cfg["measures"][index][key] = value
    return edit


def with_dataset(name_of_line):
    """A CSV edit that adds a dataset column, `name_of_line(line_no)` per row."""
    def edit(lines):
        head, *rows = lines
        return [head.replace("approach,", "approach,dataset,", 1)] + [
            row.replace(",", f",{name_of_line(n)},", 1) for n, row in enumerate(rows, 2)]
    return edit


class TestInputText:
    """Every string that a user supplies and the artifacts print must be
    text that XML 1.0 can carry, and a display name must be a string."""

    @pytest.mark.parametrize("config_edit,csv_lines_edit,where,char", [
        (set_measure(0, "display_name", "\ud800"), None,
         "config.measures[0].display_name", "U+D800"),
        (set_measure(0, "display_name", "Replicated\x01uniques"), None,
         "config.measures[0].display_name", "U+0001"),
        (set_measure(3, "display_name", "TCAP \ufffe"), None,
         "config.measures[3].display_name", "U+FFFE"),
        (set_measure(1, "id", "Di\x0bSCO"), None, "config.measures[1].id", "U+000B"),
        (lambda cfg: cfg.update(reference="orig\x1final"), None,
         "config.reference", "U+001F"),
        (None, lambda lines: [line.replace("synthpop", "synth\x01pop") for line in lines],
         "data line 3: approach id", "U+0001"),
        (None, with_dataset(lambda n: "d\uffff" if n == 5 else "d1"),
         "data line 5: dataset", "U+FFFF"),
    ], ids=["surrogate_display_name", "control_display_name", "nonchar_display_name",
            "measure_id", "reference", "approach", "dataset"])
    @pytest.mark.parametrize("cmd", ["report", "normalize"])
    def test_text_outside_xml_chars_exit_1(self, tmp_path, capsys, cmd, config_edit,
                                           csv_lines_edit, where, char):
        argv = edited_inputs(tmp_path, config_edit, csv_lines_edit)
        out = tmp_path / "out"
        assert main([cmd, *argv, *(["--out", str(out)] if cmd == "report" else [])]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"ruviz: {where} holds {char}, ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_tabs_are_accepted(self, tmp_path, capsys):
        argv = edited_inputs(
            tmp_path, set_measure(0, "display_name", "Replicated\tuniques"),
            lambda lines: with_dataset(lambda n: "d\t1")(
                [line.replace("synthpop", "synth\tpop") for line in lines]))
        out = tmp_path / "out"
        assert main(["report", *argv, "--out", str(out)]) == 0
        for svg in out.glob("*.svg"):
            ET.parse(svg)
        normalized = json.loads((out / "normalized.json").read_text())
        assert normalized["measures"][0]["display_name"] == "Replicated\tuniques"
        assert "synth\tpop@d\t1" in {a["label"] for a in normalized["approaches"]}

    @pytest.mark.parametrize("value", [None, 5, [1, 2], True, {"a": 1}])
    def test_display_name_that_is_not_a_string_exit_1(self, tmp_path, capsys, value):
        argv = edited_inputs(tmp_path, set_measure(2, "display_name", value))
        assert main(["normalize", *argv]) == 1
        assert capsys.readouterr().err == (
            f"ruviz: config.measures[2].display_name: must be a string, got {value!r}\n")

    def test_missing_display_name_is_the_id(self, tmp_path, capsys):
        argv = edited_inputs(tmp_path, lambda cfg: cfg["measures"][2].pop("display_name"))
        assert main(["normalize", *argv]) == 0
        measures = json.loads(capsys.readouterr().out)["measures"]
        assert measures[2]["display_name"] == measures[2]["id"] == "DCAP"


def three_measure_args(tmp_path, n_rows):
    """Files of a study with two risk and one utility measure, `n_rows` rows."""
    cfg = {"measures": [{"id": "r0", "block": "risk", "direction": "lower"},
                        {"id": "r1", "block": "risk", "direction": "lower"},
                        {"id": "u0", "block": "utility", "direction": "higher"}],
           "reference": "orig"}
    rows = ["approach,r0,r1,u0", "orig,1.0,1.0,1.0"]
    rows += [f"m{i},{0.1 + 0.17 * i:.2f},{0.9 - 0.13 * i:.2f},{0.2 + 0.3 * (i % 3):.2f}"
             for i in range(n_rows - 1)]
    (tmp_path / "study.json").write_text(json.dumps(cfg))
    (tmp_path / "measures.csv").write_text("\n".join(rows) + "\n")
    return ["--config", str(tmp_path / "study.json"),
            "--data", str(tmp_path / "measures.csv")]


def references_only_csv(tmp_path, n_datasets):
    """A measures file of `n_datasets` datasets, each holding only a reference
    row: the fixture's reference values, then those of its candidates."""
    header, *rows = (DATA / "measures.csv").read_text().splitlines()
    name = rows[0].split(",", 1)[0]
    csv = tmp_path / "measures.csv"
    csv.write_text("\n".join([f"approach,dataset,{header.split(',', 1)[1]}"] + [
        f"{name},d{i},{row.split(',', 1)[1]}" for i, row in enumerate(rows[:n_datasets])
    ]) + "\n")
    return csv


class TestStagedCommands:
    """Each subcommand computes only the stages its output needs."""

    @pytest.mark.parametrize("argv", [
        ["normalize"], ["pareto"], ["composite"], ["profiles"],
        ["plot", "heatmap"],
    ])
    def test_three_rows_suffice_without_pca(self, tmp_path, capsys, argv):
        args = three_measure_args(tmp_path, n_rows=3)
        out = ["--out", str(tmp_path)] if argv[0] == "plot" else []
        assert main([*argv, *args, *out]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [
        ["pca"], ["plot", "biplot"], ["plot", "sdod", "--robust"],
    ])
    def test_three_rows_fail_the_pca(self, tmp_path, capsys, argv):
        args = three_measure_args(tmp_path, n_rows=3)
        out = ["--out", str(tmp_path)] if argv[0] == "plot" else []
        assert main([*argv, *args, *out]) == 2
        assert "at least 4 fitted rows" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["pareto", "composite", "normalize"])
    def test_unprinted_stages_do_not_run(self, tmp_path, capsys, monkeypatch, cmd):
        def fail(*args, **kwargs):
            raise AssertionError("stage ran although its output is not printed")

        monkeypatch.setattr("ruviz.pipeline.robust_pca", fail)
        monkeypatch.setattr("ruviz.pipeline.project_acceptance_region", fail)
        tfile = tmp_path / "thresholds.json"
        tfile.write_text(json.dumps({"RepU": 0.5}))
        argv = [cmd, *common_args(), "--robust", "--thresholds", str(tfile)]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)


class TestAnalysisCommands:
    @pytest.mark.parametrize("cmd,key", [
        ("normalize", "values"),
        ("pareto", "pareto_composite"),
        ("composite", "reliability"),
        ("pca", "sd_od"),
        ("profiles", "areas"),
    ])
    def test_emits_json_with_key(self, capsys, cmd, key):
        assert main([cmd, *common_args()]) == 0
        out = capsys.readouterr().out
        assert key in json.loads(out)
        name = {"normalize": "normalized"}.get(cmd, cmd) + ".json"
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FIXTURE_SHA256[name]

    def test_pareto_schema(self, capsys):
        main(["pareto", *common_args()])
        doc = json.loads(capsys.readouterr().out)
        for key in ("pareto_full", "pareto_composite", "knee", "edges", "rays"):
            assert key in doc
        assert doc["reference"] == "original"
        assert all(r["id"] != "original" for r in doc["rays"])

    def test_robust_flag_switches_model(self, capsys):
        main(["pca", *common_args(), "--robust"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["sd_od"]["robust"] is True

    def test_orient_flag(self, capsys):
        main(["pca", *common_args(), "--orient"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["alignment"]["corr_utility"] >= 0.0

    def test_literal_od_cut(self, capsys):
        main(["pca", *common_args(), "--od-cut", "literal"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["sd_od"]["mode"] == "literal"

    def test_thresholds_add_acceptance_polygon(self, tmp_path, capsys):
        tfile = tmp_path / "thresholds.json"
        tfile.write_text(json.dumps({"RepU": 0.5, "Proximity": 0.4}))
        main(["pca", *common_args(), "--thresholds", str(tfile)])
        doc = json.loads(capsys.readouterr().out)
        poly = doc["acceptance_polygon"]
        assert poly["thresholds"]["RepU"] == 0.5
        assert poly["thresholds"]["DiSCO"] == 1.0  # default for risk
        assert len(poly["vertices"]) >= 3

    def test_analysis_error_exit_2(self, tmp_path, capsys):
        # 3 rows pass ingest but are too few for the PCA pipeline
        csv = tmp_path / "tiny.csv"
        header, *rows = (DATA / "measures.csv").read_text().strip().splitlines()
        csv.write_text("\n".join([header, *rows[:3]]) + "\n")
        code = main(["pca", "--config", str(DATA / "study.json"),
                     "--data", str(csv)])
        assert code == 2
        assert "at least 4" in capsys.readouterr().err


class TestPlot:
    @pytest.mark.parametrize("kind", [
        "heatmap", "dotplot", "composite_ru", "rays", "pcp", "origami",
        "biplot", "sdod", "blockwise",
    ])
    def test_each_kind_renders(self, tmp_path, capsys, kind):
        code = main(["plot", kind, *common_args(), "--out", str(tmp_path)])
        assert code == 0
        svg = (tmp_path / f"{kind}.svg").read_text()
        ET.fromstring(svg)

    def check_no_candidates(self, tmp_path, capsys, kind):
        argv = args_with_file("--data", references_only_csv(tmp_path, 2))
        assert main(["plot", kind, *argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"ruviz: analysis error: {kind} plot unavailable: no candidate rows\n"

    def test_rays_without_candidates_exit_2(self, tmp_path, capsys):
        self.check_no_candidates(tmp_path, capsys, "rays")

    def test_origami_without_candidates_exit_2(self, tmp_path, capsys):
        self.check_no_candidates(tmp_path, capsys, "origami")

    def test_plot_runs_pipeline_implicitly(self, tmp_path):
        # no prior normalize/report step is needed
        code = main(["plot", "biplot", *common_args(), "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "biplot.svg").exists()

    def test_failed_write_keeps_previous_svg(self, tmp_path, monkeypatch):
        previous = tmp_path / "sdod.svg"
        previous.write_text("previous")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        assert main(["plot", "sdod", *common_args(), "--out", str(tmp_path)]) == 1
        assert previous.read_text() == "previous"
        assert list(tmp_path.glob(".sdod.svg.*")) == []

    def test_out_below_a_file_exit_1(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["plot", "sdod", *common_args(), "--out", str(blocker / "sub")])
        assert code == 1
        assert capsys.readouterr().err.startswith("ruviz: ")


class TestParser:
    # each flag below changes the printed document
    RUNS = (
        ["pca", *common_args(), "--robust", "--orient", "--od-cut", "literal"],
        ["pca", *common_args()],
        ["profiles", *common_args(), "--r-aux", "0.3"],
        ["profiles", *common_args()],
        ["normalize", *common_args(), "--exclude-reference-from-range",
         "--linkage", "single"],
        ["normalize", *common_args()],
    )

    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_consecutive_calls_print_what_fresh_calls_print(self, capsys):
        fresh = []
        for argv in self.RUNS:
            cli._build_parser.cache_clear()
            assert main(argv) == 0
            fresh.append(capsys.readouterr())
        assert all(a.out != b.out for a, b in zip(fresh[0::2], fresh[1::2]))
        cli._build_parser.cache_clear()
        order = [*range(len(self.RUNS)), *reversed(range(len(self.RUNS)))]
        for i in order:  # no option may leak into the next call, either way
            assert main(self.RUNS[i]) == 0
            assert capsys.readouterr() == fresh[i]


class TestReport:
    def test_out_is_a_file_exit_1(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["report", *common_args(), "--out", str(blocker)])
        assert code == 1
        assert capsys.readouterr().err.startswith("ruviz: ")

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640),
                                             (0o077, 0o600)])
    def test_files_take_their_mode_from_the_umask(self, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            assert main(["report", *common_args(), "--out", str(tmp_path / "r")]) == 0
            assert main(["plot", "sdod", *common_args(),
                         "--out", str(tmp_path / "p")]) == 0
        finally:
            os.umask(previous)
        files = [*(tmp_path / "r").iterdir(), tmp_path / "p" / "sdod.svg"]
        assert len(files) == 15
        assert {stat.S_IMODE(f.stat().st_mode) for f in files} == {mode}

    def test_study_without_candidates_exit_2(self, tmp_path, capsys):
        argv = args_with_file("--data", references_only_csv(tmp_path, 5))
        assert main(["report", *argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "ruviz: analysis error: origami plot unavailable: no candidate rows\n"

    def test_files_hold_the_hashed_bytes(self, tmp_path):
        assert main(["report", *common_args(), "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_bytes())
        for entry in manifest["artifacts"]:
            data = (tmp_path / entry["name"]).read_bytes()
            assert b"\r" not in data and len(data) == entry["bytes"]
            assert hashlib.sha256(data).hexdigest() == entry["sha256"]

    def test_artifact_inventory(self, tmp_path, capsys):
        out = tmp_path / "report"
        code = main(["report", *common_args(), "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        names = [e["name"] for e in manifest["artifacts"]]
        svgs = [n for n in names if n.endswith(".svg")]
        jsons = [n for n in names if n.endswith(".json")]
        assert len(svgs) == 8
        assert len(jsons) == 5
        for name in names:
            assert (out / name).exists()
        # options echoed for reproducibility
        assert manifest["options"]["seed"] == 42
        assert manifest["options"]["linkage"] == "complete"
        assert manifest["options"]["reference"] == "original"

    def test_double_run_identical_manifest(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["report", *common_args(), "--out", str(out1)])
        main(["report", *common_args(), "--out", str(out2)])
        assert (out1 / "manifest.json").read_bytes() == (
            out2 / "manifest.json"
        ).read_bytes()

    def test_rerun_after_delete_reproduces_bytes(self, tmp_path):
        out = tmp_path / "rep"
        main(["report", *common_args(), "--out", str(out)])
        blob = {p.name: p.read_bytes() for p in out.iterdir()}
        shutil.rmtree(out)
        main(["report", *common_args(), "--out", str(out)])
        assert {p.name: p.read_bytes() for p in out.iterdir()} == blob

    def test_seed_echoed_and_overridable(self, tmp_path):
        out = tmp_path / "seeded"
        main(["report", *common_args(), "--out", str(out), "--seed", "7"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["options"]["seed"] == 7

    def test_out_dir_from_config(self, tmp_path):
        # config overrides the default; the flag overrides the config
        cfg = json.loads((DATA / "study.json").read_text())
        cfg["options"]["out_dir"] = str(tmp_path / "from_config")
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["report", "--config", str(cfg_path),
                     "--data", str(DATA / "measures.csv")])
        assert code == 0
        assert (tmp_path / "from_config" / "manifest.json").exists()


def test_cli_import_skips_scipy_stats():
    # the library runs on numpy alone, and scipy.stats alone would be about
    # half of the CLI's start-up time: importing the CLI loads no scipy module
    src = Path(ruviz.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys, ruviz.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_no_library_module_imports_scipy():
    package = Path(ruviz.__file__).resolve().parent
    imports = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imports += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imports.append((path.name, node.module))
    assert imports  # the scan reads the package's imports
    assert [(f, m) for f, m in imports if m.split(".")[0] == "scipy"] == []


def test_report_and_sd_od_run_without_scipy(tmp_path):
    # with scipy unimportable, `report` writes the pinned artifacts: `sd_od`
    # has the quantiles of the 2 components the pipeline fits
    src = Path(ruviz.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from ruviz.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n")
    out = tmp_path / "out"
    subprocess.run([sys.executable, "-c", code, "report", *common_args(),
                    "--out", str(out)], env=env, capture_output=True, text=True,
                   check=True)
    assert len(FIXTURE_SHA256) == 13
    assert {n: hashlib.sha256((out / n).read_bytes()).hexdigest()
            for n in FIXTURE_SHA256} == FIXTURE_SHA256


def test_report_loads_no_scipy_and_no_xml_sax(tmp_path):
    # a cold `report` clusters, computes every quantile and writes every
    # figure: all of it on numpy and the standard library's cheap modules;
    # `np.median` would load numpy.ma
    src = Path(ruviz.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys; from ruviz.cli import main; "
            f"assert main(sys.argv[1:]) == 0; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('xml.sax') "
            "or m.split('.')[:2] == ['numpy', 'ma']))")
    argv = ["report", *common_args(), "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"  # after the report's summary
    assert len(list((tmp_path / "out").iterdir())) == 14


# the process entry, `ruviz.__main__.run`, as `python -m ruviz` and as the
# console script calls it
ENTRIES = {"module": ["-m", "ruviz"],
           "function": ["-c", "from ruviz.__main__ import run; run()"]}

# a stdout that takes every write and fails its flush, as a pipe whose reader
# has gone would; installed through `sitecustomize` before either entry runs
CLOSED_PIPE = """\
import io, sys


class ClosedPipe(io.StringIO):
    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


sys.stdout = ClosedPipe()
"""


def run_entry(entry, argv, site_dir=None):
    """`ruviz argv` in a fresh interpreter, started through the process entry."""
    path = [str(Path(ruviz.__file__).resolve().parent.parent)]
    if site_dir is not None:
        path.insert(0, str(site_dir))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, *ENTRIES[entry], *argv], env=env,
                          capture_output=True, timeout=120)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
class TestProcessEntry:
    def test_report_writes_the_pinned_artifacts(self, tmp_path, entry):
        proc = run_entry(entry, ["report", *common_args(), "--out", str(tmp_path)])
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert len(proc.stdout.splitlines()) == 14
        assert {n: hashlib.sha256((tmp_path / n).read_bytes()).hexdigest()
                for n in FIXTURE_SHA256} == FIXTURE_SHA256

    def test_stdout_beyond_a_pipe_buffer_is_all_written(self, tmp_path, capsys, entry):
        # the flush before the hard exit writes what the buffer still holds
        csv, config_doc = generated_study(80)
        (tmp_path / "study.json").write_text(json.dumps(config_doc))
        (tmp_path / "measures.csv").write_text(csv)
        argv = ["pareto", "--config", str(tmp_path / "study.json"),
                "--data", str(tmp_path / "measures.csv")]
        assert main(argv) == 0
        expected = capsys.readouterr().out.encode("utf-8")
        assert len(expected) > 65536
        proc = run_entry(entry, argv)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == expected

    def test_analysis_error_exit_2(self, tmp_path, entry):
        proc = run_entry(entry, ["pca", *three_measure_args(tmp_path, n_rows=3)])
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.startswith(b"ruviz: analysis error: ")
        assert proc.stderr.count(b"\n") == 1

    def test_unknown_flag_exit_1(self, entry):
        proc = run_entry(entry, ["validate", *common_args(), "--frobnicate"])
        assert proc.returncode == 1
        assert proc.stderr == b"ruviz: unrecognized arguments: --frobnicate\n"

    def test_version_exit_0(self, entry):
        proc = run_entry(entry, ["--version"])
        version = f"ruviz {ruviz.__version__}\n".encode()
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, version, b"")

    def test_failed_final_flush_exit_1(self, tmp_path, entry):
        # a real pipe closed by its reader is no use here: on some hosts a
        # 2 MB write to one still succeeds
        (tmp_path / "sitecustomize.py").write_text(CLOSED_PIPE)
        proc = run_entry(entry, ["validate", *common_args()], site_dir=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == b"ruviz: [Errno 32] Broken pipe\n"


# argparse lays help out differently from one Python minor version to the next
@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="help pages pinned under Python 3.11")
def test_help_pages_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    pages = []
    for argv in ([], ["validate"], ["normalize"], ["pareto"], ["composite"],
                 ["pca"], ["profiles"], ["plot"], ["report"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        pages.append(f"==> ruviz {' '.join([*argv, '--help'])} <==\n"
                     + capsys.readouterr().out)
    assert "".join(pages) == (DATA / "cli_help.txt").read_text()


@pytest.mark.parametrize("flag,field,value", [
    (["--exclude-reference-from-range"], "exclude_reference_from_range", True),
    (["--orient"], "orient", True),
    (["--od-cut", "literal"], "od_cut_mode", "literal"),
    (["--r-aux", "0.25"], "r_aux", 0.25),
    (["--linkage", "average"], "linkage", "average"),
    (["--seed", "7"], "seed", 7),
    (["--robust"], "robust", True),
    (["--thresholds", "THRESHOLDS"], "thresholds", {"RepU": 0.5}),
])
def test_flag_sets_option(tmp_path, flag, field, value):
    tfile = tmp_path / "thresholds.json"
    tfile.write_text(json.dumps({"RepU": 0.5}))
    flag = [str(tfile) if a == "THRESHOLDS" else a for a in flag]
    args = cli._build_parser().parse_args(["validate", *common_args(), *flag])
    config, _ = cli._load(args)
    default = StudyOptions()
    assert getattr(default, field) != value
    assert getattr(config.options, field) == value
    for other in dataclasses.fields(StudyOptions):
        if other.name != field:
            assert getattr(config.options, other.name) == getattr(default, other.name)


def test_rows_sharing_a_label_exit_1(tmp_path, capsys):
    # `orig@b` outside any dataset and `orig` in dataset `b` are both `orig@b`
    header, *rows = (DATA / "measures.csv").read_text().splitlines()
    name, values = rows[0].split(",", 1)
    candidate = rows[1].split(",", 1)[1]
    data = tmp_path / "measures.csv"
    data.write_text("\n".join([
        f"approach,dataset,{header.split(',', 1)[1]}",
        f"{name},,{values}", f"{name}@b,,{candidate}", f"x,,{candidate}",
        f"{name},b,{values}", f"x,b,{candidate}",
    ]) + "\n")
    assert main(["pareto", *args_with_file("--data", data)]) == 1
    assert capsys.readouterr().err == (
        f"ruviz: data: approach rows '{name}@b' and '{name} in dataset b' "
        f"share the label '{name}@b'\n")


def test_overflowing_range_names_the_measure_exit_1(tmp_path, capsys):
    rows = (DATA / "measures.csv").read_text().splitlines()
    for i, value in ((1, "1.7e308"), (2, "-1.7e308")):
        cells = rows[i].split(",")
        rows[i] = ",".join([cells[0], value, *cells[2:]])
    data = tmp_path / "measures.csv"
    data.write_text("\n".join(rows) + "\n")
    assert main(["normalize", "--config", str(DATA / "study.json"),
                 "--data", str(data)]) == 1
    assert capsys.readouterr().err.startswith("ruviz: measure 'RepU': range ")


# float() of a 400-digit JSON integer overflows; Python parses no integer
# of more than 4,300 digits
@pytest.mark.parametrize("digits,message", [
    (400, "thresholds['RepU']: must be in [0, 1]"),
    (5000, "thresholds: invalid JSON"),
])
def test_huge_threshold_in_file_exit_1(tmp_path, capsys, digits, message):
    tfile = tmp_path / "thresholds.json"
    tfile.write_text('{"RepU": 1' + "0" * digits + "}")
    assert main(["pca", *common_args(), "--thresholds", str(tfile)]) == 1
    assert capsys.readouterr().err.startswith(f"ruviz: {message}")


@pytest.mark.parametrize("digits,message", [
    (400, "options.thresholds['RepU']: must be in [0, 1]"),
    (5000, "config: invalid JSON"),
])
def test_huge_threshold_in_options_exit_1(tmp_path, capsys, digits, message):
    cfg_text = (DATA / "study.json").read_text().replace(
        '"options": {}', '"options": {"thresholds": {"RepU": 1' + "0" * digits + "}}")
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(cfg_text)
    assert main(["pca", "--config", str(cfg_path),
                 "--data", str(DATA / "measures.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"ruviz: {message}")


def quoted_line_break_csv() -> bytes:
    """The fixture's CSV with a quote that opens MostlyAI's last cell and
    one that closes it after the next row."""
    lines = (DATA / "measures.csv").read_text().splitlines()
    lines[3] = lines[3].replace(",0.10", ',"0.10')
    lines[4] += '"'
    return ("\n".join(lines) + "\n").encode()


def test_quoted_line_break_prints_one_line_exit_1(tmp_path, capsys):
    data = tmp_path / "measures.csv"
    data.write_bytes(quoted_line_break_csv())
    assert main(["validate", *args_with_file("--data", data)]) == 1
    assert capsys.readouterr().err == (
        "ruviz: row 'MostlyAI', column 'Energy': non-numeric value "
        "'0.10\\nsimPop,12.0,25.0,0.33,0.30,0.24,0.20,0.160,0.24,0.19,0.18'\n")


def test_approach_id_with_a_line_break_is_named_on_one_line(tmp_path, capsys):
    lines = (DATA / "measures.csv").read_text().splitlines()
    lines[2] = lines[2].replace("synthpop", '"synth\r\npop"')
    lines[3] = lines[3].replace("MostlyAI", '"synth\r\npop"')
    data = tmp_path / "measures.csv"
    data.write_bytes(("\n".join(lines) + "\n").encode())
    assert main(["pareto", *args_with_file("--data", data)]) == 1
    assert capsys.readouterr().err == (
        "ruviz: data: duplicate approach row 'synth\\r\\npop'\n")


# what a mutated config field is set to; DELETE removes the field
DELETE = object()
FIELD_VALUES = [None, True, 0, -1, 1e308, math.nan, 2**70, "", "\x01", [1], {"a": 1},
                DELETE]
CSV_BYTES = b',\n"0123456789\x00\xff'


def field_paths(value, path=()):
    """The path of every field in a parsed JSON document, containers first."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


def set_field(doc, path, value) -> None:
    """Set or delete the field at `path`, if an earlier edit left its parents."""
    *parents, key = path
    try:
        for step in parents:
            doc = doc[step]
        if value is DELETE:
            del doc[key]
        else:
            doc[key] = value
    except (KeyError, IndexError, TypeError):
        pass  # an earlier edit removed or replaced a container on the path


STUDY = json.loads((DATA / "study.json").read_text())
CONFIG_PATHS = [*field_paths(STUDY),
                *(("options", f.name) for f in dataclasses.fields(StudyOptions))]


@st.composite
def mutated_inputs(draw):
    """The fixture's config and CSV bytes, one of them mutated."""
    config, csv = copy.deepcopy(STUDY), (DATA / "measures.csv").read_bytes()
    if draw(st.booleans()):
        for path in draw(st.lists(st.sampled_from(CONFIG_PATHS), min_size=1, max_size=3)):
            set_field(config, path, draw(st.sampled_from(FIELD_VALUES)))
    else:
        for _ in range(draw(st.integers(1, 3))):
            # a cell's first byte, or any byte
            starts = [i + 1 for i, b in enumerate(csv) if b in b",\n"]
            at = draw(st.sampled_from(starts) | st.integers(0, len(csv)))
            new = bytes(draw(st.lists(st.sampled_from(CSV_BYTES), max_size=3)))
            cut = draw(st.integers(0, 3))  # bytes replaced; none is an insertion
            csv = csv[:at] + new + csv[at + cut:]
    return json.dumps(config).encode(), csv


@settings(max_examples=100, deadline=None)
@given(mutated_inputs(), st.sampled_from(["validate", "pca", "pareto", "report"]))
@example((json.dumps(STUDY).encode(), quoted_line_break_csv()), "validate")
def test_mutated_inputs_keep_the_error_contract(inputs, cmd):
    with tempfile.TemporaryDirectory() as tmp:
        config, data = Path(tmp, "study.json"), Path(tmp, "measures.csv")
        config.write_bytes(inputs[0])
        data.write_bytes(inputs[1])
        out = ["--out", str(Path(tmp, "out"))] if cmd == "report" else []
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([cmd, "--config", str(config), "--data", str(data), *out])
    assert code in (0, 1, 2)
    err = stderr.getvalue()
    if code:
        assert err.startswith("ruviz: ") and err.count("\n") == 1 and err.endswith("\n")


def test_one_failing_hypothesis_test_ends_no_session(tmp_path):
    # pytest's hypothesis plugin explains a failure with libcst, which warns
    # on import; under the repo's warning filters the next test still runs
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(Path(__file__).parents[1] / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
