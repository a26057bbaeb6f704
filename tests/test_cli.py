import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import ruviz
from ruviz import cli
from ruviz.cli import main
from ruviz.config import StudyOptions
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

    def test_rays_without_candidates_exit_2(self, tmp_path, capsys):
        # each dataset holds its reference row and nothing else
        header, reference = (DATA / "measures.csv").read_text().splitlines()[:2]
        name, values = reference.split(",", 1)
        csv = tmp_path / "measures.csv"
        csv.write_text(f"approach,dataset,{header.split(',', 1)[1]}\n"
                       f"{name},d1,{values}\n{name},d2,{values}\n")
        argv = args_with_file("--data", csv)
        assert main(["plot", "rays", *argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "ruviz: analysis error: rays plot unavailable: no candidate rows\n"

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


class TestReport:
    def test_out_is_a_file_exit_1(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["report", *common_args(), "--out", str(blocker)])
        assert code == 1
        assert capsys.readouterr().err.startswith("ruviz: ")

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
    # scipy.stats is about half of the CLI's start-up time; the CLI clusters
    # without scipy and reads the report's quantiles from a table, so only a
    # quantile at other arguments loads scipy.special
    src = Path(ruviz.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys, ruviz.cli; print(sorted(m for m in sys.modules if m in "
            "('scipy.stats', 'scipy.cluster', 'scipy.special')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_report_loads_no_scipy_and_no_xml_sax(tmp_path):
    # a cold `report` clusters, computes every quantile and writes every
    # figure: all of it on numpy and the standard library's cheap modules
    src = Path(ruviz.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys; from ruviz.cli import main; "
            f"assert main(sys.argv[1:]) == 0; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('xml.sax')))")
    argv = ["report", *common_args(), "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"  # after the report's summary
    assert len(list((tmp_path / "out").iterdir())) == 14


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
