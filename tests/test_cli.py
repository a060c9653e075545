"""End-to-end command line behavior and exit codes."""

import hashlib
import json
import subprocess
import shutil
import sys
import textwrap
import tracemalloc
from dataclasses import replace
from decimal import Decimal
from operator import attrgetter
from pathlib import Path

import pytest

import perceptqa.cli as cli
import perceptqa.store as store
from perceptqa.charts import dumps_chart, loads_chart
from perceptqa.cli import main
from perceptqa.errors import InvariantError, StoreError
from perceptqa.metrics import (
    aggregate,
    outcome_to_dict,
    report_to_json,
    score_item,
)
from perceptqa.queries import FAMILIES
from perceptqa.reasoning import format_trace
from perceptqa.render import dumps_geom, loads_geom, render_chart
from perceptqa.store import load_dataset, write_dataset

from support import src_env


def _tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _write_jsonl(path: Path, rows) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), "utf-8")


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """One synthetic dataset shared by the evaluate/report tests."""
    out = tmp_path_factory.mktemp("cli") / "ds"
    rc = main(["build-dataset", "--seed", "3", "--charts", "6",
               "--per-chart", "4", "--out", str(out)])
    assert rc == 0
    return out, load_dataset(out)


# ---------------------------------------------------------------------------
# generation commands

def test_build_dataset_runs_are_byte_identical(tmp_path):
    args = ["build-dataset", "--seed", "5", "--charts", "4",
            "--per-chart", "3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert _tree_bytes(a) == _tree_bytes(b)


# moving these bytes on purpose means updating the pin and saying why
GOLDEN_ARGS = ["build-dataset", "--seed", "11", "--charts", "8",
               "--per-chart", "6"]
GOLDEN_MANIFEST_SHA256 = (
    "6e050b9ced41640f3088641802b3c98413d932fda9bcfcff17a626f6b63b90b4")


def test_build_dataset_matches_golden_digest(tmp_path):
    out = tmp_path / "golden"
    assert main([*GOLDEN_ARGS, "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()
    assert digest == GOLDEN_MANIFEST_SHA256


@pytest.mark.parametrize("hash_seed", ["1", "2718"])
def test_golden_build_does_not_depend_on_the_hash_seed(tmp_path, hash_seed):
    """str and bytes hashes are salted per interpreter by PYTHONHASHSEED,
    so set or dict iteration order must never reach the output."""
    out = tmp_path / "golden"
    script = ("import sys; from perceptqa.cli import main; "
              "sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", script, *GOLDEN_ARGS, "--out", str(out)],
        env=src_env(PYTHONHASHSEED=hash_seed), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()
    assert digest == GOLDEN_MANIFEST_SHA256


def test_dense_build_matches_golden_digest(tmp_path):
    # equal weights and 40 items a chart: all six chart kinds, planner
    # shortfalls, and MCQ, fact-check, text and year answers
    out = tmp_path / "dense"
    assert main(["build-dataset", "--seed", "5", "--charts", "12",
                 "--per-chart", "40", "--weights", "1,1,1,1",
                 "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()
    assert digest == (
        "b67bea327d56a6ed97a13072650c119f712b8d072ff03c8d5d9295b9e0b60158")


def test_build_dataset_output_shape(built):
    out, ds = built
    assert sum(ds.manifest.counts.values()) == len(ds.items)
    assert ds.manifest.train_size + ds.manifest.test_size == len(ds.items)
    assert ds.manifest.template_hashes == {}

    record = json.loads((out / "run.json").read_text("utf-8"))
    assert record["command"] == "build-dataset"
    # the serving host is run metadata, never part of the dataset identity
    assert "endpoint" not in record["config"]
    assert record["endpoint"] is None
    assert record["config_digest"] == ds.manifest.config_digest
    assert ds.manifest.dataset_id == f"ds-{record['config_digest'][:12]}"
    assert record["versions"]["perceptqa"]
    assert len(record["template_hashes"]) == 9


def test_weights_flag_steers_the_mix(tmp_path):
    out = tmp_path / "ds"
    rc = main(["build-dataset", "--seed", "2", "--charts", "6",
               "--per-chart", "3", "--weights", "1,0,0,0",
               "--out", str(out)])
    assert rc == 0
    ds = load_dataset(out)
    assert {i.family for i in ds.items} == {"position"}


def test_gen_charts_then_gen_qa_matches_build_dataset(tmp_path):
    staged = tmp_path / "staged"
    direct = tmp_path / "direct"
    assert main(["gen-charts", "--seed", "7", "--charts", "6",
                 "--out", str(staged)]) == 0
    record = json.loads((staged / "run.json").read_text("utf-8"))
    assert record["config"] == {"seed": 7, "charts": 6}
    assert list(staged.rglob("*.tmp")) == []
    assert main(["gen-qa", "--seed", "7", "--per-chart", "3",
                 "--out", str(staged)]) == 0
    assert main(["build-dataset", "--seed", "7", "--charts", "6",
                 "--per-chart", "3", "--out", str(direct)]) == 0

    staged_files = _tree_bytes(staged)
    direct_files = _tree_bytes(direct)
    for rel in direct_files:
        if rel == "run.json":
            continue  # records gen-qa vs build-dataset as the command
        assert staged_files[rel] == direct_files[rel], rel


def test_gen_qa_requires_staged_charts(tmp_path, capsys):
    rc = main(["gen-qa", "--out", str(tmp_path / "empty")])
    assert rc == 1
    assert "gen-charts first" in capsys.readouterr().err


def _short_first_row(spec):
    values = spec.table.values
    return replace(spec, table=replace(
        spec.table, values=(values[0][:-1], *values[1:])))


@pytest.mark.parametrize("victim, damage, problem", [
    pytest.param(".json", '["x"]', "malformed", id=".json"),
    pytest.param(".json", _short_first_row,
                 "malformed (SpecValidationError: chart spec invalid: "
                 "values: row 0 has", id="short-row"),
    pytest.param(".json", lambda spec: replace(spec, kind="donut"),
                 "malformed (SpecValidationError: chart spec invalid: "
                 "kind: unknown kind 'donut')", id="unknown-kind"),
    pytest.param(".json", "renamed.json", "chart_id", id="renamed"),
    pytest.param(".geom.json", "renamed.geom.json", "not the spec, svg or "
                 "geometry file of a chart this run writes", id="stray"),
])
def test_gen_qa_rejects_a_malformed_chart_file(tmp_path, capsys, victim,
                                               damage, problem):
    """damage is the text written over the file, a new name for it, or a
    change to the spec it holds."""
    out = tmp_path / "staged"
    assert main(["gen-charts", "--seed", "1", "--charts", "2",
                 "--out", str(out)]) == 0
    first = sorted((out / "charts").glob("*.svg"))[0].stem
    path = out / "charts" / f"{first}{victim}"
    if damage in ("renamed.json", "renamed.geom.json"):
        path = path.rename(path.with_name(damage))
    elif isinstance(damage, str):
        path.write_text(damage, "utf-8")
    else:
        path.write_text(dumps_chart(damage(loads_chart(
            path.read_text("utf-8")))), "utf-8")
    capsys.readouterr()
    assert main(["gen-qa", "--seed", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {problem}")
    assert err.count("\n") == 1


def _specs(chart_dir: Path) -> list:
    return [loads_chart(path.read_text("utf-8"))
            for path in sorted(chart_dir.glob("*.json"))
            if not path.name.endswith(".geom.json")]


def _edit_first_bar(chart_dir: Path) -> None:
    """Delta, the first bar of a horizontal bar chart, goes from 93.4 to
    5.5 in the spec; the staged SVG still draws 93.4."""
    path = chart_dir / "chart-3759443264181245019.json"
    spec = loads_chart(path.read_text("utf-8"))
    first, *rest = spec.table.values
    assert first[0] == Decimal("93.4")
    values = ((Decimal("5.5"), *first[1:]), *rest)
    path.write_text(dumps_chart(replace(
        spec, table=replace(spec.table, values=values))), "utf-8")


def _swap_line_geometry(chart_dir: Path) -> None:
    """The 6-category line chart's geometry, its chart id edited to
    match, over the 10-category line chart's."""
    lines = {len(spec.table.categories): spec.chart_id
             for spec in _specs(chart_dir) if spec.kind == "line"}
    geom = loads_geom(
        (chart_dir / f"{lines[6]}.geom.json").read_text("utf-8"))
    (chart_dir / f"{lines[10]}.geom.json").write_text(
        dumps_geom(replace(geom, chart_id=lines[10])), "utf-8")


def _first(chart_dir: Path, ext: str) -> Path:
    return chart_dir / f"{_specs(chart_dir)[0].chart_id}{ext}"


@pytest.mark.parametrize("damage, as_clean", [
    pytest.param(_edit_first_bar, False, id="edited-spec"),
    pytest.param(_swap_line_geometry, True, id="swapped-geometry"),
    pytest.param(lambda d: _first(d, ".geom.json").write_text(
        '["x"]', "utf-8"), True, id="malformed-geometry"),
    pytest.param(lambda d: _first(d, ".svg").unlink(), True,
                 id="deleted-svg"),
])
def test_gen_qa_renders_its_staged_specs(tmp_path, damage, as_clean):
    """gen-qa reads only the staged specs: it renders each chart's SVG
    and geometry as build-dataset does, so the image it writes always
    shows the table its gold answers are computed from, and a staged SVG
    or geometry file that disagrees with its spec is replaced."""
    manifests = []
    for name in ("clean", "damaged"):
        out = tmp_path / name
        assert main(["gen-charts", "--seed", "3", "--charts", "6",
                     "--out", str(out)]) == 0
        if name == "damaged":
            damage(out / "charts")
        assert main(["gen-qa", "--seed", "7", "--per-chart", "10",
                     "--out", str(out)]) == 0
        manifests.append((out / "manifest.json").read_bytes())
    chart_dir = out / "charts"
    for spec in _specs(chart_dir):
        svg, geom = render_chart(spec)
        base = chart_dir / spec.chart_id
        assert Path(f"{base}.svg").read_bytes() == svg.encode("utf-8")
        assert (Path(f"{base}.geom.json").read_bytes()
                == dumps_geom(geom).encode("utf-8"))
    load_dataset(out)
    assert (manifests[0] == manifests[1]) is as_clean


def test_gen_qa_parses_no_svg_or_geometry(tmp_path, monkeypatch):
    out = tmp_path / "staged"
    assert main(["gen-charts", "--seed", "1", "--charts", "2",
                 "--out", str(out)]) == 0

    def refuse(text):
        raise AssertionError("a staged geometry file was parsed")

    monkeypatch.setattr(store, "loads_geom", refuse)
    assert main(["gen-qa", "--seed", "1", "--per-chart", "3",
                 "--out", str(out)]) == 0


@pytest.mark.parametrize("command", ["gen-charts", "build-dataset"])
@pytest.mark.parametrize("rerun", ["same", "fewer-charts", "another-seed",
                                   "leftover-tmp"])
def test_chart_writers_refuse_another_runs_chart_files(tmp_path, capsys,
                                                       command, rerun):
    """A run into a directory whose charts/ holds files it would not
    write ends in one error line and writes nothing; a rerun with the
    same arguments succeeds and leaves the same bytes."""
    out = tmp_path / "out"
    qa = ["--per-chart", "2"] if command == "build-dataset" else []
    argv = [command, "--seed", "3", "--charts", "4", *qa, "--out", str(out)]
    assert main(argv) == 0
    if rerun == "fewer-charts":
        argv[argv.index("--charts") + 1] = "2"
    elif rerun == "another-seed":
        argv[argv.index("--seed") + 1] = "4"
    elif rerun == "leftover-tmp":
        (out / "charts" / "left.json.1-2.tmp").write_text("x", "utf-8")
    before = _tree_bytes(out)
    capsys.readouterr()
    assert main(argv) == (0 if rerun == "same" else 1)
    err = capsys.readouterr().err
    if rerun != "same":
        assert err.startswith(f"error: {out / 'charts'}/")
        assert ": not the spec, svg or geometry file of a chart this run " \
               "writes" in err
        assert err.count("\n") == 1
    assert _tree_bytes(out) == before


@pytest.mark.parametrize("command", ["gen-charts", "gen-qa",
                                     "build-dataset"])
@pytest.mark.parametrize("stray", [None, "position.jsonl.1-2.tmp",
                                   "notes.txt"])
def test_writers_refuse_a_stray_file_under_qa(tmp_path, capsys, command,
                                              stray):
    """The manifest lists only the four family files under qa/, so a run
    into a directory whose qa/ holds any other file ends in one error
    line and writes nothing; over a clean dataset the same run succeeds."""
    out = tmp_path / "out"
    argv = {
        "gen-charts": ["gen-charts", "--seed", "3", "--charts", "2"],
        "gen-qa": ["gen-qa", "--seed", "3", "--per-chart", "2"],
        "build-dataset": ["build-dataset", "--seed", "3", "--charts", "2",
                          "--per-chart", "2"],
    }[command] + ["--out", str(out)]
    assert main(["build-dataset", "--seed", "3", "--charts", "2",
                 "--per-chart", "2", "--out", str(out)]) == 0
    if stray is not None:
        (out / "qa" / stray).write_text("x", "utf-8")
    before = _tree_bytes(out)
    capsys.readouterr()
    assert main(argv) == (0 if stray is None else 1)
    err = capsys.readouterr().err
    if stray is None:
        load_dataset(out)
    else:
        assert _tree_bytes(out) == before
        assert err == (f"error: {out / 'qa' / stray}: not a family file "
                       f"this run writes\n")


def _stage_named_charts(out: Path, names) -> None:
    """gen-charts, then give the charts the hand-picked ids, in file order."""
    assert main(["gen-charts", "--seed", "3", "--charts", str(len(names)),
                 "--out", str(out)]) == 0
    chart_dir = out / "charts"
    olds = sorted(p.name[:-len(".json")] for p in chart_dir.glob("*.json")
                  if not p.name.endswith(".geom.json"))
    for old, name in zip(olds, names):
        spec = loads_chart((chart_dir / f"{old}.json").read_text("utf-8"))
        geom = loads_geom((chart_dir / f"{old}.geom.json").read_text("utf-8"))
        svg = (chart_dir / f"{old}.svg").read_text("utf-8")
        for ext in (".json", ".svg", ".geom.json"):
            (chart_dir / f"{old}{ext}").unlink()
        (chart_dir / f"{name}.json").write_text(
            dumps_chart(replace(spec, chart_id=name)), "utf-8")
        (chart_dir / f"{name}.svg").write_text(svg, "utf-8")
        (chart_dir / f"{name}.geom.json").write_text(
            dumps_geom(replace(geom, chart_id=name)), "utf-8")


def test_gen_qa_keeps_the_bytes_of_hand_named_charts(tmp_path):
    # ids of mixed case, with "_" and with a "-" that extends no other id;
    # the pin was taken before the build streamed chart by chart
    out = tmp_path / "named"
    _stage_named_charts(out, ["alpha", "Beta", "gamma_2", "delta-x", "eps9"])
    assert main(["gen-qa", "--seed", "3", "--per-chart", "4",
                 "--holdout", "0.2", "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()
    assert digest == (
        "387bbce28fd533d010c8dab8eeb391354f5a32b0e2ce093f6f695e94d6ff7df9")


def test_gen_qa_rejects_a_chart_id_that_extends_another(tmp_path, capsys):
    """Rows are written chart by chart, and the rows of "a-b" sort before
    those of "a": such an id set is refused before a byte is written."""
    out = tmp_path / "named"
    _stage_named_charts(out, ["a", "a-b", "c"])
    before = _tree_bytes(out)
    capsys.readouterr()
    assert main(["gen-qa", "--seed", "3", "--per-chart", "4",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'a'" in err and "'a-b'" in err
    assert _tree_bytes(out) == before


@pytest.mark.parametrize("existing", [False, True])
def test_build_that_fails_mid_stream_leaves_no_dataset(tmp_path, monkeypatch,
                                                       existing):
    """A build that raises on its third chart leaves no manifest and no
    temp file, whether it wrote into a new directory or over a dataset."""
    out = tmp_path / "ds"
    argv = ["build-dataset", "--seed", "3", "--charts", "5",
            "--per-chart", "3", "--out", str(out)]
    if existing:
        assert main(argv) == 0
    calls = []
    generate_items = cli.generate_items

    def fail_on_third_chart(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise InvariantError("planted failure")
        return generate_items(*args, **kwargs)

    monkeypatch.setattr(cli, "generate_items", fail_on_third_chart)
    assert main(argv) == 3
    assert len(calls) == 3
    assert list(tmp_path.rglob("*.tmp")) == []
    assert not (out / ".lock").exists()
    with pytest.raises(StoreError, match=f"^no manifest.json under {out}$"):
        load_dataset(out)


# ---------------------------------------------------------------------------
# evaluate and report

def test_evaluate_gold_predictions_score_everything(built, tmp_path, capsys):
    out, ds = built
    preds = tmp_path / "preds.jsonl"
    _write_jsonl(preds, [{"qa_id": i.qa_id, "prediction": i.answer}
                         for i in ds.items])
    outcomes = tmp_path / "outcomes.jsonl"
    report = tmp_path / "report.json"
    rc = main(["evaluate", "--dataset", str(out), "--predictions", str(preds),
               "--out", str(outcomes), "--report", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text("utf-8"))
    assert doc["overall"] == "100.00"
    assert set(doc["by_family"].values()) == {"100.00"}
    assert doc["violation_rate"] == "0.00"
    lines = [l for l in outcomes.read_text("utf-8").splitlines() if l.strip()]
    assert len(lines) == len(ds.items)
    table = capsys.readouterr().out
    assert "Avg." in table and "100.00" in table


def test_evaluate_dot_mode_accepts_formatted_traces(built, tmp_path):
    out, ds = built
    preds = tmp_path / "preds.jsonl"
    _write_jsonl(preds, [{"qa_id": i.qa_id,
                          "prediction": format_trace(i.trace)}
                         for i in ds.items])
    outcomes = tmp_path / "outcomes.jsonl"
    report = tmp_path / "report.json"
    rc = main(["evaluate", "--dataset", str(out), "--predictions", str(preds),
               "--mode", "dot", "--out", str(outcomes),
               "--report", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text("utf-8"))
    assert doc["overall"] == "100.00"
    assert doc["violation_rate"] == "0.00"


def test_evaluate_scores_missing_predictions_as_zero(built, tmp_path, capsys):
    out, ds = built
    preds = tmp_path / "preds.jsonl"
    _write_jsonl(preds, [{"qa_id": i.qa_id, "prediction": i.answer}
                         for i in list(ds.items)[:-2]])
    outcomes = tmp_path / "outcomes.jsonl"
    report = tmp_path / "report.json"
    rc = main(["evaluate", "--dataset", str(out), "--predictions", str(preds),
               "--out", str(outcomes), "--report", str(report)])
    assert rc == 0
    assert "2 items have no prediction" in capsys.readouterr().err
    doc = json.loads(report.read_text("utf-8"))
    assert doc["overall"] != "100.00"
    lines = [l for l in outcomes.read_text("utf-8").splitlines() if l.strip()]
    assert len(lines) == len(ds.items)


def test_evaluate_validates_predictions_file(built, tmp_path, capsys):
    out, _ = built
    outcomes = tmp_path / "outcomes.jsonl"
    rc = main(["evaluate", "--dataset", str(out),
               "--predictions", str(tmp_path / "absent.jsonl"),
               "--out", str(outcomes)])
    assert rc == 1
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"prediction": "42"}\n', "utf-8")
    rc = main(["evaluate", "--dataset", str(out), "--predictions", str(bad),
               "--out", str(outcomes)])
    assert rc == 1
    assert "qa_id and prediction" in capsys.readouterr().err


def test_evaluate_rejects_repeated_qa_id(built, tmp_path, capsys):
    out, ds = built
    preds = tmp_path / "preds.jsonl"
    qa_id = ds.items[0].qa_id
    _write_jsonl(preds, [{"qa_id": qa_id, "prediction": "1"},
                         {"qa_id": ds.items[1].qa_id, "prediction": "2"},
                         {"qa_id": qa_id, "prediction": "3"}])
    rc = main(["evaluate", "--dataset", str(out), "--predictions", str(preds),
               "--out", str(tmp_path / "outcomes.jsonl")])
    assert rc == 1
    assert (f"{preds}:3: malformed (ValueError: repeats qa_id {qa_id!r})"
            in capsys.readouterr().err)


_OUTCOME = {"family": "extract", "qa_id": "q1", "metric": "anls",
            "score": 0.0, "passed": False, "pred": "a", "gold": "b"}
_PAIR = {"qa_id": "q1", "answer_a": "1", "answer_b": "1"}


def _line(row: dict, **fields) -> bytes:
    return json.dumps({**row, **fields}).encode("utf-8")


@pytest.mark.parametrize("bad_line, command", [
    *((bad_line, command)
      for bad_line in (b'{"qa_id": ', b'["qa_id", "x"]', b'{"qa_id": "\xff"}')
      for command in ("evaluate", "report", "label")),
    (_line({"prediction": "1"}, qa_id=None), "evaluate"),
    (_line(_OUTCOME, score="x"), "report"),
    (_line(_OUTCOME, score=True), "report"),
    (_line(_OUTCOME, score=float("nan")), "report"),
    (_line(_OUTCOME, violations=5), "report"),
    (_line(_OUTCOME, family="nosuch"), "report"),
    (_line(_OUTCOME) + b"\n" + _line(_OUTCOME), "report"),
    (_line(_PAIR, answer_a=1), "label"),
    (_line(_PAIR, answer_b=[1]), "label"),
    (_line(_PAIR, answer_type=7), "label"),
    (_line(_PAIR) + b"\n" + _line(_PAIR), "label"),
])
def test_malformed_jsonl_line_exits_1(built, tmp_path, capsys, command,
                                      bad_line):
    """The last line of the input is the bad one, or repeats the line
    before it; the error names it."""
    out, _ = built
    bad = tmp_path / "input.jsonl"
    bad.write_bytes(b"\n" + bad_line + b"\n")
    last = 2 + bad_line.count(b"\n")
    argv = {
        "evaluate": ["evaluate", "--dataset", str(out), "--predictions",
                     str(bad), "--out", str(tmp_path / "o.jsonl")],
        "report": ["report", "--outcomes", str(bad)],
        "label": ["label", "--pairs", str(bad),
                  "--accepted", str(tmp_path / "a.jsonl"),
                  "--review", str(tmp_path / "r.jsonl")],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:{last}: ")
    assert err.count("\n") == 1


_SEPARATORS = ["\u2028", "\u2029", "\u0085"]


@pytest.mark.parametrize("separator", _SEPARATORS)
def test_prediction_may_hold_unicode_line_separators(built, tmp_path,
                                                      separator):
    """A row written with ensure_ascii=False may hold a raw U+2028,
    U+2029 or U+0085 inside a JSON string; it is still one row."""
    out, ds = built
    first = ds.items[0]
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps(
        {"qa_id": first.qa_id, "prediction": first.answer + separator},
        ensure_ascii=False) + "\n", "utf-8")
    outcomes = tmp_path / "outcomes.jsonl"
    assert main(["evaluate", "--dataset", str(out), "--predictions",
                 str(preds), "--out", str(outcomes)]) == 0
    rows = {row["qa_id"]: row for row in map(
        json.loads, outcomes.read_text("utf-8").splitlines())}
    assert rows[first.qa_id]["passed"] is True


@pytest.mark.parametrize("command", ["evaluate", "report", "label"])
@pytest.mark.parametrize("separator", _SEPARATORS)
def test_line_numbers_count_past_unicode_line_separators(
        built, tmp_path, capsys, command, separator):
    out, ds = built
    text = f"a{separator}b"
    row = {
        "evaluate": {"qa_id": ds.items[0].qa_id, "prediction": text},
        "report": {"family": "extract", "qa_id": "q1", "metric": "anls",
                   "score": 0.0, "passed": False, "pred": text, "gold": "c"},
        "label": {"qa_id": "q1", "answer_a": text, "answer_b": text},
    }[command]
    bad = tmp_path / "input.jsonl"
    bad.write_text(json.dumps(row, ensure_ascii=False) + '\n{"qa_id": \n',
                   "utf-8")
    argv = {
        "evaluate": ["evaluate", "--dataset", str(out), "--predictions",
                     str(bad), "--out", str(tmp_path / "o.jsonl")],
        "report": ["report", "--outcomes", str(bad)],
        "label": ["label", "--pairs", str(bad),
                  "--accepted", str(tmp_path / "a.jsonl"),
                  "--review", str(tmp_path / "r.jsonl")],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {bad}:2: malformed (JSONDecodeError: ")


def test_read_predictions_never_holds_the_whole_file(tmp_path):
    path = tmp_path / "preds.jsonl"
    _write_jsonl(path, [{"qa_id": f"q{n:05d}", "prediction": "x" * 100}
                        for n in range(2000)])
    tracemalloc.start()
    try:
        preds = cli._read_predictions(path)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(preds) == 2000
    assert peak - current < path.stat().st_size


def test_report_rerenders_evaluate_output(built, tmp_path, capsys):
    out, ds = built
    preds = tmp_path / "preds.jsonl"
    _write_jsonl(preds, [{"qa_id": i.qa_id, "prediction": i.answer}
                         for i in ds.items])
    outcomes = tmp_path / "outcomes.jsonl"
    report = tmp_path / "report.json"
    main(["evaluate", "--dataset", str(out), "--predictions", str(preds),
          "--out", str(outcomes), "--report", str(report)])
    evaluate_table = capsys.readouterr().out

    rerendered = tmp_path / "report2.json"
    rc = main(["report", "--outcomes", str(outcomes),
               "--json", str(rerendered)])
    assert rc == 0
    assert capsys.readouterr().out == evaluate_table
    assert rerendered.read_bytes() == report.read_bytes()
    assert list(tmp_path.glob("*.tmp")) == []


def test_evaluate_writes_nothing_when_a_family_file_fails(built, tmp_path,
                                                         capsys):
    """A family file that fails its digest on its last row, or a chart
    spec, SVG or geometry map that fails its digest, ends evaluate with
    one error line and leaves neither output behind."""
    out, ds = built
    preds = tmp_path / "preds.jsonl"
    _write_jsonl(preds, [{"qa_id": i.qa_id, "prediction": i.answer}
                         for i in ds.items])
    outcomes, report = tmp_path / "outcomes.jsonl", tmp_path / "report.json"
    chart = f"charts/{min(ds.charts)}"
    for n, rel in enumerate(["qa/extract.jsonl", f"{chart}.json",
                             f"{chart}.svg", f"{chart}.geom.json"]):
        copy = tmp_path / f"ds{n}"
        shutil.copytree(out, copy)
        path = copy / rel
        if rel.startswith("qa/"):
            lines = path.read_text("utf-8").splitlines(keepends=True)
            row = json.loads(lines[-1])
            row["answer"] += "0"
            path.write_text("".join(lines[:-1]) + json.dumps(row) + "\n",
                            "utf-8")
        else:
            path.write_bytes(path.read_bytes() + b" ")
        capsys.readouterr()
        assert main(["evaluate", "--dataset", str(copy), "--predictions",
                     str(preds), "--out", str(outcomes),
                     "--report", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: digest mismatch for {rel}:")
        assert err.count("\n") == 1
        assert not outcomes.exists() and not report.exists()
        assert list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize("mode", ["short", "dot"])
def test_evaluate_and_report_bytes_are_pinned(built, tmp_path, monkeypatch,
                                              mode):
    """Outcome and report bytes of a mixed run: a third of the items
    answered right, a third wrongly (a bare answer in dot mode), a third
    not at all.  The pins were taken before evaluate streamed the family
    files and aggregate took any iterable; evaluate must reproduce them
    without parsing a chart file."""
    out, ds = built

    def refuse(text):
        raise AssertionError("evaluate parsed a chart file")

    monkeypatch.setattr(store, "loads_chart", refuse)
    monkeypatch.setattr(store, "loads_geom", refuse)
    right = (lambda i: i.answer) if mode == "short" else (
        lambda i: format_trace(i.trace))
    wrong = (lambda i: "0") if mode == "short" else (lambda i: i.answer)
    ordered = sorted(ds.items, key=lambda i: i.qa_id)
    preds = tmp_path / "preds.jsonl"
    _write_jsonl(preds, [
        {"qa_id": i.qa_id, "prediction": (right, wrong)[k % 3](i)}
        for k, i in enumerate(ordered) if k % 3 < 2])
    outcomes, report = tmp_path / "outcomes.jsonl", tmp_path / "report.json"
    assert main(["evaluate", "--dataset", str(out), "--predictions",
                 str(preds), "--mode", mode, "--out", str(outcomes),
                 "--report", str(report)]) == 0
    rerendered = tmp_path / "rerendered.json"
    assert main(["report", "--outcomes", str(outcomes),
                 "--json", str(rerendered)]) == 0
    assert rerendered.read_bytes() == report.read_bytes()
    digests = [hashlib.sha256(p.read_bytes()).hexdigest()[:16]
               for p in (outcomes, report)]
    assert digests == {"short": ["ca7c22c235729e7e", "f08967129f79dd25"],
                       "dot": ["9746e07488a3b96c", "f04b3081f7e9b27a"]}[mode]


@pytest.fixture(scope="module")
def blocks_source(tmp_path_factory):
    """A dataset of more than two scoring blocks, to cut smaller ones
    from."""
    out = tmp_path_factory.mktemp("blocks") / "ds"
    assert main(["build-dataset", "--seed", "3", "--charts", "10",
                 "--per-chart", "8", "--out", str(out)]) == 0
    ds = load_dataset(out)
    assert len(ds.items) > 2 * cli._SCORE_BLOCK
    return out, ds


def _planted(items, mode: str) -> dict:
    """qa_id -> prediction: a third right, a third wrong (a bare answer
    in dot mode), a third missing."""
    right = (lambda i: i.answer) if mode == "short" else (
        lambda i: format_trace(i.trace))
    wrong = (lambda i: "0") if mode == "short" else (lambda i: i.answer)
    return {i.qa_id: (right, wrong)[k % 3](i)
            for k, i in enumerate(items) if k % 3 < 2}


@pytest.mark.parametrize("mode", ["short", "dot"])
@pytest.mark.parametrize("size", ["1", "B-1", "B", "B+1"])
def test_evaluate_scores_each_block_as_its_items_alone(blocks_source,
                                                       tmp_path, mode, size):
    """Datasets of 1, B-1, B and B+1 items, B the scoring block: the
    outcome rows and report equal scoring each item alone."""
    src, ds = blocks_source
    n = {"1": 1, "B-1": cli._SCORE_BLOCK - 1, "B": cli._SCORE_BLOCK,
         "B+1": cli._SCORE_BLOCK + 1}[size]
    kept = sorted(ds.items, key=attrgetter("qa_id"))[:n]
    out = tmp_path / "ds"
    write_dataset(
        out, dataset_id="ds-blocks",
        charts=((ds.charts[cid],
                 (src / "charts" / f"{cid}.svg").read_text("utf-8"),
                 ds.geoms[cid], [i for i in kept if i.chart_id == cid])
                for cid in sorted(ds.charts)),
        holdout_chart_ids=ds.manifest.holdout_chart_ids,
        config_digest="0" * 64, tool_version="test")
    planted = _planted(kept, mode)
    preds = tmp_path / "preds.jsonl"
    _write_jsonl(preds, [{"qa_id": qa_id, "prediction": pred}
                         for qa_id, pred in planted.items()])
    outcomes, report = tmp_path / "outcomes.jsonl", tmp_path / "report.json"
    assert main(["evaluate", "--dataset", str(out), "--predictions",
                 str(preds), "--mode", mode, "--out", str(outcomes),
                 "--report", str(report)]) == 0
    alone = [(i.family, score_item(planted.get(i.qa_id, ""), i, mode))
             for i in kept]
    assert outcomes.read_text("utf-8") == "".join(
        json.dumps({"family": family, **outcome_to_dict(outcome)}) + "\n"
        for family, outcome in alone)
    assert report.read_text("utf-8") == report_to_json(
        aggregate(alone, list(FAMILIES)))


def test_evaluate_that_fails_in_its_second_block_writes_nothing(
        blocks_source, tmp_path, capsys, monkeypatch):
    """A malformed row in the middle of the second block ends evaluate
    with one error line after the first block was scored, and leaves
    neither output behind."""
    src, ds = blocks_source
    block = cli._SCORE_BLOCK
    merged = sorted(ds.items, key=attrgetter("qa_id"))

    def family_before(k):
        return max((j for j in range(k) if merged[j].family
                    == merged[k].family), default=-1)

    # the merge reads a family's next row as it yields the one before, so
    # the bad row's predecessor must fall after the first block's last pull
    k = next(k for k in range(block + block // 2, 2 * block)
             if family_before(k) >= block - 1)
    bad = merged[k]
    out = tmp_path / "ds"
    shutil.copytree(src, out)
    rel = f"qa/{bad.family}.jsonl"
    path = out / rel
    lines = path.read_text("utf-8").splitlines(keepends=True)
    n = next(n for n, line in enumerate(lines)
             if json.loads(line)["qa_id"] == bad.qa_id)
    row = json.loads(lines[n])
    del row["question"]
    lines[n] = json.dumps(row) + "\n"
    path.write_text("".join(lines), "utf-8")
    # the manifest vouches for the edit, so the row itself is what fails
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    manifest["file_digests"][rel] = hashlib.sha256(
        path.read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n",
                                       "utf-8")
    scored = []
    monkeypatch.setattr(cli, "score_item",
                        lambda *args: scored.append(args) or score_item(*args))
    preds = tmp_path / "preds.jsonl"
    _write_jsonl(preds, [{"qa_id": i.qa_id, "prediction": i.answer}
                         for i in merged])
    outcomes, report = tmp_path / "outcomes.jsonl", tmp_path / "report.json"
    capsys.readouterr()
    assert main(["evaluate", "--dataset", str(out), "--predictions",
                 str(preds), "--out", str(outcomes),
                 "--report", str(report)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}:{n + 1}: malformed (KeyError: 'question')\n")
    assert len(scored) == block
    assert not outcomes.exists() and not report.exists()
    assert list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize("value, kind", [(None, "null"), (True, "a boolean"),
                                         ([1], "an array"),
                                         ({"a": 1}, "an object")])
def test_evaluate_rejects_a_prediction_that_is_not_text(built, tmp_path,
                                                        capsys, value, kind):
    out, ds = built
    preds = tmp_path / "preds.jsonl"
    _write_jsonl(preds, [{"qa_id": ds.items[0].qa_id, "prediction": "1"},
                         {"qa_id": ds.items[1].qa_id, "prediction": value}])
    outcomes = tmp_path / "outcomes.jsonl"
    assert main(["evaluate", "--dataset", str(out), "--predictions",
                 str(preds), "--out", str(outcomes)]) == 1
    assert capsys.readouterr().err == (
        f"error: {preds}:2: malformed (ValueError: prediction must be a "
        f"string or a number, not {kind})\n")
    assert not outcomes.exists()


def test_evaluate_reads_a_number_prediction_as_its_text(built, tmp_path):
    out, ds = built
    item = next(i for i in ds.items if i.answer_type == "number")
    preds = tmp_path / "preds.jsonl"
    preds.write_text(f'{{"qa_id": "{item.qa_id}", "prediction": '
                     f'{item.answer}}}\n', "utf-8")
    outcomes = tmp_path / "outcomes.jsonl"
    assert main(["evaluate", "--dataset", str(out), "--predictions",
                 str(preds), "--out", str(outcomes)]) == 0
    rows = {row["qa_id"]: row for row in map(
        json.loads, outcomes.read_text("utf-8").splitlines())}
    assert rows[item.qa_id]["passed"] is True


@pytest.mark.parametrize("option", ["evaluate --out", "evaluate --report",
                                    "report --json", "label --accepted",
                                    "label --review", "gen-charts --out"])
def test_unwritable_output_path_is_one_error_line(built, tmp_path, capsys,
                                                  option):
    out, ds = built
    preds = tmp_path / "preds.jsonl"
    _write_jsonl(preds, [{"qa_id": i.qa_id, "prediction": i.answer}
                         for i in ds.items])
    outcomes = tmp_path / "outcomes.jsonl"
    assert main(["evaluate", "--dataset", str(out), "--predictions",
                 str(preds), "--out", str(outcomes)]) == 0
    pairs = tmp_path / "pairs.jsonl"
    _write_jsonl(pairs, [{"qa_id": "q1", "answer_a": "1", "answer_b": "1"}])
    (tmp_path / "file").write_text("", "utf-8")
    missing = tmp_path / "missing" / "x"
    bad, reason = {
        "gen-charts --out": (tmp_path / "file" / "x" / "charts",
                             "Not a directory"),
    }.get(option, (missing, "No such file or directory"))
    evaluate = ["evaluate", "--dataset", str(out), "--predictions",
                str(preds), "--out", str(tmp_path / "o.jsonl")]
    argv = {
        "evaluate --out": evaluate[:-1] + [str(bad)],
        "evaluate --report": evaluate + ["--report", str(bad)],
        "report --json": ["report", "--outcomes", str(outcomes),
                          "--json", str(bad)],
        "label --accepted": ["label", "--pairs", str(pairs),
                             "--accepted", str(bad),
                             "--review", str(tmp_path / "r.jsonl")],
        "label --review": ["label", "--pairs", str(pairs),
                           "--accepted", str(tmp_path / "a.jsonl"),
                           "--review", str(bad)],
        "gen-charts --out": ["gen-charts", "--charts", "1",
                             "--out", str(tmp_path / "file" / "x")],
    }[option]
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: cannot write {bad}: {reason}\n"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("case", [
    "evaluate --out is --report", "evaluate --out is --predictions",
    "evaluate --report is the manifest", "evaluate --out is the review queue",
    "evaluate --out is a family file", "evaluate --report under qa/",
    "evaluate --out under charts/", "evaluate --out through a symlink",
    "report --json is --outcomes", "label --accepted is --review",
    "label --review is --pairs"])
def test_output_path_that_names_another_file_is_refused(built, tmp_path,
                                                        capsys, case):
    """An output that is another output of the same command, one of its
    inputs or a file of the evaluated dataset is refused, by resolved
    path, with one error line before anything is read or written."""
    built_out, ds = built
    out = tmp_path / "ds"
    shutil.copytree(built_out, out)
    preds = tmp_path / "preds.jsonl"
    _write_jsonl(preds, [{"qa_id": i.qa_id, "prediction": i.answer}
                         for i in ds.items])
    outcomes = tmp_path / "outcomes.jsonl"
    _write_jsonl(outcomes, [_OUTCOME])
    pairs = tmp_path / "pairs.jsonl"
    _write_jsonl(pairs, [_PAIR])
    (tmp_path / "link").symlink_to(tmp_path)
    evaluate = ["evaluate", "--dataset", str(out), "--predictions",
                str(preds)]
    same = tmp_path / "same.json"
    chart_svg = out / "charts" / f"{min(ds.charts)}.svg"
    argv, path, message = {
        "evaluate --out is --report": (
            evaluate + ["--out", str(same), "--report", str(same)],
            same, "--report is the --out file"),
        "evaluate --out is --predictions": (
            evaluate + ["--out", str(preds)],
            preds, "--out is the --predictions file"),
        "evaluate --report is the manifest": (
            evaluate + ["--out", str(same),
                        "--report", str(out / "manifest.json")],
            out / "manifest.json",
            "--report is the dataset's manifest.json"),
        "evaluate --out is the review queue": (
            evaluate + ["--out", str(out / "review_queue.jsonl")],
            out / "review_queue.jsonl",
            "--out is the dataset's review_queue.jsonl"),
        "evaluate --out is a family file": (
            evaluate + ["--out", str(out / "qa" / "extract.jsonl")],
            out / "qa" / "extract.jsonl",
            "--out is under the dataset's qa/"),
        "evaluate --report under qa/": (
            evaluate + ["--out", str(same),
                        "--report", str(out / "qa" / "report.json")],
            out / "qa" / "report.json",
            "--report is under the dataset's qa/"),
        "evaluate --out under charts/": (
            evaluate + ["--out", str(chart_svg)],
            chart_svg, "--out is under the dataset's charts/"),
        "evaluate --out through a symlink": (
            evaluate + ["--out", str(tmp_path / "link" / "preds.jsonl")],
            tmp_path / "link" / "preds.jsonl",
            "--out is the --predictions file"),
        "report --json is --outcomes": (
            ["report", "--outcomes", str(outcomes), "--json", str(outcomes)],
            outcomes, "--json is the --outcomes file"),
        "label --accepted is --review": (
            ["label", "--pairs", str(pairs), "--accepted", str(same),
             "--review", str(same)],
            same, "--review is the --accepted file"),
        "label --review is --pairs": (
            ["label", "--pairs", str(pairs), "--accepted",
             str(tmp_path / "a.jsonl"), "--review", str(pairs)],
            pairs, "--review is the --pairs file"),
    }[case]
    before = _tree_bytes(tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert _tree_bytes(tmp_path) == before


def test_report_shows_placeholder_for_absent_families(tmp_path, capsys):
    outcomes = tmp_path / "outcomes.jsonl"
    _write_jsonl(outcomes, [
        {"family": "extract", "qa_id": "a", "metric": "em", "score": 1.0,
         "passed": True, "pred": "B", "gold": "B", "violations": []},
        {"family": "position", "qa_id": "b", "metric": "relaxed", "score": 0.0,
         "passed": False, "pred": "1", "gold": "2", "violations": []},
    ])
    assert main(["report", "--outcomes", str(outcomes)]) == 0
    table = capsys.readouterr().out
    assert "—" in table
    head, body = table.splitlines()
    assert body.split() == ["0.00", "—", "—", "100.00", "50.00"]


# ---------------------------------------------------------------------------
# labeling

def test_label_routes_agreements_and_disputes(tmp_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    _write_jsonl(pairs, [
        {"qa_id": "q1", "answer_a": "42", "answer_b": "42.0"},
        {"qa_id": "q2", "answer_a": "99", "answer_b": "95"},
        {"qa_id": "q3", "answer_a": "(B).", "answer_b": "b",
         "answer_type": "mcq"},
    ])
    accepted = tmp_path / "accepted.jsonl"
    review = tmp_path / "review.jsonl"
    rc = main(["label", "--pairs", str(pairs), "--accepted", str(accepted),
               "--review", str(review)])
    assert rc == 0
    accepted_rows = [json.loads(l) for l in
                     accepted.read_text("utf-8").splitlines()]
    review_rows = [json.loads(l) for l in
                   review.read_text("utf-8").splitlines()]
    assert accepted_rows == [{"qa_id": "q1", "gold": "42"},
                             {"qa_id": "q3", "gold": "B"}]
    assert review_rows == [{"qa_id": "q2", "answer_a": "99",
                            "answer_b": "95"}]
    assert "accepted 2, queued 1" in capsys.readouterr().out
    assert list(tmp_path.glob("*.tmp")) == []


# ---------------------------------------------------------------------------
# start-up cost

def test_synthetic_commands_load_no_http_stack_or_thread_pool(tmp_path):
    """Only an LLM-mode build sends requests, so the other commands never
    import an HTTP client or a thread pool."""
    script = textwrap.dedent("""
        import sys
        from pathlib import Path
        from perceptqa.cli import main
        work = Path(sys.argv[1])
        (work / "preds.jsonl").write_text("", "utf-8")
        assert main(["build-dataset", "--seed", "2", "--charts", "2",
                     "--per-chart", "2", "--out", str(work / "ds")]) == 0
        for mode in ("short", "dot"):
            assert main(["evaluate", "--dataset", str(work / "ds"),
                         "--predictions", str(work / "preds.jsonl"),
                         "--mode", mode,
                         "--out", str(work / f"{mode}.jsonl")]) == 0
        print(sorted(m for m in ("requests", "urllib.request", "http.client",
                                 "concurrent.futures") if m in sys.modules))
    """)
    env = src_env()
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


_CYCLE_PROBE = textwrap.dedent("""
    import gc, json, sys
    from pathlib import Path
    from perceptqa.cli import main
    from perceptqa.reasoning import format_trace
    from perceptqa.store import load_dataset

    def cyclic_garbage(argv):
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        assert main(argv) == 0
        assert gc.isenabled()
        gc.collect()
        found = len(gc.garbage)
        gc.set_debug(0)
        gc.garbage.clear()
        return found

    work, charts = Path(sys.argv[1]), sys.argv[2]
    ds = str(work / "ds")
    found = [cyclic_garbage(["build-dataset", "--seed", "2", "--charts", charts,
                             "--per-chart", "4", "--out", ds])]
    # gold answers and traces, so scoring reads and checks every trace
    items = load_dataset(ds).items
    for mode, pred in (("short", lambda i: i.answer),
                       ("dot", lambda i: format_trace(i.trace))):
        preds = work / f"{mode}.preds.jsonl"
        preds.write_text("".join(
            json.dumps({"qa_id": i.qa_id, "prediction": pred(i)}) + "\\n"
            for i in items), "utf-8")
        argv = ["evaluate", "--dataset", ds, "--predictions", str(preds),
                "--mode", mode, "--out", str(work / f"{mode}.jsonl")]
        found.append(cyclic_garbage(argv))
    gc.disable()
    assert main(argv) == 0
    assert not gc.isenabled()
    print(found)
""")


def test_synthetic_commands_leave_no_cyclic_garbage(tmp_path):
    """Synthetic commands run with the cycle collector off, which is safe
    only while they build no reference cycles per chart or per item: the
    cyclic garbage each command leaves (its argument parser) must not
    grow with the dataset.  main() hands the collector back as it found
    it."""
    env = src_env()
    found = {}
    for charts in ("2", "12"):
        work = tmp_path / charts
        work.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", _CYCLE_PROBE, str(work), charts],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        found[charts] = json.loads(proc.stdout.splitlines()[-1])
    assert found["2"] == found["12"]
    assert all(0 < n < 1000 for n in found["2"]), found



_PEAK_PROBE = textwrap.dedent("""
    import json, sys, tracemalloc
    from pathlib import Path
    from perceptqa.cli import main
    from perceptqa.store import load_dataset

    def traced_peak(argv):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def build_and_evaluate(ds, charts):
        build = ["build-dataset", "--seed", "2", "--charts", charts,
                 "--per-chart", "2", "--out", str(ds)]
        build_peak = traced_peak(build)
        preds = ds.parent / (ds.name + ".preds.jsonl")
        preds.write_text("".join(
            json.dumps({"qa_id": i.qa_id, "prediction": i.answer}) + "\\n"
            for i in load_dataset(ds).items), "utf-8")
        return build_peak, traced_peak([
            "evaluate", "--dataset", str(ds), "--predictions", str(preds),
            "--out", str(ds.parent / (ds.name + ".outcomes.jsonl"))])

    work = Path(sys.argv[1])
    build_and_evaluate(work / "warm", "3")  # lazy imports and first-use caches
    print(json.dumps(build_and_evaluate(work / "ds", sys.argv[2])))
""")


def test_build_and_evaluate_hold_one_chart_at_a_time(tmp_path):
    """The traced peak of a build, and of an evaluation of what it built,
    stays within a fixed margin as the dataset grows from 50 to 400
    charts: what the commands keep per chart (its spec, its file digests,
    its ids) is small next to a chart's SVG, geometry and items, which
    are held one chart at a time.  Holding every chart and item grows
    each peak by more than 5 MB over those 350 charts."""
    env = src_env()
    peaks = {}
    for charts in ("50", "400"):
        work = tmp_path / charts
        work.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_PROBE, str(work), charts],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        peaks[charts] = json.loads(proc.stdout.splitlines()[-1])
    for command, small, large in zip(("build", "evaluate"), peaks["50"],
                                     peaks["400"]):
        assert large - small < 3_000_000, (command, peaks)

# ---------------------------------------------------------------------------
# exit codes

def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["evaluate"])  # required options missing
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    # gen-charts takes only --seed, --charts and --out
    for flags in (["--holdout", "0.2"], ["--mode", "llm"]):
        with pytest.raises(SystemExit) as exc:
            main(["gen-charts", "--charts", "2", *flags, "--out", "x"])
        assert exc.value.code == 1
    # --charts is required and, like --per-chart, a positive integer
    for argv in (["gen-charts"], ["build-dataset"],
                 ["gen-charts", "--charts", "0"],
                 ["build-dataset", "--charts", "x"],
                 ["build-dataset", "--charts", "1", "--per-chart", "0"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", "x"])
        assert exc.value.code == 1


def test_validation_errors_return_1(tmp_path, capsys):
    out = str(tmp_path / "ds")
    assert main(["build-dataset", "--charts", "2", "--holdout", "1.0",
                 "--out", out]) == 1
    assert main(["build-dataset", "--charts", "2", "--mode", "llm",
                 "--model", "m", "--out", out]) == 1
    assert main(["build-dataset", "--charts", "2", "--weights", "1,2,3",
                 "--out", out]) == 1
    err = capsys.readouterr().err
    assert "requires --endpoint" in err
    assert "--weights needs 4" in err
    # every weight must be finite
    for weights in ("nan,1,1,1", "inf,1,1,1", "1e309,0,0,0"):
        assert main(["build-dataset", "--charts", "2", "--weights", weights,
                     "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: family weights must be finite"), err
        assert err.count("\n") == 1
    assert not Path(out).exists()


def test_transport_failure_returns_2(tmp_path, capsys):
    rc = main(["build-dataset", "--charts", "1", "--mode", "llm",
               "--endpoint", "http://127.0.0.1:9/v1/chat", "--model", "m",
               "--out", str(tmp_path / "ds")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_invariant_breach_returns_3(tmp_path, monkeypatch, capsys):
    def boom(args):
        raise InvariantError("internal disagreement")

    monkeypatch.setattr(cli, "cmd_label", boom)
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("", "utf-8")
    rc = main(["label", "--pairs", str(pairs),
               "--accepted", str(tmp_path / "a.jsonl"),
               "--review", str(tmp_path / "r.jsonl")])
    assert rc == 3
    assert "internal disagreement" in capsys.readouterr().err


def test_version_flag_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "perceptqa" in capsys.readouterr().out
