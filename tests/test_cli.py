"""End-to-end command line behavior and exit codes."""

import hashlib
import json
import os
import subprocess
import shutil
import sys
import textwrap
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

import perceptqa.cli as cli
from perceptqa.charts import dumps_chart, loads_chart
from perceptqa.cli import main
from perceptqa.errors import InvariantError, StoreError
from perceptqa.reasoning import format_trace
from perceptqa.render import dumps_geom, loads_geom
from perceptqa.store import load_dataset


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


def test_build_dataset_matches_golden_digest(tmp_path):
    # moving these bytes on purpose means updating the pin and saying why
    out = tmp_path / "golden"
    assert main(["build-dataset", "--seed", "11", "--charts", "8",
                 "--per-chart", "6", "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()
    assert digest == (
        "6e050b9ced41640f3088641802b3c98413d932fda9bcfcff17a626f6b63b90b4")


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


@pytest.mark.parametrize("victim", [".json", ".geom.json"])
def test_gen_qa_rejects_a_malformed_chart_file(tmp_path, capsys, victim):
    out = tmp_path / "staged"
    assert main(["gen-charts", "--seed", "1", "--charts", "2",
                 "--out", str(out)]) == 0
    path = sorted((out / "charts").glob(f"*{victim}"))[0]
    path.write_text('["x"]', "utf-8")
    capsys.readouterr()
    assert main(["gen-qa", "--seed", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: malformed")
    assert err.count("\n") == 1


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
    assert f"{preds}:3: repeats qa_id {qa_id!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "report", "label"])
@pytest.mark.parametrize("bad_line", [b'{"qa_id": ', b'["qa_id", "x"]',
                                      b'{"qa_id": "\xff"}'])
def test_malformed_jsonl_line_exits_1(built, tmp_path, capsys, command,
                                      bad_line):
    out, _ = built
    bad = tmp_path / "input.jsonl"
    bad.write_bytes(b"\n" + bad_line + b"\n")
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
    assert err.startswith(f"error: {bad}:")
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
        f"error: {bad}:2: not valid JSON")


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
    out, ds = built
    copy = tmp_path / "ds"
    shutil.copytree(out, copy)
    path = copy / "qa" / "extract.jsonl"
    lines = path.read_text("utf-8").splitlines(keepends=True)
    row = json.loads(lines[-1])
    row["answer"] += "0"
    path.write_text("".join(lines[:-1]) + json.dumps(row) + "\n", "utf-8")
    preds = tmp_path / "preds.jsonl"
    _write_jsonl(preds, [{"qa_id": i.qa_id, "prediction": i.answer}
                         for i in ds.items])
    outcomes, report = tmp_path / "outcomes.jsonl", tmp_path / "report.json"
    capsys.readouterr()
    assert main(["evaluate", "--dataset", str(copy), "--predictions",
                 str(preds), "--out", str(outcomes),
                 "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: digest mismatch for qa/extract.jsonl")
    assert err.count("\n") == 1
    assert not outcomes.exists() and not report.exists()
    assert list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize("mode", ["short", "dot"])
def test_evaluate_and_report_bytes_are_pinned(built, tmp_path, mode):
    """Outcome and report bytes of a mixed run: a third of the items
    answered right, a third wrongly (a bare answer in dot mode), a third
    not at all.  The pins were taken before evaluate streamed the family
    files and aggregate took any iterable."""
    out, ds = built
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
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
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
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
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
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
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


def test_validation_errors_return_1(tmp_path, capsys):
    out = str(tmp_path / "ds")
    assert main(["build-dataset", "--out", out]) == 1  # --charts missing
    assert main(["gen-charts", "--out", out]) == 1
    assert main(["build-dataset", "--charts", "2", "--holdout", "1.0",
                 "--out", out]) == 1
    assert main(["build-dataset", "--charts", "2", "--mode", "llm",
                 "--model", "m", "--out", out]) == 1
    assert main(["build-dataset", "--charts", "2", "--weights", "1,2,3",
                 "--out", out]) == 1
    err = capsys.readouterr().err
    assert "requires --endpoint" in err
    assert "--weights needs 4" in err


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
