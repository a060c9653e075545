"""End-to-end acceptance checks for the full pipeline.

Each test prints one pass/fail line under pytest -v and enforces its own
wall-clock budget.  The ten-thousand-item corpus is built once and shared.
"""

import hashlib
import json
import threading
import time
from collections import Counter
from dataclasses import replace
from decimal import Decimal
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from perceptqa.charts import dumps_chart
from perceptqa.cli import main
from perceptqa.errors import StoreError
from perceptqa.metrics import (
    EvalOutcome,
    aggregate,
    anls,
    dual_agreement_label,
    normalize_answer,
    relaxed_accuracy,
    report_to_json,
    score_item,
    year_exact,
)
from perceptqa.gateway import parse_question_lines, verify_templates
from perceptqa.qagen import GenConfig, QAItem, generate_items
from perceptqa.queries import oracle_eval, query_to_dict
from perceptqa.reasoning import (
    ReasoningTrace,
    SubQuestion,
    format_trace,
    validate_trace_text,
)
from perceptqa.render import decode_mark_value, geom_to_dict, positional_rank
from perceptqa.store import check_leakage, load_dataset, split_holdout

import naive_interp
from support import chart_pool

BAR_KINDS = ("vertical_bar", "horizontal_bar", "grouped_bar", "stacked_bar")


@pytest.fixture(scope="module")
def big_batch():
    charts = chart_pool(1100)
    items, _ = generate_items(charts, GenConfig(per_chart=10, seed=0))
    assert len(items) >= 10000
    return {spec.chart_id: (spec, geom) for spec, geom in charts}, items


def test_pinned_chart_answers_are_exact(pinned_charts):
    t0 = time.monotonic()
    for spec, query, expected in pinned_charts:
        got = oracle_eval(query, spec, None)
        assert got == expected, (spec.chart_id, got, expected)
    assert time.monotonic() - t0 < 1.0


def test_independent_interpreter_agrees_on_ten_thousand_items(big_batch):
    by_id, items = big_batch
    t0 = time.monotonic()
    checked = 0
    for item in items:
        spec, geom = by_id[item.chart_id]
        assert item.query is not None
        oracle = oracle_eval(item.query, spec, geom)
        naive = naive_interp.eval_query(
            query_to_dict(item.query), dumps_chart(spec), geom_to_dict(geom))
        assert oracle == naive, (item.qa_id, oracle, naive)
        checked += 1
    assert checked >= 10000
    assert time.monotonic() - t0 < 60.0


def test_traces_round_trip_and_keep_perception_first(big_batch):
    _, items = big_batch
    t0 = time.monotonic()
    for item in items:
        text = format_trace(item.trace)
        trace, violations = validate_trace_text(text)
        assert not violations, (item.qa_id, violations)
        assert trace is not None
        assert len(trace.subs) == len(item.trace.subs)
        kinds = [s.kind for s in trace.subs]
        assert kinds == [s.kind for s in item.trace.subs]
        assert trace.final == item.trace.final
        if "logic" in kinds:
            first_logic = kinds.index("logic")
            assert "perception" not in kinds[first_logic:], item.qa_id
    assert time.monotonic() - t0 < 60.0


def _scoreable(answer, answer_type):
    subs = (
        SubQuestion(1, "perception", "What value is shown?",
                    "The value shown is 1."),
        SubQuestion(2, "logic", "What is the result?",
                    f"Final answer: {answer}"),
    )
    return QAItem(qa_id="c0-extract-001", chart_id="c0", family="extract",
                  ops=("Sum",), question="What is the result?",
                  answer_type=answer_type, answer=answer,
                  trace=ReasoningTrace(subs, answer))


def test_scoring_protocols_conform():
    def num(text):
        return normalize_answer(text, "number")

    assert relaxed_accuracy(num("95.1"), num("100")) == 1.0
    assert relaxed_accuracy(num("94"), num("100")) == 0.0
    assert year_exact(normalize_answer("2018", "year"),
                      normalize_answer("2019", "year")) == 0.0
    assert abs(anls("abc", "abd") - 0.6667) <= 0.0001
    assert anls("abc", "xyz") == 0.0
    assert score_item("(B)", _scoreable("B", "mcq")).passed
    assert not score_item("C", _scoreable("B", "mcq")).passed
    assert score_item("True", _scoreable("True", "boolean")).passed
    assert not score_item("False", _scoreable("True", "boolean")).passed

    def out(score, violations=()):
        return EvalOutcome(qa_id="q", metric="em", score=score,
                           passed=score == 1.0, pred_canonical="p",
                           gold_canonical="g",
                           format_violations=tuple(violations))

    pairs = [
        ("position", out(1.0)),
        ("position", out(0.0)),
        ("length", out(1.0)),
        ("pattern", out(anls("abc", "abd"))),
        ("pattern", out(0.0, violations=("forbidden_word",))),
        ("extract", out(1.0)),
        ("extract", out(1.0)),
        ("extract", out(0.0)),
    ]
    report = aggregate(pairs, ["position", "length", "pattern", "extract"])
    assert report_to_json(report) == (
        '{\n'
        '  "by_family": {\n'
        '    "extract": "66.67",\n'
        '    "length": "100.00",\n'
        '    "pattern": "33.33",\n'
        '    "position": "50.00"\n'
        '  },\n'
        '  "overall": "58.33",\n'
        '  "counts": {\n'
        '    "extract": 3,\n'
        '    "length": 1,\n'
        '    "pattern": 2,\n'
        '    "position": 2\n'
        '  },\n'
        '  "violation_rate": "12.50",\n'
        '  "violation_counts": {\n'
        '    "forbidden_word": 1\n'
        '  }\n'
        '}\n'
    )


def test_family_mix_tracks_default_weights(big_batch):
    t0 = time.monotonic()
    _, items = big_batch
    mix = Counter(item.family for item in items)
    n = len(items)
    targets = {"position": 0.2007, "length": 0.0952,
               "pattern": 0.1846, "extract": 0.5254}
    for family, target in targets.items():
        frac = mix[family] / n
        assert abs(frac - target) <= 0.01, (family, frac, target)
    assert time.monotonic() - t0 < 300.0


def test_bar_geometry_decodes_within_one_pixel():
    t0 = time.monotonic()
    n = 0
    bars = []
    while len(bars) < 1000:
        n += 200
        bars = [(s, g) for s, g in chart_pool(n) if s.kind in BAR_KINDS]
    bars = bars[:1000]

    for spec, geom in bars:
        slack = geom.value_axis.units_per_pixel()
        values = {(s, c): spec.table.values[s][c]
                  for s in range(len(spec.table.series))
                  for c in range(len(spec.table.categories))}
        assert len(geom.marks) == len(values)
        for mark in geom.marks:
            decoded = decode_mark_value(geom, mark)
            data = float(values[(mark.series, mark.category)])
            assert abs(decoded - data) <= slack, (spec.chart_id, mark)

        n_cat = len(spec.table.categories)
        if spec.kind == "horizontal_bar":
            axis, near, far = "row", "from_top", "from_bottom"
        else:
            axis, near, far = "column", "from_left", "from_right"
        one_way = [positional_rank(geom, axis, near, k)
                   for k in range(1, n_cat + 1)]
        other_way = [positional_rank(geom, axis, far, k)
                     for k in range(1, n_cat + 1)]
        assert one_way == list(reversed(other_way)), spec.chart_id
    assert time.monotonic() - t0 < 120.0


def test_holdout_hygiene_and_reproducible_builds(tmp_path):
    t0 = time.monotonic()
    pool = chart_pool(56)
    for k in range(100):
        charts = pool[k % 50:k % 50 + 6]
        items, _ = generate_items(charts, GenConfig(per_chart=2, seed=k))
        ids = [spec.chart_id for spec, _ in charts]
        train, test = split_holdout(ids, seed=k, fraction=0.3)
        assert sorted(train + test) == sorted(ids)
        assert not set(train) & set(test)
        held = set(test)
        split_items = [
            replace(i, split="test" if i.chart_id in held else "train")
            for i in items
        ]
        check_leakage(split_items, test)
        leaked = next(i for i in split_items if i.chart_id in held)
        with pytest.raises(StoreError, match="leakage"):
            check_leakage([replace(leaked, split="train")], test)

    args = ["build-dataset", "--seed", "11", "--charts", "8",
            "--per-chart", "6"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    files_a = {p.relative_to(a): p.read_bytes()
               for p in sorted(a.rglob("*")) if p.is_file()}
    files_b = {p.relative_to(b): p.read_bytes()
               for p in sorted(b.rglob("*")) if p.is_file()}
    assert files_a == files_b
    assert time.monotonic() - t0 < 120.0


def _stub_reply(body: dict) -> str:
    system = body["messages"][0]["content"]
    digest = hashlib.sha256(
        json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()[:8]
    if "constructs the reasoning process" in system:
        return ("Let's break down this problem.\n"
                "Question Phase:\n"
                "1. What value does the described mark show?\n"
                "Solution Phase:\n"
                "---\n"
                "1) Final answer: 42")
    if "answer the following question" in system:
        return "42"
    return (f'"type": "extract", "question": "Judging by the legend, '
            f'what is measure {digest} at its peak?"\n'
            f'"type": "ranking", "question": "Judging by the legend, '
            f'which series ranks first for measure {digest}?"')


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        payload = json.dumps(
            {"choices": [{"message": {"content": _stub_reply(body)}}]}
        ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def test_recorded_cache_replays_llm_run_byte_identically(tmp_path):
    t0 = time.monotonic()
    line = '{"type": "extract", "question": "What was the export share in 2007?"}'
    assert parse_question_lines(line) == [
        ("extract", "What was the export share in 2007?")]
    assert dual_agreement_label("42", "42.0", "number").status == "accepted"
    assert dual_agreement_label("41", "42", "number").status == "needs_review"

    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    port = server.server_address[1]
    threading.Thread(target=server.serve_forever, args=(0.05,),
                     daemon=True).start()
    cache = tmp_path / "cache"
    common = ["--seed", "4", "--charts", "2", "--per-chart", "2",
              "--mode", "llm", "--model", "m-a", "--model-b", "m-b",
              "--cache", str(cache)]
    try:
        rc = main(["build-dataset", *common, "--budget", "100",
                   "--endpoint", f"http://127.0.0.1:{port}/v1/chat",
                   "--out", str(tmp_path / "run1")])
        assert rc == 0
    finally:
        server.shutdown()
        server.server_close()

    # a zero budget on a dead endpoint proves the replay never leaves the cache
    rc = main(["build-dataset", *common, "--budget", "0",
               "--endpoint", "http://127.0.0.1:9/dead",
               "--out", str(tmp_path / "run2")])
    assert rc == 0

    def tree(root):
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    first, second = tree(tmp_path / "run1"), tree(tmp_path / "run2")
    assert set(first) == set(second)
    for rel in first:
        if rel == "run.json":
            continue  # records which endpoint served the run
        assert first[rel] == second[rel], rel

    ds = load_dataset(tmp_path / "run1")
    assert len(ds.items) == 16
    assert ds.manifest.template_hashes == verify_templates()
    assert (tmp_path / "run1" / "provenance.jsonl").read_text("utf-8").strip()
    assert ds.review_rows == ()
    assert time.monotonic() - t0 < 30.0
