"""Endpoint client: templates, caching, retries, budget, and the
model-backed question pipeline."""

import base64
import json
import sys
import threading
import time
from dataclasses import replace
from decimal import Decimal
from types import SimpleNamespace

import pytest

import perceptqa.gateway as gw
from perceptqa.charts import ChartSpec, DataTable, SeriesDescriptor, require_valid
from perceptqa.errors import (
    BudgetError,
    CapacityError,
    ConfigError,
    StoreError,
    TemplateError,
    TransportError,
)
from perceptqa.gateway import (
    Gateway,
    build_chat_body,
    check_resolvable,
    generate_dot_answer_llm,
    generate_questions_llm,
    load_template,
    make_request,
    parse_question_lines,
    pinned_template_hashes,
    verify_templates,
)
from perceptqa.qagen import GenConfig, generate_items
from perceptqa.reasoning import _ORDINALS, format_trace
from perceptqa.render import render_chart

from support import chart_pool


def _ok(text):
    body = {"choices": [{"message": {"content": text}}]}
    return 200, json.dumps(body).encode("utf-8")


class ScriptedTransport:
    """Returns queued (status, payload) pairs; repeats the last one."""

    def __init__(self, *script):
        self.script = list(script)
        self.calls = []

    def __call__(self, endpoint, body, headers):
        self.calls.append((endpoint, body, headers))
        if len(self.script) > 1:
            return self.script.pop(0)
        return self.script[0]


def _gateway(tmp_path, transport, **kw):
    sleeps = []
    g = Gateway("http://unit.test/v1/chat", tmp_path / "cache",
                transport=transport, sleep=sleeps.append, **kw)
    return g, sleeps


def _req(question="What is shown?", model="m-test"):
    return make_request("infer_factoid", {"question": question}, model=model)


# ---------------------------------------------------------------------------
# templates

def test_templates_verify_against_pins():
    actual = verify_templates()
    assert actual == pinned_template_hashes()
    assert set(actual) == set(gw.TEMPLATE_IDS)


def test_template_drift_is_fatal(monkeypatch):
    pinned = dict(pinned_template_hashes())
    pinned["dot_answer"] = "0" * 64
    monkeypatch.setattr(gw, "pinned_template_hashes", lambda: pinned)
    with pytest.raises(ConfigError, match="drifted"):
        verify_templates()


def test_template_manifest_key_mismatch_is_fatal(monkeypatch):
    pinned = dict(pinned_template_hashes())
    del pinned["dot_answer"]
    monkeypatch.setattr(gw, "pinned_template_hashes", lambda: pinned)
    with pytest.raises(ConfigError, match="manifest lists"):
        verify_templates()


def test_template_is_read_once_and_checked_against_its_file(monkeypatch):
    assert load_template("dot_answer") is load_template("dot_answer")
    loaded = gw.load_template

    def stale(tid):  # the copy in use no longer matches the file
        template = loaded(tid)
        if tid == "dot_answer":
            return replace(template, user_text="edited")
        return template

    monkeypatch.setattr(gw, "load_template", stale)
    with pytest.raises(ConfigError, match="dot_answer changed on disk"):
        verify_templates()


def test_load_template_slots():
    assert load_template("pos_qgen").slots == ("n_questions",)
    assert load_template("dot_answer").slots == ("answer", "question")
    assert load_template("infer_mcq").slots == ("options", "question")
    assert load_template("infer_factcheck").slots == ("statement",)
    with pytest.raises(ConfigError):
        load_template("grading_rubric")


# ---------------------------------------------------------------------------
# request construction

def test_make_request_temperature_defaults():
    assert make_request("pos_qgen", {"n_questions": 2}, "m").temperature == 0.7
    assert make_request("dot_answer",
                        {"question": "q", "answer": "a"}, "m").temperature == 0.0


def test_make_request_rejects_unknown_slot():
    with pytest.raises(TemplateError, match="no slots"):
        make_request("infer_factoid", {"question": "q", "style": "long"}, "m")


def test_make_request_stringifies_bindings():
    req = make_request("pos_qgen", {"n_questions": 2}, "m")
    assert req.bindings == (("n_questions", "2"),)


def test_request_hash_tracks_semantic_fields_only():
    base = _req()
    assert base.request_hash == _req().request_hash
    assert _req(model="m-other").request_hash != base.request_hash
    assert _req(question="Else?").request_hash != base.request_hash
    assert replace(base, temperature=0.5).request_hash != base.request_hash
    assert replace(base, image_svg="<svg/>").request_hash != base.request_hash
    assert replace(base,
                   template_id="infer_default").request_hash != base.request_hash


def test_build_chat_body_embeds_svg_as_data_uri():
    svg = "<svg><rect/></svg>"
    req = make_request("pos_qgen", {"n_questions": 2}, "m", image_svg=svg)
    body = build_chat_body(req)
    assert body["model"] == "m"
    assert body["temperature"] == 0.7
    system, user = body["messages"]
    assert system["role"] == "system"
    text_part, image_part = user["content"]
    assert text_part["type"] == "text"
    assert "{n_questions}" not in text_part["text"]
    url = image_part["image_url"]["url"]
    prefix = "data:image/svg+xml;base64,"
    assert url.startswith(prefix)
    assert base64.b64decode(url[len(prefix):]).decode("utf-8") == svg


def test_build_chat_body_without_image_is_plain_text():
    body = build_chat_body(_req(question="Q?"))
    assert isinstance(body["messages"][1]["content"], str)
    assert "Q?" in body["messages"][1]["content"]


def test_build_chat_body_requires_all_slots():
    req = make_request("dot_answer", {"question": "Q?"}, "m")
    with pytest.raises(TemplateError, match="missing slot"):
        build_chat_body(req)


# ---------------------------------------------------------------------------
# transport behavior

def test_chat_caches_and_replays(tmp_path):
    transport = ScriptedTransport(_ok("hello"))
    g, _ = _gateway(tmp_path, transport)
    req = _req()
    first = g.chat(req)
    assert (first.text, first.cached) == ("hello", False)
    path = g._cache_path(req.request_hash)
    assert path.is_file()
    assert path.parent.name == req.request_hash[:2]
    second = g.chat(req)
    assert (second.text, second.cached) == ("hello", True)
    assert len(transport.calls) == 1
    entry = json.loads(path.read_text("utf-8"))
    assert entry["request_body"] == json.loads(transport.calls[0][1])


def test_cache_replays_across_endpoints(tmp_path):
    transport = ScriptedTransport(_ok("recorded"))
    g, _ = _gateway(tmp_path, transport)
    g.chat(_req())

    def explode(endpoint, body, headers):
        raise AssertionError("network touched during replay")

    replayer = Gateway("http://dead.invalid/v1", tmp_path / "cache",
                       transport=explode)
    out = replayer.chat(_req())
    assert out.cached and out.text == "recorded"


def test_chat_retries_transient_statuses(tmp_path):
    transport = ScriptedTransport((429, b""), (503, b""), _ok("done"))
    g, sleeps = _gateway(tmp_path, transport)
    out = g.chat(_req())
    assert out.text == "done"
    assert sleeps == [0.25, 0.5]
    # three wire attempts, one budgeted network call
    assert len(transport.calls) == 3
    assert g.network_calls == 1


def test_chat_gives_up_after_max_retries(tmp_path):
    transport = ScriptedTransport((429, b""))
    g, sleeps = _gateway(tmp_path, transport)
    with pytest.raises(TransportError, match="gave up after 4 attempts"):
        g.chat(_req())
    assert sleeps == [0.25, 0.5, 1.0]
    assert len(transport.calls) == 4


def test_chat_auth_failure_never_retries(tmp_path):
    transport = ScriptedTransport((401, b""))
    g, sleeps = _gateway(tmp_path, transport)
    with pytest.raises(TransportError, match="credentials"):
        g.chat(_req())
    assert len(transport.calls) == 1 and sleeps == []


def test_chat_unexpected_status(tmp_path):
    g, _ = _gateway(tmp_path, ScriptedTransport((418, b"")))
    with pytest.raises(TransportError, match="status 418"):
        g.chat(_req())


def test_chat_malformed_payloads(tmp_path):
    g, _ = _gateway(tmp_path, ScriptedTransport((200, b"not json")))
    with pytest.raises(TransportError, match="not valid JSON"):
        g.chat(_req())
    g2, _ = _gateway(tmp_path / "b",
                     ScriptedTransport((200, json.dumps({"ok": True}).encode())))
    with pytest.raises(TransportError, match="choices"):
        g2.chat(_req())


def test_budget_counts_unique_network_calls(tmp_path):
    g, _ = _gateway(tmp_path, ScriptedTransport(_ok("x")), budget=2)
    g.chat(_req(question="one"))
    g.chat(_req(question="two"))
    with pytest.raises(BudgetError, match="budget of 2"):
        g.chat(_req(question="three"))
    # cache hits stay free even after the budget is gone
    assert g.chat(_req(question="one")).cached


def test_is_cached_reports_a_recorded_request(tmp_path):
    g, _ = _gateway(tmp_path, ScriptedTransport(_ok("x")))
    assert not g.is_cached(_req())
    g.chat(_req())
    assert g.is_cached(_req())
    assert not g.is_cached(_req(question="Other?"))


def test_writers_of_one_cache_entry_never_collide(tmp_path):
    g, _ = _gateway(tmp_path, ScriptedTransport(_ok("x")))
    req = _req()
    entries = [{"request_hash": req.request_hash, "writer": n,
                "response_text": "x", "response_body": {"n": n}}
               for n in range(6)]
    errors = []

    def write(entry):
        try:
            for _ in range(40):
                g._write_cache(req.request_hash, entry)
        except OSError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(e,)) for e in entries]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    entry = g._read_cache(req.request_hash)
    assert entry in entries
    assert list(tmp_path.rglob("*.tmp")) == []


def test_posts_start_at_least_the_gap_apart(tmp_path, monkeypatch):
    """Sixteen threads send at once; the first POST gets a 503, so its
    retry is paced as well.  On a clock that moves only when the gateway
    sleeps, every POST after the first waits one whole gap, and the 17
    starts span exactly 16 gaps."""
    clock = [100.0]
    paced = []

    def pace(seconds):
        paced.append(seconds)
        clock[0] += seconds

    sent = []

    def post(url, data, headers, timeout):
        sent.append(data)
        return (503, b"") if len(sent) == 1 else _ok("x")

    monkeypatch.setattr(gw, "time", SimpleNamespace(
        monotonic=lambda: clock[0], sleep=pace))
    monkeypatch.setattr(gw.requests, "post", post)
    backoffs = []
    g = Gateway("http://unit.test/v1/chat", tmp_path / "cache",
                sleep=backoffs.append)
    barrier = threading.Barrier(16)
    errors = []

    def ask(n):
        try:
            barrier.wait(timeout=10)
            g.chat(_req(question=f"Question {n}?"))
        except Exception as exc:  # read on the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=ask, args=(n,)) for n in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(sent) == 17
    assert paced == pytest.approx([gw._POST_GAP_S] * 16)
    assert clock[0] == pytest.approx(100.0 + 16 * gw._POST_GAP_S)
    assert backoffs == [gw._BACKOFF_S]


def test_fake_transport_is_not_paced(tmp_path, monkeypatch):
    monkeypatch.setattr(gw, "_POST_GAP_S", 30.0)
    transport = ScriptedTransport(_ok("x"))
    g, _ = _gateway(tmp_path, transport)
    began = time.monotonic()
    for n in range(3):
        g.chat(_req(question=f"Question {n}?"))
    assert len(transport.calls) == 3
    assert time.monotonic() - began < 5.0


def test_http_stack_loads_before_pacing(tmp_path, monkeypatch):
    """The first POSTs of a process would otherwise leave the pacing
    lock one gap apart, wait together on the import and connect at
    once."""
    loaded = []

    class Lock:
        def __enter__(self):
            loaded.append(gw.requests._opener is not None)

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(gw.requests, "_opener", None)
    monkeypatch.setattr(gw.requests, "post", lambda *args, **kw: _ok("x"))
    g = Gateway("http://unit.test/v1/chat", tmp_path / "cache")
    g._pace_lock = Lock()
    g.chat(_req())
    assert loaded == [True]


@pytest.mark.parametrize("damage", ["not json", "foreign hash",
                                    "no response", "text not a string",
                                    "body not an object"])
def test_corrupt_cache_entry_is_a_store_error(tmp_path, damage):
    g, _ = _gateway(tmp_path, ScriptedTransport(_ok("x")))
    req = _req()
    g.chat(req)
    path = g._cache_path(req.request_hash)
    entry = json.loads(path.read_text("utf-8"))
    if damage == "not json":
        path.write_text('{"request_hash": "', "utf-8")
    else:
        if damage == "foreign hash":
            entry["request_hash"] = "0" * 64
        elif damage == "no response":
            entry = {"request_hash": req.request_hash}
        elif damage == "text not a string":
            entry["response_text"] = ["x"]
        else:
            entry["response_body"] = "x"
        path.write_text(json.dumps(entry), "utf-8")
    with pytest.raises(StoreError) as err:
        g.chat(req)
    assert str(path) in str(err.value)
    assert "\n" not in str(err.value)


def test_api_key_header(tmp_path, monkeypatch):
    monkeypatch.setenv(gw.API_KEY_ENV, "sekrit")
    transport = ScriptedTransport(_ok("x"))
    g, _ = _gateway(tmp_path, transport)
    g.chat(_req())
    _, _, headers = transport.calls[0]
    assert headers["Authorization"] == "Bearer sekrit"


# ---------------------------------------------------------------------------
# question line parsing and grounding

def test_parse_question_lines_single():
    line = '{"type": "extract", "question": "What was the export share in 2007?"}'
    assert parse_question_lines(line) == [
        ("extract", "What was the export share in 2007?")]


def test_parse_question_lines_multiple_and_none():
    text = (
        'Here are the questions:\n'
        '{"type": "sum", "question": "What is the combined total?"}\n'
        'noise line\n'
        '{"type": "rank", "question": "Which bar is second from the left?"}\n'
    )
    assert parse_question_lines(text) == [
        ("sum", "What is the combined total?"),
        ("rank", "Which bar is second from the left?"),
    ]
    assert parse_question_lines("no structured lines here") == []


def test_check_resolvable_grounding_rules(seats_chart, usage_chart,
                                          minutes_chart):
    seats_spec, _, _ = seats_chart
    _, seats_geom = render_chart(seats_spec)
    pie_spec, _, _ = usage_chart
    _, pie_geom = render_chart(pie_spec)
    line_spec, _, _ = minutes_chart
    _, line_geom = render_chart(line_spec)

    ok = check_resolvable
    # positional references must match the chart's category axis
    assert ok("Which bar is second from the left?", seats_spec, seats_geom) is None
    why = ok("Which slice is second from the left?", pie_spec, pie_geom)
    assert "pie" in why
    why = ok("Which bar is second from the top?", seats_spec, seats_geom)
    assert "horizontally" in why
    why = ok("Which bar is seventh from the left?", seats_spec, seats_geom)
    assert "exceeds" in why

    hbar_spec = replace(seats_spec, kind="horizontal_bar",
                        chart_id="pinned-seats-h")
    _, hbar_geom = render_chart(hbar_spec)
    assert ok("Which bar is second from the top?", hbar_spec, hbar_geom) is None
    why = ok("Which bar is second from the left?", hbar_spec, hbar_geom)
    assert "vertically" in why

    # some anchor is required: a label, a position, or a visual cue
    why = ok("What is the total of everything?", seats_spec, seats_geom)
    assert "no label" in why
    assert ok("What value is shown for Seats?", seats_spec, seats_geom) is None
    assert ok("How many seats does Conservative (EPP) hold?",
              seats_spec, seats_geom) is None
    assert ok("What is the value of the blue bar?",
              seats_spec, seats_geom) is None
    assert ok("Which legend entry peaks last?", line_spec, line_geom) is None
    assert ok("What was the value for Women in 2014?",
              line_spec, line_geom) is None


def _bars(n: int):
    """A vertical bar chart drawing n bars, and its geometry."""
    spec = require_valid(ChartSpec(
        chart_id=f"bars-{n}",
        kind="vertical_bar",
        title="Bars",
        table=DataTable(
            categories=tuple(f"C{i}" for i in range(1, n + 1)),
            series=(SeriesDescriptor("S", "dark teal"),),
            values=(tuple(Decimal(i) for i in range(1, n + 1)),),
        ),
        axis_labels=("Cat", "Val"),
        legend_visible=False,
        seed=0,
    ))
    return spec, render_chart(spec)[1]


@pytest.mark.parametrize("word, rank", [
    *((word, i) for i, word in enumerate(_ORDINALS, start=1)),
    ("11th", 11), ("3rd", 3),
    ("\u017fecond", 2),  # the long s matches "s" under re.IGNORECASE
])
def test_check_resolvable_reads_every_ordinal(word, rank):
    assert gw._ordinal_rank(word) == rank
    question = f"Which bar is {word} from the left?"
    for n in range(2, 13):
        why = check_resolvable(question, *_bars(n))
        if rank <= n:
            assert why is None, (n, why)
        else:
            assert f"exceeds the {n} drawn marks" in why


# ---------------------------------------------------------------------------
# model-backed generation

def _seats(seats_chart):
    spec, _, _ = seats_chart
    svg, geom = render_chart(spec)
    return spec, svg, geom


def test_generate_questions_llm_keeps_resolvable(tmp_path, seats_chart):
    spec, svg, geom = _seats(seats_chart)
    canned = (
        '{"type": "extract", "question": "What value is shown for Seats?"}\n'
        '{"type": "sum", "question": "What is the total of everything?"}\n'
    )
    g, _ = _gateway(tmp_path, ScriptedTransport(_ok(canned)))
    accepted, rejected = generate_questions_llm(
        g, spec, svg, geom, "extract", model="m-test")
    assert [c.question for c in accepted] == ["What value is shown for Seats?"]
    assert accepted[0].op_hint == "extract"
    assert accepted[0].family == "extract"
    [(question, reason)] = rejected
    assert question == "What is the total of everything?"
    assert "no label" in reason


def test_generate_questions_llm_zero_parseable(tmp_path, seats_chart):
    spec, svg, geom = _seats(seats_chart)
    g, _ = _gateway(tmp_path, ScriptedTransport(_ok("I have no questions.")))
    with pytest.raises(CapacityError, match="no parseable"):
        generate_questions_llm(g, spec, svg, geom, "extract", model="m-test")


def test_generate_questions_llm_zero_resolvable(tmp_path, seats_chart):
    spec, svg, geom = _seats(seats_chart)
    canned = '{"type": "sum", "question": "What is the total of everything?"}'
    g, _ = _gateway(tmp_path, ScriptedTransport(_ok(canned)))
    with pytest.raises(CapacityError, match="unresolvable"):
        generate_questions_llm(g, spec, svg, geom, "extract", model="m-test")


def test_generate_questions_llm_unknown_family(tmp_path, seats_chart):
    spec, svg, geom = _seats(seats_chart)
    g, _ = _gateway(tmp_path, ScriptedTransport(_ok("x")))
    with pytest.raises(ConfigError, match="unknown task family"):
        generate_questions_llm(g, spec, svg, geom, "layout", model="m-test")


def test_generate_dot_answer_llm_valid_and_quarantined(tmp_path):
    pairs = chart_pool(2)
    items, _ = generate_items(pairs, GenConfig(per_chart=2, seed=19))
    item = items[0]
    good_text = format_trace(item.trace)

    g, _ = _gateway(tmp_path, ScriptedTransport(_ok(good_text)))
    trace, violations, request_hash = generate_dot_answer_llm(
        g, item.question, item.answer, "<svg/>", model="m-test")
    assert not violations
    assert trace is not None and trace.final == item.trace.final
    assert len(request_hash) == 64

    g2, _ = _gateway(tmp_path / "b",
                     ScriptedTransport(_ok("The answer is 42, trust me.")))
    trace, violations, _ = generate_dot_answer_llm(
        g2, item.question, item.answer, "<svg/>", model="m-test")
    assert trace is None
    assert len(violations) >= 1
