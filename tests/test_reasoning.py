import re
import string
import sys
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from perceptqa.charts import ChartSpec, DataTable, SeriesDescriptor, require_valid
from perceptqa.errors import InvariantError, TraceFormatError
from perceptqa import reasoning
from perceptqa.queries import (
    ByExtreme,
    ByName,
    Extract,
    Op,
    QuerySpec,
    evaluate,
    iter_nodes,
    oracle_eval,
)
from perceptqa.reasoning import (
    ReasoningTrace,
    SubQuestion,
    build_trace,
    classify_subquestion,
    format_trace,
    infer_depends,
    load_lexicon,
    parse_trace,
    trace_from_dict,
    trace_to_dict,
    validate_trace_text,
)
from perceptqa.render import render_chart

VALID = """Let's break down this problem.
Question Phase:
1. What values are shown across the categories?
2. Which of the values from question 1 is the highest?
Solution Phase:
---
1) The values are 10 for X, 40 for Y, 20 for Z.
2) Final answer: 40"""


def _codes(text):
    _, violations = validate_trace_text(text)
    return {v.code for v in violations}


@pytest.fixture(scope="module")
def small_chart():
    spec = require_valid(ChartSpec(
        chart_id="steps",
        kind="vertical_bar",
        title="Steps",
        table=DataTable(
            categories=("X", "Y", "Z"),
            series=(SeriesDescriptor("S", "dark teal"),),
            values=((Decimal(10), Decimal(40), Decimal(20)),),
        ),
        axis_labels=("Cat", "Val"),
        legend_visible=False,
        seed=0,
    ))
    _, geom = render_chart(spec)
    return spec, geom


# ---------------------------------------------------------------------------
# classifier


def test_classify_perception_and_logic():
    assert classify_subquestion(
        "What is the value of the red bar in 2020?") == "perception"
    assert classify_subquestion(
        "What is the difference between the two answers?") == "logic"
    # logic markers win when both appear
    assert classify_subquestion(
        "What is the sum of the values from question 1?") == "logic"
    # unmatched text defaults to logic
    assert classify_subquestion("Summarize the chart") == "logic"


@pytest.mark.parametrize("kind", ["logic", "perception"])
def test_every_lexicon_marker_alone_gives_its_class(kind):
    for marker in load_lexicon()[kind]:
        assert classify_subquestion(f"Now {marker} here?") == kind, marker


def test_logic_marker_wins_over_a_perception_marker():
    lex = load_lexicon()
    for logic in lex["logic"]:
        for perception in lex["perception"]:
            text = f"Which {perception} and which {logic}?"
            assert classify_subquestion(text) == "logic", text


def test_markers_match_whole_words_in_any_case():
    # "ranks" is not "rank" and "summary" is not "sum"; no perception
    # marker matches either, so both fall through to the default
    assert classify_subquestion("Which ranks are drawn?") == "logic"
    assert classify_subquestion("A summary follows") == "logic"
    assert classify_subquestion("A shower of ranks") == "logic"
    assert classify_subquestion("What is Shown For 2020?") == "perception"
    assert classify_subquestion("Which bar RANKS first?") == "perception"
    assert classify_subquestion("Which bar RANK is first?") == "logic"


def test_non_ascii_marker_is_rejected():
    with pytest.raises(InvariantError, match="gr\u00f6\u00dfe"):
        reasoning._markers_re(["tally", "gr\u00f6\u00dfe"])


def test_fold_covers_every_code_point_ignorecase_matches_to_a_letter():
    # a Python that adds a case fold onto an ASCII letter fails here
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    for letter in string.ascii_lowercase:
        matched = set(re.compile(letter, re.IGNORECASE).findall(every))
        folds = {chr(c) for c, to in reasoning._FOLD.items() if chr(to) == letter}
        assert matched == {letter} | folds, letter
    # letters map to letters, so word boundaries stay where they were
    assert all(chr(c).isalpha() for c in reasoning._FOLD)


# every spelling of an ASCII letter that re.IGNORECASE accepts
_SPELLINGS = {c: {c, c.upper()} for c in string.ascii_lowercase}
_SPELLINGS["i"] |= {"\u0130", "\u0131"}
_SPELLINGS["k"].add("\u212a")
_SPELLINGS["s"].add("\u017f")


def _spelled(word: str):
    return st.tuples(*(st.sampled_from(sorted(_SPELLINGS.get(c.lower(), {c})))
                       for c in word)).map("".join)


_DEFAULT = load_lexicon()
_CUSTOM = {"version": 0, "logic": ["Tally"], "perception": ["Glance", "is k"]}
# each class's markers searched on their own: the match then says whether
# any of them matched, which the classifier's label can hide
_MARKER_LISTS = tuple(d[kind] for d in (_DEFAULT, _CUSTOM)
                      for kind in ("logic", "perception"))
_WORDS = st.sampled_from(sorted(set(
    _DEFAULT["logic"] + _DEFAULT["perception"]
    + _CUSTOM["logic"] + _CUSTOM["perception"])))
_PIECES = st.one_of(
    _WORDS.flatmap(_spelled),
    _spelled("table"),
    st.sampled_from(["\u0130", "\u0131", "\u017f", "\u212a", "\u0307", "1"]),
    st.text(max_size=4),
)
_TEXTS = st.lists(
    st.tuples(_PIECES, st.sampled_from([" ", " ", "", "_", "-", "\n"])),
    max_size=6,
).map(lambda parts: "".join(p + sep for p, sep in parts))


def _reference_classify(text: str, lexicon: dict) -> str:
    for kind in ("logic", "perception"):
        markers = lexicon[kind]
        alternation = "|".join(re.escape(m) for m in markers)
        if markers and re.search(rf"\b(?:{alternation})\b", text, re.IGNORECASE):
            return kind
    return "logic"


@settings(max_examples=300, deadline=None)
@given(text=_TEXTS)
def test_folded_search_equals_an_ignorecase_search(text):
    assert classify_subquestion(text) == _reference_classify(text, _DEFAULT)
    folded = reasoning._fold(text)
    for markers in _MARKER_LISTS:
        alternation = "|".join(re.escape(m) for m in markers)
        assert (reasoning._markers_re(markers).search(folded) is not None) == bool(
            re.search(rf"\b(?:{alternation})\b", text, re.IGNORECASE)), markers
    assert reasoning._has_forbidden(text) == bool(
        re.search(r"\btable\b", text, re.IGNORECASE))


def test_infer_depends_reads_back_references():
    assert infer_depends("Which of the values from question 1 is higher?", 3) == (1,)
    assert infer_depends(
        "What is the difference between questions 1 and 2?", 3) == (1, 2)
    assert infer_depends(
        "Combine the answers to questions 1, 2, and 3.", 5) == (1, 2, 3)
    # forward or self references never count
    assert infer_depends("See question 5 for details.", 3) == ()
    assert infer_depends("Answer question 2 first.", 2) == ()


# ---------------------------------------------------------------------------
# parsing and violations


def test_valid_text_parses_clean():
    trace, violations = validate_trace_text(VALID)
    assert violations == []
    assert trace.final == "40"
    assert [s.kind for s in trace.subs] == ["perception", "logic"]
    assert trace.subs[1].depends_on == (1,)


def test_divider_is_optional():
    no_divider = VALID.replace("\n---", "")
    trace, violations = validate_trace_text(no_divider)
    assert violations == []
    assert trace.final == "40"


def test_divider_before_header_is_tolerated():
    flipped = VALID.replace(
        "Solution Phase:\n---", "---\nSolution Phase:")
    trace, violations = validate_trace_text(flipped)
    assert violations == []
    assert trace.final == "40"


def test_missing_opening_line():
    assert "missing_question_phase" in _codes(
        VALID.replace("Let's break down this problem.\n", ""))


def test_missing_question_header():
    assert "missing_question_phase" in _codes(
        VALID.replace("Question Phase:\n", ""))


def test_missing_solution_header():
    assert "missing_solution_phase" in _codes(
        VALID.replace("Solution Phase:\n", ""))


def test_count_mismatch():
    short = VALID.replace(
        "\n1) The values are 10 for X, 40 for Y, 20 for Z.", "")
    assert "count_mismatch" in _codes(short)


def test_bad_numbering_in_questions():
    renumbered = VALID.replace(
        "2. Which of the values", "3. Which of the values")
    assert "bad_numbering" in _codes(renumbered)


def test_bad_numbering_on_stray_line():
    stray = VALID.replace(
        "2) Final answer: 40", "note to self\n2) Final answer: 40")
    assert "bad_numbering" in _codes(stray)


def test_logic_before_perception():
    text = """Let's break down this problem.
Question Phase:
1. What is the combined total of the readings?
2. What value is shown for X?
Solution Phase:
1) The combined total is 70.
2) Final answer: 10"""
    assert "logic_before_perception" in _codes(text)


def test_forbidden_word():
    assert "forbidden_word" in _codes(
        VALID.replace("the categories", "the table"))
    # appears only inside a longer word: fine
    assert "forbidden_word" not in _codes(
        VALID.replace("the categories", "the timetable"))


def test_no_final_answer():
    assert "no_final_answer" in _codes(
        VALID.replace("2) Final answer: 40", "2) The highest is 40."))


def test_parse_trace_raises_on_first_violation():
    with pytest.raises(TraceFormatError):
        parse_trace(VALID.replace("Question Phase:\n", ""))


# ---------------------------------------------------------------------------
# formatting


def test_format_parse_round_trip():
    trace, _ = validate_trace_text(VALID)
    text = format_trace(trace)
    again, violations = validate_trace_text(text)
    assert violations == []
    assert again == trace


def test_format_requires_final_prefix_on_last_answer():
    bad = ReasoningTrace(
        subs=(SubQuestion(1, "perception", "What value is shown for X?",
                          "The value for X is 10."),),
        final="10",
    )
    with pytest.raises(TraceFormatError):
        format_trace(bad)


def test_format_rejects_forbidden_word():
    bad = ReasoningTrace(
        subs=(SubQuestion(1, "perception",
                          "What value does the table show for X?",
                          "Final answer: 10"),),
        final="10",
    )
    with pytest.raises(TraceFormatError):
        format_trace(bad)


def test_wire_round_trip_reinfers_dependencies():
    trace, _ = validate_trace_text(VALID)
    again = trace_from_dict(trace_to_dict(trace))
    assert again == trace
    assert again.subs[1].depends_on == (1,)


# ---------------------------------------------------------------------------
# construction from query trees


def test_built_trace_round_trips_and_matches_oracle(small_chart):
    spec, geom = small_chart
    query = QuerySpec(
        Op("Diff", (
            Op("ArgExtreme", (Extract(ByName(series="S")),), mode="max"),
            Op("ArgExtreme", (Extract(ByName(series="S")),), mode="min"),
        )),
        "extract", "number",
    )
    trace = build_trace(query, spec, geom)
    assert trace.final == oracle_eval(query, spec, geom) == "30"
    text = format_trace(trace)
    again, violations = validate_trace_text(text)
    assert violations == []
    assert len(again.subs) == len(trace.subs)
    assert [s.kind for s in again.subs] == [s.kind for s in trace.subs]
    assert again.final == trace.final


def test_trace_reuses_recorded_subtree_values(small_chart, monkeypatch):
    spec, geom = small_chart
    row = Extract(ByName(series="S"))
    query = QuerySpec(
        Op("OneFourthNearest", (
            Op("Threshold", (row,), relation="gt", value=Decimal(5)),)),
        "extract", "text",
    )
    values = {}
    assert evaluate(query.root, spec, geom, values) == values[query.root]
    assert set(iter_nodes(query.root)) <= set(values)
    fresh = build_trace(query, spec, geom)

    def no_evaluate(*args, **kwargs):
        raise AssertionError("a recorded value was evaluated again")

    monkeypatch.setattr(reasoning, "evaluate", no_evaluate)
    assert build_trace(query, spec, geom, values=values) == fresh


def test_built_trace_emits_perception_rows_first(small_chart):
    spec, geom = small_chart
    query = QuerySpec(
        Op("Sum", (
            Extract(ByName(series="S", category="X")),
            Extract(ByName(series="S", category="Y")),
        )),
        "extract", "number",
    )
    trace = build_trace(query, spec, geom)
    kinds = [s.kind for s in trace.subs]
    first_logic = kinds.index("logic")
    assert all(k == "logic" for k in kinds[first_logic:])
    # every referenced step comes earlier
    for sub in trace.subs:
        assert all(1 <= d < sub.index for d in sub.depends_on)
    assert trace.subs[-1].depends_on == (1, 2)


def test_shared_leaves_are_emitted_once(small_chart):
    spec, geom = small_chart
    row = Extract(ByName(series="S"))
    query = QuerySpec(
        Op("Diff", (
            Op("ArgExtreme", (row,), mode="max"),
            Op("ArgExtreme", (row,), mode="min"),
        )),
        "extract", "number",
    )
    trace = build_trace(query, spec, geom)
    perception = [s for s in trace.subs if s.kind == "perception"]
    assert len(perception) == 1


def test_extreme_pick_depends_on_enumeration(small_chart):
    spec, geom = small_chart
    query = QuerySpec(Extract(ByExtreme("max")), "extract", "number")
    trace = build_trace(query, spec, geom)
    assert trace.subs[0].kind == "perception"
    assert trace.subs[-1].kind == "logic"
    assert trace.subs[-1].depends_on == (1,)
    # a bare extreme pick answers with the winning label
    assert trace.final == "Y"


def test_mcq_trace_maps_value_to_letter(small_chart):
    spec, geom = small_chart
    query = QuerySpec(
        Op("Sum", (Extract(ByName(series="S")),)), "extract", "number")
    options = (("A", "50"), ("B", "70"), ("C", "90"), ("D", "35"))
    trace = build_trace(query, spec, geom, mcq_options=options)
    assert trace.final == "B"
    assert "option" in trace.subs[-1].question
    assert trace.subs[-1].answer == "Final answer: B"


def test_mcq_without_matching_option_raises(small_chart):
    spec, geom = small_chart
    query = QuerySpec(
        Op("Sum", (Extract(ByName(series="S")),)), "extract", "number")
    options = (("A", "50"), ("B", "71"), ("C", "90"), ("D", "35"))
    with pytest.raises(InvariantError):
        build_trace(query, spec, geom, mcq_options=options)


def test_pinned_charts_build_clean_traces(pinned_charts):
    for spec, query, want in pinned_charts:
        _, geom = render_chart(spec)
        trace = build_trace(query, spec, geom)
        assert trace.final == want
        text = format_trace(trace)
        parsed, violations = validate_trace_text(text)
        assert violations == []
        assert parsed.final == want
