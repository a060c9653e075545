"""Answer normalization, per-type metrics, and report aggregation."""

import json
from decimal import Decimal

import pytest

from perceptqa.errors import ConfigError
from perceptqa.metrics import (
    EvalOutcome,
    Report,
    aggregate,
    anls,
    dual_agreement_label,
    exact_match,
    extract_answer_token,
    format_report_table,
    levenshtein,
    metric_for,
    normalize_answer,
    outcome_to_dict,
    relaxed_accuracy,
    report_to_dict,
    report_to_json,
    score_item,
    year_exact,
)
from perceptqa.qagen import GenConfig, QAItem, generate_items
from perceptqa.reasoning import ReasoningTrace, SubQuestion, format_trace

from support import chart_pool


def _item(answer, answer_type, family="extract"):
    """A minimal scoreable item; the trace only matters in dot mode."""
    subs = (
        SubQuestion(1, "perception", "What value is shown for A?",
                    "The value shown for A is 1."),
        SubQuestion(2, "logic", "What is the result?",
                    f"Final answer: {answer}"),
    )
    return QAItem(
        qa_id="chart0-extract-001",
        chart_id="chart0",
        family=family,
        ops=("Sum",),
        question="What is the result?",
        answer_type=answer_type,
        answer=answer,
        trace=ReasoningTrace(subs, answer),
    )


# ---------------------------------------------------------------------------
# normalization

def test_normalize_number_drops_commas_and_currency():
    got = normalize_answer("$1,234.50", "number")
    assert got.kind == "number"
    assert got.value == Decimal("1234.50")
    assert got.render() == "1234.5"
    assert "currency sign dropped" in got.notes


def test_normalize_number_percent_flag():
    got = normalize_answer("45%", "number")
    assert got.kind == "number"
    assert got.value == Decimal("45")
    assert got.had_percent


def test_normalize_number_embedded_in_prose():
    got = normalize_answer("roughly 45 units", "number")
    assert got.kind == "number"
    assert got.value == Decimal("45")
    assert any("taken from text" in n for n in got.notes)


def test_normalize_number_missing_falls_back_to_text():
    got = normalize_answer("cannot tell", "number")
    assert got.kind == "text"
    assert got.value == "cannot tell"
    assert any("none found" in n for n in got.notes)


def test_normalize_year_plain_and_decimal():
    assert normalize_answer("2019", "year").value == 2019
    got = normalize_answer("2019.0", "year")
    assert got.kind == "year"
    assert got.value == 2019


def test_normalize_year_out_of_range_kept_as_number():
    got = normalize_answer("862", "year")
    assert got.kind == "number"
    assert got.value == Decimal("862")
    assert any("year range" in n for n in got.notes)
    # a fractional value cannot be a year either
    assert normalize_answer("2019.5", "year").kind == "number"


def test_normalize_mcq_letter_forms():
    assert normalize_answer("B", "mcq").value == "B"
    assert normalize_answer("(b)", "mcq").value == "B"
    wrapped = normalize_answer("(B).", "mcq")
    assert wrapped.kind == "option"
    assert wrapped.value == "B"


def test_normalize_mcq_letter_from_longer_answer():
    got = normalize_answer("B) the tallest bar grew fastest", "mcq")
    assert got.kind == "option"
    assert got.value == "B"
    assert any("longer answer" in n for n in got.notes)


def test_normalize_mcq_without_letter_becomes_text():
    got = normalize_answer("the tallest bar", "mcq")
    assert got.kind == "text"
    assert any("no option letter" in n for n in got.notes)


def test_normalize_boolean_words():
    assert normalize_answer("Yes.", "boolean").value is True
    assert normalize_answer("FALSE", "boolean").value is False
    assert normalize_answer("maybe", "boolean").kind == "text"


def test_normalize_text_folds_case_and_whitespace():
    got = normalize_answer("  The   Americas ", "text")
    assert got.kind == "text"
    assert got.value == "the americas"


# ---------------------------------------------------------------------------
# individual metrics

def test_relaxed_accuracy_five_percent_band():
    def ra(pred, gold):
        return relaxed_accuracy(normalize_answer(pred, "number"),
                                normalize_answer(gold, "number"))
    assert ra("95.1", "100") == 1.0
    assert ra("94", "100") == 0.0
    # the band is inclusive and follows the gold value, not the prediction
    assert ra("95", "100") == 1.0
    assert ra("100", "95.1") == 0.0


def test_relaxed_accuracy_zero_gold_demands_exact_zero():
    def ra(pred, gold):
        return relaxed_accuracy(normalize_answer(pred, "number"),
                                normalize_answer(gold, "number"))
    assert ra("0", "0") == 1.0
    assert ra("0.001", "0") == 0.0


def test_relaxed_accuracy_non_numeric_inputs():
    num = normalize_answer("100", "number")
    txt = normalize_answer("tallest", "text")
    assert relaxed_accuracy(txt, num) == 0.0
    with pytest.raises(ConfigError):
        relaxed_accuracy(num, txt)


def test_year_exact():
    y18 = normalize_answer("2018", "year")
    y19 = normalize_answer("2019", "year")
    assert year_exact(y18, y19) == 0.0
    assert year_exact(y19, y19) == 1.0
    assert year_exact(normalize_answer("2019.5", "year"), y19) == 0.0


def test_levenshtein_basics():
    assert levenshtein("", "abc") == 3
    assert levenshtein("abc", "") == 3
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("same", "same") == 0


def test_anls_values_and_floor():
    assert abs(anls("abc", "abd") - 2 / 3) < 1e-4
    assert anls("abc", "xyz") == 0.0
    assert anls("", "") == 1.0
    # similarity exactly at the 0.5 floor survives; below it scores zero
    assert anls("ab", "ax") == 0.5
    assert anls("abc", "ayz") == 0.0


def test_exact_match_requires_same_kind():
    b1 = normalize_answer("(B)", "mcq")
    b2 = normalize_answer("b", "mcq")
    assert exact_match(b1, b2) == 1.0
    assert exact_match(normalize_answer("2", "number"),
                       normalize_answer("two", "text")) == 0.0


def test_metric_for_dispatch():
    assert metric_for("number") == "relaxed"
    assert metric_for("year") == "year_em"
    assert metric_for("text") == "anls"
    assert metric_for("boolean") == "em"
    assert metric_for("mcq") == "em"
    with pytest.raises(ConfigError):
        metric_for("essay")


# ---------------------------------------------------------------------------
# answer token extraction

def test_extract_answer_token_rightmost_number():
    assert extract_answer_token("I compared 3 and 4 and got 42", "number") == "42"
    assert extract_answer_token("it grew by 12%", "number") == "12%"


def test_extract_answer_token_option_letter():
    assert extract_answer_token("The best option is (B)", "mcq") == "B"
    # letters inside words never count as options
    assert extract_answer_token("no options here", "mcq") == "no options here"


def test_extract_answer_token_boolean_word():
    assert extract_answer_token("so the statement is TRUE", "boolean") == "TRUE"


def test_extract_answer_token_falls_back_to_line():
    assert extract_answer_token(" none ", "number") == "none"


# ---------------------------------------------------------------------------
# item scoring

def test_score_item_short_number():
    item = _item("100", "number")
    good = score_item("104", item)
    assert good.metric == "relaxed"
    assert good.score == 1.0 and good.passed
    assert good.qa_id == item.qa_id
    bad = score_item("94", item)
    assert bad.score == 0.0 and not bad.passed


def test_score_item_short_text_uses_edit_similarity():
    item = _item("abc", "text")
    near = score_item("abd", item)
    assert near.passed and 0.6 < near.score < 0.7
    assert score_item("xyz", item).score == 0.0


def test_score_item_short_mcq_and_boolean():
    assert score_item("(B).", _item("B", "mcq")).passed
    assert not score_item("C", _item("B", "mcq")).passed
    assert score_item("yes", _item("True", "boolean")).passed


def test_score_item_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        score_item("42", _item("42", "number"), mode="tally")


def test_score_item_dot_mode_reads_built_traces():
    charts = chart_pool(10)
    items, _ = generate_items(charts, GenConfig(per_chart=6, seed=11))
    assert len(items) >= 40
    for item in items:
        out = score_item(format_trace(item.trace), item, mode="dot")
        assert out.passed, (item.qa_id, out.pred_canonical, out.gold_canonical)
        assert out.format_violations == ()


def test_score_item_dot_mode_flags_malformed_trace():
    out = score_item("I could not determine this.", _item("42", "number"),
                     mode="dot")
    assert out.score == 0.0 and not out.passed
    assert len(out.format_violations) >= 1


def test_score_item_dot_mode_salvages_numbered_final_line():
    text = "preamble\n1) Final answer: 42\ntrailing chatter"
    out = score_item(text, _item("42", "number"), mode="dot")
    # the answer is recovered, but the format violations still stand
    assert out.score == 1.0
    assert len(out.format_violations) >= 1


# ---------------------------------------------------------------------------
# aggregation and reporting

ALL_FAMILIES = ["position", "length", "pattern", "extract"]


def _outcome(score, violations=()):
    return EvalOutcome(qa_id="q", metric="em", score=score,
                       passed=score == 1.0, pred_canonical="p",
                       gold_canonical="g", format_violations=tuple(violations))


def _eight_item_pairs():
    return [
        ("position", _outcome(1.0)),
        ("position", _outcome(0.0)),
        ("length", _outcome(1.0)),
        ("pattern", _outcome(anls("abc", "abd"))),
        ("pattern", _outcome(0.0, violations=("forbidden_word",))),
        ("extract", _outcome(1.0)),
        ("extract", _outcome(1.0)),
        ("extract", _outcome(0.0)),
    ]


def test_aggregate_two_of_three():
    pairs = [("extract", _outcome(1.0)), ("extract", _outcome(1.0)),
             ("extract", _outcome(0.0))]
    report = aggregate(pairs, ALL_FAMILIES)
    assert report.by_family["extract"] == Decimal("66.67")
    assert report.overall == Decimal("66.67")
    assert report.counts == {"extract": 3}
    assert report.violation_rate == Decimal("0.00")


def test_aggregate_reads_any_iterable_once():
    pairs = _eight_item_pairs()
    assert aggregate(iter(pairs), ALL_FAMILIES) == aggregate(pairs,
                                                             ALL_FAMILIES)
    assert aggregate((p for p in pairs), ALL_FAMILIES).counts == {
        "position": 2, "length": 1, "pattern": 2, "extract": 3}
    with pytest.raises(ConfigError, match="empty"):
        aggregate(iter(()), ALL_FAMILIES)


def test_aggregate_rejects_empty_and_unknown_family():
    with pytest.raises(ConfigError):
        aggregate([], ALL_FAMILIES)
    with pytest.raises(ConfigError):
        aggregate([("layout", _outcome(1.0))], ALL_FAMILIES)


def test_eight_item_report_matches_hand_computation():
    report = aggregate(_eight_item_pairs(), ALL_FAMILIES)
    assert report.by_family == {
        "position": Decimal("50.00"),
        "length": Decimal("100.00"),
        "pattern": Decimal("33.33"),
        "extract": Decimal("66.67"),
    }
    assert report.overall == Decimal("58.33")
    assert report.violation_rate == Decimal("12.50")
    assert report.violation_counts == {"forbidden_word": 1}


def test_eight_item_report_json_bytes():
    report = aggregate(_eight_item_pairs(), ALL_FAMILIES)
    expected = (
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
    assert report_to_json(report) == expected
    assert json.loads(report_to_json(report)) == report_to_dict(report)


def test_format_report_table_alignment():
    report = aggregate(_eight_item_pairs(), ALL_FAMILIES)
    head, body = format_report_table(report).splitlines()
    assert head.split() == ["Pos.", "Len.", "Pat.", "Ext.", "Avg."]
    assert body.split() == ["50.00", "100.00", "33.33", "66.67", "58.33"]
    assert len(head) == len(body)


def test_format_report_table_missing_family_placeholder():
    report = aggregate([("position", _outcome(1.0))], ALL_FAMILIES)
    head, body = format_report_table(report).splitlines()
    assert body.split() == ["100.00", "—", "—", "—", "100.00"]


def test_outcome_to_dict_fields():
    out = EvalOutcome(qa_id="c-extract-001", metric="relaxed", score=1.0,
                      passed=True, pred_canonical="42", gold_canonical="42",
                      format_violations=("forbidden_word",))
    assert outcome_to_dict(out) == {
        "qa_id": "c-extract-001",
        "metric": "relaxed",
        "score": 1.0,
        "passed": True,
        "pred": "42",
        "gold": "42",
        "violations": ["forbidden_word"],
    }


# ---------------------------------------------------------------------------
# dual agreement

def test_dual_agreement_accepts_canonical_equality():
    label = dual_agreement_label("42", "42.0", "number")
    assert label.status == "accepted"
    assert label.gold == "42"
    assert dual_agreement_label("(B).", "b", "mcq").status == "accepted"
    assert dual_agreement_label("Yes.", "true", "boolean").gold == "True"


def test_dual_agreement_near_miss_routes_to_review():
    # scoring would accept 99 vs 95 under the 5% band; labeling must not
    label = dual_agreement_label("99", "95", "number")
    assert label.status == "needs_review"
    assert label.gold is None
    assert (label.answer_a, label.answer_b) == ("99", "95")
