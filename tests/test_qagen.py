import re
from collections import Counter

import pytest

from perceptqa.charts import sample_chart_spec
from perceptqa.errors import ConfigError, TemplateError
from perceptqa.qagen import (
    DEFAULT_FAMILY_WEIGHTS,
    FAMILY_CANDIDATES,
    GenConfig,
    _leaks,
    generate_items,
    item_from_dict,
    item_to_dict,
    operation_tags,
    realize_question,
)
from perceptqa.queries import (
    ByLegend,
    ByName,
    ByPosition,
    ByVisual,
    iter_nodes,
    Extract,
    FAMILIES,
    leaf_selectors,
    Op,
    oracle_eval,
    QuerySpec,
)
from perceptqa.render import render_chart
from support import chart_pool


@pytest.fixture(scope="module")
def pool():
    return chart_pool(60)


@pytest.fixture(scope="module")
def batch(pool):
    items, stats = generate_items(pool, GenConfig(per_chart=10, seed=3))
    return pool, items, stats


def _spec_for(pool, chart_id):
    return next(spec for spec, _ in pool if spec.chart_id == chart_id)


def _geom_for(pool, chart_id):
    return next(geom for spec, geom in pool if spec.chart_id == chart_id)


def test_generation_is_deterministic(pool):
    config = GenConfig(per_chart=8, seed=11)
    a, _ = generate_items(pool, config)
    b, _ = generate_items(pool, config)
    assert [item_to_dict(i) for i in a] == [item_to_dict(i) for i in b]


def test_qa_ids_are_unique_and_well_formed(batch):
    _, items, _ = batch
    ids = [i.qa_id for i in items]
    assert len(set(ids)) == len(ids)
    for item in items:
        assert re.fullmatch(
            rf"{re.escape(item.chart_id)}-{item.family}-\d{{3}}", item.qa_id)
        assert item.split == "train"


def test_questions_unique_per_chart(batch):
    _, items, _ = batch
    seen = Counter((i.chart_id, i.question.casefold()) for i in items)
    assert seen.most_common(1)[0][1] == 1


def test_every_family_appears(batch):
    _, items, _ = batch
    families = {i.family for i in items}
    assert families == set(FAMILIES)


def test_plain_answers_match_oracle(batch):
    pool, items, _ = batch
    for item in items:
        spec = _spec_for(pool, item.chart_id)
        geom = _geom_for(pool, item.chart_id)
        gold = oracle_eval(item.query, spec, geom)
        if item.answer_type == "mcq":
            matches = [letter for letter, text in item.options if text == gold]
            assert matches == [item.answer]
        else:
            assert item.answer == gold
        assert item.trace.final == item.answer


def test_position_items_are_numeric_with_resolved_labels(batch):
    pool, items, _ = batch
    checked = 0
    for item in items:
        if item.family != "position":
            continue
        assert item.answer_type == "number"
        spec = _spec_for(pool, item.chart_id)
        labels = re.findall(r"\(([^)]*)\)", item.question)
        resolved = [x for x in labels if x in spec.table.categories]
        assert resolved, item.question
        assert any(isinstance(s, ByPosition)
                   for s in leaf_selectors(item.query.root))
        checked += 1
    assert checked > 20


def test_pattern_items_never_name_series(batch):
    pool, items, _ = batch
    checked = 0
    for item in items:
        if item.family != "pattern":
            continue
        spec = _spec_for(pool, item.chart_id)
        for s in spec.table.series:
            assert not re.search(rf"\b{re.escape(s.name)}\b", item.question), (
                f"series name {s.name!r} leaked into {item.question!r}")
        for sel in leaf_selectors(item.query.root):
            assert not isinstance(sel, ByName)
        checked += 1
    assert checked > 20


def test_extract_items_select_by_name_only(batch):
    _, items, _ = batch
    checked = 0
    for item in items:
        if item.family != "extract":
            continue
        for sel in leaf_selectors(item.query.root):
            assert isinstance(sel, ByName), sel
        checked += 1
    assert checked > 50


def test_each_family_spans_multiple_operations(batch):
    _, items, _ = batch
    ops_by_family = {}
    for item in items:
        ops_by_family.setdefault(item.family, set()).update(item.ops)
    for family, ops in ops_by_family.items():
        assert len(ops) >= 2, f"{family} only exercises {ops}"


def test_answers_do_not_leak_into_questions(batch):
    _, items, _ = batch
    for item in items:
        if item.answer_type in ("number", "year"):
            pattern = rf"(?<![\d.]){re.escape(item.answer)}(?![\d.])"
            assert not re.search(pattern, item.question), item.qa_id
        elif item.answer_type == "text":
            assert not re.search(
                rf"\b{re.escape(item.answer)}\b", item.question,
                re.IGNORECASE), item.qa_id


def test_mcq_items_have_one_correct_option(batch):
    _, items, _ = batch
    mcq = [i for i in items if i.answer_type == "mcq"]
    assert len(mcq) > 10
    for item in mcq:
        letters = [letter for letter, _ in item.options]
        texts = [text for _, text in item.options]
        assert letters == ["A", "B", "C", "D"]
        assert len(set(texts)) == 4
        assert item.answer in letters


def test_factcheck_items_are_roughly_balanced(batch):
    _, items, _ = batch
    fact = [i for i in items if i.statement is not None]
    assert len(fact) > 10
    for item in fact:
        assert item.answer_type == "boolean"
        assert item.answer in ("True", "False")
        assert item.question.startswith("Is the following statement")
        assert item.statement in item.question
        assert re.fullmatch(
            r"The combined value of [^{}]+ and [^{}]+ is (greater|smaller) "
            r"than the value of [^{}]+\.", item.statement), item.statement
    trues = sum(1 for i in fact if i.answer == "True")
    share = trues / len(fact)
    assert 0.35 <= share <= 0.65, f"true share {share:.2f}"


def test_wire_round_trip(batch):
    _, items, _ = batch
    for item in items[:50]:
        doc = item_to_dict(item)
        assert doc["task"] == item.family
        assert "query" not in doc
        again = item_from_dict(doc)
        assert again.qa_id == item.qa_id
        assert again.question == item.question
        assert again.answer == item.answer
        assert again.trace == item.trace
        assert again.options == item.options
        assert again.statement == item.statement


def test_operation_tags_cover_tree(batch):
    _, items, _ = batch
    for item in items[:50]:
        kinds = {n.kind for n in iter_nodes(item.query.root)
                 if not isinstance(n, Extract)}
        assert operation_tags(item.query.root) == item.ops
        assert len(item.ops) >= 1
        assert len(item.ops) <= max(1, len(kinds))


def test_pie_charts_get_only_extract_items():
    pie = next(sample_chart_spec(s) for s in range(400)
               if sample_chart_spec(s).kind == "pie")
    _, geom = render_chart(pie)
    weights = tuple((f, 1.0) for f in FAMILIES)
    items, _ = generate_items(
        [(pie, geom)], GenConfig(per_chart=8, family_weights=weights, seed=0))
    assert items
    assert {i.family for i in items} == {"extract"}


def test_shortfall_reported_when_charts_run_dry():
    spec = sample_chart_spec(0)
    _, geom = render_chart(spec)
    items, stats = generate_items([(spec, geom)], GenConfig(per_chart=500, seed=0))
    assert stats.shortfall > 0
    assert len(items) + stats.shortfall == 500


def test_config_validation():
    with pytest.raises(ConfigError):
        generate_items([], GenConfig(per_chart=4, seed=0))
    with pytest.raises(ConfigError):
        GenConfig(per_chart=0, seed=0).validate()
    with pytest.raises(ConfigError):
        GenConfig(per_chart=4, family_weights=(("position", -1.0),),
                  seed=0).validate()
    with pytest.raises(ConfigError):
        GenConfig(per_chart=4, family_weights=(("sizes", 1.0),),
                  seed=0).validate()
    with pytest.raises(ConfigError):
        GenConfig(per_chart=4, family_weights=(("position", float("nan")),
                                                ("extract", 1.0)),
                  seed=0).validate()


def test_default_weights_pin_the_reference_mix():
    weights = dict(DEFAULT_FAMILY_WEIGHTS)
    assert [f for f, _ in DEFAULT_FAMILY_WEIGHTS] == list(FAMILIES)
    assert abs(weights["position"] - 66617 / 331969) < 1e-12
    assert abs(weights["length"] - 31614 / 331969) < 1e-12
    assert abs(weights["pattern"] - 61268 / 331969) < 1e-12
    assert abs(weights["extract"] - 174411 / 331969) < 1e-12


# ---------------------------------------------------------------------------
# candidate spaces and the leak check

@pytest.fixture(scope="module")
def one_chart_per_kind():
    found = {}
    for seed in range(400):
        spec = sample_chart_spec(seed)
        if spec.kind not in found:
            found[spec.kind] = (spec, render_chart(spec)[1])
    assert len(found) == 6
    return found


def test_candidate_spaces_are_sized_without_building(one_chart_per_kind):
    for kind, (spec, geom) in one_chart_per_kind.items():
        for family in FAMILIES:
            space = FAMILY_CANDIDATES[family](spec, geom)
            built = [space[i] for i in range(len(space))]
            assert len(set(built)) == len(space), (kind, family)
            assert {c.query.family for c in built} <= {family}
            again = FAMILY_CANDIDATES[family](spec, geom)
            assert [again[i] for i in range(len(again))] == built
            with pytest.raises(IndexError):
                space[len(space)]


@pytest.mark.parametrize("question, leaks", [
    ("Is it 12 or more?", True),
    ("12 at the start", True),
    ("at the end 12", True),
    ("(12)", True),
    ("It was 112 then", False),
    ("It was 1.2 then", False),
    ("It was 12.5 then", False),
    ("It was 12.", False),
    ("Both 112 and 12 appear", True),
])
def test_numeric_leak_needs_a_whole_number(question, leaks):
    assert _leaks("12", "number", question) is leaks
    assert _leaks("12", "year", question) is leaks


def test_text_leak_handles_punctuation_and_case():
    assert _leaks("Q1.", "text", "Which sits above q1. on the chart?")
    assert _leaks("A&B", "text", "How large is a&b overall?")
    assert _leaks("Green (G/EFA)", "text", "Is green (g/efa) the largest?")
    assert _leaks("north", "text", "Which bar is NORTH of the rest?")
    assert not _leaks("north", "text", "Which bar is northern?")
    assert not _leaks("Q1.", "text", "Is XQ1. the largest?")
    # booleans are never checked against the question text
    assert not _leaks("True", "boolean", "Is it True that it rose?")


# ---------------------------------------------------------------------------
# phrasing


def test_every_candidate_phrases_cleanly(one_chart_per_kind):
    realized = 0
    for kind, (spec, geom) in one_chart_per_kind.items():
        for family in FAMILIES:
            space = FAMILY_CANDIDATES[family](spec, geom)
            for i in range(len(space)):
                cand = space[i]
                if cand.form == "factcheck":
                    continue  # phrased by the statement template instead
                text = realize_question(cand.query, spec, i, geom)
                assert text.endswith("?"), text
                assert not re.search(r"[{}]|\bNone\b", text), (kind, text)
                realized += 1
    assert realized == 2543


@pytest.mark.parametrize("root", [
    Op("Mean", (Extract(ByLegend(1)),)),
    Op("Sum", (Extract(ByVisual(color="dark blue")),)),
    # the fact-check shape is a statement, never a question
    Op("Compare", (Op("Sum", (Extract(ByName("Women", "2010")),
                              Extract(ByName("Women", "2011")))),
                   Extract(ByName("Women", "2012"))), relation="gt"),
])
def test_unregistered_shape_is_a_template_error(minutes_chart, root):
    spec, _, _ = minutes_chart
    with pytest.raises(TemplateError):
        realize_question(QuerySpec(root, "length", "number"), spec, 0)


def test_temporal_phrasing_reads_years(minutes_chart):
    spec, _, _ = minutes_chart

    def phrase(root, seed=0):
        return realize_question(QuerySpec(root, "length", "number"), spec, seed)

    def cell(year):
        return Extract(ByName(series="Women", category=year))

    assert phrase(cell("2014"), seed=0) == (
        "What was the value in 2014 in the Women series?")
    assert phrase(cell("2014"), seed=1) == (
        "What value was recorded in 2014 in the Women series?")
    assert phrase(Op("Diff", (cell("2016"), cell("2012")))) == (
        "How did the value change from 2012 to 2016 in the Women series?")
    # earlier year first: no change to narrate, so the plain wording
    assert phrase(Op("Diff", (cell("2012"), cell("2016")))) == (
        "What is the difference between the values of 2012 and 2016 "
        "in the Women series?")


@pytest.mark.parametrize("selector", [
    ByName(series="Women"),   # a whole row: no year to name
    ByName(category="2014"),  # a whole column of a two-series chart
])
def test_lookup_of_more_than_one_cell_is_a_template_error(minutes_chart,
                                                          selector):
    spec, _, _ = minutes_chart
    query = QuerySpec(Extract(selector), "length", "number")
    with pytest.raises(TemplateError, match="one cell"):
        realize_question(query, spec, 0)


def test_lookup_on_a_single_series_chart_needs_no_series(seats_chart):
    spec, _, _ = seats_chart
    query = QuerySpec(Extract(ByName(category="Liberal (RE)")), "length",
                      "number")
    assert realize_question(query, spec, 0).startswith(
        "What value does Liberal (RE) show")
    row = QuerySpec(Extract(ByName(series="Seats")), "length", "number")
    with pytest.raises(TemplateError, match="one cell"):
        realize_question(row, spec, 0)
