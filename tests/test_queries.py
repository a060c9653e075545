from decimal import Decimal

import pytest

from perceptqa.charts import ChartSpec, DataTable, SeriesDescriptor, require_valid
from perceptqa.errors import (
    AmbiguousSelectorError,
    NonScalarError,
    QueryError,
    TieError,
    UnresolvableSelectorError,
)
from perceptqa.queries import (
    ByExtreme,
    ByLegend,
    ByName,
    ByPosition,
    ByVisual,
    Extract,
    Op,
    QuerySpec,
    evaluate,
    leaf_selectors,
    node_from_dict,
    node_to_dict,
    op_kinds,
    oracle_eval,
    query_from_dict,
    query_to_dict,
    render_answer,
)
from perceptqa.render import render_chart


def _dec(values):
    return tuple(Decimal(v) for v in values)


def _grid():
    return require_valid(ChartSpec(
        chart_id="grid",
        kind="grouped_bar",
        title="Grid",
        table=DataTable(
            categories=("X", "Y", "Z"),
            series=(
                SeriesDescriptor("A", "dark red"),
                SeriesDescriptor("B", "dark blue", "striped"),
            ),
            values=(_dec(("10", "40", "20")), _dec(("30", "5", "0"))),
        ),
        axis_labels=("Cat", "Val"),
        legend_visible=True,
        seed=0,
    ))


@pytest.fixture(scope="module")
def grid():
    spec = _grid()
    _, geom = render_chart(spec)
    return spec, geom


def _cell(series=None, category=None):
    return Extract(ByName(series=series, category=category))


# ---------------------------------------------------------------------------
# selectors


def test_by_name_row(grid):
    spec, geom = grid
    cells = evaluate(_cell(series="A"), spec, geom)
    assert [c.value for c in cells] == [Decimal(10), Decimal(40), Decimal(20)]
    assert [c.label for c in cells] == ["X", "Y", "Z"]


def test_by_name_single_cell(grid):
    spec, geom = grid
    (cell,) = evaluate(_cell(series="A", category="Y"), spec, geom)
    assert cell.value == Decimal(40)
    assert cell.label == "Y"


def test_by_name_column(grid):
    spec, geom = grid
    cells = evaluate(_cell(category="Z"), spec, geom)
    assert [c.value for c in cells] == [Decimal(20), Decimal(0)]
    assert [c.label for c in cells] == ["A", "B"]


def test_by_name_unknown_raises(grid):
    spec, geom = grid
    with pytest.raises(UnresolvableSelectorError):
        evaluate(_cell(series="missing"), spec, geom)
    with pytest.raises(UnresolvableSelectorError):
        evaluate(_cell(series="A", category="missing"), spec, geom)
    with pytest.raises(UnresolvableSelectorError):
        evaluate(Extract(ByName()), spec, geom)


def test_by_visual_color_and_pattern(grid):
    spec, geom = grid
    by_color = evaluate(Extract(ByVisual(color="dark blue")), spec, geom)
    by_pattern = evaluate(Extract(ByVisual(pattern="striped")), spec, geom)
    assert by_color == by_pattern
    assert [c.value for c in by_color] == [Decimal(30), Decimal(5), Decimal(0)]


def test_by_visual_no_match_and_no_cue(grid):
    spec, geom = grid
    with pytest.raises(UnresolvableSelectorError):
        evaluate(Extract(ByVisual(color="dark red", pattern="striped")),
                 spec, geom)
    with pytest.raises(UnresolvableSelectorError):
        evaluate(Extract(ByVisual()), spec, geom)


def test_by_visual_ambiguous_raises():
    spec = require_valid(ChartSpec(
        chart_id="same-fill",
        kind="grouped_bar",
        title="Same fill",
        table=DataTable(
            categories=("X", "Y"),
            series=(
                SeriesDescriptor("A", "dark red", "striped"),
                SeriesDescriptor("B", "dark blue", "striped"),
            ),
            values=(_dec(("1", "2")), _dec(("3", "4"))),
        ),
        axis_labels=("Cat", "Val"),
        legend_visible=True,
        seed=0,
    ))
    with pytest.raises(AmbiguousSelectorError):
        evaluate(Extract(ByVisual(pattern="striped")), spec, None)


def test_by_legend_follows_drawn_order(grid):
    spec, geom = grid
    first = evaluate(Extract(ByLegend(1)), spec, geom)
    second = evaluate(Extract(ByLegend(2)), spec, geom)
    assert first[0].series == "A"
    assert second[0].series == "B"
    with pytest.raises(UnresolvableSelectorError):
        evaluate(Extract(ByLegend(3)), spec, geom)


def test_by_legend_needs_geometry(grid):
    spec, _ = grid
    with pytest.raises(QueryError):
        evaluate(Extract(ByLegend(1)), spec, None)


def test_by_position_resolves_drawn_column(grid):
    spec, geom = grid
    cells = evaluate(
        Extract(ByPosition(2, "column", "from_left")), spec, geom)
    assert all(c.category == "Y" for c in cells)
    assert [c.value for c in cells] == [Decimal(40), Decimal(5)]
    with pytest.raises(QueryError):
        evaluate(Extract(ByPosition(1, "column", "from_left")), spec, None)


def test_by_extreme_labels_carry_series(grid):
    spec, geom = grid
    (top,) = evaluate(Extract(ByExtreme("max")), spec, geom)
    (low,) = evaluate(Extract(ByExtreme("min")), spec, geom)
    (runner,) = evaluate(Extract(ByExtreme("max", k=2)), spec, geom)
    assert (top.value, top.label) == (Decimal(40), "A, Y")
    assert (low.value, low.label) == (Decimal(0), "B, Z")
    assert (runner.value, runner.label) == (Decimal(30), "B, X")


def test_by_extreme_tie_raises():
    spec = require_valid(ChartSpec(
        chart_id="tied",
        kind="vertical_bar",
        title="Tied",
        table=DataTable(
            categories=("X", "Y", "Z"),
            series=(SeriesDescriptor("S", "dark red"),),
            values=(_dec(("7", "7", "3")),),
        ),
        axis_labels=("Cat", "Val"),
        legend_visible=False,
        seed=0,
    ))
    # two cells hold 7, so both the top pick and the runner-up are ambiguous
    with pytest.raises(TieError):
        evaluate(Extract(ByExtreme("max")), spec, None)
    with pytest.raises(TieError):
        evaluate(Extract(ByExtreme("max", k=2)), spec, None)
    (low,) = evaluate(Extract(ByExtreme("min")), spec, None)
    assert low.value == Decimal(3)


# ---------------------------------------------------------------------------
# operations


def test_sum_mean_median(grid):
    spec, geom = grid
    row = _cell(series="A")
    assert evaluate(Op("Sum", (row,)), spec, geom) == Decimal(70)
    assert evaluate(Op("Mean", (row,)), spec, geom) == Decimal("23.3333")
    assert evaluate(Op("Median", (row,)), spec, geom) == Decimal(20)


def test_median_of_even_count_averages(grid):
    spec, geom = grid
    column = _cell(category="Z")  # 20 and 0
    assert evaluate(Op("Median", (column,)), spec, geom) == Decimal(10)


def test_pairwise_arithmetic(grid):
    spec, geom = grid
    a, b = _cell(series="A", category="Y"), _cell(series="B", category="Y")
    assert evaluate(Op("Diff", (a, b)), spec, geom) == Decimal(35)
    assert evaluate(Op("AbsDiff", (b, a)), spec, geom) == Decimal(35)
    assert evaluate(Op("Quotient", (a, b)), spec, geom) == Decimal(8)
    assert evaluate(Op("Ratio", (b, a)), spec, geom) == Decimal("0.125")


def test_quotient_by_zero_raises(grid):
    spec, geom = grid
    a = _cell(series="A", category="Y")
    zero = _cell(series="B", category="Z")
    with pytest.raises(QueryError):
        evaluate(Op("Quotient", (a, zero)), spec, geom)


def test_scalar_coercion_rejects_multi_cell(grid):
    spec, geom = grid
    with pytest.raises(NonScalarError):
        evaluate(Op("Diff", (_cell(series="A"), _cell(series="B"))),
                 spec, geom)


def test_compare_relations(grid):
    spec, geom = grid
    a, b = _cell(series="A", category="Y"), _cell(series="B", category="Y")
    assert evaluate(Op("Compare", (a, b), relation="gt"), spec, geom) is True
    assert evaluate(Op("Compare", (a, b), relation="le"), spec, geom) is False
    assert evaluate(Op("Compare", (b, a), relation="lt"), spec, geom) is True
    with pytest.raises(QueryError):
        evaluate(Op("Compare", (a, b)), spec, geom)


def test_threshold_and_count(grid):
    spec, geom = grid
    rows = (_cell(series="A"), _cell(series="B"))
    kept = evaluate(
        Op("Threshold", rows, relation="ge", value=Decimal(20)), spec, geom)
    assert sorted(c.value for c in kept) == [Decimal(20), Decimal(30), Decimal(40)]
    count = evaluate(
        Op("Count", (Op("Threshold", rows, relation="ge", value=Decimal(20)),)),
        spec, geom)
    assert count == Decimal(3)


def test_count_of_empty_threshold_is_zero(grid):
    spec, geom = grid
    none = Op("Threshold", (_cell(series="A"),),
              relation="gt", value=Decimal(1000))
    assert evaluate(Op("Count", (none,)), spec, geom) == Decimal(0)


def test_rank_and_argextreme(grid):
    spec, geom = grid
    row = _cell(series="A")
    (second,) = evaluate(Op("Rank", (row,), k=2, order="desc"), spec, geom)
    assert (second.value, second.label) == (Decimal(20), "Z")
    (top,) = evaluate(Op("ArgExtreme", (row,), mode="max"), spec, geom)
    assert (top.value, top.label) == (Decimal(40), "Y")


def test_one_fourth_nearest(grid):
    spec, geom = grid
    (pick,) = evaluate(
        Op("OneFourthNearest", (_cell(series="A"),)), spec, geom)
    # total 70, quarter 17.5; 20 sits closest
    assert (pick.value, pick.label) == (Decimal(20), "Z")


def test_rate_of_change(grid):
    spec, geom = grid
    row = _cell(series="A")
    assert evaluate(
        Op("RateOfChange", (row,), mode="max"), spec, geom) == "X to Y"
    assert evaluate(
        Op("RateOfChange", (row,), mode="min"), spec, geom) == "Y to Z"


def test_rate_of_change_tie_raises():
    spec = require_valid(ChartSpec(
        chart_id="steady",
        kind="line",
        title="Steady",
        table=DataTable(
            categories=("2001", "2002", "2003"),
            series=(SeriesDescriptor("S", "dark red"),),
            values=(_dec(("1", "2", "3")),),
        ),
        axis_labels=("Year", "Val"),
        legend_visible=False,
        seed=0,
    ))
    with pytest.raises(TieError):
        evaluate(Op("RateOfChange", (_cell(series="S"),), mode="max"),
                 spec, None)


# ---------------------------------------------------------------------------
# rendering and serialization


def test_render_answer_forms(grid):
    spec, geom = grid
    assert render_answer(Decimal("12.50")) == "12.5"
    assert render_answer(True) == "True"
    assert render_answer("X to Y") == "X to Y"
    cells = evaluate(_cell(series="A", category="Y"), spec, geom)
    assert render_answer(cells) == "Y"
    with pytest.raises(QueryError):
        render_answer(evaluate(_cell(series="A"), spec, geom))


def test_oracle_eval_returns_canonical_strings(grid):
    spec, geom = grid
    q = QuerySpec(Op("Mean", (_cell(series="A"),)), "extract", "number")
    assert oracle_eval(q, spec, geom) == "23.3333"


def test_tree_helpers(grid):
    root = Op("Diff", (
        Op("Sum", (_cell(series="A"),)),
        _cell(series="B", category="X"),
    ))
    assert op_kinds(root) == {"Diff", "Sum"}
    assert len(leaf_selectors(root)) == 2


def test_query_serialization_round_trip(grid):
    spec, geom = grid
    queries = [
        QuerySpec(Op("Diff", (
            Op("ArgExtreme", (_cell(series="A"),), mode="max"),
            Op("ArgExtreme", (_cell(series="A"),), mode="min"),
        )), "position", "number"),
        QuerySpec(Op("Count", (
            Op("Threshold", (_cell(series="B"),),
               relation="ge", value=Decimal("20")),
        )), "pattern", "number"),
        QuerySpec(Op("Rank", (Extract(ByExtreme("max")),), k=1, order="desc"),
                  "extract", "number"),
        QuerySpec(Extract(ByPosition(2, "column", "from_right")),
                  "position", "number"),
        QuerySpec(Op("Compare", (
            _cell(series="A", category="X"),
            _cell(series="B", category="X"),
        ), relation="lt"), "extract", "boolean"),
    ]
    for q in queries:
        again = query_from_dict(query_to_dict(q))
        assert again == q


def test_node_dict_canonicalizes_threshold_value():
    node = Op("Threshold", (_cell(series="A"),),
              relation="ge", value=Decimal("20.50"))
    doc = node_to_dict(node)
    assert doc["value"] == "20.5"
    assert node_from_dict(doc).value == Decimal("20.5")


def test_unknown_kind_rejected():
    with pytest.raises(QueryError):
        Op("Average", (_cell(series="A"),))
    with pytest.raises(QueryError):
        QuerySpec(_cell(series="A"), "sizes", "number")
    with pytest.raises(QueryError):
        QuerySpec(_cell(series="A"), "extract", "letters")
