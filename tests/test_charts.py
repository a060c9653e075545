import json
from dataclasses import replace
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from perceptqa.charts import (
    ChartSpec,
    DataTable,
    KIND_SERIES,
    SeriesDescriptor,
    chart_to_dict,
    dumps_chart,
    dumps_indented,
    loads_chart,
    require_valid,
    sample_chart_spec,
    validate_chart_spec,
)
from perceptqa.errors import SpecValidationError
from perceptqa.palette import COLOR_NAMES, PATTERNS


def _single_bar(values, unit=None, kind="vertical_bar"):
    cats = tuple(f"C{i}" for i in range(len(values)))
    return ChartSpec(
        chart_id="t-chart",
        kind=kind,
        title="Test",
        table=DataTable(
            categories=cats,
            series=(SeriesDescriptor("Only", "dark red"),),
            values=(tuple(Decimal(v) for v in values),),
            unit=unit,
        ),
        axis_labels=("Category", "Value"),
        legend_visible=False,
        seed=0,
    )


def test_sampler_is_deterministic():
    a = sample_chart_spec(42)
    b = sample_chart_spec(42)
    assert a == b
    assert dumps_chart(a) == dumps_chart(b)


def test_different_seeds_vary():
    specs = {dumps_chart(sample_chart_spec(i)) for i in range(20)}
    assert len(specs) == 20


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_sampled_specs_are_always_valid(seed):
    spec = sample_chart_spec(seed)
    assert validate_chart_spec(spec) == []
    lo, hi = KIND_SERIES[spec.kind]
    assert lo <= len(spec.table.series) <= hi


def test_sampler_covers_every_kind():
    kinds = {sample_chart_spec(i).kind for i in range(300)}
    assert kinds == set(KIND_SERIES)


def test_serialization_round_trip():
    for seed in range(30):
        spec = sample_chart_spec(seed)
        again = loads_chart(dumps_chart(spec))
        assert again == spec


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers()
    | st.integers(min_value=-(2 ** 80), max_value=2 ** 80)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 1e16, 5e-324, 0.1 + 0.2, float("nan"),
                       float("inf"), float("-inf")])
    | st.text()
    | st.text(alphabet="\"\\/\x00\x1f\x7f\n\t\u2028é€😀"))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
def test_indented_writer_matches_json_dumps(value):
    assert dumps_indented(value) == json.dumps(value, indent=2,
                                               ensure_ascii=False)


def test_indented_writer_rejects_what_json_rejects():
    with pytest.raises(TypeError, match="not JSON serializable"):
        dumps_indented({"a": [Decimal(1)]})


def test_values_serialize_without_float_drift():
    spec = sample_chart_spec(7)
    doc = chart_to_dict(spec)
    for row, srow in zip(doc["values"], spec.table.values):
        for v, sv in zip(row, srow):
            assert Decimal(repr(v)) == sv


def test_validate_catches_bad_chart_id():
    spec = _single_bar(["1", "2", "3"])
    bad = replace(spec, chart_id="has space")
    assert any(v.field == "chart_id" for v in validate_chart_spec(bad))


def test_validate_catches_series_count_for_kind():
    table = DataTable(
        categories=("A", "B", "C"),
        series=(
            SeriesDescriptor("S1", "dark red"),
            SeriesDescriptor("S2", "dark blue"),
        ),
        values=(
            (Decimal(1), Decimal(2), Decimal(3)),
            (Decimal(4), Decimal(5), Decimal(6)),
        ),
    )
    spec = ChartSpec("t", "pie", "T", table, None, True, 0)
    assert any(v.field == "series" for v in validate_chart_spec(spec))


def test_validate_catches_ragged_values():
    table = DataTable(
        categories=("A", "B", "C"),
        series=(SeriesDescriptor("S1", "dark red"),),
        values=((Decimal(1), Decimal(2)),),
    )
    spec = ChartSpec("t", "vertical_bar", "T", table, ("x", "y"), False, 0)
    assert any(v.field == "values" for v in validate_chart_spec(spec))


def test_validate_catches_duplicate_categories():
    spec = _single_bar(["1", "2", "3"])
    table = spec.table
    bad_table = DataTable(("A", "A", "B"), table.series, table.values, table.unit)
    bad = ChartSpec("t", "vertical_bar", "T", bad_table, ("x", "y"), False, 0)
    assert any(v.field == "categories" for v in validate_chart_spec(bad))


def test_validate_catches_unknown_color_and_pattern():
    table = DataTable(
        categories=("A", "B"),
        series=(SeriesDescriptor("S1", "neon pink", "plaid"),),
        values=((Decimal(1), Decimal(2)),),
    )
    spec = ChartSpec("t", "vertical_bar", "T", table, ("x", "y"), False, 0)
    messages = [str(v) for v in validate_chart_spec(spec)]
    assert any("neon pink" in m for m in messages)
    assert any("plaid" in m for m in messages)


def test_validate_catches_percent_out_of_range():
    spec = _single_bar(["50", "120"], unit="percent")
    assert any(v.field == "values" for v in validate_chart_spec(spec))


def test_validate_catches_negative_pie_slice():
    spec = _single_bar(["5", "-1"], kind="pie")
    bad = replace(spec, axis_labels=None)
    assert any(v.field == "values" for v in validate_chart_spec(bad))


def test_validate_requires_legend_for_multi_series():
    table = DataTable(
        categories=("A", "B", "C"),
        series=(
            SeriesDescriptor("S1", "dark red"),
            SeriesDescriptor("S2", "dark blue"),
        ),
        values=(
            (Decimal(1), Decimal(2), Decimal(3)),
            (Decimal(4), Decimal(5), Decimal(6)),
        ),
    )
    spec = ChartSpec("t", "grouped_bar", "T", table, ("x", "y"), False, 0)
    assert any(v.field == "legend_visible" for v in validate_chart_spec(spec))


def test_validate_rejects_axes_on_pie():
    spec = _single_bar(["5", "6"], kind="pie")
    assert any(v.field == "axis_labels" for v in validate_chart_spec(spec))


def test_require_valid_raises_with_all_violations():
    spec = _single_bar(["50", "120"], unit="percent")
    bad = replace(spec, chart_id="has space")
    with pytest.raises(SpecValidationError) as err:
        require_valid(bad)
    assert "chart_id" in str(err.value)


def test_palette_is_closed_and_unique():
    assert len(set(COLOR_NAMES)) == len(COLOR_NAMES)
    assert "solid" in PATTERNS
    spec = sample_chart_spec(3)
    for s in spec.table.series:
        assert s.color in COLOR_NAMES
        assert s.pattern in PATTERNS
