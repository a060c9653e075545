import hashlib
import re
import xml.etree.ElementTree as ET
from decimal import Decimal

import pytest

from perceptqa.charts import (
    ChartSpec,
    DataTable,
    SeriesDescriptor,
    dumps_chart,
    require_valid,
    sample_chart_spec,
)
from perceptqa.errors import QueryError, RenderError
from perceptqa.render import (
    decode_mark_value,
    dumps_geom,
    geom_to_dict,
    loads_geom,
    positional_rank,
    render_chart,
)


def _first_of_kind(kind, limit=400):
    for seed in range(limit):
        spec = sample_chart_spec(seed)
        if spec.kind == kind:
            return spec
    raise AssertionError(f"no {kind} chart in the first {limit} seeds")


def test_sampler_and_renderer_bytes_are_pinned():
    # 300 seeds cover all six kinds, pattern fills and year axes
    h = hashlib.sha256()
    for seed in range(300):
        spec = sample_chart_spec(seed)
        svg, geom = render_chart(spec)
        for text in (dumps_chart(spec), svg, dumps_geom(geom)):
            h.update(text.encode("utf-8"))
    assert h.hexdigest() == (
        "6c9817e32c3623713ce17ec1bb78e466d4ca220b3a52fc42b1087a6cea818a9f")


def test_render_is_deterministic():
    spec = sample_chart_spec(11)
    svg_a, geom_a = render_chart(spec)
    svg_b, geom_b = render_chart(spec)
    assert svg_a == svg_b
    assert geom_to_dict(geom_a) == geom_to_dict(geom_b)


def test_svg_is_well_formed_xml():
    for seed in range(25):
        spec = sample_chart_spec(seed)
        svg, _ = render_chart(spec)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert spec.title in svg


def test_geometry_round_trips_through_json():
    for seed in range(10):
        spec = sample_chart_spec(seed)
        _, geom = render_chart(spec)
        again = loads_geom(dumps_geom(geom))
        assert geom_to_dict(again) == geom_to_dict(geom)


def test_every_cell_has_a_mark():
    for seed in range(25):
        spec = sample_chart_spec(seed)
        _, geom = render_chart(spec)
        cells = [(i, j) for i in range(len(spec.table.series))
                 for j in range(len(spec.table.categories))]
        assert sorted((m.series, m.category) for m in geom.marks) == cells


def test_bar_decode_recovers_values_within_one_pixel():
    checked = 0
    for seed in range(200):
        spec = sample_chart_spec(seed)
        if spec.kind == "pie":
            continue
        _, geom = render_chart(spec)
        slack = geom.value_axis.units_per_pixel()
        for mark in geom.marks:
            value = spec.table.values[mark.series][mark.category]
            decoded = decode_mark_value(geom, mark)
            assert abs(decoded - float(value)) <= slack, (
                f"seed {seed} {spec.kind} mark {mark.series},{mark.category}: "
                f"decoded {decoded}, data {value}")
            checked += 1
    assert checked > 500


def test_pie_has_no_value_axis_and_refuses_decode():
    spec = _first_of_kind("pie")
    _, geom = render_chart(spec)
    assert geom.value_axis is None
    with pytest.raises(RenderError):
        decode_mark_value(geom, geom.marks[0])


def test_ticks_sit_on_the_axis_scale():
    spec = _first_of_kind("vertical_bar")
    _, geom = render_chart(spec)
    ax = geom.value_axis
    assert geom.ticks
    for value, pixel in geom.ticks:
        assert abs(ax.pixel_of(value) - pixel) < 0.51


def test_row_rank_reading_order():
    spec = _first_of_kind("horizontal_bar")
    _, geom = render_chart(spec)
    n = len(spec.table.categories)
    top_down = [positional_rank(geom, "row", "from_top", r)
                for r in range(1, n + 1)]
    bottom_up = [positional_rank(geom, "row", "from_bottom", r)
                 for r in range(1, n + 1)]
    assert top_down == list(reversed(bottom_up))
    assert sorted(top_down) == sorted(spec.table.categories)


def test_column_rank_reading_order():
    spec = _first_of_kind("vertical_bar")
    _, geom = render_chart(spec)
    n = len(spec.table.categories)
    left = [positional_rank(geom, "column", "from_left", r)
            for r in range(1, n + 1)]
    right = [positional_rank(geom, "column", "from_right", r)
             for r in range(1, n + 1)]
    assert left == list(reversed(right))
    # drawing order preserves the table's category order left to right
    assert left == list(spec.table.categories)


def test_rank_axis_mismatch_raises():
    spec = _first_of_kind("vertical_bar")
    _, geom = render_chart(spec)
    with pytest.raises(QueryError):
        positional_rank(geom, "row", "from_top", 1)
    with pytest.raises(QueryError):
        positional_rank(geom, "column", "from_top", 1)
    with pytest.raises(QueryError):
        positional_rank(geom, "column", "from_left", 99)


def test_legend_boxes_follow_visibility():
    seen_visible = False
    for seed in range(60):
        spec = sample_chart_spec(seed)
        _, geom = render_chart(spec)
        if spec.legend_visible:
            seen_visible = True
            assert len(geom.legend) == len(spec.table.series)
            rows = sorted(geom.legend, key=lambda b: (b.y, b.x))
            assert [b.series for b in rows] == list(range(len(spec.table.series)))
        elif spec.kind != "pie":
            assert geom.legend == ()
    assert seen_visible


def test_striped_pie_legend_references_a_defined_pattern():
    spec = require_valid(ChartSpec(
        chart_id="striped-pie",
        kind="pie",
        title="Mix",
        table=DataTable(
            categories=("A", "B", "C"),
            series=(SeriesDescriptor("Share", "dark red", "striped"),),
            values=((Decimal(50), Decimal(30), Decimal(20)),),
        ),
        axis_labels=None,
        legend_visible=True,
        seed=0,
    ))
    svg, _ = render_chart(spec)
    refs = set(re.findall(r"url\(#(pat\d+)\)", svg))
    assert refs
    for ref in refs:
        assert f'id="{ref}"' in svg, ref
