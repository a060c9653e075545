"""Deterministic SVG rendering with a recorded geometry map.

Every visual mark (bar, segment, line point, wedge) gets a bounding box
and an anchor in the geometry map, along with the value-axis scale and
legend boxes.  Perception selectors ("second bar from the left") resolve
against this map, never against the data table directly, so a layout bug
shows up as a wrong answer instead of being silently absorbed.

No real font metrics are available; text extents use a fixed per-glyph
advance table, which keeps layout byte-stable across machines.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal, ROUND_CEILING, ROUND_FLOOR
from functools import cached_property

from .charts import ChartSpec, dumps_indented
from .errors import QueryError, RenderError
from .numformat import canon_number
from .palette import COLOR_NAMES, color_hex

FONT_FAMILY = "Helvetica, Arial, sans-serif"
TITLE_SIZE = 13
LABEL_SIZE = 10
AXIS_NAME_SIZE = 11
LEGEND_SIZE = 11

# per-glyph advance in em units; anything absent uses the default
_ADVANCES = {
    **{c: 0.30 for c in "ilj.,:;!'|"},
    **{c: 0.40 for c in "ftr()[]- "},
    **{c: 0.56 for c in "0123456789"},
    **{c: 0.88 for c in "mwMW"},
    **{c: 0.70 for c in "ABCDEFGHJKNOPQRSUVXYZ"},
    "%": 0.90,
    "I": 0.34,
    "L": 0.56,
    "T": 0.62,
}
_DEFAULT_ADVANCE = 0.58


def text_width(text: str, size: float) -> float:
    return sum(_ADVANCES.get(ch, _DEFAULT_ADVANCE) for ch in text) * size


@dataclass(frozen=True)
class Canvas:
    width: int = 640
    height: int = 400


@dataclass(frozen=True)
class Mark:
    series: int
    category: int
    x: float
    y: float
    w: float
    h: float
    anchor: tuple[float, float]


@dataclass(frozen=True)
class AxisScale:
    orient: str  # "vertical" or "horizontal"
    px0: float   # pixel of v0
    px1: float   # pixel of v1
    v0: float
    v1: float

    def pixel_of(self, value: float) -> float:
        if self.v1 == self.v0:
            raise RenderError("degenerate axis")
        t = (value - self.v0) / (self.v1 - self.v0)
        return self.px0 + t * (self.px1 - self.px0)

    def value_of(self, pixel: float) -> float:
        t = (pixel - self.px0) / (self.px1 - self.px0)
        return self.v0 + t * (self.v1 - self.v0)

    def units_per_pixel(self) -> float:
        return abs((self.v1 - self.v0) / (self.px1 - self.px0))


@dataclass(frozen=True)
class LegendBox:
    series: int
    x: float
    y: float
    w: float
    h: float


@dataclass(frozen=True)
class GeometryMap:
    chart_id: str
    kind: str
    categories: tuple[str, ...]
    series_names: tuple[str, ...]
    plot: tuple[float, float, float, float]  # x, y, w, h
    marks: tuple[Mark, ...]
    value_axis: AxisScale | None
    ticks: tuple[tuple[float, float], ...]  # (value, pixel)
    legend: tuple[LegendBox, ...]

    @cached_property
    def _drawn_order(self) -> dict[str, tuple[str, ...]]:
        # direction -> category labels in drawn order, filled by positional_rank
        return {}


def decode_mark_value(geom: GeometryMap, mark: Mark) -> float:
    """Recover a mark's value from recorded pixels and the axis scale."""
    ax = geom.value_axis
    if ax is None:
        raise RenderError(f"{geom.kind} has no value axis to decode against")
    if geom.kind == "line":
        pixel = mark.anchor[1] if ax.orient == "vertical" else mark.anchor[0]
        return ax.value_of(pixel)
    extent = mark.h if ax.orient == "vertical" else mark.w
    return extent * ax.units_per_pixel()


ROW_DIRECTIONS = ("from_top", "from_bottom")
COLUMN_DIRECTIONS = ("from_left", "from_right")


def positional_rank(geom: GeometryMap, axis: str, direction: str, rank: int) -> str:
    """Resolve "the rank-th row/column from <direction>" to a category label.

    Works purely from mark anchors so the answer reflects what is drawn.
    Each direction's order is sorted once per geometry and then reused.
    """
    if axis == "row":
        if geom.kind != "horizontal_bar":
            raise QueryError(f"{geom.kind} has no row positions")
        if direction not in ROW_DIRECTIONS:
            raise QueryError(f"row axis cannot use direction {direction!r}")
        coord = 1
        reverse = direction == "from_bottom"
    elif axis == "column":
        if geom.kind not in ("vertical_bar", "grouped_bar", "stacked_bar", "line"):
            raise QueryError(f"{geom.kind} has no column positions")
        if direction not in COLUMN_DIRECTIONS:
            raise QueryError(f"column axis cannot use direction {direction!r}")
        coord = 0
        reverse = direction == "from_right"
    else:
        raise QueryError(f"unknown positional axis {axis!r}")

    ordered = geom._drawn_order.get(direction)
    if ordered is None:
        centers: dict[int, list[float]] = {}
        for m in geom.marks:
            centers.setdefault(m.category, []).append(m.anchor[coord])
        ordered = geom._drawn_order[direction] = tuple(
            geom.categories[c] for c in sorted(
                centers, key=lambda c: sum(centers[c]) / len(centers[c]),
                reverse=reverse,
            ))
    if not 1 <= rank <= len(ordered):
        raise QueryError(
            f"rank {rank} out of range 1..{len(ordered)} on {axis} axis")
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# rendering

def render_chart(spec: ChartSpec, canvas: Canvas | None = None) -> tuple[str, GeometryMap]:
    canvas = canvas or Canvas()
    if canvas.width < 240 or canvas.height < 180:
        raise RenderError("canvas smaller than 240x180")
    if spec.kind == "pie":
        return _render_pie(spec, canvas)
    return _render_axes_chart(spec, canvas)


def _r2(x: float) -> float:
    return round(x + 0.0, 2)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _nice_axis(vmin: Decimal, vmax: Decimal) -> tuple[Decimal, Decimal, Decimal]:
    lo = min(vmin, Decimal(0))
    hi = max(vmax, Decimal(0))
    if hi == lo:
        hi = lo + 1
    raw = (hi - lo) / 5
    exp = raw.adjusted()
    step = None
    for base in (Decimal("1"), Decimal("2"), Decimal("2.5"), Decimal("5"), Decimal("10")):
        candidate = base.scaleb(exp)
        if candidate >= raw:
            step = candidate
            break
    assert step is not None
    amin = (lo / step).to_integral_value(rounding=ROUND_FLOOR) * step
    amax = (hi / step).to_integral_value(rounding=ROUND_CEILING) * step
    return amin, amax, step


def _axis_ticks(amin: Decimal, amax: Decimal, step: Decimal) -> list[Decimal]:
    ticks = []
    t = amin
    while t <= amax:
        ticks.append(t)
        t += step
    return ticks


def _legend_width(spec: ChartSpec) -> float:
    if not spec.legend_visible:
        return 0.0
    longest = max(text_width(s.name, LEGEND_SIZE) for s in spec.table.series)
    return 12 + 5 + longest + 16


def _pattern_defs(spec: ChartSpec) -> list[str]:
    defs = []
    for i, s in enumerate(spec.table.series):
        if s.pattern == "solid":
            continue
        hexc = color_hex(s.color)
        if s.pattern == "striped":
            defs.append(
                f'<pattern id="pat{i}" patternUnits="userSpaceOnUse" width="6" '
                f'height="6" patternTransform="rotate(45)">'
                f'<rect width="6" height="6" fill="{hexc}"/>'
                f'<line x1="0" y1="0" x2="0" y2="6" stroke="#ffffff" stroke-width="2"/>'
                f"</pattern>"
            )
        elif s.pattern == "dotted":
            defs.append(
                f'<pattern id="pat{i}" patternUnits="userSpaceOnUse" width="7" height="7">'
                f'<rect width="7" height="7" fill="{hexc}"/>'
                f'<circle cx="3.5" cy="3.5" r="1.3" fill="#ffffff"/>'
                f"</pattern>"
            )
    return defs


def _series_fill(spec: ChartSpec, i: int) -> str:
    s = spec.table.series[i]
    if s.pattern == "solid":
        return color_hex(s.color)
    return f"url(#pat{i})"


def _legend_parts(
    spec: ChartSpec, x: float, y: float
) -> tuple[list[str], list[LegendBox]]:
    parts, boxes = [], []
    row_h = 18.0
    width = _legend_width(spec) - 8
    for i, s in enumerate(spec.table.series):
        ey = y + i * row_h
        fill = _series_fill(spec, i)
        parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(ey + 3)}" width="12" height="12" '
            f'fill="{fill}" stroke="#333333" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{_fmt(x + 17)}" y="{_fmt(ey + 13)}" '
            f'font-family="{FONT_FAMILY}" font-size="{LEGEND_SIZE}" '
            f'fill="#222222">{_esc(s.name)}</text>'
        )
        boxes.append(LegendBox(i, _r2(x), _r2(ey), _r2(width), _r2(row_h)))
    return parts, boxes


def _render_axes_chart(spec: ChartSpec, canvas: Canvas) -> tuple[str, GeometryMap]:
    table = spec.table
    n_series = len(table.series)
    n_cat = len(table.categories)
    horizontal = spec.kind == "horizontal_bar"

    if spec.kind == "stacked_bar":
        vmax = max(sum(table.values[i][j] for i in range(n_series))
                   for j in range(n_cat))
        vmin = Decimal(0)
    else:
        flat = [v for row in table.values for v in row]
        vmax = max(flat)
        vmin = min(flat)
    amin, amax, step = _nice_axis(vmin, vmax)
    ticks = _axis_ticks(amin, amax, step)
    tick_labels = [canon_number(t) for t in ticks]
    tick_label_w = max(text_width(t, LABEL_SIZE) for t in tick_labels)

    pad = 10.0
    top = pad + (22 if spec.title else 6)
    legend_w = _legend_width(spec)
    right = pad + (legend_w + 6 if legend_w else 4)
    has_axis_names = spec.axis_labels is not None

    if horizontal:
        cat_label_w = max(text_width(c, LABEL_SIZE) for c in table.categories)
        left = pad + (16 if has_axis_names else 0) + cat_label_w + 8
        bottom = pad + 14 + (16 if has_axis_names else 0)
    else:
        left = pad + (16 if has_axis_names else 0) + tick_label_w + 10
        bottom = pad + 14 + (16 if has_axis_names else 0)

    plot_x, plot_y = _r2(left), _r2(top)
    plot_w, plot_h = _r2(canvas.width - right - left), _r2(canvas.height - bottom - top)
    if plot_w < 60 or plot_h < 50:
        raise RenderError("plot area too small after margins")

    if horizontal:
        axis = AxisScale("horizontal", _r2(plot_x), _r2(plot_x + plot_w),
                         float(amin), float(amax))
    else:
        axis = AxisScale("vertical", _r2(plot_y + plot_h), _r2(plot_y),
                         float(amin), float(amax))

    parts: list[str] = []
    parts.append(
        f'<rect x="0" y="0" width="{canvas.width}" height="{canvas.height}" '
        f'fill="#ffffff"/>'
    )
    defs = _pattern_defs(spec)
    if defs:
        parts.append("<defs>" + "".join(defs) + "</defs>")
    if spec.title:
        parts.append(
            f'<text x="{_fmt(canvas.width / 2)}" y="{_fmt(pad + 10)}" '
            f'font-family="{FONT_FAMILY}" font-size="{TITLE_SIZE}" '
            f'font-weight="bold" text-anchor="middle" fill="#111111">'
            f"{_esc(spec.title)}</text>"
        )

    tick_geo: list[tuple[float, float]] = []
    for t, label in zip(ticks, tick_labels):
        p = _r2(axis.pixel_of(float(t)))
        tick_geo.append((float(t), p))
        if horizontal:
            parts.append(
                f'<line x1="{_fmt(p)}" y1="{_fmt(plot_y)}" x2="{_fmt(p)}" '
                f'y2="{_fmt(plot_y + plot_h)}" stroke="#e3e3e3" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{_fmt(p)}" y="{_fmt(plot_y + plot_h + 13)}" '
                f'font-family="{FONT_FAMILY}" font-size="{LABEL_SIZE}" '
                f'text-anchor="middle" fill="#333333">{label}</text>'
            )
        else:
            parts.append(
                f'<line x1="{_fmt(plot_x)}" y1="{_fmt(p)}" x2="{_fmt(plot_x + plot_w)}" '
                f'y2="{_fmt(p)}" stroke="#e3e3e3" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{_fmt(plot_x - 5)}" y="{_fmt(p + 3.5)}" '
                f'font-family="{FONT_FAMILY}" font-size="{LABEL_SIZE}" '
                f'text-anchor="end" fill="#333333">{label}</text>'
            )

    marks: list[Mark] = []
    slot = plot_w / n_cat if not horizontal else plot_h / n_cat
    baseline = axis.pixel_of(0.0)

    if spec.kind in ("vertical_bar", "grouped_bar"):
        bar_w = slot * 0.8 / n_series
        for j in range(n_cat):
            slot_x = plot_x + j * slot + slot * 0.1
            for i in range(n_series):
                v = float(table.values[i][j])
                p = axis.pixel_of(v)
                x = _r2(slot_x + i * bar_w)
                y = _r2(min(p, baseline))
                h = _r2(abs(baseline - p))
                w = _r2(bar_w)
                parts.append(_bar_rect(spec, i, x, y, w, h))
                marks.append(Mark(i, j, x, y, w, h,
                                  (_r2(x + w / 2), _r2(y + h / 2))))
    elif spec.kind == "horizontal_bar":
        bar_h = slot * 0.8
        for j in range(n_cat):
            slot_y = plot_y + j * slot + slot * 0.1
            v = float(table.values[0][j])
            p = axis.pixel_of(v)
            x = _r2(min(p, baseline))
            y = _r2(slot_y)
            w = _r2(abs(p - baseline))
            h = _r2(bar_h)
            parts.append(_bar_rect(spec, 0, x, y, w, h))
            marks.append(Mark(0, j, x, y, w, h,
                              (_r2(x + w / 2), _r2(y + h / 2))))
    elif spec.kind == "stacked_bar":
        bar_w = slot * 0.6
        for j in range(n_cat):
            x = _r2(plot_x + j * slot + slot * 0.2)
            cum = 0.0
            for i in range(n_series):
                v = float(table.values[i][j])
                y_low = axis.pixel_of(cum)
                y_high = axis.pixel_of(cum + v)
                y = _r2(min(y_low, y_high))
                h = _r2(abs(y_low - y_high))
                w = _r2(bar_w)
                parts.append(_bar_rect(spec, i, x, y, w, h))
                marks.append(Mark(i, j, x, y, w, h,
                                  (_r2(x + w / 2), _r2(y + h / 2))))
                cum += v
    elif spec.kind == "line":
        dash = {"striped": ' stroke-dasharray="6 3"',
                "dotted": ' stroke-dasharray="2 3"'}
        for i in range(n_series):
            pts = []
            hexc = color_hex(table.series[i].color)
            for j in range(n_cat):
                cx = _r2(plot_x + (j + 0.5) * slot)
                cy = _r2(axis.pixel_of(float(table.values[i][j])))
                pts.append((cx, cy))
            coords = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in pts)
            extra = dash.get(table.series[i].pattern, "")
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{hexc}" '
                f'stroke-width="2"{extra}/>'
            )
            for j, (cx, cy) in enumerate(pts):
                parts.append(
                    f'<rect x="{_fmt(cx - 3)}" y="{_fmt(cy - 3)}" width="6" '
                    f'height="6" fill="{hexc}"/>'
                )
                marks.append(Mark(i, j, _r2(cx - 3), _r2(cy - 3), 6.0, 6.0,
                                  (cx, cy)))
    else:
        raise RenderError(f"unsupported kind {spec.kind!r}")

    # category labels and axis frames
    if horizontal:
        for j, label in enumerate(table.categories):
            cy = plot_y + (j + 0.5) * slot
            parts.append(
                f'<text x="{_fmt(plot_x - 6)}" y="{_fmt(cy + 3.5)}" '
                f'font-family="{FONT_FAMILY}" font-size="{LABEL_SIZE}" '
                f'text-anchor="end" fill="#333333">{_esc(label)}</text>'
            )
    else:
        max_cat_w = max(text_width(c, LABEL_SIZE) for c in table.categories)
        cat_size = LABEL_SIZE if max_cat_w <= slot * 0.95 else 8
        for j, label in enumerate(table.categories):
            cx = plot_x + (j + 0.5) * slot
            parts.append(
                f'<text x="{_fmt(cx)}" y="{_fmt(plot_y + plot_h + 13)}" '
                f'font-family="{FONT_FAMILY}" font-size="{cat_size}" '
                f'text-anchor="middle" fill="#333333">{_esc(label)}</text>'
            )
    parts.append(
        f'<line x1="{_fmt(plot_x)}" y1="{_fmt(plot_y)}" x2="{_fmt(plot_x)}" '
        f'y2="{_fmt(plot_y + plot_h)}" stroke="#444444" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_fmt(plot_x)}" y1="{_fmt(plot_y + plot_h)}" '
        f'x2="{_fmt(plot_x + plot_w)}" y2="{_fmt(plot_y + plot_h)}" '
        f'stroke="#444444" stroke-width="1"/>'
    )

    if spec.axis_labels:
        cat_name, val_name = spec.axis_labels
        bottom_name = val_name if horizontal else cat_name
        side_name = cat_name if horizontal else val_name
        parts.append(
            f'<text x="{_fmt(plot_x + plot_w / 2)}" '
            f'y="{_fmt(canvas.height - 6)}" font-family="{FONT_FAMILY}" '
            f'font-size="{AXIS_NAME_SIZE}" text-anchor="middle" '
            f'fill="#222222">{_esc(bottom_name)}</text>'
        )
        mid_y = plot_y + plot_h / 2
        parts.append(
            f'<text x="12" y="{_fmt(mid_y)}" font-family="{FONT_FAMILY}" '
            f'font-size="{AXIS_NAME_SIZE}" text-anchor="middle" '
            f'transform="rotate(-90 12 {_fmt(mid_y)})" fill="#222222">'
            f"{_esc(side_name)}</text>"
        )

    legend_boxes: list[LegendBox] = []
    if spec.legend_visible:
        lx = canvas.width - pad - legend_w + 8
        lparts, legend_boxes = _legend_parts(spec, lx, plot_y)
        parts.extend(lparts)

    svg = _wrap_svg(parts, canvas)
    geom = GeometryMap(
        chart_id=spec.chart_id,
        kind=spec.kind,
        categories=table.categories,
        series_names=tuple(s.name for s in table.series),
        plot=(plot_x, plot_y, plot_w, plot_h),
        marks=tuple(marks),
        value_axis=axis,
        ticks=tuple(tick_geo),
        legend=tuple(legend_boxes),
    )
    return svg, geom


def _bar_rect(spec: ChartSpec, series_index: int, x: float, y: float,
              w: float, h: float) -> str:
    fill = _series_fill(spec, series_index)
    return (
        f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
        f'height="{_fmt(h)}" fill="{fill}" stroke="#333333" stroke-width="0.5"/>'
    )


def _render_pie(spec: ChartSpec, canvas: Canvas) -> tuple[str, GeometryMap]:
    table = spec.table
    values = [float(v) for v in table.values[0]]
    total = sum(values)
    if total <= 0:
        raise RenderError("pie total must be positive")

    pad = 10.0
    top = pad + (22 if spec.title else 6)
    legend_w = _legend_width(spec)
    right = pad + (legend_w + 6 if legend_w else 4)
    label_room = 70.0
    plot_x, plot_y = _r2(pad + label_room), _r2(top)
    plot_w = _r2(canvas.width - right - label_room - (pad + label_room))
    plot_h = _r2(canvas.height - pad - top - 20)
    if min(plot_w, plot_h) < 80:
        raise RenderError("canvas too small for a pie chart")
    cx, cy = _r2(plot_x + plot_w / 2), _r2(plot_y + plot_h / 2)
    radius = _r2(min(plot_w, plot_h) / 2 - 6)

    parts: list[str] = [
        f'<rect x="0" y="0" width="{canvas.width}" height="{canvas.height}" '
        f'fill="#ffffff"/>'
    ]
    if spec.title:
        parts.append(
            f'<text x="{_fmt(canvas.width / 2)}" y="{_fmt(pad + 10)}" '
            f'font-family="{FONT_FAMILY}" font-size="{TITLE_SIZE}" '
            f'font-weight="bold" text-anchor="middle" fill="#111111">'
            f"{_esc(spec.title)}</text>"
        )

    def point_at(clock_deg: float, r: float) -> tuple[float, float]:
        rad = math.radians(clock_deg)
        return cx + r * math.sin(rad), cy - r * math.cos(rad)

    marks: list[Mark] = []
    angle = 0.0
    for j, v in enumerate(values):
        sweep = 360.0 * v / total
        a0, a1 = angle, angle + sweep
        angle = a1
        x0, y0 = point_at(a0, radius)
        x1, y1 = point_at(a1, radius)
        large = 1 if sweep > 180 else 0
        wedge_color = color_hex(COLOR_NAMES[j % len(COLOR_NAMES)])
        if sweep >= 360.0 - 1e-9:
            parts.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius)}" '
                f'fill="{wedge_color}" stroke="#ffffff" stroke-width="1"/>'
            )
        else:
            parts.append(
                f'<path d="M {_fmt(cx)} {_fmt(cy)} L {_fmt(x0)} {_fmt(y0)} '
                f'A {_fmt(radius)} {_fmt(radius)} 0 {large} 1 '
                f'{_fmt(x1)} {_fmt(y1)} Z" fill="{wedge_color}" '
                f'stroke="#ffffff" stroke-width="1"/>'
            )
        xs = [cx, x0, x1]
        ys = [cy, y0, y1]
        for extreme in (0.0, 90.0, 180.0, 270.0, 360.0):
            if a0 <= extreme <= a1:
                ex, ey = point_at(extreme, radius)
                xs.append(ex)
                ys.append(ey)
        bx, by = _r2(min(xs)), _r2(min(ys))
        bw, bh = _r2(max(xs) - min(xs)), _r2(max(ys) - min(ys))
        mid = (a0 + a1) / 2
        ax, ay = point_at(mid, radius * 0.6)
        marks.append(Mark(0, j, bx, by, bw, bh, (_r2(ax), _r2(ay))))
        lx, ly = point_at(mid, radius + 12)
        anchor_attr = "start" if math.sin(math.radians(mid)) >= 0 else "end"
        parts.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly + 3)}" '
            f'font-family="{FONT_FAMILY}" font-size="{LABEL_SIZE}" '
            f'text-anchor="{anchor_attr}" fill="#333333">'
            f"{_esc(table.categories[j])}</text>"
        )

    legend_boxes: list[LegendBox] = []
    if spec.legend_visible:
        lx = canvas.width - pad - legend_w + 8
        lparts, legend_boxes = _legend_parts(spec, lx, plot_y)
        parts.extend(lparts)

    svg = _wrap_svg(parts, canvas)
    geom = GeometryMap(
        chart_id=spec.chart_id,
        kind=spec.kind,
        categories=table.categories,
        series_names=tuple(s.name for s in table.series),
        plot=(plot_x, plot_y, plot_w, plot_h),
        marks=tuple(marks),
        value_axis=None,
        ticks=(),
        legend=tuple(legend_boxes),
    )
    return svg, geom


def _wrap_svg(parts: list[str], canvas: Canvas) -> str:
    body = "\n  ".join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{canvas.width}" '
        f'height="{canvas.height}" viewBox="0 0 {canvas.width} {canvas.height}">'
        f"\n  {body}\n</svg>\n"
    )


# ---------------------------------------------------------------------------
# geometry serialization

def geom_to_dict(geom: GeometryMap) -> dict:
    axis = geom.value_axis
    return {
        "chart_id": geom.chart_id,
        "kind": geom.kind,
        "categories": list(geom.categories),
        "series_names": list(geom.series_names),
        "plot": list(geom.plot),
        "value_axis": None if axis is None else {
            "orient": axis.orient,
            "px0": axis.px0, "px1": axis.px1,
            "v0": axis.v0, "v1": axis.v1,
        },
        "ticks": [[v, p] for v, p in geom.ticks],
        "marks": [
            {
                "series": m.series, "category": m.category,
                "x": m.x, "y": m.y, "w": m.w, "h": m.h,
                "anchor": [m.anchor[0], m.anchor[1]],
            }
            for m in geom.marks
        ],
        "legend": [
            {"series": b.series, "x": b.x, "y": b.y, "w": b.w, "h": b.h}
            for b in geom.legend
        ],
    }


def geom_from_dict(d: dict) -> GeometryMap:
    axis = d.get("value_axis")
    return GeometryMap(
        chart_id=d["chart_id"],
        kind=d["kind"],
        categories=tuple(d["categories"]),
        series_names=tuple(d["series_names"]),
        plot=tuple(d["plot"]),
        marks=tuple(
            Mark(m["series"], m["category"], m["x"], m["y"], m["w"], m["h"],
                 (m["anchor"][0], m["anchor"][1]))
            for m in d["marks"]
        ),
        value_axis=None if axis is None else AxisScale(
            axis["orient"], axis["px0"], axis["px1"], axis["v0"], axis["v1"]),
        ticks=tuple((v, p) for v, p in d["ticks"]),
        legend=tuple(
            LegendBox(b["series"], b["x"], b["y"], b["w"], b["h"])
            for b in d["legend"]
        ),
    )


def dumps_geom(geom: GeometryMap) -> str:
    return dumps_indented(geom_to_dict(geom)) + "\n"


def loads_geom(text: str) -> GeometryMap:
    return geom_from_dict(json.loads(text))
