"""Chart model: data table, series styling, validation, and a seeded sampler.

A chart spec is the single source of truth for both the renderer and the
question generators.  Values are exact decimals on a fixed grid so that
derived answers never depend on binary floating point.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property
from json.encoder import encode_basestring

from .errors import ConfigError, SpecValidationError
from .numformat import jsonable, strip_decimal
from .palette import COLOR_NAMES, PATTERNS, family_members

KINDS: tuple[str, ...] = (
    "vertical_bar",
    "horizontal_bar",
    "grouped_bar",
    "stacked_bar",
    "line",
    "pie",
)

# kind -> (min series, max series)
KIND_SERIES: dict[str, tuple[int, int]] = {
    "vertical_bar": (1, 1),
    "horizontal_bar": (1, 1),
    "grouped_bar": (2, 4),
    "stacked_bar": (2, 4),
    "line": (1, 4),
    "pie": (1, 1),
}

UNITS: tuple[str | None, ...] = (None, "percent", "minutes", "count")

# unit -> (low, high, fractional digits)
VALUE_GRIDS: dict[str | None, tuple[Decimal, Decimal, int]] = {
    None: (Decimal("0"), Decimal("1000"), 1),
    "percent": (Decimal("0"), Decimal("100"), 1),
    "minutes": (Decimal("0"), Decimal("600"), 1),
    "count": (Decimal("0"), Decimal("1000"), 0),
}

CATEGORY_POOLS: tuple[tuple[str, ...], ...] = (
    ("Asia", "Europe", "Africa", "Americas", "Oceania",
     "Nordics", "Iberia", "Balkans", "Baltics", "Levant"),
    ("Alpha", "Bravo", "Delta", "Echo", "Foxtrot",
     "Kilo", "Nectar", "Orion", "Vega", "Zephyr"),
    ("Retail", "Energy", "Finance", "Health", "Transit",
     "Mining", "Farming", "Housing", "Tourism", "Media"),
    ("Oslo", "Porto", "Quito", "Dakar", "Hanoi",
     "Osaka", "Cairo", "Turin", "Perth", "Derby"),
)

SERIES_POOLS: tuple[tuple[str, ...], ...] = (
    ("North", "South", "East", "West"),
    ("Men", "Women", "Kids", "Seniors"),
    ("Urban", "Rural", "Metro", "Coastal"),
    ("Gold", "Silver", "Bronze", "Copper"),
)

TITLE_METRICS: tuple[str, ...] = (
    "Revenue", "Attendance", "Output", "Rainfall", "Enrollment",
    "Traffic", "Sales", "Usage", "Exports", "Adoption",
)


@dataclass(frozen=True)
class SeriesDescriptor:
    name: str
    color: str
    pattern: str = "solid"


@dataclass(frozen=True)
class DataTable:
    categories: tuple[str, ...]
    series: tuple[SeriesDescriptor, ...]
    values: tuple[tuple[Decimal, ...], ...]
    unit: str | None = None

    def series_index(self, name: str) -> int:
        for i, s in enumerate(self.series):
            if s.name == name:
                return i
        raise KeyError(name)

    def category_index(self, label: str) -> int:
        try:
            return self.categories.index(label)
        except ValueError:
            raise KeyError(label) from None


@dataclass(frozen=True)
class ChartSpec:
    chart_id: str
    kind: str
    title: str
    table: DataTable
    axis_labels: tuple[str, str] | None
    legend_visible: bool
    seed: int

    @cached_property
    def is_temporal(self) -> bool:
        return all(_is_year(c) for c in self.table.categories)


def _is_year(label: str) -> bool:
    return len(label) == 4 and label.isdigit() and label[0] in "12"


@dataclass(frozen=True)
class Violation:
    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.field}: {self.message}"


def validate_chart_spec(spec: ChartSpec) -> list[Violation]:
    """Return every structural rule the chart breaks; empty means valid."""
    out: list[Violation] = []
    table = spec.table

    if not spec.chart_id or not all(
        ch.isalnum() or ch in "_-" for ch in spec.chart_id
    ):
        out.append(Violation("chart_id", "must be non-empty [a-zA-Z0-9_-]"))
    if spec.kind not in KINDS:
        out.append(Violation("kind", f"unknown kind {spec.kind!r}"))
        return out

    n_series = len(table.series)
    n_cat = len(table.categories)
    lo, hi = KIND_SERIES[spec.kind]
    if not lo <= n_series <= hi:
        out.append(Violation(
            "series", f"{spec.kind} takes {lo}..{hi} series, got {n_series}"))
    min_cat = 3 if spec.kind == "line" else 2
    if n_cat < min_cat:
        out.append(Violation(
            "categories", f"{spec.kind} needs at least {min_cat} categories"))

    if len(table.values) != n_series:
        out.append(Violation("values", "row count must equal series count"))
    else:
        for i, row in enumerate(table.values):
            if len(row) != n_cat:
                out.append(Violation(
                    "values", f"row {i} has {len(row)} cells, expected {n_cat}"))

    if len(set(table.categories)) != n_cat or any(
        not c for c in table.categories
    ):
        out.append(Violation("categories", "labels must be unique and non-empty"))
    names = [s.name for s in table.series]
    if len(set(names)) != n_series or any(not n for n in names):
        out.append(Violation("series", "names must be unique and non-empty"))
    colors = [s.color for s in table.series]
    if len(set(colors)) != n_series:
        out.append(Violation("series", "colors must be unique within a chart"))
    for s in table.series:
        if s.color not in COLOR_NAMES:
            out.append(Violation("series", f"color {s.color!r} not in lexicon"))
        if s.pattern not in PATTERNS:
            out.append(Violation("series", f"pattern {s.pattern!r} unknown"))

    if table.unit not in UNITS:
        out.append(Violation("unit", f"unknown unit {table.unit!r}"))

    for i, row in enumerate(table.values):
        for j, v in enumerate(row):
            if not isinstance(v, Decimal) or not v.is_finite():
                out.append(Violation(
                    "values", f"cell [{i}][{j}] must be a finite decimal"))
            elif table.unit == "percent" and not 0 <= v <= 100:
                out.append(Violation(
                    "values", f"percent cell [{i}][{j}]={v} outside [0, 100]"))
            elif spec.kind in ("pie", "stacked_bar") and v < 0:
                out.append(Violation(
                    "values", f"{spec.kind} cell [{i}][{j}]={v} is negative"))

    if n_series >= 2 and not spec.legend_visible:
        out.append(Violation("legend_visible", "multi-series charts need a legend"))
    if spec.kind == "pie":
        if spec.axis_labels is not None:
            out.append(Violation("axis_labels", "pie charts have no axes"))
    elif spec.axis_labels is not None:
        if len(spec.axis_labels) != 2 or not all(spec.axis_labels):
            out.append(Violation("axis_labels", "must be two non-empty labels"))

    return out


def require_valid(spec: ChartSpec) -> ChartSpec:
    violations = validate_chart_spec(spec)
    if violations:
        raise SpecValidationError(violations)
    return spec


# ---------------------------------------------------------------------------
# sampler: the chart distribution, on which every pinned digest rests

KIND_WEIGHTS: dict[str, float] = {
    "vertical_bar": 0.20,
    "horizontal_bar": 0.12,
    "grouped_bar": 0.20,
    "stacked_bar": 0.12,
    "line": 0.28,
    "pie": 0.08,
}
UNIT_WEIGHTS: dict[str | None, float] = {
    None: 0.35,
    "percent": 0.30,
    "count": 0.20,
    "minutes": 0.15,
}
TEMPORAL_PROB = 0.45
SHARED_HUE_PROB = 0.30
PATTERN_FILL_PROB = 0.35


def sample_chart_spec(seed: int) -> ChartSpec:
    """Draw one valid chart spec; the same seed gives the same spec."""
    rng = random.Random(seed)
    kind = rng.choices(list(KIND_WEIGHTS), weights=KIND_WEIGHTS.values())[0]
    n_series = rng.randint(*KIND_SERIES[kind])
    n_cat = rng.randint(3, 8 if kind == "pie" else 10)

    temporal = (
        kind in ("vertical_bar", "grouped_bar", "stacked_bar", "line")
        and rng.random() < TEMPORAL_PROB
    )
    if temporal:
        start = rng.randrange(1985, 2018)
        categories = tuple(str(start + i) for i in range(n_cat))
    else:
        pool = list(rng.choice(CATEGORY_POOLS))
        rng.shuffle(pool)
        categories = tuple(pool[:n_cat])

    unit = rng.choices(list(UNIT_WEIGHTS), weights=UNIT_WEIGHTS.values())[0]
    lo, hi, decimals = VALUE_GRIDS[unit]
    values = _sample_distinct_values(rng, n_series, n_cat, lo, hi, decimals)

    colors = _sample_colors(rng, n_series)
    patterns = ["solid"] * n_series
    if kind in ("grouped_bar", "stacked_bar") and rng.random() < PATTERN_FILL_PROB:
        patterns = [rng.choice(PATTERNS) for _ in range(n_series)]
    pool = list(rng.choice(SERIES_POOLS))
    rng.shuffle(pool)
    series = tuple(
        SeriesDescriptor(name=pool[i], color=colors[i], pattern=patterns[i])
        for i in range(n_series)
    )

    metric = rng.choice(TITLE_METRICS)
    dim = "year" if temporal else "category"
    title = f"{metric} by {dim}"
    if kind == "pie":
        axis_labels = None
    else:
        cat_label = "Year" if temporal else "Category"
        val_label = {
            None: "Value", "percent": "Share (%)",
            "minutes": "Minutes", "count": "Count",
        }[unit]
        axis_labels = (cat_label, val_label)

    spec = ChartSpec(
        chart_id=f"chart-{seed:08d}",
        kind=kind,
        title=title,
        table=DataTable(
            categories=categories, series=series,
            values=values, unit=unit,
        ),
        axis_labels=axis_labels,
        legend_visible=n_series >= 2,
        seed=seed,
    )
    return require_valid(spec)


def _sample_distinct_values(
    rng: random.Random,
    n_series: int,
    n_cat: int,
    lo: Decimal,
    hi: Decimal,
    decimals: int,
) -> tuple[tuple[Decimal, ...], ...]:
    # pairwise-distinct across the whole table so rank picks never tie
    step = Decimal(1).scaleb(-decimals)
    # every grid holds at least 1,001 points and a table at most 40
    # cells, so the redraw loop below always ends quickly
    n_points = int((hi - lo) / step) + 1
    used: set[Decimal] = set()
    rows = []
    for _ in range(n_series):
        row = []
        for _ in range(n_cat):
            while True:
                val = strip_decimal(lo + step * rng.randrange(n_points))
                if val not in used:
                    used.add(val)
                    row.append(val)
                    break
        rows.append(tuple(row))
    return tuple(rows)


def _sample_colors(rng: random.Random, n_series: int) -> list[str]:
    if n_series >= 2 and rng.random() < SHARED_HUE_PROB:
        # plant a dark/light pair from one hue family so questions can
        # say "the series drawn in shades of <family>"
        family = rng.choice(sorted({
            fam for fam in (c.split()[-1] for c in COLOR_NAMES)
        }))
        pair = list(family_members(family))
        rest = [c for c in COLOR_NAMES if c not in pair]
        picked = pair + rng.sample(rest, n_series - 2)
        rng.shuffle(picked)
        return picked[:n_series]
    return rng.sample(COLOR_NAMES, n_series)


# ---------------------------------------------------------------------------
# canonical JSON

def chart_to_dict(spec: ChartSpec) -> dict:
    return {
        "chart_id": spec.chart_id,
        "kind": spec.kind,
        "title": spec.title,
        "unit": spec.table.unit,
        "axis_labels": list(spec.axis_labels) if spec.axis_labels else None,
        "legend_visible": spec.legend_visible,
        "seed": spec.seed,
        "categories": list(spec.table.categories),
        "series": [
            {"name": s.name, "color": s.color, "pattern": s.pattern}
            for s in spec.table.series
        ],
        "values": [[jsonable(v) for v in row] for row in spec.table.values],
    }


def chart_from_dict(d: dict) -> ChartSpec:
    axis = d.get("axis_labels")
    return ChartSpec(
        chart_id=d["chart_id"],
        kind=d["kind"],
        title=d["title"],
        table=DataTable(
            categories=tuple(d["categories"]),
            series=tuple(
                SeriesDescriptor(s["name"], s["color"], s.get("pattern", "solid"))
                for s in d["series"]
            ),
            values=tuple(
                tuple(_as_decimal(v) for v in row) for row in d["values"]
            ),
            unit=d.get("unit"),
        ),
        axis_labels=tuple(axis) if axis else None,
        legend_visible=bool(d["legend_visible"]),
        seed=int(d["seed"]),
    )


def _as_decimal(v) -> Decimal:
    if isinstance(v, Decimal):
        return v
    if isinstance(v, int):
        return Decimal(v)
    raise ConfigError(f"chart values must be parsed exactly, got {type(v).__name__}")


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def dumps_indented(obj) -> str:
    """The text of ``json.dumps(obj, indent=2, ensure_ascii=False)``.

    With ``indent`` set, ``json`` encodes through closures that form
    reference cycles on every call; this writer allocates none, so a
    synthetic run leaves the cycle collector nothing to find.
    """
    out: list[str] = []
    _emit(obj, "\n", out)
    return "".join(out)


def _emit(obj, newline: str, out: list[str]) -> None:
    # newline is "\n" plus the current indent; types are tested in json's order
    if isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        text = float.__repr__(obj)
        out.append(_NON_FINITE.get(text, text))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        out.append("[")
        for value in obj:
            out.append(inner)
            _emit(value, inner, out)
            out.append(",")
        out[-1] = newline + "]"
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        out.append("{")
        for key, value in obj.items():
            out.append(inner + encode_basestring(key) + ": ")
            _emit(value, inner, out)
            out.append(",")
        out[-1] = newline + "}"
    else:
        raise TypeError(
            f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps_chart(spec: ChartSpec) -> str:
    return dumps_indented(chart_to_dict(spec)) + "\n"


def loads_chart(text: str) -> ChartSpec:
    d = json.loads(text, parse_float=Decimal)
    return chart_from_dict(d)
