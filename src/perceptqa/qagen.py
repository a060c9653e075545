"""Question generation for the four task families.

position  - marks referenced by drawn rank ("second bar from the left"),
            combined with arithmetic; answers are numbers so the resolved
            label shown in parentheses never gives the answer away.
length    - magnitude reading along the value axis: lookups, rankings,
            comparisons, counts, arithmetic, rate of change.
pattern   - series-level aggregates where a series is referenced only by
            its color, fill pattern, or legend position, never its name.
extract   - named lookups composed through at least two operations, plus
            multiple-choice and true/false variants.

Each family's candidate function enumerates its full candidate space
deterministically as a CandidateSpace, empty when the family does not
fit the chart; a candidate's query tree is built only when it is read.
generate_items sizes the four spaces once per chart: their lengths cap
the family-mix plan, and each planned family then shuffles the indices
of its own space with a per-chart seed and keeps the first n candidates
that survive validity checks (no ties, no division by zero, no answer
leaked into the question text, no duplicate question on the chart).
"""

from __future__ import annotations

import hashlib
import random
import re
import sys
from collections.abc import Sequence
from dataclasses import dataclass, replace
from decimal import Decimal
from functools import lru_cache

from .charts import ChartSpec
from .errors import ConfigError, InvariantError, QueryError, TemplateError
from .numformat import canon_number, divide
from .queries import (
    ByExtreme,
    ByLegend,
    ByName,
    ByPosition,
    ByVisual,
    Extract,
    Node,
    Op,
    QuerySpec,
    aggregate_values,
    evaluate,
    infer_answer_type,
    iter_nodes,
    leaf_selectors,
    op_kinds,
    render_answer,
)
from .reasoning import (
    _SIDES,
    ReasoningTrace,
    _ordinal,
    build_trace,
    trace_from_dict,
    trace_to_dict,
)
from .render import (COLUMN_DIRECTIONS, ROW_DIRECTIONS, GeometryMap,
                     positional_rank)

FAMILY_NAMES = ("position", "length", "pattern", "extract")

# share of each family in a default dataset
DEFAULT_FAMILY_WEIGHTS: tuple[tuple[str, float], ...] = (
    ("position", 66617 / 331969),
    ("length", 31614 / 331969),
    ("pattern", 61268 / 331969),
    ("extract", 174411 / 331969),
)

# op kind -> operation tag on the wire
TAG_MAP = {
    "Sum": "addition",
    "Diff": "subtraction",
    "AbsDiff": "subtraction",
    "Quotient": "division",
    "Ratio": "ratio",
    "Count": "counting",
    "Rank": "ranking",
    "ArgExtreme": "ranking",
    "Mean": "average",
    "Median": "median",
    "RateOfChange": "rate_of_change",
    "Compare": "comparison",
    "OneFourthNearest": "proportion",
    "Threshold": "filtering",
}


@dataclass(frozen=True)
class QAItem:
    qa_id: str
    chart_id: str
    family: str
    ops: tuple[str, ...]
    question: str
    answer_type: str
    answer: str
    trace: ReasoningTrace
    split: str = "train"
    options: tuple[tuple[str, str], ...] | None = None
    statement: str | None = None
    query: QuerySpec | None = None  # kept in memory for re-checking; not serialized


def item_to_dict(item: QAItem) -> dict:
    out = {
        "qa_id": item.qa_id,
        "chart_id": item.chart_id,
        "task": item.family,
        "ops": list(item.ops),
        "question": item.question,
        "answer_type": item.answer_type,
        "answer": item.answer,
        "trace": trace_to_dict(item.trace),
        "split": item.split,
    }
    if item.options is not None:
        out["options"] = [[letter, text] for letter, text in item.options]
    if item.statement is not None:
        out["statement"] = item.statement
    return out


def item_from_dict(d: dict) -> QAItem:
    # the short strings that repeat on every row are interned, so a
    # loaded dataset holds one copy of each
    options = d.get("options")
    return QAItem(
        qa_id=d["qa_id"],
        chart_id=d["chart_id"],
        family=sys.intern(d["task"]),
        ops=tuple(map(sys.intern, d["ops"])),
        question=d["question"],
        answer_type=sys.intern(d["answer_type"]),
        answer=d["answer"],
        trace=trace_from_dict(d["trace"]),
        split=sys.intern(d.get("split", "train")),
        options=tuple((o[0], o[1]) for o in options) if options else None,
        statement=d.get("statement"),
    )


def operation_tags(root: Node) -> tuple[str, ...]:
    kinds = op_kinds(root)
    if not kinds:
        return ("extract",)
    return tuple(sorted({TAG_MAP[k] for k in kinds}))


# ---------------------------------------------------------------------------
# question realization

def _shape(node: Node) -> str:
    if isinstance(node, Extract):
        return f"E[{type(node.selector).__name__}]"
    inner = ",".join(_shape(c) for c in node.children)
    return f"{node.kind}({inner})"


_UNIT_SUFFIXES = {"percent": "%", "minutes": " minutes"}


def _leaf_phrase(sel, geom: GeometryMap | None) -> str | None:
    if isinstance(sel, ByName):
        return sel.category
    if isinstance(sel, ByPosition):
        noun = "bar" if sel.axis == "row" else "category"
        label = positional_rank(geom, sel.axis, sel.direction, sel.rank)
        return (f"the {_ordinal(sel.rank)} {noun} from the "
                f"{_SIDES[sel.direction]} ({label})")
    if isinstance(sel, ByVisual):
        if sel.color and sel.pattern:
            return f"the series shown in {sel.color} with the {sel.pattern} fill"
        if sel.color:
            return f"the series shown in {sel.color}"
        return f"the {sel.pattern} series"
    if isinstance(sel, ByLegend):
        return f"the {_ordinal(sel.position)} series in the legend"
    return None


def _slots(query: QuerySpec, spec: ChartSpec,
           geom: GeometryMap | None) -> dict[str, str | None]:
    """Everything a phrasing template can name.

    a, b, c phrase the leaf selectors in tree order; sfx names the series
    of the first named row on a multi-series chart; highest, most, kth and
    greater read the root op; above, exceed, bound and hue read the first
    Threshold in the tree."""
    root = query.root
    leaves, thr = [], None
    for node in iter_nodes(root):
        if isinstance(node, Extract):
            leaves.append(node.selector)
        elif thr is None and node.kind == "Threshold":
            thr = node
    noun = ("year" if spec.is_temporal
            else "bar" if spec.kind == "horizontal_bar" else "category")
    slots: dict[str, str | None] = {
        "noun": noun,
        "nouns": "categories" if noun == "category" else noun + "s",
        "unit": _UNIT_SUFFIXES.get(spec.table.unit, ""),
        "sfx": "",
    }
    for name, sel in zip("abc", leaves):
        slots[name] = _leaf_phrase(sel, geom)
    if len(spec.table.series) > 1:
        for sel in leaves:
            if isinstance(sel, ByName) and sel.series is not None:
                slots["sfx"] = f" in the {sel.series} series"
                break
    if isinstance(root, Op):
        slots["highest"] = ("highest" if root.mode == "max"
                            or root.order == "desc" else "lowest")
        slots["most"] = "most" if root.mode == "max" else "least"
        slots["kth"] = _ordinal(root.k) if root.k else None
        slots["greater"] = "greater" if root.relation == "gt" else "smaller"
    if thr is not None:
        above = thr.relation == "gt"
        slots["above"] = "above" if above else "below"
        slots["exceed"] = "exceed" if above else "stay below"
        slots["bound"] = canon_number(thr.value)
        first = leaf_selectors(thr)[0]
        if isinstance(first, ByVisual) and first.color:
            slots["hue"] = first.color.split()[-1]
    return slots


# shape -> phrasing variants; realize_question picks one with its own seed
_PHRASINGS: dict[str, tuple[str, ...]] = {
    # position
    "Diff(E[ByPosition],E[ByPosition])": (
        "What is the difference between the value of {a} and the value of {b}?",
        "By how much does the value of {a} differ from the value of {b}?"),
    "AbsDiff(E[ByPosition],E[ByPosition])": (
        "What is the absolute difference between the values of {a} and {b}?",),
    "Sum(E[ByPosition],E[ByPosition])": (
        "What is the combined value of {a} and {b}?",
        "What do the values of {a} and {b} add up to?"),
    "Ratio(E[ByPosition],E[ByPosition])": (
        "How many times larger is the value of {a} than the value of {b}?",),
    "Sum(E[ByPosition])": (
        "What is the total across all series for {a}?",
        "Summed over every series, what value does {a} reach?"),
    "Mean(E[ByPosition])": (
        "What is the average value across the series for {a}?",),
    "Diff(Sum(E[ByPosition]),Sum(E[ByPosition]))": (
        "What is the difference between the all-series totals of {a} and {b}?",),
    # length
    "E[ByName]": (
        "What value is recorded for {a}{sfx}?",
        "What value does {a} show{sfx}?"),
    "ArgExtreme(E[ByName])": (
        "Which {noun} records the {highest} value{sfx}?",
        "Which {noun} shows the {highest} value{sfx}?"),
    "Rank(E[ByName])": (
        "Which {noun} has the {kth} {highest} value{sfx}?",),
    "Compare(E[ByName],E[ByName])": (
        "Is the value for {a} {greater} than the value for {b}{sfx}?",),
    "Count(Threshold(E[ByName]))": (
        "How many {nouns} show a value {above} {bound}{unit}{sfx}?",
        "How many {nouns} {exceed} {bound}{unit}{sfx}?"),
    "Diff(ArgExtreme(E[ByName]),ArgExtreme(E[ByName]))": (
        "What is the difference between the highest and the lowest value{sfx}?",
        "How far apart are the highest and the lowest values{sfx}?"),
    "Sum(E[ByName],E[ByName])": (
        "What is the combined value of {a} and {b}{sfx}?",),
    "Ratio(E[ByName],E[ByName])": (
        "How many times larger is the value for {a} than the value for {b}{sfx}?",),
    "Diff(E[ByName],E[ByName])": (
        "What is the difference between the values of {a} and {b}{sfx}?",),
    "RateOfChange(E[ByName])": (
        "Between which two consecutive years did the value change the "
        "{most}{sfx}?",),
    "Diff(E[ByExtreme],E[ByExtreme])": (
        "What is the difference between the highest and the lowest value "
        "shown in the chart?",),
    # pattern
    "Diff(Sum(E[ByVisual]),Sum(E[ByVisual]))": (
        "How much higher is the combined total of {a} than that of {b}?",
        "By how much does the overall total of {a} exceed that of {b}?"),
    "AbsDiff(Sum(E[ByVisual]),Sum(E[ByVisual]))": (
        "What is the absolute difference between the combined totals of {a} "
        "and {b}?",),
    "Diff(Median(E[ByVisual]),Median(E[ByVisual]))": (
        "By how much does the median value of {a} exceed the median value of "
        "{b}?",),
    "Diff(Mean(E[ByVisual]),Mean(E[ByVisual]))": (
        "By how much does the average value of {a} exceed the average value of "
        "{b}?",),
    "Ratio(Sum(E[ByVisual]),Sum(E[ByVisual]))": (
        "How many times larger is the combined total of {a} than that of {b}?",),
    "Count(Threshold(E[ByVisual]))": (
        "For how many categories does {a} record a value {above} {bound}{unit}?",),
    "Count(Threshold(E[ByVisual],E[ByVisual]))": (
        "How many of the values recorded by the series drawn in shades of "
        "{hue} are {above} {bound}{unit}?",),
    "Diff(Sum(E[ByLegend]),Sum(E[ByLegend]))": (
        "How much higher is the combined total of {a} than that of {b}?",
        "By how much does the overall total of {a} exceed that of {b}?"),
    "AbsDiff(Median(E[ByLegend]),Median(E[ByLegend]))": (
        "What is the absolute difference between the median values of {a} "
        "and {b}?",),
    # extract
    "Sum(Rank(E[ByName]),Rank(E[ByName]))": (
        "What is the combined value of the two highest {nouns}{sfx}?",
        "What do the two highest {nouns} add up to{sfx}?"),
    "AbsDiff(Mean(E[ByName]),Median(E[ByName]))": (
        "What is the absolute difference between the average and the median "
        "value{sfx}?",),
    "Quotient(Sum(E[ByName],E[ByName]),E[ByName])": (
        "How many times larger is the combined value of {a} and {b} than the "
        "value of {c}{sfx}?",),
    "Ratio(ArgExtreme(E[ByName]),ArgExtreme(E[ByName]))": (
        "How many times larger is the highest value than the lowest{sfx}?",),
    "OneFourthNearest(Threshold(E[ByName]))": (
        "Among the {nouns} with values {above} {bound}{unit}, which one sits "
        "closest to one quarter of their combined total?",),
}

# on a year axis, used when the named years run from latest to earliest
_YEAR_PHRASINGS: dict[str, tuple[str, ...]] = {
    "E[ByName]": (
        "What value was recorded in {a}{sfx}?",
        "What was the value in {a}{sfx}?"),
    "Diff(E[ByName],E[ByName])": (
        "How did the value change from {b} to {a}{sfx}?",),
}

# the fact-check form states Compare(Sum(E[ByName],E[ByName]),E[ByName])
_STATEMENT = ("The combined value of {a} and {b} is {greater} than the value "
              "of {c}{sfx}.")


def realize_question(
    query: QuerySpec, spec: ChartSpec, rng_seed: int,
    geom: GeometryMap | None = None,
) -> str:
    """Phrase a query as an English question.

    Raises TemplateError when the query's shape has no registered
    phrasing; callers never get a half-filled template."""
    key = _shape(query.root)
    variants = _PHRASINGS.get(key)
    if variants is None:
        raise TemplateError(f"no phrasing registered for shape {key}")
    if key == "E[ByName]":
        # the lookup phrasings name one cell: its category, and its series
        # whenever the chart has more than one
        sel = query.root.selector
        if sel.category is None or (sel.series is None
                                    and len(spec.table.series) > 1):
            raise TemplateError(
                f"a value lookup needs one cell, not the selector {sel}")
    if key in _YEAR_PHRASINGS and spec.is_temporal:
        years = [int(sel.category) for sel in leaf_selectors(query.root)]
        if all(x > y for x, y in zip(years, years[1:])):
            variants = _YEAR_PHRASINGS[key]
    pick = random.Random(rng_seed).randrange(len(variants))
    return variants[pick].format_map(_slots(query, spec, geom))


# ---------------------------------------------------------------------------
# candidate enumeration

@dataclass(frozen=True)
class _Candidate:
    query: QuerySpec
    form: str = "plain"  # plain, mcq, factcheck
    target_truth: bool | None = None


class CandidateSpace(Sequence):
    """One family's candidates on one chart, in enumeration order.

    Each entry is a recipe: the root op's kind, its already-built
    children and parameters, the answer type and the item form.  The
    query tree of candidate i is built only when space[i] is read, so
    sizing and shuffling a space build none."""

    def __init__(self, family: str):
        self.family = family
        self._recipes: list[tuple] = []

    def add(self, kind: str, children: tuple[Node, ...],
            answer_type: str = "number", form: str = "plain",
            truth: bool | None = None, **params) -> None:
        self._recipes.append((kind, children, params, answer_type, form, truth))

    def add_root(self, root: Node, answer_type: str = "number") -> None:
        """Add a plain candidate whose root node is already built."""
        self._recipes.append((None, root, None, answer_type, "plain", None))

    def __len__(self) -> int:
        return len(self._recipes)

    def __getitem__(self, index: int) -> _Candidate:
        kind, children, params, answer_type, form, truth = self._recipes[index]
        root = children if kind is None else Op(kind, children, **params)
        return _Candidate(QuerySpec(root, self.family, answer_type), form, truth)


def _row_node(series_name: str) -> Extract:
    return Extract(ByName(series=series_name))


def _cell(series_name: str | None, category: str) -> Extract:
    return Extract(ByName(series=series_name, category=category))


def _sorted_row(spec: ChartSpec, si: int) -> list[tuple[Decimal, str]]:
    table = spec.table
    pairs = [(table.values[si][j], table.categories[j])
             for j in range(len(table.categories))]
    return sorted(pairs)


def _thresholds(values: list[Decimal], limit: int = 3) -> list[Decimal]:
    sv = sorted(values)
    n = len(sv)
    picks = sorted({max(1, n // 3), n // 2, min(n - 1, (2 * n) // 3)})
    out: list[Decimal] = []
    for k in picks:
        if 1 <= k <= n - 1 and sv[k - 1] != sv[k]:
            mid = divide(sv[k - 1] + sv[k], Decimal(2))
            if mid not in out:
                out.append(mid)
    return out[:limit]


def position_candidates(spec: ChartSpec, geom: GeometryMap) -> CandidateSpace:
    space = CandidateSpace("position")
    if spec.kind == "pie":
        return space
    axis = "row" if spec.kind == "horizontal_bar" else "column"
    directions = ROW_DIRECTIONS if axis == "row" else COLUMN_DIRECTIONS
    n_cat = len(spec.table.categories)
    leaves: list[Extract] = []
    labels: list[str] = []
    for direction in directions:
        for rank in range(1, n_cat + 1):
            leaves.append(Extract(ByPosition(rank=rank, axis=axis,
                                             direction=direction)))
            labels.append(positional_rank(geom, axis, direction, rank))

    single = len(spec.table.series) == 1
    # several series: each position stands for its all-series total; a
    # single series has no totals, so the column loop below adds nothing
    totals = [Op("Sum", (leaf,)) for leaf in leaves] if not single else []
    for i in range(len(leaves)):
        for j in range(i + 1, len(leaves)):
            if labels[i] == labels[j]:
                continue
            if single:
                pair = (leaves[i], leaves[j])
                for kind in ("Diff", "AbsDiff", "Sum", "Ratio"):
                    space.add(kind, pair)
            else:
                space.add("Diff", (totals[i], totals[j]))
    for leaf, total in zip(leaves, totals):
        space.add_root(total)
        space.add("Mean", (leaf,))
    return space


def length_candidates(spec: ChartSpec, geom: GeometryMap) -> CandidateSpace:
    space = CandidateSpace("length")
    if spec.kind == "pie":
        return space
    table = spec.table
    single = len(table.series) == 1
    cats = table.categories
    temporal = spec.is_temporal
    label_type = "year" if temporal else "text"

    for si, series in enumerate(table.series):
        name = None if single else series.name
        row = (_row_node(series.name),)
        cells = [_cell(name, c) for c in cats]

        for cell in cells:
            space.add_root(cell)
        for mode in ("max", "min"):
            space.add("ArgExtreme", row, label_type, mode=mode)
        for k in (2, 3):
            if k <= len(cats):
                space.add("Rank", row, label_type, k=k, order="desc")
        for a_i in range(len(cats)):
            for b_i in range(a_i + 1, len(cats)):
                pair = (cells[a_i], cells[b_i])
                space.add("Compare", pair, "boolean", relation="gt")
                space.add("Sum", pair)
                space.add("Ratio", pair)
                # later year first, so a temporal difference reads as change
                space.add("Diff", pair[::-1] if temporal else pair)
        values = [table.values[si][j] for j in range(len(cats))]
        for t in _thresholds(values):
            space.add("Count", (Op("Threshold", row, relation="gt", value=t),))
        space.add("Diff", (Op("ArgExtreme", row, mode="max"),
                           Op("ArgExtreme", row, mode="min")))
        if temporal and len(cats) >= 3:
            for mode in ("max", "min"):
                space.add("RateOfChange", row, "text", mode=mode)

    if single:
        space.add("Diff", (Extract(ByExtreme("max")), Extract(ByExtreme("min"))))
    return space


def pattern_candidates(spec: ChartSpec, geom: GeometryMap) -> CandidateSpace:
    space = CandidateSpace("pattern")
    table = spec.table
    if spec.kind == "pie" or len(table.series) < 2 or not spec.legend_visible:
        return space
    n = len(table.series)
    visual = [Extract(ByVisual(color=s.color)) for s in table.series]

    def pattern_leaf(si: int) -> Extract | None:
        p = table.series[si].pattern
        if p == "solid":
            return None
        if sum(1 for s in table.series if s.pattern == p) != 1:
            return None
        return Extract(ByVisual(pattern=p))

    sums = [aggregate_values("Sum", row) for row in table.values]
    medians = [aggregate_values("Median", row) for row in table.values]
    means = [aggregate_values("Mean", row) for row in table.values]
    of = {kind: [Op(kind, (leaf,)) for leaf in visual]
          for kind in ("Sum", "Median", "Mean")}

    for i in range(n):
        for j in range(i + 1, n):
            hi, lo = (i, j) if sums[i] > sums[j] else (j, i)
            if sums[hi] != sums[lo]:
                space.add("Diff", (of["Sum"][hi], of["Sum"][lo]))
                space.add("Ratio", (of["Sum"][hi], of["Sum"][lo]))
                pa, pb = pattern_leaf(hi), pattern_leaf(lo)
                if pa is not None and pb is not None:
                    space.add("AbsDiff", (Op("Sum", (pa,)), Op("Sum", (pb,))))
            mhi, mlo = (i, j) if medians[i] > medians[j] else (j, i)
            if medians[mhi] != medians[mlo]:
                space.add("Diff", (of["Median"][mhi], of["Median"][mlo]))
            ahi, alo = (i, j) if means[i] > means[j] else (j, i)
            if means[ahi] != means[alo]:
                space.add("Diff", (of["Mean"][ahi], of["Mean"][alo]))

    for si in range(n):
        values = list(table.values[si])
        for t in _thresholds(values, limit=2):
            space.add("Count", (Op("Threshold", (visual[si],),
                                   relation="gt", value=t),))

    hues: dict[str, list[int]] = {}
    for si, s in enumerate(table.series):
        hues.setdefault(s.color.split()[-1], []).append(si)
    for hue, members in sorted(hues.items()):
        if len(members) != 2:
            continue
        leaves = tuple(visual[si] for si in members)
        values = [v for si in members for v in table.values[si]]
        for t in _thresholds(values, limit=2):
            space.add("Count", (Op("Threshold", leaves, relation="gt", value=t),))

    legend_pairs = [(1, n)]
    if n >= 3:
        legend_pairs.append((1, 2))
    for a, b in legend_pairs:
        la, lb = Extract(ByLegend(a)), Extract(ByLegend(b))
        sa, sb = sums[a - 1], sums[b - 1]
        if sa != sb:
            hi, lo = (la, lb) if sa > sb else (lb, la)
            space.add("Diff", (Op("Sum", (hi,)), Op("Sum", (lo,))))
        if medians[a - 1] != medians[b - 1]:
            space.add("AbsDiff", (Op("Median", (la,)), Op("Median", (lb,))))
    return space


def extract_candidates(spec: ChartSpec, geom: GeometryMap) -> CandidateSpace:
    space = CandidateSpace("extract")
    table = spec.table
    single = len(table.series) == 1

    for si, series in enumerate(table.series):
        name = None if single else series.name
        row = (_row_node(series.name),)
        cats = table.categories
        values = [table.values[si][j] for j in range(len(cats))]
        by_value = _sorted_row(spec, si)

        top_two = (Op("Rank", row, k=1, order="desc"),
                   Op("Rank", row, k=2, order="desc"))
        space.add("Sum", top_two)
        space.add("Sum", top_two, form="mcq")
        extremes = (Op("ArgExtreme", row, mode="max"),
                    Op("ArgExtreme", row, mode="min"))
        space.add("Diff", extremes)
        space.add("Diff", extremes, form="mcq")

        for t in _thresholds(values):
            space.add("Count", (Op("Threshold", row, relation="gt", value=t),))

        space.add("AbsDiff", (Op("Mean", row), Op("Median", row)))
        space.add("Ratio", extremes)

        if len(cats) >= 3:
            top_labels = [lbl for _, lbl in reversed(by_value)]
            top_sum = Op("Sum", (_cell(name, top_labels[0]),
                                 _cell(name, top_labels[1])))
            for c_lbl in top_labels[2:4]:
                space.add("Quotient", (top_sum, _cell(name, c_lbl)))
            space.add("Quotient", (top_sum, _cell(name, top_labels[2])),
                      form="mcq")

        if len(cats) >= 4:
            for t in _thresholds(values, limit=2):
                above = [v for v in values if v > t]
                if len(above) >= 3:
                    space.add("OneFourthNearest",
                              (Op("Threshold", row, relation="gt", value=t),),
                              "text")

        if len(cats) >= 3:
            for k in range(min(4, len(cats) - 2)):
                pair_sum = Op("Sum", (_cell(name, cats[k]),
                                      _cell(name, cats[k + 1])))
                space.add("Compare", (pair_sum, _cell(name, cats[k + 2])),
                          "boolean", form="factcheck", truth=k % 2 == 0,
                          relation="gt")
    return space


FAMILY_CANDIDATES = {
    "position": position_candidates,
    "length": length_candidates,
    "pattern": pattern_candidates,
    "extract": extract_candidates,
}


# ---------------------------------------------------------------------------
# item assembly

_LETTERS = ("A", "B", "C", "D")


def label_pattern(label: str) -> str:
    """A regex for the label as a whole token: word boundaries apply only
    where the label's edge is a word character, so labels like
    "Green (G/EFA)" that end on punctuation still match there."""
    left = r"\b" if re.match(r"\w", label) else ""
    right = r"\b" if re.search(r"\w$", label) else ""
    return left + re.escape(label) + right


@lru_cache(maxsize=1024)
def _text_leak_re(answer: str) -> re.Pattern:
    return re.compile(label_pattern(answer), re.IGNORECASE)


def _leaks(answer: str, answer_type: str, question: str) -> bool:
    if answer_type in ("number", "year"):
        # a hit counts only where no digit or point adjoins it, the
        # characters [\d.] matches
        start = question.find(answer)
        while start != -1:
            end = start + len(answer)
            edges = question[start - 1:start] + question[end:end + 1]
            if not any(ch == "." or ch.isdecimal() for ch in edges):
                return True
            start = question.find(answer, start + 1)
        return False
    if answer_type == "text":
        return _text_leak_re(answer).search(question) is not None
    return False


def _mcq_options(
    gold: Decimal, table_values: list[Decimal], rng: random.Random
) -> tuple[tuple[str, str], ...] | None:
    gold_text = canon_number(gold)
    pool: list[str] = []
    for factor in ("0.8", "0.85", "0.9", "1.1", "1.15", "1.2"):
        cand = canon_number(
            (gold * Decimal(factor)).quantize(Decimal("0.1")))
        if cand != gold_text and cand not in pool:
            pool.append(cand)
    decoys = [canon_number(v) for v in table_values
              if canon_number(v) != gold_text]
    rng.shuffle(decoys)
    distractors: list[str] = []
    if decoys:
        distractors.append(decoys[0])
    for cand in pool:
        if len(distractors) == 3:
            break
        if cand not in distractors:
            distractors.append(cand)
    if len(distractors) < 3:
        return None
    texts = [gold_text] + distractors[:3]
    rng.shuffle(texts)
    return tuple(zip(_LETTERS, texts))


def _assemble(
    spec: ChartSpec,
    geom: GeometryMap,
    cand: _Candidate,
    qa_id: str,
    rng: random.Random,
    taken: set[str],
) -> QAItem | None:
    query = cand.query
    values: dict = {}  # every subtree's value, handed on to build_trace
    try:
        value = evaluate(query.root, spec, geom, values)
    except QueryError:
        return None

    if cand.form == "factcheck":
        want = bool(cand.target_truth)
        if bool(value) is not want:
            flipped = replace(query.root, relation="lt" if query.root.relation == "gt" else "gt")
            query = QuerySpec(flipped, query.family, query.answer_type)
            try:
                value = evaluate(query.root, spec, geom, values)
            except QueryError:
                return None
            if bool(value) is not want:  # neither relation gives the target truth
                return None

    answer = render_answer(value)
    answer_type = query.answer_type
    inferred = infer_answer_type(value)
    if answer_type != inferred and cand.form == "plain":
        return None

    options = None
    statement = None
    if cand.form == "mcq":
        if not isinstance(value, Decimal):
            return None
        flat = [v for rw in spec.table.values for v in rw]
        options = _mcq_options(value, flat, rng)
        if options is None:  # fewer than three distinct distractors
            return None
        answer_type = "mcq"
    elif cand.form == "factcheck":
        statement = _STATEMENT.format_map(_slots(query, spec, geom))

    try:
        if cand.form == "factcheck":
            question = f"Is the following statement true or false? {statement}"
        else:
            question = realize_question(query, spec, rng.randrange(2 ** 31), geom)
    except QueryError:
        return None

    try:
        trace = build_trace(query, spec, geom, mcq_options=options,
                            values=values)
    except QueryError:
        return None

    if cand.form == "mcq":
        answer = trace.final  # the option letter
    if answer != trace.final:
        raise InvariantError(
            f"trace final {trace.final!r} disagrees with answer {answer!r}")

    check_answer = answer if cand.form != "mcq" else canon_number(value)
    check_type = answer_type if cand.form != "mcq" else "number"
    if _leaks(check_answer, check_type, question):
        return None

    key = question.casefold()
    if key in taken:
        return None
    taken.add(key)

    return QAItem(
        qa_id=qa_id,
        chart_id=spec.chart_id,
        family=query.family,
        ops=operation_tags(query.root),
        question=question,
        answer_type=answer_type,
        answer=answer,
        trace=trace,
        options=options,
        statement=statement,
        query=query,
    )


def _generate(
    family: str,
    spec: ChartSpec,
    geom: GeometryMap,
    space: CandidateSpace,
    n: int,
    seed: int,
    taken: set[str],
) -> list[QAItem]:
    rng = random.Random(seed)
    # shuffle draws depend only on the length, so shuffling indices visits
    # the candidates in the order a shuffled list of them would have
    order = list(range(len(space)))
    rng.shuffle(order)
    items: list[QAItem] = []
    for index in order:
        if len(items) == n:
            break
        qa_id = f"{spec.chart_id}-{family}-{len(items) + 1:03d}"
        item = _assemble(spec, geom, space[index], qa_id, rng, taken)
        if item is not None:
            items.append(item)
    return items


# ---------------------------------------------------------------------------
# cross-chart scheduling

@dataclass(frozen=True)
class GenConfig:
    per_chart: int = 12
    family_weights: tuple[tuple[str, float], ...] = DEFAULT_FAMILY_WEIGHTS
    seed: int = 0

    def validate(self) -> None:
        if self.per_chart < 1:
            raise ConfigError("per_chart must be at least 1")
        for family, _ in self.family_weights:
            if family not in FAMILY_NAMES:
                raise ConfigError(f"unknown family in weights: {family!r}")
        weights = [w for _, w in self.family_weights]
        if any(w < 0 for w in weights) or not any(w > 0 for w in weights):
            raise ConfigError(
                "family weights must be non-negative with at least one positive")


def stable_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class GenStats:
    shortfall: int


def generate_items(
    charts: list[tuple[ChartSpec, GeometryMap]],
    config: GenConfig | None = None,
    counts: dict | None = None,
) -> tuple[list[QAItem], GenStats]:
    """Generate questions across charts, steering the realized family mix
    toward the configured weights while respecting each chart's candidate
    counts.

    counts holds the planner's running item count per family and is
    updated in place: successive calls on charts in chart_id order that
    share one counts dict yield what one call on all of them yields."""
    config = config or GenConfig()
    config.validate()
    if not charts:
        raise ConfigError("no charts to generate questions from")
    # normalize processing order so the same chart set yields the same
    # items no matter how the caller happened to order the list
    charts = sorted(charts, key=lambda pair: pair[0].chart_id)
    weights = dict(config.family_weights)
    if counts is None:
        counts = {f: 0 for f in FAMILY_NAMES}
    total = sum(counts.values())
    items: list[QAItem] = []
    shortfall = 0

    for spec, geom in charts:
        pools = {f: FAMILY_CANDIDATES[f](spec, geom) for f in FAMILY_NAMES}
        caps = {f: len(pool) for f, pool in pools.items() if pool}
        plan = {f: 0 for f in caps}
        for _ in range(config.per_chart):
            open_families = [f for f in caps if plan[f] < caps[f]]
            if not open_families:
                shortfall += config.per_chart - sum(plan.values())
                break
            best = max(
                open_families,
                key=lambda f: (weights.get(f, 0) * (total + 1) - counts[f], f),
            )
            plan[best] += 1
            counts[best] += 1
            total += 1

        taken: set[str] = set()
        for family in FAMILY_NAMES:
            want = plan.get(family, 0)
            if not want:
                continue
            got = _generate(
                family, spec, geom, pools[family], want,
                stable_seed(config.seed, spec.chart_id, family), taken,
            )
            items.extend(got)
            if len(got) < want:
                # return the unmet share to the pool so later charts absorb it
                counts[family] -= want - len(got)
                total -= want - len(got)
                shortfall += want - len(got)

    return items, GenStats(shortfall=shortfall)
