"""Query trees and the oracle evaluator.

A question's meaning is an expression tree over cell selectors.  Leaves
pull cells out of the chart (by name, drawn position, color or pattern,
legend order, or global extreme); inner nodes combine them with a closed
set of operations.  The evaluator works in exact decimals and raises
rather than guessing whenever a pick is ambiguous, so every stored gold
answer is either exact or absent.

Perception selectors (position, legend order) resolve through the
rendered geometry map, not the data table, so the answer describes what
is actually drawn.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

from .charts import ChartSpec, _is_year
from .errors import (
    AmbiguousSelectorError,
    NonScalarError,
    QueryError,
    TieError,
    UnresolvableSelectorError,
)
from .numformat import canon_number, divide
from .render import GeometryMap, positional_rank

# ---------------------------------------------------------------------------
# selectors

@dataclass(frozen=True)
class ByName:
    series: str | None = None
    category: str | None = None


@dataclass(frozen=True)
class ByPosition:
    rank: int
    axis: str       # "row" or "column"
    direction: str  # from_top / from_bottom / from_left / from_right


@dataclass(frozen=True)
class ByVisual:
    color: str | None = None
    pattern: str | None = None


@dataclass(frozen=True)
class ByLegend:
    position: int  # 1-based, top to bottom in the drawn legend


@dataclass(frozen=True)
class ByExtreme:
    mode: str  # "max" or "min"
    k: int = 1


Selector = ByName | ByPosition | ByVisual | ByLegend | ByExtreme

# ---------------------------------------------------------------------------
# nodes

OP_KINDS: tuple[str, ...] = (
    "Sum", "Diff", "AbsDiff", "Quotient", "Ratio",
    "Count", "Rank", "ArgExtreme", "Mean", "Median",
    "RateOfChange", "Compare", "OneFourthNearest", "Threshold",
)

RELATIONS = ("gt", "ge", "lt", "le")


@dataclass(frozen=True)
class Extract:
    selector: Selector


@dataclass(frozen=True)
class Op:
    kind: str
    children: tuple["Node", ...]
    relation: str | None = None   # Compare, Threshold
    value: Decimal | None = None  # Threshold constant
    k: int | None = None          # Rank
    order: str | None = None      # Rank: "desc" or "asc"
    mode: str | None = None       # ArgExtreme, RateOfChange: "max" or "min"

    def __post_init__(self):
        if self.kind not in OP_KINDS:
            raise QueryError(f"unknown op kind {self.kind!r}")


Node = Extract | Op

FAMILIES = ("position", "length", "pattern", "extract")
ANSWER_TYPES = ("number", "text", "year", "boolean", "mcq")


@dataclass(frozen=True)
class QuerySpec:
    root: Node
    family: str
    answer_type: str

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise QueryError(f"unknown family {self.family!r}")
        if self.answer_type not in ANSWER_TYPES:
            raise QueryError(f"unknown answer type {self.answer_type!r}")


def iter_nodes(node: Node):
    yield node
    if isinstance(node, Op):
        for child in node.children:
            yield from iter_nodes(child)


def op_kinds(node: Node) -> set[str]:
    return {n.kind for n in iter_nodes(node) if isinstance(n, Op)}


def leaf_selectors(node: Node) -> list[Selector]:
    return [n.selector for n in iter_nodes(node) if isinstance(n, Extract)]


# ---------------------------------------------------------------------------
# evaluation values

@dataclass(frozen=True)
class Cell:
    series: str
    category: str
    value: Decimal
    label: str


def resolve_cells(
    selector: Selector, spec: ChartSpec, geom: GeometryMap | None
) -> tuple[Cell, ...]:
    table = spec.table
    n_series = len(table.series)

    if isinstance(selector, ByName):
        if selector.series is not None:
            try:
                si = table.series_index(selector.series)
            except KeyError:
                raise UnresolvableSelectorError(
                    f"no series named {selector.series!r}") from None
            if selector.category is not None:
                return (_cell_at(table, si, _cat_index(table, selector.category)),)
            return _row_cells(table, si)
        if selector.category is not None:
            return _column_cells(table, _cat_index(table, selector.category))
        raise UnresolvableSelectorError("ByName needs a series or a category")

    if isinstance(selector, ByPosition):
        if geom is None:
            raise QueryError("positional selector needs the rendered geometry")
        label = positional_rank(geom, selector.axis, selector.direction,
                                selector.rank)
        return _column_cells(table, _cat_index(table, label))

    if isinstance(selector, ByVisual):
        if selector.color is None and selector.pattern is None:
            raise UnresolvableSelectorError("ByVisual needs a color or pattern")
        matches = [
            i for i, s in enumerate(table.series)
            if (selector.color is None or s.color == selector.color)
            and (selector.pattern is None or s.pattern == selector.pattern)
        ]
        if not matches:
            raise UnresolvableSelectorError(
                f"no series matches color={selector.color!r} "
                f"pattern={selector.pattern!r}")
        if len(matches) > 1:
            raise AmbiguousSelectorError(
                f"{len(matches)} series match color={selector.color!r} "
                f"pattern={selector.pattern!r}")
        return _row_cells(table, matches[0])

    if isinstance(selector, ByLegend):
        if geom is None:
            raise QueryError("legend selector needs the rendered geometry")
        if not geom.legend:
            raise UnresolvableSelectorError("chart draws no legend")
        ordered = sorted(geom.legend, key=lambda b: (b.y, b.x))
        if not 1 <= selector.position <= len(ordered):
            raise UnresolvableSelectorError(
                f"legend has {len(ordered)} entries, not {selector.position}")
        return _row_cells(table, ordered[selector.position - 1].series)

    if isinstance(selector, ByExtreme):
        cells = [
            _cell_at(table, i, j, combined_label=n_series > 1)
            for i in range(n_series)
            for j in range(len(table.categories))
        ]
        return (_rank_pick(tuple(cells), selector.k,
                           "desc" if selector.mode == "max" else "asc"),)

    raise QueryError(f"unknown selector {selector!r}")


def _cat_index(table, label: str) -> int:
    try:
        return table.category_index(label)
    except KeyError:
        raise UnresolvableSelectorError(f"no category named {label!r}") from None


def _cell_at(table, si: int, cj: int, combined_label: bool = False) -> Cell:
    label = table.categories[cj]
    if combined_label:
        label = f"{table.series[si].name}, {table.categories[cj]}"
    return Cell(
        series=table.series[si].name,
        category=table.categories[cj],
        value=table.values[si][cj],
        label=label,
    )


def _row_cells(table, si: int) -> tuple[Cell, ...]:
    return tuple(_cell_at(table, si, j) for j in range(len(table.categories)))


def _column_cells(table, cj: int) -> tuple[Cell, ...]:
    return tuple(
        Cell(
            series=table.series[i].name,
            category=table.categories[cj],
            value=table.values[i][cj],
            label=table.series[i].name,
        )
        for i in range(len(table.series))
    )


# ---------------------------------------------------------------------------
# evaluator

def evaluate(node: Node, spec: ChartSpec, geom: GeometryMap | None = None,
             values: dict | None = None):
    """Evaluate a query tree.  When a dict is passed as values, the value
    of every subtree evaluated is recorded in it, keyed by node, so a
    trace built afterwards can look values up instead of recomputing."""
    if isinstance(node, Extract):
        result = resolve_cells(node.selector, spec, geom)
        if not result:
            raise UnresolvableSelectorError(f"selector matched nothing: {node.selector!r}")
    else:
        result = _eval_op(node, spec, geom, values)
    if values is not None:
        values[node] = result
    return result


def _scalar(value) -> Decimal:
    if isinstance(value, Decimal):
        return value
    if isinstance(value, tuple):
        if len(value) == 1:
            return value[0].value
        raise NonScalarError(f"expected one cell, got {len(value)}")
    raise NonScalarError(f"expected a number, got {type(value).__name__}")


def _cells(value) -> tuple[Cell, ...]:
    if isinstance(value, tuple):
        return value
    raise NonScalarError(f"expected cells, got {type(value).__name__}")


def _gather_cells(node: Op, spec, geom, values) -> tuple[Cell, ...]:
    out: list[Cell] = []
    for child in node.children:
        out.extend(_cells(evaluate(child, spec, geom, values)))
    if not out:
        raise QueryError(f"{node.kind} over an empty selection")
    return tuple(out)


def _rank_pick(cells: tuple[Cell, ...], k: int, order: str) -> Cell:
    if order not in ("desc", "asc"):
        raise QueryError(f"bad rank order {order!r}")
    if not 1 <= k <= len(cells):
        raise QueryError(f"rank {k} out of range 1..{len(cells)}")
    ordered = sorted(cells, key=lambda c: c.value, reverse=order == "desc")
    pick = ordered[k - 1]
    if k >= 2 and ordered[k - 2].value == pick.value:
        raise TieError(f"rank {k} is tied at value {pick.value}")
    if k < len(ordered) and ordered[k].value == pick.value:
        raise TieError(f"rank {k} is tied at value {pick.value}")
    return pick


def _compare(a: Decimal, b: Decimal, relation: str) -> bool:
    if relation == "gt":
        return a > b
    if relation == "ge":
        return a >= b
    if relation == "lt":
        return a < b
    if relation == "le":
        return a <= b
    raise QueryError(f"unknown relation {relation!r}")


def aggregate_values(kind: str, values) -> Decimal:
    """Exact Sum, Mean or Median of a non-empty sequence of values."""
    total = sum(values, Decimal(0))
    if kind == "Sum":
        return total
    if kind == "Mean":
        return divide(total, Decimal(len(values)))
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[mid]
    return divide(ordered[mid - 1] + ordered[mid], Decimal(2))


def _eval_op(node: Op, spec: ChartSpec, geom: GeometryMap | None, values):
    kind = node.kind

    if kind in ("Sum", "Mean", "Median"):
        operands: list[Decimal] = []
        for child in node.children:
            got = evaluate(child, spec, geom, values)
            if isinstance(got, tuple):
                operands.extend(c.value for c in got)
            else:
                operands.append(_scalar(got))
        if not operands:
            raise QueryError(f"{kind} over an empty selection")
        return aggregate_values(kind, operands)

    if kind in ("Diff", "AbsDiff", "Quotient", "Ratio", "Compare"):
        if len(node.children) != 2:
            raise QueryError(f"{kind} takes exactly two operands")
        a = _scalar(evaluate(node.children[0], spec, geom, values))
        b = _scalar(evaluate(node.children[1], spec, geom, values))
        if kind == "Diff":
            return a - b
        if kind == "AbsDiff":
            return abs(a - b)
        if kind in ("Quotient", "Ratio"):
            if b == 0:
                raise QueryError(f"{kind} divides by zero")
            return divide(a, b)
        if node.relation is None:
            raise QueryError("Compare needs a relation")
        return _compare(a, b, node.relation)

    if kind == "Threshold":
        if node.relation not in RELATIONS or node.value is None:
            raise QueryError("Threshold needs a relation and a constant")
        cells = _gather_cells(node, spec, geom, values)
        return tuple(c for c in cells if _compare(c.value, node.value, node.relation))

    if kind == "Count":
        cells: list[Cell] = []
        for child in node.children:
            cells.extend(_cells(evaluate(child, spec, geom, values)))
        return Decimal(len(cells))

    if kind == "Rank":
        if node.k is None or node.order is None:
            raise QueryError("Rank needs k and order")
        cells = _gather_cells(node, spec, geom, values)
        return (_rank_pick(cells, node.k, node.order),)

    if kind == "ArgExtreme":
        if node.mode not in ("max", "min"):
            raise QueryError("ArgExtreme needs mode max or min")
        cells = _gather_cells(node, spec, geom, values)
        order = "desc" if node.mode == "max" else "asc"
        return (_rank_pick(cells, 1, order),)

    if kind == "OneFourthNearest":
        cells = _gather_cells(node, spec, geom, values)
        total = sum((c.value for c in cells), Decimal(0))
        target = divide(total, Decimal(4))
        best: Cell | None = None
        best_gap: Decimal | None = None
        tied = False
        for c in cells:
            gap = abs(c.value - target)
            if best_gap is None or gap < best_gap:
                best, best_gap, tied = c, gap, False
            elif gap == best_gap:
                tied = True
        if tied or best is None:
            raise TieError("two cells sit equally close to one quarter of the total")
        return (best,)

    if kind == "RateOfChange":
        if node.mode not in ("max", "min"):
            raise QueryError("RateOfChange needs mode max or min")
        cells = _gather_cells(node, spec, geom, values)
        if len(cells) < 2:
            raise QueryError("RateOfChange needs at least two cells")
        deltas = [
            (abs(cells[i + 1].value - cells[i].value), i)
            for i in range(len(cells) - 1)
        ]
        key = max if node.mode == "max" else min
        best_delta = key(d for d, _ in deltas)
        hits = [i for d, i in deltas if d == best_delta]
        if len(hits) > 1:
            raise TieError("two intervals share the extreme change")
        i = hits[0]
        return f"{cells[i].label} to {cells[i + 1].label}"

    raise QueryError(f"unhandled op {kind!r}")


# ---------------------------------------------------------------------------
# answers

def render_answer(value) -> str:
    """Render an evaluation result in its canonical string form."""
    if isinstance(value, Decimal):
        return canon_number(value)
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        if len(value) == 1:
            return value[0].label
        raise QueryError(f"a root query must yield one cell, got {len(value)}")
    raise QueryError(f"unrenderable value {value!r}")


def infer_answer_type(value) -> str:
    if isinstance(value, Decimal):
        return "number"
    if isinstance(value, bool):
        return "boolean"
    text = render_answer(value)
    return "year" if _is_year(text) else "text"


def oracle_eval(
    query: QuerySpec, spec: ChartSpec, geom: GeometryMap | None = None
) -> str:
    """Evaluate a query to its canonical gold answer string."""
    return render_answer(evaluate(query.root, spec, geom))


# ---------------------------------------------------------------------------
# serialization (used by stores and by independent checkers)

def selector_to_dict(sel: Selector) -> dict:
    if isinstance(sel, ByName):
        return {"sel": "ByName", "series": sel.series, "category": sel.category}
    if isinstance(sel, ByPosition):
        return {"sel": "ByPosition", "rank": sel.rank, "axis": sel.axis,
                "direction": sel.direction}
    if isinstance(sel, ByVisual):
        return {"sel": "ByVisual", "color": sel.color, "pattern": sel.pattern}
    if isinstance(sel, ByLegend):
        return {"sel": "ByLegend", "position": sel.position}
    if isinstance(sel, ByExtreme):
        return {"sel": "ByExtreme", "mode": sel.mode, "k": sel.k}
    raise QueryError(f"unknown selector {sel!r}")


def selector_from_dict(d: dict) -> Selector:
    kind = d["sel"]
    if kind == "ByName":
        return ByName(d.get("series"), d.get("category"))
    if kind == "ByPosition":
        return ByPosition(d["rank"], d["axis"], d["direction"])
    if kind == "ByVisual":
        return ByVisual(d.get("color"), d.get("pattern"))
    if kind == "ByLegend":
        return ByLegend(d["position"])
    if kind == "ByExtreme":
        return ByExtreme(d["mode"], d.get("k", 1))
    raise QueryError(f"unknown selector tag {kind!r}")


def node_to_dict(node: Node) -> dict:
    if isinstance(node, Extract):
        return {"op": "Extract", "selector": selector_to_dict(node.selector)}
    out: dict = {
        "op": node.kind,
        "children": [node_to_dict(c) for c in node.children],
    }
    if node.relation is not None:
        out["relation"] = node.relation
    if node.value is not None:
        out["value"] = canon_number(node.value)
    if node.k is not None:
        out["k"] = node.k
    if node.order is not None:
        out["order"] = node.order
    if node.mode is not None:
        out["mode"] = node.mode
    return out


def node_from_dict(d: dict) -> Node:
    if d["op"] == "Extract":
        return Extract(selector_from_dict(d["selector"]))
    return Op(
        kind=d["op"],
        children=tuple(node_from_dict(c) for c in d.get("children", [])),
        relation=d.get("relation"),
        value=Decimal(d["value"]) if "value" in d else None,
        k=d.get("k"),
        order=d.get("order"),
        mode=d.get("mode"),
    )


def query_to_dict(query: QuerySpec) -> dict:
    return {
        "root": node_to_dict(query.root),
        "family": query.family,
        "answer_type": query.answer_type,
    }


def query_from_dict(d: dict) -> QuerySpec:
    return QuerySpec(
        root=node_from_dict(d["root"]),
        family=d["family"],
        answer_type=d["answer_type"],
    )
