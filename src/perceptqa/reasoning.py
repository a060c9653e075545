"""Two-phase reasoning traces.

A trace lists numbered sub-questions (Question Phase) and then answers
them in the same order (Solution Phase).  Sub-questions that read marks
off the chart come strictly before those that operate on already-read
values, and the last solution line carries the final answer.

``build_trace`` derives a trace from a query tree; ``format_trace`` and
``parse_trace`` round-trip the fixed text layout; ``validate_trace_text``
is the lenient checker applied to model output, returning every format
violation instead of stopping at the first.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache
from importlib import resources

from .charts import ChartSpec
from .errors import InvariantError, TraceFormatError
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
    evaluate,
    render_answer,
)
from .render import GeometryMap

OPENING_LINE = "Let's break down this problem."
QUESTION_HEADER = "Question Phase:"
SOLUTION_HEADER = "Solution Phase:"
DIVIDER = "---"
FINAL_PREFIX = "Final answer: "

_FINAL_RE = re.compile(r"^final answer:\s*", re.IGNORECASE)


@dataclass(frozen=True)
class SubQuestion:
    index: int  # 1-based
    kind: str   # "perception" or "logic"
    question: str
    answer: str

    @property
    def depends_on(self) -> tuple[int, ...]:
        """Earlier steps this one consumes, as its question names them."""
        return infer_depends(self.question, self.index)


@dataclass(frozen=True)
class ReasoningTrace:
    subs: tuple[SubQuestion, ...]
    final: str


@dataclass(frozen=True)
class TraceViolation:
    code: str
    detail: str = ""

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}" if self.detail else self.code


# ---------------------------------------------------------------------------
# classifier

@lru_cache(maxsize=1)
def load_lexicon() -> dict:
    text = resources.files("perceptqa").joinpath(
        "data/classifier_lexicon.json").read_text(encoding="utf-8")
    lex = json.loads(text)
    for key in ("version", "logic", "perception"):
        if key not in lex:
            raise InvariantError(f"classifier lexicon missing {key!r}")
    return lex


# Case folding for the marker and forbidden-word searches.  A text is
# folded once and then matched by lowercase patterns case-sensitively,
# which keeps sre's literal prefix scan that IGNORECASE turns off.
# Besides A-Z, exactly four code points match an ASCII letter under
# re.IGNORECASE; each maps to a letter, so word boundaries do not move
# and the result equals an IGNORECASE search of the original text.
# (str.lower() would turn U+0130 into "i" plus a combining dot.)
_FOLD = {c: c + 32 for c in range(ord("A"), ord("Z") + 1)}
_FOLD.update({0x130: ord("i"), 0x131: ord("i"), 0x17F: ord("s"),
              0x212A: ord("k")})


def _fold(text: str) -> str:
    return text.lower() if text.isascii() else text.translate(_FOLD)


def _markers_re(markers: list[str]) -> re.Pattern | None:
    """One pattern that matches folded text wherever any of the markers
    stands as whole words; None for an empty marker list, which matches
    nothing.  Markers must be ASCII, where folding is exact."""
    if not markers:
        return None
    odd = [m for m in markers if not m.isascii()]
    if odd:
        raise InvariantError(f"classifier markers must be ASCII: {odd}")
    alternation = "|".join(re.escape(m.lower()) for m in markers)
    return re.compile(rf"\b(?:{alternation})\b")


@lru_cache(maxsize=1)
def _patterns() -> tuple:
    # logic first: it takes precedence
    lexicon = load_lexicon()
    return tuple((kind, _markers_re(lexicon[kind]))
                 for kind in ("logic", "perception"))


def classify_subquestion(text: str) -> str:
    """Tag a sub-question as perception (reads the chart) or logic
    (operates on values already read).  Markers match as whole words in
    any case; logic markers take precedence; unmatched text defaults to
    logic."""
    folded = _fold(text)
    for kind, pattern in _patterns():
        if pattern is not None and pattern.search(folded):
            return kind
    return "logic"


_FORBIDDEN = re.compile(r"\btable\b")


def _has_forbidden(text: str) -> bool:
    """Whether the word "table" appears, in any case."""
    folded = _fold(text)
    return "table" in folded and _FORBIDDEN.search(folded) is not None


_REF_RE = re.compile(
    r"\bquestions?\s+(\d+(?:(?:,\s*|\s+and\s+|,\s*and\s+)\d+)*)",
    re.IGNORECASE,
)


def infer_depends(question: str, index: int) -> tuple[int, ...]:
    """Pull back-references like "question 3" or "questions 1 and 2" out
    of a sub-question, keeping only indices of earlier steps."""
    found: set[int] = set()
    for m in _REF_RE.finditer(question):
        for token in re.findall(r"\d+", m.group(1)):
            ref = int(token)
            if 1 <= ref < index:
                found.add(ref)
    return tuple(sorted(found))


# ---------------------------------------------------------------------------
# formatting and parsing

def format_trace(trace: ReasoningTrace) -> str:
    if not trace.subs:
        raise TraceFormatError("missing_question_phase", "trace holds no sub-questions")
    lines = [OPENING_LINE, QUESTION_HEADER]
    lines.extend(f"{s.index}. {s.question}" for s in trace.subs)
    lines.append(SOLUTION_HEADER)
    lines.append(DIVIDER)
    lines.extend(f"{s.index}) {s.answer}" for s in trace.subs)
    text = "\n".join(lines)
    last = trace.subs[-1].answer
    if last != f"{FINAL_PREFIX}{trace.final}":
        raise TraceFormatError(
            "no_final_answer",
            f"last answer {last!r} does not carry the final value")
    if _has_forbidden(text):
        raise TraceFormatError("forbidden_word", "the word 'table' appears")
    return text


_Q_LINE = re.compile(r"^(\d+)\.\s+(.*)$")
_A_LINE = re.compile(r"^(\d+)\)\s+(.*)$")


def validate_trace_text(
    text: str,
) -> tuple[ReasoningTrace | None, list[TraceViolation]]:
    """Check model output against the trace format.

    Returns the parsed trace when the structure is sound, plus every
    violation found.  A non-empty violation list means the output fails
    the format contract even if a trace could still be assembled.
    """
    violations: list[TraceViolation] = []
    lines = [ln.rstrip() for ln in text.replace("\r\n", "\n").split("\n")]
    lines = [ln for ln in lines if ln.strip()]

    if _has_forbidden(text):
        violations.append(TraceViolation("forbidden_word", "found 'table'"))

    pos = 0
    if pos < len(lines) and lines[pos].strip() == OPENING_LINE:
        pos += 1
    else:
        violations.append(TraceViolation(
            "missing_question_phase", "opening line absent"))
    if pos < len(lines) and lines[pos].strip() == QUESTION_HEADER:
        pos += 1
    else:
        violations.append(TraceViolation(
            "missing_question_phase", "question header absent"))

    questions: list[str] = []
    q_numbers: list[int] = []
    while pos < len(lines):
        m = _Q_LINE.match(lines[pos])
        if not m:
            break
        q_numbers.append(int(m.group(1)))
        questions.append(m.group(2))
        pos += 1

    # The divider is optional in model output and tolerated on either
    # side of the header; only the header itself is required.
    if pos < len(lines) and lines[pos].strip() == DIVIDER:
        pos += 1
    if pos < len(lines) and lines[pos].strip() == SOLUTION_HEADER:
        pos += 1
        if pos < len(lines) and lines[pos].strip() == DIVIDER:
            pos += 1
    else:
        violations.append(TraceViolation(
            "missing_solution_phase", "solution header absent"))

    answers: list[str] = []
    a_numbers: list[int] = []
    while pos < len(lines):
        m = _A_LINE.match(lines[pos])
        if not m:
            violations.append(TraceViolation(
                "bad_numbering", f"unexpected line {lines[pos]!r}"))
            pos += 1
            continue
        a_numbers.append(int(m.group(1)))
        answers.append(m.group(2))
        pos += 1

    if not questions:
        violations.append(TraceViolation(
            "missing_question_phase", "no numbered sub-questions"))
    if q_numbers != list(range(1, len(q_numbers) + 1)):
        violations.append(TraceViolation(
            "bad_numbering", f"question numbers run {q_numbers}"))
    if a_numbers and a_numbers != list(range(1, len(a_numbers) + 1)):
        violations.append(TraceViolation(
            "bad_numbering", f"solution numbers run {a_numbers}"))
    if len(questions) != len(answers):
        violations.append(TraceViolation(
            "count_mismatch",
            f"{len(questions)} sub-questions, {len(answers)} solutions"))
    if answers and not _FINAL_RE.match(answers[-1]):
        violations.append(TraceViolation(
            "no_final_answer", "last solution line lacks the final-answer prefix"))

    kinds = [classify_subquestion(q) for q in questions]
    seen_logic = False
    for q, kind in zip(questions, kinds):
        if kind == "logic":
            seen_logic = True
        elif seen_logic:
            violations.append(TraceViolation(
                "logic_before_perception",
                f"perception question {q!r} follows a logic question"))
            break

    if violations:
        return None, violations
    subs = tuple(
        SubQuestion(index=i + 1, kind=kinds[i], question=questions[i],
                    answer=answers[i])
        for i in range(len(questions))
    )
    final = _FINAL_RE.sub("", answers[-1]).strip()
    return ReasoningTrace(subs=subs, final=final), []


def parse_trace(text: str) -> ReasoningTrace:
    trace, violations = validate_trace_text(text)
    if violations:
        raise TraceFormatError(violations[0].code, violations[0].detail)
    assert trace is not None
    return trace


# ---------------------------------------------------------------------------
# wire form

def trace_to_dict(trace: ReasoningTrace) -> dict:
    return {
        "subs": [
            {"i": s.index, "kind": s.kind, "q": s.question, "a": s.answer}
            for s in trace.subs
        ],
        "final": trace.final,
    }


def trace_from_dict(d: dict) -> ReasoningTrace:
    return ReasoningTrace(
        subs=tuple(
            SubQuestion(index=s["i"], kind=sys.intern(s["kind"]),
                        question=s["q"], answer=s["a"])
            for s in d["subs"]
        ),
        final=d["final"],
    )


# ---------------------------------------------------------------------------
# trace construction from a query tree

_ORDINALS = ("first", "second", "third", "fourth", "fifth", "sixth",
             "seventh", "eighth", "ninth", "tenth")


def _ordinal(n: int) -> str:
    if 1 <= n <= len(_ORDINALS):
        return _ORDINALS[n - 1]
    return f"{n}th"


_SIDES = {"from_top": "top", "from_bottom": "bottom",
          "from_left": "left", "from_right": "right"}

_REL_WORDS = {"gt": "above", "ge": "at or above",
              "lt": "below", "le": "at or below"}

_CMP_WORDS = {"gt": "greater than", "ge": "at least",
              "lt": "less than", "le": "at most"}


def _refs(indices: list[int]) -> str:
    uniq = sorted(dict.fromkeys(indices))
    if len(uniq) == 1:
        return f"question {uniq[0]}"
    if len(uniq) == 2:
        return f"questions {uniq[0]} and {uniq[1]}"
    listed = ", ".join(str(i) for i in uniq[:-1])
    return f"questions {listed}, and {uniq[-1]}"


def _num(value: Decimal) -> str:
    return canon_number(value)


class _TraceBuilder:
    def __init__(self, spec: ChartSpec, geom: GeometryMap | None, values: dict):
        self.spec = spec
        self.geom = geom
        self.values = values  # node -> evaluated value, filled on demand
        # row: (kind, question, answer)
        self.rows: list[tuple[str, str, str]] = []
        self.leaf_refs: dict = {}
        self.pick_refs: dict = {}

    def _add(self, kind: str, question: str, answer: str,
             deps: tuple[int, ...] = ()) -> int:
        got = classify_subquestion(question)
        if got != kind:
            raise InvariantError(
                f"sub-question {question!r} classifies as {got}, expected {kind}")
        index = len(self.rows) + 1
        if any(not 1 <= d < index for d in deps):
            raise InvariantError(
                f"sub-question {index} references {deps}, all must be earlier")
        self.rows.append((kind, question, answer))
        return index

    def value(self, node: Node):
        try:
            return self.values[node]
        except KeyError:
            return evaluate(node, self.spec, self.geom, self.values)

    # -- perception leaves ---------------------------------------------------

    def prepare_leaves(self, node: Node) -> None:
        if isinstance(node, Extract):
            sel = node.selector
            key = "__ALL__" if isinstance(sel, ByExtreme) else sel
            if key not in self.leaf_refs:
                self.leaf_refs[key] = self._emit_leaf(sel)
            return
        for child in node.children:
            self.prepare_leaves(child)

    def _emit_leaf(self, sel) -> int:
        spec = self.spec
        multi = len(spec.table.series) > 1

        if isinstance(sel, ByExtreme):
            cells = [
                c for s in spec.table.series
                for c in self.value(Extract(ByName(series=s.name)))
            ]
            q = ("What values do all series show across the categories?"
                 if multi else "What values are shown across the categories?")
            listed = ", ".join(
                f"{_num(c.value)} for {self._cell_tag(c, multi)}" for c in cells)
            return self._add("perception", q, f"The chart shows {listed}.")

        cells = self.value(Extract(sel))
        if isinstance(sel, ByName):
            if sel.series is not None and sel.category is not None:
                c = cells[0]
                if multi:
                    q = f"What value is shown for {sel.category} in the {sel.series} series?"
                    a = (f"The value for {sel.category} in the {sel.series} "
                         f"series is {_num(c.value)}.")
                else:
                    q = f"What value is shown for {sel.category}?"
                    a = f"The value for {sel.category} is {_num(c.value)}."
                return self._add("perception", q, a)
            if sel.series is not None:
                if multi:
                    q = f"What values does the {sel.series} series show across the categories?"
                else:
                    q = "What values are shown across the categories?"
                return self._add("perception", q, self._row_answer(cells))
            q = f"What values are shown for {sel.category} across the series?"
            listed = ", ".join(f"{_num(c.value)} for {c.series}" for c in cells)
            return self._add("perception", q, f"For {sel.category}, the chart shows {listed}.")

        if isinstance(sel, ByPosition):
            noun = "bar" if sel.axis == "row" else "category"
            side = _SIDES[sel.direction]
            q = (f"Which {noun} is {_ordinal(sel.rank)} from the {side}, "
                 f"and what value does it show?")
            label = cells[0].category
            if len(cells) == 1:
                a = (f"The {_ordinal(sel.rank)} {noun} from the {side} is "
                     f"{label}, with a value of {_num(cells[0].value)}.")
            else:
                listed = ", ".join(f"{_num(c.value)} for {c.series}" for c in cells)
                a = (f"The {_ordinal(sel.rank)} {noun} from the {side} is "
                     f"{label}, showing {listed}.")
            return self._add("perception", q, a)

        if isinstance(sel, ByVisual):
            if sel.color and sel.pattern:
                desc = f"drawn in {sel.color} with the {sel.pattern} fill"
            elif sel.color:
                desc = f"drawn in {sel.color}"
            else:
                desc = f"with the {sel.pattern} fill"
            q = f"What values does the series {desc} show across the categories?"
            return self._add("perception", q, self._row_answer(cells, "That series shows"))

        if isinstance(sel, ByLegend):
            q = (f"What values does the {_ordinal(sel.position)} series in the "
                 f"legend show across the categories?")
            return self._add("perception", q, self._row_answer(cells, "It shows"))

        raise InvariantError(f"no leaf template for selector {sel!r}")

    def _row_answer(self, cells, opener: str = "The values are") -> str:
        listed = ", ".join(f"{_num(c.value)} for {c.category}" for c in cells)
        return f"{opener} {listed}."

    def _cell_tag(self, cell, multi: bool) -> str:
        return f"{cell.series}, {cell.category}" if multi else cell.category

    # -- logic nodes ---------------------------------------------------------

    def visit(self, node: Node) -> int:
        if isinstance(node, Extract):
            sel = node.selector
            if isinstance(sel, ByExtreme):
                return self._visit_extreme_pick(sel)
            return self.leaf_refs[sel]
        return self._visit_op(node)

    def _visit_extreme_pick(self, sel: ByExtreme) -> int:
        if sel in self.pick_refs:
            return self.pick_refs[sel]
        enum_ref = self.leaf_refs["__ALL__"]
        word = "highest" if sel.mode == "max" else "lowest"
        if sel.k == 1:
            q = f"Which of the values from question {enum_ref} is the {word}?"
        else:
            q = (f"Which of the values from question {enum_ref} is the "
                 f"{_ordinal(sel.k)} {word}?")
        cell = self.value(Extract(sel))[0]
        a = f"The {word} of those is {_num(cell.value)}, for {cell.label}."
        ref = self._add("logic", q, a, deps=(enum_ref,))
        self.pick_refs[sel] = ref
        return ref

    def _visit_op(self, op: Op) -> int:
        result = self.value(op)
        kind = op.kind
        idxs = [self.visit(c) for c in op.children]
        deps = tuple(sorted(set(idxs)))
        refs = _refs(idxs)

        if kind in ("Sum", "Mean", "Median"):
            noun = {"Sum": "combined total", "Mean": "average", "Median": "median"}[kind]
            q = f"What is the {noun} of the values from {refs}?"
            a = f"The {noun} is {_num(result)}."
            return self._add("logic", q, a, deps)

        if kind in ("Diff", "AbsDiff"):
            i, j = idxs
            word = "absolute difference" if kind == "AbsDiff" else "difference"
            q = (f"What is the {word} between the answer to question {i} "
                 f"and the answer to question {j}?")
            return self._add("logic", q, f"The {word} is {_num(result)}.", deps)

        if kind == "Quotient":
            i, j = idxs
            q = (f"What is the answer to question {i} divided by the answer "
                 f"to question {j}?")
            return self._add("logic", q, f"The result is {_num(result)}.", deps)

        if kind == "Ratio":
            i, j = idxs
            q = (f"How many times larger is the answer to question {i} than "
                 f"the answer to question {j}?")
            return self._add("logic", q, f"It is {_num(result)} times as large.", deps)

        if kind == "Threshold":
            relword = _REL_WORDS[op.relation]
            bound = _num(op.value)
            q = f"Which of the values from {refs} are {relword} {bound}?"
            if result:
                listed = ", ".join(f"{_num(c.value)} for {c.label}" for c in result)
                a = f"The values {relword} {bound} are {listed}."
            else:
                a = f"None of the values are {relword} {bound}."
            return self._add("logic", q, a, deps)

        if kind == "Count":
            q = f"How many values does the answer to {refs} list?"
            n = int(result)
            noun = "value" if n == 1 else "values"
            return self._add("logic", q, f"It lists {n} {noun}.", deps)

        if kind == "Rank":
            word = "highest" if op.order == "desc" else "lowest"
            q = (f"Which of the values from {refs} is the "
                 f"{_ordinal(op.k)} {word}?")
            cell = result[0]
            a = (f"The {_ordinal(op.k)} {word} is {_num(cell.value)}, "
                 f"for {cell.label}.")
            return self._add("logic", q, a, deps)

        if kind == "ArgExtreme":
            word = "highest" if op.mode == "max" else "lowest"
            q = f"Which of the values from {refs} is the {word}?"
            cell = result[0]
            a = f"The {word} is {_num(cell.value)}, for {cell.label}."
            return self._add("logic", q, a, deps)

        if kind == "Compare":
            i, j = idxs
            relword = _CMP_WORDS[op.relation]
            q = (f"Is the answer to question {i} {relword} the answer to "
                 f"question {j}?")
            a_val = self.value(op.children[0])
            b_val = self.value(op.children[1])
            a_num = a_val[0].value if isinstance(a_val, tuple) else a_val
            b_num = b_val[0].value if isinstance(b_val, tuple) else b_val
            if result:
                a = f"Yes, {_num(a_num)} is {relword} {_num(b_num)}."
            else:
                a = f"No, {_num(a_num)} is not {relword} {_num(b_num)}."
            return self._add("logic", q, a, deps)

        if kind == "RateOfChange":
            steps = "years" if self.spec.is_temporal else "categories"
            most = "most" if op.mode == "max" else "least"
            q = (f"Between which two consecutive {steps} did the values "
                 f"from {refs} change the {most}?")
            return self._add(
                "logic", q, f"The {most} pronounced shift runs from {result}.", deps)

        if kind == "OneFourthNearest":
            q = (f"Which of the values from {refs} lies closest to one "
                 f"quarter of their combined total?")
            cell = result[0]
            total = sum((c.value for child in op.children
                         for c in self.value(child)), Decimal(0))
            target = divide(total, Decimal(4))
            a = (f"One quarter of the combined total {_num(total)} is "
                 f"{_num(target)}; the closest value is {_num(cell.value)}, "
                 f"for {cell.label}.")
            return self._add("logic", q, a, deps)

        raise InvariantError(f"no trace template for op {kind!r}")


def build_trace(
    query: QuerySpec,
    spec: ChartSpec,
    geom: GeometryMap | None = None,
    mcq_options: tuple[tuple[str, str], ...] | None = None,
    values: dict | None = None,
) -> ReasoningTrace:
    """Derive the gold reasoning trace for a query.

    The final solution line always carries the item's gold answer; for
    multiple-choice items an extra matching step maps the computed value
    to its option letter.  values may hold subtree values already
    recorded by ``evaluate(query.root, spec, geom, values)``; whatever it
    lacks is evaluated here and added to it."""
    builder = _TraceBuilder(spec, geom, {} if values is None else values)
    builder.prepare_leaves(query.root)
    builder.visit(query.root)

    final = render_answer(builder.value(query.root))

    if mcq_options is not None:
        hits = [letter for letter, text in mcq_options if text == final]
        if len(hits) != 1:
            raise InvariantError(
                f"expected exactly one option matching {final!r}, got {hits}")
        last_ref = len(builder.rows)
        builder._add(
            "logic",
            f"Which option from the question matches the answer to "
            f"question {last_ref}?",
            "placeholder",
            deps=(last_ref,),
        )
        final = hits[0]

    rows = builder.rows
    if not rows:
        raise InvariantError("query produced no sub-questions")
    k0, q0, _ = rows[-1]
    rows[-1] = (k0, q0, f"{FINAL_PREFIX}{final}")
    subs = tuple(
        SubQuestion(index=i + 1, kind=k, question=q, answer=a)
        for i, (k, q, a) in enumerate(rows)
    )
    return ReasoningTrace(subs=subs, final=final)
