"""Answer normalization and scoring.

Predictions and gold answers are reduced to a canonical form first
(``normalize_answer``), then scored by the protocol the item's answer
type calls for: relaxed accuracy for numbers, exact match for years and
boolean or multiple-choice answers, normalized edit similarity for free
text.  ``aggregate`` rolls per-item outcomes into a per-family report.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation, ROUND_HALF_UP

from .errors import ConfigError
from .numformat import canon_number
from .qagen import QAItem
from .reasoning import validate_trace_text

ANLS_THRESHOLD = Decimal("0.5")
RELAXED_TOLERANCE = Decimal("0.05")

_YEAR_MIN, _YEAR_MAX = 1000, 2100

_TRUE_WORDS = frozenset({"true", "yes"})
_FALSE_WORDS = frozenset({"false", "no"})

_CURRENCY = "$€£¥"
_NUMBER_RE = re.compile(r"-?\d[\d,]*(?:\.\d+)?")
_OPTION_RE = re.compile(r"^\(?([A-Da-d])[).:]?$")


@dataclass(frozen=True)
class CanonicalAnswer:
    """An answer reduced to a comparable value.

    kind is one of number, year, text, boolean, option; value holds the
    matching Python type (Decimal, int, str, bool, str).  raw keeps the
    original text and notes records lossy steps taken while normalizing.
    """

    kind: str
    value: object
    raw: str
    had_percent: bool = False
    notes: tuple[str, ...] = ()

    def render(self) -> str:
        if self.kind == "number":
            return canon_number(self.value)
        if self.kind == "boolean":
            return "True" if self.value else "False"
        return str(self.value)


@dataclass(frozen=True)
class EvalOutcome:
    qa_id: str
    metric: str
    score: float
    passed: bool
    pred_canonical: str
    gold_canonical: str
    format_violations: tuple[str, ...] = ()


def _strip_wrapping(text: str) -> tuple[str, bool, list[str]]:
    notes: list[str] = []
    s = text.strip()
    s = s.strip("“”\"'")
    had_percent = False
    if s.endswith("%"):
        had_percent = True
        s = s[:-1].strip()
        notes.append("percent sign dropped")
    while s and s[0] in _CURRENCY:
        s = s[1:].strip()
        notes.append("currency sign dropped")
    if s.endswith(".") and not re.search(r"\d\.$", s):
        s = s[:-1].strip()
    return s, had_percent, notes


def _parse_numeric_token(token: str) -> Decimal | None:
    cleaned = token.replace(",", "")
    try:
        value = Decimal(cleaned)
    except InvalidOperation:
        return None
    return value


def _as_year(value: Decimal) -> int | None:
    if value != value.to_integral_value():
        # a fractional part like 2019.0 still counts; 2019.5 does not
        return None
    n = int(value)
    if _YEAR_MIN <= n <= _YEAR_MAX:
        return n
    return None


def normalize_answer(text: str, answer_type: str) -> CanonicalAnswer:
    """Reduce raw answer text to a canonical, comparable form.

    The expected answer_type steers interpretation: it decides whether a
    bare token such as "A" is an option letter or a word, and whether a
    numeric string should be read as a year.
    """
    raw = text
    s, had_percent, notes = _strip_wrapping(text)

    if answer_type == "mcq":
        m = _OPTION_RE.match(s)
        if m:
            return CanonicalAnswer("option", m.group(1).upper(), raw,
                                   had_percent, tuple(notes))
        m = re.match(r"^\(?([A-Da-d])[).:]\s+\S", s)
        if m:
            notes.append("option letter taken from a longer answer")
            return CanonicalAnswer("option", m.group(1).upper(), raw,
                                   had_percent, tuple(notes))
        notes.append("no option letter found")
        return CanonicalAnswer("text", s.casefold(), raw, had_percent,
                               tuple(notes))

    if answer_type == "boolean":
        word = s.casefold().rstrip(".")
        if word in _TRUE_WORDS:
            return CanonicalAnswer("boolean", True, raw, had_percent, tuple(notes))
        if word in _FALSE_WORDS:
            return CanonicalAnswer("boolean", False, raw, had_percent, tuple(notes))
        notes.append("no boolean token found")
        return CanonicalAnswer("text", s.casefold(), raw, had_percent,
                               tuple(notes))

    if answer_type in ("number", "year"):
        value = _parse_numeric_token(s)
        if value is None:
            m = _NUMBER_RE.search(s)
            if m:
                value = _parse_numeric_token(m.group(0))
                notes.append(f"numeric token {m.group(0)!r} taken from text")
        if value is None:
            notes.append("expected a number, none found; treating as text")
            return CanonicalAnswer("text", s.casefold(), raw, had_percent,
                                   tuple(notes))
        if answer_type == "year":
            year = _as_year(value)
            if year is not None:
                return CanonicalAnswer("year", year, raw, had_percent,
                                       tuple(notes))
            notes.append("value out of year range; kept as number")
        return CanonicalAnswer("number", value, raw, had_percent, tuple(notes))

    folded = " ".join(s.split()).casefold()
    return CanonicalAnswer("text", folded, raw, had_percent, tuple(notes))


# ---------------------------------------------------------------------------
# individual metrics

def relaxed_accuracy(pred: CanonicalAnswer, gold: CanonicalAnswer) -> float:
    """1.0 when the prediction falls within 5% of the gold value
    (inclusive); a gold of exactly zero demands an exact zero."""
    if pred.kind != "number" and pred.kind != "year":
        return 0.0
    if gold.kind not in ("number", "year"):
        raise ConfigError(f"relaxed accuracy needs a numeric gold, got {gold.kind}")
    p = Decimal(pred.value) if pred.kind == "year" else pred.value
    g = Decimal(gold.value) if gold.kind == "year" else gold.value
    if g == 0:
        return 1.0 if p == 0 else 0.0
    return 1.0 if abs(p - g) <= RELAXED_TOLERANCE * abs(g) else 0.0


def year_exact(pred: CanonicalAnswer, gold: CanonicalAnswer) -> float:
    if pred.kind != "year" or gold.kind != "year":
        return 0.0
    return 1.0 if pred.value == gold.value else 0.0


def levenshtein(a: str, b: str) -> int:
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost))
        prev = cur
    return prev[-1]


def anls(pred: str, gold: str) -> float:
    """Normalized edit similarity with a 0.5 floor: similarity below the
    threshold scores 0.  Two empty strings are identical (1.0)."""
    if not pred and not gold:
        return 1.0
    dist = levenshtein(pred, gold)
    sim = Decimal(1) - Decimal(dist) / Decimal(max(len(pred), len(gold)))
    if sim < ANLS_THRESHOLD:
        return 0.0
    return float(sim)


def exact_match(pred: CanonicalAnswer, gold: CanonicalAnswer) -> float:
    if pred.kind != gold.kind:
        return 0.0
    return 1.0 if pred.value == gold.value else 0.0


_METRIC_BY_TYPE = {
    "number": "relaxed",
    "year": "year_em",
    "text": "anls",
    "boolean": "em",
    "mcq": "em",
}


def metric_for(answer_type: str) -> str:
    try:
        return _METRIC_BY_TYPE[answer_type]
    except KeyError:
        raise ConfigError(f"no metric registered for answer type {answer_type!r}")


# ---------------------------------------------------------------------------
# item scoring

_FINAL_TOKEN_NUM = re.compile(r"-?[\d,]*\d(?:\.\d+)?%?")
_FINAL_TOKEN_OPT = re.compile(r"(?<![A-Za-z])\(?([A-D])\)?(?![A-Za-z])")
_FINAL_TOKEN_BOOL = re.compile(r"\b(true|false|yes|no)\b", re.IGNORECASE)
# the last numbered solution line of a trace that failed validation
_SOLUTION_LINE = re.compile(r"^\s*\d+\)\s*(.*)$")
_FINAL_PREFIX = re.compile(r"^final answer:\s*", re.IGNORECASE)


def extract_answer_token(line: str, answer_type: str) -> str:
    """Scan a solution line right to left for the token matching the
    expected answer type; fall back to the whole line."""
    if answer_type in ("number", "year"):
        hits = list(_FINAL_TOKEN_NUM.finditer(line))
        if hits:
            return hits[-1].group(0)
    elif answer_type == "mcq":
        hits = list(_FINAL_TOKEN_OPT.finditer(line))
        if hits:
            return hits[-1].group(1)
    elif answer_type == "boolean":
        hits = list(_FINAL_TOKEN_BOOL.finditer(line))
        if hits:
            return hits[-1].group(1)
    return line.strip()


def _final_from_trace_text(text: str, answer_type: str) -> tuple[str, tuple[str, ...]]:
    trace, violations = validate_trace_text(text)
    codes = tuple(v.code for v in violations)
    if trace is not None:
        return trace.final, codes
    lines = text.splitlines()
    for line in reversed(lines):
        m = _SOLUTION_LINE.match(line)
        if m:
            candidate = m.group(1)
            break
    else:
        candidate = next((line for line in reversed(lines) if line.strip()), "")
    candidate = _FINAL_PREFIX.sub("", candidate.strip())
    return extract_answer_token(candidate, answer_type), codes


def score_item(pred_text: str, item: QAItem, mode: str = "short") -> EvalOutcome:
    """Score one prediction against an item's gold answer.

    mode "short" treats pred_text as the bare answer; mode "dot" treats
    it as a full reasoning trace, extracts the final answer, and records
    any format violations alongside the score.
    """
    if mode not in ("dot", "short"):
        raise ConfigError(f"unknown evaluation mode {mode!r}")
    violations: tuple[str, ...] = ()
    answer_text = pred_text
    if mode == "dot":
        answer_text, violations = _final_from_trace_text(pred_text, item.answer_type)

    pred = normalize_answer(answer_text, item.answer_type)
    gold = normalize_answer(item.answer, item.answer_type)
    metric = metric_for(item.answer_type)

    if metric == "relaxed":
        score = relaxed_accuracy(pred, gold)
        passed = score == 1.0
    elif metric == "year_em":
        score = year_exact(pred, gold)
        passed = score == 1.0
    elif metric == "anls":
        score = anls(str(pred.value), str(gold.value))
        passed = score > 0.0
    else:
        score = exact_match(pred, gold)
        passed = score == 1.0

    return EvalOutcome(
        qa_id=item.qa_id,
        metric=metric,
        score=score,
        passed=passed,
        pred_canonical=pred.render(),
        gold_canonical=gold.render(),
        format_violations=violations,
    )


# ---------------------------------------------------------------------------
# aggregation

@dataclass(frozen=True)
class Report:
    by_family: dict = field(default_factory=dict)  # family -> score on 0-100
    overall: Decimal = Decimal("0")
    counts: dict = field(default_factory=dict)
    violation_rate: Decimal = Decimal("0")
    violation_counts: dict = field(default_factory=dict)


def _pct(total: Decimal, n: int) -> Decimal:
    return (total * 100 / n).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)


def aggregate(outcomes, families: list[str]) -> Report:
    """Average scores per family and overall, on a 0-100 scale rounded
    half-up to two decimals.  The overall figure averages over items,
    not over family means.

    outcomes is any iterable of (family, EvalOutcome) pairs, each an
    outcome with its item's family; it is read once.
    """
    sums: dict[str, Decimal] = {}
    counts: dict[str, int] = {}
    violation_counts: dict[str, int] = {}
    items_with_violations = 0
    total = Decimal(0)
    for family, out in outcomes:
        if family not in families:
            raise ConfigError(f"unknown task family {family!r}")
        s = Decimal(str(out.score))
        sums[family] = sums.get(family, Decimal(0)) + s
        counts[family] = counts.get(family, 0) + 1
        total += s
        if out.format_violations:
            items_with_violations += 1
            for code in out.format_violations:
                violation_counts[code] = violation_counts.get(code, 0) + 1
    n = sum(counts.values())
    if not n:
        raise ConfigError("cannot aggregate an empty outcome list")
    by_family = {
        fam: _pct(sums[fam], counts[fam]) for fam in counts
    }
    return Report(
        by_family=by_family,
        overall=_pct(total, n),
        counts=dict(counts),
        violation_rate=_pct(Decimal(items_with_violations), n),
        violation_counts=violation_counts,
    )


_COLUMNS = (("position", "Pos."), ("length", "Len."),
            ("pattern", "Pat."), ("extract", "Ext."))


def report_to_dict(report: Report) -> dict:
    return {
        "by_family": {k: str(v) for k, v in sorted(report.by_family.items())},
        "overall": str(report.overall),
        "counts": {k: report.counts[k] for k in sorted(report.counts)},
        "violation_rate": str(report.violation_rate),
        "violation_counts": {
            k: report.violation_counts[k] for k in sorted(report.violation_counts)
        },
    }


def format_report_table(report: Report) -> str:
    """Render the per-family score table as aligned plain text.

    Families with no scored items show an em-dash placeholder."""
    headers = [label for _, label in _COLUMNS] + ["Avg."]
    cells = []
    for fam, _ in _COLUMNS:
        if fam in report.by_family:
            cells.append(f"{report.by_family[fam]}")
        else:
            cells.append("—")
    cells.append(f"{report.overall}")
    widths = [max(len(h), len(c)) for h, c in zip(headers, cells)]
    head = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    body = "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    return f"{head}\n{body}"


def report_to_json(report: Report) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=False) + "\n"


# ---------------------------------------------------------------------------
# dual-model agreement labeling

@dataclass(frozen=True)
class AgreementLabel:
    status: str          # "accepted" or "needs_review"
    gold: str | None     # canonical gold answer when accepted
    answer_a: str
    answer_b: str


def dual_agreement_label(answer_a: str, answer_b: str,
                         answer_type: str) -> AgreementLabel:
    """Accept a gold label only when two independently produced answers
    are canonically identical; any disagreement routes to review.

    Equality here is exact on the canonical form, deliberately stricter
    than the scoring tolerance: a near-miss between labelers is a reason
    to review, not to accept.
    """
    a = normalize_answer(answer_a, answer_type)
    b = normalize_answer(answer_b, answer_type)
    if a.kind == b.kind and a.value == b.value:
        return AgreementLabel("accepted", a.render(), answer_a, answer_b)
    return AgreementLabel("needs_review", None, answer_a, answer_b)


def outcome_to_dict(out: EvalOutcome) -> dict:
    return {
        "qa_id": out.qa_id,
        "metric": out.metric,
        "score": out.score,
        "passed": out.passed,
        "pred": out.pred_canonical,
        "gold": out.gold_canonical,
        "violations": list(out.format_violations),
    }
