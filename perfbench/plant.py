"""Planted predictions for the scoring part of sparse-build-score.

Each item gets one case, drawn from a generator seeded by the workload
seed and the item id, and the case fixes whether the scorer must pass
it.  The expectations come from the scoring protocol as documented
(relaxed accuracy within 5%, exact match for years, options and
booleans, ANLS with a 0.5 floor), not from running the scorer.

Short mode plants exact answers, numbers within and outside 5%, years
off by one, ``(B)``-style option letters, yes/true/no/false words, text
on both sides of the ANLS threshold, and missing rows.  Dot mode plants
the gold trace, traces whose final answer is wrong, and traces with one
structural violation each; a violation leaves the final-answer line
readable, so those still pass.
"""

from __future__ import annotations

import random
from collections import Counter
from decimal import Decimal, InvalidOperation

from perceptqa.metrics import normalize_answer
from perceptqa.reasoning import (
    FINAL_PREFIX,
    SOLUTION_HEADER,
    classify_subquestion,
    format_trace,
)

_NOT_IN_TEXT = "zqxj~#"


def _rng(seed: int, mode: str, qa_id: str) -> random.Random:
    return random.Random(f"{seed}:{mode}:{qa_id}")


def _number(text: str) -> Decimal | None:
    try:
        return Decimal(text.replace(",", ""))
    except InvalidOperation:
        return None


def _scaled(gold: Decimal, factor: str) -> str:
    return format(gold * Decimal(factor), "f")


def _text_miss(gold: str, changed: int) -> str | None:
    """gold with its first `changed` characters replaced by one absent
    from gold.  The two strings share no character in that prefix, so
    their edit distance is exactly `changed`."""
    filler = next((c for c in _NOT_IN_TEXT if c not in gold), None)
    if filler is None:
        return None
    pred = filler * changed + gold[changed:]
    if normalize_answer(pred, "text").value != pred:
        return None
    return pred


def wrong_answer(item) -> str:
    """An answer the scorer must fail, in the item's answer form."""
    kind, gold = item.answer_type, item.answer
    if kind == "number":
        value = _number(gold)
        if value is not None:
            return "1" if value == 0 else _scaled(value, "1.08")
    if kind == "year":
        return str(int(gold) + 1)
    if kind == "mcq":
        return "A" if gold != "A" else "B"
    if kind == "boolean":
        return "False" if gold == "True" else "True"
    folded = normalize_answer(gold, "text").value
    return _text_miss(folded, len(folded)) or "zz-no-such-answer-zz"


def _short_case(item, rng: random.Random) -> tuple[str | None, bool]:
    """(prediction or None for a missing row, expected pass)."""
    kind, gold = item.answer_type, item.answer
    case = rng.choice(("exact", "near", "wrong", "missing"))
    if case == "missing":
        return None, False
    if case == "wrong":
        return wrong_answer(item), False
    if kind == "number":
        value = _number(gold)
        if case == "near" and value is not None:
            return _scaled(value, rng.choice(("1.03", "0.97"))), True
        return gold, True
    if kind == "mcq":
        return f"({gold})", True
    if kind == "boolean":
        words = ("yes", "true") if gold == "True" else ("no", "false")
        return rng.choice(words), True
    if kind == "text" and case == "near":
        folded = normalize_answer(gold, "text").value
        size = len(folded)
        if size >= 4:
            # one side of the 0.5 floor or the other, never on it
            above = rng.random() < 0.5
            changed = max(1, size * 2 // 5) if above else size // 2 + 1
            pred = _text_miss(folded, changed)
            if pred is not None:
                return pred, above
    return gold, True


def short_predictions(items, seed: int):
    """Rows for the predictions file and the expected pass per qa_id."""
    rows, expected = [], {}
    for item in sorted(items, key=lambda i: i.qa_id):
        pred, passed = _short_case(item, _rng(seed, "short", item.qa_id))
        expected[item.qa_id] = passed
        if pred is not None:
            rows.append({"qa_id": item.qa_id, "prediction": pred})
    return rows, expected


def _violate(lines: list[str], code: str, trace) -> list[str] | None:
    """Break the formatted trace in exactly one way; None when the trace
    is too short for this violation."""
    n = len(trace.subs)
    # format_trace lays out: opening, header, n questions, header,
    # divider, n solutions
    q0, a0 = 2, 2 + n + 2
    if n < 2 and code not in ("no_final_answer", "missing_solution_phase"):
        return None
    out = list(lines)
    if code == "forbidden_word":
        out[a0] += " (read off the table)"
    elif code == "missing_solution_phase":
        out.remove(SOLUTION_HEADER)
    elif code == "logic_before_perception":
        first, last = trace.subs[0].question, trace.subs[-1].question
        if (classify_subquestion(first) != "perception"
                or classify_subquestion(last) != "logic"):
            return None
        out[q0] = f"1. {last}"
        out[q0 + n - 1] = f"{n}. {first}"
    elif code == "count_mismatch":
        del out[q0 + n - 1]
    elif code == "no_final_answer":
        out[-1] = out[-1].replace(FINAL_PREFIX, "", 1)
    elif code == "bad_numbering":
        out[q0 + 1] = f"3. {trace.subs[1].question}"
    return out


VIOLATIONS = ("forbidden_word", "missing_solution_phase",
              "logic_before_perception", "count_mismatch",
              "no_final_answer", "bad_numbering")


def dot_predictions(items, seed: int):
    """Rows for the predictions file, the expected pass per qa_id, and
    the expected count of each violation code."""
    rows, expected, violations = [], {}, Counter()
    for item in sorted(items, key=lambda i: i.qa_id):
        rng = _rng(seed, "dot", item.qa_id)
        lines = format_trace(item.trace).split("\n")
        case = rng.choice(("gold", "wrong") + VIOLATIONS)
        passed = True
        if case == "wrong":
            lines[-1] = lines[-1].rsplit(FINAL_PREFIX, 1)[0] + FINAL_PREFIX \
                + wrong_answer(item)
            passed = False
        elif case in VIOLATIONS:
            broken = _violate(lines, case, item.trace)
            if broken is not None:
                lines = broken
                violations[case] += 1
        expected[item.qa_id] = passed
        rows.append({"qa_id": item.qa_id, "prediction": "\n".join(lines)})
    return rows, expected, violations
