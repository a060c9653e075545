"""Command line entry point.

Subcommands cover the full pipeline: chart generation, question
generation, dataset assembly, scoring, reporting, and dual-answer
labeling.  Exit codes: 0 success, 1 bad input or validation failure,
2 endpoint/transport failure, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .charts import dumps_chart, loads_chart, require_valid, sample_chart_spec
from .errors import (
    ConfigError,
    InvariantError,
    PerceptQAError,
    TransportError,
)
from .gateway import (
    Gateway,
    generate_dot_answer_llm,
    generate_questions_llm,
    make_request,
    question_request,
    verify_templates,
)
from .metrics import (
    aggregate,
    dual_agreement_label,
    format_report_table,
    normalize_answer,
    outcome_to_dict,
    report_to_json,
    score_item,
    EvalOutcome,
)
from .qagen import (
    DEFAULT_FAMILY_WEIGHTS,
    FAMILY_NAMES,
    GenConfig,
    QAItem,
    generate_items,
    stable_seed,
)
from .queries import FAMILIES
from .reasoning import load_lexicon
from .render import dumps_geom, loads_geom, render_chart
from .store import load_dataset, split_holdout, write_dataset

if TYPE_CHECKING:
    from concurrent.futures import Future


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for
    transport failures, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_weights(text: str) -> tuple[tuple[str, float], ...]:
    parts = text.split(",")
    if len(parts) != len(FAMILY_NAMES):
        raise ConfigError(
            f"--weights needs {len(FAMILY_NAMES)} comma-separated numbers "
            f"({', '.join(FAMILY_NAMES)}), got {len(parts)}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"--weights: {exc}")
    if any(v < 0 for v in values):
        raise ConfigError("--weights values must be non-negative")
    if sum(values) <= 0:
        raise ConfigError("--weights must sum to a positive value")
    return tuple(zip(FAMILY_NAMES, values))


def _config_dict(args) -> dict:
    # the endpoint is excluded on purpose: which host served the model
    # must not change the identity of the dataset it produced
    weights = dict(args.weights or DEFAULT_FAMILY_WEIGHTS)
    return {
        "seed": args.seed,
        "charts": args.charts,
        "per_chart": args.per_chart,
        "weights": {k: weights[k] for k in FAMILY_NAMES},
        "holdout": args.holdout,
        "mode": args.mode,
        "model": args.model,
        "model_b": args.model_b,
    }


def _config_digest(config: dict) -> str:
    payload = json.dumps(config, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _write_run_record(out: Path, command: str, config: dict,
                      endpoint: str | None = None) -> None:
    record = {
        "command": command,
        "config": config,
        "config_digest": _config_digest(config),
        "endpoint": endpoint,
        "template_hashes": verify_templates(),
        "versions": {
            "perceptqa": __version__,
            "classifier_lexicon": load_lexicon()["version"],
        },
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "run.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")


def _make_charts(seed: int, count: int):
    charts = []
    for i in range(count):
        spec = sample_chart_spec(stable_seed(seed, "chart", i))
        require_valid(spec)
        svg, geom = render_chart(spec)
        charts.append((spec, svg, geom))
    return charts


def _validate_gen_args(args) -> None:
    if args.charts is not None and args.charts <= 0:
        raise ConfigError("--charts must be positive")
    if args.per_chart <= 0:
        raise ConfigError("--per-chart must be positive")
    if not 0 <= args.holdout < 1:
        raise ConfigError("--holdout must lie in [0, 1)")
    if args.mode == "llm":
        if not args.endpoint:
            raise ConfigError("--mode llm requires --endpoint")
        if not args.model:
            raise ConfigError("--mode llm requires --model")


def _split_items(items, chart_ids, seed: int, holdout: float):
    if holdout == 0:
        return items, ()
    train_ids, test_ids = split_holdout(
        list(chart_ids), seed=seed, fraction=holdout)
    held = set(test_ids)
    out = [
        replace(item, split="test" if item.chart_id in held else "train")
        for item in items
    ]
    return out, test_ids


# ---------------------------------------------------------------------------
# gen commands

def cmd_gen_charts(args) -> int:
    _validate_gen_args(args)
    out = Path(args.out)
    charts = _make_charts(args.seed, args.charts)
    chart_dir = out / "charts"
    chart_dir.mkdir(parents=True, exist_ok=True)
    for spec, svg, geom in charts:
        (chart_dir / f"{spec.chart_id}.json").write_text(
            dumps_chart(spec), encoding="utf-8")
        (chart_dir / f"{spec.chart_id}.svg").write_text(svg, encoding="utf-8")
        (chart_dir / f"{spec.chart_id}.geom.json").write_text(
            dumps_geom(geom), encoding="utf-8")
    _write_run_record(out, "gen-charts", _config_dict(args), args.endpoint)
    print(f"wrote {len(charts)} charts under {chart_dir}")
    return 0


def _load_charts_dir(root: Path):
    chart_dir = root / "charts"
    if not chart_dir.is_dir():
        raise ConfigError(f"no charts/ directory under {root}; "
                          f"run gen-charts first")
    charts = []
    for path in sorted(chart_dir.glob("*.json")):
        if path.name.endswith(".geom.json"):
            continue
        spec = loads_chart(path.read_text("utf-8"))
        svg_path = chart_dir / f"{spec.chart_id}.svg"
        geom_path = chart_dir / f"{spec.chart_id}.geom.json"
        if not svg_path.is_file() or not geom_path.is_file():
            raise ConfigError(f"chart {spec.chart_id} is missing its "
                              f"svg or geometry file")
        charts.append((
            spec,
            svg_path.read_text("utf-8"),
            loads_geom(geom_path.read_text("utf-8")),
        ))
    if not charts:
        raise ConfigError(f"no chart files under {chart_dir}")
    return charts


def cmd_build_dataset(args) -> int:
    """gen-qa and build-dataset: phrase questions for charts read from
    --out (gen-qa) or sampled here (build-dataset), then write the dataset."""
    _validate_gen_args(args)
    if args.command == "gen-qa":
        charts = _load_charts_dir(Path(args.out))
        args.charts = len(charts)
    else:
        if args.charts is None:
            raise ConfigError("--charts is required")
        charts = _make_charts(args.seed, args.charts)

    if args.mode == "llm":
        items, review_rows = _build_llm_items(charts, args)
    else:
        items, stats = generate_items(
            [(spec, geom) for spec, _, geom in charts],
            GenConfig(per_chart=args.per_chart,
                      family_weights=args.weights or DEFAULT_FAMILY_WEIGHTS,
                      seed=args.seed))
        review_rows = []
        if stats.shortfall:
            print(f"note: {stats.shortfall} requested items exceeded "
                  f"chart capacity", file=sys.stderr)

    out = Path(args.out)
    config = _config_dict(args)
    chart_ids = [spec.chart_id for spec, _, _ in charts]
    items, test_ids = _split_items(items, chart_ids, args.seed, args.holdout)
    manifest = write_dataset(
        out,
        dataset_id=f"ds-{_config_digest(config)[:12]}",
        charts=charts,
        items=items,
        holdout_chart_ids=test_ids,
        config_digest=_config_digest(config),
        tool_version=__version__,
        template_hashes=verify_templates() if args.mode == "llm" else {},
        review_rows=review_rows,
    )
    _write_run_record(out, args.command, config, args.endpoint)
    counts = " ".join(f"{fam}={manifest.counts[fam]}" for fam in FAMILY_NAMES)
    print(f"dataset {manifest.dataset_id}: {counts} "
          f"(train={manifest.train_size} test={manifest.test_size})")
    return 0


# ---------------------------------------------------------------------------
# llm-backed generation

def _ops_from_hint(hint: str) -> tuple[str, ...]:
    tokens = [t.strip().lower().replace(" ", "_")
              for t in hint.split("+")]
    return tuple(sorted({t for t in tokens if t})) or ("extract",)


def _infer_answer_type(text: str) -> str:
    folded = text.strip().casefold().rstrip(".")
    if folded in ("true", "false", "yes", "no"):
        return "boolean"
    probe = normalize_answer(text, "number")
    if probe.kind == "number" and "taken from text" not in " ".join(probe.notes):
        return "number"
    return "text"


# model requests in flight at once in an LLM-mode build
_MAX_IN_FLIGHT = 8


def _start(pool, gateway, request, fn, *args, **kwargs) -> Future:
    """Run fn(*args, **kwargs) in the pool, or here when its first
    request is already cached: a replay then stays on this thread
    instead of handing cache reads to threads that contend for the GIL."""
    from concurrent.futures import Future

    if not gateway.is_cached(request):
        return pool.submit(fn, *args, **kwargs)
    done: Future = Future()
    try:
        done.set_result(fn(*args, **kwargs))
    except Exception as exc:  # raised when read, in order, like the pool's
        done.set_exception(exc)
    return done


def _label_question(gateway, cand, qa_id, spec, svg, req_a, req_b, model):
    """Answer one question with models A and B, then, if they agree, ask
    for its trace.  Returns (item, provenance row), or (None, review row).

    B is asked only once A has answered, so when both name the same
    model B is a cache hit and costs no budget."""
    answer_a = gateway.chat(req_a).text
    answer_b = gateway.chat(req_b).text
    answer_type = _infer_answer_type(answer_a)
    label = dual_agreement_label(answer_a, answer_b, answer_type)
    if label.status != "accepted":
        return None, {"qa_id": qa_id, "answer_a": answer_a,
                      "answer_b": answer_b}

    trace, violations, trace_hash = generate_dot_answer_llm(
        gateway, cand.question, label.gold, svg, model=model)
    if trace is None or violations:
        return None, {"qa_id": qa_id, "answer_a": label.gold, "answer_b": "",
                      "violations": [v.code for v in violations]}
    if trace.final != label.gold:
        return None, {"qa_id": qa_id, "answer_a": label.gold,
                      "answer_b": trace.final}

    item = QAItem(
        qa_id=qa_id,
        chart_id=spec.chart_id,
        family=cand.family,
        ops=_ops_from_hint(cand.op_hint),
        question=cand.question,
        answer_type=answer_type,
        answer=label.gold,
        trace=trace,
    )
    return item, {
        "qa_id": qa_id,
        "model": model,
        "question_request": cand.request_hash,
        "answer_request_a": req_a.request_hash,
        "answer_request_b": req_b.request_hash,
        "trace_request": trace_hash,
    }


def _build_llm_items(charts, args):
    """Ask for every chart's questions at once, then label each accepted
    question on its own chain, up to _MAX_IN_FLIGHT requests at a time.
    Results are read back in chart, family and question order, so the
    output never depends on the order in which replies arrive."""
    # the thread pool loads only on this path, not with every command
    from concurrent.futures import ThreadPoolExecutor

    gateway = Gateway(
        endpoint=args.endpoint,
        cache_dir=args.cache or (Path(args.out) / "cache"),
        budget=args.budget,
    )
    model = args.model
    model_b = args.model_b or model
    items: list[QAItem] = []
    review_rows: list[dict] = []
    provenance: list[dict] = []

    pool = ThreadPoolExecutor(max_workers=_MAX_IN_FLIGHT)
    try:
        asked = iter([
            _start(pool, gateway,
                   question_request(family, svg, model, args.per_chart),
                   generate_questions_llm, gateway, spec, svg, geom, family,
                   model=model, n_questions=args.per_chart)
            for spec, svg, geom in charts for family in FAMILY_NAMES])
        chains: list[Future] = []
        for spec, svg, geom in charts:
            per_family: dict[str, int] = {}
            taken: set[str] = set()
            for family in FAMILY_NAMES:
                try:
                    accepted, rejected = next(asked).result()
                except PerceptQAError as exc:
                    if isinstance(exc, TransportError):
                        raise
                    print(f"note: {family}/{spec.chart_id}: {exc}",
                          file=sys.stderr)
                    continue
                for question, reason in rejected:
                    print(f"note: rejected {family} question on "
                          f"{spec.chart_id}: {reason}", file=sys.stderr)
                for cand in accepted:
                    qkey = " ".join(cand.question.split()).casefold()
                    if qkey in taken:
                        print(f"note: dropped duplicate question on "
                              f"{spec.chart_id}: {cand.question!r}",
                              file=sys.stderr)
                        continue
                    taken.add(qkey)
                    seq = per_family.get(family, 0) + 1
                    per_family[family] = seq
                    qa_id = f"{spec.chart_id}-{family}-llm-{seq:03d}"
                    req_a = make_request(
                        "infer_default", {"question": cand.question},
                        model=model, image_svg=svg, temperature=0.0)
                    req_b = make_request(
                        "infer_default", {"question": cand.question},
                        model=model_b, image_svg=svg, temperature=0.0)
                    chains.append(_start(
                        pool, gateway, req_a, _label_question, gateway, cand,
                        qa_id, spec, svg, req_a, req_b, model))

        for chain in chains:
            item, row = chain.result()
            if item is None:
                review_rows.append(row)
            else:
                items.append(item)
                provenance.append(row)
    finally:
        # after a failure, chains not yet started never send a request
        pool.shutdown(cancel_futures=True)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "provenance.jsonl", "w", encoding="utf-8") as fh:
        for row in provenance:
            fh.write(json.dumps(row) + "\n")
    return items, review_rows


# ---------------------------------------------------------------------------
# evaluation

def _read_jsonl(path: Path, what: str):
    """Yield (line number, row) for every non-blank line of a JSONL file;
    a missing file or a line that is not a JSON object is a ConfigError."""
    if not path.is_file():
        raise ConfigError(f"{what} file {path} does not exist")
    try:
        lines = path.read_text("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}")
    for n, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{n}: not valid JSON: {exc}")
        if not isinstance(row, dict):
            raise ConfigError(f"{path}:{n}: expected a JSON object")
        yield n, row


def _read_predictions(path: Path) -> dict:
    preds: dict[str, str] = {}
    for n, row in _read_jsonl(path, "predictions"):
        if "qa_id" not in row or "prediction" not in row:
            raise ConfigError(
                f"{path}:{n}: each row needs qa_id and prediction keys")
        qa_id = str(row["qa_id"])
        if qa_id in preds:
            raise ConfigError(f"{path}:{n}: repeats qa_id {qa_id!r}")
        preds[qa_id] = str(row["prediction"])
    return preds


def cmd_evaluate(args) -> int:
    dataset = load_dataset(args.dataset)
    preds = _read_predictions(Path(args.predictions))
    id_set = {item.qa_id for item in dataset.items}
    stray = sorted(set(preds) - id_set)
    for qa_id in stray[:20]:
        print(f"note: prediction for unknown qa_id {qa_id}", file=sys.stderr)
    if len(stray) > 20:
        print(f"note: ...and {len(stray) - 20} more unknown qa_ids",
              file=sys.stderr)
    missing = sum(1 for item in dataset.items if item.qa_id not in preds)
    if missing:
        print(f"note: {missing} items have no prediction; scoring them 0",
              file=sys.stderr)

    scored = []
    with open(args.out, "w", encoding="utf-8") as fh:
        for item in sorted(dataset.items, key=lambda i: i.qa_id):
            outcome = score_item(preds.get(item.qa_id, ""), item, args.mode)
            scored.append((item.family, outcome))
            row = {"family": item.family}
            row.update(outcome_to_dict(outcome))
            fh.write(json.dumps(row) + "\n")

    report = aggregate(scored, list(FAMILIES))
    report_path = Path(args.report) if args.report else None
    if report_path:
        report_path.write_text(report_to_json(report), encoding="utf-8")
    print(format_report_table(report))
    return 0


def _outcomes_from_file(path: Path):
    scored = []
    for n, row in _read_jsonl(path, "outcomes"):
        try:
            outcome = EvalOutcome(
                qa_id=row["qa_id"],
                metric=row["metric"],
                score=row["score"],
                passed=row["passed"],
                pred_canonical=row["pred"],
                gold_canonical=row["gold"],
                format_violations=tuple(row.get("violations", ())),
            )
            scored.append((row["family"], outcome))
        except KeyError as exc:
            raise ConfigError(f"{path}:{n}: missing key {exc}")
    if not scored:
        raise ConfigError(f"{path} holds no outcomes")
    return scored


def cmd_report(args) -> int:
    scored = _outcomes_from_file(Path(args.outcomes))
    report = aggregate(scored, list(FAMILIES))
    if args.json:
        Path(args.json).write_text(report_to_json(report), encoding="utf-8")
    print(format_report_table(report))
    return 0


def cmd_label(args) -> int:
    path = Path(args.pairs)
    accepted_rows = []
    review_rows = []
    for n, row in _read_jsonl(path, "pairs"):
        try:
            qa_id = row["qa_id"]
            answer_a = row["answer_a"]
            answer_b = row["answer_b"]
        except KeyError as exc:
            raise ConfigError(f"{path}:{n}: missing key {exc}")
        answer_type = row.get("answer_type") or _infer_answer_type(answer_a)
        label = dual_agreement_label(answer_a, answer_b, answer_type)
        if label.status == "accepted":
            accepted_rows.append({"qa_id": qa_id, "gold": label.gold})
        else:
            review_rows.append({
                "qa_id": qa_id, "answer_a": answer_a, "answer_b": answer_b})
    with open(args.accepted, "w", encoding="utf-8") as fh:
        for row in accepted_rows:
            fh.write(json.dumps(row) + "\n")
    with open(args.review, "w", encoding="utf-8") as fh:
        for row in review_rows:
            fh.write(json.dumps(row) + "\n")
    print(f"accepted {len(accepted_rows)}, "
          f"queued {len(review_rows)} for review")
    return 0


# ---------------------------------------------------------------------------
# wiring

def _add_gen_options(p, needs_charts: bool):
    p.add_argument("--seed", type=int, default=0)
    if needs_charts:
        p.add_argument("--charts", type=int, default=None,
                       help="number of charts to generate")
    else:
        p.set_defaults(charts=None)
    p.add_argument("--per-chart", dest="per_chart", type=int, default=12,
                   help="questions per chart")
    p.add_argument("--weights", type=_parse_weights, default=None,
                   help="family weights as four comma-separated numbers "
                        "(position,length,pattern,extract)")
    p.add_argument("--holdout", type=float, default=0.1,
                   help="fraction of charts held out as the test split")
    p.add_argument("--mode", choices=("synthetic", "llm"),
                   default="synthetic")
    p.add_argument("--endpoint", default=None,
                   help="chat-completions endpoint URL (llm mode)")
    p.add_argument("--model", default=None, help="model name (llm mode)")
    p.add_argument("--model-b", dest="model_b", default=None,
                   help="second labeling model (defaults to --model)")
    p.add_argument("--budget", type=int, default=None,
                   help="maximum network requests for this run")
    p.add_argument("--cache", default=None,
                   help="response cache directory (default: OUT/cache)")
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="perceptqa",
                     description="chart question dataset forge and scorer")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-charts", help="generate seeded charts")
    _add_gen_options(p, needs_charts=True)
    p.set_defaults(func=cmd_gen_charts)

    p = sub.add_parser("gen-qa",
                       help="generate questions for charts already on disk")
    _add_gen_options(p, needs_charts=False)
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("build-dataset",
                       help="generate charts and questions in one run")
    _add_gen_options(p, needs_charts=True)
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("evaluate", help="score a predictions file")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--predictions", required=True,
                   help="JSONL with qa_id and prediction per row")
    p.add_argument("--mode", choices=("dot", "short"), default="short",
                   help="dot scores full reasoning traces, short scores "
                        "bare answers")
    p.add_argument("--out", required=True, help="per-item outcomes JSONL")
    p.add_argument("--report", default=None, help="aggregate report JSON")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="re-render a report from outcomes")
    p.add_argument("--outcomes", required=True)
    p.add_argument("--json", default=None, help="also write report JSON here")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("label", help="dual-answer agreement labeling")
    p.add_argument("--pairs", required=True,
                   help="JSONL with qa_id, answer_a, answer_b per row")
    p.add_argument("--accepted", required=True, help="accepted labels JSONL")
    p.add_argument("--review", required=True, help="review queue JSONL")
    p.set_defaults(func=cmd_label)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except TransportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PerceptQAError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
