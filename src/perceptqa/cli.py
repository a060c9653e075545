"""Command line entry point.

Subcommands cover the full pipeline: chart generation, question
generation, dataset assembly, scoring, reporting, and dual-answer
labeling.  Exit codes: 0 success, 1 bad input or validation failure,
2 endpoint/transport failure, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import sys
from dataclasses import replace
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .charts import loads_chart, sample_chart_spec
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
from .render import loads_geom, render_chart
from .store import (
    CHART_DIR,
    AtomicFile,
    DatasetReader,
    _atomic_write,
    _decode,
    _jsonl_line,
    _parse,
    load_dataset,  # not called here: perfbench/tracer.py wraps cli.load_dataset
    split_holdout,
    write_chart_files,
    write_dataset,
)

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
    text = json.dumps(record, indent=2) + "\n"
    _atomic_write(out / "run.json", text.encode("utf-8"))


def _write_jsonl(path: Path, rows) -> None:
    _atomic_write(path, b"".join(map(_jsonl_line, rows)))


def _sample_spec(seed: int, index: int):
    return sample_chart_spec(stable_seed(seed, "chart", index))


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


def _check_chart_ids(specs) -> None:
    """Reject chart ids that streaming cannot write in the order the
    family files keep.  Rows are appended chart by chart, which is qa_id
    order unless one chart id extends another with "-" (or a character
    sorting before it): the rows of "a-b" sort before those of "a"."""
    ids = sorted(spec.chart_id for spec in specs)
    for a, b in zip(ids, ids[1:]):
        if a == b:
            raise ConfigError(f"duplicate chart_id {a!r}")
        if b.startswith(a) and b[len(a)] <= "-":
            raise ConfigError(
                f"chart id {b!r} extends chart id {a!r} with {b[len(a)]!r}, "
                f"so their question ids would not sort in chart order; "
                f"rename one of them")


def _with_split(charts, items_of, held):
    """Yield (spec, svg, geometry, items) per chart, with items_of(spec,
    geometry) moved to the test split when the chart is held out."""
    for spec, svg, geom in charts:
        items = items_of(spec, geom)
        if spec.chart_id in held:
            # items are built as train items; only held-out ones are copied
            items = [replace(item, split="test") for item in items]
        yield spec, svg, geom, items


# ---------------------------------------------------------------------------
# gen commands

def cmd_gen_charts(args) -> int:
    if args.charts is None:
        raise ConfigError("--charts is required")
    if args.charts <= 0:
        raise ConfigError("--charts must be positive")
    out = Path(args.out)
    chart_dir = out / CHART_DIR
    chart_dir.mkdir(parents=True, exist_ok=True)
    for i in range(args.charts):
        spec = _sample_spec(args.seed, i)
        svg, geom = render_chart(spec)
        write_chart_files(out, spec, svg, geom)
    _write_run_record(out, "gen-charts",
                      {"seed": args.seed, "charts": args.charts})
    print(f"wrote {args.charts} charts under {chart_dir}")
    return 0


def _read_specs(chart_dir: Path) -> list:
    """The chart specs under chart_dir, in file name order; each must
    have its SVG and geometry file beside it."""
    if not chart_dir.is_dir():
        raise ConfigError(f"no charts/ directory under {chart_dir.parent}; "
                          f"run gen-charts first")
    specs = []
    for path in sorted(chart_dir.glob("*.json")):
        if path.name.endswith(".geom.json"):
            continue
        spec = _parse(loads_chart, _decode(path.read_bytes(), path), path)
        for ext in (".svg", ".geom.json"):
            if not (chart_dir / f"{spec.chart_id}{ext}").is_file():
                raise ConfigError(f"chart {spec.chart_id} is missing its "
                                  f"svg or geometry file")
        specs.append(spec)
    if not specs:
        raise ConfigError(f"no chart files under {chart_dir}")
    return specs


def cmd_build_dataset(args) -> int:
    """gen-qa and build-dataset: phrase questions for charts read from
    --out (gen-qa) or sampled here (build-dataset), then write the
    dataset.  Every spec is read or sampled first; then each chart in
    chart_id order is rendered (or read), given its questions and
    written before the next, except that an LLM build holds every chart
    while it sends all its question requests at once."""
    _validate_gen_args(args)
    out = Path(args.out)
    if args.command == "gen-qa":
        chart_dir = out / CHART_DIR
        specs = _read_specs(chart_dir)
        args.charts = len(specs)

        def draw(spec):  # the SVG and geometry stored beside the spec
            svg_path = chart_dir / f"{spec.chart_id}.svg"
            geom_path = chart_dir / f"{spec.chart_id}.geom.json"
            geom_text = _decode(geom_path.read_bytes(), geom_path)
            return (_decode(svg_path.read_bytes(), svg_path),
                    _parse(loads_geom, geom_text, geom_path))
    else:
        if args.charts is None:
            raise ConfigError("--charts is required")
        specs = [_sample_spec(args.seed, i) for i in range(args.charts)]
        draw = render_chart
    _check_chart_ids(specs)
    test_ids = ()
    if args.holdout:
        _, test_ids = split_holdout([spec.chart_id for spec in specs],
                                    seed=args.seed, fraction=args.holdout)

    shortfall = 0
    if args.mode == "llm":
        # asked in the order the specs were drawn, which the review
        # queue's row order follows; written in chart_id order
        charts = [(spec, *draw(spec)) for spec in specs]
        items, review_rows = _build_llm_items(charts, args)
        by_chart: dict[str, list[QAItem]] = {}
        for item in items:
            by_chart.setdefault(item.chart_id, []).append(item)
        charts.sort(key=lambda chart: chart[0].chart_id)

        def items_of(spec, geom):
            return by_chart.pop(spec.chart_id, [])
    else:
        review_rows = []
        specs.sort(key=lambda spec: spec.chart_id)
        charts = ((spec, *draw(spec)) for spec in specs)
        gen_config = GenConfig(
            per_chart=args.per_chart,
            family_weights=args.weights or DEFAULT_FAMILY_WEIGHTS,
            seed=args.seed)
        # the planner's running family counts, carried from chart to chart
        planned = {f: 0 for f in FAMILY_NAMES}

        def items_of(spec, geom):
            nonlocal shortfall
            items, stats = generate_items([(spec, geom)], gen_config, planned)
            shortfall += stats.shortfall
            return items

    config = _config_dict(args)
    manifest = write_dataset(
        out,
        dataset_id=f"ds-{_config_digest(config)[:12]}",
        charts=_with_split(charts, items_of, set(test_ids)),
        holdout_chart_ids=test_ids,
        config_digest=_config_digest(config),
        tool_version=__version__,
        template_hashes=verify_templates() if args.mode == "llm" else {},
        review_rows=review_rows,
    )
    if shortfall:
        print(f"note: {shortfall} requested items exceeded "
              f"chart capacity", file=sys.stderr)
    _write_run_record(out, args.command, config, args.endpoint)
    summary = " ".join(f"{fam}={manifest.counts[fam]}" for fam in FAMILY_NAMES)
    print(f"dataset {manifest.dataset_id}: {summary} "
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


# model requests in flight at once in an LLM-mode build; the gateway
# spaces their starts (gateway._POST_GAP_S), so more in flight does not
# mean larger bursts at the endpoint
_MAX_IN_FLIGHT = 16


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
                        model=model, image_svg=svg)
                    req_b = make_request(
                        "infer_default", {"question": cand.question},
                        model=model_b, image_svg=svg)
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
    _write_jsonl(out / "provenance.jsonl", provenance)
    return items, review_rows


# ---------------------------------------------------------------------------
# evaluation

def _read_jsonl(path: Path, what: str):
    """Yield (line number, row) for every non-blank line of a JSONL file,
    read one line at a time; a missing file, or a line that is not UTF-8
    or not a JSON object, is a ConfigError.  A line ends only at a line
    feed: a JSON string may hold U+2028 and the other separators that
    str.splitlines() splits at."""
    if not path.is_file():
        raise ConfigError(f"{what} file {path} does not exist")
    with open(path, "rb") as fh:
        for n, raw in enumerate(fh, start=1):
            if raw.isspace():
                continue
            try:
                row = json.loads(raw.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}:{n}: not UTF-8 text: {exc}")
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


def _scored(items, preds: dict, mode: str, out, tally: dict):
    """Score each item against its prediction, popped from preds, and
    write its outcome row to out; yield (family, outcome) for aggregate.
    tally["missing"] counts the items that had no prediction."""
    for item in items:
        pred = preds.pop(item.qa_id, None)
        if pred is None:
            tally["missing"] += 1
            pred = ""
        outcome = score_item(pred, item, mode)
        row = {"family": item.family}
        row.update(outcome_to_dict(outcome))
        out.write((json.dumps(row) + "\n").encode("utf-8"))
        yield item.family, outcome


def cmd_evaluate(args) -> int:
    """Score a predictions file item by item.  The family files are
    merged in qa_id order, each item is scored and its outcome written as
    it is read, and the outcomes and report land only once every dataset
    file has passed its checks."""
    reader = DatasetReader(args.dataset)
    # chart files are verified and parsed like every listed file; scoring
    # reads none of them, so none is kept
    for _ in reader.charts():
        pass
    preds = _read_predictions(Path(args.predictions))
    tally = {"missing": 0}
    with AtomicFile(Path(args.out)) as out:
        items = heapq.merge(*map(reader.items, FAMILIES),
                            key=attrgetter("qa_id"))
        report = aggregate(_scored(items, preds, args.mode, out, tally),
                           list(FAMILIES))
        for _ in reader.review_rows():
            pass

    stray = sorted(preds)  # predictions no item took
    for qa_id in stray[:20]:
        print(f"note: prediction for unknown qa_id {qa_id}", file=sys.stderr)
    if len(stray) > 20:
        print(f"note: ...and {len(stray) - 20} more unknown qa_ids",
              file=sys.stderr)
    if tally["missing"]:
        print(f"note: {tally['missing']} items have no prediction; "
              f"scoring them 0", file=sys.stderr)
    if args.report:
        _atomic_write(Path(args.report),
                      report_to_json(report).encode("utf-8"))
    print(format_report_table(report))
    return 0


def _outcomes_from_file(path: Path):
    """Yield (family, EvalOutcome) for each row of an outcomes file."""
    n = 0
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
            yield row["family"], outcome
        except KeyError as exc:
            raise ConfigError(f"{path}:{n}: missing key {exc}")
    if not n:
        raise ConfigError(f"{path} holds no outcomes")


def cmd_report(args) -> int:
    report = aggregate(_outcomes_from_file(Path(args.outcomes)),
                       list(FAMILIES))
    if args.json:
        _atomic_write(Path(args.json), report_to_json(report).encode("utf-8"))
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
    _write_jsonl(Path(args.accepted), accepted_rows)
    _write_jsonl(Path(args.review), review_rows)
    print(f"accepted {len(accepted_rows)}, "
          f"queued {len(review_rows)} for review")
    return 0


# ---------------------------------------------------------------------------
# wiring

def _add_chart_options(p, needs_charts: bool):
    p.add_argument("--seed", type=int, default=0)
    if needs_charts:
        p.add_argument("--charts", type=int, default=None,
                       help="number of charts to generate")
    else:
        p.set_defaults(charts=None)
    p.add_argument("--out", required=True, help="output directory")


def _add_qa_options(p):
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


def build_parser() -> _Parser:
    parser = _Parser(prog="perceptqa",
                     description="chart question dataset forge and scorer")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-charts", help="generate seeded charts")
    _add_chart_options(p, needs_charts=True)
    p.set_defaults(func=cmd_gen_charts)

    p = sub.add_parser("gen-qa",
                       help="generate questions for charts already on disk")
    _add_chart_options(p, needs_charts=False)
    _add_qa_options(p)
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("build-dataset",
                       help="generate charts and questions in one run")
    _add_chart_options(p, needs_charts=True)
    _add_qa_options(p)
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
    collecting = gc.isenabled()
    try:
        args = parser.parse_args(argv)
        # A synthetic command allocates no reference cycles
        # (tests/test_cli.py guards this), so the collector's passes would
        # free nothing.  An LLM build keeps it: thread pools, sockets and
        # exceptions held in futures can form cycles.
        if getattr(args, "mode", None) != "llm":
            gc.disable()
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
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
