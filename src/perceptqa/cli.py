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
from contextlib import ExitStack
from dataclasses import replace
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .charts import sample_chart_spec
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
    GenConfig,
    QAItem,
    _normalize_question,
    generate_items,
    stable_seed,
)
from .queries import ANSWER_TYPES, FAMILIES
from .reasoning import load_lexicon
from .render import render_chart
from .store import (
    CHART_DIR,
    MANIFEST_NAME,
    QA_DIR,
    REVIEW_NAME,
    AtomicFile,
    DatasetReader,
    _atomic_write,
    _jsonl_line,
    load_dataset,  # not called here: perfbench/tracer.py wraps cli.load_dataset
    make_dir,
    read_chart_file,
    read_jsonl,
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


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, not {text!r}")
    return int(text)


def _parse_weights(text: str) -> tuple[tuple[str, float], ...]:
    parts = text.split(",")
    if len(parts) != len(FAMILIES):
        raise ConfigError(
            f"--weights needs {len(FAMILIES)} comma-separated numbers "
            f"({', '.join(FAMILIES)}), got {len(parts)}")
    try:
        weights = tuple(zip(FAMILIES, map(float, parts)))
    except ValueError as exc:
        raise ConfigError(f"--weights: {exc}")
    GenConfig(family_weights=weights).validate()
    return weights


def _config_dict(args) -> dict:
    # the endpoint is excluded on purpose: which host served the model
    # must not change the identity of the dataset it produced
    weights = dict(args.weights or DEFAULT_FAMILY_WEIGHTS)
    return {
        "seed": args.seed,
        "charts": args.charts,
        "per_chart": args.per_chart,
        "weights": {k: weights[k] for k in FAMILIES},
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
    make_dir(out)
    text = json.dumps(record, indent=2) + "\n"
    _atomic_write(out / "run.json", text.encode("utf-8"))


def _sample_spec(seed: int, index: int):
    return sample_chart_spec(stable_seed(seed, "chart", index))


def _validate_gen_args(args) -> None:
    if not 0 <= args.holdout < 1:
        raise ConfigError("--holdout must lie in [0, 1)")
    if args.mode == "llm":
        if not args.endpoint:
            raise ConfigError("--mode llm requires --endpoint")
        if not args.model:
            raise ConfigError("--mode llm requires --model")


def _check_out(out: Path, specs) -> None:
    """Refuse, before anything is written, chart ids that streaming
    cannot write in the order the family files keep, and any file that
    the dataset's manifest would not list: under out's chart directory
    any but the spec, SVG and geometry files of specs, and under its qa/
    directory any but the family files.  Rows are appended chart by
    chart, which is qa_id order unless one chart id extends another with
    "-" (or a character sorting before it): the rows of "a-b" sort
    before those of "a"."""
    ids = sorted(spec.chart_id for spec in specs)
    for a, b in zip(ids, ids[1:]):
        if a == b:
            raise ConfigError(f"duplicate chart_id {a!r}")
        if b.startswith(a) and b[len(a)] <= "-":
            raise ConfigError(
                f"chart id {b!r} extends chart id {a!r} with {b[len(a)]!r}, "
                f"so their question ids would not sort in chart order; "
                f"rename one of them")
    allowed = {
        CHART_DIR: ({f"{chart_id}{ext}" for chart_id in ids
                     for ext in (".json", ".svg", ".geom.json")},
                    "the spec, svg or geometry file of a chart"),
        QA_DIR: ({f"{fam}.jsonl" for fam in FAMILIES}, "a family file"),
    }
    for sub, (names, what) in allowed.items():
        sub_dir = out / sub
        if sub_dir.is_dir():
            stray = sorted(path.name for path in sub_dir.iterdir()
                           if path.name not in names)
            if stray:
                raise ConfigError(f"{sub_dir / stray[0]}: not {what} "
                                  f"this run writes")


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
    out = Path(args.out)
    specs = [_sample_spec(args.seed, i) for i in range(args.charts)]
    _check_out(out, specs)
    chart_dir = out / CHART_DIR
    make_dir(chart_dir)
    for spec in specs:
        write_chart_files(out, spec, *render_chart(spec))
    _write_run_record(out, "gen-charts",
                      {"seed": args.seed, "charts": args.charts})
    print(f"wrote {args.charts} charts under {chart_dir}")
    return 0


def _read_specs(out: Path) -> list:
    """The chart specs under out's chart directory, in file name order."""
    chart_dir = out / CHART_DIR
    if not chart_dir.is_dir():
        raise ConfigError(f"no charts/ directory under {out}; "
                          f"run gen-charts first")
    names = sorted(path.name for path in chart_dir.iterdir())
    specs = [read_chart_file(out, f"{CHART_DIR}/{name}") for name in names
             if name.endswith(".json") and not name.endswith(".geom.json")]
    if not specs:
        raise ConfigError(f"no chart files under {chart_dir}")
    return specs


def cmd_build_dataset(args) -> int:
    """gen-qa and build-dataset: phrase questions for chart specs read
    from --out (gen-qa) or sampled here (build-dataset), then write the
    dataset.  Every spec is read or sampled first; then each chart in
    chart_id order is rendered, given its questions and written before
    the next, except that an LLM build holds every chart while it sends
    all its question requests at once."""
    _validate_gen_args(args)
    out = Path(args.out)
    if args.command == "gen-qa":
        specs = _read_specs(out)
        args.charts = len(specs)
    else:
        specs = [_sample_spec(args.seed, i) for i in range(args.charts)]
    _check_out(out, specs)
    test_ids = ()
    if args.holdout:
        _, test_ids = split_holdout([spec.chart_id for spec in specs],
                                    seed=args.seed, fraction=args.holdout)

    shortfall = 0
    if args.mode == "llm":
        # asked in the order the specs were drawn, which the review
        # queue's row order follows; written in chart_id order
        charts = [(spec, *render_chart(spec)) for spec in specs]
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
        charts = ((spec, *render_chart(spec)) for spec in specs)
        gen_config = GenConfig(
            per_chart=args.per_chart,
            family_weights=args.weights or DEFAULT_FAMILY_WEIGHTS,
            seed=args.seed)
        # the planner's running family counts, carried from chart to chart
        planned = {f: 0 for f in FAMILIES}

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
    summary = " ".join(f"{fam}={manifest.counts[fam]}" for fam in FAMILIES)
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
            for spec, svg, geom in charts for family in FAMILIES])
        chains: list[Future] = []
        for spec, svg, geom in charts:
            per_family: dict[str, int] = {}
            taken: set[str] = set()
            for family in FAMILIES:
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
                    qkey = _normalize_question(cand.question)
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
    make_dir(out)
    _atomic_write(out / "provenance.jsonl",
                  b"".join(map(_jsonl_line, provenance)))
    return items, review_rows


# ---------------------------------------------------------------------------
# evaluation

def _is_str(value) -> bool:
    return type(value) is str


# the fields of each input file's rows: name -> (required, what its
# value must be, a test of the value); the tests compare type(), since
# isinstance() counts a JSON true or false as a number
_STR = (True, "a string", _is_str)
_ROWS = {
    "predictions": {
        "qa_id": _STR,
        "prediction": (True, "a string or a number",
                       lambda v: type(v) in (str, int, float)),
    },
    "outcomes": {
        "family": (True, f"one of {', '.join(FAMILIES)}",
                   FAMILIES.__contains__),
        "qa_id": _STR, "metric": _STR,
        "score": (True, "a number in [0, 1]",
                  lambda v: type(v) in (int, float) and 0 <= v <= 1),
        "passed": (True, "a boolean", lambda v: type(v) is bool),
        "pred": _STR, "gold": _STR,
        "violations": (False, "an array of strings",
                       lambda v: type(v) is list and all(map(_is_str, v))),
    },
    "pairs": {
        "qa_id": _STR, "answer_a": _STR, "answer_b": _STR,
        "answer_type": (False, f"one of {', '.join(ANSWER_TYPES)}",
                        ANSWER_TYPES.__contains__),
    },
}


# how an error names a field's value: a boolean or a container by its
# kind, anything else by its JSON text
_KINDS = {bool: "a boolean", list: "an array", dict: "an object"}


def _read_rows(path: Path, kind: str):
    """Yield each row of a JSONL input file of the given kind, checked
    against its fields in _ROWS; a qa_id may appear only once."""
    fields = _ROWS[kind]
    required = [name for name, (needed, _, _) in fields.items() if needed]
    needs = f"each row needs {', '.join(required[:-1])} and {required[-1]}"
    seen: set[str] = set()

    def check(row: dict) -> dict:
        for name, (needed, what, ok) in fields.items():
            if name not in row:
                if needed:
                    raise ValueError(needs)
            elif not ok(value := row[name]):
                shown = _KINDS.get(type(value)) or json.dumps(value)
                raise ValueError(f"{name} must be {what}, not {shown}")
        qa_id = row["qa_id"]
        if qa_id in seen:
            raise ValueError(f"repeats qa_id {qa_id!r}")
        seen.add(qa_id)
        return row

    return read_jsonl(path, check)


def _read_predictions(path: Path) -> dict:
    """qa_id -> prediction text; a JSON number is read as its text."""
    return {row["qa_id"]: str(row["prediction"])
            for row in _read_rows(path, "predictions")}


def _check_paths(outputs: dict, inputs: dict) -> None:
    """Refuse, before anything is read, an output path that is another
    output of the same command, or one of its inputs, or lies under one.
    Both map a name to a path; an output is named by its option, and is
    None when not given.  Paths are compared resolved, so a symlink or
    another spelling of the same path is caught too."""
    taken = {Path(path).resolve(): what for what, path in inputs.items()}
    for option, path in outputs.items():
        if path is None:
            continue
        resolved = Path(path).resolve()
        clash = next((what for other, what in taken.items()
                      if resolved.is_relative_to(other)), None)
        if clash:
            raise ConfigError(f"{path}: {option} is {clash}")
        taken[resolved] = f"the {option} file"


# items scored per block in evaluate: the block is pulled from the merged
# family files, then scored and its rows written in one call.  On seed-7
# workloads, blocks of 32 read 0.93-0.95x the wall of scoring item by
# item; 64 read the same as 32, and 256 read slower with +1 MB peak RSS.
_SCORE_BLOCK = 32


def _scored(items, preds: dict, mode: str, out, tally: dict):
    """Score the items against their predictions, popped from preds, in
    blocks of _SCORE_BLOCK: read a block from items, score it and write
    its outcome rows to out; yield (family, outcome) for aggregate.
    tally["missing"] counts the items that had no prediction."""
    items = iter(items)
    while block := list(islice(items, _SCORE_BLOCK)):
        scored = []
        for item in block:
            pred = preds.pop(item.qa_id, None)
            if pred is None:
                tally["missing"] += 1
                pred = ""
            scored.append((item.family, score_item(pred, item, mode)))
        out.write(b"".join(
            _jsonl_line({"family": family, **outcome_to_dict(outcome)})
            for family, outcome in scored))
        yield from scored


def cmd_evaluate(args) -> int:
    """Score a predictions file in blocks of items.  The family files are
    merged in qa_id order, each block is scored and its outcomes written
    as it is read, and the outcomes and report land only once every
    dataset file has passed its checks."""
    dataset = Path(args.dataset)
    _check_paths(
        {"--out": args.out, "--report": args.report},
        {"the --predictions file": args.predictions,
         **{f"the dataset's {name}": dataset / name
            for name in (MANIFEST_NAME, REVIEW_NAME)},
         **{f"under the dataset's {sub}/": dataset / sub
            for sub in (CHART_DIR, QA_DIR)}})
    reader = DatasetReader(dataset)
    # scoring reads no chart file and the reader takes the chart ids from
    # the manifest, so the chart files are only checked against their
    # digests, not parsed
    reader.check_charts()
    preds = _read_predictions(Path(args.predictions))
    tally = {"missing": 0}
    with ExitStack() as stack:
        # both outputs are opened before scoring, so a path that cannot
        # be written fails before any work
        out = stack.enter_context(AtomicFile(Path(args.out)))
        report_file = (stack.enter_context(AtomicFile(Path(args.report)))
                       if args.report else None)
        items = heapq.merge(*map(reader.items, FAMILIES),
                            key=attrgetter("qa_id"))
        report = aggregate(_scored(items, preds, args.mode, out, tally),
                           list(FAMILIES))
        for _ in reader.review_rows():
            pass
        if report_file is not None:
            report_file.write(report_to_json(report).encode("utf-8"))

    stray = sorted(preds)  # predictions no item took
    for qa_id in stray[:20]:
        print(f"note: prediction for unknown qa_id {qa_id}", file=sys.stderr)
    if len(stray) > 20:
        print(f"note: ...and {len(stray) - 20} more unknown qa_ids",
              file=sys.stderr)
    if tally["missing"]:
        print(f"note: {tally['missing']} items have no prediction; "
              f"scoring them 0", file=sys.stderr)
    print(format_report_table(report))
    return 0


def _outcomes_from_file(path: Path):
    """Yield (family, EvalOutcome) for each row of an outcomes file."""
    for row in _read_rows(path, "outcomes"):
        yield row["family"], EvalOutcome(
            row["qa_id"], row["metric"], row["score"], row["passed"],
            row["pred"], row["gold"], tuple(row.get("violations", ())))


def cmd_report(args) -> int:
    _check_paths({"--json": args.json},
                 {"the --outcomes file": args.outcomes})
    report = aggregate(_outcomes_from_file(Path(args.outcomes)),
                       list(FAMILIES))
    if args.json:
        _atomic_write(Path(args.json), report_to_json(report).encode("utf-8"))
    print(format_report_table(report))
    return 0


def cmd_label(args) -> int:
    _check_paths({"--accepted": args.accepted, "--review": args.review},
                 {"the --pairs file": args.pairs})
    accepted_rows = []
    review_rows = []
    for row in _read_rows(Path(args.pairs), "pairs"):
        qa_id, answer_a, answer_b = (row["qa_id"], row["answer_a"],
                                     row["answer_b"])
        answer_type = row.get("answer_type") or _infer_answer_type(answer_a)
        label = dual_agreement_label(answer_a, answer_b, answer_type)
        if label.status == "accepted":
            accepted_rows.append({"qa_id": qa_id, "gold": label.gold})
        else:
            review_rows.append({
                "qa_id": qa_id, "answer_a": answer_a, "answer_b": answer_b})
    # both files are opened before either lands, so a path that cannot
    # be written leaves neither behind
    with AtomicFile(Path(args.accepted)) as accepted, \
            AtomicFile(Path(args.review)) as review:
        accepted.write(b"".join(map(_jsonl_line, accepted_rows)))
        review.write(b"".join(map(_jsonl_line, review_rows)))
    print(f"accepted {len(accepted_rows)}, "
          f"queued {len(review_rows)} for review")
    return 0


# ---------------------------------------------------------------------------
# wiring

def _add_chart_options(p, needs_charts: bool):
    p.add_argument("--seed", type=int, default=0)
    if needs_charts:
        p.add_argument("--charts", type=_positive_int, required=True,
                       help="number of charts to generate")
    else:
        p.set_defaults(charts=None)
    p.add_argument("--out", required=True, help="output directory")


def _add_qa_options(p):
    p.add_argument("--per-chart", dest="per_chart", type=_positive_int,
                   default=12, help="questions per chart")
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
