#!/usr/bin/env python3
"""Benchmark for the perceptqa forge.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it builds nothing and reads the
program from ``src/``.  Each workload is a closed loop with one client:
every ``perceptqa`` command starts after the previous one has finished,
each in a fresh interpreter under its own PYTHONHASHSEED (child.py).  The
loop repeats whole iterations for about S seconds and reports medians.

Workloads (see README.md for why each exists):

* ``sparse-build-score``: ``build-dataset --charts 500 --per-chart 10``
  with the default family weights, then ``evaluate`` in short and dot
  mode on planted predictions (plant.py).
* ``dense-build``: ``build-dataset --charts 120 --per-chart 40
  --weights 1,1,1,1``, then the same two evaluations.
* ``llm-cache``: ``build-dataset --mode llm`` against the stub model
  server (stub_server.py) with a cold cache (record), then with the warm
  cache, ``--budget 0`` and an endpoint nothing listens on (replay), then
  the two evaluations of the recorded dataset.

Every build is re-opened with ``load_dataset(verify=True)`` and its
manifest digest compared with the pinned one (expected.json) on the
default seed, and with the first iteration's otherwise.  Every
evaluation is checked item by item against the planted outcomes.  With
``--trace 1`` each iteration runs twice, untraced and traced (tracer.py);
the two must write the same bytes, and the per-layer metrics come from
the traced pass together with the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A failed check makes the run
exit 1; a checkout without ``src/perceptqa`` makes it exit 2 before
measuring anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

DEFAULT_SEED = 7
RUN_LIMIT_S = 165.0
SETUP_REPEATS = 3
STUB_DELAY_MS = 20
# nothing listens on the discard port, so a replay that tried the
# network would fail instead of quietly re-recording
DEAD_ENDPOINT = "http://127.0.0.1:9/v1/chat/completions"
MODEL_A, MODEL_B = "stub-a", "stub-b"

SIZES = {
    "full": {
        "sparse-build-score": {"charts": 500, "per_chart": 10},
        "dense-build": {"charts": 120, "per_chart": 40, "weights": "1,1,1,1"},
        # its datasets are small, so each evaluation runs three times
        "llm-cache": {"charts": 2, "per_chart": 12, "replays": 3,
                      "eval_repeats": 4},
    },
    "tiny": {
        "sparse-build-score": {"charts": 6, "per_chart": 4},
        "dense-build": {"charts": 3, "per_chart": 12, "weights": "1,1,1,1"},
        "llm-cache": {"charts": 1, "per_chart": 3, "replays": 1,
                      "eval_repeats": 1},
    },
}

# metric names and units come from the spec the benchmark is run by
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class CheckFailed(Exception):
    """A command failed or its output did not match the expectation."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _diff_trees(a: Path, b: Path, ignore=()) -> list[str]:
    ta, tb = _tree(a), _tree(b)
    names = sorted((set(ta) | set(tb)) - set(ignore))
    return [n for n in names if ta.get(n) != tb.get(n)]


def _percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _tail(values: list[float]) -> tuple[float, float]:
    """The highest of a few percentiles that leaves at least ten samples
    beyond it, with its value; the median when there are too few."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (1 - pct / 100.0) >= 10:
            return pct, _percentile(values, pct)
    return 50.0, _percentile(values, 50.0) if values else 0.0


class Stub:
    """The stub model server, in its own process."""

    def __init__(self, delay_ms: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub_server.py"),
             "--delay-ms", str(delay_ms)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.stop()
            raise CheckFailed(f"stub server did not start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def _call(self, path: str, post: bool = False) -> dict:
        request = urllib.request.Request(
            self.url + path, data=b"" if post else None)
        with urllib.request.urlopen(request, timeout=10) as resp:
            return json.loads(resp.read())

    def stats(self) -> dict:
        return self._call("/control/stats")

    def reset(self) -> None:
        self._call("/control/reset", post=True)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Run:
    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced_mode = bool(args.trace)
        self.scale = args.scale
        self.size = SIZES[args.scale][args.workload]
        pinned = json.loads((BENCH_DIR / "expected.json").read_text("utf-8"))
        self.pinned = (pinned[self.workload]
                       if args.scale == "full" and args.seed == DEFAULT_SEED
                       else None)
        self.work = WORK / self.workload
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.step_label = "setup"
        self.samples: dict[str, list[float]] = {}
        self.peak_rss: list[float] = []
        self.setup_parts: dict[str, list[float]] = {}
        self.hash_seeds: list[int] = []
        self.digest: str | None = None
        self.preds: dict | None = None
        self.stub: Stub | None = None
        self.iterations = 0
        self.layer_runs: list[dict] = []
        self._traced: list[dict] = []
        self._walls = {False: 0.0, True: 0.0}
        self._write_stats = Counter()

    # -- running commands -----------------------------------------------------

    def _env(self) -> dict:
        n = len(self.hash_seeds)
        digest = hashlib.sha256(f"{self.seed}:{n}".encode()).digest()
        hash_seed = int.from_bytes(digest[:4], "big")
        self.hash_seeds.append(hash_seed)
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONPATH", "PERCEPTQA_API_KEY")}
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONHASHSEED"] = str(hash_seed)
        return env

    def _remaining(self) -> float:
        return max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))

    def probe(self) -> float:
        """Wall time of a fresh interpreter that imports the program."""
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), "--probe"],
            env=self._env(), cwd=ROOT, capture_output=True, text=True,
            timeout=self._remaining())
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise CheckFailed(f"import probe failed: {proc.stderr[-400:]}")
        return elapsed

    def command(self, label: str, argv: list, traced: bool) -> dict:
        self.attempted += 1
        self.step_label = label
        meta = self.work / "meta"
        meta.mkdir(parents=True, exist_ok=True)
        tag = f"{self.attempted:03d}-{label}-{'traced' if traced else 'plain'}"
        result_path = meta / f"{tag}.result.json"
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH_DIR / "child.py"),
               "--result", str(result_path)]
        if traced:
            cmd += ["--spans", str(meta / f"{tag}.spans.jsonl"),
                    "--run-id", f"{self.workload}/{self.seed}/{tag}"]
        cmd += ["--", *[str(a) for a in argv]]
        log = meta / f"{tag}.log"
        with open(log, "w", encoding="utf-8") as fh:
            proc = subprocess.Popen(cmd, env=self._env(), cwd=ROOT,
                                    stdout=fh, stderr=subprocess.STDOUT)
            try:
                proc.wait(timeout=self._remaining())
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise CheckFailed("timed out")
        tail = log.read_text("utf-8", errors="replace")[-600:]
        if proc.returncode != 0 or not result_path.is_file():
            raise CheckFailed(f"runner exited {proc.returncode}: {tail}")
        result = json.loads(result_path.read_text("utf-8"))
        if result["rc"] != 0:
            raise CheckFailed(f"perceptqa {argv[0]} exited {result['rc']}: "
                              f"{tail}")
        self.peak_rss.append(result["peak_rss_mb"])
        self._walls[traced] += result["wall_s"]
        if traced:
            covered = result["trace"]["main_thread_self_s"]
            if abs(covered - result["wall_s"]) > 0.005 + 0.01 * result["wall_s"]:
                raise CheckFailed(
                    f"self times sum to {covered:.4f} s, command took "
                    f"{result['wall_s']:.4f} s")
            self._traced.append(result)
        return result

    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    # -- checks ---------------------------------------------------------------

    def verify_dataset(self, out: Path, traced: bool):
        from perceptqa.errors import PerceptQAError
        from perceptqa.store import load_dataset
        try:
            dataset = load_dataset(out, verify=True)
        except PerceptQAError as exc:
            raise CheckFailed(f"load_dataset(verify=True): {exc}")
        digest = _sha256(out / "manifest.json")
        if self.pinned and digest != self.pinned["manifest_sha256"]:
            raise CheckFailed(f"manifest sha256 {digest} differs from the "
                              f"pinned {self.pinned['manifest_sha256']}")
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            raise CheckFailed(f"manifest sha256 {digest} differs from the "
                              f"first build's {self.digest}")
        count = sum(dataset.manifest.counts.values())
        if count == 0 or count != len(dataset.items):
            raise CheckFailed(f"{len(dataset.items)} items loaded, manifest "
                              f"counts {count}")
        if traced:
            written = [out / rel for rel in dataset.manifest.file_digests]
            written.append(out / "manifest.json")
            self._write_stats["files"] += len(written)
            self._write_stats["bytes"] += sum(p.stat().st_size for p in written)
        return dataset

    def check_scores(self, dataset, mode: str, outcomes: Path, report: Path):
        plan = self.preds[mode]
        rows = [json.loads(line) for line in
                outcomes.read_text("utf-8").splitlines() if line.strip()]
        got = {row["qa_id"]: row["passed"] for row in rows}
        if set(got) != set(plan["expected"]):
            raise CheckFailed(f"{mode}: outcomes cover {len(got)} items, "
                              f"expected {len(plan['expected'])}")
        wrong = sorted(q for q, passed in got.items()
                       if passed != plan["expected"][q])
        if wrong:
            raise CheckFailed(f"{mode}: {len(wrong)} items scored against "
                              f"their planted outcome, first {wrong[0]}")
        # item by item, so the per-family pass counts match too
        data = json.loads(report.read_text("utf-8"))
        if data["counts"] != dict(Counter(i.family for i in dataset.items)):
            raise CheckFailed(f"{mode}: report counts {data['counts']}")
        if data["violation_counts"] != plan["violations"]:
            raise CheckFailed(f"{mode}: report violations "
                              f"{data['violation_counts']}, planted "
                              f"{plan['violations']}")

    # -- steps ----------------------------------------------------------------

    def plant(self, dataset) -> None:
        """Write the planted predictions; timed as set-up, several times."""
        sys.path.insert(0, str(BENCH_DIR))
        import plant
        preds_dir = self.work / "preds"
        preds_dir.mkdir(parents=True, exist_ok=True)
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            short_rows, short_expected = plant.short_predictions(
                dataset.items, self.seed)
            dot_rows, dot_expected, violations = plant.dot_predictions(
                dataset.items, self.seed)
            plans = {
                "short": {"rows": short_rows, "expected": short_expected,
                          "violations": {}},
                "dot": {"rows": dot_rows, "expected": dot_expected,
                        "violations": dict(sorted(violations.items()))},
            }
            for mode, plan in plans.items():
                plan["path"] = preds_dir / f"{mode}.jsonl"
                with open(plan["path"], "w", encoding="utf-8") as fh:
                    for row in plan.pop("rows"):
                        fh.write(json.dumps(row) + "\n")
            self.setup_parts.setdefault("plant", []).append(
                time.perf_counter() - start)
        self.preds = plans

    def evaluate(self, base: Path, dataset, traced: bool) -> None:
        out = base / "ds"
        for mode in ("short", "dot") * self.size.get("eval_repeats", 1):
            outcomes = base / f"{mode}.outcomes.jsonl"
            report = base / f"{mode}.report.json"
            result = self.command(f"eval-{mode}", [
                "evaluate", "--dataset", out,
                "--predictions", self.preds[mode]["path"], "--mode", mode,
                "--out", outcomes, "--report", report], traced)
            self.check_scores(dataset, mode, outcomes, report)
            if not traced:
                self.sample(f"eval_{mode}_items_per_s",
                            len(dataset.items) / result["wall_s"])

    def build_args(self, out: Path) -> list:
        argv = ["build-dataset", "--seed", self.seed,
                "--charts", self.size["charts"],
                "--per-chart", self.size["per_chart"], "--out", out]
        if "weights" in self.size:
            argv += ["--weights", self.size["weights"]]
        return argv

    def synthetic_build(self, base: Path, traced: bool):
        out = base / "ds"
        shutil.rmtree(out, ignore_errors=True)
        result = self.command("build", self.build_args(out), traced)
        dataset = self.verify_dataset(out, traced)
        if not traced:
            self.sample("build_items_per_s",
                        len(dataset.items) / result["wall_s"])
        return dataset

    def llm_args(self, base: Path) -> list:
        return ["--mode", "llm", "--model", MODEL_A, "--model-b", MODEL_B,
                "--cache", base / "cache"]

    def llm_record(self, base: Path, traced: bool):
        out = base / "ds"
        for path in (base / "cache", out):
            shutil.rmtree(path, ignore_errors=True)
        self.stub.reset()
        result = self.command(
            "record", self.build_args(out) + self.llm_args(base) + [
                "--endpoint", f"{self.stub.url}/v1/chat/completions"], traced)
        dataset = self.verify_dataset(out, traced)
        stats = self.stub.stats()
        review = stats["disagree"] + stats["invalid_traces"]
        expected = {"items": stats["questions"] - review,
                    "review_rows": review}
        got = {"items": len(dataset.items),
               "review_rows": len(dataset.review_rows)}
        if got != expected:
            raise CheckFailed(f"record wrote {got}, the stub planted "
                              f"{expected}")
        if self.pinned and got != {k: self.pinned[k] for k in got}:
            raise CheckFailed(f"record wrote {got}, pinned "
                              f"{self.pinned['items']} items and "
                              f"{self.pinned['review_rows']} review rows")
        if not stats["failed_first"] or not stats["disagree"] \
                or not stats["invalid_traces"]:
            raise CheckFailed(f"the stub planted too little: {stats}")
        if not traced:
            rate = len(dataset.items) / result["wall_s"]
            self.sample("build_items_per_s", rate)
            self.sample("llm.record_items_per_s", rate)
        return dataset

    def llm_replays(self, base: Path, dataset, traced: bool) -> None:
        out, replay = base / "ds", base / "replay"
        for _ in range(self.size["replays"]):
            shutil.rmtree(replay, ignore_errors=True)
            before = self.stub.stats()["requests"]
            result = self.command(
                "replay", self.build_args(replay) + self.llm_args(base) + [
                    "--budget", 0, "--endpoint", DEAD_ENDPOINT], traced)
            sent = self.stub.stats()["requests"] - before
            if sent:
                raise CheckFailed(f"replay sent {sent} requests")
            changed = _diff_trees(out, replay, ignore=("run.json",))
            if changed:
                raise CheckFailed(f"replay differs from record in {changed[:3]}")
            if not traced:
                self.sample("llm.replay_items_per_s",
                            len(dataset.items) / result["wall_s"])

    def reuse(self, base: Path, dataset, traced: bool) -> None:
        """Everything an iteration does with a dataset once it is built."""
        if self.workload == "llm-cache":
            self.llm_replays(base, dataset, traced)
        if self.preds is None:
            self.plant(dataset)
        self.evaluate(base, dataset, traced)

    # -- the run --------------------------------------------------------------

    def setup(self) -> None:
        self.setup_parts["probe"] = [self.probe() for _ in range(SETUP_REPEATS)]
        if self.workload == "llm-cache":
            delay = STUB_DELAY_MS if self.scale == "full" else 1
            starts = []
            for _ in range(SETUP_REPEATS):
                if self.stub:
                    self.stub.stop()
                start = time.perf_counter()
                self.stub = Stub(delay)
                self.stub.stats()
                starts.append(time.perf_counter() - start)
            self.setup_parts["stub"] = starts

    def iteration(self, base: Path, traced: bool, dataset=None):
        """Build (unless given a dataset) and reuse; returns the dataset
        and the time the reuse part took."""
        if dataset is None:
            build = (self.llm_record if self.workload == "llm-cache"
                     else self.synthetic_build)
            dataset = build(base, traced)
        start = time.perf_counter()
        self.reuse(base, dataset, traced)
        return dataset, time.perf_counter() - start

    def traced_iteration(self) -> None:
        plain, traced = self.work / "plain", self.work / "traced"
        self._traced, self._walls = [], {False: 0.0, True: 0.0}
        self._write_stats = Counter()
        self.iteration(plain, traced=False)
        self.iteration(traced, traced=True)
        self.attempted += 1
        self.step_label = "traced-output"
        changed = _diff_trees(plain, traced)
        if changed:
            raise CheckFailed(f"traced run wrote different bytes in "
                              f"{changed[:3]}")
        self.layer_runs.append(self.layer_metrics(
            self._walls[True] / self._walls[False] - 1.0))

    def measure(self) -> None:
        """Whole iterations while the next one fits in --seconds; then, in
        an untraced run, extra reuse passes on the last dataset while
        those fit, so the shorter commands get more samples."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        try:
            self.setup()
            loop_start = time.perf_counter()
            dataset, whole, part, rebuild = None, 0.0, 0.0, True
            while True:
                start = time.perf_counter()
                if self.traced_mode:
                    self.traced_iteration()
                elif rebuild:
                    dataset, part = self.iteration(self.work / "run", False)
                else:
                    _, part = self.iteration(self.work / "run", False, dataset)
                now = time.perf_counter()
                if rebuild:
                    whole = now - start
                self.iterations += 1
                left = min(self.seconds - (now - loop_start),
                           RUN_LIMIT_S - 5 - (now - self.started))
                if whole <= left:
                    rebuild = True
                elif not self.traced_mode and part <= left:
                    rebuild = False
                else:
                    break
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            # the last three come from reading output that is missing or
            # malformed, which fails the check as much as a wrong value
            self.failed += 1
            self.errors.append(f"{self.step_label}: {exc!r}")
        finally:
            if self.stub:
                self.stub.stop()

    # -- results --------------------------------------------------------------

    def layer_metrics(self, overhead: float) -> dict:
        """Per-layer metrics of one traced iteration, all but the llm
        rates, which come from the untraced passes."""
        names, counts, samples = {}, Counter(), {}
        layer_self = Counter()
        cpu = spans = 0.0
        for result in self._traced:
            trace = result["trace"]
            cpu += result["cpu_s"]
            spans += trace["spans"]
            counts.update(trace["counts"])
            layer_self.update(trace["layer_self_s"])
            for key, values in trace["samples"].items():
                samples.setdefault(key, []).extend(values)
            for name, entry in trace["names"].items():
                agg = names.setdefault(name, Counter())
                agg.update(entry)

        def field(name, key):
            return names.get(name, {}).get(key, 0)

        hits = samples.get("gateway.hit_s", [])
        misses = samples.get("gateway.miss_s", [])
        tail_pct, tail = _tail(misses) if misses else (50.0, 0.0)
        built = counts["qagen.candidates_built"]
        posts = field("gateway.transport", "calls")
        return {
            "cli.self_s": layer_self["cli"],
            "process.cpu_s": cpu,
            "charts.sample_s": field("charts.sample", "self_s"),
            "charts.sample_calls": field("charts.sample", "calls"),
            "render.render_s": field("render.render", "self_s"),
            "render.svg_bytes": counts["render.svg_bytes"],
            "qagen.candidates_s": field("qagen.candidates", "self_s"),
            "qagen.candidates_built": built,
            "qagen.items_kept": counts["qagen.items_kept"],
            "qagen.kept_per_built": (counts["qagen.items_kept"] / built
                                     if built else 0.0),
            "qagen.realize_s": field("qagen.realize", "self_s"),
            "qagen.self_s": field("qagen.generate", "self_s"),
            "qagen.shortfall": counts["qagen.shortfall"],
            "queries.evaluate_s": field("queries.evaluate", "self_s"),
            "queries.evaluate_calls": field("queries.evaluate", "calls"),
            "reasoning.build_trace_s": field("reasoning.build_trace", "self_s"),
            "reasoning.build_trace_calls": field("reasoning.build_trace",
                                                 "calls"),
            "reasoning.validate_s": field("reasoning.validate", "self_s"),
            "reasoning.validate_calls": field("reasoning.validate", "calls"),
            "store.write_s": field("store.write", "total_s"),
            "store.write_files": self._write_stats["files"],
            "store.write_bytes": self._write_stats["bytes"],
            "store.load_s": field("store.load", "total_s"),
            "store.load_parse_s": field("store.parse", "total_s"),
            "store.load_self_s": field("store.load", "self_s"),
            "metrics.score_s": field("metrics.score", "self_s"),
            "metrics.score_calls": field("metrics.score", "calls"),
            "metrics.aggregate_s": field("metrics.aggregate", "total_s"),
            "gateway.chat_calls": field("gateway.chat", "calls"),
            "gateway.cache_hits": len(hits),
            "gateway.cache_misses": len(misses),
            "gateway.hit_s": sum(hits),
            "gateway.miss_s": sum(misses),
            "gateway.miss_p50_ms": (_percentile(misses, 50.0) * 1000.0
                                    if misses else 0.0),
            "gateway.miss_tail_ms": tail * 1000.0,
            "gateway.miss_tail_pct": tail_pct,
            "gateway.http_posts": posts,
            "gateway.retries": posts - len(misses),
            "gateway.transport_s": field("gateway.transport", "total_s"),
            # cache reads and writes, request assembly, retry back-off
            "gateway.self_s": (layer_self["gateway"]
                               - field("gateway.transport", "total_s")),
            "trace.overhead_share": overhead,
            "trace.spans": spans,
        }

    def metrics(self) -> dict:
        if self.traced_mode:
            values = {name: statistics.median(run[name]
                                              for run in self.layer_runs)
                      for name in self.layer_runs[0]} if self.layer_runs else {}
            if self.layer_runs:
                for name in ("llm.record_items_per_s",
                             "llm.replay_items_per_s"):
                    values[name] = statistics.median(
                        self.samples.get(name, [0.0]))
            units = PER_LAYER
        else:
            values = {name: statistics.median(v)
                      for name, v in self.samples.items() if name in END_TO_END}
            parts = list(self.setup_parts.values())
            if parts and all(len(p) == SETUP_REPEATS for p in parts):
                values["setup_s"] = statistics.median(
                    sum(p[i] for p in parts) for i in range(SETUP_REPEATS))
            if self.peak_rss:
                values["peak_rss_mb"] = max(self.peak_rss)
            units = END_TO_END
        return {name: {"value": values[name], "unit": unit}
                for name, unit in units.items() if name in values}

    def provenance(self) -> dict:
        commit = None
        if (ROOT / ".git").exists():
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        src_lines = sum(len(p.read_text("utf-8").splitlines())
                        for p in sorted(SRC.rglob("*.py")))
        return {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "git_commit": commit,
            "src_lines": src_lines,
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.traced_mode),
            "scale": self.scale,
            "iterations": self.iterations,
            "manifest_sha256": self.digest,
            "pythonhashseeds": self.hash_seeds,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SIZES["full"]))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SIZES), default="full",
                        help="tiny sizes are for the benchmark's self-test")
    args = parser.parse_args(argv)

    if not (SRC / "perceptqa" / "cli.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import perceptqa
    if Path(perceptqa.__file__).resolve().parent != SRC / "perceptqa":
        print(f"error: imported perceptqa from {perceptqa.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    run = Run(args)
    run.measure()
    metrics = run.metrics()
    wanted = PER_LAYER if run.traced_mode else END_TO_END
    missing = sorted(set(wanted) - set(metrics))
    if missing and not run.failed:
        run.failed += 1
        run.errors.append(f"metrics not measured: {missing}")
    correct = run.failed == 0

    record = {"provenance": run.provenance(), "errors": run.errors,
              "samples": run.samples, "setup_parts": run.setup_parts,
              "metrics": metrics}
    (run.work / "result.json").write_text(json.dumps(record, indent=2) + "\n",
                                          encoding="utf-8")
    for error in run.errors:
        print(f"FAILED {error}", file=sys.stderr)
    print("provenance " + json.dumps(record["provenance"]))
    print(f"failed_share {run.failed / max(1, run.attempted):.4f} "
          f"({run.failed} of {run.attempted} commands)")
    for name, entry in metrics.items():
        print(f"{name:28s} {entry['value']:14.6f} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": max(1, run.attempted),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
