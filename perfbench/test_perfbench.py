"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench

Each case copies the benchmark, BENCHMARK.json and src/ into a fresh
directory, so it never shares scratch files with a real run, and runs
one workload for a second or two.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))

sys.path.insert(0, str(BENCH_DIR))
from tracer import Tracer  # noqa: E402


def _checkout(tmp_path: Path, with_src: bool = True) -> Path:
    root = tmp_path / "checkout"
    root.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", root)
    ignore = shutil.ignore_patterns("__pycache__")
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, root / rel, ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", root / "src", ignore=ignore)
    return root


def _run(root: Path, workload: str, trace: int):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(tmp_path, workload, trace):
    proc = _run(_checkout(tmp_path), workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()}
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    elif workload == "llm-cache":
        metrics = result["metrics"]
        assert metrics["gateway.cache_hits"]["value"] > 0
        assert metrics["gateway.cache_misses"]["value"] > 0
        assert metrics["gateway.retries"]["value"] >= 1
    else:
        assert result["metrics"]["qagen.candidates_built"]["value"] > 0


def test_refuses_to_run_without_program_source(tmp_path):
    proc = _run(_checkout(tmp_path, with_src=False), "dense-build", 0)
    assert proc.returncode not in (0, None)
    assert "correct" not in proc.stdout


def test_self_times_cover_the_root_span_exactly():
    tracer = Tracer("t")
    root = tracer.begin("cli.main")
    child = tracer.begin("store.write")
    time.sleep(0.01)
    tracer.end(child)

    def worker():
        span = tracer.begin("gateway.chat")
        time.sleep(0.01)
        tracer.end(span)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    tracer.end(root)

    summary = tracer.summary()
    wall = root[3] - root[2]
    # the worker's span overlaps the root and is not subtracted from it
    assert summary["main_thread_self_s"] == pytest.approx(wall, abs=1e-9)
    assert summary["layer_self_s"]["gateway"] >= 0.01
    assert [s[4] for s in tracer.spans] == [None, root[0], root[0]]
