"""Code outside the package that calls into it: the README's library
example and the benchmark's tracer, which wraps module-level names."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

from support import src_env

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_benchmark_tracer_finds_every_name_it_wraps():
    script = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from tracer import Tracer, install; install(Tracer('t'))")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "perfbench")],
        env=src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
