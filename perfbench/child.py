"""Run one perceptqa command in this fresh interpreter and report on it.

    python3 perfbench/child.py --result OUT.json [--spans SPANS.jsonl]
        [--run-id ID] -- <perceptqa arguments>
    python3 perfbench/child.py --probe

The command goes through ``perceptqa.cli.main``.  The result file holds
its exit code, its wall and CPU time (this process plus any workers it
waited for) and its peak resident set, own plus the largest worker's.
The own peak is read from /proc: ``ru_maxrss`` of a process started by
fork and exec can report the parent's peak instead of its own.
With ``--spans`` the layer boundaries are traced (see tracer.py), the
spans are saved there, and their summary joins the result.  ``--probe``
only imports the program, so the caller can time interpreter start-up.
The caller sets PYTHONPATH to the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import perceptqa.cli


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _own_peak_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--result")
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="")
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()
    if args.probe:
        return 0

    tracer = None
    if args.spans:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer, install
        tracer = Tracer(args.run_id)
        install(tracer)

    self_before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    root = tracer.begin("cli.main") if tracer else None
    try:
        rc = perceptqa.cli.main(args.argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # reported as a failed command, not a crash of this runner
        traceback.print_exc()
        rc = 99
    finally:
        if tracer:
            tracer.end(root)
    wall = time.perf_counter() - start
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    sys.stdout.flush()

    result = {
        "rc": rc,
        "wall_s": wall,
        "cpu_s": _cpu(own) - _cpu(self_before) + _cpu(kids),
        "peak_rss_mb": (_own_peak_kb() + kids.ru_maxrss) / 1024.0,
    }
    if tracer:
        result["trace"] = tracer.summary()
        tracer.save(Path(args.spans))
    tmp = Path(args.result + ".tmp")
    tmp.write_text(json.dumps(result), encoding="utf-8")
    os.replace(tmp, args.result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
