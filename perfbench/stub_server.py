"""Stand-in chat-completions server for the llm-cache workload.

Run as its own process:

    python3 perfbench/stub_server.py --delay-ms 20

It prints ``PORT <n>`` once it listens on 127.0.0.1 and serves requests
on one thread each, so overlapping requests overlap their delays.  Every
reply is a pure function of the request body, so a seed gives the same
dataset on every run.  Fixed shares of requests are planted, by the
position of a question in its question-generation reply, so every seed
meets the same number of them:

* model B answers question DISAGREE_AT with a different value, which
  sends the item to the review queue;
* the reasoning-trace request for question INVALID_AT gets a trace
  without its Solution Phase header, which quarantines the item;
* request FAIL_FIRST_AT, and every FAIL_FIRST_EVERY-th after it, gets
  a 503 unless its body already got one, which exercises the client's
  retry.  A retry gets the same reply, so which requests meet a 503
  never changes the output.

``GET /control/stats`` returns the counters; ``POST /control/reset``
returns them and starts a fresh tally, so each record pass is counted on
its own and meets the same 503s.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

MODEL_B = "stub-b"
DISAGREE_AT = 1
INVALID_AT = 2
FAIL_FIRST_AT = 10
FAIL_FIRST_EVERY = 64

_N_QUESTIONS_RE = re.compile(r"Generate (\d+)")
_QUESTION_RE = re.compile(r"^Question: (.*)$", re.MULTILINE)
_ANSWER_RE = re.compile(r"^Answer: (.*)$", re.MULTILINE)
_POSITION_RE = re.compile(r"measure \w+-(\d+) ")


def _digest(text: str) -> int:
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _user_text(body: dict) -> str:
    content = body["messages"][1]["content"]
    if isinstance(content, str):
        return content
    return "".join(part["text"] for part in content if part["type"] == "text")


def _valid_trace(answer: str) -> str:
    return ("Let's break down this problem.\n"
            "Question Phase:\n"
            "1. What value does the legend show for the described series?\n"
            "2. What is the result for the values from question 1?\n"
            "Solution Phase:\n"
            "---\n"
            f"1) The described series shows {answer}.\n"
            f"2) Final answer: {answer}")


def _position(question: str) -> int:
    m = _POSITION_RE.search(question)
    return int(m.group(1)) if m else -1


def _answer(question: str) -> str:
    # both models derive the answer from the question alone, so they
    # agree unless the planted disagreement applies
    h = _digest(question)
    if h % 6 == 0:
        return "Yes" if h % 12 == 0 else "No"
    return str(10 + h % 900)


class Tally:
    """Request counters shared by the handler threads."""

    def __init__(self):
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> dict:
        with self.lock:
            old = dict(getattr(self, "counts", {}))
            self.counts = {"requests": 0, "failed_first": 0, "questions": 0,
                           "disagree": 0, "invalid_traces": 0}
            self.failed: set[str] = set()
        return old

    def snapshot(self) -> dict:
        with self.lock:
            return dict(self.counts)


class Handler(BaseHTTPRequestHandler):
    server_version = "perfbench-stub"

    def log_message(self, *args):
        pass

    def _send(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        if self.path == "/control/stats":
            self._send(200, self.server.tally.snapshot())
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self):
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        tally = self.server.tally
        if self.path == "/control/reset":
            self._send(200, tally.reset())
            return
        body_key = hashlib.sha256(raw).hexdigest()
        with tally.lock:
            tally.counts["requests"] += 1
            fail = (tally.counts["requests"] % FAIL_FIRST_EVERY
                    == FAIL_FIRST_AT and body_key not in tally.failed)
            if fail:
                tally.failed.add(body_key)
                tally.counts["failed_first"] += 1
        time.sleep(self.server.delay_s)
        if fail:
            self._send(503, {"error": "planted transient failure"})
            return
        text, counter = self._reply(json.loads(raw))
        if counter:
            with tally.lock:
                tally.counts[counter[0]] += counter[1]
        self._send(200, {"choices": [{"message": {"content": text}}]})

    def _reply(self, body: dict):
        system = body["messages"][0]["content"]
        user = _user_text(body)
        if "constructs the reasoning process" in system:
            question = _QUESTION_RE.search(user).group(1)
            answer = _ANSWER_RE.search(user).group(1)
            if _position(question) == INVALID_AT:
                broken = _valid_trace(answer).replace("Solution Phase:\n", "")
                return broken, ("invalid_traces", 1)
            return _valid_trace(answer), None
        if "answer the following question" in system:
            answer = _answer(user)
            if body["model"] == MODEL_B and _position(user) == DISAGREE_AT:
                alt = {"Yes": "No", "No": "Yes"}.get(answer)
                return alt or str(int(answer) + 1), ("disagree", 1)
            return answer, None
        m = _N_QUESTIONS_RE.search(system) or _N_QUESTIONS_RE.search(user)
        n = int(m.group(1)) if m else 2
        tag = hashlib.sha256(
            json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()[:10]
        lines = [
            f'"type": "extract", "question": "Judging by the legend, what is '
            f'measure {tag}-{i} at its peak?"'
            for i in range(n)
        ]
        return "\n".join(lines), ("questions", n)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--delay-ms", type=float, default=20.0)
    args = parser.parse_args(argv)
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.delay_s = args.delay_ms / 1000.0
    server.tally = Tally()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
