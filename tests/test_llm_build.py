"""LLM-mode builds against an in-process stub model server.

The stub delays every reply by a hash of its request body, so replies
to requests sent together come back out of order.  The pins below say
that the dataset, the provenance rows, the review queue and the notes
on stderr depend only on the requests, never on that order.
"""

import hashlib
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from perceptqa.cli import main

MODEL_A, MODEL_B = "stub-a", "stub-b"

# a phrase only its own question-generation template's system text holds
_FAMILY_BY_PROMPT = {
    "location-based": "pos",
    "analyzing data visualizations": "len",
    "recurring visual patterns": "pat",
    "based on numerical data": "ext",
}

_QUESTION_RE = re.compile(r"^Question: (.*)$", re.MULTILINE)
_ANSWER_RE = re.compile(r"^Answer: (.*)$", re.MULTILINE)
_N_RE = re.compile(r"Generate (\d+)")


def _digest(data: bytes) -> int:
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def _user_text(body: dict) -> str:
    content = body["messages"][1]["content"]
    if isinstance(content, str):
        return content
    return "".join(p["text"] for p in content if p["type"] == "text")


def _trace(answer: str, solution_header: bool = True) -> str:
    lines = ["Let's break down this problem.", "Question Phase:",
             "1. What value does the legend show for the measure?",
             "2. What is the result for the value from question 1?"]
    if solution_header:
        lines.append("Solution Phase:")
    lines += ["---", f"1) The legend shows {answer}.",
              f"2) Final answer: {answer}"]
    return "\n".join(lines)


class _Handler(BaseHTTPRequestHandler):
    """Question generation: the stub asks about measures tagged with a
    hash of the request, adds an unresolvable length question and
    repeats a pattern question in capitals; it returns nothing parseable
    for position questions on one chart.  Model B disagrees on the second
    length question, and the trace for the third extract question lacks
    its Solution Phase header.  A question naming the server's reject
    marker gets a 401."""

    def log_message(self, *args):
        pass

    def do_POST(self):
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        time.sleep((_digest(raw) % 7) * 0.003)
        body = json.loads(raw)
        system = body["messages"][0]["content"]
        user = _user_text(body)
        with self.server.lock:
            self.server.posts.append(body)
        if "constructs the reasoning process" in system:
            question = _QUESTION_RE.search(user).group(1)
            answer = _ANSWER_RE.search(user).group(1)
            text = _trace(answer, solution_header="ext-2" not in question)
        elif "answer the following question" in system:
            if self.server.reject and self.server.reject in user:
                self._send(401, {"error": "bad key"})
                return
            value = 10 + _digest(user.encode("utf-8")) % 90
            if body["model"] == MODEL_B and "len-1" in user:
                value += 1
            text = str(value)
        else:
            family = next(f for p, f in _FAMILY_BY_PROMPT.items()
                          if p in system)
            tag = hashlib.sha256(raw).hexdigest()[:6]
            if family == "pos" and tag < "8":
                text = "Sorry, I cannot see any chart."
            else:
                n = int(_N_RE.search(system + user).group(1))
                questions = [f"Judging by the legend, what is {family}-{i} "
                             f"of measure {tag}?" for i in range(n)]
                if family == "len":
                    questions.append("What is the total of everything?")
                if family == "pat":
                    questions.append(questions[0].upper())
                text = "\n".join(f'"type": "extract", "question": "{q}"'
                                 for q in questions)
        self._send(200, {"choices": [{"message": {"content": text}}]})

    def _send(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


@pytest.fixture
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    server.lock = threading.Lock()
    server.posts = []
    server.reject = None
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    server.url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat"
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def _build(stub, out: Path, *extra) -> int:
    return main(["build-dataset", "--seed", "4", "--charts", "2",
                 "--per-chart", "3", "--mode", "llm", "--model", MODEL_A,
                 "--endpoint", stub.url, "--out", str(out), *extra])


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _notes(err: str) -> list[str]:
    return [line for line in err.splitlines() if line.startswith("note:")]


def _answer_posts(stub) -> list[dict]:
    return [b for b in stub.posts
            if "answer the following question" in b["messages"][0]["content"]]


# pinned from the build that sent one request at a time
C1, C2 = "chart-18052567410434788729", "chart-525584822579152283"
RECORD_MANIFEST_SHA256 = (
    "b627bb409a83112e8f946cc0fb766d977a1efa38135aa1f79b407b4f92b2d148")
RECORD_PROVENANCE_SHA256 = (
    "7580e7b50dae74ba694e5f5f28de57ca1991ae32787fa9221a5fbaa433c760b4")
RECORD_REVIEW = [
    {"qa_id": f"{C1}-length-llm-002", "answer_a": "95", "answer_b": "96"},
    {"qa_id": f"{C1}-extract-llm-003", "answer_a": "52", "answer_b": "",
     "violations": ["missing_solution_phase"]},
    {"qa_id": f"{C2}-length-llm-002", "answer_a": "24", "answer_b": "25"},
    {"qa_id": f"{C2}-extract-llm-003", "answer_a": "48", "answer_b": "",
     "violations": ["missing_solution_phase"]},
]
_NO_CUE = "question references no label, position, or visual cue on this chart"
RECORD_NOTES = [
    f"note: position/{C1}: model output for chart {C1} contained no "
    f"parseable question lines",
    f"note: rejected length question on {C1}: {_NO_CUE}",
    f"note: dropped duplicate question on {C1}: "
    f"'JUDGING BY THE LEGEND, WHAT IS PAT-0 OF MEASURE 8030B4?'",
    f"note: rejected length question on {C2}: {_NO_CUE}",
    f"note: dropped duplicate question on {C2}: "
    f"'JUDGING BY THE LEGEND, WHAT IS PAT-0 OF MEASURE 649370?'",
]


def test_llm_record_is_pinned_and_replays(stub, tmp_path, capsys):
    out, cache = tmp_path / "ds", tmp_path / "cache"
    assert _build(stub, out, "--model-b", MODEL_B, "--cache", str(cache)) == 0
    notes = _notes(capsys.readouterr().err)
    review = [json.loads(line) for line in
              (out / "review_queue.jsonl").read_text("utf-8").splitlines()]
    assert _sha(out / "manifest.json") == RECORD_MANIFEST_SHA256
    assert _sha(out / "provenance.jsonl") == RECORD_PROVENANCE_SHA256
    assert review == RECORD_REVIEW
    assert notes == RECORD_NOTES
    assert any("violations" in row for row in review)
    assert any("violations" not in row for row in review)

    # a replay from the warm cache sends nothing and writes the same tree
    sent = len(stub.posts)
    replay = tmp_path / "replay"
    assert main(["build-dataset", "--seed", "4", "--charts", "2",
                 "--per-chart", "3", "--mode", "llm", "--model", MODEL_A,
                 "--model-b", MODEL_B, "--cache", str(cache), "--budget", "0",
                 "--endpoint", "http://127.0.0.1:9/v1/chat",
                 "--out", str(replay)]) == 0
    assert len(stub.posts) == sent
    assert _notes(capsys.readouterr().err) == RECORD_NOTES
    for name in ("manifest.json", "provenance.jsonl", "review_queue.jsonl"):
        assert (replay / name).read_bytes() == (out / name).read_bytes()


def test_default_model_b_costs_one_answer_request_per_question(stub, tmp_path):
    out = tmp_path / "ds"
    assert _build(stub, out) == 0
    rows = (out / "provenance.jsonl").read_text("utf-8").splitlines()
    review = (out / "review_queue.jsonl").read_text("utf-8").splitlines()
    questions = [_user_text(b) for b in _answer_posts(stub)]
    assert len(questions) == len(set(questions)) == len(rows) + len(review)
    for line in rows:
        row = json.loads(line)
        assert row["answer_request_a"] == row["answer_request_b"]


def test_rejected_credentials_in_one_chain_exit_2(stub, tmp_path, capsys):
    stub.reject = "pat-1"
    out = tmp_path / "ds"
    assert _build(stub, out) == 2
    assert "rejected credentials (401)" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
