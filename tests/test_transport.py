"""The gateway's default HTTP transport against an in-process server:
replies, retried statuses, rejected credentials, a closed port and a
reply that arrives after the timeout."""

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import perceptqa.gateway as gw
from perceptqa.cli import main
from perceptqa.errors import TransportError
from perceptqa.gateway import Gateway, build_chat_body, make_request


class _Handler(BaseHTTPRequestHandler):
    """Answers each POST with the server's next scripted (status, delay);
    the last one repeats."""

    def log_message(self, *args):
        pass

    def do_POST(self):
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        with self.server.lock:
            self.server.posts.append((dict(self.headers), raw))
            script = self.server.script
            status, delay = script.pop(0) if len(script) > 1 else script[0]
        time.sleep(delay)
        if status == 200:
            payload = {"choices": [{"message": {"content": "42"}}]}
        else:
            payload = {"error": f"status {status}"}
        data = json.dumps(payload).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        except OSError:
            pass  # the client gave up waiting


@pytest.fixture
def server():
    srv = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    srv.daemon_threads = True
    srv.lock = threading.Lock()
    srv.posts = []
    srv.script = [(200, 0.0)]
    thread = threading.Thread(target=srv.serve_forever, args=(0.05,),
                              daemon=True)
    thread.start()
    srv.url = f"http://127.0.0.1:{srv.server_address[1]}/v1/chat"
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=10)


def _gateway(tmp_path, endpoint):
    sleeps = []
    gateway = Gateway(endpoint, tmp_path / "cache", sleep=sleeps.append)
    return gateway, sleeps


def _req(question="What is shown?"):
    return make_request("infer_factoid", {"question": question},
                        model="m-test")


def test_reply_is_returned_and_cached(server, tmp_path):
    gateway, sleeps = _gateway(tmp_path, server.url)
    request = _req()
    response = gateway.chat(request)
    assert (response.text, response.cached) == ("42", False)
    assert sleeps == []
    (headers, body), = server.posts
    assert body == json.dumps(build_chat_body(request)).encode("utf-8")
    assert headers["Content-Type"] == "application/json"
    assert gateway.chat(request).cached
    assert len(server.posts) == 1


def test_unavailable_then_ok_is_retried_with_backoff(server, tmp_path):
    server.script = [(503, 0.0), (200, 0.0)]
    gateway, sleeps = _gateway(tmp_path, server.url)
    assert gateway.chat(_req()).text == "42"
    assert sleeps == [0.25]
    assert len(server.posts) == 2
    assert server.posts[0][1] == server.posts[1][1]
    assert gateway.network_calls == 1


def test_rejected_credentials_raise_and_never_retry(server, tmp_path):
    server.script = [(401, 0.0)]
    gateway, sleeps = _gateway(tmp_path, server.url)
    with pytest.raises(TransportError, match=r"rejected credentials \(401\)"):
        gateway.chat(_req())
    assert sleeps == []
    assert len(server.posts) == 1


def test_rejected_credentials_exit_2(server, tmp_path, capsys):
    server.script = [(401, 0.0)]
    out = tmp_path / "ds"
    rc = main(["build-dataset", "--charts", "1", "--mode", "llm",
               "--endpoint", server.url, "--model", "m", "--out", str(out)])
    assert rc == 2
    assert "rejected credentials (401)" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_closed_port_is_a_transport_error(tmp_path):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    gateway, _ = _gateway(tmp_path, f"http://127.0.0.1:{port}/v1/chat")
    with pytest.raises(TransportError, match="endpoint unreachable"):
        gateway.chat(_req())


def test_reply_after_the_timeout_is_a_transport_error(server, tmp_path,
                                                      monkeypatch):
    server.script = [(200, 1.0)]
    monkeypatch.setattr(gw, "_TIMEOUT_S", 0.2)
    gateway, sleeps = _gateway(tmp_path, server.url)
    started = time.perf_counter()
    with pytest.raises(TransportError, match="endpoint unreachable"):
        gateway.chat(_req())
    assert time.perf_counter() - started < 0.9
    assert sleeps == []
    assert not gateway.is_cached(_req())
