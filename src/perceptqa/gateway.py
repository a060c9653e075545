"""Model endpoint client with a content-addressed response cache.

Every request is reduced to a hash of its semantic fields (model,
template, slot bindings, image, temperature) and answered from the
cache when a response for that hash exists, so a finished run can be
replayed byte for byte with the network unplugged.  Prompt templates
live in versioned data files whose hashes are pinned; any drift aborts
at startup.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import os
import re
import threading
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

# the transport module keeps the name ``requests`` because perfbench's
# tracer wraps ``gateway.requests.post`` to count every POST sent
from . import _http as requests
from .charts import ChartSpec
from .errors import (
    BudgetError,
    CapacityError,
    ConfigError,
    StoreError,
    TemplateError,
    TransportError,
)
from .qagen import label_pattern
from .reasoning import validate_trace_text
from .render import GeometryMap
from .store import _atomic_write

TEMPLATE_IDS = (
    "pos_qgen", "len_qgen", "pat_qgen", "ext_qgen",
    "dot_answer",
    "infer_factcheck", "infer_mcq", "infer_factoid", "infer_default",
)

API_KEY_ENV = "PERCEPTQA_API_KEY"

# generation wants variety, scoring wants determinism
DEFAULT_TEMPERATURE_GENERATION = 0.7
DEFAULT_TEMPERATURE_INFERENCE = 0.0

_USER_SPLIT = "=== user ==="
_SLOT_RE = re.compile(r"\{([a-z_]+)\}")

_TRANSIENT_STATUSES = frozenset({408, 429, 500, 502, 503, 504})
# a transient status is retried up to _MAX_RETRIES times, the n-th retry
# after _BACKOFF_S * 2 ** (n - 1) seconds; one POST waits _TIMEOUT_S
_MAX_RETRIES = 3
_BACKOFF_S = 0.25
_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    system_text: str
    user_text: str
    slots: tuple[str, ...]

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.file_bytes()).hexdigest()

    def file_bytes(self) -> bytes:
        return f"{self.system_text}\n{_USER_SPLIT}\n{self.user_text}".encode("utf-8")


def _template_dir():
    return resources.files("perceptqa").joinpath("data/templates")


def _read_template(template_id: str) -> PromptTemplate:
    if template_id not in TEMPLATE_IDS:
        raise ConfigError(f"unknown template id {template_id!r}")
    text = _template_dir().joinpath(f"{template_id}.txt").read_text("utf-8")
    if f"\n{_USER_SPLIT}\n" not in text:
        raise TemplateError(f"template {template_id} lacks a user section")
    system_text, user_text = text.split(f"\n{_USER_SPLIT}\n", 1)
    slots = tuple(sorted(set(
        _SLOT_RE.findall(system_text) + _SLOT_RE.findall(user_text))))
    return PromptTemplate(template_id, system_text, user_text, slots)


@functools.cache
def load_template(template_id: str) -> PromptTemplate:
    """The template as first read by this process; verify_templates
    checks that copy against both the file and the pinned hash."""
    return _read_template(template_id)


def pinned_template_hashes() -> dict:
    text = _template_dir().joinpath("manifest.json").read_text("utf-8")
    return json.loads(text)


def verify_templates() -> dict:
    """Compare every template file hash against the pinned manifest.

    Returns the verified id -> hash map; any drift or omission raises,
    so a run can never silently use edited prompts, including a file
    edited after this process first loaded it."""
    pinned = pinned_template_hashes()
    actual = {tid: _read_template(tid).sha256 for tid in TEMPLATE_IDS}
    if set(pinned) != set(actual):
        raise ConfigError(
            f"template manifest lists {sorted(pinned)}, files are "
            f"{sorted(actual)}")
    for tid, digest in actual.items():
        if pinned[tid] != digest:
            raise ConfigError(
                f"template {tid} drifted: pinned {pinned[tid][:12]}..., "
                f"file {digest[:12]}...")
        if load_template(tid).sha256 != digest:
            raise ConfigError(
                f"template {tid} changed on disk after this process "
                f"loaded it")
    return actual


def _bind(text: str, template: PromptTemplate, bindings: dict) -> str:
    needed = set(_SLOT_RE.findall(text))
    missing = needed - set(bindings)
    if missing:
        raise TemplateError(
            f"template {template.template_id} is missing slot values for "
            f"{sorted(missing)}")
    out = text
    for name in needed:
        out = out.replace("{" + name + "}", str(bindings[name]))
    return out


@dataclass(frozen=True)
class GatewayRequest:
    model: str
    template_id: str
    bindings: tuple[tuple[str, str], ...]  # sorted (slot, value) pairs
    image_svg: str | None = None
    temperature: float = DEFAULT_TEMPERATURE_INFERENCE

    @functools.cached_property
    def request_hash(self) -> str:
        # the endpoint is deliberately excluded: the same request served
        # by a different host must replay from the same cache entry
        image_digest = (hashlib.sha256(self.image_svg.encode("utf-8")).hexdigest()
                        if self.image_svg is not None else None)
        payload = json.dumps({
            "model": self.model,
            "template_id": self.template_id,
            "bindings": list(self.bindings),
            "image_sha256": image_digest,
            "temperature": repr(self.temperature),
        }, sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def make_request(
    template_id: str,
    bindings: dict,
    model: str,
    image_svg: str | None = None,
) -> GatewayRequest:
    template = load_template(template_id)
    extra = set(bindings) - set(template.slots)
    if extra:
        raise TemplateError(
            f"template {template_id} has no slots {sorted(extra)}")
    pairs = tuple(sorted((k, str(v)) for k, v in bindings.items()))
    return GatewayRequest(
        model=model,
        template_id=template_id,
        bindings=pairs,
        image_svg=image_svg,
        temperature=(DEFAULT_TEMPERATURE_GENERATION
                     if template_id.endswith("_qgen")
                     else DEFAULT_TEMPERATURE_INFERENCE),
    )


def build_chat_body(request: GatewayRequest) -> dict:
    """Assemble the chat-completions payload for the wire."""
    template = load_template(request.template_id)
    bindings = dict(request.bindings)
    system = _bind(template.system_text, template, bindings)
    user = _bind(template.user_text, template, bindings)
    if request.image_svg is not None:
        b64 = base64.b64encode(request.image_svg.encode("utf-8")).decode("ascii")
        content = [
            {"type": "text", "text": user},
            {"type": "image_url",
             "image_url": {"url": f"data:image/svg+xml;base64,{b64}"}},
        ]
    else:
        content = user
    return {
        "model": request.model,
        "temperature": request.temperature,
        "messages": [
            {"role": "system", "content": system},
            {"role": "user", "content": content},
        ],
    }


@dataclass(frozen=True)
class GatewayResponse:
    text: str
    request_hash: str
    cached: bool


class Gateway:
    """Client for an OpenAI-style chat-completions endpoint.

    Responses are cached under cache_dir keyed by request hash; a cache
    hit never touches the network.  budget caps the number of network
    requests for the run; retries of the same request count once.
    """

    def __init__(
        self,
        endpoint: str,
        cache_dir: str | Path,
        budget: int | None = None,
        transport=None,
        sleep=time.sleep,
    ):
        self.endpoint = endpoint
        self.cache_dir = Path(cache_dir)
        self.budget = budget
        self._transport = transport or self._http_post
        self._sleep = sleep
        self._lock = threading.Lock()
        self.network_calls = 0
        self.template_hashes = verify_templates()

    # -- plumbing -------------------------------------------------------------

    def _http_post(self, endpoint: str, body: bytes, headers: dict):
        try:
            return requests.post(endpoint, data=body, headers=headers,
                                 timeout=_TIMEOUT_S)
        except requests.RequestException as exc:
            raise TransportError(f"endpoint unreachable: {exc}")

    def _cache_path(self, request_hash: str) -> Path:
        return self.cache_dir / request_hash[:2] / f"{request_hash}.json"

    def _read_cache(self, request_hash: str) -> dict | None:
        path = self._cache_path(request_hash)
        if not path.is_file():
            return None
        try:
            entry = json.loads(path.read_text("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StoreError(f"corrupt cache entry {path}: {exc}")
        if not isinstance(entry, dict) or entry.get("request_hash") != request_hash:
            raise StoreError(
                f"cache entry {path} does not record request {request_hash}")
        if not isinstance(entry.get("response_text"), str):
            raise StoreError(f"cache entry {path} lacks a response_text string")
        if not isinstance(entry.get("response_body"), dict):
            raise StoreError(f"cache entry {path} lacks a response_body object")
        return entry

    def _write_cache(self, request_hash: str, entry: dict) -> None:
        path = self._cache_path(request_hash)
        path.parent.mkdir(parents=True, exist_ok=True)
        # _atomic_write names its temp file per writer, so threads or
        # processes sharing the cache never write into or rename away
        # each other's temp file
        text = json.dumps(entry, indent=2) + "\n"
        _atomic_write(path, text.encode("utf-8"))

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(API_KEY_ENV)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    @staticmethod
    def _extract_text(body: dict) -> str:
        try:
            return body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            raise TransportError(
                "response body lacks choices[0].message.content")

    # -- public API -----------------------------------------------------------

    def is_cached(self, request: GatewayRequest) -> bool:
        """Whether chat(request) would be answered from the cache; the
        entry's contents are checked only when chat reads it."""
        return self._cache_path(request.request_hash).is_file()

    def chat(self, request: GatewayRequest) -> GatewayResponse:
        request_hash = request.request_hash
        entry = self._read_cache(request_hash)
        if entry is not None:
            return GatewayResponse(
                text=entry["response_text"],
                request_hash=request_hash,
                cached=True,
            )

        with self._lock:
            if self.budget is not None and self.network_calls >= self.budget:
                raise BudgetError(
                    f"request budget of {self.budget} exhausted; "
                    f"{request_hash[:12]}... not sent")
            self.network_calls += 1

        body_bytes = json.dumps(build_chat_body(request)).encode("utf-8")
        attempt = 0
        while True:
            status, payload = self._transport(
                self.endpoint, body_bytes, self._headers())
            if status in (401, 403):
                raise TransportError(f"endpoint rejected credentials ({status})")
            if status in _TRANSIENT_STATUSES:
                if attempt >= _MAX_RETRIES:
                    raise TransportError(
                        f"gave up after {attempt + 1} attempts, last status {status}")
                self._sleep(_BACKOFF_S * (2 ** attempt))
                attempt += 1
                continue
            if status != 200:
                raise TransportError(f"endpoint returned status {status}")
            break

        try:
            response_body = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TransportError(f"response is not valid JSON: {exc}")
        text = self._extract_text(response_body)

        self._write_cache(request_hash, {
            "request_hash": request_hash,
            "endpoint": self.endpoint,
            "template_hash": self.template_hashes[request.template_id],
            "request_body": json.loads(body_bytes.decode("utf-8")),
            "response_body": response_body,
            "response_text": text,
        })
        return GatewayResponse(
            text=text, request_hash=request_hash, cached=False)


# ---------------------------------------------------------------------------
# question generation through the model

_QGEN_TEMPLATE_BY_FAMILY = {
    "position": "pos_qgen",
    "length": "len_qgen",
    "pattern": "pat_qgen",
    "extract": "ext_qgen",
}

_CANDIDATE_RE = re.compile(
    r'"type"\s*:\s*"([^"]+)"\s*,\s*"question"\s*:\s*"([^"]+)"')

_POSITION_REF_RE = re.compile(
    r"\b(first|second|third|fourth|fifth|sixth|seventh|eighth|ninth|tenth"
    r"|\d+(?:st|nd|rd|th)) (?:\w+ )?from the (top|bottom|left|right)\b",
    re.IGNORECASE,
)

_ORDINAL_VALUES = {
    "first": 1, "second": 2, "third": 3, "fourth": 4, "fifth": 5,
    "sixth": 6, "seventh": 7, "eighth": 8, "ninth": 9, "tenth": 10,
}


@dataclass(frozen=True)
class QuestionCandidate:
    family: str
    op_hint: str
    question: str
    model: str
    request_hash: str


def _ordinal_rank(token: str) -> int:
    token = token.lower()
    if token in _ORDINAL_VALUES:
        return _ORDINAL_VALUES[token]
    return int(re.sub(r"\D", "", token))


def check_resolvable(question: str, spec: ChartSpec,
                     geom: GeometryMap) -> str | None:
    """Return a rejection reason, or None when every reference in the
    question can be grounded on this chart."""
    for m in _POSITION_REF_RE.finditer(question):
        rank = _ordinal_rank(m.group(1))
        side = m.group(2).lower()
        if spec.kind == "pie":
            return f"positional reference {m.group(0)!r} on a pie chart"
        if side in ("top", "bottom") and spec.kind != "horizontal_bar":
            return (f"positional reference {m.group(0)!r} but categories "
                    f"run horizontally on a {spec.kind} chart")
        if side in ("left", "right") and spec.kind == "horizontal_bar":
            return (f"positional reference {m.group(0)!r} but categories "
                    f"run vertically on a horizontal bar chart")
        axis_len = len(spec.table.categories)
        if rank > axis_len:
            return (f"positional reference {m.group(0)!r} exceeds the "
                    f"{axis_len} drawn marks")

    names = [s.name for s in spec.table.series]
    known = set(spec.table.categories) | set(names)
    mentioned = [label for label in known if
                 re.search(label_pattern(label), question)]
    has_position = bool(_POSITION_REF_RE.search(question))
    colors = {s.color.split(" ")[-1] for s in spec.table.series}
    has_visual = any(re.search(rf"\b{re.escape(c)}\b", question, re.IGNORECASE)
                     for c in colors)
    has_visual = has_visual or bool(
        re.search(r"\b(striped|dotted|legend)\b", question, re.IGNORECASE))
    if not mentioned and not has_position and not has_visual:
        return "question references no label, position, or visual cue on this chart"
    return None


def parse_question_lines(text: str) -> list[tuple[str, str]]:
    return [(m.group(1).strip(), m.group(2).strip())
            for m in _CANDIDATE_RE.finditer(text)]


def question_request(
    family: str,
    svg: str,
    model: str,
    n_questions: int = 2,
) -> GatewayRequest:
    """The question-generation request for one family on one chart."""
    template_id = _QGEN_TEMPLATE_BY_FAMILY.get(family)
    if template_id is None:
        raise ConfigError(f"unknown task family {family!r}")
    return make_request(
        template_id,
        {"n_questions": n_questions},
        model=model,
        image_svg=svg,
    )


def generate_questions_llm(
    gateway: Gateway,
    spec: ChartSpec,
    svg: str,
    geom: GeometryMap,
    family: str,
    model: str,
    n_questions: int = 2,
) -> tuple[list[QuestionCandidate], list[tuple[str, str]]]:
    """Ask the model for questions in one family; keep the resolvable
    ones.  Returns (accepted, rejected-with-reason); zero accepted is an
    error because the caller cannot proceed with nothing."""
    request = question_request(family, svg, model, n_questions)
    response = gateway.chat(request)
    pairs = parse_question_lines(response.text)
    accepted: list[QuestionCandidate] = []
    rejected: list[tuple[str, str]] = []
    for op_hint, question in pairs:
        reason = check_resolvable(question, spec, geom)
        if reason is None:
            accepted.append(QuestionCandidate(
                family=family, op_hint=op_hint, question=question,
                model=model, request_hash=response.request_hash))
        else:
            rejected.append((question, reason))
    if not pairs:
        raise CapacityError(
            f"model output for chart {spec.chart_id} contained no "
            f"parseable question lines")
    if not accepted:
        raise CapacityError(
            f"all {len(pairs)} generated questions for chart "
            f"{spec.chart_id} were unresolvable")
    return accepted, rejected


def generate_dot_answer_llm(
    gateway: Gateway,
    question: str,
    answer: str,
    svg: str,
    model: str,
):
    """Ask the model to produce a reasoning trace for a known answer.

    Returns (trace, violations, request_hash); a trace that breaks the
    format comes back as None with its violations, for the caller to
    quarantine."""
    request = make_request(
        "dot_answer",
        {"question": question, "answer": answer},
        model=model,
        image_svg=svg,
    )
    response = gateway.chat(request)
    trace, violations = validate_trace_text(response.text)
    return trace, violations, response.request_hash
