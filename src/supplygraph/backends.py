"""Completion backends: live HTTP, scripted/gazetteer, and recording.

Every backend answers a BackendRequest with a BackendResponse. A call that
gets no answer, a scripted request with no entry and no synthesis included,
raises BackendUnavailable, so callers catch one type. A script or cassette
row that is malformed or repeats a key raises ParseError. RecordingBackend wraps any
backend, keeps its answers in a cassette and answers first from what the
cassette already holds. Replaying a recorded cassette is a ScriptedBackend
over the cassette's keyed rows alone, which misses on any other request.
Requests are identified by a stable content hash over (system, user,
question); the request tag never enters the hash, so replay does not
depend on call-site labels.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import logging
import os
import random
import re
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Iterable, Protocol

from .corpus import preprocess_text
from .errors import BackendUnavailable, CassetteWriteError, ParseError
from .files import check_utf8, open_input, open_output, parse_jsonl, read_jsonl
from .prompting import (
    CLASSIFICATION_USER_PREFIX,
    EXTRACTION_USER_PREFIX,
    REASONING_PREAMBLE,
    ExtractedEntity,
    PromptTriple,
    estimate_tokens,
    render_entity_list,
)

log = logging.getLogger(__name__)

# Sent with every HTTP request; no caller asks for other values.
TEMPERATURE = 0.0
MAX_OUTPUT_TOKENS = 512

ENDPOINT_ENV = "SUPPLYGRAPH_ENDPOINT"
API_KEY_ENV = "SUPPLYGRAPH_API_KEY"
MODEL_ENV = "SUPPLYGRAPH_MODEL"

# HttpBackend's default cap on calls in flight, and how many questions
# classify asks at once when its calls wait on the network. One number, so
# the backend's semaphore stays the one real cap: a backend built with a
# smaller in_flight admits fewer, and a wider classify would only queue on it.
IN_FLIGHT = 8

_QUESTION_RE = re.compile(
    r"^Is this entity (?P<name>.+) mentioned in the description belonging to a "
    r"(?P<category>.+)\?$",
    re.DOTALL,
)
_WORD_RE = re.compile(r"\w+")
# Retry-After as delay-seconds; an HTTP-date or any other form is ignored.
_DELAY_SECONDS_RE = re.compile(r"[0-9]+")


@dataclass(frozen=True)
class BackendRequest:
    prompt: PromptTriple
    request_tag: str = ""


@dataclass(frozen=True)
class BackendResponse:
    """A backend's reply; ``latency_ms`` is its wait outside the process, the
    call's time for HTTP and 0 for scripted answers and cassette hits."""

    text: str
    input_tokens: int
    output_tokens: int
    latency_ms: int


# What json.dumps(..., ensure_ascii=False) builds on every call, built once;
# encoding keeps no state between calls, so threads share it.
_ENCODER = json.JSONEncoder(ensure_ascii=False)


def request_key(prompt: PromptTriple) -> str:
    """Stable hex key for a request's content (request tags excluded)."""
    # The last slot once held the request's temperature, always 0; it stays
    # so that every recorded cassette keeps its keys.
    payload = _ENCODER.encode([prompt.system, prompt.user, prompt.question, "0"])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Backend(Protocol):
    def complete(self, request: BackendRequest) -> BackendResponse: ...


def _synthetic_response(prompt: PromptTriple, text: str) -> BackendResponse:
    input_tokens = sum(estimate_tokens(p) for p in (prompt.system, prompt.user, prompt.question))
    return BackendResponse(
        text=text,
        input_tokens=input_tokens,
        output_tokens=estimate_tokens(text),
        latency_ms=0,
    )


@dataclass(frozen=True)
class GazetteerEntry:
    description: str
    categories: frozenset[str]


@dataclass
class ScriptFile:
    """Parsed script/cassette: keyed responses plus an optional gazetteer."""

    entries: dict[str, str] = field(default_factory=dict)
    gazetteer: dict[str, GazetteerEntry] = field(default_factory=dict)


def _parse_gazetteer(record: dict, path: str, lineno: int) -> dict[str, GazetteerEntry]:
    gazetteer: dict[str, GazetteerEntry] = {}
    body = record["gazetteer"]
    if not isinstance(body, dict):
        raise ParseError("gazetteer must be an object", path=path, line=lineno)
    for name, entry in body.items():
        if not name or name != preprocess_text(name):
            raise ParseError(
                f"gazetteer name {name!r} must be lowercase and normalized",
                path=path, line=lineno,
            )
        if not isinstance(entry, dict) or "description" not in entry or "categories" not in entry:
            raise ParseError(
                f"gazetteer entry for {name!r} needs description and categories",
                path=path, line=lineno,
            )
        categories = entry["categories"]
        if (not isinstance(entry["description"], str) or not isinstance(categories, list)
                or not all(isinstance(c, str) for c in categories)):
            raise ParseError(
                f"gazetteer entry for {name!r} has wrong field types",
                path=path, line=lineno,
            )
        gazetteer[name] = GazetteerEntry(
            description=entry["description"],
            categories=frozenset(categories),
        )
    return gazetteer


def load_script(path: str) -> ScriptFile:
    """Load a JSONL script or cassette.

    Records are either {"key", "response"} pairs or one optional
    {"gazetteer": {...}} record. Raises ParseError on a repeated key and on
    malformed records (gazetteer names must be pre-normalized).
    """
    return _script_from_rows(read_jsonl(path), path)


def _script_from_rows(rows: Iterable[tuple[int, dict]], path: str) -> ScriptFile:
    script = ScriptFile()
    for lineno, record in rows:
        if set(record) == {"gazetteer"}:
            script.gazetteer.update(_parse_gazetteer(record, str(path), lineno))
            continue
        if set(record) != {"key", "response"}:
            raise ParseError(
                f"record must be key/response or gazetteer, got {sorted(record)}",
                path=str(path), line=lineno,
            )
        if not isinstance(record["key"], str) or not isinstance(record["response"], str):
            raise ParseError("key and response must be strings", path=str(path), line=lineno)
        if record["key"] in script.entries:
            raise ParseError(f"request key {record['key']} repeats", path=str(path), line=lineno)
        script.entries[record["key"]] = record["response"]
    return script


def _is_word(char: str) -> bool:
    # re's \w for str patterns.
    return char.isalnum() or char == "_"


def _find_bounded(news: str, name: str) -> int:
    # Where re.search(r"\b" + re.escape(name) + r"\b", news) would match, or
    # -1. \b holds where a word and a non-word character meet, the text's
    # ends counting as non-word. So an occurrence matches when the character
    # before it differs in wordness from the name's first character, and the
    # character after it from the name's last. Occurrences are tried left to
    # right, overlapping ones included.
    first, last = _is_word(name[0]), _is_word(name[-1])
    size, end = len(name), len(news)
    i = news.find(name)
    while i >= 0:
        j = i + size
        if (i > 0 and _is_word(news[i - 1])) != first and (j < end and _is_word(news[j])) != last:
            return i
        i = news.find(name, i + 1)
    return -1


class ScriptedBackend:
    """Deterministic offline backend: keyed responses, then gazetteer synthesis.

    Extraction prompts are answered by scanning the embedded article text for
    gazetteer names (whole-phrase, word-boundary matches, ordered by first
    occurrence). Classification prompts answer Yes exactly when the asked
    category is in the gazetteer's set for the asked entity. Without a
    gazetteer it answers keyed requests only, which is how a cassette replays.
    """

    def __init__(self, script: ScriptFile):
        self.script = script
        # Gazetteer names by their first \w+ run; names with none are always tried.
        self._by_first_word: dict[str, list[str]] = {}
        self._wordless: list[str] = []
        for name in script.gazetteer:
            m = _WORD_RE.search(name)
            if m:
                self._by_first_word.setdefault(m.group(), []).append(name)
            else:
                self._wordless.append(name)

    def complete(self, request: BackendRequest) -> BackendResponse:
        # A request is hashed only when there are keyed entries to look it
        # up in, or to name its key in a miss.
        prompt = request.prompt
        text = self.script.entries.get(request_key(prompt)) if self.script.entries else None
        if text is None:
            text = self._synthesize(prompt)
            if text is None:
                raise BackendUnavailable(
                    f"no script entry for key {request_key(prompt)[:12]} and no synthesis possible"
                )
        return _synthetic_response(prompt, text)

    def _synthesize(self, prompt: PromptTriple) -> str | None:
        if not self.script.gazetteer:
            return None
        if prompt.user.startswith(EXTRACTION_USER_PREFIX):
            news = prompt.user[len(EXTRACTION_USER_PREFIX):]
            return self._extract_from(news)
        if prompt.user.startswith(CLASSIFICATION_USER_PREFIX):
            return self._classify_from(prompt.question)
        return None

    def _extract_from(self, news: str) -> str:
        # Inside a name, its first \w+ run ends at a non-word character or at
        # the closing \b, and starts after a non-word character or at the
        # opening \b. So any match of the name holds that run as a whole \w+
        # run of the news, and only names whose first run is one can match.
        # \w and \s share no character, so the runs of the news are the runs
        # of its whitespace-split tokens, and an alphanumeric token is one run.
        # Each candidate is then found by str.find, and _find_bounded checks
        # the two \b boundaries by hand. A \b pattern per name scans in the
        # regex engine, and compiles again on each call once the gazetteer
        # outgrows re's pattern cache.
        words = set()
        for token in set(news.split()):
            if token.isalnum():
                words.add(token)
            else:
                words.update(_WORD_RE.findall(token))
        candidates = list(self._wordless)
        for word in words:
            candidates.extend(self._by_first_word.get(word, ()))
        found: list[tuple[int, str]] = []
        for name in candidates:
            start = _find_bounded(news, name)
            if start >= 0:
                found.append((start, name))
        found.sort()
        entities = [
            ExtractedEntity(name=name, description=self.script.gazetteer[name].description)
            for _, name in found
        ]
        return render_entity_list(entities)

    def _classify_from(self, question: str) -> str | None:
        if question.startswith(REASONING_PREAMBLE):
            question = question[len(REASONING_PREAMBLE):].lstrip()
        m = _QUESTION_RE.match(question)
        if not m:
            return None
        entry = self.script.gazetteer.get(m.group("name"))
        if entry is not None and m.group("category") in entry.categories:
            return "Yes"
        return "No"


def _cassette_line(key: str, text: str) -> str:
    return _ENCODER.encode({"key": key, "response": text}) + "\n"


def _read_cassette(path: str) -> dict[str, str]:
    """The answers in an existing cassette, keyed by request key.

    A last line without its newline is a torn append and is dropped. A
    gazetteer row means the file is a script, not a cassette, and is a
    ParseError like any other bad row.
    """
    with open_input(path) as fh:
        lines = fh.readlines()
    if lines and not lines[-1].endswith("\n"):
        log.warning("dropping torn last line %d of cassette %s", len(lines), path)
        lines.pop()
    rows = list(parse_jsonl(lines, path))
    for lineno, record in rows:
        if "gazetteer" in record:
            raise ParseError("cassette holds a gazetteer row; is it a script file?",
                             path=str(path), line=lineno)
    return _script_from_rows(rows, path).entries


class RecordingBackend:
    """Proxy to a live backend that appends (key, response) lines to a cassette.

    A request whose key is already in the cassette is answered from it
    without touching the live backend, so recording and replay return
    identical text even for stochastic upstreams, and rerunning an
    interrupted run calls the live backend only for what it lacks. An
    existing cassette is loaded and rewritten in key order at once; an
    absent one is created by the first answer. Lines are appended as
    answers arrive; sort_cassette rewrites them in key order.
    """

    def __init__(self, live: Backend, cassette_path: str):
        self.live = live
        self.cassette_path = cassette_path
        self._lock = threading.Lock()
        try:
            self._seen = _read_cassette(cassette_path)
        except FileNotFoundError:
            self._seen = {}
        else:
            self.sort_cassette()

    def complete(self, request: BackendRequest) -> BackendResponse:
        key = request_key(request.prompt)
        with self._lock:
            if key in self._seen:
                return _synthetic_response(request.prompt, self._seen[key])
        response = self.live.complete(request)
        with self._lock:
            if key in self._seen:
                # Another thread recorded this key while the call was out.
                return _synthetic_response(request.prompt, self._seen[key])
            self._seen[key] = response.text
            try:
                with open(self.cassette_path, "a", encoding="utf-8") as fh:
                    fh.write(_cassette_line(key, response.text))
            except OSError as exc:
                raise CassetteWriteError(f"cannot append to {self.cassette_path}: {exc}") from exc
        return response

    def sort_cassette(self) -> None:
        """Rewrite the cassette in request-key order, so its bytes do not
        depend on which thread answered first."""
        with self._lock:
            try:
                with open_output(self.cassette_path) as fh:
                    for key in sorted(self._seen):
                        fh.write(_cassette_line(key, self._seen[key]))
            except OSError as exc:
                raise CassetteWriteError(f"cannot rewrite {self.cassette_path}: {exc}") from exc


def _retry_after_s(header: str | None) -> float:
    """Seconds a Retry-After header asks for; 0 when absent or not delay-seconds."""
    if header is None or not _DELAY_SECONDS_RE.fullmatch(header.strip()):
        return 0.0
    return float(header.strip())  # a float, so a huge value is inf, not an error


class HttpBackend:
    """Chat-completion HTTP client with bounded retries and in-flight cap.

    Sends {"messages": [...], "temperature", "max_tokens"} where the question
    part is appended to the user message; expects the usual
    choices[0].message.content reply shape. The API key is sent as a bearer
    token and never logged. Each attempt opens its own connection through
    urllib, which honours HTTP(S)_PROXY and NO_PROXY and checks HTTPS
    certificates against the system CA store. A 429 or 503 whose Retry-After
    gives delay-seconds waits that long before the next attempt, if longer
    than the backoff, but never past the longest backoff step.
    """

    def __init__(
        self,
        endpoint: str,
        api_key: str | None = None,
        model: str | None = None,
        timeout_s: float = 30.0,
        retry_cap: int = 3,
        backoff_base_s: float = 0.5,
        in_flight: int = IN_FLIGHT,
    ):
        if not endpoint.startswith(("http://", "https://")):
            raise ValueError(f"endpoint must be an http:// or https:// URL, got {endpoint!r}")
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        if retry_cap < 0:
            raise ValueError(f"retry_cap must be >= 0, got {retry_cap}")
        if backoff_base_s < 0:
            raise ValueError(f"backoff_base_s must be >= 0, got {backoff_base_s}")
        if in_flight < 1:
            raise ValueError(f"in_flight must be >= 1, got {in_flight}")
        self.endpoint = endpoint
        self._api_key = api_key
        self.model = model
        self.timeout_s = timeout_s
        self.retry_cap = retry_cap
        self.backoff_base_s = backoff_base_s
        self._slots = threading.Semaphore(in_flight)
        self._rng = random.Random()

    @classmethod
    def from_env(cls, endpoint: str | None = None, **overrides) -> "HttpBackend":
        """Build from the SUPPLYGRAPH_* variables; a given endpoint wins over
        SUPPLYGRAPH_ENDPOINT."""
        endpoint = endpoint or os.environ.get(ENDPOINT_ENV, "")
        if not endpoint:
            raise ValueError(f"{ENDPOINT_ENV} is not set")
        return cls(
            endpoint=endpoint,
            api_key=os.environ.get(API_KEY_ENV) or None,
            model=os.environ.get(MODEL_ENV) or None,
            **overrides,
        )

    def _payload(self, request: BackendRequest) -> dict:
        user = request.prompt.user + "\n\n" + request.prompt.question
        payload = {
            "messages": [
                {"role": "system", "content": request.prompt.system},
                {"role": "user", "content": user},
            ],
            "temperature": TEMPERATURE,
            "max_tokens": MAX_OUTPUT_TOKENS,
        }
        if self.model:
            payload["model"] = self.model
        return payload

    def complete(self, request: BackendRequest) -> BackendResponse:
        headers = {"Content-Type": "application/json"}
        if self._api_key:
            headers["Authorization"] = f"Bearer {self._api_key}"
        # Default separators and allow_nan=False: the bytes the requests
        # library sent for json=, which a server may hash to pick a request.
        body = json.dumps(self._payload(request), allow_nan=False).encode("utf-8")
        attempts = 1 + self.retry_cap
        last_error = "unknown"
        # What the last 429 or 503 asked for, capped at the longest backoff step.
        retry_after = 0.0
        for attempt in range(attempts):
            if attempt:
                delay = self.backoff_base_s * (2 ** (attempt - 1))
                time.sleep(max(delay + self._rng.uniform(0, self.backoff_base_s), retry_after))
                retry_after = 0.0
            started = time.monotonic()
            try:
                with self._slots:
                    status, raw, retry_header = self._post(body, headers)
            except (OSError, http.client.HTTPException) as exc:
                # URLError, an OSError, wraps the socket error behind it.
                reason = getattr(exc, "reason", exc)
                last_error = (
                    type(reason).__name__ if isinstance(reason, BaseException) else str(reason)
                )
                log.warning("backend attempt %d/%d failed: %s", attempt + 1, attempts, last_error)
                continue
            if status == 429 or status >= 500:
                if status in (429, 503):
                    retry_after = min(_retry_after_s(retry_header),
                                      self.backoff_base_s * 2 ** max(0, self.retry_cap - 1))
                last_error = f"HTTP {status}"
                log.warning("backend attempt %d/%d failed: %s", attempt + 1, attempts, last_error)
                continue
            if status != 200:
                raise BackendUnavailable(
                    f"backend rejected request: HTTP {status}", attempts=attempt + 1
                )
            return self._parse(raw, started, attempts=attempt + 1)
        raise BackendUnavailable(
            f"backend unreachable after {attempts} attempts: {last_error}", attempts=attempts
        )

    def _post(self, body: bytes, headers: dict[str, str]) -> tuple[int, bytes, str | None]:
        """POST once on a new connection; the status, the body of a 2xx reply,
        and the Retry-After header of an error reply."""
        req = urllib.request.Request(self.endpoint, data=body, headers=headers, method="POST")
        try:
            with urllib.request.urlopen(req, timeout=self.timeout_s) as resp:
                return resp.status, resp.read(), None
        except urllib.error.HTTPError as exc:
            exc.close()
            return exc.code, b"", exc.headers.get("Retry-After")

    def _parse(self, raw: bytes, started: float, attempts: int) -> BackendResponse:
        latency_ms = int((time.monotonic() - started) * 1000)
        try:
            body = json.loads(raw.decode("utf-8"))
            text = body["choices"][0]["message"]["content"]
            usage = body.get("usage") or {}
            if not isinstance(text, str) or not isinstance(usage, dict):
                raise TypeError("content must be a string and usage an object")
            # A reply UTF-8 cannot encode fails here, as the call it is, not
            # later in a cassette append or save_state.
            check_utf8(text, "content")
            tokens = (usage.get("prompt_tokens", 0),
                      usage.get("completion_tokens", estimate_tokens(text)))
            if any(isinstance(n, bool) or not isinstance(n, int) for n in tokens):
                raise TypeError(f"token counts {tokens} are not integers")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendUnavailable(f"malformed backend response: {exc}", attempts=attempts) from exc
        return BackendResponse(text, *tokens, latency_ms)
