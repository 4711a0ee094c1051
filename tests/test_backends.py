from __future__ import annotations

import argparse
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
import xml.dom.minidom
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import oracles
import supplygraph
from shared import DEDUP_NEWS_PATH, NEWS_PATH
from supplygraph.backends import (
    BackendRequest,
    BackendResponse,
    GazetteerEntry,
    HttpBackend,
    RecordingBackend,
    ScriptFile,
    ScriptedBackend,
    _cassette_line,
    load_script,
    request_key,
)
from supplygraph import backends as backends_module
from supplygraph.errors import BackendUnavailable, CassetteWriteError, ParseError
from supplygraph.cli import _make_backend, main
from supplygraph.crawler import article_payload
from supplygraph.graph import load_state
from supplygraph.prompting import (
    ParseDiagnostics,
    build_classification_prompt,
    build_extraction_prompt,
    parse_entity_list,
)


def _extract_request(news="acme hired delta.", industry="civil engineering"):
    return BackendRequest(prompt=build_extraction_prompt(news, industry))


def _classify_request(name, desc, category, reasoning=False):
    return BackendRequest(
        prompt=build_classification_prompt(name, desc, category, reasoning=reasoning)
    )


# -- request keys -------------------------------------------------------------


def test_request_key_is_stable():
    a = request_key(build_extraction_prompt("same news.", "mining"))
    b = request_key(build_extraction_prompt("same news.", "mining"))
    assert a == b
    # Pinned: a changed key would orphan every recorded cassette.
    assert a == "a226a041321c231736bf1c42c7a4f56472cd53c34b70c386b8e7634677d99fc0"


# Non-ASCII text, a quote, a backslash and U+2028, which json.dumps writes
# raw with ensure_ascii=False.
_WIDE_NEWS = ("Soci\u00e9t\u00e9 G\u00e9n\u00e9rale financed the Z\u00fcrich\u2028tunnel"
              " \u2014 \u6771\u4eac \"quoted\" \\ back.")


def test_request_key_of_non_ascii_text_is_pinned():
    key = request_key(build_extraction_prompt(_WIDE_NEWS, "g\u00e9nie civil"))
    assert key == "dab5b6bc4fb994b3a97abfd05173fe0f13d8baf79112a09967ef44588dd4b639"


@pytest.mark.parametrize(
    "text", ["", "plain", _WIDE_NEWS, "\x00\x1f\x7f\ud7ff\U0001f600", "a\u2029b\nc"]
)
def test_cassette_line_bytes_are_json_dumps(text):
    key = request_key(build_extraction_prompt("n.", "mining"))
    expected = json.dumps({"key": key, "response": text}, ensure_ascii=False) + "\n"
    assert _cassette_line(key, text) == expected


def test_request_key_varies_with_content():
    base = build_extraction_prompt("news one.", "mining")
    other = build_extraction_prompt("news two.", "mining")
    assert request_key(base) != request_key(other)


def test_request_key_ignores_tag():
    prompt = build_extraction_prompt("n.", "mining")
    first = BackendRequest(prompt=prompt, request_tag="a")
    second = BackendRequest(prompt=prompt, request_tag="b")
    assert request_key(first.prompt) == request_key(second.prompt)


# -- script loading -----------------------------------------------------------


def test_load_script_keyed_entries(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text(
        '{"key": "k1", "response": "r1"}\n\n{"key": "k2", "response": "r2"}\n',
        encoding="utf-8",
    )
    script = load_script(str(path))
    assert script.entries == {"k1": "r1", "k2": "r2"}
    assert script.gazetteer == {}


def test_load_script_duplicate_key(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text(
        '{"key": "k", "response": "a"}\n{"key": "k", "response": "b"}\n',
        encoding="utf-8",
    )
    with pytest.raises(ParseError, match=re.escape(f"request key k repeats ({path}:2)")):
        load_script(str(path))


# Extraction scans preprocessed article text, where a tab, a newline or a
# control character is a single space, so a name holding one never matches.
@pytest.mark.parametrize("name", ["AECOM", "acme\tco", "acme\nco", "acme\x01co"],
                         ids=["upper", "tab", "newline", "control"])
def test_load_script_rejects_unnormalized_gazetteer_name(tmp_path, name):
    path = tmp_path / "s.jsonl"
    record = {"gazetteer": {name: {"description": "d", "categories": []}}}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_script(str(path))
    assert f"gazetteer name {name!r} must be lowercase and normalized ({path}:1)" == str(err.value)


@pytest.mark.parametrize("categories", [[["x"]], [1], ["ok", None]], ids=["list", "int", "none"])
def test_load_script_rejects_non_string_gazetteer_categories(tmp_path, categories):
    path = tmp_path / "s.jsonl"
    record = {"gazetteer": {"acme": {"description": "d", "categories": categories}}}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_script(str(path))
    assert "wrong field types" in str(err.value)
    assert (err.value.path, err.value.line) == (str(path), 1)


def test_crawl_with_non_string_gazetteer_category_exits_config(tmp_path, capsys):
    path = tmp_path / "s.jsonl"
    record = {"gazetteer": {"bechtel": {"description": "d", "categories": [["x"]]}}}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["crawl", "--corpus", NEWS_PATH, "--backend", f"script:{path}", "--out", str(out),
            "--seeds", "bechtel"]
    assert main(argv) == 2
    assert "wrong field types" in capsys.readouterr().err
    assert not out.exists()


def test_load_script_rejects_unknown_record_shape(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text('{"key": "k"}\n', encoding="utf-8")
    with pytest.raises(ParseError):
        load_script(str(path))


def test_load_script_bad_json_reports_line(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text('{"key": "k", "response": "r"}\nnot json\n', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_script(str(path))
    assert err.value.line == 2


def test_load_fixture_gazetteer(gazetteer_backend, gazetteer):
    names = set(gazetteer_backend.script.gazetteer)
    assert names == set(gazetteer)
    assert "bechtel" in names


# -- scripted backend ---------------------------------------------------------


def test_scripted_backend_prefers_keyed_entry():
    request = _extract_request("bechtel did things.")
    key = request_key(request.prompt)
    script = ScriptFile(entries={key: "1. Canned: from the script"})
    backend = ScriptedBackend(script)
    assert backend.complete(request).text == "1. Canned: from the script"


def test_scripted_backend_extraction_order_is_first_occurrence(gazetteer_backend):
    news = "yesterday aecom and bechtel met with txdot officials."
    response = gazetteer_backend.complete(_extract_request(news))
    names = [e.name for e in parse_entity_list(response.text, ParseDiagnostics())]
    assert names == ["aecom", "bechtel", "txdot"]


def test_scripted_backend_extraction_is_word_bounded(gazetteer_backend):
    news = "the aecoms project (not aecom itself) started."
    response = gazetteer_backend.complete(_extract_request(news))
    names = [e.name for e in parse_entity_list(response.text, ParseDiagnostics())]
    assert names == ["aecom"]


def test_scripted_backend_extraction_multiword_names(gazetteer_backend):
    news = "cranes came from bragg crane service this week."
    response = gazetteer_backend.complete(_extract_request(news))
    names = [e.name for e in parse_entity_list(response.text, ParseDiagnostics())]
    assert names == ["bragg crane service"]


def test_scripted_backend_extraction_no_mentions_is_empty_text(gazetteer_backend):
    response = gazetteer_backend.complete(_extract_request("nothing of note happened."))
    assert response.text == ""


def test_scripted_backend_classification(gazetteer_backend, gazetteer):
    entry = gazetteer["bechtel"]
    yes = gazetteer_backend.complete(
        _classify_request("bechtel", entry["description"], "construction contractor")
    )
    no = gazetteer_backend.complete(
        _classify_request("bechtel", entry["description"], "legal counsel")
    )
    assert yes.text == "Yes"
    assert no.text == "No"


def test_scripted_backend_classification_with_reasoning_preamble(gazetteer_backend, gazetteer):
    entry = gazetteer["aecom"]
    response = gazetteer_backend.complete(
        _classify_request("aecom", entry["description"], "engineering consulting", reasoning=True)
    )
    assert response.text == "Yes"


def test_scripted_backend_unknown_entity_classifies_no(gazetteer_backend):
    response = gazetteer_backend.complete(
        _classify_request("mystery corp", "unknown", "legal counsel")
    )
    assert response.text == "No"


def test_scripted_backend_miss_without_gazetteer():
    backend = ScriptedBackend(ScriptFile())
    request = _extract_request()
    key = request_key(request.prompt)
    with pytest.raises(BackendUnavailable, match=f"no script entry for key {key[:12]} and"):
        backend.complete(request)


def test_gazetteer_only_script_answers_without_hashing(monkeypatch, gazetteer_backend):
    def no_key(prompt):
        raise AssertionError("hashed a request with no keyed entries to look up")

    monkeypatch.setattr(backends_module, "request_key", no_key)
    assert gazetteer_backend.complete(_extract_request("bechtel hired aecom.")).text
    assert gazetteer_backend.complete(
        _classify_request("bechtel", "builds things", "legal counsel")
    ).text == "No"


def test_scripted_backend_soundness_against_truth(gazetteer_backend, news_corpus, news_truth):
    for article in news_corpus:
        payload = article.title + "\n\n" + article.body
        response = gazetteer_backend.complete(_extract_request(payload.lower()))
        names = (sorted(e.name for e in parse_entity_list(response.text, ParseDiagnostics()))
                 if response.text else [])
        assert names == news_truth[article.id], article.id


_TRICKY_NAMES = [
    "bechtel", "bechtel group", "group", "at&t", "st. john's", "john's", "(x) corp",
    "& sons", "a.", "a", "&", "3m", "société générale", "straße",
]
_NEWS_PIECES = _TRICKY_NAMES + [
    "bechtelgroup", "at", "t", "st", "john", "s", "x", "corp", "sons", "m3", "société",
    "générale", "strasse", "straßen", "(", ")", "&", ".", "'", "the", "_a",
]


def _scripted(descriptions):
    return ScriptedBackend(ScriptFile(gazetteer={
        name: GazetteerEntry(description=d, categories=frozenset())
        for name, d in descriptions.items()
    }))


def test_scripted_backend_extraction_matches_per_name_search():
    rng = random.Random(11)
    descriptions = {name: (f"about {name}" if i % 3 else "") for i, name in enumerate(_TRICKY_NAMES)}
    backend = _scripted(descriptions)
    for _ in range(400):
        pieces = [rng.choice(_NEWS_PIECES) for _ in range(rng.randint(1, 12))]
        if rng.random() < 0.5:
            pieces.insert(0, rng.choice(_TRICKY_NAMES))
        if rng.random() < 0.5:
            pieces.append(rng.choice(_TRICKY_NAMES))
        news = pieces[0] + "".join(rng.choice([" ", "", ", ", ". ", "-", "\n"]) + p for p in pieces[1:])
        if not news.strip():
            continue
        assert backend.complete(_extract_request(news)).text == oracles.extract_by_name(
            descriptions, news), news


# Names with edge punctuation, "_", digits and letters outside ASCII, and
# news where a name's first occurrence fails its boundary check before a later
# one passes ("acme" in "acmex acme"), or occurrences overlap ("aa" in "aaa").
_BOUNDARY_NAMES = [
    "acme", "aa", "a.a", "-acme-", ".net", "acme.", "(acme)", "acme_co", "_a", "x_", "3m",
    "7-eleven", "m3", "ünited", "straße", "東京", "'s", "acme acme",
]
_BOUNDARY_PIECES = _BOUNDARY_NAMES + [
    "acmex", "xacme", "aaa", "a", "x", "_", "-", ".", "(", "é", "2", "東", "\u00a0", "\u3000",
]


@pytest.mark.parametrize("name, news, start", [
    ("acme", "acmex acme", 6),
    ("acme", "xacme acme_ acme", 12),
    ("aa", "aaa", -1),
    ("aa", "aaa aa", 4),
    ("a.a", "xa.a.a", 3),
    ("-acme-", "x-acme-", -1),
    ("-acme-", "x -acme- y x-acme-y", 12),
    ("_a", "b_a _a", 4),
    ("東京", "在東京 東京", 4),
])
def test_bounded_find_is_the_word_bounded_regex_search(name, news, start):
    assert backends_module._find_bounded(news, name) == start
    assert oracles.search_by_regex(news, name) == start


def test_bounded_find_matches_regex_search_fuzz():
    rng = random.Random(12)
    for _ in range(3000):
        news = "".join(rng.choice(_BOUNDARY_PIECES + [" ", ""]) for _ in range(rng.randint(1, 10)))
        name = rng.choice(_BOUNDARY_NAMES)
        assert backends_module._find_bounded(news, name) == oracles.search_by_regex(news, name), (
            name, news)


def test_scripted_backend_extraction_matches_per_name_search_on_boundary_names():
    rng = random.Random(13)
    descriptions = {name: f"about {name}" for name in _BOUNDARY_NAMES}
    backend = _scripted(descriptions)
    for _ in range(600):
        pieces = [rng.choice(_BOUNDARY_PIECES) for _ in range(rng.randint(1, 12))]
        news = pieces[0] + "".join(rng.choice([" ", "", ", ", "-", "\n", "\u2003"]) + p
                                   for p in pieces[1:])
        if not news.strip():
            continue
        assert backend.complete(_extract_request(news)).text == oracles.extract_by_name(
            descriptions, news), news


def test_scripted_backend_extraction_matches_per_name_search_on_fixtures(gazetteer):
    fixture_descriptions = {name: entry["description"] for name, entry in gazetteer.items()}
    tricky_descriptions = {name: f"about {name}" for name in _TRICKY_NAMES}
    backends = [(d, _scripted(d)) for d in (fixture_descriptions, tricky_descriptions)]
    for path in (NEWS_PATH, DEDUP_NEWS_PATH):
        for record in oracles.read_jsonl(path):
            for news in (article_payload(record["title"], record["body"]),
                         record["title"] + "\n\n" + record["body"]):
                for descriptions, backend in backends:
                    assert backend.complete(_extract_request(news)).text == oracles.extract_by_name(
                        descriptions, news), record["id"]


def test_scripted_backend_token_accounting(gazetteer_backend):
    request = _extract_request("bechtel hired aecom.")
    response = gazetteer_backend.complete(request)
    assert response.input_tokens > 0
    assert response.output_tokens > 0
    assert response.latency_ms == 0


# -- replay and record ----------------------------------------------------------


def _replay(path):
    """The backend that --backend replay:PATH builds."""
    backend, input_path = _make_backend(f"replay:{path}", argparse.Namespace(cassette=None))
    assert input_path == str(path)
    assert isinstance(backend, ScriptedBackend) and backend.script.gazetteer == {}
    return backend


def test_replay_backend_hits_and_misses(tmp_path):
    request = _extract_request("replayable news.")
    cassette = tmp_path / "cassette.jsonl"
    row = {"key": request_key(request.prompt), "response": "1. Acme: stored"}
    cassette.write_text(json.dumps(row) + "\n", encoding="utf-8")
    backend = _replay(cassette)
    assert backend.complete(request).text == "1. Acme: stored"
    missed = _extract_request("never recorded.")
    with pytest.raises(BackendUnavailable, match=request_key(missed.prompt)[:12]):
        backend.complete(missed)


def test_replay_ignores_gazetteer_rows(tmp_path, gazetteer_backend):
    request = _extract_request("bechtel hired aecom.")
    assert gazetteer_backend.complete(request).text  # a script would synthesize this
    cassette = tmp_path / "cassette.jsonl"
    cassette.write_text(json.dumps({"gazetteer": {
        "bechtel": {"description": "builds things", "categories": []},
    }}) + "\n", encoding="utf-8")
    with pytest.raises(BackendUnavailable, match="no script entry for key"):
        _replay(cassette).complete(request)


class CountingBackend:
    """Live stand-in that counts calls and varies output per call."""

    def __init__(self):
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        text = f"1. Acme: answer {self.calls}"
        return BackendResponse(text=text, input_tokens=1, output_tokens=1, latency_ms=0)


def test_recording_backend_appends_and_dedups(tmp_path):
    cassette = tmp_path / "cassette.jsonl"
    cassette.touch()
    live = CountingBackend()
    backend = RecordingBackend(live, str(cassette))
    request = _extract_request("record me.")

    first = backend.complete(request)
    second = backend.complete(request)
    assert first.text == "1. Acme: answer 1"
    assert second.text == first.text
    assert live.calls == 1

    backend.complete(_extract_request("different news."))
    assert live.calls == 2

    script = load_script(str(cassette))
    assert len(script.entries) == 2
    key = request_key(request.prompt)
    assert script.entries[key] == "1. Acme: answer 1"


def test_recorded_cassette_replays_identically(tmp_path):
    cassette = tmp_path / "cassette.jsonl"
    recorder = RecordingBackend(CountingBackend(), str(cassette))
    requests_ = [_extract_request(f"news item {i}.") for i in range(5)]
    recorded = [recorder.complete(r).text for r in requests_]

    replayer = _replay(cassette)
    replayed = [replayer.complete(r).text for r in requests_]
    assert replayed == recorded


class GatedBackend:
    """Live backend that answers differently on each call; the first call
    returns only after release is set."""

    def __init__(self):
        self.calls = 0
        self.first_entered = threading.Event()
        self.release = threading.Event()
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.calls += 1
            n = self.calls
        if n == 1:
            self.first_entered.set()
            self.release.wait(5)
        return BackendResponse(text=f"1. Acme: answer {n}", input_tokens=1, output_tokens=1,
                               latency_ms=0)


def test_recording_backend_same_key_race_returns_recorded_text(tmp_path):
    cassette = tmp_path / "cassette.jsonl"
    live = GatedBackend()
    backend = RecordingBackend(live, str(cassette))
    request = _extract_request("raced.")
    results = {}
    first = threading.Thread(target=lambda: results.update(first=backend.complete(request).text))
    first.start()
    assert live.first_entered.wait(5)
    results["second"] = backend.complete(request).text  # recorded while the first waits
    live.release.set()
    first.join(5)
    assert live.calls == 2
    recorded = load_script(str(cassette)).entries[request_key(request.prompt)]
    assert recorded == "1. Acme: answer 2"
    assert results == {"first": recorded, "second": recorded}


def test_recording_backend_sort_cassette_orders_by_key(tmp_path):
    cassette = tmp_path / "cassette.jsonl"
    recorder = RecordingBackend(CountingBackend(), str(cassette))
    for i in range(6):
        recorder.complete(_extract_request(f"news item {i}."))
    before = load_script(str(cassette)).entries
    recorder.sort_cassette()
    lines = cassette.read_text(encoding="utf-8").splitlines()
    keys = [json.loads(line)["key"] for line in lines]
    assert keys == sorted(before)
    assert load_script(str(cassette)).entries == before
    assert os.listdir(tmp_path) == ["cassette.jsonl"]


def test_recording_backend_write_failure(tmp_path):
    backend = RecordingBackend(CountingBackend(), str(tmp_path / "no" / "dir" / "c.jsonl"))
    with pytest.raises(CassetteWriteError):
        backend.complete(_extract_request())
    with pytest.raises(CassetteWriteError):
        backend.sort_cassette()


# -- http backend -----------------------------------------------------------------


_STUB_REPLY = {
    "choices": [{"message": {"content": "Yes"}}],
    "usage": {"prompt_tokens": 11, "completion_tokens": 1},
}


_SURROGATE_REPLY = b'{"choices": [{"message": {"content": "1. Acme \\ud800 Corp: a supplier"}}]}'


class _StubHandler(BaseHTTPRequestHandler):
    # Status codes, consumed per request; the last repeats. "slow" answers
    # 200 after sleeping slow_s; "drop" closes the connection unanswered.
    plan = []
    requests_seen = []
    reply = _STUB_REPLY  # body of every 200 reply; bytes are sent as they are
    error_body = b""  # body of every non-200 reply
    retry_after = None  # Retry-After header of every non-200 reply, if set
    slow_s = 0.5

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        type(self).requests_seen.append(
            {"body": json.loads(raw) if raw else {}, "raw": raw,
             "auth": self.headers.get("Authorization")}
        )
        status = self.plan[min(len(self.requests_seen) - 1, len(self.plan) - 1)]
        if status == "drop":
            self.close_connection = True
            return
        if status == "slow":
            time.sleep(self.slow_s)
            status = 200
        if status != 200:
            self.send_response(status)
            if self.retry_after is not None:
                self.send_header("Retry-After", self.retry_after)
            if self.error_body:
                self.send_header("Content-Length", str(len(self.error_body)))
            self.end_headers()
            self.wfile.write(self.error_body)
            return
        payload = self.reply if isinstance(self.reply, bytes) else json.dumps(self.reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def handle(self):
        try:
            super().handle()
        except OSError:
            pass  # the client timed out and hung up on a "slow" reply

    def log_message(self, *args):
        pass


@pytest.fixture
def http_stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    _StubHandler.plan = [200]
    _StubHandler.requests_seen = []
    _StubHandler.reply = _STUB_REPLY
    _StubHandler.error_body = b""
    _StubHandler.retry_after = None
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    server.shutdown()
    thread.join()
    server.server_close()


def test_http_backend_success(http_stub):
    backend = HttpBackend(http_stub, api_key="sk-test", model="m1", backoff_base_s=0)
    response = backend.complete(_classify_request("acme", "builds", "construction contractor"))
    assert response.text == "Yes"
    assert response.input_tokens == 11
    assert response.output_tokens == 1

    seen = _StubHandler.requests_seen[0]
    assert seen["auth"] == "Bearer sk-test"
    assert seen["body"]["model"] == "m1"
    assert seen["body"]["temperature"] == 0.0
    assert seen["body"]["max_tokens"] == 512
    assert [m["role"] for m in seen["body"]["messages"]] == ["system", "user"]
    assert "acme" in seen["body"]["messages"][1]["content"]


def test_http_backend_posts_json_dumps_bytes(http_stub):
    """The body's bytes are what the requests library sent for json=; the
    benchmark stub picks the requests it fails by hashing them."""
    request = _classify_request("acmé", "builds", "construction contractor")
    HttpBackend(http_stub, api_key="sk-test", model="m1", backoff_base_s=0).complete(request)
    expected = {
        "messages": [
            {"role": "system", "content": request.prompt.system},
            {"role": "user", "content": request.prompt.user + "\n\n" + request.prompt.question},
        ],
        "temperature": 0.0,
        "max_tokens": 512,
        "model": "m1",
    }
    (seen,) = _StubHandler.requests_seen
    assert seen["raw"] == json.dumps(expected, allow_nan=False).encode()
    assert seen["auth"] == "Bearer sk-test"


def test_http_backend_sends_no_authorization_without_key(http_stub):
    HttpBackend(http_stub, backoff_base_s=0).complete(_classify_request("a", "b", "c"))
    assert _StubHandler.requests_seen[0]["auth"] is None


def test_http_backend_retries_a_reply_past_the_timeout(http_stub):
    _StubHandler.plan = ["slow", 200]
    backend = HttpBackend(http_stub, timeout_s=0.1, retry_cap=1, backoff_base_s=0)
    response = backend.complete(_classify_request("acme", "builds", "legal counsel"))
    assert response.text == "Yes"
    assert len(_StubHandler.requests_seen) == 2


def test_http_backend_counts_timed_out_attempts(http_stub):
    _StubHandler.plan = ["slow"]
    backend = HttpBackend(http_stub, timeout_s=0.1, retry_cap=1, backoff_base_s=0)
    with pytest.raises(BackendUnavailable) as err:
        backend.complete(_classify_request("acme", "builds", "legal counsel"))
    assert err.value.attempts == 2
    assert "after 2 attempts: TimeoutError" in str(err.value)
    assert len(_StubHandler.requests_seen) == 2


def test_http_backend_retries_a_dropped_connection(http_stub):
    _StubHandler.plan = ["drop", 200]
    backend = HttpBackend(http_stub, retry_cap=1, backoff_base_s=0)
    response = backend.complete(_classify_request("acme", "builds", "legal counsel"))
    assert response.text == "Yes"
    assert len(_StubHandler.requests_seen) == 2


def test_http_backend_retries_503_with_body(http_stub):
    _StubHandler.plan = [503, 200]
    _StubHandler.error_body = b'{"error": "overloaded"}'
    backend = HttpBackend(http_stub, retry_cap=3, backoff_base_s=0)
    response = backend.complete(_classify_request("acme", "builds", "legal counsel"))
    assert response.text == "Yes"
    assert len(_StubHandler.requests_seen) == 2


def test_http_backend_non_utf8_reply_is_unavailable(http_stub):
    _StubHandler.reply = b'{"choices": [{"message": {"content": "caf\xe9"}}]}'
    backend = HttpBackend(http_stub, retry_cap=3, backoff_base_s=0)
    with pytest.raises(BackendUnavailable) as err:
        backend.complete(_classify_request("acme", "builds", "legal counsel"))
    assert err.value.attempts == 1
    assert "malformed backend response" in str(err.value)


def test_http_backend_retries_then_succeeds(http_stub):
    _StubHandler.plan = [500, 429, 200]
    backend = HttpBackend(http_stub, retry_cap=3, backoff_base_s=0)
    response = backend.complete(_classify_request("acme", "builds", "legal counsel"))
    assert response.text == "Yes"
    assert len(_StubHandler.requests_seen) == 3


@pytest.mark.parametrize("status, header, waited", [
    (503, "1", 1.0),  # longer than the first backoff step
    (429, "2", 2.0),
    (503, "7", 2.0),  # capped at the longest step: 0.5 * 2 ** (3 - 1)
    (503, "0", None),  # shorter than the backoff
    (503, "soon", None),
    (503, "1.5", None),
    (503, "-1", None),
    (503, "Wed, 21 Oct 2015 07:28:00 GMT", None),  # HTTP-date: not read
    (503, "9" * 5000, 2.0),
    (500, "2", None),  # only 429 and 503 carry it
], ids=["longer", "429", "capped", "shorter", "word", "fraction", "negative", "http-date",
        "huge", "500"])
def test_http_backend_honours_retry_after(http_stub, monkeypatch, status, header, waited):
    _StubHandler.plan = [status, 200]
    _StubHandler.retry_after = header
    sleeps = []
    monkeypatch.setattr("supplygraph.backends.time.sleep", sleeps.append)
    backend = HttpBackend(http_stub, retry_cap=3, backoff_base_s=0.5)
    assert backend.complete(_classify_request("acme", "builds", "legal counsel")).text == "Yes"
    (slept,) = sleeps
    if waited is None:  # the first backoff step, 0.5 s, plus up to 0.5 s of jitter
        assert 0.5 <= slept <= 1.0
    else:
        assert slept == waited


def test_http_backend_retry_after_applies_to_the_next_attempt_only(http_stub, monkeypatch):
    _StubHandler.plan = [503, "drop", 200]
    _StubHandler.retry_after = "2"
    sleeps = []
    monkeypatch.setattr("supplygraph.backends.time.sleep", sleeps.append)
    backend = HttpBackend(http_stub, retry_cap=3, backoff_base_s=0.5)
    assert backend.complete(_classify_request("acme", "builds", "legal counsel")).text == "Yes"
    assert sleeps[0] == 2.0
    assert 1.0 <= sleeps[1] <= 1.5  # the second backoff step and jitter


def test_http_backend_exhausts_retry_cap(http_stub):
    _StubHandler.plan = [500]
    backend = HttpBackend(http_stub, retry_cap=3, backoff_base_s=0)
    with pytest.raises(BackendUnavailable) as err:
        backend.complete(_classify_request("acme", "builds", "legal counsel"))
    assert err.value.attempts == 4  # one try plus retry_cap
    assert len(_StubHandler.requests_seen) == 4


def test_http_backend_client_error_is_not_retried(http_stub):
    _StubHandler.plan = [404]
    backend = HttpBackend(http_stub, retry_cap=3, backoff_base_s=0)
    with pytest.raises(BackendUnavailable) as err:
        backend.complete(_classify_request("acme", "builds", "legal counsel"))
    assert err.value.attempts == 1
    assert len(_StubHandler.requests_seen) == 1


def test_http_backend_null_usage_counts_as_absent(http_stub):
    _StubHandler.reply = {"choices": [{"message": {"content": "Yes"}}], "usage": None}
    response = HttpBackend(http_stub, backoff_base_s=0).complete(
        _classify_request("acme", "builds", "legal counsel"))
    assert (response.text, response.input_tokens, response.output_tokens) == ("Yes", 0, 1)


@pytest.mark.parametrize(
    "reply",
    [
        {"choices": [{"message": {"content": None}}]},
        {"choices": [{"message": {"content": "Yes"}}], "usage": {"prompt_tokens": "many"}},
        {"choices": [{"message": {"content": "Yes"}}], "usage": {"completion_tokens": 1.5}},
        {"choices": [{"message": {"content": "Yes"}}], "usage": [11, 1]},
        # A lone surrogate, which UTF-8 cannot encode, sent as the JSON escape.
        _SURROGATE_REPLY,
    ],
)
def test_http_backend_malformed_reply_is_unavailable(http_stub, reply):
    _StubHandler.reply = reply
    backend = HttpBackend(http_stub, retry_cap=3, backoff_base_s=0)
    with pytest.raises(BackendUnavailable) as err:
        backend.complete(_classify_request("acme", "builds", "legal counsel"))
    assert err.value.attempts == 1
    assert len(_StubHandler.requests_seen) == 1


def test_http_backend_malformed_reply_message_quotes_a_bounded_excerpt(http_stub):
    content = "1. Acme: " + "x" * 4980 + "\ud800" + "y" * 10
    _StubHandler.reply = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
    backend = HttpBackend(http_stub, retry_cap=3, backoff_base_s=0)
    with pytest.raises(BackendUnavailable) as err:
        backend.complete(_classify_request("acme", "builds", "legal counsel"))
    message = str(err.value)
    assert message.startswith("malformed backend response: content: ")
    assert "holds U+D800 at offset 4989, which UTF-8 cannot hold" in message
    assert len(message) < 200


def test_http_backend_malformed_reply_counts_every_attempt(http_stub):
    _StubHandler.plan = [503, 503, 200]
    _StubHandler.reply = {"choices": [{"message": {"content": None}}]}
    backend = HttpBackend(http_stub, retry_cap=3, backoff_base_s=0)
    with pytest.raises(BackendUnavailable) as err:
        backend.complete(_classify_request("acme", "builds", "legal counsel"))
    assert err.value.attempts == 3
    assert len(_StubHandler.requests_seen) == 3


def test_crawl_counts_a_reply_the_outputs_cannot_hold_as_a_backend_failure(http_stub, tmp_path):
    # Each of bechtel's three articles gets the reply; before, the crawl
    # finished and save_state (or the cassette append) raised on it.
    _StubHandler.reply = _SURROGATE_REPLY
    out = tmp_path / "run"
    assert main([
        "crawl", "--corpus", NEWS_PATH, "--backend", http_stub, "--out", str(out),
        "--seeds", "bechtel", "--year-start", "2019", "--year-end", "2021",
        "--per-year-min", "1", "--http-backoff", "0", "--cassette", str(tmp_path / "c.jsonl"),
    ]) == 0
    report = json.loads((out / "crawl_report.json").read_text(encoding="utf-8"))
    assert report["stats"]["articles_processed"] == 3
    assert report["stats"]["backend_failures"] == 3
    assert len(_StubHandler.requests_seen) == 3
    for name in ("graph.json", "graph.graphml", "manifest.json"):
        assert (out / name).is_file(), name


def test_crawl_keeps_a_reply_with_control_characters(http_stub, tmp_path):
    # The name loses nothing and the description its controls; graph.json and
    # the cassette hold the reply's text.
    _StubHandler.reply = {"choices": [{"message": {
        "content": "1. TxDOT: a state agency\x0c that\x01 builds roads"}}]}
    out = tmp_path / "run"
    assert main([
        "crawl", "--corpus", NEWS_PATH, "--backend", http_stub, "--out", str(out),
        "--seeds", "bechtel", "--year-start", "2019", "--year-end", "2021",
        "--per-year-min", "1", "--http-backoff", "0", "--cassette", str(tmp_path / "c.jsonl"),
    ]) == 0
    report = json.loads((out / "crawl_report.json").read_text(encoding="utf-8"))
    assert report["stats"]["backend_failures"] == 0
    graph = load_state(str(out / "graph.json"))
    assert "txdot" in graph.nodes
    xml.dom.minidom.parse(str(out / "graph.graphml"))


def test_http_backend_connection_refused_counts_attempts():
    backend = HttpBackend("http://127.0.0.1:1/unreachable", retry_cap=2, backoff_base_s=0)
    with pytest.raises(BackendUnavailable) as err:
        backend.complete(_classify_request("acme", "builds", "legal counsel"))
    assert err.value.attempts == 3


def test_http_backend_from_env(monkeypatch):
    monkeypatch.delenv("SUPPLYGRAPH_ENDPOINT", raising=False)
    with pytest.raises(ValueError):
        HttpBackend.from_env()
    monkeypatch.setenv("SUPPLYGRAPH_ENDPOINT", "http://example.invalid/v1")
    monkeypatch.setenv("SUPPLYGRAPH_API_KEY", "sk-abc")
    monkeypatch.setenv("SUPPLYGRAPH_MODEL", "m2")
    backend = HttpBackend.from_env(retry_cap=0)
    assert backend.endpoint == "http://example.invalid/v1"
    assert backend.model == "m2"
    monkeypatch.delenv("SUPPLYGRAPH_ENDPOINT")
    backend = HttpBackend.from_env(endpoint="http://other.invalid/v1", retry_cap=0)
    assert (backend.endpoint, backend.model) == ("http://other.invalid/v1", "m2")


def test_http_backend_rejects_empty_endpoint():
    with pytest.raises(ValueError):
        HttpBackend("")


@pytest.mark.parametrize(
    "endpoint, kwargs",
    [
        ("ftp://example.invalid/v1", {}),
        ("example.invalid/v1", {}),
        ("http://example.invalid/v1", {"retry_cap": -1}),
        ("http://example.invalid/v1", {"timeout_s": 0}),
        ("http://example.invalid/v1", {"timeout_s": -1.0}),
        ("http://example.invalid/v1", {"backoff_base_s": -0.1}),
        ("http://example.invalid/v1", {"in_flight": 0}),
    ],
    ids=["ftp", "no-scheme", "retry-cap", "timeout-zero", "timeout-negative", "backoff",
         "in-flight"],
)
def test_http_backend_rejects_bad_arguments(endpoint, kwargs):
    with pytest.raises(ValueError):
        HttpBackend(endpoint, **kwargs)


# -- the package without requests ----------------------------------------------------

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(supplygraph.__file__)))


def _run_python(code):
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)


def test_http_backend_runs_without_requests(http_stub):
    code = f"""
import sys
sys.modules["requests"] = None  # any import of requests now fails
import supplygraph
from supplygraph.backends import BackendRequest
from supplygraph.prompting import build_classification_prompt
prompt = build_classification_prompt("acme", "builds", "legal counsel")
print(supplygraph.HttpBackend({http_stub!r}, backoff_base_s=0).complete(BackendRequest(prompt)).text)
"""
    done = _run_python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "Yes\n"
    assert len(_StubHandler.requests_seen) == 1


def test_import_leaves_requests_unloaded():
    done = _run_python("import sys, supplygraph; print('requests' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "pyproject.toml")
    with open(path, "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []
