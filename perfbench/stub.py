"""Chat-completion stub with injected latency, answering from a gazetteer.

Run as its own process so its work never competes with the measured process
for the interpreter lock:

    python3 perfbench/stub.py --gazetteer GAZ.jsonl --latency-ms 10 --fail-every 50

It prints ``PORT <n>`` once it listens on 127.0.0.1 and serves until it is
terminated or its standard input closes. ``POST /v1/chat/completions``
answers the request shape ``HttpBackend`` sends. ``POST /reset`` forgets which requests already failed
and zeroes the counters; ``GET /stats`` returns them.

Answers come from one compiled alternation over the gazetteer, independently
of the package's ``ScriptedBackend``, so a change there moves only the
scripted workload. Names in a generated gazetteer never share a token, so the
alternation finds the same names in the same first-occurrence order as
per-name word-boundary searches.
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

_QUESTION_RE = re.compile(
    r"^Is this entity (?P<name>.+) mentioned in the description belonging to a "
    r"(?P<category>.+)\?$",
    re.DOTALL,
)


class Answerer:
    """Extraction and yes/no answers for one gazetteer."""

    def __init__(self, gazetteer: dict[str, dict]):
        self.gazetteer = gazetteer
        names = sorted(gazetteer, key=len, reverse=True)
        self._names_re = re.compile(r"\b(?:" + "|".join(re.escape(n) for n in names) + r")\b")

    def answer(self, user: str) -> str:
        """Answer the user message HttpBackend sends: prompt user part, blank line, question."""
        body, _, question = user.rpartition("\n\n")
        m = _QUESTION_RE.match(question)
        if m:
            entry = self.gazetteer.get(m.group("name"))
            return "Yes" if entry is not None and m.group("category") in entry["categories"] else "No"
        found: list[str] = []
        for match in self._names_re.finditer(body):
            if match.group(0) not in found:
                found.append(match.group(0))
        return "\n".join(
            f"{i}. {name}: {self.gazetteer[name]['description']}"
            for i, name in enumerate(found, 1)
        )


def _tokens(text: str) -> int:
    return int(len(text.split()) * 1.3)


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, answerer: Answerer, latency_s: float, fail_every: int):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.answerer = answerer
        self.latency_s = latency_s
        self.fail_every = fail_every
        self.lock = threading.Lock()
        self.failed_once: set[str] = set()
        self.counters = {"connections": 0, "requests": 0, "unavailable": 0}

    def count(self, key: str) -> None:
        with self.lock:
            self.counters[key] += 1

    def first_failure(self, body: bytes) -> bool:
        """True on the first attempt of a request whose content hash is selected."""
        if not self.fail_every:
            return False
        digest = hashlib.sha256(body).hexdigest()
        if int(digest[:8], 16) % self.fail_every:
            return False
        with self.lock:
            if digest in self.failed_once:
                return False
            self.failed_once.add(digest)
            return True


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: StubServer

    def setup(self) -> None:
        super().setup()
        self._counted = False

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - base signature
        pass

    def _send(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:
        if self.path != "/stats":
            self._send(404, {"error": "not found"})
            return
        with self.server.lock:
            self._send(200, dict(self.server.counters))

    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/reset":
            with self.server.lock:
                self.server.failed_once.clear()
                self.server.counters = dict.fromkeys(self.server.counters, 0)
            self._send(200, {})
            return
        if not self._counted:
            # Connections are counted when they carry a completion, so the
            # control requests above never inflate the count.
            self._counted = True
            self.server.count("connections")
        self.server.count("requests")
        # An overloaded server refuses at once; only answers wait.
        if self.server.first_failure(body):
            self.server.count("unavailable")
            self._send(503, {"error": "unavailable"})
            return
        time.sleep(self.server.latency_s)
        try:
            messages = json.loads(body)["messages"]
            system, user = messages[0]["content"], messages[1]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            self._send(400, {"error": "bad request"})
            return
        text = self.server.answerer.answer(user)
        self._send(200, {
            "choices": [{"message": {"role": "assistant", "content": text}}],
            "usage": {
                "prompt_tokens": _tokens(system) + _tokens(user),
                "completion_tokens": _tokens(text),
            },
        })


def load_gazetteer(path: str) -> dict[str, dict]:
    gazetteer: dict[str, dict] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                gazetteer.update(json.loads(line).get("gazetteer", {}))
    return gazetteer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gazetteer", required=True)
    parser.add_argument("--latency-ms", type=float, default=10.0)
    parser.add_argument("--fail-every", type=int, default=50,
                        help="fail the first attempt of 1 in N requests (0: never)")
    args = parser.parse_args(argv)
    server = StubServer(Answerer(load_gazetteer(args.gazetteer)), args.latency_ms / 1000,
                        args.fail_every)
    print(f"PORT {server.server_address[1]}", flush=True)
    # Stop when the parent closes stdin or dies, so no stub outlives its run.
    threading.Thread(target=lambda: (sys.stdin.read(), server.shutdown()), daemon=True).start()
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
