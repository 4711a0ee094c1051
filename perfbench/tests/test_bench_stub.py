import json
import os
import random
import subprocess
import sys
import urllib.request

import gen
import stub
from supplygraph.backends import (
    BackendRequest, GazetteerEntry, HttpBackend, ScriptedBackend, ScriptFile,
)
from supplygraph.classify import DEFAULT_CATEGORIES
from supplygraph.crawler import article_payload
from supplygraph.prompting import build_classification_prompt, build_extraction_prompt

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _small():
    rng = random.Random(11)
    names = gen.make_names(rng, 12, gen.forbidden_words())
    gazetteer = gen.make_gazetteer(rng, names, DEFAULT_CATEGORIES)
    articles, _ = gen.make_corpus(rng, names[:8], (2019, 2020), runon_every=4, runon_words=200)
    script = ScriptFile(gazetteer={
        n: GazetteerEntry(e["description"], frozenset(e["categories"])) for n, e in gazetteer.items()
    })
    return gazetteer, articles, ScriptedBackend(script)


def _user(prompt):
    return prompt.user + "\n\n" + prompt.question


def test_stub_answers_equal_scripted_backend():
    gazetteer, articles, scripted = _small()
    answerer = stub.Answerer(gazetteer)
    for article in articles:
        prompt = build_extraction_prompt(article_payload(article["title"], article["body"]), "rail")
        want = scripted.complete(BackendRequest(prompt=prompt)).text
        assert want and answerer.answer(_user(prompt)) == want
    for name, entry in gazetteer.items():
        for category in DEFAULT_CATEGORIES:
            prompt = build_classification_prompt(name, entry["description"], category)
            want = scripted.complete(BackendRequest(prompt=prompt)).text
            assert answerer.answer(_user(prompt)) == want


def test_stub_server_round_trip_counts_retries(tmp_path):
    gazetteer, articles, scripted = _small()
    path = tmp_path / "gazetteer.jsonl"
    gen.write_gazetteer(gazetteer, path)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "stub.py"), "--gazetteer", str(path),
         "--latency-ms", "1", "--fail-every", "1"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        port = int(proc.stdout.readline().split()[1])
        backend = HttpBackend(f"http://127.0.0.1:{port}/v1/chat/completions",
                              backoff_base_s=0.001, timeout_s=10)
        prompt = build_extraction_prompt(article_payload(articles[0]["title"], articles[0]["body"]), "rail")
        got = backend.complete(BackendRequest(prompt=prompt))
        assert got.text == scripted.complete(BackendRequest(prompt=prompt)).text
        assert got.input_tokens > 0
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/stats", timeout=10) as resp:
            stats = json.loads(resp.read())
        # --fail-every 1 fails every request once: one 503, then the answer.
        assert stats == {"connections": 2, "requests": 2, "unavailable": 1}
    finally:
        proc.stdin.close()  # the stub stops on end of input
        proc.wait(timeout=10)
        proc.stdout.close()
    assert proc.returncode == 0
