from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from shared import GAZETTEER_PATH, LABELS_PATH, NEWS_PATH
from supplygraph import cli
from supplygraph.backends import BackendResponse, ScriptedBackend, load_script
from supplygraph.cli import (
    EXIT_BACKEND,
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_UNKNOWN_ENTITY,
    main,
)
from supplygraph.graph import load_state


def _crawl_args(out, **extra):
    args = [
        "crawl",
        "--corpus", NEWS_PATH,
        "--backend", f"script:{GAZETTEER_PATH}",
        "--out", str(out),
        "--seeds", "bechtel",
        "--year-start", "2019",
        "--year-end", "2021",
        "--per-year-min", "1",
    ]
    for flag, value in extra.items():
        args.append("--" + flag.replace("_", "-"))
        if value is not None:
            args.append(str(value))
    return args


def _crawl(out, **extra):
    return main(_crawl_args(out, **extra))


# -- crawl ---------------------------------------------------------------------


def test_crawl_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    assert _crawl(out) == EXIT_OK
    for name in ("graph.json", "graph.graphml", "crawl_report.json", "manifest.json"):
        assert (out / name).is_file(), name
    stdout = capsys.readouterr().out
    assert "crawl finished: exhausted" in stdout
    assert "nodes=12" in stdout

    graph = load_state(str(out / "graph.json"))
    assert len(graph.nodes) == 12
    assert len(graph.edges) == 35

    report = json.loads((out / "crawl_report.json").read_text(encoding="utf-8"))
    assert report["termination_reason"] == "exhausted"
    assert report["stats"]["articles_processed"] == 36
    assert report["config"]["seeds"] == ["bechtel"]


def test_crawl_runs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert _crawl(out1) == EXIT_OK
    assert _crawl(out2) == EXIT_OK
    for name in ("graph.json", "graph.graphml"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    m1 = json.loads((out1 / "manifest.json").read_text(encoding="utf-8"))
    m2 = json.loads((out2 / "manifest.json").read_text(encoding="utf-8"))
    # identical content digests; created_at and paths are allowed to differ
    assert [o["sha256"] for o in m1["outputs"]] == [o["sha256"] for o in m2["outputs"]]
    assert m1["config"] == m2["config"]


def test_crawl_manifest_records_inputs_and_excludes(tmp_path):
    out = tmp_path / "run"
    assert _crawl(out) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "crawl"
    assert manifest["backend"] == f"script:{GAZETTEER_PATH}"
    assert "created_at" in manifest
    input_paths = {entry["path"] for entry in manifest["inputs"]}
    assert os.path.abspath(NEWS_PATH) in input_paths
    assert os.path.abspath(GAZETTEER_PATH) in input_paths
    for entry in manifest["inputs"]:
        assert len(entry["sha256"]) == 64
    report_entry = next(
        e for e in manifest["outputs"] if e["path"].endswith("crawl_report.json")
    )
    assert report_entry["digest_excludes"] == ["duration_ms"]


def test_crawl_fail_on_budget(tmp_path, capsys):
    out = tmp_path / "run"
    code = _crawl(out, max_nodes=1, fail_on_budget=None)
    assert code == EXIT_BUDGET
    assert "budget abort: node budget" in capsys.readouterr().err
    # outputs still written for inspection
    assert (out / "graph.json").is_file()


def test_crawl_fail_on_budget_when_budget_cuts_the_last_keyword(tmp_path, capsys):
    # 35 of the crawl's 36 articles: the frontier is empty when the budget
    # leaves the last article unapplied.
    out = tmp_path / "run"
    assert _crawl(out, max_articles=35, fail_on_budget=None) == EXIT_BUDGET
    assert "budget abort: article budget" in capsys.readouterr().err
    report = json.loads((out / "crawl_report.json").read_text(encoding="utf-8"))
    assert report["termination_reason"] == "article budget"
    assert report["stats"]["articles_processed"] == 35


def test_crawl_budget_without_flag_is_success(tmp_path):
    out = tmp_path / "run"
    assert _crawl(out, max_nodes=1) == EXIT_OK


def test_crawl_config_file_and_flag_precedence(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "seeds": ["aconex"],
        "year_range": [2019, 2021],
        "per_year_min": 1,
        "max_articles": 2,
    }), encoding="utf-8")
    out = tmp_path / "run"
    code = main([
        "crawl",
        "--corpus", NEWS_PATH,
        "--backend", f"script:{GAZETTEER_PATH}",
        "--out", str(out),
        "--config", str(config_path),
        "--seeds", "bechtel",  # flag beats the config file
    ])
    assert code == EXIT_OK
    report = json.loads((out / "crawl_report.json").read_text(encoding="utf-8"))
    assert report["config"]["seeds"] == ["bechtel"]
    assert report["config"]["year_range"] == [2019, 2021]
    assert report["config"]["max_articles"] == 2
    assert report["stats"]["articles_processed"] == 2

    # A report's config block is a valid config file for the same crawl.
    config_path.write_text(json.dumps(report["config"]), encoding="utf-8")
    again = tmp_path / "again"
    assert main([
        "crawl",
        "--corpus", NEWS_PATH,
        "--backend", f"script:{GAZETTEER_PATH}",
        "--out", str(again),
        "--config", str(config_path),
    ]) == EXIT_OK
    assert (again / "graph.json").read_bytes() == (out / "graph.json").read_bytes()

    # The file takes exactly the report's config keys, with the right types.
    for bad in (
        {"seeds": "aecom"},
        {"seeds": ["aecom", 7]},
        {"max_nodes": [3]},
        {"max_nodes": True},
        {"per_year_min": "1"},
        {"year_range": [2019]},
        {"year_range": 2019},
        {"year_start": 2019},
        {"max_node": 3},
    ):
        config_path.write_text(json.dumps(bad), encoding="utf-8")
        seed_flags = [] if "seeds" in bad else ["--seeds", "bechtel"]
        for year_flags in ([], ["--year-start", "2019"]):
            code = main([
                "crawl",
                "--corpus", NEWS_PATH,
                "--backend", f"script:{GAZETTEER_PATH}",
                "--out", str(tmp_path / "bad"),
                "--config", str(config_path),
            ] + seed_flags + year_flags)
            assert code == EXIT_CONFIG, (bad, year_flags)

    # A file that is not a JSON object is an input error naming the file.
    for text, message in (
        ('{"seeds": ["bechtel"],\n bad}\n',
         f"bad config JSON: Expecting property name enclosed in double quotes ({config_path}:2)"),
        ("[1]\n", f"config file must hold a JSON object ({config_path})"),
    ):
        config_path.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert main([
            "crawl",
            "--corpus", NEWS_PATH,
            "--backend", f"script:{GAZETTEER_PATH}",
            "--out", str(tmp_path / "bad"),
            "--config", str(config_path),
        ]) == EXIT_CONFIG
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["crawl", "--corpus", "{bad}", "--backend", f"script:{GAZETTEER_PATH}", "--seeds", "bechtel"],
    ["crawl", "--corpus", NEWS_PATH, "--backend", f"script:{GAZETTEER_PATH}", "--config", "{bad}"],
    ["classify", "--state", "{bad}", "--backend", f"script:{GAZETTEER_PATH}"],
    ["export", "--state", "{bad}"],
    ["evaluate", "--dataset", LABELS_PATH, "--predictions", LABELS_PATH, "--taxonomy", "{bad}"],
], ids=["crawl-corpus", "crawl-config", "classify-state", "export-state", "evaluate-taxonomy"])
def test_input_that_is_not_utf8_exits_config_naming_its_file(tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\n")
    out = tmp_path / "out"
    args = [arg.format(bad=bad) for arg in command] + ["--out", str(out)]
    assert main(args) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: not UTF-8: invalid start byte ({bad})\n"
    assert not out.exists()


def test_crawl_requires_seeds(tmp_path, capsys):
    out = tmp_path / "run"
    code = main([
        "crawl",
        "--corpus", NEWS_PATH,
        "--backend", f"script:{GAZETTEER_PATH}",
        "--out", str(out),
    ])
    assert code == EXIT_CONFIG
    assert "seeds are required" in capsys.readouterr().err


@pytest.mark.parametrize("seeds, empty", [("Ltd.", "Ltd."), ("bechtel,!!!", "!!!")])
def test_crawl_seed_with_no_name_left_exits_config_before_work(tmp_path, monkeypatch, capsys,
                                                                seeds, empty):
    live = _live_backend(monkeypatch)
    out = tmp_path / "run"
    assert _crawl(out, seeds=seeds) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"seed {empty!r} has no name left" in err
    assert "--seeds" in err
    assert not out.exists()
    assert live.calls == 0


# A seed the outputs cannot hold: a C0 control, which XML 1.0 forbids in
# graph.graphml, and U+DCFF, the lone surrogate argv decodes the byte 0xff to.
@pytest.mark.parametrize("seeds, code_point", [("acme\x01 corp,bechtel", "U+0001"),
                                               ("bechtel,acme\udcff", "U+DCFF")])
def test_crawl_seed_the_outputs_cannot_hold_exits_config_before_work(tmp_path, monkeypatch,
                                                                     capsys, seeds, code_point):
    live = _live_backend(monkeypatch)
    out = tmp_path / "run"
    assert _crawl(out, seeds=seeds) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: seeds: ")
    assert code_point in err
    assert not out.exists()
    assert live.calls == 0


def test_crawl_missing_corpus_file(tmp_path):
    code = main([
        "crawl",
        "--corpus", str(tmp_path / "missing.jsonl"),
        "--backend", f"script:{GAZETTEER_PATH}",
        "--out", str(tmp_path / "run"),
        "--seeds", "bechtel",
    ])
    assert code == EXIT_CONFIG


def test_crawl_unknown_backend_spec(tmp_path, capsys):
    code = main([
        "crawl",
        "--corpus", NEWS_PATH,
        "--backend", "ftp://nope",
        "--out", str(tmp_path / "run"),
        "--seeds", "bechtel",
    ])
    assert code == EXIT_CONFIG
    assert "unknown backend spec" in capsys.readouterr().err


def test_crawl_applies_alias_file(tmp_path):
    aliases = tmp_path / "aliases.tsv"
    # pre-declare a variant so the crawl folds it into the canonical node
    aliases.write_text("bechtel global\tbechtel\n", encoding="utf-8")
    out = tmp_path / "run"
    assert _crawl(out, aliases=aliases) == EXIT_OK
    graph = load_state(str(out / "graph.json"))
    assert graph.canonicalize("Bechtel Global") == "bechtel"
    assert "bechtel global" in graph.nodes["bechtel"].aliases


@pytest.mark.parametrize(("text", "line", "message"), [
    ("Ltd\tAcme\n", 1,
     "'Ltd' has no name left after stripping punctuation and company suffixes"),
    ("Acme Corp\tBechtel\n# comment\nACME\tAecom\n", 3,
     "variant 'ACME' maps to 'Aecom' here but to 'Bechtel' on line 1"),
    ("Bechtel Global\tBechtel\nAcme Ltd\tAcme\x02 Builders\n", 2,
     "'Acme\\x02 Builders' holds U+0002"),
], ids=["no-name-left", "two-canonicals", "control-character"])
def test_crawl_rejects_bad_alias_file_before_creating_out(tmp_path, capsys, text, line, message):
    aliases = tmp_path / "aliases.tsv"
    aliases.write_text(text, encoding="utf-8")
    out = tmp_path / "run"
    assert _crawl(out, aliases=aliases) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err
    assert f"({aliases}:{line})" in err
    assert not out.exists()


def test_crawl_repeated_article_id_names_file_and_line(tmp_path, capsys):
    with open(NEWS_PATH, encoding="utf-8") as fh:
        first, second = (json.loads(fh.readline()) for _ in range(2))
    second["id"] = first["id"]
    corpus_path = tmp_path / "repeats.jsonl"
    corpus_path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n", encoding="utf-8")
    args = _crawl_args(tmp_path / "run")
    args[args.index("--corpus") + 1] = str(corpus_path)
    assert main(args) == EXIT_CONFIG
    assert f"article id {first['id']!r} repeats ({corpus_path}:2)" in capsys.readouterr().err


def test_crawl_export_format_flag(tmp_path):
    out = tmp_path / "run"
    assert _crawl(out, export_format="dot") == EXIT_OK
    assert (out / "graph.dot").is_file()
    assert not (out / "graph.graphml").exists()


# -- recording, replay and resume ---------------------------------------------------


def _live_backend(monkeypatch, limit: int | None = None, delay_s: float = 0.0) -> SimpleNamespace:
    """Turn script: backends into live stand-ins that count their calls and
    the threads making them, raise KeyboardInterrupt on every call after the
    first ``limit`` and take ``delay_s`` over every other, reporting a 1 ms
    wait when ``delay_s`` is set."""
    counter = SimpleNamespace(calls=0, threads=set())
    lock = threading.Lock()

    class Live(ScriptedBackend):
        def complete(self, request):
            with lock:
                counter.calls += 1
                counter.threads.add(threading.get_ident())
                if limit is not None and counter.calls > limit:
                    raise KeyboardInterrupt
            time.sleep(delay_s)
            return replace(super().complete(request), latency_ms=1 if delay_s else 0)

    monkeypatch.setattr(cli.be, "ScriptedBackend", Live)
    return counter


def _output_digests(out) -> list[str]:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return [entry["sha256"] for entry in manifest["outputs"]]


def _lines(path) -> int:
    return len(path.read_text(encoding="utf-8").splitlines()) if path.exists() else 0


def test_record_is_not_a_command(capsys):
    # Recording is --cassette on crawl and classify, not a subcommand.
    with pytest.raises(SystemExit) as exc:
        main(["record"] + _crawl_args("out")[1:])
    assert exc.value.code == EXIT_CONFIG
    assert "invalid choice: 'record'" in capsys.readouterr().err


def test_record_then_replay_matches(tmp_path):
    rec_out = tmp_path / "rec"
    cassette = tmp_path / "cassette.jsonl"
    assert _crawl(rec_out, cassette=cassette) == EXIT_OK
    assert len(load_script(str(cassette)).entries) == 36  # one per article

    replay_out = tmp_path / "replay"
    assert _crawl(replay_out, backend=f"replay:{cassette}") == EXIT_OK
    assert (rec_out / "graph.json").read_bytes() == (replay_out / "graph.json").read_bytes()
    assert (rec_out / "graph.graphml").read_bytes() == (replay_out / "graph.graphml").read_bytes()


def test_record_keeps_seeded_cassette_answers(tmp_path, monkeypatch):
    full = tmp_path / "full.jsonl"
    assert _crawl(tmp_path / "full", cassette=full) == EXIT_OK
    cassette = tmp_path / "cassette.jsonl"
    seeded = full.read_text(encoding="utf-8").splitlines(keepends=True)[0]
    stale = '{"key": "stale", "response": "junk"}\n'
    cassette.write_text(stale + seeded, encoding="utf-8")
    live = _live_backend(monkeypatch)
    assert _crawl(tmp_path / "rec", cassette=cassette) == EXIT_OK
    assert live.calls == 35  # the seeded answer cost no call
    # both seeded lines stay; "stale" sorts after every hex request key
    assert cassette.read_text(encoding="utf-8") == full.read_text(encoding="utf-8") + stale


def test_record_manifest_includes_cassette(tmp_path):
    rec_out = tmp_path / "rec"
    assert _crawl(rec_out, cassette=rec_out / "cassette.jsonl") == EXIT_OK
    manifest = json.loads((rec_out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "crawl"
    assert manifest["backend"] == f"script:{GAZETTEER_PATH}"
    output_paths = [entry["path"] for entry in manifest["outputs"]]
    assert output_paths[-1] == str(rec_out / "cassette.jsonl")


def test_parallel_record_cassette_bytes_are_stable(tmp_path):
    cassettes = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert _crawl(out, parallelism=4, cassette=out / "cassette.jsonl") == EXIT_OK
        cassettes.append((out / "cassette.jsonl").read_bytes())
    assert cassettes[0] == cassettes[1]
    keys = [json.loads(line)["key"] for line in cassettes[0].decode("utf-8").splitlines()]
    assert len(keys) == 36
    assert keys == sorted(keys)
    assert sorted(os.listdir(tmp_path / "a")) == [
        "cassette.jsonl", "crawl_report.json", "graph.graphml", "graph.json", "manifest.json",
    ]


def test_budgeted_parallel_recording_replays_as_sequential_crawl(tmp_path):
    # Keywords harvested past the budget make this cassette's length depend
    # on timing; what it replays does not.
    cassette = tmp_path / "cassette.jsonl"
    assert _crawl(tmp_path / "rec", parallelism=4, max_nodes=9, cassette=cassette) == EXIT_OK
    assert _crawl(tmp_path / "seq", max_nodes=9) == EXIT_OK
    assert _crawl(tmp_path / "replay", max_nodes=9, backend=f"replay:{cassette}") == EXIT_OK
    for name in ("graph.json", "graph.graphml"):
        assert (tmp_path / "replay" / name).read_bytes() == (tmp_path / "seq" / name).read_bytes()
    assert _output_digests(tmp_path / "replay") == _output_digests(tmp_path / "seq")


def _check_resume(tmp_path, monkeypatch, run) -> int:
    """Interrupt ``run(out, cassette)`` after k live calls, rerun it with the
    same cassette, and compare with an uninterrupted run; its call count."""
    full = _live_backend(monkeypatch)
    assert run(tmp_path / "full", tmp_path / "full.jsonl") == EXIT_OK
    for k in (0, 1, 7, 20, 35):
        out, cassette = tmp_path / f"run{k}", tmp_path / f"cassette{k}.jsonl"
        _live_backend(monkeypatch, limit=k)
        with pytest.raises(KeyboardInterrupt):
            run(out, cassette)
        assert _lines(cassette) == k
        live = _live_backend(monkeypatch)
        assert run(out, cassette) == EXIT_OK
        assert live.calls == full.calls - k, k
        assert _output_digests(out) == _output_digests(tmp_path / "full"), k
    return full.calls


@pytest.mark.parametrize("parallelism", [1, 4])
def test_interrupted_crawl_resumes_from_cassette(tmp_path, monkeypatch, parallelism):
    def crawl(out, cassette):
        return _crawl(out, parallelism=parallelism, cassette=cassette)

    assert _check_resume(tmp_path, monkeypatch, crawl) == 36


def test_interrupted_classify_resumes_from_cassette(tmp_path, monkeypatch, crawled_state):
    def classify(out, cassette):
        return main(["classify", "--state", crawled_state, "--backend", f"script:{GAZETTEER_PATH}",
                     "--out", str(out), "--cassette", str(cassette)])

    assert _check_resume(tmp_path, monkeypatch, classify) > 35


def test_interrupted_concurrent_classify_resumes_from_cassette(tmp_path, monkeypatch,
                                                              crawled_state):
    # Slow answers make classify ask concurrently; the interrupt then lands
    # in one thread while others finish and record the calls they took.
    def classify(out, cassette):
        return main(["classify", "--state", crawled_state, "--backend", f"script:{GAZETTEER_PATH}",
                     "--out", str(out), "--cassette", str(cassette)])

    full = _live_backend(monkeypatch)
    assert classify(tmp_path / "full", tmp_path / "full.jsonl") == EXIT_OK
    for k in (1, 7, 20):
        out, cassette = tmp_path / f"run{k}", tmp_path / f"cassette{k}.jsonl"
        _live_backend(monkeypatch, limit=k, delay_s=0.003)
        with pytest.raises(KeyboardInterrupt):
            classify(out, cassette)
        recorded = _lines(cassette)
        assert recorded >= k
        live = _live_backend(monkeypatch, delay_s=0.003)
        assert classify(out, cassette) == EXIT_OK
        assert len(live.threads) > 1
        assert live.calls == full.calls - recorded, k
        assert _output_digests(out) == _output_digests(tmp_path / "full"), k


@pytest.mark.parametrize("cut", [1, 20], ids=["newline", "mid-line"])
def test_cassette_torn_last_line_is_dropped(tmp_path, monkeypatch, cut):
    full = _live_backend(monkeypatch)
    assert _crawl(tmp_path / "full", cassette=tmp_path / "full.jsonl") == EXIT_OK
    out, cassette = tmp_path / "run", tmp_path / "cassette.jsonl"
    _live_backend(monkeypatch, limit=7)
    with pytest.raises(KeyboardInterrupt):
        _crawl(out, cassette=cassette)
    cassette.write_bytes(cassette.read_bytes()[:-cut])  # the last append was torn
    # A second interruption: its appends must not join the torn line.
    _live_backend(monkeypatch, limit=2)
    with pytest.raises(KeyboardInterrupt):
        _crawl(out, cassette=cassette)
    live = _live_backend(monkeypatch)
    assert _crawl(out, cassette=cassette) == EXIT_OK
    assert live.calls == full.calls - 8
    assert _output_digests(out) == _output_digests(tmp_path / "full")


@pytest.mark.parametrize("content, message", [
    (Path(GAZETTEER_PATH).read_text(encoding="utf-8"),
     "gazetteer row; is it a script file? ({}:1)"),
    ('{"key": "a", "response": "x"}\nnot json\n{"key": "b", "respo',
     "bad JSON: Expecting value ({}:2)"),
], ids=["script-file", "bad-line-before-last"])
def test_bad_cassette_exits_config_unchanged(tmp_path, capsys, content, message):
    cassette = tmp_path / "cassette.jsonl"
    cassette.write_text(content, encoding="utf-8")
    out = tmp_path / "out"
    assert _crawl(out, cassette=cassette) == EXIT_CONFIG
    assert cassette.read_text(encoding="utf-8") == content
    assert message.format(cassette) in capsys.readouterr().err
    assert not out.exists()


# -- classify ------------------------------------------------------------------------


@pytest.fixture()
def crawled_state(tmp_path_factory):
    out = tmp_path_factory.mktemp("crawled")
    assert _crawl(out) == EXIT_OK
    return str(out / "graph.json")


def test_classify_writes_reports(tmp_path, crawled_state, capsys):
    out = tmp_path / "cls"
    code = main([
        "classify",
        "--state", crawled_state,
        "--backend", f"script:{GAZETTEER_PATH}",
        "--out", str(out),
    ])
    assert code == EXIT_OK
    assert "classified 12 entities" in capsys.readouterr().out

    report = json.loads((out / "classification_report.json").read_text(encoding="utf-8"))
    assert report["entities_classified"] == 12
    assert report["skipped_no_description"] == []
    assert report["labels"]["aecom"] == ["engineering consulting"]
    assert sorted(report["labels"]["kiewit"]) == [
        "construction contractor", "engineering consulting",
    ]

    rows = [
        json.loads(line)
        for line in (out / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert len(rows) == 12 * 9
    assert all("prediction" in r for r in rows)

    graph = load_state(str(out / "graph.json"))
    assert graph.nodes["txdot"].categories == {"government agency"}


def test_classify_taxonomy_file(tmp_path, crawled_state):
    taxonomy_path = tmp_path / "taxonomy.txt"
    taxonomy_path.write_text("# two only\nengineering consulting\nlegal counsel\n", encoding="utf-8")
    out = tmp_path / "cls"
    code = main([
        "classify",
        "--state", crawled_state,
        "--backend", f"script:{GAZETTEER_PATH}",
        "--out", str(out),
        "--taxonomy", str(taxonomy_path),
    ])
    assert code == EXIT_OK
    report = json.loads((out / "classification_report.json").read_text(encoding="utf-8"))
    assert report["taxonomy"] == ["engineering consulting", "legal counsel"]
    rows = (out / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 12 * 2


@pytest.mark.parametrize(
    ("lines", "where"),
    [
        (["legal counsel", "Upper Case"], ":2)"),
        (["legal counsel", "# comment", "legal counsel"], ":3)"),
        (["# only a comment", ""], ")"),
        (["legal counsel", "material\x01 supplier"], ":2)"),
    ],
    ids=["bad category", "duplicate", "no categories", "control character"],
)
def test_classify_bad_taxonomy_names_file_and_line(tmp_path, crawled_state, capsys, lines, where):
    taxonomy_path = tmp_path / "taxonomy.txt"
    taxonomy_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "cls"
    code = main([
        "classify",
        "--state", crawled_state,
        "--backend", f"script:{GAZETTEER_PATH}",
        "--out", str(out),
        "--taxonomy", str(taxonomy_path),
    ])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.strip().endswith(f"({taxonomy_path}{where}")
    assert not out.exists()


def test_classify_replay_miss_exits_backend(tmp_path, crawled_state):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    code = main([
        "classify",
        "--state", crawled_state,
        "--backend", f"replay:{empty}",
        "--out", str(tmp_path / "cls"),
    ])
    assert code == EXIT_BACKEND


def test_classify_unreachable_http_exits_backend(tmp_path, crawled_state, capsys):
    code = main([
        "classify",
        "--state", crawled_state,
        "--backend", "http://127.0.0.1:1/unreachable",
        "--out", str(tmp_path / "cls"),
        "--http-retries", "0",
        "--http-backoff", "0",
    ])
    assert code == EXIT_BACKEND
    assert "backend" in capsys.readouterr().err


def test_crawl_negative_http_retries_exits_config_before_work(tmp_path, capsys):
    out = tmp_path / "out"
    code = _crawl(out, backend="http://127.0.0.1:1/unreachable", http_retries=-1)
    assert code == EXIT_CONFIG
    assert "retry_cap must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_classify_token_budget_below_one_exits_config_before_work(tmp_path, crawled_state, capsys,
                                                                  budget):
    out = tmp_path / "cls"
    code = main([
        "classify",
        "--state", crawled_state,
        "--backend", f"script:{GAZETTEER_PATH}",
        "--out", str(out),
        "--token-budget", budget,
    ])
    assert code == EXIT_CONFIG
    assert f"--token-budget must be >= 1, got {budget}" in capsys.readouterr().err
    assert not out.exists()


def test_classify_bad_state_schema(tmp_path):
    state = tmp_path / "graph.json"
    state.write_text('{"schema_version": 99}\n', encoding="utf-8")
    code = main([
        "classify",
        "--state", str(state),
        "--backend", f"script:{GAZETTEER_PATH}",
        "--out", str(tmp_path / "cls"),
    ])
    assert code == EXIT_CONFIG


# -- evaluate ----------------------------------------------------------------------


@pytest.fixture()
def classified(tmp_path_factory, crawled_state):
    out = tmp_path_factory.mktemp("classified")
    code = main([
        "classify",
        "--state", crawled_state,
        "--backend", f"script:{GAZETTEER_PATH}",
        "--out", str(out),
    ])
    assert code == EXIT_OK
    return out


def test_evaluate_from_predictions(tmp_path, classified, capsys):
    out = tmp_path / "eval"
    code = main([
        "evaluate",
        "--dataset", LABELS_PATH,
        "--predictions", str(classified / "predictions.jsonl"),
        "--out", str(out),
    ])
    assert code == EXIT_OK
    assert "micro accuracy=1.000" in capsys.readouterr().out
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    assert metrics["micro"]["metrics"]["accuracy"] == 1.0
    assert metrics["micro"]["metrics"]["f1"] == 1.0
    assert metrics["evaluated"] == 108
    assert metrics["balanced"] is False
    assert len(metrics["per_category"]) == 9


def test_evaluate_from_state(tmp_path, classified):
    out = tmp_path / "eval"
    code = main([
        "evaluate",
        "--dataset", LABELS_PATH,
        "--state", str(classified / "graph.json"),
        "--out", str(out),
    ])
    assert code == EXIT_OK
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    assert metrics["micro"]["metrics"]["accuracy"] == 1.0


def test_evaluate_balanced(tmp_path, classified):
    out = tmp_path / "eval"
    code = main([
        "evaluate",
        "--dataset", LABELS_PATH,
        "--predictions", str(classified / "predictions.jsonl"),
        "--out", str(out),
        "--balanced",
        "--rng-seed", "7",
    ])
    assert code == EXIT_OK
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    assert metrics["balanced"] is True
    assert metrics["rng_seed"] == 7
    # per category: twice the minority-class size, summed over 9 categories
    assert metrics["evaluated"] == 30
    for cat, block in metrics["per_category"].items():
        counts = block["counts"]
        positives = counts["tp"] + counts["fn"]
        negatives = counts["tn"] + counts["fp"]
        assert positives == negatives, cat


def test_evaluate_entity_missing_from_state(tmp_path, classified):
    dataset = tmp_path / "labels.jsonl"
    dataset.write_text(json.dumps({
        "entity_id": "ghost", "category": "legal counsel",
        "gold": False, "description": "d",
    }) + "\n", encoding="utf-8")
    code = main([
        "evaluate",
        "--dataset", str(dataset),
        "--state", str(classified / "graph.json"),
        "--out", str(tmp_path / "eval"),
    ])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("bad_input", ["dataset", "predictions"])
def test_evaluate_non_object_row_is_config_error(tmp_path, classified, bad_input, capsys):
    paths = {"dataset": LABELS_PATH, "predictions": str(classified / "predictions.jsonl")}
    with open(paths[bad_input], encoding="utf-8") as fh:
        first_row = fh.readline()
    bad = tmp_path / f"{bad_input}.jsonl"
    bad.write_text(first_row + "5\n", encoding="utf-8")
    paths[bad_input] = str(bad)
    code = main([
        "evaluate",
        "--dataset", paths["dataset"],
        "--predictions", paths["predictions"],
        "--out", str(tmp_path / "eval"),
    ])
    assert code == EXIT_CONFIG
    assert f"record is not an object ({bad}:2)" in capsys.readouterr().err


@pytest.mark.parametrize("bad_input", ["dataset", "predictions"])
def test_evaluate_non_string_entity_id_is_config_error(tmp_path, classified, bad_input, capsys):
    paths = {"dataset": LABELS_PATH, "predictions": str(classified / "predictions.jsonl")}
    with open(paths[bad_input], encoding="utf-8") as fh:
        row = json.loads(fh.readline())
    row["entity_id"] = [row["entity_id"]]
    bad = tmp_path / f"{bad_input}.jsonl"
    bad.write_text(json.dumps(row) + "\n", encoding="utf-8")
    paths[bad_input] = str(bad)
    code = main([
        "evaluate",
        "--dataset", paths["dataset"],
        "--predictions", paths["predictions"],
        "--out", str(tmp_path / "eval"),
    ])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "string" in err and f"({bad}:1)" in err


def test_evaluate_requires_exactly_one_source(tmp_path):
    with pytest.raises(SystemExit):
        main([
            "evaluate",
            "--dataset", LABELS_PATH,
            "--out", str(tmp_path / "eval"),
        ])


def test_evaluate_undetermined_rows_are_excluded(tmp_path, classified):
    predictions_path = tmp_path / "predictions.jsonl"
    rows = []
    for line in (classified / "predictions.jsonl").read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["entity_id"] == "aecom" and record["category"] == "engineering consulting":
            record = {"entity_id": "aecom", "category": "engineering consulting",
                      "undetermined": True}
        rows.append(json.dumps(record))
    predictions_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "eval"
    code = main([
        "evaluate",
        "--dataset", LABELS_PATH,
        "--predictions", str(predictions_path),
        "--out", str(out),
    ])
    assert code == EXIT_OK
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    assert metrics["evaluated"] == 107
    assert metrics["undetermined"] == 1


@pytest.mark.parametrize(
    "repeat",
    [{"prediction": False}, {"undetermined": True}],
    ids=["prediction", "undetermined"],
)
def test_evaluate_repeated_pair_is_config_error(tmp_path, classified, capsys, repeat):
    rows = (classified / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
    # a Yes row, then the same pair again on the next line
    index, first = next((i, json.loads(row)) for i, row in enumerate(rows)
                        if json.loads(row)["prediction"])
    repeated = {"entity_id": first["entity_id"], "category": first["category"], **repeat}
    rows.insert(index + 1, json.dumps(repeated))
    predictions_path = tmp_path / "predictions.jsonl"
    predictions_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code = main([
        "evaluate",
        "--dataset", LABELS_PATH,
        "--predictions", str(predictions_path),
        "--out", str(tmp_path / "eval"),
    ])
    assert code == EXIT_CONFIG
    assert f"repeated prediction for ('{first['entity_id']}', '{first['category']}') " \
           f"({predictions_path}:{index + 2})" in capsys.readouterr().err
    assert not (tmp_path / "eval" / "metrics.json").exists()


class _MaybeForAecomLegalCounsel:
    """Answers 'maybe', twice, to one classify question; passes the rest on."""

    def __init__(self, inner):
        self.inner = inner

    def complete(self, request):
        if request.request_tag == "classify:aecom:legal counsel":
            return BackendResponse(text="maybe", input_tokens=1, output_tokens=1, latency_ms=0)
        return self.inner.complete(request)


def test_undetermined_answer_output_digests(tmp_path, crawled_state, monkeypatch):
    # The fixture pipeline answers every question, so this pins the bytes
    # that an undetermined pair gives in each output that carries it.
    make_backend = cli._make_backend

    def wrapped(spec, args):
        backend, path = make_backend(spec, args)
        return _MaybeForAecomLegalCounsel(backend), path

    monkeypatch.setattr(cli, "_make_backend", wrapped)
    cls = tmp_path / "cls"
    assert main(["classify", "--state", crawled_state, "--backend", f"script:{GAZETTEER_PATH}",
                 "--out", str(cls)]) == EXIT_OK
    for source, path in (("predictions", cls / "predictions.jsonl"),
                         ("state", cls / "graph.json")):
        assert main(["evaluate", "--dataset", LABELS_PATH, f"--{source}", str(path),
                     "--out", str(tmp_path / source)]) == EXIT_OK
    outputs = {
        "predictions.jsonl": cls / "predictions.jsonl",
        "classification_report.json": cls / "classification_report.json",
        "evaluate --predictions": tmp_path / "predictions" / "metrics.json",
        "evaluate --state": tmp_path / "state" / "metrics.json",
    }
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in outputs.items()}
    assert digests == {
        "predictions.jsonl": "f12bfc1cb87a989937dfe9d66d09f51667061921c3bec4f2fb067798f17fb8f7",
        "classification_report.json":
            "fabea01e9868561da828a6bf31034fc1c05a439a1321d8055a9d5b8eac4dcae7",
        "evaluate --predictions":
            "23f6a8d1e26327977638417964a8649afd70533b8adad21336683a35a199c81b",
        # graph state keeps labels only, so the undetermined pair reads as No
        "evaluate --state": "8fc48815d1e0c7d0f291ab99d79b204e606bbb172ad2af301fd67382a67e9a09",
    }


# -- export and subgraph --------------------------------------------------------------


def test_export_from_state(tmp_path, crawled_state, capsys):
    out = tmp_path / "exp"
    code = main([
        "export",
        "--state", crawled_state,
        "--format", "jsonl",
        "--out", str(out),
    ])
    assert code == EXIT_OK
    assert "exported 12 nodes, 35 edges" in capsys.readouterr().out
    rows = (out / "graph.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 12 + 35


def test_export_of_an_unknown_schema_names_the_state_file(tmp_path, crawled_state, capsys):
    with open(crawled_state, encoding="utf-8") as fh:
        state = json.load(fh)
    state["schema_version"] = 99
    state_path = tmp_path / "graph.json"
    state_path.write_text(json.dumps(state), encoding="utf-8")
    code = main(["export", "--state", str(state_path), "--format", "jsonl",
                 "--out", str(tmp_path / "exp")])
    assert code == EXIT_CONFIG
    assert f"expected schema 3, found 99 ({state_path})" in capsys.readouterr().err


def test_subgraph_resolves_variant_names(tmp_path, crawled_state, capsys):
    out = tmp_path / "sub"
    code = main([
        "subgraph",
        "--state", crawled_state,
        "--entity", "AECOM Ltd.",  # resolves to the aecom node
        "--hops", "1",
        "--max-nodes", "50",
        "--format", "jsonl",
        "--out", str(out),
    ])
    assert code == EXIT_OK
    assert "around 'aecom'" in capsys.readouterr().out
    rows = [
        json.loads(line)
        for line in (out / "subgraph.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    node_ids = {r["id"] for r in rows if r["kind"] == "node"}
    assert "aecom" in node_ids
    assert node_ids == {"aecom", "aconex", "bechtel", "lendlease", "parsons"}


def test_subgraph_cap_and_seed(tmp_path, crawled_state):
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    for out in (out1, out2):
        code = main([
            "subgraph",
            "--state", crawled_state,
            "--entity", "bechtel",
            "--hops", "2",
            "--max-nodes", "4",
            "--rng-seed", "3",
            "--format", "jsonl",
            "--out", str(out),
        ])
        assert code == EXIT_OK
    assert (out1 / "subgraph.jsonl").read_bytes() == (out2 / "subgraph.jsonl").read_bytes()
    rows = [
        json.loads(line)
        for line in (out1 / "subgraph.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    node_ids = [r["id"] for r in rows if r["kind"] == "node"]
    assert len(node_ids) == 4
    assert "bechtel" in node_ids


@pytest.mark.parametrize(("flag", "value"), [("--hops", "0"), ("--hops", "-2"),
                                           ("--max-nodes", "0"), ("--max-nodes", "-1")])
def test_subgraph_below_one_exits_config_before_loading(tmp_path, crawled_state, capsys, flag,
                                                        value):
    # The missing state file shows the flag is checked before --state is read.
    for state in (crawled_state, str(tmp_path / "missing.json")):
        out = tmp_path / "sub"
        code = main([
            "subgraph",
            "--state", state,
            "--entity", "bechtel",
            flag, value,
            "--out", str(out),
        ])
        assert code == EXIT_CONFIG
        assert f"{flag} must be >= 1, got {value}" in capsys.readouterr().err
        assert not out.exists()


def test_subgraph_unknown_entity(tmp_path, crawled_state, capsys):
    code = main([
        "subgraph",
        "--state", crawled_state,
        "--entity", "Ghost Holdings",
        "--out", str(tmp_path / "sub"),
    ])
    assert code == EXIT_UNKNOWN_ENTITY
    assert "unknown entity" in capsys.readouterr().err
