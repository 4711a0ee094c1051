from __future__ import annotations

import filecmp
import random
import threading
from dataclasses import asdict

import pytest

from supplygraph import corpus as corpus_module
from supplygraph.corpus import (
    Article,
    fetch_articles,
    load_corpus,
    load_stopwords,
    name_forms,
    preprocess_text,
)
from supplygraph.crawler import CrawlConfig
from supplygraph.errors import DuplicateId, EmptyName, FetchError, ParseError
from supplygraph.files import write_jsonl

import oracles
from shared import NEWS_PATH


def _config(**kwargs) -> CrawlConfig:
    defaults = dict(seeds=["x"], year_range=(2018, 2023), per_year_min=10)
    defaults.update(kwargs)
    return CrawlConfig(**defaults)


# -- name_forms ----------------------------------------------------------


def test_normalize_keeps_plain_names(stopwords):
    assert name_forms("Yates Construction", stopwords)[1] == "yates construction"


def test_normalize_strips_trailing_suffix(stopwords):
    assert name_forms("AECOM Ltd.", stopwords)[1] == "aecom"


def test_normalize_strips_suffixes_repeatedly(stopwords):
    assert name_forms("Acme Co., Ltd.", stopwords)[1] == "acme"


def test_normalize_pure_suffix_is_empty(stopwords):
    with pytest.raises(EmptyName):
        name_forms("  Corp. ", stopwords)


def test_normalize_blank_is_empty(stopwords):
    with pytest.raises(EmptyName):
        name_forms("   ", stopwords)


def test_normalize_keeps_internal_suffix_tokens(stopwords):
    assert (
        name_forms("Construction Co. of America Inc.", stopwords)[1]
        == "construction co. of america"
    )


def test_normalize_without_stopwords_keeps_suffixes(stopwords):
    assert name_forms("AECOM Ltd.", stopwords)[0] == "aecom ltd"


def test_name_forms_are_both_normalizations(stopwords):
    rng = random.Random(7)
    pool = ["Acme", "ltd.", "Corp", "INC", " ", "\t", ".", ",", "co", "of", "", "Ltd. ", "x"]
    names = ["", " ", "...", "Corp.", "Acme Corp.", " acme\tltd  ", "Co. Ltd."] + [
        "".join(rng.choice(pool) for _ in range(rng.randint(1, 5))) for _ in range(400)]
    for raw in names:
        try:
            expected = oracles.normalize_name(raw), oracles.normalize_name(raw, stopwords)
        except EmptyName as exc:
            expected = str(exc)
        try:
            got = name_forms(raw, stopwords)
        except EmptyName as exc:
            got = str(exc)
        assert got == expected, raw


def test_normalize_idempotent_fuzz(stopwords):
    rng = random.Random(101)
    suffix_pool = sorted(stopwords.company_suffixes)
    words = ["acme", "delta", "North", "Mix", "supply", "3m", "b2b", "O'Neil"]
    for _ in range(500):
        parts = [rng.choice(words) for _ in range(rng.randint(1, 4))]
        parts += [rng.choice(suffix_pool) for _ in range(rng.randint(0, 2))]
        raw = (" " * rng.randint(0, 2)).join(parts)
        raw = " " * rng.randint(0, 2) + raw + "." * rng.randint(0, 2)
        try:
            once = name_forms(raw, stopwords)[1]
        except EmptyName:
            continue
        assert name_forms(once, stopwords)[1] == once
        assert once == once.lower()
        assert once == once.strip()
        assert "  " not in once
        assert once.split(" ")[-1] not in stopwords.company_suffixes


# -- preprocess_text -----------------------------------------------------


def test_preprocess_collapses_whitespace():
    assert preprocess_text("Bechtel   WINS\tcontract") == "bechtel wins contract"


def test_preprocess_empty_passthrough():
    assert preprocess_text("") == ""


def test_preprocess_keeps_sentence_boundaries():
    text = "First thing.  Second\nthing!   Third?"
    assert preprocess_text(text) == "first thing. second thing! third?"


def test_preprocess_drops_control_characters():
    assert preprocess_text("a\x00b\x07c") == "a b c"


# -- stopword lists -------------------------------------------------------


def test_default_company_suffixes(stopwords):
    assert {"ltd", "inc", "corp"} <= stopwords.company_suffixes
    assert "the" not in stopwords.company_suffixes


def test_load_stopwords_files(tmp_path):
    suffixes = tmp_path / "suffixes.txt"
    suffixes.write_text("# comment\ngmbh\nS.A.\n\n", encoding="utf-8")
    lists = load_stopwords(str(suffixes))
    assert lists.company_suffixes == {"gmbh", "s.a."}


# -- corpus loading --------------------------------------------------------


def _record(**overrides):
    record = {
        "id": "a1",
        "url": "https://news.example/a1",
        "title": "t",
        "body": "some body text.",
        "published_year": 2020,
        "retrieved_for_keyword": "acme",
    }
    record.update(overrides)
    return record


def _write_jsonl(path, records):
    import json

    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def test_load_corpus_fixture_counts():
    corpus = load_corpus(NEWS_PATH)
    assert len(corpus) == 36
    assert all(2019 <= a.published_year <= 2021 for a in corpus)


def test_load_corpus_missing_field(tmp_path):
    path = tmp_path / "c.jsonl"
    record = _record()
    del record["body"]
    _write_jsonl(path, [record])
    with pytest.raises(ParseError) as err:
        load_corpus(str(path))
    assert err.value.line == 1


def test_load_corpus_duplicate_id(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, [_record(), _record(title="again")])
    with pytest.raises(DuplicateId):
        load_corpus(str(path))


def test_load_corpus_unknown_field_strict(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, [_record(extra=1)])
    with pytest.raises(ParseError):
        load_corpus(str(path))
    corpus = load_corpus(str(path), strict=False)
    assert len(corpus) == 1


def test_load_corpus_empty_body(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, [_record(body="  \t ")])
    with pytest.raises(ParseError):
        load_corpus(str(path))


def test_load_corpus_bad_json(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": broken\n', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_corpus(str(path))
    assert err.value.line == 1


def test_load_corpus_year_must_be_int(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, [_record(published_year="2020")])
    with pytest.raises(ParseError):
        load_corpus(str(path))


def test_corpus_roundtrip_is_byte_identical(tmp_path):
    corpus = load_corpus(NEWS_PATH)
    out = tmp_path / "copy.jsonl"
    write_jsonl(str(out), (asdict(a) for a in corpus))
    assert filecmp.cmp(NEWS_PATH, str(out), shallow=False)


def test_keyword_index_matches_brute_force_scan(news_corpus):
    for keyword, ids in news_corpus.keyword_index.items():
        expected = [a.id for a in news_corpus if a.retrieved_for_keyword == keyword]
        assert ids == expected
    indexed = {aid for ids in news_corpus.keyword_index.values() for aid in ids}
    assert indexed == {a.id for a in news_corpus}


def test_corpus_iteration_order_is_stable(news_corpus):
    assert [a.id for a in news_corpus][:3] == ["bechtel-0", "bechtel-1", "bechtel-2"]


# -- fetching ----------------------------------------------------------------


class YearlyFetcher:
    """Ten articles per (keyword, year), any year."""

    def search(self, keyword, year, limit):
        return [
            Article(
                id=f"{keyword}-{year}-{i}",
                url="u",
                title="t",
                body="body text.",
                published_year=year,
                retrieved_for_keyword="",
            )
            for i in range(min(limit, 10))
        ]


class FlakyFetcher:
    def __init__(self, failures):
        self.failures = failures
        self.calls = 0

    def search(self, keyword, year, limit):
        self.calls += 1
        if self.calls <= self.failures:
            raise FetchError("source down")
        return []


def test_fetch_articles_full_range():
    config = _config(year_range=(2018, 2023), per_year_min=10)
    articles = fetch_articles("bechtel", config, YearlyFetcher(), [], threading.Event())
    assert len(articles) == 60
    assert all(a.retrieved_for_keyword == "bechtel" for a in articles)
    assert {a.published_year for a in articles} == set(range(2018, 2024))


def test_fetch_articles_shortfall_logged(caplog):
    config = _config(year_range=(2020, 2020), per_year_min=10)

    class EmptyFetcher:
        def search(self, keyword, year, limit):
            return []

    with caplog.at_level("WARNING"):
        articles = fetch_articles("ghost", config, EmptyFetcher(), [], threading.Event())
    assert articles == []
    assert any("shortfall" in rec.message for rec in caplog.records)


def test_fetch_articles_retries_then_succeeds(monkeypatch):
    monkeypatch.setattr(corpus_module, "FETCH_BACKOFF_S", 0)
    fetcher = FlakyFetcher(failures=1)
    config = _config(year_range=(2020, 2020), per_year_min=1)
    assert fetch_articles("x", config, fetcher, [], threading.Event()) == []
    assert fetcher.calls == 2


def test_fetch_articles_records_the_failed_year_after_retries(monkeypatch, caplog):
    monkeypatch.setattr(corpus_module, "FETCH_BACKOFF_S", 0)
    fetcher = FlakyFetcher(failures=100)
    config = _config(year_range=(2020, 2020), per_year_min=1)
    failed_years = []
    with caplog.at_level("WARNING"):
        assert fetch_articles("x", config, fetcher, failed_years, threading.Event()) == []
    assert fetcher.calls == 3  # initial attempt plus two retries
    assert failed_years == [2020]
    assert any("keyword='x' year=2020" in rec.message for rec in caplog.records)


def test_fetch_articles_keeps_the_years_around_a_failed_one(monkeypatch):
    monkeypatch.setattr(corpus_module, "FETCH_BACKOFF_S", 0)

    class DownIn2020(YearlyFetcher):
        def search(self, keyword, year, limit):
            if year == 2020:
                raise FetchError("source down")
            return super().search(keyword, year, limit)

    config = _config(year_range=(2019, 2021), per_year_min=2)
    failed_years = []
    articles = fetch_articles("x", config, DownIn2020(), failed_years, threading.Event())
    assert [a.id for a in articles] == ["x-2019-0", "x-2019-1", "x-2021-0", "x-2021-1"]
    assert failed_years == [2020]


def test_fetch_articles_backs_off_before_each_retry(monkeypatch):
    sleeps = []
    monkeypatch.setattr(corpus_module.time, "sleep", sleeps.append)
    config = _config(year_range=(2020, 2020), per_year_min=1)
    failed_years = []
    fetch_articles("x", config, FlakyFetcher(failures=100), failed_years, threading.Event())
    assert sleeps == [0.1, 0.2]
    assert failed_years == [2020]


def test_fetch_articles_filters_out_of_range_years():
    class WrongYearFetcher:
        def search(self, keyword, year, limit):
            return [
                Article(
                    id=f"{year}-{i}", url="u", title="t", body="b.",
                    published_year=1999, retrieved_for_keyword="",
                )
                for i in range(limit)
            ]

    config = _config(year_range=(2020, 2021), per_year_min=2)
    assert fetch_articles("x", config, WrongYearFetcher(), [], threading.Event()) == []


def test_corpus_fetcher_filters_by_keyword_and_year(news_corpus):
    hits = news_corpus.search("bechtel", 2019, 5)
    assert [a.id for a in hits] == ["bechtel-0"]
    assert news_corpus.search("bechtel", 1990, 5) == []
    assert news_corpus.search("nobody", 2019, 5) == []


def test_fetch_articles_rejects_blank_keyword():
    config = _config()
    with pytest.raises(ValueError):
        fetch_articles("  ", config, YearlyFetcher(), [], threading.Event())
