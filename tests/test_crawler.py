from __future__ import annotations

import dataclasses
import json
import threading
import types

import pytest

import oracles
from shared import GAZETTEER_PATH, NEWS_PATH, TRUTH_PATH
from supplygraph import corpus as corpus_module
from supplygraph import crawler as crawler_module
from supplygraph.backends import RecordingBackend, ScriptedBackend, load_script
from supplygraph.corpus import Article, Corpus
from supplygraph.crawler import (
    TERMINATION_ARTICLE_BUDGET,
    TERMINATION_EXHAUSTED,
    TERMINATION_NODE_BUDGET,
    CrawlConfig,
    Crawler,
    article_payload,
    run_crawl,
)
from supplygraph.errors import BackendUnavailable, CassetteWriteError, FetchError
from supplygraph.graph import EXPORT_FORMATS, SupplyChainGraph, export_graph, save_state
from supplygraph.prompting import ExtractedEntity, render_entity_list, segment_text


# -- config validation ---------------------------------------------------------


def test_crawl_config_defaults():
    config = CrawlConfig(seeds=["bechtel"])
    assert config.industry == "civil engineering"
    assert config.year_range == (2018, 2023)
    assert config.per_year_min == 10
    assert config.parallelism == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"seeds": []},
        {"seeds": [" "]},
        {"seeds": ["x"], "industry": " "},
        {"seeds": ["x"], "year_range": (2023, 2018)},
        {"seeds": ["x"], "per_year_min": 0},
        {"seeds": ["x"], "token_budget": 0},
        {"seeds": ["x"], "max_nodes": 0},
        {"seeds": ["x"], "max_articles": 0},
        {"seeds": ["x"], "parallelism": 0},
        {"seeds": "aecom"},
        {"seeds": ["x", 7]},
        {"seeds": ["x"], "industry": 5},
        {"seeds": ["x"], "year_range": (2019,)},
        {"seeds": ["x"], "year_range": ("2019", 2021)},
        {"seeds": ["x"], "max_nodes": [3]},
        {"seeds": ["x"], "max_articles": True},
        {"seeds": ["x"], "per_year_min": 1.5},
        {"seeds": ["acme\x01 corp"]},
        {"seeds": ["x", "acme\udcff"]},
        {"seeds": ["x"], "industry": "rail\ufffe"},
    ],
)
def test_crawl_config_rejects(kwargs):
    with pytest.raises(ValueError):
        CrawlConfig(**kwargs)


def test_crawl_config_to_dict_roundtrips_year_range():
    config = CrawlConfig(seeds=["a"], year_range=(2019, 2021))
    data = config.to_dict()
    assert data["year_range"] == [2019, 2021]
    assert json.dumps(data)  # JSON-safe


# -- termination ----------------------------------------------------------------


@pytest.mark.parametrize("parallelism", [1, 8])
@pytest.mark.parametrize(
    ("max_articles", "reason", "edges"),
    [
        (33, TERMINATION_ARTICLE_BUDGET, 34),
        (34, TERMINATION_ARTICLE_BUDGET, 34),
        (35, TERMINATION_ARTICLE_BUDGET, 34),
        (36, TERMINATION_EXHAUSTED, 35),
    ],
)
def test_crawl_article_budget_reason(news_corpus, gazetteer_backend, max_articles, reason, edges,
                                     parallelism):
    # The full crawl applies 36 articles. Budgets of 34 and 35 run out on the
    # last keyword, with the frontier already empty: a fetched article is
    # left unapplied, so the budget, not exhaustion, stopped the crawl. A
    # budget of 36 is used up by the last article and leaves nothing out.
    config = CrawlConfig(seeds=["bechtel"], year_range=(2019, 2021), per_year_min=1,
                         max_articles=max_articles, parallelism=parallelism)
    graph, report = Crawler(config, news_corpus, gazetteer_backend).run()
    assert report.termination_reason == reason
    assert report.stats.articles_processed == max_articles
    assert len(graph.edges) == edges


# -- payload ----------------------------------------------------------------------


def test_article_payload_joins_title_and_body():
    assert article_payload("The  Title", "Body   text.") == "the title\n\nbody text."


def test_article_payload_skips_empty_parts():
    assert article_payload("", "body.") == "body."
    assert article_payload("title", "  ") == "title"


# -- full crawl against the oracle ----------------------------------------------


def test_crawl_matches_comention_closure_oracle(news_corpus, gazetteer_backend, fixture_config):
    graph, report = run_crawl(fixture_config, news_corpus, gazetteer_backend)
    expected_nodes, expected_edges = oracles.comention_closure(
        NEWS_PATH, TRUTH_PATH, ["bechtel"]
    )
    assert set(graph.nodes) == expected_nodes
    assert set(graph.edges) == set(expected_edges)
    for key, provenance in expected_edges.items():
        assert graph.edges[key].provenance == provenance
    assert report.termination_reason == TERMINATION_EXHAUSTED
    assert report.stats.articles_processed == 36
    assert report.stats.parse_failures == 0
    assert report.stats.backend_failures == 0
    assert report.stats.fetch_failures == 0
    assert report.stats.nodes_created == len(expected_nodes) - 1  # seed pre-counted


def test_crawl_connectivity_from_seed(news_corpus, gazetteer_backend, fixture_config):
    graph, _ = run_crawl(fixture_config, news_corpus, gazetteer_backend)
    adjacency = oracles.adjacency(graph)
    seen = {"bechtel"}
    frontier = ["bechtel"]
    while frontier:
        nxt = frontier.pop()
        for nb in adjacency[nxt]:
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    assert seen == set(graph.nodes)


def test_crawl_is_deterministic(news_corpus, gazetteer_backend, fixture_config):
    g1, r1 = run_crawl(fixture_config, news_corpus, gazetteer_backend)
    g2, r2 = run_crawl(fixture_config, news_corpus, gazetteer_backend)
    assert oracles.graph_equal(g1, g2)
    assert r1.stats == r2.stats
    assert r1.termination_reason == r2.termination_reason


def test_crawl_reprocessing_into_existing_graph_adds_nothing(
    news_corpus, gazetteer_backend, fixture_config
):
    graph, _ = run_crawl(fixture_config, news_corpus, gazetteer_backend)
    nodes_before = {cid: set(node.aliases) for cid, node in graph.nodes.items()}
    weights_before = {k: e.weight for k, e in graph.edges.items()}

    graph2, report2 = run_crawl(fixture_config, news_corpus, gazetteer_backend, graph=graph)
    assert graph2 is graph
    assert {cid: set(n.aliases) for cid, n in graph2.nodes.items()} == nodes_before
    assert {k: e.weight for k, e in graph2.edges.items()} == weights_before
    assert report2.stats.nodes_created == 0
    assert report2.stats.edges_created == 0


# (budgets, aliases applied before the crawl, nodes_created, edges_created).
# Neither the seed nor an alias's node counts as created by the crawl.
_COUNT_CASES = {
    "exhausted": ({}, {}, 11, 35),
    "aliases": ({}, {"TxDOT Dallas": "TxDOT", "Aecom Corp": "AECOM",
                     "The Lime Works": "National Lime Stone"}, 8, 35),
    "node budget": ({"max_nodes": 7}, {}, 6, 9),
    "article budget": ({"max_articles": 5}, {}, 6, 10),
    "aliases and node budget": ({"max_nodes": 7}, {"Aecom Corp": "AECOM", "Kiewit Corp": "Kiewit"},
                                4, 9),
}


@pytest.mark.parametrize("parallelism", [1, 4])
@pytest.mark.parametrize("case", list(_COUNT_CASES))
def test_crawl_counts_the_nodes_and_edges_it_creates(news_corpus, gazetteer_backend, case,
                                                     parallelism):
    budgets, aliases, nodes_created, edges_created = _COUNT_CASES[case]
    config = CrawlConfig(seeds=["bechtel"], year_range=(2019, 2021), per_year_min=1,
                         parallelism=parallelism, **budgets)
    graph = SupplyChainGraph()
    graph.apply_aliases(aliases)
    nodes_before = len(graph.nodes)
    graph, report = run_crawl(config, news_corpus, gazetteer_backend, graph)
    assert (report.stats.nodes_created, report.stats.edges_created) == (
        nodes_created, edges_created)
    assert nodes_created == len(graph.nodes) - nodes_before - 1  # the seed
    assert edges_created == len(graph.edges)


def test_crawl_node_budget_stops_after_seed(news_corpus, gazetteer_backend):
    for seeds in (["bechtel"], ["bechtel", "aecom"]):
        config = CrawlConfig(
            seeds=seeds, year_range=(2019, 2021), per_year_min=1, max_nodes=len(seeds)
        )
        graph, report = run_crawl(config, news_corpus, gazetteer_backend)
        assert report.termination_reason == TERMINATION_NODE_BUDGET
        assert set(graph.nodes) == set(seeds)
        assert report.stats.articles_processed == 0


def test_crawl_article_budget(news_corpus, gazetteer_backend):
    config = CrawlConfig(
        seeds=["bechtel"], year_range=(2019, 2021), per_year_min=1, max_articles=2
    )
    graph, report = run_crawl(config, news_corpus, gazetteer_backend)
    assert report.termination_reason == TERMINATION_ARTICLE_BUDGET
    assert report.stats.articles_processed == 2
    # only bechtel-0 and bechtel-1 entered the graph
    provenance = set()
    for edge in graph.edges.values():
        provenance |= edge.provenance
    assert provenance == {"bechtel-0", "bechtel-1"}


def test_crawl_node_budget_mid_keyword(news_corpus, gazetteer_backend):
    config = CrawlConfig(
        seeds=["bechtel"], year_range=(2019, 2021), per_year_min=1, max_nodes=3
    )
    graph, report = run_crawl(config, news_corpus, gazetteer_backend)
    assert report.termination_reason == TERMINATION_NODE_BUDGET
    assert len(graph.nodes) >= 3
    # bechtel-0 mentions bechtel, txdot, national lime stone: hits the cap
    assert report.stats.articles_processed == 1


def test_crawl_seed_variants_collapse(news_corpus, gazetteer_backend):
    config = CrawlConfig(
        seeds=["bechtel", "Bechtel Corp."], year_range=(2019, 2021), per_year_min=1
    )
    crawler = Crawler(config, news_corpus, gazetteer_backend)
    graph, report = crawler.run()
    assert "bechtel" in graph.nodes
    assert "bechtel corp" in graph.nodes["bechtel"].aliases
    # the duplicate seed must not be crawled twice
    assert report.stats.articles_processed == 36


def test_crawl_unknown_seed_exhausts_quietly(gazetteer_backend, caplog):
    corpus = Corpus()
    config = CrawlConfig(seeds=["ghost co"], year_range=(2019, 2021), per_year_min=1)
    with caplog.at_level("WARNING"):
        graph, report = run_crawl(config, corpus, gazetteer_backend)
    assert report.termination_reason == TERMINATION_EXHAUSTED
    assert set(graph.nodes) == {"ghost co"}
    assert report.stats.articles_processed == 0
    assert any("shortfall" in rec.message for rec in caplog.records)


class FailingFetcher:
    def search(self, keyword, year, limit):
        raise FetchError("source down")


def test_crawl_fetch_failure_is_tallied_not_fatal(monkeypatch, gazetteer_backend):
    monkeypatch.setattr(corpus_module, "FETCH_BACKOFF_S", 0)
    config = CrawlConfig(seeds=["bechtel"], year_range=(2019, 2021), per_year_min=1)
    graph, report = run_crawl(config, FailingFetcher(), gazetteer_backend)
    assert report.termination_reason == TERMINATION_EXHAUSTED
    assert report.stats.fetch_failures == 3  # one per year
    assert set(graph.nodes) == {"bechtel"}


class DownIn2021:
    """A corpus whose search fails for every keyword in 2021."""

    def __init__(self, corpus):
        self.corpus = corpus

    def search(self, keyword, year, limit):
        if year == 2021:
            raise FetchError("source down")
        return self.corpus.search(keyword, year, limit)


@pytest.mark.parametrize("parallelism", [1, 8])
def test_crawl_keeps_the_years_fetched_before_a_failed_year(
    monkeypatch, news_corpus, gazetteer_backend, parallelism
):
    monkeypatch.setattr(corpus_module, "FETCH_BACKOFF_S", 0)
    config = CrawlConfig(seeds=["bechtel"], year_range=(2019, 2021), per_year_min=1,
                         parallelism=parallelism)
    graph, report = run_crawl(config, DownIn2021(news_corpus), gazetteer_backend)
    applied = set().union(*(edge.provenance for edge in graph.edges.values()))
    assert report.termination_reason == TERMINATION_EXHAUSTED
    assert {"bechtel-0", "bechtel-1"} <= applied
    assert not applied & {a.id for a in news_corpus if a.published_year == 2021}
    assert report.stats.articles_processed == len(applied)
    # every crawled keyword lost its 2021 search and nothing else
    assert report.stats.fetch_failures == len(graph.nodes)


def _single_article_corpus(body: str, keyword: str = "bechtel") -> Corpus:
    corpus = Corpus()
    corpus.add(Article(
        id="solo-0",
        url="https://news.example/solo-0",
        title="update",
        body=body,
        published_year=2019,
        retrieved_for_keyword=keyword,
    ))
    return corpus


class GarbageBackend:
    """Returns text that never parses as an entity list."""

    def complete(self, request):
        from supplygraph.backends import BackendResponse

        return BackendResponse(text="nothing useful here", input_tokens=1, output_tokens=1,
                               latency_ms=0)


def test_crawl_unparseable_response_counts_parse_failure(gazetteer_backend):
    corpus = _single_article_corpus("aecom did work.")
    config = CrawlConfig(seeds=["bechtel"], year_range=(2019, 2019), per_year_min=1)
    graph, report = run_crawl(config, corpus, GarbageBackend())
    assert report.stats.parse_failures == 1
    assert report.stats.entities_extracted == 0
    assert set(graph.nodes) == {"bechtel"}
    assert graph.edges == {}


class MissBackend:
    def complete(self, request):
        raise BackendUnavailable("no entry")


def test_crawl_backend_failure_counts_and_continues():
    corpus = _single_article_corpus("aecom did work.")
    config = CrawlConfig(seeds=["bechtel"], year_range=(2019, 2019), per_year_min=1)
    graph, report = run_crawl(config, corpus, MissBackend())
    assert report.termination_reason == TERMINATION_EXHAUSTED
    assert report.stats.backend_failures == 1
    assert report.stats.articles_processed == 1
    assert graph.edges == {}


def test_crawl_cassette_write_failure_aborts(tmp_path, news_corpus, gazetteer_backend, fixture_config):
    # Not a failed call to tally: a record run without its cassette must stop.
    recorder = RecordingBackend(gazetteer_backend, str(tmp_path / "missing" / "cassette.jsonl"))
    config = dataclasses.replace(fixture_config, parallelism=2)
    with pytest.raises(CassetteWriteError):
        run_crawl(config, news_corpus, recorder)


class EmptyListBackend:
    """Extraction finds nothing: empty response text."""

    def complete(self, request):
        from supplygraph.backends import BackendResponse

        return BackendResponse(text="", input_tokens=1, output_tokens=0, latency_ms=0)


def test_crawl_empty_extraction_still_counts_article():
    corpus = _single_article_corpus("no companies today.")
    config = CrawlConfig(seeds=["bechtel"], year_range=(2019, 2019), per_year_min=1)
    graph, report = run_crawl(config, corpus, EmptyListBackend())
    assert report.stats.articles_processed == 1
    assert report.stats.parse_failures == 0
    assert report.stats.entities_extracted == 0
    assert graph.edges == {}


class RecordingScripted(ScriptedBackend):
    def __init__(self, script):
        super().__init__(script)
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return super().complete(request)


@pytest.mark.parametrize("max_articles", [4, 20])
def test_width_one_crawl_extracts_only_the_articles_it_applies(news_corpus, max_articles):
    # Both budgets run out inside a keyword (txdot's second article, and one
    # of a later keyword's), whose remaining articles then make no backend
    # call, so a cassette records no answer for them. Each article is one
    # segment.
    config = CrawlConfig(seeds=["bechtel"], year_range=(2019, 2021), per_year_min=1,
                         max_articles=max_articles)
    backend = RecordingScripted(load_script(GAZETTEER_PATH))
    _, report = run_crawl(config, news_corpus, backend)
    assert report.termination_reason == TERMINATION_ARTICLE_BUDGET
    assert report.stats.articles_processed == max_articles
    assert len(backend.requests) == max_articles


def test_crawl_segments_long_articles(gazetteer):
    body = "aecom leads the review. " + "the work continues on site. " * 200
    corpus = _single_article_corpus(body)
    backend = RecordingScripted(load_script(GAZETTEER_PATH))
    config = CrawlConfig(
        seeds=["bechtel"], year_range=(2019, 2019), per_year_min=1, token_budget=50
    )
    graph, report = run_crawl(config, corpus, backend)
    assert len(backend.requests) > 1
    assert "aecom" in graph.nodes
    assert report.stats.articles_processed == 1
    # every request carried a tagged segment of the one article
    assert all(r.request_tag.startswith("extract:solo-0:") for r in backend.requests)


class SameArticleEveryYear:
    """A fetcher that answers every year's search for the article's keyword
    with the same article."""

    def __init__(self, article):
        self.article = article

    def search(self, keyword, year, limit):
        return [self.article] if keyword == self.article.retrieved_for_keyword else []


def test_crawl_extracts_a_repeated_article_once():
    (article,) = _single_article_corpus("aecom did work.")
    backend = RecordingScripted(load_script(GAZETTEER_PATH))
    config = CrawlConfig(seeds=["bechtel"], year_range=(2019, 2021), per_year_min=1)
    graph, report = run_crawl(config, SameArticleEveryYear(article), backend)
    assert report.stats.articles_processed == 1
    assert [r.request_tag for r in backend.requests] == ["extract:solo-0:0"]
    assert graph.edges[("aecom", "bechtel")].provenance == {"solo-0"}


def test_crawl_entity_descriptions_recorded(news_corpus, gazetteer_backend, fixture_config, gazetteer):
    graph, _ = run_crawl(fixture_config, news_corpus, gazetteer_backend)
    node = graph.nodes["aecom"]
    descriptions = {d for _, d in node.descriptions}
    assert descriptions == {gazetteer["aecom"]["description"]}
    articles = {a for a, _ in node.descriptions}
    assert len(articles) > 1  # mentioned in several articles


def test_crawl_unusable_entity_names_are_dropped():
    class SuffixOnlyBackend:
        def complete(self, request):
            from supplygraph.backends import BackendResponse

            text = render_entity_list(
                [ExtractedEntity("Ltd.", "broken name"), ExtractedEntity("Acme", "real one")]
            )
            return BackendResponse(text=text, input_tokens=1, output_tokens=1, latency_ms=0)

    corpus = _single_article_corpus("whatever.")
    config = CrawlConfig(seeds=["bechtel"], year_range=(2019, 2019), per_year_min=1)
    graph, report = run_crawl(config, corpus, SuffixOnlyBackend())
    assert set(graph.nodes) == {"bechtel", "acme"}
    assert report.stats.entities_extracted == 2  # counted before the name check


class OneKeywordDown:
    """A corpus whose search fails for a single keyword."""

    def __init__(self, corpus, down):
        self.corpus = corpus
        self.down = down

    def search(self, keyword, year, limit):
        if keyword == self.down:
            raise FetchError("source down")
        return self.corpus.search(keyword, year, limit)


def _crawl_outputs(tmp_path, config, source, backend) -> dict[str, bytes]:
    graph, report = run_crawl(config, source, backend)
    outputs = {}
    path = tmp_path / "graph.json"
    save_state(graph, str(path))
    outputs["graph.json"] = path.read_bytes()
    for fmt in EXPORT_FORMATS:
        path = tmp_path / f"graph.{fmt}"
        export_graph(graph, fmt, str(path))
        outputs[path.name] = path.read_bytes()
    report_dict = report.to_dict()
    del report_dict["duration_ms"]  # wall clock
    del report_dict["config"]["parallelism"]  # the one input that differs
    outputs["crawl_report.json"] = json.dumps(report_dict, sort_keys=True).encode()
    return outputs


def test_parallel_crawl_matches_sequential_bytes(tmp_path, monkeypatch, news_corpus, gazetteer_backend):
    monkeypatch.setattr(corpus_module.time, "sleep", lambda s: None)  # fetch retry backoff
    # An article budget of 20 runs out in a batch that empties the frontier,
    # so the reason reads "article budget" only if unapplied keywords go back.
    budgets = [{}] + [{"max_nodes": n} for n in (3, 5, 8)] + [{"max_articles": n} for n in (3, 5, 8, 20)]
    for down in (None, "national lime stone", "kiewit"):
        source = OneKeywordDown(news_corpus, down)
        for budget in budgets:
            outputs = []
            for parallelism in range(1, 9):
                config = CrawlConfig(
                    seeds=["bechtel"], year_range=(2019, 2021), per_year_min=1,
                    parallelism=parallelism, **budget,
                )
                outputs.append(_crawl_outputs(tmp_path, config, source, gazetteer_backend))
            for parallelism, out in enumerate(outputs[1:], 2):
                assert out == outputs[0], (down, budget, parallelism)


def test_harvest_in_flight_stops_calling_backend_once_crawl_stops(news_corpus, gazetteer_backend):
    # A budget of 4 articles runs out on txdot, the second keyword, while the
    # articles of "national lime stone" are extracted beside it. Its
    # two-segment first article and its second article are held at their
    # first call until the crawl has decided to stop, so both workers are
    # busy then and its third article is still queued. The fetcher holds
    # that keyword's search until txdot's articles run, so they are queued
    # first.
    config = CrawlConfig(seeds=["bechtel"], year_range=(2019, 2021), per_year_min=1,
                         max_articles=4, parallelism=2, token_budget=20)
    (first,) = news_corpus.search("national lime stone", 2019, 1)
    assert len(segment_text(article_payload(first.title, first.body), 20).segments) > 1
    held = {"extract:national-lime-stone-0:0", "extract:national-lime-stone-1:0"}
    held_call_arrived = threading.Event()
    txdot_extracting = threading.Event()

    class HoldingBackend(RecordingScripted):
        def complete(self, request):
            if request.request_tag in held:
                held_call_arrived.set()
                crawler._stop.wait(5)
            elif request.request_tag == "extract:txdot-0:0":
                txdot_extracting.set()
            elif request.request_tag == "extract:txdot-2:0":
                # the stop decision waits for txdot, so a held call comes first
                assert held_call_arrived.wait(5)
            return super().complete(request)

    class TxdotFirst:
        def search(self, keyword, year, limit):
            if keyword == "national lime stone":
                assert txdot_extracting.wait(5)
            return news_corpus.search(keyword, year, limit)

    backend = HoldingBackend(load_script(GAZETTEER_PATH))
    crawler = Crawler(config, TxdotFirst(), backend)
    started = []
    extract = crawler._extract

    def noting_extract(article):
        started.append(article.id)
        return extract(article)

    crawler._extract = noting_extract
    graph, report = crawler.run()
    assert report.termination_reason == TERMINATION_ARTICLE_BUDGET
    tags = [r.request_tag for r in backend.requests]
    # No further segment of a held article, and the queued one was cancelled.
    assert "extract:national-lime-stone-0:0" in tags
    assert {t for t in tags if "national-lime-stone" in t} <= held
    assert "national-lime-stone-2" not in started
    sequential, _ = run_crawl(dataclasses.replace(config, parallelism=1), news_corpus,
                              gazetteer_backend)
    assert oracles.graph_equal(graph, sequential)


def test_harvest_in_flight_stops_fetching_once_crawl_stops(monkeypatch, news_corpus,
                                                          gazetteer_backend):
    # As above, the budget runs out on txdot while "national lime stone" is
    # opened beside it. That keyword's first search (2019) is held until the
    # crawl has decided to stop, and the pool is shut down only once its
    # harvest has returned. It searches no further year, and none of its
    # articles reaches _extract, though a worker is idle to take them.
    config = CrawlConfig(seeds=["bechtel"], year_range=(2019, 2021), per_year_min=1,
                         max_articles=4, parallelism=2)
    held_search_arrived = threading.Event()
    harvest_returned = threading.Event()
    searches = []

    class StopAfterHarvest(threading.Event):
        def set(self):
            super().set()
            assert harvest_returned.wait(5)

    monkeypatch.setattr(crawler_module, "threading", types.SimpleNamespace(Event=StopAfterHarvest))

    class HoldingFetcher:
        def search(self, keyword, year, limit):
            searches.append((keyword, year))
            if keyword == "national lime stone":
                held_search_arrived.set()
                crawler._stop.wait(5)
            elif keyword == "txdot" and year == 2019:
                # the stop decision waits for txdot, so the held search comes first
                assert held_search_arrived.wait(5)
            return news_corpus.search(keyword, year, limit)

    backend = RecordingScripted(load_script(GAZETTEER_PATH))
    crawler = Crawler(config, HoldingFetcher(), backend)
    extracted = []
    extract = crawler._extract

    def noting_extract(article):
        extracted.append(article)
        return extract(article)

    harvest = crawler._harvest

    def noting_harvest(keyword):
        try:
            return harvest(keyword)
        finally:
            if keyword == "national lime stone":
                harvest_returned.set()

    crawler._extract = noting_extract
    crawler._harvest = noting_harvest
    graph, report = crawler.run()
    assert report.termination_reason == TERMINATION_ARTICLE_BUDGET
    assert [s for s in searches if s[0] == "national lime stone"] == [("national lime stone", 2019)]
    assert len(searches) == 3 + 3 + 1
    # txdot, once done, is applied before anything else opens, so its budget
    # stop leaves the next keyword unopened.
    assert "aecom" not in {keyword for keyword, _ in searches}
    assert not [a for a in extracted if a.retrieved_for_keyword == "national lime stone"]
    assert not [r for r in backend.requests if "national-lime-stone" in r.request_tag]
    sequential, _ = run_crawl(dataclasses.replace(config, parallelism=1), news_corpus,
                              gazetteer_backend)
    assert oracles.graph_equal(graph, sequential)


@pytest.mark.parametrize("parallelism,window", [
    (2, {"txdot", "national lime stone"}),
    (4, {"txdot", "national lime stone", "aecom", "bragg crane service"}),
])
def test_parallel_crawl_searches_no_keyword_past_its_window(news_corpus, gazetteer_backend,
                                                            parallelism, window):
    # After bechtel the frontier is txdot, national lime stone, aecom, bragg
    # crane service and kiewit. txdot's first extraction is held until the
    # window's keywords have been searched and then a little longer, so a
    # crawl that reads further ahead shows it in the search log.
    searched = []
    window_searched = threading.Event()
    past_window = threading.Event()

    class Noting:
        def search(self, keyword, year, limit):
            searched.append(keyword)
            if window <= set(searched):
                window_searched.set()
            if keyword not in window | {"bechtel"}:
                past_window.set()
            return news_corpus.search(keyword, year, limit)

    held_searches = []

    class Holding(ScriptedBackend):
        def complete(self, request):
            if request.request_tag == "extract:txdot-0:0":
                assert window_searched.wait(5)
                past_window.wait(0.2)
                held_searches.extend(searched)
            return super().complete(request)

    config = CrawlConfig(seeds=["bechtel"], year_range=(2019, 2021), per_year_min=1,
                         parallelism=parallelism)
    graph, _ = run_crawl(config, Noting(), Holding(load_script(GAZETTEER_PATH)))
    assert set(held_searches) == window | {"bechtel"}
    sequential, _ = run_crawl(dataclasses.replace(config, parallelism=1), news_corpus,
                              gazetteer_backend)
    assert oracles.graph_equal(graph, sequential)


def test_width_two_crawl_extracts_one_keywords_articles_side_by_side(news_corpus,
                                                                     gazetteer_backend):
    # A one-seed crawl: two of bechtel's three articles must be extracted at
    # once, or the barrier's timeout breaks it and the crawl raises.
    barrier = threading.Barrier(2, timeout=5)

    class Meeting(ScriptedBackend):
        def complete(self, request):
            if request.request_tag in ("extract:bechtel-0:0", "extract:bechtel-1:0"):
                barrier.wait()
            return super().complete(request)

    config = CrawlConfig(seeds=["bechtel"], year_range=(2019, 2021), per_year_min=1,
                         parallelism=2)
    graph, _ = run_crawl(config, news_corpus, Meeting(load_script(GAZETTEER_PATH)))
    sequential, _ = run_crawl(dataclasses.replace(config, parallelism=1), news_corpus,
                              gazetteer_backend)
    assert oracles.graph_equal(graph, sequential)


class ThreadNoting:
    """A corpus that notes the thread of every search."""

    def __init__(self, corpus):
        self.corpus = corpus
        self.threads = []

    def search(self, keyword, year, limit):
        self.threads.append(threading.current_thread())
        return self.corpus.search(keyword, year, limit)


def test_width_one_crawl_searches_on_the_calling_thread(monkeypatch, news_corpus,
                                                        gazetteer_backend):
    def no_thread(*args, **kwargs):
        raise AssertionError("the crawl started a thread")

    source = ThreadNoting(news_corpus)
    config = CrawlConfig(seeds=["bechtel"], year_range=(2019, 2021), per_year_min=1)
    expected, _ = run_crawl(config, news_corpus, gazetteer_backend)
    monkeypatch.setattr(threading, "Thread", no_thread)
    graph, _ = run_crawl(config, source, gazetteer_backend)
    assert set(source.threads) == {threading.current_thread()}
    assert len(source.threads) == 3 * len(graph.nodes)  # every keyword, every year
    assert oracles.graph_equal(graph, expected)


def test_width_four_crawl_keeps_four_searches_in_flight(news_corpus, gazetteer_backend):
    # bechtel's articles enqueue these four, and the crawl opens all four on
    # its four workers. Their 2019 searches all wait at the barrier, which a
    # timeout breaks (raising BrokenBarrierError out of the crawl) unless
    # four arrive.
    together = {"txdot", "national lime stone", "aecom", "bragg crane service"}
    barrier = threading.Barrier(len(together), timeout=5)
    met = []

    class Meeting:
        def search(self, keyword, year, limit):
            if keyword in together and year == 2019:
                barrier.wait()
                met.append(threading.current_thread())
            return news_corpus.search(keyword, year, limit)

    config = CrawlConfig(seeds=["bechtel"], year_range=(2019, 2021), per_year_min=1,
                         parallelism=4)
    graph, _ = run_crawl(config, Meeting(), gazetteer_backend)
    assert len(set(met)) == 4
    sequential, _ = run_crawl(dataclasses.replace(config, parallelism=1), news_corpus,
                              gazetteer_backend)
    assert oracles.graph_equal(graph, sequential)


@pytest.mark.parametrize("parallelism,keyword,inline", [
    (1, "bechtel", True),
    (1, "aecom", True),
    (4, "bechtel", False),  # every search of a wider crawl runs on a worker
    (4, "txdot", False),
    (4, "aecom", False),
])
def test_fetcher_error_leaves_run_and_no_thread(news_corpus, gazetteer_backend,
                                               parallelism, keyword, inline):
    raised_on = []

    class Exploding:
        def search(self, kw, year, limit):
            if kw == keyword:
                raised_on.append(threading.current_thread())
                raise RuntimeError(f"fetcher broke on {kw}")
            return news_corpus.search(kw, year, limit)

    before = set(threading.enumerate())
    config = CrawlConfig(seeds=["bechtel"], year_range=(2019, 2021), per_year_min=1,
                         parallelism=parallelism)
    with pytest.raises(RuntimeError, match=f"fetcher broke on {keyword}"):
        Crawler(config, Exploding(), gazetteer_backend).run()
    assert raised_on and (raised_on[0] is threading.current_thread()) == inline
    assert set(threading.enumerate()) <= before


@pytest.mark.parametrize("parallelism", [1, 2, 3, 4])
def test_head_extraction_error_at_any_width_leaves_run_and_no_thread(news_corpus, parallelism):
    # txdot-1, txdot-2 and national-lime-stone-0 raise an error the crawl
    # does not count. Above width 1 both keywords are open together and
    # txdot-1 raises only after the two later articles have, yet the crawl
    # raises txdot-1's error, where a sequential crawl meets it.
    later = {"extract:txdot-2:0", "extract:national-lime-stone-0:0"}
    raised = []
    later_raised = threading.Event()

    class Exploding(ScriptedBackend):
        def complete(self, request):
            tag = request.request_tag
            if tag == "extract:txdot-1:0":
                assert parallelism == 1 or later_raised.wait(5)
                raise RuntimeError("backend broke on txdot-1")
            if tag in later:
                raised.append(tag)
                if len(raised) == len(later):
                    later_raised.set()
                raise RuntimeError(f"backend broke on {tag}")
            return super().complete(request)

    before = set(threading.enumerate())
    config = CrawlConfig(seeds=["bechtel"], year_range=(2019, 2021), per_year_min=1,
                         parallelism=parallelism)
    with pytest.raises(RuntimeError, match="backend broke on txdot-1"):
        Crawler(config, news_corpus, Exploding(load_script(GAZETTEER_PATH))).run()
    assert set(raised) == (later if parallelism > 1 else set())
    assert set(threading.enumerate()) <= before


def test_crawl_prompts_keep_general_stopwords(news_corpus):
    backend = RecordingScripted(load_script(GAZETTEER_PATH))
    config = CrawlConfig(seeds=["bechtel"], year_range=(2019, 2021), per_year_min=1)
    run_crawl(config, news_corpus, backend)
    # article text goes into prompts verbatim after preprocessing; common
    # words like "the" must survive (only display casing and spacing change)
    sample = [r for r in backend.requests if "bechtel-0" in r.request_tag]
    assert sample
    assert " the " in sample[0].prompt.user


def test_crawl_report_duration_and_config(news_corpus, gazetteer_backend, fixture_config):
    _, report = run_crawl(fixture_config, news_corpus, gazetteer_backend)
    assert report.duration_ms >= 0
    data = report.to_dict()
    assert data["config"]["seeds"] == ["bechtel"]
    assert data["config"]["year_range"] == [2019, 2021]
    assert set(data["stats"]) == {
        "articles_processed",
        "entities_extracted",
        "nodes_created",
        "edges_created",
        "parse_failures",
        "backend_failures",
        "fetch_failures",
    }
