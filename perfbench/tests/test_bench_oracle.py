import random

import gen
import oracle
from supplygraph.backends import GazetteerEntry, ScriptedBackend, ScriptFile
from supplygraph.classify import DEFAULT_CATEGORIES
from supplygraph.corpus import Article, Corpus
from supplygraph.crawler import CrawlConfig, run_crawl


def test_oracle_agrees_with_crawl_and_sampling_on_a_tiny_seed():
    rng = random.Random(2)
    names = gen.make_names(rng, 6, gen.forbidden_words())
    gazetteer = gen.make_gazetteer(rng, names, DEFAULT_CATEGORIES)
    articles, truth = gen.make_corpus(rng, names, (2020, 2021))
    corpus = Corpus()
    for record in articles:
        corpus.add(Article(**record))
    backend = ScriptedBackend(ScriptFile(gazetteer={
        n: GazetteerEntry(e["description"], frozenset(e["categories"])) for n, e in gazetteer.items()
    }))
    config = CrawlConfig(seeds=[names[0]], year_range=(2020, 2021), per_year_min=1)
    graph, _ = run_crawl(config, corpus, backend)

    nodes, edges = oracle.comention_closure(articles, truth, [names[0]])
    assert set(graph.nodes) == nodes == set(names)
    assert {k: e.provenance for k, e in graph.edges.items()} == edges

    adj = oracle.adjacency(graph.edges)
    for node in names:
        for hops in (1, 2):
            for cap in (3, 50):
                sub = graph.sample_k_hop(node, hops, cap, rng_seed=17)
                assert set(sub.nodes) == oracle.k_hop_sample(adj, node, hops, cap, 17)
