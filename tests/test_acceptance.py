"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single pass/fail line
(run with -s to see the lines for passing tests). The expected values come
from independent brute-force oracles in oracles.py or are derived in place.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import oracles
from shared import (
    DEDUP_NEWS_PATH,
    GAZETTEER_PATH,
    LABELS_PATH,
    NEWS_PATH,
    TRUTH_PATH,
    score_one_category,
)
from supplygraph.backends import (
    BackendRequest,
    ScriptFile,
    ScriptedBackend,
    load_script,
    request_key,
)
from supplygraph.classify import (
    CategoryTaxonomy,
    classify_graph,
    downsample_balanced,
    evaluate_all,
    load_labeled_dataset,
)
from supplygraph.cli import main
from supplygraph.corpus import load_corpus
from supplygraph.crawler import CrawlConfig, article_payload, run_crawl
from supplygraph.graph import SupplyChainGraph
from supplygraph.prompting import (
    ParseDiagnostics,
    build_classification_prompt,
    build_extraction_prompt,
    estimate_tokens,
    parse_entity_list,
    segment_text,
)


@contextmanager
def _criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"acceptance {label}: FAIL")
        raise
    print(f"acceptance {label}: PASS")


def _fixture_crawl():
    config = CrawlConfig(seeds=["bechtel"], year_range=(2019, 2021), per_year_min=1)
    backend = ScriptedBackend(load_script(GAZETTEER_PATH))
    return run_crawl(config, load_corpus(NEWS_PATH), backend)


# 1. Crawling the fixture corpus reproduces the brute-force co-mention closure.


def test_acceptance_pipeline_oracle_equivalence():
    with _criterion("1 pipeline oracle equivalence"):
        started = time.monotonic()
        graph, report = _fixture_crawl()
        elapsed = time.monotonic() - started

        expected_nodes, expected_edges = oracles.comention_closure(
            NEWS_PATH, TRUTH_PATH, ["bechtel"]
        )
        assert len(graph.nodes) == len(expected_nodes)
        assert len(graph.edges) == len(expected_edges)
        assert set(graph.nodes) == expected_nodes
        assert set(graph.edges) == set(expected_edges)
        for key, provenance in expected_edges.items():
            assert graph.edges[key].provenance == provenance
        assert report.termination_reason == "exhausted"
        assert elapsed < 10.0, f"crawl took {elapsed:.2f}s"


# 2. Name variants fold into one node; merges conserve edge provenance.


def test_acceptance_dedup_variants_and_merge_conservation():
    with _criterion("2 dedup and merge provenance"):
        corpus = load_corpus(DEDUP_NEWS_PATH)
        variants = ["AECOM", "Aecom Ltd.", "AECOM Corp."]
        entries = {}
        for article, variant in zip(corpus, variants):
            payload = article_payload(article.title, article.body)
            prompt = build_extraction_prompt(payload, "civil engineering")
            entries[request_key(prompt)] = f"1. {variant}: an infrastructure consulting firm"
        backend = ScriptedBackend(ScriptFile(entries=entries))
        config = CrawlConfig(seeds=["aecom"], year_range=(2019, 2021), per_year_min=1)
        graph, _ = run_crawl(config, corpus, backend)

        assert len(graph.nodes) == 1
        node = graph.nodes["aecom"]
        assert len(node.aliases) == 3
        assert node.aliases == {"aecom", "aecom ltd", "aecom corp"}

        # randomized merge trials: every merge must re-point edges exactly,
        # unioning provenance and dropping only the survivor self-loop
        rng = random.Random(20240817)
        merges_done = 0
        while merges_done < 1000:
            g = SupplyChainGraph()
            ids = [g.upsert_entity(f"node {i:02d}") for i in range(rng.randint(3, 9))]
            for a in range(rng.randint(1, 10)):
                g.add_comention(f"art-{a}", rng.sample(ids, rng.randint(2, min(4, len(ids)))))
            alive = list(ids)
            while len(alive) > 1:
                survivor, duplicate = rng.sample(alive, 2)
                before = {k: set(e.provenance) for k, e in g.edges.items()}
                g.merge_nodes(survivor, duplicate)
                expected: dict[tuple[str, str], set[str]] = {}
                for (a, b), provenance in before.items():
                    a2 = survivor if a == duplicate else a
                    b2 = survivor if b == duplicate else b
                    if a2 == b2:
                        continue
                    key = (a2, b2) if a2 <= b2 else (b2, a2)
                    expected.setdefault(key, set()).update(provenance)
                assert {k: e.provenance for k, e in g.edges.items()} == expected
                alive.remove(duplicate)
                merges_done += 1
                if rng.random() < 0.3:
                    break
        assert merges_done >= 1000


# 3. Binary metrics match hand-derived values and a brute-force recount.


def test_acceptance_metrics_fidelity():
    with _criterion("3 metrics fidelity"):
        # planted confusion: TP=2, TN=6, FP=1, FN=1
        predictions = [True, True, True, False] + [False] * 6
        golds = [True, True, False, True] + [False] * 6
        counts, metrics = score_one_category(predictions, golds)
        assert (counts.tp, counts.tn, counts.fp, counts.fn) == (2, 6, 1, 1)
        assert abs(metrics.accuracy - 0.800) <= 1e-9
        # 2*TP / (2*TP + FP + FN) = 4/6; 0.666667 is its 6-decimal rounding
        assert abs(metrics.f1 - 2 / 3) <= 1e-9
        assert round(metrics.f1, 6) == 0.666667

        rng = random.Random(31337)
        for _ in range(1000):
            n = rng.randint(1, 60)
            preds = [rng.random() < rng.uniform(0.1, 0.9) for _ in range(n)]
            gold = [rng.random() < rng.uniform(0.1, 0.9) for _ in range(n)]
            counts, metrics = score_one_category(preds, gold)
            tp, fp, tn, fn = oracles.confusion_recount(preds, gold)
            assert (counts.tp, counts.fp, counts.tn, counts.fn) == (tp, fp, tn, fn)
            accuracy, f1 = oracles.metrics_recount(tp, fp, tn, fn)
            assert abs(metrics.accuracy - accuracy) <= 1e-9
            assert abs(metrics.f1 - f1) <= 1e-9


# 4. classify + evaluate on the fixture graph is perfect in every category.


def test_acceptance_classification_roundtrip():
    with _criterion("4 classification round-trip"):
        graph, _ = _fixture_crawl()
        taxonomy = CategoryTaxonomy()
        backend = ScriptedBackend(load_script(GAZETTEER_PATH))
        outcome = classify_graph(graph, taxonomy, backend)
        assert outcome.skipped_no_description == []
        assert not outcome.undetermined_pairs()

        dataset = load_labeled_dataset(LABELS_PATH, taxonomy)
        report = evaluate_all(dataset, outcome.answers, taxonomy)
        assert len(report.per_category) == len(taxonomy)
        for category, (counts, metrics) in report.per_category.items():
            assert metrics.accuracy == 1.0, category
            assert metrics.f1 == 1.0, category
        assert report.macro.accuracy == 1.0
        assert report.micro.f1 == 1.0


# 5. Identical runs produce byte-identical exports; replay matches recording.


def test_acceptance_determinism(tmp_path):
    with _criterion("5 determinism and replay"):
        def crawl(out, backend, fmt="graphml", *extra):
            code = main([
                "crawl",
                "--corpus", NEWS_PATH,
                "--backend", backend,
                "--out", str(out),
                "--seeds", "bechtel",
                "--year-start", "2019", "--year-end", "2021",
                "--per-year-min", "1",
                "--export-format", fmt,
                *extra,
            ])
            assert code == 0

        for fmt in ("graphml", "dot", "jsonl"):
            out1 = tmp_path / f"run1-{fmt}"
            out2 = tmp_path / f"run2-{fmt}"
            crawl(out1, f"script:{GAZETTEER_PATH}", fmt)
            crawl(out2, f"script:{GAZETTEER_PATH}", fmt)
            assert (out1 / "graph.json").read_bytes() == (out2 / "graph.json").read_bytes()
            assert (out1 / f"graph.{fmt}").read_bytes() == (out2 / f"graph.{fmt}").read_bytes()

        recorded = tmp_path / "recorded"
        cassette = tmp_path / "cassette.jsonl"
        crawl(recorded, f"script:{GAZETTEER_PATH}", "graphml", "--cassette", str(cassette))
        replayed = tmp_path / "replayed"
        crawl(replayed, f"replay:{cassette}")
        assert (recorded / "graph.json").read_bytes() == (replayed / "graph.json").read_bytes()
        assert (recorded / "graph.graphml").read_bytes() == (replayed / "graph.graphml").read_bytes()


# 6. Oversized articles are segmented losslessly with no extraction loss.


def test_acceptance_segmentation():
    with _criterion("6 segmentation"):
        gazetteer = load_script(GAZETTEER_PATH).gazetteer
        names = sorted(gazetteer)
        sentences = [
            f"{name} led the corridor review with a steady program of field work and notes."
            for _ in range(3)
            for name in names
        ]
        payload = article_payload("program update", " ".join(sentences))
        budget = 30
        assert estimate_tokens(payload) >= 10 * budget

        plan = segment_text(payload, budget)
        assert len(plan.segments) > 1
        assert "".join(plan.segments) == payload
        for segment in plan.segments:
            assert estimate_tokens(segment) <= budget

        backend = ScriptedBackend(load_script(GAZETTEER_PATH))

        def names_in(text):
            response = backend.complete(
                BackendRequest(prompt=build_extraction_prompt(text, "civil engineering"))
            )
            if not response.text:
                return set()
            return {e.name for e in parse_entity_list(response.text, ParseDiagnostics())}

        union = set()
        for segment in plan.segments:
            union |= names_in(segment)
        whole = names_in(payload)
        assert union == whole == set(names)


# 7. k-hop sampling respects the cap, keeps the seed, and matches BFS.


def test_acceptance_subgraph_sampling():
    with _criterion("7 subgraph sampling"):
        g = SupplyChainGraph()
        hub = g.upsert_entity("hub")
        for i in range(200):
            leaf = g.upsert_entity(f"leaf {i:03d}")
            g.add_comention(f"art-{i:03d}", [hub, leaf])

        capped = g.sample_k_hop(hub, 1, 50, rng_seed=42)
        assert len(capped.nodes) == 50
        assert hub in capped.nodes

        full = g.sample_k_hop(hub, 1, 201, rng_seed=42)
        adjacency = oracles.adjacency(g)
        assert set(full.nodes) == oracles.bfs_k_hop(adjacency, hub, 1)
        assert len(full.nodes) == 201


# 8. Balanced downsampling is balanced and seed-reproducible per category.


def test_acceptance_balanced_downsampling():
    with _criterion("8 balanced downsampling"):
        taxonomy = CategoryTaxonomy()
        dataset = load_labeled_dataset(LABELS_PATH, taxonomy)
        for category in taxonomy:
            balanced = downsample_balanced(dataset, category, rng_seed=99)
            positives = sum(1 for ex in balanced if ex.gold)
            negatives = sum(1 for ex in balanced if not ex.gold)
            assert positives == negatives > 0, category
            assert balanced == downsample_balanced(dataset, category, rng_seed=99)
            assert all(ex in dataset for ex in balanced)


# 9. Rendered prompts match golden template copies at every non-placeholder byte.


GOLDEN_EXTRACTION = {
    "system": (
        "You are a professional expert in the supply chain industry.\n"
        "You only have one chance to answer the question. Always answer in the pattern:\n"
        "1. [company name]: [short description]\n"
        "2. [company name]: [short description]\n"
        "3. [company name]: [short description]"
    ),
    "user": "Here is the news article about a company from the internet: {news}",
    "question": (
        "Give me the list and associated short description of the entity in "
        "{industry} mentioned in the article."
    ),
}

GOLDEN_CLASSIFICATION = {
    "system": (
        "You are an experienced researcher proficient in entity labeling.\n"
        "Your job is to determine whether the entity belongs to a particular "
        "category. Answer with either 'Yes' or 'No', based on a description."
    ),
    "user": "This is the description for {company_name}: {company_description}",
    "question": (
        "Is this entity {company_name} mentioned in the description belonging "
        "to a {company_category}?"
    ),
}


def test_acceptance_prompt_fidelity():
    with _criterion("9 prompt fidelity"):
        news = "bechtel met aecom at the project site."
        industry = "civil engineering"
        rendered = build_extraction_prompt(news, industry)
        assert rendered.system == GOLDEN_EXTRACTION["system"]
        assert rendered.user == GOLDEN_EXTRACTION["user"].replace("{news}", news)
        assert rendered.question == GOLDEN_EXTRACTION["question"].replace(
            "{industry}", industry
        )

        name, description, category = "aecom", "an infrastructure firm", "engineering consulting"
        rendered = build_classification_prompt(name, description, category)
        assert rendered.system == GOLDEN_CLASSIFICATION["system"]
        assert rendered.user == GOLDEN_CLASSIFICATION["user"].replace(
            "{company_name}", name
        ).replace("{company_description}", description)
        assert rendered.question == GOLDEN_CLASSIFICATION["question"].replace(
            "{company_name}", name
        ).replace("{company_category}", category)
