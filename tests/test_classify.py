from __future__ import annotations

import json
import random
import re
import sys
import threading
import time
from dataclasses import asdict, replace

import pytest

import oracles
from shared import LABELS_PATH, score_one_category
from supplygraph.backends import IN_FLIGHT, BackendResponse, RecordingBackend
from supplygraph.classify import (
    DEFAULT_CATEGORIES,
    CategoryTaxonomy,
    ConfusionCounts,
    LabeledExample,
    Metrics,
    classify_entity,
    classify_graph,
    downsample_balanced,
    dump_predictions,
    evaluate_all,
    load_labeled_dataset,
    load_predictions,
)
from supplygraph.errors import BackendUnavailable, ParseError
from supplygraph.files import write_jsonl
from supplygraph.graph import EntityNode, SupplyChainGraph
from supplygraph.prompting import REASONING_PREAMBLE


# -- taxonomy -------------------------------------------------------------------


def test_default_taxonomy_has_nine_categories():
    taxonomy = CategoryTaxonomy()
    assert len(taxonomy) == 9
    assert "construction contractor" in taxonomy
    assert list(taxonomy) == list(DEFAULT_CATEGORIES)


@pytest.mark.parametrize(
    "categories",
    [(), ("Dup", "dup"), ("ok", "ok"), ("Upper Case",), (" padded ",), ("",)],
)
def test_taxonomy_rejects_bad_categories(categories):
    with pytest.raises(ValueError):
        CategoryTaxonomy(categories=categories)


# -- binary metrics ---------------------------------------------------------------


def test_evaluate_binary_planted_counts():
    # TP=2, TN=6, FP=1, FN=1
    predictions = [True, True, True, False, False, False, False, False, False, False]
    golds = [True, True, False, True, False, False, False, False, False, False]
    counts, metrics = score_one_category(predictions, golds)
    assert counts == ConfusionCounts(tp=2, fp=1, tn=6, fn=1)
    assert metrics.accuracy == pytest.approx(0.8, abs=1e-12)
    assert metrics.precision == pytest.approx(2 / 3, abs=1e-12)
    assert metrics.recall == pytest.approx(2 / 3, abs=1e-12)
    assert metrics.f1 == pytest.approx(2 / 3, abs=1e-12)


def test_evaluate_binary_perfect_and_inverted():
    golds = [True, False, True, False]
    _, perfect = score_one_category(golds, golds)
    assert perfect == Metrics(accuracy=1.0, precision=1.0, recall=1.0, f1=1.0)
    _, inverted = score_one_category([not g for g in golds], golds)
    assert inverted == Metrics(accuracy=0.0, precision=0.0, recall=0.0, f1=0.0)


def test_evaluate_binary_zero_denominator_conventions():
    # no positive predictions: precision 0; no positive golds: recall 0
    counts, metrics = score_one_category([False, False], [False, False])
    assert counts == ConfusionCounts(tn=2)
    assert metrics.accuracy == 1.0
    assert metrics.precision == 0.0
    assert metrics.recall == 0.0
    assert metrics.f1 == 0.0


def test_evaluate_binary_matches_recount_fuzz():
    rng = random.Random(909)
    for _ in range(1000):
        n = rng.randint(1, 40)
        predictions = [rng.random() < 0.5 for _ in range(n)]
        golds = [rng.random() < 0.5 for _ in range(n)]
        counts, metrics = score_one_category(predictions, golds)
        tp, fp, tn, fn = oracles.confusion_recount(predictions, golds)
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (tp, fp, tn, fn)
        accuracy, f1 = oracles.metrics_recount(tp, fp, tn, fn)
        assert metrics.accuracy == pytest.approx(accuracy, abs=1e-12)
        assert metrics.f1 == pytest.approx(f1, abs=1e-12)


# -- entity classification ---------------------------------------------------------


class TapeBackend:
    """Answers from a per-call tape; records the questions asked."""

    def __init__(self, tape):
        self.tape = list(tape)
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        text = self.tape.pop(0)
        return BackendResponse(text=text, input_tokens=1, output_tokens=1, latency_ms=0)


def _classify_acme(taxonomy, backend, descriptions=(("a-1", "builds bridges"),), **kwargs):
    """classify_graph on a graph holding only acme: acme's answers by
    category, in the order the questions were asked."""
    graph = SupplyChainGraph()
    for article_id, description in descriptions:
        graph.upsert_entity("Acme", description, article_id)
    outcome = classify_graph(graph, taxonomy, backend, **kwargs)
    assert outcome.skipped_no_description == []
    return {category: answer for (_, category), answer in outcome.answers.items()}


def test_classify_entity_asks_one_question_per_category():
    taxonomy = CategoryTaxonomy()
    backend = TapeBackend(["Yes"] + ["No"] * 8)
    result = _classify_acme(taxonomy, backend)
    assert len(backend.requests) == 9
    assert list(result) == list(DEFAULT_CATEGORIES)  # taxonomy order
    assert result == {category: category == "engineering consulting" for category in taxonomy}
    asked = {r.prompt.question for r in backend.requests}
    assert len(asked) == 9  # one distinct question per category


def test_classify_entity_multi_label():
    taxonomy = CategoryTaxonomy(categories=("engineering consulting", "software service"))
    backend = TapeBackend(["Yes", "Yes"])
    result = _classify_acme(taxonomy, backend)
    assert result == {"engineering consulting": True, "software service": True}


def test_classify_entity_ambiguous_retries_once_then_undetermined():
    taxonomy = CategoryTaxonomy(categories=("legal counsel",))
    backend = TapeBackend(["hmm", "Yes, clearly."])
    result = _classify_acme(taxonomy, backend)
    assert result == {"legal counsel": True}
    assert len(backend.requests) == 2
    first, retry = (r.prompt for r in backend.requests)
    assert not first.question.startswith(REASONING_PREAMBLE)
    assert retry.question == REASONING_PREAMBLE + " " + first.question
    assert (retry.system, retry.user) == (first.system, first.user)

    backend = TapeBackend(["hmm", "still unsure"])
    result = _classify_acme(taxonomy, backend)
    assert result == {"legal counsel": None}
    assert len(backend.requests) == 2


def test_classify_entity_description_newest_first_and_truncated():
    taxonomy = CategoryTaxonomy(categories=("legal counsel",))
    backend = TapeBackend(["No"])
    descriptions = [("a-1", "oldest words here"), ("a-2", "newest words")]
    _classify_acme(taxonomy, backend, descriptions, token_budget=2)
    user = backend.requests[0].prompt.user
    assert "newest words" in user
    assert "oldest" not in user  # truncated away by the budget


def test_classify_entity_requires_descriptions():
    taxonomy = CategoryTaxonomy()
    node = EntityNode(canonical_id="acme", display_name="Acme", aliases=frozenset({"acme"}))
    with pytest.raises(ValueError):
        classify_entity(node, taxonomy, TapeBackend([]))


def test_classify_graph_annotates_and_skips(gazetteer_backend, gazetteer):
    graph = SupplyChainGraph()
    graph.upsert_entity("aecom", gazetteer["aecom"]["description"], "a-1")
    graph.upsert_entity("bechtel", gazetteer["bechtel"]["description"], "a-2")
    graph.upsert_entity("mystery co")  # no description: skipped
    taxonomy = CategoryTaxonomy()
    asked = []

    class Recording:
        def complete(self, request):
            asked.append(request)
            return gazetteer_backend.complete(request)

    outcome = classify_graph(graph, taxonomy, Recording())
    assert outcome.skipped_no_description == ["mystery co"]
    assert len(asked) == 2 * len(taxonomy)
    assert not any(
        "mystery co" in " ".join((r.request_tag, r.prompt.user, r.prompt.question)) for r in asked
    )
    assert graph.nodes["aecom"].categories == {"engineering consulting"}
    assert graph.nodes["bechtel"].categories == {"construction contractor"}
    report = outcome.to_report(taxonomy)
    assert report["entities_classified"] == 2
    assert report["unlabeled_count"] == 0
    assert report["labels"]["aecom"] == ["engineering consulting"]
    assert report["undetermined"] == {}


def test_classify_graph_skips_a_node_whose_descriptions_are_blank(gazetteer_backend, gazetteer):
    graph = SupplyChainGraph()
    graph.upsert_entity("aecom", gazetteer["aecom"]["description"], "a-1")
    graph.upsert_entity("Acme", " ", "a-1")
    graph.upsert_entity("Acme", "\t", "a-2")
    assert graph.nodes["acme"].descriptions == (("a-1", " "), ("a-2", "\t"))
    taxonomy = CategoryTaxonomy()
    outcome = classify_graph(graph, taxonomy, gazetteer_backend)
    assert outcome.skipped_no_description == ["acme"]
    assert {cid for cid, _ in outcome.answers} == {"aecom"}
    assert graph.nodes["aecom"].categories == {"engineering consulting"}
    assert graph.nodes["acme"].categories == set()
    assert outcome.to_report(taxonomy)["skipped_no_description"] == ["acme"]


@pytest.mark.parametrize("token_budget", [0, -1])
def test_classify_graph_rejects_a_budget_below_one_before_asking(token_budget):
    graph = SupplyChainGraph()
    graph.upsert_entity("Acme", "makes steel beams", "a1")
    asked = []

    class Recording:
        def complete(self, request):
            asked.append(request)
            return BackendResponse("Yes", 1, 1, 0)

    with pytest.raises(ValueError, match="token_budget must be >= 1"):
        classify_graph(graph, CategoryTaxonomy(), Recording(), token_budget=token_budget)
    assert asked == []
    assert graph.nodes["acme"].categories == set()


class _Gazetteer:
    """Gazetteer answers after ``delay_s``, made ambiguous for two categories
    ("legal counsel" without the reasoning preamble, "insurance provider"
    always). A delayed reply reports a 1 ms wait, as an HTTP reply reports
    its call's time. ``fail`` maps an (entity, category) pair to an error
    and a delay: its question raises that error after that delay. Counts the
    calls in flight at once and lists the errors raised, in time order."""

    def __init__(self, inner, delay_s=0.0, fail=()):
        self.inner = inner
        self.delay_s = delay_s
        self.fail = dict(fail)
        self.raised = []
        self.calls = self.in_flight = self.most_in_flight = 0
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.calls += 1
            self.in_flight += 1
            self.most_in_flight = max(self.most_in_flight, self.in_flight)
        try:
            name, category = request.request_tag.split(":")[1:]
            if (name, category) in self.fail:
                error, delay_s = self.fail[(name, category)]
                time.sleep(delay_s)
                self.raised.append(error)
                raise error
            time.sleep(self.delay_s)
            waited = 1 if self.delay_s else 0
            question = request.prompt.question
            if category == "insurance provider" or (
                category == "legal counsel" and not question.startswith(REASONING_PREAMBLE)
            ):
                return BackendResponse(text="maybe", input_tokens=1, output_tokens=1,
                                       latency_ms=waited)
            return replace(self.inner.complete(request), latency_ms=waited)
        finally:
            with self._lock:
                self.in_flight -= 1


def _gazetteer_graph(gazetteer):
    graph = SupplyChainGraph()
    for i, (name, entry) in enumerate(sorted(gazetteer.items())):
        graph.upsert_entity(name, entry["description"], f"a-{i}")
    graph.upsert_entity("mystery co")  # no description: skipped
    return graph


def _classified(graph, backend, tmp_path, name):
    taxonomy = CategoryTaxonomy()
    outcome = classify_graph(graph, taxonomy, backend)
    dump_predictions(outcome.answers, str(tmp_path / name))
    return (
        list(outcome.answers.items()),
        {cid: node.categories for cid, node in graph.nodes.items()},
        json.dumps(outcome.to_report(taxonomy)),
        (tmp_path / name).read_bytes(),
    )


def test_classify_graph_concurrent_matches_sequential(gazetteer_backend, gazetteer, tmp_path):
    sequential = _classified(_gazetteer_graph(gazetteer), _Gazetteer(gazetteer_backend),
                             tmp_path, "sequential.jsonl")
    slow = _Gazetteer(gazetteer_backend, delay_s=0.003)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to expose lost updates
    try:
        concurrent = _classified(_gazetteer_graph(gazetteer), slow, tmp_path, "concurrent.jsonl")
    finally:
        sys.setswitchinterval(interval)
    assert 1 < slow.most_in_flight <= IN_FLIGHT
    assert concurrent == sequential
    answers, categories, _, _ = sequential
    assert len(answers) == 12 * 9
    assert categories["aecom"] == {"engineering consulting"}
    assert categories["mystery co"] == set()
    assert sum(answer is None for _, answer in answers) == 12  # insurance provider


@pytest.mark.parametrize("delay_s", [0.0, 0.002], ids=["fast", "slow-in-process"])
def test_classify_graph_offline_backend_starts_no_thread(gazetteer_backend, gazetteer,
                                                        monkeypatch, delay_s):
    # However long an answer takes, one that reports no wait, as a scripted
    # or replayed answer does, keeps every question on the calling thread.
    class Slow:
        def complete(self, request):
            time.sleep(delay_s)
            return gazetteer_backend.complete(request)

    def no_thread(*args, **kwargs):
        raise AssertionError("classify started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    graph = _gazetteer_graph(gazetteer)
    classify_graph(graph, CategoryTaxonomy(), Slow())
    assert graph.nodes["bechtel"].categories == {"construction contractor"}


class _Waiting:
    """Passes requests on to ``inner`` and reports a 1 ms wait on every reply,
    taking none; keeps the thread that asked each question first."""

    def __init__(self, inner):
        self.inner = inner
        self.threads = {}

    def complete(self, request):
        self.threads.setdefault(request.request_tag, threading.current_thread())
        return replace(self.inner.complete(request), latency_ms=1)


def _question_tags(graph):
    """Each classify question's request tag, in the order classify asks them."""
    return [f"classify:{cid}:{category}" for cid in sorted(graph.nodes)
            if graph.nodes[cid].descriptions for category in CategoryTaxonomy()]


def test_classify_graph_goes_concurrent_after_the_first_reported_wait(
    gazetteer_backend, gazetteer, tmp_path
):
    sequential = _classified(_gazetteer_graph(gazetteer), gazetteer_backend, tmp_path,
                             "sequential.jsonl")
    waiting = _Waiting(gazetteer_backend)
    graph = _gazetteer_graph(gazetteer)
    concurrent = _classified(graph, waiting, tmp_path, "concurrent.jsonl")
    first, *rest = _question_tags(graph)
    assert len(rest) == 12 * 9 - 1
    assert waiting.threads[first] is threading.main_thread()
    assert all(waiting.threads[tag].name.startswith("classify") for tag in rest)
    assert concurrent == sequential


@pytest.mark.parametrize("k", [0, 1, 7, 60])
def test_resumed_classify_goes_concurrent_at_its_first_live_answer(
    gazetteer_backend, gazetteer, tmp_path, k
):
    # The cassette answers the first k questions with no wait; the k-th
    # (counting from 0) is the first live one, and the rest go to the pool.
    full = tmp_path / "full.jsonl"
    sequential = _classified(_gazetteer_graph(gazetteer),
                             RecordingBackend(gazetteer_backend, str(full)), tmp_path,
                             "sequential.jsonl")
    cassette = tmp_path / "cassette.jsonl"
    cassette.write_text("".join(full.read_text(encoding="utf-8").splitlines(keepends=True)[:k]),
                        encoding="utf-8")
    live = _Waiting(gazetteer_backend)
    graph = _gazetteer_graph(gazetteer)
    resumed = _classified(graph, RecordingBackend(live, str(cassette)), tmp_path,
                          "resumed.jsonl")
    tags = _question_tags(graph)
    assert sorted(live.threads) == sorted(tags[k:])
    assert live.threads[tags[k]] is threading.main_thread()
    assert all(live.threads[tag].name.startswith("classify") for tag in tags[k + 1:])
    assert resumed == sequential


@pytest.mark.parametrize("delay_s", [0.0, 0.003], ids=["sequential", "concurrent"])
def test_classify_graph_raises_lowest_index_error_and_labels_nothing(
    gazetteer_backend, gazetteer, delay_s
):
    # "aecom" sorts before "txdot"; when questions run concurrently, its
    # error comes last in time.
    first = BackendUnavailable("aecom failed")
    later = BackendUnavailable("txdot failed")
    backend = _Gazetteer(gazetteer_backend, delay_s=delay_s, fail={
        ("aecom", "legal counsel"): (first, 0.5),
        ("txdot", "equipment lessor"): (later, 0.0),
    })
    graph = _gazetteer_graph(gazetteer)
    with pytest.raises(BackendUnavailable) as err:
        classify_graph(graph, CategoryTaxonomy(), backend)
    assert err.value is first
    if delay_s:
        assert backend.raised == [later, first]
    assert all(not node.categories for node in graph.nodes.values())


def test_classify_graph_error_stops_new_questions(gazetteer_backend, gazetteer):
    # While the first entity's question stalls, the second entity's fails:
    # the pool starts no further question, though the stalled one finishes
    # and its error is the one raised.
    first = BackendUnavailable("aconex failed")
    later = BackendUnavailable("aecom failed")
    backend = _Gazetteer(gazetteer_backend, delay_s=0.003, fail={
        ("aconex", "legal counsel"): (first, 0.5),
        ("aecom", "engineering consulting"): (later, 0.0),
    })
    with pytest.raises(BackendUnavailable) as err:
        classify_graph(_gazetteer_graph(gazetteer), CategoryTaxonomy(), backend)
    assert err.value is first
    assert backend.calls < 12 * 9 // 2


def test_classify_graph_interrupt_in_a_helper_reaches_the_caller(gazetteer_backend, gazetteer):
    class InterruptHelper(_Gazetteer):
        def complete(self, request):
            if threading.current_thread() is not threading.main_thread():
                raise KeyboardInterrupt
            return super().complete(request)

    backend = InterruptHelper(gazetteer_backend, delay_s=0.003)
    graph = _gazetteer_graph(gazetteer)
    with pytest.raises(KeyboardInterrupt):
        classify_graph(graph, CategoryTaxonomy(), backend)
    assert backend.calls < 12 * 9
    assert all(not node.categories for node in graph.nodes.values())


def test_classification_outcome_predictions_and_undetermined():
    from supplygraph.classify import ClassificationOutcome

    taxonomy = CategoryTaxonomy(categories=("a cat", "b cat"))
    outcome = ClassificationOutcome(
        answers={
            ("x", "a cat"): True,
            ("x", "b cat"): None,
            ("y", "a cat"): False,
            ("y", "b cat"): False,
        },
        skipped_no_description=["z"],
    )
    assert outcome.undetermined_pairs() == {("x", "b cat")}
    assert outcome.to_report(taxonomy) == {
        "entities_classified": 2,
        "unlabeled_count": 1,
        "skipped_no_description": ["z"],
        "taxonomy": ["a cat", "b cat"],
        "labels": {"x": ["a cat"], "y": []},
        "undetermined": {"x": ["b cat"]},
    }


# -- dataset evaluation ---------------------------------------------------------------


def _example(entity, category, gold):
    return LabeledExample(entity_id=entity, category=category, gold=gold, description="d")


def test_evaluate_all_per_category_macro_micro():
    taxonomy = CategoryTaxonomy(categories=("a cat", "b cat"))
    dataset = [
        _example("e1", "a cat", True),
        _example("e2", "a cat", False),
        _example("e1", "b cat", False),
        _example("e2", "b cat", False),
    ]
    predictions = {
        ("e1", "a cat"): True,
        ("e2", "a cat"): True,
        ("e1", "b cat"): False,
        ("e2", "b cat"): False,
    }
    report = evaluate_all(dataset, predictions, taxonomy)
    a_counts, a_metrics = report.per_category["a cat"]
    assert a_counts == ConfusionCounts(tp=1, fp=1)
    assert a_metrics.accuracy == 0.5
    b_counts, b_metrics = report.per_category["b cat"]
    assert b_counts == ConfusionCounts(tn=2)
    assert b_metrics.accuracy == 1.0
    assert report.macro.accuracy == pytest.approx(0.75)
    assert report.micro_counts == ConfusionCounts(tp=1, fp=1, tn=2)
    assert report.micro.accuracy == pytest.approx(0.75)
    assert report.evaluated == 4
    assert report.undetermined == 0


def test_evaluate_all_macro_is_unweighted():
    taxonomy = CategoryTaxonomy(categories=("big", "small"))
    dataset = [_example(f"e{i}", "big", False) for i in range(9)]
    dataset.append(_example("x", "small", True))
    predictions = {(f"e{i}", "big"): False for i in range(9)}
    predictions[("x", "small")] = False  # the one small example is wrong
    report = evaluate_all(dataset, predictions, taxonomy)
    assert report.per_category["big"][1].accuracy == 1.0
    assert report.per_category["small"][1].accuracy == 0.0
    assert report.macro.accuracy == pytest.approx(0.5)  # not 0.9
    assert report.micro.accuracy == pytest.approx(0.9)


def test_evaluate_all_excludes_undetermined_pairs():
    taxonomy = CategoryTaxonomy(categories=("a cat",))
    dataset = [
        _example("e1", "a cat", True),
        _example("e2", "a cat", False),
    ]
    answers = {("e1", "a cat"): True, ("e2", "a cat"): None}
    report = evaluate_all(dataset, answers, taxonomy)
    assert report.evaluated == 1
    assert report.undetermined == 1
    assert report.micro.accuracy == 1.0


def test_evaluate_all_missing_prediction():
    taxonomy = CategoryTaxonomy(categories=("a cat",))
    dataset = [_example("e1", "a cat", True)]
    with pytest.raises(ValueError, match=re.escape("no prediction for ('e1', 'a cat')")):
        evaluate_all(dataset, {}, taxonomy)


def test_evaluate_all_unknown_category():
    taxonomy = CategoryTaxonomy(categories=("a cat",))
    dataset = [_example("e1", "weird", True)]
    with pytest.raises(ValueError):
        evaluate_all(dataset, {("e1", "weird"): True}, taxonomy)


def test_evaluate_all_empty_inputs():
    taxonomy = CategoryTaxonomy(categories=("a cat",))
    with pytest.raises(ValueError, match="dataset is empty"):
        evaluate_all([], {}, taxonomy)
    dataset = [_example("e1", "a cat", True)]
    with pytest.raises(ValueError, match="every example was undetermined"):
        evaluate_all(dataset, {("e1", "a cat"): None}, taxonomy)


def test_evaluate_all_report_shape():
    taxonomy = CategoryTaxonomy(categories=("a cat",))
    dataset = [_example("e1", "a cat", True)]
    report = evaluate_all(dataset, {("e1", "a cat"): True}, taxonomy)
    data = report.to_dict()
    assert set(data) == {"per_category", "macro", "micro", "evaluated", "undetermined"}
    assert data["per_category"]["a cat"]["counts"] == {"tp": 1, "fp": 0, "tn": 0, "fn": 0}
    assert data["micro"]["metrics"]["f1"] == 1.0
    assert json.dumps(data)  # JSON-safe


# -- balanced downsampling ---------------------------------------------------------


def _skewed(category="a cat", positives=3, negatives=17):
    out = []
    for i in range(positives):
        out.append(_example(f"p{i}", category, True))
    for i in range(negatives):
        out.append(_example(f"n{i}", category, False))
    return out


def test_downsample_balances_counts():
    dataset = _skewed()
    balanced = downsample_balanced(dataset, "a cat", rng_seed=7)
    pos = [ex for ex in balanced if ex.gold]
    neg = [ex for ex in balanced if not ex.gold]
    assert len(pos) == len(neg) == 3
    assert set(pos) <= set(dataset)
    assert set(neg) <= set(dataset)


def test_downsample_keeps_original_order():
    dataset = _skewed()
    balanced = downsample_balanced(dataset, "a cat", rng_seed=7)
    positions = [dataset.index(ex) for ex in balanced]
    assert positions == sorted(positions)


def test_downsample_is_seed_reproducible():
    dataset = _skewed(positives=5, negatives=50)
    first = downsample_balanced(dataset, "a cat", rng_seed=3)
    second = downsample_balanced(dataset, "a cat", rng_seed=3)
    different = downsample_balanced(dataset, "a cat", rng_seed=4)
    assert first == second
    assert first != different


def test_downsample_minority_can_be_negative():
    dataset = _skewed(positives=10, negatives=2)
    balanced = downsample_balanced(dataset, "a cat", rng_seed=1)
    assert sum(ex.gold for ex in balanced) == 2
    assert sum(not ex.gold for ex in balanced) == 2


def test_downsample_already_balanced_keeps_everything():
    dataset = _skewed(positives=4, negatives=4)
    balanced = downsample_balanced(dataset, "a cat", rng_seed=1)
    assert balanced == dataset


def test_downsample_ignores_other_categories():
    dataset = _skewed() + [_example("z", "b cat", True)]
    balanced = downsample_balanced(dataset, "a cat", rng_seed=7)
    assert all(ex.category == "a cat" for ex in balanced)


def test_downsample_degenerate_class():
    all_positive = [_example(f"p{i}", "a cat", True) for i in range(3)]
    with pytest.raises(ValueError, match="category 'a cat' needs both positives and negatives"):
        downsample_balanced(all_positive, "a cat", rng_seed=1)
    with pytest.raises(ValueError, match="category 'missing cat' needs both"):
        downsample_balanced(all_positive, "missing cat", rng_seed=1)


# -- dataset io -------------------------------------------------------------------


def test_load_labeled_dataset_fixture():
    dataset = load_labeled_dataset(LABELS_PATH, CategoryTaxonomy())
    assert len(dataset) == 108  # 12 entities x 9 categories
    assert sum(ex.gold for ex in dataset) == 15
    entities = {ex.entity_id for ex in dataset}
    assert len(entities) == 12


def test_labeled_dataset_roundtrip(tmp_path):
    dataset = load_labeled_dataset(LABELS_PATH, CategoryTaxonomy())
    out = tmp_path / "labels.jsonl"
    write_jsonl(str(out), (asdict(ex) for ex in dataset))
    assert load_labeled_dataset(str(out), CategoryTaxonomy()) == dataset


def test_load_labeled_dataset_rejects_non_bool_gold(tmp_path):
    path = tmp_path / "labels.jsonl"
    record = {"entity_id": "e", "category": "a cat", "gold": "yes", "description": "d"}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_labeled_dataset(str(path), CategoryTaxonomy(categories=("a cat",)))


def test_load_labeled_dataset_rejects_missing_field(tmp_path):
    path = tmp_path / "labels.jsonl"
    path.write_text('{"entity_id": "e", "category": "c", "gold": true}\n', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_labeled_dataset(str(path), CategoryTaxonomy(categories=("c",)))
    assert err.value.line == 1


def test_load_labeled_dataset_taxonomy_check(tmp_path):
    path = tmp_path / "labels.jsonl"
    record = {"entity_id": "e", "category": "weird", "gold": True, "description": "d"}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    taxonomy = CategoryTaxonomy(categories=("a cat",))
    with pytest.raises(ParseError):
        load_labeled_dataset(str(path), taxonomy)


def test_load_labeled_dataset_rejects_repeated_pair(tmp_path):
    path = tmp_path / "labels.jsonl"
    rows = [
        {"entity_id": "e", "category": "a cat", "gold": True, "description": "d"},
        {"entity_id": "e", "category": "b cat", "gold": True, "description": "d"},
        {"entity_id": "e", "category": "a cat", "gold": False, "description": "d"},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_labeled_dataset(str(path), CategoryTaxonomy(categories=("a cat", "b cat")))
    assert "repeated label" in str(err.value)
    assert (err.value.path, err.value.line) == (str(path), 3)


def test_predictions_roundtrip(tmp_path):
    answers = {("x", "a cat"): True, ("x", "b cat"): None, ("y", "a cat"): False}
    path = tmp_path / "predictions.jsonl"
    dump_predictions(answers, str(path))
    assert [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()] == [
        {"entity_id": "x", "category": "a cat", "prediction": True},
        {"entity_id": "x", "category": "b cat", "undetermined": True},
        {"entity_id": "y", "category": "a cat", "prediction": False},
    ]
    loaded = load_predictions(str(path))
    assert loaded == answers
    assert list(loaded) == list(answers)


@pytest.mark.parametrize("undetermined", ["no", "yes", 1, False, None, [True]])
def test_load_predictions_takes_undetermined_only_when_true(tmp_path, undetermined):
    path = tmp_path / "predictions.jsonl"
    write_jsonl(str(path), [
        {"entity_id": "x", "category": "a cat", "prediction": True},
        {"entity_id": "x", "category": "b cat", "undetermined": undetermined},
    ])
    with pytest.raises(ParseError, match='"undetermined" true') as err:
        load_predictions(str(path))
    assert (err.value.path, err.value.line) == (str(path), 2)


@pytest.mark.parametrize("undetermined", [True, False])
@pytest.mark.parametrize("prediction", [True, False])
def test_load_predictions_rejects_a_row_with_both_fields(tmp_path, undetermined, prediction):
    path = tmp_path / "predictions.jsonl"
    write_jsonl(str(path), [
        {"entity_id": "x", "category": "a cat", "undetermined": True},
        {"entity_id": "x", "category": "b cat", "undetermined": undetermined,
         "prediction": prediction},
    ])
    with pytest.raises(ParseError, match="both a prediction and undetermined") as err:
        load_predictions(str(path))
    assert (err.value.path, err.value.line) == (str(path), 2)
