import json
import os
import threading

import pytest

import spans
import supplygraph.prompting as prompting


def _span(id, name, start, end, parent, thread=0):
    return spans.Span(id, name, start, end, parent, "pass0", thread)


def test_self_time_subtracts_union_of_children_across_threads():
    tree = [
        _span(0, "crawler.run", 0.0, 10.0, None),
        # Two worker threads overlap each other inside the crawl span.
        _span(1, "backends.call", 1.0, 4.0, 0, thread=1),
        _span(2, "backends.call", 2.0, 6.0, 0, thread=2),
        _span(3, "prompting.segment", 7.0, 8.0, 0),
        # A child ending after its parent only covers the parent's part.
        _span(4, "graph.upsert", 9.0, 12.0, 0),
        _span(5, "prompting.render", 2.5, 3.0, 2, thread=2),
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10 - (5 + 1 + 1))
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(4.0 - 0.5)
    assert own[5] == pytest.approx(0.5)
    m = spans.layer_metrics(tree, 0, {}, (0, 0))
    assert m["crawler.self_s"] == pytest.approx(3.0)
    assert m["backends.busy_s"] == pytest.approx(7.0)
    assert m["backends.calls"] == 2


def test_worker_thread_spans_take_the_open_main_span_as_parent():
    tracer = spans.Tracer()
    original = prompting.segment_text
    tracer.install()
    try:
        assert prompting.segment_text is not original
        with tracer.span("stage.crawl"):
            workers = [threading.Thread(target=prompting.segment_text, args=("a b. c d.", 2))
                       for _ in range(2)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in workers)
    finally:
        tracer.uninstall()
    assert prompting.segment_text is original
    stage = next(s for s in tracer.spans if s.name == "stage.crawl")
    segments = [s for s in tracer.spans if s.name == "prompting.segment"]
    assert len(segments) == 2
    assert {s.parent for s in segments} == {stage.id}
    assert spans.layer_metrics(tracer.spans, 0, {}, (0, 0))["prompting.segments"] == 4


def test_missing_target_marks_its_metrics_absent(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("graph.sample", "supplygraph.graph", "SupplyChainGraph.no_such_method"),))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    absent = spans.absent_metrics(tracer.missing)
    assert absent == {"graph.sample_s": "supplygraph.graph.SupplyChainGraph.no_such_method"}


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert spans.percentile(values, 50) == 50
    assert spans.percentile(values, 90) == 90
    assert spans.percentile(values, 99) == 99
    assert spans.percentile([], 50) == 0.0


def test_layer_metrics_are_the_declared_per_layer_metrics():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    emitted = set(spans.layer_metrics([], 0, {}, (0, 0))) | {"trace.overhead"}
    assert emitted == declared
    assert set(spans.SOURCES) <= declared
