"""Fixture paths and helpers that test modules import.

Kept out of conftest.py: pytest imports every conftest.py under the module
name ``conftest``, so with ``perfbench/tests`` in the same run, an import
from ``conftest`` can get the benchmark's conftest instead of this suite's.
"""

from __future__ import annotations

import os

from supplygraph.classify import CategoryTaxonomy, LabeledExample, evaluate_all

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

NEWS_PATH = os.path.join(FIXTURES, "news.jsonl")
TRUTH_PATH = os.path.join(FIXTURES, "news_mentions.json")
GAZETTEER_PATH = os.path.join(FIXTURES, "gazetteer.jsonl")
DEDUP_NEWS_PATH = os.path.join(FIXTURES, "dedup_news.jsonl")
LABELS_PATH = os.path.join(FIXTURES, "labels.jsonl")


def score_one_category(predictions, golds):
    """evaluate_all over a one-category dataset whose i-th example has gold
    ``golds[i]`` and answer ``predictions[i]``: that category's (counts,
    metrics), which are also the micro ones."""
    dataset = [LabeledExample(f"e{i}", "a cat", gold, "d") for i, gold in enumerate(golds)]
    answers = {(f"e{i}", "a cat"): pred for i, pred in enumerate(predictions)}
    report = evaluate_all(dataset, answers, CategoryTaxonomy(categories=("a cat",)))
    assert (report.micro_counts, report.micro) == report.per_category["a cat"]
    return report.per_category["a cat"]
