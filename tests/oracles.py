"""Brute-force reference implementations used to check the pipeline.

These deliberately avoid the package's crawl/parse/backend machinery: the
corpus and truth files are read as raw JSON and the expected graph is derived
by plain set enumeration.
"""

from __future__ import annotations

import json
import re
from collections import deque


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def comention_closure(corpus_path, truth_path, seeds):
    """Expected (nodes, edges) from crawling: BFS over keywords, clique pairs.

    edges maps each sorted name pair to the set of article ids mentioning
    both names.
    """
    with open(truth_path, encoding="utf-8") as fh:
        truth = json.load(fh)
    by_keyword: dict[str, list[str]] = {}
    for record in read_jsonl(corpus_path):
        by_keyword.setdefault(record["retrieved_for_keyword"], []).append(record["id"])

    nodes = set(seeds)
    edges: dict[tuple[str, str], set[str]] = {}
    queue = deque(seeds)
    visited = set()
    while queue:
        keyword = queue.popleft()
        if keyword in visited:
            continue
        visited.add(keyword)
        for article_id in by_keyword.get(keyword, []):
            mentioned = sorted(set(truth[article_id]))
            for i in range(len(mentioned)):
                for j in range(i + 1, len(mentioned)):
                    edges.setdefault((mentioned[i], mentioned[j]), set()).add(article_id)
            for name in mentioned:
                if name not in nodes:
                    nodes.add(name)
                    queue.append(name)
    return nodes, edges


def confusion_recount(predictions, golds):
    """Plain loop confusion counting: (tp, fp, tn, fn)."""
    tp = fp = tn = fn = 0
    for pred, gold in zip(predictions, golds):
        if gold and pred:
            tp += 1
        elif gold and not pred:
            fn += 1
        elif not gold and pred:
            fp += 1
        else:
            tn += 1
    return tp, fp, tn, fn


def metrics_recount(tp, fp, tn, fn):
    total = tp + fp + tn + fn
    accuracy = (tp + tn) / total if total else 0.0
    f1 = (2 * tp / (2 * tp + fp + fn)) if (2 * tp + fp + fn) else 0.0
    return accuracy, f1


def bfs_k_hop(adjacency, seed, k):
    """Set of nodes within k hops of seed (seed included)."""
    reached = {seed}
    frontier = [seed]
    for _ in range(k):
        nxt = []
        for node in frontier:
            for neighbor in adjacency.get(node, ()):
                if neighbor not in reached:
                    reached.add(neighbor)
                    nxt.append(neighbor)
        frontier = nxt
    return reached


def _tokens(text):
    return int(len(text.split()) * 1.3)


def segment_by_reestimate(text, budget):
    """Segments of text, re-estimating each candidate join from its string.

    Sentence spans first, word spans inside a sentence over the budget; a
    unit joins the current segment while the estimate of the joined string
    fits the budget.
    """
    spans = []
    start = 0
    for m in re.finditer(r"[.!?]+(?:\s+|$)", text):
        spans.append(text[start:m.end()])
        start = m.end()
    if start < len(text):
        spans.append(text[start:])
    units = []
    for sentence in spans:
        if _tokens(sentence) <= budget:
            units.append(sentence)
        else:
            units.extend(re.findall(r"\s*\S+\s*", sentence) or [sentence])
    segments = []
    current = ""
    for unit in units:
        if current and _tokens(current + unit) > budget:
            segments.append(current)
            current = unit
        else:
            current += unit
    if current:
        segments.append(current)
    return tuple(segments)


def truncate_by_bisection(text, budget):
    """Largest whitespace-word prefix of text that fits, by binary search."""
    if _tokens(text) <= budget:
        return text
    words = text.split()
    lo, hi = 0, len(words)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _tokens(" ".join(words[:mid])) <= budget:
            lo = mid
        else:
            hi = mid - 1
    return " ".join(words[:lo])


def extract_by_name(gazetteer, news):
    """Numbered "name: description" list of the gazetteer names in news.

    Tries every name with a word-bounded search and orders the hits by
    first occurrence, then by name. gazetteer maps name to description.
    """
    found = []
    for name in gazetteer:
        m = re.search(r"\b" + re.escape(name) + r"\b", news)
        if m:
            found.append((m.start(), name))
    found.sort()
    lines = []
    for i, (_, name) in enumerate(found, 1):
        lines.append(f"{i}. {name}: {gazetteer[name]}" if gazetteer[name] else f"{i}. {name}:")
    return "\n".join(lines)
