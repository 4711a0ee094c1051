"""Brute-force references the benchmark checks its outputs against.

Like ``tests/oracles.py``, these avoid the package's crawl, parse and graph
code: the expected crawl graph comes from the generator's planted mention
sets by plain set enumeration, and the expected k-hop sample from a BFS over
an adjacency map plus the documented seeded sampling rule.
"""

from __future__ import annotations

import random
from collections import deque


def comention_closure(
    articles: list[dict], truth: dict[str, list[str]], seeds: list[str]
) -> tuple[set[str], dict[tuple[str, str], set[str]]]:
    """Expected (nodes, edges) of a crawl run to exhaustion from ``seeds``.

    ``edges`` maps each sorted name pair to the ids of the articles that
    mention both.
    """
    by_keyword: dict[str, list[str]] = {}
    for record in articles:
        by_keyword.setdefault(record["retrieved_for_keyword"], []).append(record["id"])
    nodes = set(seeds)
    edges: dict[tuple[str, str], set[str]] = {}
    queue = deque(seeds)
    visited: set[str] = set()
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


def adjacency(edges) -> dict[str, set[str]]:
    """Undirected adjacency map from an iterable of (a, b) pairs."""
    adj: dict[str, set[str]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def k_hop_sample(adj: dict[str, set[str]], seed: str, k: int, max_nodes: int,
                 rng_seed: int) -> set[str]:
    """Nodes ``sample_k_hop`` must keep: the seed plus all of its k-hop
    neighbourhood, or a seeded uniform sample of ``max_nodes - 1`` of it taken
    from the sorted candidates when the neighbourhood is larger."""
    reached = {seed}
    frontier = [seed]
    for _ in range(k):
        nxt = []
        for node in frontier:
            for neighbor in adj.get(node, ()):
                if neighbor not in reached:
                    reached.add(neighbor)
                    nxt.append(neighbor)
        frontier = nxt
    candidates = sorted(reached - {seed})
    if len(candidates) + 1 > max_nodes:
        keep = set(random.Random(rng_seed).sample(candidates, max_nodes - 1))
    else:
        keep = set(candidates)
    keep.add(seed)
    return keep
