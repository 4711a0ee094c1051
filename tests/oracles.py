"""Brute-force reference implementations used to check the pipeline.

These deliberately avoid the package's crawl/parse/backend machinery: the
corpus and truth files are read as raw JSON and the expected graph is derived
by plain set enumeration.
"""

from __future__ import annotations

import copy
import json
import random
import re
import string
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from xml.sax.saxutils import escape, quoteattr

from supplygraph.errors import EmptyName, SameNode, UnknownNode
from supplygraph.files import open_output
from supplygraph.graph import SupplyChainGraph
from supplygraph.prompting import REASONING_PREAMBLE


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


def adjacency(graph):
    """Every node's neighbour set, read from the graph's edge table."""
    adj = {cid: set() for cid in graph.nodes}
    for a, b in graph.edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _fields(graph):
    """A graph's nodes, edges and alias table as plain values, field by field:
    aliases, categories and provenance as sets, descriptions as a list."""
    nodes = {
        cid: (n.canonical_id, n.display_name, set(n.aliases), list(n.descriptions),
              set(n.categories))
        for cid, n in graph.nodes.items()
    }
    edges = {key: (e.a, e.b, set(e.provenance)) for key, e in graph.edges.items()}
    return nodes, edges, graph.alias_table


def graph_equal(g1, g2):
    """Structural equality: node contents, alias table, edges with provenance.

    Records are compared field by field, so a ScanGraph, whose records are
    mutable, compares with a package graph, whose records are frozen."""
    return _fields(g1) == _fields(g2)


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


_PLACEHOLDER_RE = re.compile(r"\{(news|industry|company_name|company_description|company_category)\}")


def substitute(text, values):
    """text with each known placeholder that has a value replaced, in one
    regex pass (the renderer's earlier code)."""
    return _PLACEHOLDER_RE.sub(
        lambda m: values[m.group(1)] if m.group(1) in values else m.group(0), text
    )


def render_by_regex(template, values, reasoning=False):
    """(system, user, question) of a PromptTemplate, each part substituted
    by ``substitute``; the reasoning preamble goes before the question."""
    question = template.question
    if reasoning:
        question = REASONING_PREAMBLE + " " + question
    return tuple(substitute(part, values) for part in (template.system, template.user, question))


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


_EDGE_CHARS = string.punctuation + string.whitespace


def normalize_name(raw, stopwords=None):
    """A name's plain form, or with stopwords its matching form, by the rules
    name_forms documents, one word at a time: lowercase, join the words with
    single spaces, trim edge punctuation and whitespace, then drop trailing
    company-suffix words, trimming again after each. Raises EmptyName with
    name_forms's messages."""
    if not raw.strip():
        raise EmptyName("name is empty")
    name = " ".join(raw.lower().split()).strip(_EDGE_CHARS)
    suffixes = stopwords.company_suffixes if stopwords is not None else ()
    while name and name.rpartition(" ")[2] in suffixes:
        name = name.rpartition(" ")[0].strip(_EDGE_CHARS)
    if not name:
        raise EmptyName(f"nothing left of {raw!r} after suffix stripping")
    return name


def _pair(x, y):
    return (x, y) if x <= y else (y, x)


@dataclass
class ScanNode:
    canonical_id: str
    display_name: str
    aliases: set = field(default_factory=set)
    descriptions: list = field(default_factory=list)
    categories: set = field(default_factory=set)


@dataclass
class ScanEdge:
    a: str
    b: str
    provenance: set = field(default_factory=set)


class ScanGraph(SupplyChainGraph):
    """SupplyChainGraph on plain mutable records, whose edge operations scan
    the whole edge table.

    Every method that writes a record is the version from before records
    were frozen and before the adjacency index: they change ScanNode and
    ScanEdge records in place, neighbors and merge_nodes walk every edge, and
    sample_k_hop deep-copies the kept nodes and filters every edge. Only
    canonicalize is the package's own, so the graph's methods can be checked
    against these.
    """

    @classmethod
    def of(cls, graph):
        """A reference graph holding copies of a graph's nodes, edges and aliases."""
        ref = cls(graph.stopwords)
        for cid, n in graph.nodes.items():
            ref.nodes[cid] = ScanNode(n.canonical_id, n.display_name, set(n.aliases),
                                      list(n.descriptions), set(n.categories))
        for key, e in graph.edges.items():
            ref.edges[key] = ScanEdge(e.a, e.b, set(e.provenance))
        ref.alias_table = dict(graph.alias_table)
        return ref

    def _register_variant(self, raw_name, canonical_id):
        node = self.nodes[canonical_id]
        alias = normalize_name(raw_name)
        node.aliases.add(alias)
        self.alias_table[alias] = canonical_id
        self.alias_table[normalize_name(raw_name, self.stopwords)] = canonical_id

    def upsert_entity(self, raw_name, description="", article_id=""):
        canonical_id = self.canonicalize(raw_name)
        if canonical_id is None:
            canonical_id = normalize_name(raw_name)
            self.nodes[canonical_id] = ScanNode(
                canonical_id=canonical_id,
                display_name=raw_name.strip(),
                aliases={canonical_id},
            )
        self._register_variant(raw_name, canonical_id)
        node = self.nodes[canonical_id]
        if description and article_id:
            pair = (article_id, description)
            if pair not in node.descriptions:
                node.descriptions.append(pair)
        return canonical_id

    def apply_aliases(self, mapping):
        for variant, canonical_raw in mapping.items():
            target = self.canonicalize(canonical_raw)
            if target is None:
                target = self.upsert_entity(canonical_raw)
            existing = self.canonicalize(variant)
            if existing is not None and existing != target:
                self.merge_nodes(target, existing)
            self._register_variant(variant, target)

    def add_comention(self, article_id, mentioned):
        ids = sorted(set(mentioned))
        for cid in ids:
            if cid not in self.nodes:
                raise UnknownNode(cid)
        touched = 0
        for x, y in combinations(ids, 2):
            key = _pair(x, y)
            edge = self.edges.get(key)
            if edge is None:
                edge = ScanEdge(a=key[0], b=key[1])
                self.edges[key] = edge
            edge.provenance.add(article_id)
            touched += 1
        return touched

    def neighbors(self, canonical_id):
        if canonical_id not in self.nodes:
            raise UnknownNode(canonical_id)
        return sorted(adjacency(self)[canonical_id])

    def merge_nodes(self, survivor, duplicate):
        if survivor not in self.nodes:
            raise UnknownNode(survivor)
        if duplicate not in self.nodes:
            raise UnknownNode(duplicate)
        if survivor == duplicate:
            raise SameNode(survivor)
        surv = self.nodes[survivor]
        dup = self.nodes.pop(duplicate)
        surv.aliases |= dup.aliases
        for pair in dup.descriptions:
            if pair not in surv.descriptions:
                surv.descriptions.append(pair)
        surv.categories |= dup.categories
        for key in [k for k in self.edges if duplicate in k]:
            edge = self.edges.pop(key)
            other = edge.a if edge.b == duplicate else edge.b
            if other == survivor:
                continue
            new_key = _pair(survivor, other)
            kept = self.edges.get(new_key)
            if kept is None:
                self.edges[new_key] = ScanEdge(
                    a=new_key[0], b=new_key[1], provenance=set(edge.provenance)
                )
            else:
                kept.provenance |= edge.provenance
        for variant, target in list(self.alias_table.items()):
            if target == duplicate:
                self.alias_table[variant] = survivor

    def sample_k_hop(self, seed, k, max_nodes, rng_seed):
        if seed not in self.nodes:
            raise UnknownNode(seed)
        if k < 1:
            raise ValueError("k must be >= 1")
        if max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")
        reached = {seed}
        frontier = deque([(seed, 0)])
        while frontier:
            cid, depth = frontier.popleft()
            if depth == k:
                continue
            for nb in self.neighbors(cid):
                if nb not in reached:
                    reached.add(nb)
                    frontier.append((nb, depth + 1))
        candidates = sorted(reached - {seed})
        if 1 + len(candidates) > max_nodes:
            keep = set(random.Random(rng_seed).sample(candidates, max_nodes - 1))
        else:
            keep = set(candidates)
        keep.add(seed)
        sub = ScanGraph(self.stopwords)
        for cid in sorted(keep):
            sub.nodes[cid] = copy.deepcopy(self.nodes[cid])
        for (a, b), edge in self.edges.items():
            if a in keep and b in keep:
                sub.edges[(a, b)] = ScanEdge(a=a, b=b, provenance=set(edge.provenance))
        for variant, target in self.alias_table.items():
            if target in keep:
                sub.alias_table[variant] = target
        return sub


# -- persistence and exports: the json-module writers ---------------------------------


def save_state_json(graph, path):
    """graph.json as json.dump(indent=2) streams it, through the atomic writer."""
    state = {
        "schema_version": 2,
        "stopwords": {
            "company_suffixes": sorted(graph.stopwords.company_suffixes),
        },
        "nodes": [
            {
                "canonical_id": node.canonical_id,
                "display_name": node.display_name,
                "aliases": sorted(node.aliases),
                "descriptions": [list(p) for p in node.descriptions],
                "categories": sorted(node.categories),
            }
            for _, node in sorted(graph.nodes.items())
        ],
        "edges": [
            {"source": a, "target": b, "provenance": sorted(edge.provenance)}
            for (a, b), edge in sorted(graph.edges.items())
        ],
        "alias_table": {k: graph.alias_table[k] for k in sorted(graph.alias_table)},
    }
    with open_output(path) as fh:
        json.dump(state, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def _sorted_nodes(graph):
    return [graph.nodes[cid] for cid in sorted(graph.nodes)]


def _sorted_edges(graph):
    return [graph.edges[k] for k in sorted(graph.edges)]


def graphml_text(graph):
    """The graphml export, quoting each edge end again."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="d0" for="node" attr.name="display_name" attr.type="string"/>',
        '  <key id="d1" for="node" attr.name="categories" attr.type="string"/>',
        '  <key id="d2" for="edge" attr.name="weight" attr.type="int"/>',
        '  <graph id="G" edgedefault="undirected">',
    ]
    for node in _sorted_nodes(graph):
        lines.append(f"    <node id={quoteattr(node.canonical_id)}>")
        lines.append(f"      <data key=\"d0\">{escape(node.display_name)}</data>")
        lines.append(f"      <data key=\"d1\">{escape(';'.join(sorted(node.categories)))}</data>")
        lines.append("    </node>")
    for edge in _sorted_edges(graph):
        lines.append(f"    <edge source={quoteattr(edge.a)} target={quoteattr(edge.b)}>")
        lines.append(f"      <data key=\"d2\">{edge.weight}</data>")
        lines.append("    </edge>")
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


def _dot_quote(value):
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_text(graph):
    """The dot export, quoting each edge end again."""
    lines = ["graph supply_chain {"]
    for node in _sorted_nodes(graph):
        attrs = f"label={_dot_quote(node.display_name)}"
        if node.categories:
            attrs += f", categories={_dot_quote(';'.join(sorted(node.categories)))}"
        lines.append(f"  {_dot_quote(node.canonical_id)} [{attrs}];")
    for edge in _sorted_edges(graph):
        lines.append(f"  {_dot_quote(edge.a)} -- {_dot_quote(edge.b)} [weight={edge.weight}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def jsonl_text(graph):
    """The jsonl export, one json.dumps call per row."""
    lines = []
    for node in _sorted_nodes(graph):
        lines.append(json.dumps(
            {
                "kind": "node",
                "id": node.canonical_id,
                "display_name": node.display_name,
                "categories": sorted(node.categories),
            },
            ensure_ascii=False,
        ))
    for edge in _sorted_edges(graph):
        lines.append(json.dumps(
            {"kind": "edge", "source": edge.a, "target": edge.b, "weight": edge.weight},
            ensure_ascii=False,
        ))
    return "".join(line + "\n" for line in lines)


EXPORT_TEXT = {"graphml": graphml_text, "dot": dot_text, "jsonl": jsonl_text}


def export_text(graph, fmt, path):
    """An export as the string renderers built it, through the atomic writer."""
    text = EXPORT_TEXT[fmt](graph)
    with open_output(path) as fh:
        fh.write(text)
