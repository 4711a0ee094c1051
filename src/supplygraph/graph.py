"""Entity graph: canonicalized nodes, co-mention edges, sampling, and export.

Nodes are keyed by a canonical id (the first-seen variant, lowercased and
whitespace/punctuation-trimmed). The alias table maps each variant's
matching form (the lowercased name without trailing company suffixes) to its
node, so "AECOM", "Aecom Ltd." and "AECOM Corp." resolve to one node while the
stored aliases keep the three variants apart.

The neighbour index is a cache of the edges: a sample or a merge builds it
when it is missing, and any edit that adds or removes an edge drops it. It
numbers the nodes in id order, so a k-hop sample searches, picks and sorts
small integers, and it holds edge keys, so the sample reads each kept
edge's record from the graph.

Node and edge records are immutable and hold no id: a node's id and an
edge's ends are its key. The graph's methods change a record by storing a
new one in its place, so a k-hop sample, a read-only Subgraph, shares its
parent's records and copies only the dict entries for them.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain, combinations
from json.encoder import encode_basestring as _q
from operator import lt
from typing import Iterable, Iterator, NamedTuple
from xml.sax.saxutils import escape, quoteattr

from .corpus import StopwordLists, name_forms
from .errors import EmptyName, ParseError, UnknownNode
from .files import check_int, check_text, check_utf8, open_input, open_output, read_json

SCHEMA_VERSION = 3


@dataclass(slots=True, frozen=True)
class EntityNode:
    """A node's fields; its canonical id is its key in the nodes dict."""

    display_name: str
    aliases: frozenset[str] = frozenset()
    descriptions: tuple[tuple[str, str], ...] = ()
    categories: frozenset[str] = frozenset()


@dataclass(slots=True, frozen=True)
class ComentionEdge:
    """Undirected edge, stored under the key (a, b) of its ends with a < b;
    weight is defined as the number of provenance articles."""

    provenance: frozenset[str] = frozenset()

    @property
    def weight(self) -> int:
        return len(self.provenance)


class Subgraph(NamedTuple):
    """A k-hop sample: its nodes and the edges among them; the exports take it as a graph."""

    nodes: dict[str, EntityNode]
    edges: dict[tuple[str, str], ComentionEdge]


# The neighbour index (ids, rank, near): the ids of the nodes with an edge,
# sorted; each id's position in ids; and for each rank, the rank of each
# neighbour mapped to the key of the edge between them.
_Index = tuple[list[str], dict[str, int], list[dict[int, tuple[str, str]]]]


def _pair(x: str, y: str) -> tuple[str, str]:
    return (x, y) if x <= y else (y, x)


class SupplyChainGraph:
    def __init__(self, stopwords: StopwordLists | None = None):
        self.stopwords = stopwords if stopwords is not None else StopwordLists.default()
        self.nodes: dict[str, EntityNode] = {}
        self.edges: dict[tuple[str, str], ComentionEdge] = {}
        self.alias_table: dict[str, str] = {}
        # The neighbour index: None until a read builds it from edges, and
        # None again after any edit that adds or removes an edge. It holds
        # edge keys, not records, so an edit that only grows an edge's
        # provenance keeps it. Derived state, so save_state never reads it.
        self._adj: _Index | None = None

    # -- canonicalization -------------------------------------------------

    def canonicalize(self, raw_name: str) -> str | None:
        """Resolve a raw name to an existing canonical id, or None if new."""
        return self.alias_table.get(name_forms(raw_name, self.stopwords)[1])

    def _register_variant(self, canonical_id: str, alias: str, key: str,
                          pair: tuple[str, str] | None = None) -> None:
        """Index a variant's matching form (key) under a node, adding its
        plain form (alias) and the description pair to the node. The record
        is replaced only if one of them is new to it."""
        node = self.nodes[canonical_id]
        aliases, descriptions = node.aliases, node.descriptions
        if alias not in aliases:
            aliases = aliases | {alias}
        if pair is not None and pair not in descriptions:
            descriptions += (pair,)
        if aliases is not node.aliases or descriptions is not node.descriptions:
            self.nodes[canonical_id] = EntityNode(
                node.display_name, aliases, descriptions, node.categories)
        self.alias_table[key] = canonical_id

    def upsert_entity(self, raw_name: str, description: str = "", article_id: str = "") -> str:
        """Insert or update the entity behind a raw name; returns its canonical id.

        The name's node (its matching form's, else the one whose id is its plain
        form, else a new one) gains the raw form as an alias and the (article_id,
        description) pair; empty descriptions or article ids append nothing.
        """
        alias, key = name_forms(raw_name, self.stopwords)
        canonical_id = self.alias_table.get(key, alias)
        if canonical_id not in self.nodes:
            self.nodes[canonical_id] = EntityNode(raw_name.strip())
        self._register_variant(canonical_id, alias, key,
                               (article_id, description) if description and article_id else None)
        return canonical_id

    def set_categories(self, canonical_id: str, categories: Iterable[str]) -> None:
        """Label a node with exactly these categories."""
        node = self.nodes.get(canonical_id)
        if node is None:
            raise UnknownNode(canonical_id)
        categories = frozenset(categories)
        if categories != node.categories:
            self.nodes[canonical_id] = replace(node, categories=categories)

    # -- edges -------------------------------------------------------------

    def add_comention(self, article_id: str, mentioned: Iterable[str]) -> int:
        """Record one article co-mentioning a set of canonical ids.

        Adds the article to the provenance of every unordered pair (creating
        edges as needed) and returns the number of pairs touched. Repeating an
        article is a no-op for weights.
        """
        ids = sorted(set(mentioned))
        for cid in ids:
            if cid not in self.nodes:
                raise UnknownNode(cid)
        edges, article = self.edges, frozenset((article_id,))
        # ids is sorted, so each pair comes out as its ordered key.
        for key in combinations(ids, 2):
            edge = edges.get(key)
            if edge is None:
                edges[key] = ComentionEdge(article)
                self._adj = None
            elif article_id not in edge.provenance:
                edges[key] = ComentionEdge(edge.provenance | article)
        return len(ids) * (len(ids) - 1) // 2

    def _adjacency(self) -> _Index:
        """The neighbour index, built from edges on the first read after an
        edge was added or removed.

        Built aside and then published, so a concurrent reader never sees
        it half-built."""
        if self._adj is None:
            ids = sorted(set(chain.from_iterable(self.edges)))
            rank = {cid: r for r, cid in enumerate(ids)}
            near: list[dict[int, tuple[str, str]]] = [{} for _ in ids]
            for key in self.edges:
                a, b = rank[key[0]], rank[key[1]]
                near[a][b] = near[b][a] = key
            self._adj = ids, rank, near
        return self._adj

    def _neighbours(self, canonical_id: str) -> list[str]:
        """Ids of the nodes that share an edge with canonical_id, sorted."""
        ids, rank, near = self._adjacency()
        r = rank.get(canonical_id)
        return [] if r is None else [ids[n] for n in sorted(near[r])]

    def neighbors(self, canonical_id: str) -> list[str]:
        if canonical_id not in self.nodes:
            raise UnknownNode(canonical_id)
        return self._neighbours(canonical_id)

    # -- merging -----------------------------------------------------------

    def merge_nodes(self, survivor: str, duplicate: str) -> None:
        """Fold the duplicate node into the survivor.

        Aliases, descriptions, and categories are unioned; edges are
        re-pointed with provenance unions; a resulting survivor-survivor
        self-loop is dropped; the duplicate's variants resolve to the survivor.
        """
        if survivor not in self.nodes:
            raise UnknownNode(survivor)
        if duplicate not in self.nodes:
            raise UnknownNode(duplicate)
        if survivor == duplicate:
            raise ValueError(f"cannot merge node {survivor!r} into itself")
        surv = self.nodes[survivor]
        dup = self.nodes.pop(duplicate)
        descriptions = list(surv.descriptions)
        for pair in dup.descriptions:
            if pair not in descriptions:
                descriptions.append(pair)
        self.nodes[survivor] = EntityNode(surv.display_name, surv.aliases | dup.aliases,
                                          tuple(descriptions), surv.categories | dup.categories)
        for other in self._neighbours(duplicate):
            edge = self.edges.pop(_pair(duplicate, other))
            self._adj = None
            if other == survivor:
                continue  # self-loop after merge is dropped
            new_key = _pair(survivor, other)
            kept = self.edges.get(new_key)
            if kept is None:
                self.edges[new_key] = edge
            elif not edge.provenance <= kept.provenance:
                self.edges[new_key] = ComentionEdge(kept.provenance | edge.provenance)
        table, stopwords = self.alias_table, self.stopwords
        for alias in dup.aliases:
            table[name_forms(alias, stopwords)[1]] = survivor

    # -- aliases from operators ---------------------------------------------

    def apply_aliases(self, mapping: dict[str, str]) -> None:
        """Apply operator-declared variant -> canonical-name pairs.

        Creates the canonical node when missing; when a variant already
        resolves to a different node, the two nodes are merged.
        """
        for variant, canonical_raw in mapping.items():
            target = self.canonicalize(canonical_raw)
            if target is None:
                target = self.upsert_entity(canonical_raw)
            alias, key = name_forms(variant, self.stopwords)
            existing = self.alias_table.get(key)
            if existing is not None and existing != target:
                self.merge_nodes(target, existing)
            self._register_variant(target, alias, key)

    # -- sampling ------------------------------------------------------------

    def sample_k_hop(self, seed: str, k: int, max_nodes: int, rng_seed: int) -> Subgraph:
        """Induced subgraph of the k-hop neighborhood around a seed node.

        When the neighborhood exceeds max_nodes, a uniform seeded sample of
        max_nodes - 1 members is kept alongside the seed (which always stays).
        The search goes level by level, each level the union of the last
        one's neighbour sets, and stops early at a level that adds nothing.
        The sample is a read-only Subgraph: its own nodes and edges dicts,
        in id and key order, holding the graph's records.
        """
        if seed not in self.nodes:
            raise UnknownNode(seed)
        for name, value in (("k", k), ("max_nodes", max_nodes)):
            check_int(name, value)
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        check_int("rng_seed", rng_seed)
        ids, rank, near = self._adjacency()
        start = rank.get(seed)
        if start is None:
            return Subgraph({seed: self.nodes[seed]}, {})
        # The search, the pick and the edge copy run on ranks. Ranks sort as
        # ids do, so the seeded pick draws from the same list.
        reached, frontier = {start}, {start}
        for _ in range(k):
            frontier = set().union(*map(near.__getitem__, frontier)) - reached
            if not frontier:
                break
            reached |= frontier
        keep = reached
        if len(reached) > max_nodes:
            keep = set(random.Random(rng_seed).sample(sorted(reached - {start}), max_nodes - 1))
            keep.add(start)

        ranks, nodes, edges = sorted(keep), self.nodes, self.edges
        # Each kept edge is taken once, from its smaller end: later holds
        # the kept ranks after a. So the subgraph's edge table is in key order.
        sub_edges, later = {}, set(keep)
        for a in ranks:
            later.remove(a)
            keys = near[a]
            for b in sorted(keys.keys() & later):
                key = keys[b]
                sub_edges[key] = edges[key]
        # The records are immutable, so the subgraph shares them.
        return Subgraph({ids[r]: nodes[ids[r]] for r in ranks}, sub_edges)


# -- persistence -------------------------------------------------------------


# save_state's document is built afresh, so nothing in it can contain itself.
_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), check_circular=False)


def save_state(graph: SupplyChainGraph, path: str) -> None:
    """Write graph.json, schema 3: one compact JSON document of rows, nodes
    [id, display_name, aliases, descriptions, categories] in id order and
    edges [a, b, provenance] in (a, b) order, with a < b and every list
    sorted but descriptions. The alias table derives from aliases; it is not
    stored."""
    # Each writer sorts the keys and indexes the dict, which beats sorting items.
    nodes, edges = graph.nodes, graph.edges
    state = {
        "schema_version": SCHEMA_VERSION,
        "company_suffixes": sorted(graph.stopwords.company_suffixes),
        "nodes": [(cid, node.display_name, sorted(node.aliases), node.descriptions,
                   sorted(node.categories)) for cid in sorted(nodes) for node in [nodes[cid]]],
        "edges": [(k[0], k[1], sorted(edges[k].provenance)) for k in sorted(edges)],
    }
    with open_output(path) as fh:
        fh.write(_ENCODER.encode(state) + "\n")


def _is_strings(value: object) -> bool:
    if not isinstance(value, list):
        return False
    # str.join raises TypeError at the first item that is not a str. It runs
    # in C, several times faster than a generator of isinstance checks.
    try:
        "".join(value)
    except TypeError:
        return False
    return True


def _check_strings(check, field: str, strings: Iterable[str],
                   rows: Iterable[tuple[str, Iterable[str]]], where: str) -> None:
    """Run check once on all the strings joined; only on a failure walk the
    (name, strings) rows, to name the first one that fails."""
    try:
        check(" ".join(strings), field)
    except ValueError:
        for name, values in rows:
            try:
                for value in values:
                    check(value, field)
            except ValueError as exc:
                raise ParseError(f"{name} {exc}", path=where) from None


def _graph_of_rows(suffixes: object, node_rows: list, edge_rows: list,
                   where: str) -> SupplyChainGraph:
    """The graph that schema 3 rows hold. Text and edge checks run per column."""
    if not _is_strings(suffixes):
        raise ParseError("company_suffixes must be a list of strings", path=where)
    for suffix in suffixes:
        check_utf8(suffix, "company_suffixes")
    graph = SupplyChainGraph(StopwordLists(frozenset(suffixes)))
    nodes, table = graph.nodes, graph.alias_table
    for cid, name, aliases, descriptions, categories in node_rows:
        if not _is_strings([cid, name]):
            raise ParseError(f"node {cid!r} canonical_id and display_name must be strings",
                             path=where)
        if cid in nodes:
            raise ParseError(f"node {cid!r} repeats", path=where)
        for field, value in (("aliases", aliases), ("categories", categories)):
            if not _is_strings(value):
                raise ParseError(f"node {cid!r} {field} must be a list of strings", path=where)
        if cid not in aliases:
            raise ParseError(f"node {cid!r} aliases leave out its own id, so no name resolves "
                             "to it", path=where)
        if not isinstance(descriptions, list) or not all(
            _is_strings(p) and len(p) == 2 for p in descriptions
        ):
            raise ParseError(f"node {cid!r} descriptions must be [article id, description] pairs",
                             path=where)
        nodes[cid] = EntityNode(name, frozenset(aliases), tuple(map(tuple, descriptions)),
                                frozenset(categories))
        for alias in aliases:
            try:
                key = name_forms(alias, graph.stopwords)[1]
            except EmptyName:
                raise ParseError(f"node {cid!r} alias {alias!r} has no name left after "
                                 "normalization", path=where) from None
            if table.setdefault(key, cid) != cid:
                raise ParseError(f"node {cid!r} alias {alias!r} matches the same name as an "
                                 f"alias of node {table[key]!r}", path=where)
    # Names, aliases (ids among them) and categories keep the rule of every
    # name that enters a graph; descriptions reach only the JSON outputs.
    ids, names, aliases, descriptions, categories = zip(*node_rows) if node_rows else [()] * 5
    flat = chain.from_iterable
    for field, check, strings, column in (
        ("display_name", check_text, names, zip(names)),
        ("aliases", check_text, flat(aliases), aliases),
        ("categories", check_text, flat(categories), categories),
        ("descriptions", check_utf8, flat(flat(descriptions)), map(flat, descriptions)),
    ):
        _check_strings(check, field, strings, zip((f"node {c!r}" for c in ids), column), where)

    if set(map(len, edge_rows)) - {3}:
        raise ParseError("edge rows must be [a, b, provenance]", path=where)
    a_ids, b_ids, provenances = zip(*edge_rows) if edge_rows else ((), (), ())
    keys = list(zip(a_ids, b_ids))
    if not nodes.keys() >= set(a_ids).union(b_ids):
        key, end = next((k, end) for k in keys for end in k if end not in nodes)
        raise ParseError(f"edge {key} ends at unknown node {end!r}", path=where)
    if not all(map(lt, a_ids, b_ids)):
        key = next((a, b) for a, b in keys if a >= b)
        what = "is a self-loop" if key[0] == key[1] else "ends are not in sorted order"
        raise ParseError(f"edge {key} {what}", path=where)
    if not (set(map(type, provenances)) <= {list}
            and _is_strings(articles := list(chain.from_iterable(provenances)))):
        key = next(k for k, p in zip(keys, provenances) if not _is_strings(p))
        raise ParseError(f"edge {key} provenance must be a list of strings", path=where)
    _check_strings(check_utf8, "provenance", articles,
                   zip((f"edge {k}" for k in keys), provenances), where)
    if not all(provenances):
        raise ParseError(f"edge {keys[provenances.index([])]} has no provenance", path=where)
    if len(set(keys)) != len(keys):
        key = next(k for k, count in Counter(keys).items() if count > 1)
        raise ParseError(f"edge {key} repeats", path=where)
    graph.edges.update(zip(keys, map(ComentionEdge, map(frozenset, provenances))))
    return graph


def load_state(path: str) -> SupplyChainGraph:
    """Load a graph saved by save_state; round-trips to an equal graph. Each
    alias of a node resolves to it by its matching form.

    Raises ParseError naming the file on JSON that does not parse (with its
    line), a schema_version other than the int 3, and a state save_state
    cannot write or the exports cannot hold: a field of the wrong type or
    shape, a repeated node or edge, a node whose aliases leave out its id, an
    edge to no node, a self-loop, ends out of order, no provenance, an alias
    with no name left or sharing a matching form with another node's, a
    name, alias or category check_text rejects, or a lone surrogate.
    """
    where = str(path)
    state = read_json(path, "graph state")
    if not isinstance(state, dict) or "schema_version" not in state:
        raise ParseError("graph state missing schema_version", path=where)
    version = state["schema_version"]
    # bool is an int, True == 1 and 3.0 == 3.
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ParseError(f"expected schema {SCHEMA_VERSION}, found {version!r}", path=where)
    try:
        return _graph_of_rows(state["company_suffixes"], state["nodes"], state["edges"], where)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"graph state malformed: {exc}", path=where) from exc


def load_alias_file(path: str, stopwords: StopwordLists) -> dict[str, str]:
    """Read a TSV alias file: variant<TAB>canonical, one pair per line.

    Raises ParseError naming the file and line for a line that is not two
    fields, a name holding a character the outputs cannot hold, a name with
    nothing left after normalization with ``stopwords``, or a variant that an
    earlier line maps to a different canonical name. Two variants or two
    canonical names are the same when they normalize to the same matching
    form.
    """
    mapping: dict[str, str] = {}
    seen: dict[str, tuple[str, str, int]] = {}
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                raise ParseError("alias line must be variant<TAB>canonical", path=str(path), line=lineno)
            variant, canonical = parts[0].strip(), parts[1].strip()
            forms = []
            for name in (variant, canonical):
                try:
                    check_text(name, "alias name")
                    forms.append(name_forms(name, stopwords)[1])
                except ValueError as exc:
                    raise ParseError(str(exc), path=str(path), line=lineno) from None
                except EmptyName:
                    raise ParseError(
                        f"{name!r} has no name left after stripping punctuation and company "
                        "suffixes", path=str(path), line=lineno) from None
            key, target = forms
            earlier = seen.setdefault(key, (target, canonical, lineno))
            if earlier[0] != target:
                raise ParseError(
                    f"variant {variant!r} maps to {canonical!r} here but to {earlier[1]!r} "
                    f"on line {earlier[2]}", path=str(path), line=lineno)
            mapping[variant] = canonical
    return mapping


# -- exports -----------------------------------------------------------------


def _to_graphml(graph: SupplyChainGraph | Subgraph) -> Iterator[str]:
    yield (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
        '  <key id="d0" for="node" attr.name="display_name" attr.type="string"/>\n'
        '  <key id="d1" for="node" attr.name="categories" attr.type="string"/>\n'
        '  <key id="d2" for="edge" attr.name="weight" attr.type="int"/>\n'
        '  <graph id="G" edgedefault="undirected">\n'
    )
    nodes, edges = graph.nodes, graph.edges
    qid = {cid: quoteattr(cid) for cid in nodes}
    for cid in sorted(nodes):
        node = nodes[cid]
        yield (f"    <node id={qid[cid]}>\n"
               f"      <data key=\"d0\">{escape(node.display_name)}</data>\n"
               f"      <data key=\"d1\">{escape(';'.join(sorted(node.categories)))}</data>\n"
               "    </node>\n")
    for k in sorted(edges):
        yield (f"    <edge source={qid[k[0]]} target={qid[k[1]]}>\n"
               f"      <data key=\"d2\">{edges[k].weight}</data>\n"
               "    </edge>\n")
    yield "  </graph>\n</graphml>\n"


def _dot_quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _to_dot(graph: SupplyChainGraph | Subgraph) -> Iterator[str]:
    yield "graph supply_chain {\n"
    nodes, edges = graph.nodes, graph.edges
    qid = {cid: _dot_quote(cid) for cid in nodes}
    for cid in sorted(nodes):
        node = nodes[cid]
        attrs = f"label={_dot_quote(node.display_name)}"
        if node.categories:
            attrs += f", categories={_dot_quote(';'.join(sorted(node.categories)))}"
        yield f"  {qid[cid]} [{attrs}];\n"
    for k in sorted(edges):
        yield f"  {qid[k[0]]} -- {qid[k[1]]} [weight={edges[k].weight}];\n"
    yield "}\n"


def _to_jsonl(graph: SupplyChainGraph | Subgraph) -> Iterator[str]:
    """One row per node, then per edge: the bytes of json.dumps(row,
    ensure_ascii=False), with each string quoted by the json module's C
    quoter."""
    nodes, edges = graph.nodes, graph.edges
    qid = {cid: _q(cid) for cid in nodes}
    for cid in sorted(nodes):
        node = nodes[cid]
        categories = ", ".join(map(_q, sorted(node.categories)))
        yield (f'{{"kind": "node", "id": {qid[cid]}, '
               f'"display_name": {_q(node.display_name)}, "categories": [{categories}]}}\n')
    for k in sorted(edges):
        yield (f'{{"kind": "edge", "source": {qid[k[0]]}, "target": {qid[k[1]]}, '
               f'"weight": {edges[k].weight:d}}}\n')


_RENDERERS = {"graphml": _to_graphml, "dot": _to_dot, "jsonl": _to_jsonl}
EXPORT_FORMATS = tuple(_RENDERERS)


def export_graph(graph: SupplyChainGraph | Subgraph, fmt: str, path: str) -> None:
    """Write a graph or a sample in one of graphml/dot/jsonl, byte-deterministically.

    Nodes are ordered by canonical id and edges by their ordered endpoint
    pair; an empty graph still yields a valid document.
    """
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown export format {fmt!r}; expected one of {EXPORT_FORMATS}")
    with open_output(path) as fh:
        fh.write("".join(_RENDERERS[fmt](graph)))
