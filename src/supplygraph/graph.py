"""Entity graph: canonicalized nodes, co-mention edges, sampling, and export.

Nodes are keyed by a canonical id (the first-seen variant, lowercased and
whitespace/punctuation-trimmed). The alias table additionally indexes every
variant's suffix-stripped form, so "AECOM", "Aecom Ltd." and "AECOM Corp."
resolve to one node while the stored aliases keep the three variants apart.

Node and edge records are immutable. The graph's methods change a record by
storing a new one in its place, so a k-hop sample shares its parent's records
and copies only the dict entries that point at them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, repeat
from json.encoder import encode_basestring as _q
from typing import Iterable, Iterator
from xml.sax.saxutils import escape, quoteattr

from .corpus import StopwordLists, name_forms
from .errors import EmptyName, ParseError, UnknownNode
from .files import open_input, open_output, read_json

SCHEMA_VERSION = 2
# Schema 1 also stored a general-stopword list, which load_state ignores.
_READABLE_SCHEMAS = (1, SCHEMA_VERSION)


@dataclass(slots=True, frozen=True)
class EntityNode:
    canonical_id: str
    display_name: str
    aliases: frozenset[str] = frozenset()
    descriptions: tuple[tuple[str, str], ...] = ()
    categories: frozenset[str] = frozenset()


@dataclass(slots=True, frozen=True)
class ComentionEdge:
    """Undirected edge; weight is defined as the number of provenance articles."""

    a: str
    b: str
    provenance: frozenset[str] = frozenset()

    @property
    def weight(self) -> int:
        return len(self.provenance)


def _pair(x: str, y: str) -> tuple[str, str]:
    return (x, y) if x <= y else (y, x)


def _link(adj: dict[str, set[str]], a: str, b: str) -> None:
    adj.setdefault(a, set()).add(b)
    adj.setdefault(b, set()).add(a)


class SupplyChainGraph:
    def __init__(self, stopwords: StopwordLists | None = None):
        self.stopwords = stopwords if stopwords is not None else StopwordLists.default()
        self.nodes: dict[str, EntityNode] = {}
        self.edges: dict[tuple[str, str], ComentionEdge] = {}
        self.alias_table: dict[str, str] = {}
        # Neighbours of every node with an edge: None until the first read
        # builds it from edges, then kept in step with them. Derived state,
        # so save_state never reads it.
        self._adj: dict[str, set[str]] | None = None

    # -- canonicalization -------------------------------------------------

    def canonicalize(self, raw_name: str) -> str | None:
        """Resolve a raw name to an existing canonical id, or None if new."""
        return self.alias_table.get(name_forms(raw_name, self.stopwords)[1])

    def _register_variant(self, canonical_id: str, alias: str, key: str,
                          pair: tuple[str, str] | None = None) -> None:
        """Index a variant's plain form (alias) and matching form (key) under
        a node, adding the alias and the description pair to the node. The
        record is replaced only if one of them is new to it."""
        node = self.nodes[canonical_id]
        aliases, descriptions = node.aliases, node.descriptions
        if alias not in aliases:
            aliases = aliases | {alias}
        if pair is not None and pair not in descriptions:
            descriptions += (pair,)
        if aliases is not node.aliases or descriptions is not node.descriptions:
            self.nodes[canonical_id] = EntityNode(
                node.canonical_id, node.display_name, aliases, descriptions, node.categories)
        self.alias_table[alias] = self.alias_table[key] = canonical_id

    def upsert_entity(self, raw_name: str, description: str = "", article_id: str = "") -> str:
        """Insert or update the entity behind a raw name; returns its canonical id.

        A known variant adds the raw form as an alias and appends the
        (article_id, description) pair; an unseen name creates a node. Empty
        descriptions or article ids append nothing.
        """
        alias, key = name_forms(raw_name, self.stopwords)
        pair = (article_id, description) if description and article_id else None
        canonical_id = self.alias_table.get(key)
        if canonical_id is not None:
            self._register_variant(canonical_id, alias, key, pair)
            return canonical_id
        self.nodes[alias] = EntityNode(
            alias, raw_name.strip(), frozenset((alias,)), (pair,) if pair else ())
        self.alias_table[alias] = self.alias_table[key] = alias
        return alias

    def set_categories(self, canonical_id: str, categories: Iterable[str]) -> None:
        """Label a node with exactly these categories."""
        node = self.nodes.get(canonical_id)
        if node is None:
            raise UnknownNode(canonical_id)
        categories = frozenset(categories)
        if categories != node.categories:
            self.nodes[canonical_id] = EntityNode(
                node.canonical_id, node.display_name, node.aliases, node.descriptions, categories)

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
                self._add_edge(*key, article)
            elif article_id not in edge.provenance:
                edges[key] = ComentionEdge(*key, edge.provenance | article)
        return len(ids) * (len(ids) - 1) // 2

    def _add_edge(self, a: str, b: str, provenance: frozenset[str]) -> None:
        """Store a new edge under its ordered key (a <= b), indexing it if the
        index is built."""
        self.edges[(a, b)] = ComentionEdge(a, b, provenance)
        if self._adj is not None:
            _link(self._adj, a, b)

    def _adjacency(self) -> dict[str, set[str]]:
        """The neighbour index, built from edges on first use.

        Built aside and then published, so a concurrent reader never sees
        it half-built."""
        if self._adj is None:
            adj: dict[str, set[str]] = {}
            for a, b in self.edges:
                _link(adj, a, b)
            self._adj = adj
        return self._adj

    def neighbors(self, canonical_id: str) -> list[str]:
        if canonical_id not in self.nodes:
            raise UnknownNode(canonical_id)
        return sorted(self._adjacency().get(canonical_id, ()))

    # -- merging -----------------------------------------------------------

    def merge_nodes(self, survivor: str, duplicate: str) -> None:
        """Fold the duplicate node into the survivor.

        Aliases, descriptions, and categories are unioned; edges are
        re-pointed with provenance unions; a resulting survivor-survivor
        self-loop is dropped; the alias table is re-targeted.
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
        self.nodes[survivor] = EntityNode(
            surv.canonical_id, surv.display_name, surv.aliases | dup.aliases,
            tuple(descriptions), surv.categories | dup.categories)
        adj = self._adjacency()
        for other in sorted(adj.pop(duplicate, ())):
            edge = self.edges.pop(_pair(duplicate, other))
            adj[other].discard(duplicate)
            if other == survivor:
                continue  # self-loop after merge is dropped
            new_key = _pair(survivor, other)
            kept = self.edges.get(new_key)
            if kept is None:
                self._add_edge(*new_key, edge.provenance)
            elif not edge.provenance <= kept.provenance:
                self.edges[new_key] = ComentionEdge(*new_key, kept.provenance | edge.provenance)
        for variant, target in list(self.alias_table.items()):
            if target == duplicate:
                self.alias_table[variant] = survivor

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

    def sample_k_hop(self, seed: str, k: int, max_nodes: int, rng_seed: int) -> "SupplyChainGraph":
        """Induced subgraph of the k-hop neighborhood around a seed node.

        When the neighborhood exceeds max_nodes, a uniform seeded sample of
        max_nodes - 1 members is kept alongside the seed (which always stays).
        The search goes level by level, each level the union of the last
        one's neighbour sets, and stops early at a level that adds nothing.
        """
        if seed not in self.nodes:
            raise UnknownNode(seed)
        for name, value in (("k", k), ("max_nodes", max_nodes)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        adj = self._adjacency()
        reached, frontier = {seed}, {seed}
        for _ in range(k):
            frontier = set().union(*map(adj.get, frontier, repeat(()))) - reached
            if not frontier:
                break
            reached |= frontier
        keep = reached
        if len(reached) > max_nodes:
            keep = set(random.Random(rng_seed).sample(sorted(reached - {seed}), max_nodes - 1))
            keep.add(seed)

        ids, nodes, edges = sorted(keep), self.nodes, self.edges
        sub = SupplyChainGraph(self.stopwords)
        # The records are immutable, so the subgraph shares them.
        sub.nodes = {cid: nodes[cid] for cid in ids}
        # Each kept edge is taken once, from its smaller end: later holds
        # the kept ids after a. So the subgraph's edge table is in key order.
        sub_edges, later = sub.edges, set(keep)
        for a in ids:
            later.remove(a)
            neighbours = adj.get(a)
            if neighbours:
                for b in sorted(later.intersection(neighbours)):
                    key = (a, b)
                    sub_edges[key] = edges[key]
        sub.alias_table = {
            variant: target for variant, target in self.alias_table.items() if target in keep
        }
        return sub


# -- persistence -------------------------------------------------------------


# Every writer orders records through these two: sorting keys beats sorting items.
def _sorted_nodes(graph: SupplyChainGraph) -> list[EntityNode]:
    return [graph.nodes[cid] for cid in sorted(graph.nodes)]


def _sorted_edges(graph: SupplyChainGraph) -> list[ComentionEdge]:
    return [graph.edges[k] for k in sorted(graph.edges)]


def _json_list(items: Iterable[str], indent: str) -> str:
    """A JSON array of rendered items, laid out as json.dump(indent=2) lays
    out an array whose line starts at ``indent``."""
    body = f",\n  {indent}".join(items)
    return f"[\n  {indent}{body}\n{indent}]" if body else "[]"


def _state_chunks(graph: SupplyChainGraph) -> Iterator[str]:
    """graph.json in chunks: the bytes json.dump(state, indent=2,
    ensure_ascii=False) gives, with each string quoted by the json module's
    own C quoter."""
    qid = {cid: _q(cid) for cid in graph.nodes}
    suffixes = _json_list(map(_q, sorted(graph.stopwords.company_suffixes)), "    ")
    yield (f'{{\n  "schema_version": {SCHEMA_VERSION:d},\n  "stopwords": {{\n'
           f'    "company_suffixes": {suffixes}\n  }},\n  "nodes": ')
    yield _json_list((
        f'{{\n      "canonical_id": {qid[node.canonical_id]},'
        f'\n      "display_name": {_q(node.display_name)},'
        f'\n      "aliases": {_json_list(map(_q, sorted(node.aliases)), "      ")},'
        f'\n      "descriptions": '
        f'{_json_list((_json_list(map(_q, p), "        ") for p in node.descriptions), "      ")},'
        f'\n      "categories": {_json_list(map(_q, sorted(node.categories)), "      ")}'
        f'\n    }}'
        for node in _sorted_nodes(graph)
    ), "  ")
    yield ',\n  "edges": '
    yield _json_list((
        f'{{\n      "source": {qid[edge.a]},\n      "target": {qid[edge.b]},'
        f'\n      "provenance": {_json_list(map(_q, sorted(edge.provenance)), "      ")}'
        f'\n    }}'
        for edge in _sorted_edges(graph)
    ), "  ")
    table = graph.alias_table
    body = ",\n    ".join(f"{_q(k)}: {_q(table[k])}" for k in sorted(table))
    yield f',\n  "alias_table": {{\n    {body}\n  }}\n}}\n' if body else ',\n  "alias_table": {}\n}\n'


def save_state(graph: SupplyChainGraph, path: str) -> None:
    """Write the full graph as versioned JSON with deterministic ordering."""
    with open_output(path) as fh:
        fh.writelines(_state_chunks(graph))


def _is_strings(value: object) -> bool:
    if not isinstance(value, list):
        return False
    # str.join raises TypeError at the first item that is not a str. It runs
    # in C, several times faster than a generator of isinstance checks, and
    # load_state checks every edge's provenance with it.
    try:
        "".join(value)
    except TypeError:
        return False
    return True


def load_state(path: str) -> SupplyChainGraph:
    """Load a graph saved by save_state; round-trips to an equal graph.

    Raises ParseError, naming the file, on JSON that does not parse (with
    its line), on a schema_version other than 1 or SCHEMA_VERSION, and on a
    state save_state cannot write: a node id or display name that is not a
    string, company suffixes, node fields or edge provenance that are not
    lists of strings, descriptions that are not [article id, description]
    pairs, a repeated node or edge, an edge or alias that points at no node,
    a self-loop, or an edge without provenance.
    """
    where = str(path)
    state = read_json(path, "graph state")
    if not isinstance(state, dict) or "schema_version" not in state:
        raise ParseError("graph state missing schema_version", path=where)
    version = state["schema_version"]
    # bool is an int, and True == 1.
    if type(version) is not int or version not in _READABLE_SCHEMAS:
        raise ParseError(
            f"expected schema 1 or {SCHEMA_VERSION}, found {version!r}", path=where
        )
    try:
        suffixes = state["stopwords"]["company_suffixes"]
        if not _is_strings(suffixes):
            raise ParseError("stopwords company_suffixes must be a list of strings", path=where)
        graph = SupplyChainGraph(StopwordLists(frozenset(suffixes)))
        nodes = graph.nodes
        for rec in state["nodes"]:
            cid = rec["canonical_id"]
            if not isinstance(cid, str) or not isinstance(rec["display_name"], str):
                raise ParseError(f"node {cid!r} canonical_id and display_name must be strings",
                                 path=where)
            if cid in nodes:
                raise ParseError(f"node {cid!r} repeats", path=where)
            for name in ("aliases", "categories"):
                if not _is_strings(rec[name]):
                    raise ParseError(f"node {cid!r} {name} must be a list of strings", path=where)
            descriptions = rec["descriptions"]
            if not isinstance(descriptions, list) or not all(
                _is_strings(p) and len(p) == 2 for p in descriptions
            ):
                raise ParseError(
                    f"node {cid!r} descriptions must be [article id, description] pairs",
                    path=where,
                )
            nodes[cid] = EntityNode(cid, rec["display_name"], frozenset(rec["aliases"]),
                                    tuple(map(tuple, descriptions)), frozenset(rec["categories"]))
        # The neighbour index is unbuilt, so edges are stored directly.
        edges = graph.edges
        for rec in state["edges"]:
            key = _pair(rec["source"], rec["target"])
            a, b = key
            if a not in nodes:
                raise ParseError(f"edge {key} ends at unknown node {a!r}", path=where)
            if b not in nodes:
                raise ParseError(f"edge {key} ends at unknown node {b!r}", path=where)
            if a == b:
                raise ParseError(f"edge {key} is a self-loop", path=where)
            provenance = rec["provenance"]
            if not _is_strings(provenance):
                raise ParseError(f"edge {key} provenance must be a list of strings", path=where)
            if not provenance:
                raise ParseError(f"edge {key} has no provenance", path=where)
            if key in edges:
                raise ParseError(f"edge {key} repeats", path=where)
            edges[key] = ComentionEdge(a, b, frozenset(provenance))
        alias_table = state["alias_table"]
        if not isinstance(alias_table, dict):
            raise ParseError("graph state alias_table must be an object", path=where)
        for variant, target in alias_table.items():
            if target not in nodes:
                raise ParseError(f"alias {variant!r} points to unknown node {target!r}",
                                 path=where)
        graph.alias_table = dict(alias_table)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"graph state malformed: {exc}", path=where) from exc
    return graph


def load_alias_file(path: str, stopwords: StopwordLists) -> dict[str, str]:
    """Read a TSV alias file: variant<TAB>canonical, one pair per line.

    Raises ParseError naming the file and line for a line that is not two
    fields, a name with nothing left after normalization with ``stopwords``,
    or a variant that an earlier line maps to a different canonical name. Two
    variants or two canonical names are the same when they normalize to the
    same matching form.
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
                    forms.append(name_forms(name, stopwords)[1])
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


def _to_graphml(graph: SupplyChainGraph) -> Iterator[str]:
    yield (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
        '  <key id="d0" for="node" attr.name="display_name" attr.type="string"/>\n'
        '  <key id="d1" for="node" attr.name="categories" attr.type="string"/>\n'
        '  <key id="d2" for="edge" attr.name="weight" attr.type="int"/>\n'
        '  <graph id="G" edgedefault="undirected">\n'
    )
    qid = {cid: quoteattr(cid) for cid in graph.nodes}
    for node in _sorted_nodes(graph):
        yield (f"    <node id={qid[node.canonical_id]}>\n"
               f"      <data key=\"d0\">{escape(node.display_name)}</data>\n"
               f"      <data key=\"d1\">{escape(';'.join(sorted(node.categories)))}</data>\n"
               "    </node>\n")
    for edge in _sorted_edges(graph):
        yield (f"    <edge source={qid[edge.a]} target={qid[edge.b]}>\n"
               f"      <data key=\"d2\">{edge.weight}</data>\n"
               "    </edge>\n")
    yield "  </graph>\n</graphml>\n"


def _dot_quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _to_dot(graph: SupplyChainGraph) -> Iterator[str]:
    yield "graph supply_chain {\n"
    qid = {cid: _dot_quote(cid) for cid in graph.nodes}
    for node in _sorted_nodes(graph):
        attrs = f"label={_dot_quote(node.display_name)}"
        if node.categories:
            attrs += f", categories={_dot_quote(';'.join(sorted(node.categories)))}"
        yield f"  {qid[node.canonical_id]} [{attrs}];\n"
    for edge in _sorted_edges(graph):
        yield f"  {qid[edge.a]} -- {qid[edge.b]} [weight={edge.weight}];\n"
    yield "}\n"


def _to_jsonl(graph: SupplyChainGraph) -> Iterator[str]:
    """One row per node, then per edge: the bytes of json.dumps(row,
    ensure_ascii=False), with each string quoted by the json module's C
    quoter."""
    qid = {cid: _q(cid) for cid in graph.nodes}
    for node in _sorted_nodes(graph):
        categories = ", ".join(map(_q, sorted(node.categories)))
        yield (f'{{"kind": "node", "id": {qid[node.canonical_id]}, '
               f'"display_name": {_q(node.display_name)}, "categories": [{categories}]}}\n')
    for edge in _sorted_edges(graph):
        yield (f'{{"kind": "edge", "source": {qid[edge.a]}, "target": {qid[edge.b]}, '
               f'"weight": {edge.weight:d}}}\n')


_RENDERERS = {"graphml": _to_graphml, "dot": _to_dot, "jsonl": _to_jsonl}
EXPORT_FORMATS = tuple(_RENDERERS)


def export_graph(graph: SupplyChainGraph, fmt: str, path: str) -> None:
    """Write the graph in one of graphml/dot/jsonl, byte-deterministically.

    Nodes are ordered by canonical id and edges by their ordered endpoint
    pair; an empty graph still yields a valid document.
    """
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown export format {fmt!r}; expected one of {EXPORT_FORMATS}")
    with open_output(path) as fh:
        fh.writelines(_RENDERERS[fmt](graph))
