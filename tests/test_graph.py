from __future__ import annotations

import copy
import json
import random
import re
import xml.etree.ElementTree as ET
from dataclasses import FrozenInstanceError, replace

import pytest

import oracles
from supplygraph.backends import BackendResponse
from supplygraph.classify import CategoryTaxonomy, classify_graph
from supplygraph.corpus import StopwordLists
from supplygraph.errors import ParseError, UnknownNode
from supplygraph.graph import (
    EXPORT_FORMATS,
    ComentionEdge,
    EntityNode,
    SupplyChainGraph,
    export_graph,
    load_alias_file,
    load_state,
    save_state,
)
from supplygraph.prompting import ParseDiagnostics, parse_entity_list


def _graph() -> SupplyChainGraph:
    return SupplyChainGraph()


def _path_graph() -> SupplyChainGraph:
    """a - b - c path with distinct provenance per edge."""
    g = _graph()
    for name in ("Alpha Co", "Bravo Ltd", "Charlie Inc"):
        g.upsert_entity(name)
    g.add_comention("art-1", ["alpha co", "bravo ltd"])
    g.add_comention("art-2", ["bravo ltd", "charlie inc"])
    return g


# -- canonicalization and upsert -----------------------------------------------


def test_upsert_creates_node_with_light_canonical_id():
    g = _graph()
    cid = g.upsert_entity("Parsons Corporation")
    assert cid == "parsons corporation"
    node = g.nodes[cid]
    assert node.display_name == "Parsons Corporation"
    assert node.aliases == {"parsons corporation"}


def test_upsert_variants_collapse_to_one_node():
    g = _graph()
    first = g.upsert_entity("AECOM")
    second = g.upsert_entity("Aecom Ltd.")
    third = g.upsert_entity("AECOM Corp.")
    assert first == second == third == "aecom"
    assert len(g.nodes) == 1
    assert g.nodes["aecom"].aliases == {"aecom", "aecom ltd", "aecom corp"}


def test_first_seen_variant_fixes_the_canonical_id():
    g = _graph()
    cid = g.upsert_entity("Parsons Corp.")
    assert cid == "parsons corp"
    assert g.upsert_entity("Parsons") == "parsons corp"
    assert g.canonicalize("PARSONS CORPORATION") == "parsons corp"


def test_canonicalize_unknown_is_none():
    g = _graph()
    assert g.canonicalize("Nobody Inc.") is None


def test_upsert_appends_descriptions_once():
    g = _graph()
    cid = g.upsert_entity("Acme", "maker of anvils", "a-1")
    g.upsert_entity("Acme", "maker of anvils", "a-1")
    g.upsert_entity("Acme Inc.", "anvil specialist", "a-2")
    node = g.nodes[cid]
    assert node.descriptions == (("a-1", "maker of anvils"), ("a-2", "anvil specialist"))


def test_upsert_skips_description_without_article():
    g = _graph()
    cid = g.upsert_entity("Acme", description="floating description")
    assert g.nodes[cid].descriptions == ()


def test_upsert_bare_seed_has_no_descriptions():
    g = _graph()
    cid = g.upsert_entity("bechtel")
    assert g.nodes[cid].descriptions == ()
    assert g.nodes[cid].display_name == "bechtel"


# -- co-mention edges ----------------------------------------------------------


def test_add_comention_builds_clique():
    g = _graph()
    ids = [g.upsert_entity(n) for n in ("A One", "B Two", "C Three")]
    touched = g.add_comention("art-9", ids)
    assert touched == 3
    assert len(g.edges) == 3
    for edge in g.edges.values():
        assert edge.provenance == {"art-9"}
        assert edge.weight == 1


def test_add_comention_repeat_article_is_weight_noop():
    g = _graph()
    ids = [g.upsert_entity(n) for n in ("A One", "B Two")]
    g.add_comention("art-1", ids)
    g.add_comention("art-1", ids)
    (edge,) = g.edges.values()
    assert edge.weight == 1


def test_add_comention_accumulates_provenance():
    g = _graph()
    ids = [g.upsert_entity(n) for n in ("A One", "B Two")]
    g.add_comention("art-1", ids)
    g.add_comention("art-2", ids)
    (edge,) = g.edges.values()
    assert edge.provenance == {"art-1", "art-2"}
    assert edge.weight == 2


def test_add_comention_dedups_mentions():
    g = _graph()
    a = g.upsert_entity("A One")
    b = g.upsert_entity("B Two")
    assert g.add_comention("art-1", [a, b, a]) == 1
    assert len(g.edges) == 1


def test_add_comention_single_mention_has_no_edges():
    g = _graph()
    a = g.upsert_entity("A One")
    assert g.add_comention("art-1", [a]) == 0
    assert g.edges == {}


def test_add_comention_unknown_node():
    g = _graph()
    g.upsert_entity("A One")
    with pytest.raises(UnknownNode):
        g.add_comention("art-1", ["a one", "ghost"])


def test_edge_keys_are_order_insensitive():
    g = _graph()
    a = g.upsert_entity("zeta")
    b = g.upsert_entity("alpha")
    g.add_comention("art-1", [a, b])
    g.add_comention("art-2", [b, a])
    assert len(g.edges) == 1
    (key,) = g.edges
    assert key == ("alpha", "zeta")


def test_neighbors_sorted():
    g = _path_graph()
    assert g.neighbors("bravo ltd") == ["alpha co", "charlie inc"]
    assert g.neighbors("alpha co") == ["bravo ltd"]
    with pytest.raises(UnknownNode):
        g.neighbors("ghost")


# -- merging --------------------------------------------------------------------


def test_merge_nodes_unions_everything():
    g = _path_graph()
    g.set_categories("alpha co", ["construction contractor"])
    g.set_categories("charlie inc", ["legal counsel"])
    g.upsert_entity("Charlie Inc", "counsel to builders", "art-2")

    g.merge_nodes("alpha co", "charlie inc")
    assert "charlie inc" not in g.nodes
    surv = g.nodes["alpha co"]
    assert surv.categories == {"construction contractor", "legal counsel"}
    assert ("art-2", "counsel to builders") in surv.descriptions
    assert "charlie inc" in surv.aliases
    # the b-c edge re-pointed to a-b and merged with the original a-b edge
    assert set(g.edges) == {("alpha co", "bravo ltd")}
    assert g.edges[("alpha co", "bravo ltd")].provenance == {"art-1", "art-2"}
    assert g.canonicalize("Charlie Inc.") == "alpha co"


def test_merge_nodes_drops_self_loop():
    g = _graph()
    a = g.upsert_entity("A One")
    b = g.upsert_entity("B Two")
    g.add_comention("art-1", [a, b])
    g.merge_nodes(a, b)
    assert g.edges == {}
    assert set(g.nodes) == {a}


def test_merge_nodes_preserves_total_provenance():
    g = _graph()
    names = ["N0", "N1", "N2", "N3"]
    ids = [g.upsert_entity(n) for n in names]
    g.add_comention("art-1", ids[:3])
    g.add_comention("art-2", ids[1:])
    before = {
        (a, b): set(e.provenance) for (a, b), e in g.edges.items()
    }
    g.merge_nodes(ids[0], ids[3])
    merged = {}
    for (a, b), prov in before.items():
        a2 = ids[0] if a == ids[3] else a
        b2 = ids[0] if b == ids[3] else b
        if a2 == b2:
            continue
        key = (a2, b2) if a2 <= b2 else (b2, a2)
        merged.setdefault(key, set()).update(prov)
    assert {k: e.provenance for k, e in g.edges.items()} == merged


def test_merge_nodes_errors():
    g = _path_graph()
    with pytest.raises(UnknownNode):
        g.merge_nodes("alpha co", "ghost")
    with pytest.raises(UnknownNode):
        g.merge_nodes("ghost", "alpha co")
    with pytest.raises(ValueError, match="cannot merge node 'alpha co' into itself"):
        g.merge_nodes("alpha co", "alpha co")


# -- operator alias files ---------------------------------------------------------


def test_apply_aliases_registers_new_variant():
    g = _graph()
    g.upsert_entity("AECOM")
    g.apply_aliases({"AECOM Technology": "AECOM"})
    assert g.canonicalize("AECOM Technology") == "aecom"
    assert "aecom technology" in g.nodes["aecom"].aliases


def test_apply_aliases_creates_canonical_when_missing():
    g = _graph()
    g.apply_aliases({"Big Dig JV": "Bechtel"})
    assert g.canonicalize("Big Dig JV") == "bechtel"
    assert "bechtel" in g.nodes


def test_apply_aliases_merges_conflicting_nodes():
    g = _graph()
    g.upsert_entity("AECOM")
    g.upsert_entity("Aecom Technology")
    third = g.upsert_entity("Bystander")
    g.add_comention("art-1", ["aecom technology", third])
    assert len(g.nodes) == 3

    g.apply_aliases({"Aecom Technology": "AECOM"})
    assert len(g.nodes) == 2
    assert g.canonicalize("Aecom Technology") == "aecom"
    assert set(g.edges) == {("aecom", "bystander")}


def test_load_alias_file(tmp_path, stopwords):
    path = tmp_path / "aliases.tsv"
    path.write_text(
        "# variant\tcanonical\nAECOM Corp.\tAECOM\n\nOld Name\tNew Name\n",
        encoding="utf-8",
    )
    assert load_alias_file(str(path), stopwords) == {
        "AECOM Corp.": "AECOM",
        "Old Name": "New Name",
    }


def test_load_alias_file_rejects_bad_lines(tmp_path, stopwords):
    path = tmp_path / "aliases.tsv"
    path.write_text("only one column\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_alias_file(str(path), stopwords)
    assert err.value.line == 1


def test_load_alias_file_names_the_line_of_an_empty_name(tmp_path, stopwords):
    path = tmp_path / "aliases.tsv"
    path.write_text("Acme Holdings\tAcme\nAcme\tInc.\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_alias_file(str(path), stopwords)
    assert (err.value.path, err.value.line) == (str(path), 2)
    assert "'Inc.' has no name left" in str(err.value)


def test_load_alias_file_rejects_a_variant_with_two_canonicals(tmp_path, stopwords):
    path = tmp_path / "aliases.tsv"
    # The same variant under the same canonical node, spelled two ways, is fine.
    path.write_text("Big Dig JV\tBechtel\nbig dig jv.\tBechtel Corp\nBig Dig\tAecom\n"
                    "BIG DIG JV\tParsons\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_alias_file(str(path), stopwords)
    assert err.value.line == 4
    assert "maps to 'Parsons' here but to 'Bechtel' on line 1" in str(err.value)
    # Without "corp" among the suffixes, line 2 names another canonical node.
    with pytest.raises(ParseError) as err:
        load_alias_file(str(path), StopwordLists(frozenset()))
    assert err.value.line == 2


# -- k-hop sampling ----------------------------------------------------------------


def _star_graph(leaves: int) -> SupplyChainGraph:
    g = _graph()
    hub = g.upsert_entity("hub")
    for i in range(leaves):
        leaf = g.upsert_entity(f"leaf {i:03d}")
        g.add_comention(f"art-{i:03d}", [hub, leaf])
    return g


def test_sample_k_hop_equals_bfs_when_uncapped():
    g = _path_graph()
    adjacency = oracles.adjacency(g)
    expected = oracles.bfs_k_hop(adjacency, "alpha co", 1)
    sub = g.sample_k_hop("alpha co", 1, 100, rng_seed=7)
    assert set(sub.nodes) == expected == {"alpha co", "bravo ltd"}
    assert set(sub.edges) == {("alpha co", "bravo ltd")}

    sub2 = g.sample_k_hop("alpha co", 2, 100, rng_seed=7)
    assert set(sub2.nodes) == oracles.bfs_k_hop(adjacency, "alpha co", 2)
    assert len(sub2.nodes) == 3


def test_sample_k_hop_cap_keeps_seed_and_size():
    g = _star_graph(200)
    sub = g.sample_k_hop("hub", 1, 50, rng_seed=11)
    assert len(sub.nodes) == 50
    assert "hub" in sub.nodes
    assert len(sub.edges) == 49


def test_sample_k_hop_is_seed_reproducible():
    g = _star_graph(60)
    first = g.sample_k_hop("hub", 1, 10, rng_seed=5)
    second = g.sample_k_hop("hub", 1, 10, rng_seed=5)
    different = g.sample_k_hop("hub", 1, 10, rng_seed=6)
    assert oracles.graph_equal(first, second)
    assert set(first.nodes) != set(different.nodes)


def test_sample_k_hop_induced_edges_only():
    g = _graph()
    ids = [g.upsert_entity(f"n{i}") for i in range(4)]
    g.add_comention("art-1", ids)  # complete K4
    sub = g.sample_k_hop(ids[0], 1, 3, rng_seed=3)
    assert len(sub.nodes) == 3
    for a, b in sub.edges:
        assert a in sub.nodes and b in sub.nodes
    # K4 restricted to any 3 nodes keeps exactly 3 edges
    assert len(sub.edges) == 3


def test_sample_k_hop_restricts_alias_table():
    g = _star_graph(3)
    g.upsert_entity("Hub Inc.")  # extra variant of the hub
    sub = g.sample_k_hop("leaf 000", 1, 100, rng_seed=1)
    assert set(sub.alias_table.values()) <= set(sub.nodes)
    assert sub.canonicalize("Hub Inc.") == "hub"


def _assert_frozen_fields(g: SupplyChainGraph) -> None:
    for node in g.nodes.values():
        assert type(node.aliases) is frozenset and type(node.categories) is frozenset
        assert type(node.descriptions) is tuple
        assert all(type(pair) is tuple for pair in node.descriptions)
    for edge in g.edges.values():
        assert type(edge.provenance) is frozenset


class _AnswerYes:
    def complete(self, request):
        return BackendResponse(text="Yes", input_tokens=1, output_tokens=1, latency_ms=0)


# Each writer that can change a record the sample shares with its parent.
_MUTATORS = {
    "upsert": lambda g: [g.upsert_entity(name, "builds bridges", "art-9")
                         for name in ("Alpha Co Ltd.", "Bravo Ltd", "Echo Co")],
    "comention": lambda g: [g.add_comention("art-9", ["alpha co", "bravo ltd", "charlie inc"]),
                            g.add_comention("art-1", ["alpha co", "bravo ltd"])],
    "merge": lambda g: g.merge_nodes("alpha co", "charlie inc"),
    "aliases": lambda g: g.apply_aliases({"Alpha Holdings": "Alpha Co", "Bravo Ltd": "Delta Co"}),
    "classify": lambda g: classify_graph(g, CategoryTaxonomy(), _AnswerYes()),
}


@pytest.mark.parametrize("mutate", list(_MUTATORS.values()), ids=list(_MUTATORS))
def test_sample_k_hop_shares_frozen_records(tmp_path, mutate):
    g = _path_graph()
    for name in ("Alpha Co", "Bravo Ltd", "Charlie Inc"):
        g.upsert_entity(name, f"{name} builds", "art-1")
    g.set_categories("bravo ltd", ["legal counsel"])
    sub = g.sample_k_hop("bravo ltd", 1, 100, rng_seed=1)
    assert set(sub.nodes) == set(g.nodes) and set(sub.edges) == set(g.edges)
    for cid, node in sub.nodes.items():
        assert node is g.nodes[cid]
    for key, edge in sub.edges.items():
        assert edge is g.edges[key]
    node, edge = sub.nodes["alpha co"], sub.edges[("alpha co", "bravo ltd")]
    for record, name, value in ((node, "categories", frozenset({"x"})),
                                (node, "display_name", "X"),
                                (edge, "provenance", frozenset({"art-x"}))):
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, value)

    save_state(sub, str(tmp_path / "before.json"))
    mutate(g)
    save_state(sub, str(tmp_path / "after.json"))
    assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()
    assert g.nodes != sub.nodes or g.edges != sub.edges
    _assert_frozen_fields(g)
    save_state(g, str(tmp_path / "graph.json"))
    loaded = load_state(str(tmp_path / "graph.json"))
    assert oracles.graph_equal(loaded, g)
    _assert_frozen_fields(loaded)


def test_sample_k_hop_errors():
    g = _path_graph()
    with pytest.raises(UnknownNode):
        g.sample_k_hop("ghost", 1, 10, rng_seed=1)
    with pytest.raises(ValueError):
        g.sample_k_hop("alpha co", 0, 10, rng_seed=1)
    with pytest.raises(ValueError):
        g.sample_k_hop("alpha co", 1, 0, rng_seed=1)


@pytest.mark.parametrize(("k", "max_nodes", "message"), [
    (1.5, 10, "k must be an integer, got 1.5"),
    (True, 10, "k must be an integer, got True"),
    ("1", 10, "k must be an integer, got '1'"),
    (None, 10, "k must be an integer, got None"),
    (1, 2.5, "max_nodes must be an integer, got 2.5"),
    (1, False, "max_nodes must be an integer, got False"),
    (1, "2", "max_nodes must be an integer, got '2'"),
], ids=["k-float", "k-bool", "k-str", "k-none", "max-nodes-float", "max-nodes-bool",
        "max-nodes-str"])
def test_sample_k_hop_rejects_non_integer_arguments(k, max_nodes, message):
    g = _path_graph()
    g.upsert_entity("Delta Co")
    g.add_comention("art-3", ["charlie inc", "delta co"])  # a - b - c - d
    assert len(g.sample_k_hop("alpha co", 1, 10, rng_seed=1).nodes) == 2
    with pytest.raises(ValueError) as excinfo:
        g.sample_k_hop("alpha co", k, max_nodes, rng_seed=1)
    assert str(excinfo.value) == message


# -- adjacency index against the full-scan reference -----------------------------------

# Base names with suffix variants, so upserts collide and aliases merge nodes.
_VARIANT_NAMES = [
    base + suffix
    for base in ("Acme", "Bolt Works", "Crane", "Delta Group", "Echo", "Forge", "Gamma", "Helix",
                 "Iris", "Jade Partners", "Kilo", "Lumen", "Mako", "Nova", "Onyx", "Pike",
                 "Quill", "Rivet", "Sable", "Talon", "Umber", "Vanta", "Wren", "Xeno")
    for suffix in ("", " Ltd.", " Inc")
]


def _assert_matches_reference(real, ref):
    assert oracles.graph_equal(real, ref)
    # neighbors and a one-hop sample both read the live neighbour index, so
    # this checks that the index keeps up with every write and merge.
    for cid in sorted(ref.nodes):
        assert real.neighbors(cid) == ref.neighbors(cid), cid
        one_hop = real.sample_k_hop(cid, 1, len(real.nodes), 0).nodes
        assert set(one_hop) == {cid} | set(ref.neighbors(cid)), cid


@pytest.mark.parametrize("seed", range(8))
def test_adjacency_index_matches_full_scan_reference(tmp_path, seed):
    """The index is built on the first read, so reads come after a random
    number of writes: some writes find it built, some find it absent."""
    rng, read_rng = random.Random(seed), random.Random(f"reads {seed}")
    real, ref = SupplyChainGraph(), oracles.ScanGraph()
    for step in range(150):
        ids = sorted(real.nodes)
        op = rng.random()
        if op < 0.35:
            name = rng.choice(_VARIANT_NAMES)
            for g in (real, ref):
                g.upsert_entity(name, f"desc {step % 3}", f"art-{step % 5}")
        elif op < 0.75 and len(ids) >= 2:
            mentioned = rng.sample(ids, min(len(ids), rng.randint(2, 4)))
            for g in (real, ref):
                g.add_comention(f"art-{step % 7}", mentioned)
        elif op < 0.79 and len(ids) >= 2:
            survivor, duplicate = rng.sample(ids, 2)
            for g in (real, ref):
                g.merge_nodes(survivor, duplicate)
        elif op < 0.83:
            mapping = {rng.choice(_VARIANT_NAMES): rng.choice(_VARIANT_NAMES)}
            for g in (real, ref):
                g.apply_aliases(mapping)
        else:
            real_path, ref_path = tmp_path / "real.json", tmp_path / "ref.json"
            save_state(real, str(real_path))
            save_state(ref, str(ref_path))
            assert real_path.read_bytes() == ref_path.read_bytes()
            real = load_state(str(real_path))
            ref = oracles.ScanGraph.of(load_state(str(ref_path)))
        if read_rng.random() < 0.3:
            _assert_matches_reference(real, ref)
        else:
            assert oracles.graph_equal(real, ref)
    _assert_matches_reference(real, ref)

    assert len(real.edges) >= 10
    for cid in sorted(ref.nodes):
        for hops in (1, 2):
            max_nodes, rng_seed = rng.randint(1, 8), rng.randrange(1 << 30)
            sub = real.sample_k_hop(cid, hops, max_nodes, rng_seed)
            expected = ref.sample_k_hop(cid, hops, max_nodes, rng_seed)
            _assert_matches_reference(sub, expected)
            for key, edge in sub.edges.items():
                assert edge is real.edges[key]


def _sampling_graph(seed: int) -> SupplyChainGraph:
    """Random graph with merged variants, operator aliases, several components
    and nodes without edges, every node described and categorised."""
    rng = random.Random(seed)
    g = SupplyChainGraph()
    for i, name in enumerate(rng.sample(_VARIANT_NAMES, 40)):
        cid = g.upsert_entity(name, f"desc {i}", f"art-{i % 9}")
        g.set_categories(cid, g.nodes[cid].categories | {
            rng.choice(("legal counsel", "engineering consulting"))})
    g.apply_aliases({rng.choice(_VARIANT_NAMES): rng.choice(_VARIANT_NAMES)})
    ids = sorted(g.nodes)
    linked = ids[: len(ids) * 3 // 4]
    for step in range(25):
        g.add_comention(f"art-{step % 11}", rng.sample(linked, rng.randint(2, 3)))
    return g


@pytest.mark.parametrize("seed", range(6))
def test_sample_k_hop_matches_full_scan_reference_at_every_depth(seed):
    real = _sampling_graph(seed)
    ref = oracles.ScanGraph.of(real)
    before = copy.deepcopy((real.nodes, real.edges, real.alias_table))
    adjacency = oracles.adjacency(real)
    assert any(not adjacency[cid] for cid in real.nodes)
    rng = random.Random(f"samples {seed}")
    for cid in sorted(real.nodes):
        for hops in (1, 2, 3, 4, 10**9):
            for max_nodes in (rng.randint(1, 8), len(real.nodes) + 1):
                rng_seed = rng.randrange(1 << 30)
                sub = real.sample_k_hop(cid, hops, max_nodes, rng_seed)
                expected = ref.sample_k_hop(cid, hops, max_nodes, rng_seed)
                _assert_matches_reference(sub, expected)
                if max_nodes > len(real.nodes):
                    # No path is longer than the node count, and bfs_k_hop
                    # walks every one of its k levels.
                    depth = min(hops, len(real.nodes))
                    assert set(sub.nodes) == oracles.bfs_k_hop(adjacency, cid, depth)
                if not adjacency[cid]:
                    assert list(sub.nodes) == [cid] and not sub.edges
                assert list(sub.nodes) == sorted(sub.nodes)
                assert list(sub.edges) == sorted(sub.edges)
                assert list(sub.alias_table.items()) == [
                    item for item in real.alias_table.items() if item[1] in sub.nodes
                ]
                # The sample's records are its parent's; its own writes
                # replace them in the sample alone.
                for node_id in list(sub.nodes):
                    sub.upsert_entity(node_id, "mutated", "art-x")
                    sub.set_categories(node_id, ["mutated"])
                sub.add_comention("art-x", sub.nodes)
                sub.apply_aliases({"Mutated": cid})
    assert (real.nodes, real.edges, real.alias_table) == before


# -- persistence ---------------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    g = _path_graph()
    g.set_categories("alpha co", ["construction contractor"])
    g.upsert_entity("Alpha Co Ltd.", "builder of things", "art-3")
    path = tmp_path / "graph.json"
    save_state(g, str(path))
    loaded = load_state(str(path))
    assert oracles.graph_equal(g, loaded)


def _retarget_alpha_alias(g: SupplyChainGraph) -> None:
    variant = next(v for v, target in g.alias_table.items() if target == "alpha co")
    g.alias_table[variant] = "bravo ltd"


@pytest.mark.parametrize(
    "change",
    [
        lambda g: g.nodes.update(
            {"alpha co": replace(g.nodes["alpha co"], display_name="ALPHA CO")}),
        lambda g: g.upsert_entity("Alpha Co", "builds bridges", "art-9"),
        _retarget_alpha_alias,
        lambda g: g.add_comention("art-9", ["alpha co", "bravo ltd"]),
    ],
    ids=["display name", "description", "alias target", "edge provenance"],
)
def test_graph_equal_sees_each_difference(change):
    g, other = _path_graph(), _path_graph()
    assert oracles.graph_equal(g, other)
    change(other)
    assert not oracles.graph_equal(g, other)
    assert not oracles.graph_equal(other, g)


def test_save_state_is_byte_deterministic(tmp_path):
    g = _path_graph()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_state(g, str(p1))
    save_state(g, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_graph_keeps_canonicalizing(tmp_path):
    g = _graph()
    g.upsert_entity("AECOM")
    path = tmp_path / "graph.json"
    save_state(g, str(path))
    loaded = load_state(str(path))
    assert loaded.canonicalize("AECOM Ltd.") == "aecom"
    assert loaded.upsert_entity("Aecom Corp.") == "aecom"


def test_load_state_schema_mismatch(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text('{"schema_version": 99}\n', encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"found 99 ({path})")):
        load_state(str(path))


@pytest.mark.parametrize("version", [True, 2.0, 1.0, "2"])
def test_load_state_rejects_a_schema_version_that_is_not_an_int(tmp_path, version):
    path = tmp_path / "graph.json"
    save_state(_path_graph(), str(path))
    state = json.loads(path.read_text(encoding="utf-8"))
    state["schema_version"] = version
    path.write_text(json.dumps(state), encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"found {version!r} ({path})")):
        load_state(str(path))


def test_load_state_reads_schema_1_and_saves_schema_2(tmp_path):
    g = _path_graph()
    v2_path = tmp_path / "v2.json"
    save_state(g, str(v2_path))
    state = json.loads(v2_path.read_text(encoding="utf-8"))
    assert state["schema_version"] == 2
    assert set(state["stopwords"]) == {"company_suffixes"}
    # schema 1 also stored a general-stopword list
    state["schema_version"] = 1
    state["stopwords"]["general_stopwords"] = ["the", "of"]
    v1_path = tmp_path / "v1.json"
    v1_path.write_text(json.dumps(state, indent=2), encoding="utf-8")
    loaded = load_state(str(v1_path))
    assert oracles.graph_equal(loaded, g)
    resaved = tmp_path / "resaved.json"
    save_state(loaded, str(resaved))
    assert resaved.read_bytes() == v2_path.read_bytes()


def test_load_state_bad_json(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text("{broken\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_state(str(path))
    path.write_text('{\n  "schema_version": 2,\n  "nodes": [,]\n}\n', encoding="utf-8")
    message = f"bad graph state JSON: Expecting value ({path}:3)"
    with pytest.raises(ParseError, match=re.escape(message)):
        load_state(str(path))


def test_load_state_missing_version(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text('{"nodes": []}\n', encoding="utf-8")
    with pytest.raises(ParseError):
        load_state(str(path))


def test_load_state_malformed_nodes(tmp_path):
    path = tmp_path / "graph.json"
    state = {"schema_version": 1, "stopwords": {"company_suffixes": [], "general_stopwords": []},
             "nodes": [{"canonical_id": "x"}], "edges": [], "alias_table": {}}
    path.write_text(json.dumps(state), encoding="utf-8")
    with pytest.raises(ParseError):
        load_state(str(path))


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda s: s["edges"][0].update(target="ghost"), "unknown node 'ghost'"),
        (lambda s: s["edges"][0].update(provenance=[]), "no provenance"),
        (lambda s: s["edges"][0].update(target=s["edges"][0]["source"]), "self-loop"),
        (lambda s: s["alias_table"].update(stray="ghost"), "unknown node 'ghost'"),
        (lambda s: s.update(alias_table=[["a", "b", "c"]]), "alias_table must be an object"),
        (lambda s: s["nodes"].append(dict(s["nodes"][0])), "node 'alpha co' repeats"),
        (lambda s: s["nodes"][0].update(aliases="abc"), "aliases must be a list of strings"),
        (lambda s: s["nodes"][0].update(categories="legal counsel"),
         "categories must be a list of strings"),
        (lambda s: s["nodes"][0].update(descriptions=["xy"]), "[article id, description] pairs"),
        (lambda s: s["nodes"][0].update(descriptions=[["d", "art-1", "extra"]]),
         "[article id, description] pairs"),
        (lambda s: s["edges"][0].update(provenance="art-1"),
         "provenance must be a list of strings"),
        (lambda s: s["edges"][0].update(provenance=["art-1", 2]),
         "provenance must be a list of strings"),
        (lambda s: s["stopwords"].update(company_suffixes="inc"),
         "company_suffixes must be a list of strings"),
        (lambda s: s["nodes"][0].update(display_name=5),
         "canonical_id and display_name must be strings"),
        (lambda s: s["nodes"].append(dict(s["nodes"][0], canonical_id=7)),
         "canonical_id and display_name must be strings"),
        (lambda s: s["edges"].append(dict(s["edges"][0], provenance=["art-9"])),
         "edge ('alpha co', 'bravo ltd') repeats"),
        (lambda s: s["edges"].append(dict(s["edges"][0], source=s["edges"][0]["target"],
                                          target=s["edges"][0]["source"])),
         "edge ('alpha co', 'bravo ltd') repeats"),
    ],
    ids=["edge-end", "empty-provenance", "self-loop", "alias-target", "alias-table-list",
         "repeated-node", "aliases-string", "categories-string", "description-string",
         "description-triple", "provenance-string", "provenance-number", "suffixes-string",
         "display-name-number", "edgeless-id-number", "repeated-edge",
         "repeated-edge-swapped"],
)
def test_load_state_rejects_inconsistent_graph(tmp_path, change, message):
    path = tmp_path / "graph.json"
    save_state(_path_graph(), str(path))
    state = json.loads(path.read_text(encoding="utf-8"))
    change(state)
    path.write_text(json.dumps(state), encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_state(str(path))
    assert message in str(err.value)
    assert err.value.path == str(path)


# Every character the json module escapes, those it leaves alone although other
# encoders escape them, markup and separators of the exports, and non-ASCII from
# each UTF-8 width.
_AWKWARD = ([chr(c) for c in range(0x20)] + ["\x7f", "\x85", "\u2028", "\u2029", '"', "\\",
            "'", "<", ">", "&", ";", " ", "-", "a", "Z", "0", "é", "漢", "😀"])


def _awkward_text(rng: random.Random, min_len: int = 0) -> str:
    return "".join(rng.choice(_AWKWARD) for _ in range(rng.randint(min_len, 6)))


def _awkward_graph(seed: int) -> SupplyChainGraph:
    """A graph load_state accepts, built field by field so that every string,
    ids included, is drawn from _AWKWARD; any list or table may be empty."""
    rng = random.Random(seed)
    g = SupplyChainGraph(StopwordLists(frozenset(
        _awkward_text(rng, 1) for _ in range(rng.choice((0, 1, 4))))))
    for _ in range(rng.randint(0, 8)):
        cid = _awkward_text(rng, 1)
        g.nodes[cid] = EntityNode(
            cid,
            _awkward_text(rng),
            frozenset({_awkward_text(rng) for _ in range(rng.randint(0, 3))}),
            tuple((_awkward_text(rng), _awkward_text(rng)) for _ in range(rng.randint(0, 3))),
            frozenset({_awkward_text(rng) for _ in range(rng.randint(0, 3))}),
        )
    ids = sorted(g.nodes)
    for _ in range(rng.randint(0, 12) if len(ids) > 1 else 0):
        a, b = sorted(rng.sample(ids, 2))
        g.edges[(a, b)] = ComentionEdge(
            a, b, frozenset({_awkward_text(rng) for _ in range(rng.randint(1, 3))}))
    for _ in range(rng.randint(0, 6) if ids else 0):
        g.alias_table[_awkward_text(rng)] = rng.choice(ids)
    return g


def _written(tmp_path, graph, save, export) -> dict[str, bytes]:
    out = {}
    save(graph, str(tmp_path / "graph.json"))
    for fmt in EXPORT_FORMATS:
        export(graph, fmt, str(tmp_path / f"graph.{fmt}"))
    for path in sorted(tmp_path.iterdir()):
        out[path.name] = path.read_bytes()
        path.unlink()
    return out


@pytest.mark.parametrize("seed", range(40))
def test_writers_give_the_json_module_bytes(tmp_path, seed):
    graph = _awkward_graph(seed) if seed else _graph()  # seed 0: the empty graph
    written = _written(tmp_path, graph, save_state, export_graph)
    assert written == _written(tmp_path, graph, oracles.save_state_json, oracles.export_text)
    (tmp_path / "graph.json").write_bytes(written["graph.json"])
    assert oracles.graph_equal(load_state(str(tmp_path / "graph.json")), graph)


def test_awkward_graphs_cover_every_character_and_empty_field():
    graphs = [_awkward_graph(seed) for seed in range(1, 40)]
    strings = set()
    for g in graphs:
        strings |= g.stopwords.company_suffixes | set(g.alias_table)
        for node in g.nodes.values():
            strings |= {node.canonical_id, node.display_name} | node.aliases | node.categories
            strings.update(text for pair in node.descriptions for text in pair)
        for edge in g.edges.values():
            strings |= edge.provenance
    assert set(_AWKWARD) <= set("".join(strings))
    nodes = [node for g in graphs for node in g.nodes.values()]
    for name in ("aliases", "descriptions", "categories"):
        assert any(not getattr(node, name) for node in nodes)
        assert any(getattr(node, name) for node in nodes)
    assert any(node.display_name == "" for node in nodes)
    assert any(not g.alias_table and g.nodes for g in graphs)
    assert any(not g.stopwords.company_suffixes for g in graphs)


@pytest.mark.parametrize("fmt", ["graph.json", *EXPORT_FORMATS])
@pytest.mark.parametrize("save, export", [
    (save_state, export_graph), (oracles.save_state_json, oracles.export_text),
], ids=["direct", "json-module"])
def test_lone_surrogate_raises_and_leaves_no_file(tmp_path, fmt, save, export):
    g = _path_graph()
    g.nodes["bravo ltd"] = replace(g.nodes["bravo ltd"], display_name="Bravo \ud800")
    path = str(tmp_path / fmt)
    with pytest.raises(UnicodeEncodeError):
        save(g, path) if fmt == "graph.json" else export(g, fmt, path)
    assert list(tmp_path.iterdir()) == []


# -- exports -------------------------------------------------------------------------


def test_export_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        export_graph(_graph(), "gexf", str(tmp_path / "g.gexf"))


def test_export_empty_graph_is_valid(tmp_path):
    g = _graph()
    gml = tmp_path / "g.graphml"
    dot = tmp_path / "g.dot"
    jsonl = tmp_path / "g.jsonl"
    export_graph(g, "graphml", str(gml))
    export_graph(g, "dot", str(dot))
    export_graph(g, "jsonl", str(jsonl))
    ET.fromstring(gml.read_text(encoding="utf-8"))
    assert dot.read_text(encoding="utf-8") == "graph supply_chain {\n}\n"
    assert jsonl.read_text(encoding="utf-8") == ""


def test_export_graphml_structure(tmp_path):
    g = _path_graph()
    g.set_categories("alpha co", ["b cat", "a cat"])
    path = tmp_path / "g.graphml"
    export_graph(g, "graphml", str(path))
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    root = ET.fromstring(path.read_text(encoding="utf-8"))
    nodes = root.findall(f"{ns}graph/{ns}node")
    edges = root.findall(f"{ns}graph/{ns}edge")
    assert [n.get("id") for n in nodes] == ["alpha co", "bravo ltd", "charlie inc"]
    assert [(e.get("source"), e.get("target")) for e in edges] == [
        ("alpha co", "bravo ltd"),
        ("bravo ltd", "charlie inc"),
    ]
    alpha = nodes[0]
    data = {d.get("key"): d.text or "" for d in alpha.findall(f"{ns}data")}
    assert data["d0"] == "Alpha Co"
    assert data["d1"] == "a cat;b cat"
    weights = [e.find(f"{ns}data").text for e in edges]
    assert weights == ["1", "1"]


def test_export_graphml_escapes_special_characters(tmp_path):
    g = _graph()
    g.upsert_entity('A&B "Quoted" <Firm>')
    path = tmp_path / "g.graphml"
    export_graph(g, "graphml", str(path))
    root = ET.fromstring(path.read_text(encoding="utf-8"))
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    node = root.find(f"{ns}graph/{ns}node")
    assert node.find(f"{ns}data").text == 'A&B "Quoted" <Firm>'


def test_export_graphml_of_a_reply_with_control_characters_parses(tmp_path):
    g = _graph()
    reply = "1. Acme\x01 Steel: makes\x1b steel\x7f"
    for entity in parse_entity_list(reply, ParseDiagnostics()):
        g.upsert_entity(entity.name, entity.description, "art-1")
    path = tmp_path / "g.graphml"
    export_graph(g, "graphml", str(path))
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    node = ET.parse(path).getroot().find(f"{ns}graph/{ns}node")
    assert node.find(f"{ns}data").text == "Acme Steel"
    assert g.nodes["acme steel"].descriptions == (("art-1", "makes steel"),)


def test_export_dot_three_node_path(tmp_path):
    g = _path_graph()
    path = tmp_path / "g.dot"
    export_graph(g, "dot", str(path))
    assert path.read_text(encoding="utf-8") == (
        "graph supply_chain {\n"
        '  "alpha co" [label="Alpha Co"];\n'
        '  "bravo ltd" [label="Bravo Ltd"];\n'
        '  "charlie inc" [label="Charlie Inc"];\n'
        '  "alpha co" -- "bravo ltd" [weight=1];\n'
        '  "bravo ltd" -- "charlie inc" [weight=1];\n'
        "}\n"
    )


def test_export_jsonl_rows(tmp_path):
    g = _path_graph()
    path = tmp_path / "g.jsonl"
    export_graph(g, "jsonl", str(path))
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    kinds = [r["kind"] for r in rows]
    assert kinds == ["node", "node", "node", "edge", "edge"]
    assert rows[0] == {
        "kind": "node", "id": "alpha co", "display_name": "Alpha Co", "categories": [],
    }
    assert rows[3] == {"kind": "edge", "source": "alpha co", "target": "bravo ltd", "weight": 1}


def test_exports_are_byte_deterministic(tmp_path):
    g = _path_graph()
    for fmt, ext in (("graphml", "graphml"), ("dot", "dot"), ("jsonl", "jsonl")):
        p1 = tmp_path / f"a.{ext}"
        p2 = tmp_path / f"b.{ext}"
        export_graph(g, fmt, str(p1))
        export_graph(g, fmt, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


# -- randomized structural checks -------------------------------------------------


def test_random_merges_conserve_provenance():
    rng = random.Random(4242)
    for _ in range(60):
        g = _graph()
        n = rng.randint(3, 10)
        ids = [g.upsert_entity(f"node {i:02d}") for i in range(n)]
        for a in range(rng.randint(1, 12)):
            group = rng.sample(ids, rng.randint(2, min(4, n)))
            g.add_comention(f"art-{a}", group)
        total_before = set()
        for edge in g.edges.values():
            total_before |= edge.provenance
        alive = [cid for cid in ids if cid in g.nodes]
        while len(alive) > 1 and rng.random() < 0.7:
            surv, dup = rng.sample(alive, 2)
            g.merge_nodes(surv, dup)
            alive.remove(dup)
        total_after = set()
        for edge in g.edges.values():
            total_after |= edge.provenance
        # provenance can only vanish with a dropped self-loop, never appear
        assert total_after <= total_before
        for (a, b), edge in g.edges.items():
            assert a in g.nodes and b in g.nodes
            assert a < b
