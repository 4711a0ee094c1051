import random

import gen
from supplygraph.classify import DEFAULT_CATEGORIES
from supplygraph.prompting import segment_text


def _inputs(seed):
    rng = random.Random(seed)
    names = gen.make_names(rng, 40, gen.forbidden_words())
    gazetteer = gen.make_gazetteer(rng, names, DEFAULT_CATEGORIES)
    articles, truth = gen.make_corpus(rng, names[:12], (2019, 2020, 2021),
                                      runon_every=5, runon_words=900)
    hubs = gen.make_hub_mentions(rng, names, 200)
    return names, gazetteer, articles, truth, hubs


def test_same_seed_same_inputs_and_other_seed_differs():
    assert _inputs(7) == _inputs(7)
    assert _inputs(7)[0] != _inputs(8)[0]


def test_names_share_no_token_and_avoid_template_words():
    forbidden = gen.forbidden_words(("is this entity mentioned in the description",))
    names = gen.make_names(random.Random(3), 600, forbidden)
    tokens = [t for name in names for t in name.split()]
    assert len(tokens) == len(set(tokens))
    assert not set(tokens) & forbidden
    assert all(name == name.lower().strip() for name in names)


def test_corpus_is_a_closed_tree_with_planted_mentions():
    names, _, articles, truth, _ = _inputs(5)
    keywords = {a["retrieved_for_keyword"] for a in articles}
    assert keywords == set(names[:12])
    for article in articles:
        text = article["title"] + " " + article["body"]
        mentioned = {n for n in names if f" {n} " in f" {text} "}
        assert mentioned == set(truth[article["id"]])
        assert set(truth[article["id"]]) <= keywords


def test_run_on_bodies_take_the_word_split_path():
    _, _, articles, _, _ = _inputs(5)
    run_on = [a for a in articles if "." not in a["body"]]
    assert len(run_on) == len(articles) // 5
    for article in run_on:
        plan = segment_text(article["body"], 500)
        assert len(plan.segments) > 1


def test_hub_mentions_are_skewed():
    names, _, _, _, hubs = _inputs(5)
    counts = {}
    for _, ids in hubs:
        for n in ids:
            counts[n] = counts.get(n, 0) + 1
    assert counts.get(names[0], 0) > 5 * counts.get(names[-1], 1)


def test_tree_corpus_gives_every_keyword_two_new_entities():
    names, _, articles, truth, _ = _inputs(5)
    first = [truth[a["id"]] for a in articles if a["retrieved_for_keyword"] == names[0]]
    found = {n for ids in first for n in ids} - {names[0]}
    assert found >= {names[1], names[2]}


def test_island_corpus_mentions_pool_members_in_order():
    rng = random.Random(9)
    names = gen.make_names(rng, 10, gen.forbidden_words())
    pool, islands = names[:6], names[6:]
    articles, truth = gen.make_corpus(rng, islands, (2020,), runon_every=4, runon_words=80,
                                      link_pool=pool)
    assert [truth[a["id"]] for a in articles] == [
        sorted({k, pool[(2 * i) % 6], pool[(2 * i + 1) % 6]}) for i, k in enumerate(islands)]
    assert sum("." not in a["body"] for a in articles) == 1
