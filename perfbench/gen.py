"""Seeded input generator for the benchmark.

Follows ``tests/fixtures/gen_fixtures.py``: a closed co-mention corpus (every
mentioned entity has its own articles), the gazetteer that answers for it, and
the planted mention set of every article, which is the ground truth the
benchmark checks crawl output against. It adds what the fixtures lack: size,
synthetic names, run-on bodies, and hub-skewed mention sets for a large graph.

Everything here is a pure function of its ``random.Random`` argument, so one
seed always gives the same bytes.
"""

from __future__ import annotations

import itertools
import json
import random

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"

# Filler vocabulary for bodies, titles and descriptions. Synthetic name tokens
# are checked against it, so a planted mention set is the exact truth.
FILLER = (
    "the program team reviewed design scope with partners across the region and "
    "confirmed delivery of new works for local roads bridges ports rail lines "
    "while crews prepared sites under strict safety plans during the next phase "
    "of planning finance permits labor supply materials equipment schedules "
    "budgets contracts inspections reports upgrades repairs corridors tunnels"
).split()

TITLES = (
    "{k} expands regional program",
    "{k} signs delivery agreement",
    "{k} moves ahead on corridor work",
    "{k} reports progress on site",
)

SENTENCES_ONE = (
    "{k} announced a new award this week. "
    "the agreement brings {a} into the program for design and delivery."
)
SENTENCES_TWO = (
    "{k} confirmed plans for the next phase of the corridor upgrade. "
    "the review was completed with {a} earlier this year. "
    "{b} will support the first stage of the work."
)

_DESC_ADJ = ("regional", "national", "specialist", "employee owned", "family run", "listed")
_DESC_WHAT = (
    "firm delivering large infrastructure works",
    "group providing design and engineering services",
    "supplier of aggregate and mineral products",
    "operator of heavy lift and rental fleets",
    "underwriter of specialty products for contractors",
    "adviser on contracts and disputes",
    "platform for project collaboration and document control",
)


def forbidden_words(extra: tuple[str, ...] = ()) -> frozenset[str]:
    """Words a synthetic name token must never equal."""
    words: set[str] = set(FILLER)
    for text in (SENTENCES_ONE, SENTENCES_TWO, *TITLES, *_DESC_ADJ, *_DESC_WHAT, *extra):
        words.update(w.strip(".,:?!{}[]'") for w in text.lower().split())
    return frozenset(w for w in words if w)


def make_names(rng: random.Random, n: int, forbidden: frozenset[str]) -> list[str]:
    """n distinct lowercase names of 1-3 tokens; no token is shared or forbidden.

    Because no two names share a token, no name occurs inside another, and
    word-boundary matching finds exactly the planted names.
    """
    used: set[str] = set()
    names: list[str] = []
    while len(names) < n:
        tokens = []
        for _ in range(rng.choice((1, 2, 2, 3))):
            while True:
                token = "".join(
                    rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(rng.randint(2, 3))
                ) + rng.choice(("", "n", "r", "x"))
                if token not in used and token not in forbidden:
                    break
            used.add(token)
            tokens.append(token)
        names.append(" ".join(tokens))
    return names


def make_gazetteer(
    rng: random.Random, names: list[str], categories: tuple[str, ...]
) -> dict[str, dict]:
    """Description and 1-2 categories for every name, in script-file shape."""
    gazetteer = {}
    for name in names:
        gazetteer[name] = {
            "description": f"a {rng.choice(_DESC_ADJ)} {rng.choice(_DESC_WHAT)}",
            "categories": sorted(rng.sample(categories, rng.choice((1, 1, 2)))),
        }
    return gazetteer


def _run_on_body(rng: random.Random, keyword: str, others: list[str], words: int) -> str:
    # No sentence punctuation anywhere, so segmentation falls back to word
    # splits. Mentions sit in the first few dozen words, well inside the first
    # segment, so a split never cuts a multi-word name.
    head = [keyword, *rng.sample(FILLER, 6), *others]
    tail = [rng.choice(FILLER) for _ in range(words - len(head))]
    return " ".join(head + tail)


def make_corpus(
    rng: random.Random,
    names: list[str],
    years: tuple[int, ...],
    runon_every: int = 0,
    runon_words: int = 0,
    link_pool: list[str] | None = None,
) -> tuple[list[dict], dict[str, list[str]]]:
    """One article per (entity, year); returns article records and mention truth.

    Without ``link_pool``, every article mentions its keyword and one other
    entity. The first two articles of entity i mention entities 2i+1 and
    2i+2 (modulo the count), the others entity i+1, so the corpus is a closed
    binary tree plus a ring, reachable from entity 0, and a crawl from entity
    0 finds two new entities per keyword: its frontier holds more than one
    keyword from the first step on.

    With ``link_pool`` (entities with no articles of their own, such as the
    nodes of an existing graph), every article instead mentions its keyword
    and the next two pool members, so a crawl from one entity reaches only
    that entity and pool members.

    Every ``runon_every``-th article has a run-on body of ``runon_words``
    words. The shape is fixed, so every seed gives the same amount of work.
    """
    articles: list[dict] = []
    truth: dict[str, list[str]] = {}
    n = len(names)
    for i, keyword in enumerate(names):
        for j, year in enumerate(years):
            if link_pool:
                k = 2 * len(articles)
                others = [link_pool[k % len(link_pool)], link_pool[(k + 1) % len(link_pool)]]
            else:
                other = names[(2 * i + 1 + j) % n] if j < 2 else names[(i + 1) % n]
                others = [other if other != keyword else names[(i + 1) % n]]
            article_id = f"{keyword.replace(' ', '-')}-{j}"
            if runon_every and len(articles) % runon_every == runon_every - 1:
                body = _run_on_body(rng, keyword, others, runon_words)
            elif len(others) == 2:
                body = SENTENCES_TWO.format(k=keyword, a=others[0], b=others[1])
            else:
                body = SENTENCES_ONE.format(k=keyword, a=others[0])
            articles.append({
                "id": article_id,
                "url": f"https://news.example/{article_id}",
                "title": TITLES[j % len(TITLES)].format(k=keyword),
                "body": body,
                "published_year": year,
                "retrieved_for_keyword": keyword,
            })
            truth[article_id] = sorted({keyword, *others})
    return articles, truth


def make_hub_mentions(
    rng: random.Random, names: list[str], target_edges: int
) -> list[tuple[str, list[str]]]:
    """Articles whose mention sets follow a Zipf popularity (1/rank) over names.

    Early names are hubs, late names are leaves. Articles are added until the
    co-mention clique edges reach ``target_edges``.
    """
    cum_weights = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(len(names))))
    edges: set[tuple[str, str]] = set()
    mentions: list[tuple[str, list[str]]] = []
    while len(edges) < target_edges:
        picked: set[str] = set()
        size = rng.randint(2, 6)
        while len(picked) < size:
            picked.add(rng.choices(names, cum_weights=cum_weights)[0])
        ids = sorted(picked)
        for x in range(len(ids)):
            for y in range(x + 1, len(ids)):
                edges.add((ids[x], ids[y]))
        mentions.append((f"hub-{len(mentions):06d}", ids))
    return mentions


def write_corpus(articles: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in articles:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def write_gazetteer(gazetteer: dict[str, dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"gazetteer": gazetteer}, ensure_ascii=False, sort_keys=True) + "\n")
