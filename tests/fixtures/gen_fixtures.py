"""Regenerate the test fixtures in this directory.

Run from the repository root:

    python3 tests/fixtures/gen_fixtures.py

Produces a closed co-mention corpus (every mentioned entity has its own
articles), the matching gazetteer script file, a sidecar truth file with the
planted mention sets, a small variant-dedup corpus, and a skewed labeled
dataset derived from the gazetteer.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict

from supplygraph.classify import DEFAULT_CATEGORIES, LabeledExample
from supplygraph.corpus import Article, Corpus
from supplygraph.files import write_jsonl

HERE = os.path.dirname(os.path.abspath(__file__))

GAZETTEER = {
    "bechtel": (
        ["construction contractor"],
        "a global construction and project management firm delivering large infrastructure works",
    ),
    "aecom": (
        ["engineering consulting"],
        "an infrastructure consulting firm providing design and engineering services",
    ),
    "parsons": (
        ["engineering consulting", "software service"],
        "a technology driven engineering services firm working across infrastructure and defense",
    ),
    "yates construction": (
        ["construction contractor"],
        "a contractor leading commercial and industrial building programs",
    ),
    "txdot": (
        ["government agency"],
        "the state transportation agency that plans and maintains highways in texas",
    ),
    "national lime stone": (
        ["material supplier"],
        "a supplier of limestone aggregate and mineral products",
    ),
    "bragg crane service": (
        ["equipment lessor"],
        "a crane rental and heavy lift specialist serving major projects",
    ),
    "amtrust financial": (
        ["insurance provider"],
        "an underwriter of specialty insurance products for contractors",
    ),
    "lendlease": (
        ["real estate developer", "construction contractor"],
        "a property and investments group delivering development and construction services",
    ),
    "mcguirewoods": (
        ["legal counsel"],
        "a law firm advising on government contracts and disputes",
    ),
    "aconex": (
        ["software service"],
        "a software platform for construction project collaboration and document control",
    ),
    "kiewit": (
        ["construction contractor", "engineering consulting"],
        "an employee owned construction and engineering organization serving transportation and energy markets",
    ),
}

# Per keyword: the other entities each of its three articles mentions.
# Reachable from the single seed "bechtel" and closed under co-mention.
PLAN = {
    "bechtel": [("txdot", "national lime stone"), ("aecom",), ("bragg crane service", "kiewit")],
    "aecom": [("parsons",), ("lendlease",), ("bechtel", "aconex")],
    "parsons": [("mcguirewoods",), ("txdot", "aconex"), ("kiewit",)],
    "yates construction": [
        ("amtrust financial",),
        ("bechtel",),
        ("national lime stone", "bragg crane service"),
    ],
    "txdot": [("bechtel", "parsons"), ("kiewit",), ("mcguirewoods",)],
    "national lime stone": [("yates construction",), ("bechtel",), ("lendlease",)],
    "bragg crane service": [("bechtel",), ("yates construction", "amtrust financial"), ("kiewit",)],
    "amtrust financial": [("lendlease",), ("yates construction",), ("mcguirewoods", "aconex")],
    "lendlease": [("aecom",), ("amtrust financial", "bechtel"), ("aconex",)],
    "mcguirewoods": [("parsons",), ("txdot",), ("amtrust financial",)],
    "aconex": [("parsons", "aecom"), ("lendlease",), ("kiewit", "amtrust financial")],
    "kiewit": [("bechtel",), ("txdot", "parsons"), ("bragg crane service",)],
}

YEARS = (2019, 2020, 2021)

TITLES = (
    "{k} expands regional program",
    "{k} signs delivery agreement",
    "{k} moves ahead on corridor work",
)

# Filler vocabulary deliberately avoids every gazetteer name and every word
# of the multi-word names, so the planted mention sets are exact truth.
BODY_ONE = (
    "{k} announced a new award this week. "
    "the agreement brings {a} into the program for design and delivery."
)
BODY_TWO = (
    "{k} confirmed plans for the next phase of the corridor upgrade. "
    "the review was completed with {a} earlier this year. "
    "{b} will support the first stage of the work."
)


def _slug(name: str) -> str:
    return name.replace(" ", "-")


def build_corpus() -> tuple[Corpus, dict[str, list[str]]]:
    corpus = Corpus()
    truth: dict[str, list[str]] = {}
    for keyword, articles in PLAN.items():
        for j, others in enumerate(articles):
            article_id = f"{_slug(keyword)}-{j}"
            if len(others) == 1:
                body = BODY_ONE.format(k=keyword, a=others[0])
            else:
                body = BODY_TWO.format(k=keyword, a=others[0], b=others[1])
            article = Article(
                id=article_id,
                url=f"https://news.example/{article_id}",
                title=TITLES[j].format(k=keyword),
                body=body,
                published_year=YEARS[j],
                retrieved_for_keyword=keyword,
            )
            corpus.add(article)
            truth[article_id] = sorted({keyword, *others})
    return corpus, truth


def build_dedup_corpus() -> Corpus:
    corpus = Corpus()
    bodies = (
        "aecom was selected to lead the design review for a regional program.",
        "aecom added new delivery teams for the corridor upgrade this year.",
        "aecom confirmed the next phase of the airport work this week.",
    )
    for j, body in enumerate(bodies):
        corpus.add(Article(
            id=f"aecom-v{j}",
            url=f"https://news.example/aecom-v{j}",
            title=f"aecom update {j}",
            body=body,
            published_year=YEARS[j],
            retrieved_for_keyword="aecom",
        ))
    return corpus


def build_labels() -> list[LabeledExample]:
    examples = []
    for name in sorted(GAZETTEER):
        categories, description = GAZETTEER[name]
        for category in DEFAULT_CATEGORIES:
            examples.append(LabeledExample(
                entity_id=name,
                category=category,
                gold=category in categories,
                description=description,
            ))
    return examples


def main() -> None:
    corpus, truth = build_corpus()
    write_jsonl(os.path.join(HERE, "news.jsonl"), (asdict(a) for a in corpus))
    with open(os.path.join(HERE, "news_mentions.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")

    gazetteer = {
        name: {"description": description, "categories": categories}
        for name, (categories, description) in sorted(GAZETTEER.items())
    }
    with open(os.path.join(HERE, "gazetteer.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"gazetteer": gazetteer}, ensure_ascii=False) + "\n")

    write_jsonl(os.path.join(HERE, "dedup_news.jsonl"), (asdict(a) for a in build_dedup_corpus()))
    write_jsonl(os.path.join(HERE, "labels.jsonl"), (asdict(ex) for ex in build_labels()))
    print("fixtures written to", HERE)


if __name__ == "__main__":
    main()
