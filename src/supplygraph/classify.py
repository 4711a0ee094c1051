"""Binary-relevance entity classification and evaluation.

Each entity is asked one yes/no membership question per taxonomy category.
The stage's one result is an answer table, ``{(entity_id, category): answer}``
with True or False, or None where two ambiguous replies left the pair
undetermined. The classification report, ``predictions.jsonl`` (written and
read only here) and evaluation all derive from that table. Evaluation treats
every determined pair as an independent binary example and reports
per-category, macro, and micro metrics.
"""

from __future__ import annotations

import logging
import random
from collections import Counter
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

from .backends import IN_FLIGHT, Backend, BackendRequest
from .errors import AmbiguousAnswer, ParseError
from .files import check_int, check_text, open_input, read_jsonl, write_jsonl
from .graph import EntityNode, SupplyChainGraph
from .prompting import build_classification_prompt, parse_yes_no, truncate_to_budget

log = logging.getLogger(__name__)

DEFAULT_CATEGORIES = (
    "engineering consulting",
    "construction contractor",
    "material supplier",
    "government agency",
    "equipment lessor",
    "insurance provider",
    "real estate developer",
    "legal counsel",
    "software service",
)

DATASET_FIELDS = ("entity_id", "category", "gold", "description")

# (entity_id, category) -> yes/no answer, or None when undetermined.
Answers = dict[tuple[str, str], bool | None]


@dataclass(frozen=True)
class CategoryTaxonomy:
    categories: tuple[str, ...] = DEFAULT_CATEGORIES

    def __post_init__(self) -> None:
        if not self.categories:
            raise ValueError("taxonomy must have at least one category")
        for i, cat in enumerate(self.categories):
            _check_category(cat, self.categories[:i])

    def __iter__(self):
        return iter(self.categories)

    def __len__(self) -> int:
        return len(self.categories)

    def __contains__(self, item: object) -> bool:
        return item in self.categories


def _check_category(category: str, earlier: Sequence[str]) -> None:
    if not category or category != category.strip() or category != category.lower():
        raise ValueError(f"category {category!r} must be lowercase and trimmed")
    check_text(category, "category")
    if category in earlier:
        raise ValueError(f"duplicate category {category!r}")


def load_taxonomy(path: str) -> CategoryTaxonomy:
    """Read one category per line, skipping blank lines and ``#`` comments.

    Raises ParseError with the path and line of a bad or duplicate category
    (one that is not lowercase and trimmed, or holds a character the outputs
    cannot hold), and with the path of a file that lists no category.
    """
    categories: list[str] = []
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, 1):
            category = line.strip()
            if not category or category.startswith("#"):
                continue
            try:
                _check_category(category, categories)
            except ValueError as exc:
                raise ParseError(str(exc), path=str(path), line=lineno) from exc
            categories.append(category)
    if not categories:
        raise ParseError("taxonomy lists no categories", path=str(path))
    return CategoryTaxonomy(tuple(categories))


@dataclass(frozen=True)
class LabeledExample:
    entity_id: str
    category: str
    gold: bool
    description: str


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, counts: ConfusionCounts) -> "Metrics":
        if counts.total == 0:
            raise ValueError("no examples to score")
        accuracy = (counts.tp + counts.tn) / counts.total
        precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
        recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
        denom = 2 * counts.tp + counts.fp + counts.fn
        f1 = 2 * counts.tp / denom if denom else 0.0
        return cls(accuracy=accuracy, precision=precision, recall=recall, f1=f1)


def classify_entity(
    cid: str,
    entity: EntityNode,
    taxonomy: CategoryTaxonomy,
    backend: Backend,
    token_budget: int = 512,
) -> dict[str, bool | None]:
    """Ask one membership question per category for the entity with id cid.

    Returns each category's answer in taxonomy order. The description shown
    to the backend concatenates stored descriptions newest first, truncated
    to the token budget. An ambiguous answer is retried once with a
    reasoning preamble; a second ambiguity leaves the answer None
    (undetermined).
    """
    if not entity.descriptions:
        raise ValueError(f"entity {cid!r} has no descriptions")
    description = _description(entity, token_budget)
    return {
        category: _ask(backend, cid, description, category)[0]
        for category in taxonomy
    }


def _description(entity: EntityNode, token_budget: int) -> str:
    return truncate_to_budget(
        " ".join(text for _, text in reversed(entity.descriptions)), token_budget
    )


def _ask(backend: Backend, cid: str, description: str, category: str) -> tuple[bool | None, bool]:
    """One question, retried once if ambiguous: its answer, and whether a reply reported a wait."""
    waited = False
    for reasoning in (False, True):
        prompt = build_classification_prompt(cid, description, category, reasoning=reasoning)
        response = backend.complete(BackendRequest(
            prompt=prompt, request_tag=f"classify:{cid}:{category}",
        ))
        waited = waited or response.latency_ms > 0
        try:
            return parse_yes_no(response.text), waited
        except AmbiguousAnswer:
            continue
    return None, waited


def _ask_all(backend: Backend, questions: Sequence[tuple[str, str, str]]) -> list[bool | None]:
    """Answer every (entity, description, category) question; answers by index.

    The calling thread answers them in order until a reply reports a wait
    (BackendResponse.latency_ms > 0); the rest then go to a pool of IN_FLIGHT
    threads and the caller waits. An error, interrupts included, stops the
    pool from starting new questions. The pool starts questions in index
    order, so every question below the first error has run, and the scan in
    index order raises the error a sequential run meets first.
    """
    answers: list[bool | None] = []
    for question in questions:
        answer, waited = _ask(backend, *question)
        answers.append(answer)
        if waited:
            break
    else:
        return answers
    pool = ThreadPoolExecutor(IN_FLIGHT, thread_name_prefix="classify")
    try:
        futures = [pool.submit(_ask, backend, *q) for q in questions[len(answers):]]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    return answers + [f.result()[0] for f in futures]


@dataclass
class ClassificationOutcome:
    answers: Answers
    skipped_no_description: list[str]

    def undetermined_pairs(self) -> set[tuple[str, str]]:
        return {pair for pair, answer in self.answers.items() if answer is None}

    def to_report(self, taxonomy: CategoryTaxonomy) -> dict:
        labels: dict[str, list[str]] = {}
        undetermined: dict[str, list[str]] = {}
        for (cid, category), answer in self.answers.items():
            labels.setdefault(cid, [])
            if answer:
                labels[cid].append(category)
            elif answer is None:
                undetermined.setdefault(cid, []).append(category)
        return {
            "entities_classified": len(labels),
            "unlabeled_count": sum(1 for cats in labels.values() if not cats),
            "skipped_no_description": sorted(self.skipped_no_description),
            "taxonomy": list(taxonomy),
            "labels": {cid: sorted(cats) for cid, cats in labels.items()},
            "undetermined": {cid: sorted(cats) for cid, cats in undetermined.items()},
        }


def classify_graph(
    graph: SupplyChainGraph,
    taxonomy: CategoryTaxonomy,
    backend: Backend,
    token_budget: int = 512,
) -> ClassificationOutcome:
    """Classify every node with descriptions and annotate its categories.

    Nodes with no description text, none stored or only blank ones, are
    skipped and reported. Entities answering No everywhere stay unlabeled.
    Questions go out concurrently once a reply reports that the backend
    waited (see _ask_all); the answers and labels are built in sorted order
    after the last one, so they do not depend on timing, and a run that
    raises labels no node. Raises ValueError, before asking anything, for a
    token budget below 1.
    """
    if token_budget < 1:
        raise ValueError(f"token_budget must be >= 1, got {token_budget}")
    skipped: list[str] = []
    classified: list[str] = []
    questions: list[tuple[str, str, str]] = []
    for cid in sorted(graph.nodes):
        node = graph.nodes[cid]
        # Nodes without descriptions, common among hubs, skip the join.
        description = _description(node, token_budget) if node.descriptions else ""
        if not description.strip():
            skipped.append(cid)
            continue
        classified.append(cid)
        questions.extend((cid, description, category) for category in taxonomy)
    answers: Answers = {
        (cid, category): answer
        for (cid, _, category), answer in zip(questions, _ask_all(backend, questions))
    }
    for cid in classified:
        graph.set_categories(cid, [c for c in taxonomy if answers[(cid, c)]])
    return ClassificationOutcome(answers=answers, skipped_no_description=skipped)


@dataclass
class EvaluationReport:
    per_category: dict[str, tuple[ConfusionCounts, Metrics]]
    macro: Metrics
    micro_counts: ConfusionCounts
    micro: Metrics
    undetermined: int

    @property
    def evaluated(self) -> int:
        return self.micro_counts.total

    def to_dict(self) -> dict:
        return {
            "per_category": {
                cat: {"counts": asdict(counts), "metrics": asdict(metrics)}
                for cat, (counts, metrics) in sorted(self.per_category.items())
            },
            "macro": asdict(self.macro),
            "micro": {"counts": asdict(self.micro_counts), "metrics": asdict(self.micro)},
            "evaluated": self.evaluated,
            "undetermined": self.undetermined,
        }


def evaluate_all(
    dataset: Sequence[LabeledExample],
    answers: Mapping[tuple[str, str], bool | None],
    taxonomy: CategoryTaxonomy,
) -> EvaluationReport:
    """Score a labeled dataset against an answer table.

    Undetermined (None) answers are excluded from the confusion counts and
    reported. Macro metrics average per-category values without weighting;
    micro metrics come from the pooled examples.
    """
    if not dataset:
        raise ValueError("dataset is empty")
    tallies: dict[str, Counter[tuple[bool, bool]]] = {}
    undetermined = 0
    for example in dataset:
        if example.category not in taxonomy:
            raise ValueError(f"category {example.category!r} not in taxonomy")
        pair = (example.entity_id, example.category)
        if pair not in answers:
            raise ValueError(f"no prediction for {pair}")
        answer = answers[pair]
        if answer is None:
            undetermined += 1
            continue
        tallies.setdefault(example.category, Counter())[answer, example.gold] += 1
    if not tallies:
        raise ValueError("every example was undetermined")
    per_category = {category: _scored(tally) for category, tally in tallies.items()}
    metric_values = [metrics for _, metrics in per_category.values()]
    macro = Metrics(
        accuracy=sum(m.accuracy for m in metric_values) / len(metric_values),
        precision=sum(m.precision for m in metric_values) / len(metric_values),
        recall=sum(m.recall for m in metric_values) / len(metric_values),
        f1=sum(m.f1 for m in metric_values) / len(metric_values),
    )
    micro_counts, micro = _scored(sum(tallies.values(), Counter()))
    return EvaluationReport(per_category, macro, micro_counts, micro, undetermined)


def _scored(tally: Counter[tuple[bool, bool]]) -> tuple[ConfusionCounts, Metrics]:
    """Confusion counts and metrics from a (prediction, gold) tally."""
    counts = ConfusionCounts(
        tp=tally[True, True], fp=tally[True, False], tn=tally[False, False], fn=tally[False, True],
    )
    return counts, Metrics.from_counts(counts)


def downsample_balanced(
    dataset: Sequence[LabeledExample], category: str, rng_seed: int
) -> list[LabeledExample]:
    """Balance one category's examples: all of the minority class plus a
    seeded uniform sample of equal size from the majority class.

    The result is a subset of the input in original order. Raises
    ValueError for an rng_seed that is not an int or a category short of a class.
    """
    check_int("rng_seed", rng_seed)
    indexed = [(i, ex) for i, ex in enumerate(dataset) if ex.category == category]
    pos = [(i, ex) for i, ex in indexed if ex.gold]
    neg = [(i, ex) for i, ex in indexed if not ex.gold]
    if not pos or not neg:
        raise ValueError(f"category {category!r} needs both positives and negatives")
    minority, majority = (pos, neg) if len(pos) <= len(neg) else (neg, pos)
    rng = random.Random(rng_seed)
    sampled = rng.sample(majority, len(minority))
    keep = sorted(i for i, _ in minority + sampled)
    return [dataset[i] for i in keep]


def load_labeled_dataset(path: str, taxonomy: CategoryTaxonomy) -> list[LabeledExample]:
    """Load a JSONL labeled dataset of (entity_id, category, gold, description).

    Raises ParseError at a row whose category is not in the taxonomy or that
    repeats an (entity_id, category) pair.
    """
    examples: list[LabeledExample] = []
    seen: set[tuple[str, str]] = set()
    for lineno, record in read_jsonl(path):
        missing = [f for f in DATASET_FIELDS if f not in record]
        if missing:
            raise ParseError(f"missing fields {missing}", path=str(path), line=lineno)
        if not isinstance(record["gold"], bool):
            raise ParseError("field 'gold' must be a boolean", path=str(path), line=lineno)
        if not all(isinstance(record[f], str) for f in ("entity_id", "category", "description")):
            raise ParseError("entity_id, category and description must be strings",
                             path=str(path), line=lineno)
        if record["category"] not in taxonomy:
            raise ParseError(
                f"category {record['category']!r} not in taxonomy", path=str(path), line=lineno
            )
        pair = (record["entity_id"], record["category"])
        if pair in seen:
            raise ParseError(f"repeated label for {pair}", path=str(path), line=lineno)
        seen.add(pair)
        examples.append(LabeledExample(
            entity_id=record["entity_id"],
            category=record["category"],
            gold=record["gold"],
            description=record["description"],
        ))
    return examples


def dump_predictions(answers: Answers, path: str) -> None:
    """Write one predictions.jsonl row per pair, in table order."""
    write_jsonl(path, (
        {"entity_id": cid, "category": category, "undetermined": True}
        if answer is None
        else {"entity_id": cid, "category": category, "prediction": answer}
        for (cid, category), answer in answers.items()
    ))


def load_predictions(path: str) -> Answers:
    """Read predictions.jsonl back into an answer table.

    Raises ParseError at a row without string entity_id and category, with
    both or neither of a boolean prediction and ``"undetermined": true``, or
    repeating a pair.
    """
    answers: Answers = {}
    for lineno, record in read_jsonl(path):
        if not all(isinstance(record.get(f), str) for f in ("entity_id", "category")):
            raise ParseError("prediction needs string entity_id and category",
                             path=str(path), line=lineno)
        pair = (record["entity_id"], record["category"])
        if "undetermined" in record and "prediction" in record:
            raise ParseError("row holds both a prediction and undetermined",
                             path=str(path), line=lineno)
        if record.get("undetermined") is True:
            answer = None
        elif isinstance(record.get("prediction"), bool):
            answer = record["prediction"]
        else:
            raise ParseError('prediction must be boolean, or "undetermined" true',
                             path=str(path), line=lineno)
        if pair in answers:
            raise ParseError(f"repeated prediction for {pair}", path=str(path), line=lineno)
        answers[pair] = answer
    return answers
