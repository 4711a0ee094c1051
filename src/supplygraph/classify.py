"""Binary-relevance entity classification and evaluation.

Each entity is asked one yes/no membership question per taxonomy category.
Evaluation treats every (entity, category) pair as an independent binary
example and reports per-category, macro, and micro metrics.
"""

from __future__ import annotations

import logging
import random
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping, Sequence

from .backends import Backend, BackendRequest
from .errors import (
    AmbiguousAnswer,
    DegenerateClass,
    EmptyInput,
    LengthMismatch,
    MissingPrediction,
    ParseError,
)
from .files import read_jsonl, write_jsonl
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


@dataclass(frozen=True)
class CategoryTaxonomy:
    categories: tuple[str, ...] = DEFAULT_CATEGORIES

    def __post_init__(self) -> None:
        if not self.categories:
            raise ValueError("taxonomy must have at least one category")
        seen = set()
        for cat in self.categories:
            if not cat or cat != cat.strip() or cat != cat.lower():
                raise ValueError(f"category {cat!r} must be lowercase and trimmed")
            if cat in seen:
                raise ValueError(f"duplicate category {cat!r}")
            seen.add(cat)

    def __iter__(self):
        return iter(self.categories)

    def __len__(self) -> int:
        return len(self.categories)

    def __contains__(self, item: object) -> bool:
        return item in self.categories


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

    def to_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn}


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, counts: ConfusionCounts) -> "Metrics":
        if counts.total == 0:
            raise EmptyInput("no examples to score")
        accuracy = (counts.tp + counts.tn) / counts.total
        precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
        recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
        denom = 2 * counts.tp + counts.fp + counts.fn
        f1 = 2 * counts.tp / denom if denom else 0.0
        return cls(accuracy=accuracy, precision=precision, recall=recall, f1=f1)

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }


def evaluate_binary(
    predictions: Sequence[bool], golds: Sequence[bool]
) -> tuple[ConfusionCounts, Metrics]:
    """Confusion counts and metrics for one binary task."""
    if len(predictions) != len(golds):
        raise LengthMismatch(f"{len(predictions)} predictions vs {len(golds)} golds")
    if not golds:
        raise EmptyInput("no examples")
    tp = fp = tn = fn = 0
    for pred, gold in zip(predictions, golds):
        if pred and gold:
            tp += 1
        elif pred and not gold:
            fp += 1
        elif not pred and gold:
            fn += 1
        else:
            tn += 1
    counts = ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)
    return counts, Metrics.from_counts(counts)


@dataclass
class EntityClassification:
    entity_id: str
    labels: set[str] = field(default_factory=set)
    undetermined: set[str] = field(default_factory=set)


def classify_entity(
    entity: EntityNode,
    taxonomy: CategoryTaxonomy,
    backend: Backend,
    token_budget: int = 512,
) -> EntityClassification:
    """Ask one membership question per category for one entity.

    The description shown to the backend concatenates stored descriptions
    newest first, truncated to the token budget. An ambiguous answer is
    retried once with a reasoning preamble; a second ambiguity marks the
    category undetermined.
    """
    if not entity.descriptions:
        raise ValueError(f"entity {entity.canonical_id!r} has no descriptions")
    description = truncate_to_budget(
        " ".join(text for _, text in reversed(entity.descriptions)), token_budget
    )
    result = EntityClassification(entity_id=entity.canonical_id)
    for category in taxonomy:
        answer: bool | None = None
        for reasoning in (False, True):
            prompt = build_classification_prompt(
                entity.canonical_id, description, category, reasoning=reasoning
            )
            response = backend.complete(BackendRequest(
                prompt=prompt,
                request_tag=f"classify:{entity.canonical_id}:{category}",
            ))
            try:
                answer = parse_yes_no(response.text)
                break
            except AmbiguousAnswer:
                continue
        if answer is None:
            result.undetermined.add(category)
        elif answer:
            result.labels.add(category)
    return result


@dataclass
class ClassificationOutcome:
    results: dict[str, EntityClassification]
    skipped_no_description: list[str]

    def predictions(self, taxonomy: CategoryTaxonomy) -> dict[tuple[str, str], bool]:
        """One boolean per determined (entity, category) pair."""
        preds: dict[tuple[str, str], bool] = {}
        for cid, res in self.results.items():
            for category in taxonomy:
                if category in res.undetermined:
                    continue
                preds[(cid, category)] = category in res.labels
        return preds

    def undetermined_pairs(self) -> set[tuple[str, str]]:
        return {
            (cid, category)
            for cid, res in self.results.items()
            for category in res.undetermined
        }

    def to_report(self, taxonomy: CategoryTaxonomy) -> dict:
        labeled = {cid: sorted(r.labels) for cid, r in self.results.items()}
        undetermined = {
            cid: sorted(r.undetermined) for cid, r in self.results.items() if r.undetermined
        }
        return {
            "entities_classified": len(self.results),
            "unlabeled_count": sum(1 for r in self.results.values() if not r.labels),
            "skipped_no_description": sorted(self.skipped_no_description),
            "taxonomy": list(taxonomy),
            "labels": labeled,
            "undetermined": undetermined,
        }


def classify_graph(
    graph: SupplyChainGraph,
    taxonomy: CategoryTaxonomy,
    backend: Backend,
    token_budget: int = 512,
) -> ClassificationOutcome:
    """Classify every node with descriptions and annotate its categories.

    Nodes without descriptions are skipped and reported. Entities answering
    No everywhere stay unlabeled.
    """
    results: dict[str, EntityClassification] = {}
    skipped: list[str] = []
    for cid in sorted(graph.nodes):
        node = graph.nodes[cid]
        if not node.descriptions:
            skipped.append(cid)
            continue
        result = classify_entity(node, taxonomy, backend, token_budget=token_budget)
        node.categories = set(result.labels)
        results[cid] = result
    return ClassificationOutcome(results=results, skipped_no_description=skipped)


@dataclass
class EvaluationReport:
    per_category: dict[str, tuple[ConfusionCounts, Metrics]]
    macro: Metrics
    micro_counts: ConfusionCounts
    micro: Metrics
    evaluated: int
    undetermined: int

    def to_dict(self) -> dict:
        return {
            "per_category": {
                cat: {"counts": counts.to_dict(), "metrics": metrics.to_dict()}
                for cat, (counts, metrics) in sorted(self.per_category.items())
            },
            "macro": self.macro.to_dict(),
            "micro": {"counts": self.micro_counts.to_dict(), "metrics": self.micro.to_dict()},
            "evaluated": self.evaluated,
            "undetermined": self.undetermined,
        }


def evaluate_all(
    dataset: Sequence[LabeledExample],
    predictions: Mapping[tuple[str, str], bool],
    taxonomy: CategoryTaxonomy,
    undetermined: Iterable[tuple[str, str]] = (),
) -> EvaluationReport:
    """Score a labeled dataset against (entity, category) predictions.

    Undetermined pairs are excluded from the confusion counts and reported.
    Macro metrics average per-category values without weighting; micro
    metrics come from the pooled counts.
    """
    if not dataset:
        raise EmptyInput("dataset is empty")
    excluded = set(undetermined)
    by_category: dict[str, tuple[list[bool], list[bool]]] = {}
    skipped = 0
    for example in dataset:
        if example.category not in taxonomy:
            raise ValueError(f"category {example.category!r} not in taxonomy")
        pair = (example.entity_id, example.category)
        if pair in excluded:
            skipped += 1
            continue
        if pair not in predictions:
            raise MissingPrediction(f"no prediction for {pair}")
        preds, golds = by_category.setdefault(example.category, ([], []))
        preds.append(bool(predictions[pair]))
        golds.append(example.gold)
    if not by_category:
        raise EmptyInput("every example was undetermined")
    per_category: dict[str, tuple[ConfusionCounts, Metrics]] = {}
    pooled_tp = pooled_fp = pooled_tn = pooled_fn = 0
    for category, (preds, golds) in by_category.items():
        counts, metrics = evaluate_binary(preds, golds)
        per_category[category] = (counts, metrics)
        pooled_tp += counts.tp
        pooled_fp += counts.fp
        pooled_tn += counts.tn
        pooled_fn += counts.fn
    metric_values = [metrics for _, metrics in per_category.values()]
    macro = Metrics(
        accuracy=sum(m.accuracy for m in metric_values) / len(metric_values),
        precision=sum(m.precision for m in metric_values) / len(metric_values),
        recall=sum(m.recall for m in metric_values) / len(metric_values),
        f1=sum(m.f1 for m in metric_values) / len(metric_values),
    )
    micro_counts = ConfusionCounts(tp=pooled_tp, fp=pooled_fp, tn=pooled_tn, fn=pooled_fn)
    return EvaluationReport(
        per_category=per_category,
        macro=macro,
        micro_counts=micro_counts,
        micro=Metrics.from_counts(micro_counts),
        evaluated=sum(c.total for c, _ in per_category.values()),
        undetermined=skipped,
    )


def downsample_balanced(
    dataset: Sequence[LabeledExample], category: str, rng_seed: int
) -> list[LabeledExample]:
    """Balance one category's examples: all of the minority class plus a
    seeded uniform sample of equal size from the majority class.

    The result is a subset of the input in original order. Raises
    DegenerateClass when the category lacks positives or negatives.
    """
    indexed = [(i, ex) for i, ex in enumerate(dataset) if ex.category == category]
    pos = [(i, ex) for i, ex in indexed if ex.gold]
    neg = [(i, ex) for i, ex in indexed if not ex.gold]
    if not pos or not neg:
        raise DegenerateClass(f"category {category!r} needs both positives and negatives")
    minority, majority = (pos, neg) if len(pos) <= len(neg) else (neg, pos)
    rng = random.Random(rng_seed)
    sampled = rng.sample(majority, len(minority))
    keep = sorted(i for i, _ in minority + sampled)
    return [dataset[i] for i in keep]


def load_labeled_dataset(path: str, taxonomy: CategoryTaxonomy | None = None) -> list[LabeledExample]:
    """Load a JSONL labeled dataset of (entity_id, category, gold, description)."""
    examples: list[LabeledExample] = []
    for lineno, record in read_jsonl(path):
        missing = [f for f in DATASET_FIELDS if f not in record]
        if missing:
            raise ParseError(f"missing fields {missing}", path=str(path), line=lineno)
        if not isinstance(record["gold"], bool):
            raise ParseError("field 'gold' must be a boolean", path=str(path), line=lineno)
        if taxonomy is not None and record["category"] not in taxonomy:
            raise ParseError(
                f"category {record['category']!r} not in taxonomy", path=str(path), line=lineno
            )
        examples.append(LabeledExample(
            entity_id=record["entity_id"],
            category=record["category"],
            gold=record["gold"],
            description=record["description"],
        ))
    return examples


def dump_labeled_dataset(examples: Sequence[LabeledExample], path: str) -> None:
    write_jsonl(path, (asdict(ex) for ex in examples))
