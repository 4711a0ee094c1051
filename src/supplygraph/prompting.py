"""Prompt construction, token budgeting, segmentation, and response parsing.

The two prompt templates ship as data assets and are rendered by pure
placeholder substitution; nothing else in the template text is touched.
Each template is split into literal text and placeholder names once, at
load, and rendering joins the pieces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources

from .corpus import _CONTROL_RE
from .errors import AmbiguousAnswer, EmptyParse

TOKEN_SAFETY_FACTOR = 1.3
REASONING_PREAMBLE = "Think step by step before answering."

_PLACEHOLDER_RE = re.compile(r"\{(news|industry|company_name|company_description|company_category)\}")
_SECTION_RE = re.compile(r"^\[(system|user|question)\]$", re.MULTILINE)
_ENTITY_LINE_RE = re.compile(r"^\s*(?P<num>\d+\.\s*)?(?P<name>[^:]+):(?P<desc>.*)$")
_ALPHA_RE = re.compile(r"[A-Za-z]+")
_SENTENCE_END_RE = re.compile(r"[.!?]+(?:\s+|$)")
_WORD_SPAN_RE = re.compile(r"\s*\S+\s*")


@dataclass(frozen=True)
class PromptTriple:
    """A fully rendered prompt: system, user, and question parts."""

    system: str
    user: str
    question: str

    def __post_init__(self) -> None:
        for part in ("system", "user", "question"):
            if not getattr(self, part):
                raise ValueError(f"prompt {part} part is empty")


@dataclass(frozen=True)
class PromptTemplate:
    system: str
    user: str
    question: str
    # Each part split once by _PLACEHOLDER_RE: literal text at even indices,
    # placeholder names at odd ones. The last is the question behind the
    # reasoning preamble.
    _pieces: tuple[tuple[str, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        parts = (self.system, self.user, self.question, REASONING_PREAMBLE + " " + self.question)
        object.__setattr__(self, "_pieces", tuple(tuple(_PLACEHOLDER_RE.split(p)) for p in parts))

    def render(self, values: dict[str, str], reasoning: bool = False) -> PromptTriple:
        system, user, question, reasoned = self._pieces
        return PromptTriple(
            system=_fill(system, values),
            user=_fill(user, values),
            question=_fill(reasoned if reasoning else question, values),
        )


def _fill(pieces: tuple[str, ...], values: dict[str, str]) -> str:
    # Single pass: an inserted value is never scanned for placeholders, and
    # a placeholder without a value is left as written.
    out = list(pieces)
    for i in range(1, len(out), 2):
        name = out[i]
        out[i] = values[name] if name in values else "{" + name + "}"
    return "".join(out)


def _load_template(name: str) -> PromptTemplate:
    text = resources.files("supplygraph").joinpath("data").joinpath(name).read_text(encoding="utf-8")
    sections: dict[str, str] = {}
    marks = list(_SECTION_RE.finditer(text))
    for i, m in enumerate(marks):
        end = marks[i + 1].start() if i + 1 < len(marks) else len(text)
        sections[m.group(1)] = text[m.end():end].strip()
    missing = {"system", "user", "question"} - sections.keys()
    if missing:
        raise ValueError(f"template {name} missing sections {sorted(missing)}")
    return PromptTemplate(**sections)


EXTRACTION_TEMPLATE = _load_template("extraction_prompt.txt")
CLASSIFICATION_TEMPLATE = _load_template("classification_prompt.txt")

# Literal prefixes of the rendered user parts; deterministic backends use
# these to recognize which template produced a request.
EXTRACTION_USER_PREFIX = EXTRACTION_TEMPLATE.user.split("{news}")[0]
CLASSIFICATION_USER_PREFIX = CLASSIFICATION_TEMPLATE.user.split("{company_name}")[0]


def build_extraction_prompt(news: str, industry: str) -> PromptTriple:
    """Render the entity-extraction prompt for one article (or segment)."""
    if not news or not news.strip():
        raise ValueError("news text must be non-empty")
    if not industry or not industry.strip():
        raise ValueError("industry must be non-empty")
    return EXTRACTION_TEMPLATE.render({"news": news, "industry": industry})


def build_classification_prompt(
    company_name: str,
    company_description: str,
    company_category: str,
    reasoning: bool = False,
) -> PromptTriple:
    """Render the yes/no category-membership prompt for one entity."""
    for label, value in (
        ("company_name", company_name),
        ("company_description", company_description),
        ("company_category", company_category),
    ):
        if not value or not value.strip():
            raise ValueError(f"{label} must be non-empty")
    return CLASSIFICATION_TEMPLATE.render(
        {
            "company_name": company_name,
            "company_description": company_description,
            "company_category": company_category,
        },
        reasoning=reasoning,
    )


def estimate_tokens(text: str) -> int:
    """Whitespace token count scaled by the 1.3 safety factor (truncated)."""
    return int(len(text.split()) * TOKEN_SAFETY_FACTOR)


def truncate_to_budget(text: str, budget: int) -> str:
    """Largest whitespace-token prefix of text whose estimate fits the budget."""
    if estimate_tokens(text) <= budget:
        return text
    words = text.split()
    # The prefix " ".join(words[:m]) estimates to int(m * TOKEN_SAFETY_FACTOR),
    # which grows with m: start just past the float bound and step down.
    m = max(0, min(len(words), int((budget + 1) / TOKEN_SAFETY_FACTOR) + 1))
    while m > 0 and int(m * TOKEN_SAFETY_FACTOR) > budget:
        m -= 1
    return " ".join(words[:m])


@dataclass(frozen=True)
class SegmentPlan:
    """Ordered text segments whose concatenation equals the source exactly."""

    segments: tuple[str, ...]


def _sentence_spans(text: str) -> list[str]:
    spans = []
    start = 0
    for m in _SENTENCE_END_RE.finditer(text):
        spans.append(text[start:m.end()])
        start = m.end()
    if start < len(text):
        spans.append(text[start:])
    return spans


def _word_spans(span: str) -> list[str]:
    parts = _WORD_SPAN_RE.findall(span)
    if not parts:
        return [span] if span else []
    return parts


def segment_text(text: str, budget: int) -> SegmentPlan:
    """Split text into segments that each fit the token budget.

    Splits at sentence boundaries first and falls back to whitespace inside a
    sentence that alone exceeds the budget. Concatenating the segments
    restores the input byte for byte. One word estimates to one token, so
    every unit fits any budget of at least 1.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if not text:
        return SegmentPlan(segments=())

    units: list[str] = []
    for sentence in _sentence_spans(text):
        if estimate_tokens(sentence) <= budget:
            units.append(sentence)
        else:
            units.extend(_word_spans(sentence))

    # Every unit but the text's last ends in whitespace: a sentence span ends
    # in \s+ or at the end of the text, and a word span matches \s*\S+\s*.
    # So no word is joined across a unit boundary, and the words of
    # current + unit are the words of current plus the words of unit.
    segments: list[str] = []
    current: list[str] = []
    words = 0
    for unit in units:
        unit_words = len(unit.split())
        if current and int((words + unit_words) * TOKEN_SAFETY_FACTOR) > budget:
            segments.append("".join(current))
            current, words = [unit], unit_words
        else:
            current.append(unit)
            words += unit_words
    if current:
        segments.append("".join(current))
    return SegmentPlan(segments=tuple(segments))


@dataclass(frozen=True)
class ExtractedEntity:
    """One parsed (name, description) pair from an extraction response."""

    name: str
    description: str


@dataclass
class ParseDiagnostics:
    """Counters for extraction-response parsing across a run."""

    lines_skipped: int = 0


def parse_entity_list(response: str, diagnostics: ParseDiagnostics) -> list[ExtractedEntity]:
    """Parse a numbered "name: description" list out of a response.

    A line counts as an entity when it has a numeric "N." prefix or a
    non-empty description after the first colon; anything else is skipped and
    tallied. Control characters are removed from names and descriptions, as
    XML forbids them in ``graph.graphml``. An empty response parses to an
    empty list; a non-empty response with zero entities raises EmptyParse.
    """
    entities: list[ExtractedEntity] = []
    skipped = 0
    for line in response.splitlines():
        if not line.strip():
            continue
        m = _ENTITY_LINE_RE.match(line)
        if m:
            name = _CONTROL_RE.sub("", m.group("name")).strip()
            desc = _CONTROL_RE.sub("", m.group("desc")).strip()
            if name and (m.group("num") or desc):
                entities.append(ExtractedEntity(name=name, description=desc))
                continue
        skipped += 1
    diagnostics.lines_skipped += skipped
    if not entities and response.strip():
        raise EmptyParse(f"no entities in non-empty response ({skipped} lines skipped)")
    return entities


def render_entity_list(entities: list[ExtractedEntity]) -> str:
    """Render entities back into the numbered list format."""
    lines = []
    for i, entity in enumerate(entities, 1):
        if entity.description:
            lines.append(f"{i}. {entity.name}: {entity.description}")
        else:
            lines.append(f"{i}. {entity.name}:")
    return "\n".join(lines)


def parse_yes_no(response: str) -> bool:
    """Read the first alphabetic word of a response as yes/no (case-folded).

    Raises AmbiguousAnswer when that word is anything else or absent.
    """
    m = _ALPHA_RE.search(response)
    if m:
        word = m.group(0).casefold()
        if word == "yes":
            return True
        if word == "no":
            return False
    raise AmbiguousAnswer(f"not a yes/no answer: {response[:80]!r}")
