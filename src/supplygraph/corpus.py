"""News corpus loading, article fetching, and text/name normalization.

Articles are JSON Lines records with a fixed field set and an id no other
record in the file uses; a record that breaks either rule is a ParseError
naming the file and line. Entity names are normalized to a lowercase
matching form; article bodies are normalized to lowercase single-spaced
text before they are handed to a prompt.
"""

from __future__ import annotations

import logging
import string
import re
import threading
import time
from dataclasses import dataclass, replace
from importlib import resources
from typing import TYPE_CHECKING, Iterator, Protocol

from .errors import EmptyName, FetchError, ParseError
from .files import open_input, read_jsonl

if TYPE_CHECKING:
    from .crawler import CrawlConfig

log = logging.getLogger(__name__)

ARTICLE_FIELDS = ("id", "url", "title", "body", "published_year", "retrieved_for_keyword")

_WS_RE = re.compile(r"\s+")
_CONTROL_RE = re.compile(r"[\x00-\x08\x0b-\x1f\x7f]")
_EDGE_CHARS = string.punctuation + string.whitespace


@dataclass(frozen=True)
class Article:
    """One fetched news item."""

    id: str
    url: str
    title: str
    body: str
    published_year: int
    retrieved_for_keyword: str


@dataclass(frozen=True)
class StopwordLists:
    """Corporate-suffix tokens that name normalization strips from the right."""

    company_suffixes: frozenset[str]

    @classmethod
    def default(cls) -> "StopwordLists":
        text = resources.files("supplygraph").joinpath("data", "company_suffixes.txt")
        return cls(company_suffixes=_parse_stopword_text(text.read_text(encoding="utf-8")))


def _parse_stopword_text(text: str) -> frozenset[str]:
    tokens = set()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens.add(line.lower())
    return frozenset(tokens)


def load_stopwords(suffix_path: str) -> StopwordLists:
    """Load the company-suffix list from a file (one token per line, # comments)."""
    with open_input(suffix_path) as fh:
        return StopwordLists(company_suffixes=_parse_stopword_text(fh.read()))


def name_forms(raw: str, stopwords: StopwordLists) -> tuple[str, str]:
    """An entity name's plain form and its matching form, both lowercase.

    The plain form lowercases, collapses internal whitespace runs and trims
    edge punctuation and whitespace. The matching form then repeatedly drops
    trailing corporate-suffix tokens (right to left) and trims again; tokens
    inside the name are never removed. Raises EmptyName when nothing survives.
    """
    if not raw or not raw.strip():
        raise EmptyName("name is empty")
    plain = name = _WS_RE.sub(" ", raw.lower()).strip(_EDGE_CHARS)
    while name:
        tokens = name.split(" ")
        if tokens[-1] not in stopwords.company_suffixes:
            break
        name = " ".join(tokens[:-1]).strip(_EDGE_CHARS)
    if not name:
        raise EmptyName(f"nothing left of {raw!r} after suffix stripping")
    return plain, name


def preprocess_text(body: str) -> str:
    """Lowercase text, drop control characters, and collapse whitespace runs.

    Sentence punctuation is left in place, so sentence boundaries survive.
    """
    if not body:
        return ""
    text = _CONTROL_RE.sub(" ", body.lower())
    return _WS_RE.sub(" ", text).strip()


class Corpus:
    """An ordered, immutable-after-load collection of articles, and the
    ArticleFetcher a crawl searches.

    Keeps a keyword index mapping retrieved_for_keyword values to article ids
    in insertion order.
    """

    def __init__(self) -> None:
        self.articles: list[Article] = []
        self.keyword_index: dict[str, list[str]] = {}
        self._by_id: dict[str, Article] = {}

    def add(self, article: Article) -> None:
        if article.id in self._by_id:
            raise ValueError(f"article id {article.id!r} repeats")
        self.articles.append(article)
        self._by_id[article.id] = article
        self.keyword_index.setdefault(article.retrieved_for_keyword, []).append(article.id)

    def search(self, keyword: str, year: int, limit: int) -> list[Article]:
        """The first ``limit`` articles retrieved for keyword and published in year."""
        articles = (self._by_id[aid] for aid in self.keyword_index.get(keyword, ()))
        return [a for a in articles if a.published_year == year][:limit]

    def __len__(self) -> int:
        return len(self.articles)

    def __iter__(self) -> Iterator[Article]:
        return iter(self.articles)


def _article_from_record(record: dict, strict: bool, path: str, lineno: int) -> Article:
    missing = [f for f in ARTICLE_FIELDS if f not in record]
    if missing:
        raise ParseError(f"missing fields {missing}", path=path, line=lineno)
    unknown = [k for k in record if k not in ARTICLE_FIELDS]
    if unknown and strict:
        raise ParseError(f"unknown fields {unknown}", path=path, line=lineno)
    for f in ("id", "url", "title", "body", "retrieved_for_keyword"):
        if not isinstance(record[f], str):
            raise ParseError(f"field {f!r} must be a string", path=path, line=lineno)
    year = record["published_year"]
    if isinstance(year, bool) or not isinstance(year, int):
        raise ParseError("field 'published_year' must be an integer", path=path, line=lineno)
    if not record["id"]:
        raise ParseError("field 'id' must be non-empty", path=path, line=lineno)
    if not preprocess_text(record["body"]):
        raise ParseError("article body is empty after preprocessing", path=path, line=lineno)
    return Article(
        id=record["id"],
        url=record["url"],
        title=record["title"],
        body=record["body"],
        published_year=year,
        retrieved_for_keyword=record["retrieved_for_keyword"],
    )


def load_corpus(path: str, strict: bool = True) -> Corpus:
    """Load a JSONL corpus file.

    Every record must carry exactly the article fields; unknown fields are
    rejected in strict mode and ignored otherwise. Raises ParseError with the
    offending line number, a repeated article id included.
    """
    corpus = Corpus()
    for lineno, record in read_jsonl(path):
        article = _article_from_record(record, strict, str(path), lineno)
        try:
            corpus.add(article)
        except ValueError as exc:
            raise ParseError(str(exc), path=str(path), line=lineno) from exc
    return corpus


class ArticleFetcher(Protocol):
    """Source of articles for one keyword and one year."""

    def search(self, keyword: str, year: int, limit: int) -> list[Article]: ...


# A failed search is retried FETCH_RETRIES times, the n-th retry after
# n * FETCH_BACKOFF_S seconds.
FETCH_RETRIES = 2
FETCH_BACKOFF_S = 0.1


def _search_with_retries(
    fetcher: ArticleFetcher, keyword: str, year: int, limit: int
) -> list[Article]:
    last: Exception | None = None
    for attempt in range(FETCH_RETRIES + 1):
        try:
            return fetcher.search(keyword, year, limit)
        except FetchError as exc:
            last = exc
            if attempt < FETCH_RETRIES:
                time.sleep(FETCH_BACKOFF_S * (attempt + 1))
    raise FetchError(f"search failed for keyword={keyword!r} year={year}: {last}")


def fetch_articles(
    keyword: str,
    config: "CrawlConfig",
    fetcher: ArticleFetcher,
    failed_years: list[int],
    stop: threading.Event,
) -> list[Article]:
    """Fetch up to config.per_year_min articles per year across config.year_range.

    Shortfalls are logged, not raised. A year whose search still fails after
    FETCH_RETRIES retries is logged and appended to failed_years; the other
    years' articles are kept. Every returned article is tagged with the
    keyword, has a published_year inside the configured range, and is
    returned once: a repeat of an article id already fetched is dropped. Once
    stop is set, no further year is searched and the articles so far are
    returned.
    """
    if not keyword or not keyword.strip():
        raise ValueError("keyword must be non-empty")
    start, end = config.year_range
    want = config.per_year_min
    out: list[Article] = []
    seen: set[str] = set()
    for year in range(start, end + 1):
        if stop.is_set():
            break
        try:
            hits = _search_with_retries(fetcher, keyword, year, want)
        except FetchError as exc:
            log.warning("fetch failed: %s", exc)
            failed_years.append(year)
            continue
        kept: list[Article] = []
        for a in hits:
            if start <= a.published_year <= end and a.id not in seen and len(kept) < want:
                seen.add(a.id)
                kept.append(replace(a, retrieved_for_keyword=keyword))
        if len(kept) < want:
            log.warning(
                "fetch shortfall keyword=%s year=%d got=%d want=%d",
                keyword, year, len(kept), want,
            )
        out.extend(kept)
    return out
