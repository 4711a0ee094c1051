"""News corpus loading, article fetching, and text/name normalization.

Articles are JSON Lines records with a fixed field set. Entity names are
normalized to a lowercase matching form; article bodies are normalized to
lowercase single-spaced text before they are handed to a prompt.
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

from .errors import DuplicateId, EmptyName, FetchError, ParseError
from .files import read_jsonl

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
    with open(suffix_path, encoding="utf-8") as fh:
        return StopwordLists(company_suffixes=_parse_stopword_text(fh.read()))


def normalize_name(raw: str, stopwords: StopwordLists | None = None) -> str:
    """Normalize an entity name to its lowercase matching form.

    Lowercases, trims edge punctuation and whitespace, collapses internal
    whitespace runs, and, when ``stopwords`` is given, repeatedly drops
    trailing corporate-suffix tokens (right to left). Tokens inside the name
    are never removed. Raises EmptyName when nothing survives.
    """
    suffixes = stopwords.company_suffixes if stopwords is not None else frozenset()
    return _strip_suffixes(_plain_name(raw), raw, suffixes)


def name_forms(raw: str, stopwords: StopwordLists) -> tuple[str, str]:
    """``(normalize_name(raw), normalize_name(raw, stopwords))``, normalizing
    once: the suffix-stripped form is stripped from the plain one."""
    plain = _plain_name(raw)
    return plain, _strip_suffixes(plain, raw, stopwords.company_suffixes)


def _plain_name(raw: str) -> str:
    if not raw or not raw.strip():
        raise EmptyName("name is empty")
    return _WS_RE.sub(" ", raw.lower()).strip(_EDGE_CHARS)


def _strip_suffixes(name: str, raw: str, suffixes: frozenset[str]) -> str:
    while name:
        tokens = name.split(" ")
        if tokens[-1] not in suffixes:
            break
        name = " ".join(tokens[:-1]).strip(_EDGE_CHARS)
    if not name:
        raise EmptyName(f"nothing left of {raw!r} after suffix stripping")
    return name


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
            raise DuplicateId(article.id)
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
    offending line number, or DuplicateId on a repeated article id.
    """
    corpus = Corpus()
    for lineno, record in read_jsonl(path):
        corpus.add(_article_from_record(record, strict, str(path), lineno))
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
    stop: threading.Event | None = None,
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
        if stop is not None and stop.is_set():
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
