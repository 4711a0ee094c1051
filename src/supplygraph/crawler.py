"""Iterative crawl loop: keyword frontier, extraction prompts, graph growth.

Each keyword popped from the frontier fetches its articles, runs the
extraction prompt over every (segmented) article, upserts the parsed
entities, records clique co-mention edges, and enqueues unseen entities as
new keywords. Per-article failures are tallied and skipped, never fatal.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

from .backends import Backend, BackendRequest
from .corpus import ArticleFetcher, fetch_articles, preprocess_text
from .errors import BackendUnavailable, EmptyName, EmptyParse
from .graph import SupplyChainGraph
from .prompting import (
    ExtractedEntity,
    ParseDiagnostics,
    build_extraction_prompt,
    parse_entity_list,
    segment_text,
)

log = logging.getLogger(__name__)

TERMINATION_EXHAUSTED = "exhausted"
TERMINATION_NODE_BUDGET = "node budget"
TERMINATION_ARTICLE_BUDGET = "article budget"


_INT_FIELDS = ("per_year_min", "token_budget", "max_nodes", "max_articles", "parallelism")


@dataclass
class CrawlConfig:
    seeds: list[str]
    industry: str = "civil engineering"
    year_range: tuple[int, int] = (2018, 2023)
    per_year_min: int = 10
    token_budget: int = 3000
    max_nodes: int = 100000
    max_articles: int = 1000000
    parallelism: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.seeds, list) or not all(isinstance(s, str) for s in self.seeds):
            raise ValueError("seeds must be a list of names")
        if not self.seeds or not all(s.strip() for s in self.seeds):
            raise ValueError("seeds must be a non-empty list of non-empty names")
        if not isinstance(self.industry, str) or not self.industry.strip():
            raise ValueError("industry must be a non-empty string")
        if not isinstance(self.year_range, (list, tuple)) or len(self.year_range) != 2:
            raise ValueError("year_range must be [start, end]")
        self.year_range = tuple(self.year_range)
        numbers = {name: getattr(self, name) for name in _INT_FIELDS}
        numbers["year_range start"], numbers["year_range end"] = self.year_range
        for name, value in numbers.items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        start, end = self.year_range
        if start > end:
            raise ValueError("year_range start must not exceed end")
        if self.per_year_min < 1:
            raise ValueError("per_year_min must be >= 1")
        if self.token_budget < 1:
            raise ValueError("token_budget must be >= 1")
        if self.max_nodes < 1 or self.max_articles < 1:
            raise ValueError("budgets must be >= 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")

    def to_dict(self) -> dict:
        data = asdict(self)
        data["year_range"] = list(self.year_range)
        return data


@dataclass
class CrawlStats:
    articles_processed: int = 0
    entities_extracted: int = 0
    nodes_created: int = 0
    edges_created: int = 0
    parse_failures: int = 0
    backend_failures: int = 0
    fetch_failures: int = 0


@dataclass
class CrawlReport:
    termination_reason: str
    stats: CrawlStats
    duration_ms: int
    config: CrawlConfig

    def to_dict(self) -> dict:
        return {
            "termination_reason": self.termination_reason,
            "stats": asdict(self.stats),
            "duration_ms": self.duration_ms,
            "config": self.config.to_dict(),
        }


def article_payload(title: str, body: str) -> str:
    """Prompt payload for one article: preprocessed title and body."""
    parts = [preprocess_text(title), preprocess_text(body)]
    return "\n\n".join(p for p in parts if p)


@dataclass
class _ArticleResult:
    article_id: str
    entities: list[ExtractedEntity]
    parse_failures: int
    backend_failures: int


@dataclass
class _Harvest:
    keyword: str
    articles: list[_ArticleResult] = field(default_factory=list)
    fetch_failures: int = 0  # years whose search failed after its retries


class Crawler:
    def __init__(
        self,
        config: CrawlConfig,
        source: ArticleFetcher,
        backend: Backend,
        graph: SupplyChainGraph | None = None,
    ):
        self.config = config
        self.fetcher = source
        self.backend = backend
        self.graph = graph if graph is not None else SupplyChainGraph()

    def run(self) -> tuple[SupplyChainGraph, CrawlReport]:
        started = time.monotonic()
        self._frontier: deque[str] = deque()
        self._enqueued: set[str] = set()
        self._stats = CrawlStats()
        self._cut = False  # a budget left a fetched article unapplied
        for raw_seed in self.config.seeds:
            self._enqueue(self.graph.upsert_entity(raw_seed))
        nodes_before, edges_before = len(self.graph.nodes), len(self.graph.edges)
        # pending[i] harvests self._frontier[i], on a worker, or on this
        # thread when it is None. Keywords are applied in frontier order, so
        # any width gives the bytes of a sequential crawl.
        pending: deque[Future[_Harvest] | None] = deque()
        # Set once the loop ends, by a stop or an error: harvests still in
        # flight will be discarded, so they stop fetching and calling the
        # backend.
        self._stop = threading.Event()
        width = self.config.parallelism
        # The pool starts a thread per submit, up to width, so a width-1
        # crawl starts none: every harvest runs on this thread.
        with ThreadPoolExecutor(max_workers=width) as pool:
            try:
                while self._frontier and not self._budget_reason():
                    if not pending:
                        pending.append(None)  # no worker holds the head
                    while len(pending) < min(width, len(self._frontier)):
                        pending.append(pool.submit(self._harvest, self._frontier[len(pending)]))
                    keyword = self._frontier.popleft()
                    future = pending.popleft()
                    self._apply(self._harvest(keyword) if future is None else future.result())
            finally:
                self._stop.set()
        # Only _apply changes the graph in the loop, so these are its additions.
        self._stats.nodes_created = len(self.graph.nodes) - nodes_before
        self._stats.edges_created = len(self.graph.edges) - edges_before
        # Exhausted only if every fetched article of every enqueued keyword
        # was applied; otherwise the budget that stopped the crawl.
        reason = self._budget_reason() if self._frontier or self._cut else None
        report = CrawlReport(
            termination_reason=reason or TERMINATION_EXHAUSTED,
            stats=self._stats,
            duration_ms=int((time.monotonic() - started) * 1000),
            config=self.config,
        )
        return self.graph, report

    def _enqueue(self, cid: str) -> None:
        if cid not in self._enqueued:
            self._frontier.append(cid)
            self._enqueued.add(cid)

    def _budget_reason(self) -> str | None:
        """The budget the crawl has used up, or None while both have room."""
        if len(self.graph.nodes) >= self.config.max_nodes:
            return TERMINATION_NODE_BUDGET
        if self._stats.articles_processed >= self.config.max_articles:
            return TERMINATION_ARTICLE_BUDGET
        return None

    def _harvest(self, keyword: str) -> _Harvest:
        failed_years: list[int] = []
        articles = fetch_articles(keyword, self.config, self.fetcher, failed_years, self._stop)
        harvest = _Harvest(keyword=keyword, fetch_failures=len(failed_years))
        for article in articles:
            if self._stop.is_set():
                break
            harvest.articles.append(self._extract(article.id, article.title, article.body))
        return harvest

    def _extract(self, article_id: str, title: str, body: str) -> _ArticleResult:
        payload = article_payload(title, body)
        entities: list[ExtractedEntity] = []
        parse_failures = 0
        backend_failures = 0
        diagnostics = ParseDiagnostics()
        plan = segment_text(payload, self.config.token_budget)
        for i, segment in enumerate(plan.segments):
            request = BackendRequest(
                prompt=build_extraction_prompt(segment, self.config.industry),
                request_tag=f"extract:{article_id}:{i}",
            )
            try:
                response = self.backend.complete(request)
            except BackendUnavailable as exc:
                log.warning("backend failed article=%s segment=%d error=%s", article_id, i, exc)
                backend_failures += 1
                continue
            try:
                entities.extend(parse_entity_list(response.text, diagnostics))
            except EmptyParse:
                parse_failures += 1
        return _ArticleResult(article_id, entities, parse_failures, backend_failures)

    def _apply(self, harvest: _Harvest) -> None:
        stats = self._stats
        stats.fetch_failures += harvest.fetch_failures
        for result in harvest.articles:
            if self._budget_reason():
                self._cut = True
                break
            stats.articles_processed += 1
            stats.parse_failures += result.parse_failures
            stats.backend_failures += result.backend_failures
            stats.entities_extracted += len(result.entities)
            mentioned = {harvest.keyword}
            for entity in result.entities:
                try:
                    cid = self.graph.upsert_entity(entity.name, entity.description, result.article_id)
                except EmptyName:
                    log.debug("dropped unusable entity name %r", entity.name)
                    continue
                mentioned.add(cid)
                self._enqueue(cid)
            self.graph.add_comention(result.article_id, mentioned)
        log.info(
            "crawl keyword=%s articles=%d frontier=%d nodes=%d edges=%d",
            harvest.keyword,
            len(harvest.articles),
            len(self._frontier),
            len(self.graph.nodes),
            len(self.graph.edges),
        )


def run_crawl(
    config: CrawlConfig,
    source: ArticleFetcher,
    backend: Backend,
    graph: SupplyChainGraph | None = None,
) -> tuple[SupplyChainGraph, CrawlReport]:
    """Run a crawl to exhaustion or budget; returns the graph and a report."""
    return Crawler(config, source, backend, graph).run()
