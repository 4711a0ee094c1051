"""Supply-chain co-mention graph construction from news corpora."""

from .backends import (
    BackendRequest,
    BackendResponse,
    HttpBackend,
    RecordingBackend,
    ScriptedBackend,
    load_script,
    request_key,
)
from .classify import (
    CategoryTaxonomy,
    LabeledExample,
    classify_entity,
    classify_graph,
    downsample_balanced,
    evaluate_all,
    evaluate_binary,
)
from .corpus import (
    Article,
    Corpus,
    StopwordLists,
    dump_corpus,
    fetch_articles,
    load_corpus,
    normalize_name,
    preprocess_text,
)
from .crawler import CrawlConfig, CrawlReport, CrawlState, Crawler, run_crawl, should_terminate
from .graph import SupplyChainGraph, export_graph, graph_equal, load_state, save_state
from .prompting import (
    PromptTriple,
    build_classification_prompt,
    build_extraction_prompt,
    estimate_tokens,
    parse_entity_list,
    parse_yes_no,
    segment_text,
)

__version__ = "0.1.0"

__all__ = [
    "Article",
    "BackendRequest",
    "BackendResponse",
    "CategoryTaxonomy",
    "Corpus",
    "CrawlConfig",
    "CrawlReport",
    "CrawlState",
    "Crawler",
    "HttpBackend",
    "LabeledExample",
    "PromptTriple",
    "RecordingBackend",
    "ScriptedBackend",
    "StopwordLists",
    "SupplyChainGraph",
    "build_classification_prompt",
    "build_extraction_prompt",
    "classify_entity",
    "classify_graph",
    "downsample_balanced",
    "dump_corpus",
    "estimate_tokens",
    "evaluate_all",
    "evaluate_binary",
    "export_graph",
    "fetch_articles",
    "graph_equal",
    "load_corpus",
    "load_script",
    "load_state",
    "normalize_name",
    "parse_entity_list",
    "parse_yes_no",
    "preprocess_text",
    "request_key",
    "run_crawl",
    "save_state",
    "segment_text",
    "should_terminate",
]
