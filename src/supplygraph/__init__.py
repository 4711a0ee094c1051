"""Supply-chain co-mention graph construction from news corpora."""

from .backends import HttpBackend, ScriptedBackend, load_script
from .classify import CategoryTaxonomy, classify_graph
from .corpus import StopwordLists, load_corpus
from .crawler import CrawlConfig, Crawler
from .graph import SupplyChainGraph, export_graph, load_state, save_state
from .prompting import build_classification_prompt, build_extraction_prompt

__version__ = "0.1.0"

__all__ = [
    "CategoryTaxonomy",
    "CrawlConfig",
    "Crawler",
    "HttpBackend",
    "ScriptedBackend",
    "StopwordLists",
    "SupplyChainGraph",
    "build_classification_prompt",
    "build_extraction_prompt",
    "classify_graph",
    "export_graph",
    "load_corpus",
    "load_script",
    "load_state",
    "save_state",
]
