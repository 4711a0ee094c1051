from __future__ import annotations

import json
import os
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from supplygraph.backends import ScriptedBackend, load_script
from supplygraph.corpus import StopwordLists, load_corpus
from supplygraph.crawler import CrawlConfig

# test_golden.py imports GAZETTEER_PATH and LABELS_PATH from here; every
# other module imports from shared.
from shared import GAZETTEER_PATH, LABELS_PATH, NEWS_PATH, TRUTH_PATH  # noqa: F401


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test after which a non-daemon thread it started still runs,
    such as a crawl or classify pool worker never joined."""
    before = set(threading.enumerate())
    yield
    leaked = [t for t in threading.enumerate() if t not in before and not t.daemon]
    assert not leaked, f"threads left running: {leaked}"


@pytest.fixture(scope="session")
def stopwords() -> StopwordLists:
    return StopwordLists.default()


@pytest.fixture()
def news_corpus():
    return load_corpus(NEWS_PATH)


@pytest.fixture()
def gazetteer_backend():
    return ScriptedBackend(load_script(GAZETTEER_PATH))


@pytest.fixture()
def gazetteer():
    with open(GAZETTEER_PATH, encoding="utf-8") as fh:
        return json.loads(fh.readline())["gazetteer"]


@pytest.fixture()
def news_truth():
    with open(TRUTH_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture()
def fixture_config():
    return CrawlConfig(seeds=["bechtel"], year_range=(2019, 2021), per_year_min=1)
