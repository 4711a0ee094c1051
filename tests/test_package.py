"""The package's public surface: the names `supplygraph` re-exports."""

from __future__ import annotations

import ast
import os
import re

import supplygraph

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_name_perfbench_reaches_resolves():
    # perfbench/run.py calls the package only as sg.<name>, so a surface cut
    # that drops one of those names breaks the benchmark.
    with open(os.path.join(ROOT, "perfbench", "run.py"), encoding="utf-8") as fh:
        names = set(re.findall(r"\bsg\.(\w+)", fh.read()))
    assert "Crawler" in names  # the pattern still finds the benchmark's uses
    assert sorted(n for n in names if not hasattr(supplygraph, n)) == []


def test_all_lists_exactly_the_public_names_init_binds():
    with open(supplygraph.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert sorted(supplygraph.__all__) == sorted(n for n in bound if not n.startswith("_"))
