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


def _parsed(folder):
    """The syntax tree of every .py file directly under folder."""
    trees = []
    for name in sorted(os.listdir(os.path.join(ROOT, folder))):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, folder, name), encoding="utf-8") as fh:
                trees.append(ast.parse(fh.read()))
    return trees


def test_every_definition_in_src_is_reached_outside_tests():
    # A def or class that only tests call is a code path the package never
    # runs. perfbench's span targets name functions in strings; a target
    # counts as a use, since the benchmark's own tests require every target
    # to resolve. Once a span moves off a function, the guard names it.
    src = _parsed(os.path.join("src", "supplygraph"))
    bench = _parsed("perfbench")
    used = set()
    for tree in bench:
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
            ):
                used.update(attr.rpartition(".")[2] for _, _, attr in ast.literal_eval(node.value))
    for tree in src + bench:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name.rpartition(".")[2] for alias in node.names)
    unused = {
        node.name
        for tree in src
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    }
    assert sorted(unused) == [], f"defined in src/ but used only by tests: {sorted(unused)}"
