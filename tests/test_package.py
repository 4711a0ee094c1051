"""The package's public surface: the names `supplygraph` re-exports, and
the command-line options README.md documents."""

from __future__ import annotations

import argparse
import ast
import os
import re

import supplygraph
from supplygraph import cli

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


def test_every_error_type_is_caught_by_name_or_carries_state():
    # A type that src/ only raises and imports makes callers react no
    # differently from the ValueError or ParseError it could be. A use is a
    # name outside raise statements and imports, such as an except clause or
    # a tuple of handled types; errors.py itself only defines.
    with open(os.path.join(ROOT, "src", "supplygraph", "errors.py"), encoding="utf-8") as fh:
        classes = [node for node in ast.parse(fh.read()).body if isinstance(node, ast.ClassDef)]
    named = set()

    def visit(node):
        if isinstance(node, (ast.Raise, ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    folder = os.path.join(ROOT, "src", "supplygraph")
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py") and name != "errors.py":
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                visit(ast.parse(fh.read()))
    idle = sorted(
        cls.name for cls in classes
        if cls.name not in named
        and not any(isinstance(s, ast.FunctionDef) and s.name == "__init__" for s in cls.body)
    )
    assert idle == [], f"raised but never caught by name, and no state of their own: {idle}"


def test_readme_names_every_cli_option_and_only_those():
    # Every option of the top-level parser and of each subcommand shows one
    # of its option strings in README.md, and every --flag that README names
    # from "## Commands" on is an option of some parser. So an option added
    # or deleted without its documentation fails here.
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    parser = cli.build_parser()
    parsers = {"supplygraph": parser}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers.update(action.choices)
    options, unnamed = set(), []
    for name, sub in parsers.items():
        for action in sub._actions:
            options.update(action.option_strings)
            if action.option_strings and not isinstance(action, argparse._HelpAction) and not any(
                re.search(rf"(?<![\w-]){re.escape(o)}(?![\w-])", readme)
                for o in action.option_strings
            ):
                unnamed.append(f"{name} {'/'.join(action.option_strings)}")
    assert "-v" in options and "--corpus" in options  # the walk reached both levels
    assert unnamed == [], f"options README.md never names: {unnamed}"
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme[readme.index("\n## Commands"):]))
    assert sorted(named - options) == [], "flags README.md names that no parser has"
