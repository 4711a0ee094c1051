"""The package's file layer: one input opener and one atomic output writer.

Every input goes through open_input, so each names its file when it is not
UTF-8; read_jsonl and read_json report bad JSON at its line. Every output
goes through open_output, so an interrupted run leaves the previous file (or
none) in place, never a truncated one; write_json and write_jsonl fix the
two JSON output formats. graph.json and the graph exports are rendered in
graph.py, in the same layout and with the json module's own string quoting.
check_text rejects the characters no output can hold, check_utf8 those no
JSON output can hold, and check_int a count or seed that is not an int.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager, suppress
from typing import Iterable, Iterator, TextIO

from .errors import ParseError


# Lone surrogates, which UTF-8 cannot encode; and those and the characters
# XML 1.0 forbids: C0 controls other than tab, LF and CR, U+FFFE and U+FFFF.
_SURROGATE_RE = re.compile("[\ud800-\udfff]")
_BAD_TEXT_RE = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _check(rule: re.Pattern, value: str, where: str, what: str) -> None:
    # The message quotes at most 20 characters either side of the bad one.
    if bad := rule.search(value):
        i = bad.start()
        raise ValueError(f"{where}: {value[max(0, i - 20):i + 20]!r} holds "
                         f"U+{ord(bad.group()):04X} at offset {i}, which {what} cannot hold")


def check_text(value: str, where: str) -> None:
    """Raise ValueError naming ``where`` if ``value`` holds a character that
    the outputs cannot hold."""
    _check(_BAD_TEXT_RE, value, where, "UTF-8 or XML 1.0")


def check_utf8(value: str, where: str) -> None:
    """check_text for text that only JSON outputs hold: only a lone surrogate fails."""
    if not value.isascii():  # a flag read, so ASCII text costs no scan
        _check(_SURROGATE_RE, value, where, "UTF-8")


def check_int(name: str, value: object) -> None:
    """Raise ValueError naming ``name`` if ``value`` is not an int, or is a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@contextmanager
def open_input(path: str) -> Iterator[TextIO]:
    """open_output's reading counterpart: opens ``path`` as UTF-8. Bytes
    that are not UTF-8 raise ParseError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc.reason}", path=str(path)) from exc


def read_json(path: str, what: str) -> object:
    """The JSON value in ``path``; bad JSON raises ParseError "bad <what> JSON" at its line."""
    with open_input(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad {what} JSON: {exc.msg}", path=str(path), line=exc.lineno) from exc


def read_jsonl(path: str) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for each non-blank line of a JSONL file.

    Raises ParseError with the path and line on bad JSON or a non-object row.
    """
    with open_input(path) as fh:
        yield from parse_jsonl(fh, path)


def parse_jsonl(lines: Iterable[str], path: str) -> Iterator[tuple[int, dict]]:
    """read_jsonl over lines already read from ``path``."""
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc.msg}", path=str(path), line=lineno) from exc
        if not isinstance(record, dict):
            raise ParseError("record is not an object", path=str(path), line=lineno)
        yield lineno, record


@contextmanager
def open_output(path: str) -> Iterator[TextIO]:
    """Open ``<path>.tmp`` for writing and rename it onto ``path`` on success.

    If the block raises, the temp file is removed and ``path`` is untouched.
    """
    tmp_path = f"{path}.tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp_path, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp_path)
        raise


def write_json(path: str, payload: object) -> None:
    """Stream ``payload`` as indented UTF-8 JSON with a trailing newline."""
    with open_output(path) as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def write_jsonl(path: str, records: Iterable[dict]) -> None:
    """Write one UTF-8 JSON object per line."""
    with open_output(path) as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
