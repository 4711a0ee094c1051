from __future__ import annotations

import errno
import json

import pytest

from supplygraph import files as files_module
from supplygraph import graph as gr
from supplygraph.backends import RecordingBackend, load_script
from supplygraph.classify import (
    CategoryTaxonomy,
    load_labeled_dataset,
    load_predictions,
    load_taxonomy,
)
from supplygraph.corpus import StopwordLists, load_corpus, load_stopwords
from supplygraph.errors import ParseError
from supplygraph.files import open_output, read_json

_GOOD_ROWS = {
    load_corpus: {"id": "a-1", "url": "u", "title": "t", "body": "acme hired delta.",
                  "published_year": 2019, "retrieved_for_keyword": "acme"},
    load_script: {"key": "k", "response": "r"},
    load_labeled_dataset: {"entity_id": "acme", "category": "legal counsel", "gold": False,
                           "description": "d"},
    load_predictions: {"entity_id": "acme", "category": "legal counsel", "prediction": True},
}
# Arguments a reader takes after the path.
_MORE_ARGS = {load_labeled_dataset: (CategoryTaxonomy(),)}


@pytest.mark.parametrize("reader", list(_GOOD_ROWS), ids=lambda reader: reader.__name__)
@pytest.mark.parametrize("bad_line", ["not json", "5", '["a list"]'])
def test_jsonl_readers_report_bad_line(tmp_path, reader, bad_line):
    path = tmp_path / "in.jsonl"
    path.write_text(json.dumps(_GOOD_ROWS[reader]) + "\n\n" + bad_line + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        reader(str(path), *_MORE_ARGS.get(reader, ()))
    assert err.value.line == 3
    assert err.value.path == str(path)


@pytest.mark.parametrize("read", [
    load_corpus,
    load_script,
    lambda path: load_labeled_dataset(path, CategoryTaxonomy()),
    load_predictions,
    lambda path: RecordingBackend(None, path),
    load_taxonomy,
    lambda path: gr.load_alias_file(path, StopwordLists.default()),
    load_stopwords,
    gr.load_state,
    lambda path: read_json(path, "config"),
], ids=["corpus", "script", "dataset", "predictions", "cassette", "taxonomy", "aliases",
        "stopwords", "state", "config"])
def test_readers_name_a_file_that_is_not_utf8(tmp_path, read):
    path = tmp_path / "in.txt"
    path.write_bytes(b"acme\n\xff\n")
    with pytest.raises(ParseError) as err:
        read(str(path))
    assert str(err.value) == f"not UTF-8: invalid start byte ({path})"
    assert err.value.path == str(path)


class _FillingDisk:
    """A text file whose disk fills once ``room`` characters are written: the
    write that crosses it writes what fits, then raises ENOSPC."""

    def __init__(self, fh, room):
        self.fh, self.room, self.written = fh, room, 0

    def write(self, text):
        if self.written + len(text) > self.room:
            self.fh.write(text[: self.room - self.written])
            self.written = self.room
            raise OSError(errno.ENOSPC, "No space left on device")
        self.written += len(text)
        return self.fh.write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


def test_save_state_crash_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "graph.json"
    graph = gr.SupplyChainGraph(StopwordLists.default())
    graph.upsert_entity("Acme", "builds bridges", "a-1")
    gr.save_state(graph, str(path))
    before = path.read_bytes()

    disks = []

    def open_on_filling_disk(file, mode="r", **kwargs):
        disks.append(_FillingDisk(open(file, mode, **kwargs), room=len(before) // 2))
        return disks[-1]

    graph.upsert_entity("Delta", "supplies steel", "a-2")
    monkeypatch.setattr(files_module, "open", open_on_filling_disk, raising=False)
    with pytest.raises(OSError, match="No space left on device"):
        gr.save_state(graph, str(path))
    assert [disk.written for disk in disks] == [len(before) // 2]  # a partial write
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["graph.json"]


def test_open_output_replaces_only_on_success(tmp_path):
    path = tmp_path / "out.txt"
    with open_output(str(path)) as fh:
        fh.write("first\n")
        assert not path.exists()
    assert path.read_text(encoding="utf-8") == "first\n"
    with pytest.raises(KeyboardInterrupt):
        with open_output(str(path)) as fh:
            fh.write("second\n")
            raise KeyboardInterrupt
    assert path.read_text(encoding="utf-8") == "first\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
