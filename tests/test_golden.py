"""Golden digests of the fixture pipeline: the determinism contract as a check.

Runs crawl, a parallel budgeted crawl that records a cassette, classify,
export in every format, subgraph and evaluate over tests/fixtures, then
compares every manifest output digest with the committed values. The crawl report's digest already
excludes duration_ms, and manifests themselves (created_at, absolute paths)
are not compared. A change that alters any output byte fails here.
"""

from __future__ import annotations

import json

from shared import GAZETTEER_PATH, LABELS_PATH
from test_cli import _crawl_args
from supplygraph.cli import EXIT_OK, main

GOLDEN = {
    "crawl/graph.json": "06d36f8ae60eb67085d23d07355fdc3b84483b95d0132f1e12e294d576c03a12",
    "crawl/graph.graphml": "9ce4f7c0319ff845a6156cf6da23aa3868a18bec648742c07d8f385f3bcd36c7",
    "crawl/crawl_report.json": "8a4e4d7f149c35a17b2b91e7c00c5ee276643c486a5af9c5b6fbb950f15f2a40",
    "record/graph.json": "3760b2ebf998c992076daf0ffecc3d33f4cae575177ed6a77e060d4d6b2a0a33",
    "record/graph.graphml": "1bfedfb77d45a5ee6ebbc7ab0fd4419d169ef3be5210103f8346da9bb71f40a7",
    "record/crawl_report.json": "7553a1a825719da3debdc107c140a9d54149edaae40b9b4563b544ac93fbd4ec",
    "record/cassette.jsonl": "4cbba40c848af87d0a41b67a6a8dc1ae0cfc64312420bf95ea1d53aff9a425cc",
    "classify/graph.json": "81d8fa3a1ec8b9ef2ce59cff3700de0721d46e6b5c66937959bb0b88857498e2",
    "classify/classification_report.json":
        "0e73df46638b24c921488100751a505488ff51ed03d1dc5d5a8904ae1cbff2b5",
    "classify/predictions.jsonl":
        "c4759b55513fb91bf40a77c8a3dd0b0f4aaaed0036fe42fddccbe4b1003beae4",
    "export-graphml/graph.graphml":
        "46b56c2c834582c45c64529cb36075b8d9edf967cd139243d72ba39a5e04f6e4",
    "export-dot/graph.dot": "08d58233ac9cd86424e78b98849a1bc09e48a8a43f52fc030811c784e3a31cf9",
    "export-jsonl/graph.jsonl": "874fcd709cc9f78506655e94dd2fbbce7a4b0b2c36d7b4e71665b761fdd32caf",
    "subgraph/subgraph.jsonl": "0d6e7b734f3f0e24adef83fc63874b3faef108051b81d5676d5fb61aadf79663",
    "evaluate/metrics.json": "8fc48815d1e0c7d0f291ab99d79b204e606bbb172ad2af301fd67382a67e9a09",
}


def _manifest_digests(out, step: str) -> dict[str, str]:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return {
        f"{step}/{entry['path'].rsplit('/', 1)[-1]}": entry["sha256"]
        for entry in manifest["outputs"]
    }


def _pipeline_digests(tmp_path) -> dict[str, str]:
    digests: dict[str, str] = {}

    def run(step: str, argv: list[str]) -> None:
        assert main(argv) == EXIT_OK, step
        digests.update(_manifest_digests(tmp_path / step, step))

    run("crawl", _crawl_args(tmp_path / "crawl"))
    record = tmp_path / "record"
    run("record", _crawl_args(record, parallelism=4, max_nodes=5,
                              cassette=record / "cassette.jsonl"))
    state = str(tmp_path / "crawl" / "graph.json")
    run("classify", ["classify", "--state", state, "--backend", f"script:{GAZETTEER_PATH}",
                     "--out", str(tmp_path / "classify")])
    classified = str(tmp_path / "classify" / "graph.json")
    for fmt in ("graphml", "dot", "jsonl"):
        run(f"export-{fmt}", ["export", "--state", classified, "--format", fmt,
                              "--out", str(tmp_path / f"export-{fmt}")])
    run("subgraph", ["subgraph", "--state", classified, "--entity", "bechtel", "--hops", "2",
                     "--max-nodes", "6", "--rng-seed", "3", "--format", "jsonl",
                     "--out", str(tmp_path / "subgraph")])
    run("evaluate", ["evaluate", "--dataset", LABELS_PATH,
                     "--predictions", str(tmp_path / "classify" / "predictions.jsonl"),
                     "--out", str(tmp_path / "evaluate")])
    return digests


def test_fixture_pipeline_output_digests_are_golden(tmp_path):
    assert _pipeline_digests(tmp_path) == GOLDEN
