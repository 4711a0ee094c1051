"""Command-line interface: crawl, classify, evaluate, export, subgraph.

Exit codes: 0 success, 2 configuration or invalid input, 3 budget abort when
--fail-on-budget is set, 4 backend unreachable or cassette failure, 5 unknown
entity. Every command writes a manifest.json listing inputs and outputs with
content digests; timestamps live outside the digested content. crawl and
classify take --cassette PATH, which records every backend answer into PATH
and answers first from what PATH already holds, so a rerun resumes.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys
from datetime import datetime, timezone

from . import backends as be
from . import classify as cl
from . import crawler as cr
from . import graph as gr
from .corpus import StopwordLists, load_corpus, load_stopwords, name_forms
from .errors import (
    BackendUnavailable,
    CassetteWriteError,
    EmptyName,
    ParseError,
    SupplyGraphError,
    UnknownNode,
)
from .files import read_json, write_json

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_BACKEND = 4
EXIT_UNKNOWN_ENTITY = 5

# Besides every SupplyGraphError not caught earlier, these exit 2.
_CONFIG_ERRORS = (ValueError, FileNotFoundError, IsADirectoryError, NotADirectoryError)
_BACKEND_ERRORS = (BackendUnavailable, CassetteWriteError)

# A --config file holds exactly the keys of the report's config block.
_CONFIG_KEYS = frozenset(f.name for f in dataclasses.fields(cr.CrawlConfig))


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# Wall-clock report fields: zeroed in the digested form so identical runs
# produce identical manifests.
_REPORT_DIGEST_EXCLUDES = ["duration_ms"]


def _report_digest(report: dict) -> str:
    canonical = dict(report)
    for key in _REPORT_DIGEST_EXCLUDES:
        canonical[key] = 0
    return hashlib.sha256(
        json.dumps(canonical, sort_keys=True, ensure_ascii=False).encode("utf-8")
    ).hexdigest()


def _write_manifest(
    args: argparse.Namespace,
    config: dict,
    inputs: list[str],
    outputs: list[dict],
    backend: be.Backend | None = None,
) -> None:
    """End a command: write manifest.json into --out. A command that
    recorded sorts its cassette first and lists it among the outputs."""
    if isinstance(backend, be.RecordingBackend):
        backend.sort_cassette()
        outputs = [*outputs, _output_entry(backend.cassette_path)]
    manifest = {
        "created_at": datetime.now(timezone.utc).isoformat(),
        "command": args.command,
        "backend": getattr(args, "backend", None),
        "config": config,
        "inputs": [
            {"path": os.path.abspath(p), "sha256": _sha256_file(p)} for p in inputs
        ],
        "outputs": outputs,
    }
    write_json(os.path.join(args.out, "manifest.json"), manifest)


def _output_entry(path: str, digest: str | None = None, excludes: list[str] | None = None) -> dict:
    entry = {"path": os.path.abspath(path), "sha256": digest or _sha256_file(path)}
    if excludes:
        entry["digest_excludes"] = excludes
    return entry


def _make_backend(spec: str, args: argparse.Namespace) -> tuple[be.Backend, str | None]:
    """The backend a --backend spec names, recording into --cassette if one
    is given, and the input file it reads, if any."""
    path = None
    if spec.startswith(("script:", "replay:")):
        kind, _, path = spec.partition(":")
        script = be.load_script(path)
        if kind == "replay":  # keyed rows only, so any other request misses
            script = be.ScriptFile(entries=script.entries)
        backend = be.ScriptedBackend(script)
    elif spec == "http" or spec.startswith(("http:", "https:")):
        backend = be.HttpBackend.from_env(
            endpoint=None if spec == "http" else spec,
            timeout_s=args.http_timeout,
            retry_cap=args.http_retries,
            backoff_base_s=args.http_backoff,
        )
    else:
        raise ValueError(
            f"unknown backend spec {spec!r}; use script:PATH, replay:PATH, or http[s]:URL"
        )
    if args.cassette:
        backend = be.RecordingBackend(backend, args.cassette)
    return backend, path


def _build_crawl_config(args: argparse.Namespace) -> cr.CrawlConfig:
    # Precedence: command-line flags, then config file values, then the
    # CrawlConfig defaults. CrawlConfig checks every value's type and range.
    values: dict = {}
    if args.config:
        values = read_json(args.config, "config")
        if not isinstance(values, dict):
            raise ParseError("config file must hold a JSON object", path=args.config)
        unknown = sorted(set(values) - _CONFIG_KEYS)
        if unknown:
            raise ParseError(
                f"unknown config keys {unknown}; allowed: {sorted(_CONFIG_KEYS)}", path=args.config
            )
    if args.seeds:
        values["seeds"] = args.seeds.split(",")
    for key in ("industry", "per_year_min", "token_budget", "max_nodes", "max_articles",
                "parallelism"):
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    if not values.get("seeds"):
        raise ValueError("seeds are required (--seeds or config file)")
    if isinstance(values["seeds"], list):
        values["seeds"] = [s.strip() if isinstance(s, str) else s for s in values["seeds"]]
    year_flags = (args.year_start, args.year_end)
    if year_flags != (None, None):
        year_range = values.get("year_range", cr.CrawlConfig.year_range)
        if not isinstance(year_range, (list, tuple)) or len(year_range) != 2:
            raise ValueError("year_range must be [start, end]")
        values["year_range"] = tuple(
            flag if flag is not None else year for flag, year in zip(year_flags, year_range)
        )
    return cr.CrawlConfig(**values)


def cmd_crawl(args: argparse.Namespace) -> int:
    config = _build_crawl_config(args)
    corpus = load_corpus(args.corpus, strict=not args.lenient)
    stopwords = load_stopwords(args.suffixes) if args.suffixes else StopwordLists.default()
    for seed in config.seeds:
        try:
            name_forms(seed, stopwords)
        except EmptyName:
            raise ValueError(
                f"seed {seed!r} has no name left after stripping punctuation and company "
                "suffixes (from --seeds or the config's seeds)"
            ) from None
    aliases = gr.load_alias_file(args.aliases, stopwords) if args.aliases else {}
    backend, backend_path = _make_backend(args.backend, args)
    os.makedirs(args.out, exist_ok=True)

    graph = gr.SupplyChainGraph(stopwords)
    graph.apply_aliases(aliases)
    graph, report = cr.run_crawl(config, corpus, backend, graph)

    state_path = os.path.join(args.out, "graph.json")
    export_path = os.path.join(args.out, f"graph.{args.export_format}")
    report_path = os.path.join(args.out, "crawl_report.json")
    gr.save_state(graph, state_path)
    gr.export_graph(graph, args.export_format, export_path)
    report_dict = report.to_dict()
    write_json(report_path, report_dict)

    inputs = [p for p in (args.corpus, backend_path, args.config, args.aliases, args.suffixes) if p]
    outputs = [
        _output_entry(state_path),
        _output_entry(export_path),
        _output_entry(report_path, digest=_report_digest(report_dict),
                      excludes=_REPORT_DIGEST_EXCLUDES),
    ]
    _write_manifest(args, config.to_dict(), inputs, outputs, backend)

    print(
        f"crawl finished: {report.termination_reason}; "
        f"nodes={len(graph.nodes)} edges={len(graph.edges)} "
        f"articles={report.stats.articles_processed}"
    )
    if args.fail_on_budget and report.termination_reason != cr.TERMINATION_EXHAUSTED:
        print(f"budget abort: {report.termination_reason}", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _taxonomy_from_args(args: argparse.Namespace) -> cl.CategoryTaxonomy:
    return cl.load_taxonomy(args.taxonomy) if args.taxonomy else cl.CategoryTaxonomy()


def cmd_classify(args: argparse.Namespace) -> int:
    if args.token_budget < 1:
        raise ValueError(f"--token-budget must be >= 1, got {args.token_budget}")
    graph = gr.load_state(args.state)
    taxonomy = _taxonomy_from_args(args)
    backend, backend_path = _make_backend(args.backend, args)
    os.makedirs(args.out, exist_ok=True)
    outcome = cl.classify_graph(graph, taxonomy, backend, token_budget=args.token_budget)

    state_path = os.path.join(args.out, "graph.json")
    report_path = os.path.join(args.out, "classification_report.json")
    predictions_path = os.path.join(args.out, "predictions.jsonl")
    report = outcome.to_report(taxonomy)
    gr.save_state(graph, state_path)
    write_json(report_path, report)
    cl.dump_predictions(outcome.answers, predictions_path)

    inputs = [p for p in (args.state, backend_path, args.taxonomy) if p]
    _write_manifest(
        args,
        {"token_budget": args.token_budget, "taxonomy": list(taxonomy)},
        inputs,
        [_output_entry(state_path), _output_entry(report_path), _output_entry(predictions_path)],
        backend,
    )
    print(
        f"classified {report['entities_classified']} entities "
        f"({len(report['skipped_no_description'])} skipped without descriptions)"
    )
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    taxonomy = _taxonomy_from_args(args)
    dataset = cl.load_labeled_dataset(args.dataset, taxonomy)
    if args.balanced:
        balanced: list[cl.LabeledExample] = []
        for category in taxonomy:
            if not any(ex.category == category for ex in dataset):
                continue
            balanced.extend(cl.downsample_balanced(dataset, category, args.rng_seed))
        dataset = balanced
    if args.predictions:
        answers = cl.load_predictions(args.predictions)
    else:
        graph = gr.load_state(args.state)
        answers = {}
        for example in dataset:
            node = graph.nodes.get(example.entity_id)
            if node is None:
                raise ValueError(f"entity {example.entity_id!r} not in graph state")
            answers[(example.entity_id, example.category)] = example.category in node.categories
    report = cl.evaluate_all(dataset, answers, taxonomy)
    os.makedirs(args.out, exist_ok=True)
    metrics_path = os.path.join(args.out, "metrics.json")
    payload = report.to_dict()
    payload["balanced"] = bool(args.balanced)
    if args.balanced:
        payload["rng_seed"] = args.rng_seed
    write_json(metrics_path, payload)

    inputs = [p for p in (args.dataset, args.predictions, args.state, args.taxonomy) if p]
    _write_manifest(
        args,
        {"balanced": bool(args.balanced), "rng_seed": args.rng_seed},
        inputs, [_output_entry(metrics_path)],
    )
    print(
        f"evaluated {report.evaluated} examples: "
        f"micro accuracy={report.micro.accuracy:.3f} f1={report.micro.f1:.3f}"
    )
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    graph = gr.load_state(args.state)
    os.makedirs(args.out, exist_ok=True)
    export_path = os.path.join(args.out, f"graph.{args.format}")
    gr.export_graph(graph, args.format, export_path)
    _write_manifest(
        args, {"format": args.format},
        [args.state], [_output_entry(export_path)],
    )
    print(f"exported {len(graph.nodes)} nodes, {len(graph.edges)} edges to {export_path}")
    return EXIT_OK


def cmd_subgraph(args: argparse.Namespace) -> int:
    for flag, value in (("--hops", args.hops), ("--max-nodes", args.max_nodes)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    graph = gr.load_state(args.state)
    seed = graph.canonicalize(args.entity)
    if seed is None:
        raise UnknownNode(args.entity)
    sampled = graph.sample_k_hop(seed, args.hops, args.max_nodes, args.rng_seed)
    os.makedirs(args.out, exist_ok=True)
    export_path = os.path.join(args.out, f"subgraph.{args.format}")
    gr.export_graph(sampled, args.format, export_path)
    _write_manifest(
        args,
        {
            "entity": args.entity,
            "seed": seed,
            "hops": args.hops,
            "max_nodes": args.max_nodes,
            "rng_seed": args.rng_seed,
        },
        [args.state], [_output_entry(export_path)],
    )
    print(f"sampled {len(sampled.nodes)} nodes around {seed!r} to {export_path}")
    return EXIT_OK


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", required=True,
                        help="script:PATH, replay:PATH, http (env endpoint), or http(s)://URL")
    parser.add_argument("--http-timeout", type=float, default=30.0)
    parser.add_argument("--http-retries", type=int, default=3)
    parser.add_argument("--http-backoff", type=float, default=0.5)
    parser.add_argument("--cassette",
                        help="JSONL file that records every backend answer; answers it "
                             "already holds are replayed, so a rerun resumes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supplygraph",
        description="Build, classify, and export supply-chain co-mention graphs.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="INFO-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_crawl = sub.add_parser("crawl", help="crawl a corpus into a graph")
    p_crawl.add_argument("--corpus", required=True, help="JSONL article corpus")
    _add_backend_flags(p_crawl)
    p_crawl.add_argument("--out", required=True, help="output directory")
    p_crawl.add_argument("--seeds", help="comma-separated seed entity names")
    p_crawl.add_argument("--industry")
    p_crawl.add_argument("--year-start", type=int, dest="year_start")
    p_crawl.add_argument("--year-end", type=int, dest="year_end")
    p_crawl.add_argument("--per-year-min", type=int, dest="per_year_min")
    p_crawl.add_argument("--token-budget", type=int, dest="token_budget")
    p_crawl.add_argument("--max-nodes", type=int, dest="max_nodes")
    p_crawl.add_argument("--max-articles", type=int, dest="max_articles")
    p_crawl.add_argument("--parallelism", type=int,
                         help="keywords fetched and extracted at once (default 1)")
    p_crawl.add_argument("--config", help="JSON config file (flags take precedence)")
    p_crawl.add_argument("--aliases", help="TSV alias file: variant<TAB>canonical")
    p_crawl.add_argument("--suffixes", help="company-suffix stopword file")
    p_crawl.add_argument("--export-format", choices=gr.EXPORT_FORMATS, default="graphml")
    p_crawl.add_argument("--fail-on-budget", action="store_true",
                         help="exit 3 when the crawl stops on a budget instead of exhaustion")
    p_crawl.add_argument("--lenient", action="store_true",
                         help="ignore unknown corpus fields instead of rejecting them")
    p_crawl.set_defaults(func=cmd_crawl)

    p_classify = sub.add_parser("classify", help="label graph entities by category")
    p_classify.add_argument("--state", required=True, help="graph state JSON")
    _add_backend_flags(p_classify)
    p_classify.add_argument("--out", required=True)
    p_classify.add_argument("--token-budget", type=int, default=512, dest="token_budget")
    p_classify.add_argument("--taxonomy", help="category list file, one per line")
    p_classify.set_defaults(func=cmd_classify)

    p_eval = sub.add_parser("evaluate", help="score predictions against gold labels")
    p_eval.add_argument("--dataset", required=True, help="labeled JSONL dataset")
    group = p_eval.add_mutually_exclusive_group(required=True)
    group.add_argument("--predictions", help="predictions JSONL")
    group.add_argument("--state", help="graph state JSON with categories")
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--balanced", action="store_true",
                        help="downsample each category to balance before scoring")
    p_eval.add_argument("--rng-seed", type=int, default=0, dest="rng_seed")
    p_eval.add_argument("--taxonomy")
    p_eval.set_defaults(func=cmd_evaluate)

    p_export = sub.add_parser("export", help="export a saved graph")
    p_export.add_argument("--state", required=True)
    p_export.add_argument("--format", choices=gr.EXPORT_FORMATS, default="graphml")
    p_export.add_argument("--out", required=True)
    p_export.set_defaults(func=cmd_export)

    p_sub = sub.add_parser("subgraph", help="sample a k-hop neighborhood")
    p_sub.add_argument("--state", required=True)
    p_sub.add_argument("--entity", required=True, help="entity name (any known variant)")
    p_sub.add_argument("--hops", type=int, default=1)
    p_sub.add_argument("--max-nodes", type=int, default=50, dest="max_nodes")
    p_sub.add_argument("--rng-seed", type=int, default=0, dest="rng_seed")
    p_sub.add_argument("--format", choices=gr.EXPORT_FORMATS, default="graphml")
    p_sub.add_argument("--out", required=True)
    p_sub.set_defaults(func=cmd_subgraph)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s %(message)s",
    )
    try:
        return args.func(args)
    except UnknownNode as exc:
        print(f"error: unknown entity: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_ENTITY
    except _BACKEND_ERRORS as exc:
        print(f"error: backend: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (SupplyGraphError, *_CONFIG_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
