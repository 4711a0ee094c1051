"""supplygraph benchmark: one command, two workloads, checked outputs.

    python3 perfbench/run.py --workload graph-query --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. The run sets the workload up several times, runs one
warm-up pass whose outputs are checked against brute-force references,
then repeats the pass for ``--seconds`` seconds. A pass times short units
of work (one crawl, one query, one file written); each unit's time is its
fastest run over the run, and a stage's time is the sum of its units'
times. Set-up steps are timed the same way. On a shared machine the
neighbours slow some runs down, never speed one up. Every measured pass must reproduce the warm-up pass's output digests. With
``--trace 1`` passes alternate between untraced and traced, and the
per-layer metrics come from the traced ones. Metric names and units come
from ``BENCHMARK.json``. The last line of standard output is the JSON
result; a failed check prints ``"correct": false`` without metrics and
exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import logging
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import gen  # noqa: E402 - sibling modules of this script
import oracle  # noqa: E402
import spans  # noqa: E402

YEARS = (2019, 2020, 2021)
SETUPS = 10
SETUP_MIN_S = 4.0
QUERY_SEEDS = 50
QUERY_HOPS = (1, 2)
QUERY_MAX_NODES = 50
HUB_SHAPE_SEED = 0
STUB_LATENCY_MS = 10
STUB_FAIL_EVERY = 50
HTTP_IN_FLIGHT = 2
HTTP_BACKOFF_S = 0.001
MIN_PASSES = 3
# Stages that give the same outputs when run again on their own result and
# that an end-to-end metric times on its own.
REPEATABLE = ("classify", "query")
STAGE_MIN_S = 0.1


@dataclasses.dataclass(frozen=True)
class Workload:
    """Stage order, input sizes and crawl settings of one workload."""

    stages: tuple[str, ...]
    entities: int
    gazetteer_extra: int = 0
    base_nodes: int = 0
    base_edges: int = 0
    runon_every: int = 0
    runon_words: int = 0
    token_budget: int = 3000
    http: bool = False
    parallelism: int = 1
    max_nodes: int = 100000
    formats: tuple[str, ...] = ("graphml",)


WORKLOADS = {
    # Live path: every call waits on the latency stub. Short articles; each
    # keyword's articles name two new entities, so every crawl step runs a
    # batch of two, and the node budget stops the crawl at the same size on
    # every seed, before the frontier empties.
    "pipeline-http": Workload(
        stages=("crawl", "classify", "persist", "load", "query"),
        entities=80,
        http=True, parallelism=2, max_nodes=24,
    ),
    # Offline path into a hub-heavy graph: load it, crawl 6 new entities into
    # it with ScriptedBackend, one crawl each, classify, query, export. Each
    # entity has one article, which mentions two hubs. The crawl's gazetteer
    # holds about 580 names, past the 512-entry cache of compiled patterns
    # that per-name matching goes through, and one article in six is a
    # run-on body that takes segmentation's word-split path. Hub nodes carry
    # no description, so classification covers the crawled entities and the
    # hubs their articles describe. Every unit of work is short, so a run
    # times each one many times.
    "graph-query": Workload(
        stages=("load", "crawl", "classify", "query", "persist"),
        entities=6, gazetteer_extra=560, runon_every=6, runon_words=600,
        token_budget=400, base_nodes=300, base_edges=2400,
        formats=("graphml", "dot", "jsonl"),
    ),
}


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def rss_mb() -> float:
    """This process's resident set now, from /proc/self/statm (Linux)."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def import_package():
    """Import supplygraph from this checkout's ``src``, or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import supplygraph
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import supplygraph from {src}: {exc}")
    if not Path(supplygraph.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: supplygraph imported from outside {src}")
    return supplygraph


sg = None  # the package module, bound in main()


class CountingBackend:
    """Counts completions on their way to the real backend, and the most that
    were in flight at once."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.calls += 1
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            return self.inner.complete(request)
        finally:
            with self._lock:
                self.in_flight -= 1


class Setup:
    """Generated inputs on disk, loaded, with a backend ready to answer.

    ``times`` holds the seconds each step of the set-up took.
    """

    def __init__(self, w: Workload, seed: int, workdir: Path, tracer, run: str):
        self.w = w
        self.seed = seed
        self.dir = workdir
        self.stub: subprocess.Popen | None = None
        self.times: dict[str, float] = {}
        workdir.mkdir(parents=True)
        step = self._step("generate")
        rng = random.Random(seed)
        forbidden = gen.forbidden_words(_package_words())
        names = gen.make_names(rng, w.base_nodes + w.entities + w.gazetteer_extra, forbidden)
        base_names = names[:w.base_nodes]
        corpus_names = names[w.base_nodes:w.base_nodes + w.entities]
        # Into a loaded graph, each entity gets one article that names two
        # of the graph's nodes, and has a crawl of its own.
        self.articles, self.truth = gen.make_corpus(
            rng, corpus_names, YEARS[:1] if w.base_nodes else YEARS, w.runon_every,
            w.runon_words, link_pool=base_names or None,
        )
        self.gazetteer = gen.make_gazetteer(
            rng, names[w.base_nodes:] + base_names, sg.CategoryTaxonomy().categories)
        # The seed list of each crawl the crawl stage runs, in order.
        self.crawls = [[n] for n in corpus_names] if w.base_nodes else [corpus_names[:1]]
        step = self._step("write", step)
        corpus_path = workdir / "corpus.jsonl"
        self.gazetteer_path = workdir / "gazetteer.jsonl"
        gen.write_corpus(self.articles, corpus_path)
        gen.write_gazetteer(self.gazetteer, self.gazetteer_path)

        step = self._step("load", step)
        with tracer.active(run) if tracer else nullcontext():
            self.corpus = sg.load_corpus(str(corpus_path))
            self.script = sg.load_script(str(self.gazetteer_path))

        self.base_state: Path | None = None
        self.base_mentions: list[tuple[str, list[str]]] = []
        step = self._step("graph", step)
        if w.base_nodes:
            # The graph's shape comes from a fixed generator seed and only the
            # names from the run's seed, so every seed queries an isomorphic
            # graph and does the same amount of work.
            self.base_mentions = gen.make_hub_mentions(
                random.Random(HUB_SHAPE_SEED), base_names, w.base_edges)
            graph = sg.SupplyChainGraph()
            for article_id, ids in self.base_mentions:
                graph.add_comention(article_id, [graph.upsert_entity(n) for n in ids])
            self.base_state = workdir / "base.json"
            sg.save_state(graph, str(self.base_state))

        step = self._step("backend", step)
        if w.http:
            self.backend = self._start_stub()
            self.classifier = self.backend
        else:
            self.classifier = self.backend = sg.ScriptedBackend(self.script)
            if w.base_nodes:
                # Extraction scans every gazetteer name per request, so the
                # crawl's backend knows the corpus names, the extra names and
                # the hubs the corpus mentions; the classifier also knows
                # every node of the loaded graph.
                mentioned = {n for ids in self.truth.values() for n in ids}
                mentioned.update(names[w.base_nodes:])
                self.backend = sg.ScriptedBackend(sg.backends.ScriptFile(gazetteer={
                    n: e for n, e in self.script.gazetteer.items() if n in mentioned}))
        self.queries: list[tuple[str, int, int]] | None = None
        self._step("", step)

    def _step(self, name: str, previous: tuple[str, float] | None = None) -> tuple[str, float]:
        """End the ``previous`` step, recording its time, and start ``name``."""
        now = time.perf_counter()
        if previous is not None:
            self.times[previous[0]] = now - previous[1]
        return name, now

    def _start_stub(self):
        self.stub = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--gazetteer", str(self.gazetteer_path),
             "--latency-ms", str(STUB_LATENCY_MS), "--fail-every", str(STUB_FAIL_EVERY)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.stub.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"latency stub did not start: {line!r}")
        self.stub_url = f"http://127.0.0.1:{int(line.split()[1])}"
        return sg.HttpBackend(
            f"{self.stub_url}/v1/chat/completions",
            backoff_base_s=HTTP_BACKOFF_S, in_flight=HTTP_IN_FLIGHT,
        )

    def stub_call(self, path: str) -> dict:
        """POST /reset or GET /stats on the stub; {} without a stub."""
        if self.stub is None:
            return {}
        data = b"" if path == "/reset" else None
        with urllib.request.urlopen(self.stub_url + path, data=data, timeout=10) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        if self.stub is not None:
            self.stub.stdin.close()
            self.stub.terminate()
            try:
                self.stub.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.stub.kill()
                self.stub.wait()
            self.stub.stdout.close()
            self.stub = None


def _package_words() -> tuple[str, ...]:
    """Prompt template text and corporate suffixes, which names must avoid."""
    extraction = sg.build_extraction_prompt("x", "civil engineering")
    classification = sg.build_classification_prompt("x", "y", "z")
    texts = [p for prompt in (extraction, classification)
             for p in (prompt.system, prompt.user, prompt.question)]
    texts += list(sg.CategoryTaxonomy().categories)
    texts += sorted(sg.StopwordLists.default().company_suffixes)
    return tuple(texts)


def crawl_config(w: Workload, seeds: list[str], parallelism: int):
    kwargs = dict(
        seeds=seeds, year_range=(YEARS[0], YEARS[-1]), per_year_min=1,
        token_budget=w.token_budget, max_nodes=w.max_nodes, parallelism=parallelism,
    )
    # Parallel crawls are gated behind deterministic=False while that field exists.
    if parallelism > 1 and "deterministic" in {f.name for f in dataclasses.fields(sg.CrawlConfig)}:
        kwargs["deterministic"] = False
    return sg.CrawlConfig(**kwargs)


def choose_queries(graph, seed: int) -> list[tuple[str, int, int]]:
    """Seeds at evenly spaced degree ranks, hubs to leaves, each at every hop count."""
    degree = dict.fromkeys(graph.nodes, 0)
    for a, b in graph.edges:
        degree[a] += 1
        degree[b] += 1
    ranked = sorted(graph.nodes, key=lambda n: (-degree[n], n))
    rng = random.Random(seed)
    queries = []
    for i in range(QUERY_SEEDS):
        node = ranked[i * len(ranked) // QUERY_SEEDS]
        for hops in QUERY_HOPS:
            queries.append((node, hops, rng.randrange(1 << 30)))
    return queries


def stage_of(unit: str) -> str:
    """The stage a timed unit belongs to: "crawl" for "crawl/3"."""
    return unit.split("/")[0]


@dataclasses.dataclass
class Pass:
    traced: bool
    # Every run of every timed unit, in seconds. A unit is a stage, or one
    # part of it: one crawl, one query ("query/<i>"), one file written.
    times: dict[str, list[float]]
    articles: int
    calls: int
    failures: int
    digests: dict[str, str]
    http: dict
    size: tuple[int, int]
    rss_mb: float  # largest resident set seen at the end of a stage
    crawl_in_flight: int  # most crawl backend calls in flight at once
    termination: str
    graph: object = None
    samples: list = dataclasses.field(default_factory=list)

    def first_runs_s(self) -> float:
        """The pass's time with every unit run once."""
        return sum(t[0] for t in self.times.values())


def run_pass(s: Setup, out: Path, tracer, run: str, reps: dict[str, int]) -> Pass:
    """One pass over the workload's stages.

    A stage listed in ``reps`` runs that many times back to back; every run's
    time is kept. Only the first run of a stage counts backend calls.
    """
    if out.exists():
        shutil.rmtree(out)
    out.mkdir()
    s.stub_call("/reset")
    gc.collect()
    backend = CountingBackend(s.backend)
    classifier = CountingBackend(s.classifier)
    w = s.w
    times: dict[str, list[float]] = {}

    def timed(unit: str, fn):
        started = time.perf_counter()
        result = fn()
        times.setdefault(unit, []).append(time.perf_counter() - started)
        return result

    graph = outcome = None
    samples = []
    reports = []
    calls = 0
    rss = 0.0
    with tracer.active(run) if tracer else nullcontext():
        for stage in w.stages:
            calls_before = backend.calls + classifier.calls
            for rep in range(reps.get(stage, 1)):
                with tracer.span(f"stage.{stage}") if tracer else nullcontext():
                    if stage == "crawl":
                        for k, seeds in enumerate(s.crawls):
                            crawler = sg.Crawler(crawl_config(w, seeds, w.parallelism),
                                                 s.corpus, backend, graph)
                            graph, report = timed(f"crawl/{k}", crawler.run)
                            reports.append(report)
                    elif stage == "classify":
                        outcome = timed("classify", lambda: sg.classify_graph(
                            graph, sg.CategoryTaxonomy(), classifier))
                    elif stage == "persist":
                        timed("persist/graph.json",
                              lambda: sg.save_state(graph, str(out / "graph.json")))
                        for fmt in w.formats:
                            timed(f"persist/graph.{fmt}", lambda: sg.export_graph(
                                graph, fmt, str(out / f"graph.{fmt}")))
                    elif stage == "load":
                        graph = timed("load", lambda: sg.load_state(
                            str(s.base_state or out / "graph.json")))
                    elif stage == "query":
                        if s.queries is None:
                            s.queries = choose_queries(graph, s.seed)
                        samples = [
                            timed(f"query/{i}", lambda: graph.sample_k_hop(
                                node, hops, QUERY_MAX_NODES, rng_seed))
                            for i, (node, hops, rng_seed) in enumerate(s.queries)
                        ]
                if rep == 0:
                    calls += backend.calls + classifier.calls - calls_before
            rss = max(rss, rss_mb())
    stats = [r.stats for r in reports]
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    digests["samples"] = hashlib.sha256(json.dumps(
        [[sorted(sub.nodes), sorted(sub.edges)] for sub in samples]).encode()).hexdigest()
    return Pass(
        traced=tracer is not None,
        times=times,
        articles=sum(st.articles_processed for st in stats),
        calls=calls,
        failures=(sum(st.backend_failures + st.parse_failures + st.fetch_failures
                      for st in stats) + len(outcome.undetermined_pairs())),
        digests=digests,
        http=s.stub_call("/stats"),
        size=(len(graph.nodes), len(graph.edges)),
        rss_mb=rss,
        crawl_in_flight=backend.max_in_flight,
        termination=reports[-1].termination_reason,
        graph=graph,
        samples=samples,
    )


def stage_reps(first: Pass) -> dict[str, int]:
    """Repetitions that make each repeatable stage last at least STAGE_MIN_S."""
    reps = {}
    for stage in REPEATABLE:
        took = sum(t[0] for unit, t in first.times.items() if stage_of(unit) == stage)
        if took:
            reps[stage] = max(1, math.ceil(STAGE_MIN_S / took))
    return reps


# -- checks -----------------------------------------------------------------------


def check_outputs(s: Setup, first: Pass, out: Path) -> list[str]:
    """Compare the warm-up pass with brute-force references; return problems."""
    problems: list[str] = []
    graph = first.graph
    if s.w.parallelism > 1:
        # The workload exists to run the crawler's batch pool and to stop on
        # the node budget with work in flight.
        if first.crawl_in_flight < s.w.parallelism:
            problems.append(f"at most {first.crawl_in_flight} crawl backend calls were in "
                            f"flight at once, want {s.w.parallelism}")
        if first.termination != sg.crawler.TERMINATION_NODE_BUDGET:
            problems.append(f"crawl ended on {first.termination!r}, not on the node budget")
    if s.w.http:
        problems += _check_against_sequential(s, out)
    else:
        problems += _check_closure(s, graph)
    problems += _check_samples(s, graph, first.samples)
    return problems


def _check_closure(s: Setup, graph) -> list[str]:
    nodes, edges = oracle.comention_closure(
        s.articles, s.truth, [n for seeds in s.crawls for n in seeds])
    for article_id, ids in s.base_mentions:
        nodes.update(ids)
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                edges.setdefault((ids[i], ids[j]), set()).add(article_id)
    problems = []
    if set(graph.nodes) != nodes:
        problems.append(f"crawl nodes differ from the planted closure "
                        f"({len(graph.nodes)} vs {len(nodes)})")
    got = {key: edge.provenance for key, edge in graph.edges.items()}
    if got != edges:
        problems.append(f"crawl edges or provenance differ from the planted closure "
                        f"({len(got)} vs {len(edges)} edges)")
    for cid, node in graph.nodes.items():
        want = set(s.gazetteer[cid]["categories"]) if node.descriptions else set()
        if node.categories != want:
            problems.append(f"labels of {cid!r} are {sorted(node.categories)}, want {sorted(want)}")
            break
    return problems


def _check_against_sequential(s: Setup, out: Path) -> list[str]:
    """Bytes must equal a sequential ScriptedBackend run over the same inputs."""
    ref = s.dir / "reference"
    ref.mkdir(exist_ok=True)
    backend = sg.ScriptedBackend(s.script)
    graph, _ = sg.Crawler(crawl_config(s.w, s.crawls[0], 1), s.corpus, backend).run()
    sg.classify_graph(graph, sg.CategoryTaxonomy(), backend)
    sg.save_state(graph, str(ref / "graph.json"))
    problems = []
    for fmt in s.w.formats:
        sg.export_graph(graph, fmt, str(ref / f"graph.{fmt}"))
    for name in ["graph.json"] + [f"graph.{fmt}" for fmt in s.w.formats]:
        if (ref / name).read_bytes() != (out / name).read_bytes():
            problems.append(f"{name} differs from a sequential scripted run")
    return problems


def _check_samples(s: Setup, graph, samples) -> list[str]:
    adj = oracle.adjacency(graph.edges)
    for (node, hops, rng_seed), sub in zip(s.queries, samples):
        keep = oracle.k_hop_sample(adj, node, hops, QUERY_MAX_NODES, rng_seed)
        inside = sum(len(adj.get(n, set()) & keep) for n in keep) // 2
        ok = set(sub.nodes) == keep and len(sub.edges) == inside and all(
            a in keep and b in keep and e.provenance == graph.edges[(a, b)].provenance
            for (a, b), e in sub.edges.items()
        )
        if not ok:
            return [f"sample_k_hop({node!r}, {hops}) differs from the BFS reference"]
    return []


# -- reporting --------------------------------------------------------------------


def end_to_end(setups: list[dict[str, float]], passes: list[Pass]) -> dict[str, float]:
    """Metrics from the set-ups' step times and the run's (untraced) passes.

    Each unit's time is its fastest run over the run, and a stage's time is
    the sum of its units' times. Set-up steps count as units of the set-up.
    The query percentiles are taken over the queries' fastest runs, one a
    query.
    """
    best = {unit: min(t for p in passes for t in p.times[unit]) for unit in passes[0].times}

    def stage(name: str) -> float:
        return sum(t for unit, t in best.items() if stage_of(unit) == name)

    query_ms = [t * 1000 for unit, t in best.items() if stage_of(unit) == "query"]
    crawl, classify = stage("crawl"), stage("classify")
    return {
        "setup_s": sum(min(t[step] for t in setups) for step in setups[0]),
        "wall_s": sum(best.values()),
        "crawl_s": crawl,
        "classify_s": classify,
        "query_s": stage("query"),
        "query_p50_ms": spans.percentile(query_ms, 50),
        "query_p90_ms": spans.percentile(query_ms, 90),
        "articles_per_s": statistics.median(p.articles for p in passes) / crawl,
        "backend_calls_per_s": statistics.median(p.calls for p in passes) / (crawl + classify),
        "peak_rss_mb": max(p.rss_mb for p in passes),
    }


def per_layer(tracer, passes: list[Pass], setups: int) -> dict[str, float]:
    """Medians over traced passes; ``corpus.load_s`` over the set-ups.

    ``trace.overhead`` compares traced passes, which run every stage once,
    with the first run of each stage in the untraced passes.
    """
    by_run: dict[str, list] = {}
    for span in tracer.spans:
        by_run.setdefault(span.run, []).append(span)
    values: dict[str, list[float]] = {}
    for i, p in enumerate(passes):
        run = f"pass{i}"
        if not p.traced:
            continue
        m = spans.layer_metrics(
            by_run.get(run, []), tracer.counters.get((run, "graph.neighbors"), 0), p.http,
            p.size,
        )
        for k, v in m.items():
            values.setdefault(k, []).append(v)
    result = {k: statistics.median(v) for k, v in values.items()}
    result["corpus.load_s"] = statistics.median(
        spans.layer_metrics(by_run.get(f"setup{k}", []), 0, {}, (0, 0))["corpus.load_s"]
        for k in range(setups))

    def first_runs(traced: bool) -> float:
        return statistics.median(p.first_runs_s() for p in passes if p.traced == traced)

    result["trace.overhead"] = first_runs(True) / first_runs(False) - 1
    return result


def measure(s: Setup, out: Path, first: Pass, tracer, seconds: float) -> tuple[list[Pass], list[str]]:
    """Measured passes for ``seconds`` (at least MIN_PASSES of each kind).

    With a tracer, passes alternate untraced and traced; traced passes run
    every stage once. Each pass must repeat the warm-up pass's digests.
    """
    reps = stage_reps(first)
    passes: list[Pass] = []
    problems: list[str] = []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        run = f"pass{len(passes)}"
        p = run_pass(s, out, tracer if traced else None, run, {} if traced else reps)
        p.graph, p.samples = None, []
        passes.append(p)
        changed = [k for k in first.digests if p.digests.get(k) != first.digests[k]]
        if changed:
            problems.append(f"{run} outputs differ from the warm-up pass: {', '.join(changed)}")
        enough = len(passes) >= MIN_PASSES * (2 if tracer else 1)
        if enough and time.perf_counter() - started >= seconds:
            return passes, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="supplygraph benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its stub and removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    global sg
    sg = import_package()
    # Warnings (fetch shortfalls, retried 503s) go to stderr; keep them out of
    # the measured time.
    logging.getLogger("supplygraph").setLevel(logging.ERROR)
    w = WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    units = declared_units("per_layer" if tracer else "end_to_end")
    setups: list[dict[str, float]] = []
    s = None
    metrics: dict[str, float] = {}
    absent: dict[str, str] = {}
    try:
        # At least SETUPS set-ups, and enough to fill SETUP_MIN_S; only the
        # last one is kept, and only one is alive at a time.
        while len(setups) < SETUPS or sum(sum(t.values()) for t in setups) < SETUP_MIN_S:
            if s is not None:
                s.close()
                s = None
            k = len(setups)
            s = Setup(w, args.seed, work / f"setup{k}", tracer, f"setup{k}")
            setups.append(s.times)
        out = work / "out"
        first = run_pass(s, out, None, "warmup", {})
        problems = check_outputs(s, first, out)
        first.graph, first.samples = None, []
        passes: list[Pass] = []
        if not problems:
            passes, problems = measure(s, out, first, tracer, args.seconds)
        counted = passes or [first]
        attempted = sum(p.calls + p.articles + len(s.queries) for p in counted)
        failed = sum(p.failures for p in counted)
        if tracer is not None:
            absent = spans.absent_metrics(tracer.missing)
            if not problems:
                metrics = per_layer(tracer, passes, len(setups))
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(str(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        elif not problems:
            metrics = end_to_end(setups, passes)
        if metrics and set(metrics) != set(units):
            problems.append(f"metrics differ from BENCHMARK.json: computed "
                            f"{sorted(set(metrics) - set(units))}, declared but not computed "
                            f"{sorted(set(units) - set(metrics))}")
            metrics = {}
    finally:
        if s is not None:
            s.close()
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} measured passes "
          f"({sum(p.traced for p in passes)} traced)")
    for i, p in enumerate(passes):
        print(f"  pass {i}{' traced' if p.traced else ''}: "
              + " ".join(f"{stage}={sum(min(t) for u, t in p.times.items() if stage_of(u) == stage):.4g}s"
                         for stage in w.stages))
    for name, digest in first.digests.items():
        print(f"  sha256 {name:<27} {digest}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"  {'failed_fraction':<34} {failed / attempted:.6f} ({failed} of {attempted})")
    for name, value in metrics.items():
        if name in absent:
            print(f"  {name:<34} absent: {absent[name]} not found")
        else:
            print(f"  {name:<34} {value:.6g} {units[name]}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": {
        name: {"value": value, "unit": units[name]}
        for name, value in metrics.items() if name not in absent
    }}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
