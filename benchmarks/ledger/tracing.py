"""The traced run: per-layer metrics from spans the benchmark installs.

No file under ``src/`` knows about tracing.  The benchmark wraps the
public entry points of each layer *at the names where callers look them
up* (``repro.engine.database.parse_twig``, ``QueryRewriter.
search_with_rewrites``, …), replays the workload's request list once in
its own process through ``RequestPipeline.handle``, keeps the spans in
memory, writes them to ``spans-<workload>.jsonl`` at exit and reduces
them to self times.  End-to-end metrics never come from here.

Every ``*_ms_per_req`` metric is a layer's summed *self* time (its spans
minus the part their child spans cover) divided by the number of
requests in the list — so they add up to the mean in-process latency.
"""

from __future__ import annotations

import gc
import json
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import measure
import oracle as oracles
from workloads import Workload

#: Per-layer metrics: name -> unit (the order of the report).
PER_LAYER = {
    # -> setup_s
    "xmlio.parse_s": "s",
    "labeling.label_s": "s",
    "index.term_build_s": "s",
    "index.completion_build_s": "s",
    "index.columnar_build_s": "s",
    "store.save_s": "s",
    "shard.partition_s": "s",
    # -> snapshot_bytes_per_xml_byte
    "store.hot_bytes": "bytes",
    "store.cold_bytes": "bytes",
    "write.wal_bytes_per_xml_byte": "ratio",
    # -> restart_s
    "store.load_s": "s",
    "store.first_query_s": "s",
    "write.recover_s": "s",
    # -> latency, throughput, CPU
    "server.pipeline_ms_per_req": "ms",
    "server.encode_ms_per_req": "ms",
    "server.transport_ms_per_req": "ms",
    "server.response_bytes_per_req": "bytes",
    "server.admission_shed": "count",
    "server.coalesce_followers": "count",
    "engine.search_ms_per_req": "ms",
    "engine.render_ms_per_req": "ms",
    "engine.plan_cache_hit_ratio": "ratio",
    "engine.parse_cache_hit_ratio": "ratio",
    "twig.parse_ms_per_req": "ms",
    "twig.compile_ms_per_req": "ms",
    "twig.execute_ms_per_req": "ms",
    "twig.matches_per_req": "count",
    "twig.elements_scanned_per_match": "ratio",
    "ranking.ms_per_req": "ms",
    "ranking.matches_scored_per_result": "ratio",
    "rewrite.ms_per_req": "ms",
    "rewrite.candidates_per_req": "count",
    "autocomplete.tag_ms_per_req": "ms",
    "autocomplete.value_ms_per_req": "ms",
    "autocomplete.cache_hit_ratio": "ratio",
    "keyword.ms_per_req": "ms",
    "shard.route_ms_per_req": "ms",
    "shard.shards_pruned_ratio": "ratio",
    "shard.scatter_ms_per_req": "ms",
    "shard.merge_ms_per_req": "ms",
    "shard.overhead_ratio": "ratio",
    "labeling.relabel_ms_per_req": "ms",
    "index.term_rebuild_ms_per_req": "ms",
    "index.completion_rebuild_ms_per_req": "ms",
    "write.wal_append_ms": "ms",
    "write.apply_ms": "ms",
    "write.view_ms": "ms",
    "write.compact_ms": "ms",
    "write.compactions": "count",
    "write.segments_rebuilt_per_write": "ratio",
    "write.read_after_write_ratio": "ratio",
    # the instrument itself
    "trace.overhead_ratio": "ratio",
    "trace.coverage_ratio": "ratio",
}

#: ``*_ms_per_req`` metric <- the span name whose self time feeds it.
SELF_TIME_METRICS = {
    "server.pipeline_ms_per_req": "server.pipeline",
    "server.encode_ms_per_req": "server.encode",
    "engine.search_ms_per_req": "engine.search",
    "engine.render_ms_per_req": "engine.render",
    "twig.parse_ms_per_req": "twig.parse",
    "twig.compile_ms_per_req": "twig.compile",
    "twig.execute_ms_per_req": "twig.execute",
    "ranking.ms_per_req": "ranking",
    "rewrite.ms_per_req": "rewrite",
    "autocomplete.tag_ms_per_req": "autocomplete.tag",
    "autocomplete.value_ms_per_req": "autocomplete.value",
    "keyword.ms_per_req": "keyword",
    "shard.route_ms_per_req": "shard.route",
    "shard.scatter_ms_per_req": "shard.scatter",
    "shard.merge_ms_per_req": "shard.merge",
    # Segment rebuilds on the write path reuse the index builders.
    "labeling.relabel_ms_per_req": "labeling.label",
    "index.term_rebuild_ms_per_req": "index.term_build",
    "index.completion_rebuild_ms_per_req": "index.completion_build",
}


class Tracer:
    """In-memory span recorder plus the patches that feed it.

    A span is ``[name, start, end, parent, request]``; ``parent`` is the
    enclosing span on the same thread.  A span opened on another thread
    (the writer's apply loop) hangs under the root span of the request
    being replayed: the closed loop has one request in flight, and that
    request is blocked on the other thread.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = -1
        self.request_root: list | None = None
        self.matches = 0
        self.elements_scanned = 0
        self._local = threading.local()
        self._main = threading.get_ident()
        self._undo: list[tuple] = []

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> tuple[list, list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._main:
            parent = self.request_root
        else:
            parent = None
        span = [name, time.perf_counter(), 0.0, parent, self.request]
        self.spans.append(span)
        stack.append(span)
        return span, stack

    def wrap(self, name: str, function, observe=None):
        def traced(*args, **kwargs):
            span, stack = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        span, stack = self._open(name)
        try:
            yield span
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    # -- patching -------------------------------------------------------

    def patch(self, owner, attribute: str, name: str, observe=None) -> None:
        original = getattr(owner, attribute)
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, observe))

    def install_build(self) -> None:
        """Spans around the index-build entry points (both the mono
        constructor and the per-shard / per-segment builder)."""
        import repro.engine.database as engine_database
        import repro.shard.database as shard_database
        import repro.shard.partitioner as partitioner

        for module in (engine_database, partitioner):
            self.patch(module, "label_document", "labeling.label")
            self.patch(module, "TermIndex", "index.term_build")
            self.patch(module, "CompletionIndex", "index.completion_build")
        self.patch(shard_database, "partition_document", "shard.partition")

    def install_requests(self) -> None:
        """Spans around every layer a request can reach."""
        import repro.engine.database as engine_database
        import repro.engine.segmented as segmented
        import repro.keyword.search as keyword_search
        import repro.server.api as api
        import repro.server.pipeline as pipeline
        import repro.shard.database as shard_database
        import repro.shard.executor as shard_executor
        from repro.autocomplete.engine import AutocompleteEngine
        from repro.engine.results import SearchResponse
        from repro.ranking.scorer import LotusXScorer
        from repro.rewrite.engine import QueryRewriter
        from repro.shard.router import ShardRouter
        from repro.write.segments import SegmentedCorpus
        from repro.write.wal import WriteAheadLog

        self.install_build()
        self._undo.append((pipeline, "json", pipeline.json))
        pipeline.json = _EncodeProxy(self, pipeline.json)
        for module in (engine_database, shard_database, api, segmented):
            self.patch(module, "parse_twig", "twig.parse")
        # Self time of search(): the ranking loop's bookkeeping (output
        # bindings, best-per-binding dedup, final sort) around the scorer.
        self.patch(engine_database.LotusXDatabase, "search", "engine.search")
        self.patch(shard_database.ShardedDatabase, "search", "engine.search")
        self.patch(engine_database, "compile_plan", "twig.compile")
        self.patch(engine_database, "execute_plan", "twig.execute", self._count_matches)
        self.patch(QueryRewriter, "search_with_rewrites", "rewrite")
        self.patch(LotusXScorer, "score_match", "ranking")
        self.patch(SearchResponse, "as_dict", "engine.render")
        self.patch(keyword_search.KeywordResponse, "as_dict", "engine.render")
        self.patch(keyword_search, "keyword_search", "keyword")
        self.patch(shard_database.ShardedDatabase, "keyword_search", "keyword")
        # Per-shard SLCA/ELCA runs inside the scatter; keep it a keyword cost.
        self.patch(shard_executor, "find_slcas", "keyword")
        self.patch(shard_executor, "find_elcas", "keyword")
        self.patch(AutocompleteEngine, "complete_tag", "autocomplete.tag")
        self.patch(AutocompleteEngine, "complete_value", "autocomplete.value")
        self.patch(ShardRouter, "route_pattern", "shard.route")
        self.patch(ShardRouter, "route_terms", "shard.route")
        self.patch(shard_executor.ShardExecutor, "run", "shard.scatter")
        self.patch(shard_database, "merge_match_lists", "shard.merge")
        self.patch(WriteAheadLog, "append", "write.wal_append")
        self.patch(SegmentedCorpus, "apply", "write.apply")
        self.patch(SegmentedCorpus, "compact_deltas", "write.compact")
        self.patch(SegmentedCorpus, "build_view", "write.view")

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def _count_matches(self, args, result) -> None:
        self.matches += len(result)
        if len(args) > 3 and args[3] is not None:
            self.elements_scanned += args[3].elements_scanned

    # -- reduction ------------------------------------------------------

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Summed self time (seconds) per span name, spans ``first``…"""
        covered: dict[int, float] = {}
        for span in self.spans[first:]:
            parent = span[3]
            if parent is not None:
                covered[id(parent)] = covered.get(id(parent), 0.0) + span[2] - span[1]
        totals: dict[str, float] = {}
        for span in self.spans[first:]:
            own = span[2] - span[1] - covered.get(id(span), 0.0)
            totals[span[0]] = totals.get(span[0], 0.0) + own
        return totals

    def inclusive(self, name: str, first: int = 0) -> float:
        return sum(s[2] - s[1] for s in self.spans[first:] if s[0] == name)

    def count(self, name: str, first: int = 0) -> int:
        return sum(1 for s in self.spans[first:] if s[0] == name)

    def write(self, path: Path) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": index[id(parent)] if parent is not None else None,
                            "request": request,
                        }
                    )
                    + "\n"
                )


class _EncodeProxy:
    """Stands in for the ``json`` module inside ``repro.server.pipeline``:
    response serialisation (``json.dumps(payload)``) becomes a span,
    everything else — ``loads``, and the ``sort_keys`` dump that builds
    the coalescing key — passes straight through."""

    def __init__(self, tracer: Tracer, module) -> None:
        self._module = module
        self._traced = tracer.wrap("server.encode", module.dumps)

    def dumps(self, payload, **kwargs):
        if kwargs:
            return self._module.dumps(payload, **kwargs)
        return self._traced(payload)

    def __getattr__(self, name: str):
        return getattr(self._module, name)


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------


def replay(pipeline, requests, tracer: Tracer | None = None):
    """One in-process pass; ``(latencies_s, responses, wall_s)``.  With a
    ``tracer`` every request runs under its own root span."""
    handle = pipeline.handle
    bodies = [(r.method, r.path, r.body()) for r in requests]
    latencies = [0.0] * len(bodies)
    responses: list = [None] * len(bodies)
    clock = time.perf_counter
    gc.collect()
    gc.disable()
    try:
        started = clock()
        for index, (method, path, body) in enumerate(bodies):
            sent = clock()
            if tracer is None:
                responses[index] = handle(method, path, body)
            else:
                tracer.request = index
                with tracer.span("server.pipeline") as root:
                    # Other threads (the writer) hang their spans here.
                    tracer.request_root = root
                    responses[index] = handle(method, path, body)
            latencies[index] = clock() - sent
        wall = clock() - started
    finally:
        gc.enable()
        if tracer is not None:
            tracer.request = -1
            tracer.request_root = None
    return latencies, responses, wall


def _cache_counters(database) -> dict:
    """Flat hit/miss counters of every cache behind ``database``."""
    stats = database.cache_statistics()
    blocks = [stats] + list(stats.get("per_shard", ()))
    totals = {"plan_hits": 0, "plan_misses": 0, "parse_hits": 0, "parse_misses": 0,
              "complete_hits": 0, "complete_misses": 0}
    for block in blocks:
        counters = block.get("counters", {})
        totals["plan_hits"] += counters.get("plan_cache_hits", 0)
        totals["plan_misses"] += counters.get("plan_cache_misses", 0)
        auto = block.get("autocomplete_cache") or {}
        totals["complete_hits"] += auto.get("hits", 0)
        totals["complete_misses"] += auto.get("misses", 0)
    counters = stats.get("counters", {})
    totals["parse_hits"] = counters.get("parse_cache_hits", 0)
    totals["parse_misses"] = counters.get("parse_cache_misses", 0)
    router = stats.get("router") or {}
    totals["routed"] = router.get("pattern_queries", 0) + router.get("keyword_queries", 0)
    totals["shards_pruned"] = router.get("shards_pruned", 0)
    totals["shard_count"] = stats.get("shard_count", 1)
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _check(requests, responses, expected, outcome) -> None:
    answers = [(response.status, response.body) for response in responses]
    measure.check_answers(requests, answers, expected, outcome, "in-process ")


def _seconds(span: list) -> float:
    return span[2] - span[1]


def traced_run(workload: Workload, work_dir: Path, plan: dict, out_dir: Path) -> dict:
    """Build, load and replay ``workload`` in this process under spans;
    returns ``{"metrics", "outcome"}`` with every ``PER_LAYER`` metric
    (0 where a layer takes no part in the workload)."""
    from repro.engine.database import LotusXDatabase
    from repro.engine.store import (
        load_sharded_snapshot,
        load_snapshot,
        save_sharded_snapshot,
        save_snapshot,
    )
    from repro.server.pipeline import RequestPipeline
    from repro.server.reload import DatabaseHolder
    from repro.xmlio.builder import parse_string

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    outcome = measure.Outcome()
    tracer = Tracer()
    live = workload.writable
    shards = int(workload.scale.get("shards", 1))
    xml = workload.corpus.xml

    # ---- build path: what ``lotusx index`` does -----------------------
    # The mono build doubles as the oracle and as the baseline of
    # ``shard.overhead_ratio``; a sharded workload reports the sharded
    # build's spans (from a fresh parse: partitioning moves the
    # top-level subtrees out of the document it is given).
    mono = LotusXDatabase(parse_string(xml))
    tracer.install_build()
    try:
        with tracer.span("xmlio.parse"):
            document = parse_string(xml)
        if shards > 1:
            from repro.shard.database import ShardedDatabase

            built = ShardedDatabase.from_document(document, shards)
            units = built.shards
            snapshot = work_dir / "traced.shards"
        else:
            built = LotusXDatabase(document)
            units = [built]
            snapshot = work_dir / "traced.lxsnap"
        with tracer.span("index.columnar_build"):
            for unit in units:
                unit.streams.columnar
        with tracer.span("store.save"):
            if shards > 1:
                info = save_sharded_snapshot(built, snapshot)
                built.close()
            else:
                info = save_snapshot(built, snapshot)
    finally:
        tracer.uninstall()
    build = tracer.self_times()
    for metric, span_name in (
        ("xmlio.parse_s", "xmlio.parse"),
        ("labeling.label_s", "labeling.label"),
        ("index.term_build_s", "index.term_build"),
        ("index.completion_build_s", "index.completion_build"),
        ("index.columnar_build_s", "index.columnar_build"),
        ("store.save_s", "store.save"),
        ("shard.partition_s", "shard.partition"),
    ):
        metrics[metric] = build.get(span_name, 0.0)
    # Raw (mmap-served) sections carry a dot in their name.
    hot = sum(size for name, size in info.section_sizes.items() if "." in name)
    metrics["store.hot_bytes"] = float(hot)
    metrics["store.cold_bytes"] = float(info.size_bytes - hot)

    # ---- load path: what a restart does -------------------------------
    def load():
        if shards > 1:
            # Serial scatter keeps the spans of a request on one thread.
            loaded = load_sharded_snapshot(snapshot, mmap=True, executor_mode="serial")
        else:
            loaded = load_snapshot(snapshot, mmap=True)
        return loaded.warm_hot()

    with tracer.span("store.load") as span:
        database = load()
    metrics["store.load_s"] = _seconds(span)
    probe = workload.probe.payload
    with tracer.span("store.first_query") as span:
        first = database.search(probe["query"], k=probe["k"])
    metrics["store.first_query_s"] = _seconds(span)
    wanted = mono.search(probe["query"], k=probe["k"]).total_matches
    outcome.record(
        None if first.total_matches == wanted else "differs from the mono build",
        "first query after load",
    )

    wal = work_dir / "traced.lxwal"

    def open_writable(base):
        from repro.write.writer import open_writable_database

        opened = open_writable_database(base, str(wal))
        holder = DatabaseHolder(opened)
        opened.writer.attach_holder(holder)
        return opened, RequestPipeline(holder)

    if live:
        serving, pipeline = open_writable(database)
    else:
        serving, pipeline = database, RequestPipeline(database)

    try:
        oracle = None if live else oracles.Oracle(mono)
        warm_requests = workload.round_requests(0)
        expected = None if live else [oracle.expected(r) for r in warm_requests]

        # ---- untraced passes: warm-up, then the timed reference -------
        _, responses, _ = replay(pipeline, warm_requests)
        _check(warm_requests, responses, expected, outcome)
        plain_requests = workload.round_requests(1)
        plain_latencies, responses, plain_wall = replay(pipeline, plain_requests)
        _check(plain_requests, responses, expected, outcome)

        # ---- the traced pass ------------------------------------------
        traced_requests = workload.round_requests(2)
        before = _cache_counters(serving)
        writer_before = dict(serving.writer.statistics()["counters"]) if live else {}
        first_span = len(tracer.spans)
        tracer.install_requests()
        try:
            _, responses, traced_wall = replay(pipeline, traced_requests, tracer)
        finally:
            tracer.uninstall()
        _check(traced_requests, responses, expected, outcome)
        after = _cache_counters(serving)

        count = len(traced_requests)
        own = tracer.self_times(first_span)
        for metric, span_name in SELF_TIME_METRICS.items():
            metrics[metric] = own.get(span_name, 0.0) * 1000.0 / count
        metrics["trace.overhead_ratio"] = traced_wall / plain_wall
        metrics["trace.coverage_ratio"] = (
            tracer.inclusive("server.pipeline", first_span) / traced_wall
        )
        metrics["server.response_bytes_per_req"] = sum(len(r.body) for r in responses) / count

        results = rewrites = 0
        for response in responses:
            if b'"rewrites_tried"' in response.body:
                answer = json.loads(response.body)
                results += len(answer["results"])
                rewrites += answer["rewrites_tried"]
        metrics["rewrite.candidates_per_req"] = rewrites / count
        metrics["twig.matches_per_req"] = tracer.matches / count
        metrics["twig.elements_scanned_per_match"] = _ratio(
            tracer.elements_scanned, tracer.matches
        )
        metrics["ranking.matches_scored_per_result"] = _ratio(
            tracer.count("ranking", first_span), results
        )
        if not live:
            # (A write installs a fresh view, which restarts its counters.)
            delta = {key: after[key] - before[key] for key in before}
            metrics["engine.plan_cache_hit_ratio"] = _ratio(
                delta["plan_hits"], delta["plan_hits"] + delta["plan_misses"]
            )
            metrics["engine.parse_cache_hit_ratio"] = _ratio(
                delta["parse_hits"], delta["parse_hits"] + delta["parse_misses"]
            )
            metrics["autocomplete.cache_hit_ratio"] = _ratio(
                delta["complete_hits"], delta["complete_hits"] + delta["complete_misses"]
            )
            metrics["shard.shards_pruned_ratio"] = _ratio(
                delta["shards_pruned"], delta["routed"] * after["shard_count"]
            )

        if live:
            writes = sum(r.op == "write" for r in traced_requests)
            writer_after = serving.writer.statistics()
            counters = writer_after["counters"]
            per_write = 1000.0 / writes
            metrics["write.wal_append_ms"] = own.get("write.wal_append", 0.0) * per_write
            metrics["write.apply_ms"] = tracer.inclusive("write.apply", first_span) * per_write
            metrics["write.view_ms"] = tracer.inclusive("write.view", first_span) * per_write
            metrics["write.compact_ms"] = tracer.inclusive("write.compact", first_span) * per_write
            metrics["write.compactions"] = float(
                counters["compactions"] - writer_before["compactions"]
            )
            metrics["write.segments_rebuilt_per_write"] = (
                counters["segments_rebuilt"] - writer_before["segments_rebuilt"]
            ) / writes
            written = sum(
                measure.written_xml_bytes(requests)
                for requests in (warm_requests, plain_requests, traced_requests)
            )
            metrics["write.wal_bytes_per_xml_byte"] = writer_after["wal_bytes"] / written
            metrics["write.read_after_write_ratio"] = read_after_write(
                pipeline, workload.round_requests(3), outcome
            )
            # Recovery: a fresh load of the base, then the WAL replay.
            serving.close()
            database = load()
            with tracer.span("write.recover") as span:
                serving, pipeline = open_writable(database)
            metrics["write.recover_s"] = _seconds(span)

        if shards > 1:
            metrics["shard.overhead_ratio"] = shard_overhead(
                pipeline, RequestPipeline(mono), plain_requests, workload.primary
            )
    finally:
        serving.close()

    tracer.write(out_dir / f"spans-{workload.name}.jsonl")

    # ---- the socket side: transport share and the server's counters ---
    socket_run = measure.measure(workload, work_dir, plan, rounds=2, setups=1, restarts=0)
    outcome.attempted += socket_run["outcome"].attempted
    outcome.failed += socket_run["outcome"].failed
    outcome.reasons.extend(socket_run["outcome"].reasons)
    metrics["server.transport_ms_per_req"] = (
        socket_run["all_p50_ms"] - statistics.median(plain_latencies) * 1000.0
    )
    stats = socket_run["stats"]
    metrics["server.admission_shed"] = float(stats["admission"]["shed"])
    metrics["server.coalesce_followers"] = float(stats["coalescing"]["followers"])
    return {"metrics": metrics, "outcome": outcome}


def read_after_write(pipeline, requests, outcome) -> float:
    """p50 of the search right after a write over p50 of the very same
    search sent again at once (plan and streams of the new generation
    now cached)."""
    cold, warm = [], []
    for request in requests:
        body = request.body()
        started = time.perf_counter()
        response = pipeline.handle(request.method, request.path, body)
        elapsed = time.perf_counter() - started
        outcome.record(
            oracles.check_response(request, response.status, response.body, None),
            f"in-process {request.op}",
        )
        if request.op == "search_after_write":
            cold.append(elapsed)
            started = time.perf_counter()
            pipeline.handle(request.method, request.path, body)
            warm.append(time.perf_counter() - started)
    return statistics.median(cold) / statistics.median(warm)


def shard_overhead(sharded_pipeline, mono_pipeline, requests, op: str) -> float:
    """Sharded over mono in-process p50 on the same (warm) twig searches."""
    searches = [r for r in requests if r.op == op]
    medians = []
    for pipeline in (sharded_pipeline, mono_pipeline):
        replay(pipeline, searches)
        latencies, _, _ = replay(pipeline, searches)
        medians.append(statistics.median(latencies))
    return medians[0] / medians[1]
