"""E15 (Table): sharded scatter-gather vs monolithic evaluation.

Gates the sharded corpus subsystem: a 4-shard fleet must return exactly
the monolithic answers on every E4-class XMark workload query.  The
timing columns report the sharding overhead (fleet ÷ mono time; scatters
run inline, so this is the price of routing, per-shard evaluation and
the global merge) without a gate.  A second table measures shard-pruned
routing on a heterogeneous corpus: queries whose tags/terms live on one
shard must dispatch to that shard alone, and the routing counters must
show it.

Results are persisted via ``record_bench`` (``BENCH_e15_shard.json``)
for the nightly artifact upload; the pruning table rides along in the
payload's ``meta``.
"""

from __future__ import annotations

import os
import statistics

from repro.bench.harness import print_table, record_bench, time_call
from repro.bench.workloads import XMARK_QUERIES
from repro.datasets import (
    generate_books,
    generate_dblp,
    generate_treebank,
    generate_xmark,
)
from repro.engine.database import LotusXDatabase
from repro.shard.database import ShardedDatabase
from repro.twig.algorithms.common import AlgorithmStats
from repro.xmlio.tree import Document, Element

from conftest import SMOKE, XMARK_SIZES

SHARDS = 4


def _canonical(matches):
    return [
        sorted(
            (nid, el.region.start) for nid, el in match.assignments.items()
        )
        for match in matches
    ]


def _xmark_collection(items: int) -> Document:
    """Four equal XMark sections under one root: one unit per shard."""
    root = Element("collection")
    for index in range(SHARDS):
        root.append(generate_xmark(items=items, seed=7 + index).root)
    return Document(root)


def _mixed_collection() -> Document:
    """Heterogeneous sections so tag/term summaries separate shards."""
    scale = 10 if SMOKE else 120
    root = Element("collection")
    root.append(generate_dblp(publications=scale, seed=1).root)
    root.append(generate_xmark(items=max(4, scale // 6), seed=2).root)
    root.append(generate_books(books=scale, seed=3).root)
    root.append(generate_treebank(scale, 4).root)
    return Document(root)


def test_e15_scatter_gather_overhead(capsys):
    items = XMARK_SIZES[-1]
    fleet = ShardedDatabase.from_document(_xmark_collection(items), SHARDS)
    mono = LotusXDatabase(_xmark_collection(items))

    rows = []
    ratios = []
    for query in XMARK_QUERIES:
        # Correctness before timing: shard-merged answers must be the
        # monolithic answers, element for element.
        assert _canonical(fleet.matches(query.text)) == _canonical(
            mono.matches(query.text)
        ), query.name

        # A stats argument bypasses both result caches, so each timed
        # run is a real evaluation (plan caches stay warm).
        def run_mono():
            mono.matches(query.text, stats=AlgorithmStats())

        def run_fleet():
            fleet.matches(query.text, stats=AlgorithmStats())

        run_mono()
        run_fleet()
        dispatch_stats = AlgorithmStats()
        match_count = len(
            fleet.matches(query.text, stats=dispatch_stats)
        )
        mono_seconds = time_call(run_mono)
        fleet_seconds = time_call(run_fleet)
        ratio = fleet_seconds / mono_seconds if mono_seconds else float("inf")
        ratios.append(ratio)
        rows.append(
            [
                query.name,
                query.query_class,
                match_count,
                dispatch_stats.notes.get("shards_dispatched", SHARDS),
                mono_seconds * 1000,
                fleet_seconds * 1000,
                ratio,
            ]
        )
    fleet.close()

    headers = [
        "query",
        "class",
        "matches",
        "dispatched",
        "mono_ms",
        "fleet_ms",
        "overhead",
    ]
    with capsys.disabled():
        print_table(
            headers,
            rows,
            title="\nE15: 4-shard scatter-gather vs monolithic"
            f" (XMark items={items} x{SHARDS})",
        )

    pruning_meta = _pruning_table(capsys)
    record_bench(
        "e15_shard",
        headers,
        rows,
        meta={
            "items": items,
            "shards": SHARDS,
            "cpu_count": os.cpu_count(),
            "repeats": 3,
            "median_overhead": statistics.median(ratios),
            "pruning": pruning_meta,
        },
    )


def _pruning_table(capsys) -> dict:
    """Shard-pruned routing on a heterogeneous 4-shard corpus."""
    fleet = ShardedDatabase.from_document(_mixed_collection(), SHARDS)
    queries = [
        ("dblp-only", "//article/author"),
        ("xmark-only", "//item/name"),
        ("books-only", "//book/title"),
        ("treebank-only", "//sentence"),
        ("everywhere", "//*"),
    ]
    rows = []
    for name, query in queries:
        stats = AlgorithmStats()
        matches = fleet.matches(query, stats=stats)
        dispatched = stats.notes.get("shards_dispatched", SHARDS)
        rows.append([name, query, len(matches), dispatched, SHARDS - dispatched])

    router_stats = fleet.router.statistics()
    fleet.close()

    total_pruned = sum(row[4] for row in rows)
    hit_rate = total_pruned / (len(queries) * SHARDS)
    headers = ["workload", "query", "matches", "dispatched", "pruned"]
    with capsys.disabled():
        print_table(
            headers,
            rows,
            title="\nE15: shard-pruned routing (heterogeneous corpus,"
            f" pruning hit rate {hit_rate:.0%})",
        )

    # Correctness-grade claims (hold at every scale): single-section
    # queries must skip shards, and the router must count it.
    assert router_stats["pruned_queries"] > 0
    assert any(row[3] < SHARDS for row in rows)
    assert next(row for row in rows if row[0] == "dblp-only")[3] == 1
    return {
        "headers": headers,
        "rows": rows,
        "hit_rate": hit_rate,
        "router": router_stats,
    }
