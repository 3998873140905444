"""E11 (Table): DataGuide stream pruning ("boosting holism").

Filtering each query node's stream down to its candidate DataGuide
positions before the holistic join (Chen, Lu, Ling — SIGMOD 2005) removes
elements at structurally impossible paths: exactly the elements that
TwigStack turns into useless path solutions under parent-child edges.

For each query we run TwigStack on plain vs guide-pruned streams and
report stream volume, elements scanned, intermediate path solutions, and
latency.  Answers are asserted identical.  Expected shape: big stream
reductions where a tag occurs at many paths but few are feasible (the
deep recursive Treebank corpus is the showcase), shrinking useless
intermediates at a small pruning cost.
"""

from __future__ import annotations

from repro.bench.harness import print_table, time_call
from repro.datasets import generate_treebank
from repro.engine.database import LotusXDatabase
from repro.twig.algorithms.common import AlgorithmStats, build_columnar_streams
from repro.twig.match import sort_matches
from repro.twig.parse import parse_twig
from repro.twig.planner import Algorithm, evaluate

from conftest import shape_check

import pytest

#: (corpus, query) pairs; xmark exercises schema-shaped data, treebank
#: deep same-tag recursion.
QUERIES = [
    ("xmark", "//person/profile/interest"),
    ("xmark", "//item[./payment]/name"),
    ("xmark", "//open_auction[./seller]/itemref"),
    ("treebank", "//sentence/S/NP/NN"),
    ("treebank", "//S/NP[./DT]/NN"),
    ("treebank", "//VP/NP/PP/IN"),
]


@pytest.fixture(scope="module")
def treebank_db():
    return LotusXDatabase(generate_treebank(sentences=120, seed=17))


def test_e11_guide_pruning(xmark_db, treebank_db, benchmark, capsys):
    rows = []
    for corpus, query in QUERIES:
        db = xmark_db if corpus == "xmark" else treebank_db
        pattern = parse_twig(query)

        plain_streams = build_columnar_streams(pattern, db.streams)
        pruned_streams = build_columnar_streams(pattern, db.streams, db.guide)

        def run(prune, stats=None, db=db, pattern=pattern):
            return evaluate(
                pattern,
                db.labeled,
                db.streams,
                Algorithm.TWIG_STACK,
                stats,
                prune_streams=prune,
            )

        plain_stats = AlgorithmStats()
        plain = sort_matches(run(False, plain_stats))
        pruned_stats = AlgorithmStats()
        pruned = sort_matches(run(True, pruned_stats))
        assert plain == pruned  # pruning never changes answers

        plain_volume = sum(len(s) for s in plain_streams.values())
        pruned_volume = sum(len(s) for s in pruned_streams.values())
        plain_time = time_call(lambda: run(False))
        pruned_time = time_call(lambda: run(True))
        rows.append(
            [
                corpus,
                query,
                len(plain),
                plain_volume,
                pruned_volume,
                plain_stats.intermediate_results,
                pruned_stats.intermediate_results,
                plain_time * 1000,
                pruned_time * 1000,
            ]
        )

    pattern = parse_twig(QUERIES[3][1])
    benchmark(
        lambda: evaluate(
            pattern,
            treebank_db.labeled,
            treebank_db.streams,
            Algorithm.TWIG_STACK,
            prune_streams=True,
        )
    )

    with capsys.disabled():
        print_table(
            [
                "corpus",
                "query",
                "matches",
                "plain_stream",
                "pruned_stream",
                "plain_interm",
                "pruned_interm",
                "plain_ms",
                "pruned_ms",
            ],
            rows,
            title="\nE11: DataGuide stream pruning (pruned_ms includes pruning)",
        )

    # Shape checks: pruning never inflates streams or intermediates, and
    # on the recursive corpus it cuts streams substantially somewhere.
    shape_check(all(row[4] <= row[3] for row in rows))
    shape_check(all(row[6] <= row[5] for row in rows))
    treebank_rows = [row for row in rows if row[0] == "treebank"]
    shape_check(any(row[4] < row[3] * 0.8 for row in treebank_rows))
