"""E4 (Figure): twig matching time across algorithms and query classes.

Regenerates the algorithm-comparison figure: evaluation time of the naive
tree-search baseline, binary structural joins, PathStack (paths only), and
holistic TwigStack, per query class (path / flat twig / deep twig), on the
XMark-like corpus, across corpus sizes.

Expected shape (see the honest-findings note in EXPERIMENTS.md): the
label-based algorithms beat naive tree navigation consistently — binary
structural joins by a wide margin — while TwigStack pays a Python-level
per-element overhead for its bounded intermediate results; *that* benefit
is measured directly in E5.  All algorithms must agree on every answer.
"""

from __future__ import annotations

from repro.bench.harness import print_table, time_call
from repro.bench.workloads import XMARK_QUERIES
from repro.twig.planner import Algorithm, evaluate

from conftest import XMARK_SIZES, shape_check

#: Naive re-walks subtrees per query node; cap where it still finishes fast.
NAIVE_SIZE_CAP = XMARK_SIZES[-1]


#: Column name per algorithm in the comparison table.
_COLUMNS = {
    Algorithm.NAIVE: "naive",
    Algorithm.STRUCTURAL_JOIN: "join",
    Algorithm.PATH_STACK: "path",
    Algorithm.TWIG_STACK: "twig",
}


def _times_for(db, query, include_naive):
    pattern = query.pattern()
    algorithms = [Algorithm.STRUCTURAL_JOIN, Algorithm.TWIG_STACK]
    if pattern.is_path():
        algorithms.append(Algorithm.PATH_STACK)
    if include_naive:
        algorithms.append(Algorithm.NAIVE)
    times = {}
    counts = {}
    for algorithm in algorithms:

        def run(algorithm=algorithm):
            return evaluate(pattern, db.labeled, db.streams, algorithm)

        name = _COLUMNS[algorithm]
        # Naive re-walks subtrees per query node: one timed run is enough.
        repeats = 1 if algorithm is Algorithm.NAIVE else 3
        times[name] = time_call(run, repeats=repeats)
        counts[name] = len(run())
    assert len(set(counts.values())) == 1, f"algorithms disagree on {query.name}"
    return times, counts["twig"]


def test_e4_algorithm_comparison(xmark_dbs, benchmark, capsys):
    rows = []
    for size in XMARK_SIZES:
        db = xmark_dbs[size]
        for query in XMARK_QUERIES:
            include_naive = size <= NAIVE_SIZE_CAP
            times, match_count = _times_for(db, query, include_naive)
            rows.append(
                [
                    size,
                    query.name,
                    query.query_class,
                    match_count,
                    times.get("naive", float("nan")) * 1000,
                    times["join"] * 1000,
                    times.get("path", float("nan")) * 1000,
                    times["twig"] * 1000,
                ]
            )

    db = xmark_dbs[XMARK_SIZES[-1]]
    deep = next(q for q in XMARK_QUERIES if q.query_class == "deep-twig")
    pattern = deep.pattern()
    benchmark(
        lambda: evaluate(pattern, db.labeled, db.streams, Algorithm.TWIG_STACK)
    )

    with capsys.disabled():
        print_table(
            [
                "items",
                "query",
                "class",
                "matches",
                "naive_ms",
                "join_ms",
                "pathstack_ms",
                "twigstack_ms",
            ],
            rows,
            title="\nE4: matching time per algorithm (nan = not applicable)",
        )

    # Shape checks on the largest corpus.
    large_rows = [row for row in rows if row[0] == XMARK_SIZES[-1]]
    # Binary structural joins over labeled streams beat naive navigation
    # decisively, in aggregate and on (almost) every query.
    naive_total = sum(row[4] for row in large_rows)
    join_total = sum(row[5] for row in large_rows)
    shape_check(join_total * 3 < naive_total)
    shape_check(
        sum(1 for row in large_rows if row[5] < row[4]) >= len(large_rows) - 1
    )
    # Every algorithm stays interactive on every workload query.
    shape_check(all(max(row[5], row[7]) < 1000 for row in large_rows))
