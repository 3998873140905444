"""E6 (Table): order-sensitive twig queries — correctness and overhead.

The abstract claims support for "order sensitive queries".  For each
workload twig we evaluate the unordered and the ordered variant and report
match counts and evaluation-time overhead.  Expected shape: ordered
matching returns a subset of the unordered answers at single-digit-percent
to low-multiple overhead (the order check prunes during the merge phase).
"""

from __future__ import annotations

from repro.bench.harness import print_table, time_call
from repro.bench.workloads import ORDERED_QUERIES
from repro.twig.match import satisfies_order
from repro.twig.planner import Algorithm, evaluate

from conftest import shape_check


def _twig_stack(db, pattern):
    return evaluate(pattern, db.labeled, db.streams, Algorithm.TWIG_STACK)


def test_e6_ordered_overhead(dblp_db, benchmark, capsys):
    rows = []
    for query in ORDERED_QUERIES:
        unordered = query.pattern()
        ordered = query.pattern()
        ordered.ordered = True

        def run_unordered():
            return _twig_stack(dblp_db, unordered)

        def run_ordered():
            return _twig_stack(dblp_db, ordered)

        unordered_matches = run_unordered()
        ordered_matches = run_ordered()

        # Correctness: the ordered answer is exactly the order-satisfying
        # subset of the unordered answer.
        expected = [
            match for match in unordered_matches if satisfies_order(ordered, match)
        ]
        assert sorted(m.key() for m in ordered_matches) == sorted(
            m.key() for m in expected
        )

        unordered_time = time_call(run_unordered)
        ordered_time = time_call(run_ordered)
        overhead = (ordered_time - unordered_time) / unordered_time * 100
        rows.append(
            [
                query.name,
                len(unordered_matches),
                len(ordered_matches),
                unordered_time * 1000,
                ordered_time * 1000,
                f"{overhead:+.0f}%",
            ]
        )

    pattern = ORDERED_QUERIES[0].pattern()
    pattern.ordered = True
    benchmark(lambda: _twig_stack(dblp_db, pattern))

    with capsys.disabled():
        print_table(
            [
                "query",
                "unordered_matches",
                "ordered_matches",
                "unordered_ms",
                "ordered_ms",
                "overhead",
            ],
            rows,
            title="\nE6: order-sensitive twig queries (DBLP-like corpus)",
        )

    # Shape checks: ordering only filters, and never explodes cost.
    shape_check(all(row[2] <= row[1] for row in rows))
    shape_check(all(row[4] < row[3] * 3 for row in rows))
