"""E5 (Figure): intermediate-result size, binary joins vs holistic TwigStack.

The classical holistic-join result: binary structural joins materialize
per-edge pair lists that can dwarf the final answer, while TwigStack's
path solutions stay near the output size (exactly so for AD-only twigs).

For each AD-heavy query we report the number of intermediate results each
approach produced and the final match count.  Expected shape: the
join/twig intermediate ratio grows with nesting; TwigStack stays within a
small factor of the answer.
"""

from __future__ import annotations

from repro.bench.harness import print_table
from repro.bench.workloads import BLOWUP_QUERIES
from repro.twig.algorithms.common import AlgorithmStats
from repro.twig.planner import Algorithm, evaluate

from conftest import XMARK_SIZES, shape_check


def test_e5_intermediate_result_sizes(xmark_dbs, benchmark, capsys):
    rows = []
    for size in XMARK_SIZES:
        db = xmark_dbs[size]
        for query in BLOWUP_QUERIES:
            pattern = query.pattern()

            join_stats = AlgorithmStats()
            join_matches = evaluate(
                pattern,
                db.labeled,
                db.streams,
                Algorithm.STRUCTURAL_JOIN,
                join_stats,
            )
            twig_stats = AlgorithmStats()
            twig_matches = evaluate(
                pattern, db.labeled, db.streams, Algorithm.TWIG_STACK, twig_stats
            )
            assert len(join_matches) == len(twig_matches)

            ratio = join_stats.intermediate_results / max(
                1, twig_stats.intermediate_results
            )
            rows.append(
                [
                    size,
                    query.name,
                    len(twig_matches),
                    join_stats.intermediate_results,
                    twig_stats.intermediate_results,
                    ratio,
                ]
            )

    db = xmark_dbs[XMARK_SIZES[-1]]
    pattern = BLOWUP_QUERIES[0].pattern()
    benchmark(
        lambda: evaluate(pattern, db.labeled, db.streams, Algorithm.TWIG_STACK)
    )

    with capsys.disabled():
        print_table(
            [
                "items",
                "query",
                "matches",
                "join_intermediate",
                "twig_intermediate",
                "join/twig",
            ],
            rows,
            title="\nE5: intermediate results — binary joins vs TwigStack",
        )

    # Shape check: TwigStack never produces more intermediates than binary
    # joins on these AD-heavy twigs, and wins clearly somewhere.
    shape_check(all(row[4] <= row[3] for row in rows))
    shape_check(max(row[5] for row in rows) > 1.5)
