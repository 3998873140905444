"""Ablation: structural-join edge ordering — preorder vs selectivity-greedy.

The binary-join baseline grows partial matches edge by edge, so the edge
*order* decides how large the partials get before selective branches trim
them.  The greedy plan always joins the adjacent edge with the smallest
child stream first.

Expected shape: identical answers; on twigs whose selective branch comes
*after* a wide branch in preorder, the greedy plan keeps the running
partial count (intermediate results) strictly smaller, at equal or better
latency.
"""

from __future__ import annotations

from repro.bench.harness import print_table, time_call
from repro.twig.algorithms.common import AlgorithmStats, build_columnar_streams
from repro.twig.algorithms.structural_join import structural_join_match_columnar
from repro.twig.match import sort_matches
from repro.twig.parse import parse_twig
from repro.twig.planner import Algorithm, evaluate

from conftest import shape_check

#: Wide branch listed first, selective branch second — preorder's worst case.
QUERIES = [
    ("wide-then-rare", '//item[./description//text][./location="china"]'),
    ("bidders-then-rare", "//open_auction[.//bidder/date][./itemref]"),
    ("names-then-profile", "//person[./name][./profile/education]/emailaddress"),
    ("rare-first-control", '//item[./location="china"][./description//text]'),
]


def test_ablation_join_order(xmark_db, benchmark, capsys):
    rows = []
    for name, query in QUERIES:
        pattern = parse_twig(query)
        # The planner runs the preorder plan; the greedy plan is a kernel
        # option the planner does not expose, so it builds the same views
        # itself (both timings include stream building).
        def run_preorder(stats=None, pattern=pattern):
            return evaluate(
                pattern,
                xmark_db.labeled,
                xmark_db.streams,
                Algorithm.STRUCTURAL_JOIN,
                stats,
            )

        def run_greedy(stats=None, pattern=pattern):
            streams = build_columnar_streams(pattern, xmark_db.streams)
            return structural_join_match_columnar(
                pattern, streams, stats, reorder=True
            )

        preorder_stats = AlgorithmStats()
        preorder = sort_matches(run_preorder(preorder_stats))
        greedy_stats = AlgorithmStats()
        greedy = sort_matches(run_greedy(greedy_stats))
        assert preorder == greedy  # plan choice never changes answers

        preorder_time = time_call(run_preorder)
        greedy_time = time_call(run_greedy)
        rows.append(
            [
                name,
                len(preorder),
                preorder_stats.intermediate_results,
                greedy_stats.intermediate_results,
                preorder_time * 1000,
                greedy_time * 1000,
            ]
        )

    pattern = parse_twig(QUERIES[0][1])
    streams = build_columnar_streams(pattern, xmark_db.streams)
    benchmark(
        lambda: structural_join_match_columnar(pattern, streams, reorder=True)
    )

    with capsys.disabled():
        print_table(
            [
                "query",
                "matches",
                "preorder_interm",
                "greedy_interm",
                "preorder_ms",
                "greedy_ms",
            ],
            rows,
            title="\nAblation: structural-join edge order (preorder vs greedy)",
        )

    # Shape checks: greedy never does more intermediate work, and wins
    # strictly on the wide-branch-first twigs.
    shape_check(all(row[3] <= row[2] for row in rows))
    adversarial = [row for row in rows if row[0] != "rare-first-control"]
    shape_check(any(row[3] < row[2] for row in adversarial))
