"""Structural-join edge ordering."""

import pytest

from repro.twig.algorithms.common import AlgorithmStats, build_columnar_streams
from repro.twig.algorithms.naive import naive_match
from repro.twig.algorithms.structural_join import (
    _edge_plan,
    structural_join_match_columnar,
)
from repro.twig.match import sort_matches
from repro.twig.parse import parse_twig
from repro.twig.planner import Algorithm
from tests.kernels import run_kernel


class TestEdgePlan:
    def test_preorder_plan(self, small_db):
        pattern = parse_twig("//article[./title][./author]/year")
        streams = build_columnar_streams(pattern, small_db.streams)
        plan = _edge_plan(pattern, streams, reorder=False)
        assert [(p.display_tag, c.display_tag) for p, c in plan] == [
            ("article", "title"),
            ("article", "author"),
            ("article", "year"),
        ]

    def test_greedy_plan_prefers_small_streams(self, small_db):
        # journal (2 elements) should join before author (9 elements).
        pattern = parse_twig("//article[./author][./journal]")
        streams = build_columnar_streams(pattern, small_db.streams)
        plan = _edge_plan(pattern, streams, reorder=True)
        assert [c.display_tag for _, c in plan] == ["journal", "author"]

    def test_greedy_plan_respects_connectivity(self, small_db):
        # editor/author chain: author can only join after editor, however
        # small its stream.
        pattern = parse_twig("//book[./editor/author][./title]")
        streams = build_columnar_streams(pattern, small_db.streams)
        plan = _edge_plan(pattern, streams, reorder=True)
        order = [c.display_tag for _, c in plan]
        assert order.index("editor") < order.index("author")

    def test_plans_cover_every_edge_once(self, small_db):
        pattern = parse_twig("//dblp[./article[./title]][./book[./editor]]")
        streams = build_columnar_streams(pattern, small_db.streams)
        for reorder in (False, True):
            plan = _edge_plan(pattern, streams, reorder)
            assert len(plan) == pattern.size - 1
            assert len({c.node_id for _, c in plan}) == pattern.size - 1


class TestReorderedEvaluation:
    @pytest.mark.parametrize(
        "query",
        [
            "//article[./author][./journal]/title",
            "//dblp[.//booktitle][.//publisher]",
            "//book[./editor/author][./year]",
            "//article/author",
        ],
    )
    def test_identical_answers(self, small_db, query):
        pattern = parse_twig(query)
        streams = build_columnar_streams(pattern, small_db.streams)
        oracle = sort_matches(
            naive_match(pattern, small_db.labeled, small_db.term_index)
        )
        plain = run_kernel(
            pattern, small_db.labeled, small_db.streams, Algorithm.STRUCTURAL_JOIN
        )
        reordered = sort_matches(
            structural_join_match_columnar(pattern, streams, reorder=True)
        )
        assert plain == reordered == oracle

    def test_greedy_never_more_intermediates(self, dblp_db):
        for query in [
            '//article[./author][./journal="tods"]',
            "//inproceedings[./author][./booktitle]/title",
        ]:
            pattern = parse_twig(query)
            streams = build_columnar_streams(pattern, dblp_db.streams)
            plain_stats = AlgorithmStats()
            structural_join_match_columnar(pattern, streams, plain_stats)
            greedy_stats = AlgorithmStats()
            structural_join_match_columnar(
                pattern, streams, greedy_stats, reorder=True
            )
            assert (
                greedy_stats.intermediate_results
                <= plain_stats.intermediate_results
            )
