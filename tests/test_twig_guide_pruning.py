"""DataGuide stream pruning: soundness and effect."""

from repro.twig.algorithms.common import build_columnar_streams
from tests.kernels import STREAM_KERNELS, assert_kernels_agree


class TestPrunedStreams:
    def test_prunes_infeasible_positions(self, small_db):
        # author occurs under article, inproceedings and book/editor; the
        # pattern pins it under book.
        pattern = small_db.parse_query("//book//author")
        plain = build_columnar_streams(pattern, small_db.streams)
        pruned = build_columnar_streams(pattern, small_db.streams, small_db.guide)
        author_id = pattern.nodes()[1].node_id
        assert len(plain[author_id]) == 9
        assert len(pruned[author_id]) == 1

    def test_identical_answers(self, small_db):
        for query in [
            "//book//author",
            "//article[./title][./year]",
            '//inproceedings[./booktitle="icde"]/author',
            "//*[./editor]",
        ]:
            pattern = small_db.parse_query(query)
            assert_kernels_agree(
                pattern, small_db.labeled, small_db.term_index, query
            )

    def test_unsatisfiable_pattern_gets_empty_streams(self, small_db):
        pattern = small_db.parse_query("//article/publisher")
        pruned = build_columnar_streams(pattern, small_db.streams, small_db.guide)
        assert len(pruned[pattern.nodes()[1].node_id]) == 0

    def test_planner_flag(self, small_db):
        plain = small_db.matches("//book//author")
        pruned = small_db.matches("//book//author", prune_streams=True)
        assert plain == pruned

    def test_planner_flag_all_algorithms(self, small_db):
        for algorithm in STREAM_KERNELS:
            assert (
                len(
                    small_db.matches(
                        "//dblp//author", algorithm, prune_streams=True
                    )
                )
                == 9
            )
