"""Per-algorithm behaviour on hand-checkable documents.

Cross-algorithm agreement on random inputs lives in
``test_twig_cross_check.py``; these tests pin down *known* answers and
algorithm-specific properties (stats counters, blow-up behaviour,
PathStack's path-only contract).
"""

import pytest

from repro.index.element_index import StreamFactory
from repro.index.term_index import TermIndex
from repro.labeling.assign import label_document
from repro.twig.algorithms.common import AlgorithmStats, build_columnar_streams
from repro.twig.algorithms.naive import naive_match
from repro.twig.algorithms.structural_join import structural_join_pairs_columnar
from repro.twig.match import sort_matches
from repro.twig.parse import parse_twig
from repro.twig.pattern import Axis
from repro.twig.planner import Algorithm
from repro.xmlio.builder import parse_string
from tests.kernels import kernels_for, run_kernel

XML = (
    "<dblp>"
    "<article><title>twig joins</title><author>lu</author><author>ling</author>"
    "<year>2002</year></article>"
    "<article><title>xml search</title><author>lin</author><year>2011</year></article>"
    "<book><editor><author>lu</author></editor><title>xml data</title>"
    "<year>2009</year></book>"
    "</dblp>"
)


@pytest.fixture(scope="module")
def ctx():
    labeled = label_document(parse_string(XML))
    term_index = TermIndex(labeled)
    return labeled, term_index, StreamFactory(labeled, term_index)


def run_all(ctx, query):
    """Sorted matches per (kernel, prune_streams), plus the naive oracle."""
    labeled, term_index, factory = ctx
    pattern = parse_twig(query)
    results = {"naive": sort_matches(naive_match(pattern, labeled, term_index))}
    for algorithm in kernels_for(pattern):
        for prune in (False, True):
            results[algorithm.value, prune] = run_kernel(
                pattern, labeled, factory, algorithm, prune
            )
    return pattern, results


class TestKnownAnswers:
    @pytest.mark.parametrize(
        "query,expected",
        [
            ("//article/author", 3),
            ("//dblp//author", 4),
            ("//book/author", 0),
            ("//book//author", 1),
            ('//article[./title~"twig"]', 1),
            ('//article[./author="lu"][./author="ling"]', 1),
            ("//article[year>=2005]/title", 1),
            ("//*[./author]", 4),  # 2 articles (3 authors) + editor (1)
            ("//dblp/book/editor/author", 1),
            ("//nosuchtag", 0),
        ],
    )
    def test_match_counts(self, ctx, query, expected):
        _, results = run_all(ctx, query)
        for name, matches in results.items():
            assert len(matches) == expected, (name, query)

    def test_all_algorithms_agree(self, ctx):
        for query in [
            "//article/author",
            "//dblp//author",
            '//article[./title~"xml"][./year]',
            "//*[./title][./year]",
            "//book//author",
        ]:
            _, results = run_all(ctx, query)
            baseline = results["naive"]
            for name, matches in results.items():
                assert matches == baseline, (name, query)


class TestStructuralJoinPairs:
    def test_descendant_pairs(self, ctx):
        _, _, factory = ctx
        pairs = structural_join_pairs_columnar(
            factory.columnar_stream("dblp"),
            factory.columnar_stream("author"),
            Axis.DESCENDANT,
        )
        assert len(pairs) == 4

    def test_child_pairs_respect_level(self, ctx):
        _, _, factory = ctx
        pairs = structural_join_pairs_columnar(
            factory.columnar_stream("book"),
            factory.columnar_stream("author"),
            Axis.CHILD,
        )
        assert pairs == []
        pairs = structural_join_pairs_columnar(
            factory.columnar_stream("editor"),
            factory.columnar_stream("author"),
            Axis.CHILD,
        )
        assert len(pairs) == 1

    def test_self_join_excludes_identity(self, ctx):
        _, _, factory = ctx
        stream = factory.columnar_stream("author")
        assert structural_join_pairs_columnar(stream, stream, Axis.DESCENDANT) == []

    def test_stats_count_pairs(self, ctx):
        _, _, factory = ctx
        stats = AlgorithmStats()
        structural_join_pairs_columnar(
            factory.columnar_stream("article"),
            factory.columnar_stream("author"),
            Axis.CHILD,
            stats,
        )
        assert stats.intermediate_results == 3
        assert stats.elements_scanned == 2 + 4


class TestPathStack:
    def test_rejects_branching_patterns(self, ctx):
        labeled, _, factory = ctx
        pattern = parse_twig("//article[./title][./year]")
        with pytest.raises(ValueError, match="linear path"):
            run_kernel(pattern, labeled, factory, Algorithm.PATH_STACK)

    def test_single_node_pattern(self, ctx):
        labeled, _, factory = ctx
        pattern = parse_twig("//author")
        assert len(run_kernel(pattern, labeled, factory, Algorithm.PATH_STACK)) == 4


class TestTwigStackOptimality:
    def test_ad_only_twig_has_no_wasted_path_solutions(self, ctx):
        """For AD-only twigs, every TwigStack path solution joins into a
        final match (the I/O-optimality property)."""
        labeled, _, factory = ctx
        pattern = parse_twig("//article[.//author][.//year]")
        stats = AlgorithmStats()
        matches = run_kernel(
            pattern, labeled, factory, Algorithm.TWIG_STACK, stats=stats
        )
        # Path solutions: one per (article, author) + one per (article, year).
        authors_under_articles = 3
        years_under_articles = 2
        assert stats.intermediate_results == (
            authors_under_articles + years_under_articles
        )
        assert len(matches) == 3  # 2 + 1 author/year combinations

    def test_stats_matches_counter(self, ctx):
        labeled, _, factory = ctx
        pattern = parse_twig("//article/author")
        stats = AlgorithmStats()
        matches = run_kernel(
            pattern, labeled, factory, Algorithm.TWIG_STACK, stats=stats
        )
        assert stats.matches == len(matches) == 3


class TestExhaustedBranchRegression:
    def test_leaf_exhaustion_does_not_starve_sibling_branches(self):
        """Regression: when one leaf's stream is exhausted, get_next must
        not bubble it up — the other branch's leaf still has elements whose
        path solutions must be emitted (found by hypothesis)."""
        labeled = label_document(
            parse_string("<r><c><c><c><b><a><d><a/></d></a></b></c></c></c></r>")
        )
        factory = StreamFactory(labeled, TermIndex(labeled))
        pattern = parse_twig("//c[.//c[.//d[./*]]][.//a]")
        matches = run_kernel(pattern, labeled, factory, Algorithm.TWIG_STACK)
        oracle = naive_match(pattern, labeled, TermIndex(labeled))
        assert len(matches) == len(oracle) == 6
        assert matches == sort_matches(oracle)


class TestRootPinning:
    def test_child_axis_root_pins_to_document_root(self, ctx):
        labeled, term_index, factory = ctx
        pattern = parse_twig("/article")
        streams = build_columnar_streams(pattern, factory)
        assert len(streams[pattern.root.node_id]) == 0
        for algorithm in kernels_for(pattern):
            assert run_kernel(pattern, labeled, factory, algorithm) == []
        assert naive_match(pattern, labeled, term_index) == []

    def test_child_axis_root_matches_actual_root(self, ctx):
        labeled, term_index, factory = ctx
        pattern = parse_twig("/dblp/article")
        oracle = sort_matches(naive_match(pattern, labeled, term_index))
        assert len(oracle) == 2
        for algorithm in kernels_for(pattern):
            assert run_kernel(pattern, labeled, factory, algorithm) == oracle


class TestWildcards:
    def test_wildcard_stream_and_matching(self, ctx):
        labeled, _, factory = ctx
        pattern = parse_twig("//*/editor")
        for algorithm in kernels_for(pattern):
            matches = run_kernel(pattern, labeled, factory, algorithm)
            assert len(matches) == 1  # only <book> is editor's parent
