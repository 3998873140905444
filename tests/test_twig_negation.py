"""Negation: ``!~`` value predicates and ``not(...)`` structural absence."""

import pytest

from repro.engine.database import LotusXDatabase
from repro.twig.parse import TwigSyntaxError, parse_twig
from repro.twig.pattern import (
    AbsentBranchPredicate,
    Axis,
    ContainsPredicate,
    NotPredicate,
)
from repro.twig.planner import Algorithm

XML = (
    "<dblp>"
    "<article><title>twig joins</title><author>lu</author></article>"
    "<article><title>xml search</title></article>"
    "<article><title>twig gui</title></article>"
    "<book><title>data</title><editor><author>x</author></editor></book>"
    "</dblp>"
)


@pytest.fixture(scope="module")
def db():
    return LotusXDatabase.from_string(XML)


class TestParsing:
    def test_not_contains_operator(self):
        pattern = parse_twig('//title[.!~"twig"]')
        predicate = pattern.root.predicate
        assert isinstance(predicate, NotPredicate)
        assert isinstance(predicate.inner, ContainsPredicate)

    def test_structural_not_child(self):
        pattern = parse_twig("//article[not(./author)]")
        predicate = pattern.root.predicate
        assert isinstance(predicate, AbsentBranchPredicate)
        assert predicate.tag == "author"
        assert predicate.axis is Axis.CHILD

    def test_structural_not_descendant(self):
        pattern = parse_twig("//book[not(.//author)]")
        assert pattern.root.predicate.axis is Axis.DESCENDANT

    def test_bare_slash_form(self):
        assert (
            parse_twig("//a[not(/b)]").signature()
            == parse_twig("//a[not(./b)]").signature()
        )

    def test_not_requires_concrete_tag(self):
        with pytest.raises(TwigSyntaxError, match="concrete tag"):
            parse_twig("//a[not(./*)]")

    def test_not_requires_axis(self):
        with pytest.raises(TwigSyntaxError, match="'/' or '//'"):
            parse_twig("//a[not(b)]")

    def test_output_marker_still_works_before_operators(self):
        pattern = parse_twig('//a[./b!~"x"]')
        # '!' belongs to '!~', not the output marker.
        assert pattern.output_nodes() == [pattern.root]

    @pytest.mark.parametrize(
        "query",
        [
            '//title[.!~"twig"]',
            "//article[not(./author)]",
            "//book[not(.//author)]/title",
            '//a[./b!~"x y"][not(/c)]/d',
        ],
    )
    def test_roundtrip(self, query):
        pattern = parse_twig(query)
        assert parse_twig(str(pattern)).signature() == pattern.signature()

    def test_double_negation_rejected(self):
        with pytest.raises(ValueError, match="double negation"):
            NotPredicate(NotPredicate(ContainsPredicate("x")))


class TestSemantics:
    @pytest.mark.parametrize(
        "query,expected",
        [
            ('//article[./title!~"twig"]', 1),
            ('//title[.!~"xml"]', 3),
            ("//article[not(./author)]", 2),
            ("//book[not(./author)]", 1),
            ("//book[not(.//author)]", 0),
            ("//*[not(.//author)]/title", 2),
            ('//article[not(./author)][./title~"twig"]', 1),
        ],
    )
    def test_counts(self, db, query, expected):
        assert len(db.matches(query)) == expected

    def test_all_algorithms_agree(self, db):
        for query in [
            '//article[./title!~"twig"]',
            "//article[not(./author)]/title",
            "//*[not(./editor)][./title]",
        ]:
            results = {
                algorithm: [m.key() for m in db.matches(query, algorithm)]
                for algorithm in (
                    Algorithm.NAIVE,
                    Algorithm.STRUCTURAL_JOIN,
                    Algorithm.TWIG_STACK,
                )
            }
            baseline = results[Algorithm.NAIVE]
            for algorithm, keys in results.items():
                assert keys == baseline, (algorithm, query)

    def test_negation_contributes_no_ranking_terms(self, db):
        pattern = parse_twig('//article[./title!~"twig"]')
        assert pattern.all_terms() == ()

    def test_not_predicate_never_relaxed_to_contains(self, db):
        from repro.rewrite.rules import EqualsToContains

        pattern = parse_twig('//article[./title!~"twig"]')
        assert list(EqualsToContains().apply(pattern)) == []

    def test_search_with_negation(self, db):
        response = db.search("//article[not(./author)]/title", rewrite=False)
        assert len(response) == 2
