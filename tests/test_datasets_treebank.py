"""Treebank-like generator and deep-recursion behaviour."""

import pytest

from repro.datasets import generate_treebank, generate_treebank_xml
from repro.engine.database import LotusXDatabase
from repro.twig.planner import Algorithm
from repro.xmlio.builder import parse_string


@pytest.fixture(scope="module")
def db():
    return LotusXDatabase(generate_treebank(sentences=25, seed=17))


class TestGenerator:
    def test_deterministic(self):
        assert generate_treebank_xml(10, seed=3) == generate_treebank_xml(10, seed=3)
        assert generate_treebank_xml(10, seed=3) != generate_treebank_xml(10, seed=4)

    def test_sentence_count(self):
        doc = generate_treebank(sentences=7, seed=1)
        assert len(doc.root.find_all("sentence")) == 7

    def test_parses_as_valid_xml(self):
        assert parse_string(generate_treebank_xml(5, seed=2)).root.tag == "treebank"

    def test_max_depth_respected_loosely(self):
        # max_depth bounds recursion *onset*; terminals can add a couple
        # of levels below it.
        doc = generate_treebank(sentences=20, seed=5, max_depth=6)
        depths = [len(e.path()) for e in doc.iter()]
        assert max(depths) <= 6 + 4

    def test_recursive_nesting_present(self, db):
        assert db.matches("//NP//NP")  # same-tag nesting exists

    def test_terminals_carry_text(self, db):
        for element in db.labeled.stream("NN"):
            assert element.element.text.strip()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            generate_treebank(sentences=-1)


class TestDeepRecursionMatching:
    """Same-tag recursion is the stress case for stack algorithms; every
    algorithm must agree here too."""

    QUERIES = [
        "//NP//NP",
        "//NP//NP//NN",
        "//VP[.//NP[.//PP]]",
        "//S//S",
        "//NP[./DT][./NN]",
        '//NP[.//NN="tree"]//PP',
        "//PP/NP/PP",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_algorithms_agree_on_recursive_queries(self, db, query):
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

    def test_deep_guide(self, db):
        assert db.statistics().max_depth >= 10
        assert db.statistics().distinct_paths > 100

    def test_completion_on_recursive_paths(self, db):
        pattern = db.parse_query("//NP/NP")
        tags = {c.text for c in db.complete_tag(pattern, pattern.nodes()[1], "")}
        # A nested NP can still contain the full NP vocabulary.
        assert "NN" in tags
