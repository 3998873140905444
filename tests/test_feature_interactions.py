"""Cross-feature interaction tests.

Each feature is tested in isolation elsewhere; real users combine them.
These tests pin down the combinations: attributes × rewriting, optional ×
ordered, collections × keyword search, store × attributes, negation ×
completion, guide pruning × negation, and so on.
"""

import pytest

from repro.engine.database import LotusXDatabase
from repro.engine.store import load_snapshot, save_snapshot

XML_A = (
    '<dblp><article key="a1"><title>twig joins</title><author>lu</author>'
    "<note>award</note></article>"
    '<article key="a2"><title>xml search</title><author>lin</author></article>'
    "</dblp>"
)
XML_B = (
    '<dblp><book key="b1"><title>twig handbook</title>'
    "<editor><author>ling</author></editor></book></dblp>"
)


class TestAttributesTimesOtherFeatures:
    @pytest.fixture(scope="class")
    def db(self):
        return LotusXDatabase.from_string(XML_A, expand_attributes=True)

    def test_attribute_query_with_rewriting(self, db):
        # @key exists; @isbn doesn't — substitution finds @key.
        response = db.search("//article/@isbn")
        assert response.used_rewrites
        assert response.results

    def test_attribute_in_optional_branch(self, db):
        matches = db.matches("//article[./note?]/@key")
        assert len(matches) == 2

    def test_attribute_negation(self, db):
        # Every article has @key, so absence matches nothing.
        assert db.matches("//article[not(./@key)]") == []

    def test_attribute_with_keyword_search(self, db):
        # Attribute values participate in keyword search like any text.
        response = db.keyword_search("a1 twig")
        assert response.total_slcas == 1
        assert response.hits[0].element.tag == "article"

    def test_attribute_guide_pruning(self, db):
        assert len(db.matches("//article/@key", prune_streams=True)) == 2


class TestOptionalTimesOrdered:
    @pytest.fixture(scope="class")
    def db(self):
        return LotusXDatabase.from_string(
            "<r><rec><x>1</x><y>2</y></rec><rec><y>3</y><x>4</x></rec>"
            "<rec><x>5</x></rec></r>"
        )

    def test_ordered_with_optional_branch(self, db):
        # x then optional y, ordered: rec1 (x<y) binds y; rec2 (y<x)
        # cannot bind y in order, so y stays unbound but the match lives;
        # rec3 has no y at all.
        pattern = db.parse_query("ordered://rec[./x][./y?]")
        matches = db.matches(pattern)
        assert len(matches) == 3
        y_id = pattern.root.children[1].node_id
        bound = [m for m in matches if y_id in m.assignments]
        assert len(bound) == 1

    def test_required_ordered_still_filters(self, db):
        assert len(db.matches("ordered://rec[./x][./y]")) == 1


class TestCollectionsTimesFeatures:
    @pytest.fixture(scope="class")
    def db(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("interactions")
        first = base / "a.xml"
        first.write_text(XML_A, encoding="utf-8")
        second = base / "b.xml"
        second.write_text(XML_B, encoding="utf-8")
        return LotusXDatabase.from_files(
            [first, second], expand_attributes=True
        )

    def test_keyword_search_spans_collection(self, db):
        response = db.keyword_search("twig")
        assert response.total_slcas == 2  # one title per source file

    def test_twig_across_sources_with_attribute_filter(self, db):
        matches = db.matches('//dblp[./@source="b.xml"]//author')
        assert len(matches) == 1

    def test_rewriting_in_collection(self, db):
        response = db.search("//book/author")  # needs // through editor
        assert response.used_rewrites
        assert response.results

    def test_completion_in_collection_is_position_aware(self, db):
        pattern = db.parse_query("//book")
        texts = {c.text for c in db.complete_tag(pattern, pattern.root, "")}
        assert "editor" in texts and "note" not in texts


class TestStoreTimesFeatures:
    def test_store_roundtrip_preserves_negation_and_optional(self, tmp_path):
        db = LotusXDatabase.from_string(XML_A)
        save_snapshot(db, tmp_path / "db.lxsnap")
        loaded = load_snapshot(tmp_path / "db.lxsnap")
        assert len(loaded.matches("//article[not(./note)]")) == 1
        assert len(loaded.matches("//article[./note?]/title")) == 2

    def test_store_roundtrip_of_attribute_expanded_db(self, tmp_path):
        # The snapshot records the expansion flag in its header and keeps
        # the indexed shadow tree, so attribute queries survive the trip.
        db = LotusXDatabase.from_string(XML_A, expand_attributes=True)
        save_snapshot(db, tmp_path / "db.lxsnap")
        loaded = load_snapshot(tmp_path / "db.lxsnap")
        assert loaded.expanded_attributes
        assert len(loaded.matches("//article/@key")) == 2


class TestNegationTimesCompletion:
    @pytest.fixture(scope="class")
    def db(self):
        return LotusXDatabase.from_string(XML_A)

    def test_completion_under_negated_pattern(self, db):
        pattern = db.parse_query("//article[not(./note)]")
        texts = {c.text for c in db.complete_tag(pattern, pattern.root, "")}
        # Position analysis ignores value/negation predicates by design:
        # candidates reflect structure, predicates filter at match time.
        assert "title" in texts

    def test_rewrite_escapes_contradiction(self, db):
        # A self-contradictory query: has note and not note.
        response = db.search("//article[./note][not(./note)]/title")
        assert response.used_rewrites
        assert response.results


class TestKeywordTimesAlgorithms:
    def test_keyword_results_confirmable_by_twig(self):
        db = LotusXDatabase.from_string(XML_A)
        slca = db.keyword_search("twig lu").hits[0].element
        # The SLCA can be re-derived with an equivalent twig query.
        twig_matches = db.matches('//article[.~"twig lu"]')
        assert slca.order in {
            m.element(0).order for m in twig_matches
        }


class TestPruningTimesEverything:
    @pytest.fixture(scope="class")
    def db(self):
        return LotusXDatabase.from_string(XML_A, expand_attributes=True)

    @pytest.mark.parametrize(
        "query",
        [
            "//article[./note?]/title",
            "//article[not(./note)]",
            '//article[./@key="a1"]/title',
            "ordered://article[./title][./author]",
        ],
    )
    def test_pruning_preserves_answers_across_features(self, db, query):
        plain = [m.key() for m in db.matches(query)]
        pruned = [m.key() for m in db.matches(query, prune_streams=True)]
        assert plain == pruned
