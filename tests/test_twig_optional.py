"""Optional query nodes: left-outer-join semantics."""

import pytest

from repro.engine.database import LotusXDatabase
from repro.twig.optional import (
    anchored_embeddings,
    extend_with_optionals,
    validate_optional_pattern,
)
from repro.twig.parse import parse_twig
from repro.twig.planner import Algorithm

XML = (
    "<dblp>"
    "<article><title>a</title><author>lu</author><note>award</note></article>"
    "<article><title>b</title><author>lin</author><filler>x</filler></article>"
    "<article><title>c</title><author>ling</author><note>best</note>"
    "<note>second</note></article>"
    "</dblp>"
)


@pytest.fixture(scope="module")
def db():
    return LotusXDatabase.from_string(XML)


class TestParsing:
    def test_question_mark_marks_optional(self):
        pattern = parse_twig("//article[./note?]/author")
        note = pattern.root.children[0]
        assert note.tag == "note"
        assert note.optional

    def test_roundtrip(self):
        for query in [
            "//article[./note?]/author",
            "//article[./note?][./year?]/title",
            "//a[.//b?]",
        ]:
            pattern = parse_twig(query)
            assert parse_twig(str(pattern)).signature() == pattern.signature()

    def test_signature_distinguishes_optional(self):
        required = parse_twig("//article[./note]/author")
        optional = parse_twig("//article[./note?]/author")
        assert required.signature() != optional.signature()


class TestPatternHelpers:
    def test_required_skeleton_drops_optional_subtrees(self):
        pattern = parse_twig("//article[./note?]/author")
        skeleton = pattern.required_skeleton()
        assert skeleton.size == 2
        assert not skeleton.has_optional()

    def test_optional_branches_top_level_only(self):
        pattern = parse_twig("//a[./b?[./c]]")
        branches = pattern.optional_branches()
        assert [branch.tag for branch in branches] == ["b"]

    def test_validation_rejects_optional_output(self, db):
        pattern = parse_twig("//article[./note!?]")
        with pytest.raises(ValueError, match="must always be bound"):
            validate_optional_pattern(pattern)
        with pytest.raises(ValueError):
            db.matches(pattern)


class TestSemantics:
    def test_matches_survive_without_optional(self, db):
        matches = db.matches("//article[./note?]/author")
        assert len(matches) == 3  # all articles, note or not (b has none)

    def test_required_variant_filters(self, db):
        assert len(db.matches("//article[./note]/author")) == 3  # 1 + 2 notes
        assert len(db.matches("//article[./note?]/author")) == 3  # one per article

    def test_optional_binds_first_in_document_order(self, db):
        pattern = parse_twig("//article[./note?]/author")
        note_id = pattern.root.children[0].node_id
        matches = db.matches(pattern)
        third = matches[2]  # article c with two notes
        assert third.assignments[note_id].element.text == "best"

    def test_unbound_optional_absent_from_assignments(self, db):
        pattern = parse_twig("//article[./note?]/author")
        note_id = pattern.root.children[0].node_id
        matches = db.matches(pattern)
        second = matches[1]  # article b has no note
        assert note_id not in second.assignments

    def test_nested_optional_subtree(self, db):
        # Optional branch with internal structure: note? with no children
        # here, but a deeper optional chain must bind atomically.
        pattern = parse_twig("//dblp[.//note?]/article")
        assert len(db.matches(pattern)) == 3

    def test_optional_with_predicate(self, db):
        pattern = parse_twig('//article[./note[.~"award"]?]/author')
        note_id = pattern.root.children[0].node_id
        matches = db.matches(pattern)
        assert len(matches) == 3
        bound = [m for m in matches if note_id in m.assignments]
        assert len(bound) == 1

    @pytest.mark.parametrize(
        "algorithm",
        [Algorithm.NAIVE, Algorithm.TWIG_STACK, Algorithm.STRUCTURAL_JOIN],
    )
    def test_all_algorithms_support_optional(self, db, algorithm):
        assert len(db.matches("//article[./note?]/author", algorithm)) == 3


class TestRanking:
    def test_bound_optional_ranks_higher(self, db):
        response = db.search("//article[./note?]/title", rewrite=False, k=10)
        # Articles with a note outrank the one without.
        no_note_rank = [h.xpath for h in response].index(
            "/dblp[1]/article[2]/title[1]"
        )
        assert no_note_rank == len(response) - 1

    def test_scores_stay_in_unit_interval(self, db):
        for hit in db.search("//article[./note?]/title", rewrite=False):
            assert 0.0 < hit.score.combined <= 1.0


class TestAnchoredEmbeddings:
    def test_direct_use(self, db):
        pattern = parse_twig("//article[./note?]")
        branch = pattern.root.children[0]
        first_article = db.labeled.stream("article")[0]
        embeddings = anchored_embeddings(
            branch, first_article, db.labeled, db.term_index
        )
        assert len(embeddings) == 1
        assert embeddings[0][branch.node_id].element.text == "award"

    def test_extend_preserves_match_count(self, db):
        pattern = parse_twig("//article[./note?]")
        skeleton_matches = db.matches(pattern.required_skeleton())
        extended = extend_with_optionals(
            pattern, skeleton_matches, db.labeled, db.term_index
        )
        assert len(extended) == len(skeleton_matches)
