"""The position-aware autocompletion engine."""

import pytest

from repro.autocomplete.candidates import CandidateKind
from repro.engine.database import LotusXDatabase
from repro.shard.database import ShardedDatabase
from repro.twig.parse import parse_twig
from repro.twig.pattern import Axis


class TestTagCompletion:
    def test_first_node_uses_whole_corpus(self, small_db):
        candidates = small_db.complete_tag(prefix="a")
        texts = {c.text for c in candidates}
        assert texts == {"article", "author"}

    def test_position_aware_child_tags(self, small_db):
        pattern = parse_twig("//article")
        candidates = small_db.complete_tag(pattern, pattern.root, "")
        texts = {c.text for c in candidates}
        assert texts == {"title", "author", "year", "journal"}
        assert "booktitle" not in texts  # only under inproceedings
        assert "publisher" not in texts  # only under book

    def test_position_aware_respects_whole_pattern(self, small_db):
        # With [./booktitle] in the twig, the anchor can only be an
        # inproceedings, even though its tag is a wildcard.
        pattern = parse_twig("//*[./booktitle]")
        candidates = small_db.complete_tag(pattern, pattern.root, "")
        texts = {c.text for c in candidates}
        assert texts == {"title", "author", "year", "booktitle"}

    def test_descendant_axis_widens_pool(self, small_db):
        pattern = parse_twig("//book")
        child_tags = {
            c.text for c in small_db.complete_tag(pattern, pattern.root, "")
        }
        descendant_tags = {
            c.text
            for c in small_db.complete_tag(
                pattern, pattern.root, "", axis=Axis.DESCENDANT
            )
        }
        assert "author" not in child_tags  # author is under editor
        assert "author" in descendant_tags

    def test_prefix_filters(self, small_db):
        pattern = parse_twig("//article")
        candidates = small_db.complete_tag(pattern, pattern.root, "jo")
        assert [c.text for c in candidates] == ["journal"]

    def test_counts_reflect_positions(self, small_db):
        pattern = parse_twig("//article")
        candidates = {
            c.text: c.count
            for c in small_db.complete_tag(pattern, pattern.root, "")
        }
        assert candidates["author"] == 3  # only article authors counted

    def test_unsatisfiable_context_gives_nothing(self, small_db):
        pattern = parse_twig("//article[./publisher]")
        assert small_db.complete_tag(pattern, pattern.root, "") == []

    def test_sample_paths_attached(self, small_db):
        candidates = small_db.complete_tag(prefix="auth")
        assert candidates[0].sample_paths
        assert all(p.startswith("/dblp") for p in candidates[0].sample_paths)

    def test_k_limits(self, small_db):
        pattern = parse_twig("//article")
        assert len(small_db.complete_tag(pattern, pattern.root, "", k=2)) == 2

    @pytest.mark.parametrize("shards", [1, 2], ids=["mono", "sharded"])
    @pytest.mark.parametrize("prefix", ["b", "B", "bo"])
    def test_global_baseline_is_case_insensitive(self, shards, prefix):
        """The position-blind baseline lower-cases the prefix; it used to
        prefix-search real-case trie keys with it and lose ``Book``."""
        xml = "<Lib><Book/><book/><book/><other/></Lib>"
        if shards == 1:
            database = LotusXDatabase.from_string(xml)
        else:
            database = ShardedDatabase.from_string(xml, shards)
        blind = database.autocomplete.complete_tag_global(prefix)
        assert [(c.text, c.count) for c in blind] == [("book", 2), ("Book", 1)]
        aware = database.complete_tag(None, None, prefix)
        assert {c.text for c in aware} == {"book", "Book"}


class TestValueCompletion:
    def test_position_aware_values(self, small_db):
        pattern = parse_twig("//inproceedings/booktitle")
        node = pattern.root.children[0]
        candidates = small_db.complete_value(pattern, node, "")
        assert {c.text for c in candidates} == {"icde", "edbt"}
        assert all(c.kind is CandidateKind.VALUE for c in candidates)

    def test_position_excludes_other_paths(self, small_db):
        # "jiaheng lu" appears as article author, inproceedings author and
        # book editor author; anchored under article only one path counts.
        pattern = parse_twig("//article/author")
        node = pattern.root.children[0]
        candidates = small_db.complete_value(pattern, node, "jia")
        assert len(candidates) == 1
        assert candidates[0].count == 1  # one article by jiaheng lu

    def test_global_counts_are_larger(self, small_db):
        global_candidates = small_db.autocomplete.complete_value_global("jia")
        assert global_candidates[0].count == 4

    def test_token_mode(self, small_db):
        pattern = parse_twig("//article/title")
        node = pattern.root.children[0]
        candidates = small_db.complete_value(
            pattern, node, "x", whole_values=False
        )
        assert [c.text for c in candidates] == ["xml"]
        assert candidates[0].kind is CandidateKind.TERM

    def test_value_completion_on_wildcard_anchor(self, small_db):
        pattern = parse_twig("//*")
        candidates = small_db.complete_value(pattern, pattern.root, "icde")
        assert [c.text for c in candidates] == ["icde"]


class TestScoring:
    def test_score_monotone_in_count(self, small_db):
        from repro.autocomplete.scoring import candidate_score

        assert candidate_score(10, "a", "abc") > candidate_score(2, "a", "abc")

    def test_longer_typed_prefix_scores_higher(self, small_db):
        from repro.autocomplete.scoring import candidate_score

        assert candidate_score(5, "abc", "abcd") > candidate_score(5, "a", "abcd")

    def test_zero_count_scores_zero(self):
        from repro.autocomplete.scoring import candidate_score

        assert candidate_score(0, "a", "abc") == 0.0

    def test_candidates_sorted_by_score(self, small_db):
        candidates = small_db.complete_tag(prefix="")
        scores = [c.score for c in candidates]
        assert scores == sorted(scores, reverse=True)

    def test_as_dict(self, small_db):
        candidate = small_db.complete_tag(prefix="ti")[0]
        data = candidate.as_dict()
        assert data["text"] == "title"
        assert data["kind"] == "tag"
        assert isinstance(data["count"], int)
