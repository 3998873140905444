"""The shared rank loop: top-k selection, per-pattern cost, deadlines.

``rank_top_k`` serves the mono and the sharded database; the reference
here is the loop it replaced — score every match into a result object,
keep the best per output binding (strict ``>``), sort everything — run
through the public single-match scorer.
"""

from __future__ import annotations

import pytest

from repro.datasets import generate_dblp
from repro.engine.database import LotusXDatabase
from repro.engine.topk import GRACE_RANK_STEPS
from repro.ranking.scorer import LotusXScorer
from repro.resilience.deadline import Deadline
from repro.resilience.errors import DeadlineExceeded
from repro.rewrite.engine import RewriteCandidate
from repro.shard.database import ShardedDatabase
from repro.twig.pattern import TwigPattern
from repro.twig.planner import Algorithm

QUERIES = [
    "//author",  # every match scores the same: pure tie-breaking
    "//article/author",
    "//dblp//author",
    '//article[./title~"xml"]/author',
    "//inproceedings[./author]/title",
    '//article[./title~"zzzz"]/author',  # only rewrites answer
]


@pytest.fixture(scope="module")
def sharded_db():
    database = ShardedDatabase.from_document(
        generate_dblp(publications=150, seed=11), shards=2
    )
    yield database
    database.close()


def reference_ranking(productive, scorer, term_index):
    """The full-sort answer: ``[(binding, combined, candidate)]``."""
    best = {}
    for candidate, matches in productive:
        for match in matches:
            score = scorer.score_match(
                candidate.pattern, match, term_index, candidate.penalty
            )
            key = tuple(
                element.order for element in match.output_elements(candidate.pattern)
            )
            current = best.get(key)
            if current is None or score.combined > current[0].combined:
                best[key] = (score, match, candidate)
    return sorted(best.items(), key=lambda item: (-item[1][0].combined, item[0]))


def productive_for(database, query):
    """What ``search()`` hands the rank loop for ``query``."""
    pattern = database.parse_query(query)
    outcome = database.rewriter.search_with_rewrites(
        pattern, lambda p: database._evaluate(p, Algorithm.AUTO, None, False, None)
    )
    return outcome.productive


class TestTopK:
    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("k", [1, 3, 10, 1000])
    def test_top_k_equals_full_sort(self, dblp_db, query, k):
        productive = productive_for(dblp_db, query)
        assert productive
        expected = reference_ranking(productive, dblp_db.scorer, dblp_db.term_index)
        results = dblp_db._rank_productive(productive, k)
        assert len(results) == min(k, len(expected))
        for result, (key, (score, match, candidate)) in zip(results, expected):
            assert tuple(e.order for e in result.outputs) == key
            assert result.score == score
            assert result.match is match
            assert result.source_query == str(candidate.pattern)
            assert result.rewrite_steps == candidate.steps
            assert result.terms == candidate.pattern.all_terms()

    def test_ties_break_in_document_order(self, dblp_db):
        response = dblp_db.search("//author", k=10)
        assert len({hit.score.combined for hit in response}) == 1
        assert [hit.primary.order for hit in response] == [
            match.assignments[0].order for match in dblp_db.matches("//author")[:10]
        ]

    def test_equal_score_keeps_first_seen_binding(self, dblp_db):
        pattern = dblp_db.parse_query("//article/author")
        matches = dblp_db.matches(pattern)
        first = RewriteCandidate(pattern, 0.5, ("first",))
        second = RewriteCandidate(pattern.copy(), 0.5, ("second",))
        results = dblp_db._rank_productive([(first, matches), (second, matches)], 5)
        assert {hit.rewrite_steps for hit in results} == {("first",)}

    def test_duplicate_binding_keeps_better_candidate(self, dblp_db):
        """The same authors reached by a penalized and by a clean pattern:
        the clean one wins, with its own provenance — whichever comes
        first."""
        clean = dblp_db.parse_query('//article[./title~"xml"]/author')
        relaxed = dblp_db.parse_query("//article/author")
        clean_matches = dblp_db.matches(clean)
        relaxed_matches = dblp_db.matches(relaxed)
        clean_keys = {m.assignments[2].order for m in clean_matches}
        assert clean_keys
        candidates = [
            (RewriteCandidate(relaxed, 3.0, ("dropped title",)), relaxed_matches),
            (RewriteCandidate(clean, 0.0, ()), clean_matches),
        ]
        for productive in (candidates, candidates[::-1]):
            results = dblp_db._rank_productive(productive, 10_000)
            assert len(results) == len(relaxed_matches)
            for hit in results:
                if hit.primary.order in clean_keys:
                    assert hit.source_query == str(clean)
                    assert hit.rewrite_steps == ()
                    assert hit.score.rewrite_penalty == 0.0
                    assert hit.terms == ("xml",)
                else:
                    assert hit.source_query == str(relaxed)
                    assert hit.rewrite_steps == ("dropped title",)
                    assert hit.score.rewrite_penalty == 3.0

    def test_sharded_ranking_equals_mono(self, dblp_db, sharded_db):
        for query in QUERIES:
            for k in (1, 3, 10, 1000):
                mono = dblp_db.search(query, k=k).as_dict()
                sharded = sharded_db.search(query, k=k).as_dict()
                mono.pop("elapsed_seconds"), sharded.pop("elapsed_seconds")
                assert mono == sharded, (query, k)


class TestPerPatternCost:
    def test_pattern_walks_do_not_grow_with_matches(self, monkeypatch):
        """One ``search()`` copies, lists and renders patterns a fixed
        number of times — however many matches it ranks."""
        calls = {"copy": 0, "nodes": 0, "str": 0}

        def counting(name, original):
            def wrapper(self, *args, **kwargs):
                calls[name] += 1
                return original(self, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(TwigPattern, "copy", counting("copy", TwigPattern.copy))
        monkeypatch.setattr(TwigPattern, "nodes", counting("nodes", TwigPattern.nodes))
        monkeypatch.setattr(
            TwigPattern, "__str__", counting("str", TwigPattern.__str__)
        )
        observed = []
        for publications in (20, 400):
            database = LotusXDatabase(generate_dblp(publications=publications, seed=3))
            for key in calls:
                calls[key] = 0
            response = database.search("//article[./year]/author", k=10)
            observed.append((response.total_matches, dict(calls)))
        (few, few_calls), (many, many_calls) = observed
        assert many > 10 * few > 0
        assert few_calls == many_calls
        assert few_calls["copy"] <= 2 and few_calls["str"] <= 3

    @pytest.mark.parametrize("facade", ["mono", "sharded"])
    def test_results_are_built_for_winners_only(
        self, dblp_db, sharded_db, facade, monkeypatch
    ):
        import repro.engine.topk as topk

        built = {"results": 0, "scores": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                built[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            topk, "SearchResult", counting("results", topk.SearchResult)
        )
        monkeypatch.setattr(topk, "MatchScore", counting("scores", topk.MatchScore))
        database = dblp_db if facade == "mono" else sharded_db
        response = database.search("//dblp//author", k=3)
        assert response.total_matches > 100
        assert built == {"results": 3, "scores": 3}


class TestDeadlines:
    @staticmethod
    def count_scored(monkeypatch):
        scored = []
        original = LotusXScorer.score

        def counting(self, *args, **kwargs):
            scored.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(LotusXScorer, "score", counting)
        return scored

    @staticmethod
    def tripped_deadline():
        deadline = Deadline(max_steps=0)
        with pytest.raises(DeadlineExceeded):
            deadline.check("test")
        assert deadline.tripped
        return deadline

    @pytest.mark.parametrize("facade", ["mono", "sharded"])
    def test_tripped_deadline_scores_at_most_grace_steps(
        self, dblp_db, sharded_db, facade, monkeypatch
    ):
        database = dblp_db if facade == "mono" else sharded_db
        pattern = database.parse_query("//dblp//author")
        matches = database.matches(pattern)
        salvage = matches * (GRACE_RANK_STEPS // len(matches) + 2)
        assert len(salvage) > GRACE_RANK_STEPS
        scored = self.count_scored(monkeypatch)
        results = database._rank_productive(
            [(RewriteCandidate(pattern, 0.0, ()), salvage)], 5, self.tripped_deadline()
        )
        assert len(scored) == GRACE_RANK_STEPS
        assert len(results) == 5

    def test_tripped_deadline_still_ranks_small_salvage(self, dblp_db, monkeypatch):
        pattern = dblp_db.parse_query("//article/author")
        matches = dblp_db.matches(pattern)[:40]
        scored = self.count_scored(monkeypatch)
        results = dblp_db._rank_productive(
            [(RewriteCandidate(pattern, 0.0, ()), matches)], 10, self.tripped_deadline()
        )
        assert len(scored) == 40 and len(results) == 10

    def test_expiry_mid_rank_returns_ranked_partials(
        self, dblp_db, sharded_db, monkeypatch
    ):
        """A step budget that runs out while ranking: the matches scored
        so far — a document-order prefix, the same one on both facades —
        are ranked and returned, flagged truncated."""
        query = "//dblp//author"
        scored = self.count_scored(monkeypatch)
        payloads = []
        for database in (dblp_db, sharded_db):
            database.search(query)  # compile the plans: steady-state steps
            unlimited = Deadline()
            complete = database.search(query, k=10, deadline=unlimited)
            total = complete.total_matches
            assert not complete.truncated and total > 100
            del scored[:]
            response = database.search(
                query, k=10, deadline=Deadline(max_steps=unlimited.steps - total // 2)
            )
            assert len(scored) == total - total // 2
            assert response.truncated
            assert "deadline" in response.degraded
            assert response.total_matches == total
            pattern = database.parse_query(query)
            prefix = database.matches(pattern)[: len(scored)]
            assert [hit.as_dict() for hit in response] == [
                hit.as_dict()
                for hit in database._rank_productive(
                    [(RewriteCandidate(pattern, 0.0, ()), prefix)], 10
                )
            ]
            payload = response.as_dict()
            payload.pop("elapsed_seconds")
            payloads.append(payload)
        assert payloads[0] == payloads[1]
