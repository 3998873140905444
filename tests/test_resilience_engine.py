"""Deadline threading through the engine: truncation, salvage, fallback."""

import pytest

from repro.keyword.elca import find_elcas
from repro.keyword.slca import find_slcas
from repro.resilience import faults
from repro.resilience.deadline import Deadline
from repro.resilience.errors import DeadlineExceeded
from repro.twig.match import sort_matches
from repro.twig.planner import Algorithm


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestMatches:
    def test_tiny_step_budget_raises(self, small_db):
        with pytest.raises(DeadlineExceeded):
            small_db.matches("//article/author", deadline=Deadline(max_steps=1))

    @pytest.mark.parametrize(
        "algorithm",
        [
            Algorithm.NAIVE,
            Algorithm.STRUCTURAL_JOIN,
            Algorithm.PATH_STACK,
            Algorithm.TWIG_STACK,
        ],
    )
    def test_every_algorithm_honors_deadline(self, small_db, algorithm):
        with pytest.raises(DeadlineExceeded):
            small_db.matches(
                "//article/author", algorithm, deadline=Deadline(max_steps=2)
            )

    def test_deadline_bypasses_cache(self, small_db):
        full = small_db.matches("//inproceedings/author")  # populates cache
        assert full
        with pytest.raises(DeadlineExceeded):
            small_db.matches(
                "//inproceedings/author", deadline=Deadline(max_steps=1)
            )
        # The cached full answer is untouched by the truncated run.
        assert small_db.matches("//inproceedings/author") == full

    def test_partial_is_sorted_and_smaller_than_full(self, dblp_db):
        full = dblp_db.matches("//article/author")
        with faults.injected("twig.path_stack", exhaust_deadline=True, skip=40):
            with pytest.raises(DeadlineExceeded) as info:
                dblp_db.matches(
                    "//article/author", deadline=Deadline.none()
                )
        partial = info.value.partial
        assert partial is not None
        assert len(partial) < len(full)
        assert partial == sort_matches(list(partial))
        # Every salvaged match is a true match.
        assert all(match in full for match in partial)


class TestSearch:
    def test_search_without_deadline_is_not_truncated(self, small_db):
        response = small_db.search("//article/author")
        assert response.truncated is False
        assert response.degraded == ()

    def test_step_budget_truncates_gracefully(self, small_db):
        response = small_db.search(
            "//article/author", deadline=Deadline(max_steps=3)
        )
        assert response.truncated is True
        assert "deadline" in response.degraded

    def test_truncated_search_keeps_partial_results(self, dblp_db):
        full = dblp_db.search("//article/author", k=100, rewrite=False)
        with faults.injected("twig.path_stack", exhaust_deadline=True, skip=40):
            response = dblp_db.search(
                "//article/author", k=100, rewrite=False, deadline=Deadline.none()
            )
        assert response.truncated is True
        assert 0 < response.total_matches < full.total_matches

    def test_as_dict_carries_truncation_markers(self, small_db):
        data = small_db.search(
            "//article/author", deadline=Deadline(max_steps=3)
        ).as_dict()
        assert data["truncated"] is True
        assert data["degraded"] == ["deadline"]
        data = small_db.search("//article/author").as_dict()
        assert data["truncated"] is False
        assert data["degraded"] == []

    def test_timeout_ms_parameter_builds_deadline(self, small_db):
        # A generous timeout: completes untruncated.
        response = small_db.search("//article/author", timeout_ms=10_000)
        assert response.truncated is False
        assert len(response.results) == 3

    def test_rewrites_skipped_when_budget_nearly_spent(self, small_db):
        clock = FakeClock()
        deadline = Deadline(timeout_s=1.0, clock=clock)
        clock.now = 0.9  # 10% left — under the 25% near() threshold
        response = small_db.search("//book/author", deadline=deadline)
        assert response.degraded == ("rewrites-skipped",)
        assert response.truncated is False
        assert response.results == []
        assert response.rewrites_tried == 0

    def test_rewrites_explored_with_fresh_budget(self, small_db):
        # Control for the test above: same query, plenty of budget left.
        response = small_db.search("//book/author", timeout_ms=60_000)
        assert response.used_rewrites
        assert response.results

    def test_rewrite_exploration_trip_truncates(self, small_db):
        with faults.injected("rewrite.explore", exhaust_deadline=True):
            response = small_db.search(
                "//book/author", deadline=Deadline.none()
            )
        assert response.truncated is True


class TestKeyword:
    def test_keyword_truncates_gracefully(self, small_db):
        with faults.injected("keyword.slca", exhaust_deadline=True):
            response = small_db.keyword_search(
                "jiaheng twig", deadline=Deadline.none()
            )
        assert response.truncated is True
        assert response.as_dict()["truncated"] is True

    def test_keyword_untruncated_by_default(self, small_db):
        response = small_db.keyword_search("jiaheng twig")
        assert response.truncated is False
        assert response.hits

    def test_keyword_partial_from_scanned_occurrences(self, small_db):
        # Let a few occurrences through before exhausting the budget: the
        # partial contains only SLCAs derivable from those.
        full = small_db.keyword_search("jiaheng")
        with faults.injected("keyword.slca", exhaust_deadline=True, skip=2):
            response = small_db.keyword_search(
                "jiaheng", deadline=Deadline.none()
            )
        assert response.truncated is True
        assert response.total_slcas <= full.total_slcas
        full_xpaths = {hit.as_dict()["xpath"] for hit in full}
        assert all(
            hit.as_dict()["xpath"] in full_xpaths for hit in response
        )

    def test_elca_partial_is_the_slcas(self, small_labeled, small_term_index):
        terms = ("jiaheng", "twig")
        slcas = find_slcas(small_labeled, small_term_index, terms)
        with faults.injected("keyword.elca", exhaust_deadline=True):
            with pytest.raises(DeadlineExceeded) as info:
                find_elcas(
                    small_labeled, small_term_index, terms, Deadline.none()
                )
        # Every SLCA is an ELCA, so the salvage is sound.
        assert info.value.partial == slcas


class TestAutocomplete:
    def test_tag_completion_degrades_to_partial_pool(self, small_db):
        deadline = Deadline.none()
        with faults.injected("autocomplete.tags", exhaust_deadline=True):
            candidates = small_db.complete_tag(prefix="", deadline=deadline)
        assert deadline.tripped
        assert isinstance(candidates, list)
        full = small_db.complete_tag(prefix="")
        assert len(candidates) <= len(full)

    def test_tag_completion_with_context_degrades(self, small_db):
        pattern = small_db.parse_query("//article")
        deadline = Deadline.none()
        with faults.injected("autocomplete.tags", exhaust_deadline=True, skip=1):
            candidates = small_db.complete_tag(
                pattern, pattern.root, prefix="", deadline=deadline
            )
        assert deadline.tripped
        assert len(candidates) <= 2  # at most the tags admitted pre-trip

    def test_value_completion_degrades(self, small_db):
        pattern = small_db.parse_query("//article/author")
        node = pattern.nodes()[1]
        deadline = Deadline.none()
        with faults.injected("autocomplete.values", exhaust_deadline=True):
            candidates = small_db.complete_value(
                pattern, node, "jia", deadline=deadline
            )
        assert deadline.tripped
        assert candidates == []  # no positions survived the trip

    def test_completion_unaffected_without_faults(self, small_db):
        deadline = Deadline.none()
        candidates = small_db.complete_tag(prefix="a", deadline=deadline)
        assert {c.text for c in candidates} == {"article", "author"}
        assert not deadline.tripped
