"""The LotusXDatabase facade: search, ranking, rewriting, explain."""

import pytest

from repro.engine.database import LotusXDatabase
from repro.twig.planner import Algorithm


class TestConstruction:
    def test_from_string(self, small_db):
        assert len(small_db.labeled) == 31

    def test_from_file(self, tmp_path):
        path = tmp_path / "tiny.xml"
        path.write_text("<r><a>x</a></r>", encoding="utf-8")
        db = LotusXDatabase.from_file(path)
        assert len(db.labeled) == 2

    def test_statistics(self, small_db):
        stats = small_db.statistics()
        assert stats.element_count == 31
        assert stats.distinct_tags == 11


class TestMatches:
    def test_string_query(self, small_db):
        assert len(small_db.matches("//article/author")) == 3

    def test_pattern_query(self, small_db):
        pattern = small_db.parse_query("//article/author")
        assert len(small_db.matches(pattern)) == 3

    def test_matches_sorted(self, small_db):
        matches = small_db.matches("//dblp//author")
        keys = [match.order_key() for match in matches]
        assert keys == sorted(keys)

    def test_algorithm_override(self, small_db):
        for algorithm in Algorithm:
            assert len(small_db.matches("//article/author", algorithm)) == 3


class TestSearch:
    def test_basic_search(self, small_db):
        response = small_db.search('//article[./title~"twig"]/author')
        assert len(response) == 2
        assert response.total_matches == 2
        assert not response.used_rewrites
        assert response.elapsed_seconds > 0

    def test_results_ranked(self, small_db):
        response = small_db.search("//dblp//author", k=20)
        scores = [hit.score.combined for hit in response]
        assert scores == sorted(scores, reverse=True)

    def test_k_caps_results(self, small_db):
        response = small_db.search("//dblp//author", k=3)
        assert len(response) == 3
        assert response.total_matches == 9

    def test_distinct_outputs(self, small_db):
        # Two authors on the same article yield one result per author
        # element (output = author), not per full embedding.
        response = small_db.search("//inproceedings/author", k=20)
        xpaths = [hit.xpath for hit in response]
        assert len(xpaths) == len(set(xpaths)) == 5

    def test_empty_query_rewrites(self, small_db):
        response = small_db.search("//book/author")  # author is under editor
        assert response.used_rewrites
        assert response.results
        assert response.results[0].rewrite_steps
        assert response.results[0].score.rewrite_penalty > 0

    def test_rewrite_disabled(self, small_db):
        response = small_db.search("//book/author", rewrite=False)
        assert not response.used_rewrites
        assert len(response) == 0

    def test_rewritten_results_rank_below_exact(self, small_db):
        # min_results high enough to force rewrites alongside exact hits.
        response = small_db.search("//article/author", k=20, min_results=10)
        exact = [hit for hit in response if not hit.rewrite_steps]
        rewritten = [hit for hit in response if hit.rewrite_steps]
        assert exact and rewritten
        assert min(h.score.combined for h in exact) >= max(
            h.score.combined for h in rewritten
        ) or all(
            e.score.combined >= rewritten[0].score.combined for e in exact
        )

    def test_search_response_as_dict(self, small_db):
        data = small_db.search("//article/title").as_dict()
        assert data["query"]
        assert isinstance(data["results"], list)
        assert data["results"][0]["xpath"].startswith("/dblp")


class TestProfile:
    def test_profile_reports_all_algorithms(self, small_db):
        data = small_db.profile("//article[./author]/title")
        names = {row["algorithm"] for row in data["profiles"]}
        assert names == {"structural-join", "twig-stack"}
        for row in data["profiles"]:
            assert row["matches"] == 3  # one embedding per (author, title)
            assert row["median_ms"] >= 0

    def test_profile_includes_pathstack_for_paths(self, small_db):
        data = small_db.profile("//article/author")
        names = [row["algorithm"] for row in data["profiles"]]
        assert "path-stack" in names

    def test_profile_carries_plan(self, small_db):
        data = small_db.profile("//article/author")
        assert data["xpath"] == "//article/author"
        assert data["nodes"]


class TestTranslationAndExplain:
    def test_to_xpath(self, small_db):
        xpath = small_db.to_xpath('//article[./title~"twig"]/author')
        assert xpath == '//article[title[contains(., "twig")]]/author'

    def test_to_xquery(self, small_db):
        xquery = small_db.to_xquery("//article/title")
        assert xquery.startswith("for $m in doc($input)//article")
        assert "return" in xquery

    def test_explain(self, small_db):
        plan = small_db.explain("//article[./author][./year]")
        assert plan["algorithm"] == "twig-stack"
        assert len(plan["nodes"]) == 3
        sizes = {node["tag"]: node["stream_size"] for node in plan["nodes"]}
        assert sizes["article"] == 2
        assert sizes["author"] == 9
        assert plan["nodes"][0]["positions"] == ["/dblp/article"]
