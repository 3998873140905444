"""The per-database match cache."""

import time

import pytest

from repro.engine.database import LotusXDatabase
from repro.twig.planner import Algorithm


@pytest.fixture()
def db(small_db):
    # A fresh database per test so cache state is isolated.
    from tests.conftest import SMALL_XML

    return LotusXDatabase.from_string(SMALL_XML)


class TestMatchCache:
    def test_repeat_queries_hit_the_cache(self, db):
        first = db.matches("//article/author")
        assert len(db._match_cache) == 1
        second = db.matches("//article/author")
        assert first == second
        assert len(db._match_cache) == 1

    def test_cached_result_is_isolated(self, db):
        first = db.matches("//article/author")
        first.clear()  # caller mutates its copy
        assert len(db.matches("//article/author")) == 3

    def test_equivalent_text_and_pattern_share_entry(self, db):
        db.matches("//article/author")
        db.matches(db.parse_query("//article/author"))
        assert len(db._match_cache) == 1

    def test_algorithm_keyed_separately(self, db):
        db.matches("//article/author", Algorithm.TWIG_STACK)
        db.matches("//article/author", Algorithm.NAIVE)
        assert len(db._match_cache) == 2

    def test_stats_calls_bypass_cache(self, db):
        from repro.twig.algorithms.common import AlgorithmStats

        stats = AlgorithmStats()
        db.matches("//article/author", stats=stats)
        assert stats.matches == 3
        assert len(db._match_cache) == 0

    def test_eviction_respects_cap(self, db):
        db.MATCH_CACHE_SIZE = 3
        tags = ["article", "author", "title", "year", "journal"]
        for tag in tags:
            db.matches(f"//{tag}")
        assert len(db._match_cache) == 3

    def test_cache_speeds_up_repeats(self):
        from repro.datasets import generate_dblp

        big = LotusXDatabase(generate_dblp(publications=400, seed=8))
        query = "//dblp//author"
        started = time.perf_counter()
        big.matches(query)
        cold = time.perf_counter() - started
        started = time.perf_counter()
        big.matches(query)
        warm = time.perf_counter() - started
        assert warm < cold


def _article_title(skip_an_id: bool):
    """``//article/title``, its title numbered 1 — or 2, when a node was
    added and removed first (as an editing session does)."""
    from repro.twig.pattern import TwigPattern

    pattern = TwigPattern("article")
    if skip_an_id:
        dropped = pattern.add_child(pattern.root, "year")
        pattern.root.children.remove(dropped)
    pattern.add_child(pattern.root, "title")
    return pattern


@pytest.mark.parametrize("facade", ["mono", "sharded"])
def test_cache_key_includes_node_ids(facade):
    """Two equal patterns numbered differently must not share an entry:
    the cached matches are keyed by node id."""
    from repro.shard.database import ShardedDatabase
    from repro.xmlio.builder import parse_string
    from tests.conftest import SMALL_XML

    def build():
        if facade == "mono":
            return LotusXDatabase.from_string(SMALL_XML)
        return ShardedDatabase.from_document(
            parse_string(SMALL_XML), shards=2, executor_mode="serial"
        )

    warm, fresh = build(), build()
    try:
        warm.matches(_article_title(skip_an_id=False))
        renumbered = _article_title(skip_an_id=True)
        assert [node.node_id for node in renumbered.nodes()] == [0, 2]
        got = warm.matches(renumbered)
        expected = fresh.matches(renumbered)
        assert [sorted(m.assignments) for m in expected] == [[0, 2]] * 2
        assert [m.key() for m in got] == [m.key() for m in expected]
        assert [sorted(m.assignments) for m in got] == [[0, 2]] * 2
    finally:
        for database in (warm, fresh):
            close = getattr(database, "close", None)
            if close is not None:
                close()
