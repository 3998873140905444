"""The compiled-plan cache: hit/miss accounting, independence from the
match cache, LRU eviction, generation-keyed invalidation on hot reload,
and the `/api/stats` cache payload."""

from __future__ import annotations

import pytest

from repro.datasets import generate_dblp
from repro.engine.database import LotusXDatabase
from repro.server.api import handle_stats
from repro.server.reload import DatabaseHolder
from repro.twig.algorithms.common import AlgorithmStats
from repro.twig.planner import Algorithm


@pytest.fixture
def db() -> LotusXDatabase:
    return LotusXDatabase(generate_dblp(publications=12, seed=21))


def test_plan_cache_hits_and_misses(db):
    query = "//article[./title]/author"
    db.matches(query)
    assert db.counters["plan_cache_misses"] == 1
    assert db.counters["plan_cache_hits"] == 0
    # Second evaluation with stats bypasses the *match* cache but reuses
    # the compiled plan.
    db.matches(query, stats=AlgorithmStats())
    assert db.counters["plan_cache_misses"] == 1
    assert db.counters["plan_cache_hits"] == 1
    assert len(db._plan_cache) == 1


def test_plan_cache_key_discriminates(db):
    query = "//article/title"
    db.matches(query, stats=AlgorithmStats())
    db.matches(query, algorithm=Algorithm.TWIG_STACK, stats=AlgorithmStats())
    db.matches(query, prune_streams=True, stats=AlgorithmStats())
    db.matches("//article/year", stats=AlgorithmStats())
    assert db.counters["plan_cache_misses"] == 4
    assert db.counters["plan_cache_hits"] == 0
    assert len(db._plan_cache) == 4


def test_plan_cache_is_not_the_match_cache(db):
    query = "//inproceedings/author"
    first = db.matches(query)
    second = db.matches(query)
    assert second == first
    # The repeat was answered from the match cache without touching the
    # plan cache again.
    assert db.counters["match_cache_hits"] == 1
    assert db.counters["match_cache_misses"] == 1
    assert db.counters["plan_cache_misses"] == 1
    assert db.counters["plan_cache_hits"] == 0
    # Clearing the match cache forces re-execution, served by a plan hit.
    db._match_cache.clear()
    assert db.matches(query) == first
    assert db.counters["plan_cache_hits"] == 1


def test_plan_cache_evicts_lru(db):
    tags = sorted(db.labeled.tags())
    queries = [f"//{tag}" for tag in tags]
    # Fill past capacity with distinct signatures (small corpus, so
    # shrink the capacity instead of inventing hundreds of tags).
    db.PLAN_CACHE_SIZE = 4
    for query in queries[:5]:
        db.matches(query, stats=AlgorithmStats())
    assert len(db._plan_cache) == 4
    # The oldest plan fell out: evaluating it again is a miss.
    misses = db.counters["plan_cache_misses"]
    db.matches(queries[0], stats=AlgorithmStats())
    assert db.counters["plan_cache_misses"] == misses + 1
    # The most recent one is still a hit.
    hits = db.counters["plan_cache_hits"]
    db.matches(queries[4], stats=AlgorithmStats())
    assert db.counters["plan_cache_hits"] == hits + 1


def test_generation_stamp_invalidates_plans(db):
    holder = DatabaseHolder(db)
    assert db.serving_generation == 1
    query = "//article/title"
    db.matches(query, stats=AlgorithmStats())
    db.matches(query, stats=AlgorithmStats())
    assert db.counters["plan_cache_hits"] == 1
    # A swap restamps the generation; cached plans from the old
    # generation can no longer be served even to the same instance.
    holder.swap(db)
    assert db.serving_generation == 2
    db.matches(query, stats=AlgorithmStats())
    assert db.counters["plan_cache_hits"] == 1
    assert db.counters["plan_cache_misses"] == 2


def test_generation_advance_clears_stream_memo_and_completions(db):
    """Regression: stream-factory memo entries (and the completion
    cache) used to die only with the instance on hot reload — a swap
    installs a whole new database, so nothing ever went stale.  The
    live write path instead advances ``serving_generation`` on the
    *same* surviving instances (unchanged delta segments are kept), so
    the stamp move itself must shed every memoized filtered stream and
    cached completion list built under the old generation."""
    factory = db.streams
    factory.filtered_columnar_stream(
        "article", lambda el: el.level == 1, key="drill"
    )
    assert len(factory._filtered_cache) == 1
    db.complete_tag(prefix="a")
    assert db.autocomplete.cache_info()["entries"] >= 1
    db.matches("//article/title", stats=AlgorithmStats())
    assert db._plan_cache and db._match_cache is not None
    # A delta-segment apply restamps the generation without swapping
    # the instance: everything memoized under the old stamp must go.
    db.serving_generation = db.serving_generation + 1
    assert len(factory._filtered_cache) == 0
    assert not db._plan_cache
    assert not db._match_cache
    assert db.autocomplete.cache_info()["entries"] == 0
    # Re-stamping with the *same* value is a no-op (no cache churn).
    factory.filtered_columnar_stream(
        "article", lambda el: el.level == 1, key="drill"
    )
    db.serving_generation = db.serving_generation
    assert len(factory._filtered_cache) == 1


def test_parse_cache_counts(db):
    db.matches("//article/title")
    db.matches("//article/title")
    db.matches("//article/year")
    assert db.counters["parse_cache_misses"] == 2
    assert db.counters["parse_cache_hits"] == 1
    # Pattern objects bypass the parse cache entirely.
    db.matches(db.parse_query("//inproceedings"))
    assert db.counters["parse_cache_misses"] == 2
    assert db.counters["parse_cache_hits"] == 1


def test_cache_statistics_payload(db):
    db.matches("//article[./title]/author")
    db.complete_tag(prefix="a")
    stats = db.cache_statistics()
    assert stats["counters"]["plan_cache_misses"] == 1
    assert stats["counters"]["columnar_evaluations"] == 1
    assert stats["match_cache_entries"] == 1
    assert stats["plan_cache_entries"] == 1
    assert stats["parse_cache_entries"] == 1
    assert stats["columnar_enabled"] is True
    assert stats["autocomplete_cache"]["max_size"] == 256
    assert stats["autocomplete_cache"]["misses"] >= 1


def test_api_stats_exposes_caches(db):
    db.matches("//article/title")
    payload = handle_stats(db)
    caches = payload["caches"]
    assert caches == db.cache_statistics()
    assert caches["counters"]["match_cache_misses"] == 1
    assert caches["serving_generation"] == 0  # not behind a holder
