"""Columnar twig kernels: agreement with the object-stream kernels,
plan-level representation selection, deadline behavior, the
object-stream fallback factory, and the filtered-stream memo."""

from __future__ import annotations

import pytest

from repro.datasets import generate_dblp
from repro.engine.database import LotusXDatabase
from repro.index.element_index import StreamFactory
from repro.resilience.deadline import Deadline
from repro.resilience.errors import DeadlineExceeded
from repro.twig.algorithms.common import AlgorithmStats
from repro.twig.match import sort_matches
from repro.twig.planner import Algorithm, evaluate

QUERIES = [
    "//article/title",
    "//inproceedings//author",
    "//article[./title]/author",
    "//article[./year]",
    "//*[./author]",
    "//dblp//article[./title][./author]",
    "ordered://article[./title][./author]",
    "//article[./note?]/title",
    "//article[not(/note)]",
]


@pytest.fixture(scope="module")
def db() -> LotusXDatabase:
    return LotusXDatabase(generate_dblp(publications=25, seed=13))


def _algorithms(pattern) -> list[Algorithm]:
    algorithms = [
        Algorithm.AUTO,
        Algorithm.STRUCTURAL_JOIN,
        Algorithm.TWIG_STACK,
        Algorithm.TJFAST,
    ]
    if pattern.is_path():
        algorithms.append(Algorithm.PATH_STACK)
    return algorithms


# ---------------------------------------------------------------------------
# Agreement: columnar and object kernels are interchangeable
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("query", QUERIES)
def test_columnar_agrees_with_object(db, query):
    pattern = db.parse_query(query)
    for algorithm in _algorithms(pattern):
        object_matches = sort_matches(
            evaluate(
                pattern, db.labeled, db.streams, algorithm, use_columnar=False
            )
        )
        columnar_matches = sort_matches(
            evaluate(
                pattern, db.labeled, db.streams, algorithm, use_columnar=True
            )
        )
        assert columnar_matches == object_matches, (query, algorithm)


@pytest.mark.parametrize("query", QUERIES)
def test_columnar_agrees_with_pruned_streams(db, query):
    pattern = db.parse_query(query)
    expected = sort_matches(
        evaluate(pattern, db.labeled, db.streams, use_columnar=False)
    )
    pruned = sort_matches(
        evaluate(
            pattern,
            db.labeled,
            db.streams,
            prune_streams=True,
            use_columnar=True,
        )
    )
    assert pruned == expected, query


def test_stats_note_records_representation(db):
    pattern = db.parse_query("//article[./title]/author")
    stats = AlgorithmStats()
    evaluate(pattern, db.labeled, db.streams, stats=stats, use_columnar=True)
    assert stats.notes["columnar"] == 1
    assert stats.elements_scanned > 0
    stats = AlgorithmStats()
    evaluate(pattern, db.labeled, db.streams, stats=stats, use_columnar=False)
    assert stats.notes["columnar"] == 0
    stats = AlgorithmStats()
    evaluate(
        pattern, db.labeled, db.streams, Algorithm.NAIVE, stats=stats
    )
    assert stats.notes["columnar"] == 0


def test_database_counts_columnar_evaluations(db):
    before = dict(db.counters)
    db.matches("//inproceedings/title", stats=AlgorithmStats())
    assert (
        db.counters["columnar_evaluations"]
        == before["columnar_evaluations"] + 1
    )
    assert db.counters["fallback_evaluations"] == before["fallback_evaluations"]


# ---------------------------------------------------------------------------
# Deadlines trip inside the columnar kernels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "query, algorithm",
    [
        ("//article/title", Algorithm.PATH_STACK),
        ("//dblp//article/author", Algorithm.PATH_STACK),
        ("//article[./title]/author", Algorithm.TWIG_STACK),
        ("//article[./title]/author", Algorithm.STRUCTURAL_JOIN),
        ("//article[./title]/author", Algorithm.TJFAST),
    ],
)
def test_columnar_kernels_honor_deadlines(db, query, algorithm):
    pattern = db.parse_query(query)
    with pytest.raises(DeadlineExceeded):
        evaluate(
            pattern,
            db.labeled,
            db.streams,
            algorithm,
            deadline=Deadline(max_steps=5),
            use_columnar=True,
        )


def test_columnar_path_stack_salvages_partial(db):
    pattern = db.parse_query("//article/title")
    full = evaluate(pattern, db.labeled, db.streams, Algorithm.PATH_STACK)
    with pytest.raises(DeadlineExceeded) as info:
        evaluate(
            pattern,
            db.labeled,
            db.streams,
            Algorithm.PATH_STACK,
            deadline=Deadline(max_steps=10),
            use_columnar=True,
        )
    partial = info.value.partial
    assert partial
    assert {m.key() for m in partial} < {m.key() for m in full}


# ---------------------------------------------------------------------------
# The object-stream fallback factory (pre-columnar snapshots)
# ---------------------------------------------------------------------------


def test_fallback_factory_serves_object_streams(db):
    factory = StreamFactory(db.labeled, db.term_index, build_columnar=False)
    assert factory.supports_columnar() is False
    assert factory.columnar is None
    with pytest.raises(RuntimeError):
        factory.columnar_stream("article")
    pattern = db.parse_query("//article[./title]/author")
    stats = AlgorithmStats()
    matches = sort_matches(
        evaluate(pattern, db.labeled, factory, stats=stats)
    )
    assert stats.notes["columnar"] == 0
    assert matches == sort_matches(
        evaluate(pattern, db.labeled, db.streams, use_columnar=True)
    )


# ---------------------------------------------------------------------------
# Filtered-stream memoization (object + columnar)
# ---------------------------------------------------------------------------


def test_filtered_stream_memoized_by_tag_and_key(db):
    factory = StreamFactory(db.labeled, db.term_index)
    calls = []

    def young(el):
        calls.append(el)
        return True

    first = factory.filtered_stream("article", young, key="k1")
    scans = len(calls)
    assert scans == len(db.labeled.stream("article"))
    # Same (tag, key): served from the memo, filter not re-run.
    assert factory.filtered_stream("article", young, key="k1") is first
    assert len(calls) == scans
    # A different key or tag re-filters.
    assert factory.filtered_stream("article", young, key="k2") is not first
    factory.filtered_stream("author", young, key="k1")
    assert len(calls) > scans
    # No key: never memoized.
    assert factory.filtered_stream("article", young) is not first


def test_filtered_columnar_stream_memoized_separately(db):
    factory = StreamFactory(db.labeled, db.term_index)
    keep = lambda el: el.region.level >= 1  # noqa: E731
    object_view = factory.filtered_stream("article", keep, key="deep")
    columnar_view = factory.filtered_columnar_stream("article", keep, key="deep")
    # Same key, different representation namespaces.
    assert factory.filtered_columnar_stream("article", keep, key="deep") is (
        columnar_view
    )
    assert columnar_view.elements == object_view


def test_filtered_stream_memo_evicts_lru(db):
    factory = StreamFactory(db.labeled, db.term_index)
    keep = lambda el: True  # noqa: E731
    first = factory.filtered_stream("article", keep, key=0)
    for key in range(1, factory.FILTER_CACHE_SIZE + 1):
        factory.filtered_stream("article", keep, key=key)
    # The oldest entry fell out; a fresh list is built for it.
    assert factory.filtered_stream("article", keep, key=0) is not first


# ---------------------------------------------------------------------------
# Per-query kernel state is freed by reference counting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("trip", [False, True])
def test_twig_stack_state_needs_no_cycle_collection(db, trip):
    """The node states link to each other (parent <-> children): the
    kernel must unlink them on the way out — normally and on a deadline
    trip — or the per-query stacks and path solutions wait for whenever
    the cycle collector next runs."""
    import gc

    from repro.twig.algorithms.twig_stack import _ColumnarNodeState

    def live_states() -> int:
        return sum(
            1 for obj in gc.get_objects() if type(obj) is _ColumnarNodeState
        )

    pattern = db.parse_query("//dblp//article[./title][./author]")
    gc.collect()
    gc.disable()
    try:
        before = live_states()
        for _ in range(3):
            if trip:
                with pytest.raises(DeadlineExceeded):
                    evaluate(
                        pattern,
                        db.labeled,
                        db.streams,
                        Algorithm.TWIG_STACK,
                        deadline=Deadline(max_steps=10),
                    )
            else:
                assert evaluate(
                    pattern, db.labeled, db.streams, Algorithm.TWIG_STACK
                )
        assert live_states() == before
    finally:
        gc.enable()
