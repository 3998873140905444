"""Columnar twig kernels: agreement with the naive oracle, pruned
streams, evaluation counters, deadline behavior, and the filtered-stream
memo."""

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
from tests.kernels import kernels_for

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


# ---------------------------------------------------------------------------
# Agreement: every kernel equals the naive oracle, pruned or not
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("query", QUERIES)
def test_columnar_agrees_with_naive(db, query):
    pattern = db.parse_query(query)
    expected = sort_matches(
        evaluate(pattern, db.labeled, db.streams, Algorithm.NAIVE)
    )
    for algorithm in [Algorithm.AUTO, *kernels_for(pattern)]:
        got = sort_matches(evaluate(pattern, db.labeled, db.streams, algorithm))
        assert got == expected, (query, algorithm)


@pytest.mark.parametrize("query", QUERIES)
def test_columnar_agrees_with_pruned_streams(db, query):
    pattern = db.parse_query(query)
    expected = sort_matches(evaluate(pattern, db.labeled, db.streams))
    pruned = sort_matches(
        evaluate(pattern, db.labeled, db.streams, prune_streams=True)
    )
    assert pruned == expected, query


def test_database_counts_columnar_evaluations(db):
    before = dict(db.counters)
    db.matches("//inproceedings/title", stats=AlgorithmStats())
    assert (
        db.counters["columnar_evaluations"]
        == before["columnar_evaluations"] + 1
    )
    assert db.counters["fallback_evaluations"] == before["fallback_evaluations"]
    db.matches("//inproceedings/title", Algorithm.NAIVE, stats=AlgorithmStats())
    assert (
        db.counters["fallback_evaluations"]
        == before["fallback_evaluations"] + 1
    )


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
        )
    partial = info.value.partial
    assert partial
    assert {m.key() for m in partial} < {m.key() for m in full}


# ---------------------------------------------------------------------------
# Filtered-stream memoization
# ---------------------------------------------------------------------------


def test_filtered_stream_memoized_by_tag_and_key(db):
    factory = StreamFactory(db.labeled, db.term_index)
    calls = []

    def young(el):
        calls.append(el)
        return True

    first = factory.filtered_columnar_stream("article", young, key="k1")
    scans = len(calls)
    assert scans == len(db.labeled.stream("article"))
    # Same (tag, key): served from the memo, filter not re-run.
    assert factory.filtered_columnar_stream("article", young, key="k1") is first
    assert len(calls) == scans
    # A different key or tag re-filters.
    assert (
        factory.filtered_columnar_stream("article", young, key="k2")
        is not first
    )
    factory.filtered_columnar_stream("author", young, key="k1")
    assert len(calls) > scans
    # No key: never memoized.
    assert factory.filtered_columnar_stream("article", young) is not first


def test_filtered_columnar_stream_memoized_separately(db):
    """One memo entry per (tag, key): the same key under another tag is a
    separate view, and each view holds exactly its filtered elements."""
    factory = StreamFactory(db.labeled, db.term_index)
    keep = lambda el: el.region.level >= 1  # noqa: E731
    article_view = factory.filtered_columnar_stream("article", keep, key="deep")
    title_view = factory.filtered_columnar_stream("title", keep, key="deep")
    assert factory.filtered_columnar_stream("article", keep, key="deep") is (
        article_view
    )
    assert title_view is not article_view
    assert article_view.elements == [
        el for el in db.labeled.stream("article") if keep(el)
    ]
    assert title_view.elements == [
        el for el in db.labeled.stream("title") if keep(el)
    ]


def test_filtered_stream_memo_evicts_lru(db):
    factory = StreamFactory(db.labeled, db.term_index)
    keep = lambda el: True  # noqa: E731
    first = factory.filtered_columnar_stream("article", keep, key=0)
    for key in range(1, factory.FILTER_CACHE_SIZE + 1):
        factory.filtered_columnar_stream("article", keep, key=key)
    # The oldest entry fell out; a fresh view is built for it.
    assert factory.filtered_columnar_stream("article", keep, key=0) is not first


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
