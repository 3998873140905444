"""Serving a sharded fleet: routing, executors, HTTP API, hot reload."""

from __future__ import annotations

import json
import multiprocessing
import threading
import urllib.request

import pytest

from repro.datasets import generate_dblp_xml
from repro.engine.database import LotusXDatabase
from repro.resilience.deadline import Deadline
from repro.resilience.errors import DeadlineExceeded
from repro.server.app import make_server
from repro.server.reload import DatabaseHolder, ReloadSource, serving_element_count
from repro.shard.database import ShardedDatabase
from repro.twig.planner import Algorithm


@pytest.fixture(scope="module")
def fleet():
    database = ShardedDatabase.from_string(
        generate_dblp_xml(80, 9), 3
    )
    yield database
    database.close()


# ---------------------------------------------------------------------------
# Routing and pruning
# ---------------------------------------------------------------------------


def test_router_prunes_infeasible_shards():
    # Heterogeneous sections: after a 2-shard split the <book> units and
    # the <cd> units land on different shards, so tag routing must skip
    # the shard that cannot possibly answer.
    xml_text = (
        "<lib>"
        + "".join(f"<book><title>b{i} saga</title></book>" for i in range(6))
        + "".join(f"<cd><artist>a{i} band</artist></cd>" for i in range(6))
        + "</lib>"
    )
    fleet = ShardedDatabase.from_string(xml_text, 2)
    try:
        tag_sets = [
            set(shard.labeled.tags()) - {"lib"} for shard in fleet.shards
        ]
        assert "cd" not in tag_sets[0] or "book" not in tag_sets[1]
        assert fleet.matches("//book/title")  # answered from one shard
        stats = fleet.router.statistics()
        assert stats["pattern_queries"] == 1
        assert stats["pruned_queries"] == 1
        assert stats["shards_pruned"] == 1
        # Keyword routing prunes on term presence the same way.
        fleet.keyword_search("saga")
        stats = fleet.router.statistics()
        assert stats["keyword_queries"] == 1
        assert stats["shards_pruned"] == 2
    finally:
        fleet.close()


def test_spine_rooted_query_falls_back(fleet):
    before = fleet.router.statistics()["fallback_queries"]
    mono = LotusXDatabase.from_string(generate_dblp_xml(80, 9))
    query = "//dblp[./article][./inproceedings]"
    expected = {
        tuple(sorted((n, e.region.start) for n, e in m.assignments.items()))
        for m in mono.matches(query)
    }
    got = {
        tuple(sorted((n, e.region.start) for n, e in m.assignments.items()))
        for m in fleet.matches(query)
    }
    assert got == expected
    assert fleet.router.statistics()["fallback_queries"] > before


def test_cache_statistics_expose_fleet_detail(fleet):
    stats = fleet.cache_statistics()
    assert stats["shard_count"] == 3
    assert len(stats["per_shard"]) == 3
    assert set(stats["router"]) >= {"pruned_queries", "shards_pruned"}
    assert "scatter_evaluations" in stats["counters"]


# ---------------------------------------------------------------------------
# Inline dispatch and deadlines
# ---------------------------------------------------------------------------


def test_serving_a_sharded_corpus_spawns_nothing():
    """Scatters run inline: no forked worker, no shard thread pool."""
    database = ShardedDatabase.from_string(generate_dblp_xml(60, 5), 3)
    try:
        matches = database.matches("//article[./year]/title")
        assert len({match.shard for match in matches}) == 3
        assert database.keyword_search("xml").hits
        assert multiprocessing.active_children() == []
        assert not [
            thread
            for thread in threading.enumerate()
            if thread.name.startswith("lotusx-shard")
        ]
    finally:
        database.close()


def test_each_shard_gets_the_budget_left_when_it_starts(fleet):
    """A slow first shard spends the scatter's budget: the shards after
    it start with nothing left and trip instead of running past the
    caller's deadline."""
    from repro.resilience import faults

    pattern = fleet.parse_query("//article/title")
    payload = {
        "pattern": pattern,
        "algorithm": Algorithm.AUTO,
        "prune_streams": False,
        "collect_stats": False,
    }
    faults.install_spec("shard.worker.0:latency=0.2")
    outcomes = fleet.executor.run(
        [0, 1, 2], "matches", payload, Deadline.after_ms(80)
    )
    assert [outcome.shard_index for outcome in outcomes] == [0, 1, 2]
    assert outcomes[1].tripped and outcomes[2].tripped
    assert not any(outcome.failed for outcome in outcomes)


def test_expired_deadline_raises_with_partial(fleet):
    deadline = Deadline(timeout_s=0.0)
    with pytest.raises(DeadlineExceeded):
        fleet.matches("//article/author", deadline=deadline)


# ---------------------------------------------------------------------------
# Reload source and HTTP serving
# ---------------------------------------------------------------------------


def test_reload_source_rejects_sharded_attribute_expansion():
    with pytest.raises(ValueError):
        ReloadSource("xml", "corpus.xml", expand_attributes=True, shards=2)


def test_serving_element_count_both_flavors(fleet):
    mono = LotusXDatabase.from_string("<r><a>x</a></r>")
    assert serving_element_count(mono) == 2
    assert serving_element_count(fleet) == fleet.element_count


def test_http_api_over_sharded_fleet(tmp_path):
    corpus = tmp_path / "corpus.xml"
    corpus.write_text(generate_dblp_xml(60, 13), encoding="utf-8")
    database = ShardedDatabase.from_file(corpus, 2)
    holder = DatabaseHolder(
        database, ReloadSource("xml", str(corpus), shards=2)
    )
    server = make_server(holder)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def get(path):
        with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as reply:
            return json.loads(reply.read())

    def post(path, payload):
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as reply:
            return json.loads(reply.read())

    try:
        stats = get("/api/stats")
        assert stats["generation"] == 1
        assert stats["caches"]["shard_count"] == 2
        assert len(stats["caches"]["per_shard"]) == 2
        assert "router" in stats["caches"]

        search = post("/api/search", {"query": "//article/title", "k": 3})
        assert search["results"]

        keyword = post("/api/keyword", {"query": "xml", "k": 3})
        assert "hits" in keyword

        complete = post(
            "/api/complete", {"kind": "tag", "prefix": "a", "query": "//article"}
        )
        assert complete["candidates"]

        # Hot reload rebuilds the whole fleet and bumps the generation.
        reload_reply = post("/api/reload", {})
        assert reload_reply["generation"] == 2
        assert get("/api/stats")["generation"] == 2
    finally:
        server.shutdown()
        server.server_close()
        holder.current.close()


# ---------------------------------------------------------------------------
# Streamed first answers carry corpus-wide ordinals
# ---------------------------------------------------------------------------


def _streamed_lines(database, query: str, k: int) -> list[dict]:
    from repro.server.pipeline import RequestPipeline

    chunks: list[bytes] = []
    body = json.dumps({"query": query, "k": k, "stream": True}).encode()
    fallback = RequestPipeline(database).run_search_stream(
        "/api/search", body, len(body), chunks.append
    )
    assert fallback is None, fallback
    return [json.loads(chunk) for chunk in chunks]


_EIGHT_ARTICLES = (
    "<dblp>"
    + "".join(
        f"<article><title>paper {i}</title><author>writer {i}</author></article>"
        for i in range(8)
    )
    + "</dblp>"
)
_STREAM_QUERIES = ["//article/title", "//article[./title]/author", "//article"]


def test_streamed_first_answers_use_global_ordinals_on_four_shards():
    """Regression: the preliminary ``first`` line rendered depth-1
    ordinals shard-locally — 8 articles over 4 shards streamed
    ``article[1], article[2]`` four times."""
    mono = LotusXDatabase.from_string(_EIGHT_ARTICLES)
    sharded = ShardedDatabase.from_string(_EIGHT_ARTICLES, 4)
    try:
        for query in _STREAM_QUERIES:
            expected, final = _streamed_lines(mono, query, 8)
            preliminary, ranked = _streamed_lines(sharded, query, 8)
            assert preliminary == expected, query
            assert len(set(preliminary["first"])) == 8
            assert preliminary["first"][-1].startswith("/dblp[1]/article[8]")
            # ...and agree with what the ranked pass calls the same hits.
            assert sorted(preliminary["first"]) == sorted(
                hit["xpath"] for hit in ranked["results"]
            )
    finally:
        sharded.close()


def test_streamed_first_answers_use_global_ordinals_on_writable_corpus(tmp_path):
    from repro.write.writer import open_writable_database

    database = open_writable_database(
        LotusXDatabase.from_string(_EIGHT_ARTICLES),
        tmp_path / "stream.lxwal",
        synchronous=True,
    )
    try:
        for i in range(8, 12):
            database.writer.insert_document(
                f"<article><title>paper {i}</title><author>writer {i}</author></article>"
            )
        mono = LotusXDatabase(database.writer._corpus.checkpoint_document())
        for query in _STREAM_QUERIES:
            expected, _ = _streamed_lines(mono, query, 12)
            preliminary, _ = _streamed_lines(database, query, 12)
            assert preliminary == expected, query
            assert len(set(preliminary["first"])) == 12
    finally:
        database.close()
