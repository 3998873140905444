"""Single-flight coalescing under real concurrency.

The claim under test: N identical concurrent requests cost *one* engine
evaluation, and every caller receives byte-identical response bytes —
except keystrokes on the event-driven transport, which run on the loop
one at a time and so are each evaluated (still byte-identical).
A deterministic fault (``server.request`` latency) holds the leader's
evaluation open long enough for followers to pile in, and the fault's
own hit counter is the ground truth for "exactly one evaluation" —
``fault_point("server.request", ...)`` fires once per executed request,
and followers never execute.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.resilience import faults
from repro.server.aio import make_async_server
from repro.server.app import make_server
from repro.server.pipeline import RequestPipeline, ServerConfig

#: Generous limits: this file tests dedup, not shedding.
ROOMY_CONFIG = ServerConfig(max_concurrency=8, max_queue=32)


@pytest.fixture()
def async_url(small_db):
    server = make_async_server(small_db, config=ROOMY_CONFIG)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    yield f"http://{host}:{port}", server
    server.shutdown()
    thread.join(timeout=5)
    server.server_close()


@pytest.fixture()
def threaded_url(small_db):
    server = make_server(small_db, config=ROOMY_CONFIG)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def post_bytes(base_url: str, path: str, payload: dict) -> tuple[int, bytes]:
    request = urllib.request.Request(
        base_url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=15) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def storm(base_url: str, path: str, payload: dict, n: int, stagger_s: float):
    """One leader, then ``n - 1`` identical requests while it runs."""
    results: list[tuple[int, bytes]] = []
    lock = threading.Lock()

    def fire():
        outcome = post_bytes(base_url, path, payload)
        with lock:
            results.append(outcome)

    threads = [threading.Thread(target=fire) for _ in range(n)]
    threads[0].start()
    time.sleep(stagger_s)  # let the leader open the flight
    for thread in threads[1:]:
        thread.start()
    for thread in threads:
        thread.join(timeout=20)
    assert len(results) == n
    return results


class TestSingleFlight:
    @pytest.mark.parametrize("path,payload", [
        ("/api/search", {"query": "//article/author", "k": 3}),
        ("/api/keyword", {"query": "jiaheng twig", "k": 5}),
        ("/api/complete", {"prefix": "au", "k": 5}),
    ])
    def test_identical_requests_share_one_evaluation(
        self, async_url, path, payload
    ):
        base_url, server = async_url
        with faults.injected("server.request", latency_s=0.4) as fault:
            results = storm(base_url, path, payload, n=6, stagger_s=0.15)
            hits = fault.hits
        statuses = {status for status, _ in results}
        bodies = {body for _, body in results}
        assert statuses == {200}
        assert len(bodies) == 1  # all six byte-identical
        # Keystrokes run on the event loop one at a time: each is
        # evaluated, and none finds an open flight to follow.
        keystroke = path == "/api/complete"
        assert hits == (6 if keystroke else 1)  # engine evaluations
        snap = server.pipeline.flights.snapshot()
        assert snap["flights"] == (0 if keystroke else 1)
        assert snap["followers"] == (0 if keystroke else 5)
        assert snap["in_flight"] == 0

    def test_counters_surface_in_api_stats(self, async_url):
        base_url, _ = async_url
        payload = {"query": "//article/author", "k": 2}
        with faults.injected("server.request", latency_s=0.3):
            storm(base_url, "/api/search", payload, n=4, stagger_s=0.1)
        with urllib.request.urlopen(base_url + "/api/stats", timeout=10) as r:
            stats = json.load(r)
        coalescing = stats["coalescing"]
        assert coalescing["flights"] == 1
        assert coalescing["followers"] == 3
        assert coalescing["in_flight"] == 0
        assert coalescing["superseded_keystrokes"] == 0

    def test_error_responses_coalesce_too(self, async_url):
        base_url, _ = async_url
        payload = {"query": "//article", "k": 1}
        with faults.injected(
            "server.request", latency_s=0.3, error=RuntimeError("boom")
        ) as fault:
            results = storm(base_url, "/api/search", payload, n=4, stagger_s=0.1)
            hits = fault.hits
        assert hits == 1
        assert {status for status, _ in results} == {500}
        assert len({body for _, body in results}) == 1

    def test_distinct_payloads_do_not_coalesce(self, async_url):
        base_url, server = async_url
        with faults.injected("server.request", latency_s=0.05) as fault:
            results = []
            lock = threading.Lock()

            def fire(k):
                outcome = post_bytes(
                    base_url, "/api/search", {"query": "//article/author", "k": k}
                )
                with lock:
                    results.append(outcome)

            threads = [
                threading.Thread(target=fire, args=(k,)) for k in (1, 2, 3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20)
            hits = fault.hits
        assert hits == 3
        assert {status for status, _ in results} == {200}
        assert server.pipeline.flights.snapshot()["followers"] == 0

    def test_generation_bump_splits_the_flight(self, async_url, small_db):
        """A request against the new generation never receives a stale
        generation's answer: the serving generation is part of the
        flight key, so a hot-reload swap mid-flight opens a new one."""
        base_url, server = async_url
        payload = {"query": "//article/author", "k": 3}
        pipeline = server.pipeline
        before = pipeline.coalesce_key("POST", "/api/search", json.dumps(payload).encode())
        results: list[tuple[int, bytes]] = []
        lock = threading.Lock()

        def fire():
            outcome = post_bytes(base_url, "/api/search", payload)
            with lock:
                results.append(outcome)

        with faults.injected("server.request", latency_s=0.5, times=1) as fault:
            leader = threading.Thread(target=fire)
            leader.start()
            time.sleep(0.15)  # the old generation's flight is open
            pipeline.holder.swap(small_db)  # hot reload lands
            late = threading.Thread(target=fire)
            late.start()
            leader.join(timeout=20)
            late.join(timeout=20)
            hits = fault.hits
        after = pipeline.coalesce_key("POST", "/api/search", json.dumps(payload).encode())
        assert before != after  # generation is part of the key
        assert hits == 2  # the late request led its own flight
        snap = pipeline.flights.snapshot()
        assert snap["flights"] == 2
        assert snap["followers"] == 0
        assert {status for status, _ in results} == {200}

    def test_threaded_transport_coalesces_identically(self, threaded_url):
        """The legacy transport drives the same pipeline: identical
        concurrent requests dedup there too."""
        base_url, server = threaded_url
        payload = {"query": "//article/author", "k": 3}
        with faults.injected("server.request", latency_s=0.4) as fault:
            results = storm(base_url, "/api/search", payload, n=5, stagger_s=0.15)
            hits = fault.hits
        assert hits == 1
        assert {status for status, _ in results} == {200}
        assert len({body for _, body in results}) == 1
        snap = server.pipeline.flights.snapshot()
        assert snap["flights"] == 1
        assert snap["followers"] == 4

    def test_streamed_requests_never_coalesce(self, small_db):
        pipeline = RequestPipeline(small_db)
        body = json.dumps(
            {"query": "//article/author", "stream": True}
        ).encode()
        assert pipeline.coalesce_key("POST", "/api/search", body) is None
        assert pipeline.wants_stream("POST", "/api/search", body)
