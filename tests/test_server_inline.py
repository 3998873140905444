"""Keystrokes on the event loop: ``/api/complete`` without the thread
hand-off, and the two guards that keep it from blocking the loop.

The async transport answers a keystroke on the loop thread when an
admission slot is free right now, under the request's deadline plus a
step budget (``repro.server.pipeline.INLINE_STEP_BUDGET``).  Without a
free slot the keystroke queues — or is shed — on the executor exactly
as before; over the budget it is re-run there.  Every other endpoint
still goes through the executor.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.engine.database import LotusXDatabase
from repro.resilience import faults
from repro.server import pipeline as pipeline_module
from repro.server.aio import make_async_server
from repro.server.pipeline import RequestPipeline, ServerConfig
from repro.tenant.registry import TenantRegistry

from tests.conftest import SMALL_XML
from tests.test_server_protocol import connect, raw_post, read_response

KEYSTROKE = {"kind": "tag", "query": "//article", "node": 0, "prefix": "a"}
SEARCH = {"query": "//article/author", "k": 3}


def fresh_db() -> LotusXDatabase:
    """A database with an empty completion cache: a cached answer costs
    no deadline step, so budget tests need a cold one."""
    return LotusXDatabase.from_string(SMALL_XML)


def executor_answer(payload: dict) -> bytes:
    """What the executor path answers: ``execute`` on a cold pipeline."""
    body = json.dumps(payload).encode()
    return RequestPipeline(fresh_db()).execute("POST", "/api/complete", body).body


@pytest.fixture
def serve():
    """A factory for running async servers; stops them all afterwards."""
    started = []

    def start(database=None, config: ServerConfig | None = None):
        server = make_async_server(
            database if database is not None else fresh_db(), config=config
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        started.append((server, thread))
        return server

    yield start
    for server, thread in started:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


def exchange(server, path: str, payload: dict | None = None) -> tuple[int, bytes]:
    """One request on a fresh connection: a POST of ``payload``, or a
    GET without one."""
    if payload is None:
        request = f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode()
    else:
        request = raw_post(path, payload)
    sock = connect(server)
    try:
        sock.sendall(request)
        status, _, body = read_response(sock)
        return status, body
    finally:
        sock.close()


class RefusingExecutor:
    """Stands in for the worker pool: every submission fails."""

    def __init__(self) -> None:
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        raise RuntimeError("the executor is unusable")


def test_keystroke_is_answered_without_the_executor(serve):
    server = serve()
    workers = server._executor
    refusing = server._executor = RefusingExecutor()
    try:
        status, body = exchange(server, "/api/complete", KEYSTROKE)
        assert status == 200
        assert body == executor_answer(KEYSTROKE)
        assert refusing.submitted == 0
        # A search still needs a worker: the failed hand-off drops the
        # connection without an answer.
        sock = connect(server)
        try:
            sock.sendall(raw_post("/api/search", SEARCH))
            assert sock.recv(1024) == b""
        finally:
            sock.close()
        assert refusing.submitted == 1
    finally:
        server._executor = workers
    stats = server.pipeline.stats_block()
    assert stats["inline_keystrokes"] == 1
    assert stats["inline_spills"] == 0


def test_keystroke_is_not_queued_behind_a_slow_search(serve):
    server = serve()
    latency = 1.0
    with faults.injected("engine.search", latency_s=latency):
        searching = connect(server)
        try:
            searching.sendall(raw_post("/api/search", SEARCH))
            time.sleep(0.1)  # the search is asleep on a worker thread
            started = time.perf_counter()
            status, _ = exchange(server, "/api/complete", KEYSTROKE)
            elapsed = time.perf_counter() - started
            assert status == 200
            assert elapsed < latency / 4
            status, _, _ = read_response(searching)
            assert status == 200
        finally:
            searching.close()


def test_keystroke_over_the_step_budget_reruns_on_the_executor(
    serve, monkeypatch
):
    monkeypatch.setattr(pipeline_module, "INLINE_STEP_BUDGET", 1)
    server = serve()
    status, body = exchange(server, "/api/complete", KEYSTROKE)
    assert status == 200
    # The partial inline answer was discarded: these are the executor's
    # bytes, untruncated.
    assert body == executor_answer(KEYSTROKE)
    assert json.loads(body)["truncated"] is False
    status, body = exchange(server, "/api/stats")
    coalescing = json.loads(body)["coalescing"]
    assert coalescing["inline_spills"] == 1
    assert coalescing["inline_keystrokes"] == 0
    # One request, counted once: the keystroke plus this stats call.
    assert server.pipeline.tenants.default.requests == 2


def test_wall_clock_expiry_is_answered_inline(serve):
    server = serve()
    payload = {**KEYSTROKE, "timeout_ms": 1}
    with faults.injected("autocomplete.positions", latency_s=0.01):
        status, body = exchange(server, "/api/complete", payload)
    assert status == 200
    assert json.loads(body) == {"candidates": [], "truncated": True}
    stats = server.pipeline.stats_block()
    assert stats["inline_keystrokes"] == 1
    assert stats["inline_spills"] == 0


@pytest.mark.parametrize("max_queue", [0, 1])
def test_saturated_gate_sends_the_keystroke_to_the_executor(serve, max_queue):
    """With the only slot taken, the keystroke does not wait on the loop:
    it gets the parent's outcome, a 429 with the same body (no queue) or
    a 200 once the slot frees (a queue), and the loop keeps serving."""
    config = ServerConfig(
        max_concurrency=1, max_queue=max_queue, queue_timeout_s=5.0
    )
    server = serve(config=config)
    gate = server.pipeline.gate
    with faults.injected("engine.search", latency_s=0.8):
        searching = connect(server)
        typing = connect(server)
        try:
            searching.sendall(raw_post("/api/search", SEARCH))
            deadline = time.monotonic() + 5
            while gate.snapshot()["active"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            typing.sendall(raw_post("/api/complete", KEYSTROKE))
            time.sleep(0.1)  # queued on a worker, or already shed
            # The loop is free: a static page answers at once.
            started = time.perf_counter()
            assert exchange(server, "/")[0] == 200
            assert time.perf_counter() - started < 0.4
            status, _, body = read_response(typing)
            if max_queue == 0:
                assert status == 429
                shed = server.pipeline.execute(
                    "POST", "/api/complete", json.dumps(KEYSTROKE).encode()
                )
                assert shed.status == 429
                assert body == shed.body
            else:
                assert status == 200
                assert body == executor_answer(KEYSTROKE)
            assert read_response(searching)[0] == 200
        finally:
            searching.close()
            typing.close()
    # A refused inline attempt is not a shed: only real 429s count.
    assert gate.snapshot()["shed"] == (2 if max_queue == 0 else 0)
    assert server.pipeline.inline_keystrokes == 0


def test_tenant_keystroke_takes_its_slice_inline(serve):
    registry = TenantRegistry()
    registry.add("alpha", fresh_db(), quota=1)
    registry.add("beta", fresh_db())
    server = serve(registry)
    status, body = exchange(server, "/api/t/alpha/complete", KEYSTROKE)
    assert status == 200
    assert body == executor_answer(KEYSTROKE)
    alpha = registry.get("alpha")
    assert alpha.requests == 1
    assert alpha.slice_gate.snapshot()["active"] == 0
    assert server.pipeline.gate.snapshot()["active"] == 0
    assert server.pipeline.inline_keystrokes == 1
    # The quota slice is a guard too: with alpha's one slot held, the
    # keystroke goes to the executor without touching the global gate.
    alpha.slice_gate.acquire()
    try:
        assert server.pipeline.execute_inline(
            "/api/t/alpha/complete", json.dumps(KEYSTROKE).encode()
        ) is None
        assert server.pipeline.gate.snapshot()["active"] == 0
    finally:
        alpha.slice_gate.release()
