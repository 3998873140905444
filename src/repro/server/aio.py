"""Event-driven serving front end: asyncio, keep-alive, coalescing.

The default transport of ``lotusx serve``.  One event loop accepts
connections and parses HTTP/1.1 requests; engine work runs on a bounded
thread pool behind the shared :class:`~repro.server.pipeline.RequestPipeline`
(the same pipeline object the legacy threaded transport drives, so
response bytes are identical across transports).  What the loop adds
over thread-per-request:

* **Keystrokes on the loop** — ``/api/complete`` skips the thread
  hand-off: it runs on the loop thread when an admission slot is free
  right now, under a step budget of about 1 ms of work (see
  :meth:`RequestPipeline.execute_inline`).  A keystroke without a free
  slot, or over the budget, runs on the pool like every other request.

* **Keep-alive** — a connection serves any number of requests; the
  per-request TCP + thread-spawn cost of the threaded server disappears
  from the hot path.
* **Connection limits** — at most ``ServerConfig.max_connections``
  sockets are open; further accepts are answered 429 + ``Retry-After``
  and closed (see :class:`~repro.resilience.admission.ConnectionGate`).
* **Idle / slow-loris timeout** — a connection that dribbles a partial
  request (or goes silent) for ``idle_timeout_s`` is dropped; its task
  ends, nothing leaks.
* **Protocol errors stay cheap** — a malformed request line or header
  is answered 400 and closed without ever touching the engine; a body
  whose declared length exceeds the limit is answered 413 *without
  reading it*.
* **Single-flight, loop-side** — a search or keyword request whose
  flight is already open subscribes with an ``asyncio`` future:
  followers consume no executor thread and no admission slot while they
  wait for the leader's bytes.  Keystrokes do not coalesce here.
* **Keystroke batching** — when several ``/api/complete`` requests from
  one connection are buffered together (a fast typist ahead of the
  server), only the newest runs; older ones are answered immediately
  with ``{"superseded": true}`` in arrival order.
* **Streamed search** — ``/api/search`` with ``"stream": true`` is
  written as chunked ``application/x-ndjson``: the first top-k answers
  flush before ranking completes (see
  :meth:`RequestPipeline.run_search_stream`).
"""

from __future__ import annotations

import asyncio
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from http.client import responses as _REASONS

from repro.engine.database import LotusXDatabase
from repro.resilience.admission import ConnectionGate
from repro.server.pipeline import (
    PipelineResponse,
    RequestPipeline,
    ServerConfig,
    split_tenant,
)
from repro.server.reload import DatabaseHolder
from repro.tenant.registry import TenantRegistry

#: Hard cap on the request head (request line + headers).
MAX_HEADER_BYTES = 32_768

_SERVER_NAME = "LotusX/0.1"

_INTERNAL_ERROR = PipelineResponse(
    500, b'{"error": "internal error", "code": "internal"}'
)


class ProtocolError(Exception):
    """A request so malformed the connection cannot continue."""

    def __init__(self, status: int, code: str, message: str) -> None:
        self.status = status
        self.code = code
        super().__init__(message)

    def response(self) -> PipelineResponse:
        import json

        return PipelineResponse(
            self.status,
            json.dumps({"error": str(self), "code": self.code}).encode(),
        )


@dataclass
class ParsedRequest:
    """One request decoded from the connection buffer."""

    method: str
    path: str
    version: str
    headers: dict[str, str]
    declared_length: int
    #: ``None`` when the declared length exceeded the body limit — the
    #: bytes were never read and the connection must close after the 413.
    body: bytes | None

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.1":
            return connection != "close"
        return connection == "keep-alive"

    @property
    def must_close(self) -> bool:
        return self.body is None and self.declared_length > 0


def parse_request(
    buffer: bytearray, max_body_bytes: int
) -> tuple[ParsedRequest | None, int]:
    """Decode one complete request from ``buffer``.

    Returns ``(request, bytes_consumed)``; ``(None, 0)`` when the buffer
    does not yet hold a full request (the caller reads more).  Raises
    :class:`ProtocolError` for requests that can never become valid.
    """
    head_end = buffer.find(b"\r\n\r\n")
    if head_end == -1:
        if len(buffer) > MAX_HEADER_BYTES:
            raise ProtocolError(
                431, "headers_too_large", "request header section too large"
            )
        return None, 0
    try:
        head = bytes(buffer[:head_end]).decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 never fails
        raise ProtocolError(400, "bad_request", "undecodable request head")
    lines = head.split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ProtocolError(
            400, "bad_request", f"malformed request line: {lines[0]!r}"
        )
    method, path, version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep or not name or name.strip() != name or " " in name:
            raise ProtocolError(
                400, "bad_request", f"malformed header line: {line!r}"
            )
        headers[name.lower()] = value.strip()
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise ProtocolError(
            411, "length_required", "chunked request bodies are not supported"
        )
    raw_length = headers.get("content-length", "0")
    try:
        declared_length = int(raw_length)
        if declared_length < 0:
            raise ValueError
    except ValueError:
        raise ProtocolError(
            400, "bad_request", f"bad Content-Length: {raw_length!r}"
        ) from None
    body_start = head_end + 4
    if declared_length > max_body_bytes:
        # Answer 413 without ever buffering the oversized body; the
        # connection closes because the stream cannot be resynced.
        return (
            ParsedRequest(method, path, version, headers, declared_length, None),
            len(buffer),
        )
    if len(buffer) - body_start < declared_length:
        return None, 0
    body = bytes(buffer[body_start : body_start + declared_length])
    return (
        ParsedRequest(method, path, version, headers, declared_length, body),
        body_start + declared_length,
    )


class AsyncLotusXServer:
    """The asyncio serving front end.

    Mirrors the stdlib server's lifecycle so tests and the CLI drive
    both the same way: construct (binds the socket — ``port=0`` picks a
    free port, ``server_address`` is immediately valid), run
    :meth:`serve_forever` on a thread or the main thread, then
    :meth:`shutdown` and :meth:`server_close`.
    """

    def __init__(
        self,
        database: LotusXDatabase | DatabaseHolder | TenantRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        config: ServerConfig | None = None,
        pipeline: RequestPipeline | None = None,
    ) -> None:
        self.pipeline = (
            pipeline
            if pipeline is not None
            else RequestPipeline(database, config)
        )
        self.config = self.pipeline.config
        self.connections = ConnectionGate(
            capacity=self.config.max_connections,
            retry_after_s=self.config.retry_after_s,
        )
        self.pipeline.connection_stats = self.connections.snapshot
        self._sock = socket.create_server((host, port), backlog=128)
        self.server_address = self._sock.getsockname()[:2]
        # The gate may briefly block an executor thread (bounded queue
        # wait), so the pool must outsize capacity + queue or the gate's
        # shedding semantics would be distorted by pool starvation.
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_concurrency + self.config.max_queue + 4,
            thread_name_prefix="lotusx-aio",
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._started = threading.Event()
        self._tasks: set[asyncio.Task] = set()
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def serve_forever(self) -> None:
        """Run the event loop until :meth:`shutdown` (blocking)."""
        asyncio.run(self._main())

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` from any thread (idempotent)."""
        if not self._started.wait(timeout=5):
            return
        loop, stop = self._loop, self._stop
        if loop is None or stop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(stop.set)
        except RuntimeError:
            pass  # loop already closed between the checks

    def server_close(self) -> None:
        """Release the listening socket and the worker pool."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass
        self._executor.shutdown(wait=False, cancel_futures=True)

    @property
    def open_connections(self) -> int:
        """Live connection tasks (leak detection in tests)."""
        return len(self._tasks)

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._client_connected, sock=self._sock
        )
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            for task in list(self._tasks):
                task.cancel()
            if self._tasks:
                await asyncio.gather(*self._tasks, return_exceptions=True)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _client_connected(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, asyncio.CancelledError):
            pass
        except Exception:  # pragma: no cover - defensive
            import logging

            logging.getLogger("repro.server").exception(
                "unhandled error on connection"
            )
        finally:
            if task is not None:
                self._tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _serve_connection(self, reader, writer) -> None:
        if not self.connections.try_acquire():
            refused = PipelineResponse(
                429,
                b'{"error": "connection limit reached", "code": "overloaded"}',
                headers=(
                    ("Retry-After", str(max(1, round(self.connections.retry_after_s)))),
                ),
            )
            writer.write(_frame(refused, keep_alive=False))
            await writer.drain()
            return
        try:
            await self._request_loop(reader, writer)
        finally:
            self.connections.release()

    async def _request_loop(self, reader, writer) -> None:
        buffer = bytearray()
        while True:
            try:
                request, consumed = parse_request(
                    buffer, self.config.max_body_bytes
                )
            except ProtocolError as exc:
                writer.write(_frame(exc.response(), keep_alive=False))
                await writer.drain()
                return
            if request is None:
                try:
                    chunk = await asyncio.wait_for(
                        reader.read(65_536), self.config.idle_timeout_s
                    )
                except (asyncio.TimeoutError, TimeoutError):
                    # Slow-loris / idle: drop the connection outright.
                    self.connections.count_idle_drop()
                    return
                if not chunk:
                    return  # client closed
                buffer += chunk
                continue
            del buffer[:consumed]
            # Keystroke batching: of several autocomplete requests
            # already queued on this connection, only the newest runs.
            # Batches never span request paths — two tenants' keystrokes
            # (different ``/api/t/<name>/complete`` paths) are separate
            # typing sessions and must not supersede each other.
            batch = [request]
            if self._is_keystroke(request):
                while True:
                    try:
                        queued, consumed = parse_request(
                            buffer, self.config.max_body_bytes
                        )
                    except ProtocolError:
                        break  # leave for the main loop to report
                    if (
                        queued is None
                        or not self._is_keystroke(queued)
                        or queued.path != request.path
                    ):
                        break
                    del buffer[:consumed]
                    batch.append(queued)
            for stale in batch[:-1]:
                response = self.pipeline.superseded_response()
                writer.write(_frame(response, keep_alive=True))
            request = batch[-1]
            keep_alive = await self._respond(writer, request)
            await writer.drain()
            if not keep_alive:
                return

    @staticmethod
    def _is_keystroke(request: ParsedRequest) -> bool:
        return (
            request.method == "POST"
            and split_tenant(request.path)[1] == "/api/complete"
            and request.body is not None
        )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    async def _respond(self, writer, request: ParsedRequest) -> bool:
        """Write the response for ``request``; returns keep-alive."""
        pipeline = self.pipeline
        keep_alive = request.keep_alive and not request.must_close
        if pipeline.is_static(request.method, request.path):
            # Static GUI shell: no engine work, answer on the loop.
            response = pipeline.execute(request.method, request.path, b"", 0)
        elif self._is_keystroke(request):
            # On the loop too, unless no slot is free or the keystroke
            # overruns its step budget: then a worker runs it.  Nothing
            # to coalesce — the loop reads no request until it is done.
            response = pipeline.execute_inline(
                request.path, request.body, request.declared_length
            )
            if response is None:
                response = await self._run(
                    pipeline.execute,
                    request.method,
                    request.path,
                    request.body,
                    request.declared_length,
                )
        elif pipeline.wants_stream(request.method, request.path, request.body):
            return await self._respond_stream(writer, request, keep_alive)
        else:
            key = pipeline.coalesce_key(
                request.method, request.path, request.body
            )
            if key is None:
                response = await self._run(
                    pipeline.execute,
                    request.method,
                    request.path,
                    request.body,
                    request.declared_length,
                )
            else:
                flight, leader = pipeline.flights.join(key)
                if leader:
                    response = None
                    try:
                        response = await self._run(
                            pipeline.execute,
                            request.method,
                            request.path,
                            request.body,
                            request.declared_length,
                        )
                    finally:
                        pipeline.flights.finish(
                            key, flight, response or _INTERNAL_ERROR
                        )
                else:
                    # Follower: no executor thread, no admission slot —
                    # just an awaited future for the leader's bytes.
                    response = await flight.subscribe(self._loop)
        writer.write(_frame(response, keep_alive=keep_alive))
        return keep_alive

    async def _respond_stream(
        self, writer, request: ParsedRequest, keep_alive: bool
    ) -> bool:
        """Chunked ndjson search: flush answers as the pipeline emits."""
        loop = self._loop
        started = False

        def write_chunk(chunk: bytes) -> None:
            nonlocal started
            if not started:
                started = True
                connection = "keep-alive" if keep_alive else "close"
                writer.write(
                    (
                        "HTTP/1.1 200 OK\r\n"
                        f"Server: {_SERVER_NAME}\r\n"
                        "Content-Type: application/x-ndjson; charset=utf-8\r\n"
                        "Transfer-Encoding: chunked\r\n"
                        f"Connection: {connection}\r\n\r\n"
                    ).encode("latin-1")
                )
            writer.write(f"{len(chunk):x}\r\n".encode("latin-1") + chunk + b"\r\n")

        def emit(chunk: bytes) -> None:
            # Called from the executor thread; the loop serializes
            # writes, and chunks scheduled here run before the executor
            # future's completion callback, preserving order.
            loop.call_soon_threadsafe(write_chunk, chunk)

        fallback = await self._run(
            self.pipeline.run_search_stream,
            request.path,
            request.body,
            request.declared_length,
            emit,
        )
        if fallback is not None:
            writer.write(_frame(fallback, keep_alive=keep_alive))
            return keep_alive
        writer.write(b"0\r\n\r\n")
        return keep_alive

    async def _run(self, fn, *args):
        return await self._loop.run_in_executor(self._executor, fn, *args)


def _frame(response: PipelineResponse, keep_alive: bool) -> bytes:
    """Serialize a :class:`PipelineResponse` as HTTP/1.1 bytes."""
    reason = _REASONS.get(response.status, "Unknown")
    lines = [
        f"HTTP/1.1 {response.status} {reason}",
        f"Server: {_SERVER_NAME}",
        f"Content-Type: {response.content_type}; charset=utf-8",
        f"Content-Length: {len(response.body)}",
    ]
    lines.extend(f"{name}: {value}" for name, value in response.headers)
    lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + response.body


def make_async_server(
    database: LotusXDatabase | DatabaseHolder | TenantRegistry,
    host: str = "127.0.0.1",
    port: int = 0,
    config: ServerConfig | None = None,
    pipeline: RequestPipeline | None = None,
) -> AsyncLotusXServer:
    """Create (but don't start) an async server — port 0 picks a free
    port.  Used by tests and by callers that manage the serving thread."""
    return AsyncLotusXServer(database, host, port, config, pipeline)


def serve_async(
    database: LotusXDatabase | DatabaseHolder | TenantRegistry,
    host: str = "127.0.0.1",
    port: int = 8080,
    config: ServerConfig | None = None,
) -> None:
    """Serve ``database`` on the event loop until interrupted (blocking)."""
    server = AsyncLotusXServer(database, host, port, config)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        raise
    finally:
        server.server_close()
