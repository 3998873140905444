"""Transport-agnostic request pipeline: parse → admit → dispatch → serialize.

Both serving transports — the event-driven asyncio front end
(:mod:`repro.server.aio`, the default) and the legacy thread-per-request
server (:mod:`repro.server.app`) — drive one :class:`RequestPipeline`
per server.  The pipeline owns everything that must be *per-server*
rather than per-connection or per-handler-class:

* the :class:`ServerConfig` limits,
* the admission gate (429 + ``Retry-After`` shedding),
* the :class:`~repro.server.reload.DatabaseHolder` (serving generations),
* the single-flight table (request coalescing) and its counters.

Because the pipeline serializes responses itself (JSON bytes, status,
headers), the two transports cannot drift: for the same request bytes
they produce the same response bytes, which is what the differential
soak suite asserts.

**Single-flight coalescing.**  Concurrent *identical* requests to the
read-only query endpoints (``/api/search``, ``/api/keyword``,
``/api/complete``) share one engine evaluation — except keystrokes on the
event loop (:meth:`RequestPipeline.execute_inline`), which finish before
the loop reads another request and so never have a follower.  The first
request in becomes the flight's *leader* and runs the normal guarded
path; requests arriving with the same key while the flight is open
become *followers*
that subscribe to the leader's finished response — the very same
serialized bytes, so all members of a flight are byte-identical by
construction.  The key is ``(tenant, path, canonical payload JSON,
serving generation)``: a hot-reload generation bump therefore *splits*
the flight — requests against the new generation never receive a stale
generation's answer — and two tenants can never share a flight, however
identical their payloads.  Followers do not occupy admission-gate slots (the
leader holds exactly one), which is what turns a thundering herd of
identical hot queries into one evaluation plus N cheap subscriptions.

Error responses coalesce too: if the leader's evaluation was shed or
failed, followers receive that same response.  This is deliberate — a
follower is by definition the same request at the same moment, so it
gets the same answer.

**Streamed search.**  ``POST /api/search`` with ``"stream": true``
produces an ``application/x-ndjson`` body of two lines: a preliminary
line with the first top-k answers in document order (flushed before
ranking starts) and the final fully ranked response.  Transports frame
the lines with chunked transfer encoding; see :meth:`run_search_stream`.

**Multi-tenant routing.**  A pipeline may serve several named corpora
(*tenants*, :mod:`repro.tenant`).  ``/api/t/<tenant>/<endpoint>``
addresses one explicitly; every bare ``/api/<endpoint>`` request routes
to the registry's *default* tenant, so a single-corpus server is the
degenerate case and its responses stay byte-identical.  Tenant-scoped
requests are admitted through the tenant's quota slice before the global
gate — a 429 from the slice names the tenant it throttled — and the
single-flight key carries the tenant name, so coalescing is partitioned
per tenant just like every per-database cache.
"""

from __future__ import annotations

import json
import logging
import math
import threading
from dataclasses import dataclass

from repro.engine.database import LotusXDatabase
from repro.resilience.admission import AdmissionGate
from repro.resilience.errors import (
    Overloaded,
    PayloadTooLarge,
    ResilienceError,
)
from repro.resilience.faults import fault_point
from repro.server import api
from repro.server.reload import (
    DatabaseHolder,
    ReloadInProgress,
    ReloadSource,
    ReloadUnavailable,
)
from repro.server.ui import INDEX_HTML
from repro.tenant.registry import (
    Tenant,
    TenantAdminDisabled,
    TenantError,
    TenantRegistry,
    validate_tenant_name,
)

log = logging.getLogger("repro.server")

#: Endpoints whose identical concurrent requests share one evaluation.
COALESCED_PATHS = frozenset(
    {"/api/search", "/api/keyword", "/api/complete"}
)

#: Tenant-scoped requests: ``/api/t/<tenant>/<endpoint>``.
TENANT_PREFIX = "/api/t/"

#: Deadline steps (guide paths visited, candidates pooled) a keystroke
#: may spend on the event-loop thread before it is moved to the
#: executor: about 1 ms of completion work, well under CPython's 5 ms
#: thread switch interval.
INLINE_STEP_BUDGET = 2_000


def split_tenant(path: str) -> tuple[str | None, str]:
    """``(tenant_name, base_path)`` for a request path.

    ``/api/t/acme/search`` → ``("acme", "/api/search")``; any path
    without the tenant prefix routes to the default tenant unchanged
    (``(None, path)``).  The name is *not* validated here — the registry
    does that, so malformed names get the structured 400.
    """
    if not path.startswith(TENANT_PREFIX):
        return None, path
    rest = path[len(TENANT_PREFIX):]
    name, _, tail = rest.partition("/")
    return name, "/api/" + tail

_GET_HANDLERS = {
    "/api/stats": api.handle_stats,
    "/api/dataguide": api.handle_dataguide,
    "/api/examples": api.handle_examples,
}

_POST_HANDLERS = {
    "/api/complete": api.handle_complete,
    "/api/search": api.handle_search,
    "/api/keyword": api.handle_keyword,
    "/api/explain": api.handle_explain,
    "/api/documents": api.handle_documents,
}


@dataclass(frozen=True)
class ServerConfig:
    """Operational limits for the HTTP server (both transports)."""

    #: Requests allowed to execute concurrently.
    max_concurrency: int = 8
    #: Requests allowed to wait for a slot before shedding starts.
    max_queue: int = 16
    #: How long a queued request waits for a slot before giving up.
    queue_timeout_s: float = 0.5
    #: Suggested client back-off when shedding (``Retry-After``).
    retry_after_s: float = 1.0
    #: Largest accepted request body.
    max_body_bytes: int = 1 << 20
    #: Default deadline for most endpoints.
    default_timeout_ms: int = 10_000
    #: Default deadline for ``/api/complete`` — completion must feel
    #: instant, so its budget is much tighter.
    complete_timeout_ms: int = 1_000
    #: Ceiling on client-requested ``timeout_ms`` overrides.
    max_timeout_ms: int = 60_000
    #: What to do when a sharded response lost whole shard groups:
    #: ``"salvage"`` serves the partial answer as a 200 with ``degraded``
    #: tags; ``"strict"`` rejects it with 503 ``shards_unavailable``.
    degraded_policy: str = "salvage"
    #: Async transport: concurrent connections accepted before new ones
    #: are turned away with 429.
    max_connections: int = 256
    #: Async transport: a connection idle (or dribbling a partial
    #: request — the slow-loris shape) longer than this is dropped.
    idle_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.degraded_policy not in ("salvage", "strict"):
            raise ValueError(
                f"unknown degraded_policy: {self.degraded_policy!r}"
            )
        if self.max_connections < 1:
            raise ValueError("max_connections must be at least 1")
        if self.idle_timeout_s <= 0:
            raise ValueError("idle_timeout_s must be positive")

    def timeout_for(self, path: str) -> int:
        """The default deadline (ms) for requests to ``path``."""
        if path == "/api/complete":
            return self.complete_timeout_ms
        return self.default_timeout_ms

    def make_gate(self) -> AdmissionGate:
        """A fresh admission gate with this config's limits."""
        return AdmissionGate(
            capacity=self.max_concurrency,
            max_queue=self.max_queue,
            queue_timeout_s=self.queue_timeout_s,
            retry_after_s=self.retry_after_s,
        )


@dataclass(frozen=True)
class PipelineResponse:
    """One fully serialized response, ready for any transport to frame."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: tuple[tuple[str, str], ...] = ()


class Flight:
    """One open single-flight evaluation: a leader plus subscribers.

    Completion is signalled through a :class:`threading.Event` (blocking
    followers — the threaded transport) and, for the event loop, through
    per-loop futures resolved with ``call_soon_threadsafe`` so an async
    follower never blocks a loop thread.
    """

    __slots__ = ("_event", "_lock", "_waiters", "response", "followers")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._waiters: list = []  # (loop, future) pairs
        self.response: PipelineResponse | None = None
        self.followers = 0

    def complete(self, response: PipelineResponse) -> None:
        with self._lock:
            self.response = response
            waiters = self._waiters
            self._waiters = []
        self._event.set()
        for loop, future in waiters:
            loop.call_soon_threadsafe(_resolve_future, future, response)

    def wait(self, timeout: float | None = None) -> PipelineResponse:
        """Blocking subscription (threaded transport / executor thread)."""
        if not self._event.wait(timeout):
            raise TimeoutError("single-flight leader did not finish")
        assert self.response is not None
        return self.response

    def subscribe(self, loop):
        """An ``asyncio.Future`` resolved with the leader's response."""
        future = loop.create_future()
        with self._lock:
            if self.response is None:
                self._waiters.append((loop, future))
                return future
            done = self.response
        _resolve_future(future, done)
        return future


def _resolve_future(future, response) -> None:
    if not future.cancelled():
        future.set_result(response)


class SingleFlight:
    """The per-server flight table plus its monitoring counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: dict[tuple, Flight] = {}
        #: Flights opened (= leader evaluations).
        self.flights = 0
        #: Requests that subscribed to an open flight instead of
        #: evaluating (= engine evaluations saved).
        self.followers = 0

    def join(self, key: tuple) -> tuple[Flight, bool]:
        """The flight for ``key`` and whether the caller leads it."""
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                flight.followers += 1
                self.followers += 1
                return flight, False
            flight = Flight()
            self._flights[key] = flight
            self.flights += 1
            return flight, True

    def finish(self, key: tuple, flight: Flight, response: PipelineResponse) -> None:
        """Close the flight and publish ``response`` to every follower."""
        with self._lock:
            if self._flights.get(key) is flight:
                del self._flights[key]
        flight.complete(response)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "flights": self.flights,
                "followers": self.followers,
                "in_flight": len(self._flights),
            }


class RequestPipeline:
    """Everything between raw request bytes and raw response bytes.

    One instance per server; both transports call :meth:`handle` (or its
    decomposed pieces, for the event loop) with the method, path, and
    body bytes, and write back the returned :class:`PipelineResponse`
    verbatim.  No socket types appear at this layer or below it.
    """

    def __init__(
        self,
        database: LotusXDatabase | DatabaseHolder | TenantRegistry,
        config: ServerConfig | None = None,
        gate: AdmissionGate | None = None,
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        self.gate = gate if gate is not None else self.config.make_gate()
        if isinstance(database, TenantRegistry):
            self.tenants = database
        elif isinstance(database, DatabaseHolder):
            self.tenants = TenantRegistry.single(database)
        else:
            self.tenants = TenantRegistry.single(DatabaseHolder(database))
        # Size the per-tenant quota slices against this server's limits.
        self.tenants.attach(self.config)
        #: The default tenant's holder — the single-corpus alias every
        #: pre-tenant caller (transports, tests) still reaches for.
        self.holder = self.tenants.default.holder
        self.flights = SingleFlight()
        self._counter_lock = threading.Lock()
        #: Autocomplete keystrokes answered as superseded (batching).
        self.superseded_keystrokes = 0
        #: Streamed (chunked ndjson) search responses served.
        self.streamed_responses = 0
        #: Keystrokes answered on the event-loop thread.
        self.inline_keystrokes = 0
        #: Keystrokes that overran the inline step budget and re-ran on
        #: the executor.
        self.inline_spills = 0
        #: Optional transport hook: a zero-arg callable returning a
        #: connection-level stats dict, surfaced in ``/api/stats``.
        self.connection_stats = None

    # ------------------------------------------------------------------
    # The full synchronous path (threaded transport, tests)
    # ------------------------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        body: bytes | None = b"",
        declared_length: int | None = None,
    ) -> PipelineResponse:
        """Process one request end to end, coalescing where possible.

        ``declared_length`` is the transport's ``Content-Length``;
        transports must pass ``body=None`` (unread) when it exceeds
        :attr:`ServerConfig.max_body_bytes` — the pipeline answers 413
        without ever holding the oversized bytes.
        """
        key = self.coalesce_key(method, path, body)
        if key is None:
            return self.execute(method, path, body, declared_length)
        flight, leader = self.flights.join(key)
        if not leader:
            return flight.wait()
        response: PipelineResponse | None = None
        try:
            response = self.execute(method, path, body, declared_length)
            return response
        finally:
            if response is None:  # pragma: no cover - defensive
                response = self._json(
                    500, {"error": "internal error", "code": "internal"}
                )
            self.flights.finish(key, flight, response)

    # ------------------------------------------------------------------
    # Tenant routing
    # ------------------------------------------------------------------

    def resolve(self, path: str) -> tuple[Tenant, str, bool]:
        """Route ``path`` to ``(tenant, base_path, scoped)``.

        ``scoped`` is True for ``/api/t/<name>/...`` requests; bare
        paths land on the default tenant with ``base_path == path``.
        Raises :class:`~repro.tenant.registry.TenantError` for invalid
        or unknown tenant names — callers map it with
        :meth:`tenant_error_response`.
        """
        name, base = split_tenant(path)
        if name is None:
            return self.tenants.default, path, False
        return self.tenants.get(name), base, True

    def tenant_error_response(self, exc: TenantError) -> PipelineResponse:
        """The structured 400/404/… body for a tenant-addressing error."""
        payload = {"error": str(exc), "code": exc.code}
        payload.update(exc.fields())
        return self._json(exc.http_status, payload)

    # ------------------------------------------------------------------
    # Decomposed pieces (event-loop transport)
    # ------------------------------------------------------------------

    def coalesce_key(
        self, method: str, path: str, body: bytes | None
    ) -> tuple | None:
        """The single-flight key for this request, or ``None``.

        Only the read-only query endpoints coalesce; anything whose body
        is not a canonicalizable JSON object (it will 400 anyway) and
        streamed requests (their responses are not a single byte string)
        take the normal path.  The key leads with the tenant name, so
        two tenants' identical payloads can never share a flight (or a
        response byte); the tenant's own serving generation follows for
        the same reason across reloads.
        """
        if method != "POST":
            return None
        try:
            tenant, base, _ = self.resolve(path)
        except TenantError:
            return None  # execute() will produce the structured error
        if base not in COALESCED_PATHS:
            return None
        if body is None:
            return None
        try:
            payload = json.loads(body or b"{}")
        except (ValueError, UnicodeDecodeError):
            return None
        if not isinstance(payload, dict) or payload.get("stream"):
            return None
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return (tenant.name, base, canonical, tenant.holder.generation)

    def wants_stream(self, method: str, path: str, body: bytes | None) -> bool:
        """True when this request asked for a chunked ndjson response."""
        if method != "POST" or not body:
            return False
        if split_tenant(path)[1] != "/api/search":
            return False
        try:
            payload = json.loads(body)
        except (ValueError, UnicodeDecodeError):
            return False
        return isinstance(payload, dict) and bool(payload.get("stream"))

    def execute(
        self,
        method: str,
        path: str,
        body: bytes | None,
        declared_length: int | None = None,
    ) -> PipelineResponse:
        """One uncoalesced request: admission gate, dispatch, serialize."""
        try:
            tenant, base, scoped = self.resolve(path)
        except TenantError as exc:
            return self.tenant_error_response(exc)
        tenant.count_request()
        if method == "GET":
            return self._execute_get(path, base, tenant, scoped)
        if method == "POST":
            return self._execute_post(
                path, base, tenant, scoped, body, declared_length
            )
        return self._json(
            405,
            {"error": f"method {method} not allowed", "code": "method_not_allowed"},
        )

    def is_static(self, method: str, path: str) -> bool:
        """Requests served outside the gate with no engine work — the
        event loop answers these inline rather than via the executor."""
        return method == "GET" and path in ("/", "/index.html")

    def execute_inline(
        self, path: str, body: bytes, declared_length: int | None = None
    ) -> PipelineResponse | None:
        """An ``/api/complete`` request on the calling (event-loop)
        thread, or ``None`` when it must run through :meth:`execute` on
        a worker thread instead.

        Two guards keep the caller from blocking.  Admission takes a
        slot only if one is free right now — the tenant's slice, then the
        global gate — so a saturated server queues or sheds the request
        on the executor exactly as before.  The work runs under the
        request's own deadline plus :data:`INLINE_STEP_BUDGET` steps; if
        the step budget trips, the partial answer is discarded (the
        request re-runs on the executor under its normal deadline).  A
        wall-clock expiry is answered here, truncated, just as the
        executor would answer it.  Either way the request counts once.
        """
        try:
            tenant, _, scoped = self.resolve(path)
        except TenantError as exc:
            return self.tenant_error_response(exc)
        held = tenant.try_admission(self.gate)
        if held is None:
            return None
        deadline = None

        def run() -> dict:
            nonlocal deadline
            payload = self._read_json(body, declared_length)
            deadline = self._deadline(payload, "/api/complete")
            deadline.max_steps = INLINE_STEP_BUDGET
            fault_point("server.request", deadline)
            return api.handle_complete(tenant.holder.current, payload, deadline)

        response = self._guarded(path, run, held, tenant, scoped)
        if deadline is not None and deadline.steps > deadline.max_steps:
            with self._counter_lock:
                self.inline_spills += 1
            return None
        tenant.count_request()
        with self._counter_lock:
            self.inline_keystrokes += 1
        return response

    # ------------------------------------------------------------------

    def _execute_get(
        self, path: str, base: str, tenant: Tenant, scoped: bool
    ) -> PipelineResponse:
        if path in ("/", "/index.html"):
            # The GUI shell is static — served outside the gate so the
            # page stays reachable even under API overload.
            return PipelineResponse(
                200, INDEX_HTML.encode("utf-8"), "text/html"
            )
        if base == "/api/tenants" and not scoped:
            # Global listing — not a tenant-scoped endpoint.
            def listing() -> dict:
                fault_point("server.request")
                return self.tenants.listing()

            return self._run_guarded(path, listing, None, False)
        handler = _GET_HANDLERS.get(base)
        if handler is None:
            return self._not_found(path)

        def run() -> dict:
            fault_point("server.request")
            # Bind one generation for the whole request; a concurrent
            # reload swap never changes the database mid-handler.
            current, generation = tenant.holder.snapshot()
            result = handler(current)
            if handler is api.handle_stats:
                result["generation"] = generation
                result["admission"] = self.gate.snapshot()
                result["degraded_policy"] = self.config.degraded_policy
                result["coalescing"] = self.stats_block()
                if self.connection_stats is not None:
                    result["connections"] = self.connection_stats()
                result["tenants"] = self.tenants.stats_block()
                if scoped:
                    result["tenant"] = tenant.name
            return result

        return self._run_guarded(path, run, tenant, scoped)

    def _execute_post(
        self,
        path: str,
        base: str,
        tenant: Tenant,
        scoped: bool,
        body: bytes | None,
        declared_length: int | None,
    ) -> PipelineResponse:
        if base == "/api/reload":
            # Outside the admission gate: a rebuild must not occupy
            # (or wait for) a query slot.
            return self._handle_reload(tenant)
        if base == "/api/tenants" and not scoped:
            # Admin add — also outside the gate: the corpus build must
            # not occupy (or wait for) a query slot.
            return self._handle_tenant_add(body, declared_length)
        handler = _POST_HANDLERS.get(base)
        if handler is None:
            return self._not_found(path)

        def run() -> dict:
            payload = self._read_json(body, declared_length)
            deadline = self._deadline(payload, base)
            fault_point("server.request", deadline)
            current = tenant.holder.current
            if handler is api.handle_explain:
                return handler(current, payload)
            if handler in (api.handle_search, api.handle_keyword):
                return handler(
                    current,
                    payload,
                    deadline,
                    strict_shards=self.config.degraded_policy == "strict",
                )
            return handler(current, payload, deadline)

        return self._run_guarded(path, run, tenant, scoped)

    def _handle_reload(self, tenant: Tenant) -> PipelineResponse:
        """Rebuild one tenant from its configured source and swap
        atomically.

        Reloads only re-read the source the tenant was started with —
        clients cannot point the server at other files.  Each tenant
        reloads independently: its generation bumps, every other
        tenant's serving database is untouched.
        """
        try:
            result = tenant.holder.reload()
            status, payload = 200, result
        except ReloadUnavailable as exc:
            status = 400
            payload = {"error": str(exc), "code": "reload_unavailable"}
        except ReloadInProgress as exc:
            status = 409
            payload = {"error": str(exc), "code": "reload_in_progress"}
        except Exception:
            # A failed build leaves the old generation serving; log
            # the cause server-side, answer with a generic error.
            log.exception("reload failed; still serving old generation")
            status = 500
            payload = {"error": "reload failed", "code": "reload_failed"}
        return self._json(status, payload)

    def _handle_tenant_add(
        self, body: bytes | None, declared_length: int | None
    ) -> PipelineResponse:
        """``POST /api/tenants``: load a new corpus into the registry.

        Gated behind ``admin_enabled`` (the ``--tenant-admin`` serve
        flag): by default a running server's tenant set is fixed at
        startup and this endpoint answers 403.
        """
        try:
            if not self.tenants.admin_enabled:
                raise TenantAdminDisabled(
                    "tenant administration is disabled on this server"
                )
            payload = self._read_json(body, declared_length)
            name = payload.get("name")
            if not isinstance(name, str) or not name:
                raise api.ApiError("missing 'name'")
            # Validate the name before any corpus I/O so a bad name is
            # reported as such, not as a load failure.
            validate_tenant_name(name)
            corpus = payload.get("path")
            if not isinstance(corpus, str) or not corpus:
                raise api.ApiError("missing 'path'")
            quota = payload.get("quota")
            if quota is not None:
                quota = api._int(quota, "quota", minimum=1, maximum=1 << 16)
            shards = api._int(
                payload.get("shards", 1), "shards", minimum=1, maximum=64
            )
            kind = payload.get("kind")
            if kind is None:
                kind = _detect_source_kind(corpus)
            source = ReloadSource(kind=str(kind), path=corpus, shards=shards)
            try:
                database = source.build()
            except (OSError, ValueError) as exc:
                raise api.ApiError(f"could not load corpus: {exc}") from exc
            added = self.tenants.add(
                name, database, source=source, quota=quota
            )
            result = {
                "tenant": added.name,
                "generation": added.holder.generation,
                "source": source.kind,
                "tenants": self.tenants.names(),
                "default": self.tenants.default_name,
            }
            return self._json(200, result)
        except TenantError as exc:
            return self.tenant_error_response(exc)
        except api.ApiError as exc:
            return self._json(
                exc.http_status, {"error": str(exc), "code": exc.code}
            )
        except ResilienceError as exc:
            return self._json(exc.http_status, exc.payload())
        except Exception:
            log.exception("tenant add failed")
            return self._json(
                500, {"error": "internal error", "code": "internal"}
            )

    # ------------------------------------------------------------------
    # Streamed search
    # ------------------------------------------------------------------

    def run_search_stream(
        self,
        path: str,
        body: bytes | None,
        declared_length: int | None,
        emit,
    ) -> PipelineResponse | None:
        """Streamed ``/api/search``: flush first answers before ranking.

        Validates the request and, when streamable, calls
        ``emit(chunk)`` with each ndjson line (bytes, newline-terminated)
        — first the preliminary document-order top-k (available as soon
        as matching finishes, before ranking/snippet work), then the
        full ranked response — and returns ``None``.  Any outcome that
        prevents streaming (bad request, overload, engine failure before
        the first byte) is returned as a normal single
        :class:`PipelineResponse` instead, so the transport can fall
        back to a plain response; nothing has been emitted in that case.

        The whole stream runs under one admission-gate slot (the
        addressed tenant's quota slice, then the global gate): it is one
        request's engine work, however many chunks it flushes.
        """
        try:
            tenant, _, scoped = self.resolve(path)
        except TenantError as exc:
            return self.tenant_error_response(exc)
        tenant.count_request()
        headers: dict[str, str] = {}
        try:
            with tenant.admission(self.gate):
                try:
                    payload = self._read_json(body, declared_length)
                    deadline = self._deadline(payload, "/api/search")
                    fault_point("server.request", deadline)
                    current = tenant.holder.current
                    first = self._first_answers(current, payload)
                except api.ApiError as exc:
                    return self._json(
                        exc.http_status, {"error": str(exc), "code": exc.code}
                    )
                # Preliminary answers are on the wire before ranking:
                emit(_ndjson(first))
                try:
                    final = api.handle_search(
                        current,
                        payload,
                        deadline,
                        strict_shards=self.config.degraded_policy == "strict",
                    )
                except api.ApiError as exc:
                    final = {"error": str(exc), "code": exc.code}
                except ResilienceError as exc:
                    final = exc.payload()
                except Exception:
                    log.exception("unhandled error streaming /api/search")
                    final = {"error": "internal error", "code": "internal"}
                emit(_ndjson(final))
                with self._counter_lock:
                    self.streamed_responses += 1
                return None
        except Overloaded as exc:
            headers["Retry-After"] = str(max(1, math.ceil(exc.retry_after)))
            payload = exc.payload()
            if scoped or tenant.slice_gate is not None:
                payload["tenant"] = tenant.name
            return self._json(exc.http_status, payload, headers)
        except ResilienceError as exc:
            return self._json(exc.http_status, exc.payload())
        except Exception:
            log.exception("unhandled error serving streamed /api/search")
            return self._json(
                500, {"error": "internal error", "code": "internal"}
            )

    def _first_answers(self, current, payload: dict) -> dict:
        """The preliminary stream line: document-order top-k xpaths.

        Uses the raw match enumeration (no ranking, no snippets); the
        match cache makes the follow-up ranked pass reuse this work.
        Matches of a sharded or segmented corpus carry their shard's
        ordinal offsets, so the paths agree with the ranked pass.
        """
        from repro.engine.results import element_xpath
        from repro.twig.parse import TwigSyntaxError

        query = payload.get("query")
        if not query:
            raise api.ApiError("missing 'query'")
        k = api._int(payload.get("k", 10), "k", minimum=1, maximum=api.MAX_K)
        try:
            pattern = current.parse_query(str(query))
            matches = current.matches(pattern)
        except TwigSyntaxError as exc:
            raise api.ApiError(f"bad twig query: {exc}") from exc
        first = []
        for match in matches[:k]:
            outputs = match.output_elements(pattern)
            if outputs:
                first.append(element_xpath(outputs[0], match.ordinal_offsets))
        return {
            "partial": True,
            "total_matches": len(matches),
            "first": first,
        }

    # ------------------------------------------------------------------
    # Keystroke batching bookkeeping
    # ------------------------------------------------------------------

    def superseded_response(self) -> PipelineResponse:
        """The answer for an autocomplete keystroke a newer one on the
        same connection superseded: an empty, explicitly marked
        candidate list.  Counted for ``/api/stats``."""
        with self._counter_lock:
            self.superseded_keystrokes += 1
        return self._json(
            200, {"candidates": [], "truncated": False, "superseded": True}
        )

    def stats_block(self) -> dict:
        """The ``coalescing`` block of ``/api/stats``."""
        block = self.flights.snapshot()
        with self._counter_lock:
            block["superseded_keystrokes"] = self.superseded_keystrokes
            block["streamed_responses"] = self.streamed_responses
            block["inline_keystrokes"] = self.inline_keystrokes
            block["inline_spills"] = self.inline_spills
        return block

    # ------------------------------------------------------------------
    # Guarded execution & serialization
    # ------------------------------------------------------------------

    def _run_guarded(
        self,
        path: str,
        produce,
        tenant: Tenant | None = None,
        scoped: bool = False,
    ) -> PipelineResponse:
        """Run ``produce`` behind the admission gate, mapping the error
        taxonomy to HTTP.

        With a ``tenant``, admission goes through the tenant's quota
        slice first, then the global gate; a 429 then names the tenant
        in its body (whenever the request was tenant-scoped or the
        tenant actually has a slice), so shed traffic is attributable.
        """
        if tenant is None:
            admission = self.gate.slot()
        else:
            admission = tenant.admission(self.gate)
        return self._guarded(path, produce, admission, tenant, scoped)

    def _guarded(
        self,
        path: str,
        produce,
        admission,
        tenant: Tenant | None,
        scoped: bool,
    ) -> PipelineResponse:
        """Run ``produce`` inside the ``admission`` context manager and
        serialize the outcome (see :meth:`_run_guarded`)."""
        headers: dict[str, str] = {}
        try:
            with admission:
                status, payload = 200, produce()
        except Overloaded as exc:
            headers["Retry-After"] = str(max(1, math.ceil(exc.retry_after)))
            status, payload = exc.http_status, exc.payload()
            if tenant is not None and (scoped or tenant.slice_gate is not None):
                payload["tenant"] = tenant.name
        except api.ApiError as exc:
            status = exc.http_status
            payload = {"error": str(exc), "code": exc.code}
        except ResilienceError as exc:
            # DeadlineExceeded that no layer degraded, PayloadTooLarge…
            status, payload = exc.http_status, exc.payload()
        except Exception:
            # Log the traceback server-side; never leak it to clients.
            log.exception("unhandled error serving %s", path)
            status = 500
            payload = {"error": "internal error", "code": "internal"}
        return self._json(status, payload, headers)

    def _deadline(self, payload: dict, base: str):
        """The request's deadline: its ``timeout_ms`` or the endpoint's
        default, capped by the config."""
        return api.resolve_deadline(
            payload,
            default_ms=self.config.timeout_for(base),
            max_ms=self.config.max_timeout_ms,
        )

    def _read_json(
        self, body: bytes | None, declared_length: int | None
    ) -> dict:
        length = declared_length
        if length is None:
            length = len(body) if body is not None else 0
        if length > self.config.max_body_bytes:
            raise PayloadTooLarge(
                f"request body of {length} bytes exceeds the"
                f" {self.config.max_body_bytes}-byte limit",
                limit=self.config.max_body_bytes,
            )
        try:
            payload = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise api.ApiError(f"bad JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise api.ApiError("JSON body must be an object")
        return payload

    def _not_found(self, path: str) -> PipelineResponse:
        return self._json(
            404, {"error": f"no such path: {path}", "code": "not_found"}
        )

    def _json(
        self,
        status: int,
        payload: dict,
        headers: dict[str, str] | None = None,
    ) -> PipelineResponse:
        return PipelineResponse(
            status,
            json.dumps(payload).encode("utf-8"),
            "application/json",
            tuple((headers or {}).items()),
        )


def _ndjson(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8") + b"\n"


def _detect_source_kind(path: str) -> str:
    """``"snapshot"`` for ``.lxsnap`` files and sharded snapshot
    directories, ``"xml"`` otherwise — the same convention the CLI's
    ``--corpus`` flag uses."""
    if path.endswith(".lxsnap"):
        return "snapshot"
    try:
        from repro.engine.store import is_sharded_snapshot

        if is_sharded_snapshot(path):
            return "snapshot"
    except Exception:  # pragma: no cover - detection must never raise
        pass
    return "xml"
