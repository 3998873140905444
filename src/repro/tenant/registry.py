"""Named corpora behind one server: the tenant registry.

One serving process hosts any number of *tenants*, each a named corpus
with its own independently loaded database (monolithic, sharded, or
writable), its own hot-reload source and serving generations, and its
own slice of the server's admission capacity.  The request pipeline
routes ``/api/t/<tenant>/...`` requests here; bare ``/api/...`` requests
fall back to the *default* tenant, so a single-corpus server behaves
byte-identically to the pre-tenant code.

**Quota slices.**  Every tenant owns an :class:`AdmissionGate` whose
capacity is carved out of the global gate: an explicit per-tenant
``quota`` if configured, otherwise an equal share
(``global_capacity // tenant_count``, floored at 1).  A request first
takes a slot in its tenant's slice, then one in the global gate — so a
tenant that saturates its slice sheds *its own* traffic with a 429 that
names the tenant (``site`` = ``tenant.<name>.admission``), while other
tenants' slices, and therefore their latency, are untouched.  A
single-tenant registry with no explicit quota skips the slice entirely
(the global gate alone guards it, exactly as before multi-tenancy).

**Cache partitioning.**  Tenants never share a database instance, so
every per-instance cache — compiled plans, match/parse LRUs, columnar
stream memos, completion LRUs — is partitioned by ``(tenant,
generation)`` by construction: the plan cache keys on the holder's
serving generation, and the instance itself is the tenant partition.
The cross-tenant caches that *do* live on the server (the single-flight
table) key on the tenant name explicitly (see
``RequestPipeline.coalesce_key``).
"""

from __future__ import annotations

import re
import threading
from collections.abc import Iterator
from contextlib import ExitStack, contextmanager

from repro.resilience.admission import AdmissionGate
from repro.server.reload import DatabaseHolder, ReloadSource

#: Legal tenant names: DNS-label-ish, lowercase, at most 64 characters.
TENANT_NAME_RE = re.compile(r"[a-z0-9_-]{1,64}\Z")

#: The tenant bare ``/api/...`` requests route to unless configured.
DEFAULT_TENANT = "default"


class TenantError(ValueError):
    """Base class for tenant-addressing errors.

    Mirrors the ``ApiError`` protocol (``code`` + ``http_status`` +
    :meth:`fields`) without importing the server layer, so the pipeline
    can map these to structured JSON error bodies.
    """

    code = "tenant_error"
    http_status = 400

    def __init__(self, message: str, tenant: str | None = None) -> None:
        super().__init__(message)
        self.tenant = tenant

    def fields(self) -> dict:
        """Extra structured fields for the JSON error body."""
        return {} if self.tenant is None else {"tenant": self.tenant}


class InvalidTenantName(TenantError):
    """A tenant name outside ``[a-z0-9_-]{1,64}`` (HTTP 400)."""

    code = "invalid_tenant"
    http_status = 400


class UnknownTenant(TenantError):
    """A request addressed a tenant this server does not host (404)."""

    code = "unknown_tenant"
    http_status = 404

    def __init__(self, tenant: str, known: list[str]) -> None:
        super().__init__("unknown_tenant", tenant=tenant)
        self.known = known

    def fields(self) -> dict:
        fields = super().fields()
        fields["known"] = self.known
        return fields


class DuplicateTenant(TenantError):
    """An add named a tenant that already exists (HTTP 409)."""

    code = "tenant_exists"
    http_status = 409


class TenantAdminDisabled(TenantError):
    """``POST /api/tenants`` on a server without ``--tenant-admin``."""

    code = "tenant_admin_disabled"
    http_status = 403


def validate_tenant_name(name: str) -> str:
    """``name`` if legal, else :class:`InvalidTenantName`."""
    if not isinstance(name, str) or not TENANT_NAME_RE.fullmatch(name):
        raise InvalidTenantName(
            f"invalid tenant name {str(name)[:80]!r}:"
            " must match [a-z0-9_-]{1,64}",
            tenant=str(name)[:80],
        )
    return name


class Tenant:
    """One named corpus: holder, quota slice, and request counters."""

    def __init__(
        self,
        name: str,
        holder: DatabaseHolder,
        quota: int | None = None,
    ) -> None:
        self.name = name
        self.holder = holder
        #: Explicit concurrency slice; ``None`` means an equal share of
        #: the global capacity, recomputed as tenants come and go.
        self.quota = quota
        #: The slice gate; ``None`` for the sole default tenant of a
        #: single-tenant registry (pure global-gate behavior).
        self.slice_gate: AdmissionGate | None = None
        self._lock = threading.Lock()
        self.requests = 0

    def count_request(self) -> None:
        with self._lock:
            self.requests += 1

    @contextmanager
    def admission(self, global_gate: AdmissionGate):
        """Admit one request: tenant slice first, then the global gate.

        Slice-then-global (in that fixed order, so there is no lock
        cycle) means a tenant can hold at most ``slice.capacity`` global
        slots; when the configured slices partition the global capacity,
        one tenant's overload can never consume another tenant's share.
        An :class:`~repro.resilience.errors.Overloaded` raised by the
        slice carries ``site="tenant.<name>.admission"``.
        """
        gate = self.slice_gate
        if gate is None:
            with global_gate.slot():
                yield
            return
        with gate.slot():
            with global_gate.slot():
                yield

    def try_admission(self, global_gate: AdmissionGate) -> ExitStack | None:
        """:meth:`admission` without waiting: the slots taken, released
        when the returned stack closes, or ``None`` (nothing held) when
        the slice or the global gate has no free slot right now."""
        held = ExitStack()
        for gate in (self.slice_gate, global_gate):
            if gate is None:
                continue
            if not gate.try_acquire():
                held.close()
                return None
            held.callback(gate.release)
        return held

    def stats_block(self) -> dict:
        """The per-tenant entry of the ``tenants`` stats block."""
        from repro.server.reload import serving_element_count

        database, generation = self.holder.snapshot()
        source = self.holder.source
        block = {
            "generation": generation,
            "elements": serving_element_count(database),
            "requests": self.requests,
            "quota": self.quota,
            "source": source.kind if source is not None else None,
            "admission": (
                self.slice_gate.snapshot()
                if self.slice_gate is not None
                else None
            ),
        }
        writable = getattr(database, "writer", None)
        if writable is not None:
            block["writable"] = True
        return block


class TenantRegistry:
    """Thread-safe name → :class:`Tenant` map with quota rebalancing.

    Construct empty, :meth:`add` tenants (the first added becomes the
    default unless ``default=`` says otherwise), then hand the registry
    to a ``RequestPipeline`` — the pipeline calls :meth:`attach` with
    its server config so slices can be sized.  Tenants may also be added
    after attach (the ``lotusx tenant add`` admin path); slices
    rebalance on every membership change.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._tenants: dict[str, Tenant] = {}
        self._default_name: str | None = None
        #: Global limits the slices partition; set by :meth:`attach`.
        self._slice_basis: tuple[int, int, float, float] | None = None
        #: Whether ``POST /api/tenants`` may add tenants at runtime.
        self.admin_enabled = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def single(cls, holder: DatabaseHolder) -> TenantRegistry:
        """A registry wrapping one pre-built holder as the default
        tenant — the compatibility path for every existing single-corpus
        entry point.  No slice gate is created, so admission behavior
        (and every response byte) is unchanged."""
        registry = cls()
        tenant = Tenant(DEFAULT_TENANT, holder)
        registry._tenants[DEFAULT_TENANT] = tenant
        registry._default_name = DEFAULT_TENANT
        return registry

    def add(
        self,
        name: str,
        database=None,
        source: ReloadSource | None = None,
        holder: DatabaseHolder | None = None,
        quota: int | None = None,
        default: bool = False,
    ) -> Tenant:
        """Register ``name`` serving ``database`` (or a whole prepared
        ``holder``).  The first tenant added becomes the default."""
        validate_tenant_name(name)
        if quota is not None and quota < 1:
            raise ValueError("tenant quota must be at least 1")
        if holder is None:
            if database is None:
                raise ValueError("add() needs a database or a holder")
            holder = DatabaseHolder(database, source, label=name)
        elif holder.label is None:
            holder.label = name
            holder.current.tenant_label = name
        with self._lock:
            if name in self._tenants:
                raise DuplicateTenant(
                    f"tenant {name!r} already exists", tenant=name
                )
            tenant = Tenant(name, holder, quota=quota)
            self._tenants[name] = tenant
            if default or self._default_name is None:
                self._default_name = name
            self._rebalance()
            return tenant

    def attach(self, config) -> None:
        """Bind the server's limits so slices can be sized.

        ``config`` is the pipeline's ``ServerConfig``; only the four
        admission numbers are read, so tests may pass any object with
        those attributes.
        """
        with self._lock:
            self._slice_basis = (
                config.max_concurrency,
                config.max_queue,
                config.queue_timeout_s,
                config.retry_after_s,
            )
            self._rebalance()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, name: str) -> Tenant:
        """The tenant called ``name``.

        Raises :class:`InvalidTenantName` or :class:`UnknownTenant` —
        the pipeline maps these to the structured 400/404 bodies.
        """
        validate_tenant_name(name)
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is None:
                raise UnknownTenant(name, sorted(self._tenants))
            return tenant

    @property
    def default(self) -> Tenant:
        with self._lock:
            if self._default_name is None:
                raise LookupError("registry has no tenants")
            return self._tenants[self._default_name]

    @property
    def default_name(self) -> str | None:
        with self._lock:
            return self._default_name

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._tenants)

    def tenants(self) -> list[Tenant]:
        with self._lock:
            return [self._tenants[name] for name in sorted(self._tenants)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)

    def __iter__(self) -> Iterator[Tenant]:
        return iter(self.tenants())

    @property
    def is_multi(self) -> bool:
        """More than one tenant (slices active, 429s name tenants)."""
        with self._lock:
            return len(self._tenants) > 1

    # ------------------------------------------------------------------
    # Quota slices
    # ------------------------------------------------------------------

    def _rebalance(self) -> None:
        """(Re)size every tenant's slice gate.  Caller holds the lock.

        Explicit quotas are honored verbatim; default-quota tenants
        split the global capacity evenly (floored at 1 slot each).  The
        sole default tenant of a single-tenant registry keeps *no* slice
        unless it has an explicit quota — that path must stay
        byte-identical to pre-tenant serving.
        """
        if self._slice_basis is None:
            return
        capacity, max_queue, queue_timeout_s, retry_after_s = self._slice_basis
        count = len(self._tenants)
        if count == 0:
            return
        share = max(1, capacity // count)
        queue_share = max(1, max_queue // count) if max_queue else 0
        for tenant in self._tenants.values():
            if tenant.quota is None and count == 1:
                continue  # single tenant, no explicit quota: global only
            slice_capacity = tenant.quota if tenant.quota is not None else share
            slice_queue = queue_share
            if tenant.slice_gate is None:
                tenant.slice_gate = AdmissionGate(
                    capacity=slice_capacity,
                    max_queue=slice_queue,
                    queue_timeout_s=queue_timeout_s,
                    retry_after_s=retry_after_s,
                    site=f"tenant.{tenant.name}.admission",
                )
            else:
                tenant.slice_gate.resize(slice_capacity, slice_queue)

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------

    def stats_block(self) -> dict:
        """The ``tenants`` block of ``/api/stats``."""
        with self._lock:
            default = self._default_name
            tenants = dict(self._tenants)
        return {
            "default": default,
            "count": len(tenants),
            "by_name": {
                name: tenant.stats_block()
                for name, tenant in sorted(tenants.items())
            },
        }

    def listing(self) -> dict:
        """The ``GET /api/tenants`` body (also the CLI's data source)."""
        block = self.stats_block()
        return {
            "default": block["default"],
            "admin_enabled": self.admin_enabled,
            "tenants": [
                {"name": name, **tenant_block}
                for name, tenant_block in block["by_name"].items()
            ],
        }
