"""Atomic hot-swap reload for a serving database.

The server never serves a half-built database: a reload builds the new
:class:`~repro.engine.database.LotusXDatabase` completely (on the
reloading request's own thread, outside the admission gate so query
capacity is untouched), then swaps it in with one atomic reference
update.  Handlers bind ``holder.current`` once at request start, so
in-flight requests finish against the generation they started with;
match caches live on the database object itself, which makes cache
invalidation free — the old generation's caches are garbage-collected
with it.

Reloads rebuild from the *configured* source only (the corpus or
snapshot the server was started with).  Clients cannot point the server
at arbitrary files; they can only ask for the existing source to be
re-read — e.g. after re-running ``lotusx index``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.engine.database import LotusXDatabase


class ReloadError(RuntimeError):
    """A reload request could not be carried out."""


class ReloadUnavailable(ReloadError):
    """The server has no reload source configured."""


class ReloadInProgress(ReloadError):
    """Another reload is still building; try again later."""


@dataclass(frozen=True)
class ReloadSource:
    """Where a replacement database comes from.

    ``kind`` is ``"xml"`` (re-parse and re-index a corpus file) or
    ``"snapshot"`` (load a snapshot written by ``lotusx index`` — either
    a single ``.lxsnap`` file or a sharded snapshot directory).  For
    ``"xml"`` sources, ``shards > 1`` re-indexes into a sharded fleet.
    """

    kind: str
    path: str
    expand_attributes: bool = False
    shards: int = 1
    #: Replicas per shard for sharded serving; the rebuilt generation
    #: gets a *fresh* replica fleet (health, breakers, latency windows
    #: all reset), swapped in with the database in one atomic step.
    replicas: int = 1
    #: Optional :class:`~repro.fleet.fleet.FleetConfig` tuning carried
    #: across reloads (``None`` uses fleet defaults).
    fleet_config: object | None = None
    #: Serve snapshot hot sections zero-copy from an ``mmap`` of the
    #: file (a foreign-layout file falls back to the copying
    #: loader).  Hot reload is unmap-safe: the old generation holds a
    #: reference on its mapping, and the mapping outlives every
    #: in-flight request that still touches its buffers.
    mmap: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("xml", "snapshot"):
            raise ValueError(f"unknown reload source kind: {self.kind!r}")
        if self.shards > 1 and self.expand_attributes:
            raise ValueError("sharded serving does not support expand_attributes")
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")

    def build(self) -> LotusXDatabase:
        """Build a fresh, fully materialized database from the source.

        A sharded source yields the whole fleet as one object, so the
        swap replaces every shard (and its caches, router counters,
        replica fleet, and executor pools) in a single
        generation-consistent step.
        """
        if self.kind == "snapshot":
            from repro.engine.store import (
                is_sharded_snapshot,
                load_sharded_snapshot,
                load_snapshot,
            )

            # Eager: the swapped-in generation must be query-ready, not
            # pay lazy inflation on the first production request.
            if is_sharded_snapshot(self.path):
                return load_sharded_snapshot(
                    self.path,
                    eager=True,
                    replicas=self.replicas,
                    fleet_config=self.fleet_config,
                    mmap=self.mmap,
                )
            if self.mmap:
                from repro.engine.store import is_mmap_backed

                database = load_snapshot(self.path, mmap=True)
                if is_mmap_backed(database):
                    # Zero-copy generation: warm only the hot sections —
                    # the document tree and label store stay on disk
                    # until a query path actually needs them.
                    database.warm_hot()
                else:
                    # A foreign-layout file fell back to the copying
                    # loader; warm it fully like any other.
                    database.warm()
                return database
            return load_snapshot(self.path, eager=True)
        if self.shards > 1:
            from repro.shard.database import ShardedDatabase

            return ShardedDatabase.from_file(
                self.path,
                self.shards,
                replicas=self.replicas,
                fleet_config=self.fleet_config,
            )
        return LotusXDatabase.from_file(
            self.path, expand_attributes=self.expand_attributes
        )


def serving_element_count(database) -> int:
    """Corpus element count for either database flavor."""
    labeled = getattr(database, "labeled", None)
    if labeled is not None:
        return len(labeled)
    return database.element_count


class DatabaseHolder:
    """Thread-safe, swappable reference to the serving database.

    ``current`` is what request handlers bind; ``generation`` increments
    on every swap (it starts at 1) and is surfaced in ``/api/stats`` so
    clients can observe a reload taking effect.
    """

    def __init__(
        self,
        database: LotusXDatabase,
        source: ReloadSource | None = None,
        label: str | None = None,
    ) -> None:
        self._lock = threading.Lock()
        #: Serializes reloads; held for the whole build so concurrent
        #: reload requests fail fast (409) instead of piling up builds.
        self._reload_lock = threading.Lock()
        self._database = database
        self._generation = 1
        database.serving_generation = 1
        self.source = source
        #: Tenant name when this holder serves a named corpus (multi-
        #: tenant serving); stamped onto every installed generation so
        #: per-instance cache statistics are attributable.
        self.label = label
        if label is not None:
            database.tenant_label = label

    @property
    def current(self) -> LotusXDatabase:
        with self._lock:
            return self._database

    @property
    def generation(self) -> int:
        with self._lock:
            return self._generation

    def snapshot(self) -> tuple[LotusXDatabase, int]:
        """The current database and its generation, read atomically."""
        with self._lock:
            return self._database, self._generation

    def swap(self, database: LotusXDatabase) -> int:
        """Install ``database`` as the new generation; returns its
        generation number.  In-flight requests keep the reference they
        already bound."""
        with self._lock:
            self._database = database
            self._generation += 1
            # Stamp the generation onto the instance so its plan cache
            # keys can never collide with a previous generation's.
            database.serving_generation = self._generation
            if self.label is not None:
                database.tenant_label = self.label
            return self._generation

    def reload(self) -> dict:
        """Rebuild from the configured source and swap atomically.

        Returns a summary dict (generation, element count, build time).

        Raises
        ------
        ReloadUnavailable
            No source was configured (e.g. the database was built from a
            string and there is nothing on disk to re-read).
        ReloadInProgress
            Another reload is still building.
        """
        if self.source is None:
            raise ReloadUnavailable("this server has no reload source configured")
        if not self._reload_lock.acquire(blocking=False):
            raise ReloadInProgress("a reload is already in progress")
        try:
            started = time.perf_counter()
            database = self.source.build()
            generation = self.swap(database)
            result = {
                "generation": generation,
                "elements": serving_element_count(database),
                "source": self.source.kind,
                "elapsed_seconds": round(time.perf_counter() - started, 3),
            }
            if self.label is not None:
                result["tenant"] = self.label
            return result
        finally:
            self._reload_lock.release()
