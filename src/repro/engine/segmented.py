"""The writable-database facade: one swappable read view over live segments.

:class:`SegmentedDatabase` is what servers and embedders hold when the
corpus is writable.  It exposes the familiar query surface
(``search`` / ``matches`` / ``keyword_search`` / completion / stats) by
delegating to an immutable :class:`~repro.shard.database.ShardedDatabase`
**view** over the current delta segments (see
:mod:`repro.write.segments`); after every applied batch the attached
:class:`~repro.write.writer.DocumentWriter` builds a fresh view and
swaps it in atomically — in-flight requests finish against the view they
bound, exactly like a hot reload, while the expensive per-segment
indexes are shared between consecutive views.

Generation bookkeeping: the facade's ``serving_generation`` is strictly
monotone.  It advances when a batch installs a new view *and* whenever a
:class:`~repro.server.reload.DatabaseHolder` stamps it; the setter takes
``max(stamp, current + 1)`` so the two counters can never re-issue a
value — a plan/match/stream-memo cache entry keyed by generation can
therefore never be mistaken for current after any swap.  Stamping the
view propagates the generation into every segment database, which (see
``LotusXDatabase.serving_generation``) drops their plan caches, filtered
stream memos, and completion caches — required because surviving
segments share state (including the in-place root-width patch) across
views.
"""

from __future__ import annotations

import threading

from repro.twig.parse import parse_twig


class SegmentedDatabase:
    """Query facade over a :class:`~repro.write.segments.SegmentedCorpus`."""

    def __init__(self, corpus) -> None:
        self._corpus = corpus
        #: Reentrant: installing a view stamps the generation, and both
        #: entry points take the lock.
        self._lock = threading.RLock()
        self._serving_generation = 0
        self._view = corpus.build_view()
        self.expanded_attributes = False
        #: The attached single-writer mutation pipeline (set by
        #: :func:`repro.write.writer.open_writable_database`); ``None``
        #: for a read-only facade.
        self.writer = None

    # ------------------------------------------------------------------
    # Views and generations
    # ------------------------------------------------------------------

    @property
    def view(self):
        """The current immutable read view (bind once per request)."""
        with self._lock:
            return self._view

    def _install_view(self, view) -> None:
        """Swap in a freshly built view and advance the generation.

        The old view is *not* closed here: in-flight requests may still
        hold it (a closed executor refuses work), and a view holds no
        pools or threads, so dropping the last reference retires it —
        the same retire-by-GC contract hot reload uses.
        """
        with self._lock:
            self._view = view
            self._stamp(self._serving_generation + 1)

    @property
    def serving_generation(self) -> int:
        with self._lock:
            return self._serving_generation

    @serving_generation.setter
    def serving_generation(self, value: int) -> None:
        with self._lock:
            self._stamp(max(int(value), self._serving_generation + 1))

    def _stamp(self, value: int) -> None:
        self._serving_generation = value
        self._view.serving_generation = value

    # ------------------------------------------------------------------
    # Corpus shape
    # ------------------------------------------------------------------

    @property
    def spine_tag(self) -> str:
        return self._corpus.spine_tag

    @property
    def element_count(self) -> int:
        return self.view.element_count

    @property
    def guide(self):
        return self.view.guide

    @property
    def autocomplete(self):
        return self.view.autocomplete

    def document_ids(self) -> list[str]:
        return self._corpus.document_ids()

    # ------------------------------------------------------------------
    # Query surface (delegation; views are immutable, so binding the
    # view once per call gives each operation one consistent generation)
    # ------------------------------------------------------------------

    def matches(self, *args, **kwargs):
        return self.view.matches(*args, **kwargs)

    def search(self, *args, **kwargs):
        return self.view.search(*args, **kwargs)

    def keyword_search(self, *args, **kwargs):
        return self.view.keyword_search(*args, **kwargs)

    def complete_tag(self, *args, **kwargs):
        return self.view.complete_tag(*args, **kwargs)

    def complete_value(self, *args, **kwargs):
        return self.view.complete_value(*args, **kwargs)

    def explain(self, *args, **kwargs):
        return self.view.explain(*args, **kwargs)

    def example_queries(self, *args, **kwargs):
        return self.view.example_queries(*args, **kwargs)

    def statistics(self):
        return self.view.statistics()

    def parse_query(self, text: str):
        return parse_twig(text)

    def to_xpath(self, query):
        return self.view.to_xpath(query)

    def to_xquery(self, query):
        return self.view.to_xquery(query)

    def cache_statistics(self) -> dict:
        result = self.view.cache_statistics()
        result["segments"] = self._corpus.segment_count
        result["facade_generation"] = self.serving_generation
        return result

    def writer_statistics(self) -> dict | None:
        """Writer health block for ``/api/stats`` (``None`` if read-only)."""
        writer = self.writer
        return writer.statistics() if writer is not None else None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def warm(self):
        self.view.warm()
        return self

    def close(self) -> None:
        writer = self.writer
        if writer is not None:
            writer.close()
        self.view.close()

    def __repr__(self) -> str:
        return (
            f"SegmentedDatabase(segments={self._corpus.segment_count},"
            f" documents={self._corpus.document_count},"
            f" generation={self.serving_generation})"
        )
