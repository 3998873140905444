"""Candidate streams for the twig-join kernels.

A *stream* is the document-ordered sequence of labeled elements for one
query node: all elements with the node's tag (or every element, for a
wildcard), optionally pre-filtered by the node's value predicate.  The
kernels read streams as :class:`~repro.index.columnar.ColumnarStream`
views over the columnar label index.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Hashable

from repro.index.columnar import ColumnarIndex, ColumnarStream
from repro.index.term_index import TermIndex
from repro.labeling.assign import LabeledDocument, LabeledElement

#: Filters applied to a tag stream (value predicates compile to these).
ElementFilter = Callable[[LabeledElement], bool]


class StreamFactory:
    """Builds (optionally filtered) columnar streams over a labeled
    document.

    The columnar index is built on first use unless a prebuilt one is
    injected (snapshot loads).  Filtered streams are memoized by
    ``(tag, filter key)`` so repeated predicate queries reuse one scan of
    the shared per-tag stream instead of re-filtering it on every call.
    """

    #: Entries kept in the filtered-stream memo.
    FILTER_CACHE_SIZE = 256

    def __init__(
        self,
        labeled: LabeledDocument,
        term_index: TermIndex,
        columnar: ColumnarIndex | None = None,
    ) -> None:
        self._labeled = labeled
        self._term_index = term_index
        self._columnar = columnar
        self._filtered_cache: OrderedDict = OrderedDict()

    @property
    def term_index(self) -> TermIndex:
        return self._term_index

    @property
    def columnar(self) -> ColumnarIndex:
        """The columnar index, built on first access."""
        if self._columnar is None:
            self._columnar = ColumnarIndex.from_labeled(self._labeled)
        return self._columnar

    def columnar_stream(self, tag: str | None) -> ColumnarStream:
        """Columnar view of the (unfiltered) stream for ``tag``."""
        return self.columnar.stream(tag)

    def filtered_columnar_stream(
        self,
        tag: str | None,
        element_filter: ElementFilter,
        key: Hashable | None = None,
    ) -> ColumnarStream:
        """Columnar view for ``tag`` restricted by ``element_filter``.

        With ``key`` (a hashable identity for the filter, e.g. a predicate
        signature) the filtered view is memoized; callers must treat it as
        shared and immutable, like the unfiltered per-tag streams.
        """
        if key is not None:
            cached = self._memo_get((tag, key))
            if cached is not None:
                return cached
        result = self.columnar_stream(tag).where(element_filter)
        if key is not None:
            self._memo_put((tag, key), result)
        return result

    # ------------------------------------------------------------------

    def clear_memo(self) -> None:
        """Drop every memoized filtered stream.

        Called on generation advance: historically the memo only died
        with the factory instance on hot reload, but the live write path
        advances generations while *keeping* unchanged segment databases
        — and a memoized columnar stream holds copied region columns
        (including the corpus root's patched width), so surviving
        instances must shed their memos when the generation moves.
        """
        self._filtered_cache.clear()

    def rewiden_root(self, end: int) -> None:
        """Propagate a mutated root-region width into columnar columns.

        The live write path re-widens the corpus root's region when the
        corpus grows or shrinks; a built columnar index holds the root's
        ``end`` as a raw integer and must be patched in place.  A
        not-yet-built columnar index needs nothing — it will read the
        patched region when first built.
        """
        if self._columnar is not None:
            self._columnar.rewiden_root(self._labeled.document.root.tag, end)
        self.clear_memo()

    def _memo_get(self, key):
        cached = self._filtered_cache.get(key)
        if cached is not None:
            self._filtered_cache.move_to_end(key)
        return cached

    def _memo_put(self, key, value) -> None:
        self._filtered_cache[key] = value
        if len(self._filtered_cache) > self.FILTER_CACHE_SIZE:
            self._filtered_cache.popitem(last=False)
