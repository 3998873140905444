"""Inverted term index over element text.

Indexes the *direct* text of every element, keyed by normalized token.
Because elements are numbered in preorder, each element's subtree is a
contiguous range of element orders, so "does this subtree contain term t"
is a binary search over t's posting list — no tree walk.

Posting lists are stored as parallel arrays (orders, term frequencies) in
document order so that subtree-range probes bisect the order array
directly.  The index also maintains a value view (normalized full text
strings, for equality predicates and value completion) and a numeric view
(for range predicates like ``year < 2000``).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from repro.index.text import completion_value, normalize, tokenize
from repro.labeling.assign import LabeledDocument, LabeledElement


@dataclass(frozen=True, slots=True)
class Posting:
    """One (element, term-frequency) pair; ``order`` is the element's
    preorder index."""

    order: int
    tf: int


class _PostingList:
    """Document-ordered postings as parallel arrays."""

    __slots__ = ("orders", "tfs")

    def __init__(self) -> None:
        self.orders: list[int] = []
        self.tfs: list[int] = []

    def append(self, order: int, tf: int) -> None:
        self.orders.append(order)
        self.tfs.append(tf)

    def __len__(self) -> int:
        return len(self.orders)

    def slice(self, low: int, high: int) -> list[Posting]:
        """Postings with ``low <= order < high``."""
        start = bisect_left(self.orders, low)
        stop = bisect_right(self.orders, high - 1)
        return [
            Posting(self.orders[i], self.tfs[i]) for i in range(start, stop)
        ]

    def any_in(self, low: int, high: int) -> bool:
        index = bisect_left(self.orders, low)
        return index < len(self.orders) and self.orders[index] < high

    def sum_tf(self, low: int, high: int) -> int:
        start = bisect_left(self.orders, low)
        stop = bisect_right(self.orders, high - 1)
        return sum(self.tfs[start:stop])


_EMPTY = _PostingList()


class TermIndex:
    """Inverted index of direct-text tokens, values, and numbers."""

    def __init__(self, labeled: LabeledDocument) -> None:
        # Everything below is keyed by element *order* and reads regions
        # only as differences, so the index is independent of where the
        # document's labels sit in a larger corpus — the live write path
        # shares one index between re-placed copies of a segment — and
        # holds no reference to ``labeled``.
        self._postings: dict[str, _PostingList] = {}
        self._value_postings: dict[str, list[int]] = {}
        self._numeric: dict[int, float] = {}
        self._token_counts: dict[int, int] = {}
        self._subtree_end: list[int] = []
        self._total_tokens = 0
        self._build(labeled)

    def _build(self, labeled: LabeledDocument) -> None:
        for labeled_element in labeled.elements:
            region = labeled_element.region
            # Each descendant consumes two counter ticks, so the subtree
            # size (self included) is (end - start + 1) // 2.
            subtree_size = (region.end - region.start + 1) // 2
            self._subtree_end.append(labeled_element.order + subtree_size)

            text = labeled_element.element.direct_text
            if not text.strip():
                continue
            tokens = tokenize(text)
            if tokens:
                self._token_counts[labeled_element.order] = len(tokens)
                self._total_tokens += len(tokens)
                frequencies: dict[str, int] = {}
                for token in tokens:
                    frequencies[token] = frequencies.get(token, 0) + 1
                for token, tf in sorted(frequencies.items()):
                    self._postings.setdefault(token, _PostingList()).append(
                        labeled_element.order, tf
                    )
            value = completion_value(text)
            if value is not None:
                self._value_postings.setdefault(value, []).append(
                    labeled_element.order
                )
            number = _parse_number(text)
            if number is not None:
                self._numeric[labeled_element.order] = number

    # ------------------------------------------------------------------
    # Term lookup
    # ------------------------------------------------------------------

    def postings(self, term: str) -> list[Posting]:
        """Posting list for ``term`` (document order); empty if absent."""
        plist = self._postings.get(term.lower(), _EMPTY)
        return [Posting(order, tf) for order, tf in zip(plist.orders, plist.tfs)]

    def posting_list(self, term: str) -> _PostingList:
        """The parallel-array postings of ``term`` (shared — callers must
        not mutate); with :attr:`subtree_ends`, what a per-match scoring
        loop needs to probe subtree term frequencies without re-resolving
        the term."""
        return self._postings.get(term.lower(), _EMPTY)

    @property
    def subtree_ends(self):
        """Per element order, the order just past its subtree: an
        element's subtree is the half-open range
        ``order .. subtree_ends[order]``."""
        return self._subtree_end

    def document_frequency(self, term: str) -> int:
        """Number of elements whose direct text contains ``term``."""
        return len(self._postings.get(term.lower(), _EMPTY))

    def idf(self, term: str) -> float:
        """Smoothed inverse document frequency of ``term``."""
        n = max(1, len(self._token_counts))
        df = self.document_frequency(term)
        return math.log(1.0 + n / (1.0 + df))

    def vocabulary(self) -> Iterable[str]:
        return self._postings.keys()

    def iter_postings(self) -> Iterator[tuple[str, Sequence[int], Sequence[int]]]:
        """``(term, orders, tfs)`` for every term (shared columns)."""
        for term, plist in self._postings.items():
            yield term, plist.orders, plist.tfs

    def iter_value_postings(self) -> Iterable[tuple[str, Sequence[int]]]:
        """``(normalized value, orders)`` for every completable value."""
        return self._value_postings.items()

    @property
    def total_tokens(self) -> int:
        return self._total_tokens

    @property
    def text_element_count(self) -> int:
        """Number of elements carrying any direct text tokens."""
        return len(self._token_counts)

    def token_count(self, order: int) -> int:
        """Token length of an element's direct text (0 if none)."""
        return self._token_counts.get(order, 0)

    # ------------------------------------------------------------------
    # Subtree containment
    # ------------------------------------------------------------------

    def subtree_order_range(self, element: LabeledElement) -> tuple[int, int]:
        """Half-open preorder range covering ``element`` and its subtree."""
        return element.order, self._subtree_end[element.order]

    def subtree_postings(self, element: LabeledElement, term: str) -> list[Posting]:
        """Postings of ``term`` that fall inside ``element``'s subtree."""
        low, high = self.subtree_order_range(element)
        return self._postings.get(term.lower(), _EMPTY).slice(low, high)

    def subtree_term_frequency(self, element: LabeledElement, term: str) -> int:
        """Total occurrences of ``term`` in ``element``'s subtree text."""
        low, high = self.subtree_order_range(element)
        return self._postings.get(term.lower(), _EMPTY).sum_tf(low, high)

    def subtree_contains(self, element: LabeledElement, term: str) -> bool:
        """True if ``term`` occurs anywhere in ``element``'s subtree."""
        low, high = self.subtree_order_range(element)
        return self._postings.get(term.lower(), _EMPTY).any_in(low, high)

    def subtree_contains_all(
        self, element: LabeledElement, terms: Iterable[str]
    ) -> bool:
        """True if *every* term occurs in ``element``'s subtree."""
        return all(self.subtree_contains(element, term) for term in terms)

    # ------------------------------------------------------------------
    # Value and numeric lookup
    # ------------------------------------------------------------------

    def elements_with_value(self, value: str) -> list[int]:
        """Preorder indexes of elements whose normalized direct text equals
        ``value`` exactly."""
        return list(self._value_postings.get(normalize(value), ()))

    def has_value(self, element: LabeledElement, value: str) -> bool:
        orders = self._value_postings.get(normalize(value))
        if not orders:
            return False
        low = bisect_left(orders, element.order)
        return low < len(orders) and orders[low] == element.order

    def numeric_value(self, element: LabeledElement) -> float | None:
        """The element's direct text as a number, if it parses as one."""
        return self._numeric.get(element.order)

    def values(self) -> Iterable[str]:
        """All distinct normalized values (for completion indexes)."""
        return self._value_postings.keys()

    def value_count(self, value: str) -> int:
        return len(self._value_postings.get(normalize(value), ()))


def _parse_number(text: str) -> float | None:
    stripped = text.strip()
    if not stripped:
        return None
    try:
        return float(stripped)
    except ValueError:
        return None
