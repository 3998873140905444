"""Packed, array-backed completion tries.

A :class:`PackedTrie` is LotusX's weighted top-k prefix dictionary — the
only one any serving path sees.  It is built in one step from a dict of
key counts (:meth:`PackedTrie.from_counts`: sort, encode, one sparse
table — no per-character node inserts, no cyclic garbage), and its four
flat buffers can live directly inside a mapped snapshot:

``keys``
    the UTF-8 bytes of every key, concatenated in lexicographic order;
``offsets``
    ``n + 1`` int64 byte offsets into ``keys`` (key *i* is
    ``keys[offsets[i]:offsets[i+1]]``);
``weights``
    ``n`` int64 key weights;
``rmq``
    a sparse table of range-maximum argmax positions over ``weights``
    (levels ``j >= 1`` concatenated; level 0 — single positions — is
    implicit).  It is built the first time a top-k completion or the
    snapshot writer asks for it and stored in the snapshot, so a load
    does no work on it.

Because UTF-8 compares bytewise exactly like code points, the sorted key
blob supports prefix lookup by binary search, and a prefix's matches are
one contiguous index range ``[lo, hi)``.  :meth:`PackedTrie.complete`
then runs a best-first search over *segments* of that range: a max-heap
entry carries a segment and its argmax (found in O(1) via the sparse
table); popping it emits the argmax key and splits the segment in two.
Ordering is ``(-weight, index)`` and index order is lexicographic order,
so the output is top-k by descending weight, ties broken alphabetically
— element for element what a character trie with subtree-max pruning
returns (``tests/trie_oracle.py`` keeps one as the reference).

All four buffers may be ``array('q')`` / ``bytes`` (heap-backed loads)
or ``memoryview`` slices of an mmap (zero-copy loads); the structure
never writes to them.
"""

from __future__ import annotations

import heapq
import itertools
from array import array
from collections.abc import Iterable, Iterator
from itertools import accumulate
from operator import ge

_TYPECODE = "q"


def rmq_table_length(n: int) -> int:
    """Number of int64 entries in the sparse table for ``n`` weights."""
    total = 0
    j = 1
    while (1 << j) <= n:
        total += n - (1 << j) + 1
        j += 1
    return total


def build_rmq(weights) -> array:
    """Sparse argmax table over ``weights`` (levels ``j >= 1``, concatenated).

    Entry ``i`` of level ``j`` is the index of the maximum weight in
    ``weights[i : i + 2**j]``, leftmost on ties.
    """
    n = len(weights)
    table = array(_TYPECODE)
    weight = list(weights)
    previous = list(range(n))
    half = 1
    while 2 * half <= n:
        # zip stops at the shorter (shifted) list: n - 2 * half + 1 rows.
        previous = [
            a if weight[a] >= weight[b] else b
            for a, b in zip(previous, previous[half:])
        ]
        table.extend(previous)
        half *= 2
    return table


def pack_items(
    items: Iterable[tuple[str, int]],
) -> tuple[bytes, array, array, array]:
    """Flatten lexicographically ordered ``(key, weight)`` pairs.

    Returns ``(keys_blob, offsets, weights, rmq)`` — the four buffers a
    :class:`PackedTrie` is built from.  Keys must be strictly increasing.
    """
    blob, offsets, weights = _pack_keys(list(items))
    return blob, offsets, weights, build_rmq(weights)


def _pack_keys(pairs: list[tuple[str, int]]) -> tuple[bytes, array, array]:
    encoded = [key.encode("utf-8") for key, _ in pairs]
    if any(map(ge, encoded, encoded[1:])):
        at = next(i for i in range(1, len(encoded)) if encoded[i - 1] >= encoded[i])
        raise ValueError(
            f"trie keys are not strictly increasing at {pairs[at][0]!r}"
        )
    offsets = array(_TYPECODE, [0])
    offsets.extend(accumulate(map(len, encoded)))
    weights = array(_TYPECODE, [weight for _, weight in pairs])
    return b"".join(encoded), offsets, weights


class PackedTrie:
    """Read-only weighted dictionary over packed (possibly mapped) buffers:
    ``complete`` / ``iter_prefix`` / ``items`` / ``weight`` / ``in`` /
    ``len``.  There is no ``add`` — a trie is packed once, from counts.
    """

    __slots__ = ("_keys", "_offsets", "_weights", "_rmq", "_n", "_level_starts")

    def __init__(self, keys, offsets, weights, rmq) -> None:
        self._keys = keys
        self._offsets = offsets
        self._weights = weights
        #: ``None`` until something needs the sparse table — a top-k
        #: :meth:`complete` or the snapshot writer.  Write-path segments
        #: are read through ``iter_prefix`` merges and rebuilt often, so
        #: most of their tries never pay for one.
        self._rmq = rmq
        self._n = len(weights)
        starts = [0]
        j = 1
        while (1 << j) <= self._n:
            starts.append(starts[-1] + self._n - (1 << j) + 1)
            j += 1
        #: Start of level ``j`` (1-based) at ``_level_starts[j - 1]``.
        self._level_starts = starts

    @classmethod
    def from_counts(cls, counts: dict[str, int]) -> PackedTrie:
        """Pack ``{key: weight}``.  Code-point order is UTF-8 byte order,
        so the plain string sort is the key-blob order."""
        return cls(*_pack_keys(sorted(counts.items())), None)

    @classmethod
    def from_trie(cls, trie) -> PackedTrie:
        """Pack any object with a lexicographic ``items()`` iterator."""
        return cls(*pack_items(trie.items()))

    def buffers(self) -> tuple:
        """``(keys, offsets, weights, rmq)`` — what the snapshot writes."""
        return self._keys, self._offsets, self._weights, self._table()

    def _table(self):
        rmq = self._rmq
        if rmq is None:
            # Racing first callers build equal tables; last store wins.
            rmq = self._rmq = build_rmq(self._weights)
        return rmq

    # ------------------------------------------------------------------
    # Key access
    # ------------------------------------------------------------------

    def _key_bytes(self, index: int) -> bytes:
        chunk = self._keys[self._offsets[index] : self._offsets[index + 1]]
        return chunk.tobytes() if isinstance(chunk, memoryview) else chunk

    def _key_str(self, index: int) -> str:
        return self._key_bytes(index).decode("utf-8")

    def __len__(self) -> int:
        return self._n

    def weight(self, key: str) -> int:
        encoded = key.encode("utf-8")
        index = self._bisect_left(encoded)
        if index < self._n and self._key_bytes(index) == encoded:
            return self._weights[index]
        return 0

    def __contains__(self, key: str) -> bool:
        return self.weight(key) > 0

    # ------------------------------------------------------------------
    # Range machinery
    # ------------------------------------------------------------------

    def _bisect_left(self, encoded: bytes) -> int:
        lo, hi = 0, self._n
        while lo < hi:
            mid = (lo + hi) // 2
            if self._key_bytes(mid) < encoded:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _range(self, prefix: str) -> tuple[int, int]:
        """Index range ``[lo, hi)`` of keys starting with ``prefix``."""
        encoded = prefix.encode("utf-8")
        lo = self._bisect_left(encoded)
        width = len(encoded)
        a, hi = lo, self._n
        while a < hi:
            mid = (a + hi) // 2
            if self._key_bytes(mid)[:width] <= encoded:
                a = mid + 1
            else:
                hi = mid
        return lo, hi

    def _argmax(self, lo: int, hi: int) -> int:
        """Index of the max weight in ``[lo, hi)`` (leftmost on ties);
        the sparse table must exist (:meth:`_table`)."""
        span = hi - lo
        if span == 1:
            return lo
        level = span.bit_length() - 1
        start = self._level_starts[level - 1]
        a = self._rmq[start + lo]
        b = self._rmq[start + hi - (1 << level)]
        return a if self._weights[a] >= self._weights[b] else b

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def complete(self, prefix: str, k: int = 10) -> list[tuple[str, int]]:
        """Top-``k`` keys with ``prefix`` by ``(-weight, key)``."""
        if k <= 0:
            return []
        lo, hi = self._range(prefix)
        if lo >= hi:
            return []
        self._table()
        weights = self._weights
        counter = itertools.count()
        results: list[tuple[str, int]] = []
        # Heap entries: (-weight, index, tiebreak, lo, hi).  A segment
        # entry (lo < hi) is keyed by its argmax; popping it emits a key
        # entry (lo == hi == -1) for that argmax and the two sub-segments
        # around it.  A popped key entry is final: every remaining entry
        # keys >= it under (-weight, index), and index order is key order.
        heap: list[tuple[int, int, int, int, int]] = []

        def push_segment(a: int, b: int) -> None:
            if a < b:
                best = self._argmax(a, b)
                heapq.heappush(
                    heap, (-weights[best], best, next(counter), a, b)
                )

        push_segment(lo, hi)
        while heap and len(results) < k:
            negative_weight, index, _, a, b = heapq.heappop(heap)
            if a < 0:
                results.append((self._key_str(index), -negative_weight))
                continue
            heapq.heappush(
                heap, (negative_weight, index, next(counter), -1, -1)
            )
            push_segment(a, index)
            push_segment(index + 1, b)
        return results

    def iter_prefix(self, prefix: str) -> Iterator[tuple[str, int]]:
        """All keys with ``prefix`` (lexicographic order), with weights."""
        lo, hi = self._range(prefix)
        for index in range(lo, hi):
            yield self._key_str(index), self._weights[index]

    def items(self) -> Iterator[tuple[str, int]]:
        """All keys with weights, lexicographic order."""
        return self.iter_prefix("")

    def __repr__(self) -> str:
        return f"PackedTrie(keys={self._n})"
