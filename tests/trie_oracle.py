"""Reference implementation: a weighted node trie with top-k completion.

This was ``repro.index.trie`` until the completion index started packing
its tries from counts (:class:`repro.index.packed.PackedTrie`); nothing
under ``src/`` builds or serves one any more.  It stays here as the
oracle the packed structure is tested against: keys are inserted one
character at a time, every node caches the maximum weight in its subtree,
and :meth:`Trie.complete` runs the best-first search the packed trie's
range-maximum search must reproduce element for element.

Nodes are plain three-slot lists ``[weight, best, children]``.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterator

#: Indexes into a node list ``[weight, best, children]``.
_WEIGHT, _BEST, _CHILDREN = 0, 1, 2

#: A trie node: ``[weight of the key ending here (0 = no key),
#:                max key weight in this subtree, {char: child node}]``.
TrieNode = list


def _new_node() -> TrieNode:
    return [0, 0, {}]


class Trie:
    """Weighted string trie supporting add, exact lookup, and top-k
    completion."""

    __slots__ = ("_root", "_size")

    def __init__(self) -> None:
        self._root: TrieNode = _new_node()
        self._size = 0

    def add(self, key: str, weight: int = 1) -> None:
        """Add ``weight`` to ``key``'s weight (inserting it if new)."""
        if weight <= 0:
            raise ValueError(f"weight must be positive: {weight}")
        node = self._root
        path = [node]
        for ch in key:
            children = node[_CHILDREN]
            node = children.get(ch)
            if node is None:
                node = _new_node()
                children[ch] = node
            path.append(node)
        if node[_WEIGHT] == 0:
            self._size += 1
        node[_WEIGHT] += weight
        key_weight = node[_WEIGHT]
        for visited in path:
            if key_weight > visited[_BEST]:
                visited[_BEST] = key_weight

    def weight(self, key: str) -> int:
        """Weight of ``key``, or 0 if absent."""
        node = self._find(key)
        return node[_WEIGHT] if node is not None else 0

    def __contains__(self, key: str) -> bool:
        return self.weight(key) > 0

    def __len__(self) -> int:
        """Number of distinct keys."""
        return self._size

    def _find(self, prefix: str) -> TrieNode | None:
        node = self._root
        for ch in prefix:
            node = node[_CHILDREN].get(ch)
            if node is None:
                return None
        return node

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def complete(self, prefix: str, k: int = 10) -> list[tuple[str, int]]:
        """Top-``k`` keys starting with ``prefix``, by descending weight.

        Ties break alphabetically.  Runs best-first over subtree-max
        weights, so the cost is O(|prefix| + k · branch) rather than the
        size of the matching subtree.
        """
        start = self._find(prefix)
        if start is None or k <= 0:
            return []
        results: list[tuple[str, int]] = []
        counter = itertools.count()
        # Max-heap over two entry kinds:
        #   node entries, keyed by the subtree's best key weight (an upper
        #   bound on every key below), and
        #   key entries, keyed by the key's own weight.
        # A popped *key* entry is final: nothing still in the heap can beat
        # it.  Ties break lexicographically via the key in the sort key.
        heap: list[tuple[int, str, int, TrieNode | None]] = [
            (-start[_BEST], prefix, next(counter), start)
        ]
        while heap and len(results) < k:
            negative_weight, key, _, node = heapq.heappop(heap)
            if node is None:
                results.append((key, -negative_weight))
                continue
            if node[_WEIGHT] > 0:
                heapq.heappush(heap, (-node[_WEIGHT], key, next(counter), None))
            for ch, child in node[_CHILDREN].items():
                heapq.heappush(heap, (-child[_BEST], key + ch, next(counter), child))
        return results

    def iter_prefix(self, prefix: str) -> Iterator[tuple[str, int]]:
        """All keys with ``prefix`` (lexicographic order), with weights."""
        start = self._find(prefix)
        if start is None:
            return
        stack: list[tuple[str, TrieNode]] = [(prefix, start)]
        while stack:
            key, node = stack.pop()
            if node[_WEIGHT] > 0:
                yield key, node[_WEIGHT]
            children = node[_CHILDREN]
            for ch in sorted(children, reverse=True):
                stack.append((key + ch, children[ch]))

    def items(self) -> Iterator[tuple[str, int]]:
        """All keys with weights, lexicographic order."""
        return self.iter_prefix("")
