"""Completion indexes: the data structures behind LotusX auto-completion.

Two families of tries are maintained:

* **tag completion** — one global trie of tag names weighted by element
  count.  Position-awareness for tags comes from the DataGuide (the
  candidate *set* is restricted first, then weighted), so no per-path tag
  tries are needed.
* **value completion** — per DataGuide path node, a trie of tokens and a
  trie of whole (normalized) values occurring in elements *at that path*.
  This is the position-aware side: when the user types a value into a twig
  node, only values that actually occur at the node's possible positions
  are proposed.  A global token/value trie pair is kept as the
  position-blind baseline (experiment E3) and as a fallback for wildcard
  nodes.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.index.packed import PackedTrie
from repro.index.term_index import TermIndex
from repro.labeling.assign import LabeledDocument


class CompletionIndex:
    """All completion tries for one labeled document.

    Built from counts, not by insertion: the term pass has already
    tokenized and normalized every element's direct text, so the token
    and value weights are summed out of its postings into plain dicts
    (globally and per DataGuide path) and each dict is packed once.
    The result is keyed by path id and reads no region label, so — like
    the :class:`~repro.index.term_index.TermIndex` it derives from — it
    is independent of where the document's labels sit in a larger corpus.
    """

    def __init__(self, labeled: LabeledDocument, term_index: TermIndex) -> None:
        tags: dict[str, int] = {}
        for path_node in labeled.guide.iter_nodes():
            tags[path_node.tag] = tags.get(path_node.tag, 0) + path_node.count
        path_of = [element.path_node.node_id for element in labeled.elements]
        tokens, path_tokens = _sum_weights(term_index.iter_postings(), path_of)
        values, path_values = _sum_weights(
            (
                (value, orders, [1] * len(orders))
                for value, orders in term_index.iter_value_postings()
            ),
            path_of,
        )

        pack = PackedTrie.from_counts
        self.tag_trie = pack(tags)
        self.global_token_trie = pack(tokens)
        self.global_value_trie = pack(values)
        self._path_token_tries = {
            path_id: pack(counts) for path_id, counts in path_tokens.items()
        }
        self._path_value_tries = {
            path_id: pack(counts) for path_id, counts in path_values.items()
        }

    # ------------------------------------------------------------------
    # Tag completion
    # ------------------------------------------------------------------

    def complete_tag(self, prefix: str, k: int = 10) -> list[tuple[str, int]]:
        """Top-k tag names by element count (position-blind).

        Case-insensitive like the position-aware path, and tags come back
        in their real case — so the (small) tag vocabulary is filtered,
        not prefix-searched: its keys are not case-folded.
        """
        normalized = prefix.lower()
        pool = [
            item
            for item in self.tag_trie.items()
            if item[0].lower().startswith(normalized)
        ]
        pool.sort(key=lambda item: (-item[1], item[0]))
        return pool[:k]

    # ------------------------------------------------------------------
    # Value completion
    # ------------------------------------------------------------------

    def complete_value_at(
        self, path_ids: Iterable[int], prefix: str, k: int = 10
    ) -> list[tuple[str, int]]:
        """Top-k whole values with ``prefix`` occurring at any of the given
        DataGuide path nodes (position-aware)."""
        return _merge_completions(
            (self._path_value_tries.get(pid) for pid in path_ids), prefix, k
        )

    def complete_token_at(
        self, path_ids: Iterable[int], prefix: str, k: int = 10
    ) -> list[tuple[str, int]]:
        """Top-k text tokens with ``prefix`` at the given path nodes."""
        return _merge_completions(
            (self._path_token_tries.get(pid) for pid in path_ids), prefix, k
        )

    def complete_value_global(self, prefix: str, k: int = 10) -> list[tuple[str, int]]:
        """Position-blind whole-value completion (baseline)."""
        return self.global_value_trie.complete(prefix.lower(), k)

    def complete_token_global(self, prefix: str, k: int = 10) -> list[tuple[str, int]]:
        """Position-blind token completion (baseline)."""
        return self.global_token_trie.complete(prefix.lower(), k)

    def path_has_values(self, path_id: int) -> bool:
        """True if any completable value occurs at this path node."""
        return path_id in self._path_value_tries or path_id in self._path_token_tries


def _sum_weights(
    postings: Iterable[tuple[str, Iterable[int], Iterable[int]]],
    path_of: list[int],
) -> tuple[dict[str, int], dict[int, dict[str, int]]]:
    """Total weight per key, overall and per DataGuide path id, from
    ``(key, element orders, weight at each order)`` postings."""
    totals: dict[str, int] = {}
    by_path: dict[int, dict[str, int]] = {}
    for key, orders, weights in postings:
        totals[key] = sum(weights)
        for order, weight in zip(orders, weights):
            counts = by_path.get(path_of[order])
            if counts is None:
                counts = by_path[path_of[order]] = {}
            counts[key] = counts.get(key, 0) + weight
    return totals, by_path


def _merge_completions(
    tries: Iterable[PackedTrie | None], prefix: str, k: int
) -> list[tuple[str, int]]:
    """Union per-trie top-k lists, summing weights for shared keys.

    Each contributing trie yields its own top-k; summing over at most
    ``len(tries) * k`` entries keeps the merge cheap while remaining exact
    for any key whose total weight places it in the merged top-k.
    """
    merged: dict[str, int] = {}
    normalized = prefix.lower()
    for trie in tries:
        if trie is None:
            continue
        for key, weight in trie.complete(normalized, k):
            merged[key] = merged.get(key, 0) + weight
    ranked = sorted(merged.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]
