"""Merging per-shard answers into globally exact results.

Shard elements keep shard-local ``order`` values, so nothing order-based
is comparable across shards — but their **regions** are in global
coordinates (see :mod:`repro.shard.partitioner`), and ``region.start``
is a strictly monotone bijection of the global preorder.  Every merge
key here therefore uses ``region.start`` where single-database code uses
``order``; the orderings are identical, so merged results reproduce the
monolithic ones byte for byte:

* **twig matches** — concatenate per-shard match lists, de-duplicate on
  the global identity key (only the shared spine-root binding can repeat
  across shards), and sort by the global document-order key;
* **ranked search** — the single-database ranking loop re-run at the
  coordinator with per-shard term views that score with the *global* idf
  (sum of per-shard document frequencies over the summed corpus size);
* **keyword search** — union of the shards' deep answers plus the
  coordinator-resolved root answer, scored via the exact ``_score``
  function of :mod:`repro.keyword.search` against global term
  statistics;
* **autocompletion** — handled by :class:`ShardedCompletionIndex`
  (frequency-summed trie merges) driven by the merged DataGuide.

Per-shard xpaths are corrected too: an element's depth-1 ancestor
ordinal is shard-local (each shard holds a slice of the root's
children), so every :class:`ShardMatch` and :class:`ShardKeywordHit`
carries its shard's per-tag unit count of all earlier shards for
:func:`repro.engine.results.element_xpath` to add.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.engine.database import LotusXDatabase
from repro.engine.results import element_xpath
from repro.index.term_index import TermIndex
from repro.keyword.search import KeywordHit
from repro.labeling.assign import LabeledElement
from repro.shard.partitioner import ShardSpec
from repro.summary.dataguide import DataGuide
from repro.twig.match import Match


class ShardMatch(Match):
    """A match produced by one shard, tagged with its origin and the
    shard's xpath ordinal offsets."""

    __slots__ = ("shard", "ordinal_offsets")

    def __init__(
        self, assignments, shard: int, ordinal_offsets: dict[str, int]
    ) -> None:
        super().__init__(assignments)
        self.shard = shard
        self.ordinal_offsets = ordinal_offsets


def global_match_key(match: Match) -> tuple[tuple[int, int], ...]:
    """Cross-shard identity: sorted ``(node_id, region.start)`` pairs."""
    return tuple(
        sorted((nid, el.region.start) for nid, el in match.assignments.items())
    )


def global_order_key(match: Match) -> tuple[int, ...]:
    """Global document-order sort key (the ``order_key`` twin)."""
    return tuple(
        match.assignments[nid].region.start for nid in sorted(match.assignments)
    )


def merge_match_lists(per_shard: list[list[Match]]) -> list[Match]:
    """Concatenate, de-duplicate on global identity, sort globally.

    Duplicates occur only when the pattern binds nothing but the
    replicated spine root (every shard reports the same binding); the
    dedup is keyed on the global identity so exactly one survives.
    """
    merged: dict[tuple, Match] = {}
    for matches in per_shard:
        for match in matches:
            merged.setdefault(global_match_key(match), match)
    return sorted(merged.values(), key=global_order_key)


# ----------------------------------------------------------------------
# Global term statistics
# ----------------------------------------------------------------------


class GlobalTermStats:
    """Corpus-wide idf / tf aggregates over the shard term indexes.

    Shard postings partition the corpus's text elements (the root's
    direct text is indexed by shard 0 only), so document frequencies and
    text-element counts are plain sums — giving exactly the numbers the
    monolithic :class:`~repro.index.term_index.TermIndex` would hold.
    """

    def __init__(self, term_indexes: list[TermIndex]) -> None:
        self._indexes = term_indexes
        self._n = max(
            1, sum(index.text_element_count for index in term_indexes)
        )
        self._idf_cache: dict[str, float] = {}
        self._total_cache: dict[str, int] = {}

    def idf(self, term: str) -> float:
        cached = self._idf_cache.get(term)
        if cached is None:
            df = sum(index.document_frequency(term) for index in self._indexes)
            cached = math.log(1.0 + self._n / (1.0 + df))
            self._idf_cache[term] = cached
        return cached

    def term_total(self, term: str) -> int:
        """Total corpus-wide term frequency (the root's subtree tf)."""
        cached = self._total_cache.get(term)
        if cached is None:
            cached = sum(
                sum(posting.tf for posting in index.postings(term))
                for index in self._indexes
            )
            self._total_cache[term] = cached
        return cached


class GlobalTermView:
    """A shard's term index scored with corpus-wide idf.

    Subtree term frequencies are exact shard-locally (a non-root
    element's subtree never crosses a shard boundary), so only ``idf``
    needs the global view.  Quacks enough like a ``TermIndex`` for
    :class:`repro.ranking.plan.ScoringPlan` and
    :func:`repro.keyword.search._score`.
    """

    __slots__ = ("_local", "_stats")

    def __init__(self, local: TermIndex, stats: GlobalTermStats) -> None:
        self._local = local
        self._stats = stats

    def idf(self, term: str) -> float:
        return self._stats.idf(term)

    def posting_list(self, term: str):
        return self._local.posting_list(term)

    @property
    def subtree_ends(self):
        return self._local.subtree_ends

    def subtree_term_frequency(self, element: LabeledElement, term: str) -> int:
        return self._local.subtree_term_frequency(element, term)


class RootTermView:
    """Term view for the replicated corpus root.

    A shard's replica only sees its own slice, so the root's subtree
    term frequency is the corpus-wide total instead.
    """

    __slots__ = ("_stats",)

    def __init__(self, stats: GlobalTermStats) -> None:
        self._stats = stats

    def idf(self, term: str) -> float:
        return self._stats.idf(term)

    def subtree_term_frequency(self, element: LabeledElement, term: str) -> int:
        return self._stats.term_total(term)


@dataclass(frozen=True, slots=True)
class ShardKeywordHit(KeywordHit):
    """A keyword hit whose xpath is corrected to global ordinals.

    ``snippet_text`` overrides the element-local preview: a hit on the
    corpus root names a *replica* element whose subtree holds only one
    shard's children, so the coordinator supplies the corpus-wide text.
    """

    ordinal_offsets: dict[str, int] = field(default_factory=dict)
    snippet_text: str | None = None

    def as_dict(self) -> dict:
        from repro.engine.results import make_snippet, snippet_from_text

        return {
            "xpath": element_xpath(self.element, self.ordinal_offsets),
            "tag": self.element.tag,
            "snippet": (
                make_snippet(self.element)
                if self.snippet_text is None
                else snippet_from_text(self.snippet_text)
            ),
            "score": round(self.score, 4),
            "text_score": round(self.text_score, 4),
            "specificity": round(self.specificity, 4),
        }


# ----------------------------------------------------------------------
# Merged structural summaries
# ----------------------------------------------------------------------


def merge_guides(databases: list[LotusXDatabase], spine_tag: str) -> DataGuide:
    """One corpus-wide DataGuide from the per-shard guides.

    Path sets union and counts add; the spine root path is counted once
    per shard (every shard carries a replica), so its count is corrected
    back to 1.  The merged guide is exactly the monolithic one up to
    node-id assignment order, which nothing downstream depends on.
    """
    guide = DataGuide()
    for database in databases:
        for node in database.labeled.guide.iter_nodes():
            guide.add_path(node.path, node.count, node.text_count)
    root_node = guide.node_for_path((spine_tag,))
    if root_node is not None and len(databases) > 1:
        root_node.count -= len(databases) - 1
    return guide


def merge_statistics(databases: list[LotusXDatabase], guide: DataGuide) -> dict:
    """Aggregates for :class:`~repro.index.statistics.CorpusStatistics`.

    Every sum is corrected for the ``n - 1`` extra root replicas; term
    and value vocabularies union; depth maxima max.
    """
    replicas = max(0, len(databases) - 1)
    element_count = (
        sum(len(db.labeled) for db in databases) - replicas
    )
    depth_total = 0.0
    max_depth = 0
    for db in databases:
        levels = [element.level + 1 for element in db.labeled.elements]
        depth_total += sum(levels)
        max_depth = max(max_depth, max(levels, default=0))
    depth_total -= replicas  # each replica root contributed depth 1
    terms: set[str] = set()
    values: set[str] = set()
    total_tokens = 0
    text_elements = 0
    tags: set[str] = set()
    for db in databases:
        terms.update(db.term_index.vocabulary())
        values.update(db.term_index.values())
        total_tokens += db.term_index.total_tokens
        text_elements += db.term_index.text_element_count
        tags.update(db.labeled.tags())
    return {
        "element_count": element_count,
        "distinct_tags": len(tags),
        "distinct_paths": len(guide),
        "max_depth": max_depth,
        "average_depth": depth_total / element_count if element_count else 0.0,
        "text_element_count": text_elements,
        "distinct_terms": len(terms),
        "total_tokens": total_tokens,
        "distinct_values": len(values),
    }


# ----------------------------------------------------------------------
# Merged completion index
# ----------------------------------------------------------------------


class ShardedCompletionIndex:
    """A :class:`~repro.index.completion_index.CompletionIndex` facade
    over the per-shard tries, exact under frequency summing.

    Positions arrive as *merged-guide* path node ids; each is translated
    to the corresponding shard path ids (same path tuple).  For each
    path, the shards' per-path tries are fully enumerated and summed —
    giving exactly the per-path counts of the monolithic trie — then the
    monolithic pipeline is reproduced: per-path top-k, frequency-summed
    union across paths, final ``(-count, text)`` rank.
    """

    def __init__(
        self,
        databases: list[LotusXDatabase],
        merged_guide: DataGuide,
        spine_tag: str,
    ) -> None:
        self._databases = databases
        self._merged_guide = merged_guide
        self._spine_tag = spine_tag
        # merged path id -> per-shard path id (or None when the shard
        # has no elements at that path).
        self._path_maps: dict[int, list[int | None]] = {}
        for node in merged_guide.iter_nodes():
            per_shard: list[int | None] = []
            for database in databases:
                shard_node = database.labeled.guide.node_for_path(node.path)
                per_shard.append(
                    shard_node.node_id if shard_node is not None else None
                )
            self._path_maps[node.node_id] = per_shard

    # -- helpers -------------------------------------------------------

    def _combined_path_counts(
        self, path_id: int, prefix: str, kind: str
    ) -> dict[str, int]:
        """Exact summed counts of one merged path's value/token trie."""
        combined: dict[str, int] = {}
        shard_ids = self._path_maps.get(path_id)
        if shard_ids is None:
            return combined
        for database, shard_path_id in zip(self._databases, shard_ids):
            if shard_path_id is None:
                continue
            completion = database.completion_index
            tries = (
                completion._path_value_tries
                if kind == "value"
                else completion._path_token_tries
            )
            trie = tries.get(shard_path_id)
            if trie is None:
                continue
            for key, weight in trie.iter_prefix(prefix):
                combined[key] = combined.get(key, 0) + weight
        return combined

    def _complete_at(
        self, path_ids, prefix: str, k: int, kind: str
    ) -> list[tuple[str, int]]:
        normalized = prefix.lower()
        merged: dict[str, int] = {}
        for path_id in path_ids:
            counts = self._combined_path_counts(path_id, normalized, kind)
            top = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
            for key, weight in top[:k]:
                merged[key] = merged.get(key, 0) + weight
        ranked = sorted(merged.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:k]

    # -- CompletionIndex API -------------------------------------------

    def complete_value_at(
        self, path_ids, prefix: str, k: int = 10
    ) -> list[tuple[str, int]]:
        return self._complete_at(path_ids, prefix, k, "value")

    def complete_token_at(
        self, path_ids, prefix: str, k: int = 10
    ) -> list[tuple[str, int]]:
        return self._complete_at(path_ids, prefix, k, "token")

    def path_has_values(self, path_id: int) -> bool:
        shard_ids = self._path_maps.get(path_id)
        if shard_ids is None:
            return False
        for database, shard_path_id in zip(self._databases, shard_ids):
            if shard_path_id is None:
                continue
            if database.completion_index.path_has_values(shard_path_id):
                return True
        return False

    def complete_tag(self, prefix: str, k: int = 10) -> list[tuple[str, int]]:
        """Position-blind tag completion from the merged guide counts."""
        normalized = prefix.lower()
        pool = [
            (tag, self._merged_guide.tag_count(tag))
            for tag in self._merged_guide.all_tags()
            if tag.lower().startswith(normalized)
        ]
        ranked = sorted(pool, key=lambda item: (-item[1], item[0]))
        return ranked[:k]

    def _global_counts(self, prefix: str, attribute: str) -> dict[str, int]:
        combined: dict[str, int] = {}
        for database in self._databases:
            trie = getattr(database.completion_index, attribute)
            for key, weight in trie.iter_prefix(prefix):
                combined[key] = combined.get(key, 0) + weight
        return combined

    def complete_value_global(self, prefix: str, k: int = 10) -> list[tuple[str, int]]:
        counts = self._global_counts(prefix.lower(), "global_value_trie")
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:k]

    def complete_token_global(self, prefix: str, k: int = 10) -> list[tuple[str, int]]:
        counts = self._global_counts(prefix.lower(), "global_token_trie")
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:k]


def ordinal_offsets_for(spec: ShardSpec) -> dict[str, int]:
    """The xpath depth-1 correction map for a shard (empty for shard 0)."""
    return dict(spec.child_ordinal_offsets)
