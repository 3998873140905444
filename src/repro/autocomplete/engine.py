"""The position-aware autocompletion engine.

Answers the two questions the LotusX GUI asks while a user builds a twig:

* *tag completion* — "the user is attaching a new node under query node Q
  with axis A and has typed ``prefix``: which element tags can occur
  there?"  (:meth:`AutocompleteEngine.complete_tag`)
* *value completion* — "the user is typing a value into query node Q:
  which values/terms occur at Q's possible positions?"
  (:meth:`AutocompleteEngine.complete_value`)

Both are *position-aware*: the candidate pool is first restricted to the
DataGuide positions consistent with the entire partial twig
(:func:`~repro.autocomplete.context.candidate_positions`), then ranked.
The position-blind variants (global tries only) are exposed for the E3
comparison benchmark.
"""

from __future__ import annotations

import heapq
import threading
from collections import OrderedDict

from repro.autocomplete.candidates import Candidate, CandidateKind
from repro.autocomplete.context import candidate_positions
from repro.autocomplete.scoring import candidate_score
from repro.index.completion_index import CompletionIndex
from repro.resilience.deadline import Deadline, charged
from repro.resilience.errors import DeadlineExceeded
from repro.summary.dataguide import DataGuide, PathNode, strictly_below
from repro.summary.paths import PATH_SEPARATOR
from repro.twig.pattern import Axis, QueryNode, TwigPattern

#: How many example paths to attach to each candidate.
_SAMPLE_PATHS = 3


def _node_ids(pattern: TwigPattern | None) -> tuple[int, ...] | None:
    """The pattern's node ids in preorder (part of every cache key)."""
    if pattern is None:
        return None
    return tuple(node.node_id for node in pattern.nodes())


class AutocompleteEngine:
    """Position-aware tag and value completion over one indexed corpus.

    Completions are LRU-cached by their full request identity (pattern
    signature, the pattern's preorder node ids, anchor node, normalized
    prefix, axis, ``k`` …): a user typing a prefix character-by-character
    re-asks highly overlapping questions, and the corpus is immutable for
    the engine's lifetime.  The node ids belong in the key because the
    anchor is named by id, and two structurally equal patterns can number
    their nodes differently (a GUI session numbers them in the order the
    user adds them).  The cache lives on the engine instance, and the
    engine lives on the database instance, so a hot reload — which swaps
    in a whole new database — drops it wholesale.  Every call reads the
    cache; only answers whose deadline did not trip are written to it, so
    a truncated answer is never cached and a cached answer is never
    truncated.
    """

    #: Entries kept in the completion LRU cache.
    CACHE_SIZE = 256

    def __init__(self, guide: DataGuide, completion_index: CompletionIndex) -> None:
        self._guide = guide
        self._completions = completion_index
        self._cache: OrderedDict = OrderedDict()
        self._cache_hits = 0
        self._cache_misses = 0
        self._rendered_paths: list[str] | None = None
        #: Guards the LRU and its counters: completions are served from
        #: concurrent request threads and bare ``+=`` drops updates.
        self._cache_lock = threading.Lock()

    def cache_info(self) -> dict:
        """Size and hit/miss counters of the completion cache."""
        with self._cache_lock:
            return {
                "entries": len(self._cache),
                "max_size": self.CACHE_SIZE,
                "hits": self._cache_hits,
                "misses": self._cache_misses,
            }

    def _cache_get(self, key) -> list[Candidate] | None:
        with self._cache_lock:
            cached = self._cache.get(key)
            if cached is None:
                self._cache_misses += 1
                return None
            self._cache.move_to_end(key)
            self._cache_hits += 1
            return list(cached)

    def clear_cache(self) -> None:
        """Drop every cached completion (generation advance: the corpus
        behind the guide/completion index changed, so cached candidate
        lists and counts may be stale)."""
        with self._cache_lock:
            self._cache.clear()

    def _cache_put(self, key, value: list[Candidate]) -> None:
        with self._cache_lock:
            self._cache[key] = value
            if len(self._cache) > self.CACHE_SIZE:
                self._cache.popitem(last=False)

    # ------------------------------------------------------------------
    # Tag completion
    # ------------------------------------------------------------------

    def complete_tag(
        self,
        pattern: TwigPattern | None,
        anchor: QueryNode | None,
        prefix: str = "",
        axis: Axis = Axis.CHILD,
        k: int = 10,
        deadline: Deadline | None = None,
    ) -> list[Candidate]:
        """Tags valid for a new node attached under ``anchor`` via ``axis``.

        With no pattern (the user is placing the twig's first node), every
        tag in the corpus is a candidate.  Otherwise the anchor's valid
        positions are computed from the whole partial pattern and only
        tags occurring below them (children for ``/``, any descendant for
        ``//``) are proposed.

        A ``deadline`` expiring mid-enumeration degrades gracefully: the
        candidates gathered so far are ranked and returned (the caller can
        observe ``deadline.tripped`` to report truncation).  The guide
        walks are charged to it by the number of paths they visit.  A
        cached answer is returned without consulting the deadline; an
        answer is cached only if the deadline did not trip.
        """
        normalized = prefix.strip().lower()
        cache_key = (
            "tag",
            pattern.signature() if pattern is not None else None,
            _node_ids(pattern),
            anchor.node_id if anchor is not None else None,
            normalized,
            axis,
            k,
        )
        cached = self._cache_get(cache_key)
        if cached is not None:
            return cached
        pool: dict[str, int] = {}
        anchor_positions: set[PathNode] | None = None
        try:
            if pattern is None or anchor is None:
                pool_counts = self._guide.tag_counts()
                if deadline is not None:
                    deadline.check("autocomplete.tags", cost=len(self._guide))
            else:
                positions = candidate_positions(
                    pattern, self._guide, deadline=deadline
                )
                anchor_positions = positions.get(anchor.node_id, set())
                if axis is Axis.CHILD:
                    pool_counts = self._guide.child_tags_of(anchor_positions)
                else:
                    pool_counts = self._guide.descendant_tags_of(
                        anchor_positions, deadline
                    )
            for tag, count in pool_counts.items():
                if deadline is not None:
                    deadline.check("autocomplete.tags")
                if tag.lower().startswith(normalized):
                    pool[tag] = count
        except DeadlineExceeded:
            # Rank whatever made it into the pool before the budget ran
            # out; ``deadline.tripped`` marks the truncation.
            pass
        result = self._rank_tags(
            pool, normalized, k, anchor_positions, axis, deadline
        )
        if deadline is None or not deadline.tripped:
            self._cache_put(cache_key, list(result))
        return result

    def complete_tag_global(self, prefix: str = "", k: int = 10) -> list[Candidate]:
        """Position-blind tag completion (baseline for experiment E3)."""
        normalized = prefix.strip().lower()
        ranked = self._completions.complete_tag(normalized, k)
        return [
            Candidate(
                text=tag,
                kind=CandidateKind.TAG,
                count=count,
                score=candidate_score(count, normalized, tag),
            )
            for tag, count in ranked
        ]

    def _rank_tags(
        self,
        pool: dict[str, int],
        prefix: str,
        k: int,
        anchor_positions: set[PathNode] | None = None,
        axis: Axis = Axis.CHILD,
        deadline: Deadline | None = None,
    ) -> list[Candidate]:
        # The ranking does not depend on the sample paths, so only the
        # k winners have theirs collected.
        ranked = sorted(
            (
                (candidate_score(count, prefix, tag), tag, count)
                for tag, count in pool.items()
            ),
            key=lambda entry: (-entry[0], entry[1]),
        )[:k]
        samples = self._sample_paths(
            [tag for _, tag, _ in ranked], anchor_positions, axis, deadline
        )
        return [
            Candidate(
                text=tag,
                kind=CandidateKind.TAG,
                count=count,
                score=score,
                sample_paths=samples[tag],
            )
            for score, tag, count in ranked
        ]

    def _sample_paths(
        self,
        tags: list[str],
        anchor_positions: set[PathNode] | None,
        axis: Axis,
        deadline: Deadline | None = None,
    ) -> dict[str, tuple[str, ...]]:
        """Up to :data:`_SAMPLE_PATHS` example paths per tag, sorted: the
        guide paths with that tag at a position the candidate can take.

        One walk serves every tag.  Samples only illustrate a candidate,
        so when ``deadline`` expires mid-walk each tag keeps the paths
        found so far.
        """
        if not tags:
            return {}
        found: dict[str, set[PathNode]] = {tag: set() for tag in tags}
        if anchor_positions is None:
            nodes = list(self._guide.iter_nodes())
        elif axis is Axis.CHILD:
            nodes = [
                child
                for anchor_position in anchor_positions
                for child in anchor_position.children.values()
            ]
        else:
            nodes = strictly_below(anchor_positions)
        try:
            for node in charged(nodes, deadline, "autocomplete.samples"):
                bucket = found.get(node.tag)
                if bucket is not None:
                    bucket.add(node)
        except DeadlineExceeded:
            pass
        texts = self._path_texts()
        return {
            tag: tuple(
                heapq.nsmallest(
                    _SAMPLE_PATHS, (texts[node.node_id] for node in bucket)
                )
            )
            for tag, bucket in found.items()
        }

    def _path_texts(self) -> list[str]:
        """``format_path`` of every guide path, indexed by node id,
        rendered once per guide (a parent's id is below its children's,
        so each text extends its parent's)."""
        texts = self._rendered_paths
        if texts is None or len(texts) != len(self._guide) + 1:
            texts = [""]
            for node in self._guide.iter_nodes():
                texts.append(texts[node.parent.node_id] + PATH_SEPARATOR + node.tag)
            self._rendered_paths = texts
        return texts

    # ------------------------------------------------------------------
    # Value completion
    # ------------------------------------------------------------------

    def complete_value(
        self,
        pattern: TwigPattern,
        node: QueryNode,
        prefix: str,
        k: int = 10,
        whole_values: bool = True,
        deadline: Deadline | None = None,
    ) -> list[Candidate]:
        """Values (or single terms) occurring at ``node``'s positions.

        ``whole_values=True`` proposes complete element values (e.g. author
        names); ``False`` proposes individual text tokens, which is the
        right mode for long prose fields.

        A ``deadline`` expiring while positions are gathered degrades to
        completing over the positions collected so far
        (``deadline.tripped`` marks the truncation).  The cache is read
        and written as for tag completion.
        """
        normalized = prefix.strip().lower()
        cache_key = (
            "value",
            pattern.signature(),
            _node_ids(pattern),
            node.node_id,
            normalized,
            k,
            whole_values,
        )
        cached = self._cache_get(cache_key)
        if cached is not None:
            return cached
        path_ids: list[int] = []
        try:
            positions = candidate_positions(pattern, self._guide, deadline=deadline)
            node_positions = positions.get(node.node_id, set())
            for p in node_positions:
                if deadline is not None:
                    deadline.check("autocomplete.values")
                path_ids.append(p.node_id)
        except DeadlineExceeded:
            # Complete over the positions collected before expiry.
            pass
        if whole_values:
            ranked = self._completions.complete_value_at(path_ids, normalized, k)
            kind = CandidateKind.VALUE
        else:
            ranked = self._completions.complete_token_at(path_ids, normalized, k)
            kind = CandidateKind.TERM
        result = [
            Candidate(
                text=value,
                kind=kind,
                count=count,
                score=candidate_score(count, normalized, value),
            )
            for value, count in ranked
        ]
        if deadline is None or not deadline.tripped:
            self._cache_put(cache_key, list(result))
        return result

    def complete_value_global(
        self, prefix: str, k: int = 10, whole_values: bool = True
    ) -> list[Candidate]:
        """Position-blind value completion (baseline for experiment E3)."""
        normalized = prefix.strip().lower()
        if whole_values:
            ranked = self._completions.complete_value_global(normalized, k)
            kind = CandidateKind.VALUE
        else:
            ranked = self._completions.complete_token_global(normalized, k)
            kind = CandidateKind.TERM
        return [
            Candidate(
                text=value,
                kind=kind,
                count=count,
                score=candidate_score(count, normalized, value),
            )
            for value, count in ranked
        ]
