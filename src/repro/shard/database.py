"""The sharded database facade.

:class:`ShardedDatabase` exposes the :class:`~repro.engine.database.LotusXDatabase`
API over a fleet of per-shard databases (see
:mod:`repro.shard.partitioner`).  Per call:

1. the **router** prunes shards that provably cannot answer;
2. the **executor** runs the work on each surviving shard in turn,
   inline, handing each the caller's deadline budget left when it starts;
3. the **merger** combines per-shard answers into globally exact results
   — document-order merge for twig matches, global-idf rescoring for
   ranked search, root-answer resolution for keyword search, and
   frequency-summed trie merges for completion.

Queries whose root could bind the replicated corpus root *with
cross-shard obligations* (see :func:`repro.shard.router.spine_safe`)
cannot be decomposed; they fall back to a lazily built monolithic
database over the same corpus, so every query is answered exactly.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from collections.abc import Sequence
from operator import attrgetter

from repro.autocomplete.candidates import Candidate
from repro.autocomplete.engine import AutocompleteEngine
from repro.engine.database import LotusXDatabase
from repro.engine.results import SearchResponse, SearchResult
from repro.engine.topk import rank_top_k
from repro.engine.translate import to_xpath, to_xquery
from repro.index.statistics import CorpusStatistics
from repro.keyword.search import KeywordResponse, _score
from repro.index.text import tokenize
from repro.ranking.scorer import LotusXScorer
from repro.fleet import FleetConfig, ReplicaFleet
from repro.resilience.deadline import Deadline
from repro.resilience.errors import DeadlineExceeded, ShardsUnavailable
from repro.resilience.faults import fault_point
from repro.rewrite.engine import QueryRewriter, RewriteCandidate
from repro.rewrite.rules import default_rules
from repro.shard.executor import ShardExecutor
from repro.shard.merger import (
    GlobalTermStats,
    GlobalTermView,
    RootTermView,
    ShardKeywordHit,
    ShardedCompletionIndex,
    merge_guides,
    merge_match_lists,
    merge_statistics,
)
from repro.shard.partitioner import (
    PartitionPlan,
    ShardSpec,
    build_shard_database,
    copy_subtree,
    partition_document,
)
from repro.shard.router import ShardRouter, spine_safe
from repro.twig.algorithms.common import AlgorithmStats
from repro.twig.match import Match
from repro.twig.parse import parse_twig
from repro.twig.pattern import Axis, QueryNode, TwigPattern
from repro.twig.planner import Algorithm
from repro.xmlio.builder import parse_file, parse_string
from repro.xmlio.tree import Document, Element, Text

#: Document order of an element across shards (regions are global).
_GLOBAL_START = attrgetter("region.start")


class _UnsafeRewrite(Exception):
    """A rewrite produced a pattern that cannot be shard-decomposed."""


class ShardedDatabase:
    """One partitioned corpus behind the single-database API."""

    #: Entries kept in the merged-result match cache.
    MATCH_CACHE_SIZE = 128
    #: Entries kept in the query-text parse cache.
    PARSE_CACHE_SIZE = 256

    def __init__(
        self,
        databases: Sequence[LotusXDatabase],
        specs: Sequence[ShardSpec],
        source_document: Document | None = None,
        scorer: LotusXScorer | None = None,
        synonyms: dict[str, tuple[str, ...]] | None = None,
        replicas: int = 1,
        fleet_config: FleetConfig | None = None,
    ) -> None:
        if len(databases) != len(specs) or not databases:
            raise ValueError("one spec per shard database is required")
        if replicas < 1:
            raise ValueError("replicas must be at least 1")
        self.shards = list(databases)
        self.specs = tuple(specs)
        self.spine_tag = self.specs[0].spine_tag
        self.source_document = source_document
        self.expanded_attributes = False
        self.scorer = scorer or LotusXScorer()
        self._synonyms = synonyms
        # A replica fleet is built when asked for more than one replica
        # (or an explicit fleet config): every scatter sub-request then
        # runs through health-ranked routing, retries, hedging, and
        # per-replica circuit breakers.
        self.fleet: ReplicaFleet | None = None
        if replicas > 1 or fleet_config is not None:
            config = fleet_config or FleetConfig()
            if config.replicas != replicas and replicas > 1:
                config = config.with_replicas(replicas)
            self.fleet = ReplicaFleet(self.shards, config)
        self.executor = ShardExecutor(
            self.shards,
            [spec.child_ordinal_offsets for spec in self.specs],
            fleet=self.fleet,
        )
        self.router = ShardRouter(self.shards, self.spine_tag)
        self.guide = merge_guides(self.shards, self.spine_tag)
        self.completion_index = ShardedCompletionIndex(
            self.shards, self.guide, self.spine_tag
        )
        self.autocomplete = AutocompleteEngine(self.guide, self.completion_index)
        self.term_stats = GlobalTermStats([db.term_index for db in self.shards])
        self._term_views = [
            GlobalTermView(db.term_index, self.term_stats) for db in self.shards
        ]
        self._root_view = RootTermView(self.term_stats)
        # Deepest element level (root = 0): every element sits at some
        # DataGuide path, so the merged guide knows it without a scan of
        # the shards' labels (a live-write view is built per batch).
        self._max_depth = max(
            (node.depth - 1 for node in self.guide.iter_nodes()), default=0
        )
        self.rewriter = QueryRewriter(default_rules(self.guide, synonyms))
        self._lock = threading.Lock()
        self._match_cache: OrderedDict = OrderedDict()
        self._parse_cache: OrderedDict = OrderedDict()
        self._serving_generation = 0
        self.counters: dict[str, int] = {
            "match_cache_hits": 0,
            "match_cache_misses": 0,
            "parse_cache_hits": 0,
            "parse_cache_misses": 0,
            "scatter_evaluations": 0,
            "fallback_evaluations": 0,
        }
        self._fallback_db: LotusXDatabase | None = None
        self._fallback_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_document(
        cls,
        document: Document,
        shards: int,
        scorer: LotusXScorer | None = None,
        synonyms: dict[str, tuple[str, ...]] | None = None,
        **kwargs,
    ) -> ShardedDatabase:
        """Partition ``document`` by top-level subtrees into ``shards``."""
        plan = partition_document(document, shards)
        databases = [
            build_shard_database(shard_document, spec, scorer, synonyms)
            for shard_document, spec in zip(plan.documents, plan.specs)
        ]
        return cls(
            databases,
            plan.specs,
            source_document=document,
            scorer=scorer,
            synonyms=synonyms,
            **kwargs,
        )

    @classmethod
    def from_string(cls, xml_text: str, shards: int, **kwargs) -> ShardedDatabase:
        return cls.from_document(parse_string(xml_text), shards, **kwargs)

    @classmethod
    def from_file(
        cls, path: str | os.PathLike[str], shards: int, **kwargs
    ) -> ShardedDatabase:
        return cls.from_document(parse_file(path), shards, **kwargs)

    @classmethod
    def from_files(
        cls,
        paths: Sequence[str | os.PathLike[str]],
        shards: int,
        collection_tag: str = "collection",
        annotate_source: bool = True,
        **kwargs,
    ) -> ShardedDatabase:
        """Index several XML files as one sharded collection (the
        multi-document twin of ``LotusXDatabase.from_files``)."""
        if not paths:
            raise ValueError("from_files needs at least one path")
        root = Element(collection_tag)
        for path in paths:
            document = parse_file(path)
            if annotate_source:
                document.root.attributes.setdefault(
                    "source", os.path.basename(os.fspath(path))
                )
            root.append(document.root)
        combined = Document(
            root, source_name=f"collection of {len(paths)} documents"
        )
        return cls.from_document(combined, shards, **kwargs)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    @property
    def element_count(self) -> int:
        """Corpus element count (the root counted once)."""
        return self.specs[0].total_elements

    @property
    def serving_generation(self) -> int:
        return self._serving_generation

    @serving_generation.setter
    def serving_generation(self, value: int) -> None:
        # Propagated into every shard: their plan-cache keys include it,
        # so a hot-swapped fleet can never serve a stale compiled plan.
        self._serving_generation = value
        for shard in self.shards:
            shard.serving_generation = value
        fallback = self._fallback_db
        if fallback is not None:
            fallback.serving_generation = value

    def warm(self) -> ShardedDatabase:
        """Force full materialization of every shard; returns ``self``."""
        for shard in self.shards:
            shard.warm()
        return self

    def warm_hot(self) -> ShardedDatabase:
        """Materialize only the hot query-path sections of every shard
        (snapshot-backed shards skip the document tree and label store —
        the mmap warm-start path); falls back to a full warm for shards
        without the distinction."""
        for shard in self.shards:
            hot = getattr(shard, "warm_hot", None)
            if hot is not None:
                hot()
            else:
                shard.warm()
        return self

    def close(self) -> None:
        """Close the executor, the replica fleet, and each shard that
        holds closeable resources (snapshot mappings)."""
        self.executor.close()
        if self.fleet is not None:
            self.fleet.close()
        for shard in self.shards:
            closer = getattr(shard, "close", None)
            if closer is not None:
                closer()

    def __repr__(self) -> str:
        return (
            f"ShardedDatabase(shards={len(self.shards)},"
            f" elements={self.element_count}, paths={len(self.guide)})"
        )

    # ------------------------------------------------------------------
    # Fallback
    # ------------------------------------------------------------------

    def _fallback(self) -> LotusXDatabase:
        """The lazily built monolithic database over the same corpus.

        Serves the (rare) queries that cannot be shard-decomposed; built
        once, on first need, from the source document when available or
        reassembled from the shard documents otherwise.
        """
        with self._fallback_lock:
            if self._fallback_db is None:
                document = self.source_document or self._reassemble_document()
                database = LotusXDatabase(
                    document, scorer=self.scorer, synonyms=self._synonyms
                )
                database.serving_generation = self._serving_generation
                self._fallback_db = database
            return self._fallback_db

    def _reassemble_document(self) -> Document:
        """Rebuild the monolithic document from the shard documents."""
        first_root = self.shards[0].document.root
        root = Element(
            first_root.tag, first_root.attributes, first_root.line, first_root.column
        )
        for child in first_root.children:
            if isinstance(child, Text):
                root.append(Text(child.value))
        for shard in self.shards:
            for unit in shard.document.root.child_elements():
                root.append(copy_subtree(unit))
        return Document(root, source_name="reassembled sharded corpus")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def statistics(self) -> CorpusStatistics:
        return CorpusStatistics(**merge_statistics(self.shards, self.guide))

    def parse_query(self, text: str) -> TwigPattern:
        return parse_twig(text)

    def to_xpath(self, query: str | TwigPattern) -> str:
        return to_xpath(self._as_pattern(query))

    def to_xquery(self, query: str | TwigPattern) -> str:
        return to_xquery(self._as_pattern(query))

    def explain(self, query: str | TwigPattern) -> dict:
        """Evaluation plan against the monolithic view of the corpus."""
        return self._fallback().explain(self._as_pattern(query))

    def example_queries(self, k: int = 5):
        from repro.autocomplete.examples import suggest_example_queries

        suggestions = suggest_example_queries(self.guide, self.completion_index, k * 2)
        verified = [s for s in suggestions if self.matches(s.query)]
        return verified[:k]

    def cache_statistics(self) -> dict:
        """Coordinator cache counters plus router and per-shard stats."""
        with self._lock:
            counters = dict(self.counters)
            match_entries = len(self._match_cache)
            parse_entries = len(self._parse_cache)
        result = {
            "counters": counters,
            "match_cache_entries": match_entries,
            "parse_cache_entries": parse_entries,
            "serving_generation": self._serving_generation,
            "autocomplete_cache": self.autocomplete.cache_info(),
            "shard_count": len(self.shards),
            "router": self.router.statistics(),
            "per_shard": [shard.cache_statistics() for shard in self.shards],
        }
        if self.fleet is not None:
            result["fleet"] = self.fleet.stats()
        return result

    # ------------------------------------------------------------------
    # Autocompletion (entirely coordinator-side: the merged DataGuide and
    # the frequency-summed completion facade already see global counts)
    # ------------------------------------------------------------------

    def complete_tag(
        self,
        pattern: TwigPattern | None = None,
        anchor: QueryNode | None = None,
        prefix: str = "",
        axis: Axis = Axis.CHILD,
        k: int = 10,
        deadline: Deadline | None = None,
    ) -> list[Candidate]:
        fault_point("engine.complete_tag", deadline)
        return self.autocomplete.complete_tag(
            pattern, anchor, prefix, axis, k, deadline
        )

    def complete_value(
        self,
        pattern: TwigPattern,
        node: QueryNode,
        prefix: str,
        k: int = 10,
        whole_values: bool = True,
        deadline: Deadline | None = None,
    ) -> list[Candidate]:
        fault_point("engine.complete_value", deadline)
        return self.autocomplete.complete_value(
            pattern, node, prefix, k, whole_values, deadline
        )

    # ------------------------------------------------------------------
    # Matching and search
    # ------------------------------------------------------------------

    def _scatter_matches(
        self,
        pattern: TwigPattern,
        algorithm: Algorithm,
        stats: AlgorithmStats | None,
        prune_streams: bool,
        deadline: Deadline | None,
    ) -> tuple[list[Match], bool, list[int]]:
        """Route, scatter, and merge one twig evaluation.

        Returns the globally merged, document-ordered matches, a flag
        marking that at least one shard ran out of budget (its partial
        answers are still merged in — partial-result salvage), and the
        indices of shards that *failed* outright (task raised or every
        replica of the group is down): their answers are missing from the
        merge and the caller must degrade or reject the response.
        """
        dispatch = self.router.route_pattern(pattern)
        with self._lock:
            self.counters["scatter_evaluations"] += 1
        if not dispatch:
            return [], False, []
        payload = {
            "pattern": pattern,
            "algorithm": algorithm,
            "prune_streams": prune_streams,
            "collect_stats": stats is not None,
        }
        outcomes = self.executor.run(dispatch, "matches", payload, deadline)
        merged = merge_match_lists([outcome.answers for outcome in outcomes])
        if stats is not None:
            for outcome in outcomes:
                shard_stats = outcome.stats
                if shard_stats is None:
                    continue
                stats.elements_scanned += shard_stats.elements_scanned
                stats.intermediate_results += shard_stats.intermediate_results
                stats.matches += shard_stats.matches
                for note, value in shard_stats.notes.items():
                    stats.notes[note] = stats.notes.get(note, 0) + value
            stats.notes["shards_dispatched"] = len(dispatch)
        tripped = any(outcome.tripped for outcome in outcomes)
        down = [outcome.shard_index for outcome in outcomes if outcome.failed]
        return merged, tripped, down

    def matches(
        self,
        query: str | TwigPattern,
        algorithm: Algorithm = Algorithm.AUTO,
        stats: AlgorithmStats | None = None,
        prune_streams: bool = False,
        deadline: Deadline | None = None,
    ) -> list[Match]:
        """Raw twig matches over the whole corpus, document order.

        Same contract as ``LotusXDatabase.matches`` — including the LRU
        result cache (bypassed by stats- or deadline-carrying calls) and
        ``DeadlineExceeded.partial`` carrying the salvaged merged matches
        when the budget runs out.  When a whole shard group is down,
        raises :class:`ShardsUnavailable` with the surviving shards'
        merged answers in ``partial`` (never cached — a degraded answer
        must not masquerade as a complete one once the group recovers).
        """
        pattern = self._as_pattern(query)
        if not spine_safe(pattern, self.spine_tag):
            self.router.note_fallback()
            with self._lock:
                self.counters["fallback_evaluations"] += 1
            return self._fallback().matches(
                pattern, algorithm, stats, prune_streams, deadline
            )
        if stats is not None or deadline is not None:
            merged, tripped, down = self._scatter_matches(
                pattern, algorithm, stats, prune_streams, deadline
            )
            if down:
                raise ShardsUnavailable(down=down, partial=merged)
            if tripped:
                raise DeadlineExceeded(
                    site="shard.scatter", partial=merged
                )
            return merged
        # Matches are keyed by node id, so the ids belong in the key:
        # equal signatures can number nodes differently.
        key = (
            pattern.signature(),
            tuple(node.node_id for node in pattern.nodes()),
            algorithm,
            prune_streams,
        )
        with self._lock:
            cached = self._match_cache.get(key)
            if cached is not None:
                self._match_cache.move_to_end(key)
                self.counters["match_cache_hits"] += 1
                return list(cached)
            self.counters["match_cache_misses"] += 1
        merged, _, down = self._scatter_matches(
            pattern, algorithm, None, prune_streams, None
        )
        if down:
            raise ShardsUnavailable(down=down, partial=merged)
        with self._lock:
            self._match_cache[key] = merged
            if len(self._match_cache) > self.MATCH_CACHE_SIZE:
                self._match_cache.popitem(last=False)
        return list(merged)

    def search(
        self,
        query: str | TwigPattern,
        k: int = 10,
        algorithm: Algorithm = Algorithm.AUTO,
        rewrite: bool = True,
        min_results: int = 1,
        timeout_ms: int | None = None,
        deadline: Deadline | None = None,
    ) -> SearchResponse:
        """Ranked search with rewriting, scatter-gathered per candidate.

        The rewriter runs at the coordinator (it only needs an evaluator
        callable); every candidate pattern is scattered like ``matches``.
        Scores use the corpus-wide idf, so they equal the monolithic
        scores bit for bit.  A rewrite candidate that is not
        shard-decomposable sends the whole search to the fallback.
        """
        pattern = self._as_pattern(query)
        started = time.perf_counter()
        if deadline is None and timeout_ms is not None:
            deadline = Deadline.after_ms(timeout_ms)
        fault_point("engine.search", deadline)
        if not spine_safe(pattern, self.spine_tag):
            self.router.note_fallback()
            with self._lock:
                self.counters["fallback_evaluations"] += 1
            return self._fallback().search(
                pattern,
                k,
                algorithm,
                rewrite,
                min_results,
                deadline=deadline,
            )
        truncated = False
        degraded: list[str] = []
        down_shards: set[int] = set()

        def evaluator(candidate_pattern: TwigPattern) -> list[Match]:
            if not spine_safe(candidate_pattern, self.spine_tag):
                raise _UnsafeRewrite(candidate_pattern)
            merged, tripped, down = self._scatter_matches(
                candidate_pattern, algorithm, None, False, deadline
            )
            if down:
                # Salvage: keep the surviving shards' answers and mark
                # the response degraded instead of failing the search.
                down_shards.update(down)
            if tripped:
                raise DeadlineExceeded(site="shard.scatter", partial=merged)
            return merged

        try:
            if rewrite:
                try:
                    outcome = self.rewriter.search_with_rewrites(
                        pattern,
                        evaluator,
                        min_results=min_results,
                        deadline=deadline,
                    )
                    productive = outcome.productive
                    rewrites_tried = outcome.evaluated - 1
                    used_rewrites = any(
                        candidate.steps for candidate, _ in productive
                    )
                    truncated = outcome.truncated
                    degraded.extend(outcome.degraded)
                except DeadlineExceeded as exc:
                    partial = exc.partial or []
                    productive = (
                        [(RewriteCandidate(pattern, 0.0, ()), partial)]
                        if partial
                        else []
                    )
                    rewrites_tried = 0
                    used_rewrites = False
                    truncated = True
            else:
                try:
                    matches = evaluator(pattern)
                except DeadlineExceeded as exc:
                    matches = exc.partial or []
                    truncated = True
                productive = (
                    [(RewriteCandidate(pattern, 0.0, ()), matches)]
                    if matches
                    else []
                )
                rewrites_tried = 0
                used_rewrites = False
        except _UnsafeRewrite:
            # A relaxation re-anchored the pattern on the corpus root in a
            # non-decomposable shape; answer the whole search monolithically.
            self.router.note_fallback()
            with self._lock:
                self.counters["fallback_evaluations"] += 1
            return self._fallback().search(
                pattern,
                k,
                algorithm,
                rewrite,
                min_results,
                deadline=deadline,
            )

        results = self._rank_productive(productive, k, deadline)
        if deadline is not None and deadline.tripped:
            truncated = True
            if "deadline" not in degraded:
                degraded.append("deadline")
        if down_shards:
            truncated = True
            for index in sorted(down_shards):
                tag = f"shard-{index}-unavailable"
                if tag not in degraded:
                    degraded.append(tag)
        return SearchResponse(
            query=str(pattern),
            results=results,
            total_matches=sum(len(matches) for _, matches in productive),
            used_rewrites=used_rewrites,
            rewrites_tried=rewrites_tried,
            elapsed_seconds=time.perf_counter() - started,
            truncated=truncated,
            degraded=tuple(degraded),
        )

    def _rank_productive(
        self, productive, k: int, deadline: Deadline | None = None
    ) -> list[SearchResult]:
        """The single-database ranking loop with global keys and scores:
        output identity and tie-breaking use ``region.start`` (global
        document order) instead of the shard-local ``order``, and matches
        are scored against their shard's global-idf term view."""
        term_views = self._term_views
        return rank_top_k(
            productive,
            k,
            deadline,
            self.scorer,
            lambda match: term_views[match.shard],
            _GLOBAL_START,
        )

    # ------------------------------------------------------------------
    # Keyword search
    # ------------------------------------------------------------------

    def keyword_search(
        self,
        query: str,
        k: int = 10,
        semantics: str = "slca",
        deadline: Deadline | None = None,
    ) -> KeywordResponse:
        """Corpus-wide keyword search over the shard fleet.

        Deep (below-root) answers are shard-local and exact — a non-root
        element's subtree never crosses a shard boundary — so the global
        answer is their union plus a coordinator-resolved verdict on the
        corpus root:

        * **SLCA**: the root answers iff no deep answer exists anywhere
          and every term occurs somewhere in the corpus;
        * **ELCA**: the root answers iff every term has an occurrence
          whose lowest qualifying ancestor is the root itself — shards
          report these "free" occurrences as per-term witness bits, and a
          *pruned* shard's occurrences are all free (it cannot contain a
          deep qualifying element, which needs all terms).

        Hits are scored with the exact single-database scoring function
        fed global term statistics.
        """
        if semantics not in ("slca", "elca"):
            raise ValueError(f"unknown keyword semantics {semantics!r}")
        fault_point("keyword.search", deadline)
        terms = tuple(tokenize(query, drop_stopwords=True)) or tuple(tokenize(query))
        if not terms:
            return KeywordResponse((), (), 0, semantics)
        dispatch, presence = self.router.route_terms(terms)
        lowered = [term.lower() for term in dict.fromkeys(terms)]
        outcomes = (
            self.executor.run(
                dispatch,
                "keyword",
                {"terms": list(terms), "semantics": semantics},
                deadline,
            )
            if dispatch
            else []
        )
        truncated = any(outcome.tripped for outcome in outcomes)
        down = [outcome.shard_index for outcome in outcomes if outcome.failed]
        deep: list[tuple] = []  # (element, shard index)
        free_terms: set[str] = set()
        dispatched = set(dispatch)
        for outcome in outcomes:
            for element in outcome.answers:
                if element.order == 0:
                    continue  # per-shard root replica; resolved globally
                deep.append((element, outcome.shard_index))
            free_terms.update(outcome.free)
        for index, shard_presence in enumerate(presence):
            if index in dispatched:
                continue
            # A pruned shard misses at least one term, so it holds no deep
            # qualifying element: every occurrence it does have witnesses
            # the corpus root directly.
            free_terms.update(
                term for term, present in shard_presence.items() if present
            )
        all_present = all(
            any(shard_presence[term] for shard_presence in presence)
            for term in lowered
        )
        if semantics == "slca":
            include_root = not deep and all_present
        else:
            include_root = all_present and all(
                term in free_terms for term in lowered
            )
        if down:
            # A down shard may hold unseen deep answers or witness bits;
            # the root verdict is unprovable, and claiming it could turn
            # an incomplete answer into a *wrong* one.  Leave it out.
            include_root = False
        total = len(deep) + (1 if include_root else 0)
        hits = []
        for element, shard_index in deep:
            scored = _score(
                element, terms, self._term_views[shard_index], self._max_depth
            )
            hits.append(
                ShardKeywordHit(
                    scored.element,
                    scored.score,
                    scored.text_score,
                    scored.specificity,
                    self.specs[shard_index].child_ordinal_offsets,
                )
            )
        if include_root:
            root_element = self.shards[0].labeled.elements[0]
            scored = _score(root_element, terms, self._root_view, self._max_depth)
            # Each shard's replica subtree carries only that shard's
            # children (root-direct text rides on shard 0), so the
            # monolithic root preview is the shard previews in order.
            root_text = " ".join(
                " ".join(shard.labeled.elements[0].element.itertext())
                for shard in self.shards
            )
            hits.append(
                ShardKeywordHit(
                    scored.element,
                    scored.score,
                    scored.text_score,
                    scored.specificity,
                    {},
                    snippet_text=root_text,
                )
            )
        hits.sort(key=lambda hit: (-hit.score, hit.element.region.start))
        degraded = tuple(
            f"shard-{index}-unavailable" for index in sorted(set(down))
        )
        return KeywordResponse(
            terms,
            tuple(hits[:k]),
            total,
            semantics,
            truncated or bool(down),
            degraded,
        )

    # ------------------------------------------------------------------

    def _as_pattern(self, query: str | TwigPattern) -> TwigPattern:
        """``LotusXDatabase._as_pattern`` with a thread-safe cache."""
        if isinstance(query, TwigPattern):
            return query
        with self._lock:
            cached = self._parse_cache.get(query)
            if cached is not None:
                self._parse_cache.move_to_end(query)
                self.counters["parse_cache_hits"] += 1
                return cached
            self.counters["parse_cache_misses"] += 1
        pattern = parse_twig(query)
        with self._lock:
            self._parse_cache[query] = pattern
            if len(self._parse_cache) > self.PARSE_CACHE_SIZE:
                self._parse_cache.popitem(last=False)
        return pattern


def sharded_from_plan(
    plan: PartitionPlan,
    source_document: Document | None = None,
    **kwargs,
) -> ShardedDatabase:
    """Build the fleet for an existing :class:`PartitionPlan`."""
    scorer = kwargs.get("scorer")
    synonyms = kwargs.get("synonyms")
    databases = [
        build_shard_database(document, spec, scorer, synonyms)
        for document, spec in zip(plan.documents, plan.specs)
    ]
    return ShardedDatabase(
        databases, plan.specs, source_document=source_document, **kwargs
    )
