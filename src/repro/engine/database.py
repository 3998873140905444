"""The LotusX database facade.

:class:`LotusXDatabase` owns one indexed document and exposes the full
feature set from the abstract behind a small API:

* ``complete_tag`` / ``complete_value`` — position-aware autocompletion;
* ``matches`` — raw twig evaluation with a selectable algorithm;
* ``search`` — ranked search with automatic query rewriting;
* ``to_xpath`` / ``to_xquery`` — query translation;
* ``statistics`` / ``explain`` — introspection.

Typical use::

    from repro import LotusXDatabase

    db = LotusXDatabase.from_file("dblp.xml")
    response = db.search('//article[./title~"twig"]/author')
    for hit in response:
        print(hit.xpath, hit.snippet, hit.score.combined)
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
from repro.index.completion_index import CompletionIndex
from repro.index.element_index import StreamFactory
from repro.index.statistics import CorpusStatistics, compute_statistics
from repro.index.term_index import TermIndex
from repro.labeling.assign import LabeledDocument, label_document
from repro.ranking.scorer import LotusXScorer
from repro.resilience.deadline import Deadline
from repro.resilience.errors import DeadlineExceeded
from repro.resilience.faults import fault_point
from repro.rewrite.engine import QueryRewriter
from repro.rewrite.rules import default_rules
from repro.engine.results import SearchResponse, SearchResult
from repro.engine.topk import rank_top_k
from repro.engine.translate import to_xpath, to_xquery
from repro.twig.algorithms.common import AlgorithmStats
from repro.twig.match import Match, sort_matches
from repro.twig.parse import parse_twig
from repro.twig.pattern import Axis, QueryNode, TwigPattern
from repro.twig.planner import Algorithm, compile_plan, execute_plan
from repro.xmlio.builder import parse_file, parse_string
from repro.xmlio.tree import Document, Element

#: Document order of an element within one labeled document.
_ORDER = attrgetter("order")


class LotusXDatabase:
    """One indexed XML document plus every query-time component."""

    #: Tenant name when this instance serves a named corpus in a
    #: multi-tenant registry (stamped by the serving layer's
    #: ``DatabaseHolder``); ``None`` for standalone databases.  Caches
    #: never need tenant partitioning beyond this: every tenant owns a
    #: whole database instance, so plan/match/stream/completion caches
    #: are partitioned by construction and die with the instance.
    tenant_label: str | None = None

    def __init__(
        self,
        document: Document,
        scorer: LotusXScorer | None = None,
        synonyms: dict[str, tuple[str, ...]] | None = None,
        expand_attributes: bool = False,
    ) -> None:
        self.document = document
        #: Whether attributes were expanded into @name nodes for indexing
        #: (persisted by the store so loads rebuild the same index).
        self.expanded_attributes = expand_attributes
        if expand_attributes:
            # Attributes become queryable "@name" twig nodes; the indexed
            # tree is a shadow copy, the caller's document stays pristine.
            from repro.xmlio.transform import expand_attributes as expand

            indexed_document = expand(document)
        else:
            indexed_document = document
        self.labeled: LabeledDocument = label_document(indexed_document)
        self.term_index = TermIndex(self.labeled)
        self.completion_index = CompletionIndex(self.labeled, self.term_index)
        self._finish_wiring(scorer, synonyms)

    def _finish_wiring(
        self,
        scorer: LotusXScorer | None,
        synonyms: dict[str, tuple[str, ...]] | None,
    ) -> None:
        """Wire the query-time components on top of the built indexes.

        Split out of ``__init__`` so snapshot loading — which restores
        ``labeled``/``term_index``/``completion_index`` from disk instead
        of building them — can reuse the exact same wiring.
        """
        self.streams = StreamFactory(self.labeled, self.term_index)
        self.autocomplete = AutocompleteEngine(
            self.labeled.guide, self.completion_index
        )
        self.scorer = scorer or LotusXScorer()
        #: Synonym table handed to the rewriter (persisted by snapshots so
        #: a load rebuilds the identical rule set).
        self._synonyms = synonyms
        self.rewriter = QueryRewriter(default_rules(self.labeled.guide, synonyms))
        self._init_runtime_caches()

    def _init_runtime_caches(self) -> None:
        """Per-instance query caches and their hit/miss counters.

        Called by both construction paths (full build and snapshot load).
        Every cache lives on the database instance, so a hot reload —
        which swaps in a whole new instance — drops them all at once;
        the plan cache additionally keys on :attr:`serving_generation`
        for defense in depth.
        """
        self._match_cache: OrderedDict = OrderedDict()
        self._plan_cache: OrderedDict = OrderedDict()
        self._parse_cache: OrderedDict = OrderedDict()
        #: Guards the caches and hit/miss counters: request handlers run
        #: on concurrent threads, and unguarded ``+=`` drops updates.
        self._counter_lock = threading.Lock()
        #: Stamped by the serving layer (``DatabaseHolder``); 0 means
        #: "not behind a holder".  Assigned directly — the property
        #: setter's invalidation hooks have nothing to clear yet.
        self._serving_generation = 0
        self.counters: dict[str, int] = {
            "match_cache_hits": 0,
            "match_cache_misses": 0,
            "plan_cache_hits": 0,
            "plan_cache_misses": 0,
            "parse_cache_hits": 0,
            "parse_cache_misses": 0,
            "columnar_evaluations": 0,
            "fallback_evaluations": 0,
        }

    @property
    def serving_generation(self):
        """The generation stamp of the serving layer.

        Plan-cache keys include it; moving it additionally clears the
        match cache, the stream-factory filtered-stream memo, and the
        autocomplete completion cache.  Historically those only died
        with the instance on hot reload (a swap installs a whole new
        database), but the live write path advances generations while
        *keeping* unchanged segment databases — a memoized columnar
        stream or completion list built under the old generation (e.g.
        holding the corpus root's old region width) must not survive
        the advance.
        """
        return self._serving_generation

    @serving_generation.setter
    def serving_generation(self, value) -> None:
        if value == self._serving_generation:
            return
        self._serving_generation = value
        with self._counter_lock:
            self._match_cache.clear()
            # Old-generation plan keys are unreachable anyway (the key
            # includes the generation); clearing frees their streams.
            self._plan_cache.clear()
        # Lazy-safe lookups, as in cache_statistics: components that a
        # snapshot database has not inflated yet hold no stale state and
        # must not be inflated just to be cleared.
        factory = self.__dict__.get("streams")
        engine = self.__dict__.get("autocomplete")
        if factory is None or engine is None:
            parts = self.__dict__.get("_parts")
            if parts is not None:
                factory = factory or parts.get("streams")
                engine = engine or parts.get("autocomplete")
        if factory is not None:
            factory.clear_memo()
        if engine is not None:
            engine.clear_cache()

    def warm(self) -> LotusXDatabase:
        """Force full materialization; returns ``self``.

        A no-op on a built database — snapshot-loaded databases (which
        inflate sections lazily) override this to inflate everything now.
        """
        return self

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_string(cls, xml_text: str, **kwargs) -> LotusXDatabase:
        """Index an XML document given as a string."""
        return cls(parse_string(xml_text), **kwargs)

    @classmethod
    def from_file(cls, path: str | os.PathLike[str], **kwargs) -> LotusXDatabase:
        """Index the XML document at ``path``."""
        return cls(parse_file(path), **kwargs)

    @classmethod
    def from_files(
        cls,
        paths: Sequence[str | os.PathLike[str]],
        collection_tag: str = "collection",
        annotate_source: bool = True,
        **kwargs,
    ) -> LotusXDatabase:
        """Index several XML files as one collection.

        Each file's root becomes a child of a synthetic
        ``<collection_tag>`` root, so twigs and completion span the whole
        collection (query a single file's subtree by pinning the root:
        ``/collection/dblp/...``).  With ``annotate_source`` each
        document root gets a ``source`` attribute carrying its file name
        — combine with ``expand_attributes=True`` to filter results by
        file: ``//dblp[./@source="a.xml"]//author``.

        Raises
        ------
        ValueError
            If ``paths`` is empty.
        """
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
        return cls(combined, **kwargs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def guide(self):
        """The DataGuide structural summary."""
        return self.labeled.guide

    def statistics(self) -> CorpusStatistics:
        return compute_statistics(self.labeled, self.term_index)

    def parse_query(self, text: str) -> TwigPattern:
        """Parse the textual twig syntax."""
        return parse_twig(text)

    def to_xpath(self, query: str | TwigPattern) -> str:
        return to_xpath(self._as_pattern(query))

    def to_xquery(self, query: str | TwigPattern) -> str:
        return to_xquery(self._as_pattern(query))

    def explain(self, query: str | TwigPattern) -> dict:
        """Evaluation plan and per-node stream sizes for ``query``."""
        from repro.autocomplete.context import candidate_positions
        from repro.twig.algorithms.common import build_columnar_streams
        from repro.twig.planner import choose_algorithm

        from repro.twig.estimate import estimate_cardinality

        pattern = self._as_pattern(query)
        streams = build_columnar_streams(pattern, self.streams)
        positions = candidate_positions(pattern, self.guide)
        return {
            "query": str(pattern),
            "algorithm": choose_algorithm(pattern).value,
            "estimated_matches": round(
                estimate_cardinality(pattern, self.guide, self.term_index), 1
            ),
            "xpath": to_xpath(pattern),
            "nodes": [
                {
                    "node_id": node.node_id,
                    "tag": node.display_tag,
                    "axis": str(node.axis),
                    "stream_size": len(streams[node.node_id]),
                    "positions": sorted(
                        "/" + "/".join(p.path) for p in positions[node.node_id]
                    ),
                }
                for node in pattern.nodes()
            ],
        }

    # ------------------------------------------------------------------
    # Autocompletion
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
        """Position-aware tag completion (see
        :meth:`repro.autocomplete.engine.AutocompleteEngine.complete_tag`)."""
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
        """Position-aware value completion."""
        fault_point("engine.complete_value", deadline)
        return self.autocomplete.complete_value(
            pattern, node, prefix, k, whole_values, deadline
        )

    # ------------------------------------------------------------------
    # Matching and search
    # ------------------------------------------------------------------

    #: Entries kept in the per-database match cache.
    MATCH_CACHE_SIZE = 128
    #: Entries kept in the compiled-plan cache.
    PLAN_CACHE_SIZE = 256
    #: Entries kept in the query-text parse cache.
    PARSE_CACHE_SIZE = 256

    def _evaluate(
        self,
        pattern: TwigPattern,
        algorithm: Algorithm,
        stats: AlgorithmStats | None,
        prune_streams: bool,
        deadline: Deadline | None,
    ) -> list[Match]:
        """Evaluate through the compiled-plan cache.

        Plans pair the resolved algorithm with the per-node candidate
        streams — the expensive, reusable half of evaluation; execution
        (which holds all deadline checkpoints of the matching loops)
        always runs fresh.  The cache key includes
        :attr:`serving_generation`, and the cache itself dies with the
        instance on hot reload, so a swapped-in corpus can never serve a
        stale plan.  A compile failure (including a deadline trip while
        building streams) propagates before anything is inserted.
        """
        # The signature describes structure only; two structurally equal
        # patterns can still number their nodes differently (a rewrite
        # that drops a predicate keeps the original ids), and the plan's
        # matches are keyed by node id — so the ids are part of the key.
        key = (
            pattern.signature(),
            tuple(node.node_id for node in pattern.nodes()),
            algorithm,
            prune_streams,
            self.serving_generation,
        )
        with self._counter_lock:
            plan = self._plan_cache.get(key)
            if plan is not None:
                self._plan_cache.move_to_end(key)
                self.counters["plan_cache_hits"] += 1
            else:
                self.counters["plan_cache_misses"] += 1
        if plan is None:
            # Compile against a private copy: callers may mutate their
            # pattern after the call, but the cached plan must not see it.
            # Compilation runs outside the lock — it can be slow and may
            # carry a deadline; a racing miss just compiles twice.
            plan = compile_plan(
                pattern.copy(),
                self.labeled,
                self.streams,
                algorithm,
                prune_streams,
                deadline,
            )
            with self._counter_lock:
                self._plan_cache[key] = plan
                if len(self._plan_cache) > self.PLAN_CACHE_SIZE:
                    self._plan_cache.popitem(last=False)
        # Always hand the kernel a stats object: the benchmark tracer reads
        # ``elements_scanned`` from this argument of ``execute_plan``.
        run_stats = stats if stats is not None else AlgorithmStats()
        matches = execute_plan(
            plan, self.labeled, self.streams, run_stats, deadline
        )
        with self._counter_lock:
            if plan.algorithm is Algorithm.NAIVE:
                self.counters["fallback_evaluations"] += 1
            else:
                self.counters["columnar_evaluations"] += 1
        return matches

    def matches(
        self,
        query: str | TwigPattern,
        algorithm: Algorithm = Algorithm.AUTO,
        stats: AlgorithmStats | None = None,
        prune_streams: bool = False,
        deadline: Deadline | None = None,
    ) -> list[Match]:
        """Raw twig matches, document order, no ranking or rewriting.

        ``prune_streams`` enables DataGuide stream pruning (E11).

        Results are LRU-cached by pattern signature (the corpus is
        immutable), which keeps the GUI's live result counter free while
        the user toggles gestures back and forth.  Calls that want
        algorithm statistics — or carry a ``deadline``, whose partial
        results must never poison the cache — bypass it (though both
        still share the compiled-plan cache, which holds streams, not
        results).  On expiry the raised :class:`DeadlineExceeded` carries
        the salvaged partial matches, sorted, as its ``partial``.
        """
        pattern = self._as_pattern(query)
        if stats is not None or deadline is not None:
            try:
                return sort_matches(
                    self._evaluate(
                        pattern, algorithm, stats, prune_streams, deadline
                    )
                )
            except DeadlineExceeded as exc:
                if exc.partial is not None:
                    exc.partial = sort_matches(exc.partial)
                raise
        # Matches are keyed by node id, so the ids belong in the key (as
        # in the plan cache): equal signatures can number nodes differently.
        key = (
            pattern.signature(),
            tuple(node.node_id for node in pattern.nodes()),
            algorithm,
            prune_streams,
        )
        with self._counter_lock:
            cached = self._match_cache.get(key)
            if cached is not None:
                self._match_cache.move_to_end(key)
                self.counters["match_cache_hits"] += 1
                return list(cached)
            self.counters["match_cache_misses"] += 1
        result = sort_matches(
            self._evaluate(pattern, algorithm, None, prune_streams, None)
        )
        with self._counter_lock:
            self._match_cache[key] = result
            if len(self._match_cache) > self.MATCH_CACHE_SIZE:
                self._match_cache.popitem(last=False)
        return list(result)

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
        """Ranked search with automatic rewriting.

        If the query yields fewer than ``min_results`` matches and
        ``rewrite`` is enabled, relaxed versions of the query are tried
        (cheapest relaxation first) and their results are merged in with
        rewrite penalties applied to their scores.

        ``timeout_ms`` (or an explicit ``deadline``) bounds the work.  A
        search that runs out of budget does not fail: it returns whatever
        partial results could be salvaged, ranked, with
        ``truncated=True`` and ``degraded`` naming the corners cut
        (``"deadline"`` — matching cut short; ``"rewrites-skipped"`` —
        rewrite exploration abandoned to save the remaining budget).
        """
        pattern = self._as_pattern(query)
        started = time.perf_counter()
        if deadline is None and timeout_ms is not None:
            deadline = Deadline.after_ms(timeout_ms)
        fault_point("engine.search", deadline)
        truncated = False
        degraded: list[str] = []

        def evaluator(candidate_pattern: TwigPattern) -> list[Match]:
            return self._evaluate(
                candidate_pattern, algorithm, None, False, deadline
            )

        from repro.rewrite.engine import RewriteCandidate

        if rewrite:
            try:
                outcome = self.rewriter.search_with_rewrites(
                    pattern, evaluator, min_results=min_results, deadline=deadline
                )
                productive = outcome.productive
                rewrites_tried = outcome.evaluated - 1
                used_rewrites = any(candidate.steps for candidate, _ in productive)
                truncated = outcome.truncated
                degraded.extend(outcome.degraded)
            except DeadlineExceeded as exc:
                # The original pattern itself ran out of budget; rank its
                # salvaged partial matches and skip rewriting entirely.
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
                [(RewriteCandidate(pattern, 0.0, ()), matches)] if matches else []
            )
            rewrites_tried = 0
            used_rewrites = False

        results = self._rank_productive(productive, k, deadline)
        if deadline is not None and deadline.tripped:
            truncated = True
            if "deadline" not in degraded:
                degraded.append("deadline")
        response = SearchResponse(
            query=str(pattern),
            results=results,
            total_matches=sum(len(matches) for _, matches in productive),
            used_rewrites=used_rewrites,
            rewrites_tried=rewrites_tried,
            elapsed_seconds=time.perf_counter() - started,
            truncated=truncated,
            degraded=tuple(degraded),
        )
        return response

    def _rank_productive(
        self, productive, k: int, deadline: Deadline | None = None
    ) -> list[SearchResult]:
        """The ``k`` best results over all productive (rewritten)
        patterns' matches — see :func:`repro.engine.topk.rank_top_k`."""
        term_index = self.term_index
        return rank_top_k(
            productive,
            k,
            deadline,
            self.scorer,
            lambda match: term_index,
            _ORDER,
        )

    def profile(self, query: str | TwigPattern, repeats: int = 3) -> dict:
        """EXPLAIN ANALYZE: run ``query`` under every applicable algorithm
        and report per-algorithm timing and work counters.

        Returns the evaluation plan (as in :meth:`explain`) plus a
        ``profiles`` list with, per algorithm: median milliseconds,
        elements scanned, intermediate results, and the match count.
        All algorithms are asserted to agree.
        """
        import statistics as statistics_module

        pattern = self._as_pattern(query)
        plan = self.explain(pattern)
        algorithms = [Algorithm.STRUCTURAL_JOIN, Algorithm.TWIG_STACK]
        if pattern.is_path():
            algorithms.insert(0, Algorithm.PATH_STACK)
        profiles = []
        counts = set()
        for algorithm in algorithms:
            samples = []
            stats = AlgorithmStats()
            for index in range(max(1, repeats)):
                run_stats = AlgorithmStats()
                started = time.perf_counter()
                matches = self.matches(pattern, algorithm, stats=run_stats)
                samples.append(time.perf_counter() - started)
                if index == 0:
                    stats = run_stats
                    counts.add(len(matches))
            profiles.append(
                {
                    "algorithm": algorithm.value,
                    "median_ms": round(
                        statistics_module.median(samples) * 1000, 3
                    ),
                    "elements_scanned": stats.elements_scanned,
                    "intermediate_results": stats.intermediate_results,
                    "matches": stats.matches,
                }
            )
        if len(counts) > 1:
            raise AssertionError(f"algorithms disagree on {pattern}: {counts}")
        plan["profiles"] = profiles
        return plan

    def example_queries(self, k: int = 5):
        """Verified starter queries for an empty canvas (GUI "try these").

        See :func:`repro.autocomplete.examples.suggest_example_queries`;
        each suggestion is checked to return at least one match.
        """
        from repro.autocomplete.examples import suggest_example_queries

        suggestions = suggest_example_queries(self.guide, self.completion_index, k * 2)
        verified = [s for s in suggestions if self.matches(s.query)]
        return verified[:k]

    # ------------------------------------------------------------------
    # Keyword search (schema-free)
    # ------------------------------------------------------------------

    def keyword_search(
        self,
        query: str,
        k: int = 10,
        semantics: str = "slca",
        deadline: Deadline | None = None,
    ):
        """Schema-free keyword search, ranked.

        ``semantics="slca"`` returns the smallest elements containing all
        terms; ``"elca"`` additionally returns ancestors with their own
        keyword evidence (see :mod:`repro.keyword`).  With a ``deadline``
        the response degrades gracefully (``truncated=True``) instead of
        failing.
        """
        from repro.keyword.search import keyword_search

        return keyword_search(
            self.labeled, self.term_index, query, k, semantics, deadline
        )

    # ------------------------------------------------------------------

    def cache_statistics(self) -> dict:
        """Hit/miss counters and sizes of every per-instance cache.

        Served by ``/api/stats``.  Deliberately side-effect free: on a
        lazily inflating snapshot database, components that have not
        materialized yet are reported as absent rather than inflated
        just to be counted.
        """
        factory = self.__dict__.get("streams")
        engine = self.__dict__.get("autocomplete")
        if factory is None or engine is None:
            parts = self.__dict__.get("_parts")
            if parts is not None:
                factory = factory or parts.get("streams")
                engine = engine or parts.get("autocomplete")
        with self._counter_lock:
            counters = dict(self.counters)
            match_entries = len(self._match_cache)
            plan_entries = len(self._plan_cache)
            parse_entries = len(self._parse_cache)
        result = {
            "counters": counters,
            "match_cache_entries": match_entries,
            "plan_cache_entries": plan_entries,
            "parse_cache_entries": parse_entries,
            "serving_generation": self.serving_generation,
            "columnar_enabled": True if factory is not None else None,
            "autocomplete_cache": (
                engine.cache_info() if engine is not None else None
            ),
        }
        if self.tenant_label is not None:
            result["tenant"] = self.tenant_label
        return result

    def _as_pattern(self, query: str | TwigPattern) -> TwigPattern:
        """Parse ``query`` (memoized by text) or pass a pattern through.

        A memoized pattern is shared between requests: treat what this
        returns as read-only (every caller here only walks it; what
        outlives the call — a cached plan — takes its own copy).
        """
        if isinstance(query, TwigPattern):
            return query
        with self._counter_lock:
            cached = self._parse_cache.get(query)
            if cached is not None:
                self._parse_cache.move_to_end(query)
                self.counters["parse_cache_hits"] += 1
                return cached
            self.counters["parse_cache_misses"] += 1
        pattern = parse_twig(query)
        with self._counter_lock:
            self._parse_cache[query] = pattern
            if len(self._parse_cache) > self.PARSE_CACHE_SIZE:
                self._parse_cache.popitem(last=False)
        return pattern

    def __repr__(self) -> str:
        return (
            f"LotusXDatabase(elements={len(self.labeled)},"
            f" paths={len(self.guide)})"
        )
