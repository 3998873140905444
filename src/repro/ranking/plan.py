"""The compiled scoring plan: per-pattern ranking constants, derived once.

Scoring a match needs facts about the *pattern* — its edges, which nodes
belong to the required skeleton, its top-level optional branches, which
nodes carry search terms — and those are the same for every match of the
pattern.  :class:`ScoringPlan` derives them in one walk of the twig, so
scoring a match is dict lookups and float arithmetic over
``match.assignments``.  It is the only implementation of the structural
and textual formulas; :mod:`repro.ranking.structural`,
:mod:`repro.ranking.tfidf` and :class:`~repro.ranking.scorer.LotusXScorer`
are views onto it.

Structural signals, both position-derived:

* **edge tightness** — an ancestor-descendant edge satisfied at distance 1
  (an actual parent-child pair) is a tighter, more specific answer than
  one bridged through five levels; tightness of an edge is ``1/distance``
  and the pattern's tightness is the average over its bound edges.
* **compactness** — among matches with equal tightness, the one whose
  bound elements sit in a smaller subtree is the more focused answer;
  compactness shrinks logarithmically with the match's element span.
* **optional coverage** — the fraction of the pattern's top-level
  optional branches the match bound, worth a small bonus.

The textual signal is tf-idf over the predicate terms: a term's
contribution is its idf weight times a saturating term-frequency factor
measured in the subtree of the element its predicate node matched,
idf-normalized into [0, 1].
"""

from __future__ import annotations

import math

from repro.twig.pattern import TwigPattern

#: Mixing weight of tightness vs compactness inside the structural score.
TIGHTNESS_WEIGHT = 0.7
#: Structural-score bonus for each bound optional branch (fraction).
OPTIONAL_BONUS = 0.05
#: Term-frequency saturation constant (BM25-style: tf / (tf + K)).
TF_SATURATION = 1.0


class ScoringPlan:
    """Everything ranking needs to know about one pattern.

    Term statistics depend on the term view a match is scored against
    (a sharded corpus scores each match against its own shard's postings
    with corpus-wide idf), so idf weights and posting lists are resolved
    per view on first use and kept for the life of the plan — one
    request.
    """

    __slots__ = (
        "edges",
        "required_ids",
        "optional_ids",
        "has_optional",
        "predicate_terms",
        "output_ids",
        "terms",
        "source_query",
        "_resolved",
    )

    def __init__(self, pattern: TwigPattern) -> None:
        edges: list[tuple[int, int]] = []
        required_ids: list[int] = []
        optional_ids: list[int] = []
        predicate_terms: list[tuple[int, tuple[str, ...]]] = []
        output_ids: list[int] = []
        terms: list[str] = []
        has_optional = False
        # Preorder, like TwigPattern.nodes() — the order fixes the order of
        # the float sums below.  ``required`` is False inside an optional
        # subtree.
        stack = [(pattern.root, None, True)]
        while stack:
            node, parent, required = stack.pop()
            node_id = node.node_id
            has_optional = has_optional or node.optional
            if parent is not None:
                edges.append((parent.node_id, node_id))
                if node.optional:
                    if required:
                        optional_ids.append(node_id)
                    required = False
            if required:
                required_ids.append(node_id)
            if node.is_output:
                output_ids.append(node_id)
            if node.predicate is not None:
                node_terms = node.predicate.terms()
                if node_terms:
                    predicate_terms.append((node_id, node_terms))
                    terms.extend(node_terms)
            for child in reversed(node.children):
                stack.append((child, node, required))
        #: ``(parent id, child id)`` per pattern edge.
        self.edges = tuple(edges)
        #: Node ids of the required skeleton (optional subtrees removed).
        self.required_ids = tuple(required_ids)
        #: Node ids of the top-level optional branches.
        self.optional_ids = tuple(optional_ids)
        #: Whether any node is optional (``TwigPattern.has_optional``).
        self.has_optional = has_optional
        #: ``(node id, terms)`` per predicate that contributes terms.
        self.predicate_terms = tuple(predicate_terms)
        #: Marked output nodes, or the root if none is marked.
        self.output_ids = tuple(output_ids) or (pattern.root.node_id,)
        #: Every search term of the pattern (``TwigPattern.all_terms``).
        self.terms = tuple(terms)
        #: The pattern in the textual twig syntax.
        self.source_query = str(pattern)
        self._resolved: dict = {}

    # ------------------------------------------------------------------
    # Structural score
    # ------------------------------------------------------------------

    def edge_tightness(self, assignments) -> float:
        """Average ``1/level-distance`` over the bound edges (1.0 when no
        edge is bound, e.g. a single-node pattern)."""
        get = assignments.get
        tightness: list[float] = []
        for parent_id, child_id in self.edges:
            parent = get(parent_id)
            child = get(child_id)
            if parent is None or child is None:
                continue  # unbound optional branch
            tightness.append(1.0 / (child.region.level - parent.region.level))
        if not tightness:
            return 1.0
        return sum(tightness) / len(tightness)

    def compactness(self, assignments) -> float:
        """``1 / (1 + log(span))`` where span is the region width of the
        match relative to the pattern size (1.0 = the match is exactly as
        big as the pattern requires).

        Only *required* nodes contribute to the span: binding an optional
        branch must never make a match look less compact than the same
        match without it.
        """
        get = assignments.get
        start = end = None
        for node_id in self.required_ids:
            element = get(node_id)
            if element is None:
                continue
            region = element.region
            if start is None:
                start = region.start
                end = region.end
            else:
                if region.start < start:
                    start = region.start
                if region.end > end:
                    end = region.end
        if start is None:
            # No required node bound (a hand-made partial match): span
            # whatever is bound.
            regions = [element.region for element in assignments.values()]
            start = min(region.start for region in regions)
            end = max(region.end for region in regions)
        span_elements = (end - start + 1) // 2
        excess = max(1.0, span_elements / max(1, len(self.required_ids)))
        return 1.0 / (1.0 + math.log(excess))

    def optional_coverage(self, assignments) -> float:
        """Fraction of the optional branches the match bound (1.0 when
        the pattern has none)."""
        if not self.optional_ids:
            return 1.0
        bound = sum(1 for node_id in self.optional_ids if node_id in assignments)
        return bound / len(self.optional_ids)

    def structural(self, assignments) -> float:
        """Combined structural score in (0, 1]."""
        base = TIGHTNESS_WEIGHT * self.edge_tightness(assignments) + (
            1.0 - TIGHTNESS_WEIGHT
        ) * self.compactness(assignments)
        if self.has_optional:
            # Matches that also provide the optional information rank a
            # notch higher; the bonus shrinks the base so the score stays
            # in (0, 1].
            coverage = self.optional_coverage(assignments)
            return base * (1.0 - OPTIONAL_BONUS) + OPTIONAL_BONUS * coverage
        return base

    # ------------------------------------------------------------------
    # Textual score
    # ------------------------------------------------------------------

    def _resolve(self, term_view):
        """``(subtree ends, ((node id, ((idf, postings), ...)), ...))``
        against ``term_view``."""
        resolved = (
            term_view.subtree_ends,
            tuple(
                (
                    node_id,
                    tuple(
                        (term_view.idf(term), term_view.posting_list(term))
                        for term in node_terms
                    ),
                )
                for node_id, node_terms in self.predicate_terms
            ),
        )
        self._resolved[term_view] = resolved
        return resolved

    def textual(self, assignments, term_view) -> float:
        """Text relevance in [0, 1]; 0.0 if the pattern carries no search
        terms."""
        if not self.terms:
            return 0.0
        subtree_ends, weighted_terms = self._resolved.get(
            term_view
        ) or self._resolve(term_view)
        weighted = 0.0
        total_idf = 0.0
        for node_id, node_terms in weighted_terms:
            element = assignments.get(node_id)
            if element is None:
                continue  # unbound optional branch contributes nothing
            low = element.order
            high = subtree_ends[low]
            for idf, postings in node_terms:
                tf = postings.sum_tf(low, high)
                total_idf += idf
                weighted += idf * (tf / (tf + TF_SATURATION))
        if total_idf == 0.0:
            return 0.0
        return weighted / total_idf
