"""Relaxation rules for query rewriting.

When a twig query returns nothing (the user guessed structure or values
the corpus doesn't have), LotusX rewrites it into nearby queries that do.
Each rule proposes single-step rewrites with a *penalty*: how much result
quality degrades by accepting the relaxation.  The rewrite engine explores
rule applications in total-penalty order, and the ranking layer carries
the penalty into result scores.

Rules (cheapest first):

====================  =======  ==============================================
rule                  penalty  effect
====================  =======  ==============================================
AxisGeneralization    1.0      one ``/`` edge becomes ``//``
EqualsToContains      1.0      ``="v"`` becomes ``~"v"`` (keyword semantics)
RequiredToOptional    1.5      a non-output branch becomes optional (``?``)
PredicateRemoval      2.0      a value predicate is dropped
LeafRemoval           2.0      a non-output leaf node is dropped
NodePromotion         2.0      an interior node is dropped, children
                               reattach to its parent via ``//``
TagSubstitution       2.5      an unsatisfiable node's tag is replaced by a
                               tag that does occur at that position
TagToWildcard         3.0      a node's tag becomes ``*``
====================  =======  ==============================================
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.autocomplete.context import candidate_positions
from repro.summary.dataguide import DataGuide
from repro.twig.pattern import (
    Axis,
    ContainsPredicate,
    EqualsPredicate,
    QueryNode,
    TwigPattern,
)


@dataclass(frozen=True, slots=True)
class RewriteStep:
    """One single-rule rewrite of a pattern."""

    pattern: TwigPattern
    penalty: float
    description: str


class RewriteRule:
    """Base class: generates single-step rewrites of a pattern."""

    #: Penalty added per application of this rule.
    penalty: float = 1.0

    def apply(self, pattern: TwigPattern) -> Iterator[RewriteStep]:
        raise NotImplementedError


def _clone_node(pattern: TwigPattern, node_id: int) -> tuple[TwigPattern, QueryNode]:
    clone = pattern.copy()
    node = clone.find_node(node_id)
    assert node is not None
    return clone, node


class AxisGeneralization(RewriteRule):
    """Turn one parent-child edge into ancestor-descendant."""

    penalty = 1.0

    def apply(self, pattern: TwigPattern) -> Iterator[RewriteStep]:
        for node in pattern.nodes():
            if node.parent is not None and node.axis is Axis.CHILD:
                clone, target = _clone_node(pattern, node.node_id)
                target.axis = Axis.DESCENDANT
                yield RewriteStep(
                    clone,
                    self.penalty,
                    f"generalize edge to //{target.display_tag}",
                )


class EqualsToContains(RewriteRule):
    """Relax exact value equality to keyword containment."""

    penalty = 1.0

    def apply(self, pattern: TwigPattern) -> Iterator[RewriteStep]:
        for node in pattern.nodes():
            if isinstance(node.predicate, EqualsPredicate):
                terms = node.predicate.terms()
                if not terms:
                    continue
                clone, target = _clone_node(pattern, node.node_id)
                target.predicate = ContainsPredicate(terms)
                yield RewriteStep(
                    clone,
                    self.penalty,
                    f'relax {target.display_tag}="..." to keyword containment',
                )


class PredicateRemoval(RewriteRule):
    """Drop one value predicate entirely."""

    penalty = 2.0

    def apply(self, pattern: TwigPattern) -> Iterator[RewriteStep]:
        for node in pattern.nodes():
            if node.predicate is not None:
                clone, target = _clone_node(pattern, node.node_id)
                target.predicate = None
                yield RewriteStep(
                    clone,
                    self.penalty,
                    f"drop the predicate on {target.display_tag}",
                )


class RequiredToOptional(RewriteRule):
    """Make a failing branch optional instead of deleting it.

    Gentler than :class:`LeafRemoval` / :class:`NodePromotion`: matches
    that *do* have the branch keep (and rank on) it, matches that don't
    are admitted anyway.
    """

    penalty = 1.5

    def apply(self, pattern: TwigPattern) -> Iterator[RewriteStep]:
        output_ids = {node.node_id for node in pattern.output_nodes()}
        for node in pattern.nodes():
            if node.is_root or node.optional:
                continue
            subtree_ids = {n.node_id for n in node.iter_subtree()}
            if subtree_ids & output_ids:
                continue  # outputs must stay required
            clone, target = _clone_node(pattern, node.node_id)
            target.optional = True
            yield RewriteStep(
                clone,
                self.penalty,
                f"make branch {target.display_tag} optional",
            )


class LeafRemoval(RewriteRule):
    """Remove one non-output leaf node."""

    penalty = 2.0

    def apply(self, pattern: TwigPattern) -> Iterator[RewriteStep]:
        for node in pattern.nodes():
            if node.is_leaf and not node.is_root and not node.is_output:
                clone, target = _clone_node(pattern, node.node_id)
                assert target.parent is not None
                target.parent.children.remove(target)
                yield RewriteStep(
                    clone,
                    self.penalty,
                    f"drop leaf node {target.display_tag}",
                )


class NodePromotion(RewriteRule):
    """Remove an interior node; its children reattach to its parent
    with descendant axes (so the structural requirement weakens
    rather than disappears)."""

    penalty = 2.0

    def apply(self, pattern: TwigPattern) -> Iterator[RewriteStep]:
        for node in pattern.nodes():
            if node.is_root or node.is_leaf or node.is_output:
                continue
            clone, target = _clone_node(pattern, node.node_id)
            parent = target.parent
            assert parent is not None
            index = parent.children.index(target)
            for child in target.children:
                child.parent = parent
                child.axis = Axis.DESCENDANT
            parent.children[index : index + 1] = target.children
            yield RewriteStep(
                clone,
                self.penalty,
                f"promote children of {target.display_tag} and drop it",
            )


class TagSubstitution(RewriteRule):
    """Replace the tag of a structurally unsatisfiable node with a tag
    that *does* occur at the node's position.

    Only fires for nodes whose candidate position set is empty (the node
    is why the query returns nothing), and proposes at most
    ``max_alternatives`` replacement tags, most frequent first.  An
    optional synonym table is tried first with a lower penalty.
    """

    penalty = 2.5
    synonym_penalty = 1.5

    def __init__(
        self,
        guide: DataGuide,
        synonyms: dict[str, tuple[str, ...]] | None = None,
        max_alternatives: int = 3,
    ) -> None:
        self._guide = guide
        self._synonyms = synonyms or {}
        self._max_alternatives = max_alternatives

    def apply(self, pattern: TwigPattern) -> Iterator[RewriteStep]:
        # Top-down-only positions: a node is "broken" iff its own path is
        # infeasible while its parent's is fine — full bottom-up pruning
        # would blame every node in the pattern for one impossible leaf.
        positions = candidate_positions(pattern, self._guide, prune=False)
        for node in pattern.nodes():
            if node.tag is None or positions.get(node.node_id):
                continue
            if node.parent is not None and not positions.get(node.parent.node_id):
                continue  # the break is higher up; fix it there
            for alternative in self._alternatives(pattern, node, positions):
                clone, target = _clone_node(pattern, node.node_id)
                target.tag = alternative.tag
                yield RewriteStep(
                    clone,
                    alternative.penalty,
                    f"replace tag {node.tag!r} with {alternative.tag!r}",
                )

    def _alternatives(self, pattern, node, positions):
        seen: set[str] = set()
        produced = 0
        for synonym in self._synonyms.get(node.tag, ()):
            if synonym != node.tag and synonym not in seen:
                seen.add(synonym)
                produced += 1
                yield _Alternative(synonym, self.synonym_penalty)
                if produced >= self._max_alternatives:
                    return
        # Tags occurring at the node's possible positions, by frequency.
        if node.parent is not None:
            parent_positions = positions.get(node.parent.node_id, set())
            if node.axis is Axis.CHILD:
                pool = self._guide.child_tags_of(parent_positions)
            else:
                pool = self._guide.descendant_tags_of(parent_positions)
        else:
            pool = self._guide.tag_counts()
        ranked = sorted(pool.items(), key=lambda item: (-item[1], item[0]))
        for tag, _count in ranked:
            if tag != node.tag and tag not in seen:
                seen.add(tag)
                produced += 1
                yield _Alternative(tag, self.penalty)
                if produced >= self._max_alternatives:
                    return


@dataclass(frozen=True, slots=True)
class _Alternative:
    tag: str
    penalty: float


class TagToWildcard(RewriteRule):
    """Replace one node's tag with the wildcard."""

    penalty = 3.0

    def apply(self, pattern: TwigPattern) -> Iterator[RewriteStep]:
        for node in pattern.nodes():
            if node.tag is not None:
                clone, target = _clone_node(pattern, node.node_id)
                target.tag = None
                yield RewriteStep(
                    clone,
                    self.penalty,
                    f"replace tag {node.tag!r} with the wildcard",
                )


def default_rules(
    guide: DataGuide, synonyms: dict[str, tuple[str, ...]] | None = None
) -> list[RewriteRule]:
    """The standard rule set, cheapest-first."""
    return [
        AxisGeneralization(),
        EqualsToContains(),
        RequiredToOptional(),
        PredicateRemoval(),
        LeafRemoval(),
        NodePromotion(),
        TagSubstitution(guide, synonyms),
        TagToWildcard(),
    ]
