"""Match model: the output of every twig-matching algorithm.

A :class:`Match` maps each query-node id to the labeled element it matched.
All algorithms produce the same Match objects, so results can be compared
across algorithms (the test suite cross-checks every algorithm against the
naive oracle this way).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.labeling.assign import LabeledElement
from repro.twig.pattern import TwigPattern


class Match:
    """One complete embedding of a twig pattern into the document."""

    __slots__ = ("assignments",)

    #: Per tag, how many same-tag top-level units of the corpus precede
    #: the labeled document this match's elements live in — what
    #: :func:`repro.engine.results.element_xpath` adds to depth-1
    #: ordinals.  ``None`` when that document is the whole corpus; shard
    #: matches carry their shard's map.
    ordinal_offsets: dict[str, int] | None = None

    def __init__(self, assignments: Mapping[int, LabeledElement]) -> None:
        self.assignments: dict[int, LabeledElement] = dict(assignments)

    def element(self, node_id: int) -> LabeledElement:
        return self.assignments[node_id]

    def output_elements(self, pattern: TwigPattern) -> list[LabeledElement]:
        """Elements bound to the pattern's output nodes."""
        return [self.assignments[node.node_id] for node in pattern.output_nodes()]

    def key(self) -> tuple[tuple[int, int], ...]:
        """Canonical hashable identity: sorted (node_id, element_order)."""
        return tuple(sorted((nid, el.order) for nid, el in self.assignments.items()))

    def order_key(self) -> tuple[int, ...]:
        """Document-order sort key over the bound elements."""
        return tuple(
            self.assignments[nid].order for nid in sorted(self.assignments)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{nid}->{el.tag}@{el.region.start}"
            for nid, el in sorted(self.assignments.items())
        )
        return f"Match({parts})"


def sort_matches(matches: Iterable[Match]) -> list[Match]:
    """Deterministic document-order sort (stable across algorithms)."""
    return sorted(matches, key=Match.order_key)


def dedupe_output(
    matches: Iterable[Match], pattern: TwigPattern
) -> list[tuple[LabeledElement, ...]]:
    """Distinct output-node bindings, document order.

    Several matches can bind the same elements to the output nodes while
    differing on interior nodes; search results show each distinct output
    combination once.
    """
    seen: set[tuple[int, ...]] = set()
    distinct: list[tuple[LabeledElement, ...]] = []
    for match in sort_matches(matches):
        outputs = tuple(match.output_elements(pattern))
        key = tuple(element.order for element in outputs)
        if key not in seen:
            seen.add(key)
            distinct.append(outputs)
    return distinct


def satisfies_order(pattern: TwigPattern, match: Match) -> bool:
    """Check the pattern's order constraints against ``match``.

    With ``pattern.ordered``, every pair of sibling query nodes must match
    elements whose subtrees are disjoint and in the siblings' order.
    Explicit ``order_constraints`` are checked regardless of the flag.
    """
    if pattern.ordered:
        for node in pattern.nodes():
            for earlier, later in zip(node.children, node.children[1:]):
                first = match.assignments.get(earlier.node_id)
                second = match.assignments.get(later.node_id)
                if first is None or second is None:
                    continue  # unbound optional nodes impose no order
                if not first.region.entirely_before(second.region):
                    return False
    for before_id, after_id in pattern.order_constraints:
        first = match.assignments.get(before_id)
        second = match.assignments.get(after_id)
        if first is None or second is None:
            continue
        if not first.region.entirely_before(second.region):
            return False
    return True
