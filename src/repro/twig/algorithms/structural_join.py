"""Binary structural joins (the pre-holistic baseline).

Decomposes the twig into its parent-child / ancestor-descendant edges,
evaluates each edge with the stack-based merge join of Al-Khalifa et al.
("Structural joins: a primitive for efficient XML query pattern matching"),
then stitches the edge pair-lists back into full twig matches with hash
joins.

The point of this baseline (experiment E5) is its weakness: each edge is
evaluated in isolation, so pair lists can be huge even when the final twig
has few matches — exactly the blow-up TwigStack's holistic processing
avoids.
"""

from __future__ import annotations

from repro.index.columnar import ColumnarStream
from repro.labeling.assign import LabeledElement
from repro.resilience.deadline import Deadline
from repro.twig.algorithms.common import AlgorithmStats, filter_ordered
from repro.twig.match import Match
from repro.twig.pattern import Axis, QueryNode, TwigPattern

Pair = tuple[LabeledElement, LabeledElement]


def structural_join_pairs_columnar(
    ancestors: ColumnarStream,
    descendants: ColumnarStream,
    axis: Axis,
    stats: AlgorithmStats | None = None,
    deadline: Deadline | None = None,
) -> list[Pair]:
    """All (ancestor, descendant) pairs satisfying ``axis``.

    Single merge pass over the two document-ordered streams with a stack
    of open ancestors (Stack-Tree-Desc), comparing raw label ints.

    The stack holds ancestor *positions*; elements materialize only when
    a pair is emitted.  When the stack empties, no ancestor starting
    before the current descendant can contain any later one (every such
    ancestor was pushed and popped, i.e. ended already), so the
    descendant cursor skips straight to the next ancestor's start.
    """
    pairs: list[Pair] = []
    a_starts = ancestors.starts
    a_ends = ancestors.ends
    a_levels = ancestors.levels
    a_elements = ancestors.elements
    d_starts = descendants.starts
    d_levels = descendants.levels
    d_elements = descendants.elements
    na = len(a_starts)
    nd = len(d_starts)
    stack: list[int] = []
    a_i = 0
    d_i = 0
    while d_i < nd:
        if deadline is not None:
            deadline.check("twig.structural_join")
        d_start = d_starts[d_i]
        # Push every ancestor-stream element that starts before this
        # descendant; the stack keeps only elements still open here.
        while a_i < na and a_starts[a_i] < d_start:
            candidate = a_i
            a_i += 1
            while stack and a_ends[stack[-1]] < a_starts[candidate]:
                stack.pop()
            stack.append(candidate)
        while stack and a_ends[stack[-1]] < d_start:
            stack.pop()
        if stack:
            descendant = d_elements[d_i]
            if axis is Axis.DESCENDANT:
                pairs.extend((a_elements[index], descendant) for index in stack)
            else:
                target_level = d_levels[d_i] - 1
                pairs.extend(
                    (a_elements[index], descendant)
                    for index in stack
                    if a_levels[index] == target_level
                )
            d_i += 1
        elif a_i < na:
            target = a_starts[a_i]
            if target > d_start:
                d_i = descendants.seek_ge(d_i + 1, target)
            else:
                d_i += 1
        else:
            break  # no open and no future ancestors: nothing can pair
    if stats is not None:
        stats.elements_scanned += na + nd
        stats.intermediate_results += len(pairs)
    return pairs


def structural_join_match_columnar(
    pattern: TwigPattern,
    views: dict[int, ColumnarStream],
    stats: AlgorithmStats | None = None,
    reorder: bool = False,
    deadline: Deadline | None = None,
) -> list[Match]:
    """Full twig matching via per-edge structural joins + stitching.

    Edges grow the partial matches one at a time with a hash join on the
    edge's parent node.  By default they are evaluated in pattern
    preorder; with ``reorder=True`` a greedy selectivity-ordered plan is
    used instead — among the edges adjacent to the already-joined node
    set, always take the one whose child stream is smallest, so selective
    branches cut the partials down before wide branches multiply them
    (the join-ordering ablation measures the effect).
    """
    stats = stats if stats is not None else AlgorithmStats()

    partials: list[dict[int, LabeledElement]] = [
        {pattern.root.node_id: element}
        for element in views[pattern.root.node_id].elements
    ]

    def extend_with_edge(parent: QueryNode, child: QueryNode) -> None:
        nonlocal partials
        pairs = structural_join_pairs_columnar(
            views[parent.node_id],
            views[child.node_id],
            child.axis,
            stats,
            deadline,
        )
        by_parent: dict[int, list[LabeledElement]] = {}
        for ancestor, descendant in pairs:
            by_parent.setdefault(ancestor.order, []).append(descendant)
        extended: list[dict[int, LabeledElement]] = []
        for partial in partials:
            if deadline is not None:
                deadline.check("twig.structural_join")
            anchor = partial[parent.node_id]
            for descendant in by_parent.get(anchor.order, ()):
                grown = dict(partial)
                grown[child.node_id] = descendant
                extended.append(grown)
        partials = extended
        stats.intermediate_results += len(partials)

    for parent, child in _edge_plan(pattern, views, reorder):
        extend_with_edge(parent, child)

    matches = filter_ordered(pattern, [Match(partial) for partial in partials])
    stats.matches = len(matches)
    return matches


def _edge_plan(
    pattern: TwigPattern,
    streams: dict[int, ColumnarStream],
    reorder: bool,
) -> list[tuple[QueryNode, QueryNode]]:
    """The order in which edges extend the partial matches.

    Either pattern preorder (stable default), or greedy smallest-adjacent-
    child-stream first.  Both orders only ever pick edges whose parent
    node is already joined, which the hash-join extension requires.
    """
    if not reorder:
        plan: list[tuple[QueryNode, QueryNode]] = []

        def walk(node: QueryNode) -> None:
            for child in node.children:
                plan.append((node, child))
                walk(child)

        walk(pattern.root)
        return plan

    plan = []
    joined = {pattern.root.node_id}
    frontier: list[tuple[QueryNode, QueryNode]] = [
        (pattern.root, child) for child in pattern.root.children
    ]
    while frontier:
        parent, child = min(
            frontier, key=lambda edge: len(streams[edge[1].node_id])
        )
        frontier.remove((parent, child))
        plan.append((parent, child))
        joined.add(child.node_id)
        frontier.extend((child, grandchild) for grandchild in child.children)
    return plan
