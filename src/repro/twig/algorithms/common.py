"""Shared plumbing for the twig-matching algorithms.

Every stream kernel takes the same inputs — a pattern and per-query-node
:class:`~repro.index.columnar.ColumnarStream` views — and produces
:class:`~repro.twig.match.Match` objects, so the kernels are
interchangeable and cross-checkable against the naive oracle.  This module
builds the views (applying tag, predicate, root-pinning and DataGuide
filters) and defines the statistics counters the benchmarks read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.index.columnar import ColumnarStream
from repro.index.element_index import StreamFactory
from repro.labeling.assign import LabeledElement
from repro.resilience.deadline import Deadline
from repro.resilience.errors import DeadlineExceeded
from repro.twig.algorithms.ordered import PartialCheck
from repro.twig.match import Match, satisfies_order
from repro.twig.pattern import Axis, QueryNode, TwigPattern

#: Fresh step budget granted to best-effort partial-result salvage after a
#: deadline trip: enough to merge modest state, small enough to stay well
#: inside the ~2x-deadline envelope even when the salvage itself explodes.
SALVAGE_STEPS = 10_000


def salvage(producer) -> list[Match]:
    """Run ``producer(deadline)`` under a small fresh step budget.

    Used after a :class:`DeadlineExceeded` trip to turn already-gathered
    intermediate state into well-formed partial matches without risking a
    second unbounded computation; returns ``[]`` if even that budget runs
    out.
    """
    try:
        return producer(Deadline(max_steps=SALVAGE_STEPS))
    except DeadlineExceeded:
        return []

#: A root-to-leaf partial assignment (node id -> element).
PathSolution = dict[int, LabeledElement]


@dataclass
class AlgorithmStats:
    """Counters every algorithm fills in (benchmarks E4/E5 read these)."""

    elements_scanned: int = 0
    #: Binary-join pairs (structural join) or path solutions (holistic).
    intermediate_results: int = 0
    matches: int = 0
    notes: dict[str, int] = field(default_factory=dict)


def build_columnar_streams(
    pattern: TwigPattern,
    factory: StreamFactory,
    guide=None,
    deadline: Deadline | None = None,
) -> dict[int, ColumnarStream]:
    """Document-ordered candidate stream per query node, as a
    :class:`~repro.index.columnar.ColumnarStream` view.

    Applies the node's tag, compiles its value predicate into a filter
    (memoized in the factory by ``(tag, predicate signature)``), and pins
    the root stream to the document root element when the pattern's root
    axis is CHILD.

    With ``guide`` (a :class:`~repro.summary.dataguide.DataGuide`), streams
    are additionally pruned to the node's *candidate positions* — the
    DataGuide paths consistent with the whole pattern ("boosting holism
    with structural indexes", Chen/Lu/Ling SIGMOD 2005).  Pruning is sound:
    every element a match binds sits at a candidate position (property-
    tested), so no answers are lost, while elements at impossible paths —
    the ones that become useless path solutions under parent-child edges —
    never enter the join.  Experiment E11 measures the effect.
    """
    term_index = factory.term_index
    positions = None
    if guide is not None:
        from repro.autocomplete.context import candidate_positions

        positions = candidate_positions(pattern, guide)
    views: dict[int, ColumnarStream] = {}
    for node in pattern.nodes():
        if deadline is not None:
            deadline.check("twig.streams")
        predicate = node.predicate
        if predicate is None:
            view = factory.columnar_stream(node.tag)
        elif deadline is None:
            view = factory.filtered_columnar_stream(
                node.tag,
                lambda el, p=predicate: p.matches(el, term_index),
                key=predicate.signature(),
            )
        else:
            # Predicate streams scan every same-tag element, so the
            # per-element filter is itself a cooperative checkpoint (a
            # memo hit skips the scan — and its checkpoints — entirely).
            def checked_filter(el, p=predicate):
                deadline.check("twig.streams.filter")
                return p.matches(el, term_index)

            view = factory.filtered_columnar_stream(
                node.tag, checked_filter, key=predicate.signature()
            )
        if node.is_root and node.axis is Axis.CHILD:
            levels = view.levels
            view = view.take(i for i in range(len(levels)) if levels[i] == 0)
        if positions is not None:
            allowed = {p.node_id for p in positions[node.node_id]}
            path_ids = view.path_ids
            view = view.take(
                i for i in range(len(path_ids)) if path_ids[i] in allowed
            )
        views[node.node_id] = view
    return views


def filter_ordered(pattern: TwigPattern, matches: list[Match]) -> list[Match]:
    """Drop matches violating the pattern's order constraints."""
    if not pattern.ordered and not pattern.order_constraints:
        return matches
    return [match for match in matches if satisfies_order(pattern, match)]


def root_to_node_path(node: QueryNode) -> list[QueryNode]:
    """Query nodes from the pattern root down to ``node`` inclusive."""
    path = [node]
    while path[-1].parent is not None:
        path.append(path[-1].parent)
    path.reverse()
    return path


def merge_path_solutions(
    pattern: TwigPattern,
    leaves: list[QueryNode],
    path_solutions: dict[int, list[PathSolution]],
    partial_check: PartialCheck | None = None,
    deadline: Deadline | None = None,
) -> list[Match]:
    """Hash-join per-leaf path solutions on their shared pattern nodes.

    ``partial_check`` (order constraints) prunes each grown partial
    immediately, before it can multiply in later joins.
    """
    partials: list[PathSolution] | None = None
    bound_ids: set[int] = set()
    for leaf in leaves:
        solutions = path_solutions[leaf.node_id]
        leaf_ids = {node.node_id for node in root_to_node_path(leaf)}
        if partials is None:
            partials = [
                dict(solution)
                for solution in solutions
                if partial_check is None or partial_check(solution)
            ]
            bound_ids = set(leaf_ids)
            continue
        shared = sorted(bound_ids & leaf_ids)
        index: dict[tuple[int, ...], list[PathSolution]] = {}
        for solution in solutions:
            key = tuple(solution[node_id].order for node_id in shared)
            index.setdefault(key, []).append(solution)
        joined: list[PathSolution] = []
        for partial in partials:
            if deadline is not None:
                deadline.check("twig.merge")
            key = tuple(partial[node_id].order for node_id in shared)
            for solution in index.get(key, ()):
                grown = dict(partial)
                grown.update(solution)
                if partial_check is None or partial_check(grown):
                    joined.append(grown)
        partials = joined
        bound_ids |= leaf_ids
    if partials is None:  # pattern with no leaves cannot exist (root is one)
        return []
    # Deduplicate: distinct leaves can share interior nodes, and the join
    # can produce the same full assignment through different orders.
    unique: dict[tuple[tuple[int, int], ...], Match] = {}
    for assignment in partials:
        match = Match(assignment)
        unique[match.key()] = match
    return list(unique.values())
