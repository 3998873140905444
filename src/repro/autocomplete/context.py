"""Query-context analysis: where in the document can a twig node match?

Position-awareness starts here.  Given a (partial) twig pattern, every
query node is mapped to the set of DataGuide path nodes it can possibly
bind, taking the whole pattern into account:

* **top-down**: a node's positions must extend its parent's positions
  along the node's axis and tag;
* **bottom-up**: a position is only kept if *every* child query node has
  at least one position beneath it.

The fixpoint of the two propagations is exact *with respect to the
DataGuide*: a path node survives iff some embedding of the pattern into
the guide maps the query node there.  Because the guide aggregates every
element sharing a path, this is an **upper bound** on real matches — two
requirements can each be satisfied at a path without any single element
satisfying both (the classical path-summary co-occurrence loss).  The
bound is one-sided: every element a real match binds always sits at a
surviving position, so completion never hides a valid candidate.

Every step is linear in the guide paths it touches: a descendant step
walks each path below the parent positions once
(:func:`~repro.summary.dataguide.strictly_below`), and ancestor tests
are set lookups along one parent chain, so deeply nested positions
(``//NP//NP`` on a treebank) cost no more than flat ones.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.resilience.deadline import Deadline, charged
from repro.summary.dataguide import DataGuide, PathNode, strictly_below
from repro.twig.pattern import Axis, QueryNode, TwigPattern


def candidate_positions(
    pattern: TwigPattern,
    guide: DataGuide,
    prune: bool = True,
    deadline: Deadline | None = None,
) -> dict[int, set[PathNode]]:
    """Possible DataGuide positions for every query node of ``pattern``.

    Value predicates are ignored (they constrain values, not positions);
    an empty set for any node means the pattern is structurally
    unsatisfiable in this corpus.

    With ``prune=False`` only the top-down propagation runs: a node's set
    then reflects its own path feasibility, ignoring whether its children
    can be satisfied below it.  The rewrite engine uses this to locate the
    *highest broken node* — with full pruning, one impossible leaf empties
    every set in the pattern.

    A ``deadline`` is charged the guide paths each step visits (site
    ``autocomplete.positions``, see
    :func:`~repro.resilience.deadline.charged`); expiry raises
    :class:`~repro.resilience.errors.DeadlineExceeded`.
    """
    positions: dict[int, set[PathNode]] = {}

    def visit(nodes: Iterable[PathNode]) -> Iterable[PathNode]:
        return charged(nodes, deadline, "autocomplete.positions")

    def tag_ok(node: QueryNode, path_node: PathNode) -> bool:
        return node.tag is None or node.tag == path_node.tag

    # ------------------------------------------------------------------
    # Top-down assignment
    # ------------------------------------------------------------------

    def assign(node: QueryNode) -> None:
        pool: Iterable[PathNode]
        if node.is_root:
            if node.axis is Axis.CHILD:
                pool = guide.root_nodes
            else:
                pool = list(guide.iter_nodes())
        else:
            parent_positions = positions[node.parent.node_id]  # type: ignore[union-attr]
            if node.axis is Axis.CHILD:
                pool = [
                    child
                    for parent_position in parent_positions
                    for child in parent_position.children.values()
                ]
            else:
                pool = strictly_below(parent_positions)
        positions[node.node_id] = {p for p in visit(pool) if tag_ok(node, p)}
        for child in node.children:
            assign(child)

    # ------------------------------------------------------------------
    # Bottom-up pruning
    # ------------------------------------------------------------------

    def supporters(child: QueryNode) -> set[PathNode]:
        """The positions with at least one of the child's positions
        under them along the child's axis."""
        child_positions = visit(positions[child.node_id])
        if child.axis is Axis.CHILD:
            return {p.parent for p in child_positions}  # type: ignore[misc]
        return _proper_ancestors(child_positions)

    def prune_up(node: QueryNode) -> bool:
        """Post-order prune; returns True if anything changed."""
        changed = False
        for child in node.children:
            changed |= prune_up(child)
        if node.children:
            required = [supporters(child) for child in node.children]
            kept = {
                p
                for p in positions[node.node_id]
                if all(p in supported for supported in required)
            }
            if kept != positions[node.node_id]:
                positions[node.node_id] = kept
                changed = True
        return changed

    def restrict_down(node: QueryNode) -> bool:
        """Pre-order: re-restrict children to pruned parent positions."""
        changed = False
        for child in node.children:
            parent_positions = positions[node.node_id]
            if child.axis is Axis.CHILD:
                allowed = {
                    p
                    for p in visit(positions[child.node_id])
                    if p.parent in parent_positions
                }
            else:
                allowed = {
                    p
                    for p in visit(positions[child.node_id])
                    if _below_any(p, parent_positions)
                }
            if allowed != positions[child.node_id]:
                positions[child.node_id] = allowed
                changed = True
            changed |= restrict_down(child)
        return changed

    assign(pattern.root)
    if prune:
        # Alternate pruning directions until stable; converges quickly
        # because sets only shrink.
        while prune_up(pattern.root) | restrict_down(pattern.root):
            pass
    return positions


def _proper_ancestors(nodes: Iterable[PathNode]) -> set[PathNode]:
    """Every path node strictly above one of ``nodes``."""
    above: set[PathNode] = set()
    for node in nodes:
        current = node.parent
        # A chain already recorded is recorded all the way up.
        while current is not None and current not in above:
            above.add(current)
            current = current.parent
    return above


def _below_any(node: PathNode, ancestors: set[PathNode]) -> bool:
    """Does some member of ``ancestors`` lie strictly above ``node``?"""
    current = node.parent
    while current is not None:
        if current in ancestors:
            return True
        current = current.parent
    return False


def is_satisfiable(pattern: TwigPattern, guide: DataGuide) -> bool:
    """Can the pattern structurally match, as far as the guide can tell?

    A *necessary* condition: False means the pattern definitely has no
    match; True means no per-path evidence rules it out (the guide cannot
    see co-occurrence within single elements, so rare guide-satisfiable
    patterns still return zero matches — the rewrite engine handles those
    through evaluation, not through this test).
    """
    positions = candidate_positions(pattern, guide)
    return all(positions[node.node_id] for node in pattern.nodes())
