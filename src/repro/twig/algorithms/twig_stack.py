"""Holistic twig join: TwigStack (Bruno, Koudas, Srivastava, SIGMOD 2002).

TwigStack processes all query-node streams in lock-step.  ``get_next``
returns the next query node whose head element is guaranteed to have the
right descendants to extend a solution; elements are moved onto per-node
stacks encoding ancestor chains compactly, path solutions are emitted when
a leaf is pushed, and path solutions are merge-joined into full twig
matches at the end.

For ancestor-descendant-only twigs TwigStack is I/O optimal: every path
solution it emits joins into at least one full match.  With parent-child
edges it can emit path solutions that die in the merge — the sub-optimality
experiment E5 measures — but it remains *correct*: edge axes are enforced
during path-solution enumeration, so no false match survives.
"""

from __future__ import annotations

from repro.index.columnar import INF_INT, ColumnarStream
from repro.labeling.assign import LabeledElement
from repro.resilience.deadline import Deadline
from repro.resilience.errors import DeadlineExceeded
from repro.twig.algorithms.common import (
    INFINITY,
    AlgorithmStats,
    edge_satisfied,
    filter_ordered,
    root_to_node_path,
    salvage,
)
from repro.twig.algorithms.common import merge_path_solutions
from repro.twig.algorithms.ordered import build_partial_order_check
from repro.twig.match import Match
from repro.twig.pattern import Axis, QueryNode, TwigPattern

#: A stack entry: the element plus the index of the top of the parent
#: node's stack at push time (-1 when the parent stack was empty / root).
_StackEntry = tuple[LabeledElement, int]

PathSolution = dict[int, LabeledElement]


class _NodeState:
    """Cursor + stack for one query node."""

    __slots__ = ("node", "items", "pos", "stack")

    def __init__(self, node: QueryNode, items: list[LabeledElement]) -> None:
        self.node = node
        self.items = items
        self.pos = 0
        self.stack: list[_StackEntry] = []

    def eof(self) -> bool:
        return self.pos >= len(self.items)

    def head(self) -> LabeledElement | None:
        if self.eof():
            return None
        return self.items[self.pos]

    def next_left(self) -> float:
        head = self.head()
        return INFINITY if head is None else head.region.start

    def next_right(self) -> float:
        head = self.head()
        return INFINITY if head is None else head.region.end

    def advance(self) -> None:
        if not self.eof():
            self.pos += 1

    def clean_stack(self, act_left: float) -> None:
        """Pop stack entries that end before ``act_left`` (no longer open)."""
        while self.stack and self.stack[-1][0].region.end < act_left:
            self.stack.pop()


def twig_stack_match(
    pattern: TwigPattern,
    streams: dict[int, list[LabeledElement]],
    stats: AlgorithmStats | None = None,
    deadline: Deadline | None = None,
) -> list[Match]:
    """All matches of ``pattern`` over ``streams`` via TwigStack.

    With a ``deadline``, the main loop checks it cooperatively; on expiry
    the raised :class:`DeadlineExceeded` carries the matches mergeable
    from the path solutions gathered so far as its ``partial``.
    """
    stats = stats if stats is not None else AlgorithmStats()
    states: dict[int, _NodeState] = {
        node.node_id: _NodeState(node, streams[node.node_id])
        for node in pattern.nodes()
    }
    leaves = pattern.leaves()
    path_solutions: dict[int, list[PathSolution]] = {
        leaf.node_id: [] for leaf in leaves
    }

    def state(node: QueryNode) -> _NodeState:
        return states[node.node_id]

    # ------------------------------------------------------------------
    # getNext
    # ------------------------------------------------------------------

    def get_next(q: QueryNode) -> QueryNode:
        if q.is_leaf:
            return q
        for child in q.children:
            result = get_next(child)
            if result is not child and not state(result).eof():
                return result
            # An exhausted descendant branch contributes nextL = INFINITY
            # below; bubbling it up would starve the other branches (their
            # leaves may still have elements whose path solutions must be
            # emitted to merge with solutions already collected here).
        n_min = min(q.children, key=lambda c: state(c).next_left())
        n_max = max(q.children, key=lambda c: state(c).next_left())
        q_state = state(q)
        while q_state.next_right() < state(n_max).next_left():
            q_state.advance()
            stats.elements_scanned += 1
        if q_state.next_left() < state(n_min).next_left():
            return q
        return n_min

    # ------------------------------------------------------------------
    # Path-solution emission
    # ------------------------------------------------------------------

    def emit_path_solutions(leaf: QueryNode) -> None:
        """Enumerate root-to-leaf solutions ending at the just-pushed leaf
        stack entry, enforcing each edge's axis."""
        path = root_to_node_path(leaf)
        leaf_entry = state(leaf).stack[-1]
        solutions = path_solutions[leaf.node_id]

        def ascend(
            level: int, below: LabeledElement, max_index: int, acc: PathSolution
        ) -> None:
            if level < 0:
                solutions.append(dict(acc))
                stats.intermediate_results += 1
                return
            qnode = path[level]
            child_axis = path[level + 1].axis
            node_stack = state(qnode).stack
            for index in range(min(max_index, len(node_stack) - 1), -1, -1):
                element, pointer = node_stack[index]
                if edge_satisfied(element, below, child_axis):
                    acc[qnode.node_id] = element
                    ascend(level - 1, element, pointer, acc)
                    del acc[qnode.node_id]

        acc: PathSolution = {leaf.node_id: leaf_entry[0]}
        if len(path) == 1:
            solutions.append(dict(acc))
            stats.intermediate_results += 1
        else:
            ascend(len(path) - 2, leaf_entry[0], leaf_entry[1], acc)

    # ------------------------------------------------------------------
    # Merge (shared by the complete and the salvage paths)
    # ------------------------------------------------------------------

    def finish(merge_deadline: Deadline | None) -> list[Match]:
        merged = merge_path_solutions(
            pattern,
            leaves,
            path_solutions,
            build_partial_order_check(pattern),
            merge_deadline,
        )
        return filter_ordered(pattern, merged)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    root = pattern.root
    try:
        while any(not state(leaf).eof() for leaf in leaves):
            if deadline is not None:
                deadline.check("twig.twig_stack")
            q = get_next(root)
            q_state = state(q)
            if q_state.eof():
                # Only reachable when every productive stream is drained; no
                # further solutions can form.
                break
            parent_state = state(q.parent) if q.parent is not None else None
            if parent_state is not None:
                parent_state.clean_stack(q_state.next_left())
            if parent_state is None or parent_state.stack:
                q_state.clean_stack(q_state.next_left())
                pointer = len(parent_state.stack) - 1 if parent_state else -1
                head = q_state.head()
                assert head is not None
                q_state.stack.append((head, pointer))
                q_state.advance()
                stats.elements_scanned += 1
                if q.is_leaf:
                    emit_path_solutions(q)
                    q_state.stack.pop()
            else:
                q_state.advance()
                stats.elements_scanned += 1
        matches = finish(deadline)
    except DeadlineExceeded as exc:
        if exc.partial is None:
            # Best-effort salvage: merge what was gathered, under a small
            # fresh budget so the salvage itself stays bounded.
            exc.partial = salvage(finish)
        raise

    stats.matches = len(matches)
    return matches


# ======================================================================
# Columnar kernel
# ======================================================================


class _ColumnarNodeState:
    """Cursor + stack for one query node over a columnar view.

    The stack holds ``(stream index, parent-stack pointer)`` int pairs;
    elements are materialized only for final matches.  Beyond the cursor,
    the state caches everything the hot loop would otherwise re-derive
    per iteration: the leaf flag, the parent's state, the child states
    (for ``get_next``), and — for leaves — the precomputed emission plan
    over the root-to-leaf query path.
    """

    __slots__ = (
        "node",
        "view",
        "starts",
        "ends",
        "levels",
        "n",
        "pos",
        "stack",
        "leaf",
        "parent_state",
        "child_states",
        "path_len",
        "emit_plan",
        "acc",
        "solutions",
    )

    def __init__(self, node: QueryNode, view: ColumnarStream) -> None:
        self.node = node
        self.view = view
        self.starts = view.starts
        self.ends = view.ends
        self.levels = view.levels
        self.n = len(view)
        self.pos = 0
        self.stack: list[tuple[int, int]] = []
        self.leaf = node.is_leaf
        self.parent_state: _ColumnarNodeState | None = None
        self.child_states: list[_ColumnarNodeState] = []
        self.path_len = 0
        self.emit_plan: list[tuple] = []
        self.acc: list[int] = []
        self.solutions: list[tuple[int, ...]] = []

    def release(self) -> None:
        """Drop the links to other states and the per-query lists."""
        self.parent_state = None
        self.child_states = []
        self.emit_plan = []
        self.stack = []
        self.solutions = []


def _ascend_int(
    plan: list[tuple],
    level: int,
    below_start: int,
    below_end: int,
    below_level: int,
    max_index: int,
    acc: list[int],
    out: list[tuple[int, ...]],
) -> None:
    """Enumerate ancestor chains for one pushed leaf, as index tuples.

    ``plan[level]`` is ``(stack, starts, ends, levels, want_parent)`` for
    the query node at that depth of the root-to-leaf path; ``acc`` holds
    the stream index chosen per depth and is flattened into ``out`` when
    the root is reached.  Pure int comparisons — nothing materializes.
    """
    stack, starts, ends, levels, want_parent = plan[level]
    next_level = level - 1
    for index in range(min(max_index, len(stack) - 1), -1, -1):
        element_index, pointer = stack[index]
        entry_start = starts[element_index]
        if entry_start < below_start and below_end < ends[element_index]:
            entry_level = levels[element_index]
            if not want_parent or entry_level == below_level - 1:
                acc[level] = element_index
                if next_level < 0:
                    out.append(tuple(acc))
                else:
                    _ascend_int(
                        plan,
                        next_level,
                        entry_start,
                        ends[element_index],
                        entry_level,
                        pointer,
                        acc,
                        out,
                    )


def twig_stack_match_columnar(
    pattern: TwigPattern,
    views: dict[int, ColumnarStream],
    stats: AlgorithmStats | None = None,
    deadline: Deadline | None = None,
) -> list[Match]:
    """TwigStack over columnar views — same answers as
    :func:`twig_stack_match`, differentially tested against it.

    Two things make this kernel fast: all structural comparisons are raw
    int reads from the label columns (no ``LabeledElement`` attribute
    chains), and a query node whose parent stack is empty *skips* —
    ``seek_ge`` jumps its cursor to the parent's next head start, because
    no element starting earlier can ever sit under a parent-stack entry
    (all remaining parent elements start at or after that head).
    """
    stats = stats if stats is not None else AlgorithmStats()
    states: dict[int, _ColumnarNodeState] = {
        node.node_id: _ColumnarNodeState(node, views[node.node_id])
        for node in pattern.nodes()
    }
    for node in pattern.nodes():
        node_state = states[node.node_id]
        if node.parent is not None:
            node_state.parent_state = states[node.parent.node_id]
        node_state.child_states = [states[c.node_id] for c in node.children]
    leaves = pattern.leaves()
    leaf_paths: dict[int, list[QueryNode]] = {
        leaf.node_id: root_to_node_path(leaf) for leaf in leaves
    }
    for leaf in leaves:
        path = leaf_paths[leaf.node_id]
        leaf_state = states[leaf.node_id]
        leaf_state.path_len = len(path)
        leaf_state.acc = [0] * len(path)
        # plan[level] serves the ascend step *into* path[level]; the
        # want_parent flag belongs to the edge from path[level+1] down.
        leaf_state.emit_plan = [
            (
                states[path[level].node_id].stack,
                states[path[level].node_id].starts,
                states[path[level].node_id].ends,
                states[path[level].node_id].levels,
                path[level + 1].axis is Axis.CHILD,
            )
            for level in range(len(path) - 1)
        ]

    # ------------------------------------------------------------------
    # getNext (same recursion as the object kernel, on states, int
    # comparisons, no per-call attribute chains)
    # ------------------------------------------------------------------

    scanned = 0

    def get_next(s: _ColumnarNodeState) -> _ColumnarNodeState:
        nonlocal scanned
        if s.leaf:
            return s
        n_min = None
        min_left = INF_INT + 1
        max_left = -1
        for child_state in s.child_states:
            if not child_state.leaf:
                # get_next(leaf) returns the leaf itself; recursion is
                # only informative for interior children.
                result = get_next(child_state)
                if result is not child_state and result.pos < result.n:
                    return result
            child_pos = child_state.pos
            left = (
                child_state.starts[child_pos]
                if child_pos < child_state.n
                else INF_INT
            )
            if left < min_left:
                min_left = left
                n_min = child_state
            if left > max_left:
                max_left = left
        pos = s.pos
        n = s.n
        ends = s.ends
        while pos < n and ends[pos] < max_left:
            pos += 1
            scanned += 1
        s.pos = pos
        if pos < n and s.starts[pos] < min_left:
            return s
        assert n_min is not None
        return n_min

    # ------------------------------------------------------------------
    # Merge: join the per-leaf index tuples on shared query nodes; the
    # winning assignments are the only ones that materialize elements.
    # ------------------------------------------------------------------

    def finish(merge_deadline: Deadline | None) -> list[Match]:
        if pattern.ordered or pattern.order_constraints:
            # Order constraints prune *during* the join (see
            # merge_path_solutions); take the object-solution route so the
            # shared pruning logic applies unchanged.
            object_solutions: dict[int, list[PathSolution]] = {}
            for leaf in leaves:
                ids = [n.node_id for n in leaf_paths[leaf.node_id]]
                element_columns = [states[nid].view.elements for nid in ids]
                object_solutions[leaf.node_id] = [
                    {
                        nid: column[index]
                        for nid, column, index in zip(ids, element_columns, sol)
                    }
                    for sol in states[leaf.node_id].solutions
                ]
            merged = merge_path_solutions(
                pattern,
                leaves,
                object_solutions,
                build_partial_order_check(pattern),
                merge_deadline,
            )
            return filter_ordered(pattern, merged)

        # Partials are flat slot lists (one slot per pattern node, None =
        # unbound) — copying and indexing them beats per-node-id dicts.
        all_nodes = pattern.nodes()
        slot_of = {n.node_id: slot for slot, n in enumerate(all_nodes)}
        partials: list[list[int | None]] | None = None
        bound_slots: set[int] = set()
        for leaf in leaves:
            ids = [n.node_id for n in leaf_paths[leaf.node_id]]
            slots = [slot_of[nid] for nid in ids]
            solutions = states[leaf.node_id].solutions
            if partials is None:
                empty: list[int | None] = [None] * len(all_nodes)
                partials = []
                for sol in solutions:
                    row = empty.copy()
                    for slot, value in zip(slots, sol):
                        row[slot] = value
                    partials.append(row)
                bound_slots = set(slots)
                continue
            slot_set = set(slots)
            shared = sorted(bound_slots & slot_set)
            shared_positions = [slots.index(slot) for slot in shared]
            index: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
            for sol in solutions:
                key = tuple(sol[p] for p in shared_positions)
                index.setdefault(key, []).append(sol)
            joined: list[list[int | None]] = []
            lookup = index.get
            for partial in partials:
                if merge_deadline is not None:
                    merge_deadline.check("twig.merge")
                key = tuple(partial[slot] for slot in shared)
                for sol in lookup(key, ()):
                    grown = partial.copy()
                    for slot, value in zip(slots, sol):
                        grown[slot] = value
                    joined.append(grown)
            partials = joined
            bound_slots |= slot_set
        if partials is None:  # a pattern always has at least one leaf
            return []
        # Dedup on int identity, then materialize winners only.
        unique: dict[tuple[int | None, ...], list[int | None]] = {}
        for row in partials:
            unique[tuple(row)] = row
        element_columns = [states[n.node_id].view.elements for n in all_nodes]
        node_ids = [n.node_id for n in all_nodes]
        matches = []
        for row in unique.values():
            match = Match.__new__(Match)
            match.assignments = {
                nid: column[value]
                for nid, column, value in zip(node_ids, element_columns, row)
                if value is not None
            }
            matches.append(match)
        return matches

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    root_state = states[pattern.root.node_id]
    leaf_states = [states[leaf.node_id] for leaf in leaves]
    try:
        while True:
            for leaf_state in leaf_states:
                if leaf_state.pos < leaf_state.n:
                    break
            else:
                break
            if deadline is not None:
                deadline.check("twig.twig_stack")
            q_state = get_next(root_state)
            pos = q_state.pos
            if pos >= q_state.n:
                # Only reachable when every productive stream is drained;
                # no further solutions can form.
                break
            q_left = q_state.starts[pos]
            parent_state = q_state.parent_state
            if parent_state is not None:
                parent_stack = parent_state.stack
                parent_ends = parent_state.ends
                while parent_stack and parent_ends[parent_stack[-1][0]] < q_left:
                    parent_stack.pop()
                if not parent_stack:
                    # Parent stack empty: no element of q starting before
                    # the parent's next head can ever be pushed (every
                    # remaining parent element starts at or after that
                    # head, so none can contain it) — skip straight there.
                    # An exhausted parent makes the target INF_INT,
                    # draining q entirely.
                    scanned += 1
                    parent_pos = parent_state.pos
                    target = (
                        parent_state.starts[parent_pos]
                        if parent_pos < parent_state.n
                        else INF_INT
                    )
                    if target > q_left:
                        q_state.pos = q_state.view.seek_ge(pos + 1, target)
                    else:
                        q_state.pos = pos + 1
                    continue
                pointer = len(parent_stack) - 1
            else:
                pointer = -1
            scanned += 1
            q_state.pos = pos + 1
            if q_state.leaf:
                # A leaf entry lives only for its emission: enumerate the
                # ancestor chains directly instead of push-emit-pop.
                path_len = q_state.path_len
                if path_len == 2:
                    # Root-plus-leaf path (the common flat-twig branch):
                    # one parent-stack sweep, no recursion.
                    stack, starts, ends, levels, want_parent = (
                        q_state.emit_plan[0]
                    )
                    q_end = q_state.ends[pos]
                    want_level = q_state.levels[pos] - 1
                    solutions = q_state.solutions
                    for index in range(min(pointer, len(stack) - 1), -1, -1):
                        element_index = stack[index][0]
                        if (
                            starts[element_index] < q_left
                            and q_end < ends[element_index]
                            and (
                                not want_parent
                                or levels[element_index] == want_level
                            )
                        ):
                            solutions.append((element_index, pos))
                elif path_len == 1:
                    q_state.solutions.append((pos,))
                else:
                    acc = q_state.acc
                    acc[path_len - 1] = pos
                    _ascend_int(
                        q_state.emit_plan,
                        path_len - 2,
                        q_left,
                        q_state.ends[pos],
                        q_state.levels[pos],
                        pointer,
                        acc,
                        q_state.solutions,
                    )
            else:
                own_stack = q_state.stack
                own_ends = q_state.ends
                while own_stack and own_ends[own_stack[-1][0]] < q_left:
                    own_stack.pop()
                own_stack.append((pos, pointer))
        matches = finish(deadline)
    except DeadlineExceeded as exc:
        if exc.partial is None:
            exc.partial = salvage(finish)
        raise
    finally:
        stats.elements_scanned += scanned
        stats.intermediate_results += sum(
            len(states[leaf.node_id].solutions) for leaf in leaves
        )
        # The states point at each other (parent <-> children) and
        # get_next at itself: unlink them so the per-query stacks and
        # path solutions are freed by reference counting on return, not
        # whenever the cycle collector next runs.
        for node_state in states.values():
            node_state.release()
        get_next = None

    stats.matches = len(matches)
    return matches
