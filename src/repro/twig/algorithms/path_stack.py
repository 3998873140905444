"""PathStack: holistic matching for linear path patterns.

The path-query specialization of the holistic family (Bruno et al., SIGMOD
2002).  All node streams advance in global document order; stacks encode
every partial root-to-here chain compactly, and solutions are enumerated
when a leaf element lands on its stack.

TwigStack degenerates to this behaviour on paths, but PathStack skips
``get_next``'s child-set reasoning, making it measurably faster on path
workloads (part of experiment E4).
"""

from __future__ import annotations

from repro.index.columnar import INF_INT, ColumnarStream
from repro.labeling.assign import LabeledElement
from repro.resilience.deadline import Deadline
from repro.resilience.errors import DeadlineExceeded
from repro.twig.algorithms.common import AlgorithmStats, filter_ordered
from repro.twig.match import Match
from repro.twig.pattern import Axis, QueryNode, TwigPattern


def _combos_up(
    combos: list[tuple[int, int, dict[int, LabeledElement]]],
    acc: dict[int, LabeledElement],
    level: int,
    below_start: int,
    below_end: int,
    below_level: int,
    max_index: int,
    base_start: int,
    base_level: int,
    stacks: list[list[tuple[int, int]]],
    starts_by: list,
    ends_by: list,
    levels_by: list,
    elements_by: list,
    chain: list[QueryNode],
    axis_is_child: list[bool],
) -> None:
    """Ascend interior stacks, accumulating one ancestor combination per
    root-reaching chain (``base_*`` carries the leaf-parent entry data
    through the recursion unchanged)."""
    if level < 0:
        combos.append((base_start, base_level, dict(acc)))
        return
    stack = stacks[level]
    starts = starts_by[level]
    ends = ends_by[level]
    levels = levels_by[level]
    elements = elements_by[level]
    node_id = chain[level].node_id
    want_parent = axis_is_child[level + 1]
    for index in range(min(max_index, len(stack) - 1), -1, -1):
        element_index, pointer = stack[index]
        entry_start = starts[element_index]
        if entry_start < below_start and below_end < ends[element_index]:
            entry_level = levels[element_index]
            if not want_parent or entry_level == below_level - 1:
                acc[node_id] = elements[element_index]
                _combos_up(
                    combos,
                    acc,
                    level - 1,
                    entry_start,
                    ends[element_index],
                    entry_level,
                    pointer,
                    base_start,
                    base_level,
                    stacks,
                    starts_by,
                    ends_by,
                    levels_by,
                    elements_by,
                    chain,
                    axis_is_child,
                )
                del acc[node_id]


def path_stack_match_columnar(
    pattern: TwigPattern,
    views: dict[int, ColumnarStream],
    stats: AlgorithmStats | None = None,
    deadline: Deadline | None = None,
) -> list[Match]:
    """All matches of a *linear* ``pattern`` (every node ≤ 1 child) over
    columnar ``views``.

    With a ``deadline``, the stream loop checks it cooperatively; on
    expiry the raised :class:`DeadlineExceeded` carries the matches
    enumerated so far as its ``partial``.

    All per-iteration work (global-minimum head selection, stack
    cleaning, push decisions) runs on raw label ints indexed by chain
    position.  Two skips make this kernel fast:

    * When the processed node's parent stack is empty, its cursor
      ``seek_ge``-jumps to the parent's next head start — since heads
      are processed in strictly increasing start order, no element
      starting earlier can ever land on a non-empty parent stack.
    * Consecutive leaf elements are processed as a *run*: as long as the
      next leaf head starts before every interior head and before every
      live stack-top's end, the stack configuration cannot change, so
      the ancestor combinations are enumerated once and reused for the
      whole run (region starts/ends come from one shared counter, so an
      uncleaned stack entry strictly contains every run element).

    Raises
    ------
    ValueError
        If the pattern is not a path.
    """
    if not pattern.is_path():
        raise ValueError("PathStack requires a linear path pattern")
    stats = stats if stats is not None else AlgorithmStats()

    chain: list[QueryNode] = []
    node: QueryNode | None = pattern.root
    while node is not None:
        chain.append(node)
        node = node.children[0] if node.children else None
    depth = len(chain)
    leaf = chain[-1]
    leaf_index = depth - 1
    leaf_id = leaf.node_id
    axis_is_child = [n.axis is Axis.CHILD for n in chain]

    chain_views = [views[n.node_id] for n in chain]
    starts_by = [view.starts for view in chain_views]
    ends_by = [view.ends for view in chain_views]
    levels_by = [view.levels for view in chain_views]
    elements_by = [view.elements for view in chain_views]
    sizes = [len(view) for view in chain_views]
    matches: list[Match] = []

    leaf_view = chain_views[leaf_index]
    leaf_starts = starts_by[leaf_index]
    leaf_levels = levels_by[leaf_index]
    leaf_elements = elements_by[leaf_index]
    leaf_size = sizes[leaf_index]

    if depth == 1:
        # Single-node path: every stream element is a match on its own.
        for pos in range(leaf_size):
            if deadline is not None:
                try:
                    deadline.check("twig.path_stack")
                except DeadlineExceeded as exc:
                    if exc.partial is None:
                        exc.partial = filter_ordered(pattern, matches)
                    raise
            match = Match.__new__(Match)
            match.assignments = {leaf_id: leaf_elements[pos]}
            matches.append(match)
        stats.elements_scanned += leaf_size
        stats.intermediate_results += leaf_size
        matches = filter_ordered(pattern, matches)
        stats.matches = len(matches)
        return matches

    leaf_child = axis_is_child[leaf_index]
    scanned = 0
    emitted = 0

    if depth == 2:
        # Parent-leaf chain: one stack of open parent stream indices,
        # scalar cursors, and run-batched leaf emission.  Start ties
        # (shared elements between overlapping tag streams) resolve to
        # the parent, matching the generic scan's first-index-wins rule.
        parent_starts = starts_by[0]
        parent_ends = ends_by[0]
        parent_levels = levels_by[0]
        parent_elements = elements_by[0]
        parent_id = chain[0].node_id
        parent_size = sizes[0]
        parent_pos = 0
        leaf_pos = 0
        stack: list[int] = []
        try:
            while leaf_pos < leaf_size:
                if deadline is not None:
                    try:
                        deadline.check("twig.path_stack")
                    except DeadlineExceeded as exc:
                        if exc.partial is None:
                            exc.partial = filter_ordered(pattern, matches)
                        raise
                leaf_start = leaf_starts[leaf_pos]
                if parent_pos < parent_size:
                    parent_start = parent_starts[parent_pos]
                    if parent_start <= leaf_start:
                        while stack and parent_ends[stack[-1]] < parent_start:
                            stack.pop()
                        stack.append(parent_pos)
                        parent_pos += 1
                        scanned += 1
                        continue
                else:
                    parent_start = INF_INT
                while stack and parent_ends[stack[-1]] < leaf_start:
                    stack.pop()
                if not stack:
                    # Parent stack empty: skip to the parent's next head.
                    scanned += 1
                    leaf_pos = leaf_view.seek_ge(leaf_pos + 1, parent_start)
                    continue
                bound = parent_ends[stack[-1]] + 1
                if parent_start < bound:
                    bound = parent_start
                end_pos = leaf_view.seek_ge(leaf_pos + 1, bound)
                if leaf_child:
                    for pos in range(leaf_pos, end_pos):
                        element_start = leaf_starts[pos]
                        want_level = leaf_levels[pos] - 1
                        element = leaf_elements[pos]
                        for entry in stack:
                            if (
                                parent_starts[entry] < element_start
                                and parent_levels[entry] == want_level
                            ):
                                match = Match.__new__(Match)
                                match.assignments = {
                                    parent_id: parent_elements[entry],
                                    leaf_id: element,
                                }
                                matches.append(match)
                                emitted += 1
                else:
                    for pos in range(leaf_pos, end_pos):
                        element_start = leaf_starts[pos]
                        element = leaf_elements[pos]
                        for entry in stack:
                            if parent_starts[entry] < element_start:
                                match = Match.__new__(Match)
                                match.assignments = {
                                    parent_id: parent_elements[entry],
                                    leaf_id: element,
                                }
                                matches.append(match)
                                emitted += 1
                scanned += end_pos - leaf_pos
                leaf_pos = end_pos
        finally:
            stats.elements_scanned += scanned
            stats.intermediate_results += emitted
        matches = filter_ordered(pattern, matches)
        stats.matches = len(matches)
        return matches

    if depth == 3:
        # Grandparent(a) - parent(b) - leaf chain, fully unrolled: scalar
        # cursors, int stacks, per-run combo enumeration.  The b stack
        # records the a-stack height at push time (the classic parent
        # pointer); a-stack entries at or below it contain the b entry.
        a_starts, b_starts = starts_by[0], starts_by[1]
        a_ends, b_ends = ends_by[0], ends_by[1]
        a_levels, b_levels = levels_by[0], levels_by[1]
        a_elements, b_elements = elements_by[0], elements_by[1]
        a_id, b_id = chain[0].node_id, chain[1].node_id
        a_size, b_size = sizes[0], sizes[1]
        b_view = chain_views[1]
        b_child = axis_is_child[1]
        a_pos = b_pos = leaf_pos = 0
        a_stack: list[int] = []
        b_stack: list[tuple[int, int]] = []
        try:
            while leaf_pos < leaf_size:
                if deadline is not None:
                    try:
                        deadline.check("twig.path_stack")
                    except DeadlineExceeded as exc:
                        if exc.partial is None:
                            exc.partial = filter_ordered(pattern, matches)
                        raise
                a_start = a_starts[a_pos] if a_pos < a_size else INF_INT
                b_start = b_starts[b_pos] if b_pos < b_size else INF_INT
                leaf_start = leaf_starts[leaf_pos]
                if a_start <= b_start and a_start <= leaf_start:
                    while a_stack and a_ends[a_stack[-1]] < a_start:
                        a_stack.pop()
                    while b_stack and b_ends[b_stack[-1][0]] < a_start:
                        b_stack.pop()
                    a_stack.append(a_pos)
                    a_pos += 1
                    scanned += 1
                    continue
                if b_start <= leaf_start:
                    while a_stack and a_ends[a_stack[-1]] < b_start:
                        a_stack.pop()
                    while b_stack and b_ends[b_stack[-1][0]] < b_start:
                        b_stack.pop()
                    scanned += 1
                    if a_stack:
                        b_stack.append((b_pos, len(a_stack) - 1))
                        b_pos += 1
                    elif a_start > b_start:
                        b_pos = b_view.seek_ge(b_pos + 1, a_start)
                    else:
                        b_pos += 1
                    continue
                while a_stack and a_ends[a_stack[-1]] < leaf_start:
                    a_stack.pop()
                while b_stack and b_ends[b_stack[-1][0]] < leaf_start:
                    b_stack.pop()
                if not b_stack:
                    scanned += 1
                    if b_start > leaf_start:
                        leaf_pos = leaf_view.seek_ge(leaf_pos + 1, b_start)
                    else:
                        leaf_pos += 1
                    continue
                bound = a_start if a_start < b_start else b_start
                keep_until = b_ends[b_stack[-1][0]] + 1
                if keep_until < bound:
                    bound = keep_until
                if a_stack:
                    keep_until = a_ends[a_stack[-1]] + 1
                    if keep_until < bound:
                        bound = keep_until
                end_pos = leaf_view.seek_ge(leaf_pos + 1, bound)
                combos: list[tuple[int, int, LabeledElement, LabeledElement]] = []
                a_top = len(a_stack) - 1
                for b_entry, a_height in b_stack:
                    entry_start = b_starts[b_entry]
                    entry_end = b_ends[b_entry]
                    entry_level = b_levels[b_entry]
                    b_element = b_elements[b_entry]
                    for k in range(min(a_height, a_top), -1, -1):
                        a_entry = a_stack[k]
                        if (
                            a_starts[a_entry] < entry_start
                            and entry_end < a_ends[a_entry]
                            and (
                                not b_child
                                or a_levels[a_entry] == entry_level - 1
                            )
                        ):
                            combos.append(
                                (
                                    entry_start,
                                    entry_level,
                                    a_elements[a_entry],
                                    b_element,
                                )
                            )
                for pos in range(leaf_pos, end_pos):
                    element_start = leaf_starts[pos]
                    want_level = leaf_levels[pos] - 1
                    element = leaf_elements[pos]
                    for entry_start, entry_level, a_element, b_element in combos:
                        if entry_start < element_start and (
                            not leaf_child or entry_level == want_level
                        ):
                            match = Match.__new__(Match)
                            match.assignments = {
                                a_id: a_element,
                                b_id: b_element,
                                leaf_id: element,
                            }
                            matches.append(match)
                            emitted += 1
                scanned += end_pos - leaf_pos
                leaf_pos = end_pos
        finally:
            stats.elements_scanned += scanned
            stats.intermediate_results += emitted
        matches = filter_ordered(pattern, matches)
        stats.matches = len(matches)
        return matches

    positions = [0] * depth
    stacks: list[list[tuple[int, int]]] = [[] for _ in range(depth)]

    def build_combos() -> list[tuple[int, int, dict[int, LabeledElement]]]:
        """Ancestor combinations valid for the current leaf run.

        Each combo is ``(parent_start, parent_level, assignment)`` — the
        leaf's parent entry data (its containment/level test against each
        run element happens per element) plus the materialized interior
        assignment (these ancestors appear in emitted matches, so
        materializing here is still final-match-only).  Interior edges
        are fully checked here; they do not depend on the leaf element.
        """
        parent_level_index = depth - 2
        parent_stack = stacks[parent_level_index]
        parent_starts = starts_by[parent_level_index]
        parent_levels = levels_by[parent_level_index]
        parent_elements = elements_by[parent_level_index]
        parent_id = chain[parent_level_index].node_id
        combos: list[tuple[int, int, dict[int, LabeledElement]]] = []
        parent_ends = ends_by[parent_level_index]
        acc: dict[int, LabeledElement] = {}
        for index in range(len(parent_stack) - 1, -1, -1):
            element_index, pointer = parent_stack[index]
            entry_start = parent_starts[element_index]
            entry_level = parent_levels[element_index]
            acc[parent_id] = parent_elements[element_index]
            _combos_up(
                combos,
                acc,
                parent_level_index - 1,
                entry_start,
                parent_ends[element_index],
                entry_level,
                pointer,
                entry_start,
                entry_level,
                stacks,
                starts_by,
                ends_by,
                levels_by,
                elements_by,
                chain,
                axis_is_child,
            )
            del acc[parent_id]
        return combos

    try:
        while positions[leaf_index] < leaf_size:
            if deadline is not None:
                try:
                    deadline.check("twig.path_stack")
                except DeadlineExceeded as exc:
                    if exc.partial is None:
                        exc.partial = filter_ordered(pattern, matches)
                    raise
            # The node whose head element starts earliest in the document
            # (ties cannot happen: region starts are globally unique).
            q_min = -1
            current_start = INF_INT
            for i in range(depth):
                pos = positions[i]
                if pos < sizes[i]:
                    left = starts_by[i][pos]
                    if left < current_start:
                        current_start = left
                        q_min = i
            current_pos = positions[q_min]
            # Expired stack entries can be cleaned on every stack (the
            # leaf stack stays empty: leaf entries never persist).
            for i in range(depth - 1):
                stack = stacks[i]
                ends = ends_by[i]
                while stack and ends[stack[-1][0]] < current_start:
                    stack.pop()
            if q_min == leaf_index:
                parent_stack = stacks[leaf_index - 1]
                if parent_stack:
                    # Leaf run: every leaf element starting before
                    # ``bound`` sees this exact stack configuration.
                    bound = INF_INT
                    for i in range(depth - 1):
                        pos = positions[i]
                        if pos < sizes[i]:
                            left = starts_by[i][pos]
                            if left < bound:
                                bound = left
                        stack = stacks[i]
                        if stack:
                            keep_until = ends_by[i][stack[-1][0]] + 1
                            if keep_until < bound:
                                bound = keep_until
                    end_pos = leaf_view.seek_ge(current_pos + 1, bound)
                    combos = build_combos()
                    if leaf_child:
                        for pos in range(current_pos, end_pos):
                            element_start = leaf_starts[pos]
                            want_level = leaf_levels[pos] - 1
                            element = leaf_elements[pos]
                            for parent_start, parent_level, combo in combos:
                                if (
                                    parent_start < element_start
                                    and parent_level == want_level
                                ):
                                    match = Match.__new__(Match)
                                    match.assignments = {
                                        **combo,
                                        leaf_id: element,
                                    }
                                    matches.append(match)
                                    emitted += 1
                    else:
                        for pos in range(current_pos, end_pos):
                            element_start = leaf_starts[pos]
                            element = leaf_elements[pos]
                            for parent_start, _parent_level, combo in combos:
                                if parent_start < element_start:
                                    match = Match.__new__(Match)
                                    match.assignments = {
                                        **combo,
                                        leaf_id: element,
                                    }
                                    matches.append(match)
                                    emitted += 1
                    scanned += end_pos - current_pos
                    positions[leaf_index] = end_pos
                else:
                    # Parent stack empty: skip to the parent's next head
                    # start (an exhausted parent drains the leaf stream).
                    scanned += 1
                    parent_pos = positions[leaf_index - 1]
                    target = (
                        starts_by[leaf_index - 1][parent_pos]
                        if parent_pos < sizes[leaf_index - 1]
                        else INF_INT
                    )
                    if target > current_start:
                        positions[leaf_index] = leaf_view.seek_ge(
                            current_pos + 1, target
                        )
                    else:
                        positions[leaf_index] = current_pos + 1
            elif q_min == 0 or stacks[q_min - 1]:
                scanned += 1
                pointer = len(stacks[q_min - 1]) - 1 if q_min > 0 else -1
                stacks[q_min].append((current_pos, pointer))
                positions[q_min] = current_pos + 1
            else:
                # Parent stack empty: skip to the parent's next head start
                # (an exhausted parent drains this node's stream entirely).
                scanned += 1
                parent_pos = positions[q_min - 1]
                target = (
                    starts_by[q_min - 1][parent_pos]
                    if parent_pos < sizes[q_min - 1]
                    else INF_INT
                )
                if target > current_start:
                    positions[q_min] = chain_views[q_min].seek_ge(
                        current_pos + 1, target
                    )
                else:
                    positions[q_min] = current_pos + 1
    finally:
        stats.elements_scanned += scanned
        stats.intermediate_results += emitted

    matches = filter_ordered(pattern, matches)
    stats.matches = len(matches)
    return matches
