"""Property-based tests for labeling invariants (hypothesis).

On arbitrary random documents, the labels must agree with the tree:
region containment == tree ancestry, region order == document order, and
every element's DataGuide path node names its tag path exactly (as do the
columnar path ids, row for row).
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.columnar import ColumnarIndex
from repro.labeling.assign import label_document
from repro.xmlio.tree import Document, Element

TAGS = ["a", "b", "c", "d", "e"]


@st.composite
def documents(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(0, 30))
    root = Element("root")
    pool = [root]
    for _ in range(size):
        parent = rng.choice(pool)
        child = parent.make_child(rng.choice(TAGS))
        pool.append(child)
        if len(pool) > 8:
            pool.pop(0)
    return Document(root)


@given(documents())
@settings(max_examples=150, deadline=None)
def test_path_nodes_name_every_path(document):
    labeled = label_document(document)
    for element in labeled.elements:
        assert element.path_node.path == element.element.path()
    columnar = ColumnarIndex.from_labeled(labeled)
    for tag in (None, *labeled.tags()):
        stream = columnar.stream(tag)
        assert list(stream.path_ids) == [
            element.path_node.node_id for element in stream.elements
        ]


@given(documents())
@settings(max_examples=100, deadline=None)
def test_all_label_kinds_agree_on_ancestry(document):
    labeled = label_document(document)
    elements = labeled.elements
    for first in elements:
        first_descendants = set(map(id, first.element.iter_descendants()))
        for second in elements:
            truth = id(second.element) in first_descendants
            assert first.region.is_ancestor_of(second.region) == truth


@given(documents())
@settings(max_examples=100, deadline=None)
def test_document_order_is_shared(document):
    labeled = label_document(document)
    by_region = sorted(labeled.elements, key=lambda e: e.region)
    assert by_region == labeled.elements
    assert [e.element for e in labeled.elements] == list(document.iter())


@given(documents())
@settings(max_examples=100, deadline=None)
def test_region_levels_and_subtree_sizes(document):
    labeled = label_document(document)
    for element in labeled.elements:
        assert element.region.level == len(element.element.path()) - 1
        descendants = sum(1 for _ in element.element.iter_descendants())
        width = element.region.end - element.region.start - 1
        assert width == 2 * descendants


@given(documents())
@settings(max_examples=100, deadline=None)
def test_dataguide_counts_sum_to_element_count(document):
    labeled = label_document(document)
    assert sum(node.count for node in labeled.guide.iter_nodes()) == len(labeled)
    for node in labeled.guide.iter_nodes():
        occurrences = sum(
            1 for e in labeled.elements if e.element.path() == node.path
        )
        assert occurrences == node.count


# ----------------------------------------------------------------------
# Gap allocation (the write path's incremental labeling substrate)
# ----------------------------------------------------------------------
#
# The live write path leans on two promises from :mod:`repro.labeling.region`:
# existing labels are never touched until :class:`GapExhausted` says the
# gap is genuinely too small (the relabel trigger), and labels assigned
# into a gap are exactly what the full labeler would have produced at
# that position (the dense-label/byte-identity requirement).

import pytest

from repro.labeling.region import (
    GapExhausted,
    Region,
    RegionAllocator,
    TickBlock,
    label_subtree_into_gap,
    subtree_tick_width,
)


def _assert_allocator_invariants(allocator: RegionAllocator) -> None:
    """Blocks are even-width, inside the interval, sorted, and disjoint."""
    for block in allocator.blocks:
        assert block.width > 0 and block.width % 2 == 0
        assert block.base >= allocator.lo + 1
        if allocator.hi is not None:
            assert block.limit <= allocator.hi
    for left, right in zip(allocator.blocks, allocator.blocks[1:]):
        assert left.limit <= right.base


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=120, deadline=None)
def test_allocator_random_ops_preserve_disjoint_sorted_blocks(seed, bounded):
    """Model check over random allocate/release/resize sequences.

    ``GapExhausted`` exactness: an operation raises it if and only if the
    gap reported beforehand cannot hold the request — and a refused
    operation changes nothing.
    """
    rng = random.Random(seed)
    hi = rng.randrange(21, 201) if bounded else None
    allocator = RegionAllocator(0, hi)
    for _ in range(80):
        snapshot = [(block.base, block.width) for block in allocator.blocks]
        roll = rng.random()
        if roll < 0.45 or not allocator.blocks:
            width = 2 * rng.randint(1, 6)
            after = (
                rng.choice([None, *allocator.blocks])
                if rng.random() < 0.8
                else None
            )
            fits = allocator.gap_after(after) >= width
            if fits:
                block = allocator.allocate(width, after)
                assert block.width == width
                assert block in allocator.blocks
            else:
                with pytest.raises(GapExhausted):
                    allocator.allocate(width, after)
                assert [
                    (block.base, block.width) for block in allocator.blocks
                ] == snapshot
        elif roll < 0.65:
            width = 2 * rng.randint(1, 8)
            fits = allocator.gap_after(
                allocator.blocks[-1] if allocator.blocks else None
            ) >= width
            if fits:
                block = allocator.allocate_tail(width)
                assert block is allocator.blocks[-1]
            else:
                with pytest.raises(GapExhausted):
                    allocator.allocate_tail(width)
        elif roll < 0.8:
            victim = rng.choice(allocator.blocks)
            allocator.release(victim)
            assert victim not in allocator.blocks
        else:
            block = rng.choice(allocator.blocks)
            width = 2 * rng.randint(1, 8)
            grow = width - block.width
            fits = grow <= 0 or allocator.gap_after(block) >= grow
            if fits:
                base_before = block.base
                allocator.resize(block, width)
                assert (block.base, block.width) == (base_before, width)
            else:
                with pytest.raises(GapExhausted):
                    allocator.resize(block, width)
                assert [
                    (candidate.base, candidate.width)
                    for candidate in allocator.blocks
                ] == snapshot
        _assert_allocator_invariants(allocator)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_allocation_never_moves_existing_blocks(seed):
    """The no-relabel promise: until ``GapExhausted``, every previously
    allocated block keeps its exact base and width."""
    rng = random.Random(seed)
    allocator = RegionAllocator(0, rng.randrange(41, 161))
    placed: list[tuple[TickBlock, int, int]] = []
    while True:
        width = 2 * rng.randint(1, 5)
        after = rng.choice([None, *allocator.blocks]) if allocator.blocks else None
        try:
            block = allocator.allocate(width, after)
        except GapExhausted:
            break
        placed.append((block, block.base, block.width))
        for earlier, base, earlier_width in placed:
            assert (earlier.base, earlier.width) == (base, earlier_width)
    assert all(
        (block.base, block.width) == (base, width)
        for block, base, width in placed
    )


def _random_subtree(rng: random.Random, size: int) -> Element:
    root = Element(rng.choice(TAGS))
    pool = [root]
    for _ in range(size):
        parent = rng.choice(pool)
        pool.append(parent.make_child(rng.choice(TAGS)))
    return root


@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 20),
    st.integers(0, 50),
    st.integers(0, 6),
)
@settings(max_examples=120, deadline=None)
def test_gap_labels_equal_full_labeler_at_that_position(seed, size, lo, level):
    """Dense-label equivalence: ``label_subtree_into_gap`` must emit, for
    every node, exactly the full labeler's region shifted by the gap
    start — this is what makes delta segments byte-identical to a
    from-scratch rebuild."""
    rng = random.Random(seed)
    subtree = _random_subtree(rng, size)
    need = subtree_tick_width(subtree)
    labels = label_subtree_into_gap(subtree, lo, lo + need + 1, level)

    oracle = label_document(Document(_random_subtree(random.Random(seed), size)))
    assert len(labels) == len(oracle.elements) == size + 1
    for (node, region), expected in zip(labels, oracle.elements):
        assert node.tag == expected.element.tag
        assert region.start == expected.region.start + lo + 1
        assert region.end == expected.region.end + lo + 1
        assert region.level == expected.region.level + level


@given(st.integers(0, 2**32 - 1), st.integers(0, 25), st.integers(0, 40))
@settings(max_examples=120, deadline=None)
def test_gap_labels_are_dense_ordered_and_contained(seed, size, lo):
    """Structural invariants inside the gap: every tick used exactly
    once, preorder document order, containment == ancestry, and nothing
    labeled outside ``(lo, hi)``."""
    rng = random.Random(seed)
    subtree = _random_subtree(rng, size)
    need = subtree_tick_width(subtree)
    hi = lo + need + 1
    labels = label_subtree_into_gap(subtree, lo, hi, 3)

    ticks = sorted(
        tick for _, region in labels for tick in (region.start, region.end)
    )
    assert ticks == list(range(lo + 1, lo + 1 + need))  # dense, inside the gap
    assert all(lo < region.start < region.end < hi for _, region in labels)
    starts = [region.start for _, region in labels]
    assert starts == sorted(starts)  # preorder == document order

    regions = {id(node): region for node, region in labels}
    for node, region in labels:
        for descendant in node.iter_descendants():
            assert region.is_ancestor_of(regions[id(descendant)])
        for child in node.child_elements():
            assert regions[id(child)].is_child_of(region)


@given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(0, 30))
@settings(max_examples=100, deadline=None)
def test_gap_exhausted_exactly_when_gap_too_small(seed, size, slack):
    """``GapExhausted`` iff the gap holds fewer than ``2 * n`` ticks; a
    refused call labels nothing."""
    rng = random.Random(seed)
    subtree = _random_subtree(rng, size - 1)  # size elements total
    need = subtree_tick_width(subtree)
    assert need == 2 * size

    # One tick short must refuse; exact fit and anything larger must work.
    with pytest.raises(GapExhausted):
        label_subtree_into_gap(subtree, 10, 10 + need, 0)
    exact = label_subtree_into_gap(subtree, 10, 10 + need + 1, 0)
    assert len(exact) == size
    roomy = label_subtree_into_gap(subtree, 10, 10 + need + 1 + slack, 0)
    assert [region for _, region in roomy] == [region for _, region in exact]
    unbounded = label_subtree_into_gap(subtree, 10, None, 0)
    assert [region for _, region in unbounded] == [region for _, region in exact]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_random_insert_positions_keep_all_subtree_labels_disjoint(seed):
    """End-to-end gap-insertion drill: subtrees allocated at arbitrary
    positions get labels that never overlap any earlier subtree's, and
    earlier labels survive verbatim — relabeling is needed only once
    ``GapExhausted`` fires."""
    rng = random.Random(seed)
    allocator = RegionAllocator(0, 2 * rng.randrange(30, 90))
    labeled_blocks: list[tuple[TickBlock, list[Region]]] = []
    for _ in range(30):
        subtree = _random_subtree(rng, rng.randint(0, 4))
        width = subtree_tick_width(subtree)
        after = rng.choice([None, *allocator.blocks]) if allocator.blocks else None
        try:
            block = allocator.allocate(width, after)
        except GapExhausted:
            continue  # the write path would trigger a relabel here
        labels = label_subtree_into_gap(subtree, block.base - 1, block.limit, 1)
        regions = [region for _, region in labels]
        assert all(
            block.base <= region.start < region.end < block.limit
            for region in regions
        )
        for _, earlier in labeled_blocks:
            for mine in regions:
                assert not any(mine.overlaps(old) for old in earlier)
        labeled_blocks.append((block, regions))
    assert labeled_blocks, "schedule never managed a single insertion"
