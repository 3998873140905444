"""Differential testing of the twig algorithm family.

Two complementary layers keep every algorithm pinned to the naive
oracle:

* a hypothesis property (shrinking counterexamples) over random
  documents and random child/descendant patterns, and
* a seeded harness that enumerates a fixed case matrix guaranteeing
  coverage of the axes random generation rarely combines — ordered
  siblings, optional branches, value and structural negation, stream
  pruning — with the case seed in every assertion message so a failure
  replays exactly.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.element_index import StreamFactory
from repro.index.term_index import TermIndex
from repro.labeling.assign import label_document
from repro.twig.match import sort_matches
from repro.twig.pattern import (
    AbsentBranchPredicate,
    Axis,
    ContainsPredicate,
    EqualsPredicate,
    NotPredicate,
    TwigPattern,
)
from repro.twig.planner import Algorithm, evaluate
from repro.xmlio.tree import Document, Element
from tests.kernels import assert_kernels_agree, kernels_for, run_kernel

TAGS = ["a", "b", "c", "d"]
WORDS = ["red", "blue", "green"]

# ---------------------------------------------------------------------------
# Random documents (small alphabet so tags collide and nest)
# ---------------------------------------------------------------------------


@st.composite
def documents(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(2, 25))
    root = Element("r")
    open_elements = [root]
    for _ in range(size):
        parent = rng.choice(open_elements)
        child = parent.make_child(rng.choice(TAGS))
        if rng.random() < 0.4:
            child.append_text(" ".join(rng.sample(WORDS, rng.randint(1, 2))))
        open_elements.append(child)
        if len(open_elements) > 6:
            open_elements.pop(0)
    return Document(root)


@st.composite
def patterns(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    node_count = draw(st.integers(1, 5))
    ordered = draw(st.booleans())
    pattern = TwigPattern(_random_tag(rng), ordered=ordered)
    nodes = [pattern.root]
    for _ in range(node_count - 1):
        parent = rng.choice(nodes)
        axis = Axis.CHILD if rng.random() < 0.5 else Axis.DESCENDANT
        predicate = (
            ContainsPredicate(rng.choice(WORDS)) if rng.random() < 0.3 else None
        )
        nodes.append(pattern.add_child(parent, _random_tag(rng), axis, predicate))
    return pattern


def _random_tag(rng: random.Random) -> str | None:
    return None if rng.random() < 0.15 else rng.choice(TAGS + ["r"])


# ---------------------------------------------------------------------------
# The property
# ---------------------------------------------------------------------------


@given(documents(), patterns())
@settings(max_examples=250, deadline=None)
def test_all_algorithms_agree_with_naive(document, pattern):
    labeled = label_document(document)
    assert_kernels_agree(pattern, labeled, TermIndex(labeled))


@given(documents(), patterns())
@settings(max_examples=100, deadline=None)
def test_matches_actually_embed_the_pattern(document, pattern):
    """Every reported match satisfies every tag, axis, and predicate."""
    labeled = label_document(document)
    term_index = TermIndex(labeled)
    factory = StreamFactory(labeled, term_index)

    for algorithm in kernels_for(pattern):
        for match in run_kernel(pattern, labeled, factory, algorithm):
            for node in pattern.nodes():
                element = match.element(node.node_id)
                assert node.accepts_tag(element.tag)
                if node.predicate is not None:
                    assert node.predicate.matches(element, term_index)
                if node.parent is not None:
                    parent_element = match.element(node.parent.node_id)
                    if node.axis is Axis.CHILD:
                        assert parent_element.region.is_parent_of(element.region)
                    else:
                        assert parent_element.region.is_ancestor_of(
                            element.region
                        )


# ---------------------------------------------------------------------------
# Seeded differential harness: ordered / optional / negation coverage
# ---------------------------------------------------------------------------
#
# Cases are addressed by a single integer seed; document and pattern each
# derive their own ``random.Random`` from it, so a failing case is fully
# reconstructible from the seed alone.  Even-numbered cases force a linear
# path shape so PathStack (only defined on paths) gets half the matrix.

HARNESS_BATCHES = 10
HARNESS_CASES_PER_BATCH = 40
_PATTERN_SEED_SALT = 0x9E3779B9


def _harness_shape(case: int) -> str:
    return "path" if case % 2 == 0 else "tree"


def _harness_document(seed: int) -> Document:
    rng = random.Random(seed)
    size = rng.randint(3, 40)
    root = Element("r")
    open_elements = [root]
    for _ in range(size):
        parent = rng.choice(open_elements)
        child = parent.make_child(rng.choice(TAGS))
        roll = rng.random()
        if roll < 0.25:
            # Single-word direct text so EqualsPredicate can be satisfied.
            child.append_text(rng.choice(WORDS))
        elif roll < 0.45:
            child.append_text(" ".join(rng.sample(WORDS, 2)))
        open_elements.append(child)
        if len(open_elements) > 6:
            open_elements.pop(0)
    return Document(root)


def _harness_predicate(rng: random.Random):
    roll = rng.random()
    if roll < 0.12:
        return ContainsPredicate(rng.choice(WORDS))
    if roll < 0.20:
        return EqualsPredicate(rng.choice(WORDS))
    if roll < 0.28:
        inner_kind = ContainsPredicate if rng.random() < 0.5 else EqualsPredicate
        return NotPredicate(inner_kind(rng.choice(WORDS)))
    if roll < 0.36:
        axis = Axis.CHILD if rng.random() < 0.5 else Axis.DESCENDANT
        return AbsentBranchPredicate(rng.choice(TAGS), axis)
    return None


def _harness_pattern(seed: int, shape: str) -> TwigPattern:
    rng = random.Random(seed ^ _PATTERN_SEED_SALT)
    node_count = rng.randint(1, 6)
    ordered = rng.random() < 0.3
    pattern = TwigPattern(
        _random_tag(rng), predicate=_harness_predicate(rng), ordered=ordered
    )
    nodes = [pattern.root]
    for _ in range(node_count - 1):
        parent = nodes[-1] if shape == "path" else rng.choice(nodes)
        axis = Axis.CHILD if rng.random() < 0.5 else Axis.DESCENDANT
        nodes.append(
            pattern.add_child(
                parent, _random_tag(rng), axis, _harness_predicate(rng)
            )
        )
    if len(nodes) > 1 and rng.random() < 0.3:
        rng.choice(nodes).is_output = True
    # Optional nodes bind-when-possible but never eliminate a match; an
    # output must always be bound, so only non-output leaves qualify.
    output_ids = {node.node_id for node in pattern.output_nodes()}
    for leaf in pattern.leaves():
        if leaf.is_root or leaf.node_id in output_ids:
            continue
        if rng.random() < 0.3:
            leaf.optional = True
    return pattern


@pytest.mark.parametrize("batch", range(HARNESS_BATCHES))
def test_differential_harness(batch):
    for case in range(HARNESS_CASES_PER_BATCH):
        seed = batch * HARNESS_CASES_PER_BATCH + case
        shape = _harness_shape(case)
        document = _harness_document(seed)
        labeled = label_document(document)
        term_index = TermIndex(labeled)
        factory = StreamFactory(labeled, term_index)
        pattern = _harness_pattern(seed, shape)
        context = f"seed={seed} shape={shape} pattern={pattern}"

        oracle = sort_matches(
            evaluate(pattern, labeled, factory, Algorithm.NAIVE)
        )
        for algorithm in kernels_for(pattern):
            for prune in (False, True):
                got = run_kernel(pattern, labeled, factory, algorithm, prune)
                assert got == oracle, (
                    f"{algorithm.value} prune={prune} disagrees with naive"
                    f" oracle ({len(got)} vs {len(oracle)} matches): {context}"
                )


def test_differential_harness_coverage():
    """The case matrix actually covers what it claims to cover.

    Deterministic by construction (same seeds as the harness), so these
    floors are exact counts, not probabilistic hopes; they fail loudly if
    a generator tweak silently guts an axis.
    """
    counts: Counter = Counter()
    total = HARNESS_BATCHES * HARNESS_CASES_PER_BATCH
    for seed in range(total):
        pattern = _harness_pattern(seed, _harness_shape(seed))
        counts["cases"] += 1
        if pattern.is_path():
            counts["path"] += 1
        if pattern.ordered:
            counts["ordered"] += 1
        if pattern.has_optional():
            counts["optional"] += 1
        if any(
            isinstance(n.predicate, (NotPredicate, AbsentBranchPredicate))
            for n in pattern.nodes()
        ):
            counts["negation"] += 1
    # 200+ cases per algorithm: every case runs StructuralJoin and
    # TwigStack, unpruned and pruned; PathStack runs on the path-shaped half.
    assert counts["cases"] >= 400, counts
    assert counts["path"] >= 200, counts
    assert counts["ordered"] >= 60, counts
    assert counts["optional"] >= 60, counts
    assert counts["negation"] >= 60, counts
