"""The completion walks over the DataGuide agree with their per-node
predecessors.

Sample paths are collected for every candidate tag in one walk, the
descendant-tag counts in one walk below the outermost contexts, and the
position fixpoint with set lookups instead of pairwise ancestor tests.
Each keeps the simpler per-tag / per-context / pairwise version here as
its oracle, on XMark- and treebank-shaped guides (the latter nests NP in
NP, so contexts overlap) and on random documents and patterns.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.autocomplete.context import candidate_positions
from repro.datasets import generate_treebank, generate_xmark
from repro.engine.database import LotusXDatabase
from repro.labeling.assign import label_document
from repro.summary.paths import format_path
from repro.twig.pattern import Axis

from tests.test_autocomplete_properties import documents, patterns

QUERIES = {
    "xmark": [
        "//item",
        "//item/name",
        "//item[./location]/name",
        "//open_auction//*",
        "//person//*",
        "//*",
        "//description//text",
        "//parlist//listitem//parlist",
    ],
    "treebank": [
        "//NP",
        "//S",
        "//NP//NP",
        "//S/NP",
        "//VP[./NP]//PP",
        "//NP[./DT]/NN",
        "//NP//NP//PP//NP",
        "/treebank//S",
    ],
}


@pytest.fixture(scope="module", params=sorted(QUERIES))
def corpus(request):
    if request.param == "xmark":
        document = generate_xmark(items=40, seed=5)
    else:
        document = generate_treebank(sentences=120, seed=7, max_depth=14)
    return request.param, LotusXDatabase(document)


# ----------------------------------------------------------------------
# Oracles: the implementations the walks replaced
# ----------------------------------------------------------------------


def sample_paths_for_tag(guide, tag, anchor_positions, axis):
    if anchor_positions is None:
        nodes = guide.nodes_with_tag(tag)
    else:
        nodes = []
        for anchor_position in anchor_positions:
            if axis is Axis.CHILD:
                child = anchor_position.children.get(tag)
                if child is not None:
                    nodes.append(child)
            else:
                nodes.extend(
                    node
                    for node in anchor_position.iter_subtree()
                    if node is not anchor_position and node.tag == tag
                )
    paths = sorted({format_path(node.path) for node in nodes})
    return tuple(paths[:3])


def descendant_tags_per_context(contexts):
    tags: dict[str, int] = {}
    for context in contexts:
        for node in context.iter_subtree():
            if node is not context:
                tags[node.tag] = tags.get(node.tag, 0) + node.count
    return tags


def is_guide_ancestor(ancestor, node):
    current = node.parent
    while current is not None:
        if current is ancestor:
            return True
        current = current.parent
    return False


def pairwise_positions(pattern, guide, prune=True):
    positions = {}

    def tag_ok(node, path_node):
        return node.tag is None or node.tag == path_node.tag

    def assign(node):
        if node.is_root:
            pool = (
                list(guide.root_nodes)
                if node.axis is Axis.CHILD
                else list(guide.iter_nodes())
            )
            positions[node.node_id] = {p for p in pool if tag_ok(node, p)}
        else:
            found = set()
            for parent_position in positions[node.parent.node_id]:
                if node.axis is Axis.CHILD:
                    candidates = parent_position.children.values()
                else:
                    candidates = [
                        p
                        for p in parent_position.iter_subtree()
                        if p is not parent_position
                    ]
                found.update(p for p in candidates if tag_ok(node, p))
            positions[node.node_id] = found
        for child in node.children:
            assign(child)

    def supported(parent_position, child):
        if child.axis is Axis.CHILD:
            return any(p.parent is parent_position for p in positions[child.node_id])
        return any(
            is_guide_ancestor(parent_position, p) for p in positions[child.node_id]
        )

    def prune_up(node):
        changed = False
        for child in node.children:
            changed |= prune_up(child)
        if node.children:
            kept = {
                p
                for p in positions[node.node_id]
                if all(supported(p, child) for child in node.children)
            }
            if kept != positions[node.node_id]:
                positions[node.node_id] = kept
                changed = True
        return changed

    def restrict_down(node):
        changed = False
        for child in node.children:
            parents = positions[node.node_id]
            if child.axis is Axis.CHILD:
                allowed = {p for p in positions[child.node_id] if p.parent in parents}
            else:
                allowed = {
                    p
                    for p in positions[child.node_id]
                    if any(is_guide_ancestor(a, p) for a in parents)
                }
            if allowed != positions[child.node_id]:
                positions[child.node_id] = allowed
                changed = True
            changed |= restrict_down(child)
        return changed

    assign(pattern.root)
    if prune:
        while prune_up(pattern.root) | restrict_down(pattern.root):
            pass
    return positions


# ----------------------------------------------------------------------


def anchor_sets(name, db):
    """Every query node's positions, over the corpus's queries."""
    for query in QUERIES[name]:
        pattern = db.parse_query(query)
        positions = candidate_positions(pattern, db.guide)
        for node in pattern.nodes():
            yield query, node.node_id, positions[node.node_id]


def test_sample_paths_agree_with_the_per_tag_walk(corpus):
    name, db = corpus
    guide, engine = db.guide, db.autocomplete
    tags = sorted(guide.all_tags())
    expected = {tag: sample_paths_for_tag(guide, tag, None, Axis.CHILD) for tag in tags}
    assert engine._sample_paths(tags, None, Axis.CHILD) == expected
    overlapping = 0
    for query, node_id, anchors in anchor_sets(name, db):
        for axis in Axis:
            expected = {
                tag: sample_paths_for_tag(guide, tag, anchors, axis) for tag in tags
            }
            got = engine._sample_paths(tags, anchors, axis)
            assert got == expected, (query, node_id, axis)
        overlapping += any(
            is_guide_ancestor(a, b) for a in anchors for b in anchors
        )
    if name == "treebank":
        assert overlapping  # nested anchors were exercised


def test_descendant_tags_agree_with_the_per_context_walk(corpus):
    name, db = corpus
    for query, node_id, anchors in anchor_sets(name, db):
        assert db.guide.descendant_tags_of(anchors) == descendant_tags_per_context(
            anchors
        ), (query, node_id)


def test_positions_agree_with_the_pairwise_fixpoint(corpus):
    name, db = corpus
    for query in QUERIES[name]:
        pattern = db.parse_query(query)
        for prune in (True, False):
            assert candidate_positions(
                pattern, db.guide, prune
            ) == pairwise_positions(pattern, db.guide, prune), (query, prune)


def test_completions_are_unchanged_on_nested_anchors(corpus):
    """End to end: ranked candidates (counts, scores, sample paths)
    equal what the per-tag and per-context walks produce."""
    name, db = corpus
    engine = db.autocomplete
    for query in QUERIES[name]:
        pattern = db.parse_query(query)
        positions = pairwise_positions(pattern, db.guide)
        for node in pattern.nodes():
            for axis in Axis:
                engine.clear_cache()
                got = db.complete_tag(pattern, node, "", axis, k=1000)
                anchors = positions[node.node_id]
                if axis is Axis.CHILD:
                    counts = db.guide.child_tags_of(anchors)
                else:
                    counts = descendant_tags_per_context(anchors)
                assert {c.text: c.count for c in got} == counts
                for candidate in got:
                    assert candidate.sample_paths == sample_paths_for_tag(
                        db.guide, candidate.text, anchors, axis
                    )


@given(documents(), patterns())
@settings(max_examples=200, deadline=None)
def test_positions_agree_on_random_patterns(document, pattern):
    guide = label_document(document).guide
    for prune in (True, False):
        assert candidate_positions(pattern, guide, prune) == pairwise_positions(
            pattern, guide, prune
        )
