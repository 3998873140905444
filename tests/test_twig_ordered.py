"""Order-sensitive twig matching."""

import pytest

from repro.index.element_index import StreamFactory
from repro.index.term_index import TermIndex
from repro.labeling.assign import label_document
from repro.twig.algorithms.ordered import (
    build_partial_order_check,
    order_constraint_pairs,
)
from repro.twig.match import Match
from repro.twig.parse import parse_twig
from repro.xmlio.builder import parse_string
from tests.kernels import assert_kernels_agree, kernels_for, run_kernel

# Two records with opposite field orders.
XML = (
    "<r>"
    "<rec><x>1</x><y>2</y></rec>"
    "<rec><y>3</y><x>4</x></rec>"
    "<rec><x>5</x><x>6</x><y>7</y></rec>"
    "</r>"
)


@pytest.fixture(scope="module")
def ctx():
    labeled = label_document(parse_string(XML))
    term_index = TermIndex(labeled)
    return labeled, term_index, StreamFactory(labeled, term_index)


def run(ctx, query):
    labeled, term_index, _ = ctx
    pattern = parse_twig(query)
    return pattern, assert_kernels_agree(pattern, labeled, term_index)


class TestOrderedMatching:
    def test_unordered_finds_all(self, ctx):
        _, matches = run(ctx, "//rec[./x][./y]")
        assert len(matches) == 4  # rec1:1, rec2:1, rec3:2

    def test_ordered_drops_reversed_record(self, ctx):
        _, matches = run(ctx, "ordered://rec[./x][./y]")
        assert len(matches) == 3  # rec2 (y before x) is dropped

    def test_ordered_reverse_pattern(self, ctx):
        _, matches = run(ctx, "ordered://rec[./y][./x]")
        assert len(matches) == 1  # only rec2 has y before x

    def test_order_within_same_tag(self, ctx):
        labeled, _, factory = ctx
        pattern = parse_twig("//rec[./x][./x]")
        first, second = pattern.root.children
        pattern.add_order_constraint(first, second)
        for algorithm in kernels_for(pattern):
            matches = run_kernel(pattern, labeled, factory, algorithm)
            # Only rec3 has two x elements in order (x=5 before x=6).
            assert len(matches) == 1
            match = matches[0]
            assert match.element(first.node_id).element.text == "5"
            assert match.element(second.node_id).element.text == "6"


class TestConstraintMachinery:
    def test_constraint_pairs_from_flag(self):
        pattern = parse_twig("ordered://a[./b][./c][./d]")
        pairs = order_constraint_pairs(pattern)
        # Adjacent sibling pairs only (transitivity covers the rest).
        assert len(pairs) == 2

    def test_no_constraints_returns_none(self):
        pattern = parse_twig("//a[./b][./c]")
        assert build_partial_order_check(pattern) is None

    def test_partial_check_ignores_unbound_nodes(self, ctx):
        labeled, _, _ = ctx
        pattern = parse_twig("ordered://rec[./x][./y]")
        check = build_partial_order_check(pattern)
        assert check is not None
        x_node, y_node = pattern.root.children
        rec = labeled.stream("rec")[0]
        # Only the rec bound: no constraint has both endpoints — passes.
        assert check({pattern.root.node_id: rec})
        # Both bound, correct order.
        assert check(
            {
                x_node.node_id: labeled.stream("x")[0],
                y_node.node_id: labeled.stream("y")[0],
            }
        )
        # Both bound, wrong order.
        assert not check(
            {
                x_node.node_id: labeled.stream("x")[1],
                y_node.node_id: labeled.stream("y")[1],
            }
        )
