"""Twig-matching algorithms: the naive oracle, plus the binary structural
join and the holistic PathStack / TwigStack kernels over columnar streams,
and order-constraint support."""

from repro.twig.algorithms.common import (
    AlgorithmStats,
    build_columnar_streams,
    filter_ordered,
)
from repro.twig.algorithms.naive import naive_match
from repro.twig.algorithms.ordered import (
    build_partial_order_check,
    order_constraint_pairs,
)
from repro.twig.algorithms.path_stack import path_stack_match_columnar
from repro.twig.algorithms.structural_join import (
    structural_join_match_columnar,
    structural_join_pairs_columnar,
)
from repro.twig.algorithms.twig_stack import twig_stack_match_columnar

__all__ = [
    "AlgorithmStats",
    "build_columnar_streams",
    "build_partial_order_check",
    "filter_ordered",
    "naive_match",
    "order_constraint_pairs",
    "path_stack_match_columnar",
    "structural_join_match_columnar",
    "structural_join_pairs_columnar",
    "twig_stack_match_columnar",
]
