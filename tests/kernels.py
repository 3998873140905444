"""Drive every kept twig kernel through the planner, for the kernel tests.

The stream kernels are only ever run the way the engine runs them:
``evaluate(pattern, labeled, factory, algorithm=…)`` over columnar
streams, with DataGuide stream pruning off and on.
"""

from __future__ import annotations

from repro.index.element_index import StreamFactory
from repro.index.term_index import TermIndex
from repro.labeling.assign import LabeledDocument
from repro.twig.algorithms.common import AlgorithmStats
from repro.twig.algorithms.naive import naive_match
from repro.twig.match import Match, sort_matches
from repro.twig.pattern import TwigPattern
from repro.twig.planner import Algorithm, evaluate

#: The stream kernels; PathStack is defined on linear paths only.
STREAM_KERNELS = (
    Algorithm.STRUCTURAL_JOIN,
    Algorithm.TWIG_STACK,
    Algorithm.PATH_STACK,
)


def kernels_for(pattern: TwigPattern) -> list[Algorithm]:
    """The stream kernels that accept ``pattern``."""
    return [
        algorithm
        for algorithm in STREAM_KERNELS
        if algorithm is not Algorithm.PATH_STACK or pattern.is_path()
    ]


def run_kernel(
    pattern: TwigPattern,
    labeled: LabeledDocument,
    factory: StreamFactory,
    algorithm: Algorithm,
    prune_streams: bool = False,
    stats: AlgorithmStats | None = None,
) -> list[Match]:
    """Sorted matches of ``pattern`` under one kernel."""
    return sort_matches(
        evaluate(
            pattern,
            labeled,
            factory,
            algorithm=algorithm,
            stats=stats,
            prune_streams=prune_streams,
        )
    )


def assert_kernels_agree(
    pattern: TwigPattern,
    labeled: LabeledDocument,
    term_index: TermIndex,
    context: str = "",
) -> list[Match]:
    """Every applicable kernel, pruned and unpruned, equals the naive
    oracle on ``pattern``; returns the oracle's sorted matches."""
    factory = StreamFactory(labeled, term_index)
    oracle = sort_matches(naive_match(pattern, labeled, term_index))
    for algorithm in kernels_for(pattern):
        for prune in (False, True):
            got = run_kernel(pattern, labeled, factory, algorithm, prune)
            assert got == oracle, (
                f"{algorithm.value} prune={prune} disagrees with the naive"
                f" oracle ({len(got)} vs {len(oracle)} matches) {context}"
            )
    return oracle
