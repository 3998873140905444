"""Algorithm selection and plan compilation for twig evaluation.

A tiny rule-based planner: linear paths go to PathStack, everything else
to TwigStack.  The naive matcher and binary structural joins are never
chosen automatically — they exist as baselines — but can be forced, which
the benchmarks and the cross-checking tests do.

Evaluation is split into two phases so the engine can cache the first:

* :func:`compile_plan` resolves the algorithm, validates the pattern,
  and builds the per-node columnar candidate streams into an immutable
  :class:`CompiledPlan`;
* :func:`execute_plan` runs the matching kernel over those streams.

Streams are shared, read-only snapshots of the index, so a compiled plan
stays valid for as long as the factory it was built from — the engine
keys its plan cache by serving generation to get invalidation on hot
reload for free.  :func:`evaluate` composes the two phases for callers
that don't cache.
"""

from __future__ import annotations

import enum

from repro.index.columnar import ColumnarStream
from repro.index.element_index import StreamFactory
from repro.labeling.assign import LabeledDocument
from repro.resilience.deadline import Deadline
from repro.twig.algorithms.common import AlgorithmStats, build_columnar_streams
from repro.twig.algorithms.naive import naive_match
from repro.twig.algorithms.path_stack import path_stack_match_columnar
from repro.twig.algorithms.structural_join import structural_join_match_columnar
from repro.twig.algorithms.twig_stack import twig_stack_match_columnar
from repro.twig.match import Match
from repro.twig.pattern import TwigPattern


class Algorithm(enum.Enum):
    """Selectable twig-matching algorithms."""

    AUTO = "auto"
    NAIVE = "naive"
    STRUCTURAL_JOIN = "structural-join"
    PATH_STACK = "path-stack"
    TWIG_STACK = "twig-stack"


def choose_algorithm(pattern: TwigPattern) -> Algorithm:
    """The planner's pick for ``pattern``."""
    if pattern.is_path():
        return Algorithm.PATH_STACK
    return Algorithm.TWIG_STACK


class CompiledPlan:
    """A pattern resolved to an algorithm plus its candidate streams.

    ``kind`` selects the execution strategy:

    * ``"columnar"`` — ``views`` holds per-node
      :class:`~repro.index.columnar.ColumnarStream` views for the
      stream kernels;
    * ``"naive"`` — no streams; the oracle walks the document directly;
    * ``"optional"`` — ``inner`` is the compiled plan of the required
      skeleton; optional nodes are grafted on after execution.

    Plans hold references to shared, immutable index data — execute as
    often as you like, but never mutate the streams.
    """

    __slots__ = (
        "kind",
        "pattern",
        "algorithm",
        "prune_streams",
        "views",
        "inner",
    )

    def __init__(
        self,
        kind: str,
        pattern: TwigPattern,
        algorithm: Algorithm,
        prune_streams: bool,
        views: dict[int, ColumnarStream] | None = None,
        inner: CompiledPlan | None = None,
    ) -> None:
        self.kind = kind
        self.pattern = pattern
        self.algorithm = algorithm
        self.prune_streams = prune_streams
        self.views = views
        self.inner = inner

    def __repr__(self) -> str:
        return (
            f"CompiledPlan(kind={self.kind!r},"
            f" algorithm={self.algorithm.value!r})"
        )


def compile_plan(
    pattern: TwigPattern,
    labeled: LabeledDocument,
    factory: StreamFactory,
    algorithm: Algorithm = Algorithm.AUTO,
    prune_streams: bool = False,
    deadline: Deadline | None = None,
) -> CompiledPlan:
    """Resolve the algorithm and build the candidate streams for
    ``pattern``.

    Stream building checks ``deadline`` at the ``twig.streams``
    checkpoints.
    """
    if algorithm is Algorithm.AUTO:
        algorithm = choose_algorithm(pattern)
    if pattern.has_optional():
        from repro.twig.optional import validate_optional_pattern

        validate_optional_pattern(pattern)
        inner = compile_plan(
            pattern.required_skeleton(),
            labeled,
            factory,
            algorithm,
            prune_streams,
            deadline,
        )
        return CompiledPlan(
            "optional", pattern, algorithm, prune_streams, inner=inner
        )
    if algorithm is Algorithm.NAIVE:
        return CompiledPlan("naive", pattern, algorithm, prune_streams)
    guide = labeled.guide if prune_streams else None
    views = build_columnar_streams(pattern, factory, guide, deadline)
    return CompiledPlan("columnar", pattern, algorithm, prune_streams, views=views)


def execute_plan(
    plan: CompiledPlan,
    labeled: LabeledDocument,
    factory: StreamFactory,
    stats: AlgorithmStats | None = None,
    deadline: Deadline | None = None,
) -> list[Match]:
    """Run a compiled plan's matching kernel.

    ``deadline`` is checked cooperatively inside every algorithm's main
    loop; on expiry a
    :class:`~repro.resilience.errors.DeadlineExceeded` is raised, with
    whatever well-formed partial matches could be salvaged attached as
    its ``partial``.
    """
    pattern = plan.pattern
    if plan.kind == "optional":
        from repro.twig.match import sort_matches
        from repro.twig.optional import extend_with_optionals

        skeleton_matches = execute_plan(
            plan.inner, labeled, factory, stats, deadline
        )
        return sort_matches(
            extend_with_optionals(
                pattern, skeleton_matches, labeled, factory.term_index
            )
        )
    if plan.kind == "naive":
        return naive_match(
            pattern, labeled, factory.term_index, stats, deadline=deadline
        )
    algorithm = plan.algorithm
    views = plan.views
    assert views is not None
    if algorithm is Algorithm.PATH_STACK:
        return path_stack_match_columnar(pattern, views, stats, deadline)
    if algorithm is Algorithm.STRUCTURAL_JOIN:
        return structural_join_match_columnar(
            pattern, views, stats, deadline=deadline
        )
    return twig_stack_match_columnar(pattern, views, stats, deadline)


def evaluate(
    pattern: TwigPattern,
    labeled: LabeledDocument,
    factory: StreamFactory,
    algorithm: Algorithm = Algorithm.AUTO,
    stats: AlgorithmStats | None = None,
    prune_streams: bool = False,
    deadline: Deadline | None = None,
) -> list[Match]:
    """Evaluate ``pattern`` with the chosen (or planned) algorithm.

    ``prune_streams`` filters every node's stream by its DataGuide
    candidate positions first (see
    :func:`repro.twig.algorithms.common.build_columnar_streams`).

    One-shot compile + execute; the engine caches the compiled plan
    instead of calling this (see ``LotusXDatabase.matches``).
    """
    plan = compile_plan(
        pattern, labeled, factory, algorithm, prune_streams, deadline
    )
    return execute_plan(plan, labeled, factory, stats, deadline)
