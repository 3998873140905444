"""The rank stage of ``search()``: score every match, keep k.

One loop serves the single-document and the sharded database.  They
differ only in how a bound element is positioned in document order
(``order`` locally, ``region.start`` across shards — see
:mod:`repro.shard.merger`) and in which term view a match is scored
against.

Per-pattern work (the :class:`~repro.ranking.plan.ScoringPlan`) is paid
once per productive candidate, per-match work is float arithmetic, and
result objects are built for the k winners only.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

from repro.engine.results import SearchResult
from repro.labeling.assign import LabeledElement
from repro.ranking.plan import ScoringPlan
from repro.ranking.scorer import LotusXScorer, MatchScore
from repro.resilience.deadline import Deadline
from repro.resilience.errors import DeadlineExceeded
from repro.twig.match import Match

#: Matches scored during the post-trip grace period.  A tripped request
#: may still sit on thousands of salvaged matches; scoring them all
#: would dwarf the deadline itself, so ranking gets its own small budget
#: instead.
GRACE_RANK_STEPS = 1_000


def rank_top_k(
    productive,
    k: int,
    deadline: Deadline | None,
    scorer: LotusXScorer,
    term_view_of: Callable[[Match], object],
    position: Callable[[LabeledElement], int],
) -> list[SearchResult]:
    """Score all matches of all productive (rewritten) patterns, keep the
    best per distinct output binding, and return the ``k`` best results
    (ties broken by document order of the outputs).

    ``term_view_of(match)`` is the term view to score ``match`` against;
    ``position(element)`` places a bound element in document order.

    An already-tripped ``deadline`` is not re-checked here — ranking the
    salvaged partials is the point of the grace period — but the grace
    itself is bounded by :data:`GRACE_RANK_STEPS`.  A live deadline is
    checked per match; on expiry the matches scored so far are ranked.
    """
    if deadline is None:
        guard = None
    elif deadline.tripped:
        guard = Deadline(max_steps=GRACE_RANK_STEPS)
    else:
        guard = deadline
    # output binding -> (combined, structural, textual, match, candidate, plan)
    best: dict[tuple[int, ...], tuple] = {}
    score = scorer.score
    try:
        for candidate, matches in productive:
            plan = ScoringPlan(candidate.pattern)
            output_ids = plan.output_ids
            penalty = candidate.penalty
            for match in matches:
                if guard is not None:
                    guard.check("search.rank")
                assignments = match.assignments
                combined, structural, textual = score(
                    plan, assignments, term_view_of(match), penalty
                )
                key = tuple(
                    [position(assignments[node_id]) for node_id in output_ids]
                )
                current = best.get(key)
                if current is None or combined > current[0]:
                    best[key] = (
                        combined, structural, textual, match, candidate, plan
                    )
    except DeadlineExceeded:
        # Keep whatever was scored before the budget ran out.
        pass
    winners = heapq.nsmallest(
        k, best.items(), key=lambda item: (-item[1][0], item[0])
    )
    return [
        SearchResult(
            outputs=tuple(match.assignments[i] for i in plan.output_ids),
            score=MatchScore(structural, textual, candidate.penalty, combined),
            match=match,
            source_query=plan.source_query,
            rewrite_steps=candidate.steps,
            terms=plan.terms,
        )
        for _, (combined, structural, textual, match, candidate, plan) in winners
    ]
