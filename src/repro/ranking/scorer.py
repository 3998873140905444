"""The LotusX combined ranking strategy.

``score = w_struct · structural + w_text · textual``, degraded by the
rewrite penalty when the match came from a rewritten query
(``/(1 + penalty)``).  When a pattern carries no search terms the textual
weight is folded into the structural side so exact structural queries
still rank on a full-strength scale.

The baselines for experiment E7 are the same scorer with degenerate
weights: ``text_only()`` and ``structure_only()``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.index.term_index import TermIndex
from repro.ranking.plan import ScoringPlan
from repro.twig.match import Match
from repro.twig.pattern import TwigPattern


@dataclass(frozen=True, slots=True)
class MatchScore:
    """Score breakdown for one match."""

    structural: float
    textual: float
    rewrite_penalty: float
    combined: float

    def as_dict(self) -> dict[str, float]:
        return {
            "structural": round(self.structural, 4),
            "textual": round(self.textual, 4),
            "rewrite_penalty": self.rewrite_penalty,
            "combined": round(self.combined, 4),
        }


class LotusXScorer:
    """Combined structural + textual scorer with configurable weights."""

    def __init__(self, structure_weight: float = 0.5, text_weight: float = 0.5) -> None:
        total = structure_weight + text_weight
        if total <= 0:
            raise ValueError("at least one weight must be positive")
        self.structure_weight = structure_weight / total
        self.text_weight = text_weight / total

    @classmethod
    def text_only(cls) -> LotusXScorer:
        return cls(structure_weight=0.0, text_weight=1.0)

    @classmethod
    def structure_only(cls) -> LotusXScorer:
        return cls(structure_weight=1.0, text_weight=0.0)

    def score(
        self,
        plan: ScoringPlan,
        assignments,
        term_index: TermIndex,
        rewrite_penalty: float = 0.0,
    ) -> tuple[float, float, float]:
        """``(combined, structural, textual)`` of one match's
        ``assignments`` under a compiled ``plan`` — plain floats, for
        loops that score many matches and keep few."""
        structural = plan.structural(assignments)
        textual = plan.textual(assignments, term_index)
        if plan.terms:
            combined = (
                self.structure_weight * structural + self.text_weight * textual
            )
        else:
            # No search terms: the textual signal is vacuous, rank on
            # structure alone at full strength.
            combined = structural
        return combined / (1.0 + rewrite_penalty), structural, textual

    def score_match(
        self,
        pattern: TwigPattern,
        match: Match,
        term_index: TermIndex,
        rewrite_penalty: float = 0.0,
    ) -> MatchScore:
        combined, structural, textual = self.score(
            ScoringPlan(pattern), match.assignments, term_index, rewrite_penalty
        )
        return MatchScore(structural, textual, rewrite_penalty, combined)

    def rank(
        self,
        pattern: TwigPattern,
        matches: list[Match],
        term_index: TermIndex,
        rewrite_penalty: float = 0.0,
    ) -> list[tuple[Match, MatchScore]]:
        """Matches with scores, best first (ties broken by document order)."""
        plan = ScoringPlan(pattern)
        scored = []
        for match in matches:
            combined, structural, textual = self.score(
                plan, match.assignments, term_index, rewrite_penalty
            )
            scored.append(
                (match, MatchScore(structural, textual, rewrite_penalty, combined))
            )
        scored.sort(key=lambda pair: (-pair[1].combined, pair[0].order_key()))
        return scored
