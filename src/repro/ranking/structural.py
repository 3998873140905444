"""Structural scoring of single twig matches.

The formulas live in :class:`repro.ranking.plan.ScoringPlan`, which
derives the per-pattern constants once; these functions compile a plan
for one match.  Score many matches of one pattern through a plan (or
:meth:`repro.ranking.scorer.LotusXScorer.rank`) instead.
"""

from __future__ import annotations

from repro.ranking.plan import OPTIONAL_BONUS, TIGHTNESS_WEIGHT, ScoringPlan
from repro.twig.match import Match
from repro.twig.pattern import TwigPattern

__all__ = [
    "OPTIONAL_BONUS",
    "TIGHTNESS_WEIGHT",
    "compactness",
    "edge_tightness",
    "optional_coverage",
    "structural_score",
]


def edge_tightness(pattern: TwigPattern, match: Match) -> float:
    """Average ``1/level-distance`` over the pattern's edges (1.0 for a
    single-node pattern)."""
    return ScoringPlan(pattern).edge_tightness(match.assignments)


def compactness(pattern: TwigPattern, match: Match) -> float:
    """``1 / (1 + log(span))`` over the match's required elements."""
    return ScoringPlan(pattern).compactness(match.assignments)


def optional_coverage(pattern: TwigPattern, match: Match) -> float:
    """Fraction of the pattern's optional branches the match bound
    (1.0 when the pattern has none)."""
    return ScoringPlan(pattern).optional_coverage(match.assignments)


def structural_score(pattern: TwigPattern, match: Match) -> float:
    """Combined structural score in (0, 1]."""
    return ScoringPlan(pattern).structural(match.assignments)
