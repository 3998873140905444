"""Textual scoring of single twig matches (tf-idf over predicate terms).

The formula lives in :meth:`repro.ranking.plan.ScoringPlan.textual`.
"""

from __future__ import annotations

from repro.index.term_index import TermIndex
from repro.ranking.plan import TF_SATURATION, ScoringPlan
from repro.twig.match import Match
from repro.twig.pattern import TwigPattern

__all__ = ["TF_SATURATION", "text_score"]


def text_score(pattern: TwigPattern, match: Match, term_index: TermIndex) -> float:
    """Text relevance of ``match`` in [0, 1]; 0.0 if the pattern carries
    no search terms."""
    return ScoringPlan(pattern).textual(match.assignments, term_index)
