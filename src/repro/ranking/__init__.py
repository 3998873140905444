"""Result ranking: structural tightness + tf-idf text relevance, combined
with rewrite penalties (the abstract's "new ranking strategy")."""

from repro.ranking.plan import ScoringPlan
from repro.ranking.scorer import LotusXScorer, MatchScore
from repro.ranking.structural import compactness, edge_tightness, structural_score
from repro.ranking.tfidf import text_score

__all__ = [
    "LotusXScorer",
    "MatchScore",
    "ScoringPlan",
    "compactness",
    "edge_tightness",
    "structural_score",
    "text_score",
]
