"""The compiled scoring plan against the per-match formulas it replaced.

The oracle below is the pre-plan implementation of
``edge_tightness`` / ``compactness`` / ``optional_coverage`` /
``text_score`` and the scorer's combination, kept verbatim: it re-derives
every per-pattern constant per match, straight from the pattern.  The
plan must reproduce it *exactly* — ``==`` on floats, not ``approx`` —
because served scores are compared byte for byte across mono, sharded and
segmented corpora.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import LotusXDatabase
from repro.ranking.plan import ScoringPlan
from repro.ranking.scorer import LotusXScorer
from repro.ranking.structural import (
    compactness,
    edge_tightness,
    optional_coverage,
    structural_score,
)
from repro.ranking.tfidf import text_score
from repro.shard.database import ShardedDatabase
from repro.twig.pattern import (
    AbsentBranchPredicate,
    Axis,
    ComparisonOp,
    ContainsPredicate,
    EqualsPredicate,
    NotPredicate,
    RangePredicate,
    TwigPattern,
)
from repro.xmlio.tree import Document, Element

# ---------------------------------------------------------------------------
# The oracle: the formulas as they were before the plan, verbatim
# ---------------------------------------------------------------------------

TIGHTNESS_WEIGHT = 0.7
OPTIONAL_BONUS = 0.05
TF_SATURATION = 1.0


def oracle_edge_tightness(pattern, match):
    distances = []
    for node in pattern.nodes():
        if node.parent is None:
            continue
        parent_element = match.assignments.get(node.parent.node_id)
        child_element = match.assignments.get(node.node_id)
        if parent_element is None or child_element is None:
            continue
        distances.append(child_element.level - parent_element.level)
    if not distances:
        return 1.0
    return sum(1.0 / distance for distance in distances) / len(distances)


def oracle_compactness(pattern, match):
    required_ids = {node.node_id for node in pattern.required_skeleton().nodes()}
    elements = [
        element
        for node_id, element in match.assignments.items()
        if node_id in required_ids
    ] or list(match.assignments.values())
    starts = [element.region.start for element in elements]
    ends = [element.region.end for element in elements]
    span_elements = (max(ends) - min(starts) + 1) // 2
    excess = max(1.0, span_elements / max(1, len(required_ids)))
    return 1.0 / (1.0 + math.log(excess))


def oracle_optional_coverage(pattern, match):
    branches = pattern.optional_branches()
    if not branches:
        return 1.0
    bound = sum(1 for branch in branches if branch.node_id in match.assignments)
    return bound / len(branches)


def oracle_structural_score(pattern, match):
    tightness = oracle_edge_tightness(pattern, match)
    compact = oracle_compactness(pattern, match)
    base = TIGHTNESS_WEIGHT * tightness + (1.0 - TIGHTNESS_WEIGHT) * compact
    if pattern.has_optional():
        coverage = oracle_optional_coverage(pattern, match)
        return base * (1.0 - OPTIONAL_BONUS) + OPTIONAL_BONUS * coverage
    return base


def oracle_text_score(pattern, match, term_index):
    weighted = 0.0
    total_idf = 0.0
    for node, predicate in pattern.predicates():
        element = match.assignments.get(node.node_id)
        if element is None:
            continue
        for term in predicate.terms():
            idf = term_index.idf(term)
            tf = term_index.subtree_term_frequency(element, term)
            total_idf += idf
            weighted += idf * (tf / (tf + TF_SATURATION))
    if total_idf == 0.0:
        return 0.0
    return weighted / total_idf


def oracle_score_match(scorer, pattern, match, term_index, rewrite_penalty=0.0):
    structural = oracle_structural_score(pattern, match)
    textual = oracle_text_score(pattern, match, term_index)
    if pattern.all_terms():
        combined = scorer.structure_weight * structural + scorer.text_weight * textual
    else:
        combined = structural
    combined /= 1.0 + rewrite_penalty
    return structural, textual, combined


# ---------------------------------------------------------------------------
# Inputs: nested documents with words and numbers, patterns with every
# predicate kind and optional branches (nested ones too)
# ---------------------------------------------------------------------------

TAGS = ["a", "b", "c", "d"]
WORDS = ["red", "blue", "green", "grey"]
SCORERS = [
    LotusXScorer(),
    LotusXScorer(structure_weight=0.3, text_weight=0.9),
    LotusXScorer.text_only(),
    LotusXScorer.structure_only(),
]
PENALTIES = [0.0, 0.5, 2.25]


def random_document(rng: random.Random, size: int) -> Document:
    root = Element("r")
    open_elements = [root]
    for _ in range(size):
        parent = rng.choice(open_elements)
        child = parent.make_child(rng.choice(TAGS))
        roll = rng.random()
        if roll < 0.45:
            child.append_text(" ".join(rng.choices(WORDS, k=rng.randint(1, 4))))
        elif roll < 0.6:
            child.append_text(str(rng.randint(1990, 2012)))
        open_elements.append(child)
        if len(open_elements) > 7:
            open_elements.pop(0)
    return Document(root)


def random_predicate(rng: random.Random):
    roll = rng.random()
    if roll < 0.3:
        return ContainsPredicate(" ".join(rng.choices(WORDS, k=rng.randint(1, 3))))
    if roll < 0.45:
        return EqualsPredicate(" ".join(rng.choices(WORDS, k=rng.randint(1, 2))))
    if roll < 0.55:
        return RangePredicate(rng.choice([ComparisonOp.LT, ComparisonOp.GE]), 2001)
    if roll < 0.65:
        return NotPredicate(ContainsPredicate(rng.choice(WORDS)))
    if roll < 0.72:
        return AbsentBranchPredicate(rng.choice(TAGS), rng.choice(list(Axis)))
    return None


def random_pattern(rng: random.Random, node_count: int) -> TwigPattern:
    """A twig whose optional nodes never carry the output (the root is
    the output), so every pattern is evaluable."""
    root_tag = None if rng.random() < 0.1 else rng.choice(TAGS + ["r"])
    pattern = TwigPattern(root_tag, predicate=random_predicate(rng))
    nodes = [pattern.root]
    for _ in range(node_count - 1):
        parent = rng.choice(nodes)
        nodes.append(
            pattern.add_child(
                parent,
                None if rng.random() < 0.1 else rng.choice(TAGS),
                Axis.CHILD if rng.random() < 0.4 else Axis.DESCENDANT,
                random_predicate(rng),
                optional=rng.random() < 0.3,
            )
        )
    return pattern


def assert_plan_equals_oracle(pattern, matches, term_view_of, context=""):
    plan = ScoringPlan(pattern)
    assert plan.terms == pattern.all_terms(), context
    assert plan.source_query == str(pattern), context
    assert plan.output_ids == tuple(n.node_id for n in pattern.output_nodes())
    for match in matches:
        view = term_view_of(match)
        assignments = match.assignments
        where = f"{context} pattern={pattern} match={match}"
        assert plan.edge_tightness(assignments) == oracle_edge_tightness(
            pattern, match
        ), where
        assert plan.compactness(assignments) == oracle_compactness(
            pattern, match
        ), where
        assert plan.optional_coverage(assignments) == oracle_optional_coverage(
            pattern, match
        ), where
        for scorer in SCORERS:
            for penalty in PENALTIES:
                structural, textual, combined = oracle_score_match(
                    scorer, pattern, match, view, penalty
                )
                assert scorer.score(plan, assignments, view, penalty) == (
                    combined,
                    structural,
                    textual,
                ), where
                score = scorer.score_match(pattern, match, view, penalty)
                assert (
                    score.structural,
                    score.textual,
                    score.rewrite_penalty,
                    score.combined,
                ) == (structural, textual, penalty, combined), where


# ---------------------------------------------------------------------------
# Seeded matrix + hypothesis property
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_plan_scores_equal_oracle_seeded(seed):
    rng = random.Random(4200 + seed)
    database = LotusXDatabase(random_document(rng, rng.randint(8, 45)))
    for _ in range(6):
        pattern = random_pattern(rng, rng.randint(1, 5))
        assert_plan_equals_oracle(
            pattern,
            database.matches(pattern),
            lambda match: database.term_index,
            f"seed={seed}",
        )


@given(st.integers(0, 2**32 - 1), st.integers(4, 30), st.integers(1, 5))
@settings(max_examples=120, deadline=None)
def test_plan_scores_equal_oracle_property(seed, size, node_count):
    rng = random.Random(seed)
    database = LotusXDatabase(random_document(rng, size))
    pattern = random_pattern(rng, node_count)
    assert_plan_equals_oracle(
        pattern, database.matches(pattern), lambda match: database.term_index
    )


def test_seeded_matrix_reaches_every_shape():
    """The generators above must actually produce the shapes the issue
    names, or the equality tests prove less than they claim."""
    seen = set()
    for seed in range(40):
        rng = random.Random(4200 + seed)
        database = LotusXDatabase(random_document(rng, rng.randint(8, 45)))
        for _ in range(6):
            pattern = random_pattern(rng, rng.randint(1, 5))
            matches = database.matches(pattern)
            if not matches:
                continue
            plan = ScoringPlan(pattern)
            if len(pattern.nodes()) == 1:
                seen.add("single-node")
            if not plan.terms:
                seen.add("no-terms")
            if any(len(terms) > 1 for _, terms in plan.predicate_terms):
                seen.add("multi-term")
            for node, predicate in pattern.predicates():
                seen.add(type(predicate).__name__)
            if plan.optional_ids:
                bound = {
                    sum(1 for i in plan.optional_ids if i in m.assignments)
                    for m in matches
                }
                if 0 in bound:
                    seen.add("unbound-optional")
                if bound - {0}:
                    seen.add("bound-optional")
            if any(
                node.optional and node.parent is not None and node.parent.optional
                for node in pattern.nodes()
            ):
                seen.add("nested-optional")
    assert seen >= {
        "single-node",
        "no-terms",
        "multi-term",
        "ContainsPredicate",
        "EqualsPredicate",
        "RangePredicate",
        "NotPredicate",
        "AbsentBranchPredicate",
        "unbound-optional",
        "bound-optional",
        "nested-optional",
    }, seen


# ---------------------------------------------------------------------------
# Hand-picked shapes
# ---------------------------------------------------------------------------


class TestNamedShapes:
    def test_negations_contribute_no_terms(self, small_db):
        pattern = small_db.parse_query('//article[./title!~"keyword"][not(./editor)]')
        plan = ScoringPlan(pattern)
        assert plan.terms == () and plan.predicate_terms == ()
        matches = small_db.matches(pattern)
        assert matches
        assert_plan_equals_oracle(pattern, matches, lambda m: small_db.term_index)
        score = LotusXScorer().score_match(pattern, matches[0], small_db.term_index)
        assert score.textual == 0.0 and score.combined == score.structural

    def test_nested_optional_branches(self, small_db):
        pattern = TwigPattern("book")
        editor = pattern.add_child(pattern.root, "editor", optional=True)
        pattern.add_child(editor, "author", optional=True)
        pattern.add_child(pattern.root, "journal", optional=True)
        plan = ScoringPlan(pattern)
        # Only top-level optional nodes are branches; only the root is required.
        assert plan.optional_ids == (1, 3) and plan.required_ids == (0,)
        matches = small_db.matches(pattern)
        assert [sorted(m.assignments) for m in matches] == [[0, 1, 2]]
        assert_plan_equals_oracle(pattern, matches, lambda m: small_db.term_index)
        assert optional_coverage(pattern, matches[0]) == 0.5

    def test_multi_term_equals_and_range(self, dblp_db):
        year = dblp_db.matches("//article/year")[0].assignments[1].element.text
        queries = [
            '//article[./title~"xml query"]/author',
            f"//article[./year>={year}]/title",
            f'//article[./year="{year}"]',
        ]
        scored = 0
        for query in queries:
            pattern = dblp_db.parse_query(query)
            matches = dblp_db.matches(pattern)
            scored += len(matches)
            assert_plan_equals_oracle(pattern, matches, lambda m: dblp_db.term_index)
        assert scored

    def test_public_single_match_functions_delegate(self, small_db):
        pattern = small_db.parse_query('//article[./title~"twig"][./journal?]')
        for match in small_db.matches(pattern):
            assert edge_tightness(pattern, match) == oracle_edge_tightness(pattern, match)
            assert compactness(pattern, match) == oracle_compactness(pattern, match)
            assert structural_score(pattern, match) == oracle_structural_score(
                pattern, match
            )
            assert text_score(pattern, match, small_db.term_index) == oracle_text_score(
                pattern, match, small_db.term_index
            )

    def test_rank_uses_one_plan_and_sorts(self, dblp_db, monkeypatch):
        pattern = dblp_db.parse_query('//article[./title~"xml"]/author')
        matches = dblp_db.matches(pattern)
        compiled = []
        original = ScoringPlan.__init__
        monkeypatch.setattr(
            ScoringPlan,
            "__init__",
            lambda self, p: (compiled.append(p), original(self, p))[1],
        )
        ranked = LotusXScorer().rank(pattern, matches, dblp_db.term_index)
        assert len(compiled) == 1 and len(ranked) == len(matches) > 1
        keys = [(-score.combined, match.order_key()) for match, score in ranked]
        assert keys == sorted(keys)


def test_per_shard_term_views_score_with_global_idf():
    """Sharded matches are scored against their own shard's postings but
    the corpus-wide idf — and equal the mono scores bit for bit."""
    rng = random.Random(77)
    document_rng = random.Random(78)
    mono = LotusXDatabase(random_document(document_rng, 60))
    sharded = ShardedDatabase.from_document(
        random_document(random.Random(78), 60), shards=3
    )
    try:
        compared = 0
        for _ in range(40):
            pattern = random_pattern(rng, rng.randint(2, 4))
            if pattern.root.tag in (None, "r"):
                continue  # may bind the replicated root: not shard-decomposable
            shard_matches = sharded.matches(pattern)
            assert_plan_equals_oracle(
                pattern, shard_matches, lambda m: sharded._term_views[m.shard]
            )
            mono_matches = mono.matches(pattern)
            assert len(mono_matches) == len(shard_matches)
            plan = ScoringPlan(pattern)
            for local, remote in zip(mono_matches, shard_matches):
                compared += 1
                assert LotusXScorer().score(
                    plan, local.assignments, mono.term_index
                ) == LotusXScorer().score(
                    plan, remote.assignments, sharded._term_views[remote.shard]
                )
        assert compared > 50
    finally:
        sharded.close()
