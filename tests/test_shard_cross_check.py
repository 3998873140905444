"""Differential testing of the sharded fleet against the single database.

Extends the seeded 400-case harness from ``test_twig_cross_check`` to a
2-shard split: every case builds the same document twice — once as a
monolithic :class:`LotusXDatabase` (the oracle) and once partitioned
through :class:`ShardedDatabase` — and the shard-merged matches must be
globally identical to the mono answer.  The harness matrix guarantees
the axes that stress the merge layer: ordered (sibling-order-sensitive)
patterns with optional nodes on the columnar path, negation, stream
pruning, and spine-rooted patterns that must take the fallback path.

A second layer cross-checks the ranked surfaces (search, keyword SLCA /
ELCA, autocompletion, statistics) on a realistic corpus, where scores
depend on corpus-global term statistics that the fleet must reconstruct
exactly.
"""

from __future__ import annotations

import pytest

from repro.datasets import generate_dblp_xml
from repro.engine.database import LotusXDatabase
from repro.shard.database import ShardedDatabase
from repro.twig.match import Match
from tests.test_twig_cross_check import (
    HARNESS_BATCHES,
    HARNESS_CASES_PER_BATCH,
    _harness_document,
    _harness_pattern,
    _harness_shape,
)

SHARDS = 2


def _canonical(matches: list[Match]) -> list[tuple]:
    """Shard-independent projection of a match list.

    Mono and shard databases hold distinct ``Element`` objects for the
    same corpus position, so matches are compared on global region
    coordinates (identical across the fleet by construction) plus tag
    and level.
    """
    return [
        tuple(
            sorted(
                (nid, el.region.start, el.region.end, el.level, el.tag)
                for nid, el in match.assignments.items()
            )
        )
        for match in matches
    ]


@pytest.mark.parametrize("batch", range(HARNESS_BATCHES))
def test_sharded_matches_agree_with_mono(batch):
    for case in range(HARNESS_CASES_PER_BATCH):
        seed = batch * HARNESS_CASES_PER_BATCH + case
        shape = _harness_shape(case)
        prune = seed % 3 == 0
        mono = LotusXDatabase(_harness_document(seed))
        sharded = ShardedDatabase.from_document(
            _harness_document(seed), SHARDS
        )
        pattern = _harness_pattern(seed, shape)
        context = f"seed={seed} shape={shape} prune={prune} pattern={pattern}"

        oracle = _canonical(mono.matches(pattern, prune_streams=prune))
        got = _canonical(
            sharded.matches(pattern.copy(), prune_streams=prune)
        )
        assert got == oracle, (
            f"shard merge disagrees with mono"
            f" ({len(got)} vs {len(oracle)} matches): {context}"
        )
        sharded.close()


def test_sharded_harness_covers_ordered_optional_columnar():
    """The extended matrix really exercises the advertised axes.

    In particular: ordered (sibling-order-sensitive) patterns that also
    carry optional nodes — the combination most likely to break a merge
    that reorders or re-deduplicates matches — and cases where the
    2-shard fleet takes the scatter path vs the spine fallback.
    """
    ordered_with_optional = 0
    scatter_safe = 0
    fallback = 0
    total = HARNESS_BATCHES * HARNESS_CASES_PER_BATCH
    for seed in range(total):
        pattern = _harness_pattern(seed, _harness_shape(seed))
        if pattern.ordered and pattern.has_optional():
            ordered_with_optional += 1
        root = pattern.root
        unsafe = root.accepts_tag("r") and (
            root.predicate is not None
            or len(root.children) >= 2
            or any(child.optional for child in root.children)
        )
        if unsafe:
            fallback += 1
        else:
            scatter_safe += 1
    assert ordered_with_optional >= 15, ordered_with_optional
    assert scatter_safe >= 250, scatter_safe
    assert fallback >= 30, fallback


# ---------------------------------------------------------------------------
# Ranked surfaces: scores depend on corpus-global statistics
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus_pair():
    xml_text = generate_dblp_xml(120, 11)
    mono = LotusXDatabase.from_string(xml_text)
    sharded = ShardedDatabase.from_string(xml_text, 3)
    yield mono, sharded
    sharded.close()


SEARCH_QUERIES = [
    '//article[./title~"twig"]/author',
    '//article[./year="2004"]',
    "//inproceedings/title",
    "//article[./author][./title]",
]


def test_sharded_search_identical(corpus_pair):
    mono, sharded = corpus_pair
    for query in SEARCH_QUERIES:
        expected = mono.search(query, k=10)
        got = sharded.search(query, k=10)
        assert [r.as_dict() for r in got.results] == [
            r.as_dict() for r in expected.results
        ], query
        assert got.total_matches == expected.total_matches, query


@pytest.mark.parametrize("semantics", ["slca", "elca"])
def test_sharded_keyword_identical(corpus_pair, semantics):
    mono, sharded = corpus_pair
    for terms in ("twig join", "xml", "database query", "nosuchterm xml"):
        expected = mono.keyword_search(terms, k=10, semantics=semantics)
        got = sharded.keyword_search(terms, k=10, semantics=semantics)
        assert got.as_dict() == expected.as_dict(), (semantics, terms)


def test_sharded_autocomplete_identical(corpus_pair):
    mono, sharded = corpus_pair
    for prefix in ("a", "t", ""):
        expected = mono.complete_tag(prefix=prefix, k=10)
        got = sharded.complete_tag(prefix=prefix, k=10)
        assert [c.as_dict() for c in got] == [c.as_dict() for c in expected]
    pattern = mono.parse_query("//article/title")
    expected = mono.complete_value(pattern, pattern.nodes()[-1], "t", k=10)
    shard_pattern = sharded.parse_query("//article/title")
    got = sharded.complete_value(
        shard_pattern, shard_pattern.nodes()[-1], "t", k=10
    )
    assert [c.as_dict() for c in got] == [c.as_dict() for c in expected]


def test_sharded_statistics_identical(corpus_pair):
    mono, sharded = corpus_pair
    assert sharded.statistics().as_dict() == mono.statistics().as_dict()


# ---------------------------------------------------------------------------
# Executor failure paths: broken shard tasks must degrade, not corrupt
# ---------------------------------------------------------------------------


class TestExecutorFailurePaths:
    """Scattered evaluation under shard-task faults (``shard.worker.<i>``).

    A failed shard is contained as a failed :class:`ShardOutcome`: its
    answers are missing, the survivors' answers are merged bit-exact, and
    the coordinator reports the loss (``ShardsUnavailable`` / degraded
    tags) instead of raising a bare 500 or silently dropping data.
    """

    XML = generate_dblp_xml(90, 23)

    def _pair(self):
        mono = LotusXDatabase.from_string(self.XML)
        sharded = ShardedDatabase.from_string(self.XML, 3)
        return mono, sharded

    def test_worker_raising_mid_task_salvages_survivors(self):
        from repro.resilience import faults
        from repro.resilience.errors import ShardsUnavailable

        mono, sharded = self._pair()
        try:
            oracle = _canonical(mono.matches("//article/title"))
            faults.install_spec("shard.worker.1:error=worker blew up")
            with pytest.raises(ShardsUnavailable) as excinfo:
                sharded.matches("//article/title")
            assert excinfo.value.down == (1,)
            salvaged = _canonical(excinfo.value.partial)
            # The survivors' merge is a strict, order-preserving subset
            # of the oracle: nothing invented, nothing reordered.
            assert [m for m in oracle if m in salvaged] == salvaged
            assert 0 < len(salvaged) < len(oracle)
            # Search over the same corpus degrades instead of raising.
            response = sharded.search("//article/title", k=10, rewrite=False)
            assert "shard-1-unavailable" in response.degraded
            faults.clear()
            assert _canonical(sharded.matches("//article/title")) == oracle
        finally:
            sharded.close()

    def test_last_shard_slow_trips_and_salvages_its_peers(self):
        from repro.resilience import faults
        from repro.resilience.deadline import Deadline
        from repro.resilience.errors import DeadlineExceeded

        mono, sharded = self._pair()
        try:
            oracle = _canonical(mono.matches("//article/title"))
            faults.install_spec("shard.worker.2:latency=0.5")
            with pytest.raises(DeadlineExceeded) as excinfo:
                sharded.matches(
                    "//article/title", deadline=Deadline.after_ms(80.0)
                )
            salvaged = _canonical(excinfo.value.partial or [])
            # The slow shard burned its own budget; the shards dispatched
            # before it answered, and their merge is a subset of the oracle.
            assert [m for m in oracle if m in salvaged] == salvaged
            assert 0 < len(salvaged) < len(oracle)
        finally:
            sharded.close()

    def test_run_after_close_is_rejected(self):
        _, sharded = self._pair()
        executor = sharded.executor
        sharded.close()
        sharded.close()  # idempotent
        assert executor.closed
        with pytest.raises(RuntimeError):
            executor.run([0], "matches", {}, None)
