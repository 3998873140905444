"""Differential fault drills: the fleet under injected replica failures.

The acceptance bar for the replica fleet: with one replica of every
shard crashed (or hung), the seeded differential harness must still
return answers *byte-identical* to the monolithic oracle — resilience
machinery (retries, health ranking, hedging, breakers) may cost
latency, never correctness.  And when every replica of a group is down,
the response degrades (flagged partial) instead of failing.

CI runs this module with ``LOTUSX_FAULT_SPEC`` variants as the
fault-matrix smoke job; the spec in the environment is installed on top
of the per-test faults, which must not disturb these invariants either.
"""

from __future__ import annotations

import pytest

from repro.datasets import generate_dblp_xml
from repro.engine.database import LotusXDatabase
from repro.fleet import FleetConfig
from repro.resilience import faults
from repro.resilience.errors import ShardsUnavailable
from repro.resilience.retry import RetryPolicy
from repro.shard.database import ShardedDatabase
from tests.test_shard_cross_check import SHARDS, _canonical
from tests.test_twig_cross_check import (
    HARNESS_BATCHES,
    HARNESS_CASES_PER_BATCH,
    _harness_document,
    _harness_pattern,
    _harness_shape,
)

#: Every 5th harness seed: 80 differential cases per drill — enough to
#: cover every shape in the matrix while keeping the fault drills inside
#: the tier-1 budget (the full 400 runs fault-free in
#: ``test_shard_cross_check``).
DRILL_SEEDS = range(0, HARNESS_BATCHES * HARNESS_CASES_PER_BATCH, 5)

#: No backoff sleeps inside the drill loop.
FAST_FLEET = FleetConfig(
    replicas=2,
    retry=RetryPolicy(max_attempts=3, base_delay_s=0.0, max_delay_s=0.0),
    hedge_ms=0.0,
)

#: One replica of every shard is crashed; its peer must carry the load.
CRASH_SPEC = "fleet.replica.*.0:error=injected replica crash"


def _drill_pair(seed: int):
    mono = LotusXDatabase(_harness_document(seed))
    sharded = ShardedDatabase.from_document(
        _harness_document(seed),
        SHARDS,
        replicas=2,
        fleet_config=FAST_FLEET,
    )
    return mono, sharded


def test_one_replica_of_each_shard_crashed_is_invisible():
    faults.install_spec(CRASH_SPEC)
    for seed in DRILL_SEEDS:
        shape = _harness_shape(seed % HARNESS_CASES_PER_BATCH)
        prune = seed % 3 == 0
        mono, sharded = _drill_pair(seed)
        pattern = _harness_pattern(seed, shape)
        oracle = _canonical(mono.matches(pattern, prune_streams=prune))
        got = _canonical(sharded.matches(pattern.copy(), prune_streams=prune))
        assert got == oracle, (
            f"fleet with crashed replicas disagrees with mono:"
            f" seed={seed} shape={shape} prune={prune} pattern={pattern}"
        )
        sharded.close()


def test_one_replica_of_each_shard_hung_is_invisible():
    """Hung (not crashed) replicas: hedging fires the healthy peer.

    A smaller seed subset — every hang costs real wall-clock until the
    hedge trigger fires.
    """
    config = FleetConfig(
        replicas=2,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.0, max_delay_s=0.0),
        hedge_ms=10.0,
        # Keep the hung replica in rotation so hedging (not health
        # ranking) is what the drill exercises.
        suspect_after=50,
        dead_after=50,
    )
    faults.install_spec("fleet.replica.*.0:latency=0.2")
    for seed in range(0, 100, 20):
        shape = _harness_shape(seed % HARNESS_CASES_PER_BATCH)
        mono = LotusXDatabase(_harness_document(seed))
        sharded = ShardedDatabase.from_document(
            _harness_document(seed),
            SHARDS,
            replicas=2,
            fleet_config=config,
        )
        pattern = _harness_pattern(seed, shape)
        oracle = _canonical(mono.matches(pattern))
        got = _canonical(sharded.matches(pattern.copy()))
        assert got == oracle, f"seed={seed} shape={shape} pattern={pattern}"
        sharded.close()


# ---------------------------------------------------------------------------
# Whole-group loss: degraded salvage, not 500s
# ---------------------------------------------------------------------------


@pytest.fixture()
def fleet_corpus():
    xml_text = generate_dblp_xml(120, 11)
    sharded = ShardedDatabase.from_string(
        xml_text,
        3,
        replicas=2,
        fleet_config=FleetConfig(
            replicas=2,
            retry=RetryPolicy(
                max_attempts=2, base_delay_s=0.0, max_delay_s=0.0
            ),
            hedge_ms=0.0,
        ),
    )
    yield sharded
    sharded.close()


def test_dead_group_degrades_search_instead_of_failing(fleet_corpus):
    faults.install_spec(
        "fleet.replica.1.0:error=down;fleet.replica.1.1:error=down"
    )
    response = fleet_corpus.search("//article/title", k=10, rewrite=False)
    assert "shard-1-unavailable" in response.degraded
    assert response.truncated
    assert response.results  # the surviving shards' answers are served
    as_dict = response.as_dict()
    assert as_dict["degraded"] == list(response.degraded)


def test_dead_group_degrades_keyword_search(fleet_corpus):
    faults.install_spec(
        "fleet.replica.2.0:error=down;fleet.replica.2.1:error=down"
    )
    # "database query" routes to all three shards (term presence), so
    # killing group 2 is guaranteed to be observed.
    response = fleet_corpus.keyword_search("database query", k=10)
    assert "shard-2-unavailable" in response.degraded
    assert response.truncated
    assert response.as_dict()["degraded"] == ["shard-2-unavailable"]


def test_dead_group_matches_raises_with_partial(fleet_corpus):
    faults.install_spec(
        "fleet.replica.0.0:error=down;fleet.replica.0.1:error=down"
    )
    with pytest.raises(ShardsUnavailable) as excinfo:
        fleet_corpus.matches("//article/title")
    assert excinfo.value.down == (0,)
    assert excinfo.value.partial  # surviving shards' merged matches
    payload = excinfo.value.payload()
    assert payload["code"] == "shards_unavailable"
    assert payload["down_shards"] == [0]

    # Degraded results must not poison the cache: with the faults gone,
    # the same query is complete again.
    faults.clear()
    complete = fleet_corpus.matches("//article/title")
    assert len(complete) > len(excinfo.value.partial)


def test_recovery_after_faults_clear(fleet_corpus):
    faults.install_spec(
        "fleet.replica.1.0:error=down;fleet.replica.1.1:error=down"
    )
    degraded = fleet_corpus.search("//article[./author]", k=10, rewrite=False)
    assert degraded.degraded
    faults.clear()
    recovered = fleet_corpus.search("//article[./author]", k=10, rewrite=False)
    assert recovered.degraded == ()
    assert len(recovered.results) >= len(degraded.results)
    counters = fleet_corpus.fleet.counters
    assert counters["groups_down"] >= 1
    assert counters["retries"] >= 1
