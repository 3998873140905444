"""E16 (Table): tail latency with and without hedged requests.

Gates the replica fleet: with one replica of a shard made artificially
slow (an injected latency fault at its ``fleet.replica.<shard>.<replica>``
site), the round-robin rotation routes roughly half of that shard's
sub-requests to the slow replica.  Without hedging those requests wait
out the full injected delay; with a fixed hedge trigger the healthy peer
is fired after ``hedge_ms`` and its answer wins.  The table records the
per-query latency distribution (p50/p95/p99/max) for both modes; the
gate is that hedging cuts p99 well below the unhedged p99.

Correctness rides along: both modes must return exactly the monolithic
answers — the slow replica is slow, never wrong, and hedging must not
change results.  Results are persisted via ``record_bench``
(``BENCH_e16_fleet.json``) for the nightly artifact upload.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.bench.harness import print_table, record_bench
from repro.datasets import generate_dblp
from repro.engine.database import LotusXDatabase
from repro.fleet import FleetConfig
from repro.resilience import faults
from repro.resilience.retry import RetryPolicy
from repro.shard.database import ShardedDatabase
from repro.twig.algorithms.common import AlgorithmStats

from conftest import SMOKE, shape_check

SHARDS = 3
REPLICAS = 2
QUERY = "//article/author"

#: Injected one-replica slowness and the hedge trigger used against it.
SLOW_S = 0.03 if SMOKE else 0.08
HEDGE_MS = 5.0 if SMOKE else 10.0
TRIALS = 10 if SMOKE else 50


def _canonical(matches):
    return [
        sorted(
            (nid, el.region.start) for nid, el in match.assignments.items()
        )
        for match in matches
    ]


def _corpus():
    scale = 30 if SMOKE else 300
    return generate_dblp(publications=scale, seed=16)


def _fleet_db(hedge_ms: float) -> ShardedDatabase:
    return ShardedDatabase.from_document(
        _corpus(),
        SHARDS,
        replicas=REPLICAS,
        fleet_config=FleetConfig(
            replicas=REPLICAS,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, max_delay_s=0.0),
            hedge_ms=hedge_ms,
        ),
    )


def _latencies(db: ShardedDatabase, trials: int) -> list[float]:
    # A stats argument bypasses the result caches, so every timed call is
    # a real scatter over the fleet.
    samples = []
    for _ in range(trials):
        started = time.perf_counter()
        db.matches(QUERY, stats=AlgorithmStats())
        samples.append(time.perf_counter() - started)
    return samples


def _row(mode: str, samples: list[float]) -> list:
    ordered = sorted(samples)

    def pct(q: float) -> float:
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1000

    return [
        mode,
        len(samples),
        statistics.median(samples) * 1000,
        pct(0.95),
        pct(0.99),
        ordered[-1] * 1000,
    ]


def test_e16_hedging_cuts_tail_latency(capsys):
    oracle = _canonical(LotusXDatabase(_corpus()).matches(QUERY))
    faults.install_spec(f"fleet.replica.0.0:latency={SLOW_S}")
    try:
        rows = []
        tails = {}
        counters = {}
        for mode, hedge_ms in (("unhedged", 0.0), ("hedged", HEDGE_MS)):
            db = _fleet_db(hedge_ms)
            try:
                # Correctness before timing: a slow replica is slow,
                # never wrong — with or without hedging.
                assert (
                    _canonical(db.matches(QUERY, stats=AlgorithmStats()))
                    == oracle
                ), mode
                samples = _latencies(db, TRIALS)
                counters[mode] = dict(db.fleet.counters)
            finally:
                db.close()
            row = _row(mode, samples)
            rows.append(row)
            tails[mode] = row[4]

        headers = ["mode", "trials", "p50_ms", "p95_ms", "p99_ms", "max_ms"]
        with capsys.disabled():
            print_table(
                headers,
                rows,
                title="\nE16: fleet tail latency, one slow replica"
                f" (slow={SLOW_S * 1000:.0f}ms, hedge={HEDGE_MS:.0f}ms,"
                f" {SHARDS} shards x {REPLICAS} replicas)",
            )
        record_bench(
            "e16_fleet",
            headers,
            rows,
            meta={
                "query": QUERY,
                "shards": SHARDS,
                "replicas": REPLICAS,
                "slow_replica_s": SLOW_S,
                "hedge_ms": HEDGE_MS,
                "trials": TRIALS,
                "cpu_count": os.cpu_count(),
                "counters": counters,
            },
        )

        # The hedge actually fired and won races (holds at every scale:
        # the injected delay always exceeds the trigger).
        assert counters["hedged"]["hedged_requests"] > 0
        assert counters["hedged"]["hedge_wins"] > 0
        assert counters["unhedged"]["hedged_requests"] == 0

        # The tentpole gate: hedging must pull the tail in.
        shape_check(
            tails["hedged"] <= tails["unhedged"] * 0.6,
            f"hedged p99 {tails['hedged']:.1f}ms not well below"
            f" unhedged p99 {tails['unhedged']:.1f}ms",
        )
    finally:
        faults.clear()
