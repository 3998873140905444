"""Replica fleet: health-checked, hedged, circuit-broken shard serving.

Sharding (:mod:`repro.shard`) scales the *corpus*; this package scales
and protects *read traffic* over it.  Each shard gets ``N`` replicas and
every scatter-gather sub-request flows through a resilience pipeline —
health-ranked replica selection, per-replica circuit breaking, budgeted
retries with jittered backoff, and tail-latency hedging — so one slow or
dead replica costs milliseconds, not the request.

Entry points: :class:`~repro.fleet.fleet.ReplicaFleet` (the router),
:class:`~repro.fleet.fleet.FleetConfig` (tuning).  Passing ``replicas``
to :class:`~repro.shard.database.ShardedDatabase` routes every shard
task of its inline scatter
(:class:`~repro.shard.executor.ShardExecutor`) through the fleet.
"""

from repro.fleet.fleet import FleetConfig, ReplicaFleet, ReplicaGroup
from repro.fleet.health import HealthPolicy, HealthTracker
from repro.fleet.replica import LatencyWindow, Replica

__all__ = [
    "FleetConfig",
    "HealthPolicy",
    "HealthTracker",
    "LatencyWindow",
    "Replica",
    "ReplicaFleet",
    "ReplicaGroup",
]
