"""Sharded corpus subsystem: partitioning, routing, scatter-gather.

Splits a corpus by top-level subtrees into N self-contained shard
databases whose region labels live in global coordinates, then serves
the full engine API over the fleet — pruning shards that cannot answer,
running each surviving shard's work inline under the caller's deadline,
and merging per-shard answers into globally exact results.
"""

from repro.shard.database import ShardedDatabase, sharded_from_plan
from repro.shard.executor import ShardExecutor, ShardOutcome
from repro.shard.merger import (
    ShardedCompletionIndex,
    merge_guides,
    merge_match_lists,
    merge_statistics,
)
from repro.shard.partitioner import (
    PartitionPlan,
    ShardSpec,
    build_shard_database,
    partition_document,
    split_units,
)
from repro.shard.router import ShardRouter, spine_safe

__all__ = [
    "PartitionPlan",
    "ShardExecutor",
    "ShardOutcome",
    "ShardRouter",
    "ShardSpec",
    "ShardedCompletionIndex",
    "ShardedDatabase",
    "build_shard_database",
    "merge_guides",
    "merge_match_lists",
    "merge_statistics",
    "partition_document",
    "sharded_from_plan",
    "spine_safe",
    "split_units",
]
