"""The seeded 400-case differential harness, served zero-copy.

Every case from the tier-1 harness matrix (ordered / optional /
negation / pruning, path and tree shapes) is round-tripped through a
snapshot and evaluated on an ``mmap``-backed database — monolithic and
2-shard — and must agree byte-for-byte (canonical region projection)
with the in-memory oracle.  This is the correctness backstop for the
zero-copy serving path: the int-only twig kernels, term postings, and
packed completion tries all run over ``memoryview`` slices of the
mapping here, not arrays.
"""

from __future__ import annotations

import pytest

from repro.engine.database import LotusXDatabase
from repro.engine.store import (
    is_mmap_backed,
    load_sharded_snapshot,
    load_snapshot,
    save_sharded_snapshot,
    save_snapshot,
)
from repro.shard.database import ShardedDatabase
from tests.test_shard_cross_check import SHARDS, _canonical
from tests.test_twig_cross_check import (
    HARNESS_BATCHES,
    HARNESS_CASES_PER_BATCH,
    _harness_document,
    _harness_pattern,
    _harness_shape,
)


@pytest.mark.parametrize("batch", range(HARNESS_BATCHES))
def test_mmap_mono_matches_agree_with_oracle(batch, tmp_path):
    for case in range(HARNESS_CASES_PER_BATCH):
        seed = batch * HARNESS_CASES_PER_BATCH + case
        shape = _harness_shape(case)
        prune = seed % 3 == 0
        oracle_db = LotusXDatabase(_harness_document(seed))
        path = tmp_path / f"case-{seed}.lxsnap"
        save_snapshot(oracle_db, path)
        mapped = load_snapshot(path, mmap="require")
        assert is_mmap_backed(mapped)
        pattern = _harness_pattern(seed, shape)
        context = f"seed={seed} shape={shape} prune={prune} pattern={pattern}"
        oracle = _canonical(oracle_db.matches(pattern, prune_streams=prune))
        got = _canonical(mapped.matches(pattern.copy(), prune_streams=prune))
        assert got == oracle, (
            f"mmap-backed database disagrees with oracle"
            f" ({len(got)} vs {len(oracle)} matches): {context}"
        )
        mapped.close()
        path.unlink()


@pytest.mark.parametrize("batch", range(HARNESS_BATCHES))
def test_mmap_sharded_matches_agree_with_oracle(batch, tmp_path):
    for case in range(HARNESS_CASES_PER_BATCH):
        seed = batch * HARNESS_CASES_PER_BATCH + case
        shape = _harness_shape(case)
        prune = seed % 3 == 0
        oracle_db = LotusXDatabase(_harness_document(seed))
        sharded = ShardedDatabase.from_document(
            _harness_document(seed), SHARDS
        )
        target = tmp_path / f"fleet-{seed}"
        save_sharded_snapshot(sharded, target)
        sharded.close()
        mapped = load_sharded_snapshot(target, mmap=True)
        assert is_mmap_backed(mapped)
        pattern = _harness_pattern(seed, shape)
        context = f"seed={seed} shape={shape} prune={prune} pattern={pattern}"
        oracle = _canonical(oracle_db.matches(pattern, prune_streams=prune))
        got = _canonical(mapped.matches(pattern.copy(), prune_streams=prune))
        assert got == oracle, (
            f"mmap-backed 2-shard fleet disagrees with oracle"
            f" ({len(got)} vs {len(oracle)} matches): {context}"
        )
        mapped.close()
        for file in target.iterdir():
            file.unlink()
        target.rmdir()
