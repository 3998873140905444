"""Forked 2-shard RSS drill: shared mappings must stay shared.

Pre-fork serving processes are the deployment the zero-copy snapshot
format exists for: one process maps the shard snapshots, warms the hot
sections, and forks workers that serve queries off the inherited
mapping.  If any layer quietly copied a hot section per worker (a
``bytes()`` call on a memoryview, an eager inflate, a per-process index
rebuild), each fork would grow its own private copy and the fleet's
memory budget would multiply.

The drill runs in a *fresh* subprocess because ``ru_maxrss`` is
inherited across fork on Linux — a worker's counter starts at its
parent's peak and only records growth beyond it.  Keeping the drill
parent lean (it only loads the prebuilt snapshot; the corpus is built
by pytest beforehand) makes that inherited floor low, so a worker that
materialized hot data would actually move the counter.  Each forked
worker re-runs the probe queries and reports its
``resource.getrusage`` delta over a pipe; every delta must stay under
the budget, and every worker must reproduce the parent's results.

Nightly-tier (``slow``): tier-1 already covers mmap correctness; this
drill exists to catch memory-sharing regressions at a realistic scale.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.datasets import generate_dblp
from repro.shard.database import ShardedDatabase
from repro.engine.store import save_sharded_snapshot

SHARDS = 2
WORKERS = 2
#: Per-worker growth budget (KiB).  Workers only evaluate queries over
#: inherited, shared state; transient match objects cost a few MiB.  A
#: worker that re-inflated the hot sections or document tree for this
#: corpus would blow well past this.
BUDGET_KB = 32 * 1024
PROBES = ["//article[./title]/author", "//inproceedings//author"]

_DRILL = """
import json, os, resource, sys
from repro.engine.store import is_mmap_backed, load_sharded_snapshot

target, probes, workers = sys.argv[1], json.loads(sys.argv[2]), int(sys.argv[3])
db = load_sharded_snapshot(target, mmap=True)
assert is_mmap_backed(db)
db.warm_hot()
# Touch the mapped pages and build the oracle before forking so workers
# inherit a fully faulted-in mapping and a settled heap.
oracle = {probe: len(db.matches(probe)) for probe in probes}

results = []
for _ in range(workers):
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        counts = {probe: len(db.matches(probe)) for probe in probes}
        delta = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        payload = json.dumps({"delta_kb": delta, "counts": counts})
        os.write(write_fd, payload.encode())
        os.close(write_fd)
        os._exit(0)
    os.close(write_fd)
    chunks = b""
    while True:
        chunk = os.read(read_fd, 65536)
        if not chunk:
            break
        chunks += chunk
    os.close(read_fd)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    results.append(json.loads(chunks.decode()))

print(json.dumps({"oracle": oracle, "workers": results}))
"""


@pytest.mark.slow
def test_forked_workers_share_the_mapping(tmp_path):
    if not hasattr(os, "fork"):  # pragma: no cover
        pytest.skip("drill requires os.fork")

    sharded = ShardedDatabase.from_document(
        generate_dblp(publications=2000, seed=42), SHARDS
    )
    target = tmp_path / "fleet"
    save_sharded_snapshot(sharded, target)
    sharded.close()

    result = subprocess.run(
        [
            sys.executable,
            "-c",
            _DRILL,
            str(target),
            json.dumps(PROBES),
            str(WORKERS),
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(result.stdout.strip().splitlines()[-1])

    assert len(report["workers"]) == WORKERS
    for probe in PROBES:
        assert report["oracle"][probe] > 0, probe
    for worker in report["workers"]:
        # Correctness through the inherited mapping.
        assert worker["counts"] == report["oracle"]
        # The budget: forked workers may allocate transient match
        # objects but must not duplicate the mapped hot sections.
        assert worker["delta_kb"] < BUDGET_KB, (
            f"forked worker grew {worker['delta_kb']} KiB over the "
            f"pre-fork peak (budget {BUDGET_KB} KiB) — the snapshot "
            f"mapping is being copied instead of shared"
        )
