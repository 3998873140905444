"""E19: zero-copy snapshots — mmap warm start vs the copying loader.

Both loaders read the same current-format snapshot file.  The copying
warm start reads the whole file, verifies its digest, and inflates every
section into heap objects before the server can take traffic; the
``mmap`` warm start verifies the header, maps the file, and serves the
hot sections (label columns, term postings, packed completion tries) as
``memoryview`` slices of the mapping — O(header) work, no byte copies,
and co-hosted processes share one set of physical pages.

This experiment records, per corpus:

* the copying warm start (load + full inflate),
* the mmap warm start (map + hot sections only) and its speedup over the
  copying warm start — gated at ≥5x,
* per-replica process RSS: a fresh subprocess per mode loads the
  snapshot, warms, runs probe queries, and reports its private
  (``RssAnon``) and shared mapped (``RssFile``) resident memory — the
  private number is what a fleet operator multiplies by replica count;
  the mapped pages exist once regardless of fleet size.

Correctness at every scale: both loads answer the probe queries
identically.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

from repro.bench.harness import print_table, record_bench
from repro.datasets import generate_dblp, generate_treebank
from repro.engine.database import LotusXDatabase
from repro.engine.store import is_mmap_backed, load_snapshot, save_snapshot

from conftest import DBLP_SIZES, shape_check

_CHILD_SCRIPT = """
import json, sys, time
from repro.engine.store import load_snapshot

def rss():
    fields = {}
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(("VmRSS:", "RssAnon:", "RssFile:")):
                fields[line.split(":")[0]] = int(line.split()[1])
    return fields

path, mode, probes = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
started = time.perf_counter()
if mode == "mmap":
    db = load_snapshot(path, mmap="require").warm_hot()
else:
    db = load_snapshot(path).warm()
warm_s = time.perf_counter() - started
for probe in probes:
    assert db.matches(probe), probe
fields = rss()
print(json.dumps({
    # RssAnon is the replica's private heap — the number that multiplies
    # across co-hosted replicas.  RssFile counts mapped snapshot pages,
    # which the fleet shares (one physical copy, any replica count).
    "anon_kb": fields["RssAnon"],
    "file_kb": fields["RssFile"],
    "total_kb": fields["VmRSS"],
    "warm_s": warm_s,
}))
"""


def _replica_rss(path, mode: str, probes: list[str]) -> dict:
    """Load ``path`` in a fresh serving process and report its RSS (KiB)."""
    result = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, str(path), mode, json.dumps(probes)],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def _best_of(fn, repeats: int = 3):
    """Best-of-N wall time for ``fn`` plus its last result.

    Warm starts are measured steady-state: the first call pays one-time
    interpreter costs (module imports, allocator growth) that are not
    part of the format's story, so the minimum is the honest number.
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _corpora():
    yield (
        f"dblp-{DBLP_SIZES[-1]}",
        generate_dblp(publications=DBLP_SIZES[-1], seed=42),
        ["//article[./title]/author", "//inproceedings//author"],
    )
    yield (
        f"treebank-{DBLP_SIZES[-2]}",
        generate_treebank(sentences=DBLP_SIZES[-2], seed=17),
        ["//NP[./DT]/NN", "//VP//NP"],
    )


def test_e19_mmap_warm_start(tmp_path, benchmark, capsys):
    rows = []
    speedups = []
    for name, document, probes in _corpora():
        db = LotusXDatabase(document)
        oracle = {probe: db.matches(probe) for probe in probes}

        path = tmp_path / f"{name}.lxsnap"
        info = save_snapshot(db, path)

        copy_s, copy_db = _best_of(lambda: load_snapshot(path).warm())
        mmap_s, mmap_db = _best_of(
            lambda: load_snapshot(path, mmap="require").warm_hot()
        )
        assert is_mmap_backed(mmap_db)

        # Correctness at every scale: both loaders answer identically.
        for probe, expected in oracle.items():
            assert copy_db.matches(probe) == expected, probe
            assert mmap_db.matches(probe) == expected, probe

        # Per-replica RSS: what each co-hosted serving process costs.
        copy_replica = _replica_rss(path, "inflate", probes)
        mmap_replica = _replica_rss(path, "mmap", probes)

        speedup = copy_s / max(mmap_s, 1e-9)
        speedups.append(speedup)
        rows.append(
            [
                name,
                info.element_count,
                round(info.size_bytes / 1e6, 2),
                round(copy_s * 1000, 1),
                round(mmap_s * 1000, 2),
                round(speedup, 1),
                copy_replica["anon_kb"],
                mmap_replica["anon_kb"],
                mmap_replica["file_kb"],
            ]
        )

    headers = [
        "corpus",
        "elements",
        "snapshot_mb",
        "copy_warm_ms",
        "mmap_warm_ms",
        "speedup",
        "copy_replica_anon_kb",
        "mmap_replica_anon_kb",
        "mmap_replica_shared_kb",
    ]
    # pytest-benchmark timing: the mmap warm-start path on DBLP.
    dblp = tmp_path / f"dblp-{DBLP_SIZES[-1]}.lxsnap"
    benchmark(lambda: load_snapshot(dblp, mmap="require").warm_hot())

    with capsys.disabled():
        print_table(
            headers, rows, title="\nE19: mmap warm start vs copying warm start"
        )
    record_bench(
        "e19_mmap",
        headers,
        rows,
        meta={"gate": "copy_warm / mmap_warm >= 5x"},
    )

    # The acceptance bar: an mmap warm start beats the copying warm start
    # by at least 5x (it is O(header), not O(corpus)).
    shape_check(
        min(speedups) >= 5.0,
        f"mmap warm-start speedups {speedups} fell below 5x",
    )
    # Replica economics: a zero-copy replica must cost less private
    # (anonymous) memory than a copying one on every measured corpus;
    # its mapped file pages are shared across the fleet.
    shape_check(
        all(row[-2] < row[-3] for row in rows),
        f"mmap replica private RSS not below copying replica RSS: {rows}",
    )
