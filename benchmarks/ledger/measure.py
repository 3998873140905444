"""The untraced socket run of one workload: every end-to-end metric.

Closed loop, one keep-alive connection, one generator thread, zero think
time.  A run is: ``setups`` cold set-ups (index + serve, timed) -> the
NAIVE gate -> one warm-up round (checked, discarded) -> ``rounds``
measured rounds -> kill/restart cycles -> teardown.  Every timing metric
is the median over rounds of the per-round statistic.
"""

from __future__ import annotations

import gc
import json
import math
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import client
import oracle as oracles
import workloads
from workloads import Request, Workload

#: The nine end-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "restart_s": "s",
    "primary_p50_ms": "ms",
    "primary_p95_ms": "ms",
    "secondary_p50_ms": "ms",
    "throughput_rps": "1/s",
    "server_cpu_ms_per_req": "ms",
    "server_peak_rss_mb": "MB",
    "snapshot_bytes_per_xml_byte": "ratio",
}

GATE_TWIGS = 32
RESTART_CYCLES = 5


@dataclass
class Outcome:
    """Operations attempted and failed across a whole run."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, reason: str | None, what: str = "") -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {reason}")


def percentile(ordered: list[float], share: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class Deployment:
    """The on-disk state and CLI invocations of one workload."""

    def __init__(self, workload: Workload, work_dir: Path, plan: dict) -> None:
        self.workload = workload
        self.plan = plan
        self.dir = work_dir
        self.corpus_path = work_dir / "corpus.xml"
        self.corpus_path.write_text(workload.corpus.xml, encoding="utf-8")
        sharded = "--shards" in workload.index_args
        self.snapshot = work_dir / ("corpus.shards" if sharded else "corpus.lxsnap")
        self.wal = work_dir / "corpus.lxwal"
        self.server: client.Server | None = None

    def serve_args(self) -> list[str]:
        args = ["--snapshot", str(self.snapshot)]
        if self.workload.writable:
            args += ["--writable", "--wal", str(self.wal)]
        return args

    def wipe(self) -> None:
        if self.snapshot.is_dir():
            shutil.rmtree(self.snapshot)
        else:
            self.snapshot.unlink(missing_ok=True)
        self.wal.unlink(missing_ok=True)

    def index(self) -> None:
        client.run_cli(
            ["index", str(self.corpus_path), str(self.snapshot), *self.workload.index_args],
            self.plan["server_cpu"],
        )

    def start(self) -> client.Connection:
        self.server = client.Server(
            self.serve_args(), self.plan["server_cpu"], self.dir / "server.log"
        )
        return self.server.wait_ready()

    def stop(self) -> None:
        if self.server is not None:
            self.server.kill()
            self.server = None

    def setup(self) -> tuple[float, client.Connection]:
        """Cold set-up from the XML file to the first 200, timed."""
        self.wipe()
        started = time.perf_counter()
        self.index()
        connection = self.start()
        return time.perf_counter() - started, connection

    def state_bytes(self) -> int:
        """Bytes the server needs on disk to restart."""
        if self.snapshot.is_dir():
            total = sum(p.stat().st_size for p in self.snapshot.rglob("*") if p.is_file())
        else:
            total = self.snapshot.stat().st_size
        if self.wal.exists():
            total += self.wal.stat().st_size
        return total


def play(connection: client.Connection, encoded: list[bytes]):
    """One closed-loop pass; ``(latencies_s, answers, wall_s)``."""
    count = len(encoded)
    latencies = [0.0] * count
    answers: list = [None] * count
    roundtrip = connection.roundtrip
    clock = time.perf_counter
    gc.disable()
    try:
        started = clock()
        for index in range(count):
            sent = clock()
            answers[index] = roundtrip(encoded[index])
            latencies[index] = clock() - sent
        wall = clock() - started
    finally:
        gc.enable()
    return latencies, answers, wall


def check_answers(requests, answers, expected, outcome: Outcome, where: str = "") -> None:
    """Record one operation per ``(status, body)`` answer; ``expected``
    holds the normalised mono bodies (``None``: no mono compare)."""
    for index, (request, (status, body)) in enumerate(zip(requests, answers)):
        want = expected[index] if expected is not None else None
        outcome.record(
            oracles.check_response(request, status, body, want),
            f"{where}{request.op} {request.payload}",
        )


def send(connection, request: Request) -> tuple[int, bytes]:
    return connection.roundtrip(request.encode())


def written_xml_bytes(requests: list[Request]) -> int:
    return sum(
        len(r.payload["xml"].encode("utf-8"))
        for r in requests
        if r.path == "/api/documents" and "xml" in r.payload
    )


def final_live_xml(workload: Workload, rounds: int) -> str:
    """The document a cold rebuild would index after ``rounds`` rounds of
    ``live_ingest`` (warm-up included)."""
    parts = [workload.corpus.xml.rsplit("</dblp>", 1)[0]]
    parts.extend(xml for _, _, xml in workloads.live_final_documents(workload, rounds))
    parts.append("</dblp>")
    return "\n".join(parts)


def run_gate(connection, oracle, workload: Workload, outcome: Outcome) -> None:
    """Sampled twigs: the served answer against the naive matcher (total
    and top-k paths) and against the mono body modulo ``elapsed_seconds``."""
    rng = random.Random(f"gate:{workload.name}:{workload.seed}")
    sample = rng.sample(workload.gate_twigs, min(GATE_TWIGS, len(workload.gate_twigs)))
    for query in sample:
        request = workloads.search("gate", query)
        status, body = send(connection, request)
        reason = oracles.check_response(request, status, body, oracle.expected(request))
        if reason is None:
            reason = oracles.check_naive(oracle, query, body)
        outcome.record(reason, f"gate {query}")


def measure(
    workload: Workload,
    work_dir: Path,
    plan: dict,
    rounds: int,
    setups: int,
    restarts: int = RESTART_CYCLES,
) -> dict:
    """Run ``workload`` over the socket; returns metrics, spreads, counts."""
    outcome = Outcome()
    deployment = Deployment(workload, work_dir, plan)
    live = workload.writable
    oracle = oracles.Oracle(workload.corpus.xml)

    # Round 0 is the warm-up; live_ingest needs a fresh list per round.
    round_lists = [workload.round_requests(i) for i in range(rounds + 1 if live else 1)]
    expected = None if live else [oracle.expected(r) for r in round_lists[0]]
    encoded = [[r.encode() for r in requests] for requests in round_lists]
    gc.collect()
    gc.freeze()

    try:
        setup_times = []
        connection = None
        for _ in range(setups):
            if connection is not None:
                connection.close()
                deployment.stop()
            elapsed, connection = deployment.setup()
            setup_times.append(elapsed)
        server = deployment.server

        if not live:
            run_gate(connection, oracle, workload, outcome)

        _, answers, _ = play(connection, encoded[0])
        check_answers(round_lists[0], answers, expected, outcome)

        per_round: dict[str, list[float]] = {
            "primary_p50_ms": [],
            "primary_p95_ms": [],
            "secondary_p50_ms": [],
            "throughput_rps": [],
            "all_p50_ms": [],
        }
        requests_measured = 0
        cpu_before = server.cpu_seconds()
        for round_index in range(1, rounds + 1):
            which = round_index if live else 0
            requests = round_lists[which]
            latencies, answers, wall = play(connection, encoded[which])
            by_op: dict[str, list[float]] = {}
            for request, latency in zip(requests, latencies):
                by_op.setdefault(request.op, []).append(latency * 1000.0)
            primary = sorted(by_op[workload.primary])
            secondary = sorted(by_op[workload.secondary])
            per_round["primary_p50_ms"].append(statistics.median(primary))
            per_round["primary_p95_ms"].append(percentile(primary, 0.95))
            per_round["secondary_p50_ms"].append(statistics.median(secondary))
            per_round["throughput_rps"].append(len(requests) / wall)
            per_round["all_p50_ms"].append(statistics.median(latencies) * 1000.0)
            requests_measured += len(requests)
            check_answers(requests, answers, expected, outcome)
        cpu_ms = (server.cpu_seconds() - cpu_before) * 1000.0 / requests_measured

        status, body = connection.roundtrip(client.encode_get("/api/stats"))
        stats = json.loads(body) if status == 200 else {}
        # One client in a closed loop: nothing may queue, shed or coalesce.
        if status != 200:
            reason = f"status {status}"
        elif stats["admission"]["shed"] or stats["coalescing"]["followers"]:
            reason = f"shed {stats['admission']['shed']}, followers {stats['coalescing']['followers']}"
        else:
            reason = None
        outcome.record(reason, "GET /api/stats")
        peak_rss_mb = server.peak_rss_mb()
        state_bytes = deployment.state_bytes()
        xml_bytes = workload.corpus.xml_bytes + sum(
            written_xml_bytes(requests) for requests in round_lists
        )

        # What every restart must answer: on live_ingest, the mono
        # rebuild of the final document set.
        if live:
            final = oracles.Oracle(final_live_xml(workload, rounds + 1))
        else:
            final = oracle
        probe = workload.probe
        probe_total = json.loads(final.expected(probe))["total_matches"]
        probe_bytes = probe.encode()

        restart_times = []
        for cycle in range(restarts):
            connection.close()
            deployment.stop()
            started = time.perf_counter()
            connection = deployment.start()
            status, body = connection.roundtrip(probe_bytes)
            restart_times.append(time.perf_counter() - started)
            good = status == 200 and json.loads(body).get("total_matches") == probe_total
            outcome.record(None if good else f"status {status}: {body[:120]!r}", "restart probe")
            if cycle == 0 and live:
                check_durability(connection, workload, rounds + 1, final, outcome)
        connection.close()
    finally:
        deployment.stop()
        gc.unfreeze()

    all_p50_ms = statistics.median(per_round.pop("all_p50_ms"))
    per_round["setup_s"] = setup_times
    if restart_times:
        per_round["restart_s"] = restart_times
    metrics = {name: statistics.median(values) for name, values in per_round.items()}
    spreads = {name: (min(values), max(values)) for name, values in per_round.items()}
    metrics["server_cpu_ms_per_req"] = cpu_ms
    metrics["server_peak_rss_mb"] = peak_rss_mb
    metrics["snapshot_bytes_per_xml_byte"] = state_bytes / xml_bytes
    return {
        "metrics": metrics,
        "spreads": spreads,
        "outcome": outcome,
        "stats": stats,
        "all_p50_ms": all_p50_ms,
        "rounds": rounds,
        "requests_per_round": len(round_lists[-1]),
        "samples_per_round": {
            "primary": sum(r.op == workload.primary for r in round_lists[-1]),
            "secondary": sum(r.op == workload.secondary for r in round_lists[-1]),
        },
    }


def check_durability(connection, workload, rounds, final, outcome: Outcome) -> None:
    """After the SIGKILL: every acknowledged insert/update is found by its
    marker, every acknowledged delete is gone, and sampled twigs answer
    as a cold mono rebuild of the same documents (``final``) would."""
    searches = [
        workloads.marker_search("durability", term, authors)
        for term, authors, _ in workloads.live_final_documents(workload, rounds)
    ]
    searches += [
        workloads.marker_search("durability", term, 0)
        for term in workloads.live_dead_markers(workload, rounds)
    ]
    for request in searches:
        status, body = send(connection, request)
        outcome.record(
            oracles.check_response(request, status, body, None),
            f"durability {request.payload['query']}",
        )
    run_gate(connection, final, workload, outcome)
