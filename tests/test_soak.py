"""Soak test: sampled workloads across corpora, algorithms, and options.

The final line of defense: random-but-satisfiable twigs run on every
corpus shape (flat bibliography, schema-shaped auctions, deep recursive
parse trees) under every algorithm, with and without guide pruning, and
every answer set must agree with the naive oracle and be non-empty (the
sampler's guarantee).
"""

import pytest

from repro.twig.planner import Algorithm
from repro.twig.sample import sample_workload

ALGORITHMS = (
    Algorithm.STRUCTURAL_JOIN,
    Algorithm.TWIG_STACK,
)


@pytest.fixture(scope="module")
def treebank_db():
    from repro.datasets import generate_treebank
    from repro.engine.database import LotusXDatabase

    return LotusXDatabase(generate_treebank(sentences=25, seed=17))


def soak(db, seed: int, count: int) -> None:
    for pattern in sample_workload(db.labeled, seed, count, max_nodes=5):
        oracle = [m.key() for m in db.matches(pattern, Algorithm.NAIVE)]
        assert oracle, f"sampler guarantee violated: {pattern}"
        for algorithm in ALGORITHMS:
            plain = [m.key() for m in db.matches(pattern, algorithm)]
            assert plain == oracle, (algorithm, str(pattern))
            pruned = [
                m.key()
                for m in db.matches(pattern, algorithm, prune_streams=True)
            ]
            assert pruned == oracle, (algorithm, "pruned", str(pattern))


class TestSoak:
    def test_dblp_shape(self, dblp_db):
        soak(dblp_db, seed=101, count=15)

    def test_xmark_shape(self, xmark_db):
        soak(xmark_db, seed=202, count=15)

    def test_treebank_shape(self, treebank_db):
        soak(treebank_db, seed=303, count=15)

    def test_search_pipeline_never_crashes_on_samples(self, dblp_db):
        for pattern in sample_workload(dblp_db.labeled, 404, 10, max_nodes=4):
            response = dblp_db.search(pattern, k=3, rewrite=False)
            assert len(response) >= 1  # sampler guarantees a hit
            for hit in response:
                assert hit.xpath.startswith("/dblp")
                hit.highlighted_snippet  # must not raise


class TestServerTrafficSoak:
    """Differential soak across the two serving transports.

    The same mixed twig/keyword/autocomplete workload is fired
    concurrently at the event-driven server and then replayed against
    the legacy threaded server on the same corpus: every response must
    be byte-identical (``elapsed_seconds``, the one wall-clock field in
    search responses, is normalized out before comparing)."""

    def _workload(self, db) -> list[tuple[str, bytes]]:
        import json

        requests: list[tuple[str, dict]] = []
        for pattern in sample_workload(db.labeled, 777, 8, max_nodes=4):
            requests.append(
                ("/api/search", {"query": str(pattern), "k": 5})
            )
        for terms in ("xml", "query data", "index", "nosuchterm"):
            requests.append(("/api/keyword", {"query": terms, "k": 5}))
        for prefix in ("", "a", "t", "zz"):
            requests.append(("/api/complete", {"prefix": prefix, "k": 8}))
        # Canonical body bytes so both transports see identical requests.
        return [
            (path, json.dumps(payload, sort_keys=True).encode())
            for path, payload in requests
        ]

    def _fire(self, base_url: str, jobs, concurrently: bool):
        import json
        import threading
        import urllib.error
        import urllib.request

        results: list[tuple[int, bytes] | None] = [None] * len(jobs)

        def one(index: int, path: str, body: bytes) -> None:
            request = urllib.request.Request(
                base_url + path,
                data=body,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            try:
                with urllib.request.urlopen(request, timeout=30) as response:
                    results[index] = (response.status, response.read())
            except urllib.error.HTTPError as error:
                results[index] = (error.code, error.read())

        if concurrently:
            threads = [
                threading.Thread(target=one, args=(index, path, body))
                for index, (path, body) in enumerate(jobs)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        else:
            for index, (path, body) in enumerate(jobs):
                one(index, path, body)
        assert all(result is not None for result in results)
        return results

    @staticmethod
    def _normalize(path: str, status: int, body: bytes):
        import json

        if path == "/api/search" and status == 200:
            data = json.loads(body)
            data.pop("elapsed_seconds", None)
            return json.dumps(data, sort_keys=True)
        return body

    def test_mixed_async_traffic_matches_legacy_threaded(self, dblp_db):
        import threading

        from repro.server.aio import make_async_server
        from repro.server.app import make_server

        jobs = self._workload(dblp_db)

        aio = make_async_server(dblp_db)
        aio_thread = threading.Thread(target=aio.serve_forever, daemon=True)
        aio_thread.start()
        threaded = make_server(dblp_db)
        threaded_thread = threading.Thread(
            target=threaded.serve_forever, daemon=True
        )
        threaded_thread.start()
        try:
            host, port = aio.server_address
            async_results = self._fire(
                f"http://{host}:{port}", jobs, concurrently=True
            )
            host, port = threaded.server_address[:2]
            threaded_results = self._fire(
                f"http://{host}:{port}", jobs, concurrently=False
            )
        finally:
            aio.shutdown()
            aio_thread.join(timeout=5)
            aio.server_close()
            threaded.shutdown()
            threaded.server_close()
            threaded_thread.join(timeout=5)

        for (path, _), (a_status, a_body), (t_status, t_body) in zip(
            jobs, async_results, threaded_results
        ):
            assert a_status == t_status, path
            assert self._normalize(path, a_status, a_body) == self._normalize(
                path, t_status, t_body
            ), path
