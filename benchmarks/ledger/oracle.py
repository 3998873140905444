"""Expected answers: a mono in-process build of the same documents.

The served program is checked three ways — against ``Algorithm.NAIVE``
on sampled twigs (an evaluation path that shares no kernel with the
served one), against the mono pipeline's full response body modulo
``elapsed_seconds`` (which is what makes the sharded and segmented
servers comparable), and against expectations that hold by construction
of the workload (``Request.expect``).
"""

from __future__ import annotations

import json
import re

from workloads import Request

_ELAPSED = re.compile(rb'"elapsed_seconds": [-+0-9.e]+')


def normalise(body: bytes) -> bytes:
    """``body`` with the one timing-dependent field blanked."""
    return _ELAPSED.sub(b'"elapsed_seconds": 0', body)


class Oracle:
    """A mono :class:`LotusXDatabase` (given, or built from XML text)
    behind its own pipeline."""

    def __init__(self, source) -> None:
        from repro.engine.database import LotusXDatabase
        from repro.server.pipeline import RequestPipeline

        if isinstance(source, str):
            source = LotusXDatabase.from_string(source)
        self.database = source
        self.pipeline = RequestPipeline(self.database)

    def expected(self, request: Request) -> bytes:
        """The normalised mono response body for ``request``."""
        response = self.pipeline.handle(request.method, request.path, request.body())
        if response.status != 200:
            raise RuntimeError(
                f"workload request is not satisfiable on the mono build:"
                f" {request.payload} -> {response.status} {response.body[:200]!r}"
            )
        return normalise(response.body)

    def naive(self, query: str, k: int = 10) -> tuple[int, list[str]]:
        """``(total_matches, top-k output xpaths)`` by the naive matcher."""
        from repro.twig.planner import Algorithm

        response = self.database.search(query, k=k, algorithm=Algorithm.NAIVE)
        return response.total_matches, [hit.xpath for hit in response.results]


def check_response(
    request: Request, status: int, body: bytes, expected: bytes | None
) -> str | None:
    """Why this answer is wrong, or ``None`` when it is right."""
    if status != 200:
        return f"status {status}: {body[:160]!r}"
    if expected is not None and normalise(body) != expected:
        return "body differs from the mono answer"
    if not request.expect:
        return None
    try:
        answer = json.loads(body)
    except ValueError:
        return "malformed JSON body"
    for key, wanted in request.expect.items():
        if key == "candidate":
            texts = [c["text"] for c in answer.get("candidates", ())]
            if wanted not in texts:
                return f"completion misses {wanted!r}: {texts}"
        elif key == "candidates":
            texts = [c["text"] for c in answer.get("candidates", ())]
            prefix = request.payload["prefix"]
            if len(texts) != wanted or not all(t.startswith(prefix) for t in texts):
                return f"expected {wanted} completions of {prefix!r}: {texts}"
        elif answer.get(key) != wanted:
            return f"{key} is {answer.get(key)!r}, expected {wanted!r}"
    return None


def check_naive(oracle: Oracle, query: str, body: bytes) -> str | None:
    """Compare a served search answer with the naive matcher's."""
    total, xpaths = oracle.naive(query)
    try:
        answer = json.loads(body)
    except ValueError:
        return "malformed JSON body"
    served = [hit["xpath"] for hit in answer.get("results", ())]
    if answer.get("total_matches") != total:
        return f"total_matches {answer.get('total_matches')} != naive {total}"
    if served != xpaths:
        return f"top-k paths differ from naive: {served[:3]} vs {xpaths[:3]}"
    return None
