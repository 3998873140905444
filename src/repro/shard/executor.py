"""Scatter-gather execution of per-shard work.

Every scatter runs inline in the caller's thread: one routed shard after
another, outcomes in shard order.  With a replica fleet configured each
shard's task goes through the fleet's resilience pipeline (replica
selection, retries, hedging, breakers); otherwise it runs directly on
the shard database.

Tasks return native objects — a twig task its shard's matches as
:class:`~repro.shard.merger.ShardMatch`\\ es tagged with the shard's
xpath ordinal offsets, a keyword task its shard's answer elements.

Each shard gets its own :class:`~repro.resilience.deadline.Deadline`
holding the caller's wall-clock budget *left when that shard starts*,
so a scatter never runs past the caller's deadline (the caller's step
budget stays with the caller).  A shard that trips its budget returns
whatever partial answers it salvaged plus a ``tripped`` flag instead of
raising, so the answers gathered from the other shards are kept.
"""

from __future__ import annotations

from repro.engine.database import LotusXDatabase
from repro.keyword.elca import find_elcas
from repro.keyword.slca import find_slcas
from repro.resilience.deadline import Deadline
from repro.resilience.errors import DeadlineExceeded
from repro.resilience.faults import fault_point
from repro.shard.merger import ShardMatch
from repro.twig.algorithms.common import AlgorithmStats


class ShardOutcome:
    """One shard's answer to a scattered task.

    ``answers`` holds the shard's matches (``"matches"`` tasks) or
    answer elements (``"keyword"`` tasks); ``free`` the keyword terms
    that witness the corpus root (ELCA only); ``stats`` the shard's
    algorithm counters when the caller asked for them.

    ``tripped`` marks budget exhaustion (partial answers salvaged);
    ``failed`` marks a shard whose evaluation *broke* — the task raised,
    or (with a replica fleet) every replica of the group was down.  A
    failed shard contributes nothing to the merge; the coordinator
    surfaces it as a degraded response instead of failing the whole
    scatter.
    """

    __slots__ = (
        "shard_index",
        "answers",
        "tripped",
        "failed",
        "error",
        "free",
        "stats",
    )

    def __init__(
        self,
        shard_index: int,
        answers: list,
        tripped: bool,
        failed: bool = False,
        error: str = "",
        free: tuple[str, ...] = (),
        stats: AlgorithmStats | None = None,
    ) -> None:
        self.shard_index = shard_index
        self.answers = answers
        self.tripped = tripped
        self.failed = failed
        self.error = error
        self.free = free
        self.stats = stats


def _shard_deadline(deadline: Deadline | None) -> Deadline | None:
    """A fresh per-shard deadline: the caller's wall-clock budget left
    right now (``None`` when the caller has no wall-clock limit)."""
    if deadline is None:
        return None
    remaining = deadline.remaining()
    return None if remaining is None else Deadline(timeout_s=remaining)


def _matches_task(
    database: LotusXDatabase,
    shard_index: int,
    ordinal_offsets: dict[str, int],
    payload: dict,
    deadline: Deadline | None,
) -> ShardOutcome:
    """Evaluate a twig pattern on one shard."""
    stats = AlgorithmStats() if payload.get("collect_stats") else None
    tripped = False
    try:
        matches = database._evaluate(
            payload["pattern"],
            payload["algorithm"],
            stats,
            payload["prune_streams"],
            deadline,
        )
    except DeadlineExceeded as exc:
        matches = exc.partial or []
        tripped = True
    answers = [
        ShardMatch(match.assignments, shard_index, ordinal_offsets)
        for match in matches
    ]
    return ShardOutcome(shard_index, answers, tripped, stats=stats)


def _keyword_task(
    database: LotusXDatabase,
    shard_index: int,
    ordinal_offsets: dict[str, int],
    payload: dict,
    deadline: Deadline | None,
) -> ShardOutcome:
    """SLCA/ELCA answers for one shard plus the root-witness term bits.

    ``free`` lists the query terms that have at least one occurrence
    whose lowest qualifying ancestor is the (replica) root — i.e. an
    occurrence outside every top-level unit that contains a deep SLCA.
    The coordinator ORs these bits across shards to decide whether the
    corpus root is a global ELCA.
    """
    terms = tuple(payload["terms"])
    semantics = payload["semantics"]
    labeled = database.labeled
    term_index = database.term_index
    truncated = False
    finder = find_elcas if semantics == "elca" else find_slcas
    try:
        answers = finder(labeled, term_index, terms, deadline)
    except DeadlineExceeded as exc:
        answers = exc.partial or []
        truncated = True
    free: list[str] = []
    if semantics == "elca":
        if truncated:
            slcas = [a for a in answers if a.order != 0]
        else:
            try:
                slcas = find_slcas(labeled, term_index, terms, deadline)
            except DeadlineExceeded as exc:
                slcas = exc.partial or []
                truncated = True
        # Order ranges of the top-level units that contain a deep SLCA:
        # occurrences inside them have a qualifying ancestor below the
        # root; occurrences outside witness the root itself.
        ranges: list[tuple[int, int]] = []
        for element in slcas:
            if element.order == 0:
                continue
            unit = element
            while unit.parent is not None and unit.parent.order != 0:
                unit = unit.parent
            ranges.append(term_index.subtree_order_range(unit))
        ranges.sort()
        lowered = [term.lower() for term in dict.fromkeys(terms)]
        for term in lowered:
            postings = term_index.postings(term)
            if _any_outside(postings, ranges):
                free.append(term)
    return ShardOutcome(shard_index, answers, truncated, free=tuple(free))


def _any_outside(postings, ranges: list[tuple[int, int]]) -> bool:
    """Does any posting's order fall outside every ``(low, high)`` range?

    Ranges are sorted, disjoint subtree order ranges (half-open on the
    high end, matching ``subtree_order_range``).
    """
    if not ranges:
        return bool(postings)
    index = 0
    for posting in postings:
        order = posting.order
        while index < len(ranges) and ranges[index][1] <= order:
            index += 1
        if index >= len(ranges) or order < ranges[index][0]:
            return True
    return False


_TASKS = {
    "matches": _matches_task,
    "keyword": _keyword_task,
}


class ShardExecutor:
    """Scatters tasks over a shard fleet and gathers the outcomes."""

    def __init__(
        self,
        databases: list[LotusXDatabase],
        ordinal_offsets: list[dict[str, int]],
        fleet=None,
    ) -> None:
        self._databases = databases
        self._ordinal_offsets = ordinal_offsets
        #: Optional :class:`~repro.fleet.fleet.ReplicaFleet` — when set,
        #: every per-shard sub-request goes through its resilience
        #: pipeline instead of hitting the shard database directly.
        self._fleet = fleet
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Refuse further scatters (idempotent)."""
        self._closed = True

    def run(
        self,
        shard_indices: list[int],
        kind: str,
        payload: dict,
        deadline: Deadline | None = None,
    ) -> list[ShardOutcome]:
        """Run ``kind`` with ``payload`` on every listed shard, in order.

        Failure containment: a shard whose task raises comes back as a
        *failed* outcome with no answers rather than propagating —
        except :class:`DeadlineExceeded`, which marks the shard tripped
        (an answer, just truncated).  The coordinator decides whether
        failed shards degrade or reject the response.
        """
        if self._closed:
            raise RuntimeError("ShardExecutor is closed")
        task = _TASKS[kind]
        outcomes = []
        for index in shard_indices:

            def shard_call(
                database: LotusXDatabase, index: int = index
            ) -> ShardOutcome:
                # Called per attempt: a fleet retry or hedge leg that
                # starts late gets the budget left when *it* starts.
                # ``index`` is bound now because a losing hedge leg may
                # still run after the loop has moved on.
                shard_deadline = _shard_deadline(deadline)
                fault_point(f"shard.worker.{index}", shard_deadline)
                return task(
                    database,
                    index,
                    self._ordinal_offsets[index],
                    payload,
                    shard_deadline,
                )

            try:
                if self._fleet is None:
                    outcome = shard_call(self._databases[index])
                else:
                    outcome = self._fleet.call(index, shard_call, deadline)
            except DeadlineExceeded:
                outcome = ShardOutcome(index, [], tripped=True)
            except Exception as exc:
                outcome = ShardOutcome(
                    index,
                    [],
                    tripped=False,
                    failed=True,
                    error=str(exc) or type(exc).__name__,
                )
            outcomes.append(outcome)
        return outcomes
