"""The single-writer mutation pipeline.

:class:`DocumentWriter` is the only component allowed to mutate a
:class:`~repro.write.segments.SegmentedCorpus`.  A mutation's life:

1. **submit** (caller's thread, under the writer lock): the payload is
   parsed and validated against the *projected* id set (the corpus as it
   will be once everything already enqueued applies), a seqno is
   assigned, and the record is appended to the WAL.  By the time
   ``insert_document`` returns a seqno, the mutation is durable.
2. **apply** (the writer's worker thread; inline in ``synchronous``
   mode): queued mutations drain as one batch into
   :meth:`SegmentedCorpus.apply`, the delta tail is compacted when it
   has grown past the threshold, a fresh read view is built, and the
   serving :class:`~repro.engine.segmented.SegmentedDatabase` facade
   atomically swaps to it (advancing the generation and, when serving
   behind a :class:`~repro.server.reload.DatabaseHolder`, stamping the
   holder generation too).

**Crash consistency is fail-stop.**  If an apply raises, the serving
view is left exactly as it was — readers never observe a half-applied
batch — and the writer *wedges*: every later submission is refused with
:class:`WriterWedged`.  The refused-but-durable mutations are not lost;
they are exactly what WAL recovery (:func:`open_writable_database`)
replays on restart.  Continuing past a failed batch would silently
reorder the corpus against the log, which is the one thing a WAL must
never allow.

Fault-injection sites (see :mod:`repro.resilience.faults`):
``write.wal.append`` (before the record is durable — the mutation is
rejected and leaves no trace), ``write.apply`` (after durability, before
application — the wedge path), ``write.compact`` (background compaction
— caught, counted, corpus left on the uncompacted layout).
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.resilience.faults import fault_point
from repro.write.segments import (
    DuplicateDocument,
    Mutation,
    SegmentedCorpus,
    UnknownDocument,
)
from repro.write.wal import WriteAheadLog
from repro.xmlio.builder import parse_string
from repro.xmlio.tree import Element

__all__ = [
    "DocumentWriter",
    "DuplicateDocument",
    "UnknownDocument",
    "WriterClosed",
    "WriterWedged",
    "open_writable_database",
]


class WriterClosed(RuntimeError):
    """The writer has been shut down."""


class WriterWedged(RuntimeError):
    """A previous batch failed to apply; the writer refuses new work.

    Durable-but-unapplied mutations are recovered by replaying the WAL
    on restart.
    """


class DocumentWriter:
    """Single-writer mutation path over one segmented corpus."""

    #: Delta segments tolerated before minor compaction kicks in.
    COMPACT_THRESHOLD = 8

    def __init__(
        self,
        corpus: SegmentedCorpus,
        database,
        wal: WriteAheadLog,
        last_applied: int = 0,
        synchronous: bool = False,
        compact_threshold: int | None = None,
        holder=None,
    ) -> None:
        self._corpus = corpus
        self._database = database
        self._wal = wal
        self._holder = holder
        self._synchronous = synchronous
        self._compact_threshold = max(
            2, compact_threshold if compact_threshold is not None else self.COMPACT_THRESHOLD
        )
        #: Serializes submissions (validation + WAL append + seqno).
        self._submit_lock = threading.Lock()
        #: Guards queue/progress state and wakes both worker and waiters.
        self._progress = threading.Condition()
        self._queue: deque[Mutation] = deque()
        self._projected_ids = set(corpus.document_ids())
        self._last_enqueued = last_applied
        self._last_applied = last_applied
        self._closed = False
        self._stopping = False
        self._wedged_error: BaseException | None = None
        self.counters: dict[str, int] = {
            "inserts": 0,
            "updates": 0,
            "deletes": 0,
            "batches": 0,
            # Content stage ran (labels + term + completion index) vs.
            # placement only; see repro.write.segments.ApplyResult.
            "segments_reindexed": 0,
            "segments_replaced": 0,
            "elements_reindexed": 0,
            # The name the ledger's traced run reads re-index events by.
            "segments_rebuilt": 0,
            "compactions": 0,
            "segments_compacted": 0,
            "compaction_failures": 0,
            "apply_failures": 0,
        }
        self._worker: threading.Thread | None = None
        if not synchronous:
            self._worker = threading.Thread(
                target=self._run, name="lotusx-writer", daemon=True
            )
            self._worker.start()

    def attach_holder(self, holder) -> None:
        """Stamp ``holder`` (a ``DatabaseHolder``) on every view swap.

        Used by the CLI, where the holder is created *around* the
        writable facade and therefore cannot be passed to
        :func:`open_writable_database` up front.
        """
        with self._progress:
            self._holder = holder

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def insert_document(self, xml: str, doc_id: str | None = None) -> int:
        """Add a new top-level document; returns its durable seqno."""
        return self.submit("insert", doc_id, xml)[0]

    def update_document(self, doc_id: str, xml: str) -> int:
        """Replace the document ``doc_id`` with a new subtree."""
        return self.submit("update", doc_id, xml)[0]

    def delete_document(self, doc_id: str) -> int:
        """Remove the document ``doc_id`` from the corpus."""
        return self.submit("delete", doc_id, None)[0]

    def submit(
        self, op: str, doc_id: str | None, xml: str | None
    ) -> tuple[int, str]:
        """Validate, log, and enqueue one mutation.

        Returns ``(seqno, doc_id)`` — the id matters for inserts, where
        an omitted id is assigned by the writer.
        """
        if op not in ("insert", "update", "delete"):
            raise ValueError(f"unknown mutation op {op!r}")
        unit: Element | None = None
        if op in ("insert", "update"):
            if not xml or not xml.strip():
                raise ValueError("document body must be non-empty XML")
            # Parse (and size/structure-check, via the xmlio limits)
            # outside the lock: a malformed body never reaches the WAL.
            unit = parse_string(xml).root
        with self._submit_lock:
            if self._closed:
                raise WriterClosed("the writer has been closed")
            if self._wedged_error is not None:
                raise WriterWedged(
                    f"writer halted by a failed batch ({self._wedged_error});"
                    " restart to recover from the WAL"
                )
            seqno = self._last_enqueued + 1
            if op == "insert":
                if doc_id is None:
                    doc_id = self._fresh_id(seqno)
                elif doc_id in self._projected_ids:
                    raise DuplicateDocument(
                        f"document {doc_id!r} already exists"
                    )
            else:
                if doc_id not in self._projected_ids:
                    raise UnknownDocument(f"no document with id {doc_id!r}")
            fault_point("write.wal.append")
            self._wal.append(seqno, op, doc_id, xml)
            self._last_enqueued = seqno
            if op == "insert":
                self._projected_ids.add(doc_id)
            elif op == "delete":
                self._projected_ids.discard(doc_id)
            mutation = Mutation(seqno, op, doc_id, unit)
            if not self._synchronous:
                with self._progress:
                    self._queue.append(mutation)
                    self._progress.notify_all()
        if self._synchronous:
            self._apply_batch([mutation])
            if self._wedged_error is not None:
                raise WriterWedged(
                    f"batch failed to apply: {self._wedged_error}"
                ) from self._wedged_error
        return seqno, doc_id

    def _fresh_id(self, seqno: int) -> str:
        candidate = f"doc-{seqno}"
        suffix = 1
        while candidate in self._projected_ids:
            candidate = f"doc-{seqno}-{suffix}"
            suffix += 1
        return candidate

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._progress:
                while not self._queue and not self._stopping:
                    self._progress.wait(timeout=0.2)
                if self._wedged_error is not None:
                    return
                if not self._queue:
                    if self._stopping:
                        return
                    continue
                batch = list(self._queue)
                self._queue.clear()
            self._apply_batch(batch)
            if self._wedged_error is not None:
                return

    def _apply_batch(self, batch: list[Mutation]) -> None:
        try:
            fault_point("write.apply")
            result = self._corpus.apply(batch)
            self._maybe_compact()
            view = self._corpus.build_view()
            self._database._install_view(view)
            if self._holder is not None:
                self._holder.swap(self._database)
            with self._progress:
                counters = self.counters
                counters["inserts"] += result.inserts
                counters["updates"] += result.updates
                counters["deletes"] += result.deletes
                counters["batches"] += 1
                counters["segments_reindexed"] += result.segments_reindexed
                counters["segments_replaced"] += result.segments_replaced
                counters["elements_reindexed"] += result.elements_reindexed
                counters["segments_rebuilt"] += result.segments_reindexed
                self._last_applied = batch[-1].seqno
                self._progress.notify_all()
        except Exception as exc:
            with self._progress:
                self._wedged_error = exc
                self.counters["apply_failures"] += 1
                self._progress.notify_all()

    def _maybe_compact(self) -> None:
        """Fold the delta tail back together once it has grown too long.

        An injected ``write.compact`` fault (or a real mid-merge failure
        that left the segment list untouched) is absorbed: the corpus
        simply keeps serving the uncompacted layout.  A failure that
        *did* disturb the segment list is corruption and re-raises into
        the fail-stop wedge path.
        """
        if self._corpus.segment_count <= self._compact_threshold:
            return
        before = list(self._corpus.segments)
        try:
            fault_point("write.compact")
            merged = self._corpus.compact_deltas()
        except Exception:
            self.counters["compaction_failures"] += 1
            if self._corpus.segments != before:
                raise
            return
        if merged:
            self.counters["compactions"] += 1
            self.counters["segments_compacted"] += merged

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------

    @property
    def wedged(self) -> bool:
        return self._wedged_error is not None

    @property
    def last_applied_seqno(self) -> int:
        with self._progress:
            return self._last_applied

    @property
    def last_enqueued_seqno(self) -> int:
        with self._submit_lock:
            return self._last_enqueued

    def wait_for(self, seqno: int, timeout: float | None = None) -> None:
        """Block until ``seqno`` has been applied to the serving view."""
        limit = None if timeout is None else time.monotonic() + timeout
        with self._progress:
            while self._last_applied < seqno:
                if self._wedged_error is not None:
                    raise WriterWedged(
                        f"batch failed to apply: {self._wedged_error}"
                    ) from self._wedged_error
                remaining = None if limit is None else limit - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"seqno {seqno} not applied within {timeout}s"
                        f" (at {self._last_applied})"
                    )
                self._progress.wait(0.2 if remaining is None else min(remaining, 0.2))

    def flush(self, timeout: float | None = None) -> int:
        """Wait until everything accepted so far is applied; returns the
        last applied seqno."""
        self.wait_for(self.last_enqueued_seqno, timeout)
        return self.last_applied_seqno

    def close(self) -> None:
        """Stop accepting work, drain the queue, and close the WAL."""
        with self._submit_lock:
            if self._closed:
                return
            self._closed = True
        with self._progress:
            self._stopping = True
            self._progress.notify_all()
        if self._worker is not None:
            self._worker.join(timeout=10)
        self._wal.close()

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------

    def checkpoint(self, path) -> dict:
        """Durably fold the live corpus into a snapshot and trim the WAL.

        Flushes, compacts everything into a single base segment, writes
        a monolithic snapshot stamped with the checkpoint seqno, and
        rotates the WAL so only post-checkpoint records remain.  Opening
        the snapshot plus the rotated WAL recovers exactly this state.
        """
        from repro.engine.store import save_snapshot

        self.flush()
        with self._submit_lock:
            if self._wedged_error is not None:
                raise WriterWedged(
                    f"cannot checkpoint a wedged writer ({self._wedged_error})"
                )
            merged = self._corpus.compact()
            if merged:
                view = self._corpus.build_view()
                self._database._install_view(view)
                if self._holder is not None:
                    self._holder.swap(self._database)
            seqno = self._last_applied
            info = save_snapshot(
                self._corpus.segments[0].database,
                path,
                seqno=seqno,
                document_ids=self._corpus.document_ids(),
            )
            kept = self._wal.rotate(seqno)
            return {
                "seqno": seqno,
                "snapshot_path": str(path),
                "snapshot_bytes": info.size_bytes,
                "wal_records_kept": kept,
                "segments_merged": merged,
            }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def statistics(self) -> dict:
        """Writer health for ``/api/stats``."""
        with self._progress:
            return {
                "mode": "synchronous" if self._synchronous else "background",
                "queue_depth": len(self._queue),
                "wal_path": self._wal.path,
                "wal_bytes": self._wal.size_bytes,
                "wal_records": self._wal.record_count,
                "last_enqueued_seqno": self._last_enqueued,
                "last_applied_seqno": self._last_applied,
                "wedged": self._wedged_error is not None,
                "segments": self._corpus.segment_count,
                "documents": self._corpus.document_count,
                "counters": dict(self.counters),
            }


def open_writable_database(
    base_database,
    wal_path,
    base_seqno: int = 0,
    scorer=None,
    synonyms=None,
    holder=None,
    synchronous: bool = False,
    compact_threshold: int | None = None,
    document_ids=None,
):
    """Open (or recover) a writable database over ``base_database``.

    ``base_database`` is the durable base — a freshly indexed corpus
    (``base_seqno=0``) or a snapshot checkpointed at ``base_seqno``
    (pass the snapshot's ``document_ids`` too, so replayed WAL records
    resolve ids against the checkpointed namespace).  The WAL at
    ``wal_path`` is scanned (truncating any torn tail), records newer
    than the base are replayed into delta segments, and the resulting
    :class:`~repro.engine.segmented.SegmentedDatabase` — with its
    :class:`DocumentWriter` attached as ``.writer`` — serves exactly the
    state the previous process had durably accepted.
    """
    from repro.engine.segmented import SegmentedDatabase

    corpus = SegmentedCorpus(
        base_database,
        scorer=scorer,
        synonyms=synonyms,
        document_ids=document_ids,
    )
    wal = WriteAheadLog(wal_path)
    if wal.record_count and wal.last_seqno <= base_seqno:
        # Entirely pre-checkpoint records (e.g. a checkpoint that crashed
        # between snapshot write and WAL rotate): drop the stale prefix.
        wal.rotate(base_seqno)
    replay = [
        record for record in wal.recovered_records if record.seqno > base_seqno
    ]
    last_applied = base_seqno
    if replay:
        mutations = [
            Mutation(
                record.seqno,
                record.op,
                record.doc_id,
                parse_string(record.xml).root if record.xml is not None else None,
            )
            for record in replay
        ]
        corpus.apply(mutations)
        last_applied = replay[-1].seqno
    database = SegmentedDatabase(corpus)
    database.writer = DocumentWriter(
        corpus,
        database,
        wal,
        last_applied=last_applied,
        synchronous=synchronous,
        compact_threshold=compact_threshold,
        holder=holder,
    )
    return database
