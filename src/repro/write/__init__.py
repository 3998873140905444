"""The live write path: WAL-backed incremental updates over delta segments.

``repro.write`` turns the (otherwise immutable) indexed corpus into a
single-writer, many-reader live database:

* :mod:`repro.write.wal` — a size- and checksum-framed write-ahead log;
  every accepted mutation is durable in the WAL *before* it is applied,
  and recovery replays the valid prefix of the log (truncating a torn
  tail) to land back on exactly the pre-crash state.
* :mod:`repro.write.segments` — :class:`~repro.write.segments.SegmentedCorpus`,
  the LSM-flavoured delta-segment store.  Inserts flush into small tail
  segments; updates re-index only the owning segment (when the subtree
  size changes, the segments behind it are re-placed at their shifted
  label base, sharing their indexes); background compaction folds the
  deltas back together.
* :mod:`repro.write.writer` — :class:`~repro.write.writer.DocumentWriter`,
  the single-writer mutation pipeline (validate → WAL append → queue →
  apply batch → swap the serving view).

The facade readers query is :class:`repro.engine.segmented.SegmentedDatabase`.
"""

from repro.write.wal import WalError, WalRecord, WriteAheadLog
from repro.write.segments import Mutation, SegmentedCorpus
from repro.write.writer import (
    DocumentWriter,
    DuplicateDocument,
    UnknownDocument,
    WriterClosed,
    WriterWedged,
    open_writable_database,
)

__all__ = [
    "DocumentWriter",
    "DuplicateDocument",
    "Mutation",
    "SegmentedCorpus",
    "UnknownDocument",
    "WalError",
    "WalRecord",
    "WriteAheadLog",
    "WriterClosed",
    "WriterWedged",
    "open_writable_database",
]
