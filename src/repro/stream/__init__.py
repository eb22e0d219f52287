"""Durable streaming resolution: a restartable service over the pipeline.

The streaming layer turns the incremental resolver into something you can
run for days and kill at will: :class:`StreamingResolver` ingests record
batches through the normal pipeline (resumed candidate join →
vectors → partial-order selection → clusters) while journaling complete,
versioned checkpoints into a :class:`SnapshotStore`.  A killed process
resumes with :meth:`StreamingResolver.restore` from the last *completed*
batch — bit-identically, and without re-paying for any crowd answer.

Two equivalence theorems anchor the design, and the verification battery's
``check_stream_equivalence`` step enforces both: a stream of batches
resolves to the same clusters and the same pooled crowd bill as one
one-shot run over the final table, and a kill-resume run is
indistinguishable from an uninterrupted one.
"""

from .service import StreamingResolver
from .snapshot import (
    MANIFEST_NAME,
    SNAPSHOT_VERSION,
    SnapshotStore,
    canonical_json,
    encode_index,
    load_snapshot,
)

__all__ = [
    "MANIFEST_NAME",
    "SNAPSHOT_VERSION",
    "SnapshotStore",
    "StreamingResolver",
    "canonical_json",
    "encode_index",
    "load_snapshot",
]
