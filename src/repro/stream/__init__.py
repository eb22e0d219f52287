"""Durable streaming resolution: a restartable service over the pipeline.

The streaming layer resolves records as they arrive, in a form you can run
for days and kill at will: :class:`StreamingResolver` ingests record
batches through the one-shot resolver's own batch step (resumed candidate
join → vectors → partial-order graph → crowd session → selection, then
clusters) while journaling complete, versioned checkpoints into a
:class:`SnapshotStore`.  :func:`stream_in_batches` feeds a labeled table
through one in fixed-size batches.  A killed process
resumes with :meth:`StreamingResolver.restore` from the last *completed*
batch — bit-identically, and without re-paying for any crowd answer.

Two equivalence theorems anchor the design, and the verification battery's
``check_stream_equivalence`` step enforces both: a stream of batches
resolves to the same clusters and the same pooled crowd bill as one
one-shot run over the final table, and a kill-resume run is
indistinguishable from an uninterrupted one.
"""

from .service import StreamingResolver, stream_in_batches
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
    "stream_in_batches",
]
