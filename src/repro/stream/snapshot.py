"""Versioned, content-addressed snapshots for the streaming resolver.

A snapshot directory is a tiny durable object store plus a journaled
manifest::

    <dir>/MANIFEST.jsonl      append-only journal: header, then one
                              ``checkpoint`` record per completed batch
    <dir>/objects/ab/ab12….blob   immutable blobs named by their sha256

The write protocol makes torn writes recoverable by construction:

1. every blob a checkpoint references is written first (to a temp file,
   then ``os.replace`` — readers never see a partial blob);
2. only then is the ``checkpoint`` line appended to the manifest.

So an intact manifest line always points at intact objects, and a crash
mid-append leaves at most one torn trailing line — exactly the failure the
engine journal's repair discipline (:func:`repro.engine.journal.read_records`
with ``repair=True``) already handles: the tail is truncated back to the
last complete record and the stream resumes from the last *completed*
batch.  Blobs from the lost batch become unreferenced garbage, never
corruption.

Every manifest record carries the schema version; :func:`load_snapshot`
rejects unknown versions with a clear :class:`~repro.exceptions.DataError`
instead of misreading a future layout.  Content addressing doubles as an
integrity check: :meth:`SnapshotStore.get_bytes` re-hashes each blob and
refuses to return silently corrupted state.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from collections.abc import Sequence
from pathlib import Path
from typing import Any

import numpy as np

from ..engine.journal import Journal, read_records
from ..exceptions import DataError
from ..similarity.batch import PostingJoin, TokenIndex

#: Bump when the snapshot schema changes incompatibly.
SNAPSHOT_VERSION = 1

MANIFEST_NAME = "MANIFEST.jsonl"
OBJECTS_DIR = "objects"


def canonical_json(payload: Any) -> bytes:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


class SnapshotStore:
    """One snapshot directory: content-addressed blobs + manifest journal."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.manifest_path = self.directory / MANIFEST_NAME
        self.objects_dir = self.directory / OBJECTS_DIR
        self._journal = Journal(self.manifest_path)

    # ------------------------------------------------------------------ #
    # Object store
    # ------------------------------------------------------------------ #

    def _object_path(self, digest: str) -> Path:
        return self.objects_dir / digest[:2] / f"{digest}.blob"

    def put_bytes(self, payload: bytes) -> str:
        """Store a blob under its sha256; atomic and idempotent."""
        digest = hashlib.sha256(payload).hexdigest()
        path = self._object_path(digest)
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            handle, temp_name = tempfile.mkstemp(
                dir=str(path.parent), prefix=".tmp-"
            )
            try:
                with os.fdopen(handle, "wb") as temp_file:
                    temp_file.write(payload)
                os.replace(temp_name, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(temp_name)
                raise
        return digest

    def get_bytes(self, digest: str) -> bytes:
        path = self._object_path(digest)
        if not path.exists():
            raise DataError(
                f"snapshot object {digest} is missing from {self.objects_dir}"
            )
        payload = path.read_bytes()
        actual = hashlib.sha256(payload).hexdigest()
        if actual != digest:
            raise DataError(
                f"snapshot object {digest} is corrupt "
                f"(content hashes to {actual})"
            )
        return payload

    def put_json(self, payload: Any) -> str:
        return self.put_bytes(canonical_json(payload))

    def get_json(self, digest: str) -> Any:
        return json.loads(self.get_bytes(digest).decode("utf-8"))

    def put_array(self, array: np.ndarray) -> str:
        return self.put_bytes(_array_bytes(array))

    def get_array(self, digest: str) -> np.ndarray:
        return np.load(io.BytesIO(self.get_bytes(digest)), allow_pickle=False)

    # ------------------------------------------------------------------ #
    # Manifest journal
    # ------------------------------------------------------------------ #

    def append_header(self, payload: dict[str, Any]) -> None:
        self._journal.append(
            {"type": "header", "version": SNAPSHOT_VERSION, **payload}
        )

    def append_checkpoint(self, payload: dict[str, Any]) -> None:
        self._journal.append(
            {"type": "checkpoint", "version": SNAPSHOT_VERSION, **payload}
        )

    def close(self) -> None:
        self._journal.close()

    def read_manifest(
        self, repair: bool = True
    ) -> tuple[dict[str, Any] | None, list[dict[str, Any]], bool]:
        """``(header, checkpoints, truncated)`` after optional tail repair.

        Raises :class:`DataError` on a version this code does not speak or
        a manifest whose first record is not a header.
        """
        records, truncated = read_records(self.manifest_path, repair=repair)
        if not records:
            return None, [], truncated
        header = records[0]
        if header.get("type") != "header":
            raise DataError(
                f"snapshot manifest {self.manifest_path} does not start "
                f"with a header record (got {header.get('type')!r})"
            )
        checkpoints: list[dict[str, Any]] = []
        for record in records:
            version = record.get("version")
            if version != SNAPSHOT_VERSION:
                raise DataError(
                    f"snapshot version {version!r} is not supported "
                    f"(this build reads version {SNAPSHOT_VERSION}); "
                    "upgrade repro or rebuild the checkpoint directory"
                )
            if record.get("type") == "checkpoint":
                checkpoints.append(record)
        return header, checkpoints, truncated

    def exists(self) -> bool:
        return self.manifest_path.exists()


def _array_bytes(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(array), allow_pickle=False)
    return buffer.getvalue()


# --------------------------------------------------------------------------- #
# Token-index spec
# --------------------------------------------------------------------------- #


def encode_index(
    join: PostingJoin,
    texts: Sequence[str],
    tokenizer: str,
    store: SnapshotStore | None = None,
) -> dict:
    """The snapshot's token-index spec, derived from a stream's join.

    The spec describes ``TokenIndex(texts, tokenizer)`` over the records'
    *texts*, in record order: the distinct texts in first-seen order, the
    tokens in id order (each new text's tokens interned in sorted order),
    and the packed rows, sizes and text-to-row map, which
    :meth:`TokenIndex.from_join` reads off the join.  Each blob goes into
    *store* when one is given; without one, only its digest is computed,
    which is how a restore checks a snapshot's spec against its rows.
    """
    index = TokenIndex.from_join(join, texts)
    blobs = {
        "meta": canonical_json(
            {"texts": list(dict.fromkeys(texts)), "tokens": list(join.vocab)}
        ),
        "bits": _array_bytes(index.bits),
        "sizes": _array_bytes(index.sizes),
        "row_of_text": _array_bytes(index.row_of_text),
    }
    if store is None:
        digests = {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()}
    else:
        digests = {name: store.put_bytes(blob) for name, blob in blobs.items()}
    return {"tokenizer": tokenizer, **digests}


def load_snapshot(
    store: SnapshotStore, repair: bool = True
) -> tuple[dict[str, Any], dict[str, Any]]:
    """The last complete checkpoint: ``(header, checkpoint_record)``.

    Repairs a torn manifest tail first (crash mid-append), then returns
    the newest intact checkpoint.  Raises :class:`DataError` when the
    directory has no manifest, no completed checkpoint, or an unsupported
    schema version.
    """
    if not store.exists():
        raise DataError(
            f"no snapshot manifest at {store.manifest_path}; "
            "nothing to restore"
        )
    header, checkpoints, _ = store.read_manifest(repair=repair)
    if header is None or not checkpoints:
        raise DataError(
            f"snapshot at {store.directory} has no completed checkpoint"
        )
    return header, checkpoints[-1]


__all__ = [
    "SNAPSHOT_VERSION",
    "SnapshotStore",
    "canonical_json",
    "encode_index",
    "load_snapshot",
]
