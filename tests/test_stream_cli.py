"""Golden-transcript tests for ``repro stream`` and the snapshot layout.

The CLI's stdout and the on-disk checkpoint format are both interfaces:
scripts parse the one and future builds read the other.  These tests pin
them — batch lines, summaries, the manifest schema (versioned, header
first), the content-addressed object layout, and the failure modes (a
fresh run refusing an existing manifest, the loader refusing an unknown
schema version).
"""

from __future__ import annotations

import hashlib
import json
import re

import pytest

from repro.cli import main
from repro.data import save_csv
from repro.exceptions import DataError
from repro.stream import MANIFEST_NAME, SNAPSHOT_VERSION, StreamingResolver

BATCH_LINE = re.compile(
    r"^batch (\d+): \+(\d+) records, (\d+) pairs, (\d+) questions, "
    r"clusters=(\d+), checkpoint [0-9a-f]{12}$"
)


@pytest.fixture()
def stream_csv(tmp_path, small_table):
    path = tmp_path / "stream.csv"
    save_csv(small_table, path)
    return path


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStreamTranscript:
    def test_batch_lines_and_summary(self, stream_csv, tmp_path, capsys):
        code, out, _ = _run(
            ["stream", str(stream_csv), "--batch-size", "20",
             "--checkpoint-dir", str(tmp_path / "ck"), "--seed", "0"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        batch_lines = [line for line in lines if line.startswith("batch ")]
        assert len(batch_lines) == 3  # 60 records / 20 per batch
        for number, line in enumerate(batch_lines, start=1):
            match = BATCH_LINE.match(line)
            assert match, line
            assert int(match.group(1)) == number
        assert sum(
            int(BATCH_LINE.match(line).group(2)) for line in batch_lines
        ) == 60
        assert "records seen     : 60 in 3 batches" in out
        assert "pooled cost" in out
        assert "quality" in out

    def test_transcript_is_deterministic(self, stream_csv, tmp_path, capsys):
        """Two fresh runs (checkpoint hashes included) emit identical bytes."""
        argv = lambda directory: [  # noqa: E731
            "stream", str(stream_csv), "--batch-size", "25",
            "--checkpoint-dir", str(directory), "--seed", "1",
        ]
        code, first, _ = _run(argv(tmp_path / "a"), capsys)
        assert code == 0
        code, second, _ = _run(argv(tmp_path / "b"), capsys)
        assert code == 0
        assert first == second

    def test_streaming_without_checkpoints(self, stream_csv, capsys):
        code, out, _ = _run(
            ["stream", str(stream_csv), "--batch-size", "30"], capsys
        )
        assert code == 0
        assert "checkpoint" not in out
        assert "records seen     : 60 in 2 batches" in out

    def test_max_batches_limits_ingest(self, stream_csv, capsys):
        code, out, _ = _run(
            ["stream", str(stream_csv), "--batch-size", "20",
             "--max-batches", "1"],
            capsys,
        )
        assert code == 0
        assert "records seen     : 20 in 1 batches" in out


class TestStreamFailureModes:
    def test_existing_manifest_refused_without_resume(
        self, stream_csv, tmp_path, capsys
    ):
        directory = tmp_path / "ck"
        argv = ["stream", str(stream_csv), "--batch-size", "30",
                "--checkpoint-dir", str(directory)]
        assert _run(argv, capsys)[0] == 0
        code, _, err = _run(argv, capsys)
        assert code == 1
        assert "already holds a stream manifest" in err
        assert "restore" in err

    def test_resume_requires_checkpoint_dir(self, stream_csv, capsys):
        code, _, err = _run(
            ["stream", str(stream_csv), "--resume"], capsys
        )
        assert code == 2
        assert "--resume requires --checkpoint-dir" in err

    def test_unlabeled_csv_rejected(self, tmp_path, capsys):
        path = tmp_path / "plain.csv"
        path.write_text("name,city\na,b\n", encoding="utf-8")
        code, _, err = _run(["stream", str(path)], capsys)
        assert code == 2
        assert "entity_id" in err

    def test_negative_batch_size_rejected(self, stream_csv, capsys):
        code, _, err = _run(
            ["stream", str(stream_csv), "--batch-size", "-1"], capsys
        )
        assert code == 2
        assert "--batch-size" in err

    def test_zero_batch_size_rejected(self, stream_csv, capsys):
        """``--batch-size 0`` is refused like ``-1``."""
        code, out, err = _run(
            ["stream", str(stream_csv), "--batch-size", "0"], capsys
        )
        assert code == 2
        assert "--batch-size must be >= 1" in err
        assert "batch " not in out


class TestResumeFlow:
    def test_kill_resume_matches_uninterrupted(
        self, stream_csv, tmp_path, capsys
    ):
        """Interrupt after batch 1 (torn tail included), resume, compare."""
        straight_dir = tmp_path / "straight"
        code, straight_out, _ = _run(
            ["stream", str(stream_csv), "--batch-size", "20",
             "--checkpoint-dir", str(straight_dir), "--seed", "0"],
            capsys,
        )
        assert code == 0

        resumed_dir = tmp_path / "resumed"
        code, first_out, _ = _run(
            ["stream", str(stream_csv), "--batch-size", "20",
             "--checkpoint-dir", str(resumed_dir), "--seed", "0",
             "--max-batches", "1"],
            capsys,
        )
        assert code == 0
        with open(resumed_dir / MANIFEST_NAME, "ab") as manifest:
            manifest.write(b'{"type": "checkpoint", "torn')
        code, resumed_out, _ = _run(
            ["stream", str(stream_csv), "--batch-size", "20",
             "--checkpoint-dir", str(resumed_dir), "--seed", "0",
             "--resume"],
            capsys,
        )
        assert code == 0
        assert "resumed from batch 1" in resumed_out
        straight_lines = straight_out.splitlines()
        resumed_lines = resumed_out.splitlines()
        # Batch 1's line appears only in the first (killed) run; batches 2+
        # and the final summary must be byte-identical, state hashes and all.
        assert straight_lines[0] == first_out.splitlines()[0]
        assert straight_lines[1:] == resumed_lines[1:]


class TestSnapshotLayout:
    def test_manifest_and_object_store_shape(self, stream_csv, tmp_path, capsys):
        directory = tmp_path / "ck"
        code, _, _ = _run(
            ["stream", str(stream_csv), "--batch-size", "30",
             "--checkpoint-dir", str(directory)],
            capsys,
        )
        assert code == 0
        manifest = directory / MANIFEST_NAME
        records = [
            json.loads(line)
            for line in manifest.read_text(encoding="utf-8").splitlines()
        ]
        assert records[0]["type"] == "header"
        assert records[0]["version"] == SNAPSHOT_VERSION
        assert records[0]["attributes"] == ["name", "city", "cuisine"]
        checkpoints = [r for r in records[1:] if r["type"] == "checkpoint"]
        assert [c["batch"] for c in checkpoints] == [1, 2]
        for checkpoint in checkpoints:
            assert checkpoint["version"] == SNAPSHOT_VERSION
            assert re.fullmatch(r"[0-9a-f]{64}", checkpoint["state_sha"])
            assert set(checkpoint["index"]) == {
                "tokenizer", "meta", "bits", "sizes", "row_of_text"
            }
        blobs = sorted((directory / "objects").rglob("*.blob"))
        assert blobs
        for blob in blobs:
            digest = blob.stem
            assert blob.parent.name == digest[:2]
            assert hashlib.sha256(blob.read_bytes()).hexdigest() == digest

    def test_unknown_snapshot_version_is_rejected(
        self, stream_csv, tmp_path, capsys
    ):
        directory = tmp_path / "ck"
        code, _, _ = _run(
            ["stream", str(stream_csv), "--batch-size", "30",
             "--checkpoint-dir", str(directory)],
            capsys,
        )
        assert code == 0
        manifest = directory / MANIFEST_NAME
        records = [
            json.loads(line)
            for line in manifest.read_text(encoding="utf-8").splitlines()
        ]
        for record in records:
            record["version"] = SNAPSHOT_VERSION + 1
        manifest.write_text(
            "".join(json.dumps(record) + "\n" for record in records),
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="not supported"):
            StreamingResolver.restore(directory)
        code, _, err = _run(
            ["stream", str(stream_csv), "--checkpoint-dir", str(directory),
             "--resume"],
            capsys,
        )
        assert code == 1
        assert "not supported" in err
