"""Golden transcripts and shutdown drills for ``repro serve``/``client``.

Two things are pinned here.  First, the client CLI's stdout is an
interface scripts parse — session lines, batch lines, checkpoint lines —
so its shapes are matched by regex exactly like the ``repro stream``
transcripts.  Second, the shutdown contracts are exercised against real
subprocesses with real signals: SIGTERM against a loaded server must
drain every session to a checkpoint whose ``state_sha`` equals an
uninterrupted direct run (queued crowd answers are paid for; none may be
lost), and SIGTERM against ``repro stream`` must flush a whole final
checkpoint (no torn manifest tail) that resumes byte-identically.
"""

from __future__ import annotations

import gc
import os
import re
import signal
import subprocess
import sys
import time
import warnings

import pytest

from repro.cli import main
from repro.core import PowerConfig
from repro.data import save_csv
from repro.stream import StreamingResolver
from repro.stream.snapshot import SnapshotStore

CLIENT_BATCH_LINE = re.compile(
    r"^batch (\d+): \+(\d+) records, (\d+) pairs, (\d+) questions, "
    r"clusters=(\d+)$"
)
CLIENT_CHECKPOINT_LINE = re.compile(
    r"^checkpoint : batch (\d+), (\d+) records, (\d+) questions, "
    r"state_sha [0-9a-f]{12}$"
)
DRAINED_LINE = re.compile(
    r"^drained session ([A-Za-z0-9._-]+): batch (\d+), "
    r"state_sha ([0-9a-f]{64})$"
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


def _direct_sha(small_table, tmp_path, name, batch_size=50, seed=0):
    resolver = StreamingResolver(
        small_table.attributes,
        config=PowerConfig(seed=seed),
        name=name,
        checkpoint_dir=tmp_path / f"direct-{name}",
    )
    records = list(small_table)
    for start in range(0, len(records), batch_size):
        chunk = records[start : start + batch_size]
        resolver.add_batch(
            [record.values for record in chunk],
            entity_ids=[record.entity_id for record in chunk],
        )
    state_sha = resolver.checkpoint()["state_sha"]
    resolver.close()
    return state_sha


class TestClientTranscript:
    def test_spawned_ingest_transcript(self, stream_csv, tmp_path, capsys):
        code, out, _ = _run(
            ["client", "ingest-csv", "--spawn", str(tmp_path / "root"),
             "--session", "s1", "--input", str(stream_csv),
             "--batch-size", "20"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "created session s1 (0 records, batch 0)"
        batch_lines = [line for line in lines if line.startswith("batch ")]
        assert len(batch_lines) == 3  # 60 records / 20 per batch
        for number, line in enumerate(batch_lines, start=1):
            match = CLIENT_BATCH_LINE.match(line)
            assert match, line
            assert int(match.group(1)) == number
        assert CLIENT_CHECKPOINT_LINE.match(lines[-1]), lines[-1]

    def test_second_spawn_attaches_and_serves_clusters(
        self, stream_csv, tmp_path, capsys
    ):
        """The checkpoint root is the durable store: a freshly spawned
        server restores the session and continues where the last left off."""
        root = tmp_path / "root"
        argv = ["client", "ingest-csv", "--spawn", str(root),
                "--session", "s1", "--input", str(stream_csv)]
        assert _run(argv, capsys)[0] == 0
        # Re-running the same ingest attaches and finds nothing new to add.
        code, out, _ = _run(argv, capsys)
        assert code == 0
        assert "attached to session s1 (60 records, batch 2)" in out
        code, out, _ = _run(
            ["client", "clusters", "--spawn", str(root), "--session", "s1"],
            capsys,
        )
        assert code == 0
        assert re.search(
            r"clusters   : \d+ over 60 records \(\d+ questions, "
            r"\d+\.\d\d USD\)",
            out,
        )

    def test_health_action(self, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code, out, _ = _run(
                ["client", "health", "--spawn", str(tmp_path / "root")], capsys
            )
            gc.collect()
        assert code == 0
        assert "status        : ok" in out
        assert "protocol      : 1" in out
        assert "known_sessions: 0" in out
        # The spawned server's output pipe is closed with the server.
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_metrics_action_emits_prometheus_text(self, tmp_path, capsys):
        code, out, _ = _run(
            ["client", "metrics", "--spawn", str(tmp_path / "root")], capsys
        )
        assert code == 0
        # A fresh server's exposition carries the seeded session gauges
        # (request counters appear only after a completed request).
        assert "# TYPE repro_serve_sessions_known gauge" in out
        assert "repro_serve_sessions_resident 0" in out

    def test_session_actions_require_session(self, capsys):
        code, _, err = _run(["client", "clusters", "--port", "1"], capsys)
        assert code == 2
        assert "--session" in err

    def test_client_requires_port_or_spawn(self, capsys):
        code, _, err = _run(
            ["client", "health"], capsys
        )
        assert code == 2
        assert "--port" in err

    def test_ingest_requires_input(self, capsys):
        code, _, err = _run(
            ["client", "ingest-csv", "--port", "1", "--session", "x"], capsys
        )
        assert code == 2
        assert "--input" in err

    @pytest.mark.parametrize("size", ["0", "-5"])
    def test_ingest_refuses_batch_size_below_one(self, stream_csv, size, capsys):
        """Refused before any connection, as ``repro stream`` refuses it."""
        code, _, err = _run(
            ["client", "ingest-csv", "--port", "1", "--session", "x",
             "--input", str(stream_csv), "--batch-size", size],
            capsys,
        )
        assert code == 2
        assert "--batch-size must be >= 1" in err


class TestServeDrain:
    def test_sigterm_drains_every_session_without_losing_answers(
        self, stream_csv, small_table, tmp_path, capsys
    ):
        """kill -TERM against a server holding two loaded sessions: every
        drained state_sha must equal an uninterrupted direct run's."""
        root = tmp_path / "root"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--checkpoint-root", str(root), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"serving on [^:]+:(\d+)", banner)
            assert match, banner
            port = match.group(1)
            for session in ("s1", "s2"):
                code, _, _ = _run(
                    ["client", "ingest-csv", "--port", port,
                     "--session", session, "--input", str(stream_csv)],
                    capsys,
                )
                assert code == 0
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0
        drained = {
            m.group(1): m.group(3)
            for m in map(DRAINED_LINE.match, out.splitlines())
            if m
        }
        assert set(drained) == {"s1", "s2"}
        assert "drained 2 session(s); bye" in out
        for session, sha in drained.items():
            assert sha == _direct_sha(small_table, tmp_path, session)


class TestStreamGracefulShutdown:
    def test_sigterm_flushes_checkpoint_and_resumes_cleanly(
        self, stream_csv, small_table, tmp_path, capsys
    ):
        """SIGTERM mid-stream: the run stops after the current batch with a
        whole (untorn) manifest, and --resume completes byte-identically to
        an uninterrupted run."""
        straight_dir = tmp_path / "straight"
        code, straight_out, _ = _run(
            ["stream", str(stream_csv), "--batch-size", "5",
             "--checkpoint-dir", str(straight_dir), "--seed", "0"],
            capsys,
        )
        assert code == 0
        straight_lines = straight_out.splitlines()
        straight_batches = [
            line for line in straight_lines if line.startswith("batch ")
        ]
        summary_start = len(straight_batches)

        killed_dir = tmp_path / "killed"
        # Unbuffered bytes: readline() then takes exactly one line, so no
        # later batch line sits in a Python-side buffer that communicate(),
        # which reads the raw pipe, would never see.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "stream", str(stream_csv),
             "--batch-size", "5", "--checkpoint-dir", str(killed_dir),
             "--seed", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            bufsize=0,
        )
        try:
            first = proc.stdout.readline().decode()  # blocks until batch 1 is done
            assert first.startswith("batch 1:"), first
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0
        killed_out = first + out.decode()
        assert "stopped cleanly after batch" in killed_out
        assert "resume with --resume" in killed_out
        killed_batches = [
            line for line in killed_out.splitlines()
            if line.startswith("batch ")
        ]
        ran = len(killed_batches)
        assert 1 <= ran < len(straight_batches)  # genuinely interrupted
        # The interrupted prefix matches the uninterrupted run exactly.
        assert killed_batches == straight_batches[:ran]
        # The manifest tail is whole: nothing to repair.
        _, checkpoints, truncated = SnapshotStore(killed_dir).read_manifest(
            repair=False
        )
        assert truncated is False
        assert checkpoints[-1]["batch"] == ran

        code, resumed_out, _ = _run(
            ["stream", str(stream_csv), "--batch-size", "5",
             "--checkpoint-dir", str(killed_dir), "--seed", "0", "--resume"],
            capsys,
        )
        assert code == 0
        resumed_lines = resumed_out.splitlines()
        assert resumed_lines[0].startswith(f"resumed from batch {ran}")
        # Remaining batches and the summary: byte-identical to straight.
        assert resumed_lines[1:] == straight_lines[ran:]
        assert straight_lines[summary_start:] == resumed_lines[
            1 + len(straight_batches) - ran :
        ]
