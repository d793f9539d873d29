"""Tests for the checksummed link journal and its recovery rules.

The contract under test: a torn final line (crash mid-append) is
recoverable and counted; any damage before the tail — bit flips,
duplicate or gapped sequence numbers, a foreign fingerprint — is a
typed :class:`JournalError`, never a silent partial recovery.
"""

import json

import pytest

from repro.exceptions import JournalError
from repro.service.journal import (
    JOURNAL_VERSION,
    JournalEvent,
    LinkJournal,
    atomic_write_text,
    decode_line,
    encode_line,
    find_recovery,
    journal_path,
    load_journal,
)

FP = "deadbeefcafe0123"


def write_journal(path, events, *, snapshot_at=None, fingerprint=FP,
                  attempt=0):
    with LinkJournal(path, fingerprint, attempt=attempt) as journal:
        for seq, kind in events:
            journal.event(seq, kind)
            if snapshot_at is not None and seq == snapshot_at:
                journal.snapshot(seq, {"marker": seq})


class TestLineCodec:
    def test_roundtrip(self):
        data = {"type": "event", "seq": 3, "k": "a"}
        assert decode_line(encode_line(data)) == data

    def test_bit_flip_detected(self):
        line = encode_line({"type": "event", "seq": 3, "k": "a"})
        flipped = line.replace('"seq": 3', '"seq": 4')
        with pytest.raises(JournalError, match="CRC mismatch"):
            decode_line(flipped)

    def test_garbage_rejected(self):
        with pytest.raises(JournalError, match="undecodable"):
            decode_line("{not json")

    def test_non_object_payload_rejected(self):
        import zlib

        canonical = json.dumps([1, 2], sort_keys=True)
        crc = zlib.crc32(canonical.encode()) & 0xFFFFFFFF
        line = json.dumps({"crc": crc, "data": [1, 2]}, sort_keys=True)
        with pytest.raises(JournalError, match="must be an object"):
            decode_line(line)


class TestAtomicWrite:
    def test_no_temp_residue(self, tmp_path):
        target = tmp_path / "out.jsonl"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    def test_replaces_existing(self, tmp_path):
        target = tmp_path / "out.jsonl"
        target.write_text("old\n")
        atomic_write_text(target, "new\n")
        assert target.read_text() == "new\n"


class TestLoadJournal:
    def test_missing_and_empty_return_none(self, tmp_path):
        path = tmp_path / "absent.jsonl"
        assert load_journal(path, FP) is None
        path.write_text("")
        assert load_journal(path, FP) is None

    def test_events_recovered_in_order(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, [(0, "a"), (1, "b"), (2, "s")])
        recovery = load_journal(path, FP)
        assert recovery.snapshot_state is None
        assert recovery.events == (
            JournalEvent(0, "a"),
            JournalEvent(1, "b"),
            JournalEvent(2, "s"),
        )
        assert recovery.next_seq == 3
        assert not recovery.torn_tail

    def test_snapshot_resets_replay_suffix(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(
            path, [(0, "a"), (1, "a"), (2, "b")], snapshot_at=1
        )
        recovery = load_journal(path, FP)
        assert recovery.snapshot_seq == 1
        assert recovery.snapshot_state == {"marker": 1}
        assert [e.seq for e in recovery.events] == [2]
        assert recovery.next_seq == 3

    def test_torn_tail_discarded(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with LinkJournal(path, FP) as journal:
            journal.event(0, "a")
            journal.torn_event(1, "b")
        recovery = load_journal(path, FP)
        assert recovery.torn_tail
        assert [e.seq for e in recovery.events] == [0]
        assert recovery.next_seq == 1

    def test_midfile_corruption_is_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, [(0, "a"), (1, "b")])
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"crc"', '"cr c"')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="not the tail"):
            load_journal(path, FP)

    def test_duplicate_seq_is_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, [(0, "a"), (1, "b"), (1, "b")])
        with pytest.raises(JournalError, match="duplicate event seq"):
            load_journal(path, FP)

    def test_seq_gap_is_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, [(0, "a"), (2, "a")])
        with pytest.raises(JournalError, match="seq gap"):
            load_journal(path, FP)

    def test_foreign_fingerprint_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, [(0, "a")], fingerprint="0000000000000000")
        with pytest.raises(JournalError, match="fingerprint"):
            load_journal(path, FP)

    def test_unknown_version_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        header = encode_line(
            {
                "type": "header",
                "version": JOURNAL_VERSION + 1,
                "fingerprint": FP,
                "attempt": 0,
            }
        )
        path.write_text(header + "\n")
        with pytest.raises(JournalError, match="version"):
            load_journal(path, FP)

    def test_previous_snapshot_layout_refused(self, tmp_path):
        # Version 1 snapshots kept the decision counts on the replay
        # lane, not in the engine's state; such a journal must be
        # refused, not half-restored.
        assert JOURNAL_VERSION == 2
        path = tmp_path / "j.jsonl"
        header = encode_line(
            {"type": "header", "version": 1, "fingerprint": FP, "attempt": 0}
        )
        path.write_text(header + "\n")
        with pytest.raises(JournalError, match="version"):
            load_journal(path, FP)

    def test_unknown_event_kind_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, [(0, "x")])
        with pytest.raises(JournalError, match="unknown event kind"):
            load_journal(path, FP)

    def test_complete_unterminated_tail_is_kept(self, tmp_path):
        # The crash landed between the payload write and the newline:
        # the final record is complete and must not be dropped.
        path = tmp_path / "j.jsonl"
        write_journal(path, [(0, "a"), (1, "b")])
        path.write_text(path.read_text().rstrip("\n"))
        recovery = load_journal(path, FP)
        assert not recovery.torn_tail
        assert [e.seq for e in recovery.events] == [0, 1]


class TestFindRecovery:
    def test_newest_prior_attempt_wins(self, tmp_path):
        prefix = tmp_path / "link-0"
        write_journal(journal_path(prefix, 0), [(0, "a")])
        write_journal(
            journal_path(prefix, 1), [(0, "a"), (1, "b")], attempt=1
        )
        recovery = find_recovery(prefix, 2, FP)
        assert recovery.attempt == 1
        assert recovery.next_seq == 2

    def test_attempt_zero_recovers_nothing(self, tmp_path):
        assert find_recovery(tmp_path / "link-0", 0, FP) is None

    def test_skips_missing_epochs(self, tmp_path):
        prefix = tmp_path / "link-0"
        write_journal(journal_path(prefix, 0), [(0, "b")])
        recovery = find_recovery(prefix, 3, FP)
        assert recovery.attempt == 0
