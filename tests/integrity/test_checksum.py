"""Unit tests for the checksum model and the server-side checksum store."""

import pytest

from repro.fs.files import FileSystem
from repro.integrity import (CORRUPT_MARKER, ChecksumStore, IntegrityError,
                             block_checksum, corrupt_payload, is_corrupt)
from repro.params import KB


class TestBlockChecksum:
    def test_checksum_is_deterministic(self):
        data = ("f", 3, 1)
        assert block_checksum(data) == block_checksum(("f", 3, 1))

    def test_checksum_distinguishes_contents(self):
        assert block_checksum(("f", 3, 1)) != block_checksum(("f", 3, 2))
        assert block_checksum(("f", 3, 1)) != block_checksum(("g", 3, 1))

    def test_corruption_changes_the_checksum(self):
        data = ("f", 0, 1)
        assert block_checksum(corrupt_payload(data, "bitrot")) != \
            block_checksum(data)

    def test_checksum_survives_interpreter_hash_salting(self):
        # crc32 of repr, not hash(): the value must be a pure function of
        # the content so --jobs workers agree with the serial run.
        import subprocess
        import sys
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.integrity import block_checksum;"
             "print(block_checksum(('f', 3, 1)))"],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "12345"})
        assert int(out.stdout) == block_checksum(("f", 3, 1))


class TestCorruptPayload:
    def test_marker_and_mode(self):
        wrapped = corrupt_payload(("f", 0, 1), "misdirect")
        assert wrapped == (CORRUPT_MARKER, "misdirect", ("f", 0, 1))
        assert is_corrupt(wrapped)

    def test_clean_payloads_are_not_corrupt(self):
        assert not is_corrupt(("f", 0, 1))
        assert not is_corrupt(None)

    def test_is_corrupt_recurses_into_multi_block_payloads(self):
        # A multi-block read returns a tuple of per-block contents; the
        # campaign oracle must see one rotten block inside it.
        blocks = (("f", 0, 1), corrupt_payload(("f", 1, 1), "bitrot"),
                  ("f", 2, 1))
        assert is_corrupt(blocks)
        assert not is_corrupt(tuple(("f", i, 1) for i in range(3)))


class TestChecksumStore:
    def make_fs(self):
        fs = FileSystem(4 * KB)
        fs.create("f", 8 * 4 * KB)
        return fs

    def test_record_and_verify_round_trip(self):
        fs = self.make_fs()
        store = ChecksumStore(fs)
        store.record(("f", 0))
        assert store.verify(("f", 0), fs.block_content("f", 0))

    def test_verify_rejects_corrupted_data(self):
        fs = self.make_fs()
        store = ChecksumStore(fs)
        store.record(("f", 0))
        bad = corrupt_payload(fs.block_content("f", 0), "bitrot")
        assert not store.verify(("f", 0), bad)

    def test_expected_records_lazily_from_truth(self):
        fs = self.make_fs()
        store = ChecksumStore(fs)
        assert store.expected(("f", 2)) == \
            block_checksum(fs.block_content("f", 2))
        assert len(store) == 1

    def test_record_tracks_writes(self):
        fs = self.make_fs()
        store = ChecksumStore(fs)
        store.record(("f", 0))
        before = store.expected(("f", 0))
        fs.write_block("f", 0, now=10.0)
        store.record(("f", 0))
        assert store.expected(("f", 0)) != before
        assert store.verify(("f", 0), fs.block_content("f", 0))

    def test_forget_drops_a_file(self):
        fs = self.make_fs()
        store = ChecksumStore(fs)
        store.record(("f", 0))
        store.record(("f", 1))
        store.forget("f")
        assert len(store) == 0

    def test_integrity_error_is_typed(self):
        with pytest.raises(IntegrityError):
            raise IntegrityError("EINTEGRITY f#0: test")
        assert issubclass(IntegrityError, RuntimeError)
