"""Unit tests for the server file system namespace."""

import pytest

from repro.fs.files import FileSystem, FileSystemError, block_range


@pytest.fixture
def fs():
    return FileSystem(block_size=4096)


def test_create_and_lookup(fs):
    inode = fs.create("a", 10000)
    assert fs.lookup("a") is inode
    assert inode.size == 10000
    assert fs.exists("a")


def test_duplicate_create_rejected(fs):
    fs.create("a", 100)
    with pytest.raises(FileSystemError):
        fs.create("a", 100)


def test_lookup_missing_raises(fs):
    with pytest.raises(FileSystemError):
        fs.lookup("nope")


def test_remove(fs):
    fs.create("a", 100)
    fs.remove("a")
    assert not fs.exists("a")
    with pytest.raises(FileSystemError):
        fs.remove("a")


def test_block_count_rounds_up(fs):
    fs.create("a", 4096)
    fs.create("b", 4097)
    fs.create("c", 0)
    assert fs.block_count("a") == 1
    assert fs.block_count("b") == 2
    assert fs.block_count("c") == 0


def test_block_content_identity(fs):
    fs.create("a", 8192)
    assert fs.block_content("a", 0) == ("a", 0, 0)
    assert fs.block_content("a", 1) == ("a", 1, 0)
    with pytest.raises(FileSystemError):
        fs.block_content("a", 2)


def test_write_bumps_version_and_mtime(fs):
    fs.create("a", 4096)
    content = fs.write_block("a", 0, now=123.0)
    assert content == ("a", 0, 1)
    assert fs.lookup("a").mtime == 123.0
    assert fs.write_block("a", 0) == ("a", 0, 2)
    # Other blocks unaffected
    fs.create("b", 8192)
    fs.write_block("b", 1)
    assert fs.block_content("b", 0) == ("b", 0, 0)


def test_blocks_in_range(fs):
    fs.create("a", 16384)
    assert fs.blocks_in_range("a", 0, 4096) == [0]
    assert fs.blocks_in_range("a", 4095, 2) == [0, 1]
    assert fs.blocks_in_range("a", 0, 16384) == [0, 1, 2, 3]
    assert fs.blocks_in_range("a", 8192, 0) == []
    with pytest.raises(FileSystemError):
        fs.blocks_in_range("a", 8192, 16384)
    with pytest.raises(FileSystemError):
        fs.blocks_in_range("a", -1, 4096)


def test_block_range_of_an_empty_range_is_empty():
    assert list(block_range(4095, 2, 4096)) == [0, 1]
    assert list(block_range(8192, 4096, 4096)) == [2]
    for offset in (0, 4097, 8192):
        assert list(block_range(offset, 0, 4096)) == []


def test_bad_block_size():
    with pytest.raises(FileSystemError):
        FileSystem(block_size=0)


def test_negative_size_rejected(fs):
    with pytest.raises(FileSystemError):
        fs.create("a", -1)
