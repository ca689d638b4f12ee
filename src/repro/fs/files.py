"""Server-side file system namespace.

Files are modelled as inodes plus logical block content. A block's content
is the tuple ``(file name, block index, version)`` — enough for end-to-end
data-integrity checks across every transfer path (copies, RDMA, ORDMA)
without shuffling real bytes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

BlockContent = Tuple[str, int, int]


def block_range(offset: int, nbytes: int, block_size: int) -> range:
    """Indices of the blocks that bytes ``[offset, offset + nbytes)`` touch;
    an empty range touches none."""
    if nbytes <= 0:
        return range(0)
    return range(offset // block_size,
                 (offset + nbytes - 1) // block_size + 1)


def block_payload(contents: Sequence[BlockContent]) -> Any:
    """A read's payload: one block's content bare, several as a tuple."""
    return contents[0] if len(contents) == 1 else tuple(contents)


def payload_blocks(payload: Any, n_blocks: int) -> List[BlockContent]:
    """The per-block contents of an ``n_blocks`` :func:`block_payload`."""
    return list(payload) if n_blocks > 1 else [payload]


class FileSystemError(RuntimeError):
    """Namespace misuse: duplicate create, missing file, bad range."""


class Inode:
    """One file's metadata."""

    __slots__ = ("name", "size", "mtime", "block_versions")

    def __init__(self, name: str, size: int):
        self.name = name
        self.size = size
        self.mtime = 0.0
        #: Per-block version counters, bumped on write (sparse dict).
        self.block_versions: Dict[int, int] = {}

    def version_of(self, block_index: int) -> int:
        return self.block_versions.get(block_index, 0)


class FileSystem:
    """The server's exported namespace."""

    def __init__(self, block_size: int):
        if block_size <= 0:
            raise FileSystemError(f"bad block size: {block_size}")
        self.block_size = block_size
        self._files: Dict[str, Inode] = {}

    def create(self, name: str, size: int) -> Inode:
        if name in self._files:
            raise FileSystemError(f"file exists: {name!r}")
        if size < 0:
            raise FileSystemError(f"negative size: {size}")
        inode = Inode(name, size)
        self._files[name] = inode
        return inode

    def lookup(self, name: str) -> Inode:
        inode = self._files.get(name)
        if inode is None:
            raise FileSystemError(f"no such file: {name!r}")
        return inode

    def exists(self, name: str) -> bool:
        return name in self._files

    def remove(self, name: str) -> None:
        if name not in self._files:
            raise FileSystemError(f"no such file: {name!r}")
        del self._files[name]

    # -- block content ------------------------------------------------------

    def block_count(self, name: str) -> int:
        inode = self.lookup(name)
        return (inode.size + self.block_size - 1) // self.block_size

    def block_content(self, name: str, block_index: int) -> BlockContent:
        """The logical content of one block (what DMA engines move)."""
        inode = self.lookup(name)
        if not 0 <= block_index < self.block_count(name):
            raise FileSystemError(
                f"block {block_index} out of range for {name!r}")
        return (name, block_index, inode.version_of(block_index))

    def write_block(self, name: str, block_index: int,
                    now: float = 0.0) -> BlockContent:
        """Apply a write: bump the block version and mtime."""
        inode = self.lookup(name)
        if not 0 <= block_index < self.block_count(name):
            raise FileSystemError(
                f"block {block_index} out of range for {name!r}")
        inode.block_versions[block_index] = inode.version_of(block_index) + 1
        inode.mtime = now
        return self.block_content(name, block_index)

    def blocks_in_range(self, name: str, offset: int,
                        nbytes: int) -> List[int]:
        inode = self.lookup(name)
        if offset < 0 or nbytes < 0 or offset + nbytes > inode.size:
            raise FileSystemError(
                f"range [{offset}, {offset + nbytes}) outside {name!r} "
                f"of size {inode.size}")
        return list(block_range(offset, nbytes, self.block_size))
