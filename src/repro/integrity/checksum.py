"""Block checksum primitives and the silent-corruption payload model.

Block content in this simulation is the logical tuple
``(name, index, version)`` (:data:`repro.fs.files.BlockContent`) — no
real bytes move. Silent corruption is therefore modelled by *wrapping*
a payload in a marker tuple whose first element can never be a file
name: the corrupted payload is a different Python value, so it produces
a different checksum, exactly as flipped bits would — but any consumer
that does not verify checksums consumes it as if it were clean data.

This module must stay dependency-free within ``repro`` (stdlib only):
:mod:`repro.proto.rpc` and :mod:`repro.hw.nic` import from it, and both
sit below every other integrity component in the import graph.
"""

from __future__ import annotations

import zlib
from typing import Any

#: Marker heading every corrupted payload. File names are caller-chosen
#: strings, but no workload names a file ``"!corrupt"`` — and the wrapped
#: tuple also differs in shape from multi-block payloads (whose elements
#: are block tuples, not strings).
CORRUPT_MARKER = "!corrupt"


class IntegrityError(RuntimeError):
    """A block failed checksum verification and could not be repaired.

    Raised by the server's verify/re-read ladder (and surfaced to RPC
    clients as an ``EINTEGRITY`` error reply), by the shard router when
    every replica of a block fails verification, and by the scrubber's
    repair path. Deliberately *not* a subclass of
    :class:`repro.proto.rpc.RPCError`: callers that must distinguish
    "the server is unreachable" from "the data is bad" catch the two
    types separately.
    """


def block_checksum(data: Any) -> int:
    """The checksum of one logical payload (CRC32 of its ``repr``).

    ``repr`` rather than ``hash()``: builtin string hashing is salted
    per process (``PYTHONHASHSEED``), which would break the byte-identical
    serial-vs-``--jobs`` campaign contract. CRC32 of the canonical repr
    is stable across processes and interpreter restarts.
    """
    return zlib.crc32(repr(data).encode())


def corrupt_payload(data: Any, mode: str) -> Any:
    """Wrap ``data`` as silently corrupted by ``mode`` (e.g. "bitrot").

    The wrapper flips the payload's identity — and therefore its
    checksum — without tripping any *detected* fault path: no exception,
    no dropped frame, no error reply. Only checksum verification (or
    :func:`is_corrupt`, the campaign-side oracle) can tell.
    """
    return (CORRUPT_MARKER, mode, data)


def is_corrupt(data: Any) -> bool:
    """Whether ``data`` (or any nested block of it) is corrupted.

    Multi-block payloads are tuples of per-block tuples; the check
    recurses so a campaign can ask "did corrupt data reach the
    application?" about any read result. This is the *oracle*, not the
    detector — the simulated systems themselves only learn about
    corruption through checksum verification.
    """
    if isinstance(data, tuple):
        if len(data) == 3 and data[0] == CORRUPT_MARKER:
            return True
        return any(is_corrupt(item) for item in data)
    return False
