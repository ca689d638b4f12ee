"""End-to-end data integrity: checksums, silent corruption, scrubbing.

The direct-access read path deliberately bypasses the server CPU
(Section 4), which means the server can never vet the bytes a client
DMAs out of its cache — and every fault the simulator injected before
this package was *detected* (CRC-dropped frames, timeouts, crashes).
This package adds the missing failure class and its defence:

* :mod:`~repro.integrity.checksum` — the per-block checksum model and
  the silent-corruption payload wrappers (plus :func:`is_corrupt`, the
  campaign-side oracle), and the typed :class:`IntegrityError`;
* :mod:`~repro.integrity.store` — checksum metadata recorded at write
  time on the server (the reliable-metadata model);
* :mod:`~repro.integrity.scrub` — the background scrubber walking a
  server's cached blocks.

Enable with ``params.integrity.enabled``; inject silent faults with
:meth:`repro.faults.Injector.disk_bitrot` and
:meth:`~repro.faults.Injector.ordma_silent_corruption`, or misdirect the
next writes with the disk adapter's ``misdirect_next`` trap; sweep them
with ``repro-bench scrub``.
"""

from .checksum import (CORRUPT_MARKER, IntegrityError, block_checksum,
                       corrupt_payload, is_corrupt)
from .scrub import Scrubber
from .store import ChecksumStore

__all__ = [
    "CORRUPT_MARKER",
    "ChecksumStore",
    "IntegrityError",
    "Scrubber",
    "block_checksum",
    "corrupt_payload",
    "is_corrupt",
]
