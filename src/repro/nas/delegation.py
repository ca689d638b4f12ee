"""Open delegations.

DAFS open delegations let a client satisfy repeat opens and closes of a
file locally (Section 5.2: "After the first open of a file, which grants
the client an open delegation, each subsequent open or close for that file
is satisfied locally"). Read delegations are shared; a write delegation is
exclusive. On conflict the server recalls outstanding delegations by
piggybacking recall notices on its next response to each holder.
"""

from __future__ import annotations

from typing import Dict, List, Set

READ = "read"
WRITE = "write"


class DelegationTable:
    """Server-side delegation state."""

    def __init__(self):
        #: name -> {client: mode}
        self._grants: Dict[str, Dict[str, str]] = {}
        #: client -> names whose delegation must be recalled
        self._recalls: Dict[str, Set[str]] = {}

    def grant(self, name: str, client: str, mode: str = READ) -> bool:
        """Try to grant ``client`` a delegation; returns True on success.

        A conflicting request is denied *and* recalls existing holders
        (they learn via :meth:`take_recalls` piggybacking).
        """
        if mode not in (READ, WRITE):
            raise ValueError(f"bad delegation mode: {mode}")
        holders = self._grants.setdefault(name, {})
        conflicting = [c for c, m in holders.items()
                       if c != client and (mode == WRITE or m == WRITE)]
        if conflicting:
            for other in conflicting:
                self._recalls.setdefault(other, set()).add(name)
                holders.pop(other, None)
            return False
        holders[client] = mode
        return True

    def release(self, name: str, client: str) -> None:
        holders = self._grants.get(name)
        if holders:
            holders.pop(client, None)
            if not holders:
                del self._grants[name]

    def take_recalls(self, client: str) -> List[str]:
        """Names whose delegations ``client`` must drop (cleared on read)."""
        names = self._recalls.pop(client, None)
        return sorted(names) if names else []
