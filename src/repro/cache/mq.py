"""Multi-Queue (MQ) replacement — Zhou, Philbin & Li, USENIX '01.

MQ is designed for second-level caches whose access stream has had its
recency filtered out by an upstream cache — exactly the situation of the
ODAFS client's ORDMA reference directory, which is consulted only on
client-cache misses (Section 4.2 suggests MQ as the better fit over LRU).

Structure: ``NUM_QUEUES`` LRU queues Q0..Qm-1 partitioned by access
frequency (queue index = floor(log2(freq)), capped), per-block expiry
after ``life_time`` accesses demotes stale blocks one level, and a FIFO
history ("Qout") remembers evicted blocks' frequencies so a quick return
resumes at full priority.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, Iterator, Optional

from .policy import ReplacementPolicy


#: Frequency levels: blocks touched 2**7 times or more share the top one.
NUM_QUEUES = 8


class _Entry:
    __slots__ = ("freq", "queue", "expire")

    def __init__(self, freq: int, queue: int, expire: int):
        self.freq = freq
        self.queue = queue
        self.expire = expire


class MQPolicy(ReplacementPolicy):
    """Multi-Queue replacement with history."""

    def __init__(self, capacity: int):
        super().__init__(capacity)
        #: Accesses a block may sit untouched before demotion; the authors
        #: recommend the peak temporal distance, ~capacity works well.
        self.life_time = capacity
        #: Evicted blocks whose frequency the history remembers.
        self.history_size = 4 * capacity
        self._queues = [OrderedDict() for _ in range(NUM_QUEUES)]
        self._entries: Dict[Hashable, _Entry] = {}
        self._history: "OrderedDict[Hashable, int]" = OrderedDict()
        self._clock = 0

    # -- internals ----------------------------------------------------------

    def _queue_for(self, freq: int) -> int:
        level = freq.bit_length() - 1  # floor(log2(freq)) for freq >= 1
        return min(level, NUM_QUEUES - 1)

    def _place(self, key: Hashable, freq: int) -> None:
        queue = self._queue_for(freq)
        self._entries[key] = _Entry(freq, queue,
                                    self._clock + self.life_time)
        self._queues[queue][key] = None

    def _adjust(self) -> None:
        """Demote expired heads one level (the MQ 'Adjust' step)."""
        for level in range(NUM_QUEUES - 1, 0, -1):
            queue = self._queues[level]
            if not queue:
                continue
            head = next(iter(queue))
            entry = self._entries[head]
            if entry.expire < self._clock:
                del queue[head]
                entry.queue = level - 1
                entry.expire = self._clock + self.life_time
                self._queues[level - 1][head] = None

    # -- policy interface ------------------------------------------------------

    def touch(self, key: Hashable) -> None:
        entry = self._entries.get(key)
        if entry is None:
            raise KeyError(f"touch of non-resident key {key!r}")
        self._clock += 1
        del self._queues[entry.queue][key]
        entry.freq += 1
        entry.queue = self._queue_for(entry.freq)
        entry.expire = self._clock + self.life_time
        self._queues[entry.queue][key] = None
        self._adjust()

    def admit(self, key: Hashable) -> Optional[Hashable]:
        if key in self._entries:
            self.touch(key)
            return None
        self._clock += 1
        victim = None
        if len(self._entries) >= self.capacity:
            victim = self._evict()
        freq = self._history.pop(key, 0) + 1  # resume remembered frequency
        self._place(key, freq)
        self._adjust()
        return victim

    def _evict(self) -> Hashable:
        for queue in self._queues:  # lowest non-empty queue's LRU head
            if queue:
                victim = next(iter(queue))
                del queue[victim]
                entry = self._entries.pop(victim)
                self._history[victim] = entry.freq
                while len(self._history) > self.history_size:
                    self._history.popitem(last=False)
                return victim
        raise RuntimeError("evict from empty MQ")  # pragma: no cover

    def remove(self, key: Hashable) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            del self._queues[entry.queue][key]

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Hashable]:
        for queue in self._queues:
            yield from queue
