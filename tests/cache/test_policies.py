"""Unit tests for the LRU and Multi-Queue replacement policies."""

import pytest

from repro.cache.lru import LRUPolicy
from repro.cache.mq import NUM_QUEUES, MQPolicy


@pytest.fixture(params=["lru", "mq"])
def policy_factory(request):
    if request.param == "lru":
        return LRUPolicy
    return MQPolicy


class TestCommonPolicyBehaviour:
    def test_admit_under_capacity_evicts_nothing(self, policy_factory):
        policy = policy_factory(4)
        assert policy.admit("a") is None
        assert policy.admit("b") is None
        assert len(policy) == 2
        assert "a" in policy and "b" in policy

    def test_admit_over_capacity_evicts_one(self, policy_factory):
        policy = policy_factory(2)
        policy.admit("a")
        policy.admit("b")
        victim = policy.admit("c")
        assert victim in ("a", "b")
        assert len(policy) == 2
        assert victim not in policy

    def test_readmit_resident_key_is_noop(self, policy_factory):
        policy = policy_factory(2)
        policy.admit("a")
        policy.admit("b")
        assert policy.admit("a") is None
        assert len(policy) == 2

    def test_touch_missing_raises(self, policy_factory):
        policy = policy_factory(2)
        with pytest.raises(KeyError):
            policy.touch("ghost")

    def test_remove_is_idempotent(self, policy_factory):
        policy = policy_factory(2)
        policy.admit("a")
        policy.remove("a")
        policy.remove("a")
        assert "a" not in policy
        assert len(policy) == 0

    def test_capacity_validation(self, policy_factory):
        with pytest.raises(ValueError):
            policy_factory(0)

    def test_iteration_yields_all_members(self, policy_factory):
        policy = policy_factory(8)
        for key in "abcdef":
            policy.admit(key)
        assert sorted(policy) == list("abcdef")


class TestLRUOrdering:
    def test_evicts_least_recent(self):
        policy = LRUPolicy(3)
        for key in "abc":
            policy.admit(key)
        policy.touch("a")
        assert policy.admit("d") == "b"

    def test_sequential_scan_evicts_in_order(self):
        policy = LRUPolicy(3)
        victims = [policy.admit(i) for i in range(6)]
        assert victims == [None, None, None, 0, 1, 2]


class TestMQBehaviour:
    def test_frequency_protects_hot_blocks_from_scan(self):
        """A frequently accessed block must survive a one-touch scan that
        would evict it under LRU."""
        mq = MQPolicy(4)
        mq.life_time = 100
        mq.admit("hot")
        for _ in range(10):
            mq.touch("hot")
        victims = []
        for i in range(8):  # scan of cold one-touch keys
            victim = mq.admit(f"cold{i}")
            if victim:
                victims.append(victim)
        assert "hot" in mq
        assert all(v != "hot" for v in victims)

        lru = LRUPolicy(4)
        lru.admit("hot")
        for _ in range(10):
            lru.touch("hot")
        for i in range(8):
            lru.admit(f"cold{i}")
        assert "hot" not in lru  # LRU loses it

    def test_expiration_demotes_stale_blocks(self):
        mq = MQPolicy(4)
        mq.life_time = 2
        mq.admit("stale")
        for _ in range(8):
            mq.touch("stale")  # high queue
        # Lots of activity on other keys expires "stale" downwards.
        for i in range(30):
            mq.admit(f"k{i % 3}")
        entry = mq._entries["stale"]
        assert entry.queue < mq._queue_for(entry.freq)

    def test_history_restores_frequency(self):
        mq = MQPolicy(1)
        mq.life_time = 100
        mq.history_size = 16
        mq.admit("x")
        for _ in range(7):
            mq.touch("x")  # freq 8 -> queue 3
        assert mq.admit("a") == "x"  # x evicted into history (Qout)
        assert "x" not in mq
        mq.admit("x")  # returns: frequency restored from Qout
        assert mq._entries["x"].freq == 9
        assert mq._entries["x"].queue == mq._queue_for(9)

    def test_history_bounded(self):
        mq = MQPolicy(2)
        mq.history_size = 3
        for i in range(10):
            mq.admit(i)
        assert len(mq._history) <= 3

    def test_queue_index_formula(self):
        mq = MQPolicy(4)
        assert mq._queue_for(1) == 0
        assert mq._queue_for(2) == 1
        assert mq._queue_for(3) == 1
        assert mq._queue_for(4) == 2
        assert mq._queue_for(100) == 6
        assert mq._queue_for(1 << 20) == NUM_QUEUES - 1  # capped
