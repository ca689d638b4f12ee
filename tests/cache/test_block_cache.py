"""Unit tests for the client block cache."""

import pytest

from repro.cache.block_cache import ClientFileCache
from repro.hw import Host
from repro.net import Switch
from repro.params import default_params
from repro.sim import Simulator


@pytest.fixture
def host():
    sim = Simulator()
    params = default_params()
    switch = Switch(sim, params.net)
    return Host(sim, params, switch, "h")


def make_cache(host, blocks=4):
    return ClientFileCache(host, 4096, blocks)


def insert(cache, key, data):
    """Claim a frame for ``key`` and fill it at once (a copy-in)."""
    block = cache.claim(key)
    cache.fill(block, data)
    return block


def test_probe_miss_then_insert_then_hit(host):
    cache = make_cache(host)
    assert cache.probe(("f", 0)) is None
    insert(cache, ("f", 0), "data0")
    block = cache.probe(("f", 0))
    assert block.data == "data0"
    assert cache.stats.get("hits") == 1
    assert cache.stats.get("misses") == 1


def test_eviction_at_capacity(host):
    cache = make_cache(host, blocks=2)
    insert(cache, ("f", 0), "d0")
    insert(cache, ("f", 1), "d1")
    insert(cache, ("f", 2), "d2")
    assert len(cache) == 2
    assert cache.probe(("f", 0)) is None  # LRU victim
    assert cache.stats.get("evictions") == 1


def test_buffers_are_pooled_and_reused(host):
    cache = make_cache(host, blocks=2)
    b0 = insert(cache, ("f", 0), "d0").buffer
    insert(cache, ("f", 1), "d1")
    b2 = insert(cache, ("f", 2), "d2").buffer  # reuses f0's frame
    assert b2 is b0


def test_pool_registered_once(host):
    cache = make_cache(host, blocks=3)
    assert len(host.nic.tpt._segments) == 3
    # Churn does not register anything new (registration caching).
    for i in range(10):
        insert(cache, ("f", i), f"d{i}")
    assert len(host.nic.tpt._segments) == 3


def test_claim_reserves_frame_before_fill(host):
    cache = make_cache(host)
    block = cache.claim(("f", 7))
    assert block.data is None
    assert cache._blocks[("f", 7)] is block
    cache.fill(block, "arrived")
    assert cache.probe(("f", 7)).data == "arrived"


def test_claim_existing_returns_same_block(host):
    cache = make_cache(host)
    first = insert(cache, ("f", 0), "d")
    again = cache.claim(("f", 0))
    assert again is first


def test_invalidate_frees_frame(host):
    cache = make_cache(host, blocks=1)
    insert(cache, ("f", 0), "d")
    assert cache.invalidate(("f", 0))
    assert not cache.invalidate(("f", 0))
    assert len(cache) == 0
    insert(cache, ("f", 1), "d1")  # frame available again
    assert cache.probe(("f", 1)).data == "d1"


def test_hit_ratio(host):
    cache = make_cache(host)
    insert(cache, ("f", 0), "d")
    cache.probe(("f", 0))
    cache.probe(("f", 1))
    assert cache.hit_ratio() == pytest.approx(0.5)


def test_validation(host):
    with pytest.raises(ValueError):
        make_cache(host, blocks=0)
    with pytest.raises(ValueError):
        ClientFileCache(host, 0, 4)
