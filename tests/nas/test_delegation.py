"""Unit tests for the delegation table."""

import pytest

from repro.nas.delegation import READ, WRITE, DelegationTable


@pytest.fixture
def table():
    return DelegationTable()


def holders(table, name):
    """The clients holding a delegation on ``name``, sorted."""
    return sorted(table._grants.get(name, {}))


def test_read_delegations_shared(table):
    assert table.grant("f", "c0", READ)
    assert table.grant("f", "c1", READ)
    assert holders(table, "f") == ["c0", "c1"]


def test_write_delegation_exclusive(table):
    assert table.grant("f", "c0", WRITE)
    # The conflicting request is denied, but it recalls the holder, so a
    # retry succeeds (the holder learns via its piggybacked recall).
    assert not table.grant("f", "c1", WRITE)
    assert "c0" not in holders(table, "f")
    assert table.take_recalls("c0") == ["f"]
    assert table.grant("f", "c1", WRITE)


def test_conflict_recalls_existing_readers(table):
    table.grant("f", "c0", READ)
    table.grant("f", "c1", READ)
    assert not table.grant("f", "c2", WRITE)
    assert table.take_recalls("c0") == ["f"]
    assert table.take_recalls("c1") == ["f"]
    # Recalls are consumed.
    assert table.take_recalls("c0") == []
    # The readers lost their delegations.
    assert "c0" not in holders(table, "f")


def test_same_client_upgrade_is_not_a_conflict(table):
    table.grant("f", "c0", READ)
    assert table.grant("f", "c0", WRITE)
    assert "c0" in holders(table, "f")


def test_release(table):
    table.grant("f", "c0", READ)
    table.release("f", "c0")
    assert "c0" not in holders(table, "f")
    assert holders(table, "f") == []
    table.release("f", "c0")  # idempotent


def test_write_then_read_conflict_recalls_writer(table):
    table.grant("f", "c0", WRITE)
    assert not table.grant("f", "c1", READ)
    assert table.take_recalls("c0") == ["f"]
    # After the recall, the reader can retry successfully.
    assert table.grant("f", "c1", READ)


def test_bad_mode_rejected(table):
    with pytest.raises(ValueError):
        table.grant("f", "c0", "exclusive-banana")


def test_recalls_accumulate_across_files(table):
    table.grant("a", "c0", READ)
    table.grant("b", "c0", READ)
    table.grant("a", "c1", WRITE)
    table.grant("b", "c1", WRITE)
    assert table.take_recalls("c0") == ["a", "b"]
