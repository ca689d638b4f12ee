"""The fault adapters' one decision: a pending one-shot trap fires before
the probability and is noted ``forced``; otherwise the RNG is drawn, and
only when the probability is non-zero. A misdirected write has no
probability: only its trap fires it."""

import random

import pytest

from repro.faults import DiskFaults, LinkFaults, NicFaults
from repro.sim import Simulator, Tracer

DATA = ("f", 0, 0)

#: mode -> (adapter class, probability attribute or None, trap attribute
#: or None, fields the ``fault`` event carries between ``mode`` and
#: ``forced``, one decision, the decision's value when no fault fires).
MODES = {
    "link.drop": (LinkFaults, "drop_p", "drop_next", ["src", "dst"],
                  lambda f: f.frame_fate("A", "B"), ("ok", 0.0)),
    "link.delay": (LinkFaults, "delay_p", "delay_next", ["src", "dst", "us"],
                   lambda f: f.frame_fate("A", "B"), ("ok", 0.0)),
    "nic.doorbell_stall": (NicFaults, "stall_p", "stall_next", ["us"],
                           lambda f: f.doorbell_delay(), 0.0),
    "nic.ordma_reject": (NicFaults, "ordma_reject_p", "ordma_reject_next",
                         [], lambda f: f.ordma_reject(), False),
    "nic.ordma_corrupt": (NicFaults, "ordma_corrupt_p", "ordma_corrupt_next",
                          [], lambda f: f.ordma_corrupt(), False),
    "disk.io_error": (DiskFaults, "error_p", "error_next", [],
                      lambda f: f.io_plan(), (False, 0.0)),
    "disk.delay": (DiskFaults, "delay_p", None, ["us"],
                   lambda f: f.io_plan(), (False, 0.0)),
    "disk.bitrot": (DiskFaults, "bitrot_p", "bitrot_next", [],
                    lambda f: f.bitrot_payload(DATA), DATA),
    "disk.misdirect": (DiskFaults, None, "misdirect_next", [],
                       lambda f: f.misdirect_payload(DATA), DATA),
}
TRAPPED = sorted(m for m in MODES if MODES[m][2] is not None)
DRAWN = sorted(m for m in MODES if MODES[m][1] is not None)


def make(mode):
    """A fresh adapter for ``mode`` with a traced simulator; every
    probability 0 and every trap unset. Delays and stalls are non-zero,
    so one that fires changes the decision's value."""
    sim = Simulator()
    tracer = Tracer.attach(sim)
    adapter = MODES[mode][0](sim, random.Random(7))
    adapter.delay_us = adapter.stall_us = 5.0
    return adapter, tracer


def decide(adapter, mode):
    """One decision: (did the fault fire?, its ``fault`` event or None)."""
    before = len(adapter.sim.tracer)
    value = MODES[mode][4](adapter)
    events = adapter.sim.tracer.filter(kind="fault")[before:]
    assert len(events) <= 1
    return value != MODES[mode][5], (events[0] if events else None)


@pytest.mark.parametrize("mode", TRAPPED)
def test_trap_fires_before_the_probability_and_is_forced(mode):
    adapter, _ = make(mode)
    _, p, trap, fields, _, _ = MODES[mode]
    if p is not None:
        setattr(adapter, p, 1.0)
    setattr(adapter, trap, 1)
    state = adapter.rng.getstate()
    fired, event = decide(adapter, mode)
    assert fired
    assert adapter.rng.getstate() == state  # the trap drew nothing
    assert getattr(adapter, trap) == 0
    assert list(event.detail) == ["cls", "mode", *fields, "forced"]
    assert event.detail["forced"] is True
    if p is None:
        # A spent trap of a trap-only mode leaves nothing to fire.
        assert decide(adapter, mode) == (False, None)
        assert adapter.rng.getstate() == state
        return
    # The trap is spent: the next decision draws, and is not forced.
    fired, event = decide(adapter, mode)
    assert fired
    assert adapter.rng.getstate() != state
    assert list(event.detail) == ["cls", "mode", *fields]
    assert adapter.stats.get(mode) == 2


@pytest.mark.parametrize("mode", DRAWN)
def test_drawn_fault_emits_one_event_without_forced(mode):
    adapter, _ = make(mode)
    _, p, _, fields, _, _ = MODES[mode]
    setattr(adapter, p, 1.0)
    fired, event = decide(adapter, mode)
    assert fired
    layer, name = mode.split(".")
    assert event.component == adapter.component
    assert list(event.detail) == ["cls", "mode", *fields]
    assert (event.detail["cls"], event.detail["mode"]) == (layer, name)
    assert adapter.stats.get(mode) == 1


@pytest.mark.parametrize("mode", sorted(MODES))
def test_zero_probability_and_no_trap_never_draws(mode):
    adapter, tracer = make(mode)
    state = adapter.rng.getstate()
    for _ in range(1000):
        assert decide(adapter, mode) == (False, None)
    assert adapter.rng.getstate() == state
    assert len(tracer) == 0
    assert adapter.stats.as_dict() == {}
