"""Regression tests for the silent-hang quiescence check (no detector).

Before this check existed, a job whose continuation chain was lost
(e.g. a future cycle) would quiesce *successfully*: ``rt.stop()``
returned, the demanded futures simply never fired, and the bug surfaced
as wrong answers far downstream.  The runtime itself must now flag that
-- warn by default, raise under ``runtime.quiescence="raise"`` -- even
when no sanitizer is attached.
"""

import warnings

import pytest

from repro.config import Config
from repro.errors import DeadlockError, QuiescenceWarning
from repro.runtime.futures import Promise, _SharedState, demand
from repro.runtime.lco.dataflow import dataflow
from repro.runtime.runtime import Runtime


def _wire_future_cycle():
    """Two dataflows forming a dependency cycle through a promise:
    f1 needs p1, f2 needs f1, and only f2's continuation would set p1."""
    p1 = Promise()
    f1 = dataflow(lambda x: x, p1.get_future())
    f2 = dataflow(lambda x: x, f1)
    f2.then(lambda f: p1.set_value(f.get()))


def test_two_future_cycle_raises_under_quiescence_raise():
    config = Config(runtime__quiescence="raise")
    with pytest.raises(DeadlockError, match="never become ready"):
        with Runtime(
            n_localities=1, workers_per_locality=2, config=config
        ) as rt:
            rt.run(_wire_future_cycle)


def test_two_future_cycle_warns_by_default():
    with pytest.warns(QuiescenceWarning, match="dataflow"):
        with Runtime(n_localities=1, workers_per_locality=2) as rt:
            rt.run(_wire_future_cycle)


def test_quiescence_ignore_mode_is_silent():
    config = Config(runtime__quiescence="ignore")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning would fail the test
        with Runtime(
            n_localities=1, workers_per_locality=2, config=config
        ) as rt:
            rt.run(_wire_future_cycle)


def test_clean_job_quiesces_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with Runtime(n_localities=1, workers_per_locality=2) as rt:
            def main():
                p = Promise()
                f = dataflow(lambda x: x + 1, p.get_future())
                p.set_value(41)
                return f.get()

            assert rt.run(main) == 42


def test_abandoned_channel_read_is_flagged():
    from repro.runtime.lco import Channel

    config = Config(runtime__quiescence="raise")
    holder = {}
    with pytest.raises(DeadlockError, match="channel.get"):
        with Runtime(
            n_localities=1, workers_per_locality=2, config=config
        ) as rt:
            def main():
                chan = Channel("halo")
                # Held but never fulfilled: a reachable lost read.  (A
                # get whose future is dropped entirely is garbage, not a
                # hang -- the demand registry is weak on purpose.)
                holder["pending"] = chan.get()
                holder["chan"] = chan

            rt.run(main)


def test_collected_earlier_demand_cannot_mask_a_new_one():
    """A demand pending when the run starts is not this run's to report;
    once collected, its id() can be reused by one of this run's states,
    which must still be reported."""
    earlier = [_SharedState()]
    demand(earlier[0], "earlier")
    held = []

    def main():
        earlier.clear()
        state = _SharedState()  # on CPython: the freed block, same id()
        demand(state, "lost")
        held.append(state)

    config = Config(runtime__quiescence="raise")
    with pytest.raises(DeadlockError, match="lost"):
        with Runtime(n_localities=1, workers_per_locality=1, config=config) as rt:
            rt.run(main)


def test_invalid_quiescence_mode_rejected():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        Config(runtime__quiescence="explode")
