"""Parcel-path microbenchmark: cross-locality action storms.

The pytest-benchmark twin of ``repro bench``'s ``parcel_storm`` entry:
every invocation pays the parcel path -- encode, route, handler spawn,
reply -- over the loopback port, with the default ``parcel.zero_copy``
fast path and with it switched off (the decode path).  Both variants
assert the same virtual makespan fingerprint, so a speed-up that moved
the model's answer would fail here before it ever reached the committed
baseline.
"""

from repro.config import Config
from repro.runtime import Runtime, when_all

N = 300
PAYLOAD = list(range(64))


def _storm_handler(payload, i):
    return len(payload) + i


def _storm(config=None):
    with Runtime(n_localities=2, workers_per_locality=2, config=config) as rt:

        def main():
            futures = [
                rt.async_at(1, _storm_handler, PAYLOAD, i) for i in range(N)
            ]
            return sum(f.get() for f in when_all(futures).get())

        total = rt.run(main)
        return total, rt.makespan, rt.parcelport.parcels_sent


EXPECTED = sum(len(PAYLOAD) + i for i in range(N))


def test_parcel_storm_default_path(benchmark):
    total, makespan, parcels = benchmark(_storm)
    assert total == EXPECTED
    assert parcels >= N  # request parcels at minimum


def test_parcel_storm_decode_path(benchmark):
    """Zero-copy off: every delivery decodes, same answers."""
    _, makespan_default, parcels_default = _storm()
    config = Config(parcel__zero_copy=False)
    total, makespan, parcels = benchmark(_storm, config)
    assert total == EXPECTED
    assert makespan == makespan_default
    assert parcels == parcels_default
