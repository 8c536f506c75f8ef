"""What every workload shares: seeded inputs, samples, checks and counts."""

from __future__ import annotations

from collections import defaultdict

from ..common import Checks, median, min_samples_for, percentile
from ..tracing import Spans


class Workload:
    """One workload: fixed work per round, derived from the seed.

    ``run_round`` does one round, checks its outputs into ``checks``,
    records timing samples (tagged with the round) when ``record`` is
    true, and returns the round's counts (see
    :class:`~perfbench.common.Ledger`).  ``slowdown[round]`` is the host's
    speed during that round relative to nominal (see
    :class:`~perfbench.common.HostProbe`); rates are multiplied by it and
    times divided by it.
    """

    #: Bytes moved per lattice-site update, as the paper counts them
    #: (computed from the kernel's loads and stores, not measured).
    BYTES_PER_LUP = 24

    def __init__(self, seed: int, spans: Spans, checks: Checks) -> None:
        self.seed = seed
        self.spans = spans
        self.checks = checks
        self.samples: dict[str, list[tuple[int, float]]] = defaultdict(list)
        self.slowdown: dict[int, float] = {}
        self.rounds_run = 0

    def run_round(self, record: bool) -> dict[str, float]:
        op = f"round-{self.rounds_run}"
        self.rounds_run += 1
        return self.round(op, record)

    def round(self, op: str, record: bool) -> dict[str, float]:
        raise NotImplementedError

    def record(self, key: str, *values: float) -> None:
        self.samples[key].extend((self.rounds_run - 1, v) for v in values)

    def rates(self, key: str) -> list[float]:
        """Rate samples scaled to nominal host speed."""
        return [v * self.slowdown.get(r, 1.0) for r, v in self.samples[key]]

    def times(self, key: str) -> list[float]:
        """Time samples scaled to nominal host speed."""
        return [v / self.slowdown.get(r, 1.0) for r, v in self.samples[key]]

    def raw(self, key: str) -> list[float]:
        return [v for _r, v in self.samples[key]]

    #: Sample key of the workload's ``ops_per_s``.
    OPS_KEY = "tasks_per_s"
    #: Reference tasks that gauge host speed for this workload (see
    #: :class:`~perfbench.common.HostProbe`): what its time is bound by.
    PROBES: tuple[str, ...] = ("python",)
    #: Exponent on the probes' slowdown: how much of the workload's time
    #: moves with what they gauge.
    PROBE_POWER = 1.0

    def end_to_end(self) -> dict[str, float]:
        """``lups_per_s``, ``ops_per_s`` and ``latency_ms_p50``, scaled."""
        return {
            "lups_per_s": median(self.rates("lups_per_s")),
            "ops_per_s": median(self.rates(self.OPS_KEY)),
            "latency_ms_p50": percentile(self.times("latency_ms"), 50),
        }

    def details(self) -> dict[str, tuple[float, str]]:
        """Workload-specific figures under their own names, as measured
        (not scaled to nominal host speed), for the report."""
        return {}

    def close(self) -> None:
        """Release what the workload holds across rounds."""


def with_tails(
    out: dict[str, tuple[float, str]], prefix: str, values: list[float], unit: str
) -> dict[str, tuple[float, str]]:
    """Add ``<prefix>_p50`` and each of p90/p99 that has 10 samples beyond it."""
    out[f"{prefix}_p50"] = (median(values), unit)
    for q in (90, 99):
        if len(values) >= min_samples_for(q):
            out[f"{prefix}_p{q}"] = (percentile(values, q), unit)
    return out
