"""Tracing for the per-layer run: spans from outside plus a profiler rollup.

Two sources, both kept in memory and written out when the run ends:

* **Spans** wrap the benchmark's own calls into each layer's public
  functions (``Runtime(...)``, ``initialize``, ``run``,
  ``async_at(...).get()``, gateway requests, ``run_one``, the journal
  audit).  A span has a name, start, end, parent span and an operation
  id shared by every span of one operation.  A span's self time is its
  duration minus the part its child spans cover.
* **Profiler rollup.**  :mod:`cProfile` measures every function's self
  time; :func:`layer_of_module` maps each ``repro`` module to a layer.
  Time spent in C code, NumPy or the standard library is charged to the
  ``repro`` layer that called it, split over callers in proportion to
  the time each caller spent there.  Time whose caller chain never
  reaches ``repro`` goes to ``bench.client`` (the benchmark's own load
  generator) or, failing that, ``other``.

With tracing off, :meth:`Spans.span` returns a shared no-op context, so
the timed runs pay one attribute lookup per call and nothing else.
"""

from __future__ import annotations

import contextlib
import cProfile
import json
import pstats
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Iterator

from .common import ROOT, SRC

#: Module prefix -> layer, most specific first.  Every module under
#: ``repro.runtime``, ``repro.stencil``, ``repro.simd``, ``repro.service``
#: and ``repro.resilience.checkpoint`` lands in a named layer.
LAYERS: tuple[tuple[str, str], ...] = (
    ("repro.runtime.threads", "runtime.threads"),
    ("repro.runtime.futures", "runtime.futures"),
    ("repro.runtime.lco", "runtime.lco"),
    ("repro.runtime.parcel", "runtime.parcel"),
    ("repro.runtime.agas", "runtime.agas"),
    ("repro.runtime.backend", "runtime.backend"),
    ("repro.runtime.algorithms", "runtime.algorithms"),
    # runtime.py, locality, context, actions, collectives, perfcounters,
    # replay, instrument, trace: the runtime's core and its seams.
    ("repro.runtime", "runtime.core"),
    ("repro.simd", "simd"),
    ("repro.stencil", "stencil"),
    ("repro.service.gateway", "service.gateway"),
    ("repro.service.jobs", "service.jobs"),
    ("repro.service.journal", "service.journal"),
    ("repro.service.scheduler", "service.scheduler"),
    ("repro.service.leases", "service.leases"),
    ("repro.service.admission", "service.admission"),
    ("repro.service.executor", "service.executor"),
    # service.py (JobService), clock, chaos, the package __init__.
    ("repro.service", "service.core"),
    ("repro.resilience.checkpoint", "resilience.checkpoint"),
    # config, errors, sim, perf, hardware, observability, the rest of
    # resilience: shared support code outside the layers above.
    ("repro", "support"),
)

#: Layers that are not part of the program under test.
CLIENT = "bench.client"
OTHER = "other"

_REPRO_DIR = str(SRC / "repro") + "/"
_BENCH_DIR = str(ROOT / "perfbench") + "/"


def module_of(filename: str) -> str | None:
    """Dotted ``repro`` module name for a source file, or None."""
    if not filename.startswith(_REPRO_DIR) or not filename.endswith(".py"):
        return None
    rel = filename[len(_REPRO_DIR) : -len(".py")].replace("/", ".")
    if rel.endswith("__init__"):
        rel = rel[: -len("__init__")].rstrip(".")
    return "repro" + ("." + rel if rel else "")


def layer_of_module(module: str) -> str:
    for prefix, layer in LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    raise KeyError(module)


def _category(func: tuple[str, int, str]) -> str:
    """What kind of native or stdlib time a leaf function spends."""
    filename, _line, name = func
    text = f"{filename} {name}"
    if "pickle" in text:
        return "pickle"
    if "fsync" in name:
        return "fsync"
    if "numpy" in text:
        return "numpy"
    if filename == "~" and any(
        word in name for word in ("poll", "select", "recv", "read", "wait")
    ):
        return "wait"
    if filename.endswith(("multiprocessing/connection.py", "selectors.py")):
        return "wait"
    return "native"


class Rollup:
    """Self time per (layer, category) from one :mod:`cProfile` session.

    ``category`` is ``python`` for a ``repro`` function's own bytecode and
    the leaf kind (``pickle``, ``fsync``, ``numpy``, ``wait``, ``native``)
    for time charged up from the code it called.
    """

    def __init__(self, profile: cProfile.Profile) -> None:
        self._stats: dict[Any, Any] = pstats.Stats(profile).stats  # type: ignore[attr-defined]
        self._layer_cache: dict[Any, str | None] = {}
        self._spread_cache: dict[Any, dict[str, float]] = {}
        self.seconds: dict[tuple[str, str], float] = defaultdict(float)
        for func, (_cc, _nc, tt, _ct, callers) in self._stats.items():
            layer = self._own_layer(func)
            if layer is not None:
                self.seconds[(layer, "python")] += tt
                continue
            kind = _category(func)
            for layer, share in self._split(callers, 2, frozenset({func})).items():
                self.seconds[(layer, kind)] += tt * share

    def _own_layer(self, func: tuple[str, int, str]) -> str | None:
        if func not in self._layer_cache:
            filename = func[0]
            module = module_of(filename)
            if module is not None:
                layer: str | None = layer_of_module(module)
            elif filename.startswith(_BENCH_DIR):
                layer = CLIENT
            else:
                layer = None
            self._layer_cache[func] = layer
        return self._layer_cache[func]

    def _split(
        self, callers: dict[Any, tuple], edge_index: int, skip: frozenset = frozenset()
    ) -> dict[str, float]:
        """Share of a unit of time per layer, walking up non-``repro`` callers.

        ``edge_index`` picks the per-edge weight: self time (2) for the
        leaf, cumulative time (3) further up.  Callers in ``skip`` are on
        the walk already (recursion), so their edges are left out.
        """
        edges = {caller: edge for caller, edge in callers.items() if caller not in skip}
        weights = {caller: edge[edge_index] for caller, edge in edges.items()}
        if sum(weights.values()) <= 0:
            weights = {caller: edge[1] for caller, edge in edges.items()}
        total = sum(weights.values())
        if total <= 0:
            return {OTHER: 1.0}
        out: dict[str, float] = defaultdict(float)
        for caller, weight in weights.items():
            for layer, part in self._spread(caller, skip).items():
                out[layer] += weight / total * part
        return out

    def _spread(self, func: tuple[str, int, str], skip: frozenset) -> dict[str, float]:
        layer = self._own_layer(func)
        if layer is not None:
            return {layer: 1.0}
        cached = self._spread_cache.get(func)
        if cached is not None:
            return cached
        entry = self._stats.get(func)
        if not entry or not entry[4]:
            return {OTHER: 1.0}  # entered before profiling began
        # Cached by function alone: a caller cycle met on another path
        # could split slightly differently, which the shares can afford.
        result = self._split(entry[4], edge_index=3, skip=skip | {func})
        self._spread_cache[func] = result
        return result

    def layer_seconds(self, layer: str, kind: str | None = None) -> float:
        if kind is not None:
            return self.seconds.get((layer, kind), 0.0)
        return sum(v for (name, _k), v in self.seconds.items() if name == layer)

    def layers(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for (layer, _kind), seconds in self.seconds.items():
            out[layer] += seconds
        return dict(out)

    def calls(self, module_suffix: str, name: str) -> int:
        """Primitive-plus-recursive call count of ``repro`` functions named
        ``name`` in modules ending with ``module_suffix``."""
        total = 0
        for (filename, _line, fname), (_cc, nc, *_rest) in self._stats.items():
            if fname == name and filename.endswith(module_suffix):
                total += nc
        return total

    def edge_calls(self, caller: tuple[str, str], callee: tuple[str, str]) -> int:
        """Calls from function ``caller`` to ``callee``, each given as
        (module file suffix, function name)."""
        total = 0
        for (filename, _line, fname), (_cc, _nc, _tt, _ct, callers) in self._stats.items():
            if fname != callee[1] or not filename.endswith(callee[0]):
                continue
            for (cfile, _cline, cname), edge in callers.items():
                if cname == caller[1] and cfile.endswith(caller[0]):
                    total += edge[1]
        return total

    def cumulative(self, module_suffix: str, name: str) -> float:
        """Cumulative seconds inside ``repro`` functions ``name`` of a module."""
        total = 0.0
        for (filename, _line, fname), (_cc, _nc, _tt, ct, _callers) in self._stats.items():
            if fname == name and filename.endswith(module_suffix):
                total += ct
        return total


class Spans:
    """In-memory span recorder; a no-op unless ``enabled``."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._null = contextlib.nullcontext()
        self.profile = cProfile.Profile()

    def span(self, name: str, op: str) -> contextlib.AbstractContextManager[Any]:
        if not self.enabled:
            return self._null
        return self._span(name, op)

    @contextlib.contextmanager
    def _span(self, name: str, op: str) -> Iterator[None]:
        span_id = len(self.records)
        parent = self._stack[-1] if self._stack else None
        record = {"id": span_id, "op": op, "name": name, "parent": parent}
        self.records.append(record)
        self._stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def profiled(self) -> Iterator[None]:
        """Profile the enclosed code when enabled (accumulates across uses)."""
        if not self.enabled:
            yield
            return
        self.profile.enable()
        try:
            yield
        finally:
            self.profile.disable()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total seconds and self seconds."""
        child_time: dict[int, float] = defaultdict(float)
        for record in self.records:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        out: dict[str, dict[str, float]] = {}
        for record in self.records:
            duration = record["end"] - record["start"]
            entry = out.setdefault(record["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[record["id"]]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.records, "totals": self.totals()}))
