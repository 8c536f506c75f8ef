"""Execution tracing: virtual-time task timelines and runtime events.

HPX ships APEX/OTF2 tracing to show where HPX-threads ran and when; the
paper's latency-hiding claim ("network latencies can be hidden under
compute") is exactly the kind of statement a task timeline proves.  This
module records every task's (worker, start, finish, description) on the
virtual clock plus discrete runtime *events* -- work steals, parcel
send/receive/retry/drop, scheduled locality outages -- and renders a
text Gantt chart or exports the whole timeline as Chrome trace-event
JSON for Perfetto / ``chrome://tracing``.

Usage::

    tracer = Tracer()
    with tracer.attach(pool):            # or attach to every pool of a runtime
        ...run work...
    print(tracer.render_gantt())
    tracer.export_chrome_trace("run.trace.json")
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from ..errors import RuntimeStateError
from . import context as ctx

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Runtime
    from .threads.pool import ThreadPool

__all__ = ["TaskRecord", "TraceEvent", "Tracer"]


@dataclass(frozen=True, slots=True)
class TaskRecord:
    """One executed task on the virtual timeline."""

    pool: str
    worker_id: int
    tid: int
    description: str
    ready_time: float
    start_time: float
    finish_time: float

    @property
    def duration(self) -> float:
        return self.finish_time - self.start_time

    @property
    def queue_delay(self) -> float:
        """Time spent runnable but not running (scheduler pressure)."""
        return max(0.0, self.start_time - self.ready_time)


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One discrete runtime event on the virtual timeline.

    ``kind`` is one of ``steal | parcel_send | parcel_recv |
    parcel_retry | parcel_drop | outage`` -- plus ``race`` and
    ``deadlock``, emitted by the :mod:`repro.analysis` sanitizers when
    they are attached with a tracer, and the overload-protection kinds
    ``parcel_shed | parcel_deferred | credit_stall | credit_resume |
    breaker_open | breaker_close | breaker_probe | phi_confirm`` when a
    runtime with an :class:`~repro.resilience.overload.OverloadController`
    is attached, and ``checkpoint_corrupt_skipped`` (warning level: a retained
    checkpoint epoch failed verification during restore and was
    skipped; ``args`` carries the epoch and size).  ``pool``/``worker_id``
    locate the event when known (parcel events carry the locality pool
    of their sender/receiver); ``parcel_id`` correlates the send and
    receive sides of one parcel, which is what the Chrome-trace flow
    arrows are drawn from.
    """

    kind: str
    time: float
    pool: str = ""
    worker_id: int | None = None
    parcel_id: int | None = None
    args: dict = field(default_factory=dict)


class Tracer:
    """Collects :class:`TaskRecord` and :class:`TraceEvent` entries."""

    def __init__(self) -> None:
        self.records: list[TaskRecord] = []
        self.events: list[TraceEvent] = []
        #: Real worker count per attached pool name -- the utilization
        #: denominator.  Workers that never ran a task still count.
        self.pool_workers: dict[str, int] = {}
        self._attached_pools: set[int] = set()

    # Attachment -----------------------------------------------------------------
    @contextmanager
    def attach(self, target: "ThreadPool | Runtime") -> Iterator["Tracer"]:
        """Instrument a pool (or every pool of a runtime) for the block.

        Attaching is not stackable: instrumenting a pool this tracer is
        already attached to raises :class:`RuntimeStateError` instead of
        double-wrapping it (which would duplicate every record).  If
        attachment fails partway, every patch already applied is
        restored before the error propagates.
        """
        pools = self._pools_of(target)
        runtime = target if hasattr(target, "localities") else None
        patched: list[tuple[object, str, object]] = []
        registered: list[int] = []
        try:
            for pool in pools:
                if id(pool) in self._attached_pools:
                    raise RuntimeStateError(
                        f"tracer is already attached to pool {pool.name!r}"
                    )
                self._attached_pools.add(id(pool))
                registered.append(id(pool))
                self.pool_workers[pool.name] = pool.n_workers
                self._patch_pool(pool, patched)
            if runtime is not None:
                self._patch_parcelport(runtime, patched)
                self._patch_checkpoint_hook(runtime, patched)
                self._record_outages(runtime)
            yield self
        finally:
            for obj, attr, original in reversed(patched):
                setattr(obj, attr, original)
            for pool_id in registered:
                self._attached_pools.discard(pool_id)

    def _patch_pool(self, pool: "ThreadPool", patched: list) -> None:
        original = pool._execute

        def traced_execute(task, worker, pool=pool, original=original):
            original(task, worker)
            self.records.append(
                TaskRecord(
                    pool=pool.name,
                    worker_id=worker.worker_id,
                    tid=task.tid,
                    description=task.description,
                    ready_time=task.ready_time,
                    start_time=task.start_time,
                    finish_time=task.finish_time,
                )
            )

        pool._execute = traced_execute  # type: ignore[method-assign]
        patched.append((pool, "_execute", original))

        scheduler = pool.scheduler
        if hasattr(scheduler, "steals"):
            orig_acquire = scheduler.acquire

            def traced_acquire(
                worker_id, scheduler=scheduler, orig=orig_acquire, pool=pool
            ):
                before = scheduler.steals
                task = orig(worker_id)
                if task is not None and scheduler.steals > before:
                    self.events.append(
                        TraceEvent(
                            kind="steal",
                            time=max(
                                task.ready_time,
                                pool.workers[worker_id].available_at,
                            ),
                            pool=pool.name,
                            worker_id=worker_id,
                            args={"tid": task.tid},
                        )
                    )
                return task

            scheduler.acquire = traced_acquire  # type: ignore[method-assign]
            patched.append((scheduler, "acquire", orig_acquire))

    def _patch_parcelport(self, runtime: "Runtime", patched: list) -> None:
        port = runtime.parcelport

        def sender_frame() -> tuple[str, int | None]:
            frame = ctx.current_or_none()
            if frame is not None and frame.pool is not None:
                return frame.pool.name, frame.worker_id
            return "", None

        for attr, kind in (("send", "parcel_send"), ("retransmit", "parcel_retry")):
            original = getattr(port, attr)

            def traced_send(parcel, original=original, kind=kind):
                pool_name, worker_id = sender_frame()
                self.events.append(
                    TraceEvent(
                        kind=kind,
                        time=parcel.send_time,
                        pool=pool_name,
                        worker_id=worker_id,
                        parcel_id=parcel.parcel_id,
                        args={"attempt": parcel.attempts + 1},
                    )
                )
                return original(parcel)

            setattr(port, attr, traced_send)
            patched.append((port, attr, original))

        orig_router = port._router
        if orig_router is not None:

            def traced_router(parcel, arrival_time, original=orig_router):
                self.events.append(
                    TraceEvent(
                        kind="parcel_recv",
                        time=arrival_time,
                        pool="",
                        parcel_id=parcel.parcel_id,
                    )
                )
                return original(parcel, arrival_time)

            port._router = traced_router
            patched.append((port, "_router", orig_router))

        orig_loss = port._handle_loss

        def traced_loss(parcel, reason, original=orig_loss):
            self.events.append(
                TraceEvent(
                    kind="parcel_drop",
                    time=parcel.send_time,
                    parcel_id=parcel.parcel_id,
                    args={"reason": reason, "attempt": parcel.attempts},
                )
            )
            return original(parcel, reason)

        port._handle_loss = traced_loss  # type: ignore[method-assign]
        patched.append((port, "_handle_loss", orig_loss))

        controller = getattr(port, "overload", None)
        if controller is not None:
            orig_hook = controller.event_hook

            def overload_hook(kind, time, parcel_id, args, original=orig_hook):
                self.events.append(
                    TraceEvent(kind=kind, time=time, parcel_id=parcel_id, args=args)
                )
                if original is not None:
                    original(kind, time, parcel_id, args)

            controller.event_hook = overload_hook
            patched.append((controller, "event_hook", orig_hook))


    def _patch_checkpoint_hook(self, runtime: "Runtime", patched: list) -> None:
        orig_ckpt_hook = runtime.checkpoint_event_hook

        def checkpoint_hook(kind, time, args, original=orig_ckpt_hook):
            self.events.append(TraceEvent(kind=kind, time=time, args=args))
            if original is not None:
                original(kind, time, args)

        runtime.checkpoint_event_hook = checkpoint_hook
        patched.append((runtime, "checkpoint_event_hook", orig_ckpt_hook))

    def _record_outages(self, runtime: "Runtime") -> None:
        injector = getattr(runtime, "fault_injector", None)
        if injector is None:
            return
        for failure in injector.locality_failures:
            self.events.append(
                TraceEvent(
                    kind="outage",
                    time=failure.at,
                    pool=f"locality-{failure.locality_id}",
                    args={"until": failure.until},
                )
            )

    @staticmethod
    def _pools_of(target) -> list["ThreadPool"]:
        if hasattr(target, "localities"):
            return [loc.pool for loc in target.localities]
        if hasattr(target, "_execute"):
            return [target]
        raise RuntimeStateError(f"cannot attach tracer to {type(target).__name__}")

    # Analysis --------------------------------------------------------------------
    def by_worker(self) -> dict[tuple[str, int], list[TaskRecord]]:
        lanes: dict[tuple[str, int], list[TaskRecord]] = {}
        for record in self.records:
            lanes.setdefault((record.pool, record.worker_id), []).append(record)
        for lane in lanes.values():
            lane.sort(key=lambda r: r.start_time)
        return lanes

    def events_of(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def parcel_latencies(self) -> dict[int, float]:
        """First-send to first-receive virtual latency per parcel id."""
        sends: dict[int, float] = {}
        for event in self.events:
            if event.kind == "parcel_send" and event.parcel_id not in sends:
                sends[event.parcel_id] = event.time
        latencies: dict[int, float] = {}
        for event in self.events:
            if (
                event.kind == "parcel_recv"
                and event.parcel_id in sends
                and event.parcel_id not in latencies
            ):
                latencies[event.parcel_id] = max(
                    0.0, event.time - sends[event.parcel_id]
                )
        return latencies

    @property
    def makespan(self) -> float:
        return max((r.finish_time for r in self.records), default=0.0)

    def _worker_count(self, pool: str | None, records: list[TaskRecord]) -> int:
        """Utilization denominator: the *real* worker count of every pool
        in view, falling back to observed lanes for pools attached by an
        older tracer state (or never attached at all)."""
        pool_names = {r.pool for r in records}
        if pool is not None:
            pool_names &= {pool}
        total = 0
        for name in pool_names:
            observed = len({r.worker_id for r in records if r.pool == name})
            total += max(self.pool_workers.get(name, 0), observed)
        return total

    def busy_fraction(self, pool: str | None = None) -> float:
        """Fraction of (workers x makespan) spent executing tasks.

        The denominator uses each pool's *real* worker count (captured
        at attach time), so workers that executed nothing still count as
        idle capacity -- a 1-busy-of-8-workers pool reports 12.5%, not
        100%.
        """
        records = [r for r in self.records if pool is None or r.pool == pool]
        if not records:
            return 0.0
        span = max(r.finish_time for r in records)
        if span == 0.0:
            return 0.0
        n_workers = self._worker_count(pool, records)
        if n_workers == 0:
            return 0.0
        busy = sum(r.duration for r in records)
        return busy / (span * n_workers)

    def idle_rate(self, pool: str | None = None) -> float:
        """Complement of :meth:`busy_fraction` (HPX's idle-rate view)."""
        records = [r for r in self.records if pool is None or r.pool == pool]
        if not records:
            return 0.0
        return max(0.0, 1.0 - self.busy_fraction(pool))

    def total_queue_delay(self) -> float:
        return sum(r.queue_delay for r in self.records)

    # Export ----------------------------------------------------------------------
    def export_chrome_trace(self, path: str | None = None) -> str:
        """Chrome trace-event JSON (spans, instants, parcel flow arrows).

        Returns the JSON text; with ``path`` it is also written to disk.
        Load the file in Perfetto (https://ui.perfetto.dev) or
        ``chrome://tracing`` -- see ``docs/observability.md``.
        """
        from ..observability.chrome_trace import export_chrome_trace

        return export_chrome_trace(self, path)

    # Rendering -------------------------------------------------------------------
    def render_gantt(
        self, width: int = 72, min_duration: float = 0.0, exclude: str | None = None
    ) -> str:
        """Text Gantt chart: one lane per worker, ``#`` marks busy time.

        ``@`` marks spans stacked on one worker -- this is *suspension*,
        not double-booking: a task that blocked on a future stays on its
        lane while the helper tasks it ran nest inside its span.

        The busy/idle summary line divides by the pools' real worker
        counts, so lanes that never ran a task still count as idle
        capacity.

        ``min_duration`` filters out zero-cost bookkeeping tasks;
        ``exclude`` drops tasks whose description contains the substring
        (e.g. ``"hpx_main"`` to hide the blocking driver).
        """
        records = [
            r
            for r in self.records
            if r.duration >= min_duration
            and (exclude is None or exclude not in r.description)
        ]
        if not records:
            return "(no traced tasks)"
        span = max(r.finish_time for r in records)
        if span <= 0.0:
            return "(all traced tasks at t=0)"
        scale = (width - 1) / span
        n_workers = self._worker_count(None, self.records)
        lines = [
            f"virtual time 0 .. {span:.4g}s  ({width} cols)  "
            f"busy {self.busy_fraction():.1%} / idle {self.idle_rate():.1%} "
            f"of {n_workers} workers"
        ]
        lanes: dict[tuple[str, int], list[str]] = {}
        for record in sorted(records, key=lambda r: (r.pool, r.worker_id)):
            key = (record.pool, record.worker_id)
            lane = lanes.setdefault(key, [" "] * width)
            lo = int(record.start_time * scale)
            hi = max(lo + 1, int(record.finish_time * scale))
            for i in range(lo, min(hi, width)):
                lane[i] = "#" if lane[i] == " " else "@"  # '@' = suspended span
        for (pool, worker_id), lane in sorted(lanes.items()):
            lines.append(f"{pool}/w{worker_id:<2} |{''.join(lane)}|")
        return "\n".join(lines)
