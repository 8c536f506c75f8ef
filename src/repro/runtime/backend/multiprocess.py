"""The multiprocess backend: one OS process per locality, real cores.

Topology is hub-and-spoke: the driver process (locality 0, the one that
constructed the user's :class:`Runtime`) owns a duplex pipe to each
worker process and relays worker-to-worker traffic.  Every process runs
a full Runtime over the *same* locality count -- its own locality is the
one it executes; parcels routed anywhere else are intercepted at the
router and carried over the pipes in the existing encode-once wire
format (:mod:`repro.runtime.backend.wire`).

Each process reads and writes its pipe ends as raw non-blocking
descriptors, all registered once in one persistent ``select.poll``: a
message costs one framed ``os.write`` and, on the receiving side, one
poll and one ``os.read``.  A write the pipe cannot take at once keeps
reading inbound frames while it waits, so two processes writing to each
other never deadlock on full pipes.  A broken pipe raises
:class:`~repro.errors.RuntimeStateError` naming the locality.

Because each process is a real Python interpreter, per-locality worker
pools do real concurrent work outside the driver's GIL -- which is the
entire point: wall-clock speedup on multi-core hosts instead of modelled
speedup on the virtual clock.

What the virtual clock guarantees and this backend does not: virtual
timestamps are only locally monotonic (cross-process ``makespan`` is not
a job-wide clock), and anything defined *in terms of* the virtual clock
-- fault-injection windows, overload credits, the modelled
interconnects -- is rejected up front with a
:class:`~repro.errors.ConfigError` (see
``Runtime._check_distributed_config``; the schedule explorer rejects
the backend itself).

AGAS stays coherent by construction: every registration is mirrored to
every process (the home process receives the pickled component, others a
placeholder binding), with a synchronous resolve broker through the
driver as the fallback for a GID a process has never heard of.
"""
# This file IS the OS-process transport: the one place in the tree where
# real OS concurrency primitives are the point, not a bypass.
# repro-lint: disable-file=PX201

from __future__ import annotations

import os
import select
import warnings
from collections import deque
from typing import TYPE_CHECKING, Any

from ...errors import FutureAlreadySetError, RuntimeStateError
from ..parcel.parcel import Parcel
from ..parcel.serialization import serialize
from .base import ExecutionBackend
from .wire import FrameReader, decode_message, encode_message, frame, parcel_entry

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing.connection import Connection

    from ...config import Config
    from ..agas.component import Component
    from ..agas.gid import Gid
    from ..futures import Promise
    from ..runtime import Runtime

__all__ = ["MultiprocessBackend"]

#: Outbound parcel entries buffered before an automatic flush.
_OUTBOX_CAP = 64
#: Progress-loop steps between opportunistic transport polls.
_SERVICE_MASK = 0x3F
#: Bytes asked of one ``os.read``.  Larger requests cross glibc's mmap
#: threshold and cost an mmap/munmap pair per read (~20 us against ~3).
_READ_SIZE = 1 << 16
_POLLIN = select.POLLIN
_POLLOUT = select.POLLOUT
#: Poll events that mean the peer end is gone: treated as end-of-file.
_POLLCLOSED = select.POLLHUP | select.POLLERR | select.POLLNVAL


class _Channel:
    """This process's end of one duplex pipe, used as a raw descriptor.

    The descriptor is non-blocking: writes that would block fall back
    to :meth:`_PipeBackend._write_rest`, which keeps reading while it
    waits.  ``conn`` only owns the descriptor (it is closed at
    teardown); its own framing is never used.
    """

    __slots__ = ("peer", "conn", "fd", "reader", "open", "lost")

    def __init__(self, peer: int, conn: "Connection") -> None:
        self.peer = peer
        self.conn = conn
        self.fd = conn.fileno()
        self.reader = FrameReader()
        #: Registered with the poller; False once end-of-file was read.
        self.open = True
        #: Why the pipe failed, once it has.  Writes then raise at once.
        self.lost: str | None = None
        os.set_blocking(self.fd, False)


class _ReplyRelay:
    """Reply end of a parcel whose caller lives in another process.

    Stands where the parcel's reply :class:`~repro.runtime.futures.Promise`
    would, with the part of its interface the parcel layer uses on a
    reply end (``set_value``, ``set_exception``, ``is_ready``).
    Fulfilling it writes the ``reply`` message straight away, so serving
    a parcel costs its handler task and no delivery task.
    """

    __slots__ = ("backend", "origin", "seq", "ready")

    def __init__(self, backend: "_PipeBackend", origin: int, seq: int) -> None:
        self.backend = backend
        self.origin = origin
        self.seq = seq
        self.ready = False

    def is_ready(self) -> bool:
        return self.ready

    def set_value(self, value: Any = None) -> None:
        self._claim()
        try:
            data = serialize(value)
        except Exception as exc:  # unpicklable result
            self._send(False, serialize(exc))
        else:
            self._send(True, data)

    def set_exception(self, exc: BaseException) -> None:
        self._claim()
        self._send(False, serialize(exc))

    def _claim(self) -> None:
        if self.ready:
            raise FutureAlreadySetError("promise already satisfied")
        self.ready = True

    def _send(self, ok: bool, data: bytes) -> None:
        backend = self.backend
        backend._send(self.origin, ("reply", self.origin, self.seq, ok, data))
        backend.replies_sent += 1
        backend._activity = True


class _PipeBackend(ExecutionBackend):
    """Shared send/dispatch machinery for the driver and worker sides."""

    distributed = True

    def __init__(self) -> None:
        # Per-destination-locality parcel entries awaiting a flush (wire
        # coalescing: many parcels, one framed message).
        self._outbox: dict[int, list[tuple]] = {}
        self._outbox_size = 0
        # seq -> reply Promise for tokened sends originated here.
        self._tokens: dict[int, "Promise | _ReplyRelay"] = {}
        self._token_seq = 0
        self._resolve_seq = 0
        self._resolved: dict[int, int] = {}
        self._tick = 0
        #: Any wire sends since the last sync ack/round (termination
        #: detection reads and resets this).
        self._activity = False
        self._stopping = False
        # Transport: one poller for every pipe of this process, each fd
        # registered once.  Frames read but not yet dispatched wait in
        # ``_inbox`` as (channel, body); body None marks end-of-file.
        self._poller = select.poll()
        self._by_fd: dict[int, _Channel] = {}
        self._open_channels = 0
        self._inbox: deque[tuple[_Channel, bytes | None]] = deque()
        self._timeout = 0.0
        self._timeout_ms = 0
        # Counters (perfcounter sources; see /backend{total}/...).
        self.parcels_forwarded = 0
        self.parcels_received = 0
        self.parcels_relayed = 0
        self.replies_sent = 0
        self.replies_received = 0
        self.messages_sent = 0
        self.wire_bytes_sent = 0
        self.agas_creates = 0
        self.agas_resolves = 0
        self.sync_rounds = 0

    # Transport -------------------------------------------------------------
    def _set_timeout(self, seconds: float) -> None:
        self._timeout = seconds
        self._timeout_ms = max(1, int(seconds * 1000))

    def _add_channel(self, channel: _Channel) -> None:
        self._poller.register(channel.fd, _POLLIN)
        self._by_fd[channel.fd] = channel
        self._open_channels += 1

    def _send(self, destination: int, message: tuple) -> None:
        raise NotImplementedError

    def _write_message(self, channel: _Channel, message: tuple) -> None:
        data = encode_message(message)
        self.messages_sent += 1
        self.wire_bytes_sent += len(data)
        self._write(channel, frame(data))

    def _write(self, channel: _Channel, data: bytes) -> None:
        """Write one whole frame; never dispatches inbound traffic."""
        if channel.lost is not None:
            raise self._lost_error(channel)
        try:
            written = os.write(channel.fd, data)
        except BlockingIOError:
            written = 0
        except OSError as exc:
            self._fail(channel, f"write failed: {exc}")
        if written != len(data):
            self._write_rest(channel, memoryview(data)[written:])

    def _write_rest(self, channel: _Channel, rest: memoryview) -> None:
        """Finish a write the pipe could not take at once.

        While it waits for room, inbound frames on every pipe of this
        process are read into the inbox (not dispatched).  Two processes
        writing to each other therefore both make progress, instead of
        both blocking on full pipes with neither reading.
        """
        poller = self._poller
        fd = channel.fd
        poller.modify(fd, _POLLIN | _POLLOUT)
        try:
            while rest:
                events = poller.poll(self._timeout_ms)
                if not events:
                    self._fail(
                        channel,
                        f"a write made no progress for {self._timeout:g}s "
                        "(runtime.mp_stall_timeout_s)",
                    )
                for ready_fd, mask in events:
                    peer = self._by_fd[ready_fd]
                    if peer is channel and mask & _POLLOUT:
                        try:
                            rest = rest[os.write(fd, rest) :]
                        except BlockingIOError:
                            pass
                        except OSError as exc:
                            self._fail(channel, f"write failed: {exc}")
                    if mask & ~_POLLOUT:
                        self._read(peer, mask)
                if not channel.open:
                    self._fail(channel, "pipe closed during a write")
        finally:
            if channel.open:
                poller.modify(fd, _POLLIN)

    def _read(self, channel: _Channel, mask: int) -> None:
        """One read on a ready pipe: queue the frames it completed, or
        end-of-file when the peer end is gone."""
        if not channel.open:  # closed earlier in this batch of events
            return
        if mask & _POLLIN:
            try:
                chunk = os.read(channel.fd, _READ_SIZE)
            except BlockingIOError:
                return
            except OSError:
                chunk = b""  # connection reset: the peer is gone
            if chunk:
                inbox = self._inbox
                for body in channel.reader.feed(chunk):
                    inbox.append((channel, body))
                return
        elif not mask & _POLLCLOSED:
            return
        self._close_channel(channel)
        self._inbox.append((channel, None))

    def _close_channel(self, channel: _Channel) -> None:
        if channel.open:
            channel.open = False
            self._poller.unregister(channel.fd)
            self._open_channels -= 1

    def _fail(self, channel: _Channel, reason: str) -> None:
        """A pipe broke: remember why and raise the named error."""
        if channel.lost is None:
            channel.lost = reason
        self._close_channel(channel)
        self._peer_gone(channel.peer)
        raise self._lost_error(channel)

    def _lost_error(self, channel: _Channel) -> RuntimeStateError:
        raise NotImplementedError

    def _peer_gone(self, peer: int) -> None:
        """Bookkeeping when the process at the other end of a pipe is gone."""

    def _service(self, block: bool) -> bool:
        """Receive and dispatch pending messages; True if any arrived.

        Blocking waits are bounded by ``runtime.mp_stall_timeout_s``.
        """
        inbox = self._inbox
        if not inbox:
            if not self._open_channels:
                return False
            events = self._poller.poll(self._timeout_ms if block else 0)
            if not events:
                return False
            by_fd = self._by_fd
            for fd, mask in events:
                self._read(by_fd[fd], mask)
        while inbox:
            channel, body = inbox.popleft()
            if body is None:
                self._end_of_file(channel)
            else:
                self._dispatch(decode_message(body))
        self.flush()
        return True

    def _end_of_file(self, channel: _Channel) -> None:
        raise NotImplementedError

    # Send path -------------------------------------------------------------
    def forward_parcel(self, parcel: Parcel, destination: int) -> None:
        token = None
        promise = parcel.reply_promise
        if promise is not None and not parcel.fire_and_forget:
            self._token_seq += 1
            token = (self.my_id, self._token_seq)
            self._tokens[self._token_seq] = promise
        self._outbox.setdefault(destination, []).append(
            parcel_entry(parcel, destination, token)
        )
        self._outbox_size += 1
        self.parcels_forwarded += 1
        if self._outbox_size >= _OUTBOX_CAP:
            self.flush()

    def flush(self) -> None:
        if not self._outbox_size:
            return
        outbox, self._outbox = self._outbox, {}
        self._outbox_size = 0
        for destination, entries in outbox.items():
            self._send(destination, ("parcels", entries))
        self._activity = True

    def maybe_service(self) -> bool:
        self._tick += 1
        if self._tick & _SERVICE_MASK:
            return False
        self.flush()
        return self._service(block=False)

    def poll(self) -> bool:
        self.flush()
        return self._service(block=False)

    def on_stall(self) -> bool:
        self.flush()
        return self._service(block=True)

    # Inbound dispatch ------------------------------------------------------
    def _dispatch(self, message: tuple) -> None:
        kind = message[0]
        if kind == "parcels":
            for entry in message[1]:
                self._route_entry(entry)
        elif kind == "reply":
            _, origin, seq, ok, data = message
            self._route_reply(origin, seq, ok, data)
        elif kind == "create":
            _, origin, gid, home, data = message
            self._apply_create(origin, gid, home, data)
        elif kind == "resolve":
            _, req_id, gid, origin = message
            self._answer_resolve(req_id, gid, origin)
        elif kind == "resolved":
            _, req_id, _gid, home = message
            self._resolved[req_id] = home
        else:
            self._dispatch_control(message)

    def _dispatch_control(self, message: tuple) -> None:
        raise RuntimeStateError(f"unexpected wire message {message[0]!r}")

    def _route_entry(self, entry: tuple) -> None:
        """Deliver (or, on the driver, relay) one inbound parcel entry."""
        destination = entry[1]
        if destination == self.my_id:
            self._deliver_entry(entry)
        else:
            self._outbox.setdefault(destination, []).append(entry)
            self._outbox_size += 1
            self.parcels_relayed += 1

    def _deliver_entry(self, entry: tuple) -> None:
        source, _dest, payload, gid, target_locality, token, faf, priority = entry
        runtime = self.runtime
        parcel = Parcel(
            source_locality=source,
            payload=payload,
            target_gid=gid,
            target_locality=target_locality,
            send_time=runtime.makespan,
        )
        parcel.fire_and_forget = faf
        parcel.priority = priority
        if token is not None:
            parcel.reply_promise = _ReplyRelay(self, *token)
        self.parcels_received += 1
        runtime._route_parcel(parcel, arrival_time=parcel.send_time)

    def _route_reply(self, origin: int, seq: int, ok: bool, data: bytes) -> None:
        if origin != self.my_id:  # driver relaying a worker's reply
            self._send(origin, ("reply", origin, seq, ok, data))
            return
        promise = self._tokens.pop(seq, None)
        if promise is None:
            return
        self.replies_received += 1
        value = decode_message(data)
        pool = self.runtime.localities[self.my_id].pool

        def deliver() -> None:
            if ok:
                promise.set_value(value)
            else:
                promise.set_exception(value)

        pool.submit(deliver, description="remote-reply")

    # AGAS mirroring --------------------------------------------------------
    def component_registered(
        self, component: "Component", gid: "Gid", home: int
    ) -> None:
        self.agas_creates += 1
        self._broadcast_create(
            self.my_id, gid, home, serialize(component), exclude=self.my_id
        )

    def _apply_create(self, origin: int, gid: "Gid", home: int, data: bytes) -> None:
        agas = self.runtime.agas
        if gid not in agas:
            obj = decode_message(data) if home == self.my_id else None
            agas.register_at(obj, gid, home)
            self.agas_creates += 1
        self._broadcast_create(origin, gid, home, data, exclude=origin)

    def _broadcast_create(
        self, origin: int, gid: "Gid", home: int, data: bytes, exclude: int
    ) -> None:
        raise NotImplementedError

    def _answer_resolve(self, req_id: int, gid: "Gid", origin: int) -> None:
        agas = self.runtime.agas
        home = agas.home_of(gid) if gid in agas else -1
        self._send(origin, ("resolved", req_id, gid, home))

    def _broker_resolve(self, gid: "Gid") -> tuple[int, Any] | None:
        """AGAS fallback: ask the driver where an unknown GID lives.

        Blocks (dispatching other traffic reentrantly) until the answer
        arrives; returns ``(home, placeholder)`` or None when the driver
        does not know the GID either.
        """
        if self._stopping:
            return None
        self._resolve_seq += 1
        req_id = self._resolve_seq
        self._send(0, ("resolve", req_id, gid, self.my_id))
        while req_id not in self._resolved:
            if not self._service(block=True):
                return None
        home = self._resolved.pop(req_id)
        if home < 0:
            return None
        self.agas_resolves += 1
        return home, None

    # Local draining --------------------------------------------------------
    def _drain_local(self) -> None:
        """Run every runnable task in this process, then flush."""
        runtime = self.runtime
        while True:
            loc, hint = runtime._next_locality()
            if loc is None:
                break
            runtime._step_locality(loc, hint)
            self.maybe_service()
        self.flush()

    def _busy(self) -> bool:
        return (
            self._activity
            or bool(self._tokens)
            or bool(self._outbox_size)
            or any(loc.pool.pending() for loc in self.runtime.localities)
        )

    # Observability ---------------------------------------------------------
    def counters(self) -> dict[str, float]:
        return {
            "parcels_forwarded": float(self.parcels_forwarded),
            "parcels_received": float(self.parcels_received),
            "parcels_relayed": float(self.parcels_relayed),
            "replies_sent": float(self.replies_sent),
            "replies_received": float(self.replies_received),
            "messages_sent": float(self.messages_sent),
            "wire_bytes_sent": float(self.wire_bytes_sent),
            "agas_creates": float(self.agas_creates),
            "agas_resolves": float(self.agas_resolves),
            "sync_rounds": float(self.sync_rounds),
        }


class MultiprocessBackend(_PipeBackend):
    """Driver side: owns the worker processes and relays their traffic."""

    name = "multiprocess"
    my_id = 0

    def __init__(self) -> None:
        super().__init__()
        self._channels: dict[int, _Channel] = {}
        self._procs: dict[int, Any] = {}
        self._worker_stats: dict[int, dict[str, Any]] = {}
        self._stopped_workers: set[int] = set()
        self._worker_busy: dict[int, bool] = {}
        self._acks: dict[int, set[int]] = {}
        self._sync_seq = 0

    # Lifecycle -------------------------------------------------------------
    def start(self) -> None:
        import multiprocessing as mp

        runtime = self.runtime
        config = runtime.config
        self._set_timeout(config.get_float("runtime.mp_stall_timeout_s"))
        method = config.get_str("runtime.mp_start_method")
        if method == "auto":
            method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        mp_ctx = mp.get_context(method)
        values = dict(config)
        self.processes = runtime.n_localities
        for worker_id in range(1, runtime.n_localities):
            parent, child = mp_ctx.Pipe(duplex=True)
            # A forked worker inherits the driver's end of every pipe made
            # so far; it closes them, so that it reads end-of-file when
            # the driver is gone.  A spawned worker inherits nothing.
            inherited = (
                [c.conn for c in self._channels.values()] + [parent]
                if method == "fork"
                else []
            )
            proc = mp_ctx.Process(
                target=_worker_entry,
                args=(
                    child,
                    worker_id,
                    runtime.n_localities,
                    runtime.workers_per_locality,
                    values,
                    inherited,
                ),
                name=f"repro-locality-{worker_id}",
                daemon=True,
            )
            proc.start()
            child.close()
            channel = _Channel(worker_id, parent)
            self._channels[worker_id] = channel
            self._add_channel(channel)
            self._procs[worker_id] = proc

    def quiesce(self) -> None:
        """Termination detection: repeat drain+sync rounds until a full
        round passes with every process idle and no traffic moved."""
        if not self._channels:
            return
        max_rounds = self.runtime.config.get_int("runtime.mp_sync_rounds")
        for _ in range(max_rounds):
            self._drain_local()
            round_activity = self._activity
            self._activity = False
            self._sync_seq += 1
            seq = self._sync_seq
            self._acks[seq] = set()
            self._worker_busy = {}
            for worker_id in self._channels:
                self._send(worker_id, ("sync", seq))
            while len(self._acks[seq]) < len(self._channels) - len(
                self._stopped_workers
            ):
                if not self._service(block=True):
                    raise RuntimeStateError(
                        f"multiprocess shutdown: sync round {seq} timed out "
                        f"after {self._timeout:g}s awaiting worker acks"
                    )
                self._drain_local()
            del self._acks[seq]
            self.sync_rounds += 1
            busy = (
                round_activity
                or self._activity
                or bool(self._tokens)
                or any(self._worker_busy.values())
                or any(loc.pool.pending() for loc in self.runtime.localities)
            )
            if not busy:
                return
        warnings.warn(
            f"multiprocess shutdown: traffic still moving after "
            f"{max_rounds} sync rounds; stopping anyway",
            RuntimeWarning,
            stacklevel=2,
        )

    def stop(self) -> None:
        if self._stopping:
            return
        self._stopping = True
        try:
            for worker_id in self._channels:
                if worker_id not in self._stopped_workers:
                    try:
                        self._send(worker_id, ("stop",))
                    except RuntimeStateError:
                        self._stopped_workers.add(worker_id)
            while len(self._stopped_workers) < len(self._channels):
                if not self._service(block=True):
                    break  # timed out; join/terminate below
        finally:
            self._reap(timeout=5.0)

    def abort(self) -> None:
        self._stopping = True
        abort = frame(encode_message(("abort",)))
        for channel in self._channels.values():
            if channel.lost is None:
                try:
                    os.write(channel.fd, abort)
                except OSError:  # full or broken pipe: terminated below
                    pass
        self._reap(timeout=1.0)

    def _reap(self, timeout: float) -> None:
        for proc in self._procs.values():
            proc.join(timeout=timeout)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=1.0)
        for channel in self._channels.values():
            self._close_channel(channel)
            try:
                channel.conn.close()
            except OSError:  # pragma: no cover
                pass

    # Transport -------------------------------------------------------------
    def _send(self, destination: int, message: tuple) -> None:
        if destination == self.my_id:
            self._dispatch(message)
            return
        self._write_message(self._channels[destination], message)

    def _end_of_file(self, channel: _Channel) -> None:
        if channel.lost is None:
            channel.lost = "its process exited (pipe closed)"
        worker_id = channel.peer
        if worker_id in self._stopped_workers:
            return  # it said "stopped" (or "error") before closing
        self._stopped_workers.add(worker_id)
        if not self._stopping:
            raise self._lost_error(channel)

    def _peer_gone(self, peer: int) -> None:
        self._stopped_workers.add(peer)

    def _lost_error(self, channel: _Channel) -> RuntimeStateError:
        return RuntimeStateError(
            f"worker process for locality {channel.peer} is gone: "
            f"{channel.lost}; {len(self._tokens)} reply token(s) outstanding"
        )

    def _broadcast_create(
        self, origin: int, gid: "Gid", home: int, data: bytes, exclude: int
    ) -> None:
        for worker_id in self._channels:
            if worker_id != exclude and worker_id not in self._stopped_workers:
                self._send(worker_id, ("create", origin, gid, home, data))

    def _dispatch_control(self, message: tuple) -> None:
        kind = message[0]
        if kind == "sync-ack":
            _, seq, worker_id, busy = message
            if seq in self._acks:
                self._acks[seq].add(worker_id)
            self._worker_busy[worker_id] = busy
        elif kind == "stopped":
            _, worker_id, stats = message
            self._worker_stats[worker_id] = stats
            self._stopped_workers.add(worker_id)
        elif kind == "error":
            _, worker_id, text = message
            self._stopped_workers.add(worker_id)
            raise RuntimeStateError(
                f"worker process for locality {worker_id} died:\n{text}"
            )
        else:
            super()._dispatch_control(message)

    # Observability ---------------------------------------------------------
    def worker_stats(self) -> dict[int, dict[str, Any]]:
        return dict(self._worker_stats)

    def counters(self) -> dict[str, float]:
        out = super().counters()
        out["processes"] = float(getattr(self, "processes", 1))
        out["remote_tasks_executed"] = float(
            sum(s.get("tasks_executed", 0) for s in self._worker_stats.values())
        )
        out["remote_parcels_sent"] = float(
            sum(s.get("parcels_sent", 0) for s in self._worker_stats.values())
        )
        return out


class _WorkerBackend(_PipeBackend):
    """Worker side: a single pipe to the driver, which relays everything."""

    name = "multiprocess"

    def __init__(self, conn: "Connection", worker_id: int, config: "Config") -> None:
        super().__init__()
        self.my_id = worker_id
        self._driver = _Channel(0, conn)
        self._add_channel(self._driver)
        self._set_timeout(config.get_float("runtime.mp_stall_timeout_s"))
        self._sent_stopped = False

    def attach(self, runtime: "Runtime") -> None:
        super().attach(runtime)
        runtime.agas.broker = self._broker_resolve

    def serve(self) -> None:
        """The worker main loop: drain local work, then block for more."""
        while not self._stopping:
            self._drain_local()
            self._service(block=True)

    def stop(self) -> None:
        if self._sent_stopped:
            return
        self._sent_stopped = True
        try:
            self._send(0, ("stopped", self.my_id, self._stats()))
        except RuntimeStateError:  # driver already gone
            pass
        self._stopping = True

    def _stats(self) -> dict[str, Any]:
        runtime = self.runtime
        port = runtime.parcelport
        stats = {
            "locality": self.my_id,
            "tasks_executed": sum(
                loc.pool.tasks_executed for loc in runtime.localities
            ),
            "parcels_sent": port.parcels_sent,
            "parcels_delivered": port.parcels_delivered,
            "bytes_sent": port.bytes_sent,
            "pid": os.getpid(),
        }
        stats.update(self.counters())
        return stats

    # Transport -------------------------------------------------------------
    def _send(self, destination: int, message: tuple) -> None:
        # Everything funnels through the driver, which relays by the
        # destination embedded in the message.
        self._write_message(self._driver, message)

    def _end_of_file(self, channel: _Channel) -> None:
        self._stopping = True  # the driver is gone
        raise SystemExit(0)

    def _lost_error(self, channel: _Channel) -> RuntimeStateError:
        return RuntimeStateError(
            f"locality {self.my_id}: the pipe to the driver (locality 0) "
            f"failed: {channel.lost}"
        )

    def _broadcast_create(
        self, origin: int, gid: "Gid", home: int, data: bytes, exclude: int
    ) -> None:
        if origin == self.my_id:  # our registration: let the driver fan out
            self._send(0, ("create", origin, gid, home, data))
        # otherwise the driver already broadcast it; nothing to forward.

    def _dispatch_control(self, message: tuple) -> None:
        kind = message[0]
        if kind == "sync":
            self.flush()
            busy = self._busy()
            self._activity = False
            self._send(0, ("sync-ack", message[1], self.my_id, busy))
        elif kind == "stop":
            self._stopping = True
        elif kind == "abort":
            self._stopping = True
            raise SystemExit(0)
        else:
            super()._dispatch_control(message)


def _write_blocking(fd: int, data: bytes) -> None:
    os.set_blocking(fd, True)
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _worker_entry(
    conn: "Connection",
    worker_id: int,
    n_localities: int,
    workers_per_locality: int,
    config_values: dict[str, Any],
    inherited: list["Connection"],
) -> None:
    """Worker process main: build a fresh Runtime and serve the pipe.

    Module-level (spawn-picklable) and defensive about forked state: the
    parent's context stack, probes and pipe ends must not leak into this
    process.
    """
    import traceback

    from ...config import Config
    from .. import context as ctx
    from .. import instrument
    from ..runtime import Runtime

    for other in inherited:
        other.close()
    ctx._stack.clear()
    for probe in instrument.active_probes():
        instrument.uninstall(probe)
    backend = None
    try:
        config = Config.from_mapping(
            {**config_values, "runtime.quiescence": "ignore"}
        )
        backend = _WorkerBackend(conn, worker_id, config)
        runtime = Runtime(
            n_localities=n_localities,
            workers_per_locality=workers_per_locality,
            config=config,
            _backend=backend,
        )
        with runtime:
            backend.serve()
    except SystemExit:
        pass
    except BaseException:
        # Skipped once the pipe to the driver has failed: the driver is
        # gone, or a write broke off mid-frame and the stream is torn.
        if backend is None or backend._driver.lost is None:
            try:
                message = ("error", worker_id, traceback.format_exc())
                _write_blocking(conn.fileno(), frame(encode_message(message)))
            except Exception:
                pass
    finally:
        try:
            conn.close()
        except Exception:
            pass
