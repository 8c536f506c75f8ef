"""Multiprocess transport: framing, flow under full pipes, named failures.

The scenarios that used to hang (both processes blocked writing to full
pipes, a worker that outlives its driver) run in a child interpreter
under a hard time limit, so a regression fails the test instead of
hanging the suite.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.config import Config
from repro.errors import RuntimeStateError
from repro.runtime.backend.wire import FrameReader, frame
from repro.runtime.runtime import Runtime

SRC = Path(__file__).resolve().parents[2] / "src"


def _mp_runtime(n=2, workers=1, **extra):
    config = Config.from_mapping({"runtime.backend": "multiprocess", **extra})
    return Runtime(n_localities=n, workers_per_locality=workers, config=config)


def _double(values):
    return [2 * v for v in values]


def _pid():
    return os.getpid()


def _run_bounded(script: str, limit_s: float) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter; kill its whole process
    group (driver and workers) when it outlives ``limit_s``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(script)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"still running after {limit_s:g}s (hung)")
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


# Framing ---------------------------------------------------------------------
def test_frame_reader_reassembles_any_split():
    for seed in range(200):
        rng = random.Random(seed)
        sizes = [rng.choice((0, 1, 3, 4, 5, 300)) for _ in range(rng.randint(0, 12))]
        bodies = [rng.randbytes(size) for size in sizes]
        stream = b"".join(frame(body) for body in bodies)
        cuts = {rng.randint(0, len(stream)) for _ in range(rng.randint(0, 20))}
        edges = sorted({0, len(stream), *cuts})
        reader = FrameReader()
        out = []
        for lo, hi in zip(edges, edges[1:]):
            out.extend(reader.feed(stream[lo:hi]))
        assert out == bodies, f"seed {seed}"


def test_frame_reader_holds_an_unfinished_frame():
    reader = FrameReader()
    data = frame(b"abc") + frame(b"defgh")
    assert reader.feed(data[:9]) == [b"abc"]
    assert reader.feed(data[9:10]) == []
    assert reader.feed(data[10:]) == [b"defgh"]
    assert reader.feed(frame(b"")) == [b""]


# Per-message cost ------------------------------------------------------------
def test_served_parcel_costs_one_worker_task():
    """The worker runs the handler and nothing else: the reply is written
    when the handler fulfils it, not by a delivery task of its own."""
    n = 25
    with _mp_runtime() as rt:
        for i in range(n):
            assert rt.async_at(1, _double, [i]).get() == [2 * i]
    assert rt.backend.counters()["remote_tasks_executed"] == n


def test_message_path_bypasses_connection_framing(monkeypatch):
    """Per-message traffic goes over the raw descriptors: the
    ``multiprocessing.connection`` framing and selector helpers are
    never called.  Forked workers inherit the patches; ``wait`` is
    patched only around the traffic, since joining a process uses it."""
    from multiprocessing import connection

    def forbidden(*_args, **_kwargs):
        raise AssertionError("multiprocessing.connection used on the message path")

    for name in ("send_bytes", "recv_bytes", "poll"):
        monkeypatch.setattr(connection.Connection, name, forbidden)
    with _mp_runtime(n=3) as rt:
        with monkeypatch.context() as patch:
            patch.setattr(connection, "wait", forbidden)
            assert rt.async_at(1, _double, [4]).get() == [8]
            assert rt.async_at(2, _double, [5]).get() == [10]
            rt.backend.quiesce()
    assert len(rt.backend.worker_stats()) == 2


# Flow control ------------------------------------------------------------------
def test_full_pipes_in_both_directions_do_not_deadlock():
    """Many large requests and larger replies in flight at once: the
    driver fills the pipe with parcel batches while the worker fills the
    other direction with replies.  Each side reads while its write
    waits, so the exchange completes."""
    result = _run_bounded(
        """
        from repro.config import Config
        from repro.runtime import Runtime, when_all

        def grow(blob):
            return blob * 4

        config = Config(
            runtime__backend="multiprocess",
            runtime__processes=2,
            runtime__mp_stall_timeout_s=10.0,
        )
        with Runtime(n_localities=2, workers_per_locality=1, config=config) as rt:
            futures = [
                rt.async_at(1, grow, b"x" * 100_000).then(lambda f: len(f.get()))
                for _ in range(300)
            ]
            sizes = [f.get() for f in when_all(futures).get()]
        assert sizes == [400_000] * 300, sizes[:3]
        print("ok")
        """,
        limit_s=60.0,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


# Failures --------------------------------------------------------------------
def test_sigkilled_worker_raises_named_error_and_stop_reaps():
    rt = _mp_runtime(**{"runtime.mp_stall_timeout_s": 30.0})
    rt.start()
    pid = rt.async_at(1, _pid).get()
    proc = rt.backend._procs[1]
    os.kill(pid, signal.SIGKILL)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeStateError, match="locality 1 is gone"):
        rt.async_at(1, _double, [1]).get()
    with pytest.raises(RuntimeStateError, match="locality 1 is gone"):
        rt.stop()
    assert time.perf_counter() - t0 < 10.0  # well within mp_stall_timeout_s
    assert proc.exitcode == -signal.SIGKILL  # joined: stop() reaped it


def test_worker_exits_when_its_driver_is_killed():
    """A forked worker closes its inherited copies of the driver's pipe
    ends, so the driver's death reaches it as end-of-file."""
    if not Path("/proc/self/stat").exists():
        pytest.skip("needs /proc to watch the orphaned worker")
    driver = subprocess.Popen(
        [
            sys.executable,
            "-c",
            textwrap.dedent(
                """
                import os, sys, time
                from repro.config import Config
                from repro.runtime import Runtime

                config = Config(runtime__backend="multiprocess", runtime__processes=3)
                rt = Runtime(n_localities=3, workers_per_locality=1, config=config)
                rt.start()
                pids = [rt.async_at(i, os.getpid).get() for i in (1, 2)]
                print(*pids, flush=True)
                time.sleep(60)
                """
            ),
        ],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        start_new_session=True,
    )
    try:
        pids = [int(p) for p in driver.stdout.readline().split()]
        assert len(pids) == 2
        driver.kill()
        driver.wait()

        def running(pid):
            try:
                state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
            except (FileNotFoundError, ProcessLookupError):
                return False
            return state != "Z"

        deadline = time.perf_counter() + 10.0
        while any(map(running, pids)) and time.perf_counter() < deadline:
            time.sleep(0.05)
        assert not any(map(running, pids)), "a worker outlived its driver"
    finally:
        try:
            os.killpg(driver.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        driver.stdout.close()
        driver.wait()
