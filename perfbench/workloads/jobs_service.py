"""``jobs-service``: the durable job service behind its HTTP gateway.

A closed loop in one process.  The :class:`~repro.service.JobGateway`
listens on loopback and the client keeps one connection open at a time.
``TENANTS`` tenants each keep ``OUTSTANDING`` jobs in flight; between
requests one in-process worker settles one job with
:meth:`~repro.service.JobService.run_one`.  The journal is fsync'd on
disk.  The mix is mostly light non-distributed ``stencil1d`` jobs, some
distributed ones (a fresh ``Runtime`` per epoch), and a few ``faulty``
jobs that fail once and take the retry path.  Some submissions are sent
twice under the same dedupe key, and status reads go beside the writes.

Each round opens a fresh service directory, so the store scans grow with
the round's own history, the same in every round.  The service runs on
a :class:`~repro.service.ManualClock` advanced by ``TICK_S`` per worker
step: retry backoff and job ids are then the same in every round, which
makes journal appends and bytes exact counts.  Latencies are real time.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import time
from collections import deque
from typing import Any, Callable

import numpy as np

from repro.service import (
    JobGateway,
    JobService,
    ManualClock,
    ServicePolicy,
    TenantQuota,
    job_digest,
    read_journal,
)
from repro.stencil import Heat1DParams, analytic_heat_profile, heat1d_reference

from ..common import WORK, median
from .base import Workload, with_tails

NAME = "jobs-service"
WHY = (
    "the only workload for the service layers: HTTP gateway, fsync'd journal, "
    "store, fair scheduler, leases, retries and checkpoints"
)

TENANTS = 4
OUTSTANDING = 2
TICK_S = 0.05
WORKER = "perfbench-worker"
#: Per tenant and round: light non-distributed stencils, distributed
#: stencils, jobs that fail once, and submissions resent under their key.
LIGHT, DISTRIBUTED, FAULTY, RESUBMITS = 12, 2, 1, 2
JOBS_PER_TENANT = LIGHT + DISTRIBUTED + FAULTY
#: Light job sizes, cycled: the work per round is the same for every seed.
LIGHT_NX = (64, 128, 256)
LIGHT_STEPS = (20, 30, 40, 50, 60, 45, 35, 25)
_TERMINAL = ("done", "failed", "cancelled")


def _job_specs(seed: int) -> list[list[dict[str, Any]]]:
    """Per tenant, the bodies of the jobs it submits.

    The seed picks each job's Fourier mode (its initial field), the order
    of the jobs and which ones are resubmitted; the kinds and sizes, and so
    the work per round, do not depend on it.
    """
    rng = np.random.default_rng(seed)
    tenants = []
    for t in range(TENANTS):
        tenant = f"tenant-{t}"
        kinds = [("faulty", {"fail_attempts": 1})] * FAULTY
        kinds += [("stencil1d", {"nx": 64, "steps": 20, "distributed": True, "localities": 2})
                  ] * DISTRIBUTED
        kinds += [("stencil1d", {"nx": LIGHT_NX[j % len(LIGHT_NX)],
                                 "steps": LIGHT_STEPS[j % len(LIGHT_STEPS)],
                                 "distributed": False}) for j in range(LIGHT)]
        order = rng.permutation(len(kinds))
        resubmit = set(rng.choice(len(kinds), size=RESUBMITS, replace=False).tolist())
        jobs = []
        for j, k in enumerate(order):
            kind, params = kinds[k]
            params = dict(params)
            if kind == "stencil1d":
                params["mode"] = int(rng.integers(1, 4))
            jobs.append({"tenant": tenant, "kind": kind, "params": params,
                         "dedupe_key": f"{tenant}-job-{j}", "resubmit": j in resubmit})
        tenants.append(jobs)
    return tenants


def _expected(spec: dict[str, Any]) -> tuple[str, int]:
    """(digest, lattice-site updates) a correct run of ``spec`` yields."""
    if spec["kind"] == "faulty":
        return "ok", 0
    p = spec["params"]
    field = heat1d_reference(analytic_heat_profile(p["nx"], mode=p["mode"]), p["steps"],
                             Heat1DParams())
    return job_digest(field), p["nx"] * p["steps"]


class _Client:
    """One-request-per-connection HTTP/1.1 client (the gateway closes)."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.requests = 0

    async def request(self, method: str, path: str, body: Any = None) -> tuple[int, Any]:
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        try:
            data = b"" if body is None else json.dumps(body).encode()
            head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    f"Content-Length: {len(data)}\r\n\r\n")
            writer.write(head.encode("ascii") + data)
            await writer.drain()
            raw = await reader.read()
        finally:
            writer.close()
            await writer.wait_closed()
        self.requests += 1
        header, _, payload = raw.partition(b"\r\n\r\n")
        status = int(header.split(b" ", 2)[1])
        return status, json.loads(payload)


def _open(root: str) -> tuple[JobService, ManualClock]:
    clock = ManualClock()
    service = JobService(root, clock=clock, policy=ServicePolicy())
    for t in range(TENANTS):
        service.set_quota(f"tenant-{t}", TenantQuota())
    return service, clock


def ready(seed: int) -> Callable[[], None]:
    _job_specs(seed)
    root = WORK / f"ready-{os.getpid()}"
    service, _clock = _open(str(root))
    gateway = JobGateway(service)
    loop = asyncio.new_event_loop()
    loop.run_until_complete(gateway.start())

    def teardown() -> None:
        loop.run_until_complete(gateway.stop())
        loop.close()
        service.close()
        shutil.rmtree(root, ignore_errors=True)

    return teardown


class JobsService(Workload):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.specs = _job_specs(self.seed)
        self.expected = {
            spec["dedupe_key"]: _expected(spec) for jobs in self.specs for spec in jobs
        }
        self.root = WORK / f"jobs-{os.getpid()}"
        self.loop = asyncio.new_event_loop()

    def close(self) -> None:
        self.loop.close()
        shutil.rmtree(self.root, ignore_errors=True)

    def round(self, op: str, record: bool) -> dict[str, float]:
        # Round directories are removed together in close(): deleting files
        # on a filesystem mounted with ``discard`` slows the fsyncs that
        # follow, and the rounds must not pay for the benchmark's cleanup.
        root = self.root / op
        with self.spans.span("service.core.open", op):
            service, clock = _open(str(root))
        saved: list[int] = []

        def after_epoch(job_id: str, steps_done: int) -> None:
            newest = max(os.scandir(service.runner.job_dir(job_id)), key=lambda e: e.name)
            saved.append(newest.stat().st_size)

        service.runner.after_epoch = after_epoch
        gateway = JobGateway(service)
        try:
            self.loop.run_until_complete(gateway.start())
            try:
                stats = self.loop.run_until_complete(
                    self._closed_loop(op, service, clock, _Client(gateway.port))
                )
            finally:
                self.loop.run_until_complete(gateway.stop())
            with self.spans.span("service.journal.audit", op):
                records, torn = read_journal(service.store.path)
            self._audit(op, records, torn)
            shed = sum(v for k, v in service.counters().items() if k.endswith("/count/shed"))
            counts = {
                "service.gateway.requests": float(stats["requests"]),
                "service.journal.appends": float(len(records)),
                "service.journal.bytes": float(os.path.getsize(service.store.path)),
                "service.admission.shed": float(shed),
                "service.executor.epochs": float(stats["epochs"]),
                "resilience.checkpoint.saved": float(len(saved)),
                "resilience.checkpoint.bytes": float(sum(saved)),
                "stencil.lups": float(stats["lups"]),
            }
        finally:
            service.close()
        if record:
            busy = stats["busy_s"]
            self.record("jobs_per_s", stats["done"] / busy)
            self.record("lups_per_s", stats["lups"] / busy)
            self.record("latency_ms", *stats["latency_ms"])
            self.record("submit_ms", *stats["submit_ms"])
            self.record("queue_wait_ms", *stats["queue_wait_ms"])
        return counts

    async def _closed_loop(
        self, op: str, service: JobService, clock: ManualClock, client: _Client
    ) -> dict[str, Any]:
        spans, checks = self.spans, self.checks
        queues = [deque(jobs) for jobs in self.specs]
        outstanding: list[dict[str, dict[str, Any]]] = [{} for _ in self.specs]
        submitted_at: dict[str, float] = {}
        claimed: set[str] = set()
        stats: dict[str, Any] = {"done": 0, "lups": 0, "epochs": 0,
                                 "latency_ms": [], "submit_ms": [], "queue_wait_ms": []}
        idle_steps = 0
        t_start = time.perf_counter()
        while any(queues) or any(outstanding):
            for t, queue in enumerate(queues):
                while queue and len(outstanding[t]) < OUTSTANDING:
                    spec = queue.popleft()
                    job_id = await self._submit(op, client, spec, stats)
                    if job_id is None:
                        continue
                    submitted_at[job_id] = time.perf_counter()
                    outstanding[t][job_id] = spec
                    oldest = next(iter(outstanding[t]))
                    with spans.span("service.gateway.status", op):
                        status, body = await client.request("GET", f"/v1/jobs/{oldest}")
                    checks.check(status == 200 and body.get("job_id") == oldest,
                                 f"{op}: status read of {oldest} answered {status}")
            t_claim = time.perf_counter()
            with spans.span("service.core.run_one", op):
                job = service.run_one(WORKER)
            clock.advance(TICK_S)
            if job is None:
                idle_steps += 1
                if idle_steps > 10_000:
                    checks.error(f"{op}: worker found nothing runnable for 10000 steps")
                    break
                continue
            idle_steps = 0
            if job.job_id not in claimed:
                claimed.add(job.job_id)
                stats["queue_wait_ms"].append((t_claim - submitted_at[job.job_id]) * 1e3)
            if not job.terminal:
                continue  # an attempt failed and the job went back to pending
            t = int(job.tenant.rsplit("-", 1)[1])
            spec = outstanding[t].pop(job.job_id)
            stats["latency_ms"].append((time.perf_counter() - submitted_at[job.job_id]) * 1e3)
            self._check_job(op, job, spec, stats)
        stats["busy_s"] = time.perf_counter() - t_start
        stats["requests"] = client.requests
        return stats

    async def _submit(
        self, op: str, client: _Client, spec: dict[str, Any], stats: dict[str, Any]
    ) -> str | None:
        body = {k: spec[k] for k in ("tenant", "kind", "params", "dedupe_key")}
        t0 = time.perf_counter()
        with self.spans.span("service.gateway.submit", op):
            status, reply = await client.request("POST", "/v1/jobs", body)
        stats["submit_ms"].append((time.perf_counter() - t0) * 1e3)
        if not self.checks.check(status == 201, f"{op}: submit answered {status}: {reply}"):
            return None
        job_id = reply["job"]["job_id"]
        if spec["resubmit"]:
            with self.spans.span("service.gateway.resubmit", op):
                again, dup = await client.request("POST", "/v1/jobs", body)
            self.checks.check(
                again == 200 and dup["job"]["job_id"] == job_id and not dup["created"],
                f"{op}: dedupe resubmit of {job_id} answered {again}",
            )
        return job_id

    def _check_job(self, op: str, job: Any, spec: dict[str, Any], stats: dict[str, Any]) -> None:
        digest, lups = self.expected[spec["dedupe_key"]]
        result = job.result or {}
        ok = job.state.value == "done" and result.get("digest") == digest
        if spec["kind"] == "faulty":
            ok &= job.attempts == 2
        self.checks.check(ok, f"{op}: job {job.job_id} ({spec['kind']}) ended "
                              f"{job.state.value} with a wrong result")
        if job.state.value == "done":
            stats["done"] += 1
            stats["lups"] += lups
            stats["epochs"] += int(result.get("epochs", 0))

    def _audit(self, op: str, records: list[dict[str, Any]], torn: bool) -> None:
        """Exactly one submit and one terminal transition per job; stable dedupe."""
        submits: dict[str, int] = {}
        terminal: dict[str, int] = {}
        keys: dict[tuple[str, str], set[str]] = {}
        for record in records:
            job_id = record["job_id"]
            if record["op"] == "submit":
                submits[job_id] = submits.get(job_id, 0) + 1
                keys.setdefault((record["tenant"], record["dedupe_key"]), set()).add(job_id)
            elif record["to"] in _TERMINAL:
                terminal[job_id] = terminal.get(job_id, 0) + 1
        jobs = TENANTS * JOBS_PER_TENANT
        ok = (
            not torn
            and len(submits) == jobs
            and all(n == 1 for n in submits.values())
            and terminal == {job_id: 1 for job_id in submits}
            and len(keys) == jobs
            and all(len(ids) == 1 for ids in keys.values())
        )
        self.checks.check(ok, f"{op}: journal audit failed (torn={torn})")

    OPS_KEY = "jobs_per_s"
    #: Part of a round is system calls (loopback sockets, file writes,
    #: fsync) whose cost the interpreter probe does not track.  Over four
    #: sets of eight to ten 12 s runs, scaling by the probe's slowdown to
    #: the power 0.7 left a coefficient of variation of 0.05-0.08 between
    #: runs, to the power 1 0.07-0.09.
    PROBE_POWER = 0.7

    def details(self) -> dict[str, tuple[float, str]]:
        out = {"jobs_per_s": (median(self.raw("jobs_per_s")), "1/s")}
        with_tails(out, "job_latency_ms", self.raw("latency_ms"), "ms")
        return with_tails(out, "submit_ms", self.raw("submit_ms"), "ms")

    def queue_wait_ms_p50(self) -> float:
        return median(self.raw("queue_wait_ms"))


WORKLOAD = JobsService
