"""The scheduling service: job queue, executor, and HTTP front end.

Architecture
------------
:class:`SchedulerService` owns the durable pieces -- the
:class:`~repro.service.jobs.JobStore` journal, a bounded admission
queue, one executor thread and a persistent
:class:`~repro.analysis.supervisor.SupervisorPool` that runs every
job (so a worker crash or OOM kill costs a retry, never the server).
HTTP is a thin shell: every route reduces to :func:`dispatch`, which
the stdlib :mod:`http.server` handler calls.

Crash safety
------------
Submission journals the job *before* the HTTP response; execution
checkpoints every record through the campaign resume contract. A
``kill -9`` therefore loses at most the torn final line of a record
file: on restart :meth:`SchedulerService.start` flips interrupted jobs
back to ``queued`` and re-runs them with ``resume=True``, producing a
record stream byte-identical to an uninterrupted run (pinned by the
service test suite and the CI smoke drill).

Backpressure and drain
----------------------
``POST /jobs`` answers ``429`` with a ``Retry-After`` hint once
``queue_depth`` jobs are waiting, and ``503`` once draining. On
``SIGTERM`` the server stops accepting, aborts the in-flight campaign
between scenarios (its records are already checkpointed; the job goes
back to ``queued`` for the next server), closes the pool and exits 0.
"""

from __future__ import annotations

import json
import multiprocessing.util
import os
import re
import signal
import sys
import threading
import time
from collections import deque
from typing import Any

from repro.analysis.campaign import run_campaign
from repro.analysis.supervisor import CampaignAborted, SupervisorPool

from . import payload as payload_mod
from .jobs import JobStore, TransitionError
from .payload import SpecError

__all__ = ["SchedulerService", "dispatch", "serve"]


class SchedulerService:
    """The durable job runner behind the HTTP front end.

    ``workers`` sizes the supervised pool and ``queue_depth`` bounds
    the admission queue (both at least 1); ``job_timeout`` is a per-job
    wall-clock budget in seconds (None or > 0). A setting out of range
    raises ``ValueError`` before anything touches ``root``.
    """

    def __init__(
        self,
        root: str,
        *,
        workers: int = 1,
        queue_depth: int = 16,
        job_timeout: float | None = None,
        retry_after: float = 2.0,
    ) -> None:
        if not workers >= 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not queue_depth >= 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if job_timeout is not None and not job_timeout > 0:
            raise ValueError(
                f"job_timeout must be None or > 0 seconds, got {job_timeout}"
            )
        self.jobs = JobStore(root)
        self.workers = workers
        self.queue_depth = queue_depth
        self.job_timeout = job_timeout
        self.retry_after = retry_after
        self.started = time.time()
        self.draining = False
        self._lock = threading.Lock()
        self._queue: deque[str] = deque()
        self._wakeup = threading.Condition(self._lock)
        self._aborts: dict[str, threading.Event] = {}
        self._cancelled: set[str] = set()
        self._running: str | None = None
        self._done_jobs = 0
        self._pool: SupervisorPool | None = None
        self._executor: threading.Thread | None = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> list[str]:
        """Recover interrupted jobs, start the executor; returns the
        ids re-enqueued from the journal (crash/drain leftovers)."""
        recovered = [job.id for job in self.jobs.recover()]
        with self._lock:
            self._queue.extend(recovered)
        self._executor = threading.Thread(
            target=self._executor_main, name="repro-serve-executor", daemon=True
        )
        self._executor.start()
        return recovered

    def drain(self, timeout: float = 30.0) -> None:
        """Stop accepting, abort the in-flight job between scenarios
        (checkpointed; it re-queues), and join the executor."""
        with self._lock:
            self.draining = True
            for ev in self._aborts.values():
                ev.set()
            self._wakeup.notify_all()
        if self._executor is not None:
            self._executor.join(timeout=timeout)
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    # -- submission / queries -------------------------------------------
    def submit(self, spec: Any) -> tuple[int, dict]:
        """Journal + enqueue; returns ``(http status, body)``."""
        if self.draining:
            return 503, {"error": "server is draining"}
        with self._lock:
            depth = len(self._queue)
            if depth >= self.queue_depth:
                return 429, {
                    "error": f"queue full ({depth} job(s) waiting)",
                    "retry_after": self.retry_after,
                }
        try:
            job, created = self.jobs.create(spec)
        except SpecError as exc:
            return 400, {"error": str(exc)}
        with self._lock:
            if not created and job.state in ("queued", "running", "done"):
                # idempotent retry: pending or already finished
                return 200, job.to_dict()
            if job.state in ("failed", "cancelled"):
                # explicit resubmission: requeue, resume from checkpoint
                job = self.jobs.transition(job.id, "queued")
                self._cancelled.discard(job.id)
            if job.id not in self._queue:
                self._queue.append(job.id)
            self._wakeup.notify_all()
        return (201 if created else 200), job.to_dict()

    def status(self, jid: str) -> tuple[int, dict]:
        try:
            return 200, self.jobs.get(jid).to_dict()
        except FileNotFoundError:
            return 404, {"error": f"no such job {jid!r}"}

    def listing(self) -> tuple[int, dict]:
        return 200, {"jobs": [j.to_dict() for j in self.jobs.jobs()]}

    def cancel(self, jid: str) -> tuple[int, dict]:
        try:
            job = self.jobs.get(jid)
        except FileNotFoundError:
            return 404, {"error": f"no such job {jid!r}"}
        with self._lock:
            if job.state == "queued":
                try:
                    job = self.jobs.transition(jid, "cancelled", expect="queued")
                except TransitionError:
                    job = self.jobs.get(jid)  # raced the executor
                else:
                    self._cancelled.add(jid)
                    if jid in self._queue:
                        self._queue.remove(jid)
                    return 200, job.to_dict()
            if job.state == "running":
                self._cancelled.add(jid)
                ev = self._aborts.get(jid)
                if ev is not None:
                    ev.set()
                return 202, {**job.to_dict(), "cancelling": True}
        if job.state == "cancelled":
            return 200, job.to_dict()
        return 409, {
            "error": f"job {jid} is {job.state}: nothing to cancel",
            **job.to_dict(),
        }

    def health(self) -> tuple[int, dict]:
        with self._lock:
            queued = len(self._queue)
            running = self._running
        return 200, {
            "ok": True,
            "uptime": time.time() - self.started,
            "queued": queued,
            "running": running,
            "completed": self._done_jobs,
            "draining": self.draining,
            "workers": self.workers,
        }

    def ready(self) -> tuple[int, dict]:
        if self.draining:
            return 503, {"ready": False, "reason": "draining"}
        try:
            from repro.core.engine import probe_backend

            chosen, skipped = probe_backend()  # memoised per process
        except Exception as exc:
            return 503, {"ready": False, "reason": f"no usable backend: {exc}"}
        return 200, {
            "ready": True,
            "backend": chosen,
            "skipped": [list(s) for s in skipped],
        }

    def records_file(self, jid: str) -> tuple[int, Any]:
        """``(200, (path, length))`` with length clamped to the last
        complete line, or ``(404, body)``."""
        try:
            job = self.jobs.get(jid)
        except FileNotFoundError:
            return 404, {"error": f"no such job {jid!r}"}
        # serve complete records only: crash residue never leaves disk
        return 200, (job.records_path, job.records_length())

    # -- execution ------------------------------------------------------
    def _pool_for(self) -> SupervisorPool:
        if self._pool is None:
            self._pool = SupervisorPool(workers=self.workers)
        return self._pool

    def _executor_main(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self.draining:
                    self._wakeup.wait()
                if self.draining:
                    return
                jid = self._queue.popleft()
                if jid in self._cancelled:
                    continue
                abort = threading.Event()
                self._aborts[jid] = abort
                self._running = jid
            try:
                self._run_job(jid, abort)
            finally:
                with self._lock:
                    self._aborts.pop(jid, None)
                    self._cancelled.discard(jid)
                    self._running = None

    def _run_job(self, jid: str, abort: threading.Event) -> None:
        try:
            job = self.jobs.transition(jid, "running", expect="queued")
        except TransitionError:
            return  # cancelled (or otherwise settled) while waiting
        spec = job.spec()
        cfg = payload_mod.run_config(spec)
        timer: threading.Timer | None = None
        timed_out = threading.Event()
        if self.job_timeout is not None:
            def _expire() -> None:
                timed_out.set()
                abort.set()

            timer = threading.Timer(self.job_timeout, _expire)
            timer.daemon = True
            timer.start()
        t0 = time.monotonic()
        try:
            instances = payload_mod.to_instances(spec)
            campaign = payload_mod.to_campaign(spec)
            # this thread is the pool's only user: the job's settings
            # hold for exactly this run
            pool = self._pool_for()
            pool.retries = int(cfg["retries"])
            pool.timeout = cfg["timeout"]
            pool.backoff = float(cfg["backoff"])
            pool.abort = abort
            records = run_campaign(
                instances,
                campaign,
                runtime=pool,
                checkpoint=job.records_path,
                resume=os.path.exists(job.records_path),
            )
            detail = {
                "scenarios": len(records),
                "failed_scenarios": sum(
                    1 for r in records if type(r).__name__ == "FailedRecord"
                ),
                "elapsed": time.monotonic() - t0,
                "respawns": pool.report.respawns,
                "retried": len(pool.report.retried),
            }
            self.jobs.transition(jid, "done", detail=detail)
            self._done_jobs += 1
        except CampaignAborted:
            if timed_out.is_set():
                self.jobs.transition(
                    jid, "failed",
                    error=f"job exceeded its {self.job_timeout:g}s wall-clock "
                          "budget; partial records are checkpointed",
                )
            elif jid in self._cancelled:
                self.jobs.transition(jid, "cancelled", error="cancelled")
            else:  # draining: back to the queue, resume on next start
                self.jobs.transition(jid, "queued")
        except Exception as exc:
            self.jobs.transition(
                jid, "failed", error=f"{type(exc).__name__}: {exc}"
            )
        finally:
            if timer is not None:
                timer.cancel()


# ----------------------------------------------------------------------
# one dispatch for the HTTP handler
# ----------------------------------------------------------------------
_JOB_ID = re.compile(r"^/jobs/([0-9a-f]{6,64})(/records|/cancel)?$")


def dispatch(
    service: SchedulerService, method: str, path: str, body: bytes
) -> tuple[int, dict[str, str], Any]:
    """Route one request; returns ``(status, extra headers, payload)``.

    ``payload`` is a JSON-able dict, or a ``("file", path, length)``
    triple for the streamed record fetch.
    """
    if method == "GET" and path == "/healthz":
        status, out = service.health()
        return status, {}, out
    if method == "GET" and path == "/readyz":
        status, out = service.ready()
        return status, {}, out
    if path == "/jobs" and method == "POST":
        try:
            spec = json.loads(body or b"null")
        except json.JSONDecodeError as exc:
            return 400, {}, {"error": f"request body is not JSON: {exc}"}
        status, out = service.submit(spec)
        headers = {}
        if status == 429:
            headers["Retry-After"] = f"{service.retry_after:g}"
        return status, headers, out
    if path == "/jobs" and method == "GET":
        status, out = service.listing()
        return status, {}, out
    m = _JOB_ID.match(path)
    if m:
        jid, tail = m.group(1), m.group(2)
        if tail is None and method == "GET":
            status, out = service.status(jid)
            return status, {}, out
        if tail == "/cancel" and method == "POST":
            status, out = service.cancel(jid)
            return status, {}, out
        if tail == "/records" and method == "GET":
            status, out = service.records_file(jid)
            if status != 200:
                return status, {}, out
            fpath, length = out
            return 200, {}, ("file", fpath, length)
    return 404, {}, {"error": f"no route for {method} {path}"}


def _iter_file(path: str, length: int, chunk: int = 1 << 16):
    sent = 0
    if length:
        with open(path, "rb") as fh:
            while sent < length:
                piece = fh.read(min(chunk, length - sent))
                if not piece:
                    break  # file shrank under us; stop at what we have
                sent += len(piece)
                yield piece


# -- stdlib front end ---------------------------------------------------
#: seconds a keep-alive connection may sit idle before the server closes it
IDLE_TIMEOUT = 60.0


def _close_inherited(handler_cls) -> None:
    """After a fork: close the child's copies of the open connections.

    ``detach`` then ``os.close``: a plain ``close`` waits for the
    handler's ``rfile`` to let go of the socket, which never happens
    in a child where the handler thread does not exist.
    """
    for sock in list(handler_cls.connections):
        fd = sock.detach()
        if fd >= 0:
            os.close(fd)
    handler_cls.connections.clear()


def _make_handler(service: SchedulerService):
    """The request handler class for ``service``.

    Connections are HTTP/1.1 keep-alive with Nagle off (a reply's
    headers and body are two writes; with Nagle the second waits for
    the client's delayed ACK) and are closed after
    :data:`IDLE_TIMEOUT` idle seconds. The open ones are tracked so
    that a forked pool worker closes its inherited copies: otherwise a
    worker outliving a ``kill -9`` of the server keeps the client's
    connection open, and the client's next request on it stalls.
    """
    from http.server import BaseHTTPRequestHandler

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve"
        disable_nagle_algorithm = True
        timeout = IDLE_TIMEOUT
        connections: set = set()

        def setup(self) -> None:
            super().setup()
            self.connections.add(self.connection)

        def finish(self) -> None:
            self.connections.discard(self.connection)
            super().finish()

        def log_message(self, fmt, *args):  # quiet by default
            if os.environ.get("REPRO_SERVE_LOG"):
                super().log_message(fmt, *args)

        def _reply(self) -> None:
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length) if length else b""
            status, headers, out = dispatch(
                service, self.command, self.path.split("?", 1)[0], body
            )
            if isinstance(out, tuple) and out[0] == "file":
                _, fpath, flen = out
                self.send_response(status)
                self.send_header("Content-Type", "application/jsonl")
                self.send_header("Content-Length", str(flen))
                self.end_headers()
                for piece in _iter_file(fpath, flen):
                    self.wfile.write(piece)
                return
            payload = json.dumps(out).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            for k, v in headers.items():
                self.send_header(k, v)
            self.end_headers()
            self.wfile.write(payload)

        do_GET = do_POST = do_DELETE = _reply

    multiprocessing.util.register_after_fork(Handler, _close_inherited)
    return Handler


def serve(
    root: str,
    host: str = "127.0.0.1",
    port: int = 8042,
    *,
    workers: int = 1,
    queue_depth: int = 16,
    job_timeout: float | None = None,
    announce=print,
) -> int:
    """Run the scheduling service until SIGTERM/SIGINT; returns 0.

    Prints (via ``announce``) one JSON line with the bound address
    once ready -- with ``port=0`` the kernel picks a free port, so
    parse that line rather than guessing. The same line is journaled
    to ``<root>/service.json`` for tooling. A setting out of range
    (see :class:`SchedulerService`) is printed to stderr and returns
    2, before anything is journaled or bound.
    """
    from http.server import ThreadingHTTPServer

    try:
        service = SchedulerService(
            root,
            workers=workers,
            queue_depth=queue_depth,
            job_timeout=job_timeout,
        )
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    recovered = service.start()
    httpd = ThreadingHTTPServer((host, port), _make_handler(service))
    httpd.daemon_threads = True
    # The supervised pool forks workers that would inherit the listening
    # socket; if the server is then SIGKILLed those children keep the
    # port bound and a restarted server cannot bind it. Close the
    # inherited fd in every forked child.
    multiprocessing.util.register_after_fork(
        httpd, lambda srv: srv.socket.close()
    )
    bound = f"http://{httpd.server_address[0]}:{httpd.server_address[1]}"
    info = {"serving": bound, "root": service.jobs.root, "recovered": recovered}

    def _shutdown(signum, frame):  # pragma: no cover - signal path
        threading.Thread(target=httpd.shutdown, daemon=True).start()

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        previous[sig] = signal.signal(sig, _shutdown)
    try:
        with open(os.path.join(service.jobs.root, "service.json"), "w") as fh:
            json.dump(info, fh)
        announce(json.dumps(info), flush=True)
        httpd.serve_forever()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        httpd.server_close()
        service.drain()
    return 0
