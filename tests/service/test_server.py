"""The service over real HTTP (in-process stdlib server): lifecycle,
byte-identity, idempotency, backpressure, cancel, drain, health."""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import socket
import threading
import time
import urllib.request
from http.server import ThreadingHTTPServer

import numpy as np
import pytest

from repro.analysis.campaign import run_campaign
from repro.service import payload as payload_mod
from repro.service.client import ServiceClient, ServiceError
from repro.service.client import main as client_main
from repro.service.payload import spec_from_instances
from repro.service.server import SchedulerService, _make_handler
from repro.testing.faults import ENV_VAR, Fault, FaultPlan, install
from repro.workloads.dataset import TreeInstance
from repro.workloads.synthetic import random_weighted_tree


@pytest.fixture(autouse=True)
def _no_ambient_plan(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    install(None)
    yield
    install(None)


def make_spec(seed=5, n=25, trees=2, **run):
    rng = np.random.default_rng(seed)
    insts = [
        TreeInstance(
            name=f"t{k}",
            tree=random_weighted_tree(n + 5 * k, rng),
            matrix_name="synthetic",
            ordering="none",
            amalgamation=1,
        )
        for k in range(trees)
    ]
    return spec_from_instances(
        insts,
        algorithms=["ParSubtrees", "ParDeepestFirst"],
        processor_counts=[2, 4],
        **run,
    )


def reference_bytes(spec, tmp_path, name="ref.jsonl") -> bytes:
    path = tmp_path / name
    run_campaign(
        payload_mod.to_instances(spec),
        payload_mod.to_campaign(spec),
        checkpoint=str(path),
    )
    return path.read_bytes()


class CountingServer(ThreadingHTTPServer):
    """Counts the connections it accepts."""

    accepted = 0

    def get_request(self):
        request = super().get_request()
        self.accepted += 1
        return request


class Harness:
    def __init__(self, tmp_path, **kwargs):
        self.service = SchedulerService(str(tmp_path / "svc"), **kwargs)
        self.service.start()
        self.httpd = CountingServer(
            ("127.0.0.1", 0), _make_handler(self.service)
        )
        self.thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self.thread.start()
        self.base = f"http://127.0.0.1:{self.httpd.server_address[1]}"
        self.client = ServiceClient(self.base, timeout=30.0)

    def close(self):
        self.client.close()
        self.httpd.shutdown()
        self.httpd.server_close()
        self.service.drain()


@pytest.fixture
def harness(tmp_path):
    h = Harness(tmp_path, workers=2, queue_depth=4)
    yield h
    h.close()


class TestLifecycle:
    def test_supervised_job_end_to_end_byte_identical(self, harness, tmp_path):
        spec = make_spec()
        job = harness.client.submit(spec)
        assert job["state"] in ("queued", "running", "done")
        st = harness.client.wait(job["id"], timeout=180)
        assert st["state"] == "done", st
        assert st["records"] == 8
        got = harness.client.fetch_records(job["id"])
        assert got == reference_bytes(spec, tmp_path)

    def test_idempotent_resubmission(self, harness):
        spec = make_spec()
        first = harness.client.submit(spec)
        harness.client.wait(first["id"], timeout=180)
        again = harness.client.submit(spec)
        assert again["id"] == first["id"]
        assert again["state"] == "done"  # no re-execution
        assert len(harness.client.jobs()) == 1

    def test_status_404_and_bad_spec_400(self, harness):
        with pytest.raises(ServiceError) as exc:
            harness.client.status("deadbeefdeadbeefdeadbeef")
        assert exc.value.status == 404
        with pytest.raises(ServiceError) as exc:
            harness.client.submit({"trees": []})
        assert exc.value.status == 400
        assert "trees" in str(exc.value)
        with pytest.raises(ServiceError) as exc:
            harness.client._request("GET", "/nope")
        assert exc.value.status == 404

    def test_records_file_serves_complete_lines_only(self, harness):
        job, _ = harness.service.jobs.create(make_spec(seed=61))
        assert harness.service.records_file(job.id) == (
            200, (job.records_path, 0)
        )  # no file yet
        with open(job.records_path, "wb") as fh:
            fh.write(b'{"a":1}\n{"b":2}\n{"torn')
        assert harness.service.records_file(job.id) == (
            200, (job.records_path, 16)
        )
        assert harness.client.fetch_records(job.id) == b'{"a":1}\n{"b":2}\n'
        assert harness.service.records_file("deadbeefdeadbeef")[0] == 404

    def test_health_and_ready(self, harness):
        h = harness.client.health()
        assert h["ok"] and not h["draining"]
        r = harness.client.ready()
        assert r["ready"] and r["backend"] in ("c", "python")


class TestSettings:
    @pytest.mark.parametrize(
        "kwargs, msg",
        [
            (dict(workers=0), "workers must be >= 1"),
            (dict(workers=-2), "workers must be >= 1"),
            (dict(queue_depth=0), "queue_depth must be >= 1"),
            (dict(job_timeout=0), "job_timeout must be None or > 0"),
            (dict(job_timeout=-1.0), "job_timeout must be None or > 0"),
            (dict(job_timeout=float("nan")), "job_timeout must be None or > 0"),
        ],
    )
    def test_out_of_range_settings_are_rejected(self, tmp_path, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            SchedulerService(str(tmp_path / "svc"), **kwargs)
        assert not (tmp_path / "svc").exists()  # nothing journaled


class TestBackpressure:
    def test_429_with_retry_after_once_queue_is_full(self, tmp_path):
        # no executor: queued jobs stay queued, deterministically
        service = SchedulerService(str(tmp_path / "svc"), queue_depth=2)
        httpd = ThreadingHTTPServer(
            ("127.0.0.1", 0), _make_handler(service)
        )
        threading.Thread(
            target=httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        ).start()
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            for seed in (1, 2):
                req = urllib.request.Request(
                    base + "/jobs",
                    data=json.dumps(make_spec(seed=seed)).encode(),
                    method="POST",
                )
                with urllib.request.urlopen(req) as resp:
                    assert resp.status == 201
            req = urllib.request.Request(
                base + "/jobs",
                data=json.dumps(make_spec(seed=3)).encode(),
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(req)
            assert exc.value.code == 429
            assert float(exc.value.headers["Retry-After"]) > 0
            body = json.loads(exc.value.read())
            assert "queue full" in body["error"]
            # over-limit work was never journaled as pending
            assert len(service.jobs.ids()) == 2
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_client_submit_retries_through_429(self, tmp_path):
        service = SchedulerService(
            str(tmp_path / "svc"), queue_depth=1, retry_after=0.05
        )
        httpd = ThreadingHTTPServer(
            ("127.0.0.1", 0), _make_handler(service)
        )
        threading.Thread(
            target=httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        ).start()
        client = ServiceClient(
            f"http://127.0.0.1:{httpd.server_address[1]}"
        )
        try:
            client.submit(make_spec(seed=1))  # fills the queue
            release = threading.Timer(
                0.2, lambda: service._queue.clear()
            )
            release.start()
            job = client.submit(make_spec(seed=2))  # blocks, then lands
            assert job["state"] == "queued"
        finally:
            release.cancel()
            client.close()
            httpd.shutdown()
            httpd.server_close()


class TestCancelAndDrain:
    def test_cancel_queued_job(self, tmp_path):
        service = SchedulerService(str(tmp_path / "svc"), queue_depth=4)
        job, _ = service.jobs.create(make_spec(seed=11))
        service._queue.append(job.id)
        status, out = service.cancel(job.id)
        assert status == 200 and out["state"] == "cancelled"
        assert job.id not in service._queue

    def test_cancel_running_job_via_http(self, harness):
        # slow faults stretch the job so the cancel lands mid-run
        plan = FaultPlan((Fault(kind="slow", seconds=0.4),))
        install(plan)  # captured by the pool at first supervised job
        try:
            job = harness.client.submit(make_spec(seed=21))
            for _ in range(400):
                st = harness.client.status(job["id"])
                if st["state"] == "running":
                    break
                import time as _t
                _t.sleep(0.01)
            out = harness.client.cancel(job["id"])
            assert out.get("cancelling") or out["state"] == "cancelled"
            st = harness.client.wait(job["id"], timeout=60)
            assert st["state"] == "cancelled"
        finally:
            install(None)

    def test_cancel_done_job_is_409(self, harness):
        job = harness.client.submit(make_spec(seed=31))
        harness.client.wait(job["id"], timeout=180)
        with pytest.raises(ServiceError) as exc:
            harness.client.cancel(job["id"])
        assert exc.value.status == 409

    def test_drain_rejects_submissions_and_readyz(self, harness):
        harness.service.draining = True
        with pytest.raises(ServiceError) as exc:
            harness.client.submit(make_spec(seed=41))
        assert exc.value.status == 503
        with pytest.raises(ServiceError) as exc:
            harness.client.ready()
        assert exc.value.status == 503
        assert harness.client.health()["draining"]  # healthz stays 200


class TestJobTimeout:
    def test_wall_clock_budget_fails_the_job(self, tmp_path):
        spec = make_spec(seed=51)
        ref = reference_bytes(spec, tmp_path)  # at full speed, fault-free
        plan = FaultPlan((Fault(kind="slow", seconds=0.3),))
        install(plan)
        h = Harness(tmp_path, workers=1, job_timeout=0.5)
        try:
            job = h.client.submit(spec)
            st = h.client.wait(job["id"], timeout=120)
            assert st["state"] == "failed"
            assert "wall-clock" in st["error"]
            assert "partial records are checkpointed" in st["error"]
            # ... and they are: a non-empty prefix of the full stream
            got = (tmp_path / "svc" / "jobs" / job["id"] / "records.jsonl").read_bytes()
            assert got and len(got) < len(ref)
            assert ref.startswith(got)
        finally:
            install(None)
            h.close()


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class RawServer:
    """A socket server that reads one request per connection, sends
    ``replies[k]`` on the k-th connection (nothing once they run out)
    and closes it -- a server that drops connections on purpose."""

    OK = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
          b"Content-Length: 2\r\n\r\n{}")

    def __init__(self, replies=()):
        self.replies = list(replies)
        self.accepted = 0
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.base = f"http://127.0.0.1:{self.sock.getsockname()[1]}"
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return  # closed
            with conn:
                self.accepted += 1
                data = b""
                while b"\r\n\r\n" not in data:
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    data += chunk
                if self.replies:
                    conn.sendall(self.replies.pop(0))

    def close(self):
        self.sock.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        self.sock.close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


def _report_inherited(pipe, handler_cls, inodes):
    """Forked child: which parent connection fds still hold their
    socket, and how many connections the handler still tracks."""
    alive = []
    for fd, ino in inodes.items():
        try:
            if os.fstat(fd).st_ino == ino:
                alive.append(fd)
        except OSError:
            pass
    pipe.send((alive, len(handler_cls.connections)))
    pipe.close()


class TestKeepAlive:
    def test_one_connection_serves_many_requests(self, harness):
        for _ in range(10):
            assert harness.client.health()["ok"]
        with pytest.raises(ServiceError):
            harness.client.status("deadbeefdeadbeefdeadbeef")  # a 404 too
        assert harness.client.ready()["ready"]
        assert harness.httpd.accepted == 1

    def test_each_thread_has_its_own_connection(self, harness):
        served = threading.Barrier(4)
        closed = threading.Event()

        def work():
            for _ in range(5):
                harness.client.health()
            served.wait(timeout=30)
            closed.wait(timeout=30)  # keep this thread's connection

        threads = [threading.Thread(target=work) for _ in range(3)]
        for t in threads:
            t.start()
        try:
            served.wait(timeout=30)
            assert harness.httpd.accepted == 3
            harness.client.close()  # closes all three, from this thread
            handler = harness.httpd.RequestHandlerClass
            wait_until(lambda: not handler.connections)
        finally:
            closed.set()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()

    def test_replies_leave_with_nagle_off(self, harness):
        harness.client.health()
        (conn,) = harness.httpd.RequestHandlerClass.connections
        assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_connection_closed_when_idle_reconnects(self, harness):
        handler = harness.httpd.RequestHandlerClass
        handler.timeout = 0.2  # the server drops idle connections fast
        assert harness.client.health()["ok"]
        wait_until(lambda: not handler.connections)  # closed by the server
        assert harness.client.health()["ok"]  # transparently reconnected
        assert harness.httpd.accepted == 2

    def test_failure_on_a_fresh_connection_raises(self):
        server = RawServer()  # closes every connection unanswered
        try:
            with pytest.raises((http.client.RemoteDisconnected,
                                ConnectionResetError)):
                ServiceClient(server.base, timeout=5).health()
            time.sleep(0.2)
            assert server.accepted == 1  # no retry
        finally:
            server.close()

    def test_stale_connection_is_retried_exactly_once(self):
        server = RawServer([RawServer.OK, RawServer.OK])
        client = ServiceClient(server.base, timeout=5)
        try:
            assert client.health() == {}
            # the server dropped that connection: retry on a fresh one
            assert client.health() == {}
            assert server.accepted == 2
            # dropped again, and the fresh connection fails too: raise
            with pytest.raises((http.client.RemoteDisconnected,
                                ConnectionResetError)):
                client.health()
            time.sleep(0.2)
            assert server.accepted == 3
        finally:
            client.close()
            server.close()

    def test_refused_connection_raises(self):
        with socket.create_server(("127.0.0.1", 0)) as s:
            port = s.getsockname()[1]
        with pytest.raises(ConnectionRefusedError):
            ServiceClient(f"http://127.0.0.1:{port}", timeout=5).health()

    def test_forked_child_closes_the_open_connections(self, harness):
        harness.client.health()
        handler = harness.httpd.RequestHandlerClass
        inodes = {
            s.fileno(): os.fstat(s.fileno()).st_ino for s in handler.connections
        }
        assert len(inodes) == 1
        ctx = multiprocessing.get_context("fork")
        ours, theirs = ctx.Pipe()
        child = ctx.Process(
            target=_report_inherited, args=(theirs, handler, inodes)
        )
        child.start()
        try:
            assert ours.poll(30)
            assert ours.recv() == ([], 0)
        finally:
            child.join(timeout=30)
        assert child.exitcode == 0
        # the parent's copy is untouched: the same connection still works
        assert harness.client.health()["ok"]
        assert harness.httpd.accepted == 1

    def test_cli_closes_its_client(self, harness, capsys):
        assert client_main(["--base", harness.base, "health"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]
        handler = harness.httpd.RequestHandlerClass
        wait_until(lambda: not handler.connections)

    def test_context_manager_closes(self, harness):
        handler = harness.httpd.RequestHandlerClass
        with ServiceClient(harness.base) as client:
            client.health()
            assert len(handler.connections) == 1
        wait_until(lambda: not handler.connections)
