"""The service over real HTTP (in-process stdlib server): lifecycle,
byte-identity, idempotency, backpressure, cancel, drain, health."""

from __future__ import annotations

import json
import threading
import urllib.request
from http.server import ThreadingHTTPServer

import numpy as np
import pytest

from repro.analysis.campaign import run_campaign
from repro.service import payload as payload_mod
from repro.service.client import ServiceClient, ServiceError
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


class Harness:
    def __init__(self, tmp_path, **kwargs):
        self.service = SchedulerService(str(tmp_path / "svc"), **kwargs)
        self.service.start()
        self.httpd = ThreadingHTTPServer(
            ("127.0.0.1", 0), _make_handler(self.service)
        )
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, daemon=True
        )
        self.thread.start()
        self.base = f"http://127.0.0.1:{self.httpd.server_address[1]}"
        self.client = ServiceClient(self.base, timeout=30.0)

    def close(self):
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
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
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
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
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
