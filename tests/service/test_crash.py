"""Crash drills against a real ``repro serve`` subprocess.

The acceptance scenario of the scheduling service: ``kill -9`` the
server mid-job, restart it, and the job resumes from its checkpoint
and finishes with a record stream **byte-identical** to an
uninterrupted run. Plus the graceful sibling (SIGTERM drains and
exits 0 with the job re-queued) and the chaos drill (worker crashes
and a torn checkpoint append injected via ``REPRO_FAULT_PLAN``)."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
from pathlib import Path

import pytest

from repro.analysis.campaign import run_campaign
from repro.service import payload as payload_mod
from repro.service.client import ServiceClient
from repro.service.payload import spec_from_dataset
from repro.testing.faults import CRASH_EXIT, ENV_VAR, Fault, FaultPlan


def _pythonpath() -> str:
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    existing = os.environ.get("PYTHONPATH", "")
    return os.path.abspath(src) + (os.pathsep + existing if existing else "")


def start_server(root, log_path, *, plan: FaultPlan | None = None, workers=2,
                 port=0):
    """Launch ``repro serve`` on an ephemeral port; returns
    ``(process, client)`` once /healthz answers."""
    info_path = os.path.join(root, "service.json")
    if os.path.exists(info_path):
        os.unlink(info_path)
    env = {**os.environ, "PYTHONPATH": _pythonpath()}
    env.pop(ENV_VAR, None)
    if plan is not None:
        env[ENV_VAR] = plan.to_json()
    with open(log_path, "ab") as log:  # the child keeps its own copy
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", root,
                "--port", str(port), "--workers", str(workers),
            ],
            env=env,
            stdout=log,
            stderr=log,
        )
    deadline = time.monotonic() + 120
    client = None
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise AssertionError(
                f"server died at startup (exit {proc.returncode}); "
                f"log:\n{Path(log_path).read_text()}"
            )
        if os.path.exists(info_path):
            try:
                base = json.loads(Path(info_path).read_bytes())["serving"]
                candidate = ServiceClient(base, timeout=10.0)
                if candidate.health()["ok"]:
                    client = candidate
                    break
            except (urllib.error.URLError, OSError, json.JSONDecodeError,
                    ConnectionError):
                pass
        time.sleep(0.05)
    assert client is not None, "server never became healthy"
    return proc, client


def wait_for_state(client, jid, want, timeout=120.0, min_records=0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        st = client.status(jid)
        if st["state"] == want and st["records"] >= min_records:
            return st
        time.sleep(0.05)
    raise AssertionError(f"job {jid} never reached {want}: {st}")


@pytest.fixture
def spec():
    return spec_from_dataset(
        scale="tiny", limit=2,
        algorithms=["ParSubtrees", "ParDeepestFirst"],
        processor_counts=[2, 4],
    )


@pytest.fixture
def reference(spec, tmp_path):
    path = tmp_path / "reference.jsonl"
    run_campaign(
        payload_mod.to_instances(spec),
        payload_mod.to_campaign(spec),
        checkpoint=str(path),
    )
    return path.read_bytes()


def job_dir(root, jid):
    return os.path.join(root, "jobs", jid)


class TestKillDashNine:
    def test_kill9_midjob_then_restart_resumes_byte_identical(
        self, spec, reference, tmp_path
    ):
        root = str(tmp_path / "svc")
        log = str(tmp_path / "serve.log")
        # slow faults stretch the run so the kill lands mid-job; slow
        # never changes records, so the reference still applies
        plan = FaultPlan((Fault(kind="slow", seconds=0.25),))
        proc, client = start_server(root, log, plan=plan)
        try:
            jid = client.submit(spec)["id"]
            wait_for_state(client, jid, "running", min_records=1)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            client.close()
        assert proc.returncode == -signal.SIGKILL

        # the journal still says running: the crash is visible on disk
        st = json.loads(Path(job_dir(root, jid), "state.json").read_bytes())
        assert st["state"] == "running"
        partial = Path(job_dir(root, jid), "records.jsonl").read_bytes()
        assert 0 < partial.count(b"\n") < reference.count(b"\n")
        # every complete line is a reference prefix line
        head = partial[: partial.rfind(b"\n") + 1]
        assert reference.startswith(head)

        # restart without faults -- on the SAME port: kill -9 must not
        # leave orphaned pool workers holding the inherited listening
        # socket (workers close it after fork and exit once orphaned)
        port = int(client.base.rsplit(":", 1)[1])
        proc2, client2 = start_server(root, log, port=port)
        try:
            st = wait_for_state(client2, jid, "done", timeout=180)
            assert st["records"] == reference.count(b"\n")
            got = client2.fetch_records(jid)
            assert got == reference
            on_disk = Path(job_dir(root, jid), "records.jsonl").read_bytes()
            assert on_disk == reference
        finally:
            client2.close()
            proc2.terminate()
            proc2.wait(timeout=30)


    def test_keepalive_client_survives_kill9_and_restart(self, spec, tmp_path):
        """One client across server generations: its parked connection
        dies with the killed server (the forked pool workers do not keep
        it open), so the first call to the restarted server reconnects
        and succeeds without waiting out a timeout."""
        root = str(tmp_path / "svc")
        log = str(tmp_path / "serve.log")
        proc, client = start_server(root, log)
        try:
            # the pool forks its workers while this connection is open
            jid = client.submit(spec)["id"]
            wait_for_state(client, jid, "done")
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        port = int(client.base.rsplit(":", 1)[1])
        proc2, client2 = start_server(root, log, port=port)
        try:
            t0 = time.monotonic()
            st = client.status(jid)
            assert time.monotonic() - t0 < 10.0
            assert st["state"] == "done"
        finally:
            client.close()
            client2.close()
            proc2.terminate()
            proc2.wait(timeout=30)


class TestGracefulDrain:
    def test_sigterm_drains_requeues_and_exits_zero(
        self, spec, reference, tmp_path
    ):
        root = str(tmp_path / "svc")
        log = str(tmp_path / "serve.log")
        plan = FaultPlan((Fault(kind="slow", seconds=0.25),))
        proc, client = start_server(root, log, plan=plan)
        jid = client.submit(spec)["id"]
        wait_for_state(client, jid, "running", min_records=1)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0  # graceful: exit 0
        client.close()

        st = json.loads(Path(job_dir(root, jid), "state.json").read_bytes())
        assert st["state"] == "queued"  # checkpointed, handed to the next server

        proc2, client2 = start_server(root, log)
        try:
            wait_for_state(client2, jid, "done", timeout=180)
            assert client2.fetch_records(jid) == reference
        finally:
            client2.close()
            proc2.terminate()
            proc2.wait(timeout=30)


class TestChaos:
    def test_worker_crashes_heal_in_place(self, spec, reference, tmp_path):
        """Crash faults in the *service workers*: the supervised pool
        retries and the job completes without any restart."""
        root = str(tmp_path / "svc")
        log = str(tmp_path / "serve.log")
        plan = FaultPlan(
            tuple(Fault(kind="crash", index=i, attempts=(0,)) for i in (1, 5))
        )
        proc, client = start_server(root, log, plan=plan)
        try:
            jid = client.submit(spec)["id"]
            wait_for_state(client, jid, "done", timeout=180)
            assert client.fetch_records(jid) == reference
        finally:
            client.close()
            proc.terminate()
            proc.wait(timeout=30)

    def test_torn_append_crashes_server_then_restart_heals(
        self, spec, reference, tmp_path
    ):
        """``truncate_write`` tears the 4th checkpoint append and
        hard-exits the whole server process -- the worst crash point
        (mid-write). Restart drops the torn line, resumes, and packs
        to byte-identity."""
        root = str(tmp_path / "svc")
        log = str(tmp_path / "serve.log")
        plan = FaultPlan((Fault(kind="truncate_write", record=3),))
        proc, client = start_server(root, log, plan=plan)
        jid = client.submit(spec)["id"]
        assert proc.wait(timeout=120) == CRASH_EXIT
        client.close()

        records_path = os.path.join(job_dir(root, jid), "records.jsonl")
        torn = Path(records_path).read_bytes()
        assert not torn.endswith(b"\n")  # the torn fourth line
        assert torn.count(b"\n") == 3

        proc2, client2 = start_server(root, log)
        try:
            wait_for_state(client2, jid, "done", timeout=180)
            assert client2.fetch_records(jid) == reference
            assert Path(records_path).read_bytes() == reference
        finally:
            client2.close()
            proc2.terminate()
            proc2.wait(timeout=30)
