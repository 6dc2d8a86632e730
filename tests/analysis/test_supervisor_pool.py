"""Persistent :class:`SupervisorPool`: probe reuse, epochs, abort.

The chaos behaviour of a supervised campaign is covered by
``test_faults.py``; this module pins the pool-level contracts the
scheduling service depends on: one live backend probe per pool (every
respawn and every later run adopts the cached decision), worker reuse
across runs, and the ``abort`` event raising
:class:`CampaignAborted` while leaving the pool usable.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.analysis.campaign import Campaign
from repro.analysis.store import ScenarioRecord
from repro.analysis.supervisor import CampaignAborted, SupervisorPool
from repro.testing.faults import ENV_VAR, Fault, FaultPlan, install
from repro.workloads.dataset import TreeInstance
from repro.workloads.synthetic import random_weighted_tree


@pytest.fixture(autouse=True)
def _no_ambient_plan(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    install(None)
    yield
    install(None)


@pytest.fixture
def instances():
    rng = np.random.default_rng(7)
    return [
        TreeInstance(
            name=f"t{k}",
            tree=random_weighted_tree(20 + 5 * k, rng),
            matrix_name="synthetic",
            ordering="none",
            amalgamation=1,
        )
        for k in range(2)
    ]


@pytest.fixture
def tasks(instances):
    campaign = Campaign(
        algorithms=("ParSubtrees", "ParDeepestFirst"), processor_counts=(2, 4)
    )
    return [
        (gi, sc)
        for gi, inst in enumerate(instances)
        for sc in campaign.scenarios_for(inst.name)
    ]


def collect(emitted):
    def emit(gi, records):
        emitted.extend((gi, record) for record in records)

    return emit


def one_shot(instances, tasks, emit, **settings):
    """One run on a fresh pool, closed afterwards."""
    with SupervisorPool(**settings) as pool:
        return pool.run(instances, tasks, emit=emit)


class TestProbeReuse:
    def test_respawned_workers_skip_the_probe(self, instances, tasks):
        # one worker, crashed twice by the plan: the pool respawns it,
        # but only the very first worker pays the two-node probe sweep
        plan = FaultPlan(
            tuple(Fault(kind="crash", index=i, attempts=(0,)) for i in (1, 4))
        )
        emitted: list = []
        report = one_shot(
            instances,
            tasks,
            collect(emitted),
            workers=1,
            retries=2,
            backoff=0.02,
            fault_plan=plan,
        )
        assert report.respawns >= 2
        assert len(report.backends) >= 3  # the original + each respawn
        assert report.probes == 1
        # all workers converged on the same (cached) decision
        assert len({chosen for _, chosen, _ in report.backends}) == 1
        assert len(emitted) == len(tasks)

    def test_second_run_probes_nothing(self, instances, tasks):
        with SupervisorPool(workers=2) as pool:
            first: list = []
            r1 = pool.run(instances, tasks, emit=collect(first))
            second: list = []
            r2 = pool.run(instances, tasks, emit=collect(second))
        assert r1.probes >= 1
        assert r2.probes == 0  # held-over workers, no new spawn, no probe
        assert r2.respawns == 0
        assert r2.backends  # survivors still reported with their backend
        assert [rec for _, rec in second] == [rec for _, rec in first]


class TestPersistentPool:
    def test_records_match_one_shot_runs(self, instances, tasks):
        ref: list = []
        one_shot(instances, tasks, collect(ref))
        with SupervisorPool(workers=2) as pool:
            for _ in range(3):
                got: list = []
                pool.run(instances, tasks, emit=collect(got))
                assert got == ref

    def test_single_tree_split_across_workers(self, instances, tasks):
        """One tree and two workers: the group is split into two units.
        The first unit is held up, so the other worker takes the second."""
        one = [(gi, sc) for gi, sc in tasks if gi == 0]
        ref: list = []
        one_shot(instances, one, collect(ref))
        plan = FaultPlan((Fault(kind="slow", index=0, seconds=1.0),))
        with SupervisorPool(workers=2, fault_plan=plan) as pool:
            got: list = []
            report = pool.run(instances, one, emit=collect(got))
        assert got == ref
        workers = [s.attempts[0].worker for s in report.scenarios]
        assert workers[0] == workers[1] != workers[2] == workers[3]

    def test_report_counts_the_workers_that_took_part(self, instances, tasks):
        # one scenario on a two-worker pool spawns one worker; a later
        # run re-enlists the survivor and spawns the second
        with SupervisorPool(workers=2) as pool:
            r1 = pool.run(instances, tasks[:1], emit=collect([]))
            r2 = pool.run(instances, tasks, emit=collect([]))
        assert r1.workers == 1
        assert r1.summary().startswith("supervised run: 1 scenarios, 1 worker(s)")
        assert r2.workers == 2

    def test_closed_pool_rejects_runs(self, instances, tasks):
        pool = SupervisorPool(workers=1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.run(instances, tasks, emit=lambda gi, rs: None)
        pool.close()  # idempotent


class TestAbort:
    def test_abort_stops_cleanly_and_pool_survives(self, instances, tasks):
        ref: list = []
        one_shot(instances, tasks, collect(ref))
        stop = threading.Event()
        with SupervisorPool(workers=1, abort=stop) as pool:
            emitted: list = []

            def emit(gi, records):
                emitted.extend((gi, record) for record in records)
                if len(emitted) >= 3:
                    stop.set()

            with pytest.raises(CampaignAborted):
                pool.run(instances, tasks, emit=emit)
            # the emitted prefix is the reference prefix, in order
            assert emitted == ref[: len(emitted)]
            assert len(emitted) < len(tasks)

            # the pool is still serviceable: a fresh run completes and
            # any stale in-flight result is dropped by the epoch filter
            again: list = []
            pool.abort = None
            report = pool.run(instances, tasks, emit=collect(again))
            assert again == ref
            assert all(
                isinstance(rec, ScenarioRecord) for _, rec in again
            )
            assert report.probes == 0  # worker survived the abort

    def test_preset_abort_emits_nothing(self, instances, tasks):
        stop = threading.Event()
        stop.set()
        emitted: list = []
        with SupervisorPool(workers=1, abort=stop) as pool:
            with pytest.raises(CampaignAborted):
                pool.run(instances, tasks, emit=collect(emitted))
        assert emitted == []


class TestCampaignIntegration:
    @pytest.fixture
    def grid(self):
        return Campaign(
            algorithms=("ParSubtrees", "ParDeepestFirst"), processor_counts=(2, 4)
        )

    def test_run_campaign_on_persistent_pool(self, instances, grid):
        from repro.analysis.campaign import run_campaign

        ref = run_campaign(instances, grid)
        with SupervisorPool(workers=2) as pool:
            reports: list = []
            a = run_campaign(instances, grid, runtime=pool)
            reports.append(pool.report)
            b = run_campaign(instances, grid, runtime=pool)
            reports.append(pool.report)
        assert a == ref and b == ref
        assert reports[0].probes >= 1
        assert reports[1].probes == 0  # pool reuse: no second probe

    def test_abort_checkpoints_prefix_then_resume_heals(
        self, instances, grid, tmp_path, monkeypatch
    ):
        """A pool's ``abort`` event, with one worker: the run stops
        between scenarios, the checkpoint keeps the
        records already emitted, and a resume heals it to the bytes of
        an uninterrupted run."""
        from repro.analysis.campaign import run_campaign
        from repro.analysis.store import JsonlStore

        ref_path = tmp_path / "ref.jsonl"
        ref = run_campaign(instances, grid, checkpoint=str(ref_path))

        stop = threading.Event()
        append = JsonlStore.append

        def append_then_abort(self, records):
            append(self, records)
            stop.set()  # abort once the first batch is checkpointed

        # group 1 is slow, so its records cannot land before the abort
        slow = FaultPlan((Fault(kind="slow", seconds=0.5, scenario="t1|ParSubtrees|2"),))
        path = tmp_path / "ck.jsonl"
        with (
            monkeypatch.context() as m,
            SupervisorPool(workers=1, fault_plan=slow, abort=stop) as pool,
            pytest.raises(CampaignAborted),
        ):
            m.setattr(JsonlStore, "append", append_then_abort)
            run_campaign(instances, grid, checkpoint=str(path), runtime=pool)
        prefix = path.read_bytes()
        assert prefix and len(prefix) < ref_path.stat().st_size
        assert ref_path.read_bytes().startswith(prefix)

        resumed = run_campaign(instances, grid, checkpoint=str(path), resume=True)
        assert resumed == ref
        assert path.read_bytes() == ref_path.read_bytes()


# A supervisor process for the orphan drill: one worker, one tree group
# of 1000 MemoryBounded scenarios (~240 KB of "ok" messages, well past a
# 64 KiB pipe buffer) and a 2 s slow fault on the second scenario. On
# the first emitted record it prints its worker pids; the test then
# SIGKILLs it while the worker still has the rest of the unit to send.
_ORPHAN_SUPERVISOR = """
import multiprocessing

import numpy as np

from repro.analysis.campaign import Campaign
from repro.analysis.supervisor import SupervisorPool
from repro.testing.faults import Fault, FaultPlan
from repro.workloads.dataset import TreeInstance
from repro.workloads.synthetic import random_weighted_tree

inst = TreeInstance(
    name="t", tree=random_weighted_tree(30, np.random.default_rng(0)),
    matrix_name="synthetic", ordering="none", amalgamation=1,
)
grid = Campaign(
    algorithms=("MemoryBounded",), processor_counts=(2,),
    cap_factors=tuple(1 + k / 64 for k in range(1000)),
)
tasks = [(0, sc) for sc in grid.scenarios_for("t")]
plan = FaultPlan((Fault(kind="slow", index=1, seconds=2.0),))


def emit(gi, records):
    print(*(c.pid for c in multiprocessing.active_children()), flush=True)


with SupervisorPool(workers=1, fault_plan=plan) as pool:
    pool.run([inst], tasks, emit=emit)
"""


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie nobody reaps counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestOrphanedWorkers:
    def test_workers_exit_after_supervisor_sigkill_mid_unit(self):
        """A worker whose supervisor was SIGKILLed mid-unit, with more
        than a pipe buffer of results left to send, exits within 15 s
        instead of blocking in ``send`` for good."""
        import os
        import signal
        import subprocess
        import sys
        import time

        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        env.pop(ENV_VAR, None)
        proc = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_SUPERVISOR],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        pids: list[int] = []
        try:
            pids = [int(x) for x in proc.stdout.readline().split()]
            assert pids, "the supervisor printed no worker pid"
            proc.kill()
            proc.wait(timeout=30)
            deadline = time.monotonic() + 15.0
            while any(map(_alive, pids)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not [pid for pid in pids if _alive(pid)]
        finally:
            if proc.poll() is None:  # pragma: no cover - safety net
                proc.kill()
                proc.wait()
            for pid in pids:  # a leaked worker must not outlive the test
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
