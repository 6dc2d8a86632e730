"""Persistent :class:`SupervisorPool`: probe reuse, epochs, abort.

The one-shot :func:`run_supervised` chaos behaviour is covered by
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
from repro.analysis.experiments import ScenarioRecord
from repro.analysis.supervisor import (
    CampaignAborted,
    SupervisorPool,
    run_supervised,
)
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


class TestProbeReuse:
    def test_respawned_workers_skip_the_probe(self, instances, tasks):
        # one worker, crashed twice by the plan: the pool respawns it,
        # but only the very first worker pays the two-node probe sweep
        plan = FaultPlan(
            tuple(Fault(kind="crash", index=i, attempts=(0,)) for i in (1, 4))
        )
        emitted: list = []
        report = run_supervised(
            instances,
            tasks,
            workers=1,
            retries=2,
            backoff=0.02,
            fault_plan=plan,
            emit=collect(emitted),
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
        run_supervised(instances, tasks, emit=collect(ref))
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
        run_supervised(instances, one, emit=collect(ref))
        plan = FaultPlan((Fault(kind="slow", index=0, seconds=1.0),))
        with SupervisorPool(workers=2, fault_plan=plan) as pool:
            got: list = []
            report = pool.run(instances, one, emit=collect(got))
        assert got == ref
        workers = [s.attempts[0].worker for s in report.scenarios]
        assert workers[0] == workers[1] != workers[2] == workers[3]

    def test_closed_pool_rejects_runs(self, instances, tasks):
        pool = SupervisorPool(workers=1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.run(instances, tasks, emit=lambda gi, rs: None)
        pool.close()  # idempotent


class TestAbort:
    def test_abort_stops_cleanly_and_pool_survives(self, instances, tasks):
        ref: list = []
        run_supervised(instances, tasks, emit=collect(ref))
        with SupervisorPool(workers=1) as pool:
            stop = threading.Event()
            emitted: list = []

            def emit(gi, records):
                emitted.extend((gi, record) for record in records)
                if len(emitted) >= 3:
                    stop.set()

            with pytest.raises(CampaignAborted):
                pool.run(instances, tasks, emit=emit, abort=stop)
            # the emitted prefix is the reference prefix, in order
            assert emitted == ref[: len(emitted)]
            assert len(emitted) < len(tasks)

            # the pool is still serviceable: a fresh run completes and
            # any stale in-flight result is dropped by the epoch filter
            again: list = []
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
        with SupervisorPool(workers=1) as pool:
            with pytest.raises(CampaignAborted):
                pool.run(instances, tasks, emit=collect(emitted), abort=stop)
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
            a = run_campaign(instances, grid, pool=pool, report=reports)
            b = run_campaign(instances, grid, pool=pool, report=reports)
        assert a == ref and b == ref
        assert reports[0].probes >= 1
        assert reports[1].probes == 0  # pool reuse: no second probe

    def test_serial_prepare_hook(self, instances, grid):
        from repro.analysis.campaign import run_campaign
        from repro.core.prepared import PreparedTree

        ref = run_campaign(instances, grid)
        calls: list[str] = []

        def provider(inst):
            calls.append(inst.name)
            return PreparedTree(inst.tree)

        got = run_campaign(instances, grid, prepare=provider)
        assert got == ref
        assert calls == [inst.name for inst in instances]

    def test_abort_checkpoints_prefix_then_resume_heals(
        self, instances, grid, tmp_path
    ):
        from repro.analysis.campaign import run_campaign

        ref_path = tmp_path / "ref.jsonl"
        ref = run_campaign(instances, grid, checkpoint=str(ref_path))

        stop = threading.Event()

        def provider(inst):
            from repro.core.prepared import PreparedTree

            if inst.name == instances[1].name:  # abort before group 1 lands
                stop.set()
            return PreparedTree(inst.tree)

        path = tmp_path / "ck.jsonl"
        with pytest.raises(CampaignAborted):
            run_campaign(
                instances, grid, checkpoint=str(path),
                prepare=provider, abort=stop,
            )
        import filecmp

        resumed = run_campaign(instances, grid, checkpoint=str(path), resume=True)
        assert resumed == ref
        assert filecmp.cmp(str(ref_path), str(path), shallow=False)
