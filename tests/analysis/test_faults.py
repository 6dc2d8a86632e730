"""Chaos suite: the supervised campaign runtime under injected faults.

The acceptance contract of the fault-tolerant runtime is *byte
identity*: whatever combination of worker crashes, forced compile
failures, wedged scenarios and truncated checkpoint appends a
:class:`~repro.testing.faults.FaultPlan` injects, every scenario that
eventually succeeds must produce exactly the record an undisturbed run
produces, in exactly the same stream position -- and quarantined
scenarios must surface as structured ``FailedRecord`` entries that a
resume handles deterministically (skip by default, recompute with
``retry_failed=True``).

The harness itself is deterministic (faults match on scenario identity
and attempt number, never wall-clock or worker id), which is what makes
these assertions exact rather than statistical.
"""

from __future__ import annotations

import filecmp
import json
import os
import signal
import stat
import subprocess
import sys
import time

import pytest

from repro.analysis.campaign import Campaign, recover_checkpoint, run_campaign
from repro.analysis.experiments import (
    FailedRecord,
    ScenarioRecord,
    load_records,
    save_records,
)
import repro.analysis.supervisor as supervisor_mod
from repro.analysis.supervisor import RunReport
from repro.testing.faults import (
    CRASH_EXIT,
    ENV_VAR,
    Fault,
    FaultPlan,
    active_plan,
    install,
    scenario_key,
)
from repro.workloads.dataset import TreeInstance
from repro.workloads.synthetic import random_weighted_tree


@pytest.fixture(autouse=True)
def _no_ambient_plan(monkeypatch):
    """Chaos tests control their plans explicitly; never inherit one."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    install(None)
    yield
    install(None)


@pytest.fixture
def instances(rng):
    return [
        TreeInstance(
            name=f"t{k}",
            tree=random_weighted_tree(25 + 10 * k, rng),
            matrix_name="synthetic",
            ordering="none",
            amalgamation=1,
        )
        for k in range(3)
    ]


@pytest.fixture
def campaign():
    return Campaign(
        algorithms=("ParSubtrees", "ParDeepestFirst"), processor_counts=(2, 4)
    )


@pytest.fixture
def reference(instances, campaign, tmp_path):
    """The undisturbed record stream and its checkpoint bytes."""
    path = tmp_path / "reference.jsonl"
    records = run_campaign(instances, campaign, checkpoint=str(path))
    return records, path


# ----------------------------------------------------------------------
# the fault plan itself
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_matching_by_scenario_index_and_attempt(self):
        f = Fault(kind="crash", scenario="t|A|2", index=3, attempts=(0, 2))
        assert f.matches("crash", "t|A|2", 3, 0)
        assert f.matches("crash", "t|A|2", 3, 2)
        assert not f.matches("crash", "t|A|2", 3, 1)
        assert not f.matches("crash", "t|A|2", 4, 0)
        assert not f.matches("crash", "t|B|2", 3, 0)
        assert not f.matches("slow", "t|A|2", 3, 0)

    def test_empty_attempts_is_poison(self):
        f = Fault(kind="crash", scenario="t|A|2")
        for attempt in range(5):
            assert f.matches("crash", "t|A|2", 0, attempt)

    def test_wildcards(self):
        f = Fault(kind="compile_failure")
        assert f.matches("compile_failure")
        assert f.matches("compile_failure", "any", 7, 3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault(kind="meteor")

    def test_json_round_trip(self):
        plan = FaultPlan(
            (
                Fault(kind="crash", scenario="t|A|2", attempts=(0,)),
                Fault(kind="slow", index=4, seconds=1.5),
                Fault(kind="truncate_write", record=2, keep_bytes=7),
            )
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_json_diagnostics(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(ValueError, match=r'\{"faults": \[...\]\}'):
            FaultPlan.from_json('{"other": 1}')
        with pytest.raises(ValueError, match="fault #0 is invalid"):
            FaultPlan.from_json('{"faults": [{"kind": "meteor"}]}')

    def test_without(self):
        plan = FaultPlan(
            (Fault(kind="crash"), Fault(kind="compile_failure"), Fault(kind="crash"))
        )
        assert plan.without("crash") == FaultPlan((Fault(kind="compile_failure"),))

    def test_env_activation_inline_and_file(self, monkeypatch, tmp_path):
        plan = FaultPlan((Fault(kind="compile_failure"),))
        monkeypatch.setenv(ENV_VAR, plan.to_json())
        assert active_plan() == plan
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        monkeypatch.setenv(ENV_VAR, f"@{path}")
        assert active_plan() == plan
        monkeypatch.delenv(ENV_VAR)
        assert active_plan() is None

    def test_installed_plan_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, FaultPlan((Fault(kind="crash"),)).to_json())
        installed = FaultPlan((Fault(kind="compile_failure"),))
        install(installed)
        assert active_plan() == installed

    def test_scenario_key_matches_record_identity(self):
        assert scenario_key("t1", "MemoryBounded@cap1.5", 4) == "t1|MemoryBounded@cap1.5|4"


# ----------------------------------------------------------------------
# supervised mode: fault-free byte identity
# ----------------------------------------------------------------------
class TestSupervisedEquivalence:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_fault_free_supervised_is_byte_identical(
        self, instances, campaign, reference, tmp_path, workers
    ):
        records, ref_path = reference
        path = tmp_path / "supervised.jsonl"
        got = run_campaign(
            instances, campaign, checkpoint=str(path), supervise=True, workers=workers
        )
        assert got == records
        assert filecmp.cmp(str(ref_path), str(path), shallow=False)

    def test_fault_free_single_tree_split(self, instances, campaign, tmp_path):
        """One tree on three workers: its group is split into three
        units, and the checkpoint is still the in-process one."""
        ref = tmp_path / "ref.jsonl"
        records = run_campaign(instances[:1], campaign, checkpoint=str(ref))
        path = tmp_path / "split.jsonl"
        got = run_campaign(instances[:1], campaign, checkpoint=str(path), workers=3)
        assert got == records
        assert filecmp.cmp(str(ref), str(path), shallow=False)

    def test_supervisor_never_sleeps(
        self, instances, campaign, reference, tmp_path, monkeypatch
    ):
        """The supervisor blocks on the result pipe and the worker
        sentinels instead of sleeping a poll tick between reads."""
        records, ref_path = reference

        def no_sleep(seconds):
            raise AssertionError(f"slept {seconds}s")

        monkeypatch.setattr(supervisor_mod.time, "sleep", no_sleep)
        path = tmp_path / "supervised.jsonl"
        got = run_campaign(
            instances, campaign, checkpoint=str(path), supervise=True, workers=2
        )
        assert got == records
        assert filecmp.cmp(str(ref_path), str(path), shallow=False)

    def test_report_records_backends_and_clean_run(self, instances, campaign):
        reports: list[RunReport] = []
        run_campaign(instances, campaign, supervise=True, workers=2, report=reports)
        (rep,) = reports
        assert rep.workers == 2
        assert len(rep.backends) >= 1
        for _wid, chosen, _skipped in rep.backends:
            assert chosen in ("python", "c", "kernel")
        assert rep.respawns == 0
        assert not rep.retried and not rep.quarantined
        assert "no retries, no quarantines" in rep.summary()


# ----------------------------------------------------------------------
# chaos equivalence: crash + compile failure + timeout in one run
# ----------------------------------------------------------------------
class TestChaosEquivalence:
    def test_crash_compile_failure_and_timeout_heal_to_byte_identity(
        self, instances, campaign, reference, tmp_path
    ):
        """The issue's acceptance scenario: at least one worker crash,
        one forced compile failure and one scenario timeout with retry
        in a single campaign -- every record byte-identical to the
        undisturbed run."""
        records, ref_path = reference
        plan = FaultPlan(
            (
                Fault(kind="crash", index=3, attempts=(0,)),
                Fault(kind="slow", index=7, attempts=(0,), seconds=8.0),
                Fault(kind="compile_failure"),
            )
        )
        path = tmp_path / "chaos.jsonl"
        reports: list[RunReport] = []
        got = run_campaign(
            instances,
            campaign,
            checkpoint=str(path),
            supervise=True,
            workers=2,
            retries=2,
            timeout=1.0,
            backoff=0.05,
            fault_plan=plan,
            report=reports,
        )
        assert got == records
        assert filecmp.cmp(str(ref_path), str(path), shallow=False)
        (rep,) = reports
        assert rep.respawns >= 1  # the crashed worker was replaced
        statuses = {a.status for s in rep.scenarios for a in s.attempts}
        assert "crash" in statuses and "timeout" in statuses
        assert not rep.quarantined  # everything recovered
        # the injected compile failure forced the chain off the C backend
        for _wid, chosen, _skipped in rep.backends:
            assert chosen != "c"

    def test_crash_on_every_worker_still_completes(
        self, instances, campaign, reference
    ):
        records, _ = reference
        # first attempt of four different scenarios crashes the worker
        plan = FaultPlan(
            tuple(Fault(kind="crash", index=i, attempts=(0,)) for i in (0, 4, 8, 11))
        )
        got = run_campaign(
            instances,
            campaign,
            supervise=True,
            workers=2,
            retries=1,
            backoff=0.02,
            fault_plan=plan,
        )
        assert got == records


    def test_crash_mid_unit_charges_only_its_scenario(
        self, instances, tmp_path, monkeypatch
    ):
        """A crash on the 3rd scenario of a 6-scenario tree unit charges
        that scenario alone; the two before it were already reported and
        the three after it are re-dispatched without a charge."""
        camp = Campaign(
            algorithms=("ParSubtrees", "ParDeepestFirst", "ParInnerFirst"),
            processor_counts=(2, 4),
        )
        ref = tmp_path / "ref.jsonl"
        run_campaign(instances[:1], camp, checkpoint=str(ref))
        monkeypatch.setattr(supervisor_mod.time, "sleep", lambda s: 1 / 0)
        path = tmp_path / "crash.jsonl"
        reports: list[RunReport] = []
        run_campaign(
            instances[:1],
            camp,
            checkpoint=str(path),
            supervise=True,
            workers=1,
            backoff=0.02,
            fault_plan=FaultPlan((Fault(kind="crash", index=2, attempts=(0,)),)),
            report=reports,
        )
        (rep,) = reports
        assert len(rep.scenarios) == 6
        trails = [[(a.attempt, a.status) for a in s.attempts] for s in rep.scenarios]
        assert trails[2] == [(0, "crash"), (1, "ok")]
        assert trails[:2] + trails[3:] == [[(0, "ok")]] * 5
        assert rep.respawns == 1
        assert filecmp.cmp(str(ref), str(path), shallow=False)


# ----------------------------------------------------------------------
# quarantine and deterministic resume
# ----------------------------------------------------------------------
class TestQuarantine:
    POISON = "t1|ParSubtrees|2"

    def poison_plan(self):
        return FaultPlan((Fault(kind="crash", scenario=self.POISON),))

    def test_poison_scenario_becomes_failed_record(
        self, instances, campaign, tmp_path
    ):
        path = tmp_path / "poison.jsonl"
        reports: list[RunReport] = []
        got = run_campaign(
            instances,
            campaign,
            checkpoint=str(path),
            supervise=True,
            retries=1,
            backoff=0.02,
            fault_plan=self.poison_plan(),
            report=reports,
        )
        failed = [r for r in got if isinstance(r, FailedRecord)]
        assert len(failed) == 1
        (fr,) = failed
        assert (fr.tree, fr.heuristic, fr.p) == ("t1", "ParSubtrees", 2)
        assert fr.attempts == 2  # retries=1 -> two attempts total
        assert f"exit code {CRASH_EXIT}" in fr.error
        # the record sits at its exact stream position in the checkpoint
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        expected = [
            sc.key() for inst in instances for sc in campaign.scenarios_for(inst.name)
        ]
        assert [(r["tree"], r["heuristic"], r["p"]) for r in rows] == expected
        assert [bool(r.get("failed")) for r in rows].count(True) == 1
        (rep,) = reports
        assert [s.key for s in rep.quarantined] == [self.POISON]

    def test_resume_skips_failed_records_by_default(
        self, instances, campaign, tmp_path
    ):
        path = tmp_path / "poison.jsonl"
        first = run_campaign(
            instances,
            campaign,
            checkpoint=str(path),
            supervise=True,
            retries=0,
            fault_plan=self.poison_plan(),
        )
        before = path.read_bytes()
        resumed = run_campaign(
            instances, campaign, checkpoint=str(path), resume=True, supervise=True
        )
        assert resumed == first  # nothing recomputed, failure preserved
        assert path.read_bytes() == before

    def test_retry_failed_heals_to_byte_identity(
        self, instances, campaign, reference, tmp_path
    ):
        records, ref_path = reference
        path = tmp_path / "poison.jsonl"
        run_campaign(
            instances,
            campaign,
            checkpoint=str(path),
            supervise=True,
            retries=0,
            fault_plan=self.poison_plan(),
        )
        healed = run_campaign(
            instances,
            campaign,
            checkpoint=str(path),
            resume=True,
            supervise=True,
            retry_failed=True,  # the fault is gone: recompute from there
        )
        assert healed == records
        assert filecmp.cmp(str(ref_path), str(path), shallow=False)

    def test_deterministic_error_quarantines_without_retry(self, instances):
        """An infeasible memory cap raises MemoryCapError on every
        attempt; the supervisor must not burn retries on it."""
        camp = Campaign(
            algorithms=("MemoryBounded",),
            processor_counts=(2,),
            cap_factors=(0.05,),  # far below the sequential optimum
        )
        reports: list[RunReport] = []
        got = run_campaign(
            instances[:1], camp, supervise=True, retries=3, report=reports
        )
        (fr,) = got
        assert isinstance(fr, FailedRecord)
        assert fr.attempts == 1  # quarantined on first sight
        assert "MemoryCapError" in fr.error
        (rep,) = reports
        assert rep.quarantined and len(rep.quarantined[0].attempts) == 1

    def test_recover_checkpoint_round_trips_failed_records(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        ok = ScenarioRecord("t", 5, 2, "A", 1.0, 2.0, 1.0, 1.0)
        bad = FailedRecord("t", 5, 2, "B", "MemoryCapError: infeasible", 1)
        save_records([ok, bad], str(path), append=True)
        records, _pos = recover_checkpoint(str(path))
        assert records == [ok, bad]

    def test_load_records_filters_failed_by_default(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        ok = ScenarioRecord("t", 5, 2, "A", 1.0, 2.0, 1.0, 1.0)
        bad = FailedRecord("t", 5, 2, "B", "boom", 2)
        save_records([ok, bad], str(path), append=True)
        assert load_records(str(path)) == [ok]
        assert load_records(str(path), include_failed=True) == [ok, bad]


# ----------------------------------------------------------------------
# durability: fsync pinning for checkpoints (satellite)
# ----------------------------------------------------------------------
class TestDurability:
    def records(self):
        return [ScenarioRecord("t", 5, 2, "A", 1.0, 2.0, 1.0, 1.0)]

    def test_jsonl_append_fsyncs_before_returning(self, tmp_path, monkeypatch):
        calls: list[int] = []
        real = os.fsync

        def spy(fd):
            calls.append(fd)
            return real(fd)

        monkeypatch.setattr(os, "fsync", spy)
        save_records(self.records(), str(tmp_path / "r.jsonl"), append=True)
        assert calls, "append path returned without fsync"

    def test_fresh_write_fsyncs_file_and_directory(self, tmp_path, monkeypatch):
        synced: list[tuple[int, bool]] = []
        real = os.fsync

        def spy(fd):
            synced.append((fd, stat.S_ISDIR(os.fstat(fd).st_mode)))
            return real(fd)

        monkeypatch.setattr(os, "fsync", spy)
        save_records(self.records(), str(tmp_path / "r.json"))
        kinds = [is_dir for _fd, is_dir in synced]
        assert False in kinds, "file contents not fsynced"
        assert True in kinds, "containing directory not fsynced after rename"


# ----------------------------------------------------------------------
# subprocess chaos: truncated writes, SIGKILL, CLI signals
# ----------------------------------------------------------------------
_GRID_SRC = """
import numpy as np
from repro.analysis.campaign import Campaign, run_campaign
from repro.workloads.dataset import TreeInstance
from repro.workloads.synthetic import random_weighted_tree

def make_grid(sizes=(25, 35, 45), backend=None, procs=(2, 4)):
    rng = np.random.default_rng(20130520)
    instances = [
        TreeInstance(name=f"t{k}", tree=random_weighted_tree(n, rng),
                     matrix_name="synthetic", ordering="none", amalgamation=1)
        for k, n in enumerate(sizes)
    ]
    campaign = Campaign(algorithms=("ParSubtrees", "ParDeepestFirst"),
                        processor_counts=procs, backend=backend)
    return instances, campaign
"""

#: sizes that keep a python-backend run alive for a few seconds, with
#: the small first tree delivering early checkpoint lines to gate on
_SLOW_SIZES = (2000, 50000, 70000)


def _grid(**kwargs):
    namespace: dict = {}
    exec(_GRID_SRC, namespace)
    return namespace["make_grid"](**kwargs)


def _wait_for_lines(path, k, proc, deadline=120.0):
    """Block until ``path`` holds ``k`` complete lines (or the process
    exits first); returns the observed line count."""
    t0 = time.monotonic()
    while time.monotonic() - t0 < deadline:
        try:
            lines = open(path, "rb").read().count(b"\n")
        except FileNotFoundError:
            lines = 0
        if lines >= k or proc.poll() is not None:
            return lines
        time.sleep(0.005)
    raise AssertionError(f"checkpoint never reached {k} lines")


class TestTruncatedWrites:
    def test_truncated_append_then_resume_heals(self, tmp_path):
        """A power-loss-shaped fault: the 5th checkpoint append writes
        half a line and hard-exits. The resume drops the residue and
        the healed file is byte-identical to an undisturbed run."""
        instances, campaign = _grid()
        ref = tmp_path / "ref.jsonl"
        run_campaign(instances, campaign, checkpoint=str(ref))

        ck = tmp_path / "ck.jsonl"
        code = (
            _GRID_SRC
            + f"""
instances, campaign = make_grid()
run_campaign(instances, campaign, checkpoint={str(ck)!r})
"""
        )
        plan = FaultPlan((Fault(kind="truncate_write", record=4),))
        env = {**os.environ, ENV_VAR: plan.to_json(), "PYTHONPATH": _pythonpath()}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, timeout=300
        )
        assert proc.returncode == CRASH_EXIT, proc.stderr.decode()
        data = ck.read_bytes()
        assert data.count(b"\n") == 4  # four whole records survived
        assert not data.endswith(b"\n")  # ...plus the torn fifth line
        records, pos = recover_checkpoint(str(ck))
        assert len(records) == 4 and pos < len(data)

        resumed = run_campaign(
            instances, campaign, checkpoint=str(ck), resume=True
        )
        assert resumed == run_campaign(instances, campaign)
        assert filecmp.cmp(str(ref), str(ck), shallow=False)


class TestKillResume:
    """SIGKILL mid-grid under every execution mode, then resume: the
    healed checkpoint must be byte-identical to an undisturbed run."""

    MODES = {
        "megabatch-serial": ({"workers": 1}, {"sizes": _SLOW_SIZES}),
        "pooled": ({"workers": 2}, {"sizes": _SLOW_SIZES}),
        # one tree split into two units; p = 4 and 8 give ParSubtrees
        # the slow tail that keeps the run alive past its first record
        "single-tree-split": (
            {"workers": 2},
            {"sizes": _SLOW_SIZES[-1:], "procs": (2, 4, 8, 16)},
        ),
    }

    @pytest.fixture(scope="class")
    def references(self, tmp_path_factory):
        """The undisturbed checkpoint of each grid, computed once."""
        cache: dict = {}

        def reference(grid: dict):
            key = repr(sorted(grid.items()))
            if key not in cache:
                instances, campaign = _grid(backend="python", **grid)
                path = tmp_path_factory.mktemp("killref") / "ref.jsonl"
                run_campaign(instances, campaign, checkpoint=str(path))
                cache[key] = path
            return cache[key]

        return reference

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_sigkill_then_resume_is_byte_identical(
        self, mode, references, tmp_path
    ):
        kwargs, grid = self.MODES[mode]
        ck = tmp_path / "ck.jsonl"
        code = (
            _GRID_SRC
            + f"""
instances, campaign = make_grid(backend="python", **{grid!r})
run_campaign(instances, campaign, checkpoint={str(ck)!r}, **{kwargs!r})
"""
        )
        env = {**os.environ, "PYTHONPATH": _pythonpath()}
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            env=env,
            start_new_session=True,  # killpg reaps pool workers too
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        try:
            _wait_for_lines(ck, 1, proc)
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - safety net
                os.killpg(proc.pid, signal.SIGKILL)
        assert proc.returncode == -signal.SIGKILL, (
            "grid finished before the kill; grow _SLOW_SIZES"
        )

        instances, campaign = _grid(backend="python", **grid)
        run_campaign(instances, campaign, checkpoint=str(ck), resume=True)
        assert filecmp.cmp(str(references(grid)), str(ck), shallow=False)


def _pythonpath() -> str:
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    existing = os.environ.get("PYTHONPATH", "")
    return os.path.abspath(src) + (os.pathsep + existing if existing else "")


class TestCliSignals:
    def test_sigterm_flushes_and_hints_resume(self, tmp_path):
        """`repro campaign` under SIGTERM: exits 128+15, keeps the
        flushed checkpoint, prints the resume hint, and leaves no
        wedged worker behind."""
        ck = tmp_path / "ck.jsonl"
        # scenario #2 wedges for 300s: the run is guaranteed to be
        # mid-flight (with 2 records flushed) whenever the signal lands
        plan = FaultPlan((Fault(kind="slow", index=2, seconds=300.0),))
        env = {
            **os.environ,
            ENV_VAR: plan.to_json(),
            "PYTHONPATH": _pythonpath(),
        }
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "campaign",
                "--scale",
                "tiny",
                "--limit",
                "2",
                "--algos",
                "ParSubtrees,ParDeepestFirst",
                "--procs",
                "2,4",
                "--supervise",
                "--resume",
                str(ck),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            _wait_for_lines(ck, 2, proc)
            assert proc.poll() is None, proc.stderr.read().decode()
            proc.send_signal(signal.SIGTERM)
            _out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - safety net
                os.killpg(proc.pid, signal.SIGKILL)
        assert proc.returncode == 128 + signal.SIGTERM
        text = err.decode()
        assert "interrupted by SIGTERM" in text
        assert f"--resume {ck}" in text
        # the flushed prefix is intact and resumable
        records, _pos = recover_checkpoint(str(ck))
        assert len(records) >= 2
