"""The three workloads: inputs from the seed, set-up, measured phases.

A workload is set up (inputs, service, warm-up job), then measured in
one or more phases. Each phase returns a :class:`Phase`: the timed
wall seconds, the scenarios attempted and failed, and one latency per
job. In-process workloads count one whole campaign pass as a job (the
call a library user waits on); ``serve-small`` counts one HTTP job,
submit to records fetched.
"""

from __future__ import annotations

import json
import multiprocessing.util
import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from http.server import ThreadingHTTPServer

import numpy as np

from repro import registry
from repro.analysis.campaign import Campaign, run_campaign
from repro.analysis.metrics import compute_table1_stats
from repro.analysis.store import open_store
from repro.analysis.tables import render_table1
from repro.core.tree import TaskTree
from repro.parallel.heuristics import HEURISTICS
from repro.service.client import ServiceClient, ServiceError
from repro.service.payload import spec_from_instances, to_campaign, to_instances
from repro.service.server import SchedulerService, _make_handler
from repro.workloads.dataset import PROCESSOR_COUNTS, TreeInstance, build_dataset
from repro.workloads.synthetic import random_weighted_tree

from . import verify
from .spans import Tracer

__all__ = ["WORKLOADS", "Phase", "relabel"]

_HERE = os.path.dirname(os.path.abspath(__file__))

#: record-stream digests of this benchmark's documented seeds, by
#: workload (``python3 perfbench/run.py ... --seed N`` prints the digest).
with open(os.path.join(_HERE, "digests.json")) as _fh:
    PINS: dict[str, dict[str, str]] = json.load(_fh)


@dataclass
class Phase:
    wall_s: float = 0.0
    scenarios: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def add(self, scenarios: int, failed: int, problems: list[str]) -> None:
        self.scenarios += scenarios
        self.failed += failed
        self.problems.extend(problems)


def fresh(inst: TreeInstance) -> TreeInstance:
    """``inst`` on a new TaskTree: the same arrays, none of the lazily
    cached derivations, as when a campaign first sees the tree."""
    t = inst.tree
    return TreeInstance(
        name=inst.name, tree=TaskTree(t.parent, t.w, t.f, t.sizes),
        matrix_name=inst.matrix_name, ordering=inst.ordering,
        amalgamation=inst.amalgamation,
    )


def relabel(tree: TaskTree, rng: np.random.Generator) -> TaskTree:
    """The same tree with its nodes renumbered by a random permutation."""
    perm = rng.permutation(tree.n)  # node i becomes perm[i]
    old = np.argsort(perm)  # new node j was node old[j]
    parent = tree.parent[old]
    parent = np.where(parent < 0, -1, perm[parent])
    return TaskTree(parent, tree.w[old], tree.f[old], tree.sizes[old])


class Workload:
    name = ""
    min_jobs = 1  # jobs an untraced run completes, however long they take
    placement: dict | None = None  # CPUs the run was pinned to, if any

    def __init__(self, seed: int, workdir: str, tracer: Tracer) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.pinned = PINS.get(self.name, {}).get(str(seed))
        self.checks = Phase()  # warm-up and post-run verification
        self.digest: str | None = None

    def setup(self, rep: int) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` started (inputs may stay)."""

    def measure(self, seconds: float, min_jobs: int) -> Phase:
        raise NotImplementedError

    def finish(self) -> None:
        """Verification that runs after every measured phase."""


class _InProcess(Workload):
    """A campaign run in this process, pass after pass."""

    campaign: Campaign

    instances: list[TreeInstance]

    def one_pass(self, instances: list[TreeInstance]) -> tuple[bytes, list | None]:
        raise NotImplementedError

    def measure(self, seconds: float, min_jobs: int) -> Phase:
        phase = Phase()
        while True:
            instances = [fresh(inst) for inst in self.instances]
            t0 = time.perf_counter()
            data, stats = self.one_pass(instances)
            dt = time.perf_counter() - t0
            phase.wall_s += dt
            phase.latencies.append(dt)
            self._check(phase, data, stats)
            mean = phase.wall_s / len(phase.latencies)
            if len(phase.latencies) >= min_jobs and phase.wall_s + mean > seconds:
                return phase

    def _check(self, phase: Phase, data: bytes, stats) -> None:
        expected = self.expected
        if self.digest is None:
            self.digest = verify.digest(data)
        reference = self.pinned or self.digest
        failed, problems = verify.check_stream(data, expected, reference)
        if stats is not None:
            findings = verify.table1_findings(stats)
            if findings:
                failed = expected
                problems = problems + findings
        phase.add(expected, failed, problems)

    def _warmup(self, inst: TreeInstance) -> None:
        records = run_campaign([inst], self.campaign)
        expected = len(self.campaign.scenarios_for(inst.name))
        self.checks.add(expected, *verify.check_stream(verify.record_lines(records), expected))


class PaperTable1(_InProcess):
    """The paper's Table 1 campaign over the synthetic assembly trees."""

    name = "paper-table1"

    def setup(self, rep: int) -> None:
        self.instances = build_dataset("small", seed=self.seed)
        self.campaign = Campaign(algorithms=tuple(HEURISTICS), processor_counts=PROCESSOR_COUNTS)
        self.expected = sum(len(self.campaign.scenarios_for(i.name)) for i in self.instances)
        self.path = os.path.join(self.workdir, "table1.jsonl")
        self._warmup(self.instances[0])

    def one_pass(self, instances: list[TreeInstance]) -> tuple[bytes, list]:
        run_campaign(instances, self.campaign, checkpoint=self.path)
        columns = open_store(self.path).columns(include_failed=False)
        with self.tracer.span("table1"):
            stats = compute_table1_stats(columns)
            render_table1(stats)
        with open(self.path, "rb") as fh:
            return fh.read(), stats


#: the grid tree's shape and weights; ``--seed`` renumbers its nodes.
GRID_BASE_SEED = 2013
GRID_N = 100_000


class Grid1e5(_InProcess):
    """Every parallel registry algorithm x 4 p on one n = 1e5 tree."""

    name = "grid-1e5"

    def setup(self, rep: int) -> None:
        base = random_weighted_tree(GRID_N, np.random.default_rng(GRID_BASE_SEED))
        tree = relabel(base, np.random.default_rng(self.seed))
        self.instances = [TreeInstance(
            name=f"grid-1e5/s{self.seed}", tree=tree, matrix_name="synthetic",
            ordering="none", amalgamation=1,
        )]
        self.campaign = Campaign(
            algorithms=tuple(registry.names("parallel")), processor_counts=(2, 4, 8, 16)
        )
        self.expected = len(self.campaign.scenarios_for(self.instances[0].name))
        small = random_weighted_tree(2_000, np.random.default_rng(self.seed))
        self._warmup(TreeInstance(
            name="warmup", tree=small, matrix_name="synthetic", ordering="none",
            amalgamation=1,
        ))

    def one_pass(self, instances: list[TreeInstance]) -> tuple[bytes, None]:
        records = run_campaign(instances, self.campaign)
        return verify.record_lines(records), None


@dataclass
class _Job:
    index: int  # position in the job stream; warm-up jobs are negative
    spec: dict
    state: str = ""
    records: int = 0
    data: bytes = b""
    latency: float = 0.0
    error: str = ""
    failed: int = 0


class ServeSmall(Workload):
    """Closed-loop clients against the scheduling service over HTTP."""

    name = "serve-small"
    min_jobs = 100  # so that p90 has ten samples beyond it
    ALGOS = ("ParDeepestFirst", "ParInnerFirst", "MemoryBounded")
    PROCS = (2, 4, 8)
    CLIENTS = 2
    POLL_S = 0.02
    PINNED_JOBS = 100  # the pinned digest covers jobs 0..99
    PHASE_CAP_S = 120.0

    def __init__(self, seed: int, workdir: str, tracer: Tracer) -> None:
        super().__init__(seed, workdir, tracer)
        self.jobs: list[_Job] = []
        self.next_job = 0
        self.phases: list[tuple[Phase, list[_Job]]] = []
        self._lock = threading.Lock()
        self.httpd = None

    @property
    def per_job(self) -> int:
        return len(self.ALGOS) * len(self.PROCS)

    def _job(self, index: int) -> _Job:
        """Job ``index``: one tree, renamed so that no two jobs share a
        content key (the service would dedupe them)."""
        inst = self.instances[int(self.order[max(index, 0) % len(self.order)])]
        renamed = TreeInstance(
            name=f"job{index}/{inst.name}", tree=inst.tree, matrix_name=inst.matrix_name,
            ordering=inst.ordering, amalgamation=inst.amalgamation,
        )
        spec = spec_from_instances([renamed], algorithms=self.ALGOS, processor_counts=self.PROCS)
        return _Job(index, spec)

    def _place(self) -> None:
        """Run the service on one CPU and its forked workers on another.

        Unpinned, throughput flips between two modes by placement (19
        vs 50 scenarios/s on a 2-vCPU box): a worker woken on the
        supervisor's own CPU preempts it, finishes the scenario, and the
        supervisor then finds the result queue non-empty and skips its
        50 ms poll sleep. Pinning fixes the common placement, a worker
        on a core of its own. Called before any thread starts, because
        affinity is per thread and new threads inherit it.
        """
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) >= 2 and self.placement is None:
            os.sched_setaffinity(0, {cpus[0]})
            os.register_at_fork(after_in_child=lambda: os.sched_setaffinity(0, {cpus[1]}))
            self.placement = {"service": cpus[0], "workers": cpus[1]}

    def setup(self, rep: int) -> None:
        self._place()
        self.instances = build_dataset("small", seed=self.seed)
        self.order = np.random.default_rng(self.seed).permutation(len(self.instances))
        self.root = os.path.join(self.workdir, f"serve-{rep}")
        self.service = SchedulerService(self.root)
        self.service.start()
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), _make_handler(self.service))
        self.httpd.daemon_threads = True
        # forked pool workers must not keep the listening socket open
        multiprocessing.util.register_after_fork(self.httpd, lambda srv: srv.socket.close())
        self.http_thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.1},
            name="perfbench-http",
        )
        self.http_thread.start()
        self.base = f"http://127.0.0.1:{self.httpd.server_address[1]}"
        job = self._job(-1 - rep)  # spawns the pool and probes the backend
        self._run_job(ServiceClient(self.base, timeout=60.0), job)
        self.jobs.append(job)

    def teardown(self) -> None:
        if self.httpd is None:
            return
        self.httpd.shutdown()
        self.httpd.server_close()
        self.http_thread.join()
        self.service.drain()
        self.httpd = None
        shutil.rmtree(self.root, ignore_errors=True)

    def _run_job(self, client: ServiceClient, job: _Job) -> None:
        t0 = time.perf_counter()
        try:
            jid = client.submit(job.spec)["id"]
            while True:
                st = client.status(jid)
                if st["state"] in ("done", "failed", "cancelled"):
                    break
                time.sleep(self.POLL_S)
            job.state, job.records = st["state"], st["records"]
            if job.state == "done":
                job.data = client.fetch_records(jid)
        except (ServiceError, OSError) as exc:
            job.error = f"{type(exc).__name__}: {exc}"
        job.latency = time.perf_counter() - t0

    def measure(self, seconds: float, min_jobs: int) -> Phase:
        start = time.perf_counter()
        first = self.next_job
        mine: list[_Job] = []

        def client_loop() -> None:
            client = ServiceClient(self.base, timeout=60.0)
            while True:
                with self._lock:
                    now = time.perf_counter() - start
                    started = self.next_job - first
                    if (now >= seconds and started >= min_jobs) or now >= self.PHASE_CAP_S:
                        return
                    self.next_job += 1
                job = self._job(first + started)
                self._run_job(client, job)
                with self._lock:
                    mine.append(job)

        threads = [
            threading.Thread(target=client_loop, name=f"perfbench-client{c}")
            for c in range(self.CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        phase = Phase(wall_s=time.perf_counter() - start)
        phase.latencies = [j.latency for j in mine]
        phase.scenarios = self.per_job * len(mine)
        self.jobs.extend(mine)
        self.phases.append((phase, mine))
        return phase

    def finish(self) -> None:
        """Check every job against an in-process run of its spec, then
        charge each job's failures to the phase that ran it."""
        ref_path = os.path.join(self.workdir, "reference.jsonl")
        for job in self.jobs:
            if job.error or job.state != "done" or job.records != self.per_job:
                job.failed = self.per_job
                problems = [f"job {job.index}: {job.error or job.state}, {job.records} records"]
            else:
                run_campaign(to_instances(job.spec), to_campaign(job.spec), checkpoint=ref_path)
                with open(ref_path, "rb") as fh:
                    reference = verify.digest(fh.read())
                job.failed, problems = verify.check_stream(job.data, self.per_job, reference)
            self.checks.problems.extend(problems)
        pinned = sorted((j for j in self.jobs if 0 <= j.index < self.PINNED_JOBS), key=lambda j: j.index)
        if len(pinned) == self.PINNED_JOBS:
            self.digest = verify.digest(b"".join(j.data for j in pinned))
            if self.pinned and self.digest != self.pinned:
                self.checks.problems.append(
                    f"jobs 0..{self.PINNED_JOBS - 1}: digest {self.digest[:16]} "
                    f"!= pinned {self.pinned[:16]}"
                )
                for job in pinned:
                    job.failed = self.per_job
        for job in self.jobs:
            if job.index < 0:
                self.checks.add(self.per_job, job.failed, [])
        for phase, mine in self.phases:
            phase.failed = sum(j.failed for j in mine)


WORKLOADS = {w.name: w for w in (PaperTable1, Grid1e5, ServeSmall)}
