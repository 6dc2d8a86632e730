"""Megabatch sweeps: one kernel call per scenario grid, bit-identical.

The batched entry point (:func:`repro.core.engine.sweep_batch`) stacks
an (algorithm x p x cap) grid into one serial kernel call. Its
acceptance contract extends the golden tests of ``test_backends.py``:
per-scenario results must be **byte-identical** to the unbatched
reference loop for every registered heuristic x memory mode, whether
the grid sweeps on the C kernel or (the kernel unavailable) on the
reference loop -- including error outcomes (an infeasible cap raises
the same message at the same slice position) and the integral-weight
exactness fallback.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import registry
from repro.core.engine import (
    MemoryCapError,
    default_threads,
    resolve_backend,
    sweep_batch,
)
from repro.core.prepared import PreparedTree, stack_unique
from repro.core.tree import TaskTree
from repro.testing import faults
from repro.workloads.synthetic import random_weighted_tree

from tests.conftest import task_trees
from tests.core.test_backends import (
    N_TREES,
    assert_same_schedule,
    reference_run,
    tree_spread,
)

#: algorithms with a registered sweep spec (every engine-backed one)
BATCHABLE = [a.name for a in registry.algorithms("parallel") if a.sweep_spec]


def grid(prepared: PreparedTree) -> tuple[list, list]:
    """The full test grid over one tree: every batchable heuristic at
    several p, the memory-capped modes at loose and tight caps."""
    specs, labels = [], []
    for name in BATCHABLE:
        algo = registry.get(name)
        if "cap_factor" in algo.params:
            for cap_factor in (1.25, 2.0):
                for mode in ("strict", "opportunistic"):
                    for p in (2, 4):
                        kw = {"cap_factor": cap_factor, "mode": mode}
                        specs.append(algo.batch_spec(prepared, p, **kw))
                        labels.append((name, p, kw))
        else:
            for p in (1, 2, 4, 8):
                specs.append(algo.batch_spec(prepared, p))
                labels.append((name, p, {}))
    return specs, labels


def reference_outcomes(prepared: PreparedTree, labels: list) -> list:
    """Unbatched reference outcome per grid cell (schedule or error)."""
    out = []
    for name, p, kw in labels:
        try:
            out.append(reference_run(name, prepared, p, **kw))
        except MemoryCapError as exc:
            out.append(exc)
    return out


@pytest.fixture(params=["dispatched", "reference"])
def sweep(request, monkeypatch):
    """The sweep a grid runs on: the process's own decision, or the
    reference loop (an injected ``compile_failure``, the world where
    the C kernel does not build)."""
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    if request.param == "dispatched":
        yield resolve_backend()
        return
    faults.install(faults.FaultPlan((faults.Fault(kind="compile_failure"),)))
    try:
        yield "python"
    finally:
        faults.install(None)


def assert_outcomes_match(run, refs, labels) -> None:
    for outcome, ref, label in zip(run.outcomes, refs, labels):
        if isinstance(ref, Exception):
            assert type(outcome) is type(ref), label
            assert str(outcome) == str(ref), label
        else:
            assert_same_schedule(outcome, ref)


# ----------------------------------------------------------------------
# the bit-identity matrix: heuristic x sweep x memory mode
# ----------------------------------------------------------------------
class TestBitIdentityMatrix:
    @pytest.mark.parametrize("tree_index", range(N_TREES))
    def test_batched_equals_unbatched(self, sweep, tree_index):
        prepared = PreparedTree(tree_spread()[tree_index])
        specs, labels = grid(prepared)
        refs = reference_outcomes(prepared, labels)
        run = sweep_batch(prepared, specs)
        assert run.backend == sweep
        assert_outcomes_match(run, refs, labels)

    def test_threads_do_not_change_results(self):
        """Grids swept from several Python threads at once against one
        shared PreparedTree (each kernel call on its own scratch) stay
        byte-identical to a serial sweep."""
        from concurrent.futures import ThreadPoolExecutor

        prepared = PreparedTree(tree_spread()[2])
        specs, _ = grid(prepared)

        def digest(run) -> list:
            return [
                repr(o)
                if isinstance(o, Exception)
                else (o.start.tobytes(), o.proc.tobytes())
                for o in run.outcomes
            ]

        baseline = digest(sweep_batch(prepared, specs))
        with ThreadPoolExecutor(max_workers=4) as ex:
            runs = list(ex.map(lambda _: sweep_batch(prepared, specs), range(8)))
        for run in runs:
            assert digest(run) == baseline
        assert np.array_equal(prepared.pending0, np.diff(prepared.tree.child_ptr))

    def test_schedules_raises_the_stored_error(self):
        tree = tree_spread()[4]
        prepared = PreparedTree(tree)
        algo = registry.get("MemoryBounded")
        specs = [
            algo.batch_spec(prepared, 2),
            algo.batch_spec(prepared, 4, cap_factor=1.0, mode="opportunistic"),
        ]
        run = sweep_batch(prepared, specs)
        try:
            registry.run(
                "MemoryBounded", prepared, 4, cap_factor=1.0, mode="opportunistic"
            )
        except MemoryCapError as exc:
            expected = str(exc)
            with pytest.raises(MemoryCapError) as err:
                run.schedules()
            assert str(err.value) == expected
        else:  # the cap happens to be feasible on this tree
            assert len(run.schedules()) == 2

    @settings(max_examples=25, deadline=None)
    @given(tree=task_trees(max_nodes=40, max_w=2, max_f=1), p=st.integers(1, 5))
    def test_property_tie_heavy_grids(self, tree, p):
        """Hypothesis sweep over tie-heavy trees (max_w=2 forces heavy
        duplicate priority keys): the whole grid stays bit-identical."""
        prepared = PreparedTree(tree)
        specs, labels = grid(prepared)
        refs = reference_outcomes(prepared, labels)
        run = sweep_batch(prepared, specs)
        assert_outcomes_match(run, refs, labels)


# ----------------------------------------------------------------------
# exactness fallback (integral weights >= 2**53)
# ----------------------------------------------------------------------
class TestExactnessFallback:
    def test_huge_integral_weights_fall_back_per_scenario(self):
        # 3 integral weights of 2**52 sum past 2**53: float64 event keys
        # can no longer represent every completion time exactly, so every
        # scenario of the batch must take the reference loop -- and stay
        # bit-identical to the unbatched path.
        tree = TaskTree.from_parents(
            [-1, 0, 0], w=float(2**52), f=1.0, sizes=0.0
        )
        prepared = PreparedTree(tree)
        assert not prepared.kernel_exact
        specs = [
            registry.get("ParDeepestFirst").batch_spec(prepared, p) for p in (1, 2, 3)
        ]
        run = sweep_batch(prepared, specs)
        assert run.backend == "python"  # fell back, every scenario
        for schedule, p in zip(run.schedules(), (1, 2, 3)):
            assert_same_schedule(
                schedule, reference_run("ParDeepestFirst", prepared, p)
            )

    def test_python_backend_batches_through_reference_loop(self, monkeypatch):
        """Where the C kernel does not build (here: an injected
        ``compile_failure``), a grid sweeps on the reference loop."""
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        prepared = PreparedTree(tree_spread()[3])
        specs, _ = grid(prepared)
        faults.install(faults.FaultPlan((faults.Fault(kind="compile_failure"),)))
        try:
            run = sweep_batch(prepared, specs)
        finally:
            faults.install(None)
        assert run.backend == "python"


# ----------------------------------------------------------------------
# stacking helpers
# ----------------------------------------------------------------------
class TestStackingHelpers:
    def test_stack_unique_dedups_by_identity(self):
        a = np.arange(4, dtype=np.int64)
        b = np.arange(4, dtype=np.int64)[::-1].copy()
        stack, ids = stack_unique([a, b, a, None, b])
        assert stack.shape == (2, 4)
        assert ids.tolist() == [0, 1, 0, -1, 1]
        assert np.array_equal(stack[0], a) and np.array_equal(stack[1], b)

    def test_stack_unique_all_none_yields_dummy(self):
        stack, ids = stack_unique([None, None])
        assert stack.shape == (1, 0) and stack.dtype == np.int64
        assert ids.tolist() == [-1, -1]
        assert stack[0][:0].shape == (0,)  # the kernels' empty sigma slice


# ----------------------------------------------------------------------
# one serial kernel
# ----------------------------------------------------------------------
class TestSerialKernel:
    def test_batchrun_reports_one_thread(self, star5):
        prepared = PreparedTree(star5)
        spec = registry.get("ParInnerFirst").batch_spec(prepared, 2)
        run = sweep_batch(prepared, [spec])
        assert run.threads == default_threads() == 1
        assert len(run.schedules()) == 1

    def test_empty_grid(self, star5):
        run = sweep_batch(PreparedTree(star5), [])
        assert run.outcomes == [] and run.schedules() == []

    def test_kernel_source_has_one_serial_entry_point(self):
        """One serial sweep export, plus the memory profile,
        MemoryAwareSubtrees' phase-1 peaks, Liu's postorder and Algorithm
        2's split, each declared once; no threading and no fused
        floating-point operations."""
        import re

        from repro.core import _ckernel

        exported = re.findall(r"^int64_t (\w+)\(", _ckernel._SOURCE, re.MULTILINE)
        assert exported == [
            "batch_event_sweep",
            "memory_profile",
            "phase1_peaks",
            "postorder_peaks",
            "split_subtrees",
        ]
        assert list(_ckernel._EXPORTS) == exported
        assert "#pragma omp" not in _ckernel._SOURCE
        assert "-fopenmp" not in _ckernel._FLAGS
        assert "-ffp-contract=off" in _ckernel._FLAGS

    def test_kernel_leaves_pending0_untouched(self):
        """Every kernel run counts down a private copy of the child
        counts, so the shared read-only column stays pristine."""
        prepared = PreparedTree(tree_spread()[4])
        before = prepared.pending0.copy()
        specs, _ = grid(prepared)
        sweep_batch(prepared, specs)
        registry.run("ParDeepestFirst", prepared, 3)
        assert np.array_equal(prepared.pending0, before)


# ----------------------------------------------------------------------
# the output contract: a grid returns its schedules and nothing else
# ----------------------------------------------------------------------
class TestOutputContract:
    def test_retained_memory_is_the_schedules(self, sweep):
        """While the BatchRun lives it holds the schedules -- a start
        time and a processor per (scenario, task), 16 B -- and no trace
        of how they were built: the memory still allocated right after
        ``sweep_batch`` returns stays within 17 B per (scenario, task)
        on either sweep."""
        import tracemalloc

        prepared = PreparedTree(
            random_weighted_tree(20_000, np.random.default_rng(1813))
        )
        specs = [
            registry.get(name).batch_spec(prepared, p)
            for name in BATCHABLE
            for p in (2, 4, 8)
        ]
        assert len(specs) >= 12
        # warm-up: builds every lazy cache of the prepared bundle (the
        # reference loop's list conversions, rank inverses) outside the
        # measured window
        sweep_batch(prepared, specs)
        tracemalloc.start()
        try:
            run = sweep_batch(prepared, specs)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert run.backend == sweep
        assert len(run.schedules()) == len(specs)
        assert retained / (len(specs) * prepared.tree.n) <= 17


# ----------------------------------------------------------------------
# registry integration
# ----------------------------------------------------------------------
class TestRegistrySpecs:
    def test_every_engine_algorithm_has_a_spec(self):
        for name in ("ParInnerFirst", "ParDeepestFirst", "ParInnerFirst/naiveO",
                     "ParDeepestFirst/hops", "MemoryBounded"):
            assert registry.get(name).sweep_spec is not None

    def test_non_engine_algorithms_have_none(self):
        for name in ("ParSubtrees", "ParSubtreesOptim", "MemoryAwareSubtrees",
                     "optimal_postorder"):
            algo = registry.get(name)
            assert algo.sweep_spec is None
            assert algo.batch_spec(tree_spread()[1], 2) is None

    def test_batch_spec_rejects_unknown_params(self):
        prepared = PreparedTree(tree_spread()[1])
        with pytest.raises(TypeError, match="unknown"):
            registry.get("MemoryBounded").batch_spec(prepared, 2, bogus=1)

    def test_batch_spec_rejects_backend(self):
        """``backend`` is no parameter of any algorithm any more."""
        prepared = PreparedTree(tree_spread()[1])
        with pytest.raises(TypeError, match="unknown"):
            registry.get("ParInnerFirst").batch_spec(prepared, 2, backend="python")
        spec = registry.get("ParInnerFirst").batch_spec(prepared, 2)
        assert spec.p == 2 and spec.cap is None

    def test_specs_share_prepared_rank_arrays(self):
        """Scenario stacking dedups by identity, so specs built off one
        prepared tree must reuse the cached rank/order objects."""
        prepared = PreparedTree(tree_spread()[2])
        algo = registry.get("MemoryBounded")
        s1 = algo.batch_spec(prepared, 2, cap_factor=1.5)
        s2 = algo.batch_spec(prepared, 8, cap_factor=3.0)
        assert s1.rank is s2.rank
        assert s1.order is s2.order
        p1 = registry.get("ParDeepestFirst").batch_spec(prepared, 2)
        p2 = registry.get("ParDeepestFirst").batch_spec(prepared, 16)
        assert p1.rank is p2.rank


# ----------------------------------------------------------------------
# campaign megabatch path
# ----------------------------------------------------------------------
class TestCampaignMegabatch:
    @pytest.fixture(scope="class")
    def setup(self):
        from repro.workloads.dataset import TreeInstance
        from repro.analysis.campaign import Campaign

        rng = np.random.default_rng(1305)
        instances = [
            TreeInstance(
                name=f"t{i}",
                tree=random_weighted_tree(60 + 30 * i, rng),
                matrix_name=f"t{i}",
                ordering="nd",
                amalgamation=1,
            )
            for i in range(3)
        ]
        campaign = Campaign(
            algorithms=(
                "ParInnerFirst",
                "ParDeepestFirst",
                "ParSubtrees",
                "MemoryBounded",
                "optimal_postorder",
            ),
            processor_counts=(2, 4),
            cap_factors=(1.5, 2.0),
        )
        return instances, campaign

    @staticmethod
    def reference_records(instances, campaign):
        """Per-scenario ``registry.run`` + ``simulate`` on the bare tree:
        no preparation, no batching."""
        from repro.analysis.store import ScenarioRecord
        from repro.core import memory_lower_bound, simulate
        from repro.core.bounds import makespan_lower_bound

        out = []
        for inst in instances:
            mem_lb = memory_lower_bound(inst.tree)
            for sc in campaign.scenarios_for(inst.name):
                schedule = registry.run(sc.algorithm, inst.tree, sc.p, **dict(sc.params))
                result = simulate(schedule)
                out.append(ScenarioRecord(
                    tree=inst.name, n=inst.tree.n, p=sc.p, heuristic=sc.label,
                    makespan=result.makespan, memory=result.peak_memory,
                    memory_lb=mem_lb,
                    makespan_lb=makespan_lower_bound(inst.tree, sc.p),
                ))
        return out

    def test_megabatch_records_byte_identical(self, setup):
        from repro.analysis.campaign import run_campaign

        instances, campaign = setup
        batched = run_campaign(instances, campaign)
        assert batched == self.reference_records(instances, campaign)

    def test_megabatch_with_worker_pool(self, setup):
        from repro.analysis.campaign import run_campaign
        from repro.analysis.supervisor import SupervisorPool

        instances, campaign = setup
        serial = run_campaign(instances, campaign)
        for workers in (2, 3):
            with SupervisorPool(workers=workers) as pool:
                assert run_campaign(instances, campaign, runtime=pool) == serial

    def test_megabatch_checkpoint_bytes_identical(self, setup, tmp_path):
        from repro.analysis.campaign import run_campaign
        from repro.analysis.store import save_records

        instances, campaign = setup
        on = str(tmp_path / "on.jsonl")
        ref = str(tmp_path / "ref.jsonl")
        run_campaign(instances, campaign, checkpoint=on)
        save_records(self.reference_records(instances, campaign), ref)
        assert open(on, "rb").read() == open(ref, "rb").read()

    def test_megabatch_resume_is_byte_identical(self, setup, tmp_path):
        from repro.analysis.campaign import run_campaign

        instances, campaign = setup
        full = str(tmp_path / "full.jsonl")
        records = run_campaign(instances, campaign, checkpoint=full)
        blob = open(full, "rb").read()
        part = str(tmp_path / "part.jsonl")
        lines = blob.splitlines()
        with open(part, "wb") as fh:
            fh.write(b"\n".join(lines[:5]) + b"\n")
        resumed = run_campaign(instances, campaign, checkpoint=part, resume=True)
        assert resumed == records
        assert open(part, "rb").read() == blob


# ----------------------------------------------------------------------
# C build cache keyed by flags + source (stale-cache hazard)
# ----------------------------------------------------------------------
class TestCompileCacheKeys:
    def test_cache_key_names_the_artifact(self):
        from repro.core import _ckernel

        key = _ckernel._cache_key()
        assert key == _ckernel._cache_key()  # deterministic
        assert _ckernel._lib_path().endswith(f"event_sweep_{key}.so")

    def test_build_tuple_is_fn_and_reason(self):
        """The build cache is a ``(library or None, reason)`` pair, the
        format the test suite monkeypatches to simulate no toolchain."""
        from repro.core import _ckernel

        fn, reason = _ckernel._ensure_built()
        assert isinstance(reason, str)
        assert (fn is None) == bool(reason)

    def test_cache_key_covers_flags(self, monkeypatch):
        """A change of compiler flags or of the kernel source moves the
        artifact, so a stale .so can never shadow a rebuilt one."""
        from repro.core import _ckernel

        key = _ckernel._cache_key()
        monkeypatch.setattr(_ckernel, "_FLAGS", [*_ckernel._FLAGS, "-g"])
        flagged = _ckernel._cache_key()
        assert flagged != key
        monkeypatch.setattr(_ckernel, "_SOURCE", _ckernel._SOURCE + "\n")
        assert _ckernel._cache_key() not in (key, flagged)
        monkeypatch.undo()
        assert _ckernel._cache_key() == key

    def test_build_tuple_keeps_legacy_indices(self, monkeypatch):
        """Monkeypatching _BUILD with a ``(None, reason)`` 2-tuple -- the
        format used across the test suite -- reads fn at [0] and the
        reason at [1] everywhere the dispatch is decided."""
        from repro.core import _ckernel
        from repro.core import engine as engine_mod

        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        monkeypatch.setattr(engine_mod, "_PROBE_CACHE", {})
        monkeypatch.setattr(_ckernel, "_BUILD", (None, "simulated: no toolchain"))
        assert not _ckernel.available()
        assert _ckernel.unavailable_reason() == "simulated: no toolchain"
        assert engine_mod.probe_backend() == (
            "python", [("c", "simulated: no toolchain")]
        )
        assert resolve_backend() == "python"


# ----------------------------------------------------------------------
# raw addresses: every array is checked in Python before any reaches C
# ----------------------------------------------------------------------
class TestKernelArgumentChecks:
    @pytest.fixture
    def fake_lib(self, monkeypatch):
        """A stand-in library that records every call it receives."""
        from repro.core import _ckernel

        calls = []

        class Recorder:
            def batch_event_sweep(self, *args):
                calls.append(args)

        monkeypatch.setattr(_ckernel, "_BUILD", (Recorder(), ""))
        return calls

    @staticmethod
    def args(tree: TaskTree) -> dict:
        from repro.core.engine import batch_arrays

        prepared = PreparedTree(tree)
        n = tree.n
        sigmas, sigma_id = stack_unique([None])
        start, proc, status, resident = batch_arrays(1, n)
        return dict(
            parent=tree.parent, pending0=prepared.pending0, w=tree.w,
            ranks=np.arange(n)[None, :], byranks=np.arange(n)[None, :],
            rank_id=np.zeros(1, dtype=np.int64), ps=np.array([2]),
            modes=np.zeros(1, dtype=np.int64), cap_eps=np.zeros(1),
            alloc=prepared.alloc, free_on_end=prepared.free_on_end,
            sigmas=sigmas, sigma_id=sigma_id,
            start=start, proc=proc, status=status, resident=resident,
        )

    def test_well_formed_arrays_reach_the_library(self, star5, fake_lib):
        from repro.core import _ckernel

        _ckernel.batch_kernel(**self.args(star5))
        assert len(fake_lib) == 1
        assert fake_lib[0][:3] == (5, 1, 2)  # n, scenarios, max p

    @pytest.mark.parametrize(
        "name, bad, error",
        [
            ("w", lambda a: a.astype(np.float32), TypeError),
            ("parent", lambda a: a.astype(np.int32), TypeError),
            ("ps", lambda a: [2], TypeError),
            ("w", lambda a: np.repeat(a, 2)[::2], ValueError),  # strided view
            ("ranks", lambda a: np.repeat(a, 2, axis=1)[:, ::2], ValueError),  # strided
            ("alloc", lambda a: a[:-1], ValueError),  # wrong length
            ("status", lambda a: a.ravel(), ValueError),  # wrong shape
            ("start", lambda a: np.broadcast_to(a, a.shape), ValueError),  # read-only
            ("sigmas", lambda a: np.zeros((1, 3), dtype=np.int64), ValueError),
        ],
    )
    def test_malformed_array_raises_before_c(self, star5, fake_lib, name, bad, error):
        from repro.core import _ckernel

        args = self.args(star5)
        args[name] = bad(args[name])
        with pytest.raises(error, match=name):
            _ckernel.batch_kernel(**args)
        assert fake_lib == []
