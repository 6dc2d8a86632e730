"""Golden equivalence of the engine's two sweeps: C kernel vs reference.

The engine sweeps on the compiled C kernel when it builds and passes
its health probe, and on the pure-Python reference loop
(:meth:`SchedulerEngine.run_reference`) otherwise. The contract is *bit
identity*: ``run()`` must produce byte-for-byte the same
:class:`~repro.core.schedule.Schedule` (or the same error message) as
``run_reference()`` for every registered heuristic and both memory
modes -- so perf work can never silently change paper results. This
suite pins that contract, plus the dispatch decision and its
degradation when the kernel cannot build.

Where the C kernel does not build (or a ``compile_failure`` fault plan
is active), ``run()`` is the reference loop itself and the equivalence
tests hold trivially; the dispatch tests below clear any ambient plan.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import registry
from repro.core import _ckernel
from repro.core import engine as engine_mod
from repro.core.engine import (
    MemoryCapError,
    SchedulerEngine,
    probe_backend,
    resolve_backend,
)
from repro.core.prepared import PreparedTree, tree_of
from repro.core.schedule import Schedule
from repro.core.tree import TaskTree
from repro.parallel.memory_bounded import memory_bounded_schedule
from repro.parallel.par_deepest_first import par_deepest_first_rank
from repro.sequential.postorder import optimal_postorder
from repro.testing import faults
from repro.workloads.synthetic import (
    caterpillar,
    complete_kary_tree,
    deep_tree,
    flat_tree,
    random_weighted_tree,
)

from tests.conftest import task_trees

#: every registered algorithm that sweeps on the engine
ENGINE_HEURISTICS = [
    a.name for a in registry.algorithms("parallel") if a.sweep_spec is not None
]

#: the uncapped ones (the capped one is pinned per cap and mode below)
LIST_HEURISTICS = [name for name in ENGINE_HEURISTICS if name != "MemoryBounded"]


def tree_spread() -> list[TaskTree]:
    """A deterministic spread of shapes and weight regimes, n <= 200
    (the first eight random, the rest structured)."""
    rng = np.random.default_rng(20130520)
    trees = []
    for n, bias in [(1, 0.0), (7, 0.0), (60, 4.0), (120, -4.0), (200, 0.0)]:
        trees.append(random_weighted_tree(n, rng, bias=bias))
    # heavy duplicate weights: ties in every priority key column
    trees.append(random_weighted_tree(80, rng, max_w=2, max_f=1, max_size=0))
    # fractional durations (the reference loop's float event keys)
    frac = random_weighted_tree(80, rng)
    trees.append(frac.with_weights(w=frac.w + rng.uniform(0.0, 1.0, frac.n)))
    # zero-weight tasks: completion and start events at the same instant
    # cascade through several start phases per time point
    zw = random_weighted_tree(90, rng)
    w = zw.w.copy()
    w[rng.random(zw.n) < 0.4] = 0.0
    trees.append(zw.with_weights(w=w))
    # structured shapes the random attachment above rarely reaches
    for parent in [
        np.arange(-1, 59),  # a 60-node chain: never two tasks ready at once
        np.r_[-1, np.zeros(149, dtype=np.int64)],  # a 150-leaf fork
        deep_tree(120, rng),
        flat_tree(150, rng),
        caterpillar(20, 4),
        complete_kary_tree(6, 2),
    ]:
        trees.append(shaped_tree(parent, rng))
    # the Pebble Game (w = f = 1, no execution files) on a complete
    # 3-ary tree: every task of a level ties on every priority key
    pebble = complete_kary_tree(4, 3)
    ones = np.ones(len(pebble))
    trees.append(TaskTree(pebble, ones, ones, np.zeros(len(pebble))))
    return trees


def shaped_tree(parent: np.ndarray, rng: np.random.Generator) -> TaskTree:
    """``parent``'s shape with random integer weights."""
    n = len(parent)
    return TaskTree(
        parent,
        rng.integers(1, 11, n).astype(np.float64),
        rng.integers(1, 11, n).astype(np.float64),
        rng.integers(0, 6, n).astype(np.float64),
    )


#: how many trees :func:`tree_spread` returns
N_TREES = len(tree_spread())


@pytest.fixture(scope="module", params=range(N_TREES))
def tree(request):
    return tree_spread()[request.param]


def assert_same_schedule(got, ref):
    assert np.array_equal(got.start, ref.start)
    assert np.array_equal(got.proc, ref.proc)
    assert got.p == ref.p


def reference_run(name: str, tree, p: int, **params) -> Schedule:
    """``registry.run(name, tree, p, **params)`` swept on the reference
    loop (through the algorithm's registered sweep spec)."""
    spec = registry.get(name).batch_spec(tree, p, **params)
    return SchedulerEngine(
        tree, spec.p, spec.rank, cap=spec.cap, order=spec.order, mode=spec.mode
    ).run_reference()


def reference_capped(tree, p: int, cap: float, order, mode: str) -> Schedule:
    """Capped list scheduling with activation order ``order`` (its rank
    as the priority) swept on the reference loop: with the optimal
    postorder as ``order``, ``memory_bounded_schedule(tree, p, cap,
    mode)``."""
    order = np.asarray(order, dtype=np.int64)
    rank = np.empty(tree_of(tree).n, dtype=np.int64)
    rank[order] = np.arange(tree_of(tree).n)
    return SchedulerEngine(
        tree, p, rank, cap=cap, order=order, mode=mode
    ).run_reference()


@pytest.fixture
def fresh_probe(monkeypatch):
    """No ambient fault plan and an empty probe cache (restored after),
    so the test sees this process's live dispatch decision."""
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    monkeypatch.setattr(engine_mod, "_PROBE_CACHE", {})


# ----------------------------------------------------------------------
# the dispatch decision
# ----------------------------------------------------------------------
class TestSelection:
    def test_decision_is_c_or_python(self):
        assert resolve_backend() in ("c", "python")
        assert resolve_backend() == probe_backend()[0]

    def test_c_when_it_builds(self, fresh_probe):
        chosen, skipped = probe_backend()
        if _ckernel.available():
            assert (chosen, skipped) == ("c", [])
        else:  # no toolchain here: the skip reason is the build error
            assert chosen == "python"
            assert skipped == [("c", _ckernel.unavailable_reason())]

    def test_stale_env_var_is_ignored(self, fresh_probe, monkeypatch):
        """``REPRO_ENGINE_BACKEND`` no longer selects anything."""
        expected = resolve_backend()
        monkeypatch.setattr(engine_mod, "_PROBE_CACHE", {})
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "python")
        assert resolve_backend() == expected

    def test_backend_keyword_is_gone(self, star5):
        with pytest.raises(TypeError, match="backend"):
            SchedulerEngine(star5, 2, np.arange(5), backend="c")
        with pytest.raises(TypeError, match="backend"):
            engine_mod.sweep_batch(star5, [], backend="c")

    def test_cli_has_no_backend_flag(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as info:
            main(["run", "--algo", "ParDeepestFirst", "--backend", "c"])
        assert info.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_c_unavailable_falls_back_with_reason(self, star5, fresh_probe, monkeypatch):
        monkeypatch.setattr(_ckernel, "_BUILD", (None, "simulated: no toolchain"))
        engine = SchedulerEngine(star5, 2, np.arange(5))
        engine.run()
        assert engine.backend_used == "python"
        assert probe_backend()[1] == [("c", "simulated: no toolchain")]


# ----------------------------------------------------------------------
# startup health probe: the supervised runtime's degradation story
# ----------------------------------------------------------------------
class TestProbeBackend:
    def test_probe_picks_a_working_backend(self, fresh_probe):
        chosen, skipped = probe_backend()
        assert chosen in ("c", "python")
        assert all(isinstance(b, str) and isinstance(why, str) for b, why in skipped)

    def test_probe_degrades_on_injected_compile_failure(self, fresh_probe):
        """A broken C toolchain (injected) degrades to the reference
        loop instead of failing the worker, and the skip reason is
        recorded for the run report."""
        faults.install(faults.FaultPlan((faults.Fault(kind="compile_failure"),)))
        try:
            chosen, skipped = probe_backend()
        finally:
            faults.install(None)
        assert chosen == "python"
        assert "injected compile failure" in dict(skipped)["c"]

    def test_injected_compile_failure_degrades_dispatch(self, star5, fresh_probe):
        """The engine follows the probe: under the fault, every run and
        every batch sweeps on the reference loop."""
        faults.install(faults.FaultPlan((faults.Fault(kind="compile_failure"),)))
        try:
            engine = SchedulerEngine(star5, 2, np.arange(5))
            engine.run()
            spec = registry.get("ParDeepestFirst").batch_spec(star5, 2)
            run = engine_mod.sweep_batch(star5, [spec])
        finally:
            faults.install(None)
        assert engine.backend_used == "python"
        assert run.backend == "python"

    def test_probe_runs_a_real_sweep(self, fresh_probe, monkeypatch):
        """A kernel that builds but cannot *run* is skipped too: the
        probe executes a real two-node sweep, not just a lookup."""

        def sabotaged(self):
            raise RuntimeError("sabotaged C kernel")

        monkeypatch.setattr(_ckernel, "available", lambda: True)
        monkeypatch.setattr(SchedulerEngine, "_run_kernel", sabotaged)
        chosen, skipped = probe_backend()
        assert chosen == "python"
        assert skipped == [("c", "RuntimeError: sabotaged C kernel")]

    def test_probe_memoised_per_pid(self, fresh_probe, monkeypatch):
        """Repeated probes in one process (every engine run, health
        endpoints) are served from the pid-keyed cache instead of
        re-running the two-node sweep; refresh=True forces a live
        probe."""
        sweeps = []
        for name in ("_run_kernel", "run_reference"):
            real = getattr(SchedulerEngine, name)

            def counting(self, _real=real):
                sweeps.append(self.tree.n)
                return _real(self)

            monkeypatch.setattr(SchedulerEngine, name, counting)
        first = probe_backend()
        live = len(sweeps)
        assert live >= 1
        assert probe_backend() == first
        assert len(sweeps) == live  # cache hit: no new sweep
        assert probe_backend(refresh=True) == first
        assert len(sweeps) > live  # forced live probe

    def test_probe_cache_keyed_by_fault_plan(self, fresh_probe):
        """An active fault plan keeps degrading the decision: the plain
        decision is not read while the plan is installed, and the
        plan's decision does not replace the plain one."""
        warm = probe_backend()  # cached (whatever the probe picked)
        faults.install(faults.FaultPlan((faults.Fault(kind="compile_failure"),)))
        try:
            chosen, skipped = probe_backend()
        finally:
            faults.install(None)
        assert chosen == "python"
        assert "injected compile failure" in dict(skipped)["c"]
        # and the plan-era decision did not poison the cache
        assert probe_backend() == warm

    def test_probe_memoised_under_fault_plan(self, fresh_probe, monkeypatch, star5):
        """Under an active plan the decision is memoised too, per plan:
        repeated simulate and optimal() calls probe once, another plan
        or refresh=True probes again."""
        from repro.core.simulator import simulate

        probes = []
        real = SchedulerEngine.run_reference

        def counting(self):
            if self.prepared is engine_mod._PROBE_TREE:
                probes.append(self.p)
            return real(self)

        monkeypatch.setattr(SchedulerEngine, "run_reference", counting)
        compile_failure = faults.Fault(kind="compile_failure")
        faults.install(faults.FaultPlan((compile_failure,)))
        try:
            for _ in range(3):
                simulate(registry.run("ParDeepestFirst", star5, 2))
                PreparedTree(star5).optimal()
                PreparedTree(star5).split(2)
            assert len(probes) == 1
            assert resolve_backend() == "python"
            faults.install(
                faults.FaultPlan((compile_failure, faults.Fault(kind="slow", index=99)))
            )
            assert resolve_backend() == "python"
            assert len(probes) == 2
            probe_backend(refresh=True)
            assert len(probes) == 3
        finally:
            faults.install(None)

    @pytest.mark.parametrize(
        "export, corrupt, reason",
        [
            pytest.param(
                "postorder_peaks",
                lambda pa, pd, oa, od: (pa + 1.0, pd, oa, od),
                "postorder_peaks differs from the per-node loop on the probe tree",
                id="peaks",
            ),
            pytest.param(
                "postorder_peaks",
                lambda pa, pd, oa, od: (pa, pd, oa, od[::-1]),
                "postorder_peaks differs from the per-node loop on the probe tree",
                id="order",
            ),
            pytest.param(
                "postorder_peaks",
                lambda *got: None,
                "postorder_peaks differs from the per-node loop on the probe tree",
                id="postorder-declines",
            ),
            pytest.param(
                "split_subtrees",
                lambda roots, cost, steps: (roots, cost + 1.0, steps),
                "split_subtrees differs from the Python replay on the probe tree",
                id="cost",
            ),
            pytest.param(
                "split_subtrees",
                lambda roots, cost, steps: (roots, cost, steps + 1),
                "split_subtrees differs from the Python replay on the probe tree",
                id="steps",
            ),
            pytest.param(
                "split_subtrees",
                lambda *got: None,
                "split_subtrees differs from the Python replay on the probe tree",
                id="split-declines",
            ),
        ],
    )
    def test_corrupt_sequential_export_makes_the_probe_skip_c(
        self, fresh_probe, monkeypatch, export, corrupt, reason
    ):
        """A Liu pass or a split that differs from its Python path on
        the probe tree -- by value, by order or by not answering --
        sends the whole process to the Python paths, with the reason."""
        if not _ckernel.available():
            pytest.skip(f"no C library: {_ckernel.unavailable_reason()}")
        real = getattr(_ckernel, export)
        monkeypatch.setattr(_ckernel, export, lambda *a: corrupt(*real(*a)))
        chosen, skipped = probe_backend()
        assert chosen == "python"
        assert skipped == [("c", reason)]
        assert resolve_backend() == "python"

    def test_no_algorithm_declares_backend(self):
        for algo in registry.algorithms():
            assert "backend" not in algo.params, algo.name
        with pytest.raises(TypeError, match="unknown"):
            registry.run("ParDeepestFirst", tree_spread()[1], 2, backend="python")


# ----------------------------------------------------------------------
# golden equivalence: every heuristic, both memory modes
# ----------------------------------------------------------------------
class TestBackendEquivalence:
    @pytest.mark.parametrize("name", sorted(LIST_HEURISTICS))
    def test_heuristics_bit_identical(self, tree, name):
        for p in (1, 2, 4, 8):
            ref = reference_run(name, tree, p)
            got = registry.run(name, tree, p)
            assert_same_schedule(got, ref)

    @pytest.mark.parametrize("mode", ["strict", "opportunistic"])
    def test_memory_modes_bit_identical(self, tree, mode):
        res = optimal_postorder(tree)
        for p in (1, 2, 4):
            for factor in (1.0, 1.5, 3.0):
                cap = factor * res.peak_memory
                try:
                    ref = reference_capped(tree, p, cap, res.order, mode)
                except MemoryCapError as exc:
                    with pytest.raises(MemoryCapError, match="infeasible") as info:
                        memory_bounded_schedule(tree, p, cap, mode=mode)
                    # identical failure point, identical message
                    assert str(info.value) == str(exc)
                    continue
                got = memory_bounded_schedule(tree, p, cap, mode=mode)
                assert_same_schedule(got, ref)

    def test_sweep_spec_outputs_bit_identical(self, tree):
        """The kernel spec's outputs -- the schedule, or the infeasible-cap
        error with its resident memory -- match the reference loop for a
        critical-path rank swept uncapped and under an opportunistic cap
        (the other capped tests rank by the activation order)."""
        rank = par_deepest_first_rank(tree)
        for cap in (None, 2.0 * optimal_postorder(tree).peak_memory):
            # ranks must follow sigma in strict mode, so the capped case
            # uses the opportunistic policy (which may be infeasible --
            # then both sweeps must fail identically)
            mode = "strict" if cap is None else "opportunistic"
            ref_eng = SchedulerEngine(tree, 4, rank, cap=cap, mode=mode)
            got_eng = SchedulerEngine(tree, 4, rank, cap=cap, mode=mode)
            try:
                ref_schedule = ref_eng.run_reference()
            except MemoryCapError as exc:
                with pytest.raises(MemoryCapError) as info:
                    got_eng.run()
                assert str(info.value) == str(exc)
                continue
            assert_same_schedule(got_eng.run(), ref_schedule)
            assert got_eng.backend_used == resolve_backend()


# ----------------------------------------------------------------------
# prepared-path golden equivalence: every heuristic, both memory modes
# (the PreparedTree refactor's acceptance contract)
# ----------------------------------------------------------------------
class TestPreparedEquivalence:
    """Bare vs prepared tree, on each sweep: ``run`` (the C kernel where
    it builds) and ``reference`` (the reference loop, which reads the
    prepared bundle's list caches instead of its typed columns)."""

    @pytest.mark.parametrize("name", sorted(registry.names("parallel")))
    def test_heuristics_bit_identical(self, tree, name):
        prepared = PreparedTree(tree)  # one preparation, swept over p
        for p in (1, 2, 4, 8):
            ref = registry.run(name, tree, p)
            got = registry.run(name, prepared, p)
            assert_same_schedule(got, ref)

    @pytest.mark.parametrize("name", sorted(ENGINE_HEURISTICS))
    def test_heuristics_reference_bit_identical(self, tree, name):
        prepared = PreparedTree(tree)
        for p in (1, 2, 4, 8):
            ref = reference_run(name, tree, p)
            assert_same_schedule(reference_run(name, prepared, p), ref)
            assert_same_schedule(registry.run(name, prepared, p), ref)

    @pytest.mark.parametrize("sweep", ["run", "reference"])
    @pytest.mark.parametrize("mode", ["strict", "opportunistic"])
    def test_memory_modes_bit_identical(self, tree, mode, sweep):
        prepared = PreparedTree(tree)
        res = optimal_postorder(tree)
        for p in (1, 2, 4):
            for factor in (1.0, 1.5, 3.0):
                cap = factor * res.peak_memory
                outcomes = []
                for target in (tree, prepared):
                    try:
                        if sweep == "reference":
                            s = reference_capped(target, p, cap, res.order, mode)
                        else:
                            s = memory_bounded_schedule(target, p, cap, mode=mode)
                        outcomes.append(("ok", s.start.tobytes(), s.proc.tobytes()))
                    except MemoryCapError as exc:
                        outcomes.append(("err", str(exc)))
                assert outcomes[0] == outcomes[1], (mode, p, factor)


# ----------------------------------------------------------------------
# the ready bitset across its word boundaries: every mode
# ----------------------------------------------------------------------
#: tree sizes around one 64-bit word of ranks and one level-1 word (4096)
BOUNDARY_SIZES = (1, 63, 64, 65, 4095, 4096, 4097)


def boundary_tree(shape: str, n: int) -> TaskTree:
    rng = np.random.default_rng(n)
    if shape == "chain":
        return shaped_tree(np.arange(-1, n - 1), rng)
    if shape == "star":
        return shaped_tree(np.r_[-1, np.zeros(n - 1, dtype=np.int64)], rng)
    return random_weighted_tree(n, rng)


def same_outcome(engine: SchedulerEngine, twin: SchedulerEngine) -> None:
    """``engine.run()`` and ``twin.run_reference()`` give the same
    schedule or the same error message."""
    try:
        ref = twin.run_reference()
    except (MemoryCapError, ValueError) as exc:
        with pytest.raises(type(exc)) as info:
            engine.run()
        assert str(info.value) == str(exc)
        return
    assert_same_schedule(engine.run(), ref)


class TestReadyBitset:
    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    @pytest.mark.parametrize("shape", ["chain", "star", "random"])
    def test_all_modes_at_word_boundaries(self, shape, n):
        tree = boundary_tree(shape, n)
        prepared = PreparedTree(tree)
        rng = np.random.default_rng(n + 1)
        shuffled = rng.permutation(n)  # ranks spread over every word
        opt = optimal_postorder(tree)
        sigma_rank = np.empty(n, dtype=np.int64)
        sigma_rank[opt.order] = np.arange(n)
        for p in (1, 3, 16):
            same_outcome(
                SchedulerEngine(prepared, p, shuffled),
                SchedulerEngine(tree, p, shuffled),
            )
            for factor in (1.0, 1.5):
                cap = factor * opt.peak_memory
                for mode, rank in (("strict", sigma_rank), ("opportunistic", shuffled)):
                    kw = dict(cap=cap, order=opt.order, mode=mode)
                    same_outcome(
                        SchedulerEngine(prepared, p, rank, **kw),
                        SchedulerEngine(tree, p, rank, **kw),
                    )

    def test_opportunistic_scan_crosses_words(self):
        """Ready ranks 1 and 2 do not fit next to the running rank 0, and
        ranks 3..4095 belong to a chain that is not ready: the lowest rank
        that fits, 4096, lies in another 64-bit word and another level-1
        word, and it starts at time 0 on processor 1."""
        n = 4200
        chain = np.arange(4, 4097)  # ranks 3..4095, none ready at first
        parent = np.zeros(n, dtype=np.int64)
        parent[0] = -1
        parent[chain[1:]] = chain[:-1]  # node 4 hangs under the root
        parent[4097] = 4096  # the chain's leaf
        rank = np.empty(n, dtype=np.int64)
        rank[[1, 2, 3]] = [0, 1, 2]  # three large leaves
        rank[chain] = np.arange(3, 4096)
        rank[4098:] = np.arange(4096, n - 2)  # small leaves of the root
        rank[4097] = n - 2
        rank[0] = n - 1
        sizes = np.zeros(n)
        sizes[[1, 2, 3]] = 10.0 * n
        tree = TaskTree(parent, np.ones(n), np.ones(n), sizes)
        cap = 11.0 * n  # one large leaf at a time, with anything small
        order = optimal_postorder(tree).order
        kw = dict(cap=cap, order=order, mode="opportunistic")
        got = SchedulerEngine(tree, 2, rank, **kw).run()
        assert_same_schedule(got, SchedulerEngine(tree, 2, rank, **kw).run_reference())
        first = np.flatnonzero(got.start == 0.0)
        assert sorted(rank[first]) == [0, 4096]
        assert got.proc[rank == 4096] == 1


# ----------------------------------------------------------------------
# fallback edge cases
# ----------------------------------------------------------------------
class TestExactnessFallback:
    def huge_int_tree(self) -> TaskTree:
        # integral weights in the reference loop's integer-key regime
        # (total * n < 2**62) whose completion times exceed 2**53: the
        # kernel's float64 event keys cannot represent them exactly, so
        # the engine must keep the reference loop
        w = np.full(3, float(2**52))
        return TaskTree(np.asarray([-1, 0, 0]), w, np.ones(3), np.ones(3))

    def test_huge_integral_weights_fall_back_to_python(self):
        tree = self.huge_int_tree()
        engine = SchedulerEngine(tree, 2, np.arange(3))
        ref = SchedulerEngine(tree, 2, np.arange(3))
        assert_same_schedule(engine.run(), ref.run_reference())
        assert engine.backend_used == "python"  # the sweep fell back

    def test_normal_trees_do_not_fall_back(self, star5):
        engine = SchedulerEngine(star5, 2, np.arange(5))
        engine.run()
        assert engine.backend_used == resolve_backend()


# ----------------------------------------------------------------------
# hypothesis: random trees with heavy priority-rank ties
# ----------------------------------------------------------------------
class TestPropertyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(tree=task_trees(max_nodes=40, max_w=3, max_f=3), p=st.integers(1, 5))
    def test_python_and_compiled_backends_agree(self, tree, p):
        """The reference loop and the dispatched sweep agree on random
        trees whose tiny weight ranges force ties in every priority key
        column (resolved inside lex_rank by node index)."""
        rank = par_deepest_first_rank(tree)
        ref = SchedulerEngine(tree, p, rank).run_reference()
        got = SchedulerEngine(tree, p, rank).run()
        assert_same_schedule(got, ref)

    @settings(max_examples=40, deadline=None)
    @given(tree=task_trees(max_nodes=30, max_w=3, max_f=3), p=st.integers(1, 4))
    def test_capped_agreement_including_infeasibility(self, tree, p):
        res = optimal_postorder(tree)
        cap = 1.2 * res.peak_memory
        try:
            ref = reference_capped(tree, p, cap, res.order, "opportunistic")
        except MemoryCapError:
            with pytest.raises(MemoryCapError):
                memory_bounded_schedule(tree, p, cap, mode="opportunistic")
            return
        got = memory_bounded_schedule(tree, p, cap, mode="opportunistic")
        assert_same_schedule(got, ref)


# ----------------------------------------------------------------------
# plumbing: the experiments pipeline on either sweep
# ----------------------------------------------------------------------
class TestPipelinePlumbing:
    def instances(self):
        from repro.workloads.dataset import TreeInstance

        rng = np.random.default_rng(42)
        return [
            TreeInstance(
                name=f"t{i}",
                tree=random_weighted_tree(40 + 10 * i, rng),
                matrix_name=f"t{i}",
                ordering="nd",
                amalgamation=0,
            )
            for i in range(3)
        ]

    def test_campaign_same_on_both_sweeps(self, monkeypatch):
        from repro.analysis.campaign import Campaign, run_campaign

        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        instances = self.instances()
        grid = Campaign(
            algorithms=("ParDeepestFirst", "ParSubtrees", "MemoryBounded"),
            processor_counts=(2, 4),
        )
        got = run_campaign(instances, grid)
        faults.install(faults.FaultPlan((faults.Fault(kind="compile_failure"),)))
        try:
            ref = run_campaign(instances, grid)
        finally:
            faults.install(None)
        assert got == ref

    def test_degraded_pool_workers_match_serial(self, monkeypatch):
        """A campaign on supervised workers that inherit a
        ``compile_failure`` plan (so every worker sweeps on the
        reference loop) is byte-identical to the serial run."""
        from repro.analysis.campaign import Campaign, run_campaign
        from repro.analysis.supervisor import SupervisorPool

        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        instances = self.instances()
        grid = Campaign(
            algorithms=("ParDeepestFirst", "MemoryBounded"), processor_counts=(2, 4)
        )
        ref = run_campaign(instances, grid)
        monkeypatch.setenv(faults.ENV_VAR, '{"faults": [{"kind": "compile_failure"}]}')
        with SupervisorPool(workers=2) as pool:
            degraded = run_campaign(instances, grid, runtime=pool)
        assert degraded == ref

    def test_cli_run(self, capsys):
        from repro.cli import main

        argv = ["run", "--algo", "ParDeepestFirst", "--scale", "tiny",
                "--limit", "1", "--processors", "2"]
        assert main(argv) == 0
        assert "ParDeepestFirst" not in capsys.readouterr().err
