"""Cross-backend golden equivalence for the event-sweep kernel spec.

The engine now runs its sweep on pluggable backends (pure-Python
reference, C kernel, interpreted kernel). The
acceptance contract of that refactor is *bit identity*: every backend
must produce byte-for-byte the same :class:`~repro.core.schedule.Schedule`
(and the same activation order / peak-memory trace) for every registered
heuristic and both memory modes -- so perf work can never silently
change paper results. This suite pins that contract, plus the
selection/fallback edge cases around optional dependencies.

Whether the C backend exists depends on the environment (it needs a
toolchain). The interpreted ``"kernel"`` backend is always available,
so the kernel *logic* is covered everywhere.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import registry
from repro.core.engine import (
    BACKENDS,
    BACKEND_ENV_VAR,
    BackendUnavailableError,
    MemoryCapError,
    SchedulerEngine,
    available_backends,
    resolve_backend,
)
from repro.core.tree import TaskTree
from repro.parallel.memory_bounded import memory_bounded_schedule
from repro.parallel.par_deepest_first import par_deepest_first_rank
from repro.sequential.postorder import optimal_postorder
from repro.workloads.synthetic import random_weighted_tree

from tests.conftest import task_trees

#: every backend other than the reference, available or not
ALT_BACKENDS = [b for b in BACKENDS if b not in ("auto", "python")]
#: the ones that can actually run here ("kernel" always can)
AVAILABLE_ALT = [b for b in ALT_BACKENDS if b in available_backends()]
#: the fastest compiled backend available (used by the property test)
BEST_ALT = AVAILABLE_ALT[0]

ENGINE_HEURISTICS = [
    name
    for name in registry.names("parallel")
    if "backend" in registry.get(name).params and name != "MemoryBounded"
]


def tree_spread() -> list[TaskTree]:
    """A deterministic spread of shapes and weight regimes, n <= 200."""
    rng = np.random.default_rng(20130520)
    trees = []
    for n, bias in [(1, 0.0), (7, 0.0), (60, 4.0), (120, -4.0), (200, 0.0)]:
        trees.append(random_weighted_tree(n, rng, bias=bias))
    # heavy duplicate weights: ties in every priority key column
    trees.append(random_weighted_tree(80, rng, max_w=2, max_f=1, max_size=0))
    # fractional durations (the reference backend's float event keys)
    frac = random_weighted_tree(80, rng)
    trees.append(frac.with_weights(w=frac.w + rng.uniform(0.0, 1.0, frac.n)))
    # zero-weight tasks: completion and start events at the same instant
    # cascade through several start phases per time point
    zw = random_weighted_tree(90, rng)
    w = zw.w.copy()
    w[rng.random(zw.n) < 0.4] = 0.0
    trees.append(zw.with_weights(w=w))
    return trees


@pytest.fixture(scope="module", params=range(8))
def tree(request):
    return tree_spread()[request.param]


def assert_same_schedule(got, ref):
    assert np.array_equal(got.start, ref.start)
    assert np.array_equal(got.proc, ref.proc)
    assert got.p == ref.p


# ----------------------------------------------------------------------
# selection / availability
# ----------------------------------------------------------------------
class TestSelection:
    def test_reference_backends_always_available(self):
        avail = available_backends()
        assert "python" in avail and "kernel" in avail

    def test_available_backends_are_constructible(self, star5):
        for b in available_backends():
            engine = SchedulerEngine(star5, 2, np.arange(5), backend=b)
            assert engine.backend == b

    def test_unknown_backend_rejected(self, star5):
        with pytest.raises(ValueError, match="unknown backend"):
            SchedulerEngine(star5, 2, np.arange(5), backend="fortran")

    def test_auto_resolves_to_an_available_backend(self):
        assert resolve_backend("auto") in available_backends()
        assert resolve_backend("auto") != "kernel"  # never the slow path

    def test_env_var_is_the_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert resolve_backend(None) == "python"
        monkeypatch.delenv(BACKEND_ENV_VAR)
        assert resolve_backend(None) == resolve_backend("auto")

    def test_auto_prefers_c_then_python(self, monkeypatch):
        from repro.core import _ckernel

        expected = "c" if _ckernel.available() else "python"
        assert resolve_backend("auto") == expected
        monkeypatch.setattr(_ckernel, "_BUILD", (None, "simulated: no toolchain"))
        assert resolve_backend("auto") == "python"

    def test_numba_is_no_longer_a_backend(self, star5):
        assert "numba" not in BACKENDS
        with pytest.raises(ValueError, match="unknown backend"):
            SchedulerEngine(star5, 2, np.arange(5), backend="numba")

    def test_stale_numba_env_var_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numba")
        with pytest.raises(ValueError, match="unknown backend 'numba'"):
            resolve_backend(None)

    def test_cli_rejects_numba_backend(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as info:
            main(["run", "--algo", "ParDeepestFirst", "--backend", "numba"])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_c_unavailable_raises_with_reason(self, star5, monkeypatch):
        from repro.core import _ckernel

        monkeypatch.setattr(_ckernel, "_BUILD", (None, "simulated: no toolchain"))
        with pytest.raises(BackendUnavailableError, match="simulated: no toolchain"):
            SchedulerEngine(star5, 2, np.arange(5), backend="c")


# ----------------------------------------------------------------------
# startup health probe: the supervised runtime's degradation chain
# ----------------------------------------------------------------------
class TestProbeBackend:
    @pytest.fixture(autouse=True)
    def _fresh_probe_cache(self):
        """Probe decisions are memoised per (backend, pid); these tests
        pin the *live* probe behaviour, so each starts uncached."""
        from repro.core import engine as engine_mod

        engine_mod._PROBE_CACHE.clear()
        yield
        engine_mod._PROBE_CACHE.clear()

    def test_probe_picks_a_working_backend(self, monkeypatch):
        from repro.core.engine import probe_backend

        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        chosen, skipped = probe_backend(None)
        assert chosen in available_backends()
        assert all(isinstance(b, str) and isinstance(why, str) for b, why in skipped)

    def test_probe_honours_explicit_working_backend(self):
        from repro.core.engine import probe_backend

        chosen, skipped = probe_backend("python")
        assert chosen == "python"
        assert skipped == []

    def test_probe_degrades_on_injected_compile_failure(self, monkeypatch):
        """A broken C toolchain (injected) degrades c -> python instead
        of failing the worker, and the skip reasons are recorded for the
        run report."""
        from repro.core.engine import probe_backend
        from repro.testing import faults

        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        faults.install(faults.FaultPlan((faults.Fault(kind="compile_failure"),)))
        try:
            chosen, skipped = probe_backend("c")
        finally:
            faults.install(None)
        assert chosen == "python"
        reasons = {b: why for b, why in skipped}
        assert "injected compile failure" in reasons["c"]

    def test_probe_runs_a_real_sweep(self, monkeypatch):
        """Backends that resolve but cannot *run* are skipped too: the
        probe executes a real two-node sweep, not just a lookup."""
        from repro.core import engine as engine_mod
        from repro.core.engine import probe_backend

        real_init = engine_mod.SchedulerEngine.__init__

        def sabotaged(self, *a, **kw):
            if kw.get("backend") == "python":
                raise RuntimeError("sabotaged python backend")
            return real_init(self, *a, **kw)

        monkeypatch.setattr(engine_mod.SchedulerEngine, "__init__", sabotaged)
        chosen, skipped = probe_backend("python")
        assert chosen != "python"
        assert any("sabotaged" in why for _b, why in skipped)

    def test_probe_memoised_per_backend_and_pid(self, monkeypatch):
        """Repeated probes in one process (health endpoints, supervisor
        pool restarts) are served from the (backend, pid) cache instead
        of re-running the two-node sweep; refresh=True forces a live
        probe."""
        from repro.core import engine as engine_mod
        from repro.core.engine import probe_backend

        sweeps = []
        real_init = engine_mod.SchedulerEngine.__init__

        def counting(self, *a, **kw):
            sweeps.append(kw.get("backend"))
            return real_init(self, *a, **kw)

        monkeypatch.setattr(engine_mod.SchedulerEngine, "__init__", counting)
        first = probe_backend("python")
        live = len(sweeps)
        assert live >= 1
        assert probe_backend("python") == first
        assert len(sweeps) == live  # cache hit: no new sweep
        assert probe_backend("python", refresh=True) == first
        assert len(sweeps) > live  # forced live probe

    def test_probe_cache_bypassed_under_fault_plan(self, monkeypatch):
        """An active fault plan must keep degrading live probes: cached
        decisions are neither read nor written while one is installed."""
        from repro.core.engine import probe_backend
        from repro.testing import faults

        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        warm = probe_backend("c")  # cached (whatever the chain picked)
        faults.install(faults.FaultPlan((faults.Fault(kind="compile_failure"),)))
        try:
            chosen, skipped = probe_backend("c")
        finally:
            faults.install(None)
        assert chosen != "c"
        assert "injected compile failure" in dict(skipped)["c"]
        # and the plan-era decision did not poison the cache
        assert probe_backend("c") == warm

    def test_apply_backend_only_touches_declaring_algorithms(self):
        assert registry.apply_backend("ParDeepestFirst", {}, "python") == {
            "backend": "python"
        }
        # explicit scenario params are overridden by the probed backend
        assert registry.apply_backend(
            "ParDeepestFirst", {"backend": "c"}, "python"
        ) == {"backend": "python"}
        # no declared backend parameter: params pass through untouched
        assert registry.apply_backend("ParSubtrees", {}, "python") == {}
        # no probed decision: params pass through untouched
        assert registry.apply_backend("ParDeepestFirst", {"backend": "c"}, None) == {
            "backend": "c"
        }


# ----------------------------------------------------------------------
# golden equivalence: every heuristic, both memory modes, all backends
# ----------------------------------------------------------------------
class TestBackendEquivalence:
    @pytest.mark.parametrize("name", sorted(ENGINE_HEURISTICS))
    @pytest.mark.parametrize("backend", AVAILABLE_ALT)
    def test_heuristics_bit_identical(self, tree, name, backend):
        for p in (1, 2, 4, 8):
            ref = registry.run(name, tree, p, backend="python")
            got = registry.run(name, tree, p, backend=backend)
            assert_same_schedule(got, ref)

    @pytest.mark.parametrize("mode", ["strict", "opportunistic"])
    @pytest.mark.parametrize("backend", AVAILABLE_ALT)
    def test_memory_modes_bit_identical(self, tree, mode, backend):
        res = optimal_postorder(tree)
        for p in (1, 2, 4):
            for factor in (1.0, 1.5, 3.0):
                cap = factor * res.peak_memory
                try:
                    ref = memory_bounded_schedule(
                        tree, p, cap, order=res.order, mode=mode, backend="python"
                    )
                except MemoryCapError as exc:
                    with pytest.raises(MemoryCapError, match="infeasible") as info:
                        memory_bounded_schedule(
                            tree, p, cap, order=res.order, mode=mode, backend=backend
                        )
                    # identical failure point, identical message
                    assert str(info.value) == str(exc)
                    continue
                got = memory_bounded_schedule(
                    tree, p, cap, order=res.order, mode=mode, backend=backend
                )
                assert_same_schedule(got, ref)

    @pytest.mark.parametrize("backend", AVAILABLE_ALT)
    def test_sweep_spec_outputs_bit_identical(self, tree, backend):
        """activation order and peak-memory trace match the reference
        backend exactly (the kernel spec's extra output arrays)."""
        rank = par_deepest_first_rank(tree)
        for cap in (None, 2.0 * optimal_postorder(tree).peak_memory):
            # ranks must follow sigma in strict mode, so the capped case
            # uses the opportunistic policy (which may be infeasible --
            # then both backends must fail identically)
            mode = "strict" if cap is None else "opportunistic"
            ref_eng = SchedulerEngine(tree, 4, rank, backend="python", cap=cap, mode=mode)
            got_eng = SchedulerEngine(tree, 4, rank, backend=backend, cap=cap, mode=mode)
            try:
                ref_schedule = ref_eng.run()
            except MemoryCapError as exc:
                with pytest.raises(MemoryCapError) as info:
                    got_eng.run()
                assert str(info.value) == str(exc)
                continue
            assert_same_schedule(got_eng.run(), ref_schedule)
            ref, got = ref_eng.sweep, got_eng.sweep
            assert np.array_equal(got.activation, ref.activation)
            assert np.array_equal(got.mem_trace, ref.mem_trace)
            assert np.array_equal(got.end, ref.end)
            assert got.now == ref.now and got.mem == ref.mem
            # the activation order is chronological and complete
            assert sorted(got.activation.tolist()) == list(range(tree.n))

    @pytest.mark.parametrize("backend", AVAILABLE_ALT)
    def test_engine_state_summary(self, star5, backend):
        engine = SchedulerEngine(star5, 2, np.arange(5), backend=backend)
        schedule = engine.run()
        assert engine.backend_used == backend
        assert engine.state.started == 5
        assert engine.state.ready == [] and engine.state.running == []
        assert engine.state.now == schedule.makespan


# ----------------------------------------------------------------------
# prepared-path golden equivalence: every heuristic, every backend,
# both memory modes (the PreparedTree refactor's acceptance contract)
# ----------------------------------------------------------------------
class TestPreparedEquivalence:
    @pytest.mark.parametrize("name", sorted(registry.names("parallel")))
    @pytest.mark.parametrize("backend", ["python"] + AVAILABLE_ALT)
    def test_heuristics_bit_identical(self, tree, name, backend):
        from repro.core.prepared import PreparedTree

        prepared = PreparedTree(tree)  # one preparation, swept over p
        kw = {"backend": backend} if "backend" in registry.get(name).params else {}
        for p in (1, 2, 4, 8):
            ref = registry.run(name, tree, p, **kw)
            got = registry.run(name, prepared, p, **kw)
            assert_same_schedule(got, ref)

    @pytest.mark.parametrize("mode", ["strict", "opportunistic"])
    @pytest.mark.parametrize("backend", ["python"] + AVAILABLE_ALT)
    def test_memory_modes_bit_identical(self, tree, mode, backend):
        from repro.core.prepared import PreparedTree

        prepared = PreparedTree(tree)
        res = optimal_postorder(tree)
        for p in (1, 2, 4):
            for factor in (1.0, 1.5, 3.0):
                cap = factor * res.peak_memory
                outcomes = []
                for target in (tree, prepared):
                    try:
                        s = memory_bounded_schedule(
                            target, p, cap, mode=mode, backend=backend
                        )
                        outcomes.append(("ok", s.start.tobytes(), s.proc.tobytes()))
                    except MemoryCapError as exc:
                        outcomes.append(("err", str(exc)))
                assert outcomes[0] == outcomes[1], (mode, p, factor)

    @pytest.mark.parametrize("backend", AVAILABLE_ALT)
    def test_sweep_spec_outputs_bit_identical(self, tree, backend):
        """activation order / peak-memory trace / finals also match when
        the engine runs against a shared preparation."""
        from repro.core.prepared import PreparedTree

        prepared = PreparedTree(tree)
        rank = par_deepest_first_rank(tree)
        ref_eng = SchedulerEngine(tree, 4, rank, backend=backend)
        got_eng = SchedulerEngine(prepared, 4, par_deepest_first_rank(prepared), backend=backend)
        assert_same_schedule(got_eng.run(), ref_eng.run())
        ref, got = ref_eng.sweep, got_eng.sweep
        assert np.array_equal(got.activation, ref.activation)
        assert np.array_equal(got.mem_trace, ref.mem_trace)
        assert np.array_equal(got.end, ref.end)
        assert got.now == ref.now and got.mem == ref.mem


# ----------------------------------------------------------------------
# fallback edge cases
# ----------------------------------------------------------------------
class TestExactnessFallback:
    def huge_int_tree(self) -> TaskTree:
        # integral weights in the reference backend's integer-key regime
        # (total * n < 2**62) whose completion times exceed 2**53: the
        # kernels' float64 event keys cannot represent them exactly, so
        # kernel backends must step aside
        w = np.full(3, float(2**52))
        return TaskTree(np.asarray([-1, 0, 0]), w, np.ones(3), np.ones(3))

    @pytest.mark.parametrize("backend", AVAILABLE_ALT)
    def test_huge_integral_weights_fall_back_to_python(self, backend):
        tree = self.huge_int_tree()
        engine = SchedulerEngine(tree, 2, np.arange(3), backend=backend)
        ref = SchedulerEngine(tree, 2, np.arange(3), backend="python")
        assert_same_schedule(engine.run(), ref.run())
        assert engine.backend == backend  # selection is unchanged...
        assert engine.backend_used == "python"  # ...the sweep fell back

    def test_normal_trees_do_not_fall_back(self, star5):
        engine = SchedulerEngine(star5, 2, np.arange(5), backend=AVAILABLE_ALT[0])
        engine.run()
        assert engine.backend_used == AVAILABLE_ALT[0]


# ----------------------------------------------------------------------
# hypothesis: random trees with heavy priority-rank ties
# ----------------------------------------------------------------------
class TestPropertyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(tree=task_trees(max_nodes=40, max_w=3, max_f=3), p=st.integers(1, 5))
    def test_python_and_compiled_backends_agree(self, tree, p):
        """The reference and the best compiled backend agree on random
        trees whose tiny weight ranges force ties in every priority key
        column (resolved inside lex_rank by node index)."""
        rank = par_deepest_first_rank(tree)
        ref = SchedulerEngine(tree, p, rank, backend="python").run()
        got = SchedulerEngine(tree, p, rank, backend=BEST_ALT).run()
        assert_same_schedule(got, ref)

    @settings(max_examples=40, deadline=None)
    @given(tree=task_trees(max_nodes=30, max_w=3, max_f=3), p=st.integers(1, 4))
    def test_capped_agreement_including_infeasibility(self, tree, p):
        res = optimal_postorder(tree)
        cap = 1.2 * res.peak_memory
        try:
            ref = memory_bounded_schedule(
                tree, p, cap, order=res.order, mode="opportunistic", backend="python"
            )
        except MemoryCapError:
            with pytest.raises(MemoryCapError):
                memory_bounded_schedule(
                    tree, p, cap, order=res.order, mode="opportunistic", backend=BEST_ALT
                )
            return
        got = memory_bounded_schedule(
            tree, p, cap, order=res.order, mode="opportunistic", backend=BEST_ALT
        )
        assert_same_schedule(got, ref)


def _worker_resolve(override: str | None) -> tuple[str, str]:
    """Pool worker probe: what the environment default resolves to, and
    what a per-call ``backend=`` override resolves to (top-level so the
    fork pool can pickle it)."""
    return resolve_backend(None), resolve_backend(override)


# ----------------------------------------------------------------------
# plumbing: experiments pipeline and registry forwarding
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

    def test_run_experiments_backend_is_byte_identical(self):
        from repro.analysis.experiments import run_experiments

        instances = self.instances()
        names = ("ParDeepestFirst", "ParSubtrees", "MemoryBounded")
        ref = run_experiments(instances, (2, 4), heuristics=names, backend="python")
        got = run_experiments(instances, (2, 4), heuristics=names, backend=BEST_ALT)
        assert got == ref

    def test_env_backend_propagates_to_pool_workers(self, monkeypatch):
        """REPRO_ENGINE_BACKEND set in the parent is inherited by fork
        pool workers (their ``resolve_backend(None)`` sees it), while a
        per-call ``backend=`` override still wins inside the worker."""
        import multiprocessing

        monkeypatch.setenv(BACKEND_ENV_VAR, "kernel")  # never auto-selected
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=2) as pool:
            results = pool.map(_worker_resolve, [None, "python", None])
        assert results[0] == ("kernel", "kernel")
        assert results[1] == ("kernel", "python")  # override beats the env
        assert results[2] == ("kernel", "kernel")

    def test_env_default_with_per_call_override_in_workers(self, monkeypatch):
        """run_experiments: env backend in the parent + an explicit
        ``backend=`` override fanned to pool workers are byte-identical
        to the serial reference (the override reaches the children)."""
        from repro.analysis.experiments import run_experiments

        instances = self.instances()
        names = ("ParDeepestFirst", "MemoryBounded")
        ref = run_experiments(instances, (2, 4), heuristics=names)
        monkeypatch.setenv(BACKEND_ENV_VAR, "kernel")
        env_only = run_experiments(
            instances, (2, 4), heuristics=names, workers=2
        )
        overridden = run_experiments(
            instances, (2, 4), heuristics=names, workers=2, backend="python"
        )
        assert env_only == ref
        assert overridden == ref

    def test_registry_rejects_backend_for_non_engine_algorithms(self):
        tree = random_weighted_tree(10, np.random.default_rng(1))
        with pytest.raises(TypeError, match="backend"):
            registry.run("ParSubtrees", tree, 2, backend="python")

    def test_cli_backend_flag(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "run",
                    "--algo",
                    "ParDeepestFirst",
                    "--scale",
                    "tiny",
                    "--limit",
                    "1",
                    "--processors",
                    "2",
                    "--backend",
                    "python",
                ]
            )
            == 0
        )
        assert "ParDeepestFirst" not in capsys.readouterr().err
