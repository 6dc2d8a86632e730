"""Unit and property tests for the event-sweep simulator."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import registry
from repro.core import _ckernel
from repro.core import engine as engine_mod
from repro.core.engine import resolve_backend
from repro.core.schedule import Schedule
from repro.core.simulator import (
    _memory_profile_compiled,
    _memory_profile_reference,
    memory_profile,
    peak_memory,
    sequential_peak_memory,
    simulate,
)
from repro.core.tree import NO_PARENT, TaskTree
from repro.parallel import par_deepest_first
from repro.sequential.traversal import traversal_peak_memory
from repro.testing import faults
from tests.conftest import parent_vectors, pebble_trees, random_tree, task_trees


def resident_memory(schedule, t):
    """Resident file size just after instant ``t``, summed file by file
    from the model of Section 3.1: ``n_i`` lives in ``[start_i, end_i)``
    and ``f_i`` in ``[start_i, end_parent(i))`` (the root's output to the
    end). An oracle for the event sweep that sorts no events."""
    tree = schedule.tree
    start, end = schedule.start, schedule.end
    parent_end = np.where(
        tree.parent == NO_PARENT, np.inf, end[np.maximum(tree.parent, 0)]
    )
    execution = (start <= t) & (t < end)
    output = (start <= t) & (t < parent_end)
    return float(tree.sizes[execution].sum() + tree.f[output].sum())


def memory_at(times, memory, t):
    """Resident memory at ``t`` read off a right-continuous profile."""
    k = int(np.searchsorted(times, t, side="right") - 1)
    return 0.0 if k < 0 else float(memory[k])


def same_profile(got, want) -> bool:
    """Two ``(times, levels)`` profiles hold the same bytes."""
    return all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want))


def assert_profile_matches_oracle(schedule):
    """Both dispatches -- this process's (the C library where it builds)
    and the numpy reference -- against the per-file oracle."""
    for profile in (memory_profile, _memory_profile_reference):
        times, mem = profile(schedule)
        assert np.array_equal(
            times, np.unique(np.concatenate([schedule.start, schedule.end]))
        )
        assert list(mem) == [resident_memory(schedule, t) for t in times]
    assert peak_memory(schedule) == max(mem)


ORACLE_CASES = [
    pytest.param(name, p, id=f"{name}-p{p}")
    for name in registry.names("parallel")
    for p in (2, 4)
] + [pytest.param(name, 1, id=name) for name in registry.names("sequential")]


class TestSequentialAccounting:
    def test_chain_pebble(self, chain5):
        # Chain in pebble model: each step holds child output + own output.
        peak = sequential_peak_memory(chain5, [4, 3, 2, 1, 0])
        assert peak == 2.0

    def test_star_pebble(self, star5):
        # All leaf outputs resident when the root runs: 4 + root's 1.
        peak = sequential_peak_memory(star5, [1, 2, 3, 4, 0])
        assert peak == 5.0

    def test_execution_file_counted(self):
        t = TaskTree.from_parents([-1, 0], w=1.0, f=2.0, sizes=[3.0, 4.0])
        # leaf: 4 + 2 = 6; root while leaf output resident: 2 + 3 + 2 = 7
        assert sequential_peak_memory(t, [1, 0]) == 7.0

    def test_matches_traversal_evaluation(self, paper_example):
        order = paper_example.postorder()
        assert sequential_peak_memory(paper_example, order) == traversal_peak_memory(
            paper_example, order
        )

    @given(task_trees())
    @settings(max_examples=80, deadline=None)
    def test_simulator_equals_traversal_evaluator(self, tree):
        """The event sweep and the direct profile agree on any order."""
        order = tree.postorder()
        assert abs(
            sequential_peak_memory(tree, order) - traversal_peak_memory(tree, order)
        ) < 1e-9


class TestParallelAccounting:
    def test_free_before_alloc_at_same_instant(self, star5):
        """Leaves end at t=1, root starts at t=1: the root's allocation
        must not stack on the leaves' execution allocations."""
        start = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        proc = np.array([0, 0, 1, 2, 3])
        sch = Schedule(star5, start, proc, p=4)
        # During leaves: 4 outputs; during root: 4 inputs + 1 output = 5.
        assert peak_memory(sch) == 5.0

    def test_parallel_leaves_sum(self, star5):
        start = np.array([2.0, 0.0, 0.0, 1.0, 1.0])
        proc = np.array([0, 0, 1, 0, 1])
        sch = Schedule(star5, start, proc, p=2)
        sim = simulate(sch)
        # t in [0,1): leaves 1,2 -> 2; [1,2): outputs 1,2 + leaves 3,4 -> 4
        # [2,3): 4 inputs + root output -> 5.
        assert sim.peak_memory == 5.0
        assert memory_at(sim.times, sim.memory, 0.5) == 2.0
        assert memory_at(sim.times, sim.memory, 1.5) == 4.0

    def test_memory_profile_monotone_times(self, paper_example):
        sch = Schedule.sequential(paper_example, paper_example.postorder())
        times, mem = memory_profile(sch)
        assert np.all(np.diff(times) > 0)
        assert mem.shape == times.shape

    def test_final_memory_is_root_output(self, paper_example):
        sch = Schedule.sequential(paper_example, paper_example.postorder())
        _, mem = memory_profile(sch)
        assert mem[-1] == paper_example.f[paper_example.root]

    @given(task_trees())
    @settings(max_examples=60, deadline=None)
    def test_memory_conservation(self, tree):
        """Total allocations equal total frees plus the root's output."""
        sch = Schedule.sequential(tree, tree.postorder())
        _, mem = memory_profile(sch)
        assert abs(mem[-1] - tree.f[tree.root]) < 1e-9
        assert np.all(mem >= -1e-9)


class TestSimulateResult:
    def test_makespan(self, paper_example):
        sch = Schedule.sequential(paper_example, paper_example.postorder())
        sim = simulate(sch)
        assert sim.makespan == paper_example.total_work()

    def test_memory_at_before_start(self, paper_example):
        sch = Schedule.sequential(paper_example, paper_example.postorder())
        sim = simulate(sch)
        assert memory_at(sim.times, sim.memory, -1.0) == 0.0

    def test_validate_flag(self, star5):
        # Invalid: root starts before children complete.
        start = np.zeros(5)
        proc = np.arange(5) % 2
        sch = Schedule(star5, start, proc, p=2)
        import pytest

        from repro.core.validation import InvalidScheduleError

        with pytest.raises(InvalidScheduleError):
            simulate(sch, validate=True)
        sim = simulate(sch, validate=False)  # accounting still runs
        assert sim.peak_memory > 0


class TestAgainstFileOracle:
    """The event sweep equals the per-file residency of Section 3.1 at
    every instant where the profile changes."""

    @pytest.mark.parametrize("name,p", ORACLE_CASES)
    def test_every_algorithm(self, name, p):
        rng = np.random.default_rng(7)
        for n, bias in ((30, 0.0), (60, 0.8)):
            tree = random_tree(rng, n, bias)
            # integral weights keep both sums exact in floating point
            tree = TaskTree(
                tree.parent, np.ceil(tree.w), np.ceil(tree.f), np.ceil(tree.sizes)
            )
            assert_profile_matches_oracle(registry.run(name, tree, p))

    @given(task_trees(min_w=0))
    @settings(max_examples=60, deadline=None)
    def test_zero_duration_tasks(self, tree):
        """Tasks that start and end at the same instant hold no execution
        file; their outputs appear at that instant."""
        assert_profile_matches_oracle(par_deepest_first(tree, 3))

    @given(task_trees(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_any_topological_order(self, tree, rnd):
        """Not only postorders: any topological order, sequentially."""
        waiting = [len(tree.children(i)) for i in range(tree.n)]
        ready = [int(i) for i in tree.leaves()]
        order = []
        while ready:
            i = ready.pop(rnd.randrange(len(ready)))
            order.append(i)
            if i != tree.root:
                waiting[tree.parent[i]] -= 1
                if waiting[tree.parent[i]] == 0:
                    ready.append(int(tree.parent[i]))
        schedule = Schedule.sequential(tree, order)
        assert_profile_matches_oracle(schedule)
        assert sequential_peak_memory(tree, order) == traversal_peak_memory(tree, order)

    @given(task_trees())
    @settings(max_examples=40, deadline=None)
    def test_memory_at_reads_the_profile(self, tree):
        sim = simulate(par_deepest_first(tree, 2))
        for k, t in enumerate(sim.times):
            assert memory_at(sim.times, sim.memory, t) == sim.memory[k]
            if k:
                mid = (sim.times[k - 1] + t) / 2
                assert memory_at(sim.times, sim.memory, mid) == sim.memory[k - 1]


#: values that make instants collide and sums round: float weights,
#: zero work, both signed zeros
_STARTS = st.sampled_from([-0.0, 0.0, 0.1, 1 / 3, 0.5, 1.0, 1.1, 2.0, 1e300])
_WORK = st.sampled_from([0.0, 0.0, 0.1, 1 / 3, 1.0, 2.0])
_FILES = st.sampled_from([-0.0, 0.0, 0.1, 0.2, 1 / 3, 1.0, 2.5])


@st.composite
def storm_schedules(draw):
    """Arbitrary start times (valid or not: the profile does not check
    precedence) from a handful of values, so many events share an
    instant, on trees with float weights and zero-work tasks."""
    parents = draw(parent_vectors(1, 40))
    n = len(parents)
    column = lambda values: draw(st.lists(values, min_size=n, max_size=n))  # noqa: E731
    tree = TaskTree.from_parents(parents, column(_WORK), column(_FILES), column(_FILES))
    return Schedule(tree, column(_STARTS), np.zeros(n, dtype=np.int64), p=1)


class TestCompiledProfile:
    """The C library's profile holds the bytes of the numpy reference;
    where this process does not dispatch to it, both sides are the
    reference and the assertions still hold."""

    @given(storm_schedules())
    @settings(max_examples=300, deadline=None)
    @example(
        Schedule(TaskTree.from_parents([-1], w=0.0, f=1.0, sizes=0.0), [-0.0], [0], p=1)
    )
    @example(
        Schedule(TaskTree.from_parents([-1, 0], w=1.0, f=0.0, sizes=-0.0), [1.0, -0.0], [0, 0], 1)
    )
    @example(  # the first level is -0.0: cumsum starts from the first delta
        Schedule(
            TaskTree.from_parents([-1, 0], [0.0, 1.0], [-0.0, 0.0], [-0.0, 1.0]),
            [0.0, 1.0],
            [0, 0],
            p=1,
        )
    )
    def test_byte_identical_on_storms(self, schedule):
        want = _memory_profile_reference(schedule)
        assert same_profile(memory_profile(schedule), want)
        if resolve_backend() == "c":
            got = _memory_profile_compiled(schedule)
            assert got is not None and same_profile(got, want)

    @given(pebble_trees(max_nodes=60), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_byte_identical_on_unit_schedules(self, tree, p):
        """Unit weights on many processors: every instant is a storm of
        simultaneous frees and allocations."""
        schedule = par_deepest_first(tree, p)
        assert same_profile(memory_profile(schedule), _memory_profile_reference(schedule))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_takes_the_reference_path(self, star5, bad):
        start = np.array([1.0, 0.0, bad, 0.0, 0.0])
        schedule = Schedule(star5, start, np.arange(5) % 2, p=2)
        if resolve_backend() == "c":
            assert _memory_profile_compiled(schedule) is None
        assert same_profile(memory_profile(schedule), _memory_profile_reference(schedule))

    @pytest.mark.parametrize(
        "column, bad, error",
        [
            (0, np.zeros(5, dtype=np.float32), TypeError),
            (1, [1.0] * 5, TypeError),
            (2, np.zeros(4), ValueError),
            (3, np.zeros(10)[::2], ValueError),
        ],
    )
    def test_compiled_columns_are_checked(self, star5, column, bad, error):
        """Each column reaching the library is a C-contiguous float64
        array of one length, or the wrapper raises before the call."""
        if not _ckernel.available():
            pytest.skip(f"no C library: {_ckernel.unavailable_reason()}")
        cols = [np.zeros(5), star5.w, star5.start_allocs(), star5.completion_frees()]
        cols[column] = bad
        with pytest.raises(error):
            _ckernel.memory_profile(*cols)

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda t, m: (t, m + 1.0), id="levels"),
            pytest.param(lambda t, m: (np.where(t == 0, -0.0, t), m), id="signed-zero"),
            pytest.param(lambda t, m: None, id="declines"),
        ],
    )
    def test_corrupt_result_makes_the_probe_skip_c(self, corrupt, monkeypatch):
        """A compiled profile that differs from the reference on the
        probe schedule -- by value, by the sign of a zero, or by not
        answering -- sends the whole process to the reference paths,
        with the reason in the probe's skip list."""
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        monkeypatch.setattr(engine_mod, "_PROBE_CACHE", {})
        if not _ckernel.available():
            pytest.skip(f"no C library: {_ckernel.unavailable_reason()}")
        real = _ckernel.memory_profile
        monkeypatch.setattr(_ckernel, "memory_profile", lambda *cols: corrupt(*real(*cols)))
        chosen, skipped = engine_mod.probe_backend()
        assert chosen == "python"
        assert skipped == [
            ("c", "memory_profile differs from the numpy reference on the probe schedule")
        ]
        assert resolve_backend() == "python"
