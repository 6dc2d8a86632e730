"""Tests for the central algorithm registry and the generic CLI runner."""

import numpy as np
import pytest

from repro import registry
from repro.cli import main
from repro.core.validation import validate_schedule
from repro.parallel.heuristics import HEURISTICS
from repro.workloads.synthetic import random_weighted_tree


@pytest.fixture(scope="module")
def tree():
    return random_weighted_tree(40, np.random.default_rng(5))


class TestCatalogue:
    def test_paper_heuristics_registered_in_order(self):
        assert registry.names("parallel")[:4] == list(HEURISTICS)

    def test_variants_registered(self):
        for name in ("ParInnerFirst/naiveO", "ParDeepestFirst/hops"):
            assert registry.get(name).kind == "parallel"

    def test_sequential_traversals_registered(self):
        names = registry.names("sequential")
        assert "optimal_postorder" in names
        assert "liu_optimal_traversal" in names

    def test_heuristics_view_is_registry_backed(self):
        for name, run in HEURISTICS.items():
            assert run.__self__ is registry.get(name)
            assert run.__func__ is registry.Algorithm.run

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="known:"):
            registry.get("NoSuchAlgorithm")

    def test_duplicate_rejected(self):
        algo = registry.get("ParSubtrees")
        with pytest.raises(ValueError, match="already registered"):
            registry.register(algo)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            registry.Algorithm(name="x", kind="quantum", fn=lambda t: t)

    @pytest.mark.parametrize(
        "kind, spec", [("parallel", None), ("sequential", lambda t, p: None)]
    )
    def test_needs_fn_or_sweep_spec(self, kind, spec):
        # only a parallel algorithm may be described by its sweep spec alone
        with pytest.raises(ValueError, match="needs an fn or a sweep_spec"):
            registry.Algorithm(name="x", kind=kind, sweep_spec=spec)

    def test_fn_and_sweep_spec_rejected(self):
        # run() sweeps the spec, so an fn beside it would never be called
        with pytest.raises(ValueError, match="both an fn and a sweep_spec"):
            registry.Algorithm(
                name="x", kind="parallel", fn=lambda t, p: None, sweep_spec=lambda t, p: None
            )

    def test_metadata_present(self):
        for algo in registry.algorithms():
            assert algo.doc
            assert algo.kind in ("sequential", "parallel")


class TestRun:
    def test_every_algorithm_runs_and_validates(self, tree):
        for name in registry.names():
            for p in (1, 4):
                schedule = registry.run(name, tree, p)
                validate_schedule(schedule)
                assert schedule.p == max(1, p)

    def test_sequential_runs_serially(self, tree):
        schedule = registry.run("optimal_postorder", tree, 4)
        assert set(schedule.proc.tolist()) == {0}
        assert schedule.makespan == pytest.approx(tree.total_work())

    def test_param_override(self, tree):
        from repro.core.simulator import simulate
        from repro.sequential.postorder import optimal_postorder

        mseq = optimal_postorder(tree).peak_memory
        tight = simulate(registry.run("MemoryBounded", tree, 4, cap_factor=1.0))
        loose = simulate(registry.run("MemoryBounded", tree, 4, cap_factor=4.0))
        assert tight.peak_memory <= 1.0 * mseq + 1e-9
        assert loose.makespan <= tight.makespan + 1e-9

    def test_unknown_param_rejected(self, tree):
        with pytest.raises(TypeError, match="unknown"):
            registry.run("MemoryBounded", tree, 2, banana=1)
        with pytest.raises(TypeError, match="accepts params"):
            registry.run("ParSubtrees", tree, 2, cap_factor=2.0)


#: processor counts every entry point must reject: a fraction, a
#: boolean (an int subclass) and zero
BAD_P = [2.5, True, 0]


class TestProcessorCount:
    """``p`` is a positive integer everywhere, rejected with one
    ValueError instead of being truncated (2.5 -> 2, True -> 1) or
    failing deep inside an algorithm."""

    @pytest.mark.parametrize("p", BAD_P, ids=repr)
    @pytest.mark.parametrize("name", registry.names("parallel"))
    def test_algorithms_reject(self, tree, name, p):
        algo = registry.get(name)
        with pytest.raises(ValueError, match="positive integer"):
            algo.run(tree, p)
        with pytest.raises(ValueError, match="positive integer"):
            algo.batch_spec(tree, p)

    @pytest.mark.parametrize("p", BAD_P, ids=repr)
    def test_campaign_rejects(self, p):
        from repro.analysis.campaign import Campaign

        with pytest.raises(ValueError, match="positive integer"):
            Campaign(algorithms=("ParDeepestFirst",), processor_counts=(2, p))

    @pytest.mark.parametrize("p", BAD_P, ids=repr)
    def test_schedule_and_engine_reject(self, tree, p):
        from repro.core.engine import SchedulerEngine
        from repro.core.schedule import Schedule

        with pytest.raises(ValueError, match="positive integer"):
            Schedule(tree, np.zeros(tree.n), np.zeros(tree.n, dtype=np.int64), p)
        with pytest.raises(ValueError, match="positive integer"):
            SchedulerEngine(tree, p, np.arange(tree.n))

    def test_numpy_integers_accepted(self, tree):
        from repro.analysis.campaign import Campaign

        for name in registry.names("parallel"):
            schedule = registry.run(name, tree, np.int64(3))
            assert schedule.p == 3 and type(schedule.p) is int
        campaign = Campaign(
            algorithms=("ParDeepestFirst",), processor_counts=(np.int32(2),)
        )
        assert [type(sc.p) for sc in campaign.scenarios_for("t")] == [int]


class TestCliRun:
    def test_algos_lists_registry(self, capsys):
        assert main(["algos"]) == 0
        out = capsys.readouterr().out
        for name in registry.names():
            assert name in out

    @pytest.mark.parametrize("name", registry.names())
    def test_run_works_for_every_registry_name(self, name, capsys):
        assert (
            main(
                [
                    "run",
                    "--algo",
                    name,
                    "--scale",
                    "tiny",
                    "--limit",
                    "1",
                    "--processors",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "makespan" in out
        assert len(out.strip().splitlines()) >= 2  # header + 1 record row

    def test_run_unknown_algo_fails_cleanly(self, capsys):
        assert main(["run", "--algo", "Nope", "--scale", "tiny"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err
