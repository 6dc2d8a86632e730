"""Tests for the explicit pebble-game engine."""

import pytest
from hypothesis import given, settings

from repro import registry
from repro.core.simulator import simulate
from repro.core.tree import TaskTree
from tests.pebble.game import PebbleGame, PebbleGameError, pebbling_from_schedule
from tests.conftest import pebble_trees


class TestMoves:
    def test_leaf_always_legal(self, star5):
        game = PebbleGame(star5)
        assert game.legal(1)
        assert not game.legal(0)  # root needs its children pebbled

    def test_chain_play(self, chain5):
        game = PebbleGame(chain5)
        for node in (4, 3, 2, 1, 0):
            game.play_step([node])
        assert game.finished()
        assert game.max_pebbles() == 2
        assert game.steps == 5

    def test_star_parallel_play(self, star5):
        game = PebbleGame(star5)
        game.play_step([1, 2, 3, 4], p=4)
        game.play_step([0], p=4)
        assert game.finished()
        assert game.max_pebbles() == 5

    def test_processor_limit(self, star5):
        game = PebbleGame(star5)
        with pytest.raises(PebbleGameError, match="exceed"):
            game.play_step([1, 2, 3], p=2)

    def test_no_repebbling(self, chain5):
        game = PebbleGame(chain5)
        game.play_step([4])
        with pytest.raises(PebbleGameError, match="illegal"):
            game.play_step([4])

    def test_premature_parent_rejected(self, chain5):
        game = PebbleGame(chain5)
        with pytest.raises(PebbleGameError, match="illegal"):
            game.play_step([3])  # child 4 not pebbled yet

    def test_duplicates_rejected(self, star5):
        game = PebbleGame(star5)
        with pytest.raises(PebbleGameError, match="duplicate"):
            game.play_step([1, 1])

    def test_requires_pebble_model(self):
        t = TaskTree.from_parents([-1, 0], w=2.0)
        with pytest.raises(PebbleGameError, match="Pebble Game model"):
            PebbleGame(t)


class TestBridgeToScheduling:
    @given(pebble_trees(min_nodes=2, max_nodes=30))
    @settings(max_examples=40, deadline=None)
    def test_game_peak_equals_simulator_peak(self, tree):
        """The two formalisms agree: pebbles in play == resident files."""
        for p in (1, 2, 4):
            for name in ("ParInnerFirst", "ParDeepestFirst"):
                schedule = registry.run(name, tree, p)
                game = pebbling_from_schedule(schedule)
                sim = simulate(schedule)
                assert game.max_pebbles() == sim.peak_memory
                assert game.finished()

    def test_gadget_schedule_as_pebbling(self):
        """The Theorem 1 witness schedule is a legal pebbling meeting
        the pebble bound."""
        import numpy as np

        from repro.pebble import build_gadget, decide_gadget, random_yes_instance

        gadget = build_gadget(random_yes_instance(2, 12, np.random.default_rng(1)))
        schedule = decide_gadget(gadget)
        game = pebbling_from_schedule(schedule)
        assert game.max_pebbles() == gadget.memory_bound
