"""An explicit Pebble-Game engine (Section 4's model, played move by move.

The paper's complexity results live in the Pebble Game model: placing a
pebble on a node = loading its unit output file; a node can be pebbled
(in one time step) only if all its children carry pebbles; pebbles on
the children can be removed once the parent is pebbled; the number of
pebbles in play is the memory in use.

This module implements the game as a state machine with explicit moves,
plus the bridge theorems to the scheduling model:

* a valid *parallel pebbling strategy* (at most ``p`` nodes pebbled per
  step) corresponds exactly to a unit-time schedule, with
  pebbles-in-play equal to the simulator's resident memory;
* :func:`pebbling_from_schedule` converts any Pebble-Game-model schedule
  into a strategy, and :meth:`PebbleGame.max_pebbles` then equals the
  simulator's peak (property-tested).

The tests use it to cross-check the simulator's accounting on the
unit-weight model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.schedule import Schedule
from repro.core.tree import TaskTree

__all__ = ["PebbleGame", "PebbleGameError", "pebbling_from_schedule"]


class PebbleGameError(RuntimeError):
    """Raised on an illegal move."""


@dataclass
class PebbleGame:
    """State of a pebble game on a tree (no re-pebbling allowed).

    The game proceeds in steps; each step pebbles a set of nodes
    simultaneously (all legality checks against the state *before* the
    step, as in the paper's step-synchronous schedules) and then removes
    the pebbles freed by the new placements.
    """

    tree: TaskTree
    pebbled: np.ndarray = field(init=False)  # has the node ever been pebbled
    in_play: np.ndarray = field(init=False)  # does the node carry a pebble now
    steps: int = field(init=False, default=0)
    _max_in_play: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if np.any(self.tree.w != 1) or np.any(self.tree.f != 1) or np.any(
            self.tree.sizes != 0
        ):
            raise PebbleGameError(
                "the pebble game requires the Pebble Game model "
                "(w = f = 1, sizes = 0); use TaskTree.pebble_game(...)"
            )
        self.pebbled = np.zeros(self.tree.n, dtype=bool)
        self.in_play = np.zeros(self.tree.n, dtype=bool)

    # ------------------------------------------------------------------
    def legal(self, node: int) -> bool:
        """Can ``node`` be pebbled in the next step?"""
        if self.pebbled[node]:
            return False
        return all(self.in_play[c] for c in self.tree.children(node))

    def play_step(self, nodes: list[int], p: int | None = None) -> int:
        """Pebble ``nodes`` simultaneously; return pebbles now in play.

        With ``p`` given, at most ``p`` nodes may be pebbled in one step
        (the processor constraint). During the step the children's
        pebbles are still required (the input files are read while the
        output is produced), so the transient count includes both; the
        children's pebbles are removed at the end of the step.
        """
        if p is not None and len(nodes) > p:
            raise PebbleGameError(f"{len(nodes)} placements exceed p={p}")
        if len(set(nodes)) != len(nodes):
            raise PebbleGameError("duplicate placements in one step")
        for node in nodes:
            if not self.legal(node):
                raise PebbleGameError(f"illegal placement on node {node}")
        # transient: all previous pebbles + the new ones
        for node in nodes:
            self.in_play[node] = True
            self.pebbled[node] = True
        transient = int(self.in_play.sum())
        self._max_in_play = max(self._max_in_play, transient)
        # end of step: inputs of the newly pebbled nodes are discarded
        for node in nodes:
            for c in self.tree.children(node):
                self.in_play[c] = False
        self.steps += 1
        return transient

    def finished(self) -> bool:
        """Has the root been pebbled?"""
        return bool(self.pebbled[self.tree.root])

    def max_pebbles(self) -> int:
        """Maximum number of pebbles simultaneously in play so far."""
        return self._max_in_play


def pebbling_from_schedule(schedule: Schedule) -> PebbleGame:
    """Replay a Pebble-Game-model schedule as a pebbling strategy.

    Tasks are grouped by start time into steps (the model has unit
    durations, so a valid schedule is step-synchronous up to irrelevant
    shifts). The resulting game's :meth:`~PebbleGame.max_pebbles` equals
    the simulator's peak memory on the same schedule -- the bridge
    between the two formalisms, asserted in tests.
    """
    game = PebbleGame(schedule.tree)
    start = schedule.start
    for t in sorted(set(float(s) for s in start)):
        nodes = [int(i) for i in np.flatnonzero(np.abs(start - t) < 1e-12)]
        game.play_step(nodes, p=schedule.p)
    if not game.finished():  # pragma: no cover - defensive
        raise PebbleGameError("schedule did not pebble the root")
    return game
