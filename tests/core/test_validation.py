"""Unit tests for schedule validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import registry
from repro.core.schedule import Schedule
from repro.core.tree import TaskTree
from repro.core.validation import InvalidScheduleError, is_valid, validate_schedule
from tests.conftest import task_trees
from tests.core.validation_reference import ref_validate_schedule


def make(tree, start, proc, p):
    return Schedule(tree, np.asarray(start, float), np.asarray(proc, int), p)


class TestPrecedence:
    def test_valid_sequential(self, chain5):
        sch = Schedule.sequential(chain5, [4, 3, 2, 1, 0])
        validate_schedule(sch)  # no raise

    def test_child_after_parent_rejected(self, chain5):
        sch = Schedule.sequential(chain5, [4, 3, 2, 1, 0])
        bad = make(chain5, [0, 1, 2, 3, 4], [0] * 5, 1)  # root first
        assert is_valid(sch)
        with pytest.raises(InvalidScheduleError, match="precedence"):
            validate_schedule(bad)

    def test_parent_start_equal_child_end_ok(self, star5):
        start = [1.0, 0.0, 0.0, 0.0, 0.0]
        sch = make(star5, start, [0, 0, 1, 2, 3], 4)
        validate_schedule(sch)

    def test_overlap_child_parent_rejected(self, star5):
        start = [0.5, 0.0, 0.0, 0.0, 0.0]
        sch = make(star5, start, [0, 1, 2, 3, 0], 4)
        with pytest.raises(InvalidScheduleError, match="precedence"):
            validate_schedule(sch)


class TestResources:
    def test_processor_overlap_rejected(self, star5):
        start = [2.0, 0.0, 0.5, 1.0, 1.0]
        sch = make(star5, start, [0, 0, 0, 1, 1], 2)  # 1 and 2 overlap on P0
        with pytest.raises(InvalidScheduleError, match="overlap"):
            validate_schedule(sch)

    def test_zero_length_task_at_a_shared_start_ok(self):
        """A zero-length task that starts and ends at the instant another
        task starts on its processor does not overlap it, whichever of
        the two has the lower index."""
        tree = TaskTree.from_parents([-1, 0, 0], w=[1.0, 2.0, 0.0], f=1.0)
        for proc in ([0, 0, 0], [0, 1, 1]):
            for check in (validate_schedule, ref_validate_schedule):
                check(make(tree, [2.0, 0.0, 0.0], proc, 2))
        bad = make(tree, [2.0, 0.0, 1.0], [0, 1, 1], 2)  # inside task 1
        for check in (validate_schedule, ref_validate_schedule):
            with pytest.raises(InvalidScheduleError, match="overlap"):
                check(bad)

    def test_processor_out_of_range_rejected(self, star5):
        start = [1.0, 0.0, 0.0, 0.0, 0.0]
        sch = make(star5, start, [0, 0, 1, 2, 5], 4)
        with pytest.raises(InvalidScheduleError, match="outside"):
            validate_schedule(sch)

    def test_negative_start_rejected(self, star5):
        start = [1.0, -0.5, 0.0, 0.0, 0.0]
        sch = make(star5, start, [0, 0, 1, 2, 3], 4)
        with pytest.raises(InvalidScheduleError, match="negative"):
            validate_schedule(sch)

    def test_tolerance(self, star5):
        start = [1.0, 1e-12, 0.0, 0.0, 0.0]
        sch = make(star5, start, [0, 0, 1, 2, 3], 4)
        validate_schedule(sch)  # within tol


# ----------------------------------------------------------------------
# the vectorised checks against the per-node loop they replaced
# ----------------------------------------------------------------------
def _verdict(check, schedule):
    """The message ``check`` raises on ``schedule``, or None when valid."""
    try:
        check(schedule)
    except InvalidScheduleError as exc:
        return str(exc)
    return None


class TestAgainstTheLoop:
    @given(task_trees(min_nodes=1, max_nodes=30), st.integers(1, 4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_first_offender_and_message(self, tree, p, data):
        """Corrupt a valid schedule at a few random tasks (shifted or
        negative starts, other or out-of-range processors, ties at the
        tolerance): both implementations raise the same message, or
        neither raises."""
        schedule = registry.run("ParDeepestFirst", tree, p)
        start, proc = schedule.start.copy(), schedule.proc.copy()
        for _ in range(data.draw(st.integers(0, 4))):
            i = data.draw(st.integers(0, tree.n - 1))
            kind = data.draw(st.sampled_from(["shift", "proc", "negative"]))
            if kind == "shift":
                start[i] += data.draw(st.sampled_from([-2.0, -0.5, -1e-10, 1e-10, 0.5, 3.0]))
            elif kind == "proc":
                proc[i] = data.draw(st.integers(-1, p))
            else:
                start[i] = -data.draw(st.sampled_from([1e-12, 0.5]))
        bad = Schedule(tree, start, proc, p)
        assert _verdict(validate_schedule, bad) == _verdict(ref_validate_schedule, bad)

    def test_messages_name_the_first_offender(self, star5):
        """Two precedence violations and two overlaps: the scan order
        (parents ascending, then children ascending; then processors and
        start times ascending) picks the same one on both."""
        sch = make(star5, [0.5, 0.0, 0.0, 0.25, 0.0], [0, 1, 1, 2, 2], 3)
        for check in (validate_schedule, ref_validate_schedule):
            with pytest.raises(InvalidScheduleError) as info:
                check(sch)
            assert str(info.value) == (
                "precedence violated: child 1 ends at 1.0 after parent 0 starts at 0.5"
            )
        sch = make(star5, [5.0, 0.0, 0.5, 1.0, 1.5], [0, 0, 0, 1, 1], 2)
        assert _verdict(validate_schedule, sch) == _verdict(ref_validate_schedule, sch) == (
            "processor 0 overlap: task 1 [0.0, 1.0) and task 2 [0.5, 1.5)"
        )
