"""Graham's bound for every uncapped list scheduler, through the registry.

Every list schedule keeps each processor busy while a task is ready,
so its makespan satisfies ``Cmax <= W/p + (1 - 1/p) * CP`` (Graham
1969; the paper's ``(2 - 1/p)``-approximation) and, like any schedule,
``Cmax >= max(W/p, CP)``. The bounds share no code with the engine, and
``registry.run`` takes whichever sweep this process dispatches to.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import registry

from tests.conftest import task_trees

#: the uncapped list schedulers (every engine-backed algorithm but the
#: memory-capped one, which may idle processors to respect its cap)
LIST_SCHEDULERS = ("ParInnerFirst", "ParDeepestFirst", "ParInnerFirst/naiveO",
                   "ParDeepestFirst/hops")

# W and CP are float sums taken in another order than the sweep's event
# times, so on fractional weights they may differ from the makespan by
# rounding; allow the 1e-6 slack of test_par_subtrees.py, relatively.
SLACK = 1e-6


@st.composite
def instances(draw):
    tree = draw(task_trees(max_nodes=300))
    if draw(st.booleans()):  # fractional durations
        tree = tree.with_weights(w=tree.w * draw(st.floats(0.1, 10.0)))
    return tree, draw(st.integers(1, 16))


@settings(max_examples=40, deadline=None)
@given(case=instances())
def test_graham_bound_holds(case):
    tree, p = case
    work, cp = tree.total_work(), tree.critical_path()
    upper = work / p + (1 - 1 / p) * cp
    lower = max(work / p, cp)
    for name in LIST_SCHEDULERS:
        cmax = registry.run(name, tree, p).makespan
        assert cmax <= upper * (1 + SLACK), (name, p, cmax, upper)
        assert cmax >= lower * (1 - SLACK), (name, p, cmax, lower)
