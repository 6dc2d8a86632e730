"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core.tree import TaskTree, NO_PARENT


# ----------------------------------------------------------------------
# the sanitizer build of the compiled library
# ----------------------------------------------------------------------
#: appended to the library's compiler flags by ``--sanitize-kernel``
SANITIZE_FLAGS = ("-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all")


def pytest_addoption(parser):
    parser.addoption(
        "--sanitize-kernel",
        action="store_true",
        help="build the compiled library with AddressSanitizer and "
        "UndefinedBehaviorSanitizer; run with GCC's libasan and libubsan "
        "in LD_PRELOAD (and ASAN_OPTIONS=detect_leaks=0: the interpreter "
        "itself never frees everything)",
    )


def pytest_configure(config):
    if not config.getoption("--sanitize-kernel"):
        return
    from repro.core import _ckernel

    if _ckernel._BUILD is not None:
        raise pytest.UsageError("--sanitize-kernel: the library is already loaded")
    # a new cache key, so the sanitized build never replaces the plain one
    _ckernel._FLAGS.extend(SANITIZE_FLAGS)


# ----------------------------------------------------------------------
# hypothesis strategies
# ----------------------------------------------------------------------
@st.composite
def parent_vectors(draw, min_nodes: int = 1, max_nodes: int = 24):
    """A random in-tree parent vector: node i attaches to some j < i."""
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    parents = [NO_PARENT]
    for i in range(1, n):
        parents.append(draw(st.integers(min_value=0, max_value=i - 1)))
    return parents


@st.composite
def task_trees(
    draw,
    min_nodes: int = 1,
    max_nodes: int = 24,
    max_w: int = 9,
    max_f: int = 9,
    max_size: int = 5,
    min_w: int = 1,
):
    """A random weighted task tree with small integer weights."""
    parents = draw(parent_vectors(min_nodes, max_nodes))
    n = len(parents)
    w = [draw(st.integers(min_value=min_w, max_value=max_w)) for _ in range(n)]
    f = [draw(st.integers(min_value=1, max_value=max_f)) for _ in range(n)]
    sizes = [draw(st.integers(min_value=0, max_value=max_size)) for _ in range(n)]
    return TaskTree.from_parents(parents, w, f, sizes)


@st.composite
def pebble_trees(draw, min_nodes: int = 1, max_nodes: int = 24):
    """A random Pebble-Game tree (f=1, n=0, w=1)."""
    return TaskTree.pebble_game(draw(parent_vectors(min_nodes, max_nodes)))


#: few distinct values, so siblings tie on Liu's key and on subtree work;
#: zero outputs, zero work and both signed zeros
_STORM_WORK = st.sampled_from([-0.0, 0.0, 0.0, 0.1, 1 / 3, 1.0, 2.0])
_STORM_FILES = st.sampled_from([-0.0, 0.0, 0.1, 0.2, 1 / 3, 1.0, 2.5])


@st.composite
def storm_trees(draw, max_nodes: int = 60):
    """A tree with float weights drawn from a handful of values, shaped
    as a random tree, a star, a broom or a chain deeper than 64 levels
    (the old level-sweep threshold): storms of equal-key siblings."""
    shape = draw(st.sampled_from(["random", "star", "broom", "chain"]))
    if shape == "random":
        parents = draw(parent_vectors(1, max_nodes))
    elif shape == "chain":
        parents = [NO_PARENT] + list(range(draw(st.integers(64, 150))))
    else:  # a star, or a broom: a star under a chain of c nodes
        c = 1 if shape == "star" else draw(st.integers(2, 20))
        k = draw(st.integers(0, max_nodes - c))
        parents = [NO_PARENT] + list(range(c - 1)) + [c - 1] * k
    n = len(parents)
    column = lambda values: draw(st.lists(values, min_size=n, max_size=n))  # noqa: E731
    return TaskTree.from_parents(
        parents, column(_STORM_WORK), column(_STORM_FILES), column(_STORM_FILES)
    )


# ----------------------------------------------------------------------
# plain fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG for non-hypothesis randomized tests."""
    return np.random.default_rng(20130520)


@pytest.fixture
def chain5() -> TaskTree:
    """A 5-node chain: 0 <- 1 <- 2 <- 3 <- 4 (node 0 is the root)."""
    return TaskTree.from_parents([-1, 0, 1, 2, 3], w=1.0, f=1.0, sizes=0.0)


@pytest.fixture
def star5() -> TaskTree:
    """A root with 4 leaves."""
    return TaskTree.from_parents([-1, 0, 0, 0, 0], w=1.0, f=1.0, sizes=0.0)


@pytest.fixture
def paper_example() -> TaskTree:
    """A small irregular tree with distinct weights used across tests.

    Structure::

          0 (root)
         / \\
        1   2
       /|   |\\
      3 4   5 6
    """
    return TaskTree.from_parents(
        [-1, 0, 0, 1, 1, 2, 2],
        w=[3, 2, 4, 1, 2, 5, 1],
        f=[0, 3, 2, 4, 1, 5, 2],
        sizes=[1, 0, 2, 0, 1, 0, 3],
    )


def random_tree(rng: np.random.Generator, n: int, bias: float = 0.0) -> TaskTree:
    """Helper mirroring workloads.synthetic.random_weighted_tree."""
    from repro.workloads.synthetic import random_weighted_tree

    return random_weighted_tree(n, rng, bias)
