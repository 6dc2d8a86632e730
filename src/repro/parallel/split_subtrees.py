"""``SplitSubtrees`` (Algorithm 2): makespan-optimal splitting into subtrees.

The routine repeatedly replaces the heaviest frontier subtree by its
children (ties broken by non-increasing ``w_i``), evaluating after each
split the ParSubtrees makespan

.. math::

   C_{max}(s) = W_{head(PQ)} \\;+\\; \\sum_{i \\in seqSet} w_i
                \\;+\\; \\sum_{i = PQ[p+1]}^{|PQ|} W_i ,

i.e. the heaviest parallel subtree, plus the sequentially processed split
nodes, plus the surplus subtrees beyond the ``p`` heaviest. The splitting
with minimum cost is returned; Lemma 1 of the paper proves it is optimal
for ParSubtrees.

Complexity. The pop sequence (always the heaviest frontier subtree),
the stopping step and the sequential work ``seq_w`` do not depend on
``p``; only the surplus term does. :class:`SplitPlan` computes the pop
sequence **once per tree** with a max-heap of frontier ranks
(:math:`O(n \\log n)`). :meth:`SplitPlan.split` then runs only the
*top-p + rest* bookkeeping **per p** -- a sorted list of the ``p``
heaviest frontier entries plus a heap of the others, :math:`O(p +
\\log n)` per step as in the paper's complexity analysis -- with the
same float operations in the same order as the incremental algorithm,
so every ``cost`` is bit-identical. It stops early once no later step's
lower bound ``W_head + seq_w`` can beat the best cost so far, and reads
the selected frontier off a mask of the popped nodes.
:meth:`repro.core.prepared.PreparedTree.split` caches the plan and each
``p``'s result.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass

import numpy as np

from repro.core import _ckernel
from repro.core.engine import resolve_backend
from repro.core.prepared import PreparedTree, as_prepared
from repro.core.tree import TaskTree

__all__ = ["SplitPlan", "SplitResult", "split_subtrees"]


@dataclass(frozen=True)
class SplitResult:
    """Outcome of :func:`split_subtrees`.

    Attributes
    ----------
    parallel_roots:
        roots of the (up to ``p``) heaviest subtrees of the selected
        splitting -- these are processed concurrently in ParSubtrees.
    frontier_roots:
        roots of *all* subtrees of the selected splitting (used by
        ParSubtreesOptim, which allocates every subtree LPT-style).
    cost:
        the predicted ParSubtrees makespan :math:`C_{max}(x)` of the
        selected splitting.
    steps:
        number of splitting steps evaluated (diagnostic).
    """

    parallel_roots: tuple[int, ...]
    frontier_roots: tuple[int, ...]
    cost: float
    steps: int


class SplitPlan:
    """The ``p``-independent part of Algorithm 2 for one tree.

    Frontier entries are ranked by ``(W_i, w_i, -i)`` ascending:
    non-increasing subtree work first, ties by non-increasing node work
    (as in the paper), then by node index for determinism. The plan
    holds the ranks and the stop mask; :meth:`split` runs the rest on
    the compiled library when the engine dispatches there
    (:func:`repro.core._ckernel.split_subtrees`), else on the Python
    replay, its fallback and oracle. For the replay the plan also holds
    the pop sequence (the heaviest entry is popped until the head
    subtree cannot be split further), the ranks of each popped node's
    children in child-index order, and after each pop ``W_head +
    seq_w`` and the total frontier work, accumulated in the same order
    as an incremental frontier would -- computed on the first replay.
    """

    __slots__ = (
        "tree",
        "work",
        "by_rank",
        "rank",
        "root_rank",
        "rank_work",
        "stop",
        "popped",
        "kid_ptr",
        "kid_ranks",
        "head_seq",
        "sum_all",
        "later",
    )

    def __init__(self, tree: TaskTree, work: np.ndarray) -> None:
        self.tree = tree
        self.work = work
        n = tree.n
        by_rank = np.lexsort((-np.arange(n), tree.w, work))
        rank = np.empty(n, dtype=np.int64)
        rank[by_rank] = np.arange(n, dtype=np.int64)
        self.by_rank = by_rank
        self.rank = rank
        self.rank_work = work[by_rank]
        self.root_rank = int(rank[tree.root])
        # Loop condition of Algorithm 2: split while W_head > w_head.
        # Equality means the head subtree is a single node (a leaf, or an
        # inner node whose whole subtree has zero extra work) and further
        # splitting cannot reduce the parallel time.
        self.stop = tree.leaf_mask() | (work <= tree.w * (1 + 1e-12) + 1e-12)
        self.popped = None

    def _plan_replay(self) -> None:
        """The pop sequence and the per-pop sums of the Python replay."""
        tree = self.tree
        work = self.work
        cidx = tree.child_idx
        ptr = tree.child_ptr
        heads = self._heads(self.rank, self.stop)
        popped = heads[:-1]
        m = popped.shape[0]

        cnt = ptr[popped + 1] - ptr[popped]
        kid_ptr = self.kid_ptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(cnt, out=kid_ptr[1:])
        # the popped nodes' children, pop by pop, each in child-index order
        kids = cidx[np.repeat(ptr[popped] - kid_ptr[:-1], cnt) + np.arange(kid_ptr[-1])]
        self.kid_ranks = self.rank[kids]
        # The total frontier work: W_root, then per pop -W_popped and +W
        # of each child, as one sequential float stream (np.cumsum
        # accumulates left to right, exactly like ``+=`` / ``-=``).
        pop_at = kid_ptr[:-1] + np.arange(m)
        events = work[np.insert(kids, kid_ptr[:-1], popped)]
        events[pop_at] = -events[pop_at]
        stream = np.cumsum(np.concatenate(([0.0, work[tree.root]], events)))
        self.sum_all = stream[2 + pop_at + cnt]
        seq_w = np.cumsum(np.concatenate(([0.0], tree.w[popped])))[1:]
        self.head_seq = work[heads[1:]] + seq_w
        # later[k] bounds the cost of every step after k from below: the
        # surplus term is >= 0 in exact arithmetic and its float value is
        # off by at most one rounding (2**-53 relative) per operation on
        # running sums below 2 W_root -- at most 3(m + K) + 4 of them,
        # K the number of inserted children. The margin is twice that.
        margin = (3 * (m + kid_ptr[-1]) + 8) * 2.0**-51 * float(work[tree.root])
        self.later = np.full(m, np.inf)
        self.later[:-1] = np.minimum.accumulate(self.head_seq[:0:-1])[::-1] - margin
        self.popped = popped  # published last: it marks the replay planned

    def _heads(self, rank: np.ndarray, stop: np.ndarray) -> np.ndarray:
        """The successive frontier heads, from a max-heap of frontier
        ranks; the last head is the one that stops the splitting."""
        tree = self.tree
        by_rank = self.by_rank.tolist()
        heap = [-self.root_rank]
        heads = []
        while True:
            node = by_rank[-heap[0]]
            heads.append(node)
            if stop[node]:
                return np.asarray(heads, dtype=np.int64)
            heapq.heappop(heap)
            for r in rank[tree.children(node)].tolist():
                heapq.heappush(heap, -r)

    def split(self, p: int) -> SplitResult:
        """The minimum-cost splitting for ``p`` processors, on the
        compiled library when the engine dispatches there and it
        accepts the tree, else on :meth:`_split_reference`; both return
        the same result."""
        if p < 1:
            raise ValueError("p must be positive")
        if resolve_backend() == "c":
            got = self._split_compiled(p)
            if got is not None:
                return got
        return self._split_reference(p)

    def _split_compiled(self, p: int) -> SplitResult | None:
        """:meth:`split` on the compiled library, or None where it
        declines (a non-finite subtree work)."""
        tree = self.tree
        got = _ckernel.split_subtrees(
            p,
            tree.child_ptr,
            tree.child_idx,
            self.rank,
            self.by_rank,
            self.rank_work,
            tree.w,
            self.stop,
            tree.root,
        )
        if got is None:
            return None
        roots, cost, steps = got
        return self._result(roots.tolist(), p, cost, steps)

    def _split_reference(self, p: int) -> SplitResult:
        """:meth:`split` in Python: the fallback and the oracle.

        Replays the top-``p`` bookkeeping over the pop sequence: ``top``
        is a sorted (ascending) list of the ranks of the at most ``p``
        heaviest frontier entries, ``rest`` a max-heap of the others, and
        ``sum_top`` their work, updated in the order an incremental
        frontier does. The replay stops once every later step's ``W_head +
        seq_w`` (a lower bound on its cost, less a float-error margin)
        exceeds the best cost so far: none of them can be the first
        minimum, so the result is that of the full replay.
        """
        if self.popped is None:
            self._plan_replay()
        # zero-copy views: indexing yields the same Python floats / ints
        # as lists would, without an O(n) conversion per call
        W = memoryview(self.rank_work)
        kid_ranks = memoryview(self.kid_ranks)
        kid_ptr = memoryview(self.kid_ptr)
        sum_all = memoryview(self.sum_all)
        head_seq = memoryview(self.head_seq)
        later = memoryview(self.later)
        top = [self.root_rank]
        rest: list[int] = []
        sum_top = 0.0 + W[self.root_rank]
        costs = [W[self.root_rank]]  # Cost(0) = W_root
        best = costs[0]
        for k in range(len(head_seq)):
            r = top.pop()
            sum_top -= W[r]
            if rest:
                r = -heapq.heappop(rest)
                insort(top, r)
                sum_top += W[r]
            for r in kid_ranks[kid_ptr[k] : kid_ptr[k + 1]]:
                if len(top) < p:
                    insort(top, r)
                    sum_top += W[r]
                elif r > top[0]:
                    insort(top, r)
                    sum_top += W[r]
                    r = top.pop(0)
                    sum_top -= W[r]
                    heapq.heappush(rest, -r)
                else:
                    heapq.heappush(rest, -r)
            cost = head_seq[k] + (sum_all[k] - sum_top)
            costs.append(cost)
            best = min(best, cost)
            if later[k] > best:
                break
        best_step = int(np.argmin(costs))

        if best_step == 0:
            ranks = np.array([self.root_rank])
        else:
            ranks = self.kid_ranks[: kid_ptr[best_step]]
            split_mask = np.zeros(self.tree.n, dtype=bool)
            split_mask[self.popped[:best_step]] = True
            ranks = np.sort(ranks[~split_mask[self.by_rank[ranks]]])[::-1]
        return self._result(
            self.by_rank[ranks].tolist(), p, float(costs[best_step]), len(head_seq) + 1
        )

    def _result(self, all_roots: list[int], p: int, cost: float, steps: int) -> SplitResult:
        """The :class:`SplitResult` of the frontier ``all_roots`` (by
        descending rank)."""
        return SplitResult(
            parallel_roots=tuple(all_roots[:p]),
            frontier_roots=tuple(all_roots),
            cost=cost,
            steps=steps,
        )


def split_subtrees(tree: TaskTree | PreparedTree, p: int) -> SplitResult:
    """Run Algorithm 2 and return the minimum-cost splitting.

    ``tree`` is a :class:`TaskTree` or a
    :class:`~repro.core.prepared.PreparedTree`; the latter caches the
    plan and the result per ``p``.
    """
    return as_prepared(tree).split(p)
