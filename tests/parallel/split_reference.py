"""The incremental ``split_subtrees`` (Algorithm 2) that
:class:`repro.parallel.split_subtrees.SplitPlan` replaced, kept verbatim
as the reference the split plan is tested against: a top-p sorted list
plus a max-heap of the other frontier entries, updated one pop at a
time, and a replay of the pops up to the best step.
"""

from __future__ import annotations

import heapq
from bisect import insort

import numpy as np

from repro.parallel.split_subtrees import SplitResult


class RefTopP:
    def __init__(self, p):
        self.p = p
        self.top = []
        self.rest = []
        self.sum_top = 0.0
        self.sum_all = 0.0

    def insert(self, key):
        self.sum_all += key[0]
        if len(self.top) < self.p:
            insort(self.top, key)
            self.sum_top += key[0]
        elif key > self.top[0]:
            insort(self.top, key)
            self.sum_top += key[0]
            demoted = self.top.pop(0)
            self.sum_top -= demoted[0]
            heapq.heappush(self.rest, tuple(-v for v in demoted))
        else:
            heapq.heappush(self.rest, tuple(-v for v in key))

    def pop_max(self):
        key = self.top.pop()
        self.sum_top -= key[0]
        self.sum_all -= key[0]
        if self.rest:
            promoted = tuple(-v for v in heapq.heappop(self.rest))
            insort(self.top, promoted)
            self.sum_top += promoted[0]
        return key

    def head(self):
        return self.top[-1]

    def surplus_work(self):
        return self.sum_all - self.sum_top


def ref_split_subtrees(tree, p):
    work = tree.subtree_work()

    def key(i):
        return (float(work[i]), float(tree.w[i]), -i)

    frontier = RefTopP(p)
    frontier.insert(key(tree.root))
    popped = []
    seq_w = 0.0
    costs = [float(work[tree.root])]
    while True:
        head = frontier.head()
        head_node = -head[2]
        if tree.is_leaf(head_node) or head[0] <= float(tree.w[head_node]) * (1 + 1e-12) + 1e-12:
            break
        node = -frontier.pop_max()[2]
        popped.append(node)
        seq_w += float(tree.w[node])
        for c in tree.children(node):
            frontier.insert(key(c))
        costs.append(float(frontier.head()[0]) + seq_w + frontier.surplus_work())
    best_step = int(np.argmin(costs))
    frontier = RefTopP(p)
    frontier.insert(key(tree.root))
    for node in popped[:best_step]:
        frontier.pop_max()
        for c in tree.children(node):
            frontier.insert(key(c))
    all_roots = [-k[2] for k in frontier.top] + [k[2] for k in frontier.rest]
    all_roots.sort(key=lambda i: key(i), reverse=True)
    return SplitResult(
        parallel_roots=tuple(all_roots[:p]),
        frontier_roots=tuple(all_roots),
        cost=float(costs[best_step]),
        steps=len(costs),
    )
