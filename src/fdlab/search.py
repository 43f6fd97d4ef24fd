"""Depth-first search with propagation at every node.

Branching always picks the lowest-index variable whose set is not yet a
singleton, so node counts are comparable across consistency notions on the
same model.  Chronological backtracking only, over an explicit stack, so
the depth is not bounded by Python's recursion limit; solutions are
verified against sat_int before being reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .constraints import sat_int, vars_of
from .domains import Domain, IntSet, Valuation
from .engine import Model, propagate_all


class BranchStrategy(Enum):
    MIN_SPLIT = "min-split"
    BISECT = "bisect"


@dataclass
class SearchStats:
    """Search counters; `pruned` counts deletions at nodes that did not fail."""

    nodes: int = 0
    failures: int = 0
    solutions: int = 0
    pruned: int = 0
    max_depth: int = 0
    complete: bool = True


def branch(d: Domain, strategy: BranchStrategy = BranchStrategy.MIN_SPLIT) -> list[Domain]:
    """Split the first unfixed variable into two non-empty children."""
    for idx, s in enumerate(d.sets):
        if not s.is_singleton:
            if strategy is BranchStrategy.MIN_SPLIT:
                k = 1
            else:
                k = (s.size + 1) // 2
            left = IntSet(s.values[:k])
            right = IntSet(s.values[k:])
            return [d.with_set(idx, left), d.with_set(idx, right)]
    raise ValueError("cannot branch: every variable is fixed")


def solve(
    m: Model,
    d: Domain | None = None,
    *,
    limit: int | None = None,
    node_budget: int | None = None,
    strategy: BranchStrategy = BranchStrategy.MIN_SPLIT,
) -> tuple[list[Valuation], SearchStats]:
    """All solutions of m within d (default: m's initial domain).

    `limit` caps the number of solutions, `node_budget` the number of search
    nodes; hitting either leaves stats.complete False.
    """
    stats = SearchStats()
    solutions: list[Valuation] = []
    stack = [(d if d is not None else m.initial, 0)]
    while stack:
        dom, depth = stack.pop()
        if node_budget is not None and stats.nodes >= node_budget:
            stats.complete = False
            break
        stats.nodes += 1
        stats.max_depth = max(stats.max_depth, depth)
        res = propagate_all(m, dom)
        stats.pruned += sum(len(vals) for _, vals in res.pruned)
        if res.failed:
            stats.failures += 1
            continue
        dom = res.domain
        if not all(s.is_singleton for s in dom.sets):
            # the left child goes on top, so it is searched first
            stack += [(ch, depth + 1) for ch in reversed(branch(dom, strategy))]
            continue
        theta = Valuation({v: dom.get(v).inf for v in m.vars})
        for c, _ in m.constraints:
            sub = Valuation({v: theta[v] for v in vars_of(c)})
            if not sat_int(c, sub):  # propagation never invents solutions
                raise AssertionError(f"unsound fixpoint at leaf {theta}")
        solutions.append(theta)
        stats.solutions += 1
        if limit is not None and len(solutions) >= limit:
            stats.complete = False
            break
    return solutions, stats
