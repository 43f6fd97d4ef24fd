"""Depth-first search with propagation at every node.

Branching always picks the lowest-index variable whose set is not yet a
singleton, so node counts are comparable across consistency notions on the
same model.  Chronological backtracking only; solutions are verified
against sat_int before being reported.
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

    def rec(dom: Domain, depth: int) -> bool:
        """Returns True when the search should stop early."""
        if node_budget is not None and stats.nodes >= node_budget:
            stats.complete = False
            return True
        stats.nodes += 1
        stats.max_depth = max(stats.max_depth, depth)
        res = propagate_all(m, dom)
        stats.pruned += sum(len(vals) for _, vals in res.pruned)
        if res.failed:
            stats.failures += 1
            return False
        dom = res.domain
        if all(s.is_singleton for s in dom.sets):
            theta = Valuation({v: dom.get(v).inf for v in m.vars})
            for c, _ in m.constraints:
                sub = Valuation({v: theta[v] for v in vars_of(c)})
                if not sat_int(c, sub):  # propagation never invents solutions
                    raise AssertionError(f"unsound fixpoint at leaf {theta}")
            solutions.append(theta)
            stats.solutions += 1
            if limit is not None and len(solutions) >= limit:
                stats.complete = False
                return True
            return False
        for child in branch(dom, strategy):
            if rec(child, depth + 1):
                return True
        return False

    rec(d if d is not None else m.initial, 0)
    return solutions, stats
