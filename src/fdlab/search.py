"""Depth-first search with propagation at every node.

Branching always picks the lowest-index variable whose set is not yet a
singleton, so node counts are comparable across consistency notions on the
same model.  Chronological backtracking only, over an explicit stack, so
the depth is not bounded by Python's recursion limit.  The root runs every
propagator; a child differs from its parent's fixpoint only on the split
variable, so its engine queue starts with that variable's watchers alone.
Each solution is verified with every constraint's `holds` before it is
reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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


def _split(d: Domain, idx: int, strategy: BranchStrategy) -> list[Domain]:
    s = d.sets[idx]
    k = 1 if strategy is BranchStrategy.MIN_SPLIT else (s.size + 1) // 2
    return [d.with_set(idx, IntSet._unchecked(h)) for h in (s.values[:k], s.values[k:])]


def branch(d: Domain, strategy: BranchStrategy = BranchStrategy.MIN_SPLIT) -> list[Domain]:
    """Split the first unfixed variable into two non-empty children."""
    for idx, s in enumerate(d.sets):
        if not s.is_singleton:
            return _split(d, idx, strategy)
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
    nodes; hitting either leaves stats.complete False.  A `limit` below 1
    or a negative `node_budget` raises ValueError.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, not {limit}")
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node_budget must be at least 0, not {node_budget}")
    stats = SearchStats()
    solutions: list[Valuation] = []
    # each node carries the index before which its parent's sets are fixed
    stack = [(d if d is not None else m.initial, 0, 0)]
    while stack:
        dom, depth, first = stack.pop()
        if node_budget is not None and stats.nodes >= node_budget:
            stats.complete = False
            break
        stats.nodes += 1
        stats.max_depth = max(stats.max_depth, depth)
        # a child (depth > 0) was split from a fixpoint on variable `first`
        res = propagate_all(m, dom, changed=(m.vars[first],) if depth else None)
        stats.pruned += sum(len(vals) for _, vals in res.pruned)
        if res.failed:
            stats.failures += 1
            continue
        dom = res.domain
        sets = dom.sets
        first = next((i for i in range(first, len(sets)) if not sets[i].is_singleton), None)
        if first is not None:
            # the left child goes on top, so it is searched first
            stack += [(ch, depth + 1, first) for ch in reversed(_split(dom, first, strategy))]
            continue
        vals = [s.inf for s in sets]
        theta = Valuation({v: vals[v.index] for v in m.vars})
        for c, _ in m.constraints:
            if not c.holds(tuple(vals[v.index] for v in c.scope)):
                # propagation never invents solutions
                raise AssertionError(f"unsound fixpoint at leaf {theta}")
        solutions.append(theta)
        stats.solutions += 1
        if limit is not None and len(solutions) >= limit:
            stats.complete = False
            break
    return solutions, stats
