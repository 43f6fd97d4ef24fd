"""Search tests: branching shapes, completeness against brute force, the
node-count ordering across notions, and budget truncation."""

import pytest

from conftest import fresh_rng, make_vars, random_domain, random_int_constraint
from fdlab import search
from fdlab import (
    AllDifferent,
    BranchStrategy,
    Domain,
    IntSet,
    LinEq,
    LinLe,
    LinTerm,
    SearchStats,
    Valuation,
    branch,
    propagate_all,
    solve,
)
from fdlab.checkers import ConsistencyNotion as N
from fdlab.constraints import real_defined
from fdlab.engine import Model
from fdlab.oracle import oracle_solutions


def test_min_split_branching():
    d = Domain((IntSet.of([1, 2, 3]),))
    left, right = branch(d, BranchStrategy.MIN_SPLIT)
    assert left.sets[0].values == (1,)
    assert right.sets[0].values == (2, 3)


def test_bisect_branching():
    d = Domain((IntSet.interval(0, 3),))
    left, right = branch(d, BranchStrategy.BISECT)
    assert left.sets[0].values == (0, 1)
    assert right.sets[0].values == (2, 3)


def test_branch_skips_fixed_variables():
    d = Domain((IntSet.of([5]), IntSet.of([1, 2])))
    left, right = branch(d)
    assert left.sets[0].values == (5,) and left.sets[1].values == (1,)
    assert right.sets[1].values == (2,)


def test_branch_on_all_singletons_is_an_error():
    with pytest.raises(ValueError):
        branch(Domain((IntSet.of([1]),)))


def test_three_queens_of_alldifferent():
    vs = make_vars(3)
    m = Model.build(
        [(v.name, IntSet.interval(1, 3)) for v in vs],
        [(AllDifferent(tuple(vs)), N.DOMAIN)],
    )
    solutions, stats = solve(m)
    assert len(solutions) == 6
    assert stats.complete and stats.solutions == 6


def test_worked_linear_example_solutions():
    x1, x2, x3 = make_vars(3)
    m = Model.build(
        [
            ("x1", IntSet.interval(2, 7)),
            ("x2", IntSet.interval(0, 2)),
            ("x3", IntSet.interval(-1, 2)),
        ],
        [(LinEq((LinTerm(1, x1), LinTerm(-3, x2), LinTerm(-5, x3)), 0), N.DOMAIN)],
    )
    solutions, _ = solve(m)
    got = {tuple(th.int_value(v) for v in m.vars) for th in solutions}
    assert got == {(3, 1, 0), (5, 0, 1), (6, 2, 0)}


def build_random_model(rng, notion_pool=None):
    nvars = rng.randint(2, 3)
    vs = make_vars(nvars)
    d = random_domain(rng, nvars, max_size=5)
    constraints = []
    for _ in range(rng.randint(1, 2)):
        c = random_int_constraint(rng, vs)
        pool = notion_pool or [N.DOMAIN, N.BOUNDS_D, N.BOUNDS_Z]
        if real_defined(c) and notion_pool is None:
            pool = pool + [N.BOUNDS_R]
        constraints.append((c, rng.choice(pool)))
    try:
        return Model(tuple(vs), d, tuple(constraints))
    except ValueError:
        return None


def test_search_is_complete_against_brute_force():
    rng = fresh_rng(41)
    compared = 0
    for _ in range(150):
        m = build_random_model(rng)
        if m is None:
            continue
        solutions, stats = solve(m)
        assert stats.complete
        want = oracle_solutions(list(m.vars), m.initial, [c for c, _ in m.constraints])
        assert sorted(solutions, key=lambda t: tuple(t[v] for v in m.vars)) == sorted(
            want, key=lambda t: tuple(t[v] for v in m.vars)
        )
        compared += 1
    assert compared > 100


def full_propagation_solve(m, strategy):
    """DFS that runs every propagator at every node."""
    stats = SearchStats()
    solutions = []
    stack = [(m.initial, 0)]
    while stack:
        dom, depth = stack.pop()
        stats.nodes += 1
        stats.max_depth = max(stats.max_depth, depth)
        res = propagate_all(m, dom)
        stats.pruned += sum(len(vals) for _, vals in res.pruned)
        if res.failed:
            stats.failures += 1
        elif all(s.is_singleton for s in res.domain.sets):
            solutions.append(Valuation({v: res.domain.get(v).inf for v in m.vars}))
            stats.solutions += 1
        else:
            stack += [(ch, depth + 1) for ch in reversed(branch(res.domain, strategy))]
    return solutions, stats


def test_search_matches_full_propagation_at_every_node():
    rng = fresh_rng(44)
    compared = 0
    for _ in range(250):
        nvars = rng.randint(2, 4)
        vs = make_vars(nvars)
        d = random_domain(rng, nvars, max_size=5)
        constraints = []
        for _ in range(rng.randint(1, 3)):
            c = random_int_constraint(rng, rng.sample(vs, rng.randint(2, nvars)))
            pool = [N.DOMAIN, N.BOUNDS_D, N.BOUNDS_Z] + [N.BOUNDS_R] * real_defined(c)
            constraints.append((c, rng.choice(pool)))
        try:
            m = Model(tuple(vs), d, tuple(constraints))
        except ValueError:
            continue
        for strategy in BranchStrategy:
            assert solve(m, strategy=strategy) == full_propagation_solve(m, strategy)
        compared += 1
    assert compared > 150


def test_strategies_agree_on_the_solution_set():
    rng = fresh_rng(42)
    for _ in range(60):
        m = build_random_model(rng)
        if m is None:
            continue
        a, _ = solve(m, strategy=BranchStrategy.MIN_SPLIT)
        b, _ = solve(m, strategy=BranchStrategy.BISECT)
        assert sorted(a, key=lambda t: tuple(t[v] for v in m.vars)) == sorted(
            b, key=lambda t: tuple(t[v] for v in m.vars)
        )


def test_stronger_notions_never_add_nodes():
    # with branching fixed, a stronger notion prunes at least as much
    rng = fresh_rng(43)
    compared = 0
    for _ in range(80):
        nvars = rng.randint(2, 3)
        vs = make_vars(nvars)
        d = random_domain(rng, nvars, max_size=5)
        c = random_int_constraint(rng, vs)
        if not real_defined(c):
            continue
        try:
            models = {
                notion: Model(tuple(vs), d, ((c, notion),))
                for notion in (N.DOMAIN, N.BOUNDS_D, N.BOUNDS_Z, N.BOUNDS_R)
            }
        except ValueError:
            continue  # restricted function argument dips below zero
        counts = {}
        sols = {}
        for notion, m in models.items():
            solutions, stats = solve(m)
            counts[notion] = stats.nodes
            sols[notion] = sorted(
                solutions, key=lambda t: tuple(t[v] for v in vs)
            )
        assert counts[N.DOMAIN] <= counts[N.BOUNDS_D] <= counts[N.BOUNDS_Z]
        assert counts[N.BOUNDS_Z] <= counts[N.BOUNDS_R]
        assert sols[N.DOMAIN] == sols[N.BOUNDS_D] == sols[N.BOUNDS_Z] == sols[N.BOUNDS_R]
        compared += 1
    assert compared > 40


def test_solution_limit_truncates():
    vs = make_vars(3)
    m = Model.build(
        [(v.name, IntSet.interval(1, 3)) for v in vs],
        [(AllDifferent(tuple(vs)), N.BOUNDS_Z)],
    )
    solutions, stats = solve(m, limit=2)
    assert len(solutions) == 2
    assert not stats.complete


def test_node_budget_truncates():
    vs = make_vars(3)
    m = Model.build(
        [(v.name, IntSet.interval(1, 3)) for v in vs],
        [(AllDifferent(tuple(vs)), N.BOUNDS_Z)],
    )
    solutions, stats = solve(m, node_budget=3)
    assert stats.nodes <= 3
    assert not stats.complete


def two_distinct():
    vs = make_vars(2)
    return Model.build(
        [(v.name, IntSet.interval(1, 2)) for v in vs],
        [(AllDifferent(tuple(vs)), N.BOUNDS_Z)],
    )


@pytest.mark.parametrize("kw", [dict(limit=0), dict(limit=-1), dict(node_budget=-3)])
def test_caps_out_of_range_are_refused(kw):
    with pytest.raises(ValueError, match=next(iter(kw))):
        solve(two_distinct(), **kw)


def test_a_zero_node_budget_searches_nothing():
    solutions, stats = solve(two_distinct(), node_budget=0)
    assert solutions == [] and stats.nodes == 0 and not stats.complete


def test_stats_failures_count_dead_ends():
    x = make_vars(1)[0]
    m = Model.build(
        [("x1", IntSet.of([1, 2]))],
        [(LinEq((LinTerm(1, x),), 9), N.DOMAIN)],
    )
    solutions, stats = solve(m)
    assert solutions == [] and stats.failures == 1 and stats.complete


def _chain(n):
    # x{i} + x{i+1} >= 2 over [0,2]: the first solution alternates 0 and 2,
    # one node per pair, and each child narrows only its split neighbour.
    xs = make_vars(n)
    return Model.build(
        [(x.name, IntSet.interval(0, 2)) for x in xs],
        [
            (LinLe((LinTerm(-1, a), LinTerm(-1, b)), -2), N.BOUNDS_Z)
            for a, b in zip(xs, xs[1:])
        ],
    )


def test_a_search_node_costs_what_changed_not_the_model_size(monkeypatch):
    """`Domain.get` calls per child node of a first-solution search on a
    chain are the same at n=250 and n=1000: the engine reads only the
    variables its runs narrowed, not all n (the root runs every
    propagator and is left out)."""
    get, node = Domain.get, search.propagate_all
    calls, per_node = [0], []

    def counted_get(self, var):
        calls[0] += 1
        return get(self, var)

    def counted_node(*args, **kwargs):
        before = calls[0]
        res = node(*args, **kwargs)
        per_node.append(calls[0] - before)
        return res

    monkeypatch.setattr(Domain, "get", counted_get)
    monkeypatch.setattr(search, "propagate_all", counted_node)
    seen = []
    for n in (250, 1000):
        per_node.clear()
        solutions, stats = solve(_chain(n), limit=1)
        assert len(solutions) == 1 and stats.nodes == len(per_node) == n // 2 + 1
        seen.append(sorted(set(per_node[1:])))
    assert seen[0] == seen[1], seen
