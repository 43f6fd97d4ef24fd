import pytest
from fractions import Fraction

from conftest import fresh_rng, make_vars, random_domain, random_int_constraint
from fdlab import search
from fdlab.checkers import ConsistencyNotion
from fdlab.constraints import RealSemanticsUndefined, real_defined
from fdlab.engine import Model, propagate_all
from fdlab.propagators import propagate
from fdlab.search import BranchStrategy, branch, solve
from fdlab.domains import (
    INT64_MAX,
    INT64_MIN,
    Domain,
    IntSet,
    Valuation,
    VarId,
    checked_int64,
    is_range,
    member,
    member_box,
    range_of,
)


def test_intset_rejects_empty_and_unordered():
    with pytest.raises(ValueError):
        IntSet(())
    with pytest.raises(ValueError):
        IntSet((3, 1))
    with pytest.raises(ValueError):
        IntSet((1, 1))


def test_intset_rejects_values_past_64_bits():
    for values in ((0, INT64_MAX + 1), (INT64_MIN - 1,), (1 << 63,)):
        with pytest.raises(OverflowError):
            IntSet(values)
    with pytest.raises(ValueError):  # the order is checked before the ends
        IntSet((1 << 63, 0))


def test_of_and_interval_reject_empty_input_and_ends_past_64_bits():
    with pytest.raises(ValueError):
        IntSet.of([])
    with pytest.raises(ValueError):
        IntSet.of(iter(()))
    for values in ([0, INT64_MAX + 1], [INT64_MIN - 1, 5], [1 << 63]):
        with pytest.raises(OverflowError):
            IntSet.of(values)
    with pytest.raises(ValueError):
        IntSet.interval(1, 0)
    for lo, hi in ((INT64_MAX, INT64_MAX + 1), (INT64_MIN - 1, INT64_MIN), (1 << 63, 1 << 63)):
        with pytest.raises(OverflowError):
            IntSet.interval(lo, hi)
    assert IntSet.interval(INT64_MAX - 1, INT64_MAX).values == (INT64_MAX - 1, INT64_MAX)
    assert IntSet.of([INT64_MAX, INT64_MIN]).values == (INT64_MIN, INT64_MAX)


def assert_valid(s):
    """s passes the public constructor's full check and equals its result."""
    assert type(s) is IntSet and type(s.values) is tuple
    assert IntSet(s.values) == s


def assert_valid_domain(d):
    for s in d.sets:
        assert_valid(s)


def test_every_set_derived_from_valid_sets_passes_the_public_check(monkeypatch):
    """Derived sets skip the walk of `IntSet(values)`; each one that
    propagation, search or a set operation returns must still pass it."""
    visited = [0]
    fixpoint = search.propagate_all

    def checked_fixpoint(m, d, **kwargs):  # every node `solve` reaches
        assert_valid_domain(d)
        res = fixpoint(m, d, **kwargs)
        if not res.failed:
            assert_valid_domain(res.domain)
        visited[0] += 1
        return res

    monkeypatch.setattr(search, "propagate_all", checked_fixpoint)
    rng = fresh_rng(2024)
    edges = (-(1 << 63), -(1 << 62), -7, 0, (1 << 62), (1 << 63) - 8)
    for _ in range(2000):
        base = rng.choice(edges)
        raw = [base + rng.randint(0, 7) for _ in range(rng.randint(1, 6))]
        s = IntSet.of(raw)
        assert_valid(s)
        lo, hi = sorted(rng.randint(base, base + 7) for _ in range(2))
        assert_valid(IntSet.interval(lo, hi))
        lo, hi = sorted(rng.randint(base - 2, base + 9) for _ in range(2))
        for v in (rng.choice(raw), base + rng.randint(-1, 8)):
            if s.remove(v) is not None:
                assert_valid(s.remove(v))
                assert s.remove(v).values == tuple(x for x in s if x != v)
        clamped = s.clamp(lo, hi)
        assert (clamped.values if clamped else ()) == tuple(x for x in s if lo <= x <= hi)
        if clamped is not None:
            assert_valid(clamped)

        nvars = rng.randint(1, 4)
        vs = make_vars(nvars)
        d = random_domain(rng, nvars, max_size=6)
        assert_valid_domain(range_of(d))
        if any(not x.is_singleton for x in d.sets):
            for strategy in BranchStrategy:
                for child in branch(d, strategy):
                    assert_valid_domain(child)
        c = random_int_constraint(rng, vs)
        for notion in ConsistencyNotion:
            try:
                res = propagate(d, c, notion)
            except RealSemanticsUndefined:
                continue
            if not res.failed:
                assert_valid_domain(res.domain)
        notions = [n for n in ConsistencyNotion if real_defined(c) or n.value != "bounds-r"]
        try:
            m = Model(tuple(vs), d, ((c, rng.choice(notions)),))
        except ValueError:  # a reified bool outside {0,1}
            continue
        res = propagate_all(m)
        if not res.failed:
            assert_valid_domain(res.domain)
        for strategy in BranchStrategy:
            solve(m, node_budget=40, strategy=strategy)
    assert visited[0] > 4000


def test_intset_of_sorts_and_dedups():
    s = IntSet.of([5, -1, 5, 3])
    assert s.values == (-1, 3, 5)
    assert s.inf == -1 and s.sup == 5 and s.size == 3


def test_intset_interval():
    s = IntSet.interval(-2, 1)
    assert s.values == (-2, -1, 0, 1)
    assert s.is_range
    with pytest.raises(ValueError):
        IntSet.interval(2, 1)


def test_intset_predicates():
    assert IntSet.of([4]).is_singleton
    assert not IntSet.of([1, 3]).is_range
    assert 3 in IntSet.of([1, 3])
    assert 2 not in IntSet.of([1, 3])
    big = IntSet.interval(0, 40)
    assert 17 in big and 41 not in big


def test_intset_remove_and_clamp():
    s = IntSet.of([1, 4, 9])
    assert s.remove(4).values == (1, 9)
    assert s.remove(7).values == (1, 4, 9)
    assert IntSet.of([2]).remove(2) is None
    assert s.clamp(2, 9).values == (4, 9)
    assert s.clamp(5, 8) is None


def test_varid_ordering():
    a, b = VarId(0, "x1"), VarId(1, "x2")
    assert a < b
    assert sorted([b, a]) == [a, b]


def test_domain_access_and_with_set():
    d = Domain((IntSet.interval(0, 2), IntSet.of([5])))
    x, y = VarId(0, "x"), VarId(1, "y")
    assert d.get(x).values == (0, 1, 2)
    assert d[y].sup == 5
    assert d.inf(x) == 0 and d.sup(x) == 2
    d2 = d.with_set(x, IntSet.of([1]))
    assert d2.get(x).values == (1,)
    assert d.get(x).values == (0, 1, 2)  # original untouched


def test_range_of():
    d = Domain((IntSet.of([3, 4, 6]), IntSet.interval(0, 2)))
    r = range_of(d)
    assert r.sets[0].values == (3, 4, 5, 6)
    assert r.sets[1].values == (0, 1, 2)
    assert not is_range(d) and is_range(r)


def test_valuation_normalizes_ints():
    x = VarId(0, "x")
    theta = Valuation({x: 3})
    assert theta[x] == Fraction(3)
    assert theta.is_integral
    assert theta.int_value(x) == 3


def test_valuation_non_integral():
    x = VarId(0, "x")
    theta = Valuation({x: Fraction(1, 2)})
    assert not theta.is_integral
    with pytest.raises(ValueError):
        theta.int_value(x)


def test_valuation_equality_and_hash():
    x = VarId(0, "x")
    assert Valuation({x: 2}) == Valuation({x: Fraction(2)})
    assert hash(Valuation({x: 2})) == hash(Valuation({x: Fraction(2)}))
    assert repr(Valuation({x: 2})) == repr(Valuation({x: Fraction(2)})) == "Valuation(x=2)"
    assert type(Valuation({x: 2})[x]) is Fraction
    assert Valuation({x: 2}) != Valuation({x: 3})


def test_member_uses_actual_sets():
    x = VarId(0, "x")
    d = Domain((IntSet.of([1, 3]),))
    assert member(Valuation({x: 3}), d)
    assert not member(Valuation({x: 2}), d)  # in the hole
    assert not member(Valuation({x: Fraction(3, 2)}), d)


def test_member_box_allows_rationals_in_hull():
    x = VarId(0, "x")
    d = Domain((IntSet.of([1, 3]),))
    assert member_box(Valuation({x: 2}), d)
    assert member_box(Valuation({x: Fraction(3, 2)}), d)
    assert not member_box(Valuation({x: 4}), d)


def test_checked_arithmetic():
    assert checked_int64(INT64_MAX) == INT64_MAX
    with pytest.raises(OverflowError):
        IntSet.of([INT64_MAX + 1])
    with pytest.raises(OverflowError):
        IntSet((INT64_MIN - 1, 0))
