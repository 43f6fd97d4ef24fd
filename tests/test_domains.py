import pytest
from fractions import Fraction

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
