from fractions import Fraction

import pytest

from fdlab.constraints import (
    UNDEFINED,
    Affine,
    AllDifferent,
    LinEq,
    LinLe,
    LinNe,
    LinTerm,
    Mod,
    MonoBij,
    PowerSum3,
    PowK,
    ProductLe,
    ReifLinLe,
    Table,
    real_defined,
    sat_int,
    sat_real,
    vars_of,
)
from fdlab.domains import Valuation, VarId

X1, X2, X3 = VarId(0, "x1"), VarId(1, "x2"), VarId(2, "x3")


def val(**kw):
    mapping = {"x1": X1, "x2": X2, "x3": X3}
    return Valuation({mapping[k]: v for k, v in kw.items()})


def test_linterm_rejects_zero_coeff():
    with pytest.raises(ValueError):
        LinTerm(0, X1)


def test_linear_duplicate_vars_rejected():
    with pytest.raises(ValueError):
        LinEq((LinTerm(1, X1), LinTerm(2, X1)), 0)


def test_linear_sat_int():
    c = LinEq((LinTerm(1, X1), LinTerm(-3, X2), LinTerm(-5, X3)), 0)
    assert sat_int(c, val(x1=3, x2=1, x3=0))
    assert sat_int(c, val(x1=5, x2=0, x3=1))
    assert not sat_int(c, val(x1=4, x2=1, x3=0))
    le = LinLe((LinTerm(2, X1),), 4)
    assert sat_int(le, val(x1=2))
    assert not sat_int(le, val(x1=3))
    ne = LinNe((LinTerm(1, X1),), 7)
    assert sat_int(ne, val(x1=6))
    assert not sat_int(ne, val(x1=7))


def test_linear_sat_real_rational_points():
    c = LinEq((LinTerm(1, X1), LinTerm(-3, X2), LinTerm(-5, X3)), 0)
    assert sat_real(c, val(x1=2, x2=0, x3=Fraction(2, 5))) is True
    assert sat_real(c, val(x1=2, x2=0, x3=0)) is False


def test_sat_int_demands_integral_and_exact_vars():
    c = LinEq((LinTerm(1, X1),), 0)
    with pytest.raises(ValueError):
        sat_int(c, val(x1=Fraction(1, 2)))
    with pytest.raises(ValueError):
        sat_int(c, val(x1=0, x2=0))
    with pytest.raises(ValueError):
        sat_real(c, val(x2=0))


def test_alldifferent():
    c = AllDifferent((X1, X2, X3))
    assert sat_int(c, val(x1=1, x2=2, x3=3))
    assert not sat_int(c, val(x1=1, x2=1, x3=3))
    # reals only need pairwise distinctness
    assert sat_real(c, val(x1=1, x2=Fraction(3, 2), x3=2)) is True
    with pytest.raises(ValueError):
        AllDifferent((X1,))
    with pytest.raises(ValueError):
        AllDifferent((X1, X1))


def test_productle():
    c = ProductLe(X1, X2, X3)
    assert sat_int(c, val(x1=2, x2=3, x3=6))
    assert not sat_int(c, val(x1=2, x2=3, x3=5))
    assert sat_int(c, val(x1=-4, x2=5, x3=0))
    assert sat_real(c, val(x1=Fraction(1, 2), x2=Fraction(1, 2), x3=1)) is True


def test_mod_convention():
    c = Mod(X1, X2, X3)
    assert sat_int(c, val(x1=1, x2=7, x3=3))
    assert sat_int(c, val(x1=2, x2=-7, x3=3))  # result stays in [0, x3)
    assert not sat_int(c, val(x1=-1, x2=-7, x3=3))
    # non-positive modulus satisfies nothing
    assert not sat_int(c, val(x1=0, x2=0, x3=0))
    assert not sat_int(c, val(x1=0, x2=5, x3=-2))
    assert sat_real(c, val(x1=1, x2=7, x3=3)) is UNDEFINED


def test_reified_linle():
    c = ReifLinLe(X1, (LinTerm(1, X2), LinTerm(1, X3)), 5)
    assert sat_int(c, val(x1=1, x2=2, x3=3))
    assert sat_int(c, val(x1=0, x2=4, x3=3))
    assert not sat_int(c, val(x1=0, x2=2, x3=3))
    assert not sat_int(c, val(x1=2, x2=2, x3=3))  # b outside {0,1}
    assert sat_real(c, val(x1=1, x2=0, x3=0)) is UNDEFINED


def test_table():
    c = Table((X1, X2), ((1, 2), (3, 4)))
    assert sat_int(c, val(x1=1, x2=2))
    assert not sat_int(c, val(x1=1, x2=4))
    assert sat_real(c, val(x1=1, x2=2)) is UNDEFINED
    with pytest.raises(ValueError):
        Table((X1, X2), ((1,),))


def test_undefined_sentinel_refuses_truthiness():
    with pytest.raises(TypeError):
        bool(UNDEFINED)
    assert (UNDEFINED is UNDEFINED) and not (UNDEFINED is True)


def test_real_defined_partition():
    lin = LinEq((LinTerm(1, X1),), 0)
    assert real_defined(lin)
    assert real_defined(AllDifferent((X1, X2)))
    assert real_defined(MonoBij(X1, Affine(2, -1), X2))
    assert not real_defined(Mod(X1, X2, X3))
    assert not real_defined(ReifLinLe(X1, (LinTerm(1, X2),), 0))
    assert not real_defined(Table((X1,), ((0,),)))


def test_vars_of():
    c = LinEq((LinTerm(1, X2), LinTerm(2, X1)), 0)
    assert set(vars_of(c)) == {X1, X2}
    assert vars_of(Mod(X1, X2, X3)) == (X1, X2, X3)


def test_affine_eval_and_inverse():
    f = Affine(2, -1)
    assert f(3) == 5
    assert f(Fraction(1, 2)) == 0
    assert f.inverse(Fraction(5)) == 3
    assert f.inverse(Fraction(1, 3)) == Fraction(2, 3)
    assert f.increasing
    assert not Affine(-1, 4).increasing
    assert not f.nonneg
    with pytest.raises(ValueError):
        Affine(0, 1)


def test_powk_eval_and_inverse():
    f = PowK(3, 2)  # 3*x^2 on x >= 0
    assert f.nonneg
    assert f.increasing
    assert f(4) == 48
    assert f.inverse(Fraction(48)) == 4
    assert f.inverse(Fraction(3, 4)) == Fraction(1, 2)
    assert f.inverse(Fraction(5)) is None  # irrational preimage
    g = PowK(-2, 3)
    assert not g.increasing
    assert g(2) == -16
    assert g.inverse(Fraction(-16)) == 2


def test_powersum3_eval_and_inverse():
    f = PowerSum3()
    assert f(0) == 1
    assert f(2) == 15
    assert f(Fraction(1, 2)) == Fraction(15, 8)
    assert f.inverse(Fraction(15)) == 2
    assert f.inverse(Fraction(15, 8)) == Fraction(1, 2)
    assert f.inverse(Fraction(14)) is None
    assert f.nonneg and f.increasing


def test_inverses_are_exact_at_any_size():
    # a preimage's denominator is any cube root, and roots are taken on ints
    g = PowerSum3()
    assert g.inverse(g(Fraction(1, 101))) == Fraction(1, 101)
    assert g.inverse(g(Fraction(10**30 + 1, 10**10))) == Fraction(10**30 + 1, 10**10)
    assert PowK(1, 2).inverse(Fraction(10**400)) == 10**200
    assert PowK(1, 3).inverse(Fraction(1, 10**402)) == Fraction(1, 10**134)
    assert PowK(1, 2).inverse(Fraction(10**400 + 1)) is None
    assert PowK(1, 10**18).inverse(Fraction(1)) == 1


FUNCS = [Affine(2, -1), Affine(-3, 4), PowK(3, 2), PowK(-2, 3), PowK(1, 1), PowerSum3()]
GRID = sorted({Fraction(n, t) for n in range(-12, 13) for t in (1, 2, 3, 7)})


@pytest.mark.parametrize("f", FUNCS, ids=repr)
def test_function_table(f):
    c = MonoBij(X1, f, X2)
    domain = [x for x in GRID if x >= 0 or not f.nonneg]
    for x in GRID:
        # nonneg is the restriction that MonoBij reads, over ints and rationals
        allowed = x >= 0 or not f.nonneg
        assert sat_real(c, val(x1=f(x), x2=x)) is allowed
        if x.denominator == 1:
            assert sat_int(c, val(x1=f(int(x)), x2=int(x))) is allowed
    for x in domain:
        y = f(int(x)) if x.denominator == 1 else f(x)
        assert type(y) is (int if x.denominator == 1 else Fraction)
        assert f.inverse(y) == x
    for a, b in zip(domain, domain[1:]):
        assert (f(a) < f(b)) is f.increasing


def test_monobij_sat():
    c = MonoBij(X1, PowK(1, 2), X2)
    assert sat_int(c, val(x1=9, x2=3))
    assert not sat_int(c, val(x1=9, x2=-3))  # restricted to x2 >= 0
    assert not sat_int(c, val(x1=8, x2=3))
    aff = MonoBij(X1, Affine(-1, 0), X2)
    assert sat_int(aff, val(x1=4, x2=-4))
    assert sat_real(aff, val(x1=Fraction(1, 2), x2=Fraction(-1, 2))) is True


def test_mono_eval_overflow():
    # exact past 64 bits; refused only where the power must pass 256 bits
    assert PowK(1, 2)(1 << 32) == 1 << 64
    assert PowK(-3, 3)(1 << 40) == -3 << 120
    assert PowK(1, 10**18)(-1) == 1
    with pytest.raises(OverflowError):
        PowK(1, 7)(1 << 40)
    with pytest.raises(OverflowError):
        PowK(1, 10**18)(2)
