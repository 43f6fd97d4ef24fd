"""Checker tests: worked examples with known verdicts, the strength chain,
range-domain correspondences, and agreement with the naive oracle."""

import itertools
import math
import operator

import pytest

from conftest import (
    fresh_rng,
    make_vars,
    member,
    member_box,
    random_domain,
    random_int_constraint,
    random_monofunc,
    random_set,
    range_of,
)
from fdlab import (
    AllDifferent,
    Domain,
    IntSet,
    LinEq,
    LinLe,
    LinNe,
    LinTerm,
    Mod,
    MonoBij,
    ProductLe,
    RealSemanticsUndefined,
    ReifLinLe,
    Table,
    VarId,
    check,
    check_bounds_d,
    check_bounds_r,
    check_bounds_z,
    check_domain,
)
from fdlab import checkers
from fdlab.checkers import ConsistencyNotion, _scan_linear_py
from fdlab.constraints import real_defined, sat_int, sat_real, vars_of
from fdlab.domains import Valuation
from fdlab.oracle import _real_support_exists, oracle_consistent

X1, X2, X3 = make_vars(3)
C_LIN = LinEq((LinTerm(1, X1), LinTerm(-3, X2), LinTerm(-5, X3)), 0)

NOTIONS = [
    ConsistencyNotion.DOMAIN,
    ConsistencyNotion.BOUNDS_D,
    ConsistencyNotion.BOUNDS_Z,
    ConsistencyNotion.BOUNDS_R,
]


def dom3(s1, s2, s3):
    return Domain((IntSet.of(s1), IntSet.of(s2), IntSet.of(s3)))


D0 = dom3(range(2, 8), range(0, 3), range(-1, 3))
D1 = dom3([3, 5, 6], [0, 1, 2], [0, 1])
D2 = dom3([2, 3, 4, 6, 7], range(0, 3), [0, 1])
D3 = dom3([3, 4, 6], range(0, 3), [0, 1])
D4 = dom3([3, 4, 6], [1, 2], [0])


def verdicts(d, c):
    return tuple(check(d, c, n).consistent for n in NOTIONS)


def culprits(result):
    return sorted((w.var.name, w.value) for w in result.witnesses if not w.supported)


class TestLinearEquationExamples:
    def test_d0_not_domain_consistent(self):
        res = check_domain(D0, C_LIN)
        assert not res.consistent
        assert culprits(res) == [
            ("x1", 2),
            ("x1", 4),
            ("x1", 7),
            ("x3", -1),
            ("x3", 2),
        ]

    def test_d0_fails_every_notion(self):
        assert verdicts(D0, C_LIN) == (False, False, False, False)
        res = check_bounds_r(D0, C_LIN)
        assert ("x3", -1) in culprits(res)

    def test_d1_domain_consistent(self):
        assert verdicts(D1, C_LIN) == (True, True, True, True)

    def test_d2_real_bounds_only(self):
        assert verdicts(D2, C_LIN) == (False, False, False, True)

    def test_d3_integer_bounds_but_not_set_bounds(self):
        assert verdicts(D3, C_LIN) == (False, False, True, True)

    def test_range_of_d3_gains_set_bounds_consistency(self):
        rd3 = range_of(D3)
        assert check_bounds_d(rd3, C_LIN).consistent
        assert check_bounds_z(rd3, C_LIN).consistent

    def test_d4_all_three_bounds(self):
        assert verdicts(D4, C_LIN) == (False, True, True, True)


def test_alldifferent_separates_z_from_r():
    c = AllDifferent((X1, X2, X3))
    d5 = dom3([1, 2], [1, 2], [2, 3])
    assert not check_bounds_z(d5, c).consistent
    assert check_bounds_r(d5, c).consistent


def test_sum_example_separates_d_from_z():
    c = LinEq((LinTerm(1, X1), LinTerm(1, X2), LinTerm(1, X3)), 5)
    d8 = dom3(range(0, 4), [0, 3, 4, 5], [0, 3, 4, 5])
    assert not check_bounds_d(d8, c).consistent
    assert check_bounds_z(d8, c).consistent
    assert check_bounds_r(d8, c).consistent


def test_real_check_rejects_integer_only_constraints():
    d = dom3([0, 1], [0, 1], [1, 2])
    for c in (
        Mod(X1, X2, X3),
        ReifLinLe(X1, (LinTerm(1, X2), LinTerm(1, X3)), 1),
        Table((X1, X2, X3), ((0, 0, 1),)),
    ):
        with pytest.raises(RealSemanticsUndefined):
            check_bounds_r(d, c)


def test_supported_witnesses_satisfy_the_constraint():
    rng = fresh_rng(101)
    for _ in range(150):
        n = rng.randint(1, 3)
        vs = make_vars(n)
        c = random_int_constraint(rng, vs)
        d = random_domain(rng, n, max_size=4)
        for notion in NOTIONS:
            if notion is ConsistencyNotion.BOUNDS_R and not real_defined(c):
                continue
            res = check(d, c, notion)
            for w in res.witnesses:
                if not w.supported:
                    continue
                if w.witness is None:
                    continue  # allowed: existence proved without a point
                theta = w.witness
                if notion is ConsistencyNotion.BOUNDS_R:
                    assert sat_real(c, theta) is True
                    assert member_box(theta, d)
                else:
                    assert sat_int(c, theta)
                    if notion is ConsistencyNotion.BOUNDS_Z:
                        assert member_box(theta, d)
                    else:
                        assert member(theta, d)
                assert theta[w.var] == w.value


def test_strength_chain_on_random_corpus():
    # domain consistent => bounds(D) => bounds(Z) => bounds(R)
    rng = fresh_rng(7)
    checked = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        vs = make_vars(n)
        c = random_int_constraint(rng, vs)
        d = random_domain(rng, n, max_size=4)
        dc = check_domain(d, c).consistent
        bd = check_bounds_d(d, c).consistent
        bz = check_bounds_z(d, c).consistent
        assert not dc or bd
        assert not bd or bz
        if real_defined(c):
            br = check_bounds_r(d, c).consistent
            assert not bz or br
        checked += 1
    assert checked == 300


def test_bounds_z_is_bounds_d_of_range():
    rng = fresh_rng(8)
    for _ in range(300):
        n = rng.randint(1, 4)
        vs = make_vars(n)
        c = random_int_constraint(rng, vs)
        d = random_domain(rng, n, max_size=4)
        assert (
            check_bounds_z(d, c).consistent
            == check_bounds_d(range_of(d), c).consistent
        )


def test_integer_and_real_bounds_ignore_holes():
    rng = fresh_rng(9)
    for _ in range(300):
        n = rng.randint(1, 4)
        vs = make_vars(n)
        c = random_int_constraint(rng, vs)
        d = random_domain(rng, n, max_size=4)
        r = range_of(d)
        assert check_bounds_z(d, c).consistent == check_bounds_z(r, c).consistent
        if real_defined(c):
            assert (
                check_bounds_r(d, c).consistent == check_bounds_r(r, c).consistent
            )


def test_set_bounds_not_invariant_under_range():
    # D3 is the fixed counter-instance: bounds(D) differs across the hull
    assert not check_bounds_d(D3, C_LIN).consistent
    assert check_bounds_d(range_of(D3), C_LIN).consistent


def test_checkers_agree_with_oracle():
    rng = fresh_rng(10)
    for _ in range(150):
        n = rng.randint(1, 3)
        vs = make_vars(n)
        c = random_int_constraint(rng, vs)
        d = random_domain(rng, n, max_size=4)
        for notion in NOTIONS:
            if notion is ConsistencyNotion.BOUNDS_R and not real_defined(c):
                continue
            assert check(d, c, notion).consistent == oracle_consistent(d, c, notion)


def test_real_linear_supports_agree_with_oracle_near_64_bits():
    # sums and products here leave the signed 64-bit range; none may raise.
    # At <=, != and x1*x2 <= x3 the least and greatest values over a box sit
    # at its integral corners, so a bounds(R) support is the bounds(Z) one.
    rng = fresh_rng(14)
    big = 1 << 62

    def near_64_bits(vs):
        sets = []
        for _ in vs:
            centre = rng.choice([0, 0, big, -big, big - 5])
            size = rng.randint(1, 3)
            sets.append(IntSet.of(centre + rng.randint(-4, 4) for _ in range(size)))
        return Domain(tuple(sets))

    cases = []
    for _ in range(400):
        vs = make_vars(rng.randint(1, 6))
        d = near_64_bits(vs)
        terms = tuple(LinTerm(rng.choice([-3, -2, -1, 1, 2, 3]), v) for v in vs)
        rhs = sum(t.coeff * rng.choice(d.get(t.var).values) for t in terms)
        rhs = max(-(1 << 63), min((1 << 63) - 1, rhs + rng.randint(-2, 2)))
        cases.append((d, rng.choice([LinEq, LinLe, LinNe])(terms, rhs)))
    for _ in range(200):
        vs = make_vars(3)
        cases.append((near_64_bits(vs), ProductLe(*vs)))
    x, y = make_vars(2)
    xy = Domain((IntSet.of([0, 1]), IntSet.interval(0, 3)))
    cases.append((xy, LinNe((LinTerm(1, x), LinTerm(1, y)), 0)))  # x=0: y=1, not 3/2
    cases.append((xy, LinLe((LinTerm(1, x), LinTerm(-2, y)), 0)))  # x=1: y=1, not 1/2
    for d, c in cases:
        for v in c.scope:
            for value in range(d.inf(v) - 1, d.sup(v) + 2):
                w = checkers.support(d, c, ConsistencyNotion.BOUNDS_R, v, value)
                assert w.supported == _real_support_exists(d, c, v, value), (c, v, value)
                if w.supported:
                    assert sat_real(c, w.witness) is True
                    assert member_box(w.witness, d.with_set(v, IntSet.of([value])))
                if not isinstance(c, LinEq):
                    z = checkers.support(d, c, ConsistencyNotion.BOUNDS_Z, v, value)
                    assert w == z, (c, v, value)


def _lex_first(free_vals, coeffs, target, op):
    """Brute-force reference: the first tuple in itertools.product order."""
    holds = {"eq": operator.eq, "le": operator.le, "ne": operator.ne}[op]
    for combo in itertools.product(*free_vals):
        if holds(sum(a * v for a, v in zip(coeffs, combo)), target):
            return combo
    return None


def test_linear_search_matches_lex_first_brute_force():
    rng = fresh_rng(11)
    for _ in range(1000):
        free_vals = []
        for _ in range(rng.randint(0, 6)):
            roll = rng.random()
            if roll < 0.2:
                free_vals.append((rng.randint(-6, 6),))
            elif roll < 0.6:
                lo = rng.randint(-6, 3)
                free_vals.append(range(lo, lo + rng.randint(1, 6)))
            else:
                picked = rng.sample(range(-6, 7), rng.randint(1, 6))
                free_vals.append(tuple(sorted(picked)))
        coeffs = [rng.choice([-7, -3, -2, -1, 1, 2, 3, 5]) for _ in free_vals]
        target = rng.randint(-20, 20)
        for op in ("eq", "le", "ne"):
            want = _lex_first(free_vals, coeffs, target, op)
            assert _scan_linear_py(free_vals, coeffs, target, op) == want, (
                free_vals, coeffs, target, op)


def test_linear_search_on_gadget_sized_equations():
    # 16 {0,1} variables, as in a subset-sum gadget with one variable pinned
    rng = fresh_rng(12)
    for k in range(4):
        coeffs = [rng.randint(1000, 9999) for _ in range(15)]
        coeffs.append(-rng.randint(1000, 60000))
        picked = [a for a in coeffs if rng.random() < 0.5]
        target = sum(picked) if k % 2 == 0 else rng.randint(1, sum(coeffs[:15]))
        free_vals = [(0, 1)] * 16
        want = _lex_first(free_vals, coeffs, target, "eq")
        assert _scan_linear_py(free_vals, coeffs, target, "eq") == want


def test_linear_search_solves_one_free_variable_by_division():
    # listing this range would take hours; a window read off the hull does not
    wide = [range(-10**15, 10**15)]
    assert _scan_linear_py(wide, [7], 7 * (10**15 - 3), "eq") == (10**15 - 3,)
    assert _scan_linear_py(wide, [-7], 7 * 10**15, "eq") == (-10**15,)
    assert _scan_linear_py(wide, [7], 7 * 10**15, "eq") is None
    assert _scan_linear_py(wide, [7], 7 * 10**14 + 1, "eq") is None
    assert _scan_linear_py(wide, [-3], 10, "le") == (-3,)
    assert _scan_linear_py(wide, [1], -10**15, "ne") == (-10**15 + 1,)
    # the singleton suffix completes the least value to the forbidden sum
    assert _scan_linear_py(wide + [(5,)], [1, 1], -10**15 + 5, "ne") == (-10**15 + 1, 5)


def test_linear_search_finds_early_supports_over_wide_ranges():
    # a meet-in-the-middle table here would hold 10**8 sums; the walk that
    # solves the last variable by division answers at once
    wide = [range(0, 10**4 + 1)] * 4
    assert _scan_linear_py(wide, [1, 1, 1, 1], 7, "eq") == (0, 0, 0, 7)
    top = (9999, 10000, 10000, 10000)
    assert _scan_linear_py(wide, [1, 1, 1, 1], 39999, "eq") == top
    # x2 must be a multiple of 3 and at least 94 for the rest to reach
    assert _scan_linear_py(wide, [1000, 1001, -999, 3], 123456, "eq") == (0, 96, 0, 9120)
    huge = [range(-2**62, 2**62 + 1)] * 2 + [range(0, 2)]  # more values than len() takes
    assert _scan_linear_py(huge, [1, 1, 1], 0, "eq") == (-2**62, 2**62 - 1, 1)
    # every sum is even and the target odd: no table fits, and a walk over
    # about 2**80 value pairs would not end
    wide40 = [range(0, 2**40 + 1)] * 3
    assert _scan_linear_py(wide40, [2, 2, 2], 2**41 + 1, "eq") is None


def test_linear_search_walk_then_table_matches_brute_force(monkeypatch):
    # with no eager meet in the middle and small tables, the walk gives up
    # and the table search resumes from the start
    rng = fresh_rng(13)
    for _ in range(600):
        monkeypatch.setattr(checkers, "_EAGER_COST", rng.choice([0, 4, 16]))
        monkeypatch.setattr(checkers, "_TABLE_CAP", rng.choice([4, 16, 64]))
        free_vals = []
        for _ in range(rng.randint(3, 8)):
            if rng.random() < 0.5:
                lo = rng.randint(-4, 2)
                free_vals.append(range(lo, lo + rng.randint(1, 4)))
            else:
                picked = rng.sample(range(-5, 6), rng.randint(1, 4))
                free_vals.append(tuple(sorted(picked)))
        coeffs = [rng.choice([-7, -3, -2, 1, 2, 5, 11]) for _ in free_vals]
        target = rng.randint(-30, 30)
        want = _lex_first(free_vals, coeffs, target, "eq")
        assert _scan_linear_py(free_vals, coeffs, target, "eq") == want, (
            free_vals, coeffs, target)


def _lex_first_support(d, c, notion, pin, value):
    """Brute-force reference: the first tuple in itertools.product order over
    the other variables' candidates that sat_int accepts, as a Valuation."""
    free = [v for v in vars_of(c) if v != pin]

    def cands(v):
        s = d.get(v)
        if notion is ConsistencyNotion.BOUNDS_Z:
            return range(s.inf, s.sup + 1)
        return s.values

    for combo in itertools.product(*map(cands, free)):
        theta = Valuation(dict(zip(free, combo)) | {pin: value})
        if sat_int(c, theta):
            return theta
    return None


def test_generic_integer_witnesses_are_lex_first():
    rng = fresh_rng(15)
    for _ in range(200):
        kind = rng.choice(["alldiff", "table", "product", "mod", "reif", "monobij"])
        n = {"product": 3, "mod": 3, "monobij": 2}.get(kind, rng.randint(2, 4))
        vs = make_vars(n)
        d = random_domain(rng, n, lo=-6, hi=6, max_size=4)
        if kind == "alldiff":
            c = AllDifferent(tuple(vs))
        elif kind == "table":
            rows = {tuple(rng.choice(d.get(v).values) for v in vs) for _ in range(4)}
            c = Table(tuple(vs), tuple(sorted(rows)))
        elif kind == "product":
            c = ProductLe(*vs)
        elif kind == "mod":
            c = Mod(*vs)
        elif kind == "monobij":
            c = MonoBij(vs[0], random_monofunc(rng), vs[1])
        else:
            terms = tuple(LinTerm(rng.choice([-2, -1, 1, 2]), v) for v in vs[1:])
            c = ReifLinLe(vs[0], terms, rng.randint(-6, 6))
            d = d.with_set(vs[0], random_set(rng, -1, 2, max_size=3))
        for notion in NOTIONS[:3]:
            for var in vs:
                for value in d.get(var).values:
                    want = _lex_first_support(d, c, notion, var, value)
                    w = checkers.support(d, c, notion, var, value)
                    assert w.supported == (want is not None), (c, d, notion, var, value)
                    assert w.witness == want, (c, d, notion, var, value)


def test_product_witnesses_are_lex_first_over_signed_sets():
    # the product support reads windows off the other factor's ends; sets
    # around zero give factor ends of 0 and windows on both sides of a gap
    rng = fresh_rng(16)
    c = ProductLe(X1, X2, X3)
    for _ in range(300):
        d = random_domain(rng, 3, lo=-6, hi=6, max_size=rng.choice([1, 2, 4, 6]))
        for notion in NOTIONS[:3]:
            for var in (X1, X2, X3):
                for value in d.get(var).values:
                    want = _lex_first_support(d, c, notion, var, value)
                    assert checkers.support(d, c, notion, var, value).witness == want


def test_wide_product_check_answers():
    # x*y <= 0 has no support with x, y >= 1; a scan would visit 10**10 pairs
    d = dom3(range(1, 100_001), range(1, 100_001), [0])
    res = check(d, ProductLe(X1, X2, X3), ConsistencyNotion.BOUNDS_Z)
    assert not res.consistent
    assert not any(w.supported for w in res.witnesses)
    wide = dom3(range(-100_000, 100_001), [2, 3], [-7, 6])
    w = checkers.support(wide, ProductLe(X1, X2, X3), ConsistencyNotion.BOUNDS_Z, X3, -7)
    assert w.witness == Valuation({X1: -100_000, X2: 2, X3: -7})


def test_singleton_bounds_checked_once():
    x = VarId(0, "x")
    d = Domain((IntSet.of([4]),))
    res = check_bounds_z(d, LinEq((LinTerm(1, x),), 4))
    assert res.consistent
    assert len(res.witnesses) == 1


def test_check_witnesses_equal_fresh_supports_and_brute_force(monkeypatch):
    # A check's queries share their equation tables, one per side, kept under
    # the part's candidates and coefficients.  Two sets and two coefficients
    # per equation make different groups of variables meet the same key.
    # Every fourth equation lets the walk go first, even on small tables.
    rng = fresh_rng(17)
    for i in range(150):
        eager = rng.choice([0, 4]) if i % 4 == 0 else 1 << 16
        monkeypatch.setattr(checkers, "_EAGER_COST", eager)
        n = rng.randint(3, 7)
        vs = make_vars(n)
        sets = [random_set(rng, -3, 3, max_size=rng.randint(1, 4)) for _ in range(2)]
        d = Domain(tuple(rng.choice(sets) for _ in vs))
        coeffs = rng.sample([-3, -2, -1, 1, 2, 3], 2)
        c = LinEq(tuple(LinTerm(rng.choice(coeffs), v) for v in vs), rng.randint(-6, 6))
        small = math.prod(s.sup - s.inf + 1 for s in d.sets) <= 2000
        for notion in NOTIONS[:3]:
            for w in check(d, c, notion).witnesses:
                assert w == checkers.support(d, c, notion, w.var, w.value), (c, d, notion)
                if small:
                    want = _lex_first_support(d, c, notion, w.var, w.value)
                    assert w.witness == want, (c, d, notion, w.var, w.value)


def test_check_walks_first_before_tables_are_shared(monkeypatch):
    # Pinning x1 or x2 leaves free sizes (2, 256, 257), whose split costs
    # 2 + 256*257 > _EAGER_COST: the walk goes first with a budget.  Pinning
    # x3 or x4 then builds tables, which the pin's second value shares.
    budgets = []
    walk = checkers._lex_walk

    def counted(*args):
        budgets.append(args[4] if len(args) > 4 else None)
        return walk(*args)

    monkeypatch.setattr(checkers, "_lex_walk", counted)
    d = Domain((IntSet.interval(0, 1), IntSet.interval(0, 1),
                IntSet.interval(0, 255), IntSet.interval(0, 256)))
    x = make_vars(4)
    for rhs in (0, 1000, 1001, 1789):
        terms = (LinTerm(5, x[0]), LinTerm(-3, x[1]), LinTerm(7, x[2]), LinTerm(4, x[3]))
        c = LinEq(terms, rhs)
        for notion in NOTIONS[:3]:
            budgets.clear()
            for w in check(d, c, notion).witnesses:
                assert w == checkers.support(d, c, notion, w.var, w.value), (rhs, notion, w)
            assert budgets[0] == (2 + 256 * 257) // 32
