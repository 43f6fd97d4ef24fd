"""Reduction and monotonicity tests: the subset-sum gadget, the equivalence
corollaries it relies on, and the per-variable order analysis."""

import pytest

from conftest import fresh_rng, make_vars, random_domain, random_monofunc
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
    SubsetSumInstance,
    VarMonotonicity,
    encode_subset_sum,
    is_monotonic,
    refute_monotone,
)
from fdlab.checkers import ConsistencyNotion as N
from fdlab.checkers import (
    check,
    check_bounds_d,
    check_bounds_r,
    check_bounds_z,
    check_domain,
    support,
)
from fdlab.constraints import sat_int, sat_real
from fdlab.domains import Valuation
from fdlab.oracle import oracle_subset_sum

LT, GT, NONE = (
    VarMonotonicity.LT,
    VarMonotonicity.GT,
    VarMonotonicity.NOT_MONOTONE,
)


class TestSubsetSumEncoding:
    def test_instance_validation(self):
        with pytest.raises(ValueError):
            SubsetSumInstance((), 3)
        with pytest.raises(ValueError):
            SubsetSumInstance((1, -2), 3)
        with pytest.raises(ValueError):
            SubsetSumInstance((1, 2), 0)

    def test_coefficients_and_domains(self):
        m, xsel, xall = encode_subset_sum(SubsetSumInstance((1, 2), 3))
        assert [v.name for v in m.vars] == ["x1", "x2", "x3", "x4"]
        c, notion = m.constraints[0]
        assert isinstance(c, LinEq) and c.rhs == 0
        assert [t.coeff for t in c.terms] == [1, 2, -3, -3]
        assert all(m.initial.get(v).values == (0, 1) for v in m.vars)
        assert (xsel.name, xall.name) == ("x3", "x4")

    def test_canonical_solutions(self):
        m, xsel, xall = encode_subset_sum(SubsetSumInstance((3, 5, 9), 8))
        c, _ = m.constraints[0]
        zero = Valuation({v: 0 for v in m.vars})
        assert sat_int(c, zero)
        ones = Valuation({v: (0 if v == xsel else 1) for v in m.vars})
        assert sat_int(c, ones)

    def test_decision_bit_support_is_the_subset_question(self):
        yes, _, _ = encode_subset_sum(SubsetSumInstance((1, 2), 3))
        c, _ = yes.constraints[0]
        assert check_domain(yes.initial, c).consistent
        no, xsel, _ = encode_subset_sum(SubsetSumInstance((2, 4), 3))
        c2, _ = no.constraints[0]
        res = check_bounds_z(no.initial, c2)
        assert not res.consistent
        bad = [(w.var, w.value) for w in res.witnesses if not w.supported]
        assert bad == [(xsel, 1)]

    def test_matches_brute_force_on_random_instances(self):
        rng = fresh_rng(51)
        for _ in range(120):
            n = rng.randint(1, 9)
            items = tuple(rng.randint(1, 50) for _ in range(n))
            target = rng.randint(1, sum(items))
            m, _, _ = encode_subset_sum(SubsetSumInstance(items, target))
            c, _ = m.constraints[0]
            assert (
                check_bounds_z(m.initial, c).consistent
                == oracle_subset_sum(list(items), target)
            )

    def test_zero_one_domains_collapse_the_integer_notions(self):
        # on {0,1} boxes there are no holes, so the three set-free checks
        # coincide with the domain check
        rng = fresh_rng(52)
        for _ in range(60):
            n = rng.randint(1, 7)
            items = tuple(rng.randint(1, 30) for _ in range(n))
            target = rng.randint(1, sum(items))
            m, _, _ = encode_subset_sum(SubsetSumInstance(items, target))
            c, _ = m.constraints[0]
            a = check_domain(m.initial, c).consistent
            b = check_bounds_d(m.initial, c).consistent
            z = check_bounds_z(m.initial, c).consistent
            assert a == b == z

    def test_encoding_overflow_is_loud(self):
        with pytest.raises(OverflowError):
            SubsetSumInstance((1 << 62, 1 << 62), 5)


def box(*pairs):
    return Domain(tuple(IntSet.interval(lo, hi) for lo, hi in pairs))


class TestMonotonicityVerdicts:
    def test_upper_bounded_sum_is_monotone_decreasing(self):
        x1, x2 = make_vars(2)
        c = LinLe((LinTerm(3, x1), LinTerm(5, x2)), 7)
        rep = is_monotonic(c, box((0, 9), (0, 9)))
        assert rep.verdicts == {x1: LT, x2: LT}
        assert rep.monotone

    def test_negated_coefficients_flip_the_order(self):
        x1, x2 = make_vars(2)
        c = LinLe((LinTerm(-2, x1), LinTerm(1, x2)), 4)
        rep = is_monotonic(c, box((0, 5), (0, 5)))
        assert rep.verdicts == {x1: GT, x2: LT}

    def test_product_on_positive_boxes(self):
        x1, x2, x3 = make_vars(3)
        c = ProductLe(x1, x2, x3)
        rep = is_monotonic(c, box((1, 1000), (1, 1000), (1, 1000)))
        assert rep.verdicts == {x1: LT, x2: LT, x3: GT}
        assert rep.monotone

    def test_product_with_a_negative_factor_is_not_monotone(self):
        x1, x2, x3 = make_vars(3)
        c = ProductLe(x1, x2, x3)
        rep = is_monotonic(c, box((-2, 3), (-2, 3), (-1, 1)))
        assert rep.verdicts[x1] is NONE

    def test_linear_equation_is_usually_not_monotone(self):
        x1, x2, x3 = make_vars(3)
        c = LinEq((LinTerm(1, x1), LinTerm(-3, x2), LinTerm(-5, x3)), 0)
        rep = is_monotonic(c, box((2, 7), (0, 2), (-1, 2)))
        assert rep.verdicts == {x1: NONE, x2: NONE, x3: NONE}
        for v in (x1, x2, x3):
            lt_pair, gt_pair = rep.counterexamples[v]
            assert lt_pair is not None and gt_pair is not None

    def test_pinned_equation_variable_is_vacuously_ordered(self):
        x1, x2 = make_vars(2)
        c = LinEq((LinTerm(1, x1), LinTerm(1, x2)), 4)
        rep = is_monotonic(c, box((4, 9), (0, 0)))
        # only x1=4 solves it, which sits on the lower endpoint
        assert rep.verdicts[x1] is LT

    def test_no_real_solutions_makes_everything_monotone(self):
        x1, x2 = make_vars(2)
        c = LinEq((LinTerm(1, x1), LinTerm(1, x2)), 99)  # unreachable target
        rep = is_monotonic(c, box((0, 3), (0, 3)))
        assert rep.monotone

    def test_integer_only_constraints_are_rejected(self):
        x1, x2, x3 = make_vars(3)
        with pytest.raises(RealSemanticsUndefined):
            is_monotonic(Mod(x1, x2, x3), box((0, 3), (0, 3), (1, 3)))
        with pytest.raises(RealSemanticsUndefined):
            refute_monotone(Mod(x1, x2, x3), box((0, 3), (0, 3), (1, 3)), x1, LT)


class TestRefuter:
    def test_refutation_pairs_are_genuine(self):
        rng = fresh_rng(53)
        examined = 0
        for _ in range(120):
            nvars = rng.randint(1, 3)
            vs = make_vars(nvars)
            if nvars == 2 and rng.random() < 0.4:
                c = MonoBij(vs[0], random_monofunc(rng), vs[1])
            elif nvars == 3 and rng.random() < 0.4:
                c = ProductLe(vs[0], vs[1], vs[2])
            elif nvars >= 2 and rng.random() < 0.3:
                c = AllDifferent(tuple(vs))
            else:
                cls = rng.choice([LinEq, LinLe, LinNe])
                c = cls(
                    tuple(LinTerm(rng.choice([-2, -1, 1, 2]), v) for v in vs),
                    rng.randint(-5, 5),
                )
            d = random_domain(rng, nvars, lo=-5, hi=5, max_size=4)
            rep = is_monotonic(c, d)
            for v, (lt_pair, gt_pair) in rep.counterexamples.items():
                for order, pair in ((LT, lt_pair), (GT, gt_pair)):
                    if pair is None:
                        continue
                    theta, broken = pair
                    assert sat_real(c, theta) is True
                    assert sat_real(c, broken) is False
                    moved = [w for w in theta if theta[w] != broken[w]]
                    assert moved == [v]
                    if order is LT:
                        assert broken[v] < theta[v]
                    else:
                        assert broken[v] > theta[v]
                    examined += 1
        assert examined > 40

    def test_monotone_verdicts_survive_the_refuter(self):
        rng = fresh_rng(54)
        kinds = ("linear", "alldiff", "product", "monobij")
        survived = dict.fromkeys(kinds, 0)
        while min(survived.values()) < 20:
            kind = rng.choice(kinds)
            nvars = {"linear": rng.randint(1, 3), "alldiff": rng.randint(2, 4),
                     "product": 3, "monobij": 2}[kind]
            vs = make_vars(nvars)
            d = random_domain(rng, nvars, lo=-4, hi=4, max_size=4)
            if kind == "linear":
                cls = rng.choice([LinEq, LinLe, LinNe])
                c = cls(
                    tuple(LinTerm(rng.choice([-2, -1, 1, 2]), v) for v in vs),
                    rng.randint(-5, 5),
                )
            elif kind == "alldiff":
                c = AllDifferent(tuple(vs))
            elif kind == "product":
                c = ProductLe(*vs)
            else:
                c = MonoBij(vs[0], random_monofunc(rng), vs[1])
                if c.func.nonneg and d.inf(vs[1]) < 0:
                    continue  # a model rejects g restricted to x >= 0 here
            rep = is_monotonic(c, d)
            for v, verdict in rep.verdicts.items():
                if verdict in (LT, GT):
                    assert refute_monotone(c, d, v, verdict) is None, (c, d, v)
                    survived[kind] += 1

    def test_refuter_answers_over_boxes_far_apart(self):
        # x1's box holds about 1.7 * 10**12 grid points, x2's holds 3
        x1, x2 = make_vars(2)
        c = AllDifferent((x1, x2))
        d = Domain((
            IntSet.of([-384854651193, 475911785294]),
            IntSet.of([51410390567, 51410390568]),
        ))
        rep = is_monotonic(c, d)
        assert rep.verdicts == {x1: NONE, x2: NONE}

    @pytest.mark.parametrize("cap", [0, -1])
    def test_a_cap_below_one_samples_nothing(self, cap):
        x1, x2 = make_vars(2)
        c = AllDifferent((x1, x2))
        assert refute_monotone(c, box((0, 3), (0, 3)), x1, LT, cap=cap) is None

    def test_refuter_keeps_to_its_cap(self, monkeypatch):
        import fdlab.reductions

        calls = []
        sat = fdlab.reductions.sat_real
        monkeypatch.setattr(
            fdlab.reductions, "sat_real", lambda *args: calls.append(1) or sat(*args)
        )
        (x,) = make_vars(1)
        c = LinLe((LinTerm(1, x),), 1000)  # every grid point satisfies it
        assert refute_monotone(c, box((0, 100)), x, GT, cap=50) is None
        assert 0 < len(calls) <= 50


def test_monotone_constraints_collapse_all_four_notions():
    # when every variable is monotone, one notion's verdict decides them all
    rng = fresh_rng(55)
    agreed = 0
    for _ in range(200):
        nvars = rng.randint(1, 4)
        vs = make_vars(nvars)
        if nvars == 3 and rng.random() < 0.3:
            c = ProductLe(vs[0], vs[1], vs[2])
        else:
            c = LinLe(
                tuple(LinTerm(rng.choice([-3, -2, -1, 1, 2, 3]), v) for v in vs),
                rng.randint(-8, 8),
            )
        d = random_domain(rng, nvars, max_size=4)
        rep = is_monotonic(c, d)
        if not rep.monotone:
            continue
        verdicts = [
            check_domain(d, c).consistent,
            check_bounds_d(d, c).consistent,
            check_bounds_z(d, c).consistent,
            check_bounds_r(d, c).consistent,
        ]
        assert len(set(verdicts)) == 1, (c, d, verdicts)
        agreed += 1
    assert agreed > 120


def test_disequality_collapses_the_three_bounds_notions():
    rng = fresh_rng(56)
    for _ in range(200):
        nvars = rng.randint(1, 4)
        vs = make_vars(nvars)
        c = LinNe(
            tuple(LinTerm(rng.choice([-3, -2, -1, 1, 2, 3]), v) for v in vs),
            rng.randint(-8, 8),
        )
        d = random_domain(rng, nvars, max_size=5)
        bd = check_bounds_d(d, c).consistent
        bz = check_bounds_z(d, c).consistent
        br = check_bounds_r(d, c).consistent
        assert bd == bz == br, (c, d, bd, bz, br)
        # the collapse holds per value: the same verdict and witness
        for v in vs:
            for value in range(d.inf(v) - 1, d.sup(v) + 2):
                z = support(d, c, N.BOUNDS_Z, v, value)
                assert support(d, c, N.BOUNDS_R, v, value) == z, (c, d, v, value)


def test_bijection_collapses_the_three_bounds_notions():
    rng = fresh_rng(57)
    for _ in range(200):
        vs = make_vars(2)
        c = MonoBij(vs[0], random_monofunc(rng), vs[1])
        d = random_domain(rng, 2, max_size=5)
        bd = check_bounds_d(d, c).consistent
        bz = check_bounds_z(d, c).consistent
        br = check_bounds_r(d, c).consistent
        assert bd == bz == br, (c, d, bd, bz, br)
        # x2 pinned leaves the one support g(x2): the same verdict and witness
        x2 = vs[1]
        for value in range(d.inf(x2) - 1, d.sup(x2) + 2):
            z = support(d, c, N.BOUNDS_Z, x2, value)
            assert support(d, c, N.BOUNDS_R, x2, value) == z, (c, d, value)


def test_unit_coefficient_equations_tie_integer_and_real_bounds():
    rng = fresh_rng(58)
    for _ in range(200):
        nvars = rng.randint(1, 5)
        vs = make_vars(nvars)
        c = LinEq(
            tuple(LinTerm(rng.choice([-1, 1]), v) for v in vs), rng.randint(-8, 8)
        )
        d = random_domain(rng, nvars, max_size=4)
        bz = check_bounds_z(d, c).consistent
        br = check_bounds_r(d, c).consistent
        assert bz == br, (c, d, bz, br)
