"""Propagator tests: worked fixpoints, agreement with the deletion oracle,
range-shaped pruning for the bounds notions, and the fast linear pass."""

import itertools

import pytest

import fdlab.propagators
from conftest import (
    fresh_rng,
    make_vars,
    member_box,
    random_domain,
    random_int_constraint,
    random_linear,
    random_set,
)
from fdlab import (
    Affine,
    Constraint,
    Domain,
    IntSet,
    LinEq,
    LinLe,
    LinNe,
    LinTerm,
    Mod,
    MonoBij,
    ProductLe,
    PropagationResult,
    RealSemanticsUndefined,
    ReifLinLe,
    Table,
    Valuation,
    propagate,
    propagate_linear_br,
)
from fdlab.checkers import ConsistencyNotion, _window, check, closed_form, support
from fdlab.constraints import UNDEFINED, AllDifferent, real_defined, sat_real, vars_of
from fdlab.domains import INT64_MAX, INT64_MIN
from fdlab.oracle import _real_support_exists, oracle_fixpoint
from fdlab.propagators import Propagator

X1, X2, X3 = make_vars(3)
C_LIN = LinEq((LinTerm(1, X1), LinTerm(-3, X2), LinTerm(-5, X3)), 0)

NOTIONS = list(ConsistencyNotion)


def dom3(s1, s2, s3):
    return Domain((IntSet.of(s1), IntSet.of(s2), IntSet.of(s3)))


def test_domain_propagation_reaches_the_known_fixpoint():
    d0 = dom3(range(2, 8), range(0, 3), range(-1, 3))
    res = propagate(d0, C_LIN, ConsistencyNotion.DOMAIN)
    assert not res.failed
    assert res.domain == dom3([3, 5, 6], [0, 1, 2], [0, 1])
    removed = dict((v.name, vals) for v, vals in res.pruned)
    assert removed == {"x1": (2, 4, 7), "x3": (-1, 2)}


def test_fixpoint_is_consistent_and_maximal_against_oracle():
    rng = fresh_rng(21)
    for _ in range(150):
        n = rng.randint(1, 3)
        vs = make_vars(n)
        c = random_int_constraint(rng, vs)
        d = random_domain(rng, n, max_size=4)
        for notion in NOTIONS:
            if notion is ConsistencyNotion.BOUNDS_R and not real_defined(c):
                continue
            got = propagate(d, c, notion)
            want = oracle_fixpoint(d, c, notion)
            if want is None:
                assert got.failed
            else:
                assert not got.failed
                assert got.domain == want
                assert check(got.domain, c, notion).consistent


def test_propagation_is_idempotent():
    rng = fresh_rng(22)
    for _ in range(80):
        n = rng.randint(1, 3)
        vs = make_vars(n)
        c = random_int_constraint(rng, vs)
        d = random_domain(rng, n, max_size=4)
        for notion in NOTIONS:
            if notion is ConsistencyNotion.BOUNDS_R and not real_defined(c):
                continue
            first = propagate(d, c, notion)
            if first.failed:
                continue
            again = propagate(first.domain, c, notion)
            assert not again.failed
            assert again.domain == first.domain
            assert again.pruned == ()


def test_bounds_notions_only_trim_bounds():
    # a bounds propagator never creates or fills holes: the result is the
    # input intersected with a narrower interval
    rng = fresh_rng(23)
    for _ in range(120):
        n = rng.randint(1, 3)
        vs = make_vars(n)
        c = random_int_constraint(rng, vs)
        d = random_domain(rng, n, max_size=5)
        for notion in (
            ConsistencyNotion.BOUNDS_D,
            ConsistencyNotion.BOUNDS_Z,
            ConsistencyNotion.BOUNDS_R,
        ):
            if notion is ConsistencyNotion.BOUNDS_R and not real_defined(c):
                continue
            res = propagate(d, c, notion)
            if res.failed:
                continue
            for v in vs:
                s = res.domain.get(v)
                clamped = d.get(v).clamp(s.inf, s.sup)
                assert clamped is not None and clamped == s


def test_pruned_values_account_for_the_difference():
    rng = fresh_rng(24)
    for _ in range(80):
        n = rng.randint(1, 3)
        vs = make_vars(n)
        c = random_int_constraint(rng, vs)
        d = random_domain(rng, n, max_size=4)
        res = propagate(d, c, ConsistencyNotion.DOMAIN)
        if res.failed:
            continue
        pruned = dict(res.pruned)
        for v in vs:
            gone = tuple(x for x in d.get(v).values if x not in res.domain.get(v))
            assert pruned.get(v, ()) == gone


def test_between_equals_the_set_difference():
    """`between` reads the lost values off the kept run where the new set is
    one; every answer must equal the value-by-value set difference."""
    rng = fresh_rng(25)
    vs = make_vars(3)
    shapes = dict.fromkeys(("prefix", "suffix", "middle", "holes", "singleton", "equal"), 0)
    for _ in range(3000):
        olds, news = [], []
        for _ in vs:
            old = sorted(rng.sample(range(-40, 40), rng.randint(1, 12)))
            shape = rng.choice(("run", "run", "holes", "singleton", "equal"))
            if shape == "run":
                i = rng.randrange(len(old))
                new = old[i : rng.randint(i + 1, len(old))]
            elif shape == "holes":
                new = sorted(rng.sample(old, rng.randint(1, len(old))))
            elif shape == "singleton":
                new = [rng.choice(old)]
            else:
                new = old
            i = old.index(new[0])
            if new == old:
                shapes["equal"] += 1
            elif len(new) == 1:
                shapes["singleton"] += 1
            elif new != old[i : i + len(new)]:
                shapes["holes"] += 1
            else:
                shapes["prefix" if i == 0 else "middle" if new[-1] != old[-1] else "suffix"] += 1
            olds.append(IntSet(tuple(old)))
            news.append(IntSet(tuple(new)))
        before, after = Domain(tuple(olds)), Domain(tuple(news))
        asked = rng.choices(vs, k=rng.randint(0, 4))
        want = []
        for v in sorted(set(asked)):
            kept = set(after.get(v).values)
            gone = tuple(x for x in before.get(v).values if x not in kept)
            if gone:
                want.append((v, gone))
        assert PropagationResult.between(before, after, asked) == (
            PropagationResult(after, tuple(want))
        )
    assert min(shapes.values()) > 300, shapes


def test_failure_reported_as_failed_result():
    d = Domain((IntSet.of([1, 2]),))
    x = make_vars(1)[0]
    res = propagate(d, LinEq((LinTerm(1, x),), 9), ConsistencyNotion.DOMAIN)
    assert res.failed and res.domain is None


def test_failed_propagation_prunes_nothing():
    x, y = make_vars(2)
    c = LinEq((LinTerm(1, x), LinTerm(1, y)), 20)
    d = Domain((IntSet.interval(0, 3), IntSet.interval(0, 3)))
    for notion in NOTIONS:
        res = propagate(d, c, notion)
        assert res.failed and res.pruned == ()
    assert propagate_linear_br(d, c) == propagate(d, c, ConsistencyNotion.BOUNDS_R)


def test_revise_builds_one_intset_per_narrowed_variable(monkeypatch):
    # only x narrows, from 1000 values to [0,8]
    x, y = make_vars(2)
    c = LinLe((LinTerm(1, x), LinTerm(-1, y)), 3)
    d = Domain((IntSet.interval(0, 999), IntSet.interval(0, 5)))
    builds = []
    post_init = IntSet.__post_init__

    def counting(self):
        builds.append(self)
        post_init(self)

    monkeypatch.setattr(IntSet, "__post_init__", counting)
    for notion in NOTIONS:
        builds.clear()
        res = propagate(d, c, notion)
        assert res.domain.get(x).values == tuple(range(9))
        assert res.domain.get(y) is d.get(y)
        assert len(builds) <= 1, notion


def test_support_never_reads_the_pinned_variables_own_set():
    # the single-pass revise in propagate relies on this
    rng = fresh_rng(26)
    for _ in range(120):
        n = rng.randint(1, 3)
        vs = make_vars(n)
        c = random_int_constraint(rng, vs)
        d = random_domain(rng, n, max_size=4)
        for notion in NOTIONS:
            if notion is ConsistencyNotion.BOUNDS_R and not real_defined(c):
                continue
            for var in vs:
                for value in d.get(var):
                    pinned = d.with_set(var, IntSet((value,)))
                    assert support(d, c, notion, var, value) == support(
                        pinned, c, notion, var, value
                    )


def test_real_propagation_rejects_integer_only_constraints():
    d = dom3([0, 1], [0, 1], [1, 2])
    with pytest.raises(RealSemanticsUndefined):
        propagate(d, Mod(X1, X2, X3), ConsistencyNotion.BOUNDS_R)


def test_points_and_one_free_variable_propagate_as_the_oracle_does():
    # every variable but at most one is a point, so `holds` decides the run
    rng = fresh_rng(24)
    for _ in range(300):
        n = rng.randint(1, 4)
        vs = make_vars(n)
        c = random_int_constraint(rng, vs)
        free = rng.randrange(n + 1)  # n: every variable is a point
        d = Domain(tuple(
            s if i == free else IntSet((rng.choice(s.values),))
            for i, s in enumerate(random_domain(rng, n).sets)
        ))
        for notion in NOTIONS:
            if notion is ConsistencyNotion.BOUNDS_R and not real_defined(c):
                with pytest.raises(RealSemanticsUndefined):
                    propagate(d, c, notion)
                continue
            want = oracle_fixpoint(d, c, notion)
            assert propagate(d, c, notion) == PropagationResult.between(d, want, vs)


def test_rules_before_the_revise_loop_keep_errors_and_the_input():
    x, y, z = make_vars(3)
    points = dom3([1], [0], [2])
    for c in Table((x, y, z), ((1, 0, 2),)), Mod(x, y, z), ReifLinLe(x, (LinTerm(1, y),), 0):
        with pytest.raises(RealSemanticsUndefined):
            propagate(points, c, ConsistencyNotion.BOUNDS_R)
    d = dom3([1], [0, 3], [-1, 2])
    for notion in NOTIONS:
        assert propagate(d, LinNe((LinTerm(1, y), LinTerm(1, z)), 2), notion).domain is d


def _record_queries(monkeypatch):
    """Wrap both support searches of `propagate`.  Each query appends
    whether another variable of its constraint has more than one candidate
    (for bounds(R), a box of positive length)."""
    seen = []

    def record(name):
        fn = getattr(fdlab.propagators, name)

        def recorded(c, var, value, cands, *rest):
            seen.append(any(len(cands(w)) > 1 for w in c.scope if w != var))
            return fn(c, var, value, cands, *rest)

        monkeypatch.setattr(fdlab.propagators, name, recorded)

    record("_find_int_support")
    record("_real_support")
    return seen


def test_no_support_query_once_every_other_variable_is_a_point(monkeypatch):
    # on entry or after a narrowing, a run down to one free variable
    # revises it with `holds`
    seen = _record_queries(monkeypatch)
    rng = fresh_rng(31)
    for _ in range(400):
        n = rng.randint(2, 4)
        vs = make_vars(n)
        c = random_int_constraint(rng, vs)
        d = random_domain(rng, n, max_size=4)
        for notion in NOTIONS:
            if notion is ConsistencyNotion.BOUNDS_R and not real_defined(c):
                continue
            propagate(d, c, notion)
    assert len(seen) > 1000 and all(seen)


def test_a_run_narrowed_to_one_free_variable_revises_it_with_holds(monkeypatch):
    # one query per value of x; x = 0 leaves y the only free variable, and
    # `holds` decides its eight values
    seen = _record_queries(monkeypatch)
    x, y, z = make_vars(3)
    c = LinEq((LinTerm(1, x), LinTerm(1, y), LinTerm(1, z)), 2)
    d = Domain((IntSet.interval(0, 5), IntSet.interval(2, 9), IntSet.of([0])))
    res = propagate(d, c, ConsistencyNotion.DOMAIN)
    assert res.domain == dom3([0], [2], [0])
    assert len(seen) == 6


def test_disequality_trims_only_a_fully_determined_endpoint():
    x, y = make_vars(2)
    c = LinNe((LinTerm(1, x), LinTerm(1, y)), 6)
    fixed = Domain((IntSet.interval(3, 5), IntSet.of([1])))
    res = propagate(fixed, c, ConsistencyNotion.BOUNDS_Z)
    assert res.domain.get(x).values == (3, 4)
    loose = Domain((IntSet.interval(3, 5), IntSet.of([1, 2])))
    res2 = propagate(loose, c, ConsistencyNotion.BOUNDS_Z)
    assert res2.domain == loose  # both ends supported, nothing to trim


def test_linear_real_pass_matches_worked_example():
    x, y = make_vars(2)
    c = LinEq((LinTerm(1, x), LinTerm(2, y)), 3)
    d = Domain((IntSet.interval(0, 3), IntSet.interval(0, 3)))
    res = propagate_linear_br(d, c)
    assert res.domain.get(x).values == (1, 2, 3)
    assert res.domain.get(y).values == (0, 1)
    assert dict(res.pruned) == {x: (0,), y: (2, 3)}


def test_linear_real_pass_equals_generic_real_propagation():
    rng = fresh_rng(25)
    for _ in range(200):
        n = rng.randint(1, 4)
        vs = make_vars(n)
        c = random_linear(rng, vs)
        d = random_domain(rng, n, max_size=5)
        fast = propagate_linear_br(d, c)
        slow = propagate(d, c, ConsistencyNotion.BOUNDS_R)
        assert fast.failed == slow.failed
        if not fast.failed:
            assert fast.domain == slow.domain


def test_real_reasoning_past_64_bits_answers():
    # products and sums here leave the signed 64-bit range; none may raise
    x, y, z = make_vars(3)
    c = ProductLe(x, y, z)
    factors = [(2**32, 2**32 + 2), (-(2**32) - 1, 2**32), (2**62 - 1, 2**62), (-(2**62), 3)]
    thirds = [(0, INT64_MAX), (INT64_MIN, -(2**62)), (2**62, INT64_MAX)]
    for f1, f2, f3 in itertools.product(factors, factors, thirds):
        d = Domain((IntSet.of(f1), IntSet.of(f2), IntSet.of(f3)))
        for v in (x, y, z):
            for value in d.get(v).values:
                w = support(d, c, ConsistencyNotion.BOUNDS_R, v, value)
                assert w.supported == _real_support_exists(d, c, v, value), (d, v, value)
                if w.supported:
                    assert sat_real(c, w.witness) is True
                    assert member_box(w.witness, d)
    big = 2**62
    for d in (dom3([0, big], [0, big], [0]), dom3([0, big], [0, big - 1], [0])):
        for rel in (LinEq, LinLe, LinNe):
            lin = rel((LinTerm(2, X1), LinTerm(-2, X2)), 0)
            assert propagate_linear_br(d, lin) == propagate(d, lin, ConsistencyNotion.BOUNDS_R)


def test_linear_real_pass_rejects_non_linear():
    with pytest.raises(ValueError):
        propagate_linear_br(
            dom3([0, 1], [0, 1], [0, 1]), ProductLe(X1, X2, X3)
        )


def test_alldifferent_real_propagation_squeezes_pinned_neighbours():
    c = AllDifferent((X1, X2, X3))
    d = dom3([2], [2, 3], [2, 3, 4])
    res = propagate(d, c, ConsistencyNotion.BOUNDS_R)
    assert not res.failed
    assert res.domain.get(X2).values == (3,)
    assert res.domain.get(X3).values == (4,)


def _peeled_fixpoint(d, c, notion):
    """Greatest fixpoint by per-value `support` queries: every unsupported
    value at the domain notion, unsupported ends at the bounds notions."""
    changed = True
    while changed:
        changed = False
        for v in vars_of(c):
            values = list(d.get(v).values)
            if notion is ConsistencyNotion.DOMAIN:
                kept = [x for x in values if support(d, c, notion, v, x).supported]
            else:
                kept = values
                while kept and not support(d, c, notion, v, kept[0]).supported:
                    kept = kept[1:]
                while kept and not support(d, c, notion, v, kept[-1]).supported:
                    kept = kept[:-1]
            if not kept:
                return None
            if len(kept) < len(values):
                d = d.with_set(v, IntSet(tuple(kept)))
                changed = True
    return d


def test_closed_form_linear_revise_equals_per_value_peeling():
    rng = fresh_rng(27)
    z_differs_from_r = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        vs = make_vars(n)
        unit = rng.random() < 0.5
        coeffs = (-1, 1) if unit else (-5, -3, -2, -1, 1, 2, 3, 5)
        c = random_linear(rng, vs, coeffs=coeffs)
        d = random_domain(rng, n, max_size=6 if n < 4 else 4)
        want = {notion: _peeled_fixpoint(d, c, notion) for notion in NOTIONS}
        for notion in NOTIONS:
            got = propagate(d, c, notion)
            assert got.domain == want[notion], (c, d, notion)
        z, r = want[ConsistencyNotion.BOUNDS_Z], want[ConsistencyNotion.BOUNDS_R]
        if isinstance(c, LinEq) and not unit and z != r:
            z_differs_from_r += 1
    # bounds(Z) of an equation with a coefficient other than +-1 is not the
    # real window, so it must stay a per-value search
    assert z_differs_from_r > 0


def test_closed_form_product_and_alldifferent_revise_equals_per_value_peeling():
    # sets around zero: factor ends of 0, windows on both sides of a gap, and
    # point boxes of alldifferent that collide
    rng = fresh_rng(28)
    seen = {"zero end": 0, "gap": 0, "collision": 0}
    for _ in range(400):
        if rng.random() < 0.5:
            vs = make_vars(3)
            c, notions = ProductLe(*vs), NOTIONS
        else:
            vs = make_vars(rng.randint(2, 5))
            c, notions = AllDifferent(tuple(vs)), [ConsistencyNotion.BOUNDS_R]
        d = random_domain(rng, len(vs), lo=-6, hi=6, max_size=rng.choice([1, 2, 4, 6]))
        for notion in notions:
            want = _peeled_fixpoint(d, c, notion)
            assert propagate(d, c, notion).domain == want, (c, d, notion)
        if isinstance(c, ProductLe):
            seen["zero end"] += 0 in (d.inf(vs[0]), d.sup(vs[0]), d.inf(vs[1]), d.sup(vs[1]))
            want = _peeled_fixpoint(d, c, ConsistencyNotion.DOMAIN)
            if want is not None:
                kept = want.get(vs[0])
                seen["gap"] += d.get(vs[0]).clamp(kept.inf, kept.sup).size > kept.size
        else:
            fixed = [d.inf(v) for v in vs if d.get(v).is_singleton]
            seen["collision"] += len(set(fixed)) < len(fixed)
    assert all(seen.values()), seen


def _windows(p, vals, k):
    """The windows that compiled propagator p reads for position k of vals,
    the values of its scope; the linear form is read over the hull of the
    other terms, which a linear run keeps in two lists."""
    if p.reader is not _window:
        return p.reader(vals, k)
    ends = [sorted((a * vs[0], a * vs[-1])) for a, vs in zip(p.coeffs, vals)]
    lo = sum(e[0] for j, e in enumerate(ends) if j != k)
    hi = sum(e[1] for j, e in enumerate(ends) if j != k)
    w = _window(vals[k], p.coeffs[k], p.rhs, lo, hi if p.eq else None)
    return (w,) if w else ()


def test_supported_windows_hold_exactly_the_supported_values():
    rng = fresh_rng(29)
    answered = 0
    for _ in range(300):
        roll = rng.random()
        vs = make_vars(3 if roll < 0.4 else rng.randint(2, 4))
        if roll < 0.4:
            c = ProductLe(*vs)
        elif roll < 0.7:
            c = AllDifferent(tuple(vs))
        else:
            c = random_linear(rng, vs, kinds=(LinEq, LinLe))
        d = random_domain(rng, len(vs), lo=-6, hi=6, max_size=rng.choice([1, 2, 4, 6]))
        for notion in NOTIONS:
            p = Propagator(c, notion)
            if p.reader is None:
                continue
            vals = [d.sets[i].values for i in p.idx]
            for k, var in enumerate(c.scope):
                values = vals[k]
                answered += 1
                got = [j for w in _windows(p, vals, k) for j in w]
                want = [j for j, x in enumerate(values) if support(d, c, notion, var, x).supported]
                assert got == want, (c, d, notion, var)
    assert answered > 1000


def _random_case(rng):
    """A random constraint of any class, its scope in random order, over a
    domain of a random shape: small sets, all points, one free variable, or
    wide boxes far from 0."""
    shape = rng.choice(["sets", "points", "one free", "wide"])
    vs = make_vars(rng.randint(1, 3 if shape == "wide" else 4))
    c = random_int_constraint(rng, rng.sample(vs, len(vs)))  # scope in any order
    if shape == "wide" and not isinstance(c, (Mod, Table)):  # no product scans
        base = rng.choice([0, -(10**6), 10**6, INT64_MAX // 8])
        sets = []
        for _ in vs:
            lo = base + rng.randint(-40, 40)
            sets.append(IntSet.interval(lo, lo + rng.randint(0, 60)))
        return c, Domain(tuple(sets)), shape
    shape = "sets" if shape == "wide" else shape
    sizes = {"sets": 5, "points": 1, "one free": 1}
    d = random_domain(rng, len(vs), max_size=sizes[shape])
    if shape == "one free":
        d = d.with_set(rng.choice(vs), random_set(rng, max_size=6))
    return c, d, shape


def test_compiled_propagators_equal_peeling_and_the_oracle():
    # Each run of a compiled propagator, on thousands of random constraints
    # of every class at all four notions, equals per-value peeling, and the
    # deletion-order oracle where the sets hold at most 7 values in all;
    # `pruned` lists what each variable lost, in variable order.
    rng = fresh_rng(43)
    seen = {cls: 0 for cls in (LinEq, LinLe, LinNe, AllDifferent, ProductLe, MonoBij, Mod,
                               ReifLinLe, Table)}
    seen.update({"sets": 0, "points": 0, "one free": 0, "wide": 0, "negative": 0, "oracle": 0})
    for _ in range(2500):
        c, d, shape = _random_case(rng)
        seen[type(c)] += 1
        seen[shape] += 1
        seen["negative"] += any(t.coeff < 0 for t in getattr(c, "terms", ()))
        small = shape != "wide" and sum(d.get(v).size for v in c.scope) <= 7
        for notion in NOTIONS if c.real else NOTIONS[:3]:
            got = propagate(d, c, notion)
            assert got.domain == _peeled_fixpoint(d, c, notion), (c, d, notion)
            if small:
                seen["oracle"] += 1
                assert got.domain == oracle_fixpoint(d, c, notion), (c, d, notion)
            if got.failed:
                continue
            lost = [(v, tuple(x for x in d.get(v) if x not in got.domain.get(v)))
                    for v in sorted(c.scope)]
            assert got.pruned == tuple((v, gone) for v, gone in lost if gone), (c, d, notion)
    assert all(seen.values()), seen


def test_a_run_that_changes_the_domain_builds_one_domain(monkeypatch):
    # Every class at every notion it allows: the searches read the run's own
    # lists, so a run builds its result's `Domain` once, and a run that
    # changes nothing (or fails) builds none.  The first two cases narrow a
    # variable at bounds(R) and revise again after it: x1 = 2*x2 with two
    # free variables, and x + y != 6 with one.
    built = []
    init = Domain.__init__

    def counted(self, sets):
        built.append(sets)
        init(self, sets)

    x, y = make_vars(2)
    ne = LinNe((LinTerm(1, x), LinTerm(1, y)), 6)
    cases = [
        (MonoBij(x, Affine(2, 0), y), Domain((IntSet.interval(0, 10), IntSet.interval(0, 2)))),
        (ne, Domain((IntSet.interval(3, 5), IntSet.of([1])))),
    ]
    rng = fresh_rng(47)
    cases += [_random_case(rng)[:2] for _ in range(1500)]
    monkeypatch.setattr(Domain, "__init__", counted)
    changed = set()
    for i, (c, d) in enumerate(cases):
        for notion in NOTIONS if c.real else NOTIONS[:3]:
            built.clear()
            res = propagate(d, c, notion)
            assert len(built) == bool(res.pruned), (c, d, notion)
            if i < 2 and notion is ConsistencyNotion.BOUNDS_R:
                assert len(res.pruned) == 1, c
            if res.pruned:
                changed.add((type(c), notion))
    assert len(changed) == 6 * 4 + 3 * 3


def test_product_revise_keeps_both_sides_of_a_gap():
    # x2 in [-5,5] and x3 <= -10 leave x1 <= -2 or x1 >= 2, and likewise x2
    c = ProductLe(X1, X2, X3)
    d = dom3(range(-4, 5), range(-5, 6), [-12, -10])
    res = propagate(d, c, ConsistencyNotion.DOMAIN)
    assert res.domain == dom3([-4, -3, -2, 2, 3, 4], [-5, -4, -3, 3, 4, 5], [-12, -10])
    assert res.domain == oracle_fixpoint(d, c, ConsistencyNotion.DOMAIN)
    for notion in NOTIONS[1:]:  # the ends have supports, so the bounds keep all
        assert propagate(d, c, notion).domain == d
    # a factor end of 0 is a coefficient of 0: it supports all values or none
    d = dom3(range(-3, 4), range(0, 4), [-2, -1])
    for notion in NOTIONS:
        res = propagate(d, c, notion)
        assert res.domain == dom3([-3, -2, -1], [1, 2, 3], [-2, -1]), notion


def test_alldifferent_real_revise_fails_on_colliding_points():
    c = AllDifferent((X1, X2, X3))
    d = dom3([2], [2], range(1, 6))
    assert propagate(d, c, ConsistencyNotion.BOUNDS_R).failed
    # x3 alone sees no value: x1 and x2 collide whatever x3 takes
    assert closed_form(c, ConsistencyNotion.BOUNDS_R)([s.values for s in d.sets], 2) == ()
    res = propagate(dom3([2], [4], [2, 3, 4]), c, ConsistencyNotion.BOUNDS_R)
    assert res.domain == dom3([2], [4], [3])


def test_product_revise_over_a_wide_range_reads_the_windows():
    # no x, y >= 1 has x*y <= 0; peeling would ask for 200,000 values
    c = ProductLe(X1, X2, X3)
    d = dom3(range(1, 100_001), range(1, 100_001), [0])
    for notion in NOTIONS:
        assert propagate(d, c, notion).failed, notion
    # 2*x <= 6 or 3*x <= 6 leaves x <= 3; y and z keep their values
    d = Domain((IntSet.interval(-100_000, 100_000), IntSet.of([2, 3]), IntSet.of([-6, 6])))
    for notion in NOTIONS:
        res = propagate(d, c, notion)
        assert res.domain == d.with_set(X1, IntSet.interval(-100_000, 3)), notion
    # y in [-5,5] and z <= -10 leave |x| >= 2, on both sides of a gap
    d = Domain((IntSet.interval(-100_000, 100_000), IntSet.interval(-5, 5), IntSet.of([-12, -10])))
    res = propagate(d, c, ConsistencyNotion.DOMAIN)
    gap = IntSet(tuple(range(-100_000, -1)) + tuple(range(2, 100_001)))
    assert res.domain.get(X1) == gap


def test_linear_revise_over_a_wide_range_reads_the_window():
    # x holds 300,001 values; only four of them have a support
    x, y = make_vars(2)
    d = Domain((IntSet.interval(0, 300_000), IntSet.interval(0, 5)))
    le = LinLe((LinTerm(1, x), LinTerm(1, y)), 3)
    for notion in NOTIONS:
        res = propagate(d, le, notion)
        assert res.domain.get(x) == IntSet.interval(0, 3), notion
    eq = LinEq((LinTerm(1, x), LinTerm(-1, y)), 0)
    res = propagate(d, eq, ConsistencyNotion.BOUNDS_Z)
    assert res.domain.get(x) == IntSet.interval(0, 5)


def test_reified_sum_of_eight_variables_propagates_at_domain():
    # b <-> x0 + ... + x7 <= -1 over [0,9]: the sum is never negative, so
    # b=1 has no support; 10**8 tuples per value for a product scan
    b, *xs = make_vars(9)
    d = Domain((IntSet.interval(0, 1),) + (IntSet.interval(0, 9),) * 8)
    c = ReifLinLe(b, tuple(LinTerm(1, x) for x in xs), -1)
    res = propagate(d, c, ConsistencyNotion.DOMAIN)
    assert res.pruned == ((b, (1,)),)
    assert res.domain.get(b) == IntSet.of([0])


def test_class_table_pins_scope_real_and_closed_forms():
    # One instance of every concrete class.  A closed form that silently
    # drops out still passes the peeling tests, since searching each value
    # reaches the same fixpoint, so the cases that have one are pinned here.
    B_Z, B_R = ConsistencyNotion.BOUNDS_Z, ConsistencyNotion.BOUNDS_R
    x, y, z, b, outside = make_vars(5)
    d = Domain((IntSet.interval(0, 3),) * 5)
    unit = (LinTerm(1, y), LinTerm(-1, x), LinTerm(1, z))
    cases = [  # constraint, scope in declaration order, notions with a closed form
        (LinEq(unit, 0), (y, x, z), {B_Z, B_R}),
        (LinEq((LinTerm(2, y), LinTerm(-1, x)), 0), (y, x), {B_R}),
        (LinLe(unit, 0), (y, x, z), set(NOTIONS)),
        (LinNe(unit, 0), (y, x, z), set()),
        (AllDifferent((z, x, y)), (z, x, y), {B_R}),
        (ProductLe(z, x, y), (z, x, y), set(NOTIONS)),
        (MonoBij(y, Affine(2, 1), x), (y, x), set()),
        (Mod(z, y, x), (z, y, x), set()),
        (ReifLinLe(b, unit, 0), (b, y, x, z), set()),
        (Table((y, x), ((1, 2),)), (y, x), set()),
    ]
    leaves, stack = set(), [Constraint]
    while stack:
        cls = stack.pop()
        stack += cls.__subclasses__()
        leaves |= set() if cls.__subclasses__() else {cls}
    assert {type(c) for c, _, _ in cases} == leaves
    for c, scope, forms in cases:
        assert c.scope == vars_of(c) == scope, c
        defined = sat_real(c, Valuation({v: 0 for v in scope})) is not UNDEFINED
        assert c.real == real_defined(c) == defined, c
        assert {n for n in NOTIONS if closed_form(c, n) is not None} == forms, c
        for n in NOTIONS if c.real else [n for n in NOTIONS if n != B_R]:
            with pytest.raises(ValueError, match="x5 is not a variable"):
                support(d, c, n, outside, 0)
